"""Work the benchmark runs in a fresh child process.

``inputs`` writes a workload's graphs when no ``netclass gen`` preset covers
them (the deep-structural edge lists plus manifest), through the package's
generator and edge-list writer.  ``probe`` runs one layer on one input, so that
the parent can read the child's peak RSS from ``wait4``; ``baseline`` only
imports the package, which gives the interpreter-plus-import floor.  ``env``
prints the numpy and BLAS versions as JSON.  Work that needs numpy runs here
rather than in run.py: Linux counts the memory a process had before
``exec`` in the peak RSS of what it runs, so run.py stays small until
its children are measured.

    python3 perfbench/child.py inputs <workload> --seed N --out DIR [--smoke]
    python3 perfbench/child.py probe <layer> <input file>
    python3 perfbench/child.py env
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def write_inputs(workload, seed: int, out: Path, smoke: bool) -> None:
    from netclass.generators import MANIFEST_NAME, generate, write_manifest
    from netclass.graph import write_edge_list

    out.mkdir(parents=True, exist_ok=True)
    rows = workload.graph_rows(seed, smoke)
    names = []
    for row in rows:
        write_edge_list(generate(row.spec), out / row.filename())
        names.append(row.filename())
    write_manifest(rows, names, out / MANIFEST_NAME)


def probe(layer: str, path: str) -> None:
    from netclass import (
        LabeledDataset,
        betweenness,
        clbp_features,
        evaluate,
        read_edge_list,
        read_feature_csv,
        sorted_adjacency,
        structural_features,
    )

    if layer == "baseline":
        return
    if layer == "svm":
        labels, x = read_feature_csv(path)
        evaluate(LabeledDataset(x, tuple(labels), "probe"), classifier="svm")
        return
    g = read_edge_list(path)
    if layer == "betweenness":
        betweenness(g)
    elif layer == "structural":
        structural_features(g, "combined")
    elif layer == "sorted_adjacency":
        sorted_adjacency(g)
    elif layer == "clbp":
        clbp_features(sorted_adjacency(g))
    else:
        raise SystemExit(f"unknown probe layer {layer!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("inputs")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    p = sub.add_parser("probe")
    p.add_argument("layer")
    p.add_argument("path")
    sub.add_parser("env")
    args = parser.parse_args(argv)
    if args.cmd == "inputs":
        write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out), args.smoke)
    elif args.cmd == "env":
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(json.dumps({"numpy": np.__version__,
                          "blas": f"{blas.get('name')} {blas.get('version')}"}))
    else:
        probe(args.layer, args.path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
