"""Command-line harness: generate datasets, render matrices, extract
features, classify.

Stages communicate through files (edge lists + manifest, feature CSVs, JSON
reports) so each stage is independently testable and externally computed
features can enter at the CSV boundary.  All randomness flows from ``--seed``
and every run with the same flags is byte-identical.  ``classify`` sets only
the classifier and seed: ``knn`` is 1-NN, ``svm`` trains with the constants
``classify.SVM_C`` and ``classify.SVM_EPOCHS``, and both run 10-fold
cross-validation, with fewer folds (and a warning) when a class is smaller.
``NETCLASS_THREADS`` sets the worker count of ``gen`` (one task per graph
drawn and written) and of ``features`` (one task per graph read and
described).  On Linux the workers are forked from the CLI process, so they
run the code it has loaded; elsewhere they are spawned as fresh
interpreters.  Output bytes depend on neither the worker count nor the start
method.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .classify import DatasetError, LabeledDataset, evaluate
from .features import (
    FeatureError,
    clbp_features,
    hu_moments,
    projection,
    read_feature_csv,
    render_pgm,
    write_feature_csv,
)
from .generators import (
    MANIFEST_NAME,
    PRESETS,
    generate,
    preset_rows,
    read_manifest,
    write_manifest,
)
from .graph import degree_vector, read_edge_list, write_edge_list
from .metrics import metric_selection, structural_features
from .ordering import sorted_adjacency


# Spawned workers each start an interpreter and import numpy and netclass: on
# a 2-vCPU host a pool of 2 was ready 0.2 to 0.54 s after it was created,
# paid again by every gen and features stage.  Forked workers inherit the
# loaded modules and were ready in under 10 ms.  forkserver is not used: it was no
# faster, and its workers are not children of this process, so wait4 on the
# CLI no longer counts their memory.  Windows cannot fork and macOS's
# Accelerate BLAS is not fork-safe, so they keep spawn.
START_METHOD = "fork" if sys.platform == "linux" else "spawn"


def _threads() -> int:
    raw = os.environ.get("NETCLASS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"NETCLASS_THREADS must be an integer, got {raw!r}") from None


# Each extractor kind maps to its descriptor of a graph and a metric
# selection, which only ``structural`` reads.
EXTRACTORS = {
    # a 1 x n matrix whose column sums are the degrees
    "projection": lambda g, _: projection(degree_vector(g)[np.newaxis]),
    "clbp": lambda g, _: clbp_features(sorted_adjacency(g)),
    "hu": lambda g, _: hu_moments(sorted_adjacency(g)),
    "structural": structural_features,
}


def parse_extractor(text: str):
    """Split an extractor id into (kind, metric selection).

    ``projection``, ``clbp`` and ``hu`` stand alone; ``structural`` takes an
    optional suffix, e.g. ``structural:combined`` (the default) or
    ``structural:k`` or ``structural:pp,cl``.
    """
    kind, _, rest = text.partition(":")
    if kind not in EXTRACTORS:
        raise ValueError(f"unknown extractor {text!r}; choose one of {', '.join(EXTRACTORS)}")
    if kind != "structural":
        if rest:
            raise ValueError(f"extractor {kind!r} takes no arguments")
        return kind, None
    which = rest or "combined"
    if which != "combined":
        which = tuple(w for w in which.split(",") if w)
    metric_selection(which)
    return kind, which


def _feature_row(task):
    path, kind, which = task
    g = read_edge_list(path)
    # Warnings (such as inexact path counts) are re-issued naming the file.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = EXTRACTORS[kind](g, which)
        except ValueError as exc:
            raise FeatureError(f"{path}: {exc}") from None
    for w in caught:
        warnings.warn(f"{path}: {w.message}", w.category)
    return values.tolist()


def _write_graph(task):
    spec, path = task
    write_edge_list(generate(spec), path)


def _fan_out(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, spread over ``NETCLASS_THREADS`` workers
    (never more than there are tasks), in task order."""
    workers = min(_threads(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with get_context(START_METHOD).Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers)))


def cmd_generate(args) -> int:
    rows = preset_rows(args.preset, args.seed, count_override=args.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [row.filename() for row in rows]
    _fan_out(_write_graph, [(row.spec, str(out / name)) for row, name in zip(rows, names)])
    write_manifest(rows, names, out / MANIFEST_NAME)
    print(f"wrote {len(rows)} graphs and {MANIFEST_NAME} to {out}")
    return 0


def cmd_render(args) -> int:
    g = read_edge_list(args.graph)
    data = render_pgm(sorted_adjacency(g), dilate=args.dilate)
    Path(args.out).write_bytes(data)
    print(f"wrote {args.out}")
    return 0


def cmd_features(args) -> int:
    kind, which = parse_extractor(args.extractor)
    manifest = Path(args.manifest)
    triples = read_manifest(manifest)
    if not triples:
        raise FeatureError(f"{manifest}: empty manifest")
    base = manifest.parent
    tasks = [(str(base / p), kind, which) for p, _, _ in triples]
    labels = [label for _, label, _ in triples]
    rows = _fan_out(_feature_row, tasks)
    write_feature_csv(args.out, labels, np.array(rows, dtype=np.float64))
    print(f"wrote {len(rows)} x {len(rows[0])} features to {args.out}")
    return 0


def cmd_classify(args) -> int:
    labels, feats = read_feature_csv(args.features)
    try:
        report = evaluate(
            LabeledDataset(feats, tuple(labels), extractor=args.extractor_id),
            classifier=args.classifier,
            seed=args.seed,
        )
    except DatasetError as exc:
        raise DatasetError(f"{args.features}: {exc}") from None
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(report.summary_cell())
    print(report.confusion_text())
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netclass",
        description="Classify complex networks from sorted adjacency matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a preset dataset to disk")
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=None,
                   help="override replicates per cell (smoke tests)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="render a graph's sorted matrix as PGM")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--out", required=True)
    p.add_argument("--dilate", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("features", help="extract features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--extractor", required=True,
                   help=" | ".join(EXTRACTORS) + "[:combined|:ids]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", help="cross-validate a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--classifier", required=True, choices=("knn", "svm"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--extractor-id", default="external",
                   help="extractor name recorded in the report")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
