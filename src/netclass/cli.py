"""Command-line harness: generate datasets, render matrices, extract
features, classify.

Stages communicate through files (edge lists + manifest, feature CSVs, JSON
reports) so each stage is independently testable and externally computed
features can enter at the CSV boundary.  All randomness flows from ``--seed``
and every run with the same flags is byte-identical.  ``classify`` sets only
the classifier and seed: ``knn`` is 1-NN, ``svm`` trains with the constants
``classify.SVM_C`` and ``classify.SVM_EPOCHS``, and both run 10-fold
cross-validation (``classify.FOLDS``), with fewer folds (and a warning) when
a class is smaller.
``gen`` refuses a ``--preset`` outside ``generators.PRESETS``, naming
them, and an ``--out`` that exists and is not a directory, with one
``error:`` line before it makes a directory or draws a graph.
``features`` takes ``--extractor``/``--out`` pairs, repeated for several
descriptors of one manifest: each graph is read once, and its work is
decided before any extractor runs, whatever the number of pairs: at most
one shortest-path kernel pass, which the ranking and every ``structural``
pair read, and at most one ranking and sorted matrix, for ``hu`` and
``clbp``.  Every CSV is written after all graphs are described.  Warnings
print as one ``warning: ...`` line each, as errors print ``error: ...``.
``NETCLASS_THREADS`` sets the worker count of
``gen`` (one task per graph drawn and written) and of ``features`` (one task
per graph read and described).  On Linux the workers are forked from the
CLI process, which loads every module they run before it forks them, so they
run the code it has loaded and import nothing themselves; elsewhere they are
spawned as fresh interpreters.  Output bytes depend on neither the worker
count nor the start method.  Each command imports the modules it runs when
it runs, so only ``gen`` and ``features`` load ``generators``, and
``multiprocessing`` is imported only when a pool starts.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .features import (
    FeatureError,
    check_labels,
    clbp_features,
    hu_moments,
    projection,
    read_feature_csv,
    render_pgm,
    write_feature_csv,
)
from .graph import degree_vector, read_edge_list, write_edge_list


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


# Each extractor kind but ``structural`` maps to its descriptor of a graph,
# given the graph and its sorted matrix (None when no pair reads it).
# ``structural`` descriptors come from the graph's metric selection and its
# shortest-path pass, which _feature_rows hands to metrics._structural.
EXTRACTORS = {
    # a 1 x n matrix whose column sums are the degrees
    "projection": lambda g, _: projection(degree_vector(g)[np.newaxis]),
    "clbp": lambda _, image: clbp_features(image),
    "hu": lambda _, image: hu_moments(image),
    "structural": None,
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
    from .metrics import metric_selection

    which = "combined" if rest in ("", "combined") else tuple(w for w in rest.split(",") if w)
    metric_selection(which)
    return kind, which


def _feature_rows(task):
    """One graph's feature rows, one float64 array per extractor, and its
    warnings (such as inexact path counts) as (text naming the file, category)."""
    from . import metrics, ordering

    path, extractors = task
    g = read_edge_list(path)
    # Each graph's work is decided before any extractor runs: one
    # shortest-path pass that serves every structural pair and the ranking,
    # which reads betweenness as the selection ("bet",) does, and one sorted
    # matrix when hu or clbp asks for it.
    ranks = any(kind in ("hu", "clbp") for kind, _ in extractors)
    run = metrics._kernel_pass([w for k, w in extractors if k == "structural"] + [("bet",)] * ranks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            paths = None if run is None else metrics._per_source(g, run)
            image = ordering._image(g, ordering._ranking(g, paths[3])) if ranks else None
            rows = [metrics._structural(g, which, paths) if kind == "structural"
                    else EXTRACTORS[kind](g, image) for kind, which in extractors]
        except ValueError as exc:
            raise FeatureError(f"{path}: {exc}") from None
    return rows, [(f"{path}: {w.message}", w.category) for w in caught]


def _write_graph(task):
    from .generators import generate

    spec, path = task
    write_edge_list(generate(spec), path)


def _fan_out(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, spread over ``NETCLASS_THREADS`` workers
    (never more than there are tasks), in task order."""
    workers = min(_threads(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from multiprocessing import get_context

    with get_context(START_METHOD).Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers)))


def cmd_generate(args) -> int:
    # loads the module of _write_graph before the pool forks, so that no
    # worker imports it itself
    from .generators import MANIFEST_NAME, preset_rows, write_manifest

    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ValueError(f"{out}: is not a directory")
    rows = preset_rows(args.preset, args.seed, count_override=args.count)
    out.mkdir(parents=True, exist_ok=True)
    names = [row.filename() for row in rows]
    _fan_out(_write_graph, [(row.spec, str(out / name)) for row, name in zip(rows, names)])
    write_manifest(rows, names, out / MANIFEST_NAME)
    print(f"wrote {len(rows)} graphs and {MANIFEST_NAME} to {out}")
    return 0


def cmd_render(args) -> int:
    from .ordering import sorted_adjacency

    _check_out(args.out, {Path(args.graph).resolve()})
    data = render_pgm(sorted_adjacency(read_edge_list(args.graph)), dilate=args.dilate)
    Path(args.out).write_bytes(data)
    print(f"wrote {args.out}")
    return 0


def _check_out(out, inputs) -> None:
    """Refuse an output path that is a directory or lies in a missing one,
    which writing it would refuse only at the end of the run, or that is one
    of the command's input files (``inputs``, resolved), which it would
    overwrite."""
    if Path(out).is_dir():
        raise ValueError(f"{out}: is a directory")
    if not Path(out).parent.is_dir():
        raise ValueError(f"{out}: no directory {Path(out).parent}")
    if Path(out).resolve() in inputs:
        raise ValueError(f"{out}: is an input of this command")


def cmd_features(args) -> int:
    from .generators import read_manifest

    # refused, as a bad label or an --out that is a directory, lies in a
    # missing one or is the manifest or one of its graphs is, before any
    # graph is read
    if not len(args.extractor) == len(args.out) == len({Path(out).resolve() for out in args.out}):
        raise ValueError("features takes one --out per --extractor, each a different file")
    extractors = [parse_extractor(text) for text in args.extractor]
    manifest = Path(args.manifest)
    triples = read_manifest(manifest)
    if not triples:
        raise FeatureError(f"{manifest}: empty manifest")
    labels = [label for _, label, _ in triples]
    graphs = [str(manifest.parent / p) for p, _, _ in triples]
    inputs = {Path(p).resolve() for p in [manifest, *graphs]}
    for out in args.out:
        check_labels(out, labels)
        _check_out(out, inputs)
    # loaded before the pool forks, so that no worker imports them itself
    from . import metrics, ordering

    per_graph = _fan_out(_feature_rows, [(path, extractors) for path in graphs])
    # issued here, in graph order, whatever the worker count or start method
    for _, caught in per_graph:
        for text, category in caught:
            warnings.warn(text, category)
    for out, rows in zip(args.out, zip(*(rows for rows, _ in per_graph))):
        write_feature_csv(out, labels, rows)
        print(f"wrote {len(rows)} x {len(rows[0])} features to {out}")
    return 0


def cmd_classify(args) -> int:
    from .classify import DatasetError, LabeledDataset, evaluate

    if args.out:
        _check_out(args.out, {Path(args.features).resolve()})
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
    p.add_argument("--preset", required=True,
                   help="dataset grid to draw; an unknown name is refused with the list")
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
    p.add_argument("--extractor", required=True, action="append",
                   help=" | ".join(EXTRACTORS) + "[:combined|:ids]; repeat, one per --out")
    p.add_argument("--out", required=True, action="append", help="CSV of the paired --extractor")
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
    # One "warning: ..." line per warning, without Python's file, line number
    # and source line; only the text changes, so recorders still see them.
    shown, warnings.formatwarning = warnings.formatwarning, lambda text, *_: f"warning: {text}\n"
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
