#!/usr/bin/env python3
"""Run the desk-scale experiment battery end to end and print a summary.

Generates both desk presets, extracts each descriptor, cross-validates with
1-NN and linear SVM, and prints one `mean (std)` cell per combination, plus
the confusion matrix of the headline runs.  Everything goes through the same
CLI code paths a user would call, so the artifacts (edge lists, manifests,
feature CSVs, report JSONs) are left under --workdir for inspection.  The
run ends with the SHA-256 of each artifact group and one combined digest, so
two runs (say, of two commits or two NETCLASS_THREADS settings) compare with
one diff of their last lines.

Each preset's missing feature CSVs come from one features run, so each graph
is read once, ranked once for hu and clbp together, and runs one
shortest-path kernel pass for both the ranking and the structural
histograms.  On a 2-vCPU host with one BLAS thread, three runs of each
took 27 to 28 seconds with one worker and 16 to 17 seconds with
NETCLASS_THREADS=2, which spreads generation and feature extraction over
cores.  At 2 workers the scalefree-desk features stage took 6 seconds and
the synthetic-desk one (projection, hu and structural:combined) 7 seconds.
Each generation and features stage prints its wall time.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from netclass.cli import main as cli

EXPERIMENTS = [
    ("synthetic-desk", "projection", "knn"),
    ("synthetic-desk", "projection", "svm"),
    ("synthetic-desk", "hu", "knn"),
    ("synthetic-desk", "structural:combined", "svm"),
    ("scalefree-desk", "projection", "knn"),
    ("scalefree-desk", "hu", "knn"),
    ("scalefree-desk", "clbp", "knn"),
]


def artifact_digests(work: Path) -> dict[str, tuple[int, str]]:
    """``{group: (file count, SHA-256)}`` of the artifacts under ``work``.

    A group's digest hashes one ``<relative path> <file SHA-256>`` line per
    file, in path order.
    """
    groups = {
        "edge lists": work.glob("*/*.edges"),
        "manifests": work.glob("*/manifest.csv"),
        "feature CSVs": work.glob("*.csv"),
        "reports": work.glob("*.json"),
    }
    out = {}
    for name, paths in groups.items():
        h = hashlib.sha256()
        files = sorted(p.relative_to(work).as_posix() for p in paths)
        for rel in files:
            h.update(f"{rel} {hashlib.sha256((work / rel).read_bytes()).hexdigest()}\n".encode())
        out[name] = (len(files), h.hexdigest())
    return out


def run(args):
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    csvs = {(p, e): work / f"{p}_{e.replace(':', '-').replace(',', '+')}.csv"
            for p, e, _ in EXPERIMENTS}
    for preset in sorted({p for p, _, _ in EXPERIMENTS}):
        out = work / preset
        if not (out / "manifest.csv").exists():
            print(f"== generating {preset} (seed {args.seed})")
            t0 = time.perf_counter()
            if cli(["gen", "--preset", preset, "--seed", str(args.seed),
                    "--out", str(out)]):
                return 1
            print(f"   {time.perf_counter() - t0:.1f}s")
        # one features run per preset, so each graph is read and ranked once
        pairs = [arg for (p, extractor), csv in csvs.items() if p == preset and not csv.exists()
                 for arg in ("--extractor", extractor, "--out", str(csv))]
        if pairs:
            print(f"== features: {', '.join(pairs[1::4])} over {preset}")
            t0 = time.perf_counter()
            if cli(["features", "--manifest", str(out / "manifest.csv"), *pairs]):
                return 1
            print(f"   {time.perf_counter() - t0:.0f}s")

    results = []
    for preset, extractor, classifier in EXPERIMENTS:
        csv = csvs[preset, extractor]
        report = work / f"{csv.stem}_{classifier}.json"
        if cli(["classify", "--features", str(csv), "--classifier", classifier,
                "--seed", str(args.seed), "--extractor-id", extractor,
                "--out", str(report)]):
            return 1
        doc = json.loads(report.read_text())
        results.append((preset, extractor, classifier, doc))

    print()
    print(f"{'dataset':<16} {'extractor':<22} {'clf':<4} {'CCR mean (std)':<16} macro AUC")
    for preset, extractor, classifier, doc in results:
        cell = f"{doc['mean_ccr']:.2f} ({doc['std_ccr']:.2f})"
        auc = doc["auc"]["macro"]
        auc_text = f"{auc:.4f}" if auc is not None else "-"
        print(f"{preset:<16} {extractor:<22} {classifier:<4} {cell:<16} {auc_text}")

    print()
    combined = hashlib.sha256()
    for name, (count, digest) in artifact_digests(work).items():
        print(f"sha256 {name:<13} {count:>4} files  {digest}")
        combined.update(f"{name} {count} {digest}\n".encode())
    print(f"sha256 {'combined':<13} {'':>4}        {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="desk-experiments")
    parser.add_argument("--seed", type=int, default=7)
    sys.exit(run(parser.parse_args()))
