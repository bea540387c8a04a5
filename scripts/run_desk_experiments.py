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

Expect about 2 minutes single-threaded on a 2-vCPU host with one BLAS
thread; set NETCLASS_THREADS to spread generation and feature extraction
over cores (about 70 seconds with 2).  Each generation and features stage
prints its wall time.
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
    datasets = {}
    for preset in sorted({p for p, _, _ in EXPERIMENTS}):
        out = work / preset
        if not (out / "manifest.csv").exists():
            print(f"== generating {preset} (seed {args.seed})")
            t0 = time.perf_counter()
            if cli(["gen", "--preset", preset, "--seed", str(args.seed),
                    "--out", str(out)]):
                return 1
            print(f"   {time.perf_counter() - t0:.1f}s")
        datasets[preset] = out / "manifest.csv"

    results = []
    for preset, extractor, classifier in EXPERIMENTS:
        tag = f"{preset}_{extractor.replace(':', '-').replace(',', '+')}"
        csv = work / f"{tag}.csv"
        if not csv.exists():
            print(f"== features: {extractor} over {preset}")
            t0 = time.perf_counter()
            if cli(["features", "--manifest", str(datasets[preset]),
                    "--extractor", extractor, "--out", str(csv)]):
                return 1
            print(f"   {time.perf_counter() - t0:.0f}s")
        report = work / f"{tag}_{classifier}.json"
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
