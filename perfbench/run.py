#!/usr/bin/env python3
"""netclass benchmark: the generate -> features -> classify pipeline through the CLI.

    python3 perfbench/run.py --workload scalefree-pool --seed 1 --seconds 50 --trace 0

Run from any directory of a source checkout (``src/netclass`` beside this
directory); nothing needs installing.  The workload's inputs are a pure
function of ``--seed``.

``--trace 0`` repeats untraced passes for about ``--seconds`` and reports the
medians of the end-to-end metrics.  ``--trace 1`` runs one untraced pass as
the reference, then the traced pass, which calls every layer's public
functions from the benchmark's own code, and reports the per-layer metrics.
Either way every output is checked; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is non-zero when a check failed.  ``--smoke`` shrinks the inputs the
benchmark writes itself, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pipeline import ROOT, Pass, Pipeline, Runner, child_argv
from workloads import BLAS_THREADS, WORKLOADS

# A run must end within 180 s; children still running at this point are killed.
HARD_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The end-to-end metrics of the result line.  classify_s, ccr_pct (mean
# report accuracy) and failed_frac are printed beside them but left out of
# the result line.  failed_frac is 0 on a correct run and goes to
# "attempted"/"failed".  ccr_pct moves with the seed by more than any usable
# bound at these input sizes (its bytes are covered by the report hashes
# instead).  classify_s is a sub-second stage, mostly process start-up,
# whose ten-seed spread reached 0.34 of its median on a 2-vCPU host, past
# the largest bound allowed.
E2E_UNITS = {"total_s": "s", "setup_s": "s", "features_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {**E2E_UNITS, "classify_s": "s", "ccr_pct": "%"}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(wl, seed: int, workers: int, nproc: int) -> dict:
    versions = subprocess.run(child_argv("env"), capture_output=True, text=True, check=True,
                              cwd=ROOT).stdout
    return {
        "workload": wl.name, "seed": seed, "nproc": nproc,
        "python": platform.python_version(), **json.loads(versions),
        "blas_threads": BLAS_THREADS, "netclass_threads": workers,
        "git_commit": git_commit(),
    }


def report_stage(index, stage) -> None:
    status = "ok" if stage.ok else f"FAILED {stage.error}"
    print(f"pass {index} {stage.label:<34} {stage.wall_s:9.4f} s (x{stage.runs}) "
          f"{stage.rss_mb:8.1f} MB sha256={stage.digest or '-'} {status}")


def mark_unstable(stages) -> list[str]:
    """Fails every stage whose output bytes differ from another run of the
    same stage on the same inputs; returns the labels concerned."""
    by_label: dict[str, list] = {}
    for stage in stages:
        if stage.ok:
            by_label.setdefault(stage.label, []).append(stage)
    unstable = [label for label, group in by_label.items()
                if len({s.digest for s in group}) > 1]
    for label in unstable:
        for stage in by_label[label]:
            stage.error = "output bytes differ between passes on the same inputs"
    return unstable


def measure(pipe: Pipeline, work: Path, seconds: float):
    """Untraced passes for about ``seconds``; returns (metrics, attempted, failed, ok)."""
    warm = pipe.startup()  # fills the page cache and bytecode cache before timing
    passes: list[Pass] = []
    walls: list[float] = []  # of whole passes, repeated short stages included
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(pipe.run_pass(work / f"pass-{len(passes)}"))
        walls.append(time.monotonic() - start)
        for stage in passes[-1].stages:
            report_stage(len(passes) - 1, stage)
        # the last pass is the one whose end lies nearest to ``seconds``
        if time.monotonic() - t0 + statistics.median(walls) / 2 > seconds:
            break
    stages = [warm] + [s for p in passes for s in p.stages]
    per_pass = [p.metrics() for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for label in mark_unstable(stages):
        print(f"FAILED output bytes of {label!r} differ between passes on the same inputs")
    failed = sum(not s.ok for s in stages)
    print(f"samples: {len(passes)} passes")
    return metrics, len(stages), failed, failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netclass" / "cli.py").is_file():
        print(f"error: no netclass sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    workers = wl.workers(nproc)
    # Children inherit these; the traced pass reads them when it imports numpy.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    os.environ["NETCLASS_THREADS"] = str(workers)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, src)  # for the traced pass, which imports netclass last

    env = environment(wl, args.seed, workers, nproc)
    print("env " + json.dumps(env, sort_keys=True))
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(started + HARD_LIMIT_S)
    pipe = Pipeline(wl, args.seed, args.smoke, runner, work)
    try:
        if args.trace:
            import traced

            metrics, units, attempted, failed, ok = traced.run(pipe, work, env)
        else:
            measured, attempted, failed, ok = measure(pipe, work, args.seconds)
            for name, value in measured.items():
                print(f"e2e {name:<12} {value:12.4f} {PRINTED_UNITS[name]}")
            print(f"e2e failed_frac  {failed / attempted:12.4f} ({failed}/{attempted} stages)")
            metrics, units = {k: measured[k] for k in E2E_UNITS}, E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
