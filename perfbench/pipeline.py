"""Untraced passes of the netclass pipeline through its command-line interface.

One pass is a closed loop with one client: set-up (``netclass gen`` or the
benchmark's own graph writer), then every ``netclass features`` stage, then
every ``netclass classify`` stage, each started after the previous one exits.
Each stage's wall time and peak RSS come from ``wait4`` on its process, whose
resource usage includes the feature pool's workers.  Every output file is
checked and hashed; a stage whose process fails or whose output fails a
check counts as failed.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_csv, check_report, sha256
from workloads import EXTRACTOR_WIDTHS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = "manifest.csv"
# Set-up, and stages shorter than SHORT_STAGE_S (mostly interpreter
# start-up), run SHORT_REPEATS times per pass and their median is used.
SHORT_STAGE_S = 1.0
SHORT_REPEATS = 5


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "netclass.cli", *map(str, args)]


def child_argv(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def tag(extractor: str) -> str:
    """File-name form of an extractor id."""
    return extractor.replace(":", "-")


def csv_name(extractor: str) -> str:
    return tag(extractor) + ".csv"


@dataclass
class Stage:
    label: str
    kind: str  # setup | features | classify | startup | probe
    wall_s: float
    rss_mb: float
    error: str = ""
    digest: str = ""
    ccr: float | None = None
    runs: int = 1

    @property
    def ok(self) -> bool:
        return not self.error


class Runner:
    """Runs one child process at a time; kills any still running at the deadline.

    Each child leads its own process group, so a kill also reaches the
    feature pool's workers.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, argv, log: Path) -> tuple[float, int, float]:
        """Returns ``(wall seconds, exit code, peak RSS in MB)``."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Pass:
    """One pass's stages.  Its total is the stages' summed wall time, which
    leaves out the benchmark's own checking and hashing between stages."""

    stages: list[Stage] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    def _sum(self, kind: str) -> float:
        return sum(s.wall_s for s in self.stages if s.kind == kind)

    def metrics(self) -> dict[str, float]:
        ccrs = [s.ccr for s in self.stages if s.ccr is not None]
        return {
            "total_s": self.total_s,
            "setup_s": self._sum("setup"),
            "features_s": self._sum("features"),
            "classify_s": self._sum("classify"),
            "peak_rss_mb": max(s.rss_mb for s in self.stages),
            "ccr_pct": statistics.fmean(ccrs) if ccrs else 0.0,
        }


class Pipeline:
    """Runs and checks the CLI stages of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, runner: Runner, work: Path):
        self.wl = workload
        self.seed = seed
        self.smoke = smoke
        self.runner = runner
        self.work = work
        self.rows = workload.expected_rows(smoke)
        self.features_run, self.classify_run = workload.stages(smoke)
        self._logs = 0

    def run_stage(self, argv, label: str, kind: str) -> tuple[Stage, int]:
        self._logs += 1
        log = self.work / f"stage-{self._logs:03d}.log"
        wall, code, rss = self.runner.run(argv, log)
        stage = Stage(label, kind, wall, rss)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            stage.error = f"exit code {code}: {' '.join(tail)}"
        return stage, code

    def startup(self) -> Stage:
        """A ``netclass`` process that parses its arguments and does no work."""
        return self.run_stage(cli_argv("--help"), "startup", "startup")[0]

    def _sampled(self, argv, label: str, kind: str, check) -> Stage:
        """Runs one stage and checks its output with ``check() -> (error, digest, ccr)``.

        Set-up, and any stage that takes under SHORT_STAGE_S, runs
        SHORT_REPEATS times in all, because process start-up noise dominates
        it.  The stage reports the median wall time and the highest RSS of
        its runs, and its output bytes must agree across them.
        """
        runs: list[Stage] = []
        while not runs or (len(runs) < SHORT_REPEATS
                           and (kind == "setup" or runs[0].wall_s < SHORT_STAGE_S)):
            stage, code = self.run_stage(argv, label, kind)
            if code == 0:
                stage.error, stage.digest, stage.ccr = check()
            runs.append(stage)
        errors = [s.error for s in runs if s.error]
        if not errors and len({s.digest for s in runs}) > 1:
            errors.append("output bytes differ between runs on the same inputs")
        return Stage(label, kind, statistics.median(s.wall_s for s in runs),
                     max(s.rss_mb for s in runs), errors[0] if errors else "",
                     runs[0].digest, runs[0].ccr, len(runs))

    def setup(self, out: Path) -> Stage:
        wl = self.wl
        if wl.setup.startswith("gen:"):
            argv = cli_argv("gen", "--preset", wl.setup[4:], "--seed", self.seed,
                            "--out", out, "--count", wl.replicates(self.smoke))
        else:
            argv = child_argv("inputs", wl.name, "--seed", self.seed, "--out", out,
                              *(["--smoke"] if self.smoke else []))

        def check():
            files, error = self._manifest_files(out)
            return error, "" if error else sha256(files), None

        return self._sampled(argv, "setup", "setup", check)

    def _manifest_files(self, out: Path):
        try:
            lines = (out / MANIFEST).read_text(encoding="utf-8").splitlines()[1:]
        except OSError as exc:
            return [], str(exc)
        files = [out / MANIFEST] + [out / line.split(",")[0] for line in lines if line]
        if len(files) - 1 != self.rows:
            return files, f"manifest lists {len(files) - 1} graphs, expected {self.rows}"
        missing = [f.name for f in files if not f.is_file()]
        return files, f"missing graph files {missing}" if missing else ""

    def features(self, data: Path, out: Path, extractor: str) -> Stage:
        csv = out / csv_name(extractor)
        argv = cli_argv("features", "--manifest", data / MANIFEST, "--extractor", extractor,
                        "--out", csv)

        def check():
            error = check_csv(csv, self.rows, EXTRACTOR_WIDTHS[extractor])
            return error, "" if error else sha256([csv]), None

        return self._sampled(argv, f"features {extractor}", "features", check)

    def classify(self, out: Path, extractor: str, classifier: str) -> Stage:
        report = out / f"{tag(extractor)}_{classifier}.json"
        argv = cli_argv("classify", "--features", out / csv_name(extractor),
                        "--classifier", classifier, "--seed", self.seed,
                        "--extractor-id", extractor, "--out", report)

        def check():
            error, ccr = check_report(report, self.rows, classifier, extractor, self.seed)
            return error, "" if error else sha256([report]), ccr

        return self._sampled(argv, f"classify {extractor} {classifier}", "classify", check)

    def run_pass(self, out: Path) -> Pass:
        """One pass into ``out``; set-up inputs go to ``out/data``."""
        data = out / "data"
        out.mkdir(parents=True)
        p = Pass()
        p.stages.append(self.setup(data))
        for ext in self.features_run:
            p.stages.append(self.features(data, out, ext))
        for ext, clf in self.classify_run:
            p.stages.append(self.classify(out, ext, clf))
        return p
