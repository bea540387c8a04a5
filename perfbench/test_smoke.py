"""The benchmark's own tests, at its tiny smoke size (one to two minutes).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_csv, check_report
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", ["scalefree-pool", "deep-structural"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("deep-structural", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_csv_check_rejects_wrong_shape_and_non_finite_values(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("label,f0,f1\na,1.0,2.0\nb,3.0,4.0\n")
    assert check_csv(path, 2, 2) == ""
    assert "rows" in check_csv(path, 3, 2)
    assert "header" in check_csv(path, 2, 3)
    path.write_text("label,f0,f1\na,1.0,nan\nb,3.0,4.0\n")
    assert "non-finite" in check_csv(path, 2, 2)


def test_report_check_follows_the_readme_schema(tmp_path):
    doc = {
        "protocol": {"classifier": "knn", "extractor": "hu", "folds": 2, "seed": 3},
        "fold_ccr": [1.0, 0.5],
        "mean_ccr": 75.0,
        "std_ccr": 35.35533905932738,
        "confusion": {"classes": ["a", "b"], "counts": [[2, 0], [1, 1]]},
        "auc": {"per_class": {"a": 0.75, "b": None}, "macro": 0.75},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert check_report(path, 4, "knn", "hu", 3) == ("", 75.0)
    assert check_report(path, 5, "knn", "hu", 3)[0]  # confusion counts another row total
    assert check_report(path, 4, "svm", "hu", 3)[0]  # another classifier
    doc["mean_ccr"] = 80.0
    path.write_text(json.dumps(doc))
    assert check_report(path, 4, "knn", "hu", 3)[0]
