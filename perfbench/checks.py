"""Correctness checks on the files each pipeline stage writes.

Each check returns an error message, empty when the file is correct.  The
report check follows the README's report schema; the CSV check verifies the
row count, the width and that every value is finite.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REPORT_KEYS = {"protocol", "fold_ccr", "mean_ccr", "std_ccr", "confusion", "auc"}


def sha256(paths) -> str:
    """Digest of the files' bytes, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            # in chunks: run.py's own peak RSS is the floor of every
            # child's, so it must not hold a whole CSV
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_csv(path: Path, rows: int, width: int) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != ["label"] + [f"f{i}" for i in range(width)]:
                return f"{path.name}: header is not label + {width} feature columns"
            count = 0
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                if len(parts) != width + 1:
                    return f"{path.name}:{lineno}: {len(parts) - 1} values, expected {width}"
                if not all(math.isfinite(float(v)) for v in parts[1:]):
                    return f"{path.name}:{lineno}: non-finite value"
                count += 1
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}"
    if count != rows:
        return f"{path.name}: {count} rows, expected {rows}"
    return ""


def _unit(v) -> bool:
    return isinstance(v, (int, float)) and 0.0 <= v <= 1.0


def check_report(path: Path, rows: int, classifier: str, extractor: str, seed: int):
    """Returns ``(error, mean_ccr)``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}", None
    if not isinstance(doc, dict) or set(doc) != REPORT_KEYS:
        return f"{path.name}: top-level keys are not {sorted(REPORT_KEYS)}", None
    proto = doc["protocol"]
    folds = proto.get("folds") if isinstance(proto, dict) else None
    if (not isinstance(proto, dict) or set(proto) != {"classifier", "extractor", "folds", "seed"}
            or proto["classifier"] != classifier or proto["extractor"] != extractor
            or proto["seed"] != seed or not isinstance(folds, int) or folds < 2):
        return f"{path.name}: protocol {proto!r} does not match the run", None
    fold_ccr = doc["fold_ccr"]
    if not isinstance(fold_ccr, list) or len(fold_ccr) != folds or not all(map(_unit, fold_ccr)):
        return f"{path.name}: fold_ccr is not {folds} accuracies in [0, 1]", None
    mean_ccr = doc["mean_ccr"]
    if not isinstance(mean_ccr, float) or abs(mean_ccr - 100.0 * sum(fold_ccr) / folds) > 1e-9:
        return f"{path.name}: mean_ccr is not the fold mean in percent", None
    if not isinstance(doc["std_ccr"], float) or not doc["std_ccr"] >= 0.0:
        return f"{path.name}: std_ccr is not a non-negative percentage", None
    conf = doc["confusion"]
    classes = conf.get("classes") if isinstance(conf, dict) else None
    counts = conf.get("counts") if isinstance(conf, dict) else None
    if (not isinstance(classes, list) or not all(isinstance(c, str) for c in classes)
            or not isinstance(counts, list) or len(counts) != len(classes)
            or any(not isinstance(r, list) or len(r) != len(classes) for r in counts)
            or any(not isinstance(v, int) or v < 0 for r in counts for v in r)
            or sum(map(sum, counts)) != rows):
        return f"{path.name}: confusion is not a square count matrix over {rows} rows", None
    auc = doc["auc"]
    if not isinstance(auc, dict) or set(auc) != {"per_class", "macro"}:
        return f"{path.name}: auc keys are not per_class and macro", None
    per_class = auc["per_class"]
    if (not isinstance(per_class, dict) or sorted(per_class) != sorted(classes)
            or not all(v is None or _unit(v) for v in per_class.values())
            or not (auc["macro"] is None or _unit(auc["macro"]))):
        return f"{path.name}: auc is not per-class and macro values in [0, 1]", None
    return "", mean_ccr
