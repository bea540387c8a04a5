"""Classification protocol: 1-NN and linear SVM under stratified 10-fold
cross-validation, with per-fold accuracy, an aggregated confusion matrix and
one-vs-rest AUC.

The protocol runs on class indices, each label's position in the sorted
label set.  Everything here is deterministic given (dataset, classifier,
seed): fold shuffles and the SVM's example order come from seeded PCG64
streams, distance ties resolve to the lower training index, and decision
ties resolve to class order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import make_rng, mix_seed

# Cross-validation folds of every experiment, fewer only for a smaller class.
FOLDS = 10


class DatasetError(ValueError):
    """Dataset shape or content unsuitable for the requested protocol."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (one row per network) with class labels.

    ``extractor`` records which descriptor produced the rows; ``classes`` is
    the sorted distinct label set, which fixes the axis order of confusion
    matrices and reports.
    """

    features: np.ndarray
    labels: tuple[str, ...]
    extractor: str = "external"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        if feats.shape[0] != len(self.labels):
            raise DatasetError(
                f"{feats.shape[0]} feature rows but {len(self.labels)} labels"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def label_indices(self) -> np.ndarray:
        lookup = {c: i for i, c in enumerate(self.classes)}
        return np.array([lookup[l] for l in self.labels], dtype=np.int64)


def _check_features(x: np.ndarray) -> None:
    """Refuse features whose distances or variances would overflow.

    A kNN distance sums ``d`` squared differences and a variance ``m`` of
    them, each at most ``(2 * max|x|)**2``, so both stay finite while
    ``4 * max(m, d) * max|x|**2`` does.
    """
    if not np.isfinite(x).all():
        raise DatasetError("features must be finite")
    limit = np.sqrt(np.finfo(np.float64).max / (4 * max(x.shape)))
    largest = np.abs(x).max(initial=0.0)
    if largest > limit:
        raise DatasetError(
            f"feature magnitude {largest:.3g} exceeds {limit:.3g}; "
            "distances and variances would overflow"
        )


def _stratified_folds(y: np.ndarray, classes: tuple[str, ...], seed: int):
    """Assign each item to a fold, stratified by its class index in ``y``.

    Within every class the members are shuffled with the seeded stream and
    dealt round-robin into ``FOLDS`` folds, so per-class fold sizes differ by
    at most one.  When some class has fewer than ``FOLDS`` members the fold
    count is reduced to the smallest class size, with a warning rather than
    silently.  A class with a single member cannot be stratified at all and
    is an error naming it from ``classes``.

    Returns ``(fold_ids, k_used)``.
    """
    counts = np.bincount(y, minlength=len(classes))
    smallest = int(counts.min())
    if smallest < 2:
        bad = classes[int(np.argmin(counts))]
        raise DatasetError(f"class {bad!r} has a single member; cannot stratify")
    k_used = min(FOLDS, smallest)
    if k_used < FOLDS:
        warnings.warn(
            f"reducing folds from {FOLDS} to {k_used}: smallest class has "
            f"{smallest} members",
            stacklevel=2,
        )
    rng = make_rng(mix_seed(seed, 0xF01D))
    folds = np.empty(y.size, dtype=np.int64)
    for c in range(len(classes)):
        idx = np.flatnonzero(y == c)
        folds[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % k_used
    return folds, k_used


# ---------------------------------------------------------------------------
# 1-NN
# ---------------------------------------------------------------------------


def _knn_scores(train_x, train_y, n_classes, query):
    """Nearest-neighbor class index and per-class scores ``1 / (1 + distance)``.

    Euclidean distance; the prediction is the nearest training point's
    class, distance ties broken by the lower training index.  The scores use
    each class's nearest training point, giving a monotone ranking suitable
    for ROC analysis.
    """
    d = np.sqrt(((train_x - query) ** 2).sum(axis=1))
    pred = int(train_y[int(np.argmin(d))])  # argmin: ties -> lower index
    scores = np.empty(n_classes)
    for c in range(n_classes):
        dc = d[train_y == c]
        scores[c] = 1.0 / (1.0 + dc.min()) if dc.size else 0.0
    return pred, scores


# ---------------------------------------------------------------------------
# Linear SVM (one-vs-rest, hinge-loss subgradient descent)
# ---------------------------------------------------------------------------

# Soft-margin constant and training epochs: the settings of every experiment.
SVM_C = 1.0
SVM_EPOCHS = 30


def _svm_decisions(x, y, n_classes: int, queries, seed: int) -> np.ndarray:
    """Train one-vs-rest linear classifiers on ``(x, y)`` and return each
    class's decision value for every row of ``queries``.

    Features are standardized per dimension with the training mean and
    variance; zero-variance dimensions are dropped.  Each class's hinge-loss
    primal (regularization ``lambda = 1 / (SVM_C * m)``) is minimized by
    seeded subgradient descent with the step schedule
    ``eta_t = 1 / (lambda * t)`` over ``SVM_EPOCHS`` epochs, one seeded
    shuffle of the examples per epoch; all classes share the example order,
    so training is one pass of vectorized updates.  The bias rides along as
    a constant appended feature.
    """
    m = x.shape[0]
    std = x.std(axis=0)
    keep = std > 0
    mean, scale = x.mean(axis=0)[keep], std[keep]

    def standardized(rows):
        return np.hstack([(rows[:, keep] - mean) / scale, np.ones((rows.shape[0], 1))])

    z = standardized(x)
    signs = np.where(y[None, :] == np.arange(n_classes)[:, None], 1.0, -1.0)
    lam = 1.0 / (SVM_C * m)
    w = np.zeros((n_classes, z.shape[1]))
    rng = make_rng(mix_seed(seed, 0x5F4))
    t = 0
    for _ in range(SVM_EPOCHS):
        for i in rng.permutation(m):
            t += 1
            eta = 1.0 / (lam * t)
            xi = z[i]
            s = signs[:, i]
            violated = s * (w @ xi) < 1.0
            w *= 1.0 - eta * lam
            if violated.any():
                w[violated] += eta * s[violated, None] * xi
    return standardized(queries) @ w.T


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------


def _auc_binary(scores: np.ndarray, positive: np.ndarray):
    pos = int(positive.sum())
    neg = positive.size - pos
    if pos == 0 or neg == 0:
        return None
    # Mann-Whitney: each score's 1-based rank, tied scores sharing the mean
    # of their ranks; every term is an exact half-integer
    ranked = np.sort(scores)
    midrank = (np.searchsorted(ranked, scores, "left")
               + np.searchsorted(ranked, scores, "right") + 1) / 2.0
    return float(midrank[positive].sum() - pos * (pos + 1) / 2.0) / (pos * neg)


def _auc_ovr(scores: np.ndarray, y: np.ndarray, classes: tuple[str, ...]):
    """One-vs-rest AUC per class plus the unweighted macro mean.

    ``scores[i, c]`` ranks item i for class index c; each class's ROC treats
    the items with ``y == c`` as positive and everything else as negative,
    with tied scores handled by the midpoint convention (equivalently: the
    probability that a random positive outscores a random negative, ties
    counting half).  A class absent from ``y`` has no positives, so its AUC
    is undefined (None) and excluded from the macro mean.
    """
    if not np.isfinite(scores).all():
        raise DatasetError("AUC needs finite scores")
    per_class = {c: _auc_binary(scores[:, ci], y == ci) for ci, c in enumerate(classes)}
    defined = [auc for auc in per_class.values() if auc is not None]
    return per_class, float(np.mean(defined)) if defined else None


# ---------------------------------------------------------------------------
# Cross-validated evaluation
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """Cross-validation outcome in the shape the result tables use.

    ``fold_ccr`` holds per-fold accuracies in [0, 1]; ``mean_ccr`` and
    ``std_ccr`` are percentages (sample standard deviation over folds).  The
    confusion matrix is aggregated over all held-out predictions, rows true
    class, columns predicted, both in ``classes`` order.
    """

    protocol: dict
    fold_ccr: list[float]
    mean_ccr: float
    std_ccr: float
    classes: tuple[str, ...]
    confusion: np.ndarray
    auc_per_class: dict
    auc_macro: float | None

    def summary_cell(self) -> str:
        return f"{self.mean_ccr:.2f} ({self.std_ccr:.2f})"

    def confusion_text(self) -> str:
        width = max(
            max((len(c) for c in self.classes), default=1),
            len(str(int(self.confusion.max()))) if self.confusion.size else 1,
        ) + 2
        lines = ["".join(c.rjust(width) for c in ("",) + tuple(self.classes))]
        for c, row in zip(self.classes, self.confusion):
            lines.append(c.rjust(width) + "".join(str(int(v)).rjust(width) for v in row))
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "protocol": self.protocol,
            "fold_ccr": [float(v) for v in self.fold_ccr],
            "mean_ccr": float(self.mean_ccr),
            "std_ccr": float(self.std_ccr),
            "confusion": {
                "classes": list(self.classes),
                "counts": [[int(v) for v in row] for row in self.confusion],
            },
            "auc": {
                "per_class": {c: self.auc_per_class[c] for c in self.classes},
                "macro": self.auc_macro,
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def evaluate(dataset: LabeledDataset, classifier: str = "knn",
             seed: int = 0) -> ExperimentReport:
    """Stratified ``FOLDS``-fold cross-validation of a classifier over the
    dataset.

    Each fold trains on the rest and predicts the held-out tenth; fold
    accuracies, the aggregated confusion matrix, and one-vs-rest AUC (from
    the scores of all held-out predictions pooled together) make up the
    report.  Fewer folds run, with a warning, when a class has fewer than
    ``FOLDS`` members.  Deterministic given (dataset, classifier, seed).
    """
    if classifier not in ("knn", "svm"):
        raise DatasetError(f"unknown classifier {classifier!r}")
    classes = dataset.classes
    if len(classes) < 2:
        raise DatasetError("classification needs at least 2 classes")
    x = dataset.features
    # the magnitude limit only grows as the row count shrinks, so this also
    # bounds every fold's training rows
    _check_features(x)
    y = dataset.label_indices()
    fold_ids, k_used = _stratified_folds(y, classes, seed)

    n_classes = len(classes)
    pred = np.full(y.size, -1, dtype=np.int64)
    scores = np.zeros((y.size, n_classes))
    fold_ccr: list[float] = []
    for f in range(k_used):
        test_idx = np.flatnonzero(fold_ids == f)
        train_idx = np.flatnonzero(fold_ids != f)
        tx, ty = x[train_idx], y[train_idx]
        if classifier == "knn":
            for i in test_idx:
                pred[i], scores[i] = _knn_scores(tx, ty, n_classes, x[i])
        else:
            # stratification leaves positive examples of every class in
            # every training split
            scores[test_idx] = _svm_decisions(tx, ty, n_classes, x[test_idx],
                                              mix_seed(seed, 0xCF, f))
            pred[test_idx] = np.argmax(scores[test_idx], axis=1)
        fold_ccr.append(float((pred[test_idx] == y[test_idx]).mean()))

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    auc_per_class, auc_macro = _auc_ovr(scores, y, classes)
    mean_ccr = float(np.mean(fold_ccr) * 100.0)
    std_ccr = float(np.std(fold_ccr, ddof=1) * 100.0)
    protocol = {
        "classifier": classifier,
        "extractor": dataset.extractor,
        "folds": int(k_used),
        "seed": int(seed),
    }
    return ExperimentReport(
        protocol,
        fold_ccr,
        mean_ccr,
        std_ccr,
        classes,
        confusion,
        auc_per_class,
        auc_macro,
    )
