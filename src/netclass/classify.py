"""Classification protocol: 1-NN and linear SVM under stratified k-fold
cross-validation, with per-fold accuracy, an aggregated confusion matrix and
one-vs-rest AUC.

Everything here is deterministic given (dataset, classifier settings, seed):
fold shuffles and the SVM's example order come from seeded PCG64 streams,
distance ties resolve to the lower training index, and decision ties resolve
to class order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import make_rng, mix_seed


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


def stratified_kfold(labels, k: int = 10, seed: int = 0):
    """Assign each item to a fold, stratified by class.

    Within every class the members are shuffled with the seeded stream and
    dealt round-robin, so per-class fold sizes differ by at most one.  When
    some class has fewer than ``k`` members the fold count is reduced to the
    smallest class size, with a warning rather than silently.  A class with a
    single member cannot be stratified at all and is an error.

    Returns ``(fold_ids, k_used)``.
    """
    if k < 2:
        raise DatasetError(f"need at least 2 folds, got {k}")
    labels = [str(l) for l in labels]
    classes = sorted(set(labels))
    arr = np.array(labels)
    counts = {c: int((arr == c).sum()) for c in classes}
    smallest = min(counts.values())
    if smallest < 2:
        bad = next(c for c in classes if counts[c] == 1)
        raise DatasetError(f"class {bad!r} has a single member; cannot stratify")
    k_used = min(k, smallest)
    if k_used < k:
        warnings.warn(
            f"reducing folds from {k} to {k_used}: smallest class has "
            f"{smallest} members",
            stacklevel=2,
        )
    rng = make_rng(mix_seed(seed, 0xF01D))
    folds = np.empty(len(labels), dtype=np.int64)
    for c in classes:
        idx = np.flatnonzero(arr == c)
        perm = rng.permutation(idx.size)
        folds[idx[perm]] = np.arange(idx.size) % k_used
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


@dataclass
class SvmModel:
    classes: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray
    keep: np.ndarray
    weights: np.ndarray  # (n_classes, kept_dims + 1); last column is the bias

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = (x[:, self.keep] - self.mean) / self.scale
        return np.hstack([z, np.ones((z.shape[0], 1))])

    def decision_values(self, x: np.ndarray) -> np.ndarray:
        return self.transform(x) @ self.weights.T


def svm_train(train: LabeledDataset, seed: int = 0) -> SvmModel:
    """Train one-vs-rest linear classifiers on standardized features.

    Features are standardized per dimension with the training mean and
    variance; zero-variance dimensions are dropped.  Each class's hinge-loss
    primal (regularization ``lambda = 1 / (SVM_C * m)``) is minimized by
    seeded subgradient descent with the step schedule
    ``eta_t = 1 / (lambda * t)`` over ``SVM_EPOCHS`` epochs, one seeded
    shuffle of the examples per epoch; all classes share the example order,
    so training is one pass of vectorized updates.  The bias rides along as
    a constant appended feature.
    """
    x = np.asarray(train.features, dtype=np.float64)
    _check_features(x)
    classes = train.classes
    if len(classes) < 2:
        raise DatasetError("SVM training needs at least 2 classes")
    m = x.shape[0]
    mean_all = x.mean(axis=0)
    std_all = x.std(axis=0)
    keep = std_all > 0
    mean, scale = mean_all[keep], std_all[keep]
    z = np.hstack([(x[:, keep] - mean) / scale, np.ones((m, 1))])

    y_idx = train.label_indices()
    signs = np.where(y_idx[None, :] == np.arange(len(classes))[:, None], 1.0, -1.0)

    lam = 1.0 / (SVM_C * m)
    w = np.zeros((len(classes), z.shape[1]))
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
    return SvmModel(classes, mean, scale, keep, w)


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


def auc_ovr(scores: np.ndarray, labels, classes):
    """One-vs-rest AUC per class plus the unweighted macro mean.

    ``scores[i, c]`` ranks item i for class c; each class's ROC treats that
    class as positive and everything else as negative, with tied scores
    handled by the midpoint convention (equivalently: the probability that a
    random positive outscores a random negative, ties counting half).  A
    class absent from ``labels`` has no positives, so its AUC is undefined
    (None) and excluded from the macro mean.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise DatasetError("AUC needs finite scores")
    labels = [str(l) for l in labels]
    per_class = {}
    defined = []
    for ci, c in enumerate(classes):
        positive = np.array([l == c for l in labels])
        auc = _auc_binary(scores[:, ci], positive)
        per_class[c] = auc
        if auc is not None:
            defined.append(auc)
    macro = float(np.mean(defined)) if defined else None
    return per_class, macro


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


def evaluate(dataset: LabeledDataset, classifier: str = "knn", folds: int = 10,
             seed: int = 0) -> ExperimentReport:
    """Stratified k-fold cross-validation of a classifier over the dataset.

    Each fold trains on the rest and predicts the held-out tenth; fold
    accuracies, the aggregated confusion matrix, and one-vs-rest AUC (from
    the scores of all held-out predictions pooled together) make up the
    report.  Deterministic given (dataset, settings, seed).
    """
    if classifier not in ("knn", "svm"):
        raise DatasetError(f"unknown classifier {classifier!r}")
    classes = dataset.classes
    if len(classes) < 2:
        raise DatasetError("classification needs at least 2 classes")
    x = dataset.features
    _check_features(x)
    y = dataset.label_indices()
    fold_ids, k_used = stratified_kfold(dataset.labels, folds, seed)

    n = len(dataset)
    n_classes = len(classes)
    pred = np.full(n, -1, dtype=np.int64)
    scores = np.zeros((n, n_classes))
    fold_ccr: list[float] = []
    for f in range(k_used):
        test_idx = np.flatnonzero(fold_ids == f)
        train_idx = np.flatnonzero(fold_ids != f)
        if classifier == "knn":
            tx, ty = x[train_idx], y[train_idx]
            for i in test_idx:
                pred[i], scores[i] = _knn_scores(tx, ty, n_classes, x[i])
        else:
            sub = LabeledDataset(
                x[train_idx],
                tuple(dataset.labels[i] for i in train_idx),
                dataset.extractor,
            )
            model = svm_train(sub, seed=mix_seed(seed, 0xCF, f))
            dec = model.decision_values(x[test_idx])
            # the stratified fold keeps every class in the training split,
            # so the model's class order matches the dataset's
            pred[test_idx] = np.argmax(dec, axis=1)
            scores[test_idx] = dec
        fold_ccr.append(float((pred[test_idx] == y[test_idx]).mean()))

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    auc_per_class, auc_macro = auc_ovr(scores, dataset.labels, classes)
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
