import numpy as np
import pytest

import oracles
from netclass import (
    DatasetError,
    LabeledDataset,
    auc_ovr,
    evaluate,
    stratified_kfold,
    svm_train,
)
from netclass.classify import _knn_scores

# ---------------------------------------------------------------------------
# stratified folds
# ---------------------------------------------------------------------------


def test_folds_balanced_two_classes():
    labels = ["a"] * 10 + ["b"] * 10
    folds, k = stratified_kfold(labels, k=10, seed=1)
    assert k == 10
    arr = np.array(labels)
    for f in range(10):
        held = arr[folds == f]
        assert sorted(held) == ["a", "b"]


def test_folds_deterministic():
    labels = ["a", "b"] * 15
    f1, _ = stratified_kfold(labels, k=10, seed=3)
    f2, _ = stratified_kfold(labels, k=10, seed=3)
    assert np.array_equal(f1, f2)
    f3, _ = stratified_kfold(labels, k=10, seed=4)
    assert not np.array_equal(f1, f3)


def test_folds_reduced_with_warning():
    labels = ["a"] * 5 + ["b"] * 12
    with pytest.warns(UserWarning, match="reducing folds"):
        folds, k = stratified_kfold(labels, k=10, seed=0)
    assert k == 5
    assert folds.max() == 4


def test_folds_errors():
    with pytest.raises(DatasetError):
        stratified_kfold(["a", "b"], k=1)
    with pytest.raises(DatasetError, match="single member"):
        stratified_kfold(["a", "a", "b"], k=2)


def test_fold_sizes_differ_by_at_most_one_per_class():
    labels = ["a"] * 23 + ["b"] * 17
    folds, k = stratified_kfold(labels, k=10, seed=5)
    arr = np.array(labels)
    for c in ("a", "b"):
        sizes = [(arr[folds == f] == c).sum() for f in range(k)]
        assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# 1-NN
# ---------------------------------------------------------------------------


def _ds(x, y, extractor="external"):
    return LabeledDataset(np.asarray(x, dtype=float), tuple(y), extractor)


def _nearest(train, query):
    """The 1-NN label and per-class scores ``evaluate`` computes for a query."""
    classes = train.classes
    pred, scores = _knn_scores(train.features, train.label_indices(), len(classes),
                               np.asarray(query, dtype=float))
    return classes[pred], dict(zip(classes, scores))


def test_knn_exact_match_wins():
    train = _ds([[0.0], [10.0]], ["a", "b"])
    label, scores = _nearest(train, [10.0])
    assert label == "b"
    assert scores["b"] == 1.0  # distance zero


def test_knn_nearer_point_wins():
    train = _ds([[0.0], [10.0]], ["a", "b"])
    label, _ = _nearest(train, [1.0])
    assert label == "a"


def test_knn_tie_goes_to_lower_index():
    train = _ds([[1.0], [-1.0]], ["a", "b"])
    label, _ = _nearest(train, [0.0])
    assert label == "a"
    train = _ds([[-1.0], [1.0]], ["b", "a"])
    label, _ = _nearest(train, [0.0])
    assert label == "b"


def test_knn_matches_oracle_battery():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        x = rng.integers(0, 4, size=(m, d)).astype(float)  # ints force ties
        y = [("a", "b", "c")[i] for i in rng.integers(0, 3, size=m)]
        if len(set(y)) < 2:
            continue
        train = _ds(x, y)
        q = rng.integers(0, 4, size=d).astype(float)
        label, _ = _nearest(train, q)
        assert label == oracles.knn_oracle(x, y, q)


def test_knn_invariant_under_global_rescaling():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 4))
    y = ["a" if v > 0 else "b" for v in x[:, 0]]
    train1, train2 = _ds(x, y), _ds(x * 7.5, y)
    for _ in range(10):
        q = rng.normal(size=4)
        assert _nearest(train1, q)[0] == _nearest(train2, q * 7.5)[0]


# ---------------------------------------------------------------------------
# SVM
# ---------------------------------------------------------------------------


def _blobs(seed=0, n=20, gap=4.0):
    rng = np.random.default_rng(seed)
    xa = rng.normal(loc=-gap / 2, size=(n, 1))
    xb = rng.normal(loc=+gap / 2, size=(n, 1))
    x = np.vstack([xa, xb])
    y = ["a"] * n + ["b"] * n
    return x, y


def test_svm_separable_training_accuracy():
    x = np.array([[-1.0 - 0.1 * i] for i in range(10)] + [[1.0 + 0.1 * i] for i in range(10)])
    y = ["a"] * 10 + ["b"] * 10
    model = svm_train(_ds(x, y), seed=1)
    best = np.argmax(model.decision_values(x), axis=1)
    assert [model.classes[i] for i in best] == y


def test_svm_deterministic():
    x, y = _blobs(3)
    m1 = svm_train(_ds(x, y), seed=9)
    m2 = svm_train(_ds(x, y), seed=9)
    assert np.array_equal(m1.weights, m2.weights)


def test_svm_constant_column_dropped():
    x, y = _blobs(4)
    x_aug = np.hstack([x, np.full((x.shape[0], 1), 3.25)])
    m_plain = svm_train(_ds(x, y), seed=2)
    m_aug = svm_train(_ds(x_aug, y), seed=2)
    assert m_aug.keep.tolist() == [True, False]
    assert np.allclose(m_plain.weights, m_aug.weights)
    assert m_plain.classes == m_aug.classes
    for q in (-3.0, -0.4, 0.7, 2.2):
        assert (
            np.argmax(m_plain.decision_values([q]))
            == np.argmax(m_aug.decision_values([q, 3.25]))
        )


def test_svm_affine_rescaling_absorbed():
    # exactly-representable scale/shift: standardized features are identical
    x, y = _blobs(5)
    m1 = svm_train(_ds(x, y), seed=3)
    m2 = svm_train(_ds(x * 2.0 + 0.5, y), seed=3)
    assert m1.classes == m2.classes == ("a", "b")
    for q in (-2.0, -0.3, 0.4, 1.7):
        d1 = m1.decision_values([q])[0]
        d2 = m2.decision_values([q * 2.0 + 0.5])[0]
        assert d1 == pytest.approx(d2, abs=1e-6)


def test_svm_errors():
    with pytest.raises(DatasetError, match="2 classes"):
        svm_train(_ds([[1.0], [2.0]], ["a", "a"]))
    with pytest.raises(DatasetError, match="finite"):
        svm_train(_ds([[np.nan], [1.0]], ["a", "b"]))


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def test_auc_perfect_and_constant():
    scores = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    per, macro = auc_ovr(scores, ["a", "a", "b"], ("a", "b"))
    assert per == {"a": 1.0, "b": 1.0} and macro == 1.0
    per, macro = auc_ovr(np.zeros((4, 2)), ["a", "b", "a", "b"], ("a", "b"))
    assert per == {"a": 0.5, "b": 0.5}


def test_auc_three_point_hand_case():
    # two positive-negative pairs: one win, one loss
    scores = np.array([[0.9], [0.4], [0.1]])
    per, _ = auc_ovr(scores, ["p", "n", "p"], ("p",))
    assert per["p"] == 0.5


def test_auc_absent_class_undefined():
    scores = np.array([[0.3, 0.1], [0.2, 0.9]])
    per, macro = auc_ovr(scores, ["a", "a"], ("a", "b"))
    assert per["b"] is None
    assert per["a"] is None  # no negatives either
    assert macro is None


def test_auc_matches_pairwise_oracle():
    # both count wins and half ties exactly, with one division, so they agree
    # bit for bit; the coarse grids force ties, the two-value one heavy ties
    rng = np.random.default_rng(17)
    for grid in (10, 1):
        for _ in range(40):
            n = int(rng.integers(2, 50))
            scores = np.round(rng.random((n, 1)) * grid) / grid
            labels = ["p" if v else "n" for v in rng.integers(0, 2, size=n)]
            per, _ = auc_ovr(scores, labels, ("p",))
            assert per["p"] == oracles.auc_pairwise(scores[:, 0], [l == "p" for l in labels])


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_separable_blobs_perfect():
    rng = np.random.default_rng(30)
    x = np.vstack([rng.normal(-10, 1, size=(50, 2)), rng.normal(10, 1, size=(50, 2))])
    y = ["a"] * 50 + ["b"] * 50
    rep = evaluate(_ds(x, y), classifier="knn", folds=10, seed=1)
    assert rep.mean_ccr == 100.0 and rep.std_ccr == 0.0
    assert rep.auc_macro == 1.0
    assert rep.summary_cell() == "100.00 (0.00)"


def test_evaluate_duplicated_points_perfect_knn():
    # every point replicated often enough that a zero-distance twin stays in
    # the training split of every fold
    rng = np.random.default_rng(31)
    base = rng.normal(size=(6, 3))
    x2 = np.repeat(base, 10, axis=0)
    y2 = [("a", "b", "c")[i % 3] for i in range(6) for _ in range(10)]
    rep = evaluate(_ds(x2, y2), classifier="knn", folds=10, seed=2)
    assert rep.mean_ccr == 100.0


def test_evaluate_shuffled_labels_near_chance():
    # fixed-seed control: CCR within the 5-sigma binomial band around 0.5,
    # macro AUC in [0.4, 0.6]
    rng = np.random.default_rng(32)
    x = rng.normal(size=(100, 5))
    y = ["a", "b"] * 50
    rep = evaluate(_ds(x, y), classifier="knn", folds=10, seed=3)
    assert abs(rep.mean_ccr / 100.0 - 0.5) <= 5 * np.sqrt(0.25 / 100)
    assert 0.4 <= rep.auc_macro <= 0.6


def test_evaluate_confusion_totals_and_trace():
    rng = np.random.default_rng(33)
    x = np.vstack([rng.normal(-2, 1, size=(40, 2)), rng.normal(2, 1, size=(40, 2))])
    y = ["a"] * 40 + ["b"] * 40
    rep = evaluate(_ds(x, y), classifier="svm", folds=10, seed=4)
    assert rep.confusion.sum() == 80
    # equal fold sizes: aggregated accuracy equals the fold mean exactly
    overall = np.trace(rep.confusion) / rep.confusion.sum()
    assert overall == pytest.approx(np.mean(rep.fold_ccr), abs=1e-12)


def test_evaluate_deterministic_json():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(40, 3))
    y = ["a", "b"] * 20
    r1 = evaluate(_ds(x, y), classifier="svm", folds=5, seed=5)
    r2 = evaluate(_ds(x, y), classifier="svm", folds=5, seed=5)
    assert r1.to_json() == r2.to_json()
    assert '"classifier": "svm"' in r1.to_json()


def test_evaluate_validations():
    with pytest.raises(DatasetError):
        evaluate(_ds([[1.0]], ["a"]), classifier="knn")
    with pytest.raises(DatasetError):
        evaluate(_ds([[1.0], [2.0]], ["a", "b"]), classifier="forest")
    with pytest.raises(DatasetError):
        LabeledDataset(np.zeros((2, 2)), ("a",))


def test_confusion_text_is_aligned():
    rng = np.random.default_rng(35)
    x = np.vstack([rng.normal(-5, 1, size=(20, 1)), rng.normal(5, 1, size=(20, 1))])
    y = ["long-name"] * 20 + ["b"] * 20
    rep = evaluate(_ds(x, y), classifier="knn", folds=10, seed=6)
    lines = rep.confusion_text().splitlines()
    assert len(lines) == 3
    assert len(set(len(l) for l in lines)) == 1
    assert "long-name" in lines[0]
