"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  The desk-scale experiments run through the real CLI pipeline
(generate -> features -> classify) into a session-scoped work directory, so
these tests double as end-to-end checks.  Expect a few minutes of wall time.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import time

import numpy as np
import pytest

import oracles
from netclass import (
    FeatureError,
    clbp_features,
    degree_vector,
    from_edge_list,
    generate,
    hu_moments,
    projection,
    sorted_adjacency,
)
from netclass.cli import main
from netclass.generators import GenSpec, dataset_seed
from netclass.metrics import betweenness, closeness, diameter, eccentricity
from netclass import DisconnectedGraphError, assortativity_scalar

BASE_SEED = 7
TIMINGS: dict[str, float] = {}


def _timed(key, argv):
    t0 = time.perf_counter()
    assert main(argv) == 0
    TIMINGS[key] = time.perf_counter() - t0


def _report(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def synth_dir(workdir):
    out = workdir / "synthetic-desk"
    _timed("synth-gen", ["gen", "--preset", "synthetic-desk",
                         "--seed", str(BASE_SEED), "--out", str(out)])
    return out


@pytest.fixture(scope="session")
def scalefree_dir(workdir):
    out = workdir / "scalefree-desk"
    _timed("scalefree-gen", ["gen", "--preset", "scalefree-desk",
                             "--seed", str(BASE_SEED), "--out", str(out)])
    return out


@pytest.fixture(scope="session")
def synth_projection_report(synth_dir, workdir):
    csv = workdir / "synth_projection.csv"
    _timed("synth-projection-features",
           ["features", "--manifest", str(synth_dir / "manifest.csv"),
            "--extractor", "projection", "--out", str(csv)])
    rep = workdir / "synth_projection_knn.json"
    _timed("synth-projection-classify",
           ["classify", "--features", str(csv), "--classifier", "knn",
            "--seed", str(BASE_SEED), "--extractor-id", "projection",
            "--out", str(rep)])
    return _report(rep)


@pytest.fixture(scope="session")
def synth_structural_report(synth_dir, workdir):
    csv = workdir / "synth_structural.csv"
    _timed("synth-structural-features",
           ["features", "--manifest", str(synth_dir / "manifest.csv"),
            "--extractor", "structural:combined", "--out", str(csv)])
    with open(csv, encoding="utf-8") as fh:
        assert len(fh.readline().strip().split(",")) == 3002  # label + 3001
    rep = workdir / "synth_structural_svm.json"
    _timed("synth-structural-classify",
           ["classify", "--features", str(csv), "--classifier", "svm",
            "--seed", str(BASE_SEED), "--extractor-id", "structural",
            "--out", str(rep)])
    return _report(rep)


@pytest.fixture(scope="session")
def scalefree_hu_report(scalefree_dir, workdir):
    csv = workdir / "scalefree_hu.csv"
    _timed("scalefree-hu-features",
           ["features", "--manifest", str(scalefree_dir / "manifest.csv"),
            "--extractor", "hu", "--out", str(csv)])
    rep = workdir / "scalefree_hu_knn.json"
    _timed("scalefree-hu-classify",
           ["classify", "--features", str(csv), "--classifier", "knn",
            "--seed", str(BASE_SEED), "--extractor-id", "hu",
            "--out", str(rep)])
    return _report(rep)


def test_criterion_1_synthetic_projection_knn(synth_projection_report):
    doc = synth_projection_report
    mean = doc["mean_ccr"]
    runtime = (
        TIMINGS["synth-gen"]
        + TIMINGS["synth-projection-features"]
        + TIMINGS["synth-projection-classify"]
    )
    assert doc["protocol"]["folds"] == 10
    assert sum(map(sum, doc["confusion"]["counts"])) == 300
    assert mean >= 90.0, f"mean CCR {mean:.2f} below 90"
    assert runtime <= 300.0, f"pipeline took {runtime:.0f}s, budget 300s"
    print(
        f"ACCEPTANCE 1: PASS - projection+1NN on synthetic-desk: "
        f"{mean:.2f} ({doc['std_ccr']:.2f}) >= 90, pipeline {runtime:.0f}s <= 300s"
    )


def test_criterion_2_scalefree_hu_knn(scalefree_hu_report):
    doc = scalefree_hu_report
    mean = doc["mean_ccr"]
    assert doc["confusion"]["classes"] == [
        "BA-0.5", "BA-1.0", "BA-1.5", "BA-2.0", "DM",
    ]
    assert mean >= 90.0, f"mean CCR {mean:.2f} below 90"
    print(
        f"ACCEPTANCE 2: PASS - moment invariants+1NN on scalefree-desk: "
        f"{mean:.2f} ({doc['std_ccr']:.2f}) >= 90"
    )


def test_criterion_3_structural_combined_svm(synth_structural_report):
    doc = synth_structural_report
    mean = doc["mean_ccr"]
    assert mean >= 95.0, f"mean CCR {mean:.2f} below 95"
    print(
        f"ACCEPTANCE 3: PASS - structural combined+SVM on synthetic-desk: "
        f"{mean:.2f} ({doc['std_ccr']:.2f}) >= 95"
    )


def test_criterion_4_confusion_structure(synth_projection_report):
    doc = synth_projection_report
    classes = doc["confusion"]["classes"]
    counts = np.array(doc["confusion"]["counts"])
    idx = {c: i for i, c in enumerate(classes)}
    pair_counts = {}
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if i < j:
                pair_counts[(a, b)] = int(counts[i, j] + counts[j, i])
    most_confused = max(pair_counts, key=pair_counts.get)
    assert pair_counts[most_confused] > 0, "no confusion at all; structure untestable"
    assert set(most_confused) == {"ER", "GEO"}, pair_counts
    ba_ws = counts[idx["BA"], idx["WS"]] + counts[idx["WS"], idx["BA"]]
    assert ba_ws == 0
    print(
        f"ACCEPTANCE 4: PASS - most-confused pair {most_confused} "
        f"({pair_counts[most_confused]} errors), BA/WS confusion 0"
    )


# ---------------------------------------------------------------------------
# criterion 5: ordering property battery
# ---------------------------------------------------------------------------


def _battery_specs(count=200):
    cells = [
        ("ER", 4, None), ("ER", 8, None),
        ("WS", 4, None), ("WS", 8, None),
        ("BA", 4, 0.5), ("BA", 8, 1.0), ("BA", 8, 1.5), ("BA", 8, 2.0),
        ("GEO", 4, None), ("GEO", 8, None),
        ("DM", 4, None), ("DM", 8, None),
    ]
    sizes = (80, 120, 160, 200)
    specs = []
    i = 0
    while len(specs) < count:
        model, k, alpha = cells[i % len(cells)]
        n = sizes[(i // len(cells)) % len(sizes)]
        seed = dataset_seed(99, model, n, k, alpha, i)
        specs.append(GenSpec(model, n, k, alpha=alpha, seed=seed))
        i += 1
    return specs


def _keys_injective(deg, bet, gap=1e-4):
    order = sorted(zip(deg.tolist(), bet.tolist()))
    for (d1, b1), (d2, b2) in zip(order, order[1:]):
        if d1 == d2 and abs(b2 - b1) <= gap:
            return False
    return True


def test_criterion_5_ordering_battery():
    rng = np.random.default_rng(505)
    specs = _battery_specs(200)
    checked_invariance = 0
    for spec in specs:
        g = generate(spec)
        aprime = sorted_adjacency(g)
        expected = np.zeros(2500)
        expected[: g.n] = sorted(degree_vector(g), reverse=True)
        assert np.array_equal(projection(aprime), expected), spec
        if _keys_injective(degree_vector(g), betweenness(g)):
            checked_invariance += 1
            for _ in range(10):
                perm = rng.permutation(g.n).tolist()
                relabeled = from_edge_list(
                    g.n, [(perm[u], perm[v]) for u, v in g.edges()]
                )
                assert np.array_equal(sorted_adjacency(relabeled), aprime), spec
    assert checked_invariance >= 20, (
        f"only {checked_invariance} graphs had injective keys; battery too weak"
    )
    print(
        f"ACCEPTANCE 5: PASS - projection = sorted degrees on 200/200 graphs; "
        f"relabel-invariant sorted matrix on all {checked_invariance} "
        f"injective-key graphs x 10 relabelings"
    )


# ---------------------------------------------------------------------------
# criterion 6: metric oracle battery
# ---------------------------------------------------------------------------


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(606)
    connected = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        g = oracles.random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        sigma_expected = oracles.sigma_matrix(g)
        _, sigma, _ = oracles.shortest_paths(g)
        reached = sigma_expected > 0
        assert np.array_equal(sigma[reached], sigma_expected[reached].astype(float))
        assert (sigma[~reached] == 0).all()
        assert np.allclose(betweenness(g), oracles.brute_betweenness(g), atol=1e-9)

        dists = oracles.bfs_distances(g)
        if (dists < 0).any():
            with pytest.raises(DisconnectedGraphError):
                diameter(g)
        else:
            connected += 1
            assert diameter(g) == dists.max()
            assert np.array_equal(eccentricity(g), dists.max(axis=1))
            assert np.allclose(closeness(g), (n - 1) / dists.sum(axis=1))
    star = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert assortativity_scalar(star) == pytest.approx(-1.0, abs=1e-12)
    print(
        f"ACCEPTANCE 6: PASS - betweenness/path counts match enumeration on "
        f"500 graphs (n<=12, {connected} connected); distance metrics match "
        f"the BFS oracle; star assortativity -1 within 1e-12"
    )


# ---------------------------------------------------------------------------
# criterion 7: image-feature oracle battery
# ---------------------------------------------------------------------------


def test_criterion_7_image_feature_oracles():
    rng = np.random.default_rng(707)
    for _ in range(200):
        h = int(rng.integers(3, 17))
        w = int(rng.integers(3, 17))
        img = (rng.random((h, w)) < rng.uniform(0.05, 0.95)).astype(float)
        assert np.allclose(
            clbp_features(img), oracles.clbp_reference(img), atol=1e-12
        )
    checked = 0
    while checked < 100:
        size = int(rng.integers(4, 15))
        img = (rng.random((size, size)) < 0.3).astype(float)
        if img.sum() == 0:
            continue
        checked += 1
        pad = np.zeros((size + 6, size + 6))
        pad[2:2 + size, 4:4 + size] = img
        base = np.zeros((size + 6, size + 6))
        base[:size, :size] = img
        assert np.array_equal(hu_moments(base), hu_moments(pad))  # translation
        a = hu_moments(img)
        b = hu_moments(np.rot90(img))
        rel = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-300)
        rel[a == b] = 0.0
        assert rel.max() <= 1e-9
    with pytest.raises(FeatureError):
        hu_moments(np.zeros((5, 5)))
    print(
        "ACCEPTANCE 7: PASS - local patterns match the per-pixel reference on "
        "200 images; moment invariants translation-exact and rotation-stable "
        "(<=1e-9) on 100 images; all-zero image raises"
    )


# ---------------------------------------------------------------------------
# criterion 8: classifier oracle battery + determinism
# ---------------------------------------------------------------------------


def test_criterion_8_classifier_oracles(workdir, capsys):
    from netclass import LabeledDataset, auc_ovr, evaluate
    from netclass.classify import _knn_scores

    rng = np.random.default_rng(808)
    for _ in range(50):
        m = int(rng.integers(2, 50))
        d = int(rng.integers(1, 5))
        x = rng.integers(0, 4, size=(m, d)).astype(float)
        y = [("a", "b")[i] for i in rng.integers(0, 2, size=m)]
        if len(set(y)) < 2:
            continue
        q = rng.integers(0, 4, size=d).astype(float)
        train = LabeledDataset(x, tuple(y))
        pred, _ = _knn_scores(x, train.label_indices(), len(train.classes), q)
        assert train.classes[pred] == oracles.knn_oracle(x, y, q)
        scores = np.round(rng.random((m, 1)), 1)
        per, _ = auc_ovr(scores, y, ("a",))
        expected = oracles.auc_pairwise(scores[:, 0], [l == "a" for l in y])
        assert (per["a"] is None) == (expected is None)
        if expected is not None:
            assert per["a"] == pytest.approx(expected, abs=1e-12)

    # shuffled-label control at chance level
    x = rng.normal(size=(100, 5))
    y = ["a", "b"] * 50
    rep = evaluate(LabeledDataset(x, tuple(y)), classifier="knn", folds=10, seed=3)
    band = 5 * math.sqrt(0.25 / 100)
    assert abs(rep.mean_ccr / 100 - 0.5) <= band
    assert 0.4 <= rep.auc_macro <= 0.6

    # byte-identical reports across reruns and worker counts
    gen_dir = workdir / "det"
    main(["gen", "--preset", "synthetic-desk", "--seed", "3",
          "--out", str(gen_dir), "--count", "2"])
    outputs = {}
    for tag, threads in (("t1", "1"), ("t4", "4")):
        csv = workdir / f"det_{tag}.csv"
        rep_path = workdir / f"det_{tag}.json"
        os.environ["NETCLASS_THREADS"] = threads
        try:
            main(["features", "--manifest", str(gen_dir / "manifest.csv"),
                  "--extractor", "clbp", "--out", str(csv)])
        finally:
            del os.environ["NETCLASS_THREADS"]
        main(["classify", "--features", str(csv), "--classifier", "knn",
              "--seed", "3", "--out", str(rep_path)])
        outputs[tag] = (csv.read_bytes(), rep_path.read_bytes())
    assert outputs["t1"] == outputs["t4"]
    rerun = workdir / "det_rerun.json"
    main(["classify", "--features", str(workdir / "det_t1.csv"),
          "--classifier", "knn", "--seed", "3", "--out", str(rerun)])
    assert rerun.read_bytes() == outputs["t1"][1]
    capsys.readouterr()
    print(
        f"ACCEPTANCE 8: PASS - 1NN and AUC match pairwise oracles (batches <=50); "
        f"shuffled-label control {rep.mean_ccr:.1f}% within ±{100 * band:.0f} of "
        f"chance, macro AUC {rep.auc_macro:.2f}; reports byte-identical across "
        f"reruns and 1 vs 4 workers"
    )


# ---------------------------------------------------------------------------
# criterion 9: generator statistics
# ---------------------------------------------------------------------------


def _tail_slope(deg):
    # log-log fit of the CCDF over the top decade of degrees, then shifted
    # by one to report the density exponent
    kmax = int(deg.max())
    ks = np.unique(deg)
    ks = ks[ks >= max(1, kmax / 10)]
    ccdf = np.array([(deg >= k).mean() for k in ks])
    slope = np.polyfit(np.log(ks), np.log(ccdf), 1)[0]
    return slope - 1.0


def test_criterion_9_generator_statistics():
    for beta in (0.0, 0.1, 1.0):
        g = generate(GenSpec("WS", 300, 8, beta=beta, seed=17))
        assert g.edge_count == 300 * 8 // 2

    slopes = [
        _tail_slope(degree_vector(generate(
            GenSpec("BA", 1000, 8, alpha=1.0, seed=3000 + s))))
        for s in range(20)
    ]
    mean_slope = float(np.mean(slopes))
    assert -3.5 <= mean_slope <= -2.5, slopes

    dm_means = [
        2 * generate(GenSpec("DM", 1000, 8, seed=s)).edge_count / 1000
        for s in range(20)
    ]
    assert all(7.8 <= m <= 8.0 for m in dm_means), dm_means

    # band pre-derived from 20 oracle draws at (n=500, k=8): 7.49 +- 0.18,
    # comfortably inside [0.8 * k, k]
    geo_means = [
        2 * generate(GenSpec("GEO", 500, 8, seed=1000 + s)).edge_count / 500
        for s in range(20)
    ]
    assert all(0.8 * 8 <= m <= 8.0 for m in geo_means), geo_means
    print(
        f"ACCEPTANCE 9: PASS - ring-rewire edge counts exact; growth-model "
        f"degree-tail slope {mean_slope:.2f} in [-3.5, -2.5]; triangle-growth "
        f"mean degree in [7.8, 8.0]; geometric mean degree in [6.4, 8.0]"
    )
