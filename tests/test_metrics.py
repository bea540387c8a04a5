import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netclass
import oracles
from netclass import (
    DisconnectedGraphError,
    UndefinedMetricError,
    all_pairs_distances,
    assortativity_scalar,
    avg_neighbor_degree,
    betweenness,
    closeness,
    clustering,
    diameter,
    eccentricity,
    from_edge_list,
    generate,
    metric_histogram,
    structural_features,
)
from netclass.generators import GenSpec
from netclass.metrics import HIST_BINS


def p3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def star5():
    return from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def ring_lattice(n, k):
    return generate(GenSpec("WS", n, k, beta=0.0, seed=0))


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# distances / diameter / closeness / eccentricity
# ---------------------------------------------------------------------------


def test_distance_examples():
    assert all_pairs_distances(p3())[0, 2] == 2
    assert all_pairs_distances(cycle(6)).max() == 3
    d = all_pairs_distances(from_edge_list(4, [(0, 1), (2, 3)]))
    assert d[0, 1] == 1 and np.isinf(d[0, 2])


def test_diameter_examples():
    path5 = from_edge_list(5, [(i, i + 1) for i in range(4)])
    assert diameter(path5) == 4
    assert diameter(complete(4)) == 1
    # 10-node ring lattice with 2 neighbors each side: frozen from the BFS oracle
    g = ring_lattice(10, 4)
    assert diameter(g) == int(oracles.bfs_distances(g).max()) == 3


def test_diameter_disconnected_raises():
    with pytest.raises(DisconnectedGraphError):
        diameter(from_edge_list(4, [(0, 1), (2, 3)]))
    with pytest.raises(DisconnectedGraphError):
        eccentricity(from_edge_list(3, [(0, 1)]))


def test_closeness_examples():
    cl = closeness(star5())
    assert cl[0] == 1.0
    assert np.allclose(cl[1:], 4.0 / 7.0)  # hand BFS: distances 1,2,2,2
    assert np.allclose(closeness(complete(5)), 1.0)


def test_closeness_disconnected_convention():
    # two disjoint edges: each node reaches one node at distance 1
    cl = closeness(from_edge_list(4, [(0, 1), (2, 3)]))
    assert np.allclose(cl, 1.0)
    cl = closeness(from_edge_list(3, [(0, 1)]))
    assert cl[2] == 0.0  # isolated


def test_eccentricity_examples():
    assert eccentricity(p3()).tolist() == [2, 1, 2]
    assert eccentricity(complete(4)).tolist() == [1, 1, 1, 1]
    assert eccentricity(cycle(6)).tolist() == [3] * 6


# ---------------------------------------------------------------------------
# betweenness
# ---------------------------------------------------------------------------


def test_betweenness_examples():
    assert betweenness(p3()).tolist() == [0.0, 1.0, 0.0]
    assert betweenness(star5()).tolist() == [6.0, 0.0, 0.0, 0.0, 0.0]
    # frozen from the brute-force path-enumeration oracle: every node of a
    # 5-cycle is interior to exactly one shortest path
    assert np.allclose(oracles.brute_betweenness(cycle(5)), 1.0)
    assert np.allclose(betweenness(cycle(5)), 1.0)


def test_betweenness_matches_oracle_battery():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        g = oracles.random_graph(rng, n, float(rng.uniform(0.1, 0.8)))
        assert np.allclose(
            betweenness(g), oracles.brute_betweenness(g), atol=1e-9
        )


def test_sigma_counts_are_integer_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = oracles.random_graph(rng, int(rng.integers(2, 13)), 0.4)
        _, sigma, _ = oracles.shortest_paths(g)
        expected = oracles.sigma_matrix(g)
        reachable = expected > 0
        assert np.array_equal(sigma[reachable], expected[reachable].astype(float))


def test_path_counts_past_2_53_warn():
    # corner-to-corner counts on a side x side grid are C(2 side - 2, side - 1):
    # 7.7e15 at side 29, 3.0e16 at side 30, with 2**53 ~ 9.0e15 in between
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        betweenness(oracles.grid_graph(29))
    # the 30 x 30 grid runs in several blocks of sources, but warns once, with
    # the peak over all of them, naming the frame that called betweenness
    with pytest.warns(UserWarning, match=r"reach 3\.0\de\+16 .*n=900.*2\*\*53") as caught:
        betweenness(oracles.grid_graph(30))
    assert len(caught) == 1
    assert caught[0].filename == __file__
    # structural_features runs the kernel pass itself, and the warning names
    # its caller too
    with pytest.warns(UserWarning, match=r"reach 3\.0\de\+16 .*n=900.*2\*\*53") as caught:
        structural_features(oracles.grid_graph(30))
    assert len(caught) == 1
    assert caught[0].filename == __file__


# ---------------------------------------------------------------------------
# clustering / neighbor degree / assortativity
# ---------------------------------------------------------------------------


def test_clustering_examples():
    assert np.allclose(clustering(complete(3)), 1.0)
    assert clustering(star5())[0] == 0.0
    # each ring-lattice node (2 neighbors per side) sees 3 of its 6 possible
    # neighbor pairs connected
    assert np.allclose(clustering(ring_lattice(10, 4)), 0.5)


def test_avg_neighbor_degree_examples():
    pp = avg_neighbor_degree(star5())
    assert pp[0] == 1.0 and np.allclose(pp[1:], 4.0)
    assert np.allclose(avg_neighbor_degree(ring_lattice(12, 4)), 4.0)
    assert avg_neighbor_degree(p3()).tolist() == [2.0, 1.0, 2.0]
    assert avg_neighbor_degree(from_edge_list(2, [])).tolist() == [0.0, 0.0]


def test_assortativity_examples():
    # closed form: the 4 star edges pair degree 4 with degree 1 both ways
    assert assortativity_scalar(star5()) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(UndefinedMetricError):
        assortativity_scalar(cycle(8))  # regular: zero variance
    with pytest.raises(UndefinedMetricError):
        assortativity_scalar(from_edge_list(3, []))
    g = generate(GenSpec("ER", 2000, 8, seed=123))
    assert abs(assortativity_scalar(g)) < 0.05


def test_assortativity_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = oracles.random_graph(rng, int(rng.integers(3, 12)), 0.5)
        try:
            r = assortativity_scalar(g)
        except UndefinedMetricError:
            continue
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# histograms and combined features
# ---------------------------------------------------------------------------


def test_histogram_examples():
    h = metric_histogram(np.full(7, 0.5), "cl")
    assert h[250] == 1.0 and h.sum() == 1.0
    h = metric_histogram([4, 1, 1, 1, 1], "k")
    assert h[4] == pytest.approx(0.2) and h[1] == pytest.approx(0.8)


def test_histogram_clamps_and_normalizes():
    h = metric_histogram([0.0, 1.0, 2.5], "cc")  # 1.0 and beyond clamp to last bin
    assert h[0] == pytest.approx(1 / 3) and h[-1] == pytest.approx(2 / 3)
    assert h.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        metric_histogram([], "cl")
    with pytest.raises(ValueError):
        metric_histogram([1.0], "d")


@given(st.lists(st.floats(min_value=0, max_value=600), min_size=1, max_size=50),
       st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_histogram_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert np.array_equal(
        metric_histogram(values, "pp"), metric_histogram(shuffled, "pp")
    )


def test_structural_feature_lengths():
    g = generate(GenSpec("WS", 60, 6, seed=1))
    assert structural_features(g, ["k"]).shape == (HIST_BINS,)
    combined = structural_features(g)
    assert combined.shape == (6 * HIST_BINS + 1,) == (3001,)
    assert structural_features(g, ["k", "d"]).shape == (501,)
    with pytest.raises(ValueError, match=r"unknown metric ids \['nope'\]"):
        structural_features(g, ["nope"])
    with pytest.raises(ValueError, match=r"unknown metric ids \[\]"):
        structural_features(g, [])


@pytest.mark.parametrize("which", ["kd", "cl", "k", ""])
def test_structural_selection_string_refused(which):
    # a bare string is not split into one-letter metric ids
    g = generate(GenSpec("WS", 60, 6, seed=1))
    with pytest.raises(ValueError, match="list of metric ids"):
        structural_features(g, which)


def test_structural_features_isomorphism_invariant():
    rng = np.random.default_rng(8)
    g = generate(GenSpec("ER", 40, 4, seed=5))
    base = structural_features(g)
    for _ in range(3):
        perm = rng.permutation(40)
        relabeled = from_edge_list(40, [(perm[u], perm[v]) for u, v in g.edges()])
        assert np.allclose(structural_features(relabeled), base, atol=1e-12)


def test_structural_features_total_on_disconnected():
    g = from_edge_list(5, [(0, 1), (2, 3)])  # node 4 isolated
    v = structural_features(g)
    assert v.shape == (3001,)
    assert np.isfinite(v).all()
    assert v[HIST_BINS] == pytest.approx(1 / 100.0)  # largest finite distance


def test_radius_bound_and_diameter_consistency():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 15:
        g = oracles.random_graph(rng, int(rng.integers(3, 12)), 0.5)
        d = oracles.bfs_distances(g)
        if (d < 0).any():
            continue
        ecc = eccentricity(g)
        dia = diameter(g)
        assert ecc.max() == dia
        assert ecc.min() >= dia / 2
        assert dia == d.max()
        assert np.array_equal(ecc, d.max(axis=1))
        assert np.allclose(closeness(g), (g.n - 1) / d.sum(axis=1))
        checked += 1


def test_coefficients_bounded():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = oracles.random_graph(rng, int(rng.integers(2, 14)), 0.4)
        assert ((clustering(g) >= 0) & (clustering(g) <= 1)).all()
        cl = closeness(g)
        assert ((cl >= 0) & (cl <= 1)).all()


_BLAS_RUN = """
import sys
import numpy as np
from netclass import GenSpec, betweenness, generate, node_ranking, structural_features
from netclass.generators import preset_rows
g = generate(GenSpec("ER", 500, 200, seed=1))
ba = [generate(row.spec) for row in preset_rows("scalefree-desk", 7, count_override=1)
      if row.spec.alpha in (1.0, 2.0)]
np.savez(sys.argv[1], bet=betweenness(g), rank=node_ranking(g), feats=structural_features(g),
         ba=[betweenness(h) for h in ba])
"""


def test_blas_thread_count_does_not_move_betweenness(tmp_path):
    # ER n=500 k=200 runs 2 forward BFS levels as dense products, and the BA
    # graphs of attachment exponents 1 and 2 (the second with twins) run 5
    # and 3; OpenBLAS sums them in an order that depends on its thread count,
    # but they sum integer path counts, exact in any order below 2**53, and
    # the backward pass never runs the product
    src = str(Path(netclass.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out)], env=env, check=True,
                       timeout=300)
        runs.append(np.load(out))
    one, two = runs
    for key in ("bet", "rank", "feats", "ba"):
        assert np.array_equal(one[key], two[key]), key
