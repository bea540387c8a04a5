"""Differential tests of the shortest-path kernel behind every distance metric,
and of the local metrics on the same graphs.

Each BFS level of the kernel either expands its (source, node) pairs over
neighbor arrays or runs a dense matrix product, chosen by the level's edge
work.  The tests force each branch by setting ``_SPARSE_RATIO`` (1 sends every
level to the sparse expansion, infinity every level to the product) and check
both, and the default mix, against the brute-force oracles, against networkx
and against each other.
"""

import math

import numpy as np
import pytest

import oracles
from netclass import (
    DisconnectedGraphError,
    GenSpec,
    all_pairs_distances,
    assortativity_scalar,
    avg_neighbor_degree,
    betweenness,
    closeness,
    clustering,
    eccentricity,
    from_edge_list,
    generate,
    structural_features,
)
from netclass import metrics
from netclass.generators import preset_rows
from netclass.graph import MAX_DENSE_SIZE, GraphInputError, adjacency_matrix

FORCED_RATIO = {"sparse": 1, "dense": math.inf}


@pytest.fixture(params=["sparse", "default", "dense"])
def branch(request, monkeypatch):
    if request.param in FORCED_RATIO:
        monkeypatch.setattr(metrics, "_SPARSE_RATIO", FORCED_RATIO[request.param])
    return request.param


def test_small_graphs_match_oracles(branch):
    # sparse draws leave isolated nodes and several components
    rng = np.random.default_rng(4242)
    for _ in range(80):
        g = oracles.random_graph(rng, int(rng.integers(1, 14)), float(rng.uniform(0.05, 0.8)))
        dist, sigma, bet = metrics._shortest_paths(g, with_betweenness=True)
        assert np.array_equal(dist, oracles.bfs_distances(g))
        assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))
        assert np.allclose(bet, oracles.brute_betweenness(g), rtol=0, atol=1e-9)


def _disconnected():
    # a sparse uniform draw (several components) plus five isolated nodes
    g = generate(GenSpec("ER", 400, 2, seed=5))
    return from_edge_list(g.n + 5, g.edges())


# name -> (graph constructor, whether any level runs the dense product by default)
LARGE = {
    "ws500": (lambda: generate(GenSpec("WS", 500, 4, seed=3)), False),
    "ba1000": (lambda: generate(preset_rows("scalefree-desk", 7, count_override=1)[1].spec), True),
    "disconnected": (_disconnected, False),
}


@pytest.fixture(scope="module", params=sorted(LARGE))
def large(request):
    build, goes_dense = LARGE[request.param]
    g = build()
    return g, goes_dense, metrics._shortest_paths(g, with_betweenness=True)


def test_large_graph_levels_take_expected_branch(large, monkeypatch):
    g, goes_dense, _ = large
    built = []

    def counting(graph):
        built.append(graph.n)
        return adjacency_matrix(graph)

    monkeypatch.setattr(metrics, "adjacency_matrix", counting)
    metrics._shortest_paths(g, with_betweenness=True)
    assert bool(built) == goes_dense


@pytest.mark.parametrize("forced", sorted(FORCED_RATIO))
def test_large_graph_branches_agree(large, forced, monkeypatch):
    g, _, (dist, sigma, bet) = large
    monkeypatch.setattr(metrics, "_SPARSE_RATIO", FORCED_RATIO[forced])
    f_dist, f_sigma, f_bet = metrics._shortest_paths(g, with_betweenness=True)
    assert np.array_equal(f_dist, dist)
    assert np.array_equal(f_sigma, sigma)
    # only the summation order of the dependencies differs
    assert np.allclose(f_bet, bet, rtol=0, atol=1e-9)


def test_large_graph_matches_oracles(large):
    g, _, (dist, sigma, _) = large
    assert np.array_equal(dist, oracles.bfs_distances(g))
    assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))


def test_large_graph_matches_networkx(large):
    nx = pytest.importorskip("networkx")
    g, _, (dist, _, bet) = large
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())

    lengths = dict(nx.all_pairs_shortest_path_length(ref))
    expected = np.full((g.n, g.n), -1)
    for s, row in lengths.items():
        expected[s, list(row)] = list(row.values())
    assert np.array_equal(dist, expected)

    want = nx.betweenness_centrality(ref, normalized=False)
    assert np.allclose(bet, [want[v] for v in range(g.n)], rtol=1e-12, atol=1e-9)
    assert np.array_equal(betweenness(g), bet)

    want = nx.closeness_centrality(ref, wf_improved=False)
    assert np.allclose(closeness(g), [want[v] for v in range(g.n)], rtol=1e-12, atol=0)

    if nx.is_connected(ref):
        want = nx.eccentricity(ref, sp=lengths)
        assert np.array_equal(eccentricity(g), [want[v] for v in range(g.n)])
    else:
        with pytest.raises(DisconnectedGraphError):
            eccentricity(g)


def test_large_graph_local_metrics_match_networkx(large):
    # clustering, neighbor degree and assortativity read the CSR arrays (or
    # the dense matrix) directly, outside the shortest-path kernel
    nx = pytest.importorskip("networkx")
    g = large[0]
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())

    want = nx.clustering(ref)
    assert np.allclose(clustering(g), [want[v] for v in range(g.n)], rtol=1e-12, atol=0)
    # networkx averages over neighbors too, and scores isolated nodes 0
    want = nx.average_neighbor_degree(ref)
    assert np.allclose(avg_neighbor_degree(g), [want[v] for v in range(g.n)], rtol=1e-12, atol=0)
    want = nx.degree_assortativity_coefficient(ref)
    assert assortativity_scalar(g) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_size_cap_applies_without_a_dense_level():
    # an edgeless graph never goes dense, but the kernel's flat n * n arrays
    # would still be allocated, so it is refused like adjacency_matrix
    g = from_edge_list(MAX_DENSE_SIZE + 1, [])
    for metric in (betweenness, closeness, all_pairs_distances):
        with pytest.raises(GraphInputError, match="cap"):
            metric(g)
    for which in (["bet"], ["d"], "combined"):
        with pytest.raises(GraphInputError, match="cap"):
            structural_features(g, which)
