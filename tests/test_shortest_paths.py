"""Differential tests of the shortest-path kernel behind every distance metric,
and of the local metrics on the same graphs.

The kernel runs blocks of sources, and each BFS level of a block pushes its
(source, node) pairs onto their neighbors, pulls into the pairs that can
receive from their neighbors, or runs a dense matrix product, chosen by the
edge work of push and pull.  The tests force each method on every level by
replacing the choice function ``metrics._method``, force block sizes by
replacing ``metrics._BLOCK_PAIRS`` and the product's bands of adjacency rows
by replacing ``metrics._BAND_PAIRS``; they check every method, block size and
band size and the default mix against the brute-force oracles, against
networkx and against each other.
"""

import tracemalloc

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
from netclass import graph as graph_module
from netclass import metrics
from netclass.generators import preset_rows
from netclass.graph import MAX_DENSE_SIZE, GraphInputError, adjacency_matrix

# test id -> the method forced on every level ("sparse" is the top-down push)
FORCED = {"sparse": "push", "pull": "pull", "dense": "dense"}


def _force(monkeypatch, method):
    monkeypatch.setattr(metrics, "_method", lambda push_work, pull_work, product_work: method)


@pytest.fixture(params=["default", *sorted(FORCED)])
def branch(request, monkeypatch):
    if request.param in FORCED:
        _force(monkeypatch, FORCED[request.param])
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
        # triangle counts are integers, so the CSR count is exact
        assert np.array_equal(clustering(g), oracles.dense_clustering(g))


# Sources per block, forced through _BLOCK_PAIRS = b * n: one, a count that
# divides none of the large graph sizes (500, 1000, 405), and all n at once.
BLOCKS = {"b1": 1, "b7": 7, "bn": None}


def _block(monkeypatch, b, n):
    monkeypatch.setattr(metrics, "_BLOCK_PAIRS", (b or n) * n)


@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_small_graphs_in_forced_blocks_match_oracles(blocks, monkeypatch):
    rng = np.random.default_rng(4243)
    for _ in range(80):
        g = oracles.random_graph(rng, int(rng.integers(1, 14)), float(rng.uniform(0.05, 0.8)))
        _block(monkeypatch, BLOCKS[blocks], g.n)
        dist, sigma, bet = metrics._shortest_paths(g, with_betweenness=True)
        assert np.array_equal(dist, oracles.bfs_distances(g))
        assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))
        assert np.allclose(bet, oracles.brute_betweenness(g), rtol=0, atol=1e-9)


# Adjacency rows per band of the dense product, forced through
# _BAND_PAIRS = r * n: one row, and a count that divides neither 1000 nor most
# of the small sizes.
BANDS = {"r1": 1, "r7": 7}


@pytest.mark.parametrize("bands", sorted(BANDS))
def test_small_graphs_in_forced_bands_match_oracles(bands, monkeypatch):
    _force(monkeypatch, "dense")  # every level runs the banded product
    rng = np.random.default_rng(4244)
    for _ in range(80):
        g = oracles.random_graph(rng, int(rng.integers(1, 14)), float(rng.uniform(0.05, 0.8)))
        monkeypatch.setattr(metrics, "_BAND_PAIRS", BANDS[bands] * g.n)
        dist, sigma, bet = metrics._shortest_paths(g, with_betweenness=True)
        assert np.array_equal(dist, oracles.bfs_distances(g))
        assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))
        assert np.allclose(bet, oracles.brute_betweenness(g), rtol=0, atol=1e-9)


def _disconnected():
    # a sparse uniform draw (several components) plus five isolated nodes
    g = generate(GenSpec("ER", 400, 2, seed=5))
    return from_edge_list(g.n + 5, g.edges())


def _scalefree(index):
    return lambda: generate(preset_rows("scalefree-desk", 7, count_override=1)[index].spec)


GRAPHS = {
    "ws500": lambda: generate(GenSpec("WS", 500, 4, seed=3)),
    "ba1000": _scalefree(1),
    "ba1000-linear": _scalefree(0),
    "disconnected": _disconnected,
}

# The method each level takes by default, run-length coded, per block of
# sources: the block's forward levels, the last of which finds nothing new,
# then its backward ones.
LEVELS = {
    "ws500": ["push*10 pull*7 | push*8 pull*7"] * 2,
    "ba1000": [
        "push*2 dense pull*3 | push*2 dense pull",
        *["push*3 pull*3 | push*2 pull*2"] * 3,
        *["push*3 dense pull*2 | push dense pull*2"] * 4,
    ],
    "ba1000-linear": [
        "push*2 dense pull*3 | push*2 dense pull",
        *["push*3 dense pull*2 | push dense pull*2"] * 5,
        "push*3 dense pull*3 | push*2 dense pull*2",
        "push*3 dense pull*2 | push dense pull*2",
    ],
    "disconnected": ["push*20 | push*12 pull*6", "push*20 | push*11 pull*7"],
}


def _run_lengths(methods):
    runs = []
    for m in methods:
        if runs and runs[-1][0] == m:
            runs[-1][1] += 1
        else:
            runs.append([m, 1])
    return " ".join(m if c == 1 else f"{m}*{c}" for m, c in runs)


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_large_graph_levels_take_expected_branch(name, monkeypatch):
    chosen = []
    choose = metrics._method

    def recording(push_work, pull_work, product_work):
        chosen.append(choose(push_work, pull_work, product_work))
        return chosen[-1]

    built = []

    def counting(graph):
        built.append(graph.n)
        return adjacency_matrix(graph)

    monkeypatch.setattr(metrics, "_method", recording)
    # wherever the kernel would look the function up
    monkeypatch.setattr(graph_module, "adjacency_matrix", counting)
    monkeypatch.setattr(metrics, "adjacency_matrix", counting, raising=False)
    blocks = []
    # the generator runs a block's levels before it yields that block
    for _, dist, _, _ in metrics._source_blocks(GRAPHS[name](), with_betweenness=True):
        forward = int(dist.max()) + 1
        blocks.append(f"{_run_lengths(chosen[:forward])} | {_run_lengths(chosen[forward:])}")
        chosen.clear()
    assert blocks == LEVELS[name]
    # the product reads bands scattered from the CSR arrays, never the matrix
    assert built == []


@pytest.fixture(scope="module", params=["ba1000", "disconnected", "ws500"])
def large(request):
    g = GRAPHS[request.param]()
    return g, metrics._shortest_paths(g, with_betweenness=True)


@pytest.fixture(scope="module")
def large_oracles(large):
    g = large[0]
    return oracles.bfs_distances(g), oracles.sigma_matrix(g).astype(float)


@pytest.mark.parametrize("forced", sorted(FORCED))
def test_large_graph_branches_agree(large, forced, monkeypatch):
    g, (dist, sigma, bet) = large
    _force(monkeypatch, FORCED[forced])
    f_dist, f_sigma, f_bet = metrics._shortest_paths(g, with_betweenness=True)
    assert np.array_equal(f_dist, dist)
    assert np.array_equal(f_sigma, sigma)
    # only the summation order of the dependencies differs
    assert np.allclose(f_bet, bet, rtol=0, atol=1e-9)


def test_large_graph_matches_oracles(large, large_oracles):
    _, (dist, sigma, _) = large
    assert np.array_equal(dist, large_oracles[0])
    assert np.array_equal(sigma, large_oracles[1])


@pytest.mark.parametrize("blocks", sorted(BLOCKS))
def test_large_graph_forced_blocks_match_oracles(large, large_oracles, blocks, monkeypatch):
    g, (_, _, bet) = large
    _block(monkeypatch, BLOCKS[blocks], g.n)
    b_dist, b_sigma, b_bet = metrics._shortest_paths(g, with_betweenness=True)
    assert np.array_equal(b_dist, large_oracles[0])
    assert np.array_equal(b_sigma, large_oracles[1])
    # the default's betweenness matches networkx in test_large_graph_matches_networkx
    assert np.allclose(b_bet, bet, rtol=0, atol=1e-9)


# ba1000 is the large graph whose levels go dense by default (see LEVELS)
@pytest.mark.parametrize("large", ["ba1000"], indirect=True)
@pytest.mark.parametrize("bands", sorted(BANDS))
def test_large_graph_forced_bands_match_oracles(large, large_oracles, bands, monkeypatch):
    g, (_, _, bet) = large
    monkeypatch.setattr(metrics, "_BAND_PAIRS", BANDS[bands] * g.n)
    b_dist, b_sigma, b_bet = metrics._shortest_paths(g, with_betweenness=True)
    assert np.array_equal(b_dist, large_oracles[0])
    assert np.array_equal(b_sigma, large_oracles[1])
    assert np.allclose(b_bet, bet, rtol=0, atol=1e-9)


def test_large_graph_matches_networkx(large):
    nx = pytest.importorskip("networkx")
    g, (dist, _, bet) = large
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


def test_large_graph_clustering_matches_dense_count(large):
    g = large[0]
    assert np.array_equal(clustering(g), oracles.dense_clustering(g))


def test_large_graph_local_metrics_match_networkx(large):
    # clustering, neighbor degree and assortativity read the CSR arrays
    # directly, outside the shortest-path kernel
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
    # an edgeless graph never goes dense, but the kernel holds every graph to
    # the cap of the adjacency matrix its dense levels read
    g = from_edge_list(MAX_DENSE_SIZE + 1, [])
    for metric in (betweenness, closeness, all_pairs_distances):
        with pytest.raises(GraphInputError, match="cap"):
            metric(g)
    for which in (["bet"], ["d"], "combined"):
        with pytest.raises(GraphInputError, match="cap"):
            structural_features(g, which)


# tracemalloc peak, in n x n float64 arrays, of betweenness on the BA cells of
# scalefree-desk (one per attachment exponent) and of structural_features on
# ws500, and of all_pairs_distances on the second BA cell, as measured.  The
# kernel's block arrays hold about 1 MB each, and every BA cell but the third
# also holds one band of the adjacency (4 MB, 0.52 of an array at n = 1000)
# for its dense levels; all_pairs_distances adds its n x n result.  A quarter
# of an array of slack leaves any mutant that keeps one more n x n float64
# array, such as the stacked distances or the whole float adjacency, over the
# bound.
PEAKS = {0: 1.68, 1: 1.81, 2: 1.26, 3: 1.73, "ws500": 4.28, "distances": 2.37}
SLACK = 0.25


def _peak(fn, g):
    tracemalloc.start()
    try:
        fn(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("index", range(4))
def test_hub_heavy_peak_memory(index):
    g = _scalefree(index)()
    assert _peak(betweenness, g) <= (PEAKS[index] + SLACK) * g.n * g.n * 8


def test_structural_peak_memory():
    g = GRAPHS["ws500"]()
    assert _peak(structural_features, g) <= (PEAKS["ws500"] + SLACK) * g.n * g.n * 8


def test_all_pairs_distances_peak_memory():
    g = _scalefree(1)()
    assert _peak(all_pairs_distances, g) <= (PEAKS["distances"] + SLACK) * g.n * g.n * 8


def test_dense_level_peak_memory():
    # Every block of this graph runs the product on its widest levels.  Its
    # betweenness peaked at 13.3 MB as measured, one 4 MB band included; the
    # whole float adjacency alone would be 32 MB.
    g = generate(GenSpec("ER", 2000, 100, seed=1))
    assert _peak(betweenness, g) <= 16 * 2**20
