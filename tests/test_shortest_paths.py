"""Differential tests of the shortest-path kernel behind every distance metric,
and of the local metrics on the same graphs.

The kernel runs blocks of sources, and each BFS level of a block pushes its
(source, node) pairs onto their neighbors or pulls into the pairs that can
receive from their neighbors, chosen by the edge work of each; a forward level
on which both are wide runs a dense matrix product instead.  The tests force
each method by replacing the choice functions ``metrics._direction`` (both
passes) and ``metrics._dense`` (forward only), force block sizes by replacing
``metrics._BLOCK_PAIRS`` and the product's bands of adjacency rows by
replacing ``metrics._BAND_PAIRS``; they check every method, block size and
band size and the default mix against the brute-force oracles, against
networkx and against each other.  The metrics run the kernel from one source
per twin class; the last tests check them on twin-heavy graphs against the
kernel run from every source, the oracles and networkx.
"""

import re
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
from netclass.graph import MAX_DENSE_SIZE, GraphInputError, adjacency_matrix, twin_classes

# test id -> the method forced on every level ("sparse" is the top-down push);
# the backward pass never runs the product, so forcing "dense" leaves its
# levels to their default push or pull
FORCED = {"sparse": "push", "pull": "pull", "dense": "dense"}


def _force(monkeypatch, method):
    monkeypatch.setattr(metrics, "_dense", lambda *work: method == "dense")
    if method != "dense":
        monkeypatch.setattr(metrics, "_direction", lambda *work: method)


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
        dist, sigma, bet = oracles.shortest_paths(g, with_betweenness=True)
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
        dist, sigma, bet = oracles.shortest_paths(g, with_betweenness=True)
        assert np.array_equal(dist, oracles.bfs_distances(g))
        assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))
        assert np.allclose(bet, oracles.brute_betweenness(g), rtol=0, atol=1e-9)


# Adjacency rows per band of the dense product, forced through
# _BAND_PAIRS = r * n: one row, and a count that divides neither 1000 nor most
# of the small sizes.
BANDS = {"r1": 1, "r7": 7}


@pytest.mark.parametrize("bands", sorted(BANDS))
def test_small_graphs_in_forced_bands_match_oracles(bands, monkeypatch):
    _force(monkeypatch, "dense")  # every forward level runs the banded product
    rng = np.random.default_rng(4244)
    for _ in range(80):
        g = oracles.random_graph(rng, int(rng.integers(1, 14)), float(rng.uniform(0.05, 0.8)))
        monkeypatch.setattr(metrics, "_BAND_PAIRS", BANDS[bands] * g.n)
        dist, sigma, bet = oracles.shortest_paths(g, with_betweenness=True)
        assert np.array_equal(dist, oracles.bfs_distances(g))
        assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))
        assert np.allclose(bet, oracles.brute_betweenness(g), rtol=0, atol=1e-9)


@pytest.mark.parametrize("forced", sorted(FORCED))
def test_forced_methods_reach_their_passes(forced, monkeypatch):
    # push and pull, forced, run every level of both passes; the product runs
    # forward levels only, and the backward ones still push or pull
    g = generate(GenSpec("WS", 100, 4, seed=3))
    calls = {"push": 0, "pull": 0}

    def counting(name):
        kernel = getattr(metrics, f"_{name}")

        def count(*args):
            calls[name] += 1
            return kernel(*args)
        return count

    for name in calls:
        monkeypatch.setattr(metrics, f"_{name}", counting(name))
    _force(monkeypatch, FORCED[forced])
    [(_, dist, _, _)] = metrics._source_blocks(g, with_betweenness=True)  # one block
    depth = int(dist.max())
    # depth + 1 forward levels, the last finding nothing; depth - 1 backward
    if forced == "dense":
        assert calls["push"] + calls["pull"] == depth - 1 > 0
    else:
        assert calls == {"push": 0, "pull": 0, FORCED[forced]: 2 * depth}


def test_push_from_a_pair_whose_degree_fills_a_run():
    # the pair's 4 neighbors reach half the 5 output entries, so the pair
    # fills a run of its own, and no empty run may come before it
    k5 = from_edge_list(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    out = np.zeros(5)
    metrics._push(np.array([4]), np.array([1 / 3]), np.array([4]), k5, out)
    assert out.dtype == np.float64
    assert np.array_equal(out, [1 / 3] * 4 + [0.0])
    # runs of at least one pair each, in order
    assert metrics._runs(np.array([4, 1, 9, 0]), 5) == [(0, 2), (2, 4)]


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
# then its backward ones, which push or pull but never run the product.
LEVELS = {
    "ws500": [
        "push*10 pull*7 | push*8 pull*7",
        "push*10 pull*6 | push*6 pull*8",
        "push*9 pull*7 | push*7 pull*7",
        "push*10 pull*7 | push*8 pull*7",
    ],
    "ba1000": [
        "push*2 dense pull*2 | push pull*2",
        "push*2 dense pull*3 | push*2 pull*2",
        *["push*3 pull*3 | push*2 pull*2"] * 7,
        *["push*3 dense pull*2 | push*2 pull*2"] * 7,
    ],
    "ba1000-linear": [
        "push*2 dense pull*3 | push*2 pull*2",
        *["push*3 pull*3 | push*2 pull*2"] * 2,
        *["push*3 dense pull*2 | push*2 pull*2"] * 7,
        *["push*3 dense pull*2 | push pull*3"] * 3,
        "push*3 dense pull*3 | push*2 pull*3",
        *["push*3 dense pull*2 | push pull*3"] * 2,
    ],
    "disconnected": [
        "push*20 | push*12 pull*6",
        *["push*20 | push*11 pull*7"] * 2,
    ],
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
    dense_checks = []
    dense, direction = metrics._dense, metrics._direction

    def recording_dense(push_work, pull_work, product_work):
        dense_checks.append(len(chosen))
        if dense(push_work, pull_work, product_work):
            chosen.append("dense")
            return True
        return False

    def recording_direction(push_work, pull_work):
        chosen.append(direction(push_work, pull_work))
        return chosen[-1]

    built = []

    def counting(graph):
        built.append(graph.n)
        return adjacency_matrix(graph)

    monkeypatch.setattr(metrics, "_dense", recording_dense)
    monkeypatch.setattr(metrics, "_direction", recording_direction)
    # wherever the kernel would look the function up
    monkeypatch.setattr(graph_module, "adjacency_matrix", counting)
    monkeypatch.setattr(metrics, "adjacency_matrix", counting, raising=False)
    blocks = []
    # the generator runs a block's levels before it yields that block
    for _, dist, _, _ in metrics._source_blocks(GRAPHS[name](), with_betweenness=True):
        forward = int(dist.max()) + 1
        # every forward level, and no backward one, asks whether to go dense
        assert dense_checks == list(range(forward))
        assert "dense" not in chosen[forward:]
        blocks.append(f"{_run_lengths(chosen[:forward])} | {_run_lengths(chosen[forward:])}")
        chosen.clear()
        dense_checks.clear()
    assert blocks == LEVELS[name]
    # the product reads bands scattered from the CSR arrays, never the matrix
    assert built == []


@pytest.fixture(scope="module", params=["ba1000", "disconnected", "ws500"])
def large(request):
    g = GRAPHS[request.param]()
    return g, oracles.shortest_paths(g, with_betweenness=True)


@pytest.fixture(scope="module")
def large_oracles(large):
    g = large[0]
    return oracles.bfs_distances(g), oracles.sigma_matrix(g).astype(float)


@pytest.mark.parametrize("forced", sorted(FORCED))
def test_large_graph_branches_agree(large, forced, monkeypatch):
    g, (dist, sigma, bet) = large
    _force(monkeypatch, FORCED[forced])
    f_dist, f_sigma, f_bet = oracles.shortest_paths(g, with_betweenness=True)
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
    b_dist, b_sigma, b_bet = oracles.shortest_paths(g, with_betweenness=True)
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
    b_dist, b_sigma, b_bet = oracles.shortest_paths(g, with_betweenness=True)
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
    want = [want[v] for v in range(g.n)]
    assert np.allclose(bet, want, rtol=1e-12, atol=1e-9)
    # betweenness runs one source per twin class, which sums the dependencies
    # in another order when there are twins, and in the same one otherwise
    assert np.allclose(betweenness(g), want, rtol=1e-12, atol=1e-9)
    if twin_classes(g)[0].size == g.n:
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
# kernel's block arrays hold about 0.5 MB each, and every BA cell but the third
# also holds one band of the adjacency (2 MB, 0.26 of an array at n = 1000)
# for its dense levels; all_pairs_distances adds its n x n result.  A quarter
# of an array of slack leaves any mutant that keeps one more n x n float64
# array, such as the stacked distances or the whole float adjacency, over the
# bound, and so are a 4 MB band (the BA cells with dense levels and the
# distances) and a fresh block-sized push output per level (ws500).
PEAKS = {0: 0.81, 1: 0.80, 2: 0.58, 3: 0.86, "ws500": 2.01, "distances": 1.67}
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
    # Every block of this graph runs the product on its widest forward
    # levels.  Its betweenness peaked at 6.5 MB as measured, one 2 MB band
    # included; the whole float adjacency alone would be 32 MB.
    g = generate(GenSpec("ER", 2000, 100, seed=1))
    assert _peak(betweenness, g) <= 9.5 * 2**20


# ---------------------------------------------------------------------------
# one source per twin class
# ---------------------------------------------------------------------------


def _complete_bipartite(a, b):
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _copies(g, kinds):
    # g with a twin added for each node of ``kinds``, a {node: kind} map of
    # pairwise non-adjacent nodes: an "open" twin takes the node's neighbors,
    # a "closed" one those and the node itself
    edges = list(g.edges())
    for new, (v, kind) in enumerate(kinds.items(), start=g.n):
        edges += [(u, new) for u in g.neighbors(v).tolist()]
        if kind == "closed":
            edges.append((v, new))
    return from_edge_list(g.n + len(kinds), edges)


def _checkerboard(side, rows):
    # the nodes (r, c) of a side x side grid with r < rows and r + c even,
    # which are pairwise non-adjacent, alternately open and closed
    nodes = [r * side + c for r in range(rows) for c in range(side) if (r + c) % 2 == 0]
    return {v: ("open", "closed")[i % 2] for i, v in enumerate(nodes)}


SMALL_TWIN_GRAPHS = {
    "k1": lambda: from_edge_list(1, []),
    "k2": lambda: from_edge_list(2, [(0, 1)]),
    "k6": lambda: from_edge_list(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    "k3,5": lambda: _complete_bipartite(3, 5),
    "star": lambda: _complete_bipartite(1, 7),
    "copied": lambda: _copies(oracles.grid_graph(3), _checkerboard(3, 3)),
    "isolated": lambda: from_edge_list(9, [(0, 1), (1, 2), (2, 3), (4, 5)]),
}

TWIN_GRAPHS = {
    "ba1000-a2": _scalefree(3),
    # seed 5: a pull rounds the betweenness of one pair of closed twins apart
    "geo500": lambda: generate(GenSpec("GEO", 500, 4, seed=5)),
    "disconnected": _disconnected,
}


def _summaries(dist):
    # reach, farness and eccentricity of every source from stacked distances
    reached = dist >= 0
    return reached.sum(axis=1) - 1, np.where(reached, dist, 0).sum(axis=1), dist.max(axis=1)


def _assert_twin_sources_exact(g, dist):
    reach, far, ecc, _ = metrics._per_source(g)
    want = _summaries(dist)
    for got, expected in zip((reach, far, ecc), want):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", sorted(SMALL_TWIN_GRAPHS))
def test_twin_sources_match_brute_force(name):
    g = SMALL_TWIN_GRAPHS[name]()
    assert twin_classes(g)[0].size < g.n or g.n == 1
    assert np.allclose(betweenness(g), oracles.brute_betweenness(g), rtol=0, atol=1e-9)
    _assert_twin_sources_exact(g, oracles.bfs_distances(g))


@pytest.fixture(scope="module", params=sorted(TWIN_GRAPHS))
def twin_heavy(request):
    g = TWIN_GRAPHS[request.param]()
    return g, oracles.shortest_paths(g, with_betweenness=True)


def test_twin_sources_match_every_source(twin_heavy):
    g, (dist, _, bet) = twin_heavy
    reps, cls, _ = twin_classes(g)
    assert reps.size < g.n
    got = betweenness(g)
    # one source per class sums the dependencies in another order
    assert np.allclose(got, bet, rtol=1e-12, atol=1e-9)
    _assert_twin_sources_exact(g, dist)
    # twins get the same bits, their representative's
    assert np.array_equal(got, got[reps][cls])


def test_twin_sources_match_networkx(twin_heavy):
    nx = pytest.importorskip("networkx")
    g = twin_heavy[0]
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    want = nx.betweenness_centrality(ref, normalized=False)
    assert np.allclose(betweenness(g), [want[v] for v in range(g.n)], rtol=1e-12, atol=1e-9)
    want = nx.closeness_centrality(ref, wf_improved=False)
    assert np.allclose(closeness(g), [want[v] for v in range(g.n)], rtol=1e-12, atol=0)


def test_one_source_per_twin_class(monkeypatch):
    g = _scalefree(3)()  # BA alpha = 2: about 700 of 1000 nodes are twins
    reps, cls, sizes = twin_classes(g)
    assert reps.size < 0.4 * g.n
    calls = []
    kernel = metrics._source_blocks

    def recording(graph, with_betweenness=False, sources=None, mult=None):
        calls.append((sources, mult))
        return kernel(graph, with_betweenness, sources, mult)

    monkeypatch.setattr(metrics, "_source_blocks", recording)
    betweenness(g)
    [(sources, mult)] = calls
    assert np.array_equal(cls[sources], np.arange(reps.size))
    assert np.array_equal(mult, sizes)


def test_path_counts_past_2_53_warn_once_with_twins():
    # the 30 x 30 grid of test_path_counts_past_2_53_warn, with a twin of 30
    # of its nodes, half of them open and half closed
    g = _copies(oracles.grid_graph(30), _checkerboard(30, 2))
    assert twin_classes(g)[0].size == 900
    # the representatives' path counts peak where every node's do
    peak = oracles.shortest_paths(g)[1].max()
    with pytest.warns(UserWarning, match=rf"reach {re.escape(f'{peak:.3g}')} .*n=930.*2\*\*53") as caught:
        betweenness(g)
    assert len(caught) == 1
    assert caught[0].filename == __file__
