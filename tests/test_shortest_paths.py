"""Differential tests of the shortest-path kernel behind every distance metric,
and of the local metrics on the same graphs.

The kernel runs blocks of sources, and each BFS level of a block pushes its
(source, node) pairs onto their neighbors or pulls into the pairs that can
receive from their neighbors, chosen by the edge work of each; a level on
which both are wide gathers every pair of the block at once instead, reading
the adjacency in bands of CSR rows.  The tests force each method on both
passes by replacing the choice functions ``metrics._direction`` and
``metrics._wide``, force block sizes by replacing ``metrics._BLOCK_PAIRS``
and the gather's bands by replacing ``metrics._runs``; they check every
method, block size and band size and the default mix against the
brute-force oracles, against networkx and against each other, and the gather
against the pull bit for bit.  The metrics run the kernel from one source
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
from netclass.graph import (
    MAX_DENSE_SIZE,
    GraphInputError,
    adjacency_matrix,
    degree_vector,
    twin_classes,
)

# test id -> the method forced on every level of both passes ("sparse" is the
# top-down push, "dense" the gather that wide levels take); a backward level
# gathers only where it would pull
FORCED = {"sparse": "push", "pull": "pull", "dense": "gather"}
METHODS = ("push", "pull", "gather")


def _force(monkeypatch, method):
    monkeypatch.setattr(metrics, "_wide", lambda *work: method == "gather")
    monkeypatch.setattr(metrics, "_direction", lambda *work: "pull" if method == "gather" else method)


def _recording(monkeypatch, log):
    # each kernel method appends its name to ``log`` when it runs a level
    for name in METHODS:
        def record(*args, _name=name, _run=getattr(metrics, f"_{name}")):
            log.append(_name)
            return _run(*args)
        monkeypatch.setattr(metrics, f"_{name}", record)


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


# Adjacency rows (nodes) per band of the gather, forced by cutting every run
# of _runs into pieces of at most r: one row, and a count that divides none of
# the large graph sizes and leaves a short last band on most small ones.
BANDS = {"r1": 1, "r7": 7}


def _band(monkeypatch, r):
    runs = metrics._runs
    monkeypatch.setattr(metrics, "_runs", lambda k, size: [
        (a, min(a + r, hi)) for lo, hi in runs(k, size) for a in range(lo, hi, r)
    ])


@pytest.mark.parametrize("bands", sorted(BANDS))
def test_small_graphs_in_forced_bands_match_oracles(bands, monkeypatch):
    _force(monkeypatch, "gather")  # every level of both passes gathers
    _band(monkeypatch, BANDS[bands])
    rng = np.random.default_rng(4244)
    for _ in range(80):
        g = oracles.random_graph(rng, int(rng.integers(1, 14)), float(rng.uniform(0.05, 0.8)))
        dist, sigma, bet = oracles.shortest_paths(g, with_betweenness=True)
        assert np.array_equal(dist, oracles.bfs_distances(g))
        assert np.array_equal(sigma, oracles.sigma_matrix(g).astype(float))
        assert np.allclose(bet, oracles.brute_betweenness(g), rtol=0, atol=1e-9)


@pytest.mark.parametrize("forced", sorted(FORCED))
def test_forced_methods_reach_their_passes(forced, monkeypatch):
    # each method, forced, runs every level of both passes
    g = generate(GenSpec("WS", 100, 4, seed=3))
    calls = []
    _recording(monkeypatch, calls)
    _force(monkeypatch, FORCED[forced])
    [(_, dist, _, _)] = metrics._source_blocks(g, with_betweenness=True)  # one block
    depth = int(dist.max())
    # depth + 1 forward levels, the last finding nothing; depth - 1 backward
    assert depth > 1
    assert calls == [FORCED[forced]] * (2 * depth)


def test_gather_matches_pull_bit_for_bit(monkeypatch):
    # Sums over more than 8 neighbors go pairwise in numpy, so the gather must
    # cut its segments where the pull does: isolated nodes and hubs of degree
    # 9 or more, values spread over many binades, and bands of every size.
    rng = np.random.default_rng(4245)
    checked = 0
    for trial in range(30):
        n = int(rng.integers(12, 40))
        g = oracles.random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
        hubs = rng.choice(n, 2, replace=False)
        edges = set(g.edges()) | {(min(h, v), max(h, v)) for h in hubs.tolist()
                                  for v in rng.choice(n, 12).tolist() if v != h}
        g = from_edge_list(n + 3, sorted(edges))  # three isolated nodes
        deg = degree_vector(g)
        assert deg.max() >= 9 and (deg == 0).any()
        b = int(rng.integers(1, 6))
        values = rng.random(b * g.n) * 2.0 ** rng.integers(-30, 30, b * g.n)
        if trial % 3:
            _band(monkeypatch, int(rng.integers(1, 8)))
        targets = np.flatnonzero(np.tile(deg, b))
        gathered = metrics._gather(values, deg, g, np.zeros(values.size))
        pulled = metrics._pull(targets, values, deg[targets % g.n], g, values.size)
        monkeypatch.undo()
        assert np.array_equal(gathered[targets], pulled)
        assert not gathered[np.setdiff1d(np.arange(gathered.size), targets)].any()
        # a left-to-right sum would round some of these segments apart
        x = values.reshape(b, g.n)
        serial = [sum(x[t // g.n, g.neighbors(t % g.n)].tolist()) for t in targets.tolist()]
        checked += int((np.array(serial) != pulled).sum())
    assert checked > 0


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
# then its backward ones.
LEVELS = {
    "ws500": [
        "push*10 pull*7 | push*8 pull*7",
        "push*10 pull*6 | push*6 pull*8",
        "push*9 pull*7 | push*7 pull*7",
        "push*10 pull*7 | push*8 pull*7",
    ],
    "ba1000": [
        "push*2 gather pull*2 | push gather pull",
        *["push*3 pull*3 | push*2 pull*2"] * 14,
        "push*3 gather pull*2 | push*2 pull*2",
    ],
    "ba1000-linear": [
        *["push*3 pull*3 | push*2 pull*2"] * 5,
        *["push*3 gather pull*2 | push*2 pull*2"] * 5,
        *["push*3 gather pull*2 | push gather pull*2"] * 3,
        "push*3 gather pull*3 | push*2 gather pull*2",
        *["push*3 gather pull*2 | push gather pull*2"] * 2,
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
    _recording(monkeypatch, chosen)
    built = []

    def counting(graph):
        built.append(graph.n)
        return adjacency_matrix(graph)

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
    # the gather reads the CSR arrays, never the matrix
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


# ba1000 is the large graph whose levels gather by default (see LEVELS)
@pytest.mark.parametrize("large", ["ba1000"], indirect=True)
@pytest.mark.parametrize("bands", sorted(BANDS))
def test_large_graph_forced_bands_match_oracles(large, large_oracles, bands, monkeypatch):
    g, (_, _, bet) = large
    _force(monkeypatch, "gather")  # every level of both passes gathers
    _band(monkeypatch, BANDS[bands])
    b_dist, b_sigma, b_bet = oracles.shortest_paths(g, with_betweenness=True)
    assert np.array_equal(b_dist, large_oracles[0])
    assert np.array_equal(b_sigma, large_oracles[1])
    # where the default pushes back, the gather sums in another order
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
    # an edgeless graph never gathers, but the kernel holds every graph to
    # the dense size cap, which bounds its run time
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
# kernel's block arrays hold about 0.5 MB each (0.07 of an array at n = 1000),
# and a gathering level adds a gathered band of at most half a block;
# all_pairs_distances adds its n x n result.  A quarter of an array of slack
# leaves any mutant that keeps one more n x n float64 array, such as the
# stacked distances or the whole float adjacency, over the bound, and so is a
# fresh block-sized push output per level (ws500).
PEAKS = {0: 0.55, 1: 0.55, 2: 0.58, 3: 0.60, "ws500": 2.01, "distances": 1.41}
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


def test_dense_level_peak_memory(monkeypatch):
    # Every level of both passes gathers here, which this graph's levels are
    # not wide enough to do by default.  Its betweenness peaked at 4.5 MB as
    # measured, as it does without the gather; the whole float adjacency
    # alone would be 32 MB, and keeping a 2 MB band of it would cross the
    # bound too.
    g = generate(GenSpec("ER", 2000, 100, seed=1))
    _force(monkeypatch, "gather")
    assert _peak(betweenness, g) <= 6 * 2**20


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
