import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netclass import (
    adjacency_matrix,
    betweenness,
    degree_vector,
    from_edge_list,
    generate,
    node_ranking,
    preset_rows,
    sorted_adjacency,
)


def test_star_center_ranks_first():
    g = from_edge_list(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    perm = node_ranking(g)
    assert perm.dtype == np.int64
    assert perm[0] == 2
    assert sorted_adjacency(g)[0].tolist() == [0, 1, 1, 1, 1]


def test_p4_middles_precede_leaves():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    bet = oracles.brute_betweenness(g)
    assert bet.tolist() == [0.0, 2.0, 2.0, 0.0]
    perm = node_ranking(g)
    assert set(perm[:2].tolist()) == {1, 2}  # degree 2, betweenness 2
    assert set(perm[2:].tolist()) == {0, 3}


def test_complete_graph_order_is_harmless():
    g = from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    a = sorted_adjacency(g)
    assert (a + np.eye(4) == 1).all()  # any order gives the same image


def test_row_sums_are_sorted_degrees():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = oracles.random_graph(rng, int(rng.integers(2, 20)), 0.3)
        a = sorted_adjacency(g)
        rows = a.sum(axis=1).astype(int)
        assert (np.diff(rows) <= 0).all()
        assert rows.tolist() == sorted(degree_vector(g), reverse=True)
        assert np.array_equal(a, a.T)
        assert np.trace(a) == 0


def test_ranking_keys_non_increasing():
    rng = np.random.default_rng(6)
    g = oracles.random_graph(rng, 15, 0.3)
    deg = degree_vector(g)
    bet = np.round(betweenness(g), 6)
    keys = [(deg[i], bet[i]) for i in node_ranking(g)]
    assert all(keys[t] >= keys[t + 1] for t in range(len(keys) - 1))


def test_permutation_is_bijection():
    rng = np.random.default_rng(7)
    g = oracles.random_graph(rng, 12, 0.4)
    perm = node_ranking(g)
    assert sorted(perm.tolist()) == list(range(12))


def test_cospectral_with_original():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = oracles.random_graph(rng, 8, 0.4)
        a = adjacency_matrix(g).astype(float)
        b = sorted_adjacency(g).astype(float)
        assert np.allclose(np.sort(np.linalg.eigvalsh(a)),
                           np.sort(np.linalg.eigvalsh(b)), atol=1e-9)


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _keys_injective(g, gap=1e-4):
    deg = degree_vector(g)
    bet = oracles.brute_betweenness(g)
    keys = sorted(zip(deg.tolist(), bet.tolist()))
    for (d1, b1), (d2, b2) in zip(keys, keys[1:]):
        if d1 == d2 and abs(b1 - b2) <= gap:
            return False
    return True


def test_relabel_invariance_when_keys_distinct():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 10:
        g = oracles.random_graph(rng, int(rng.integers(5, 14)), 0.35)
        if not _keys_injective(g):
            continue
        base = sorted_adjacency(g)
        for _ in range(4):
            perm = rng.permutation(g.n).tolist()
            assert np.array_equal(sorted_adjacency(_relabel(g, perm)), base)
        checked += 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sorted_matrix_row_sum_property(seed):
    rng = np.random.default_rng(seed)
    g = oracles.random_graph(rng, int(rng.integers(1, 16)), float(rng.uniform(0, 1)))
    rows = sorted_adjacency(g).sum(axis=1).astype(int)
    assert (np.diff(rows) <= 0).all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_ranking_matches_tuple_definition(seed):
    # small dense and sparse draws tie often on degree and betweenness
    rng = np.random.default_rng(seed)
    g = oracles.random_graph(rng, int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.9)))
    perm = node_ranking(g)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, oracles.node_ranking_by_tuples(g))


def test_ranking_matches_tuple_definition_on_desk_cells():
    # one graph of every scalefree-desk cell and of every synthetic-desk
    # model at k=4: BA alpha=2 and GEO leave large tied cells
    rows = preset_rows("scalefree-desk", 11, count_override=1)
    rows += [r for r in preset_rows("synthetic-desk", 11, count_override=1) if r.spec.k_bar == 4]
    for row in rows:
        g = generate(row.spec)
        assert np.array_equal(node_ranking(g), oracles.node_ranking_by_tuples(g)), row.spec
