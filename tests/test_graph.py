import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from netclass import (
    Graph,
    GraphInputError,
    adjacency_matrix,
    degree_vector,
    from_edge_list,
    read_edge_list,
    read_feature_csv,
    write_edge_list,
)
from netclass.generators import read_manifest
from netclass.graph import MAX_DENSE_SIZE


def p3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def star5():
    return from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def test_path_graph():
    g = p3()
    assert degree_vector(g).tolist() == [1, 2, 1]
    assert g.edge_count == 2


def test_self_loop_and_duplicate_dropped():
    g = from_edge_list(2, [(0, 1), (1, 0), (0, 0)])
    assert g.indptr.tolist() == [0, 1, 2] and g.indices.tolist() == [1, 0]
    assert g.edge_count == 1


def test_csr_arrays_are_read_only():
    g = star5()
    assert g.indptr.tolist() == [0, 4, 5, 6, 7, 8]
    assert g.indices.tolist() == [1, 2, 3, 4, 0, 0, 0, 0]
    for arr in (g.indptr, g.indices, g.neighbors(0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 3
    assert g == star5() and g != p3() and g != from_edge_list(6, star5().edges())


def test_edges_must_be_pairs():
    # an (m, 3) array must not be read as 3m/2 pairs
    for bad in ([(0, 1, 2)], np.array([[0, 1, 2], [2, 1, 0]]), [(0, 1), (1,)],
                np.arange(4), [("a", 1)], [(None, 1)]):
        with pytest.raises(GraphInputError, match="pairs"):
            from_edge_list(3, bad)
    assert from_edge_list(3, np.array([[0, 1], [2, 1]])) == from_edge_list(3, [(1, 0), (1, 2)])
    assert from_edge_list(3, np.empty((0, 2), dtype=np.int64)).edge_count == 0


def test_index_past_int64_names_the_pair():
    for pair in ((0, 2**63), (2**70, 1), (-(2**64), 0)):
        with pytest.raises(GraphInputError, match=re.escape(f"({pair[0]}, {pair[1]})")):
            from_edge_list(3, [(0, 1), pair])


def test_star_degrees():
    assert degree_vector(star5()).tolist() == [4, 1, 1, 1, 1]


def test_out_of_range_rejected():
    with pytest.raises(GraphInputError, match=r"\(0, 3\)"):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(-1, 0)])


def test_bad_node_count_rejected():
    with pytest.raises(GraphInputError):
        from_edge_list(0, [])
    with pytest.raises(GraphInputError):
        from_edge_list(-2, [])


def test_adjacency_matrix_examples():
    assert adjacency_matrix(p3()).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert adjacency_matrix(from_edge_list(2, [])).tolist() == [[0, 0], [0, 0]]
    k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    a = adjacency_matrix(k3)
    assert (a + np.eye(3) == 1).all()


def test_adjacency_matrix_size_cap():
    g = from_edge_list(MAX_DENSE_SIZE + 1, [])
    with pytest.raises(GraphInputError, match="cap"):
        adjacency_matrix(g)


def test_degree_sum_is_twice_edges():
    g = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    assert degree_vector(g).tolist() == [2] * 6
    assert degree_vector(g).sum() == 2 * g.edge_count


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    m = draw(st.integers(min_value=0, max_value=40))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return n, edges


@given(edge_lists())
@settings(max_examples=80)
def test_graph_invariants(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    want = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    assert list(g.edges()) == want
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size == 2 * g.edge_count
    for i in range(n):
        nbrs = g.neighbors(i).tolist()
        assert nbrs == sorted(set(nbrs))  # sorted, no duplicates
        assert i not in nbrs  # simple
        for j in nbrs:
            assert 0 <= j < n
            assert i in g.neighbors(j).tolist()  # symmetric


@given(edge_lists())
@settings(max_examples=60)
def test_adjacency_round_trip(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    a = adjacency_matrix(g)
    assert np.array_equal(a, a.T)
    assert np.trace(a) == 0
    rebuilt = from_edge_list(n, list(zip(*np.nonzero(a))) if a.any() else [])
    assert rebuilt == g
    assert [g.neighbors(i).tolist() for i in range(n)] == [
        list(np.flatnonzero(row)) for row in a
    ]


def test_edge_list_file_round_trip(tmp_path):
    g = from_edge_list(6, [(0, 1), (2, 3), (1, 4)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_directive_preserves_isolated_nodes(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n# n=5\n0 1\n\n1 2\n")
    g = read_edge_list(path)
    assert g.n == 5
    assert degree_vector(g).tolist() == [1, 2, 1, 0, 0]


def test_edge_list_infers_node_count(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 4\n")
    assert read_edge_list(path).n == 5


def test_edge_list_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\nnope\n")
    with pytest.raises(GraphInputError, match="bad.edges:2"):
        read_edge_list(path)
    path.write_text("# n=2\n0 1\n1 2\n")
    with pytest.raises(GraphInputError, match=":3"):
        read_edge_list(path)
    path.write_text("0 1 2\n")
    with pytest.raises(GraphInputError, match=":1"):
        read_edge_list(path)
    path.write_text("# just a comment\n")
    with pytest.raises(GraphInputError, match="no edges"):
        read_edge_list(path)


def test_byte_order_mark_is_dropped(tmp_path):
    # Excel and to_csv(encoding="utf-8-sig") start their files with one
    texts = [
        (read_edge_list, "# n=4\n0 1\n1 2\n", lambda g: g),
        (read_manifest, "path,label,model,n,k_bar,alpha,beta,seed\n"
                        "a.edges,BA,BA,30,4,1.0,0.1,7\n", lambda rows: rows),
        (read_feature_csv, "label,f0,f1\na,1.0,2.5\nb,-3.0,4e-3\n",
         lambda doc: (doc[0], doc[1].tolist())),
    ]
    for reader, text, value in texts:
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert value(reader(marked)) == value(reader(plain))


# tokens that int() reads or refuses in ways plain digit runs do not cover
_tokens = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(MAX_DENSE_SIZE - 2, MAX_DENSE_SIZE + 1).map(str),
    st.sampled_from(["007", "0000000000001", "12345678901", "+3", "-1", "1_0", "٣",
                     "x", "#", "1.0", "", "n=3"]),
)
_gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\xa0"])
_lines = st.one_of(
    st.tuples(_gaps, _tokens, _gaps, _tokens, _gaps).map("".join),
    st.tuples(st.sampled_from(["", " ", "\t"]), st.integers(0, 30), st.integers(0, 30))
    .map(lambda t: f"{t[0]}{t[1]} {t[2]}"),
    st.integers(0, MAX_DENSE_SIZE + 1).map(lambda k: f"# n={k}"),
    st.sampled_from(["", " ", "# comment", " # n = 12 ", "#n=3x", "\x0c"]),
    st.lists(_tokens, max_size=3).map(" ".join),
)


@given(st.lists(_lines, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_edge_list_parser_matches_line_by_line_reference(tmp_path, lines, newline, last):
    path = tmp_path / "g.edges"
    path.write_bytes((newline.join(lines) + (newline if last else "")).encode())
    try:
        want = oracles.read_edge_list_by_line(path)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as got:
            read_edge_list(path)
        assert str(got.value) == str(exc)
    else:
        assert read_edge_list(path) == want
