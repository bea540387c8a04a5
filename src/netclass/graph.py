"""Undirected simple graphs in compressed sparse row (CSR) form and their
adjacency matrices.

Nodes are dense 0-based indices.  Graphs hold read-only arrays, so they are
immutable and safe to share across workers; :func:`from_edge_list` is the
one constructor.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Dense matrices only; plenty for the network sizes this toolkit targets.
MAX_DENSE_SIZE = 10_000


class GraphInputError(ValueError):
    """Malformed graph input: bad indices, bad node counts, bad edge files."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph on nodes ``0..n-1``, in CSR form.

    The neighbors of node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending; ``indptr`` is int64 of length ``n + 1`` and ``indices`` int32,
    both read-only.  :func:`from_edge_list` guarantees symmetry and
    simplicity (no self-loops, no duplicate neighbors).  ``==`` compares
    structure.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, i: int) -> np.ndarray:
        """The ascending neighbors of node ``i``."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def edges(self):
        """Iterate each edge exactly once as ``(u, v)`` with ``u < v``, in
        ascending order."""
        rows = _sources(self)
        upper = self.indices > rows
        return zip(rows[upper].tolist(), self.indices[upper].tolist())


def _sources(g: Graph) -> np.ndarray:
    # the row of each CSR entry: entry e is the edge (_sources(g)[e], indices[e])
    return np.repeat(np.arange(g.n), np.diff(g.indptr))


def from_edge_list(n, edges) -> Graph:
    """Build a simple graph from ``(u, v)`` pairs.

    ``edges`` is any iterable of pairs or an (m, 2) array.  Self-loops are
    dropped and duplicate edges collapse to one.  Anything but integer pairs
    is rejected, floats, strings and booleans included, and so are indices
    outside ``[0, n)``, naming the first offending pair.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n <= 0:
        raise GraphInputError(f"node count must be a positive integer, got {n!r}")
    n = int(n)
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        pairs = np.asarray(rows)
        # numpy reads a bool beside ints as 0 or 1, so a list holding one goes
        # through the element check too: [(True, 2)] is not edge (1, 2)
        bools = isinstance(rows, list) and pairs.ndim == 2 and not {bool, np.bool_}.isdisjoint(
            map(type, itertools.chain.from_iterable(rows)))
        if bools or pairs.dtype.kind not in "iu":
            # Python ints past int64 arrive as float or object arrays: kept
            # whole, they are out of range and the check below names the pair
            pairs = np.asarray(rows, dtype=object)
            if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool)
                       for e in pairs.flat):
                raise TypeError
    except (TypeError, ValueError):
        raise GraphInputError("edges must be pairs of integer node indices") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    elif pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphInputError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        u, v = pairs[np.argmax(bad)]
        raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
    u, v = pairs[pairs[:, 0] != pairs[:, 1]].astype(np.int64, copy=False).T
    # both directions of every edge, row-major, duplicates dropped (np.unique
    # would do it 10x slower here, and its first call imports numpy.ma)
    m = u.size
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    del u, v
    keys.sort()
    first = np.ones(2 * m, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    indices = np.remainder(keys, n, out=keys).astype(np.int32)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return Graph(n, indptr, indices)


def require_dense_size(g: Graph) -> None:
    """Raise if ``g`` is too large for the dense n x n arrays built on it."""
    if g.n > MAX_DENSE_SIZE:
        raise GraphInputError(
            f"dense matrix of size {g.n} exceeds the cap of {MAX_DENSE_SIZE}"
        )


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix: ``A[i, j] = 1`` iff ``{i, j}`` is an edge.

    Symmetric with an all-zero diagonal.  Returns uint8.
    """
    require_dense_size(g)
    a = np.zeros((g.n, g.n), dtype=np.uint8)
    a[_sources(g), g.indices] = 1
    return a


def degree_vector(g: Graph) -> np.ndarray:
    """Per-node degree (int64); the sum equals twice the edge count."""
    return np.diff(g.indptr)


def gather_neighbors(g: Graph, nodes: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """The ascending neighbors of ``nodes``, flat, node after node; ``deg``
    is the degree of each node."""
    pos = np.repeat(g.indptr[nodes] - (np.cumsum(deg) - deg), deg)
    pos += np.arange(pos.size)
    return g.indices[pos]


def _row_ranks(rows: np.ndarray) -> np.ndarray:
    """The dense lexicographic rank of each row of a 2-D array: equal rows
    share a rank, and the ranks order as the rows do.  A zero-width array
    ranks every row 0."""
    ranks = np.zeros(len(rows), dtype=np.int64)
    if rows.shape[1]:
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        ranks[order[1:]] = np.cumsum((rows[1:] != rows[:-1]).any(axis=1))
    return ranks


def _degree_rows(g: Graph, deg: np.ndarray):
    """For each degree d held by at least two nodes, yield the ascending
    nodes of degree d and their neighbor rows as a (count, d) array."""
    for d in np.flatnonzero(np.bincount(deg) > 1).tolist():
        nodes = np.flatnonzero(deg == d)
        yield nodes, g.indices[g.indptr[nodes, None] + np.arange(d)]


def twin_classes(g: Graph):
    """Partition the nodes into twin classes.

    Two nodes are open twins when they have the same neighbors, N(u) = N(v),
    and closed twins when N[u] = N[v], with each node counted as its own
    neighbor; no node has both an open and a closed twin.  Returns
    ``(reps, cls, sizes)``: the ascending representatives, the smallest node
    of each class; the class of each node, an index into ``reps``; and the
    int64 size of each class.

    Twins have equal degree, so the rows of each degree are ranked on their
    own, open rows and closed rows apart (:func:`_row_ranks`); equal ranks
    are equal rows, so the classes are exact.  All isolated nodes form one
    open class.
    """
    n = g.n
    rep = np.arange(n)
    for nodes, rows in _degree_rows(g, degree_vector(g)):
        for rank in (_row_ranks(rows), _row_ranks(np.sort(np.column_stack([rows, nodes]), axis=1))):
            # each node lowers its representative to the smallest node of
            # its rank; a node without a twin of this kind keeps its own
            first = np.full(nodes.size, n)
            np.minimum.at(first, rank, nodes)
            rep[nodes] = np.minimum(rep[nodes], first[rank])
    reps = np.flatnonzero(rep == np.arange(n))
    index = np.empty(n, dtype=np.int64)
    index[reps] = np.arange(reps.size)
    cls = index[rep]
    return reps, cls, np.bincount(cls, minlength=reps.size)


def read_text(path, error: type[ValueError]) -> str:
    """A UTF-8 text file with universal newlines, a leading byte-order mark
    dropped; other bytes raise ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_text_lines(path, error: type[ValueError]) -> list[str]:
    """The lines of :func:`read_text`."""
    return read_text(path, error).split("\n")


_N_DIRECTIVE = re.compile(r"^#\s*n\s*=\s*([0-9]+)\s*$")
# A node index: an optional minus sign and ASCII digits.  ``int`` also reads
# a plus sign, underscores between digits and the digits of other scripts.
_INDEX = re.compile(r"-?[0-9]+")
# Longest digit run that _digit_lines reads: 10**9 - 1 fits int64.
_MAX_DIGITS = 9


def _digit_lines(raw: bytes):
    """Split UTF-8 text into its digit lines and the rest.

    A digit line holds two runs of at most ``_MAX_DIGITS`` ASCII digits,
    with only spaces and tabs around them; numpy reads those.  Returns
    ``(pairs, linenos, others)``: the (m, 2) int64 values of the digit lines,
    their 1-based line numbers, and ``{line number: text}`` of every line that
    is neither a digit line nor empty, plus the first digit line with a value
    past ``MAX_DENSE_SIZE``.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    ends = np.append(np.flatnonzero(data == 10), data.size)  # line k is [starts[k], ends[k])
    starts = np.concatenate([[0], ends[:-1] + 1])
    digit = (data - 48) < 10  # by uint8 wraparound
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    run_start, run_stop = bounds[::2], bounds[1::2]
    runs = np.diff(np.searchsorted(run_start, np.append(starts, data.size + 1)))
    other = ~digit & (data != 32) & (data != 9) & (data != 10)
    slow = (runs != 0) & (runs != 2)
    slow[np.searchsorted(ends, np.flatnonzero(other))] = True
    slow[np.searchsorted(ends, run_start[run_stop - run_start > _MAX_DIGITS])] = True
    del digit, bounds, run_start, run_stop, other
    rest = np.flatnonzero(slow)
    linenos = np.flatnonzero((runs == 2) & ~slow) + 1
    pairs = np.empty(0, dtype=np.int64)
    if linenos.size:  # fromstring reads whitespace alone as one 0
        body = b"\n".join(raw[a:b] for a, b in zip(np.append(0, ends[rest]).tolist(),
                                                     np.append(starts[rest], data.size).tolist()))
        pairs = np.fromstring(body, dtype=np.int64, sep=" ")
    pairs = pairs.reshape(-1, 2)
    rest = [*rest.tolist(), *(linenos[(pairs >= MAX_DENSE_SIZE).any(axis=1)][:1] - 1).tolist()]
    return pairs, linenos, {k + 1: raw[starts[k]:ends[k]].decode() for k in sorted(rest)}


def read_edge_list(path) -> Graph:
    """Parse an edge-list file into a graph.

    Format: UTF-8 text, one ``u v`` pair of non-negative integers in ASCII
    digits per line, whitespace-separated.  Lines starting with ``#`` are
    comments; a single optional directive line ``# n=<N>`` fixes the node
    count, otherwise the node count is one plus the largest index seen.
    Node counts past ``MAX_DENSE_SIZE`` are refused while parsing, before any
    per-node storage exists.  Errors name the file, and the line where one is
    at fault.

    Plain digit lines are read with numpy into int arrays (see
    :func:`_digit_lines`).  Every other line, and the first digit line past
    the cap, goes through the rules above one by one, in file order, so the
    first fault in the file is the one named.
    """
    pairs, pair_lines, others = _digit_lines(read_text(path, GraphInputError).encode())
    n_directive: int | None = None
    edges: list[tuple[int, int]] = []
    linenos: list[int] = []
    for lineno, raw in others.items():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _N_DIRECTIVE.match(line)
            if m:
                if n_directive is not None:
                    raise GraphInputError(
                        f"{path}:{lineno}: duplicate node-count directive"
                    )
                n_directive = int(m.group(1))
                if not 0 < n_directive <= MAX_DENSE_SIZE:
                    raise GraphInputError(
                        f"{path}:{lineno}: node count {n_directive} is outside "
                        f"1..{MAX_DENSE_SIZE}, the dense size cap"
                    )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphInputError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            if not all(map(_INDEX.fullmatch, parts)):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError(
                f"{path}:{lineno}: non-integer node index in {line!r}"
            ) from None
        if not (0 <= u < MAX_DENSE_SIZE and 0 <= v < MAX_DENSE_SIZE):
            raise GraphInputError(
                f"{path}:{lineno}: node index outside 0..{MAX_DENSE_SIZE - 1}, "
                f"the dense size cap, in {line!r}"
            )
        edges.append((u, v))
        linenos.append(lineno)

    pairs = np.concatenate([pairs, np.array(edges, dtype=np.int64).reshape(-1, 2)])
    top = int(pairs.max(initial=-1))
    n = n_directive if n_directive is not None else top + 1
    if n <= 0:
        raise GraphInputError(f"{path}: no edges and no node-count directive")
    if top >= n:
        lines = np.concatenate([pair_lines, np.array(linenos, dtype=np.int64)])
        bad = lines[pairs.max(axis=1) >= n].min()
        raise GraphInputError(f"{path}:{bad}: node index exceeds declared n={n}")
    return from_edge_list(n, pairs)


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list format read by :func:`read_edge_list`.

    Always emits the ``# n=`` directive so isolated top-index nodes survive a
    round trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
