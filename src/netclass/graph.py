"""Undirected simple graphs, their adjacency matrices, and shared-neighbor
matrix products.

Nodes are dense 0-based indices.  Graphs are immutable after construction and
safe to share across workers; anything that needs mutation builds a new graph.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

# Dense matrices only; plenty for the network sizes this toolkit targets.
MAX_DENSE_SIZE = 10_000


class GraphInputError(ValueError):
    """Malformed graph input: bad indices, bad node counts, bad edge files."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on nodes ``0..n-1``.

    ``adj[i]`` is the ascending tuple of neighbors of node ``i``.  The
    constructors guarantee symmetry (``j in adj[i]`` iff ``i in adj[j]``) and
    simplicity (no self-loops, no duplicate neighbors).
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self):
        """Yield each edge exactly once as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if v > u:
                    yield u, v


def from_edge_list(n, edges) -> Graph:
    """Build a simple graph from ``(u, v)`` pairs.

    Self-loops are dropped and duplicate edges collapse to one; neighbor
    lists come out sorted ascending.  Indices outside ``[0, n)`` are
    rejected with the offending pair named.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n <= 0:
        raise GraphInputError(f"node count must be a positive integer, got {n!r}")
    n = int(n)
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            continue
        sets[u].add(v)
        sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in sets))


def _from_pairs(n: int, us, vs) -> Graph:
    # Internal fast path for generators: pairs are already unique, in-range,
    # loop-free.
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


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
    for u, nbrs in enumerate(g.adj):
        if nbrs:
            a[u, list(nbrs)] = 1
    return a


def degree_vector(g: Graph) -> np.ndarray:
    """Per-node degree; the sum equals twice the edge count."""
    return np.array([len(nbrs) for nbrs in g.adj], dtype=np.int64)


def neighbor_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Compressed sparse row form of the adjacency: ``(indptr, indices)``.

    The neighbors of node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending; ``indptr`` is int64 of length ``n + 1`` and ``indices`` int32.
    """
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(degree_vector(g), out=indptr[1:])
    indices = np.fromiter(
        itertools.chain.from_iterable(g.adj), dtype=np.int32, count=int(indptr[-1])
    )
    return indptr, indices


def cocitation(g: Graph) -> np.ndarray:
    """Shared-neighbor counts ``A @ A.T`` over the integers.

    Entry ``(i, j)`` counts common neighbors of ``i`` and ``j``; the diagonal
    holds node degrees.  Mostly of interest for directed networks, where it
    symmetrizes the structure; for the undirected graphs here it is symmetric
    and equals bibliographic coupling ``A.T @ A``.
    """
    a = adjacency_matrix(g).astype(np.int64)
    return a @ a.T


_N_DIRECTIVE = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")


def read_edge_list(path) -> Graph:
    """Parse an edge-list file into a graph.

    Format: UTF-8 text, one ``u v`` pair of non-negative integers per line,
    whitespace-separated.  Lines starting with ``#`` are comments; a single
    optional directive line ``# n=<N>`` fixes the node count, otherwise the
    node count is one plus the largest index seen.
    """
    n_directive: int | None = None
    edges: list[tuple[int, int, int]] = []
    max_idx = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
                    if n_directive <= 0:
                        raise GraphInputError(
                            f"{path}:{lineno}: node count must be positive"
                        )
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphInputError(
                    f"{path}:{lineno}: expected 'u v', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphInputError(
                    f"{path}:{lineno}: non-integer node index in {line!r}"
                ) from None
            if u < 0 or v < 0:
                raise GraphInputError(
                    f"{path}:{lineno}: negative node index in {line!r}"
                )
            edges.append((u, v, lineno))
            max_idx = max(max_idx, u, v)

    n = n_directive if n_directive is not None else max_idx + 1
    if n <= 0:
        raise GraphInputError(f"{path}: no edges and no node-count directive")
    if n_directive is not None and max_idx >= n_directive:
        bad = next(ln for u, v, ln in edges if u >= n_directive or v >= n_directive)
        raise GraphInputError(
            f"{path}:{bad}: node index exceeds declared n={n_directive}"
        )
    return from_edge_list(n, [(u, v) for u, v, _ in edges])


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list format read by :func:`read_edge_list`.

    Always emits the ``# n=`` directive so isolated top-index nodes survive a
    round trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
