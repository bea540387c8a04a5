"""Canonical node ordering and the sorted adjacency matrix.

Nodes are ranked by descending degree, then descending betweenness, then a
canonical neighborhood tie-key; rows and columns of the adjacency matrix are
permuted simultaneously by that ranking.  The point of the tie-key is that
the resulting matrix should depend only on the graph's structure, not on how
its nodes happened to be numbered: two keys alone cannot separate automorphic
nodes, but the neighborhood profile refines most remaining collisions
without the cost of full canonical labeling.  Whatever still ties after all
three keys falls back to the original node index.  Those residual ties are
not always automorphic, so on some graphs the sorted image depends on the
labeling: a GEO graph with n=500, k=6 (seed 11) gives a different image
under each of five random relabelings.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, degree_vector, require_dense_size
from .metrics import betweenness

# Betweenness values are quantized to this many decimals before they are
# compared.  Dependency sums accumulate float rounding on the order of 1e-10
# at the graph sizes supported here, and that noise varies with node
# numbering; a 1e-6 grid absorbs it so structurally tied nodes compare equal
# under any labeling, while meaningful gaps stay separated.
BETWEENNESS_DECIMALS = 6


def node_ranking(g: Graph) -> np.ndarray:
    """Rank nodes by (degree desc, betweenness desc, neighborhood tie-key).

    Returns the int64 permutation ``perm`` with ``perm[rank]`` the original
    node index.  A node's tie-key is the ascending-sorted tuple of its
    neighbors' (-degree, -quantized betweenness) pairs.  Deterministic
    function of the graph; invariant under node relabeling whenever the
    three keys separate all nodes.
    """
    deg = degree_vector(g)
    qbet = np.round(betweenness(g), BETWEENNESS_DECIMALS)
    # a dense code per node that orders like its (-degree, -qbet) pair
    by_pair = np.lexsort((-qbet, -deg))
    dp, qp = deg[by_pair], qbet[by_pair]
    code = _dense_ranks(by_pair, (dp[1:] != dp[:-1]) | (qp[1:] != qp[:-1]))
    # Tie-keys are compared only between nodes of equal degree, whose keys
    # have equal length, so per degree the ascending rows of neighbor codes,
    # ranked row by row, order as the tuples of pairs would.
    tie_rank = np.zeros(g.n, dtype=np.int64)
    for d in (np.flatnonzero(np.bincount(deg)[1:]) + 1).tolist():
        nodes = np.flatnonzero(deg == d)
        rows = np.sort(code[g.indices[g.indptr[nodes, None] + np.arange(d)]], axis=1)
        by_row = np.lexsort(rows.T[::-1])
        rows = rows[by_row]
        tie_rank[nodes] = _dense_ranks(by_row, (rows[1:] != rows[:-1]).any(axis=1))
    return np.lexsort((np.arange(g.n), tie_rank, -qbet, -deg))


def _dense_ranks(order, changed):
    """Dense rank of each item, given the sorting permutation ``order`` and
    whether each item in sorted order differs from the one before it."""
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order[:1]] = 0
    ranks[order[1:]] = np.cumsum(changed)
    return ranks


def sorted_adjacency(g: Graph) -> np.ndarray:
    """Adjacency matrix with rows and columns permuted by the node ranking.

    Simultaneous row/column permutation preserves symmetry and the zero
    diagonal; row sums come out non-increasing (they are the sorted degree
    sequence).  Each edge is set straight at its ranked cell,
    ``a[rank[u], rank[v]] = 1``, so no unsorted matrix is built.
    """
    perm = node_ranking(g)
    require_dense_size(g)
    rank = np.empty(g.n, dtype=np.int64)
    rank[perm] = np.arange(g.n)
    a = np.zeros((g.n, g.n), dtype=np.uint8)
    a[np.repeat(rank, degree_vector(g)), rank[g.indices]] = 1
    return a
