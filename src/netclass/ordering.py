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

from .graph import Graph, _degree_rows, _row_ranks, degree_vector, require_dense_size
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
    return _ranking(g, betweenness(g))


def _ranking(g: Graph, bet: np.ndarray) -> np.ndarray:
    """:func:`node_ranking`, given the graph's betweenness ``bet``."""
    deg = degree_vector(g)
    qbet = np.round(bet, BETWEENNESS_DECIMALS)
    # a dense code per node that orders like its (-degree, -qbet) pair
    code = _row_ranks(np.column_stack([-deg, -qbet]))
    # Tie-keys are compared only between nodes of equal degree, whose keys
    # have equal length, so per degree the ascending rows of neighbor codes,
    # ranked row by row, order as the tuples of pairs would.  A node alone at
    # its degree is never compared and keeps tie rank 0.
    tie_rank = np.zeros(g.n, dtype=np.int64)
    for nodes, rows in _degree_rows(g, deg):
        tie_rank[nodes] = _row_ranks(np.sort(code[rows], axis=1))
    return np.lexsort((np.arange(g.n), tie_rank, -qbet, -deg))


def sorted_adjacency(g: Graph) -> np.ndarray:
    """Adjacency matrix with rows and columns permuted by the node ranking.

    Simultaneous row/column permutation preserves symmetry and the zero
    diagonal; row sums come out non-increasing (they are the sorted degree
    sequence).  Each edge is set straight at its ranked cell,
    ``a[rank[u], rank[v]] = 1``, so no unsorted matrix is built.
    """
    return _image(g, node_ranking(g))


def _image(g: Graph, perm: np.ndarray) -> np.ndarray:
    """:func:`sorted_adjacency`, given the node ranking ``perm``."""
    require_dense_size(g)
    rank = np.empty(g.n, dtype=np.int64)
    rank[perm] = np.arange(g.n)
    a = np.zeros((g.n, g.n), dtype=np.uint8)
    a[np.repeat(rank, degree_vector(g)), rank[g.indices]] = 1
    return a
