"""Classical structural metrics and their histogram feature encoding.

The shortest-path metrics (distances, diameter, closeness, eccentricity,
betweenness) all share one level-synchronous BFS kernel that runs every
source simultaneously.  Each BFS level, in the forward pass and in the
betweenness backward pass, moves one of three ways, picked from its edge
work.  Push scatters the level's (source, node) pairs onto their neighbors
over the graph's neighbor arrays; pull has each pair that can still receive
gather from its neighbors, which is cheaper once few pairs are left to reach
(direction-optimizing BFS, Beamer et al., SC 2012); and a level on which both
are wide runs one dense n x n matrix product.  Every method sums in a fixed
order, so results are a deterministic function of the graph, and betweenness
reuses the forward pass.

Per-node metric vectors are turned into fixed-length feature vectors by
histogramming over a fixed per-metric range with 500 equal-width bins, so
vectors from graphs of different sizes stay comparable.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graph import Graph, adjacency_matrix, degree_vector, require_dense_size


class DisconnectedGraphError(ValueError):
    """A metric requiring connectivity was asked about a disconnected graph."""


class UndefinedMetricError(ValueError):
    """The metric's defining expression degenerates on this input."""


HIST_BINS = 500

# Fixed binning ranges per metric id.  Betweenness is normalized by the
# number of interior pairs (n-1)(n-2)/2 before binning, so it lives in [0, 1]
# like the two coefficient metrics; degree-like metrics get unit-width bins;
# values at or above the upper bound clamp into the last bin.
HIST_RANGES = {
    "cl": (0.0, 1.0),
    "cc": (0.0, 1.0),
    "bet": (0.0, 1.0),
    "k": (0.0, 500.0),
    "pp": (0.0, 500.0),
    "ecc": (0.0, 100.0),
}

# Canonical metric order inside combined feature vectors.
METRIC_ORDER = ("pp", "d", "cl", "ecc", "bet", "k", "cc")

# Diameter enters feature vectors as a single raw value divided by this.
_DIAMETER_SCALE = 100.0

# Largest integer float64 holds exactly; shortest-path counts above it round.
_EXACT_COUNT_LIMIT = 2.0**53

# Each BFS level moves one of three ways.  Push scatters the level's pairs onto
# their nodes' neighbors; its edge work is the summed degree of those nodes.
# Pull has each pair that can receive gather from its node's neighbors; its
# edge work is the summed degree of the receiving pairs' nodes.  The cheaper
# of the two runs, unless even that reaches n**3 / _SPARSE_RATIO: then the
# level runs one dense n x n product.  Break-even, measured with one OpenBLAS
# thread on a 2-vCPU host: one pair-edge costs about as much as 500
# multiply-adds of the product.  Kernel time over the benchmark's deep (WS/GEO
# n=500) and scale-free (BA/DM n=1000) graphs of two seeds, in four
# alternating runs, was flat within about 5% from 350 to 500; at 700 the deep
# graphs ran 10-15% slower, and at 1000 the scale-free graphs ran about 10%
# and the deep ones about 20% slower.  The product still earns its place on
# levels where both directions are wide: without it the scale-free graphs ran
# 3-10% slower, and betweenness on ER n=500 k=200 ran 18x slower.
_SPARSE_RATIO = 500


def _method(push_work, pull_work, n):
    """How one BFS level moves, given its push and pull edge work."""
    if min(push_work, pull_work) >= n**3 / _SPARSE_RATIO:
        return "dense"
    return "push" if push_work <= pull_work else "pull"


def _runs(k, n):
    """Cut pairs of degrees ``k`` into consecutive runs of about n*n/2
    pair-edges, which keeps the temporaries of a run within one dense matrix."""
    step = max(n * n // 2, 1)
    ends = np.cumsum(k)
    total = ends[-1] if ends.size else 0
    cuts = [0, *np.searchsorted(ends, np.arange(step, total, step)), k.size]
    return zip(cuts[:-1], cuts[1:])


def _neighbor_pairs(pairs, k, g):
    """Flat indices ``s * n + u`` of every neighbor u of each pair ``s * n + v``.

    ``k`` is the degree of each pair's node; the neighbors come pair by pair,
    in CSR order.
    """
    n = g.n
    v = pairs % n
    pos = np.repeat(g.indptr[v] - (np.cumsum(k) - k), k)
    pos += np.arange(pos.size)
    nbrs = g.indices[pos]
    del pos
    out = np.repeat(pairs - v, k)
    out += nbrs
    return out


def _push(pairs, weights, k, g):
    """Sum each pair's weight onto its node's neighbors (one BFS level, top-down).

    Returns the flat n * n float array whose entry ``s * n + u`` is the sum of
    ``weights[i]`` over the pairs ``s * n + v`` with u adjacent to v, summed
    in pair order.
    """
    out = None
    for lo, hi in _runs(k, g.n):
        part = np.bincount(
            _neighbor_pairs(pairs[lo:hi], k[lo:hi], g),
            weights=np.repeat(weights[lo:hi], k[lo:hi]),
            minlength=g.n * g.n,
        )
        if out is None:
            out = part
        else:
            out += part
        del part
    return out


def _pull(targets, values, k, g):
    """For each target pair ``s * n + u``, the sum of ``values[s * n + v]``
    over the neighbors v of u (one BFS level, bottom-up).

    ``k`` is the degree of each target's node and must be positive.
    """
    out = np.empty(targets.size)
    for lo, hi in _runs(k, g.n):
        kk = k[lo:hi]
        out[lo:hi] = np.add.reduceat(
            values[_neighbor_pairs(targets[lo:hi], kk, g)], np.cumsum(kk) - kk
        )
    return out


def _shortest_paths(g: Graph, with_betweenness: bool = False):
    """Level-synchronous BFS from every source at once, then optionally the
    Brandes backward pass.

    Returns ``(dist, sigma, bet)``: ``dist[s, v]`` is the hop distance (-1 if
    unreachable), ``sigma[s, v]`` the number of shortest s-v paths, and
    ``bet`` the unnormalized betweenness over unordered node pairs, endpoints
    excluded (None unless ``with_betweenness``).  ``bet`` is the column sums
    of the per-source dependencies, halved because each pair is reached from
    both endpoints.  Warns when a path count exceeds 2**53, past which
    float64 no longer holds it exactly.

    Both passes move one level at a time over the (source, node) pairs at
    that distance, held as flat indices ``s * n + v``, and each level picks
    push, pull or the dense product by its edge work (see ``_SPARSE_RATIO``).
    The flat n * n arrays are dense whichever method runs, so ``g`` is held
    to the same size cap as :func:`adjacency_matrix`.
    """
    require_dense_size(g)
    n = g.n
    deg = degree_vector(g)
    # ``out``, the n x n result of the last push or product, stays alive until
    # the next level replaces it.  Freed at once, its pages went back to the
    # system and were faulted in again by the next level: on the deep
    # benchmark graphs that doubled the page faults and cost more time than
    # pull saved.  Once spent it holds the weights a pull or product reads.
    dense = out = None

    def spent(pairs, weights):
        # ``out`` overwritten with the weights on their pairs, 0 elsewhere.
        nonlocal out
        if out is None:
            out = np.zeros(n * n)
        else:
            out.fill(0.0)
        out[pairs] = weights
        return out

    def product(pairs, weights):
        # What _push returns, from one dense product.
        nonlocal dense
        if dense is None:
            dense = adjacency_matrix(g).astype(np.float64)
        return (spent(pairs, weights).reshape(n, n) @ dense).ravel()

    dist = np.full(n * n, -1, dtype=np.int32)
    sigma = np.zeros(n * n)
    frontier = np.arange(n) * (n + 1)  # each source at distance 0
    dist[frontier] = 0
    sigma[frontier] = 1.0
    # work[d] is the push work of level d; the pull work of the next forward
    # level is the summed degree of the pairs not reached yet
    work = [int(deg.sum())]
    unreached = (n - 1) * work[0]
    depth = 0
    while True:
        how = _method(work[depth], unreached, n)
        if how == "pull":
            # An unreached pair's neighbors lie at this depth or deeper, and
            # deeper pairs still have sigma 0, so sigma is gathered unmasked.
            frontier = np.flatnonzero(dist < 0)
            frontier = frontier[deg[frontier % n] > 0]
            counts = _pull(frontier, sigma, deg[frontier % n], g)
            hit = counts > 0
            frontier, counts = frontier[hit], counts[hit]
        else:
            if how == "push":
                out = _push(frontier, sigma[frontier], deg[frontier % n], g)
            else:
                out = product(frontier, sigma[frontier])
            frontier = np.flatnonzero((out > 0) & (dist < 0))
            counts = out[frontier]
        if not frontier.size:
            break
        depth += 1
        dist[frontier] = depth
        sigma[frontier] = counts
        del counts
        work.append(int(deg[frontier % n].sum()))
        unreached -= work[depth]
    del counts, frontier
    out = None
    if not with_betweenness:
        return dist.reshape(n, n), sigma.reshape(n, n), None

    peak = sigma.max(initial=0.0)
    if peak > _EXACT_COUNT_LIMIT:
        warnings.warn(
            f"shortest-path counts reach {peak:.3g} on a graph with "
            f"n={n}, past 2**53; betweenness is no longer exact",
            UserWarning,
            stacklevel=3,
        )
    # Dependencies are written one level at a time, deepest first: a pair's
    # entry is final once the level above it has been spread back onto it.
    # Spreading level L onto L - 1 pushes from L or pulls into L - 1.  The
    # sources' own dependencies (level 0) are never needed.
    delta = np.zeros(n * n)
    level = np.flatnonzero(dist == depth)
    for lev in range(depth, 1, -1):
        weights = (1.0 + delta[level]) * (1.0 / sigma[level])
        how = _method(work[lev], work[lev - 1], n)
        if how == "push":
            out = _push(level, weights, deg[level % n], g)
        elif how == "dense":
            out = product(level, weights)
        else:
            spent(level, weights)
        del weights, level
        level = np.flatnonzero(dist == lev - 1)
        if how == "pull":
            contrib = _pull(level, out, deg[level % n], g)
        else:
            contrib = out[level]
        delta[level] = sigma[level] * contrib
        del contrib
    bet = delta.reshape(n, n).sum(axis=0) / 2.0
    return dist.reshape(n, n), sigma.reshape(n, n), bet


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Hop distances between all node pairs; unreachable pairs are +inf."""
    dist, _, _ = _shortest_paths(g)
    out = dist.astype(np.float64)
    out[dist < 0] = np.inf
    return out


def _require_connected(dist: np.ndarray, what: str) -> None:
    if (dist < 0).any():
        raise DisconnectedGraphError(f"{what} is undefined on a disconnected graph")


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all pairs; requires connectivity."""
    dist, _, _ = _shortest_paths(g)
    _require_connected(dist, "diameter")
    return int(dist.max())


def eccentricity(g: Graph) -> np.ndarray:
    """Per-node maximum distance to any other node; requires connectivity."""
    dist, _, _ = _shortest_paths(g)
    _require_connected(dist, "eccentricity")
    return dist.max(axis=1).astype(np.int64)


def closeness(g: Graph) -> np.ndarray:
    """Scaled inverse farness, ``(reachable - 1) / sum of distances``.

    On a connected graph this is ``(n - 1) / sum_j d(i, j)`` and lies in
    (0, 1].  On a disconnected graph the sum runs over the reachable nodes
    only, scaled by their count minus one; isolated nodes score 0.
    """
    dist, _, _ = _shortest_paths(g)
    return _closeness_from(dist)


def _closeness_from(dist: np.ndarray) -> np.ndarray:
    reach = dist >= 0
    counts = reach.sum(axis=1) - 1  # excluding the node itself
    sums = np.where(reach, dist, 0).sum(axis=1)
    return np.where(sums > 0, counts / np.maximum(sums, 1), 0.0)


def _ecc_finite(dist: np.ndarray) -> np.ndarray:
    # Within-component eccentricity: max finite distance per row.
    return np.where(dist >= 0, dist, -1).max(axis=1).astype(np.int64)


def betweenness(g: Graph) -> np.ndarray:
    """Brandes-style betweenness, unnormalized, over unordered pairs.

    Shortest-path counts are integers carried in float64, exact up to 2**53;
    above that they round, and a ``UserWarning`` names the graph size and the
    largest count (a 30x30 grid already reaches about 3e16 paths).
    Dependency sums are accumulated in a fixed order, so the output is a
    deterministic function of the graph.  Disconnected graphs are fine:
    pairs in different components simply contribute nothing.
    """
    return _shortest_paths(g, with_betweenness=True)[2]


def clustering(g: Graph) -> np.ndarray:
    """Fraction of each node's neighbor pairs that are themselves connected.

    ``2 * T_i / (k_i * (k_i - 1))`` with ``T_i`` the edge count among the
    neighbors of ``i``; nodes of degree below 2 score 0.
    """
    a = adjacency_matrix(g).astype(np.float64)
    deg = a.sum(axis=1)
    closed = ((a @ a) * a).sum(axis=1)  # = 2 * T_i
    denom = deg * (deg - 1.0)
    return np.where(denom > 0, closed / np.maximum(denom, 1.0), 0.0)


def avg_neighbor_degree(g: Graph) -> np.ndarray:
    """Mean degree over each node's neighbors; 0 for isolated nodes.

    The sums are of integers, so each mean is an exact quotient.
    """
    deg = degree_vector(g)
    run = np.concatenate([[0], np.cumsum(deg[g.indices])])  # per CSR entry
    tot = run[g.indptr[1:]] - run[g.indptr[:-1]]
    return np.where(deg > 0, tot / np.maximum(deg, 1), 0.0)


def assortativity_scalar(g: Graph) -> float:
    """Pearson correlation of degrees over edge endpoint pairs, in [-1, 1].

    Undefined (raises) when every edge endpoint has the same degree, e.g. on
    regular graphs.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("assortativity is undefined without edges")
    deg = degree_vector(g)
    # one (x, y) pair per CSR entry: each edge once in each direction
    x = np.repeat(deg, deg).astype(np.float64)
    y = deg[g.indices].astype(np.float64)
    x_c = x - x.mean()
    var = (x_c * x_c).mean()
    if var == 0.0:
        raise UndefinedMetricError(
            "assortativity is undefined when endpoint degrees have zero variance"
        )
    return float((x_c * (y - y.mean())).mean() / var)


def metric_histogram(values, metric_id: str) -> np.ndarray:
    """500-bin normalized histogram of a metric vector over its fixed range.

    Bin mass is counts divided by the number of values, so the bins sum to 1;
    values at or above the range's upper bound clamp into the last bin.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("cannot histogram an empty metric vector")
    if metric_id not in HIST_RANGES:
        raise ValueError(f"no histogram range defined for metric {metric_id!r}")
    lo, hi = HIST_RANGES[metric_id]
    width = (hi - lo) / HIST_BINS
    idx = np.floor((vals - lo) / width).astype(np.int64)
    np.clip(idx, 0, HIST_BINS - 1, out=idx)
    return np.bincount(idx, minlength=HIST_BINS) / vals.size


def structural_features(g: Graph, which="combined") -> np.ndarray:
    """Concatenated histogram features for a selection of metrics.

    ``which`` is ``"combined"`` (all seven) or an iterable of metric ids,
    such as ``["k", "d"]``; any other string is refused rather than read as
    characters.  The output always follows the canonical order
    ``pp, d, cl, ecc, bet, k, cc``.
    Each per-node metric contributes its 500-bin histogram; diameter
    contributes one raw value divided by 100, so the combined vector has
    length 3001.

    The distance-based entries use within-component conventions (largest
    finite distance, per-component closeness) so feature extraction stays
    total on disconnected graphs such as sparse ER draws; the strict
    standalone :func:`diameter` / :func:`eccentricity` contracts are
    unchanged.
    """
    if which == "combined":
        sel = set(METRIC_ORDER)
    elif isinstance(which, str):
        raise ValueError(
            f'metric selection {which!r} must be "combined" or a list of metric '
            f"ids, such as ['k', 'd']"
        )
    else:
        sel = set(which)
        unknown = sel - set(METRIC_ORDER)
        if unknown:
            raise ValueError(f"unknown metric ids: {sorted(unknown)}")
        if not sel:
            raise ValueError("empty metric selection")
    n = g.n
    dist = bet = None
    if sel & {"d", "cl", "ecc", "bet"}:
        dist, _, bet = _shortest_paths(g, with_betweenness="bet" in sel)
    parts = []
    for mid in METRIC_ORDER:
        if mid not in sel:
            continue
        if mid == "pp":
            parts.append(metric_histogram(avg_neighbor_degree(g), "pp"))
        elif mid == "d":
            d = max(int(_ecc_finite(dist).max()), 0) if n > 0 else 0
            parts.append(np.array([d / _DIAMETER_SCALE]))
        elif mid == "cl":
            parts.append(metric_histogram(_closeness_from(dist), "cl"))
        elif mid == "ecc":
            parts.append(metric_histogram(_ecc_finite(dist), "ecc"))
        elif mid == "bet":
            pairs = (n - 1) * (n - 2) / 2.0
            parts.append(metric_histogram(bet / pairs if pairs > 0 else bet, "bet"))
        elif mid == "k":
            parts.append(metric_histogram(degree_vector(g), "k"))
        elif mid == "cc":
            parts.append(metric_histogram(clustering(g), "cc"))
    return np.concatenate(parts)

