"""Classical structural metrics and their histogram feature encoding.

The shortest-path metrics (distances, diameter, closeness, eccentricity,
betweenness) all share one level-synchronous BFS kernel.  It runs a block of
sources at once and moves on to the next block when that one is done, so its
working arrays span the block's (source, node) pairs, not all n * n of them;
betweenness adds up the blocks' dependency sums, and the per-source distance
metrics read each block's rows as it comes.  Each BFS level, in the forward
pass and in the betweenness backward pass, moves one of three ways, picked
from its edge work.  Push scatters the level's (source, node) pairs onto their
neighbors over the graph's neighbor arrays; pull has each pair that can still
receive gather from its neighbors, which is cheaper once few pairs are left to
reach (direction-optimizing BFS, Beamer et al., SC 2012); and a level on which
both are wide runs a dense matrix product with the adjacency matrix, read in
bands of rows scattered from the neighbor arrays, so the kernel never builds
an n * n array.  Every method sums in a fixed order, so for a fixed BLAS
thread count results are a deterministic function of the graph, and
betweenness reuses the forward pass.  The dense product sums in the BLAS
library's order, which follows its thread count: between one and two OpenBLAS
threads, 1,085 of the 150,000 betweenness values of 200 desk graphs differ,
by at most 4.2e-16 relative, and none on the 1e-6 ranking grid.

Per-node metric vectors are turned into fixed-length feature vectors by
histogramming over a fixed per-metric range with 500 equal-width bins, so
vectors from graphs of different sizes stay comparable.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graph import Graph, degree_vector, require_dense_size


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
# of the two runs, unless even that reaches 1 / _SPARSE_RATIO of the b * n * n
# multiply-adds of a block of b sources: then the level runs one dense b x n by
# n x n product.  Break-even, measured with one OpenBLAS thread on a 2-vCPU
# host: one pair-edge costs about as much as 500 multiply-adds of the product.
# Kernel time over the benchmark's deep (WS/GEO n=500) and scale-free (BA/DM
# n=1000) graphs of two seeds, in four alternating runs, was flat within about
# 5% from 350 to 500; at 700 the deep graphs ran 10-15% slower, and at 1000
# the scale-free graphs ran about 10% and the deep ones about 20% slower.  The
# product still earns its place on levels where both directions are wide:
# without it the scale-free graphs ran 3-10% slower, and betweenness on ER
# n=500 k=200 ran 18x slower.
_SPARSE_RATIO = 500

# The kernel runs blocks of b = max(1, _BLOCK_PAIRS // n) sources, so its
# per-block arrays hold about _BLOCK_PAIRS (source, node) pairs, 1 MB per
# float64 array whatever n is, and a graph with a dense level adds one band
# of the adjacency (see _BAND_PAIRS).  Median of four alternating runs over one
# seed's benchmark graphs (betweenness of the 10 BA/DM n=1000 graphs, structural
# features of the 12 WS/GEO n=500 ones), one OpenBLAS thread on a 2-vCPU
# host: the scale-free graphs took 1.62 s at 1 << 17, 1.67 s at 1 << 16,
# 1.81 s at 1 << 15, 1.71 s at 1 << 18 and 1.99 s in one block of all n
# sources, where the arrays no longer fit in cache; the deep graphs were flat
# within 3% from 1 << 16 up and 13% slower at 1 << 15.  The tracemalloc peak
# of betweenness on one BA graph, which then also built the whole float
# adjacency, was 15.5 MB at 1 << 17, 23 MB at 1 << 18 and 53 MB in one block.
_BLOCK_PAIRS = 1 << 17

# The dense product reads the adjacency in bands of r = max(1, _BAND_PAIRS // n)
# rows (at most n), one reused float64 buffer of r * n entries: 4 MB whatever
# n is (524 rows at n = 1000, 52 at n = 10,000), where the whole matrix is
# 8 MB at n = 1000 and 800 MB at n = 10,000.  Besides its product, each band
# costs a scatter and a clear of its entries.  Betweenness of the 10 BA/DM
# n=1000 graphs of two benchmark seeds, two runs, one OpenBLAS thread on a
# 2-vCPU host: 1.61 s with the whole matrix, 1.65-1.67 s at 1 << 19,
# 1.66-1.72 s at 1 << 18 and 1.69-1.81 s at 1 << 17; ER n=500 k=200 and ER
# n=1000 k=100 together took 0.16 s, 0.18-0.19 s, 0.19 s and 0.20-0.21 s.
_BAND_PAIRS = 1 << 19


def _method(push_work, pull_work, product_work):
    """How one BFS level moves, given its push and pull edge work and the
    multiply-adds of the dense product."""
    if min(push_work, pull_work) >= product_work / _SPARSE_RATIO:
        return "dense"
    return "push" if push_work <= pull_work else "pull"


def _runs(k, size):
    """Cut pairs of degrees ``k`` into consecutive runs of about size/2
    pair-edges, which keeps the temporaries of a run within one array of
    ``size`` entries."""
    step = max(size // 2, 1)
    ends = np.cumsum(k)
    total = ends[-1] if ends.size else 0
    cuts = [0, *np.searchsorted(ends, np.arange(step, total, step)), k.size]
    return zip(cuts[:-1], cuts[1:])


def _neighbor_pairs(pairs, k, g):
    """Flat indices ``i * n + u`` of every neighbor u of each pair ``i * n + v``.

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


def _push(pairs, weights, k, g, size):
    """Sum each pair's weight onto its node's neighbors (one BFS level, top-down).

    Returns the flat float array of ``size`` entries whose entry ``i * n + u``
    is the sum of ``weights[j]`` over the pairs ``i * n + v`` with u adjacent
    to v, summed in pair order.
    """
    out = None
    for lo, hi in _runs(k, size):
        part = np.bincount(
            _neighbor_pairs(pairs[lo:hi], k[lo:hi], g),
            weights=np.repeat(weights[lo:hi], k[lo:hi]),
            minlength=size,
        )
        if out is None:
            out = part
        else:
            out += part
        del part
    return out


def _pull(targets, values, k, g, size):
    """For each target pair ``i * n + u``, the sum of ``values[i * n + v]``
    over the neighbors v of u (one BFS level, bottom-up).

    ``k`` is the degree of each target's node and must be positive.
    """
    out = np.empty(targets.size)
    for lo, hi in _runs(k, size):
        kk = k[lo:hi]
        out[lo:hi] = np.add.reduceat(
            values[_neighbor_pairs(targets[lo:hi], kk, g)], np.cumsum(kk) - kk
        )
    return out


def _source_blocks(g: Graph, with_betweenness: bool = False):
    """Level-synchronous BFS from consecutive blocks of sources, each followed
    by the Brandes backward pass if ``with_betweenness``.

    Yields ``(lo, dist, sigma, dep)`` per block of b sources ``lo .. lo+b-1``
    (b from :data:`_BLOCK_PAIRS`): ``dist[i, v]`` is the hop distance from
    source ``lo + i`` to v (-1 if unreachable), ``sigma[i, v]`` the number of
    shortest such paths, and ``dep`` the column sums of the block's
    dependencies (None unless ``with_betweenness``).  Half the sum of ``dep``
    over all blocks is the betweenness over unordered pairs, since each pair
    is reached from both endpoints.  Once every block has run with
    betweenness, warns once when a path count exceeded 2**53, past which
    float64 no longer holds it exactly.  The warning names the frame two
    calls above the loop that consumes the blocks: the caller of
    :func:`betweenness` or :func:`structural_features`, which consume them
    through :func:`_per_source`.

    Both passes move one level at a time over the block's (source, node)
    pairs at that distance, held as flat indices ``i * n + v`` with ``i``
    local to the block, and each level picks push, pull or the dense product
    by its edge work (see ``_SPARSE_RATIO``).  The forward pass keeps each
    level's pairs for the backward pass.  The product reads the adjacency in
    bands of rows (see ``_BAND_PAIRS``), so no n x n array is built.  ``g``
    is still held to the dense size cap, which bounds the run time: each
    dense level costs b * n * n multiply-adds.
    """
    require_dense_size(g)
    n = g.n
    deg = degree_vector(g)
    total = int(deg.sum())
    block = max(1, _BLOCK_PAIRS // n)
    # ``out``, the result of the last push or product, stays alive until the
    # next level replaces it, across blocks too.  Freed at once, its pages went
    # back to the system and were faulted in again by the next level: on the
    # deep benchmark graphs that doubled the page faults and cost more time
    # than pull saved.  Once spent it holds the weights a pull or product
    # reads.  Blocks only shrink, so a block's pairs fit into the buffer.
    rows = min(n, max(1, _BAND_PAIRS // n))
    band = out = None
    peak = 0.0

    def spent(pairs, weights):
        # The block's part of ``out``, overwritten with the weights on their
        # pairs and 0 elsewhere.
        nonlocal out
        if out is None:
            out = np.empty(size)
        buf = out[:size]
        buf.fill(0.0)
        buf[pairs] = weights
        return buf

    def product(pairs, weights):
        # What _push returns, from the weights times the adjacency matrix,
        # summed band by band of adjacency rows in row order.  Each band is
        # scattered from the CSR arrays into ``band`` and cleared after its
        # product, so the full n x n matrix never exists.
        nonlocal band
        x = spent(pairs, weights).reshape(b, n)
        if band is None:
            band = np.zeros(rows * n)
        acc = None
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            cells = np.repeat(np.arange(0, (r1 - r0) * n, n), deg[r0:r1])
            cells += g.indices[g.indptr[r0]:g.indptr[r1]]
            band[cells] = 1.0
            part = x[:, r0:r1] @ band[:(r1 - r0) * n].reshape(r1 - r0, n)
            band[cells] = 0.0
            if acc is None:
                acc = part
            else:
                acc += part
            del part
        return acc.ravel()

    for lo in range(0, n, block):
        b = min(block, n - lo)
        size = b * n
        product_work = size * n
        dist = np.full(size, -1, dtype=np.int32)
        sigma = np.zeros(size)
        frontier = np.arange(b) * (n + 1) + lo  # each source at distance 0
        dist[frontier] = 0
        sigma[frontier] = 1.0
        levels = [frontier]
        # work[d] is the push work of level d; the pull work of the next
        # forward level is the summed degree of the pairs not reached yet
        work = [int(deg[lo:lo + b].sum())]
        unreached = b * total - work[0]
        depth = 0
        while True:
            how = _method(work[depth], unreached, product_work)
            if how == "pull":
                # An unreached pair's neighbors lie at this depth or deeper,
                # and deeper pairs still have sigma 0, so sigma is gathered
                # unmasked.
                frontier = np.flatnonzero(dist < 0)
                frontier = frontier[deg[frontier % n] > 0]
                counts = _pull(frontier, sigma, deg[frontier % n], g, size)
                hit = counts > 0
                frontier, counts = frontier[hit], counts[hit]
            else:
                if how == "push":
                    out = _push(frontier, sigma[frontier], deg[frontier % n], g, size)
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
            levels.append(frontier)
            work.append(int(deg[frontier % n].sum()))
            unreached -= work[depth]
        del counts, frontier
        dep = None
        if with_betweenness:
            peak = max(peak, sigma.max())
            # Dependencies are written one level at a time, deepest first: a
            # pair's entry is final once the level above it has been spread
            # back onto it.  Spreading level L onto L - 1 pushes from L or
            # pulls into L - 1.  The sources' own dependencies (level 0) are
            # never needed.
            delta = np.zeros(size)
            for lev in range(depth, 1, -1):
                level = levels[lev]
                weights = (1.0 + delta[level]) * (1.0 / sigma[level])
                how = _method(work[lev], work[lev - 1], product_work)
                if how == "push":
                    out = buf = _push(level, weights, deg[level % n], g, size)
                elif how == "dense":
                    out = buf = product(level, weights)
                else:
                    buf = spent(level, weights)
                # Freed before the pull allocates its gather, so the two are
                # never alive together: deleting it after the pull raised the
                # deep benchmark graphs' features stage by 0.84 MB peak RSS.
                del weights
                level = levels[lev - 1]
                if how == "pull":
                    contrib = _pull(level, buf, deg[level % n], g, size)
                else:
                    contrib = buf[level]
                delta[level] = sigma[level] * contrib
                del contrib, buf
            dep = delta.reshape(b, n).sum(axis=0)
            del delta
        del levels
        yield lo, dist.reshape(b, n), sigma.reshape(b, n), dep

    if peak > _EXACT_COUNT_LIMIT:
        warnings.warn(
            f"shortest-path counts reach {peak:.3g} on a graph with "
            f"n={n}, past 2**53; betweenness is no longer exact",
            UserWarning,
            stacklevel=4,
        )


def _per_source(g: Graph, with_betweenness: bool = False):
    """Per-source distance summaries and betweenness, from the kernel's
    blocks as they come, never holding an n x n array.

    Returns ``(reach, far, ecc, bet)``: how many other nodes each source
    reaches, their summed distance, the largest of those distances (0 if
    none), and the betweenness of :func:`betweenness` (None unless
    ``with_betweenness``).
    """
    n = g.n
    reach = np.empty(n, dtype=np.int64)
    far = np.empty(n, dtype=np.int64)
    ecc = np.empty(n, dtype=np.int64)
    bet = np.zeros(n) if with_betweenness else None
    for lo, dist, _, dep in _source_blocks(g, with_betweenness):
        rows = slice(lo, lo + len(dist))
        reached = dist >= 0
        reach[rows] = reached.sum(axis=1) - 1  # excluding the source itself
        far[rows] = np.where(reached, dist, 0).sum(axis=1)
        ecc[rows] = dist.max(axis=1)
        if with_betweenness:
            bet += dep
    return reach, far, ecc, (bet / 2.0 if with_betweenness else None)


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Hop distances between all node pairs; unreachable pairs are +inf."""
    require_dense_size(g)  # the result is n x n
    out = np.empty((g.n, g.n))
    for lo, dist, _, _ in _source_blocks(g):
        rows = out[lo:lo + len(dist)]
        rows[...] = dist
        rows[dist < 0] = np.inf
    return out


def _connected_ecc(g: Graph, what: str) -> np.ndarray:
    reach, _, ecc, _ = _per_source(g)
    if (reach < g.n - 1).any():
        raise DisconnectedGraphError(f"{what} is undefined on a disconnected graph")
    return ecc


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all pairs; requires connectivity."""
    return int(_connected_ecc(g, "diameter").max())


def eccentricity(g: Graph) -> np.ndarray:
    """Per-node maximum distance to any other node; requires connectivity."""
    return _connected_ecc(g, "eccentricity")


def closeness(g: Graph) -> np.ndarray:
    """Scaled inverse farness, ``(reachable - 1) / sum of distances``.

    On a connected graph this is ``(n - 1) / sum_j d(i, j)`` and lies in
    (0, 1].  On a disconnected graph the sum runs over the reachable nodes
    only, scaled by their count minus one; isolated nodes score 0.
    """
    reach, far, _, _ = _per_source(g)
    return _closeness(reach, far)


def _closeness(reach: np.ndarray, far: np.ndarray) -> np.ndarray:
    return np.where(far > 0, reach / np.maximum(far, 1), 0.0)


def betweenness(g: Graph) -> np.ndarray:
    """Brandes-style betweenness, unnormalized, over unordered pairs.

    Shortest-path counts are integers carried in float64, exact up to 2**53;
    above that they round, and one ``UserWarning`` per graph names the graph
    size and the largest count (a 30x30 grid already reaches about 3e16
    paths).  Dependency sums are accumulated in a fixed order, so for a fixed
    BLAS thread count the output is a deterministic function of the graph.
    A level run as a dense product sums in the BLAS library's order, which
    follows its thread count: between one and two OpenBLAS threads, 1,085 of
    the 150,000 values of 200 desk graphs differ, by at most 4.2e-16
    relative.  Disconnected graphs are fine: pairs in different components
    simply contribute nothing.
    """
    return _per_source(g, with_betweenness=True)[3]


def clustering(g: Graph) -> np.ndarray:
    """Fraction of each node's neighbor pairs that are themselves connected.

    ``2 * T_i / (k_i * (k_i - 1))`` with ``T_i`` the edge count among the
    neighbors of ``i``; nodes of degree below 2 score 0.
    """
    n = g.n
    deg = degree_vector(g)
    # Every path i - j - u with j the middle node is the pair i * n + j
    # followed to j's neighbor u; it closes a triangle when u is a neighbor of
    # i, which the sorted flat keys i * n + u of the edges tell.  Each node i
    # sees each of its T_i triangles twice, once per direction round it.
    keys = np.repeat(np.arange(n), deg) * n + g.indices
    k = deg[g.indices]
    closed = np.zeros(n, dtype=np.int64)
    for lo, hi in _runs(k, 2 * _BLOCK_PAIRS):
        ends = _neighbor_pairs(keys[lo:hi], k[lo:hi], g)
        ends = ends[keys[np.minimum(np.searchsorted(keys, ends), keys.size - 1)] == ends]
        closed += np.bincount(ends // n, minlength=n)
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


def metric_selection(which) -> set:
    """The metric ids ``which`` selects for :func:`structural_features`.

    ``"combined"`` selects all seven; any other string is refused rather
    than read as characters; an iterable must hold at least one id, each
    from ``METRIC_ORDER``.
    """
    if which == "combined":
        return set(METRIC_ORDER)
    if isinstance(which, str):
        raise ValueError(
            f'metric selection {which!r} must be "combined" or a list of metric '
            f"ids, such as ['k', 'd']"
        )
    sel = set(which)
    unknown = sel - set(METRIC_ORDER)
    if unknown or not sel:
        raise ValueError(
            f"unknown metric ids {sorted(unknown)}; choose one or more of {METRIC_ORDER}"
        )
    return sel


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
    sel = metric_selection(which)
    n = g.n
    if sel & {"d", "cl", "ecc", "bet"}:
        reach, far, ecc, bet = _per_source(g, with_betweenness="bet" in sel)
    parts = []
    for mid in METRIC_ORDER:
        if mid not in sel:
            continue
        if mid == "pp":
            parts.append(metric_histogram(avg_neighbor_degree(g), "pp"))
        elif mid == "d":
            parts.append(np.array([int(ecc.max()) / _DIAMETER_SCALE]))
        elif mid == "cl":
            parts.append(metric_histogram(_closeness(reach, far), "cl"))
        elif mid == "ecc":
            parts.append(metric_histogram(ecc, "ecc"))
        elif mid == "bet":
            pairs = (n - 1) * (n - 2) / 2.0
            parts.append(metric_histogram(bet / pairs if pairs > 0 else bet, "bet"))
        elif mid == "k":
            parts.append(metric_histogram(degree_vector(g), "k"))
        elif mid == "cc":
            parts.append(metric_histogram(clustering(g), "cc"))
    return np.concatenate(parts)

