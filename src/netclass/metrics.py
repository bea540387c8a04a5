"""Classical structural metrics and their histogram feature encoding.

The shortest-path metrics (distances, diameter, closeness, eccentricity,
betweenness) all share one level-synchronous BFS kernel.  It runs a block of
sources at once and moves on to the next block when that one is done, so its
working arrays span the block's (source, node) pairs, not all n * n of them;
betweenness adds up the blocks' dependency sums, and the per-source distance
metrics read each block's rows as it comes.  These run from one source per
twin class (nodes that share their open or their closed neighborhood; Puzis
et al. 2012): no shortest path from a node passes through its twin, so the
two are at the same distance from every other node and have the same
dependencies, and the representative's dependencies count once per member
of its class.  Each BFS level, in the forward pass and in the betweenness
backward pass, pushes or pulls, whichever has less edge work.  Push scatters
the level's (source, node) pairs onto their neighbors over the graph's
neighbor arrays; pull has each pair that can still receive gather from its
neighbors, which is cheaper once few pairs are left to reach
(direction-optimizing BFS, Beamer et al., SC 2012).  A level on which both
are wide gathers every pair of the block at once, band by band of the
neighbor arrays: the sparse adjacency times the block's dense rows (Kepner &
Gilbert, "Graph Algorithms in the Language of Linear Algebra", 2011), summed
as the pull sums, so the kernel never builds an n * n array.  No level calls
BLAS and every level sums in a fixed order, so the results are a function of
the graph alone: they depend neither on ``NETCLASS_THREADS`` nor on the BLAS
thread count (``OPENBLAS_NUM_THREADS``).  Betweenness reuses the forward
pass.

Per-node metric vectors are turned into fixed-length feature vectors by
histogramming over a fixed per-metric range with 500 equal-width bins, so
vectors from graphs of different sizes stay comparable.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graph import Graph, degree_vector, gather_neighbors, require_dense_size, twin_classes


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

# Each BFS level pushes or pulls.  Push scatters the level's pairs onto their
# nodes' neighbors; its edge work is the summed degree of those nodes.  Pull
# has each pair that can receive gather from its node's neighbors; its edge
# work is the summed degree of the receiving pairs' nodes.  The cheaper of the
# two runs, except on a level where even that reaches 1 / _SPARSE_RATIO of the
# b * 2m pair-edges of a block of b sources: that level gathers every pair of
# the block at once over the CSR arrays (:func:`_gather`), with no index
# arithmetic per pair.  A forward level gathers whenever it is that wide; a
# backward level only in place of a pull, whose sums the gather repeats bit
# for bit, so a backward push keeps its own order.  CPU time of betweenness
# on the benchmark's 20 scale-free graphs (BA/DM n=1000) and of structural
# features on its 24 deep ones (WS/GEO n=500), seeds 2501-2502: median and
# range of seven rounds in one process, the settings interleaved, one
# OpenBLAS thread on a 2-vCPU host.  "product" is the banded BLAS product
# that wide forward levels ran before, at 1 / 500 of its b * n * n
# multiply-adds:
#
#     ratio     scale-free                deep
#     product   1.91 s (1.81-2.20)        1.25 s (1.17-1.58)
#     2         1.77 s (1.72-2.40)        1.36 s (1.18-1.50)
#     3         1.65 s (1.60-2.13)        1.24 s (1.20-1.42)
#     4         1.69 s (1.64-2.32)        1.23 s (1.17-1.28)
#     6         1.81 s (1.68-2.24)        1.27 s (1.25-1.40)
_SPARSE_RATIO = 3

# The kernel runs blocks of b = max(1, _BLOCK_PAIRS // n) sources, so its
# per-block arrays hold about _BLOCK_PAIRS (source, node) pairs, 0.5 MB per
# float64 array whatever n is.  Median of three alternating runs over two
# seeds' benchmark graphs (betweenness of the 20 BA/DM n=1000 graphs,
# structural features of the 24 WS/GEO n=500 ones, each set in a fresh
# process), one OpenBLAS thread on a 2-vCPU host, with the banded product
# that wide forward levels then ran: time, the largest tracemalloc peak of one
# graph, and the set's minor page faults.
#
#     block     scale-free                 deep
#     1 << 15   2.17 s   4.3 MB   11.0k    1.31 s   1.9 MB   50.9k
#     1 << 16   1.93 s   6.6 MB   36.6k    1.30 s   3.9 MB   28.8k
#     1 << 17   2.06 s  11.1 MB   79.6k    1.22 s   7.2 MB   24.5k
#     1 << 18   2.06 s  18.4 MB  136.0k    1.34 s  11.5 MB   39.8k
#
# The runs of one setting spread by up to 22%, so the times only rule out
# 1 << 15 on the scale-free graphs (12% slower than 1 << 16); 1 << 16 holds
# half the memory of 1 << 17 in about the same time.
_BLOCK_PAIRS = 1 << 16


def _direction(push_work, pull_work):
    """Whether one BFS level pushes or pulls, given the edge work of each."""
    return "push" if push_work <= pull_work else "pull"


def _wide(push_work, pull_work, gather_work):
    """Whether a BFS level is wide enough to gather, given its push and pull
    edge work and the gather's pair-edges; never on a graph without edges."""
    return gather_work > 0 and min(push_work, pull_work) >= gather_work / _SPARSE_RATIO


def _runs(k, size):
    """Cut pairs of degrees ``k`` into consecutive runs of about size/2
    pair-edges, which keeps the temporaries of a run within one array of
    ``size`` entries."""
    step = max(size // 2, 1)
    ends = np.cumsum(k)
    total = ends[-1] if ends.size else 0
    cuts = [0, *np.searchsorted(ends, np.arange(step, total, step)), k.size]
    # a pair whose degree reaches ``step`` would leave an empty run before it
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]


def _neighbor_pairs(pairs, k, g):
    """Flat indices ``i * n + u`` of every neighbor u of each pair ``i * n + v``.

    ``k`` is the degree of each pair's node; the neighbors come pair by pair,
    in CSR order.
    """
    v = pairs % g.n
    nbrs = gather_neighbors(g, v, k)
    out = np.repeat(pairs - v, k)
    out += nbrs
    return out


def _push(pairs, weights, k, g, out):
    """Sum each pair's weight onto its node's neighbors (one BFS level, top-down).

    Adds to the flat float array ``out``, zeroed by the caller, whose entry
    ``i * n + u`` gains ``weights[j]`` for each pair ``i * n + v`` with u
    adjacent to v, added in pair order.
    """
    for lo, hi in _runs(k, out.size):
        kk = k[lo:hi]
        np.add.at(out, _neighbor_pairs(pairs[lo:hi], kk, g), np.repeat(weights[lo:hi], kk))


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


def _gather(values, deg, g, out):
    """For every pair ``i * n + u`` of a block, the sum of ``values[i * n + v]``
    over the neighbors v of u (one wide BFS level), written into ``out``.

    ``values`` and ``out`` are flat float arrays of the block's size, ``out``
    zeroed by the caller; pairs of nodes without neighbors keep their 0.  The
    nodes go in runs of about half ``out``'s size in pair-edges (:func:`_runs`),
    each summing a gathered copy of its neighbors' columns segment by segment,
    which are :func:`_pull`'s segments: every sum is the pull's, bit for bit.
    Returns ``out``.
    """
    x = values.reshape(-1, g.n)
    y = out.reshape(x.shape)
    for lo, hi in _runs(deg * len(x), out.size):
        e0 = g.indptr[lo]
        nz = lo + np.flatnonzero(deg[lo:hi])
        y[:, nz] = np.add.reduceat(
            x.take(g.indices[e0:g.indptr[hi]], axis=1), g.indptr[nz] - e0, axis=1
        )
    return out


def _source_blocks(g: Graph, with_betweenness: bool = False, sources=None, mult=None):
    """Level-synchronous BFS from consecutive blocks of sources, each followed
    by the Brandes backward pass if ``with_betweenness``.

    ``sources`` is an ascending array of source nodes, all n nodes by
    default.  Yields ``(lo, dist, sigma, dep)`` per block of b sources
    ``sources[lo:lo+b]`` (b from :data:`_BLOCK_PAIRS`): ``dist[i, v]`` is the
    hop distance from source ``sources[lo + i]`` to v (-1 if unreachable),
    ``sigma[i, v]`` the number of shortest such paths, and ``dep`` the column
    sums of the block's dependencies (None unless ``with_betweenness``), each
    source's row first multiplied in place by its entry of ``mult`` when one
    is given.  Half the sum of ``dep`` over all blocks is the betweenness
    over unordered pairs, since each pair is reached from both endpoints.
    :func:`_per_source` runs one source per twin class (see
    :func:`~netclass.graph.twin_classes`) with the class sizes as ``mult``:
    no shortest path from a node passes through its twin, so twins have the
    same dependencies, and the class's rows are its representative's times
    the class size.

    Both passes move one level at a time over the block's (source, node)
    pairs at that distance, held as flat indices ``i * n + v`` with ``i``
    local to the block, and each level pushes or pulls by its edge work
    (:func:`_direction`), or gathers when it is wide (:func:`_wide`, see
    ``_SPARSE_RATIO``).  The forward pass keeps each level's pairs for the
    backward pass.  No n x n array is built, but ``g`` is still held to the
    dense size cap, which bounds the run time: each wide level costs
    b * 2m pair-edges.
    """
    require_dense_size(g)
    n = g.n
    deg = degree_vector(g)
    if sources is None:
        sources = np.arange(n)
    total = int(deg.sum())
    block = max(1, _BLOCK_PAIRS // n)
    # ``out`` is the one buffer every push adds into and every forward gather
    # writes into, and it holds the weights a backward pull or gather reads.
    # It stays alive across levels and blocks, since blocks only shrink: a
    # fresh array per level went back to the system when freed and was
    # faulted in again by the next level.  The sweep of _BLOCK_PAIRS, with
    # each push summing its runs into fresh arrays (``np.bincount``) and
    # adding them up, against pushing into ``out`` (wide forward levels then
    # ran a BLAS product, over bands of the adjacency of the given size):
    #
    #     block, band          scale-free                 deep
    #     1 << 17, 1 << 19     2.10 s  14.3 MB  104.2k    1.52 s   8.2 MB  165.5k
    #       pushed into out    2.08 s  13.1 MB   59.1k    1.33 s   7.2 MB   24.5k
    #     1 << 16, 1 << 18     2.09 s   7.1 MB   49.3k    1.47 s   4.6 MB  155.3k
    #       pushed into out    1.93 s   6.6 MB   36.6k    1.30 s   3.9 MB   28.8k
    out = None

    def zeroed():
        # The block's part of ``out``, zeroed.
        nonlocal out
        if out is None:
            out = np.empty(size)
        buf = out[:size]
        buf.fill(0.0)
        return buf

    for lo in range(0, sources.size, block):
        src = sources[lo:lo + block]
        b = src.size
        size = b * n
        gather_work = b * total
        dist = np.full(size, -1, dtype=np.int32)
        sigma = np.zeros(size)
        frontier = np.arange(b) * n + src  # each source at distance 0
        dist[frontier] = 0
        sigma[frontier] = 1.0
        levels = [frontier]
        # k is the degree of each frontier pair's node, and work[d] the push
        # work of level d; the pull work of the next forward level is the
        # summed degree of the pairs not reached yet
        k = deg[src]
        work = [int(k.sum())]
        unreached = b * total - work[0]
        depth = 0
        while True:
            if _wide(work[depth], unreached, gather_work):
                how = "gather"
            else:
                how = _direction(work[depth], unreached)
            if how == "pull":
                # An unreached pair's neighbors lie at this depth or deeper,
                # and deeper pairs still have sigma 0, so sigma is gathered
                # unmasked.
                frontier = np.flatnonzero(dist < 0)
                k = deg[frontier % n]
                live = k > 0
                frontier, k = frontier[live], k[live]
                counts = _pull(frontier, sigma, k, g, size)
                hit = counts > 0
                frontier, counts, k = frontier[hit], counts[hit], k[hit]
            else:
                buf = zeroed()
                if how == "push":
                    _push(frontier, sigma[frontier], k, g, buf)
                else:
                    _gather(sigma, deg, g, buf)  # the pull's sums, for every pair
                frontier = np.flatnonzero((buf > 0) & (dist < 0))
                counts = buf[frontier]
                k = deg[frontier % n]
            if not frontier.size:
                break
            depth += 1
            dist[frontier] = depth
            sigma[frontier] = counts
            del counts
            levels.append(frontier)
            work.append(int(k.sum()))
            unreached -= work[depth]
        del counts, frontier, k
        dep = None
        if with_betweenness:
            # Dependencies are written one level at a time, deepest first: a
            # pair's entry is final once the level above it has been spread
            # back onto it.  Spreading level L onto L - 1 pushes from L, or
            # pulls or gathers into L - 1.  The sources' own dependencies
            # (level 0) are never needed.
            delta = np.zeros(size)
            for lev in range(depth, 1, -1):
                level = levels[lev]
                weights = (1.0 + delta[level]) * (1.0 / sigma[level])
                how = _direction(work[lev], work[lev - 1])
                if how == "pull" and _wide(work[lev], work[lev - 1], gather_work):
                    how = "gather"
                buf = zeroed()
                if how == "push":
                    _push(level, weights, deg[level % n], g, buf)
                else:
                    buf[level] = weights
                # Freed before the pull allocates its gather, so the two are
                # never alive together: deleting it after the pull raised the
                # deep benchmark graphs' features stage by 0.84 MB peak RSS.
                del weights
                level = levels[lev - 1]
                if how == "pull":
                    contrib = _pull(level, buf, deg[level % n], g, size)
                elif how == "gather":
                    contrib = _gather(buf, deg, g, np.zeros(size))[level]
                else:
                    contrib = buf[level]
                delta[level] = sigma[level] * contrib
                del contrib, buf
            delta = delta.reshape(b, n)
            if mult is not None:
                delta *= mult[lo:lo + b, None]
            dep = delta.sum(axis=0)
            del delta
        del levels
        yield lo, dist.reshape(b, n), sigma.reshape(b, n), dep


def _per_source(g: Graph, with_betweenness: bool = False):
    """Per-source distance summaries and betweenness, from the kernel's
    blocks as they come, never holding an n x n array.

    Returns ``(reach, far, ecc, bet)``: how many other nodes each source
    reaches, their summed distance, the largest of those distances (0 if
    none), and the betweenness of :func:`betweenness` (None unless
    ``with_betweenness``).  The kernel runs from one representative per twin
    class, whose summaries every member of its class shares: a node and its
    twin are at the same distance from every other node and from each other.
    With betweenness, warns once when a path count exceeds 2**53, past which
    float64 no longer holds it exactly, naming the caller of the function
    that calls this one, such as the caller of :func:`betweenness`.
    """
    reps, cls, sizes = twin_classes(g)
    reach = np.empty(reps.size, dtype=np.int64)
    far = np.empty(reps.size, dtype=np.int64)
    ecc = np.empty(reps.size, dtype=np.int64)
    bet = np.zeros(g.n) if with_betweenness else None
    peak = 0.0
    for lo, dist, sigma, dep in _source_blocks(g, with_betweenness, reps, sizes):
        rows = slice(lo, lo + len(dist))
        reached = dist >= 0
        reach[rows] = reached.sum(axis=1) - 1  # excluding the source itself
        far[rows] = np.where(reached, dist, 0).sum(axis=1)
        ecc[rows] = dist.max(axis=1)
        if with_betweenness:
            bet += dep
            peak = max(peak, sigma.max())
    if peak > _EXACT_COUNT_LIMIT:
        warnings.warn(
            f"shortest-path counts reach {peak:.3g} on a graph with "
            f"n={g.n}, past 2**53; betweenness is no longer exact",
            UserWarning,
            stacklevel=3,
        )
    if with_betweenness:
        # Twins have equal betweenness, but a pull sums a node's neighbors in
        # its own CSR order, which can round two closed twins' sums apart;
        # each node takes its representative's value instead.
        bet = bet[reps][cls] / 2.0
    return reach[cls], far[cls], ecc[cls], bet


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
    paths).  Dependency sums are accumulated in a fixed order, never by the
    BLAS library, so below that warning the output is a function of the graph
    alone, whatever the BLAS thread count.  Disconnected graphs are fine:
    pairs in different components simply contribute nothing.

    The backward pass runs from one source per twin class and multiplies its
    dependencies by the class size (see :func:`_source_blocks`), and each
    node takes the value of its class's representative, so twins are
    bit-equal.  With twins that sums in another order than one source per
    node: on the 400 desk graphs (seed 7) 39,295 of 250,000 values differ from
    that sum, by at most 9.6e-15 relative, and no node ranking changes.
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
    run = _kernel_pass([which])
    return _structural(g, which, None if run is None else _per_source(g, run))


def _kernel_pass(selections):
    """The one :func:`_per_source` pass that serves every metric selection
    in ``selections``: None when none of them reads d, cl, ecc or bet, else
    its ``with_betweenness``, true when one of them reads bet."""
    ids = set().union(*map(metric_selection, selections))
    return "bet" in ids if ids & {"d", "cl", "ecc", "bet"} else None


def _structural(g: Graph, which, paths) -> np.ndarray:
    """:func:`structural_features`, given :func:`_per_source`'s ``(reach,
    far, ecc, bet)`` from a pass that serves ``which`` (see
    :func:`_kernel_pass`), or None when ``which`` reads none of them."""
    sel = metric_selection(which)
    # each selected metric's part, built only when selected
    parts = {
        "pp": lambda: metric_histogram(avg_neighbor_degree(g), "pp"),
        "d": lambda: np.array([int(paths[2].max()) / _DIAMETER_SCALE]),
        "cl": lambda: metric_histogram(_closeness(*paths[:2]), "cl"),
        "ecc": lambda: metric_histogram(paths[2], "ecc"),
        # over the (n-1)(n-2)/2 interior pairs, at least 1 when n > 2; on
        # smaller graphs bet is 0
        "bet": lambda: metric_histogram(paths[3] / max((g.n - 1) * (g.n - 2) / 2.0, 1.0), "bet"),
        "k": lambda: metric_histogram(degree_vector(g), "k"),
        "cc": lambda: metric_histogram(clustering(g), "cc"),
    }
    return np.concatenate([parts[mid]() for mid in METRIC_ORDER if mid in sel])
