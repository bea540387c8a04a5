"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the package's
vectorized code paths: plain-Python BFS, explicit shortest-path enumeration
via path-count products, per-pixel descriptor loops, whole-image moment
products, pairwise AUC counting, one-draw-at-a-time graph growth and
rewiring.  The exceptions read the package's own kernels whole, for the
tests to compare: ``shortest_paths`` stacks the shortest-path kernel's
blocks, ``clbp_whole_image`` codes every pixel with the package's tables,
``node_ranking_by_tuples`` sorts on the package's betweenness, and
``stratified_folds_by_label`` deals folds from the package's seeded stream.
"""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np


def adjacency_lists(g):
    """Each node's neighbors as a plain Python list."""
    return [g.neighbors(v).tolist() for v in range(g.n)]


def bfs_distances(g):
    """Hop distances by queue BFS from every source; -1 where unreachable."""
    n = g.n
    adj = adjacency_lists(g)
    out = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        out[s, s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if out[s, w] < 0:
                    out[s, w] = out[s, v] + 1
                    q.append(w)
    return out


def bfs_sigma(adj, s):
    """Distances and shortest-path counts from one source over
    :func:`adjacency_lists`."""
    n = len(adj)
    dist = [-1] * n
    sigma = [0] * n
    dist[s] = 0
    sigma[s] = 1
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def brute_betweenness(g):
    """Pair dependencies by explicit enumeration over unordered pairs.

    For every pair (s, t) and interior node v, the fraction of shortest s-t
    paths through v is sigma_sv * sigma_vt / sigma_st when v lies on a
    shortest path.  Path counts are exact integers.
    """
    n = g.n
    adj = adjacency_lists(g)
    dists, sigmas = [], []
    for s in range(n):
        d, sg = bfs_sigma(adj, s)
        dists.append(d)
        sigmas.append(sg)
    dep = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if dists[s][t] < 0:
                continue
            for v in range(n):
                if v == s or v == t:
                    continue
                if (
                    dists[s][v] >= 0
                    and dists[v][t] >= 0
                    and dists[s][v] + dists[v][t] == dists[s][t]
                ):
                    dep[v] += sigmas[s][v] * sigmas[t][v] / sigmas[s][t]
    return dep


def twin_classes(g):
    """``netclass.graph.twin_classes`` from dicts keyed by each node's open
    and closed neighbor sets.

    Asserts that no node has both an open and a closed twin, the fact that
    makes the two kinds of class one partition.
    """
    n = g.n
    groups = {}
    for v, nbrs in enumerate(adjacency_lists(g)):
        groups.setdefault(("open", frozenset(nbrs)), []).append(v)
        groups.setdefault(("closed", frozenset(nbrs) | {v}), []).append(v)
    rep = list(range(n))
    twinned = set()
    for members in groups.values():
        if len(members) > 1:
            assert twinned.isdisjoint(members), "a node has twins of both kinds"
            twinned.update(members)
            for v in members:
                rep[v] = members[0]
    reps = sorted(set(rep))
    cls = [reps.index(r) for r in rep]
    return np.array(reps), np.array(cls), np.bincount(cls, minlength=len(reps))


def sigma_matrix(g):
    """Integer shortest-path counts from every source (rows are sources)."""
    n = g.n
    adj = adjacency_lists(g)
    out = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        _, sg = bfs_sigma(adj, s)
        out[s] = sg
    return out


def shortest_paths(g, with_betweenness=False):
    """All blocks of ``netclass.metrics._source_blocks`` stacked into
    ``(dist, sigma, bet)``.

    ``dist`` and ``sigma`` are n x n, row s for source s, and ``bet`` is the
    unnormalized betweenness over unordered node pairs, endpoints excluded
    (None unless ``with_betweenness``).  The metrics never stack the blocks;
    the tests read the whole kernel through this.
    """
    from netclass.metrics import _source_blocks

    n = g.n
    dist = np.empty((n, n), dtype=np.int32)
    sigma = np.empty((n, n))
    bet = np.zeros(n) if with_betweenness else None
    for lo, d, s, dep in _source_blocks(g, with_betweenness):
        dist[lo:lo + len(d)] = d
        sigma[lo:lo + len(s)] = s
        if with_betweenness:
            bet += dep
    return dist, sigma, (bet / 2.0 if with_betweenness else None)


def dense_clustering(g):
    """Clustering from the dense triangle count ``((A @ A) * A).sum(axis=1)``."""
    from netclass import adjacency_matrix

    a = adjacency_matrix(g).astype(np.float64)
    deg = a.sum(axis=1)
    denom = deg * (deg - 1.0)
    return np.where(denom > 0, ((a @ a) * a).sum(axis=1) / np.maximum(denom, 1.0), 0.0)


def _step(x):
    return 1 if x >= 0 else 0


def _riu2(code):
    bits = [(code >> p) & 1 for p in range(8)]
    transitions = sum(bits[p] != bits[(p + 1) % 8] for p in range(8))
    return sum(bits) if transitions <= 2 else 9


_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))


def clbp_reference(img):
    """Per-pixel scalar recomputation of the joint local-pattern histogram."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    diffs = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            for dy, dx in _OFFSETS:
                diffs.append(abs(img[y + dy, x + dx] - img[y, x]))
    mag_mean = sum(diffs) / len(diffs)
    img_mean = img.sum() / img.size
    hist = np.zeros(200)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            s_code = 0
            m_code = 0
            for p, (dy, dx) in enumerate(_OFFSETS):
                d = img[y + dy, x + dx] - img[y, x]
                s_code |= _step(d) << p
                m_code |= _step(abs(d) - mag_mean) << p
            c_bit = _step(img[y, x] - img_mean)
            hist[(_riu2(s_code) * 10 + _riu2(m_code)) * 2 + c_bit] += 1
    return hist / hist.sum()


def clbp_whole_image(aprime):
    """The joint local-pattern histogram computed over the whole image at
    once, every pixel coded, with the package's code tables: ``clbp_features``
    reads only the windows around set pixels, and the two must agree bit for
    bit."""
    from netclass.features import _OFFSETS as offsets, _RIU2 as riu2, CLBP_BINS

    img = np.asarray(aprime)
    bits = img.astype(bool)
    assert np.array_equal(bits, img)
    h, w = bits.shape
    center = bits[1:-1, 1:-1]
    s_code = np.zeros(center.shape, dtype=np.uint8)
    m_code = np.zeros(center.shape, dtype=np.uint8)
    for p, (dy, dx) in enumerate(offsets):
        neighbor = bits[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        s_code |= (neighbor | ~center).view(np.uint8) << p
        m_code |= (neighbor ^ center).view(np.uint8) << p
    if not m_code.any():
        m_code[:] = 0xFF
    c_bit = center | (not bits.any())
    joint = (riu2[s_code] * 10 + riu2[m_code]) * 2 + c_bit
    hist = np.bincount(joint.ravel(), minlength=CLBP_BINS).astype(np.float64)
    return hist / hist.sum()


def hu_dense(aprime):
    """The seven log-compressed moment invariants from the whole image read
    as float64, cropped to its set bounding box, each central moment one
    ``dy^q @ image @ dx^p`` product: ``hu_moments`` reads only the set
    pixels with exactly rounded sums, and the two must agree to rounding."""
    img = np.asarray(aprime, dtype=np.float64)
    m00 = img.sum()
    ys, xs = np.nonzero(img)
    img = img[ys.min():ys.max() + 1, xs.min():xs.max() + 1]
    h, w = img.shape
    x = np.arange(w, dtype=np.float64)
    y = np.arange(h, dtype=np.float64)
    dx = x - (img.sum(axis=0) * x).sum() / m00
    dy = y - (img.sum(axis=1) * y).sum() / m00

    def eta(p, q):
        return float((dy ** q) @ img @ (dx ** p)) / m00 ** (1.0 + (p + q) / 2.0)

    e20, e02, e11 = eta(2, 0), eta(0, 2), eta(1, 1)
    e30, e03, e21, e12 = eta(3, 0), eta(0, 3), eta(2, 1), eta(1, 2)
    a = e30 + e12
    b = e21 + e03
    c = e30 - 3 * e12
    d = 3 * e21 - e03
    phi = np.array([
        e20 + e02,
        (e20 - e02) ** 2 + 4 * e11 ** 2,
        c ** 2 + d ** 2,
        a ** 2 + b ** 2,
        c * a * (a ** 2 - 3 * b ** 2) + d * b * (3 * a ** 2 - b ** 2),
        (e20 - e02) * (a ** 2 - b ** 2) + 4 * e11 * a * b,
        d * a * (a ** 2 - 3 * b ** 2) - c * b * (3 * a ** 2 - b ** 2),
    ])
    return np.sign(phi) * np.log10(1.0 + np.abs(phi))


def knn_oracle(train_x, train_labels, query):
    """Nearest training point by explicit scan; ties keep the earlier index."""
    best, best_d = 0, None
    for i, row in enumerate(train_x):
        d = float(np.sqrt(((np.asarray(row) - np.asarray(query)) ** 2).sum()))
        if best_d is None or d < best_d:
            best, best_d = i, d
    return train_labels[best]


def auc_pairwise(scores, positive):
    """Probability a random positive outscores a random negative, ties half."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    if not pos or not neg:
        return None
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def parse_pgm(data: bytes):
    """Decode a binary P5 PGM back into a uint8 matrix."""
    assert data.startswith(b"P5\n")
    rest = data[3:]
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    maxval, rest = rest.split(b"\n", 1)
    assert int(maxval) == 255
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def random_graph(rng, n, p):
    """Uniform random test graph, independent of the package generators."""
    from netclass import from_edge_list

    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def grid_graph(side):
    """``side`` x ``side`` square lattice; node ``r * side + c`` sits at (r, c)."""
    from netclass import from_edge_list

    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return from_edge_list(side * side, edges)


def barabasi_albert(spec):
    """The BA generator drawing one uniform at a time: per arrival, the
    weights ``deg ** alpha`` of the whole prefix, then single draws through
    their cumulative table until ``c`` distinct targets are chosen."""
    from netclass.graph import from_edge_list
    from netclass.rng import make_rng

    n, c, alpha = spec.n, spec.k_bar // 2, float(spec.alpha)
    rng = make_rng(spec.seed)
    core = c + 1
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    deg = np.zeros(n)
    deg[:core] = c
    for t in range(core, n):
        cum = np.cumsum(deg[:t] ** alpha)
        total = cum[-1]
        chosen: set[int] = set()
        while len(chosen) < c:
            target = int(np.searchsorted(cum, rng.random() * total, side="right"))
            if target not in chosen:
                chosen.add(target)
        for target in chosen:
            edges.append((t, target))
            deg[target] += 1
        deg[t] = c
    return from_edge_list(n, edges)


def watts_strogatz(spec):
    """The WS generator walking every lattice uniform: lane ``j = 1..k/2``
    outer, node ``i`` inner, each uniform tested in turn and, when it fires
    on an unsaturated node, integer draws until a new target is found."""
    from netclass.graph import from_edge_list
    from netclass.rng import make_rng

    n, half = spec.n, spec.k_bar // 2
    rng = make_rng(spec.seed)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for j in range(1, half + 1):
        for i in range(n):
            nbrs[i].add((i + j) % n)
            nbrs[(i + j) % n].add(i)
    trials = rng.random(n * half)
    t = 0
    for j in range(1, half + 1):
        for i in range(n):
            fire = trials[t] < spec.beta
            t += 1
            if not fire or len(nbrs[i]) >= n - 1:
                continue
            old = (i + j) % n
            while True:
                m = int(rng.integers(0, n))
                if m != i and m not in nbrs[i]:
                    break
            nbrs[i].discard(old)
            nbrs[old].discard(i)
            nbrs[i].add(m)
            nbrs[m].add(i)
    return from_edge_list(n, [(i, j) for i, s in enumerate(nbrs) for j in s if i < j])


def dorogovtsev_mendes(spec):
    """The DM generator testing each drawn edge index for membership before
    it keeps it, until ``k_bar / 4`` distinct indices are picked."""
    from netclass.graph import from_edge_list
    from netclass.rng import make_rng

    n, m = spec.n, spec.k_bar // 4
    rng = make_rng(spec.seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    for t in range(3, n):
        picked: set[int] = set()
        while len(picked) < m:
            idx = int(rng.integers(0, len(edges)))
            if idx not in picked:
                picked.add(idx)
        linked: set[int] = set()
        for idx in sorted(picked):
            for endpoint in edges[idx]:
                if endpoint not in linked:
                    linked.add(endpoint)
                    edges.append((t, endpoint))
    return from_edge_list(n, edges)


def read_edge_list_by_line(path):
    """The edge-list parser that reads every line with ``str.split`` and
    ``int``, keeping each edge as a tuple beside its line number."""
    import re

    from netclass.graph import (MAX_DENSE_SIZE, GraphInputError, from_edge_list,
                                read_text_lines)

    directive = re.compile(r"^#\s*n\s*=\s*([0-9]+)\s*$")
    n_directive = None
    edges, linenos = [], []
    for lineno, raw in enumerate(read_text_lines(path, GraphInputError), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = directive.match(line)
            if m:
                if n_directive is not None:
                    raise GraphInputError(f"{path}:{lineno}: duplicate node-count directive")
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
        # int() also reads "+3", "1_0" and non-ASCII digits; the format does not
        digits = [p.removeprefix("-") for p in parts]
        try:
            if not all(d.isascii() and d.isdigit() for d in digits):
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
    top = max(map(max, edges), default=-1)
    n = n_directive if n_directive is not None else top + 1
    if n <= 0:
        raise GraphInputError(f"{path}: no edges and no node-count directive")
    if top >= n:
        bad = next(ln for (u, v), ln in zip(edges, linenos) if max(u, v) >= n)
        raise GraphInputError(f"{path}:{bad}: node index exceeds declared n={n}")
    return from_edge_list(n, edges)


def node_ranking_by_tuples(g):
    """``netclass.node_ranking`` from its definition: Python sorts on
    (-degree, -quantized betweenness, tie-key tuple, index), with each tie-key
    the ascending tuple of the neighbors' (-degree, -quantized betweenness)
    pairs."""
    from netclass import betweenness, degree_vector
    from netclass.ordering import BETWEENNESS_DECIMALS

    deg = degree_vector(g)
    qbet = np.round(betweenness(g), BETWEENNESS_DECIMALS)
    tie_keys = [
        tuple(sorted((-int(deg[j]), -float(qbet[j])) for j in g.neighbors(i).tolist()))
        for i in range(g.n)
    ]
    order = sorted(
        range(g.n),
        key=lambda i: (-int(deg[i]), -float(qbet[i]), tie_keys[i], i),
    )
    return np.array(order, dtype=np.int64)


def stratified_folds_by_label(labels, k=10, seed=0):
    """The package's stratified fold dealing from string labels: each
    class's members, in sorted label order, are shuffled with the seeded
    stream and dealt round-robin into ``k`` folds, reduced with a warning to
    the smallest class size.  Returns ``(fold_ids, k_used)``."""
    from netclass import DatasetError
    from netclass.rng import make_rng, mix_seed

    labels = [str(l) for l in labels]
    classes = sorted(set(labels))
    arr = np.array(labels)
    counts = {c: int((arr == c).sum()) for c in classes}
    smallest = min(counts.values())
    if smallest < 2:
        bad = next(c for c in classes if counts[c] == 1)
        raise DatasetError(f"class {bad!r} has a single member; cannot stratify")
    k_used = min(k, smallest)
    if k_used < k:
        warnings.warn(
            f"reducing folds from {k} to {k_used}: smallest class has "
            f"{smallest} members",
            stacklevel=2,
        )
    rng = make_rng(mix_seed(seed, 0xF01D))
    folds = np.empty(len(labels), dtype=np.int64)
    for c in classes:
        idx = np.flatnonzero(arr == c)
        perm = rng.permutation(idx.size)
        folds[idx[perm]] = np.arange(idx.size) % k_used
    return folds, k_used
