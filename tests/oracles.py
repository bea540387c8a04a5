"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the package's
vectorized code paths: plain-Python BFS, explicit shortest-path enumeration
via path-count products, per-pixel descriptor loops, pairwise AUC counting,
one-draw-at-a-time graph growth.
"""

from __future__ import annotations

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


def sigma_matrix(g):
    """Integer shortest-path counts from every source (rows are sources)."""
    n = g.n
    adj = adjacency_lists(g)
    out = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        _, sg = bfs_sigma(adj, s)
        out[s] = sg
    return out


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
    once, with the package's code tables: what ``clbp_features`` returned
    before it counted in bands of rows, so the two must agree bit for bit."""
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


def read_edge_list_by_line(path):
    """The edge-list parser that reads every line with ``str.split`` and
    ``int``, keeping each edge as a tuple beside its line number."""
    import re

    from netclass.graph import (MAX_DENSE_SIZE, GraphInputError, from_edge_list,
                                read_text_lines)

    directive = re.compile(r"^#\s*n\s*=\s*(\d+)\s*$")
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
        try:
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
