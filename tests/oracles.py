"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the package's
vectorized code paths: plain-Python BFS, explicit shortest-path enumeration
via path-count products, per-pixel descriptor loops, pairwise AUC counting.
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
