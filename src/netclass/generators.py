"""Seeded synthetic network generators and dataset grids.

Five model families are supported:

* ``ER``: uniform random graphs, every node pair is an edge with
  probability ``k_bar / n``.
* ``WS``: ring rewiring, a regular ring lattice whose clockwise edges are
  rewired with probability ``beta``; the edge count never changes.
* ``BA``: growth with degree-biased attachment of strength ``alpha``
  (``alpha=1`` is the linear classic; larger values concentrate the hubs).
* ``GEO``: random geometric graphs, points uniform in the unit square,
  connected below a radius chosen so the expected mean degree is ``k_bar``;
  the pairs are found on a grid of cells about one radius wide.
* ``DM``: triangle growth, each new node picks ``k_bar / 4`` distinct
  existing edges and connects to both endpoints of each.

Every generator is a pure function of its :class:`GenSpec`, including the
seed, so repeated calls are byte-identical.  Each generator's docstring
states its exact draw order, so a dataset can be reproduced from these
descriptions alone: all draws come from one PCG64 stream seeded with
``spec.seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, from_edge_list, read_text_lines
from .rng import float_bits, make_rng, mix_seed

MODELS = ("ER", "WS", "BA", "GEO", "DM")
_MODEL_ID = {m: i + 1 for i, m in enumerate(MODELS)}

# Alpha values cycled through the BA replicates of the mixed synthetic grids,
# and the class split of the scalefree grids.
BA_ALPHAS = (0.5, 1.0, 1.5, 2.0)


class InvalidSpecError(ValueError):
    """A GenSpec violating a model's parameter constraints."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic network draw.

    ``k_bar`` is the target average degree (even, at least 2).  ``alpha`` is
    the attachment exponent and is only meaningful (and required) for BA;
    ``beta`` is the rewiring probability and only consulted for WS.
    """

    model: str
    n: int
    k_bar: int
    alpha: float | None = None
    beta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidSpecError(f"unknown model {self.model!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n <= 0:
            raise InvalidSpecError(f"n must be a positive integer, got {self.n!r}")
        k = self.k_bar
        if not isinstance(k, (int, np.integer)) or k < 2 or k % 2 != 0:
            raise InvalidSpecError(f"k_bar must be an even integer >= 2, got {k!r}")
        if self.model == "DM":
            if k % 4 != 0:
                raise InvalidSpecError(
                    f"DM grows by whole edge selections of k_bar/4 edges each; "
                    f"k_bar={k} is not divisible by 4"
                )
            if k > 12:
                raise InvalidSpecError(
                    f"DM needs k_bar/4 distinct seed-triangle edges to start; "
                    f"k_bar={k} exceeds the supported maximum of 12"
                )
            if self.n < 3:
                raise InvalidSpecError("DM needs at least the 3 seed nodes")
        elif k >= self.n:
            raise InvalidSpecError(f"k_bar={k} must be smaller than n={self.n}")
        if self.model == "BA":
            if self.alpha is None or not self.alpha > 0:
                raise InvalidSpecError(
                    f"BA requires an attachment exponent alpha > 0, got {self.alpha!r}"
                )
        elif self.alpha is not None:
            raise InvalidSpecError(f"alpha is only meaningful for BA, got model {self.model}")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidSpecError(f"beta must be in [0, 1], got {self.beta!r}")


def _expect(spec: GenSpec, model: str) -> None:
    if spec.model != model:
        raise InvalidSpecError(f"expected a {model} spec, got {spec.model}")


def gen_erdos_renyi(spec: GenSpec) -> Graph:
    """Uniform random graph.

    Draw order: one uniform in [0, 1) per node pair ``i < j``, pairs
    enumerated row-major (``(0,1), (0,2), ..., (n-2,n-1)``); the pair is an
    edge when its uniform is below ``k_bar / n``.
    """
    _expect(spec, "ER")
    n = spec.n
    p = spec.k_bar / n
    iu, ju = np.triu_indices(n, k=1)
    mask = make_rng(spec.seed).random(iu.shape[0]) < p
    return from_edge_list(n, np.column_stack([iu[mask], ju[mask]]))


def gen_watts_strogatz(spec: GenSpec) -> Graph:
    """Rewired ring lattice with exactly ``n * k_bar / 2`` edges.

    Start from the ring where node ``i`` connects to its ``k_bar / 2``
    nearest neighbors on each side.  Draw order: first a block of
    ``n * k_bar / 2`` uniforms, consumed lane-major (lane ``j = 1..k/2``
    outer, node ``i = 0..n-1`` inner) to decide which lattice edges
    ``(i, i+j)`` rewire; then, for each rewired edge in that same order,
    integer draws in ``[0, n)`` repeated until the target is neither ``i``
    nor a current neighbor of ``i``.
    """
    _expect(spec, "WS")
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
            if not fire:
                continue
            if len(nbrs[i]) >= n - 1:
                continue  # saturated node: no valid new target exists
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


def gen_barabasi_albert(spec: GenSpec) -> Graph:
    """Growing network with degree-biased attachment.

    The seed core is the complete graph on ``c + 1`` nodes, ``c = k_bar / 2``,
    which guarantees every node has nonzero weight for the biased draw.  Each
    arriving node attaches ``c`` edges to distinct existing nodes chosen with
    probability proportional to ``degree ** alpha``; degrees are frozen at
    the arrival's start.  Draw order: per arrival, uniforms in [0, 1) mapped
    through the cumulative weight table, redrawing targets already chosen by
    this arrival.  The draws are batched per arrival: ``c`` uniforms at once,
    then, while ``d < c`` targets are distinct, ``c - d`` more.  A one-at-a-time
    loop that stops at the ``c``-th distinct target consumes exactly these
    uniforms, so the stream, and the graph, are the same either way.
    """
    _expect(spec, "BA")
    n, c, alpha = spec.n, spec.k_bar // 2, float(spec.alpha)
    rng = make_rng(spec.seed)
    core = c + 1
    targets = np.empty((n - core, c), dtype=np.int64)
    deg = np.zeros(n)
    deg[:core] = c
    # per-node weight deg ** alpha, updated only where a degree changed
    w = deg ** alpha
    for t in range(core, n):
        cum = np.cumsum(w[:t])
        total = cum[-1]
        chosen = set(np.searchsorted(cum, rng.random(c) * total, side="right").tolist())
        while len(chosen) < c:
            redraw = rng.random(c - len(chosen)) * total
            chosen.update(np.searchsorted(cum, redraw, side="right").tolist())
        changed = np.array([*chosen, t])  # the c targets, then the arrival
        targets[t - core] = changed[:-1]
        deg[changed] += 1
        deg[t] = c
        w[changed] = deg[changed] ** alpha
    core_u, core_v = np.triu_indices(core, k=1)
    src = np.concatenate([core_u, np.repeat(np.arange(core, n), c)])
    return from_edge_list(n, np.column_stack([src, np.concatenate([core_v, targets.ravel()])]))


def geo_points(spec: GenSpec) -> np.ndarray:
    """The point set behind a GEO draw: ``n`` uniforms in the unit square.

    Draw order: a single ``(n, 2)`` uniform block (row-major, x then y).
    """
    _expect(spec, "GEO")
    return make_rng(spec.seed).random((spec.n, 2))


def geo_radius(n: int, k_bar: int) -> float:
    """Connection radius giving expected mean degree ``k_bar``, ignoring
    boundary effects: ``sqrt(k_bar / (pi * (n - 1)))``."""
    return math.sqrt(k_bar / (math.pi * (n - 1)))


# geographic_edges sorts the points into square cells of side at least the
# radius, so a pair within the radius lies in the same or in adjacent cells.
# The side is the radius widened by this relative margin, which keeps that
# true when rounding moves a point across a cell border, and at least the
# point spread over isqrt(n) cells per axis, which keeps the grid to about n
# cells however small the radius.  Generating six GEO n=500 k=8 graphs took
# 1.5 ms per graph this way, against 14 ms comparing each point with all n.
_CELL_MARGIN = 1 + 1e-9


def geographic_edges(points: np.ndarray, radius: float) -> np.ndarray:
    """All pairs at Euclidean distance strictly below ``radius``.

    Returns an ``(m, 2)`` int64 array of ``(i, j)``, ``i < j``, in ascending
    order.  A pair is an edge iff ``(d * d).sum() < radius * radius`` for
    ``d = points[i] - points[j]``; only points in the 3 x 3 cells around a
    point's own cell are tested against it.
    """
    n = points.shape[0]
    if n < 2 or not radius > 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = points.min(axis=0)
    spread = float((points.max(axis=0) - lo).max())
    side = max(radius * _CELL_MARGIN, spread / math.isqrt(n))
    # cell coordinates from 1, so every cell has all eight neighbours in the grid
    cell = ((points - lo) // side).astype(np.int64) + 1
    rows = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * rows + cell[:, 1]
    order = np.argsort(key, kind="stable")
    # points of cell k are order[first[k]:first[k + 1]]
    first = np.searchsorted(key[order], np.arange((int(cell[:, 0].max()) + 2) * rows + 1))
    step = np.arange(-1, 2)
    # the 9 cells around each point, and where their points sit in order
    near = (key[:, None] + (step[:, None] * rows + step).ravel()).ravel()
    start, count = first[near], first[near + 1] - first[near]
    i = np.repeat(np.arange(n).repeat(9), count)
    offset = np.repeat(start - np.cumsum(count) + count, count)
    j = order[offset + np.arange(offset.size)]
    i, j = i[i < j], j[i < j]
    d = points[i] - points[j]
    hit = (d * d).sum(axis=-1) < radius * radius
    pairs = np.column_stack([i[hit], j[hit]])
    return pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]


def gen_geographic(spec: GenSpec) -> Graph:
    """Random geometric graph in the unit square.

    Edge ``(i, j)`` iff the point distance is strictly below
    :func:`geo_radius`.  The adjacency is exactly the distance-threshold
    predicate on :func:`geo_points`, so it can be rechecked by brute force;
    :func:`geographic_edges` finds the pairs on a grid of cells.
    """
    _expect(spec, "GEO")
    pts = geo_points(spec)
    return from_edge_list(spec.n, geographic_edges(pts, geo_radius(spec.n, spec.k_bar)))


def gen_dorogovtsev_mendes(spec: GenSpec) -> Graph:
    """Triangle-growth network.

    Seed is the triangle on nodes 0..2 with edges appended in the order
    ``(0,1), (0,2), (1,2)``.  Each arriving node selects ``m = k_bar / 4``
    distinct edges uniformly from the current edge list (draw order: integer
    draws in ``[0, len(edges))``, redrawing indices already selected by this
    arrival) and connects to both endpoints of each, nominally adding ``2m``
    edges; when two selected edges share an endpoint the duplicate incident
    edge is skipped.  New edges are appended endpoint-pair by endpoint-pair
    in selection order, smaller edge index first.
    """
    _expect(spec, "DM")
    n, m = spec.n, spec.k_bar // 4
    rng = make_rng(spec.seed)
    edges: list[tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
    for t in range(3, n):
        picked: set[int] = set()
        while len(picked) < m:
            idx = int(rng.integers(0, len(edges)))
            if idx not in picked:
                picked.add(idx)
        linked: set[int] = set()
        for idx in sorted(picked):
            for endpoint in edges[idx]:
                if endpoint in linked:
                    continue
                linked.add(endpoint)
                edges.append((t, endpoint))
    return from_edge_list(n, edges)


_GENERATORS = {
    "ER": gen_erdos_renyi,
    "WS": gen_watts_strogatz,
    "BA": gen_barabasi_albert,
    "GEO": gen_geographic,
    "DM": gen_dorogovtsev_mendes,
}


def generate(spec: GenSpec) -> Graph:
    """Dispatch to the model's generator."""
    return _GENERATORS[spec.model](spec)


def dataset_seed(base_seed: int, model: str, n: int, k_bar: int,
                 alpha: float | None, replicate: int) -> int:
    """Per-graph stream seed: SplitMix64 fold of the cell coordinates.

    Words are folded in the order (model id 1..5, n, k_bar, IEEE-754 bits of
    alpha or 0.0, replicate index).
    """
    return mix_seed(
        base_seed,
        _MODEL_ID[model],
        n,
        k_bar,
        float_bits(alpha if alpha is not None else 0.0),
        replicate,
    )


# ---------------------------------------------------------------------------
# Named dataset presets
# ---------------------------------------------------------------------------

PRESETS = ("synthetic-desk", "synthetic-full", "scalefree-desk", "scalefree-full")


@dataclass(frozen=True)
class DatasetRow:
    spec: GenSpec
    label: str
    replicate: int

    def filename(self) -> str:
        s = self.spec
        stem = f"{s.model}_{s.n}_{s.k_bar}"
        if s.alpha is not None:
            stem += f"_a{s.alpha}"
        return f"{stem}_{self.replicate:03d}.edges"


def preset_rows(name: str, base_seed: int, count_override: int | None = None):
    """Expand a preset into fully-seeded :class:`DatasetRow` entries.

    Mixed synthetic grids hold four classes (ER, WS, BA, GEO); BA replicates
    cycle alpha through ``BA_ALPHAS`` so the class spans linear and nonlinear
    attachment.  Scalefree grids hold five classes: BA at each alpha plus DM,
    all at n=1000, k_bar=8.
    """
    rows: list[DatasetRow] = []
    if name in ("synthetic-desk", "synthetic-full"):
        if name == "synthetic-desk":
            ks, ns, reps = (4, 6, 8), (500,), 25
        else:
            ks, ns, reps = (4, 6, 8, 10, 12, 14, 16), (500, 1000, 1500, 2000), 100
        if count_override is not None:
            reps = count_override
        for model in ("ER", "WS", "BA", "GEO"):
            for n in ns:
                for k in ks:
                    for rep in range(reps):
                        alpha = BA_ALPHAS[rep % len(BA_ALPHAS)] if model == "BA" else None
                        seed = dataset_seed(base_seed, model, n, k, alpha, rep)
                        spec = GenSpec(model, n, k, alpha=alpha, seed=seed)
                        rows.append(DatasetRow(spec, model, rep))
    elif name in ("scalefree-desk", "scalefree-full"):
        reps = 20 if name == "scalefree-desk" else 100
        if count_override is not None:
            reps = count_override
        n, k = 1000, 8
        cells = [("BA", a, f"BA-{a}") for a in BA_ALPHAS] + [("DM", None, "DM")]
        for model, alpha, label in cells:
            for rep in range(reps):
                seed = dataset_seed(base_seed, model, n, k, alpha, rep)
                spec = GenSpec(model, n, k, alpha=alpha, seed=seed)
                rows.append(DatasetRow(spec, label, rep))
    else:
        raise InvalidSpecError(f"unknown preset {name!r}; choose from {PRESETS}")
    return rows


MANIFEST_NAME = "manifest.csv"
_MANIFEST_HEADER = "path,label,model,n,k_bar,alpha,beta,seed"


def write_manifest(rows, paths, out_path) -> None:
    """One comma-separated line per graph: path, class label, spec fields."""
    lines = [_MANIFEST_HEADER]
    for row, path in zip(rows, paths):
        s = row.spec
        alpha = "" if s.alpha is None else repr(float(s.alpha))
        lines.append(
            f"{path},{row.label},{s.model},{s.n},{s.k_bar},{alpha},{s.beta!r},{s.seed}"
        )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path):
    """Parse a manifest into ``(file path, label, GenSpec)`` triples.

    File paths are returned as written (typically relative to the manifest's
    directory; resolution is the caller's concern).  Malformed numbers and
    rejected specs raise :class:`InvalidSpecError` naming the file and line.
    """
    header, *lines = read_text_lines(path, InvalidSpecError)
    if header.strip() != _MANIFEST_HEADER:
        raise InvalidSpecError(f"{path}: unexpected manifest header {header.strip()!r}")
    triples = []
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise InvalidSpecError(f"{path}:{lineno}: expected 8 fields")
        fpath, label, model, n, k, alpha, beta, seed = parts
        try:
            spec = GenSpec(
                model,
                int(n),
                int(k),
                alpha=None if alpha == "" else float(alpha),
                beta=float(beta),
                seed=int(seed),
            )
        except ValueError as exc:
            raise InvalidSpecError(f"{path}:{lineno}: {exc}") from None
        triples.append((fpath, label, spec))
    return triples
