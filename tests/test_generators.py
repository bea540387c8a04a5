import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from netclass import GenSpec, InvalidSpecError, degree_vector, generate, generators
from netclass.generators import (
    dataset_seed,
    geo_points,
    geo_radius,
    geographic_edges,
    preset_rows,
    read_manifest,
    write_manifest,
)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        GenSpec("XX", 10, 4)
    with pytest.raises(InvalidSpecError):
        GenSpec("ER", 10, 3)  # odd
    with pytest.raises(InvalidSpecError):
        GenSpec("ER", 10, 0)
    with pytest.raises(InvalidSpecError):
        GenSpec("ER", 10, 10)  # k_bar >= n would push p to 1
    with pytest.raises(InvalidSpecError):
        GenSpec("BA", 10, 4)  # alpha missing
    with pytest.raises(InvalidSpecError):
        GenSpec("BA", 10, 4, alpha=-1.0)
    with pytest.raises(InvalidSpecError):
        GenSpec("ER", 10, 4, alpha=1.0)  # alpha only for BA
    with pytest.raises(InvalidSpecError):
        GenSpec("WS", 10, 4, beta=1.5)
    with pytest.raises(InvalidSpecError, match="divisible by 4"):
        GenSpec("DM", 10, 6)
    with pytest.raises(InvalidSpecError, match="maximum of 12"):
        GenSpec("DM", 100, 16)


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("ER", 60, 6, seed=3),
        GenSpec("WS", 60, 6, seed=3),
        GenSpec("BA", 60, 6, alpha=1.5, seed=3),
        GenSpec("GEO", 60, 6, seed=3),
        GenSpec("DM", 60, 8, seed=3),
    ],
)
def test_determinism(spec):
    assert generate(spec) == generate(spec)


def test_er_edge_count_within_5_sigma():
    # fixed-seed draw against the analytic pair-count distribution
    n, k = 500, 8
    g = generate(GenSpec("ER", n, k, seed=42))
    pairs = n * (n - 1) // 2
    p = k / n
    mean = pairs * p
    sd = math.sqrt(pairs * p * (1 - p))
    assert abs(g.edge_count - mean) < 5 * sd


def test_ws_lattice_when_beta_zero():
    g = generate(GenSpec("WS", 40, 6, beta=0.0, seed=1))
    assert degree_vector(g).tolist() == [6] * 40
    assert g.neighbors(0).tolist() == [1, 2, 3, 37, 38, 39]


def test_ws_edge_count_exact_for_any_beta():
    for beta in (0.0, 0.1, 0.5, 1.0):
        g = generate(GenSpec("WS", 200, 8, beta=beta, seed=5))
        assert g.edge_count == 200 * 8 // 2
    assert degree_vector(g).mean() == 8.0


def test_ws_full_rewiring_breaks_regularity():
    g = generate(GenSpec("WS", 200, 8, beta=1.0, seed=7))
    assert degree_vector(g).var() > 0


def test_ba_smallest_case_structure():
    g = generate(GenSpec("BA", 6, 4, alpha=1.0, seed=11))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert j in g.neighbors(i).tolist()  # complete seed core
    for t in range(3, 6):
        assert (g.neighbors(t) < t).sum() == 2  # two edges per arrival


def test_ba_connected_and_hubby():
    g = generate(GenSpec("BA", 400, 8, alpha=1.0, seed=2))
    d = degree_vector(g)
    assert d.min() >= 1
    assert d.max() > 4 * d.mean()
    # connectivity by construction: arrivals always attach to existing nodes
    from netclass import all_pairs_distances

    assert np.isfinite(all_pairs_distances(g)).all()


def test_ba_alpha_concentrates_hubs():
    # frozen from a 20-seed comparison: median max degree 922 (alpha=2)
    # versus 49 (alpha=0.5) at n=1000; a small battery keeps the test fast
    hi = [
        degree_vector(generate(GenSpec("BA", 500, 8, alpha=2.0, seed=s))).max()
        for s in range(6)
    ]
    lo = [
        degree_vector(generate(GenSpec("BA", 500, 8, alpha=0.5, seed=s))).max()
        for s in range(6)
    ]
    assert np.median(hi) > np.median(lo)


def _ba_cells(seed):
    # the first replicate of every BA (n, k_bar, alpha) cell of each preset;
    # a spec found in two presets is kept once
    cells = {}
    for preset in generators.PRESETS:
        for row in preset_rows(preset, seed):
            s = row.spec
            if s.model == "BA":
                cells.setdefault((preset, s.n, s.k_bar, s.alpha), s)
    return list(dict.fromkeys(cells.values()))


@pytest.mark.parametrize("seed", [7, 901])
def test_ba_matches_one_draw_reference_on_every_preset_cell(seed):
    specs = _ba_cells(seed)
    # synthetic-full's 112 cells hold synthetic-desk's first replicates and
    # scalefree's alpha=0.5 one; scalefree's others start at replicate 0
    assert len(specs) == 4 * 7 * 4 + 3
    for spec in specs:
        g, want = generate(spec), oracles.barabasi_albert(spec)
        assert np.array_equal(g.indptr, want.indptr), spec
        assert np.array_equal(g.indices, want.indices), spec


def test_ba_redraws_match_one_draw_reference(monkeypatch):
    draws = []
    make_rng = generators.make_rng

    class Counting:
        """Counts the uniforms a generator draws from its stream."""

        def __init__(self, seed):
            self.rng = make_rng(seed)

        def random(self, size):
            draws[-1] += size
            return self.rng.random(size)

    monkeypatch.setattr(generators, "make_rng", Counting)
    redrawn = []

    @given(n=st.integers(3, 40), c=st.integers(1, 6),
           alpha=st.floats(0.05, 3.0), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def check(n, c, alpha, seed):
        assume(2 * c < n)
        spec = GenSpec("BA", n, 2 * c, alpha=alpha, seed=seed)
        draws.append(0)
        assert generate(spec) == oracles.barabasi_albert(spec)
        redrawn.append(draws[-1] > c * (n - c - 1))

    check()
    # repeated targets are common at small n and large alpha
    assert sum(redrawn) >= len(redrawn) // 10  # about 30% in practice


def test_geo_strict_threshold():
    # dyadic coordinates keep the distance exactly representable
    pts = np.array([[0.125, 0.5], [0.375, 0.5], [0.9, 0.9]])
    assert geographic_edges(pts, 0.25).tolist() == []  # distance exactly r: no edge
    assert geographic_edges(pts, 0.2500001).tolist() == [[0, 1]]


def _brute_geo_pairs(pts, r):
    # the generator's predicate over all n^2 pairs, no grid
    d = pts[:, None, :] - pts[None, :, :]
    i, j = np.nonzero((d * d).sum(axis=-1) < r * r)
    return np.column_stack([i[i < j], j[i < j]])


def _dyadic_lattice(step, size):
    # every point of a grid of spacing step, exactly representable
    ax = np.arange(size) * step
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)


def test_geo_adjacency_matches_brute_force():
    spec = GenSpec("GEO", 120, 6, seed=9)
    pts = geo_points(spec)
    r = geo_radius(120, 6)
    expected = {
        (i, j)
        for i in range(120)
        for j in range(i + 1, 120)
        if math.dist(pts[i], pts[j]) < r
    }
    assert set(generate(spec).edges()) == expected
    assert np.array_equal(geographic_edges(pts, r), _brute_geo_pairs(pts, r))


@pytest.mark.parametrize("case", [
    "one-cell", "radius-past-spread", "inverse-radius-whole", "on-borders",
    "exactly-r", "just-under-r", "under-r-across-borders", "tiny-radius", "coincident",
])
def test_geo_grid_edge_cases(case):
    rng = np.random.default_rng(5)
    pts, r = rng.random((60, 2)), 0.25
    if case == "one-cell":
        r = 1.0
    elif case == "radius-past-spread":
        r = 3.0
    elif case == "inverse-radius-whole":
        pts = np.concatenate([pts, _dyadic_lattice(0.125, 8)])  # 1/r = 4 cells
    elif case == "on-borders":
        # points on the cell borders of r = 1/8, and a radius just past a whole 1/r
        pts, r = _dyadic_lattice(0.125, 8), 0.125 + 2.0**-40
    elif case == "exactly-r":
        # lattice neighbours exactly r apart (no edge), diagonals further
        pts, r = _dyadic_lattice(0.25, 4), 0.25
    elif case == "just-under-r":
        pts, r = _dyadic_lattice(0.25, 4), 0.25 + 2.0**-50
    elif case == "under-r-across-borders":
        # pairs just under r apart whose first point sits just below a multiple
        # of r, so cells narrower than r would put them two cells apart
        x = np.outer([r, 2 * r], 1 - np.geomspace(1e-6, 1e-12, 31)).ravel()
        pts = np.concatenate([[[0.0, 0.0]], np.column_stack([x, 0 * x]),
                              np.column_stack([x + r * (1 - 1e-12), 0 * x])])
    elif case == "tiny-radius":
        r = 1e-12  # far more cells than points if the grid followed r alone
    elif case == "coincident":
        pts = np.repeat(pts[:3], 4, axis=0)
    got = geographic_edges(pts, r)
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert np.array_equal(got, _brute_geo_pairs(pts, r))
    if case == "exactly-r":
        assert got.size == 0
    if case == "just-under-r":
        assert len(got) == 2 * 4 * 3  # the lattice's horizontal and vertical neighbours
    assert geographic_edges(pts[:1], r).shape == (0, 2)


def test_geo_point_determinism():
    spec = GenSpec("GEO", 50, 4, seed=77)
    assert np.array_equal(geo_points(spec), geo_points(spec))


def test_dm_smallest_step():
    g = generate(GenSpec("DM", 4, 4, seed=2))
    # seed triangle plus one node attached to both ends of one edge
    assert g.edge_count == 5
    assert len(g.neighbors(3)) == 2
    u, v = g.neighbors(3).tolist()
    assert u in g.neighbors(v).tolist()


def test_dm_mean_degree_m1():
    g = generate(GenSpec("DM", 1000, 4, seed=3))
    mean = 2 * g.edge_count / 1000
    assert abs(mean - 4.0) / 4.0 < 0.02


def test_dm_connected():
    from netclass import all_pairs_distances

    g = generate(GenSpec("DM", 300, 8, seed=4))
    assert np.isfinite(all_pairs_distances(g)).all()


def test_dataset_seed_spreads():
    seeds = {
        dataset_seed(7, m, n, k, a, r)
        for m, a in (("ER", None), ("BA", 1.0), ("BA", 2.0))
        for n in (100, 200)
        for k in (4, 6)
        for r in range(5)
    }
    assert len(seeds) == 3 * 2 * 2 * 5


def test_preset_grid_and_determinism():
    rows = preset_rows("synthetic-desk", 5, count_override=2)
    # grid-major (model, then mean degree), then replicate
    assert [r.label for r in rows] == [m for m in ("ER", "WS", "BA", "GEO") for _ in range(6)]
    assert [r.replicate for r in rows] == [0, 1] * 12
    for r in rows:
        s = r.spec
        assert s.seed == dataset_seed(5, s.model, s.n, s.k_bar, s.alpha, r.replicate)
    assert preset_rows("synthetic-desk", 5, count_override=2) == rows
    for r in rows[::6]:
        assert generate(r.spec) == generate(r.spec)


def test_preset_row_counts():
    rows = preset_rows("synthetic-desk", 7)
    assert len(rows) == 300  # 4 models x 3 degrees x 25 replicates
    labels = [r.label for r in rows]
    assert sorted(set(labels)) == ["BA", "ER", "GEO", "WS"]
    assert all(labels.count(c) == 75 for c in set(labels))
    rows = preset_rows("scalefree-desk", 7)
    assert len(rows) == 100
    assert sorted(set(r.label for r in rows)) == [
        "BA-0.5",
        "BA-1.0",
        "BA-1.5",
        "BA-2.0",
        "DM",
    ]
    full = preset_rows("synthetic-full", 7)
    assert len(full) == 11200  # 4 models x 7 degrees x 4 sizes x 100
    assert len(preset_rows("scalefree-full", 7)) == 500
    with pytest.raises(InvalidSpecError):
        preset_rows("nope", 7)


def test_preset_filenames_unique():
    rows = preset_rows("synthetic-desk", 7)
    names = [r.filename() for r in rows]
    assert len(set(names)) == len(names)


def test_manifest_round_trip(tmp_path):
    rows = preset_rows("synthetic-desk", 7, count_override=2)
    paths = [r.filename() for r in rows]
    mpath = tmp_path / "manifest.csv"
    write_manifest(rows, paths, mpath)
    triples = read_manifest(mpath)
    assert len(triples) == len(rows)
    for (fpath, label, spec), row, path in zip(triples, rows, paths):
        assert fpath == path
        assert label == row.label
        assert spec == row.spec


@pytest.mark.parametrize("field, value, message", [
    (3, "five", "invalid literal for int"),  # n
    (2, "XX", "unknown model 'XX'"),
])
def test_manifest_errors_name_the_line(tmp_path, field, value, message):
    rows = preset_rows("synthetic-desk", 7, count_override=1)
    mpath = tmp_path / "manifest.csv"
    write_manifest(rows, [r.filename() for r in rows], mpath)
    lines = mpath.read_text().splitlines()
    parts = lines[3].split(",")
    parts[field] = value
    lines[3] = ",".join(parts)
    mpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(f'{mpath}:4: {message}')}"):
        read_manifest(mpath)
