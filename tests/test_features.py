import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from netclass import (
    FeatureError,
    GenSpec,
    adjacency_matrix,
    clbp_features,
    degree_vector,
    from_edge_list,
    generate,
    hu_moments,
    projection,
    read_feature_csv,
    render_pgm,
    sorted_adjacency,
    structural_features,
    write_feature_csv,
)

# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_extractor_length_contract():
    # each extractor's row length is fixed, whatever the graph's size
    for n in (5, 40):
        g = from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])
        image = sorted_adjacency(g)
        assert projection(degree_vector(g)[np.newaxis]).shape == (2500,)
        assert clbp_features(image).shape == (200,)
        assert hu_moments(image).shape == (7,)
        assert structural_features(g).shape == (3001,)


def test_projection_of_sorted_star():
    g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    v = projection(sorted_adjacency(g))
    assert v.shape == (2500,)
    assert v[:5].tolist() == [4, 1, 1, 1, 1]
    assert (v[5:] == 0).all()


def test_projection_edgeless():
    assert (projection(np.zeros((3, 3))) == 0).all()


def test_projection_is_sorted_degree_sequence():
    rng = np.random.default_rng(4)
    for _ in range(15):
        g = oracles.random_graph(rng, int(rng.integers(1, 30)), 0.2)
        expected = np.zeros(2500)
        expected[: g.n] = sorted(degree_vector(g), reverse=True)
        assert np.array_equal(projection(sorted_adjacency(g)), expected)
        assert np.array_equal(projection(adjacency_matrix(g)), expected)


def test_projection_size_cap():
    # a 1 x n degree row, as the features command passes it
    with pytest.raises(FeatureError, match="at most 2500 nodes, got 2501"):
        projection(np.ones((1, 2501)))
    assert projection(np.ones((1, 2500))).tolist() == [1.0] * 2500


# ---------------------------------------------------------------------------
# local binary patterns
# ---------------------------------------------------------------------------


def test_clbp_constant_images_single_bin():
    # zero differences count as "greater-equal": sign code 255 -> uniform
    # bin 8; same for magnitude; center bit 1 -> flat index 177
    for img in (np.ones((5, 5)), np.zeros((4, 6))):
        h = clbp_features(img)
        assert h.sum() == pytest.approx(1.0)
        assert h[(8 * 10 + 8) * 2 + 1] == pytest.approx(1.0)


def test_clbp_single_center_pixel_matches_reference():
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    assert np.allclose(clbp_features(img), oracles.clbp_reference(img))


def test_clbp_random_battery_matches_reference():
    rng = np.random.default_rng(77)
    for _ in range(40):
        h = int(rng.integers(3, 17))
        w = int(rng.integers(3, 17))
        img = (rng.random((h, w)) < rng.uniform(0.1, 0.9)).astype(float)
        assert np.allclose(clbp_features(img), oracles.clbp_reference(img))


def test_clbp_rotation_invariant():
    rng = np.random.default_rng(123)
    img = (rng.random((11, 11)) < 0.35).astype(float)
    base = clbp_features(img)
    for k in (1, 2, 3):
        assert np.allclose(clbp_features(np.rot90(img, k)), base)


def _clbp_images():
    rng = np.random.default_rng(78)
    for _ in range(40):
        shape = rng.integers(3, 17, size=2)
        yield (rng.random(shape) < rng.uniform(0.1, 0.9)).astype(float)
    for fill in (0, 1):
        yield np.full((5, 5), fill, dtype=np.uint8)
        yield np.full((9, 3), bool(fill))
        # constant but for one corner pixel, which only one window sees
        img = np.full((8, 8), fill)
        img[0, 0] = 1 - fill
        yield img
        img = np.full((8, 8), fill)
        img[-1, -1] = 1 - fill
        yield img
    # set pixels on one border row or column only, seen by no window's center
    for border in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        img = np.zeros((7, 9), dtype=np.uint8)
        img[border] = np.arange(img[border].size) % 3 != 1
        yield img
    # strips with a single row or column of windows
    for shape in ((3, 3), (3, 14), (14, 3)):
        yield (rng.random(shape) < 0.4).astype(float)
    checkerboard = np.indices((9, 10)).sum(axis=0) % 2
    yield checkerboard
    yield 1 - checkerboard
    for spec in (GenSpec("BA", 150, 8, alpha=1.0, seed=1), GenSpec("ER", 120, 6, seed=2),
                 GenSpec("WS", 100, 4, seed=3), GenSpec("GEO", 130, 6, seed=4),
                 GenSpec("DM", 90, 4, seed=5)):
        yield sorted_adjacency(generate(spec))


def _row_bands(img, rows):
    """The image itself when ``rows`` is None, else its overlapping row bands
    of ``rows`` window rows each (``rows + 2`` pixel rows, the last band
    shorter), as a banded counter would cut it."""
    if rows is None:
        yield img
        return
    for top in range(0, img.shape[0] - 2, rows):
        yield img[top:top + rows + 2]


# the whole image, bands with one row of windows each (where set pixels sit
# on the band's first or last row, outside every window center), and a row
# count that divides few of the heights
@pytest.mark.parametrize("rows", [None, 1, 7])
def test_clbp_bands_match_whole_image(rows):
    for img in _clbp_images():
        for band in _row_bands(img, rows):
            assert clbp_features(band).tobytes() == oracles.clbp_whole_image(band).tobytes()


def test_clbp_rejects_values_in_the_last_row_or_column():
    # only the set pixels are read, so a stray value must be caught wherever
    # it lies, border included
    for bad in (2.0, np.nan):
        for cell in ((-1, 4), (4, -1)):
            img = np.zeros((9, 9))
            img[3, 3] = 1.0
            img[cell] = bad
            with pytest.raises(FeatureError, match="0/1 image"):
                clbp_features(img)


@given(st.integers(3, 8), st.integers(3, 8), st.sampled_from([np.uint8, np.float64, bool]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_clbp_matches_reference_on_small_images(h, w, dtype, data):
    cells = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    img = np.array(cells).reshape(h, w).astype(dtype)
    assert np.array_equal(clbp_features(img), oracles.clbp_reference(img))


def test_clbp_too_small():
    with pytest.raises(FeatureError):
        clbp_features(np.ones((2, 5)))


# ---------------------------------------------------------------------------
# moment invariants
# ---------------------------------------------------------------------------


def test_hu_single_pixel_all_zero():
    img = np.zeros((6, 6))
    img[1, 4] = 1.0
    assert hu_moments(img).tolist() == [0.0] * 7


def test_hu_translation_invariance_exact():
    a = np.zeros((9, 9))
    a[1:3, 1:3] = 1.0
    b = np.zeros((9, 9))
    b[6:8, 4:6] = 1.0
    assert np.array_equal(hu_moments(a), hu_moments(b))


def test_hu_rotation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        img = (rng.random((13, 13)) < 0.3).astype(float)
        if img.sum() == 0:
            continue
        a = hu_moments(img)
        b = hu_moments(np.rot90(img))
        rel = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-300)
        rel[a == b] = 0.0
        assert rel.max() <= 1e-9


def test_hu_mirror_flips_phi7():
    rng = np.random.default_rng(55)
    img = (rng.random((10, 10)) < 0.3).astype(float)
    a = hu_moments(img)
    m = hu_moments(np.fliplr(img))
    assert abs(a[6]) == pytest.approx(abs(m[6]), rel=1e-9)
    if a[6] != 0:
        assert np.sign(a[6]) == -np.sign(m[6])
    assert np.allclose(a[:6], m[:6], rtol=1e-9)


def test_hu_all_zero_image_raises():
    with pytest.raises(FeatureError, match="all-zero"):
        hu_moments(np.zeros((4, 4)))


@pytest.mark.parametrize("img", [
    [[1, -3], [0, 0]],  # complex invariants
    [[2, -1], [-1, 0]],  # m00 = 0, though not all zero
    [[1, 0], [0, np.nan]],  # seven NaNs
    [[1, 0], [0, np.inf]],
])
def test_hu_refuses_negative_or_non_finite_pixels(img):
    with pytest.raises(FeatureError, match="finite, non-negative pixel values"):
        hu_moments(np.array(img))


@st.composite
def _images(draw):
    # small 0/1 images, or the same with positive float or uint8 weights
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = rng.random((h, w)) < draw(st.floats(0.05, 1.0))
    assume(img.any())
    weights = draw(st.sampled_from([None, "float", "uint8"]))
    if weights == "float":
        return img * rng.uniform(0.01, 100.0, (h, w))
    if weights == "uint8":
        return (img * rng.integers(1, 256, (h, w))).astype(np.uint8)
    return img.astype(np.uint8)


@st.composite
def _sorted_images(draw):
    # the sorted adjacency image of a small graph from each generator family
    model = draw(st.sampled_from(["ER", "WS", "BA", "GEO", "DM"]))
    alpha = draw(st.sampled_from([0.5, 1.0, 1.5])) if model == "BA" else None
    spec = GenSpec(model, draw(st.integers(20, 150)), draw(st.sampled_from([4, 8])),
                   alpha=alpha, seed=draw(st.integers(0, 2**32 - 1)))
    img = sorted_adjacency(generate(spec))
    assume(img.any())
    return img


@given(st.one_of(_images(), _sorted_images()))
@settings(max_examples=150, deadline=None)
def test_hu_matches_dense_oracle(img):
    got, want = hu_moments(img), oracles.hu_dense(img)
    np.testing.assert_allclose(got[:6], want[:6], rtol=1e-9, atol=0)
    np.testing.assert_allclose(got[6], want[6], rtol=1e-9, atol=1e-12)


@given(_sorted_images())
@settings(max_examples=60, deadline=None)
def test_hu_sorted_image_phi7_exactly_zero(img):
    # a sorted image is symmetric, and transposing it mirrors it: exact
    # sums leave the seventh invariant at 0.0 and the transpose bit-equal
    got = hu_moments(img)
    assert got[6] == 0.0
    assert np.array_equal(got, hu_moments(img.T))


def test_hu_reads_only_the_set_pixels():
    img = sorted_adjacency(generate(GenSpec("BA", 1000, 8, alpha=1.0, seed=42)))
    tracemalloc.start()
    try:
        hu_moments(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an 8 MB float64 copy of the image is what this rules out
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_pgm_encoding_exact_bytes():
    data = render_pgm(np.array([[0, 1], [1, 0]]))
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])


def test_pgm_round_trip():
    rng = np.random.default_rng(2)
    m = (rng.random((7, 7)) < 0.4).astype(np.uint8)
    back = oracles.parse_pgm(render_pgm(m))
    assert np.array_equal(back > 0, m > 0)


def test_pgm_dilation():
    m = np.zeros((5, 5))
    m[2, 2] = 1
    body = oracles.parse_pgm(render_pgm(m, dilate=True))
    assert (body > 0).sum() == 9
    assert (body[1:4, 1:4] > 0).all()
    # dilation strictly grows any nonempty, non-full image
    rng = np.random.default_rng(6)
    img = (rng.random((8, 8)) < 0.2).astype(np.uint8)
    img[0, 0] = 1
    plain = oracles.parse_pgm(render_pgm(img))
    fat = oracles.parse_pgm(render_pgm(img, dilate=True))
    assert (fat > 0).sum() > (plain > 0).sum()


# ---------------------------------------------------------------------------
# feature CSV / external import
# ---------------------------------------------------------------------------


def test_feature_csv_round_trip(tmp_path):
    path = tmp_path / "f.csv"
    feats = np.array([[1.0, 0.25, -3.5], [0.1234567890123, 2.0, 4.0]])
    write_feature_csv(path, ["a", "b"], feats)
    labels, back = read_feature_csv(path)
    assert labels == ["a", "b"]
    assert np.array_equal(back, feats)  # repr round-trips floats exactly


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", " a", "\ta"])
def test_feature_csv_refuses_labels_that_do_not_read_back(tmp_path, label):
    # the first three split their row, and the reader strips the leading space
    path = tmp_path / "f.csv"
    with pytest.raises(FeatureError, match=f"^{re.escape(f'{path}: row 2: label {label!r}')}"):
        write_feature_csv(path, ["ok", label], np.ones((2, 1)))
    assert not path.exists()


@given(labels=st.lists(st.text(st.characters() | st.sampled_from(" \t\r\n,\x0c\x85\xa0\u2028"),
                               max_size=6), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_feature_csv_accepted_labels_read_back(tmp_path, labels):
    path = tmp_path / "f.csv"
    try:
        write_feature_csv(path, labels, np.ones((len(labels), 1)))
    except FeatureError:
        return
    assert read_feature_csv(path)[0] == labels


def test_external_import(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("label,f0,f1,f2\na,1,2,3\nb,4,5,6\n")
    labels, feats = read_feature_csv(path)
    assert labels == ["a", "b"]
    assert feats.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_external_import_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\na,1,2\nb,3\n")
    with pytest.raises(FeatureError, match=":3"):
        read_feature_csv(path)
    path.write_text("")
    with pytest.raises(FeatureError, match="empty"):
        read_feature_csv(path)
    path.write_text("label,f0\n")
    with pytest.raises(FeatureError, match="no feature rows"):
        read_feature_csv(path)
    path.write_text("name,f0\na,1\n")
    with pytest.raises(FeatureError, match="label"):
        read_feature_csv(path)
    path.write_text("label,f0\na,zap\n")
    with pytest.raises(FeatureError, match=":2"):
        read_feature_csv(path)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_clbp_histogram_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    img = (rng.random((6, 6)) < rng.uniform(0, 1)).astype(float)
    assert clbp_features(img).sum() == pytest.approx(1.0)
