"""Image descriptors for sorted adjacency matrices, plus rendering and the
feature-CSV interchange format.

A sorted 0/1 matrix is treated as a binary image: row index is y (downward),
column index is x (rightward), origin at the top left.  Three descriptors
are provided:

* ``projection``: column sums in descending order, zero-padded to a fixed
  length (2500).  This is the descending degree sequence, the same vector
  the column sums of a degree-sorted matrix give, so it needs no ranking:
  pass the unsorted adjacency matrix.
* ``clbp_features``: completed local binary patterns over 3x3 windows,
  combining the sign, magnitude and center components into one joint
  rotation-invariant histogram of 200 bins.
* ``hu_moments``: the seven classical moment invariants, log-compressed.
"""

from __future__ import annotations

import numpy as np

from .graph import read_text_lines

PROJECTION_LENGTH = 2500


class FeatureError(ValueError):
    """Descriptor preconditions violated (wrong size, empty image, bad CSV)."""


def projection(aprime: np.ndarray) -> np.ndarray:
    """Column sums of the matrix in descending order, zero-padded on the
    right to ``PROJECTION_LENGTH``.  Any row/column permutation gives the
    same vector; a matrix wider than ``PROJECTION_LENGTH`` is refused."""
    m = np.asarray(aprime)
    size = m.shape[1]
    if size > PROJECTION_LENGTH:
        raise FeatureError(
            f"projection supports graphs of at most {PROJECTION_LENGTH} nodes, "
            f"got {size}"
        )
    out = np.zeros(PROJECTION_LENGTH, dtype=np.float64)
    out[:size] = np.sort(m.sum(axis=0))[::-1]
    return out


# Eight 3x3 neighbor offsets (dy, dx) in counterclockwise circular order
# starting east.  A 90-degree image rotation cyclically shifts this list, so
# pattern codes rotate in lockstep with the image.
_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))


def _riu2_table() -> np.ndarray:
    # Map each 8-bit circular code to its rotation-invariant uniform bin:
    # codes with at most two 0/1 transitions map to their popcount (0..8),
    # everything else to the catch-all bin 9.
    table = np.empty(256, dtype=np.uint8)
    for code in range(256):
        bits = [(code >> p) & 1 for p in range(8)]
        transitions = sum(bits[p] != bits[(p + 1) % 8] for p in range(8))
        table[code] = sum(bits) if transitions <= 2 else 9
    return table


_RIU2 = _riu2_table()

CLBP_BINS = 200  # 10 sign bins x 10 magnitude bins x 2 center bins


# clbp_features counts its histogram over bands of r = max(1, _BAND_PIXELS // w)
# interior rows of a w-pixel-wide image, each read with the row above and the
# row below it, so its temporaries, about 12 bytes per pixel, span about
# _BAND_PIXELS pixels whatever the image size.  Over the five sorted images of
# one scalefree-desk seed (n=1000), best of three runs: 0.137 s at 1 << 18,
# 0.145-0.158 s from 1 << 15 to 1 << 20 and 0.146 s for the whole image at
# once, whose tracemalloc peak was 12.4 MB at n=1000 and 49.5 MB at n=2000,
# against 3.0 MB at 1 << 18 for both.
_BAND_PIXELS = 1 << 18


def clbp_features(aprime: np.ndarray) -> np.ndarray:
    """Joint sign/magnitude/center local-pattern histogram of a 0/1 image,
    L1-normalized; other values are rejected.

    For every interior pixel and its 8 neighbors at radius 1, the sign bits
    ``step(neighbor - center)``, magnitude bits ``step(|difference| - mean
    |difference|)`` and center bit ``step(center - image mean)``, with means
    over the whole image and ``step(x) = 1`` iff ``x >= 0``, are on 0/1 input
    ``neighbor or not center``, ``neighbor xor center`` (all set when no
    difference is non-zero, which is when the image is constant) and
    ``center`` (all set on an all-zero image).  Sign and magnitude codes are
    mapped to rotation-invariant uniform bins (10 each) and combined with the
    center bit into a flat histogram of 200 bins, indexed ``(sign_bin * 10 +
    magnitude_bin) * 2 + center_bit``.  Border pixels have no full 3x3 window
    and are skipped.  The counts are taken over bands of rows (see
    ``_BAND_PIXELS``), so no temporary spans the whole image.
    """
    img = np.asarray(aprime)
    if img.ndim != 2 or min(img.shape) < 3:
        raise FeatureError("local patterns need a 2-D image of size at least 3x3")
    h, w = img.shape
    # the two image-wide conditions, decided once for every band
    blank = not img.any()
    flat = blank or bool(img.all())
    step = max(1, _BAND_PIXELS // w)
    counts = np.zeros(CLBP_BINS, dtype=np.int64)
    for y0 in range(1, h - 1, step):
        y1 = min(y0 + step, h - 1)
        counts += _clbp_counts(img[y0 - 1:y1 + 1], blank, flat)
    hist = counts.astype(np.float64)
    return hist / hist.sum()


def _clbp_counts(rows: np.ndarray, blank: bool, flat: bool) -> np.ndarray:
    # The joint-bin counts of the interior pixels of ``rows``, a band of the
    # image with one extra row above and below; ``blank`` and ``flat`` say
    # whether the whole image is all zero and constant.
    bits = rows.astype(bool)
    if not np.array_equal(bits, rows):
        raise FeatureError("local patterns need a 0/1 image")
    h, w = bits.shape
    center = bits[1:-1, 1:-1]
    s_code = np.zeros(center.shape, dtype=np.uint8)
    m_code = np.zeros(center.shape, dtype=np.uint8)
    for p, (dy, dx) in enumerate(_OFFSETS):
        neighbor = bits[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        s_code |= (neighbor | ~center).view(np.uint8) << p
        m_code |= (neighbor ^ center).view(np.uint8) << p
    if flat:
        m_code.fill(0xFF)
    joint = (_RIU2[s_code] * 10 + _RIU2[m_code]) * 2 + (center | blank)
    return np.bincount(joint.ravel(), minlength=CLBP_BINS)


def hu_moments(aprime: np.ndarray) -> np.ndarray:
    """The seven moment invariants of the image, in the standard order.

    Raw moments are ``m_pq = sum x^p y^q I(x, y)`` with x the column and y
    the row index; central moments are taken about the centroid and
    normalized as ``eta_pq = mu_pq / m00^(1 + (p+q)/2)``.  Each invariant is
    emitted through the signed log compression
    ``sign(phi) * log10(1 + |phi|)``: the raw invariants span many orders of
    magnitude, which would leave a plain Euclidean distance reading only the
    largest one.  The compression is monotone per dimension, keeps zeros at
    zero and preserves signs, so the translation/rotation invariances and
    the mirror sign flip of the seventh invariant carry over unchanged.
    """
    img = np.asarray(aprime, dtype=np.float64)
    if img.ndim != 2:
        raise FeatureError("moments need a 2-D image")
    m00 = img.sum()
    if m00 == 0:
        raise FeatureError("moment invariants are undefined for an all-zero image")
    # crop to the nonzero bounding box: central moments are translation
    # invariant in exact arithmetic, and cropping makes integer translations
    # bit-exact no-ops instead of relying on float rounding to cooperate
    ys, xs = np.nonzero(img)
    img = img[ys.min():ys.max() + 1, xs.min():xs.max() + 1]
    h, w = img.shape
    x = np.arange(w, dtype=np.float64)
    y = np.arange(h, dtype=np.float64)
    xbar = (img.sum(axis=0) * x).sum() / m00
    ybar = (img.sum(axis=1) * y).sum() / m00
    dx = x - xbar
    dy = y - ybar

    def mu(p: int, q: int) -> float:
        return float((dy ** q) @ img @ (dx ** p))

    def eta(p: int, q: int) -> float:
        return mu(p, q) / m00 ** (1.0 + (p + q) / 2.0)

    e20, e02, e11 = eta(2, 0), eta(0, 2), eta(1, 1)
    e30, e03, e21, e12 = eta(3, 0), eta(0, 3), eta(2, 1), eta(1, 2)
    a = e30 + e12
    b = e21 + e03
    c = e30 - 3 * e12
    d = 3 * e21 - e03
    phi1 = e20 + e02
    phi2 = (e20 - e02) ** 2 + 4 * e11 ** 2
    phi3 = c ** 2 + d ** 2
    phi4 = a ** 2 + b ** 2
    phi5 = c * a * (a ** 2 - 3 * b ** 2) + d * b * (3 * a ** 2 - b ** 2)
    phi6 = (e20 - e02) * (a ** 2 - b ** 2) + 4 * e11 * a * b
    phi7 = d * a * (a ** 2 - 3 * b ** 2) - c * b * (3 * a ** 2 - b ** 2)
    phi = np.array([phi1, phi2, phi3, phi4, phi5, phi6, phi7])
    return np.sign(phi) * np.log10(1.0 + np.abs(phi))


def _dilate3(mask: np.ndarray) -> np.ndarray:
    # One pass of a 3x3 binary max filter, edges clipped (no wraparound).
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    out = np.zeros_like(mask)
    for dy in range(3):
        for dx in range(3):
            out |= padded[dy:dy + h, dx:dx + w]
    return out


def render_pgm(m: np.ndarray, dilate: bool = False) -> bytes:
    """Encode a 0/1 matrix as binary PGM (P5, maxval 255): set cells white.

    With ``dilate``, one 3x3 max-filter pass thickens the set pixels first,
    which makes sparse matrices much easier to eyeball.
    """
    mask = np.asarray(m) > 0
    if dilate:
        mask = _dilate3(mask)
    h, w = mask.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + (mask.astype(np.uint8) * 255).tobytes()


# ---------------------------------------------------------------------------
# Feature CSV interchange
# ---------------------------------------------------------------------------
#
# Shared by every extractor and by externally computed features (e.g. deep
# descriptors produced elsewhere): UTF-8, '.' decimal separator, header
# "label,f0,f1,...", one row per network.


def write_feature_csv(path, labels, features: np.ndarray) -> None:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != len(labels):
        raise FeatureError("features must be one row per label")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(feats.shape[1])) + "\n")
        for label, row in zip(labels, feats):
            fh.write(str(label) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def read_feature_csv(path):
    """Parse a feature CSV of finite numbers into ``(labels, matrix)``;
    errors name the file and, where one line is at fault, the line."""
    header, *lines = read_text_lines(path, FeatureError)
    if not (header or lines):
        raise FeatureError(f"{path}: empty feature file")
    cols = header.strip().split(",")
    if cols[0] != "label":
        raise FeatureError(f"{path}: first header column must be 'label'")
    width = len(cols) - 1
    if width < 1:
        raise FeatureError(f"{path}: header declares no feature columns")
    labels: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width + 1:
            raise FeatureError(
                f"{path}:{lineno}: expected {width} features, got {len(parts) - 1}"
            )
        try:
            row = np.array(parts[1:], dtype=np.float64)
        except ValueError:
            raise FeatureError(f"{path}:{lineno}: non-numeric feature value") from None
        if not np.isfinite(row).all():
            raise FeatureError(f"{path}:{lineno}: non-finite feature value")
        rows.append(row)
        labels.append(parts[0])
    if not rows:
        raise FeatureError(f"{path}: no feature rows")
    return labels, np.array(rows)
