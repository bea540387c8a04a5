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
  rotation-invariant histogram of 200 bins.  A sorted matrix is sparse, so
  only the windows around its set pixels are read; the all-zero rest share
  one bin.
* ``hu_moments``: the seven classical moment invariants, log-compressed,
  read from the set pixels with exactly rounded sums.
"""

from __future__ import annotations

import math

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


def _joint_table() -> np.ndarray:
    # The joint bin of a 3x3 window of a non-constant 0/1 image, indexed by
    # its nine cells as bits in row-major order, the center being bit 4.
    code = np.arange(512)
    center = (code >> 4) & 1
    s_code = np.zeros(512, dtype=np.int64)
    m_code = np.zeros(512, dtype=np.int64)
    for p, (dy, dx) in enumerate(_OFFSETS):
        neighbor = (code >> (3 * dy + dx + 4)) & 1
        s_code |= (neighbor | (1 - center)) << p
        m_code |= (neighbor ^ center) << p
    return (_RIU2[s_code] * 10 + _RIU2[m_code]) * 2 + center


_JOINT = _joint_table()


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
    and are skipped.  Only the windows that hold a set pixel are read; every
    other window is all zero, and they are counted together by subtraction.
    """
    img = np.asarray(aprime)
    if img.ndim != 2 or min(img.shape) < 3:
        raise FeatureError("local patterns need a 2-D image of size at least 3x3")
    h, w = img.shape
    flat = img.ravel()
    cells = np.flatnonzero(flat).astype(np.int32 if flat.size < 2**31 else np.int64)
    if (flat[cells] != 1).any():
        raise FeatureError("local patterns need a 0/1 image")
    interior = (h - 2) * (w - 2)
    counts = np.zeros(CLBP_BINS, dtype=np.int64)
    if cells.size in (0, img.size):
        # every window of a constant image falls in the all-set bin
        counts[(8 * 10 + 8) * 2 + 1] = interior
        return counts / interior
    ys, xs = np.divmod(cells, w)
    for r in range(9):
        # the interior windows that hold a set pixel at their cell r, each
        # counted only when r is its first set cell, so exactly once
        dy, dx = r // 3 - 1, r % 3 - 1
        keep = (ys - dy >= 1) & (ys - dy < h - 1) & (xs - dx >= 1) & (xs - dx < w - 1)
        center = cells[keep] - (dy * w + dx)
        code = np.zeros(center.size, dtype=np.int32)
        for q in range(9):
            code |= (flat[center + (q // 3 - 1) * w + q % 3 - 1] != 0).astype(np.int32) << q
        code = code[(code & -code) == 1 << r]
        counts += np.bincount(_JOINT[code], minlength=CLBP_BINS)
    counts[_JOINT[0]] += interior - counts.sum()
    return counts / interior


def hu_moments(aprime: np.ndarray) -> np.ndarray:
    """The seven moment invariants of the image, in the standard order.

    Raw moments are ``m_pq = sum x^p y^q I(x, y)`` with x the column and y
    the row index; central moments are taken about the centroid and
    normalized as ``eta_pq = mu_pq / m00^(1 + (p+q)/2)``.  All are read from
    the set pixels, each summed exactly rounded.  Each invariant is emitted
    through the signed log compression ``sign(phi) * log10(1 + |phi|)``: the
    raw invariants span many orders of magnitude, which would leave a plain
    Euclidean distance reading only the largest one.  The compression is
    monotone per dimension, keeps zeros at zero and preserves signs, so the
    translation/rotation invariances and the mirror sign flip of the seventh
    invariant carry over unchanged.
    """
    img = np.asarray(aprime)
    if img.ndim != 2:
        raise FeatureError("moments need a 2-D image")
    ys, xs = np.divmod(np.flatnonzero(img), img.shape[1])
    w = img[ys, xs].astype(np.float64)
    # A negative weight can make m00 zero or a moment's root complex, and a
    # NaN or infinite one makes every invariant NaN.
    bad = w[~((w >= 0) & (w < np.inf))]
    if bad.size:
        raise FeatureError(f"moment invariants need finite, non-negative pixel values, got {bad[0]}")
    m00 = math.fsum(w)
    if m00 == 0:
        raise FeatureError("moment invariants are undefined for an all-zero image")
    # x and y count from the first set column and row, so integer
    # translations are bit-exact no-ops.  fsum is exactly rounded, so each
    # moment depends only on the multiset of its terms: on a symmetric image
    # eta_pq and eta_qp sum the same terms, and phi7 comes out exactly 0.
    x = xs - xs.min()
    y = ys - ys.min()
    dx = x - math.fsum(w * x) / m00
    dy = y - math.fsum(w * y) / m00

    def eta(p: int, q: int) -> float:
        return math.fsum(w * (dx ** p * dy ** q)) / m00 ** (1 + (p + q) / 2)

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
    """Write one row per label.  A label that :func:`read_feature_csv` would
    not read back unchanged, one holding a comma, CR or LF or starting with
    whitespace, is refused before the file is opened."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != len(labels):
        raise FeatureError("features must be one row per label")
    for row, label in enumerate(map(str, labels), start=1):
        if label[:1].isspace() or any(c in label for c in ",\r\n"):
            raise FeatureError(
                f"{path}: row {row}: label {label!r} would not read back; a label "
                f"may not hold a comma, CR or LF, or start with whitespace"
            )
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
