"""Hot integer array kernels, in numpy.

Every value is an exact integer; rows carry doubled coordinates.

Kernels:

* ``orbit_images``   -- apply every signed permutation of a group to a vector
  or to each vector of a block,
* ``dominant_rows``  -- per-row dominant representative (sort normal form)
  for GL, B, C or D; ``weightpoly`` frames apply it to each factor block of
  g or of a Levi,
* ``dominant_elements`` -- per row, the Weyl element (perm, sign) of that
  sort; ``dominant_representative``, the transversal and the w0 and Coxeter
  element of the M-function checks read their elements off it, so the sort
  order and the D sign rule live here only,
* ``kostant_batch``  -- vector-partition counts over a root list, from one
  dense table per batch.

Row packing (``pack_rows``) encodes small integer rows into int64 keys whose
order is the lexicographic order of the rows.
"""

from __future__ import annotations

import numpy as np

MAX_COUNT = 1 << 62
# bound on the doubled coordinates of a weight: prefix sums over up to 64
# coordinates of a row or of a difference of two rows, and pairings with
# roots (entries at most 4), stay far inside int64
MAX_COORDINATE = 1 << 52


class PackRangeError(ValueError):
    """Coordinates too large for int64 rows or their fixed-width encoding."""


class BudgetError(RuntimeError):
    """A character, expansion or table would exceed the configured size budget."""


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Encode integer rows into distinct nonnegative int64 keys (exact).

    Coordinate 0 is the most significant field of 63 // n bits, so sorting
    the keys sorts the rows lexicographically.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    if n < 1:
        raise PackRangeError("empty rows cannot be packed")
    bits = 63 // n
    if bits < 4:
        raise PackRangeError(f"rank {n} too large for int64 packing")
    offset = 1 << (bits - 1)
    if rows.size and int(np.abs(rows).max()) >= offset:
        raise PackRangeError(
            f"|coordinate| >= {offset} cannot be packed at rank {n}")
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(n):
        keys |= (rows[:, i] + offset) << (bits * (n - 1 - i))
    return keys


# -- orbit images ----------------------------------------------------------

def orbit_images(perms: np.ndarray, signs: np.ndarray,
                 vec: np.ndarray) -> np.ndarray:
    """Row w is ``signs[w] * vec[perms[w]]``: one row per group element.
    A block of d vectors, shape (d, n), gives d |W| rows, vector by vector."""
    img = np.take(vec, perms, axis=-1)
    img *= signs
    return img.reshape(-1, vec.shape[-1])


# -- dominant representatives ----------------------------------------------

FAMILY_CODE = {"GL": 0, "B": 1, "C": 1, "D": 2}


def dominant_rows(rows: np.ndarray, code: int) -> np.ndarray:
    """The dominant Weyl image of every row; ``code`` is a ``FAMILY_CODE``."""
    if code == 0:
        return -np.sort(-rows, axis=1)
    srt = -np.sort(-np.abs(rows), axis=1)
    if code == 2:
        odd = (np.count_nonzero(rows < 0, axis=1) & 1).astype(bool)
        srt[odd, -1] = -srt[odd, -1]
    return srt


def dominant_elements(rows: np.ndarray, code: int) -> tuple[np.ndarray, np.ndarray]:
    """The element (perm, sign) of the sort normal form of every row:
    ``sign * row[perm]`` is the row's ``dominant_rows`` image.

    A stable argsort by decreasing value (GL) or |value| (B, C, D), so tied
    coordinates keep their order; each sign is that of the coordinate it
    moves, and in D an odd number of negative coordinates flips the last
    sign, so every element has an even number of sign changes.
    """
    if code == 0:
        perm = np.argsort(-rows, axis=1, kind="stable")
        return perm, np.ones_like(perm)
    perm = np.argsort(-np.abs(rows), axis=1, kind="stable")
    sign = 1 - 2 * (rows < 0)[np.arange(len(rows))[:, None], perm]
    if code == 2:
        sign[:, -1] *= sign.prod(axis=1)  # -1 exactly when the count is odd
    return perm, sign


# -- partition-function evaluation ------------------------------------------

# int64 cells of the largest partition table (40 MB); tests need 43,225 at most
MAX_TABLE_CELLS = 5_000_000


def prefix_sums(rows: np.ndarray) -> np.ndarray:
    """T(v): the prefix sums of the true coordinates of even rows."""
    return np.cumsum(rows, axis=1) >> 1


def kostant_batch(rows: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Vector-partition counts of ``rows`` over ``roots`` from one dense table.

    Rows and roots carry doubled coordinates.  T = ``prefix_sums`` maps each
    positive root of GL, B, C and D to a nonzero nonnegative vector, so all
    that lies below a row t is in the box [0, T(t)]: one table over the box
    of the countable rows, on the axes some root touches, answers the batch.
    From table[0] = 1 each root r makes the unbounded-knapsack pass
    table[x] += table[x - r], slab by slab along its first nonzero axis.  Odd
    rows and rows with a negative T coordinate, or a nonzero one on an
    untouched axis, count 0 and stay out of the box.
    """
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(rows.shape[0], dtype=np.int64)
    troots = prefix_sums(np.asarray(roots, dtype=np.int64))
    axes = np.flatnonzero(troots.any(axis=0))
    t = prefix_sums(rows)
    ok = ((rows & 1) == 0).all(axis=1) & (t >= 0).all(axis=1)
    ok &= (np.delete(t, axes, axis=1) == 0).all(axis=1)
    if not ok.any():
        return out
    t = t[ok][:, axes]
    shape = tuple(int(s) + 1 for s in t.max(axis=0))
    cells = int(np.prod(shape, dtype=object))
    if cells > MAX_TABLE_CELLS:
        raise BudgetError(
            f"partition table needs {cells} cells > limit {MAX_TABLE_CELLS}")
    table = np.zeros(shape, dtype=np.int64)
    table.flat[0] = 1
    for r in troots[:, axes].tolist():
        if any(c >= s for c, s in zip(r, shape)):
            continue  # the root does not fit in the box
        a = next(i for i, c in enumerate(r) if c)
        dst = [slice(c, None) for c in r]
        src = [slice(0, s - c) for c, s in zip(r, shape)]
        for s in range(r[a], shape[a]):
            # one-cell slices keep the slab a view of the table
            dst[a], src[a] = slice(s, s + 1), slice(s - r[a], s - r[a] + 1)
            slab = table[tuple(dst)]
            slab += table[tuple(src)]
            # entries stay below 2^62, so no add can wrap int64
            if int(slab.max()) >= MAX_COUNT:
                raise OverflowError("partition count exceeds the 2^62 guard")
    out[ok] = table[tuple(t.T)]
    return out
