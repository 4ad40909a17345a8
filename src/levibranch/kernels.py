"""Hot integer array kernels, in numpy and plain Python.

Every value is an exact integer; rows carry doubled coordinates.

Kernels:

* ``orbit_images``   -- apply every signed permutation of a group to a vector,
* ``dominant_rows``  -- per-row dominant representative (sort normal form),
* ``kostant_batch``  -- memoised vector-partition counts over a root list.

Row packing (``pack_rows``) encodes small integer rows into int64 keys whose
order is the lexicographic order of the rows.
"""

from __future__ import annotations

import numpy as np

MAX_COUNT = 1 << 62


class PackRangeError(ValueError):
    """Coordinates too large for the fixed-width int64 row encoding."""


def pack_spec(n: int) -> tuple[int, int]:
    """Bits per coordinate and offset for packing rows of width ``n``."""
    if n < 1:
        raise PackRangeError("empty rows cannot be packed")
    bits = 63 // n
    if bits < 4:
        raise PackRangeError(f"rank {n} too large for int64 packing")
    return bits, 1 << (bits - 1)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Encode integer rows into distinct nonnegative int64 keys (exact).

    Coordinate 0 is the most significant field, so sorting the keys sorts
    the rows lexicographically.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    bits, offset = pack_spec(n)
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
    """Row w is ``signs[w] * vec[perms[w]]``: one row per group element."""
    return signs * vec[perms]


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


# -- partition-function evaluation ------------------------------------------

def kostant_batch(rows: np.ndarray, roots: np.ndarray,
                  fcoef: np.ndarray, memo: dict) -> np.ndarray:
    """Vector-partition counts; explicit-stack DP with a shared memo.

    ``memo`` maps ``(tuple(row), k)`` to the number of ways to write the row
    as an N-combination of the first k roots.  Roots and rows carry doubled
    coordinates; ``fcoef`` is a functional positive on every root, so a row
    on which it is negative has no such expression.
    """
    m = roots.shape[0]
    out = np.zeros(rows.shape[0], dtype=np.int64)
    root_tuples = [tuple(int(c) for c in roots[j]) for j in range(m)]
    fcoef_t = tuple(int(c) for c in fcoef)

    def feasible(vec):
        if any(c & 1 for c in vec):
            return False
        f = sum(a * b for a, b in zip(vec, fcoef_t))
        return f >= 0

    for idx in range(rows.shape[0]):
        target = tuple(int(c) for c in rows[idx])
        if not feasible(target):
            continue
        stack = [(target, m)]
        while stack:
            vec, k = stack[-1]
            key = (vec, k)
            if key in memo:
                stack.pop()
                continue
            if not any(vec):
                memo[key] = 1
                stack.pop()
                continue
            if k == 0:
                memo[key] = 0
                stack.pop()
                continue
            missing = False
            k1 = (vec, k - 1)
            v1 = memo.get(k1)
            if v1 is None:
                stack.append(k1)
                missing = True
            child = tuple(a - b for a, b in zip(vec, root_tuples[k - 1]))
            if feasible(child):
                k2 = (child, k)
                v2 = memo.get(k2)
                if v2 is None:
                    stack.append(k2)
                    missing = True
            else:
                v2 = 0
            if missing:
                continue
            total = v1 + v2
            if total >= MAX_COUNT:
                raise OverflowError("partition count exceeds the 2^62 guard")
            memo[key] = total
            stack.pop()
        out[idx] = memo[(target, m)]
    return out
