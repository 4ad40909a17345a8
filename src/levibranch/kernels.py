"""Hot array kernels: a numba-jitted path and a pure-numpy/python fallback.

Set ``LEVIBRANCH_NUMBA=0`` to force the fallback.  The twin implementations
must agree exactly -- values are integers throughout and the tests exercise
both backends.

Kernels:

* ``orbit_images``   -- apply every signed permutation of a group to a vector,
* ``dominant_rows``  -- per-row dominant representative (sort normal form),
* ``kostant_batch``  -- memoised vector-partition counts over a root list.

Row packing (``pack_rows``) encodes small integer rows into int64 keys whose
order is the lexicographic order of the rows; it is shared by both paths.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("LEVIBRANCH_NUMBA", "").strip().lower()
_want_numba = _env not in {"0", "off", "false", "no"}

HAVE_NUMBA = False
if _want_numba:
    try:
        from numba import njit
        from numba.core import types as _nbt
        from numba.typed import Dict as _NumbaDict

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"

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


def key3_py(vec, k: int) -> tuple[int, int, int]:
    """Python mirror of the jitted DP key (16-bit fields over two int64)."""
    a = 0
    b = 0
    for i, c in enumerate(vec):
        c = int(c) + 32768
        if not 0 <= c <= 65535:
            raise PackRangeError("coordinate out of the 16-bit DP key range")
        if i < 4:
            a |= c << (16 * i)
        else:
            b |= c << (16 * (i - 4))
    return (a, b, int(k))


# -- orbit images ----------------------------------------------------------

def _orbit_images_numpy(perms: np.ndarray, signs: np.ndarray,
                        vec: np.ndarray) -> np.ndarray:
    return signs * vec[perms]


# -- dominant representatives ----------------------------------------------

FAMILY_CODE = {"GL": 0, "B": 1, "C": 1, "D": 2}


def _dominant_rows_numpy(rows: np.ndarray, code: int) -> np.ndarray:
    if code == 0:
        return -np.sort(-rows, axis=1)
    srt = -np.sort(-np.abs(rows), axis=1)
    if code == 2:
        odd = (np.count_nonzero(rows < 0, axis=1) & 1).astype(bool)
        srt[odd, -1] = -srt[odd, -1]
    return srt


# -- partition-function evaluation ------------------------------------------

def _kostant_batch_python(rows: np.ndarray, roots: np.ndarray,
                          fcoef: np.ndarray, memo: dict) -> np.ndarray:
    """Vector-partition counts; explicit-stack DP with a shared memo.

    ``memo`` maps (coords..., k) -> count of ways to express the vector with
    the first k roots.  Roots and rows carry doubled coordinates.
    """
    m = roots.shape[0]
    froots = [int(fcoef @ roots[j]) for j in range(m)]
    out = np.zeros(rows.shape[0], dtype=np.int64)
    root_tuples = [tuple(int(c) for c in roots[j]) for j in range(m)]

    def feasible(vec):
        if any(c & 1 for c in vec):
            return False
        f = sum(a * b for a, b in zip(vec, fcoef_t))
        return f >= 0

    fcoef_t = tuple(int(c) for c in fcoef)

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


def new_memo_python() -> dict:
    return {}


if HAVE_NUMBA:

    @njit(cache=True)
    def _orbit_images_numba(perms, signs, vec):  # pragma: no cover - jitted
        nw, n = perms.shape
        out = np.empty((nw, n), np.int64)
        for w in range(nw):
            for i in range(n):
                out[w, i] = signs[w, i] * vec[perms[w, i]]
        return out

    @njit(cache=True)
    def _dominant_rows_numba(rows, code):  # pragma: no cover - jitted
        nw, n = rows.shape
        out = np.empty((nw, n), np.int64)
        for w in range(nw):
            neg = 0
            for i in range(n):
                v = rows[w, i]
                if v < 0:
                    neg += 1
                out[w, i] = v if code == 0 else abs(v)
            # insertion sort, descending
            for i in range(1, n):
                v = out[w, i]
                j = i - 1
                while j >= 0 and out[w, j] < v:
                    out[w, j + 1] = out[w, j]
                    j -= 1
                out[w, j + 1] = v
            if code == 2 and neg % 2 == 1:
                out[w, n - 1] = -out[w, n - 1]
        return out

    _KEY3 = _nbt.UniTuple(_nbt.int64, 3)

    @njit(cache=True)
    def _key3(vec, k):  # pragma: no cover - jitted
        n = vec.shape[0]
        a = np.int64(0)
        b = np.int64(0)
        for i in range(n):
            c = vec[i] + 32768
            if c < 0 or c > 65535:
                raise OverflowError("coordinate out of the 16-bit DP key range")
            if i < 4:
                a |= c << (16 * i)
            else:
                b |= c << (16 * (i - 4))
        return (a, b, np.int64(k))

    @njit(cache=True)
    def _kostant_batch_numba(rows, roots, fcoef, memo):  # pragma: no cover
        nrows, n = rows.shape
        m = roots.shape[0]
        out = np.zeros(nrows, np.int64)
        cap = 1024
        stack = np.empty((cap, n), np.int64)
        ks = np.empty(cap, np.int64)
        for idx in range(nrows):
            odd = False
            f = np.int64(0)
            for i in range(n):
                if rows[idx, i] & 1:
                    odd = True
                f += rows[idx, i] * fcoef[i]
            if odd or f < 0:
                continue
            top = 0
            for i in range(n):
                stack[top, i] = rows[idx, i]
            ks[top] = m
            top += 1
            while top > 0:
                vec = stack[top - 1]
                k = ks[top - 1]
                key = _key3(vec, k)
                if key in memo:
                    top -= 1
                    continue
                zero = True
                for i in range(n):
                    if vec[i] != 0:
                        zero = False
                        break
                if zero:
                    memo[key] = 1
                    top -= 1
                    continue
                if k == 0:
                    memo[key] = 0
                    top -= 1
                    continue
                missing = False
                v1 = np.int64(0)
                key1 = _key3(vec, k - 1)
                if key1 in memo:
                    v1 = memo[key1]
                else:
                    if top >= cap:
                        newstack = np.empty((2 * cap, n), np.int64)
                        newks = np.empty(2 * cap, np.int64)
                        newstack[:cap] = stack
                        newks[:cap] = ks
                        stack = newstack
                        ks = newks
                        cap *= 2
                    for i in range(n):
                        stack[top, i] = vec[i]
                    ks[top] = k - 1
                    top += 1
                    missing = True
                    vec = stack[top - 2]  # stack may have been reallocated
                v2 = np.int64(0)
                fc = np.int64(0)
                odd2 = False
                for i in range(n):
                    c = vec[i] - roots[k - 1, i]
                    if c & 1:
                        odd2 = True
                    fc += c * fcoef[i]
                if not odd2 and fc >= 0:
                    childkey = _key3(vec - roots[k - 1], k)
                    if childkey in memo:
                        v2 = memo[childkey]
                    else:
                        if top >= cap:
                            newstack = np.empty((2 * cap, n), np.int64)
                            newks = np.empty(2 * cap, np.int64)
                            newstack[:cap] = stack
                            newks[:cap] = ks
                            stack = newstack
                            ks = newks
                            cap *= 2
                        for i in range(n):
                            stack[top, i] = vec[i] - roots[k - 1, i]
                        ks[top] = k
                        top += 1
                        missing = True
                if missing:
                    continue
                total = v1 + v2
                if total >= MAX_COUNT:
                    raise OverflowError("partition count exceeds the 2^62 guard")
                memo[key] = total
                top -= 1
            out[idx] = memo[_key3(rows[idx], m)]
        return out

    def new_memo_numba():
        return _NumbaDict.empty(key_type=_KEY3, value_type=_nbt.int64)

    orbit_images = _orbit_images_numba
    dominant_rows = _dominant_rows_numba
    kostant_batch = _kostant_batch_numba
    new_memo = new_memo_numba
else:
    orbit_images = _orbit_images_numpy
    dominant_rows = _dominant_rows_numpy
    kostant_batch = _kostant_batch_python
    new_memo = new_memo_python

# the twins stay importable under either backend so the tests and the
# benchmark can compare them directly
orbit_images_numpy = _orbit_images_numpy
dominant_rows_numpy = _dominant_rows_numpy
kostant_batch_python = _kostant_batch_python
