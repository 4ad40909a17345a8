"""Sparse exact weight polynomials, partition functions and characters.

Everything here is integer-exact: polynomials are sorted int64 row blocks
of weights with nonzero integer coefficients, partition functions are
counted in one dense integer table per batch, and characters come from the
Freudenthal recursion.  Their independent cross-check is the Weyl sum of
``branching.branch_multiplicity`` on the torus Levi (no retained simple
roots), which is Kostant's weight-multiplicity formula.  A polynomial is
made once, by bucketing rows (``WeightPolynomial.from_rows``) or from
arrays already canonical, and then only read: it has no arithmetic.  The
one product made here, the Weyl denominator of ``_check_denominator``, is
bucketed on arrays factor by factor.

g and every Levi share one frame (``_Frame``): one batched dominant image,
a ``kernels.dominant_rows`` sort on each factor block of coordinates, and
the simple roots whose reflections generate its Weyl group.  Only g's
frame expands orbits (``orbits``): a block of dominant weights at once
under W, straight into the canonical arrays of a ``WeightPolynomial``.
Freudenthal's recursion (``dominant_multiplicities``) runs on root data only.
``decompose_character`` checks that a multiset is symmetric under each
simple reflection of the frame and decomposes it by Klimyk's formula: one
signed sort of its terms, so no Levi character is ever made.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import kernels
from .kernels import BudgetError
from .rootsys import LeviDatum, RootDatum, Weight, WeightError, chamber_cone_mask
from .weylgrp import levi_group, weyl_group

DEFAULT_CHAR_BUDGET = 2_000_000
# orbit images that ``_Frame.orbits`` makes at a time
ORBIT_CHUNK_ROWS = 1 << 16


class WeightPolynomial:
    """Finite formal sum of exponentials e^beta with integer coefficients.

    Stored as three parallel int64 arrays: the ``kernels.pack_rows`` keys in
    increasing order, the rows of doubled coordinates they encode (so the
    terms are in lexicographic order) and the coefficients, none of them
    zero.  The form is canonical, so equality is array equality.  A
    polynomial is read, never computed with: ``from_rows`` is the one
    constructor that buckets, and there is no arithmetic.  ``Weight``
    objects are made only where terms are read out one at a time.
    """

    __slots__ = ("_keys", "_rows", "_coeffs")

    def __init__(self, keys: np.ndarray, rows: np.ndarray, coeffs: np.ndarray):
        """From arrays already canonical, which is not checked: increasing
        ``pack_rows`` keys, the rows they encode and nonzero coefficients."""
        if not len(coeffs):
            keys, rows, coeffs = _NO_KEYS, _NO_ROWS, _NO_KEYS
        for arr in (keys, rows, coeffs):
            arr.flags.writeable = False
        self._keys, self._rows, self._coeffs = keys, rows, coeffs

    @classmethod
    def from_rows(cls, rows: np.ndarray, coeffs: np.ndarray) -> "WeightPolynomial":
        """The sum of c e^row over the rows, repeats summed and zeros dropped."""
        urows, sums, keys, _ = signed_bucket(rows, coeffs)
        keep = sums != 0
        return cls(keys[keep], urows[keep], sums[keep])

    def _cmax(self) -> int:
        return int(np.abs(self._coeffs).max()) if len(self._coeffs) else 0

    # -- read side -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self):
        return zip(map(Weight, self._rows.tolist()), self._coeffs.tolist())

    def coefficient(self, w: Weight) -> int:
        if not self or len(w) != self._rows.shape[1]:
            return 0
        try:
            key = kernels.pack_rows(np.array([w], dtype=np.int64))[0]
        except kernels.PackRangeError:
            return 0  # outside the packing range, so no stored term
        i = int(np.searchsorted(self._keys, key))
        return int(self._coeffs[i]) if i < len(self._keys) and self._keys[i] == key else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        return (np.array_equal(self._rows, other._rows)
                and np.array_equal(self._coeffs, other._coeffs))

    def dimension(self) -> int:
        """Sum of all coefficients (the dimension when this is a character)."""
        return int(self._coeffs.sum())

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> list:
        return [{"w": [x // 2 if x % 2 == 0 else x / 2 for x in row], "c": c}
                for row, c in zip(self._rows.tolist(), self._coeffs.tolist())]

    def __repr__(self):
        head = list(zip(map(Weight, self._rows[:6].tolist()), self._coeffs[:6].tolist()))
        inner = " + ".join(f"{c}*e^{w}" for w, c in head)
        more = "" if len(self) <= 6 else f" ... ({len(self)} terms)"
        return f"WeightPolynomial({inner}{more})"


_NO_KEYS = np.zeros(0, dtype=np.int64)
_NO_ROWS = np.zeros((0, 0), dtype=np.int64)


def _coefficient_guard(bound: int) -> None:
    """Refuse an operation whose int64 coefficients could lose exactness."""
    if bound >= kernels.MAX_COUNT:
        raise OverflowError(
            f"coefficients up to {bound} exceed the 2^62 exactness guard")


def signed_bucket(rows: np.ndarray, coeffs: np.ndarray, ids: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate rows, summing integer coefficients exactly.

    ``ids`` gives each row a member id (all 0 when omitted), and rows of
    different ids stay apart.  Returns the distinct (id, row) buckets as
    their rows, coefficient sums, ``kernels.pack_rows`` keys and ids, in
    increasing (id, key) order; key order is lexicographic row order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if rows.shape[0] == 0:
        return rows, coeffs, _NO_KEYS, _NO_KEYS
    keys = kernels.pack_rows(rows)
    order = np.argsort(keys, kind="stable") if ids is None else np.lexsort((keys, ids))
    keys = keys[order]
    ids = np.zeros(len(keys), dtype=np.int64) if ids is None else np.asarray(ids)[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])])
    sums = np.add.reduceat(coeffs[order], starts)
    return rows[order[starts]], sums, keys[starts], ids[starts]


# -- partition tables ---------------------------------------------------------

class PartitionTable:
    """Vector-partition counts over a fixed multiset of roots.

    Counts the ways to write a weight as an N-combination of ``roots``.
    Every ``count_rows`` call builds one dense table for its batch
    (``kernels.kostant_batch``); ``values`` records each count answered.
    """

    def __init__(self, roots, rank: int):
        self.root_list = tuple(sorted(roots))
        self._roots_arr = np.array(self.root_list, dtype=np.int64).reshape(-1, rank)
        for r, t in zip(self._roots_arr, kernels.prefix_sums(self._roots_arr)):
            if (r & 1).any() or (t < 0).any() or not t.any():
                raise WeightError(
                    f"root {tuple(r.tolist())} has no nonnegative nonzero prefix-sum vector")
        self.values: dict[Weight, int] = {}

    def count_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        out = kernels.kostant_batch(rows, self._roots_arr)
        self.values.update(zip(map(Weight, rows.tolist()), out.tolist()))
        return out


@lru_cache(maxsize=None)
def levi_table(levi: LeviDatum) -> PartitionTable:
    rbar = set(levi.rbar_plus)
    roots = [a for a in levi.parent.positive_roots if a not in rbar]
    return PartitionTable(roots, levi.parent.rank)


# -- frames: a uniform view of a datum or a Levi ------------------------------

class _Frame:
    """Positive roots and Weyl vector of either g or the Levi.

    ``dominant`` is the frame's one batched dominant image.  Rows are int64
    doubled coordinates.  ``blocks`` are the factor blocks it reads
    (``LeviDatum.blocks``, one block for g) with their
    ``kernels.FAMILY_CODE``, less the lone gl coordinates, whose groups are
    trivial.  ``simple_roots`` are Sbar for a Levi and S for g.
    """

    def __init__(self, owner):
        self.owner = owner
        if isinstance(owner, LeviDatum):
            self.datum = owner.parent
            self.rho = owner.rho_bar
            positive_roots, simple_roots, blocks = owner.rbar_plus, owner.sbar_roots, owner.blocks
        else:
            self.datum = owner
            self.rho = owner.rho
            positive_roots, simple_roots = owner.positive_roots, owner.simple_roots
            blocks = [(0, owner.rank, owner.family, False)]  # the Levi on all of S
        self.n = self.datum.rank
        self.blocks = [(lo, hi, kernels.FAMILY_CODE[fam], flip)
                       for lo, hi, fam, flip in blocks if hi - lo > 1 or fam != "GL"]
        self.roots = np.array(positive_roots, dtype=np.int64).reshape(-1, self.n)
        self.simple_roots = np.array(simple_roots, dtype=np.int64).reshape(-1, self.n)
        self.two_rho = self.roots.sum(axis=0)  # doubled coords of 2*rho_frame

    def dominant(self, rows: np.ndarray) -> np.ndarray:
        """The frame-dominant image of every row.

        The frame's Weyl group is the product of its factor blocks' groups,
        so each block's coordinates get the dominant image of the block's
        family (``kernels.dominant_rows``), g's included: a sort, with
        signs in B, C and D.  A ``flip`` block sorts with its last
        coordinate negated, and negates it back.
        """
        out = np.array(rows, dtype=np.int64)
        for lo, hi, code, flip in self.blocks:
            block = out[:, lo:hi]  # a view, written in place
            if flip:
                block[:, -1] *= -1
            block[...] = kernels.dominant_rows(block, code)
            if flip:
                block[:, -1] *= -1
        return out

    def orbits(self, doms: np.ndarray, limit: float = math.inf):
        """The disjoint orbits of the distinct frame-dominant rows ``doms``:
        their points' ``pack_rows`` keys in increasing order, the points and
        each point's row in ``doms``.  A chunk of up to ``ORBIT_CHUNK_ROWS``
        images takes one ``orbit_images``, ``pack_rows`` and ``np.unique`` call;
        past ``limit`` points it raises ``BudgetError``.  Chunks are merged.
        Only g's frame expands orbits: a Levi's raises ``TypeError``."""
        if self.owner is not self.datum:
            raise TypeError(f"orbits are expanded under W only, not under {self.owner.describe()}")
        doms = np.asarray(doms, dtype=np.int64).reshape(-1, self.n)
        sorted_keys = np.sort(kernels.pack_rows(doms))  # np.unique would import numpy.ma
        if (sorted_keys[1:] == sorted_keys[:-1]).any() or (self.dominant(doms) != doms).any():
            raise WeightError("orbit representatives must be distinct and frame-dominant")
        perm, sign, _ = weyl_group(self.datum).arrays
        step = max(1, ORBIT_CHUNK_ROWS // len(perm))
        parts, total = [], 0
        for lo in range(0, max(len(doms), 1), step):  # one chunk when doms is empty
            img = kernels.orbit_images(perm, sign, doms[lo:lo + step])
            keys, first = np.unique(kernels.pack_rows(img), return_index=True)
            parts.append((keys, img[first], lo + first // len(perm)))
            total += len(keys)
            if total > limit:
                raise BudgetError(f"expansion needs more than the budget of {limit} orbit points")
        if len(parts) == 1:
            return parts[0]
        keys, rows, owner = map(np.concatenate, zip(*parts))
        del parts
        order = np.argsort(keys, kind="stable")  # timsort merges the sorted chunks
        return keys[order], rows[order], owner[order]

    def weyl_dim(self, mu: Weight) -> int:
        # Python-int products of the int64 pairings: exact at any size
        num = math.prod((np.array(mu + self.rho, dtype=np.int64) @ self.roots.T).tolist())
        den = math.prod((np.array(self.rho, dtype=np.int64) @ self.roots.T).tolist())
        q, r = divmod(num, den)
        if r != 0:
            raise WeightError(f"Weyl dimension of {mu} is not integral")
        return q


@lru_cache(maxsize=None)
def _frame_for(owner) -> _Frame:
    return _Frame(owner)


# -- Freudenthal characters ----------------------------------------------------

def dominants_below(datum: RootDatum, top: Weight) -> tuple[Weight, ...]:
    """All dominant weights ``nu`` of the root datum with ``nu`` <= ``top``.

    Breadth first from ``top``: the whole frontier steps down by every
    positive root, takes its dominant images in one batch and keeps those
    still below ``top`` by one cone test.
    """
    frame = _frame_for(datum)
    top_row = np.array(top, dtype=np.int64)
    seen = {top}
    frontier = top_row[None, :]
    while len(frontier):
        cand = frame.dominant((frontier[:, None, :] - frame.roots).reshape(-1, frame.n))
        cand = cand[chamber_cone_mask(datum.family, top_row - cand)]
        fresh = set(map(tuple, cand.tolist())) - seen
        seen |= fresh
        frontier = np.array(list(fresh), dtype=np.int64).reshape(-1, frame.n)
    return tuple(sorted(map(Weight, seen)))


def dominant_multiplicities(datum: RootDatum, lam: Weight) -> dict:
    """Weight multiplicities of the irreducible of g with highest weight
    ``lam``, recorded on dominant representatives by Freudenthal's recursion,
    exact.  A Levi raises ``TypeError``: ``decompose_character`` needs no
    Levi character.

    For each nu the xi = nu + k a, over the positive roots a and
    1 <= k <= <lam - nu, 2 rho> / <a, 2 rho> (higher xi are not weights),
    need no multiplicity, so those of every nu take their dominant images in
    one batch, and the sum runs over the xi whose image has a multiplicity.
    That is the sum that stops each a-string at its first miss, because
    a-strings through weights are unbroken.
    """
    if isinstance(datum, LeviDatum):
        raise TypeError(f"dominant multiplicities are made under W only, "
                        f"not under {datum.describe()}")
    if not datum.is_dominant(lam):
        raise WeightError(f"{lam} is not dominant for {datum}")
    frame = _frame_for(datum)
    doms = dominants_below(datum, lam)
    lam_row = np.array(lam, dtype=np.int64)
    heights = dict(zip(doms, ((lam_row - np.array(doms)) @ frame.two_rho).tolist()))
    nus = sorted((nu for nu in doms if nu != lam), key=lambda nu: (heights[nu], nu))
    # nus[i] has an xi at k = 1 .. steps[i, j] along root j
    steps = (np.array([heights[nu] for nu in nus], dtype=np.int64)[:, None]
             // (frame.roots @ frame.two_rho))
    i, j, k = np.nonzero(steps[:, :, None] > np.arange(steps.max(initial=0)))
    xi = np.array(nus, dtype=np.int64).reshape(-1, frame.n)[i] + (k + 1)[:, None] * frame.roots[j]
    images = list(map(tuple, frame.dominant(xi).tolist()))
    dots = (xi * frame.roots[j]).sum(axis=1).tolist()
    mult = {lam: 1}
    lam_norm = (lam + frame.rho).dot4(lam + frame.rho)
    start = 0
    for nu, end in zip(nus, np.cumsum(steps.sum(axis=1)).tolist()):
        num = 0
        for dom, dot in zip(images[start:end], dots[start:end]):
            m = mult.get(dom)
            if m is not None:
                num += m * dot
        start = end
        denom = lam_norm - (nu + frame.rho).dot4(nu + frame.rho)
        if denom <= 0:
            raise WeightError(f"Freudenthal denominator vanished at {nu}")
        q, r = divmod(2 * num, denom)
        if r != 0:
            raise WeightError(f"Freudenthal division failed at {nu}")
        mult[nu] = q
    return mult


def weyl_character(datum: RootDatum, lam: Weight) -> WeightPolynomial:
    """Full weight multiset of the irreducible of g with highest weight ``lam``.

    The dominant multiplicities (``dominant_multiplicities``) go on the
    orbits of one ``_Frame.orbits`` call, so a Levi raises ``TypeError``;
    the result is validated against the Weyl dimension formula on every call.
    """
    frame = _frame_for(datum)
    datum.require_dominant(lam)
    dim = frame.weyl_dim(lam)
    if dim > DEFAULT_CHAR_BUDGET:
        raise BudgetError(
            f"character of {lam} has dimension {dim} > budget {DEFAULT_CHAR_BUDGET}")
    mult = dominant_multiplicities(datum, lam)
    m = np.fromiter(mult.values(), np.int64, len(mult))
    keys, rows, orbit = frame.orbits(list(mult))
    total = int(m @ np.bincount(orbit, minlength=len(m)))
    if total != dim:
        raise WeightError(
            f"character size {total} disagrees with the dimension formula {dim}")
    return WeightPolynomial(keys, rows, m[orbit])


# -- the Weyl denominator ------------------------------------------------------

@lru_cache(maxsize=None)
def _rho_drops(levi: LeviDatum):
    """The rows rho_bar - w(rho_bar) over the Levi Weyl group, and their signs.

    Checked once per Levi, when first made, by ``_check_denominator``.
    """
    perm, sign, eps = levi_group(levi).arrays
    rho = np.array(levi.rho_bar, dtype=np.int64)
    drops = rho[None, :] - kernels.orbit_images(perm, sign, rho)
    _check_denominator(levi, drops, eps)
    drops.flags.writeable = False  # shared by every caller
    return drops, eps


def _check_denominator(levi: LeviDatum, drops: np.ndarray, eps: np.ndarray) -> None:
    """The Weyl denominator identity on the signed rows of ``_rho_drops``.

    As a polynomial, sum eps(w) e^(rho_bar - w(rho_bar)) must equal the
    product of (1 - e^alpha) over the Levi positive roots, which reads the
    roots alone.  The product starts from e^0 and takes one factor at a
    time: its rows with the rows + alpha, its coefficients with their
    negatives, bucketed by ``WeightPolynomial.from_rows`` after each factor,
    so zero terms drop at once.  A factor at most doubles the largest
    coefficient, and the 2^62 exactness guard checks that before each one.
    The terms rho_bar - w(rho_bar) are distinct, so a wrong sign, a missing
    or a foreign group element, or a wrong row shows.
    """
    n = levi.parent.rank
    product = WeightPolynomial.from_rows(np.zeros((1, n), dtype=np.int64),
                                         np.ones(1, dtype=np.int64))
    for a in np.array(levi.rbar_plus, dtype=np.int64).reshape(-1, n):
        _coefficient_guard(2 * product._cmax())
        rows, coeffs = product._rows, product._coeffs
        product = WeightPolynomial.from_rows(np.concatenate((rows, rows + a)),
                                             np.concatenate((coeffs, -coeffs)))
    if product != WeightPolynomial.from_rows(drops, eps):
        raise WeightError(
            f"the signed Levi Weyl group rows of {levi.describe()} break the "
            "Weyl denominator identity")


# -- decomposition by Klimyk's formula ------------------------------------------

def decompose_character(owner, poly: WeightPolynomial) -> dict:
    """Decompose a symmetric nonnegative weight multiset into irreducibles.

    Exact: raises if the multiset is not a nonnegative combination of
    characters.  First the symmetry under the frame's Weyl group, which its
    simple reflections generate: each simple reflection s_a, the integer
    matrix 1 - 2 a a^T / <a, a> (a signed permutation for every classical
    simple root, so exact and inside the packing range), must map every
    term to a term with the same coefficient.

    A symmetric multiset sum c_x e^x is then, by Klimyk's formula (the
    Racah-Speiser rule), the sum of eps(w) c_x chi(w(x + rho) - rho) over
    its terms, with w the element that sorts x + rho into the dominant
    chamber of the frame.  eps(w) is the sign of the product of the pairings
    <x + rho, a> over the frame's positive roots a (l(w) counts the roots
    a with w(a) negative, which pair negatively with x + rho), and a term
    with x + rho on a wall pairs to 0 and drops out.  So one ``dominant``
    image and one ``signed_bucket`` give every multiplicity, with no Weyl
    element and no Levi character.  The result, by decreasing (height
    against 2 rho of the frame, weight), is checked once against the Weyl
    dimension formula: sum m(nu) dim(nu) is the multiset's total.
    """
    frame = _frame_for(owner)
    keys, rows, coeffs = poly._keys, poly._rows, poly._coeffs
    if not len(coeffs):
        return {}
    for a in frame.simple_roots:
        reflection = np.eye(frame.n, dtype=np.int64) - np.outer(2 * a, a) // (a @ a)
        image_keys = kernels.pack_rows(rows @ reflection)
        image = np.minimum(np.searchsorted(keys, image_keys), len(keys) - 1)
        same = (keys[image] == image_keys) & (coeffs[image] == coeffs)
        if not same.all():
            x = np.argmin(same)
            y = Weight((rows[x] @ reflection).tolist())
            raise WeightError(
                f"multiset is not symmetric: the reflection in {Weight(a.tolist())} maps "
                f"the term {coeffs[x]}*e^{Weight(rows[x].tolist())} to {y}, whose "
                f"coefficient is {poly.coefficient(y)}")
    _coefficient_guard(poly._cmax() * len(coeffs))  # bounds each multiplicity's sum
    rho = np.array(frame.rho, dtype=np.int64)
    shifted = rows + rho
    eps = np.sign(shifted @ frame.roots.T).prod(axis=1)
    regular = eps != 0
    nus, mult, nu_keys, _ = signed_bucket(frame.dominant(shifted[regular]) - rho,
                                          (eps * coeffs)[regular])
    # keys sort like the rows, so this is (height, weight), highest first
    order = np.lexsort((nu_keys, nus @ frame.two_rho))[::-1]
    order = order[mult[order] != 0]
    out = dict(zip(map(Weight, nus[order].tolist()), mult[order].tolist()))
    total = sum(m * frame.weyl_dim(nu) for nu, m in out.items())
    if total != poly.dimension():
        raise WeightError(f"the multiplicities give {total} weights by the dimension "
                          f"formula, but the multiset has {poly.dimension()}")
    for nu, m in out.items():
        if m < 0:
            raise WeightError(f"negative multiplicity {m} at {nu}")
    return out
