"""Weyl groups as arrays of signed permutations: enumeration, actions, cosets.

A group is three int64 arrays, one row per element in element order
(permutations lexicographically, then sign patterns lexicographically,
+ before -): ``perm`` and ``sign`` (|G| x n) and ``eps``, the sign
character.  Row w acts by ``act(w, b)[i] = sign[w, i] * b[perm[w, i]]``.
W, the Levi Weyl groups and the stabilisers are products over factor
blocks (``LeviDatum.blocks``, one block for W) of classical groups: every
permutation of a block's coordinates against every admissible sign vector,
built in element order, each under the constant ``DEFAULT_GROUP_GUARD``.
``signed_search`` grows signed permutations position by position under a
caller's test (the Weyl alternation sets, the transversal); the diagram
automorphisms filter a conjugate of a stabiliser block group with the
Levi cone test.  Neither enumerates W; one ``np.lexsort`` puts the
transversal and the automorphisms in element order.  No group is iterated
element by element.  A ``WeylElement`` is one element: the one
``kernels.dominant_elements`` gives for a weight
(``dominant_representative``) or the one a verdict carries
(``WeylGroup.element``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .rootsys import (LeviDatum, RootDatum, RootSystemError, Weight,
                      build_levi, chamber_cone_mask)

# the most group elements, partial elements at a search position or box
# weights that are ever enumerated
DEFAULT_GROUP_GUARD = 2_000_000


class GroupSizeError(RuntimeError):
    """The requested enumeration exceeds the group guard."""

    def __init__(self, label: str, size: int):
        super().__init__(f"|{label}| = {size} exceeds the guard {DEFAULT_GROUP_GUARD}")
        self.size = size


@dataclass(frozen=True)
class WeylElement:
    """Signed permutation; ``signs`` are +-1, all +1 in type GL."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def act(self, beta: Weight) -> Weight:
        return Weight(self.signs[i] * beta[self.perm[i]] for i in range(len(self.perm)))

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm], "signs": list(self.signs)}


class WeylGroup:
    """Elements of W (a subgroup, or a transversal) as int64 arrays in element order."""

    def __init__(self, perm: np.ndarray, sign: np.ndarray):
        self.perm = perm
        self.sign = sign
        self.eps = np.where(_lehmer(perm).sum(axis=1) & 1, -1, 1) * sign.prod(axis=1)

    def __len__(self) -> int:
        return len(self.perm)

    @property
    def arrays(self):
        """(perm, sign, eps) as C-contiguous int64 arrays for the kernels."""
        return self.perm, self.sign, self.eps

    def element(self, i: int) -> WeylElement:
        """Row ``i`` as one ``WeylElement``."""
        return WeylElement(tuple(self.perm[i].tolist()), tuple(self.sign[i].tolist()))

    def to_json(self) -> list:
        """``WeylElement.to_json`` of every row, read off the arrays."""
        return [{"perm": p, "signs": s}
                for p, s in zip((self.perm + 1).tolist(), self.sign.tolist())]


def _lehmer(perm: np.ndarray) -> np.ndarray:
    """Lehmer code of each row: c[i] = #{j > i : perm[j] < perm[i]}.

    Column by column on a transposed int16 copy (entries are below n), so
    every comparison reads and writes contiguous memory.
    """
    n = perm.shape[1]
    cols = perm.T.astype(np.int16)
    code = np.zeros(cols.shape, dtype=np.int16)
    for i in range(n - 1):
        for j in range(i + 1, n):
            code[i] += cols[j] < cols[i]
    return code.T


def _signed_perms(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The group of ``family`` on n coordinates as its permutations and its
    sign vectors, each in element order.

    Every permutation goes with every admissible sign vector: none negative
    in GL, all in B and C, an even number in D.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64)
    if family == "GL":
        signs = signs[:1]
    elif family == "D":
        signs = signs[signs.prod(axis=1) == 1]
    return perms, signs


@lru_cache(maxsize=None)
def _block_group(n: int, blocks: tuple) -> WeylGroup:
    """The product of the factor blocks' groups on n coordinates, in element order.

    Block (lo, hi, family, flip) contributes ``_signed_perms(family, hi - lo)``
    on its coordinate run: one axis of the product for its permutations and
    one for its sign vectors, broadcast into a single pair of arrays.  A
    ``flip`` block's gl group is conjugated by the sign of its last
    coordinate, so its signs follow its permutation: sign i is negated when
    exactly one of i and perm[i] is that coordinate.  Lone gl coordinates
    stay fixed.  Every block's permutation axis comes before any sign axis;
    as the runs go left to right and each block lists its permutations and
    its sign vectors in element order, so does the product, with no sort.
    The cache has at most 2^rank entries per root system, but no bound on
    bytes: it keeps every group built, W included, for the whole process.
    """
    blocks = [b for b in blocks if b[1] - b[0] > 1 or b[2] != "GL"]
    parts = [_signed_perms(family, hi - lo) for lo, hi, family, _ in blocks]
    k = len(parts)
    shape = [len(perms) for perms, _ in parts] + [len(signs) for _, signs in parts]
    perm = np.empty(shape + [n], dtype=np.int64)
    perm[...] = np.arange(n)
    sign = np.ones(shape + [n], dtype=np.int64)
    for b, ((lo, hi, _, flip), (perms, signs)) in enumerate(zip(blocks, parts)):
        axes = [1] * 2 * k + [hi - lo]
        axes[b] = len(perms)
        perm[..., lo:hi] = (perms + lo).reshape(axes)
        if flip:
            d = np.ones(hi - lo, dtype=np.int64)
            d[-1] = -1
            sign[..., lo:hi] = (d * d[perms]).reshape(axes)
        else:
            axes[b], axes[k + b] = 1, len(signs)
            sign[..., lo:hi] = signs.reshape(axes)
    return WeylGroup(perm.reshape(-1, n), sign.reshape(-1, n))


def _in_element_order(perm: np.ndarray, sign: np.ndarray):
    """The rows (perm, sign) sorted into element order: perm columns, then
    negative-sign columns, column 0 first.  As int16 (entries below the
    rank) the keys sort ~4x faster."""
    order = np.lexsort(np.hstack((perm, sign < 0)).astype(np.int16).T[::-1])
    return perm[order], sign[order]


def _levi_cone_mask(levi: LeviDatum, perm: np.ndarray, sign: np.ndarray,
                    roots) -> np.ndarray:
    """Which rows (perm, sign) send every root of ``roots`` into Rbar+.

    One cone test per root: a Weyl image of a root is a root, and the roots
    in the Levi cone of ``chamber_cone_mask`` are Rbar+ (``build_levi``).
    """
    ok = np.ones(len(perm), dtype=bool)
    for a in roots:
        img = kernels.orbit_images(perm, sign, np.array(a, dtype=np.int64))
        ok &= chamber_cone_mask(levi.parent.family, img, levi.sbar)
    return ok


def check_group_guard(label: str, size: int) -> None:
    if size > DEFAULT_GROUP_GUARD:
        raise GroupSizeError(label, size)


def weyl_group(datum: RootDatum) -> WeylGroup:
    check_group_guard(f"W({datum.describe()})", datum.weyl_order())
    return _block_group(datum.rank, ((0, datum.rank, datum.family, False),))


# -- normal forms ---------------------------------------------------------

def dominant_representative(datum: RootDatum, beta: Weight) -> tuple[WeylElement, Weight]:
    """Some w with w(beta) dominant, plus the (unique) dominant image.

    A one-row call of ``kernels.dominant_elements``: a fixed stable sort,
    so repeated calls agree; only the dominant weight itself is canonical
    when the stabiliser of ``beta`` is nontrivial.
    """
    perm, sign = kernels.dominant_elements(np.array([beta], dtype=np.int64),
                                           kernels.FAMILY_CODE[datum.family])
    w = WeylElement(tuple(perm[0].tolist()), tuple(sign[0].tolist()))
    return w, w.act(beta)


def _fixing_levi(datum: RootDatum, lam: Weight) -> LeviDatum:
    """The Levi on the simple roots fixing ``lam``."""
    return build_levi(datum, [i + 1 for i, a in enumerate(datum.simple_roots) if not lam.dot4(a)])


def stabilizer_subgroup(datum: RootDatum, lam: Weight) -> WeylGroup:
    """Stabiliser of a dominant weight: the Levi Weyl group on the simple roots fixing it."""
    return _block_group(datum.rank, _fixing_levi(datum, lam).blocks)


# -- Levi-side groups ------------------------------------------------------

def levi_group(levi: LeviDatum) -> WeylGroup:
    check_group_guard(f"Wbar({levi.describe()})", levi.weylbar_order())
    return _block_group(levi.parent.rank, levi.blocks)


# -- signed-permutation search --------------------------------------------

def signed_search(family: str, vs: np.ndarray, admit, label: str):
    """The w in W with ``admit`` true at every position of w(v), for each row
    v of ``vs``: (row id, image w(v), eps(w)) per such w, by a search that
    never enumerates W.

    Each w is a signed permutation, grown one image position i at a time
    over every row at once: position i takes sign * v[j] for an unused j.
    ``admit(i, img, x)`` gets the images so far (columns i and on are 0) and
    the candidates x[r, j, s] = signs[s] * v[j] of each partial element r,
    and returns which may take position i; the others are cut.  eps(w) is
    the permutation's parity, which grows by the number of unused indices
    below j, times the signs.  In D only even sign changes are in W, so the
    last position keeps the candidates that make the sign product 1; where v
    has a 0 both signs give one image, and the even one is kept.  The guard
    counts the partial elements a position admits before they are gathered,
    but only after the candidates ``x`` and ``admit``'s own arrays are made:
    those scale with the previous position's partial elements times n and
    the signs, so memory can pass what the guard allows before it trips.
    """
    n = vs.shape[1]
    signs = np.array([1] if family == "GL" else [1, -1], dtype=np.int64)
    who = np.arange(len(vs))
    img = np.zeros((len(vs), n), dtype=np.int64)
    used = np.zeros((len(vs), n), dtype=bool)
    parity = sign = np.ones(len(vs), dtype=np.int64)  # both are rebound, never written
    for i in range(n):
        free = ~used
        x = vs[who][:, :, None] * signs  # (row, j, sign)
        mask = free[:, :, None] & admit(i, img, x)
        if family == "D" and i == n - 1:
            mask &= (sign[:, None] * signs == 1)[:, None, :]
        check_group_guard(f"{label}, position {i + 1}", np.count_nonzero(mask))
        r, j, s = np.nonzero(mask)
        below = np.cumsum(free, axis=1)[r, j] - 1  # unused indices below j
        who, img, used = who[r], img[r], used[r]
        img[:, i] = x[r, j, s]
        used[np.arange(len(r)), j] = True
        parity = parity[r] * (1 - 2 * (below & 1))
        sign = sign[r] * signs[s]
    return who, img, parity * sign


def transversal(levi: LeviDatum) -> WeylGroup:
    """Minimal-length coset representatives of W over Wbar, in element order.

    u(alpha) > 0 for alpha in Sbar exactly when <u^-1 rho, alpha> > 0, so u
    is a representative exactly when u^-1(rho) is Levi-dominant, and rho is
    regular, so u is the one element that sorts u^-1(rho) to rho, in D as in
    every family.  ``signed_search`` lists the Levi-dominant points z of W rho
    with one test in every family, D's ``flip`` block included: each alpha
    of Sbar at the last coordinate i it touches, <prefix, alpha> + z_i
    alpha_i > 0, one root at a time.  A B, C or D tail of width >= 2
    (alpha_(n-1), alpha_n in Sbar, so z_n > 0 in B and C) is cut a position
    early: z_(n-1) > |z_n|, the one |value| of rho left.  The guard counts
    |W| / |Wbar| first, then each position, but only after the position's
    candidate arrays are made (``signed_search``), so memory can pass it.
    """
    datum = levi.parent
    expected = datum.weyl_order() // levi.weylbar_order()
    check_group_guard(f"W/Wbar of {levi.describe()}", expected)
    rho = np.array([datum.rho], dtype=np.int64)
    roots = np.array(levi.sbar_roots, dtype=np.int64).reshape(-1, datum.rank)
    last = datum.rank - 1 - np.argmax(roots[:, ::-1] != 0, axis=1)  # last coordinate touched
    tail = datum.rank - 2 if {datum.rank - 1, datum.rank} <= set(levi.sbar) else -1

    def admit(i, img, x):
        ok = np.ones(x.shape, dtype=bool)
        for a in roots[last == i]:
            ok &= (img @ a)[:, None, None] + x * a[i] > 0
        if i == tail:  # |z_n| is sum |rho_i| less the placed |values| and |x|
            ok &= x > np.abs(rho).sum() - np.abs(img).sum(axis=1)[:, None, None] - np.abs(x)
        return ok

    _, z, _ = signed_search(datum.family, rho, admit, f"coset search in W({datum.describe()})")
    perm, sign = _in_element_order(*kernels.dominant_elements(
        z, kernels.FAMILY_CODE[datum.family]))
    if len(perm) != expected:
        raise RootSystemError(
            f"transversal size {len(perm)} != |W|/|Wbar| = {expected}")
    return WeylGroup(perm, sign)


@lru_cache(maxsize=None)
def diagram_automorphisms(levi: LeviDatum) -> WeylGroup:
    """All w in W with w(rbar_plus) = rbar_plus; a subgroup in element
    order, so the identity first.

    They are the w in Stab_W(rho_bar) with w(Sbar) in Rbar+, so the guard
    counts |Stab_W(rho_bar)|, never |W|, and the filter runs over the
    conjugate w1^-1 Stab(dom) w1 of the block group of dom = w1(rho_bar):

    * w(Rbar+) = Rbar+ implies that w fixes rho_bar = 1/2 sum Rbar+;
    * w(Sbar) in Rbar+ implies w(Rbar+) = Rbar+: w(alpha) is a root in
      N.Sbar for alpha in Rbar+, so in Rbar+, and w is injective.

    Both conditions are the Levi cone test (``_levi_cone_mask``).  Each
    element is checked to map all of Rbar+ into Rbar+, i.e. to act as a
    Dynkin diagram automorphism of the Levi.
    """
    w1, dom = dominant_representative(levi.parent, levi.rho_bar)
    check_group_guard(f"Stab_W(rho_bar) of {levi.describe()}",
                      _fixing_levi(levi.parent, dom).weylbar_order())
    g_perm, g_sign, _ = stabilizer_subgroup(levi.parent, dom).arrays
    p1, s1 = np.array(w1.perm, dtype=np.int64), np.array(w1.signs, dtype=np.int64)
    inv = np.argsort(p1)
    # w1^-1 o g o w1 for each g, where a o b has perm b.perm[a.perm] and sign
    # a.sign * b.sign[a.perm]
    perm, sign = p1[g_perm][:, inv], s1[inv] * (g_sign * s1[g_perm])[:, inv]
    keep = _levi_cone_mask(levi, perm, sign, levi.sbar_roots)
    perm, sign = _in_element_order(perm[keep], sign[keep])
    if not _levi_cone_mask(levi, perm, sign, levi.rbar_plus).all():
        raise RootSystemError(
            f"an automorphism of {levi.describe()} maps a root of Rbar+ out of Rbar+")
    return WeylGroup(perm, sign)
