"""Object-by-object routes, the oracles for the array code.

The Weyl-group functions walk ``WeylElement`` objects one at a time:
``itertools`` for all of W, a breadth-first closure for parabolic
subgroups, and element-by-element filters for the transversal and the
diagram automorphisms.  They share no code with the array builders of
``levibranch.weylgrp`` beyond the element and group types.  ``elements``
turns a ``WeylGroup``'s arrays into objects, for the tests that walk a
group; ``levibranch`` itself never does.  ``first_automorphism`` applies
the automorphisms one ``act`` at a time: the reference route for the
automorphism of every verdict, which ``levibranch.equivalence`` reads off
the automorphism arrays.

``domrep`` reflects one weight at a time into the dominant chamber of g or
of a Levi, and ``levi_cone`` decides the Levi dominance order by counting
partitions over the Levi positive roots: the oracles for the frames'
batched dominant image and Levi cone test in ``levibranch.weightpoly``.
``levi_dominant_multiplicities`` runs Freudenthal's recursion in the Levi
frame, on the dominant weights a breadth-first search finds below the top
in the Levi cone: the one route to the dominant multiplicities of a Levi,
which ``levibranch`` never needs.
``strip_full_character`` strips whole characters off the whole multiset:
the reference route for ``decompose_character``, which checks the
multiset's symmetry and then reads every multiplicity off one signed
bucketing of its terms (Klimyk's formula).
``e_set`` builds the E-set of a Levi weight one element at a time, and
``far_from_walls_by_cosets`` searches the whole stabiliser coset of w1 for
a chamber holding it: the reference route for the flags of
``branching.m_terms``, which sum the deviations of the E-set's dominant
images from the dominant image of its mean.
``same_chamber_by_inner_products`` compares <mu, nu> with the pairing of
the dominant images: the reference route for
``equivalence.same_closed_chamber``, which compares dominant images of
mu, nu and mu + nu.
``dual_m_construction`` builds an M-function from the |Wbar|^2 products of
two Levi alternants: the reference route for ``branching.m_terms``.  ``orbit_rows`` expands one orbit at a time, and
``character_by_orbits`` and ``poly_by_orbits`` bucket those orbits with
``WeightPolynomial.from_rows``: the reference routes for the batched
``_Frame.orbits`` under ``weyl_character`` and ``MFunction.poly``, and the
one route to the characters of a Levi, whose frame expands no orbits.

``weyl_sum_over_w`` is the alternating Weyl sum of a branching coefficient
over all of W, masked by the cone test: the reference route for
``branching._weyl_sums``, which grows only the signed permutations whose
prefix sums stay in the cone.

``dominant_box_by_prefix_roots`` grows the Levi-dominant box coordinate by
coordinate, pruning on the Levi simple roots that a prefix already
supports: the reference route for ``equivalence.dominant_box``, which
takes the product of the factor blocks' chambers.
``transversal_by_filter`` filters all of W, chunk by chunk, for the
elements keeping Sbar positive: the reference route for
``weylgrp.transversal``, which lists the Levi-dominant points of the orbit
of rho by ``weylgrp.signed_search`` and sorts each back to rho.
``automorphisms_by_transversal`` filters that transversal for the elements
sending Sbar into the packed Rbar+: the reference route for
``weylgrp.diagram_automorphisms``, which filters a conjugate of the
stabiliser of rho_bar with the Levi cone test.  Both take eps from
``sign_character``, one parity pass over the whole group: the reference
route for the eps each array builder takes from its blocks, its search or
its stabiliser.

``levi_components`` classifies the connected components of the Levi's
Dynkin diagram by the coroot pairings of its simple roots, and
``rbar_by_root_strings`` grows Rbar+ from the Levi simple roots along root
strings.  They are the reference routes for ``LeviDatum.describe``,
``LeviDatum.weylbar_order`` and ``LeviDatum.rbar_plus``, which read the
factor blocks off sbar and the Levi cone off prefix sums.
``standard_gl_blocks_by_roots`` compares root sets component by component:
the reference route for ``standard_gl_blocks``, which reads them off the
factor blocks.  ``every_levi`` lists the Levis the comparisons run over.

``sort_normal_form`` is Python's stable sort of one weight: the reference
route for ``kernels.dominant_elements``.  ``reflection``, ``compose`` and
``identity`` are the scalar Weyl algebra ``levibranch`` no longer has;
``invariance_elements_by_reflections`` composes w0 and the Coxeter element
from them, the reference route for ``branching._invariance_elements``,
which sorts images of rho.

The rest are definitions that only tests call, kept apart from the
package: the sign, identity test and order of a ``WeylElement``, coset
decomposition by stripping descents, straightening of character labels,
orbit sums over W, the Weyl denominator, single weight multiplicities,
polynomials from terms and their sums and products (``poly_of``,
``poly_op``: ``WeightPolynomial`` has no arithmetic), Kostka numbers and
their inverse matrix, and the type-A helpers the Littlewood-Richardson
comparisons use.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from levibranch import kernels
from levibranch.branching import branch_multiplicity
from levibranch.rootsys import (LeviDatum, RootDatum, RootSystemError, Weight,
                                WeightError, build_levi, chamber_cone_mask)
from levibranch.typea_lr import Partition, SignedSplit, partitions_of
from levibranch.weightpoly import (PartitionTable, WeightPolynomial, _frame_for,
                                   _rho_drops, dominant_multiplicities, levi_table,
                                   signed_bucket)
from levibranch.weylgrp import (WeylElement, WeylGroup, diagram_automorphisms,
                                dominant_representative, levi_group,
                                stabilizer_subgroup, weyl_group)


# -- Weyl-group elements one at a time -------------------------------------------

def elements(group: WeylGroup) -> tuple[WeylElement, ...]:
    """The rows of a group's arrays as ``WeylElement`` objects, in row order."""
    return tuple(WeylElement(tuple(p), tuple(s))
                 for p, s in zip(group.perm.tolist(), group.sign.tolist()))


def first_automorphism(levi: LeviDatum, mu: Weight, nu: Weight) -> WeylElement | None:
    """The first diagram automorphism u with u(mu) = nu, or None.

    Every automorphism is applied to mu one ``act`` at a time, once per mu,
    and the first u giving each image is kept: the reference route for
    ``equivalence.relating_automorphism`` and for the automorphism of every
    ``search_box`` verdict.
    """
    return _first_images(levi, mu).get(nu)


@lru_cache(maxsize=4096)
def _first_images(levi: LeviDatum, mu: Weight) -> dict:
    """Each image u(mu), with the first automorphism u giving it."""
    first = {}
    for u in _automorphism_objects(levi):
        first.setdefault(u.act(mu), u)
    return first


@lru_cache(maxsize=16)
def _automorphism_objects(levi: LeviDatum) -> tuple[WeylElement, ...]:
    return elements(diagram_automorphisms(levi))


def identity(n: int) -> WeylElement:
    return WeylElement(tuple(range(n)), (1,) * n)


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """a o b (first apply ``b``)."""
    return WeylElement(tuple(b.perm[p] for p in a.perm),
                       tuple(s * b.signs[p] for s, p in zip(a.signs, a.perm)))


def reflection(alpha: Weight) -> WeylElement:
    """The reflection through ``alpha``; alpha must be a classical root."""
    n = len(alpha)
    aa = alpha.dot4(alpha)
    perm = [0] * n
    signs = [0] * n
    for i in range(n):
        e = Weight(4 if k == i else 0 for k in range(n))  # doubled 2*e_i
        img = e - (2 * e.dot4(alpha) // aa) * alpha
        nz = [k for k in range(n) if img[k] != 0]
        if len(nz) != 1 or abs(img[nz[0]]) != 4:
            raise RootSystemError(f"{alpha} is not a signed-permutation root")
        # column i of the matrix: contributes to row nz[0]
        perm[nz[0]] = i
        signs[nz[0]] = 1 if img[nz[0]] > 0 else -1
    return WeylElement(tuple(perm), tuple(signs))


def sort_normal_form(datum: RootDatum, beta: Weight) -> tuple[WeylElement, Weight]:
    """The element of the sort normal form of ``beta`` and its image, by
    Python's stable sort: the reference route for
    ``kernels.dominant_elements`` and ``weylgrp.dominant_representative``.
    """
    n = datum.rank
    if datum.family == "GL":
        order = sorted(range(n), key=lambda j: (-beta[j], j))
        w = WeylElement(tuple(order), (1,) * n)
        return w, w.act(beta)
    order = sorted(range(n), key=lambda j: (-abs(beta[j]), j))
    signs = [1 if beta[j] >= 0 else -1 for j in order]
    if datum.family == "D" and sum(1 for c in beta if c < 0) % 2 == 1:
        signs[-1] = -signs[-1]
    w = WeylElement(tuple(order), tuple(signs))
    return w, w.act(beta)


def invariance_elements_by_reflections(datum: RootDatum) -> tuple[WeylElement, WeylElement]:
    """The longest element and the Coxeter element s_1 s_2 ... s_r of W,
    composed from the simple reflections: the reference route for
    ``branching._invariance_elements``, which sorts images of rho.

    The longest element grows from the identity: while w keeps some simple
    root alpha positive, w s_alpha is one longer; when w sends every simple
    root to a negative root, w is the longest element.
    """
    pos = set(datum.positive_roots)
    refl = [(a, reflection(a)) for a in datum.simple_roots]
    w0 = identity(datum.rank)
    while (s := next((s for a, s in refl if w0.act(a) in pos), None)) is not None:
        w0 = compose(w0, s)
    coxeter = identity(datum.rank)
    for _, s in refl:
        coxeter = compose(coxeter, s)
    return w0, coxeter


def element_sign(w: WeylElement) -> int:
    """det(w): the parity of the permutation times the product of the signs."""
    perm = w.perm
    inv = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
              if perm[i] > perm[j])
    s = -1 if inv % 2 else 1
    for x in w.signs:
        s *= x
    return s


def is_identity(w: WeylElement) -> bool:
    return all(w.perm[i] == i for i in range(len(w.perm))) and all(
        s == 1 for s in w.signs)


def sort_key(w: WeylElement):
    """Element order: by permutation, then by sign pattern (+ before -)."""
    return (w.perm, tuple(0 if s == 1 else 1 for s in w.signs))


def is_regular(datum: RootDatum, beta: Weight) -> bool:
    """No reflection of W fixes ``beta``."""
    return all(beta.dot4(a) != 0 for a in datum.positive_roots)


def straighten(datum: RootDatum, beta: Weight):
    """Resolve a formal character index: None on a wall, else (sign, dominant).

    The character labelled by ``beta`` equals sign times the character of the
    returned dominant weight; it vanishes exactly when ``beta`` plus the Weyl
    vector is fixed by some reflection.
    """
    shifted = beta + datum.rho
    if not is_regular(datum, shifted):
        return None
    w, dom = dominant_representative(datum, shifted)
    return element_sign(w), dom - datum.rho


def coset_decompose(levi: LeviDatum, w: WeylElement) -> tuple[WeylElement, WeylElement]:
    """Unique w = u * wbar with u in the transversal and wbar in the Levi group.

    Computed by stripping descents: while some retained simple root is sent
    to a negative root, multiply by its reflection on the right.
    """
    datum = levi.parent
    pos = set(datum.positive_roots)
    u = w
    wbar = identity(datum.rank)
    while True:
        for alpha in levi.sbar_roots:
            if u.act(alpha) not in pos:
                s = reflection(alpha)
                u = compose(u, s)
                wbar = compose(s, wbar)
                break
        else:
            return u, wbar


# -- weight polynomials -------------------------------------------------------------

def poly_of(terms) -> WeightPolynomial:
    """A polynomial from terms, a dict {weight: c} or (weight, c) pairs,
    through ``from_rows``: repeats summed, zero coefficients dropped."""
    items = list(terms.items() if isinstance(terms, dict) else terms)
    rows = np.array([tuple(w) for w, _ in items], dtype=np.int64).reshape(len(items), -1) \
        if items else np.zeros((0, 0), dtype=np.int64)
    return WeightPolynomial.from_rows(rows, np.array([c for _, c in items], dtype=np.int64))


def poly_op(p: WeightPolynomial, op: str, q) -> WeightPolynomial:
    """``p + q``, ``p - q`` or ``p * q`` through ``from_rows``: of the
    concatenated rows for a sum, of the outer-summed rows for a product; an
    int ``q`` scales ``p``."""
    if isinstance(q, int):
        return WeightPolynomial.from_rows(p._rows, q * p._coeffs)
    if op == "*":
        if not p or not q:
            return poly_of({})
        rows = p._rows[:, None, :] + q._rows[None, :, :]
        return WeightPolynomial.from_rows(rows.reshape(-1, p._rows.shape[1]),
                                          np.outer(p._coeffs, q._coeffs).ravel())
    sign = {"+": 1, "-": -1}[op]
    parts = [(x._rows, s * x._coeffs) for x, s in ((p, 1), (q, sign)) if x]
    if not parts:
        return poly_of({})
    rows, coeffs = zip(*parts)
    return WeightPolynomial.from_rows(np.concatenate(rows), np.concatenate(coeffs))


def support(poly: WeightPolynomial) -> tuple[Weight, ...]:
    """The weights of the terms, in term order."""
    return tuple(w for w, _ in poly)


def support_rows(poly: WeightPolynomial) -> np.ndarray:
    """The weights of the terms as int64 rows, in term order: ``support``
    without one ``Weight`` per term.  Read-only, as the polynomial shares it."""
    rows = poly._rows.view()
    rows.flags.writeable = False
    return rows


def symmetrize(datum: RootDatum, gamma: Weight) -> WeightPolynomial:
    """Orbit sum over the full Weyl group, counted with multiplicity.

    The coefficient of every orbit point equals the order of the stabiliser
    of ``gamma``, so the total mass is always |W|.
    """
    perm, sign, _ = weyl_group(datum).arrays
    img = kernels.orbit_images(perm, sign, np.array(gamma, dtype=np.int64))
    return WeightPolynomial.from_rows(img, np.ones(len(img), dtype=np.int64))


def nabla_bar(levi: LeviDatum) -> WeightPolynomial:
    """The product of (1 - e^alpha) over the Levi positive roots.

    Read off the signed rows of ``weightpoly._rho_drops``, the ones
    ``build_m`` reads; ``_rho_drops`` has checked them against the literal
    product (the Weyl denominator identity).
    """
    levi_group(levi)  # enforce the guard before any heavy work
    return WeightPolynomial.from_rows(*_rho_drops(levi))


def kostka_multiplicity(datum: RootDatum, lam: Weight, beta: Weight) -> int:
    """dim of the ``beta`` weight space of the irreducible with h.w. ``lam``."""
    datum.require_dominant(lam)
    dom = _frame_for(datum).dominant(np.array([beta], dtype=np.int64))[0]
    return dominant_multiplicities(datum, lam).get(tuple(dom.tolist()), 0)


# -- orbit sums one orbit at a time ---------------------------------------------------

def orbit_rows(owner, beta: Weight) -> np.ndarray:
    """The distinct frame-Weyl images of ``beta``, in lexicographic order."""
    group = levi_group(owner) if isinstance(owner, LeviDatum) else weyl_group(owner)
    perm, sign, _ = group.arrays
    img = kernels.orbit_images(perm, sign, np.array(beta, dtype=np.int64))
    _, first = np.unique(kernels.pack_rows(img), return_index=True)
    return img[first]


def _bucketed(orbits, coeffs) -> WeightPolynomial:
    """Each orbit's points with the orbit's coefficient, through ``from_rows``."""
    sizes = [len(orbit) for orbit in orbits]
    return WeightPolynomial.from_rows(np.concatenate(orbits),
                                      np.repeat(np.array(coeffs, np.int64), sizes))


def character_by_orbits(owner, lam: Weight) -> WeightPolynomial:
    """The character of ``lam``, of g or of a Levi, its dominant multiplicities
    expanded one orbit at a time: the reference route for ``weyl_character``.
    A Levi's multiplicities come from ``levi_dominant_multiplicities``."""
    mult = (levi_dominant_multiplicities(owner, lam) if isinstance(owner, LeviDatum)
            else dominant_multiplicities(owner, lam))
    return _bucketed([orbit_rows(owner, nu) for nu in mult], list(mult.values()))


def poly_by_orbits(fn) -> WeightPolynomial:
    """An M-function's orbit sums, a |W| / |W lam| at each point of W lam, one
    orbit at a time: the reference route for ``MFunction.poly``."""
    datum = fn.levi.parent
    orbits = [orbit_rows(datum, lam) for lam, _ in fn.coeffs]
    return _bucketed(orbits, [a * datum.weyl_order() // len(orbit)
                              for (_, a), orbit in zip(fn.coeffs, orbits)])


# -- Levi characters in the Levi frame --------------------------------------------------

def levi_dominants_below(levi: LeviDatum, top: Weight) -> tuple[Weight, ...]:
    """The Levi-dominant weights below ``top`` in the Levi order, breadth
    first: each frontier steps down by every Levi positive root, takes its
    Levi-dominant images and keeps those in the Levi cone below ``top``."""
    frame = _frame_for(levi)
    top_row = np.array(top, dtype=np.int64)
    seen = {top}
    frontier = top_row[None, :]
    while len(frontier):
        cand = frame.dominant((frontier[:, None, :] - frame.roots).reshape(-1, frame.n))
        cand = cand[chamber_cone_mask(levi.parent.family, top_row - cand, levi.sbar)]
        fresh = set(map(tuple, cand.tolist())) - seen
        seen |= fresh
        frontier = np.array(list(fresh), dtype=np.int64).reshape(-1, frame.n)
    return tuple(sorted(map(Weight, seen)))


def levi_dominant_multiplicities(levi: LeviDatum, lam: Weight) -> dict:
    """Freudenthal's recursion in the Levi frame: for nu below ``lam`` by
    increasing height, 2 sum_a sum_(k >= 1) m(nu + k a) <nu + k a, a> over
    |lam + rho_bar|^2 - |nu + rho_bar|^2, each a-string read up to its first
    weight without a multiplicity."""
    frame = _frame_for(levi)
    levi.require_dominant(lam)
    doms = levi_dominants_below(levi, lam)
    height = {nu: (lam - nu).dot4(Weight(frame.two_rho.tolist())) for nu in doms}
    rho = frame.rho
    lam_norm = (lam + rho).dot4(lam + rho)
    mult = {lam: 1}
    for nu in sorted((nu for nu in doms if nu != lam), key=lambda nu: (height[nu], nu)):
        num = 0
        for a in levi.rbar_plus:
            xi = nu + a
            while True:
                image = Weight(frame.dominant(np.array([xi], dtype=np.int64))[0].tolist())
                if image not in mult:
                    break
                num += mult[image] * xi.dot4(a)
                xi = xi + a
        q, r = divmod(2 * num, lam_norm - (nu + rho).dot4(nu + rho))
        if r:
            raise WeightError(f"Freudenthal division failed at {nu}")
        mult[nu] = q
    return mult


def strip_full_character(owner, poly: WeightPolynomial) -> dict:
    """Strip whole characters (``character_by_orbits``) off the whole
    multiset, maximal dominant weights first, by decreasing (height, weight)."""
    frame = _frame_for(owner)
    keys, rows = poly._keys, poly._rows
    remaining = poly._coeffs.copy()
    out: dict[Weight, int] = {}
    if not len(remaining):
        return out
    simple = owner.sbar_roots if isinstance(owner, LeviDatum) else owner.simple_roots
    simple = np.array(simple, dtype=np.int64).reshape(-1, frame.n)
    dominant = np.flatnonzero((rows @ simple.T >= 0).all(axis=1))
    height = rows[dominant] @ frame.two_rho
    for i in dominant[np.lexsort((keys[dominant], height))[::-1]]:
        m = int(remaining[i])
        if m == 0:
            continue
        top = Weight(rows[i].tolist())
        if m < 0:
            raise WeightError(f"negative multiplicity {m} at {top} while stripping")
        char = character_by_orbits(owner, top)
        at = np.minimum(np.searchsorted(keys, char._keys), len(keys) - 1)
        if not ((keys[at] == char._keys) & (remaining[at] != 0)).all():
            raise WeightError(
                f"character of {top} has weights outside the remaining multiset")
        remaining[at] -= m * char._coeffs
        out[top] = m
    if remaining.any():
        raise WeightError("multiset admits no dominant maximal weight")
    return out


# -- type A -------------------------------------------------------------------------

def as_weight(lam: Partition, n: int) -> Weight:
    """The gl_n weight of a partition, padded with zeros."""
    if len(lam) > n:
        raise WeightError(f"{lam} has more than {n} parts")
    return Weight.of(*(list(lam) + [0] * (n - len(lam))))


def join_signed(split: SignedSplit, n: int) -> Weight:
    """Rebuild the gl_n weight with the given signed partitions."""
    plus = list(split.mu_plus)
    minus = [-c for c in reversed(list(split.mu_minus))]
    if len(plus) + len(minus) > n:
        raise WeightError("signed split too long for the rank")
    return Weight.of(*(plus + [0] * (n - len(plus) - len(minus)) + minus))


def in_littlewood_stable_range(family: str, n: int, lam: Partition) -> bool:
    """Where the classical restriction sums are asserted against the Weyl sum.

    Smallness of the partition (size at most the rank) keeps the B and C
    sums exact.  In family D a partition of full length n labels one member
    of a pair of irreducibles swapped by the outer involution, while the sum
    computes the restriction of their union; those cases are logged as
    discrepancies instead of asserted.
    """
    lam = Partition(lam)
    if lam.size > n:
        return False
    return not (family == "D" and len(lam) == n)


def weyl_sum_over_w(levi: LeviDatum, lam: Weight, mu: Weight):
    """The alternating Weyl sum over all of W: every image w(lam + rho) -
    (mu + rho), the cone mask, one partition count per survivor.

    Returns the surviving arguments, their signs eps(w) in element order and
    the multiplicity: the reference route for ``branching._weyl_sums``,
    which finds the survivors by a pruned search.
    """
    datum = levi.parent
    if not (lam - mu).is_integral():
        return np.zeros((0, datum.rank), dtype=np.int64), np.zeros(0, dtype=np.int64), 0
    perm, sign, eps = weyl_group(datum).arrays
    args = kernels.orbit_images(perm, sign, np.array(lam + datum.rho, dtype=np.int64))
    args -= np.array(mu + datum.rho, dtype=np.int64)
    mask = chamber_cone_mask(datum.family, args)
    args, eps = args[mask], eps[mask]
    total = int((eps * levi_table(levi).count_rows(args)).sum()) if len(args) else 0
    return args, eps, total


def delta_shift_check(levi: LeviDatum, lam: Weight, mu: Weight, a: int) -> bool:
    """Branching is invariant under adding a*(1,...,1) to both weights (gl only)."""
    if levi.parent.family != "GL":
        raise RootSystemError("the diagonal shift only makes sense for gl_n")
    if a < 0:
        raise WeightError("shift must be nonnegative")
    delta = Weight.of(*([a] * levi.parent.rank))
    return (branch_multiplicity(levi, lam, mu)
            == branch_multiplicity(levi, lam + delta, mu + delta))


@lru_cache(maxsize=None)
def kostka_number(lam: Partition, mu) -> int:
    """Semistandard tableaux of shape lam and content mu (horizontal-strip peel)."""
    lam = Partition(lam)
    content = tuple(int(x) for x in mu)
    if lam.size != sum(content):
        return 0
    if not content:
        return 1
    return sum(kostka_number(prev, content[:-1])
               for prev in _strip_predecessors(lam, content[-1]))


def _strip_predecessors(lam: Partition, size: int) -> list[Partition]:
    """Shapes obtained by removing a horizontal strip of the given size."""
    out = []
    rows = len(lam)

    def rec(i, remaining, prefix):
        if i == rows:
            if remaining == 0:
                out.append(Partition(prefix))
            return
        # interlacing lam[i+1] <= v <= lam[i] keeps the removed cells a strip
        lo = lam[i + 1] if i + 1 < rows else 0
        hi = lam[i]
        cap = prefix[-1] if prefix else None
        for v in range(lo, hi + 1):
            if cap is not None and v > cap:
                continue
            removed = hi - v
            if removed > remaining:
                continue
            prefix.append(v)
            rec(i + 1, remaining - removed, prefix)
            prefix.pop()

    rec(0, size, [])
    return out


@lru_cache(maxsize=None)
def kostka_matrix(n: int):
    """(ordered partitions of n, their index, K, K^-1), inverted exactly.

    K is unitriangular in descending lexicographic order, which refines
    dominance, so K^-1 comes from back substitution.
    """
    parts = sorted(partitions_of(n), reverse=True)
    idx = {p: i for i, p in enumerate(parts)}
    size = len(parts)
    K = [[kostka_number(lam, tuple(mu)) for mu in parts] for lam in parts]
    inv = [[0] * size for _ in range(size)]
    for j in range(size):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            if K[i][i] != 1:
                raise RootSystemError("Kostka matrix is not unitriangular")
            inv[i][j] = -sum(K[i][t] * inv[t][j] for t in range(i + 1, j + 1))
    return parts, idx, K, inv


def kostka_matrix_identity(n: int) -> bool:
    """K * K^-1 == I on partitions of ``n`` (exact)."""
    parts, _, K, inv = kostka_matrix(n)
    size = len(parts)
    return all(sum(K[i][t] * inv[t][j] for t in range(size)) == int(i == j)
               for i in range(size) for j in range(size))


def _sign_choices(family: str, n: int) -> list[tuple[int, ...]]:
    """The admissible sign vectors in element order: none negative in GL,
    all in B and C, an even number in D."""
    if family == "GL":
        return [(1,) * n]
    return [s for s in itertools.product((1, -1), repeat=n)
            if family != "D" or s.count(-1) % 2 == 0]


@lru_cache(maxsize=None)
def weyl_elements(datum: RootDatum) -> tuple[WeylElement, ...]:
    """All of W: every permutation, each against every admissible sign choice."""
    n = datum.rank
    sign_choices = _sign_choices(datum.family, n)
    return tuple(WeylElement(perm, s)
                 for perm in itertools.permutations(range(n)) for s in sign_choices)


def closure(gens: list[WeylElement], n: int) -> tuple[WeylElement, ...]:
    """The group generated by ``gens``, sorted by ``sort_key``."""
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                h = compose(g, w)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen, key=sort_key))


def levi_elements(levi: LeviDatum) -> tuple[WeylElement, ...]:
    return closure([reflection(a) for a in levi.sbar_roots],
                   levi.parent.rank)


def stabilizer_elements(datum: RootDatum, lam: Weight) -> tuple[WeylElement, ...]:
    """Brute force: the w in W with w(lam) = lam, in enumeration order."""
    return tuple(w for w in weyl_elements(datum) if w.act(lam) == lam)


def transversal_elements(levi: LeviDatum) -> tuple[WeylElement, ...]:
    pos = set(levi.parent.positive_roots)
    reps = [w for w in weyl_elements(levi.parent)
            if all(w.act(a) in pos for a in levi.sbar_roots)]
    return tuple(sorted(reps, key=sort_key))


def automorphism_elements(levi: LeviDatum) -> tuple[WeylElement, ...]:
    """Transversal elements sending the Levi simple roots into rbar_plus, identity first."""
    rbar = set(levi.rbar_plus)
    autos = [u for u in transversal_elements(levi)
             if all(u.act(a) in rbar for a in levi.sbar_roots)]
    return tuple(sorted(autos, key=lambda u: (not is_identity(u), sort_key(u))))


# rows of W per block when ``transversal_by_filter`` filters W
FILTER_BLOCK_ROWS = 1 << 14


def _blocks(datum: RootDatum, rows: int):
    """W in element order as (perm, sign) chunks of about ``rows`` rows.

    Each chunk is a run of whole permutations from ``itertools``, each
    repeated against every admissible sign vector.
    """
    signs = np.array(_sign_choices(datum.family, datum.rank), dtype=np.int64)
    perms = itertools.permutations(range(datum.rank))
    step = max(1, rows // len(signs))
    while block := list(itertools.islice(perms, step)):
        block = np.array(block, dtype=np.int64)
        yield np.repeat(block, len(signs), axis=0), np.tile(signs, (len(block), 1))


def sign_character(perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """eps of every row (perm, sign): the parity of the permutation's Lehmer
    code, c[i] = #{j > i : perm[j] < perm[i]}, times the product of the signs.

    One pass over the whole array, column by column on a transposed int16
    copy (entries are below n): the reference route for the eps that each
    ``levibranch.weylgrp`` builder takes from its blocks, its search or its
    stabiliser.
    """
    n = perm.shape[1]
    cols = perm.T.astype(np.int16)
    code = np.zeros(cols.shape, dtype=np.int16)
    for i in range(n - 1):
        for j in range(i + 1, n):
            code[i] += cols[j] < cols[i]
    return np.where(code.sum(axis=0) & 1, -1, 1) * sign.prod(axis=1)


def _maps_into(perm: np.ndarray, sign: np.ndarray, roots, targets):
    """The rows (perm, sign) that send every vector of ``roots`` into ``targets``."""
    if not roots:
        return perm, sign
    keys = np.sort(kernels.pack_rows(np.array(targets, dtype=np.int64)))
    for a in roots:
        img = kernels.pack_rows(kernels.orbit_images(perm, sign, np.array(a, dtype=np.int64)))
        at = np.minimum(np.searchsorted(keys, img), len(keys) - 1)
        keep = keys[at] == img
        perm, sign = perm[keep], sign[keep]
    return perm, sign


def transversal_by_filter(levi: LeviDatum) -> WeylGroup:
    """The w in W that keep every Levi simple root positive, filtered chunk
    by chunk (``_blocks``) against the packed positive roots: the reference
    route for ``weylgrp.transversal``, which sorts the Levi-dominant points
    of the orbit of rho, found by ``weylgrp.signed_search``, back to rho.
    W is listed in element order, so the survivors are too; B6, C6 and D6
    take several chunks, the last one ragged."""
    datum = levi.parent
    kept = [_maps_into(perm, sign, levi.sbar_roots, datum.positive_roots)
            for perm, sign in _blocks(datum, FILTER_BLOCK_ROWS)]
    perm = np.concatenate([p for p, _ in kept])
    sign = np.concatenate([s for _, s in kept])
    return WeylGroup(perm, sign, sign_character(perm, sign))


def automorphisms_by_transversal(levi: LeviDatum) -> tuple[WeylElement, ...]:
    """The transversal rows sending every Levi simple root into rbar_plus.

    Every such w of W keeps Sbar positive, so it is in the transversal; the
    transversal is in element order, so the identity comes first.  The
    transversal is ``transversal_by_filter``'s and the test is membership in
    the packed Rbar+ (``_maps_into``): no Levi cone test and no signed
    search.
    """
    trans = transversal_by_filter(levi)
    perm, sign = _maps_into(trans.perm, trans.sign, levi.sbar_roots, levi.rbar_plus)
    return elements(WeylGroup(perm, sign, sign_character(perm, sign)))


def dominant_box_by_prefix_roots(levi: LeviDatum, bound: int) -> list[Weight]:
    """The Levi-dominant box, one coordinate at a time, sorted.

    A prefix is cut as soon as a Levi simple root supported in it pairs
    negatively with it; the B and D families get both lattice classes.
    """
    datum = levi.parent
    n = datum.rank
    sbar = levi.sbar_roots
    # simple roots fully supported in the first p coordinates, for pruning
    prefix_roots = [[a for a in sbar
                     if all(a[i] == 0 for i in range(p, n))]
                    for p in range(n + 1)]
    classes = [0] if datum.family in ("GL", "C") else [0, 1]
    out: list[Weight] = []

    def rec(prefix: list[int], p: int, parity: int):
        if p == n:
            out.append(Weight(prefix))
            return
        for d in range(-2 * bound + parity, 2 * bound - parity + 1, 2):
            prefix.append(d)
            ok = True
            for a in prefix_roots[p + 1]:
                if a in prefix_roots[p]:
                    continue
                if sum(prefix[i] * a[i] for i in range(p + 1)) < 0:
                    ok = False
                    break
            if ok:
                rec(prefix, p + 1, parity)
            prefix.pop()

    for parity in classes:
        rec([], 0, parity)
    return sorted(out)


# the systems the replaced box route is compared over: GL1-6, B1-6, C1-6
# and D2-6, 439 Levis in all
RANK6_SYSTEMS = [("GL", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)),
                 ("D", range(2, 7))]

# the systems the replaced transversal and automorphism routes are compared
# over: GL1-7, B1-6, C1-6 and D2-6, 503 Levis in all
GROUP_SYSTEMS = [("GL", range(1, 8))] + RANK6_SYSTEMS[1:]

# the systems the every-Levi comparisons run over: GL2-5, B2-4, C2-4, D3-5
LEVI_SYSTEMS = ([("GL", n) for n in range(2, 6)] + [("B", n) for n in range(2, 5)]
                + [("C", n) for n in range(2, 5)] + [("D", n) for n in range(3, 6)])


def every_levi(datum: RootDatum):
    """The Levi of every subset of the simple roots, the empty one first."""
    m = len(datum.simple_roots)
    for k in range(m + 1):
        for sbar in itertools.combinations(range(1, m + 1), k):
            yield build_levi(datum, sbar)


def coroot_pairing(beta: Weight, alpha: Weight) -> int:
    """(beta, alpha^vee) = 2 (beta, alpha) / (alpha, alpha); exact integer."""
    aa = alpha.dot4(alpha)
    if aa == 0:
        raise WeightError("pairing against the zero vector")
    num = 2 * beta.dot4(alpha)
    q, r = divmod(num, aa)
    if r != 0:
        raise WeightError(f"non-integral coroot pairing of {beta} against {alpha}")
    return q


class Component(NamedTuple):
    """One irreducible summand of a Levi: its Dynkin type, with A-chains as
    gl blocks of rank (#vertices + 1), and the 1-based coordinates its
    roots touch."""

    family: str
    rank: int
    coords: tuple[int, ...]

    def describe(self) -> str:
        if self.family == "GL":
            return f"gl{self.rank}"
        if self.family == "B":
            return f"so{2 * self.rank + 1}"
        if self.family == "C":
            return f"sp{2 * self.rank}"
        return f"so{2 * self.rank}"

    def weyl_order(self) -> int:
        r = self.rank
        if self.family == "GL":
            return factorial(r)
        if self.family in ("B", "C"):
            return factorial(r) << r
        return factorial(r) << (r - 1)


def levi_components(levi: LeviDatum) -> tuple[Component, ...]:
    """The connected components of the Levi's Dynkin diagram, classified,
    and a gl1 for every coordinate no Levi root touches; by first coordinate."""
    chosen = levi.sbar_roots
    adj = {i: set() for i in range(len(chosen))}
    for a, b in itertools.combinations(range(len(chosen)), 2):
        if chosen[a].dot4(chosen[b]) != 0:
            adj[a].add(b)
            adj[b].add(a)
    seen: set[int] = set()
    comps: list[Component] = []
    touched: set[int] = set()
    for start in range(len(chosen)):
        if start in seen:
            continue
        stack, nodes = [start], []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            nodes.append(v)
            stack.extend(adj[v] - seen)
        roots = [chosen[v] for v in sorted(nodes)]
        coords = sorted({i + 1 for a in roots for i in range(len(a)) if a[i] != 0})
        touched.update(coords)
        comps.append(_classify_component(roots, tuple(coords)))
    for i in range(1, levi.parent.rank + 1):
        if i not in touched:
            comps.append(Component("GL", 1, (i,)))
    return tuple(sorted(comps, key=lambda c: (c.coords[0], c.coords)))


def _classify_component(roots: list[Weight], coords: tuple[int, ...]) -> Component:
    k = len(roots)
    if k == 1:
        a = roots[0]
        if a.dot4(a) == 16:  # long root 2e_i
            return Component("C", 1, coords)
        if a.dot4(a) == 4:   # short root e_i
            return Component("B", 1, coords)
        return Component("GL", 2, coords)
    degrees = [0] * k
    has_double = False
    max_len = max(a.dot4(a) for a in roots)
    for i, j in itertools.combinations(range(k), 2):
        cij = coroot_pairing(roots[i], roots[j])
        cji = coroot_pairing(roots[j], roots[i])
        if cij != 0:
            degrees[i] += 1
            degrees[j] += 1
            if cij * cji == 2:
                has_double = True
    if has_double:
        # a doubled bond arises from 2e_i (type C, long root of squared
        # doubled norm 16) or e_i (type B, short root of norm 4)
        return Component("C" if max_len == 16 else "B", k, coords)
    if max(degrees) == 3:
        return Component("D", k, coords)
    return Component("GL", k + 1, coords)


def describe_by_diagram(levi: LeviDatum) -> str:
    inner = "+".join(c.describe() for c in levi_components(levi))
    return f"{levi.parent.describe()}>{inner}"


def weylbar_order_by_diagram(levi: LeviDatum) -> int:
    return prod(c.weyl_order() for c in levi_components(levi))


def rbar_by_root_strings(levi: LeviDatum) -> tuple[Weight, ...]:
    """Rbar+ in the order of the positive roots, grown from Sbar.

    Every positive root of the Levi that is not simple is another one plus
    a Levi simple root, so adding Levi simple roots while the sum stays a
    positive root of g reaches all of Rbar+ and nothing else.
    """
    pos = set(levi.parent.positive_roots)
    found = set(levi.sbar_roots)
    frontier = list(found)
    while frontier:
        frontier = list({a + s for a in frontier for s in levi.sbar_roots} & (pos - found))
        found.update(frontier)
    return tuple(a for a in levi.parent.positive_roots if a in found)


def domrep(owner, beta: Weight) -> Weight:
    """The dominant image of ``beta`` for g or a Levi, one reflection at a time."""
    simple = owner.sbar_roots if isinstance(owner, LeviDatum) else owner.simple_roots
    cur = beta
    while True:
        for a in simple:
            p = coroot_pairing(cur, a)
            if p < 0:
                cur = cur - p * a
                break
        else:
            return cur


def standard_gl_blocks(levi: LeviDatum) -> tuple[tuple[int, ...], ...] | None:
    """The 1-based coordinate runs of the factor blocks, when all are plain
    gl blocks (``LeviDatum.blocks``), else None."""
    if any(fam != "GL" or flip for _, _, fam, flip in levi.blocks):
        return None
    return tuple(tuple(range(lo + 1, hi + 1)) for lo, hi, _, _ in levi.blocks)


def standard_gl_blocks_by_roots(levi: LeviDatum):
    """Consecutive gl coordinate blocks tiling 1..n, found from the roots.

    None unless every component is a straight gl block (its roots exactly
    e_a - e_b on a consecutive coordinate run) and the blocks, with the
    untouched gl1 coordinates, tile 1..n.
    """
    n = levi.parent.rank
    blocks, used = [], set()
    for comp in levi_components(levi):
        coords = comp.coords
        if (comp.family != "GL" or len(coords) != comp.rank
                or coords != tuple(range(coords[0], coords[0] + len(coords)))
                or used & set(coords)):
            return None
        expected = {Weight(2 * ((k == i - 1) - (k == j - 1)) for k in range(n))
                    for i, j in itertools.combinations(coords, 2)}
        actual = {a for a in levi.rbar_plus
                  if all(a[k] == 0 for k in range(n) if k + 1 not in coords)}
        if expected != actual:
            return None
        used |= set(coords)
        blocks.append(coords)
    if used != set(range(1, n + 1)):
        return None
    return tuple(sorted(blocks))


@lru_cache(maxsize=None)
def _rbar_table(levi: LeviDatum) -> PartitionTable:
    return PartitionTable(levi.rbar_plus, levi.parent.rank)


def levi_cone(levi: LeviDatum, rows: np.ndarray) -> np.ndarray:
    """Rows that are N-combinations of Rbar+: a partition count over Rbar+ is positive."""
    rows = np.asarray(rows, dtype=np.int64)
    if not levi.rbar_plus:
        return ~rows.any(axis=1)
    return _rbar_table(levi).count_rows(rows) > 0


def e_set(levi: LeviDatum, mu: Weight) -> tuple[Weight, ...]:
    """The E-set mu + rho_bar - w(rho_bar), one Levi Weyl element at a time."""
    return tuple(mu + levi.rho_bar - w.act(levi.rho_bar) for w in levi_elements(levi))


def far_from_walls_by_cosets(levi: LeviDatum, mu: Weight) -> bool:
    """Is the E-set in one closed chamber?  Searches the whole coset Stab(lam) w1.

    A chamber containing the E-set contains its mean mu + rho_bar, so the
    chamber is sigma w1 of the dominant one for some sigma in the stabiliser
    of lam = w1(mu + rho_bar).  Every E-set row goes through every coset
    element in one dominance mask.
    """
    datum = levi.parent
    drops, _ = _rho_drops(levi)
    rows = np.array(mu, dtype=np.int64)[None, :] + drops
    w1, lam = sort_normal_form(datum, mu + levi.rho_bar)
    stab_perm, stab_sign, _ = stabilizer_subgroup(datum, lam).arrays
    # sigma o w1 as arrays: perm = w1.perm[sigma.perm], signs likewise
    perm = np.array(w1.perm, dtype=np.int64)[stab_perm]
    sign = stab_sign * np.array(w1.signs, dtype=np.int64)[stab_perm]
    images = (sign[None, :, :] * rows[:, perm]).reshape(-1, datum.rank)
    code = kernels.FAMILY_CODE[datum.family]
    dominant = (kernels.dominant_rows(images, code) == images).all(axis=1)
    return bool(dominant.reshape(len(rows), len(stab_perm)).all(axis=0).any())


def same_chamber_by_inner_products(datum: RootDatum, mu: Weight, nu: Weight) -> bool:
    """Do ``mu`` and ``nu`` lie in a common closed Weyl chamber of ``datum``?

    Exactly when <mu, nu> = <dom mu, dom nu>: the reference route for
    ``equivalence.same_closed_chamber``, which compares dom(mu) + dom(nu)
    with dom(mu + nu).  If w maps both into the dominant chamber, w
    preserves the inner product.  Conversely, pick w1 with w1(mu) = dom mu
    =: lam and put x = w1(nu).  Every Weyl image y of nu satisfies
    <lam, y> <= <lam, dom nu>, since dom nu - y is a sum of positive roots
    and lam is dominant.  Move x by the stabiliser of lam (generated by the
    simple reflections orthogonal to lam) to a y dominant for those
    reflections; <lam, y> = <lam, x> = <lam, dom nu>.  A simple root alpha
    with <y, alpha> < 0 would have <lam, alpha> > 0, and the reflection
    s_alpha(y) = y + c alpha (c > 0) would exceed the bound.  So y is
    dominant and sigma w1 puts mu and nu in the dominant chamber.
    """
    lam = dominant_representative(datum, mu)[1]
    kappa = dominant_representative(datum, nu)[1]
    return mu.dot4(nu) == lam.dot4(kappa)


def dual_m_construction(levi: LeviDatum, mu: Weight, chunk_rows: int = 2_000_000):
    """The M-function of ``mu`` through the product of the two Levi alternants.

    The alternants of mu + rho_bar and of rho_bar multiply to a Levi-invariant
    polynomial X; summing w(X) over the whole Weyl group gives |Wbar| times
    the M-function up to the sign of the longest Levi element.  On the
    orbit-sum basis that is a bucket sum of the |Wbar|^2 product terms, made
    ``chunk_rows`` product rows at a time.  Returns the distinct dominant
    rows with nonzero coefficient, in lexicographic order, and their
    coefficients.
    """
    datum = levi.parent
    perm, sign, eps = levi_group(levi).arrays
    a_rows = kernels.orbit_images(perm, sign, np.array(mu + levi.rho_bar, np.int64))
    b_rows = kernels.orbit_images(perm, sign, np.array(levi.rho_bar, np.int64))
    k = len(eps)
    code = kernels.FAMILY_CODE[datum.family]
    chunk = max(1, chunk_rows // k)
    parts = []
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        block = (a_rows[start:stop, None, :] + b_rows[None, :, :]).reshape((stop - start) * k, -1)
        block_eps = (eps[start:stop, None] * eps[None, :]).reshape((stop - start) * k)
        parts.append(signed_bucket(kernels.dominant_rows(block, code), block_eps))
    rows, acc, *_ = parts[0] if len(parts) == 1 else signed_bucket(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
    keep = acc != 0
    w0sign = -1 if len(levi.rbar_plus) % 2 else 1
    rows, acc = rows[keep], w0sign * acc[keep]
    assert not (acc % k).any(), "dual M-construction is not divisible by |Wbar|"
    return rows, acc // k
