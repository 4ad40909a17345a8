"""Object-by-object routes, the oracles for the array code.

The Weyl-group functions walk ``WeylElement`` objects one at a time:
``itertools`` for all of W, a breadth-first closure for parabolic
subgroups, and element-by-element filters for the transversal and the
diagram automorphisms.  They share no code with the array builders of
``levibranch.weylgrp`` beyond the element type itself.

``domrep`` reflects one weight at a time into the dominant chamber of g or
of a Levi, and ``levi_cone`` decides the Levi dominance order by counting
partitions over the Levi positive roots: the oracles for the frames'
batched dominant image and Levi cone test in ``levibranch.weightpoly``.
``e_set`` builds the E-set of a Levi weight one element at a time, and
``far_from_walls_by_cosets`` searches the whole stabiliser coset of w1 for
a chamber holding it: the reference route for ``branching.far_from_walls``,
which tests w1 alone.  ``dual_m_construction`` builds an M-function from
the |Wbar|^2 products of two Levi alternants: the reference route for
``branching.m_terms``.

``dominant_box_by_prefix_roots`` grows the Levi-dominant box coordinate by
coordinate, pruning on the Levi simple roots that a prefix already
supports: the reference route for ``equivalence.dominant_box``, which
takes the product of the factor blocks' chambers.
``automorphisms_by_transversal`` filters the transversal (and so all of W)
for the elements sending Sbar into Rbar+: the reference route for
``weylgrp.diagram_automorphisms``, which filters a conjugate of the
stabiliser of rho_bar.

``levi_components`` classifies the connected components of the Levi's
Dynkin diagram by the coroot pairings of its simple roots, and
``rbar_by_root_strings`` grows Rbar+ from the Levi simple roots along root
strings.  They are the reference routes for ``LeviDatum.describe``,
``LeviDatum.weylbar_order`` and ``LeviDatum.rbar_plus``, which read the
factor blocks off sbar and the Levi cone off prefix sums.
``standard_gl_blocks_by_roots`` compares root sets component by component:
the reference route for ``LeviDatum.standard_gl_blocks``.  ``every_levi``
lists the Levis the comparisons run over.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from levibranch import kernels
from levibranch.rootsys import (LeviDatum, RootDatum, Weight, WeightError,
                                build_levi)
from levibranch.weightpoly import PartitionTable, _rho_drops, signed_bucket
from levibranch.weylgrp import (WeylElement, _maps_into, _objects,
                                dominant_representative, levi_group,
                                stabilizer_subgroup, transversal)


@lru_cache(maxsize=None)
def weyl_elements(datum: RootDatum) -> tuple[WeylElement, ...]:
    """All of W: every permutation, each against every admissible sign choice."""
    n = datum.rank
    if datum.family == "GL":
        sign_choices = [(1,) * n]
    else:
        sign_choices = [s for s in itertools.product((1, -1), repeat=n)
                        if datum.family != "D" or s.count(-1) % 2 == 0]
    return tuple(WeylElement(perm, s)
                 for perm in itertools.permutations(range(n)) for s in sign_choices)


def closure(gens: list[WeylElement], n: int) -> tuple[WeylElement, ...]:
    """The group generated by ``gens``, sorted by ``sort_key``."""
    seen = {WeylElement.identity(n)}
    frontier = [WeylElement.identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                h = g.compose(w)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen, key=WeylElement.sort_key))


def levi_elements(levi: LeviDatum) -> tuple[WeylElement, ...]:
    return closure([WeylElement.reflection(a) for a in levi.sbar_roots],
                   levi.parent.rank)


def stabilizer_elements(datum: RootDatum, lam: Weight) -> tuple[WeylElement, ...]:
    """Brute force: the w in W with w(lam) = lam, in enumeration order."""
    return tuple(w for w in weyl_elements(datum) if w.act(lam) == lam)


def transversal_elements(levi: LeviDatum) -> tuple[WeylElement, ...]:
    pos = set(levi.parent.positive_roots)
    reps = [w for w in weyl_elements(levi.parent)
            if all(w.act(a) in pos for a in levi.sbar_roots)]
    return tuple(sorted(reps, key=WeylElement.sort_key))


def automorphism_elements(levi: LeviDatum) -> tuple[WeylElement, ...]:
    """Transversal elements sending the Levi simple roots into rbar_plus, identity first."""
    rbar = set(levi.rbar_plus)
    autos = [u for u in transversal_elements(levi)
             if all(u.act(a) in rbar for a in levi.sbar_roots)]
    return tuple(sorted(autos, key=lambda u: (not u.is_identity(), u.sort_key())))


def automorphisms_by_transversal(levi: LeviDatum) -> tuple[WeylElement, ...]:
    """The transversal rows sending every Levi simple root into rbar_plus.

    Every such w of W keeps Sbar positive, so it is in the transversal; the
    transversal is in sort_key order, so the identity comes first.  Built
    afresh, without the transversal cache.
    """
    trans = transversal.__wrapped__(levi)
    return _objects(*_maps_into(trans.perm, trans.sign, levi.sbar_roots, levi.rbar_plus))


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


# the systems the replaced box and automorphism routes are compared over:
# GL1-6, B1-6, C1-6 and D2-6, 439 Levis in all
RANK6_SYSTEMS = [("GL", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)),
                 ("D", range(2, 7))]

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
    w1, lam = dominant_representative(datum, mu + levi.rho_bar)
    stab_perm, stab_sign, _ = stabilizer_subgroup(datum, lam).arrays
    # sigma o w1 as arrays: perm = w1.perm[sigma.perm], signs likewise
    perm = np.array(w1.perm, dtype=np.int64)[stab_perm]
    sign = stab_sign * np.array(w1.signs, dtype=np.int64)[stab_perm]
    images = (sign[None, :, :] * rows[:, perm]).reshape(-1, datum.rank)
    code = kernels.FAMILY_CODE[datum.family]
    dominant = (kernels.dominant_rows(images, code) == images).all(axis=1)
    return bool(dominant.reshape(len(rows), len(stab_perm)).all(axis=0).any())


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
    rows, acc, _ = parts[0] if len(parts) == 1 else signed_bucket(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
    keep = acc != 0
    w0sign = -1 if len(levi.rbar_plus) % 2 else 1
    rows, acc = rows[keep], w0sign * acc[keep]
    assert not (acc % k).any(), "dual M-construction is not divisible by |Wbar|"
    return rows, acc // k
