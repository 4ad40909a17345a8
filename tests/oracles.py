"""Object-by-object Weyl-group routes, the oracles for the array builders.

Each function walks ``WeylElement`` objects one at a time: ``itertools``
for all of W, a breadth-first closure for parabolic subgroups, and
element-by-element filters for the transversal and the diagram
automorphisms.  They share no code with the array builders of
``levibranch.weylgrp`` beyond the element type itself.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from levibranch.rootsys import LeviDatum, RootDatum, Weight
from levibranch.weylgrp import WeylElement


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

