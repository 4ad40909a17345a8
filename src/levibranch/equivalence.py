"""Deciding equality of induced characters and scanning boxes for counterexamples.

Two Levi-dominant weights induce isomorphic modules exactly when their
M-functions agree.  When equality holds, the scan looks for a Weyl element
preserving the Levi positive roots (a diagram automorphism of the Levi) that
maps one weight to the other; an equal pair with no such element would be a
counterexample to the conjecture that one always exists.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .branching import build_m, far_from_walls, leading_term
from .rootsys import LeviDatum, Weight
from .weylgrp import (DEFAULT_GROUP_GUARD, WeylElement, diagram_automorphisms,
                      dominant_representative, stabilizer_subgroup)

SAME_CHAMBER = "SAME_CHAMBER"
FAR_FROM_WALLS = "FAR_FROM_WALLS"
MU_2RHO_DOMINANT = "MU_2RHO_DOMINANT"
TYPE_A = "TYPE_A"
POLARISATION = "POLARISATION"
NONE = "NONE"


class ClassificationBugError(RuntimeError):
    """An equal pair covered by a proven case carried no automorphism."""


@dataclass(frozen=True)
class PairVerdict:
    mu: Weight
    nu: Weight
    equal: bool
    relating_auto: WeylElement | None
    covered_by: frozenset
    counterexample: bool

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "nu": self.nu.to_json(),
            "equal": self.equal,
            "auto": self.relating_auto.to_json() if self.relating_auto else None,
            "covered": sorted(self.covered_by),
            "counterexample": self.counterexample,
        }


def induced_equal(levi: LeviDatum, mu: Weight, nu: Weight,
                  guard: int = DEFAULT_GROUP_GUARD, _cache: dict | None = None) -> bool:
    """Exact equality of the induced characters of ``mu`` and ``nu``.

    Fast-fails through two necessary conditions (same Weyl orbit; same
    leading term) before comparing full M-functions.
    """
    levi.require_dominant(mu)
    levi.require_dominant(nu)
    if mu == nu:
        return True
    datum = levi.parent
    if dominant_representative(datum, mu)[1] != dominant_representative(datum, nu)[1]:
        return False
    if leading_term(levi, mu)[0] != leading_term(levi, nu)[0]:
        return False
    if _cache is None:
        _cache = {}
    for w in (mu, nu):
        if w not in _cache:
            _cache[w] = build_m(levi, w, guard=guard)
    return _cache[mu].coeffs == _cache[nu].coeffs


def relating_automorphism(levi: LeviDatum, mu: Weight, nu: Weight,
                          guard: int = DEFAULT_GROUP_GUARD) -> WeylElement | None:
    """A Weyl element fixing the Levi positive roots with u(mu) = nu, if any."""
    for u in diagram_automorphisms(levi, guard):
        if u.act(mu) == nu:
            return u
    return None


def same_closed_chamber(levi: LeviDatum, mu: Weight, nu: Weight) -> bool:
    """Do ``mu`` and ``nu`` lie in a common closed Weyl chamber of the parent?"""
    if mu == nu:
        return True
    datum = levi.parent
    w1, lam = dominant_representative(datum, mu)
    for sigma in stabilizer_subgroup(datum, lam):
        if datum.is_dominant(sigma.compose(w1).act(nu)):
            return True
    return False


def classify_pair(levi: LeviDatum, mu: Weight, nu: Weight,
                  guard: int = DEFAULT_GROUP_GUARD,
                  _cache: dict | None = None) -> PairVerdict:
    """Full verdict: equality, relating automorphism, and covering theorem cases."""
    datum = levi.parent
    equal = induced_equal(levi, mu, nu, guard, _cache)
    auto = relating_automorphism(levi, mu, nu, guard)
    covered = set()
    if same_closed_chamber(levi, mu, nu):
        covered.add(SAME_CHAMBER)
    if far_from_walls(levi, mu) and far_from_walls(levi, nu):
        covered.add(FAR_FROM_WALLS)
    if datum.is_dominant(mu + levi.two_rho_bar) or \
            datum.is_dominant(nu + levi.two_rho_bar):
        covered.add(MU_2RHO_DOMINANT)
    if datum.family == "GL":
        covered.add(TYPE_A)
    if levi.is_full_gl_levi():
        covered.add(POLARISATION)
    if not covered:
        covered.add(NONE)
    counterexample = equal and auto is None
    if counterexample and covered != {NONE}:
        raise ClassificationBugError(
            f"equal pair {mu}, {nu} covered by {sorted(covered)} has no "
            "relating automorphism; this indicates an implementation bug")
    return PairVerdict(mu, nu, equal, auto, frozenset(covered), counterexample)


# -- box search -----------------------------------------------------------------

@dataclass
class SearchSummary:
    levi_label: str
    coord_bound: int
    box_size: int = 0
    groups: int = 0
    pairs_tested: int = 0
    equal_pairs: int = 0
    autos_found: int = 0
    counterexamples: int = 0
    skipped_groups: int = 0
    wall_clock_s: float = 0.0
    verdicts: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "levi": self.levi_label,
            "coord_bound": self.coord_bound,
            "box_size": self.box_size,
            "groups": self.groups,
            "pairs_tested": self.pairs_tested,
            "equal_pairs": self.equal_pairs,
            "autos_found": self.autos_found,
            "counterexamples": self.counterexamples,
            "skipped_groups": self.skipped_groups,
            "wall_clock_s": round(self.wall_clock_s, 3),
        }


def dominant_box(levi: LeviDatum, bound: int) -> list[Weight]:
    """All Levi-dominant lattice weights with every |coordinate| <= bound.

    For the B and D families both the integral and the half-integral class
    are included.
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


def search_box(levi: LeviDatum, coord_bound: int, sink=None,
               threads: int = 1, guard: int = DEFAULT_GROUP_GUARD,
               resume_keys: set | None = None) -> SearchSummary:
    """Scan a bounded box for equal induced characters and counterexamples.

    Weights are grouped by their dominant representative (pairs in distinct
    Weyl orbits can never be equal); groups are processed in deterministic
    order and every equal pair is emitted as one verdict.  ``sink`` receives
    one JSON line per verdict plus one group-completion marker per group,
    written as soon as that group is done, so interrupted scans can be
    resumed by replaying the markers.  ``sink`` needs only ``write``; the
    caller chooses its buffering.
    """
    t0 = time.monotonic()
    datum = levi.parent
    box = dominant_box(levi, coord_bound)
    groups: dict[Weight, list[Weight]] = {}
    for mu in box:
        groups.setdefault(dominant_representative(datum, mu)[1], []).append(mu)
    keys = sorted(groups)
    summary = SearchSummary(levi.describe(), coord_bound,
                            box_size=len(box), groups=len(keys))
    resume_keys = resume_keys or set()

    def process(key: Weight):
        members = sorted(groups[key])
        verdicts = []
        tested = 0
        cache: dict = {}
        for mu, nu in itertools.combinations(members, 2):
            tested += 1
            if induced_equal(levi, mu, nu, guard, cache):
                verdicts.append(classify_pair(levi, mu, nu, guard, cache))
        return key, tested, verdicts

    def record(key: Weight, tested: int, verdicts: list):
        summary.pairs_tested += tested
        for v in verdicts:
            summary.equal_pairs += 1
            if v.relating_auto is not None:
                summary.autos_found += 1
            if v.counterexample:
                summary.counterexamples += 1
            summary.verdicts.append(v)
            if sink is not None:
                sink.write(json.dumps(v.to_json(), sort_keys=True) + "\n")
        if sink is not None:
            sink.write(json.dumps(
                {"group_done": key.to_json(), "pairs": tested}, sort_keys=True) + "\n")

    todo = [k for k in keys if k not in resume_keys]
    summary.skipped_groups = len(keys) - len(todo)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for result in pool.map(process, todo):  # in order, as each finishes
                record(*result)
    else:
        for key in todo:
            record(*process(key))
    summary.wall_clock_s = time.monotonic() - t0
    return summary


def replay_resume_state(path) -> tuple[set, int]:
    """Completed group keys and the byte offset just past the last marker.

    Verdict lines written after the last completed marker belong to an
    interrupted group; resuming truncates them and replays that group, so a
    resumed scan reproduces the uninterrupted certificate file exactly.
    """
    done: set = set()
    offset = 0
    try:
        with open(path, "rb") as fh:
            pos = 0
            for raw in fh:
                pos += len(raw)
                line = raw.decode().strip()
                if not line:
                    continue
                rec = json.loads(line)
                if "group_done" in rec:
                    done.add(Weight(int(round(2 * x)) for x in rec["group_done"]))
                    offset = pos
    except FileNotFoundError:
        pass
    return done, offset
