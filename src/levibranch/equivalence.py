"""Deciding equality of induced characters and scanning boxes for counterexamples.

Two Levi-dominant weights induce isomorphic modules exactly when their
M-functions agree.  When equality holds, the scan looks for a Weyl element
preserving the Levi positive roots (a diagram automorphism of the Levi) that
maps one weight to the other; an equal pair with no such element would be a
counterexample to the conjecture that one always exists.

``classify_pair`` decides one pair.  ``search_box`` decides a whole box by
equality class: within one Weyl orbit it computes every weight's leading
term, M-function, automorphism images and covering flags once, and derives
the verdicts of its pairs from those.  The M-functions of runs of
consecutive orbits are built in one batch, sized by the one row bound
``branching.M_BATCH_ROWS``, and each orbit's verdicts are still written as
soon as it is done.  Both routes make their verdicts in the same helper,
so they agree on the covering cases and on the guard.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import branching, kernels
from .branching import build_m, leading_term, m_terms
from .rootsys import LeviDatum, Weight
from .weightpoly import ORBIT_CHUNK_ROWS, _frame_for
from .weylgrp import (WeylElement, check_group_guard, diagram_automorphisms,
                      dominant_representative, levi_group)

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


def induced_equal(levi: LeviDatum, mu: Weight, nu: Weight) -> bool:
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
    return build_m(levi, mu).coeffs == build_m(levi, nu).coeffs


def relating_automorphism(levi: LeviDatum, mu: Weight, nu: Weight) -> WeylElement | None:
    """The first diagram automorphism u (in element order) with u(mu) = nu, if any."""
    autos = diagram_automorphisms(levi)
    hit = (kernels.orbit_images(autos.perm, autos.sign, np.array(mu, dtype=np.int64))
           == np.array(nu, dtype=np.int64)).all(axis=1)
    return autos.element(int(hit.argmax())) if hit.any() else None


def same_closed_chamber(levi: LeviDatum, mu: Weight, nu: Weight) -> bool:
    """Do ``mu`` and ``nu`` lie in a common closed Weyl chamber of the parent?

    Exactly when dom(mu) + dom(nu) = dom(mu + nu): the criterion that
    ``branching._far_flags`` proves for any finite set, here {mu, nu}.
    """
    rows = np.array([mu, nu, mu + nu], dtype=np.int64)
    dom = _frame_for(levi.parent).dominant(rows)
    return bool((dom[0] + dom[1] == dom[2]).all())


def _levi_cases(levi: LeviDatum) -> frozenset:
    """Covering cases that hold for every pair of the Levi."""
    cases = set()
    if levi.parent.family == "GL":
        cases.add(TYPE_A)
    if levi.is_full_gl_levi():
        cases.add(POLARISATION)
    return frozenset(cases)


def _verdict(mu: Weight, nu: Weight, equal: bool, auto: WeylElement | None,
             levi_cases: frozenset, *, same_chamber: bool, far: bool,
             two_rho_dominant: bool) -> PairVerdict:
    """Assemble a verdict; a covered equal pair without automorphism is a bug."""
    covered = set(levi_cases)
    if same_chamber:
        covered.add(SAME_CHAMBER)
    if far:
        covered.add(FAR_FROM_WALLS)
    if two_rho_dominant:
        covered.add(MU_2RHO_DOMINANT)
    if not covered:
        covered.add(NONE)
    counterexample = equal and auto is None
    if counterexample and covered != {NONE}:
        raise ClassificationBugError(
            f"equal pair {mu}, {nu} covered by {sorted(covered)} has no "
            "relating automorphism; this indicates an implementation bug")
    return PairVerdict(mu, nu, equal, auto, frozenset(covered), counterexample)


def classify_pair(levi: LeviDatum, mu: Weight, nu: Weight) -> PairVerdict:
    """Full verdict: equality, relating automorphism, and covering theorem cases."""
    datum = levi.parent
    two_rho = levi.two_rho_bar
    return _verdict(
        mu, nu, induced_equal(levi, mu, nu),
        relating_automorphism(levi, mu, nu), _levi_cases(levi),
        same_chamber=same_closed_chamber(levi, mu, nu),
        far=all(m_terms(levi, [w], [leading_term(levi, w)[0]])[0][2] for w in (mu, nu)),
        two_rho_dominant=(datum.is_dominant(mu + two_rho)
                          or datum.is_dominant(nu + two_rho)))


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
    """All Levi-dominant lattice weights with every |coordinate| <= bound, sorted.

    The product of the factor blocks' chambers (``LeviDatum.blocks``), for
    the integral class and, in B and D, the half-integral one: a gl block's
    weakly decreasing tuples, a B or C tail's nonnegative ones, a D tail's
    those and their negations in the last coordinate (x_(n-1) >= |x_n|),
    and a ``flip`` block's gl tuples with the last coordinate negated.  It
    is counted first, under the group guard: w-tuples that weakly decrease
    through v values number C(v + w - 1, w).
    """
    parities = (0,) if levi.parent.family in ("GL", "C") else (0, 1)
    # at parity p there are 2 bound + 1 - p values: bound + 1 - p nonnegative
    # ones and bound positive ones
    size = sum(math.prod(
        math.comb(2 * bound - p + w, w) if family == "GL"
        else math.comb(bound - p + w, w) + (family == "D") * math.comb(bound - 1 + w, w)
        for w, family in ((hi - lo, family) for lo, hi, family, _ in levi.blocks))
        for p in parities)
    check_group_guard(f"weight box of {levi.describe()} at bound {bound}", size)
    out: list[Weight] = []
    for parity in parities:
        values = range(-2 * bound + parity, 2 * bound - parity + 1, 2)
        chambers = []
        for lo, hi, family, flip in levi.blocks:
            chamber = [t[::-1] for t in itertools.combinations_with_replacement(values, hi - lo)]
            if flip:
                chamber = [t[:-1] + (-t[-1],) for t in chamber]
            elif family != "GL":
                chamber = [t for t in chamber if t[-1] >= 0]
                if family == "D":
                    chamber += [t[:-1] + (-t[-1],) for t in chamber if t[-1]]
            chambers.append(chamber)
        out += (Weight(itertools.chain(*parts)) for parts in itertools.product(*chambers))
    return sorted(out)


def search_box(levi: LeviDatum, coord_bound: int, sink=None,
               threads: int = 1, resume_keys: set | None = None) -> SearchSummary:
    """Scan a bounded box for equal induced characters and counterexamples.

    The box is ``dominant_box``.  Only Levi-sized groups are enumerated,
    each under the group guard: the Levi Weyl group and Stab_W(rho_bar),
    never W.
    Weights are grouped by their dominant representative (pairs in distinct
    Weyl orbits can never be equal); groups are processed in deterministic
    order and every equal pair is emitted as one verdict.  Within a group the
    walk goes by equality class, not by pair:

    * the leading terms of all weights come from one batched dominant image;
    * the M-functions of the weights that share their leading term with
      another member are built, with every check of ``build_m``, each with
      its FAR_FROM_WALLS flag, and the built weights are partitioned by
      their M-function coefficients.  One ``branching.m_terms`` call builds
      a run of consecutive groups: the first group alone, then each run as
      long as it can be, cut only where the next group's built weights
      would take it past ``M_BATCH_ROWS`` E-set rows (|Wbar| per weight).
      A larger group is a run of its own, which ``m_terms`` splits.  A
      run's groups are then processed and written one at a time, and no
      later group is looked at before the first group's lines are written;
    * the weights in a class of two or more each get, once, their distinct
      packed automorphism images (``orbit_images`` and ``pack_rows`` on at
      most ``ORBIT_CHUNK_ROWS`` rows per call), each with the first
      automorphism giving it, the one a verdict carries;
    * the pairs are walked in ``itertools.combinations`` order and a verdict
      is made for every pair inside one class.  Both weights of a pair have
      the dominant image ``key``, so in a common closed chamber one w maps
      both to ``key`` and mu = nu: ``same_closed_chamber`` never holds in a
      pair.

    ``sink`` receives one JSON line per verdict plus one group-completion
    marker per group, written as soon as that group is done, so interrupted
    scans can be resumed by replaying the markers.  ``sink`` needs only
    ``write``; the caller chooses its buffering.  With ``threads`` > 1 a
    pool builds and processes whole runs, and they are written in order.
    """
    t0 = time.monotonic()
    datum = levi.parent
    dominant = _frame_for(datum).dominant
    wbar = len(levi_group(levi))  # enforce the guard before any build
    box = dominant_box(levi, coord_bound)
    rows = np.array(box, dtype=np.int64).reshape(len(box), datum.rank)
    groups: dict[Weight, list[int]] = {}
    for i, key in enumerate(dominant(rows).tolist()):
        groups.setdefault(Weight(key), []).append(i)
    keys = sorted(groups)
    # per weight: the leading term of its M-function, the dominant image of
    # mu + 2 rho_bar, and whether mu + 2 rho_bar is already dominant
    shifted = rows + np.array(levi.two_rho_bar, dtype=np.int64)
    top_rows = dominant(shifted)
    tops = list(map(tuple, top_rows.tolist()))
    two_rho_dominant = (top_rows == shifted).all(axis=1).tolist()
    levi_cases = _levi_cases(levi)
    summary = SearchSummary(levi.describe(), coord_bound,
                            box_size=len(box), groups=len(keys))
    todo = [k for k in keys if k not in (resume_keys or set())]
    summary.skipped_groups = len(keys) - len(todo)

    def runs():
        """The runs of (key, idx, built) groups described above, made lazily."""
        run, filled = [], 0
        for count, key in enumerate(todo):
            idx = groups[key]  # box order, which is sorted order
            shared_top = Counter(tops[i] for i in idx)
            built = [j for j, i in enumerate(idx) if shared_top[tops[i]] > 1]
            if run and filled + len(built) * wbar > branching.M_BATCH_ROWS:
                yield run
                run, filled = [], 0
            run.append((key, idx, built))
            filled += len(built) * wbar
            if not count:  # the first group at once, on its own
                yield run
                run, filled = [], 0
        if run:
            yield run

    def process(key: Weight, idx: list, built: list, terms: list):
        members = [box[i] for i in idx]
        tested = len(idx) * (len(idx) - 1) // 2
        classes: dict = {}
        cls: list = [None] * len(idx)
        far: list = [False] * len(idx)
        for j, (urows, sums, flag) in zip(built, terms):
            cls[j] = classes.setdefault((urows.tobytes(), sums.tobytes()), idx[j])
            far[j] = flag
        sizes = Counter(c for c in cls if c is not None)
        paired = [j for j, c in enumerate(cls) if c is not None and sizes[c] > 1]
        if not paired:
            return key, tested, []
        autos = diagram_automorphisms(levi)
        images, step = {}, max(1, ORBIT_CHUNK_ROWS // len(autos))
        for lo in range(0, len(paired), step):
            part = paired[lo:lo + step]
            img = kernels.orbit_images(autos.perm, autos.sign, rows[[idx[j] for j in part]])
            for j, packed in zip(part, kernels.pack_rows(img).reshape(len(part), -1)):
                # own key (identity first), sorted distinct images, first u of each
                images[j] = (packed[0], *np.unique(packed, return_index=True))

        def relating(a: int, b: int) -> WeylElement | None:
            (_, uniq, first), key_b = images[a], images[b][0]
            # the last image <= key_b; at -1 every image exceeds key_b, uniq[-1] too
            i = np.searchsorted(uniq, key_b, side="right") - 1
            return autos.element(first[i]) if uniq[i] == key_b else None

        verdicts = [
            _verdict(mu, nu, True, relating(a, b), levi_cases,
                     same_chamber=False, far=far[a] and far[b],
                     two_rho_dominant=(two_rho_dominant[idx[a]]
                                       or two_rho_dominant[idx[b]]))
            for (a, mu), (b, nu) in itertools.combinations(enumerate(members), 2)
            if cls[a] is not None and cls[a] == cls[b]]
        return key, tested, verdicts

    def results(run):
        """Build every weight of ``run`` in one ``m_terms`` call, then process
        its groups one at a time, in order."""
        picks = [idx[j] for _, idx, built in run for j in built]
        terms = iter(m_terms(levi, [box[i] for i in picks], top_rows[picks]))
        for group in run:
            yield process(*group, list(itertools.islice(terms, len(group[2]))))

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

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # whole runs, recorded in order as each finishes
            for done in pool.map(lambda run: list(results(run)), runs()):
                for result in done:
                    record(*result)
    else:
        for run in runs():
            for result in results(run):
                record(*result)
    summary.wall_clock_s = time.monotonic() - t0
    return summary


def replay_resume_state(path) -> tuple[set, int]:
    """Completed group keys and the byte offset just past the last marker.

    Verdict lines written after the last completed marker belong to an
    interrupted group; resuming truncates them and replays that group, so a
    resumed scan reproduces the uninterrupted certificate file exactly.  An
    unterminated last line (a write cut short) is part of that group too.
    """
    done: set = set()
    offset = 0
    try:
        with open(path, "rb") as fh:
            pos = 0
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break
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
