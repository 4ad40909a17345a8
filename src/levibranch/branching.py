"""Branching coefficients, the restriction oracle and the M-functions.

The branching coefficient m_mu^lambda counts the Levi irreducible of highest
weight mu inside the restriction of the ambient irreducible of highest
weight lambda.  Two independent routes are implemented:

* the alternating Weyl sum over the complement partition function, and
* the restriction oracle: the character of g, expanded once, decomposed
  on the Levi frame by Klimyk's formula.

The Weyl sum never enumerates W.  Only the w with w(lam + rho) - (mu + rho)
in the positive cone contribute (the Weyl alternation set), and
``weylgrp.signed_search``, cut by the prefix sums of ``_alternation_set``,
finds them for a whole batch of lambdas; one partition table counts their
arguments.  A row is one batch, a single multiplicity a batch of one.

On the torus Levi (no retained simple roots) the Weyl sum is Kostant's
weight-multiplicity formula, the independent check of the Freudenthal
multiplicities in ``weightpoly``.

Equality of the infinite induced characters H_mu is decided through the
finite M-function: the signed sum over the Levi Weyl group of full orbit
sums of mu + rho_bar - w(rho_bar).  M-functions are stored compactly on the
orbit-sum basis (coefficients indexed by dominant representatives); the low
term count makes exact equality checks cheap even for large Weyl groups.
``m_terms`` builds them, one weight or a batch of weights at a time,
checks each in O(|Wbar|) rows, and reads each weight's FAR_FROM_WALLS flag
off the same dominant images of its E-set (``_far_flags``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .rootsys import (LeviDatum, RootDatum, Weight, WeightError,
                      _scaled_coordinates, chamber_cone_mask)
from .weightpoly import (WeightPolynomial, _coefficient_guard, _frame_for,
                         _rho_drops, decompose_character, levi_table, signed_bucket,
                         weyl_character)
from .weylgrp import (GroupSizeError, dominant_representative, levi_group,
                      signed_search)

DEFAULT_EXPAND_BUDGET = 5_000_000
# E-set rows per batch of M-function builds, and per run of groups that a
# box scan builds in one ``m_terms`` call: the one bound on either size
M_BATCH_ROWS = 1 << 12


def _far_flags(levi: LeviDatum, mus: np.ndarray, dom: np.ndarray) -> np.ndarray:
    """Does the E-set E of each row mu of ``mus``, the |Wbar| rows
    x = mu + rho_bar - w(rho_bar) whose dominant images ``dom`` holds in the
    order of ``_rho_drops``, lie in one closed Weyl chamber?

    Exactly when the deviations dom(x) - dom(mu + rho_bar) sum to 0 over E.
    The sum s of E is |Wbar| (mu + rho_bar): the sum of w(rho_bar) over Wbar
    is Wbar-invariant and in the span of the Levi roots, so 0.  In the
    dominance order w(x) <= dom(x) for every w in W.  For w with w(s)
    dominant, dom(s) = sum w(x) <= sum dom(x), with equality exactly when
    w(x) = dom(x) for every x, that is when w puts all of E in the closed
    dominant chamber; and if some w' does, dom(s) = sum w'(x) = sum dom(x).
    The sort normal forms are 1-Lipschitz in the sup norm and D's sign rule
    2-Lipschitz, so each deviation is at most 2 max|rho_bar| per coordinate
    and their int64 sum is exact, where the sum of dom(x) could wrap.
    """
    centre = _frame_for(levi.parent).dominant(mus + np.array(levi.rho_bar, dtype=np.int64))
    deviation = dom.reshape(mus.shape[0], -1, mus.shape[1]) - centre[:, None, :]
    return ~deviation.sum(axis=1).any(axis=1)


# -- alternating-sum branching ----------------------------------------------

def branch_multiplicity(levi: LeviDatum, lam: Weight, mu: Weight) -> int:
    """Branching coefficient via the signed Weyl sum of partition counts:
    a one-lambda ``_weyl_batch``."""
    return _weyl_batch(levi, [lam], mu)[0]


def _weyl_sums(levi: LeviDatum, lams, mu: Weight) -> list:
    """m_mu^lam for each lambda of ``lams``: one ``_weyl_batch``, or one per
    lambda when the batch passes a limit.

    The batch's search counts the partial elements of every lambda at once,
    and its partition table spans, coordinate by coordinate, the largest
    argument of any lambda; either can pass a limit that no lambda alone
    passes.  Alone, a lambda meets the limits of the sum over W: its partial
    elements are prefixes of distinct elements of W, at most |W| of them,
    and its table is the one that sum would build.
    """
    try:
        return _weyl_batch(levi, lams, mu)
    except (GroupSizeError, kernels.BudgetError, OverflowError):
        if len(lams) < 2:
            raise
        return [_weyl_batch(levi, [lam], mu)[0] for lam in lams]


def _weyl_batch(levi: LeviDatum, lams, mu: Weight) -> list:
    """m_mu^lam for each lambda of ``lams``: the sum of eps(w) P(w(lam + rho) -
    (mu + rho)) over the w in W whose argument lies in the positive cone,
    with P the partition function of the roots off the Levi.

    ``_alternation_set`` finds those w for the whole batch, and one
    ``count_rows`` call counts their arguments.  Every argument is at most
    lam - mu in the dominance order, so the table lies inside the box of
    the largest lam - mu.
    """
    datum = levi.parent
    for lam in lams:
        datum.require_dominant(lam)
    levi.require_dominant(mu)
    # different lattice classes never branch into each other
    live = [i for i, lam in enumerate(lams) if (lam - mu).is_integral()]
    total = np.zeros(len(lams), dtype=np.int64)
    vs = np.array([lams[i] + datum.rho for i in live], dtype=np.int64).reshape(-1, datum.rank)
    who, args, eps = _alternation_set(datum, vs, np.array(mu + datum.rho, dtype=np.int64))
    if len(args):
        counts = levi_table(levi).count_rows(args)
        np.add.at(total, np.array(live, dtype=np.int64)[who], eps * counts)
    for lam, m in zip(lams, total.tolist()):
        if m < 0:
            raise WeightError(f"negative branching multiplicity {m} at {lam}, {mu}")
    return total.tolist()


def _alternation_set(datum: RootDatum, vs: np.ndarray, target: np.ndarray):
    """The w in W with w(v) - target in the positive cone, for each row v of
    ``vs``: (row id, argument w(v) - target, eps(w)) per such w (``signed_search``).

    A partial element is cut as soon as a prefix sum t_i of w(v) - target
    is negative or odd.  Every row in the cone has all its t_i nonnegative
    and even (``_scaled_coordinates``): t_i = 2 c_i, save that in GL t_n is
    0, in C t_n = 4 c_n, and in D t_(n-1) = 2 (c_(n-1) + c_n) and t_n = 4 c_n.
    The leaves go through ``chamber_cone_mask``.
    """
    def admit(i, img, x):
        step = (img.sum(axis=1) - target[:i + 1].sum())[:, None, None] + x
        return (step >= 0) & ((step & 1) == 0)

    who, img, eps = signed_search(datum.family, vs, admit,
                                  f"Weyl-sum search in W({datum.describe()})")
    args = img - target
    keep = chamber_cone_mask(datum.family, args)
    return who[keep], args[keep], eps[keep]


@dataclass
class BranchingRow:
    """One row of the branching matrix: multiplicities of a fixed Levi weight."""

    levi: LeviDatum
    mu: Weight
    entries: dict
    box: tuple[Weight, ...] | None = None

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "entries": [{"lam": w.to_json(), "m": self.entries[w]}
                        for w in sorted(self.entries)],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"lam{i+1}" for i in range(self.levi.parent.rank)]
                        + ["multiplicity"])
        for w in sorted(self.entries):
            writer.writerow([str(x) for x in w.to_json()] + [self.entries[w]])
        return buf.getvalue()


def default_lambda_box(levi: LeviDatum, mu: Weight, k: int = 2) -> tuple[Weight, ...]:
    """Dominant lambda with mu <= lambda <= mu + k * (highest root).

    Each such lambda is top - sum c_i alpha_i with integers 0 <= c_i <= d_i,
    where d holds the simple-root coordinates of k * theta; the box is that
    grid cut to its dominant rows, in sorted order.
    """
    datum = levi.parent
    datum.require_weight(mu)
    top = np.array(mu + k * datum.highest_root, dtype=np.int64)
    t, scale = _scaled_coordinates(datum.family, [k * datum.highest_root])
    d = (t[0] // scale)[:len(datum.simple_roots)].tolist()
    sizes = [max(c + 1, 0) for c in d]
    steps = np.indices(sizes).reshape(len(d), math.prod(sizes)).T
    simple = np.array(datum.simple_roots, dtype=np.int64).reshape(len(d), datum.rank)
    rows = top - steps @ simple
    rows = rows[(rows @ simple.T >= 0).all(axis=1)]
    return tuple(sorted(map(Weight, rows.tolist())))


def branch_row(levi: LeviDatum, mu: Weight, k: int = 2) -> BranchingRow:
    """Evaluate the alternating-sum branching over the default lambda box."""
    box = default_lambda_box(levi, mu, k)
    return BranchingRow(levi, mu, dict(zip(box, _weyl_sums(levi, box, mu))), box)


def branch_by_restriction(levi: LeviDatum, lam: Weight) -> dict:
    """Restriction oracle: strip Levi highest weights off the character of g.

    Returns the complete row {mu: multiplicity} for the ambient highest
    weight ``lam``; independent of the alternating-sum route.  The
    character of g is the one orbit expansion (``weyl_character``).
    ``decompose_character`` checks that it is symmetric under the Levi Weyl
    group and reads the whole row off one signed sort of its terms into the
    Levi chamber (Klimyk's formula), with no Levi character, checked once
    against the Weyl dimension formula.
    """
    datum = levi.parent
    datum.require_dominant(lam)
    char = weyl_character(datum, lam)
    return decompose_character(levi, char)


# -- M-functions ---------------------------------------------------------------

@dataclass(frozen=True)
class MFunction:
    """Finite symmetrised alternating sum deciding induced-character equality.

    ``coeffs`` lists (dominant representative, signed count) pairs: the
    expansion of the function over full Weyl orbit sums.  Expanding every
    orbit yields the underlying weight polynomial; two induced characters
    agree exactly when these coefficient lists agree.
    """

    levi: LeviDatum
    mu: Weight
    coeffs: tuple[tuple[Weight, int], ...]

    def leading(self) -> tuple[Weight, int]:
        return leading_term(self.levi, self.mu)

    def poly(self) -> WeightPolynomial:
        """Materialise the full weight polynomial (all orbit points).

        The term a at lam is a times the full orbit sum over W, which puts
        a |W| / |W lam| at each point of the orbit W lam.  ``_Frame.orbits``
        makes the orbits, and ``DEFAULT_EXPAND_BUDGET`` caps their number of
        points after every chunk of orbit images.
        """
        datum = self.levi.parent
        _coefficient_guard(max((abs(a) for _, a in self.coeffs), default=0)
                           * datum.weyl_order())
        keys, rows, orbit = _frame_for(datum).orbits([lam for lam, _ in self.coeffs],
                                                     limit=DEFAULT_EXPAND_BUDGET)
        a = np.array([a for _, a in self.coeffs], np.int64)
        stab = datum.weyl_order() // np.bincount(orbit, minlength=len(a))  # |W| / |W lam|
        return WeightPolynomial(keys, rows, (a * stab)[orbit])

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "coeffs": [{"w": w.to_json(), "c": c} for w, c in self.coeffs],
        }


def leading_term(levi: LeviDatum, mu: Weight) -> tuple[Weight, int]:
    """The unique maximal term of the M-function and its orbit coefficient.

    The maximal support element is the dominant representative of
    mu + 2 rho_bar; its orbit-sum coefficient is the sign of the longest
    Levi Weyl element, (-1)^(number of Levi positive roots).
    """
    levi.require_dominant(mu)
    _, lam = dominant_representative(levi.parent, mu + levi.two_rho_bar)
    sign = -1 if len(levi.rbar_plus) % 2 else 1
    return lam, sign


def build_m(levi: LeviDatum, mu: Weight, *, self_check: bool = True) -> MFunction:
    """Construct the M-function of ``mu`` on the orbit-sum basis.

    Each translate mu + rho_bar - w(rho_bar) contributes its sign at its
    dominant representative (``m_terms``).  The leading term it is checked
    against comes from ``leading_term``, a route that does not use the
    batched dominant images.  ``self_check=False`` skips the per-weight
    checks of ``m_terms`` that cost O(|Wbar|) rows; the leading-term and
    cone assertions always run.
    """
    levi.require_dominant(mu)
    levi_group(levi)  # enforce the guard before any heavy work
    lam_top, _ = leading_term(levi, mu)
    (urows, sums, _), = m_terms(levi, [mu], [lam_top], self_check=self_check)
    return MFunction(levi, mu, tuple(zip(map(Weight, urows.tolist()), sums.tolist())))


def m_terms(levi: LeviDatum, mus, tops, *, self_check: bool = True) -> list:
    """The M-functions of the Levi-dominant weights ``mus``, as arrays.

    ``tops[i]`` is the dominant image of mus[i] + 2 rho_bar, the leading
    term.  Returns one (rows, sums, far) triple per weight: the distinct
    dominant images of the rows mus[i] + rho_bar - w(rho_bar) with a nonzero
    signed count, in lexicographic order, those counts and ``_far_flags`` of
    the images.  ``build_m`` passes one weight, ``equivalence.search_box``
    the built weights of a run of groups.  Up to ``M_BATCH_ROWS`` rows
    (|Wbar| per weight, at least one weight) share one frame ``dominant``
    and one ``signed_bucket`` call, whose member ids, one per row, keep the
    weights' buckets apart.

    The signed rows were checked once per Levi against the Weyl denominator
    identity (``weightpoly._rho_drops``).  With ``self_check``, each
    weight's dominant images must not change when the longest element or a
    Coxeter element of W moves the rows first, and each image must keep its
    row's norm and, in GL and D, its coordinate product (W-invariants that
    a sign flip in D or a lost coordinate changes).  Then
    ``_check_buckets``.  All of it costs O(|Wbar|) rows per weight.  The
    leading-term and cone assertions of ``_check_leading`` always run.
    """
    if not len(mus):
        return []
    per = max(1, M_BATCH_ROWS // len(_rho_drops(levi)[1]))
    return [t for lo in range(0, len(mus), per)
            for t in _m_batch(levi, mus[lo:lo + per], tops[lo:lo + per], self_check)]


@lru_cache(maxsize=None)
def _invariance_elements(datum: RootDatum) -> tuple[np.ndarray, np.ndarray]:
    """The longest element w0 and the Coxeter element s_1 s_2 ... s_r of W,
    as the rows of one (perm, sign) pair.

    W acts simply transitively on the orbit of the regular weight rho, so
    the element ``kernels.dominant_elements`` gives for v(rho) is v^-1:
    w0 = w0^-1 sorts w0(rho) = -rho, and c = s_1 ... s_r sorts c^-1(rho),
    rho reflected in alpha_1, then in alpha_2, ..., then in alpha_r.
    """
    x = datum.rho
    for a in datum.simple_roots:
        x = x - (2 * x.dot4(a) // a.dot4(a)) * a
    return kernels.dominant_elements(np.array([-datum.rho, x], dtype=np.int64),
                                     kernels.FAMILY_CODE[datum.family])


def _invariants(rows: np.ndarray, family: str) -> np.ndarray:
    """<x, x> of each row and, in GL and D, its coordinate product, modulo 2^64."""
    x = rows.view(np.uint64)  # two's complement, so the ring operations agree
    cols = [(x * x).sum(axis=1)]
    if family in ("GL", "D"):
        cols.append(x.prod(axis=1))
    return np.stack(cols, axis=1)


def _m_batch(levi: LeviDatum, mus, tops, self_check: bool) -> list:
    datum = levi.parent
    n = datum.rank
    drops, eps = _rho_drops(levi)
    m, k = len(mus), len(eps)
    mu_rows = np.array(mus, dtype=np.int64).reshape(m, n)
    rows = (mu_rows[:, None, :] + drops).reshape(m * k, n)
    moved = [rows[:, perm] * sign
             for perm, sign in zip(*_invariance_elements(datum))] if self_check else []
    images = _frame_for(datum).dominant(np.concatenate([rows, *moved]))
    images = images.reshape(len(moved) + 1, m * k, n)
    dom = images[0]
    if self_check:
        ok = ((images == dom).all(axis=(0, 2))
              & (_invariants(dom, datum.family) == _invariants(rows, datum.family)).all(axis=1))
        if not ok.all():
            raise WeightError(f"dominant images of the E-set of {mus[int(np.argmin(ok)) // k]} "
                              "change under W or lose the W-invariants of their rows")
    urows, sums, _, member = signed_bucket(dom, np.tile(eps, m), np.repeat(np.arange(m), k))
    keep = sums != 0
    urows, sums, member = urows[keep], sums[keep], member[keep]
    if self_check:
        _check_buckets(levi, mus, dom, urows, sums, member)
    _check_leading(levi, mus, tops, urows, sums, member)
    cuts = np.searchsorted(member, np.arange(1, m))
    far = _far_flags(levi, mu_rows, dom).tolist()
    return list(zip(np.split(urows, cuts), np.split(sums, cuts), far))


# odd multipliers and the splitmix64 finaliser of the row fingerprint
_FP_MULT = np.uint64(0x9E3779B97F4A7C15)
_FP_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _fingerprint(rows: np.ndarray) -> np.ndarray:
    """A mixing hash of each row into uint64 (arithmetic modulo 2^64)."""
    odd = np.arange(1, 2 * rows.shape[1], 2, dtype=np.uint64) * _FP_MULT
    h = (rows.view(np.uint64) * odd).sum(axis=1)
    h ^= h >> np.uint64(30)
    h *= _FP_MIX[0]
    h ^= h >> np.uint64(27)
    h *= _FP_MIX[1]
    return h ^ (h >> np.uint64(31))


def _check_buckets(levi: LeviDatum, mus, dom: np.ndarray, urows: np.ndarray,
                   sums: np.ndarray, member: np.ndarray) -> None:
    """Raise unless the terms (urows, sums) of each ``member`` id bucket ``dom``.

    ``dom`` holds the unbucketed dominant images, |Wbar| rows per weight in
    the order of ``mus``, with the signs eps(w) of ``_rho_drops``.  In
    O(|Wbar|) per weight:

    * each weight's rows strictly increase in lexicographic order;
    * the buckets keep two moments of the signed images: the sum of the
      signs, and the sum of sign times a mixing hash of the row.  Mod 2^64
      the second changes with any dropped, added, moved or misweighted
      bucket.  (The norm moment sum c <x, x> would not do: summed against
      eps(w) it vanishes once the Levi has two positive roots.)
    """
    m = len(mus)
    step = np.diff(np.column_stack((member, urows)), axis=0)
    if (step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0).any():
        raise WeightError("M-terms are not in strictly increasing weight order")
    signs = _rho_drops(levi)[1].view(np.uint64)
    want = np.stack([np.broadcast_to(signs.sum(), m),
                     (_fingerprint(dom).reshape(m, -1) * signs).sum(axis=1)], axis=1)
    got = np.zeros_like(want)
    np.add.at(got, member, sums.view(np.uint64)[:, None]
              * np.column_stack((np.ones(len(urows), np.uint64), _fingerprint(urows))))
    agree = (got == want).all(axis=1)
    if not agree.all():
        raise WeightError(f"M-terms and signed rows disagree at mu = "
                          f"{mus[int(np.argmin(agree))]}")


def _check_leading(levi: LeviDatum, mus, tops, urows: np.ndarray, sums: np.ndarray,
                   member: np.ndarray) -> None:
    """The term at ``tops[i]`` has the sign of the longest Levi element, and
    every term of weight i lies below it in the dominance order."""
    datum = levi.parent
    m = len(mus)
    tops = np.array(tops, dtype=np.int64).reshape(m, datum.rank)
    lead = -1 if len(levi.rbar_plus) % 2 else 1
    hit = (urows == tops[member]).all(axis=1)
    at_top = np.zeros(m, dtype=np.int64)
    np.add.at(at_top, member[hit], sums[hit])
    if (at_top != lead).any():
        raise WeightError(f"leading coefficient of M at "
                          f"{mus[int(np.argmax(at_top != lead))]} is not {lead}")
    below = chamber_cone_mask(datum.family, tops[member] - urows)
    if not below.all():
        i = int(np.argmin(below))
        raise WeightError(f"M-term {Weight(urows[i].tolist())} not dominated by the "
                          f"leading {Weight(tops[member[i]].tolist())}")
