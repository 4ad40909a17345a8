"""Branching coefficients, the restriction oracle and the M-functions.

The branching coefficient m_mu^lambda counts the Levi irreducible of highest
weight mu inside the restriction of the ambient irreducible of highest
weight lambda.  Two independent routes are implemented:

* the alternating Weyl sum over the complement partition function, and
* a highest-weight stripping oracle on the full character multiset.

On the torus Levi (no retained simple roots) the Weyl sum is Kostant's
weight-multiplicity formula, the independent check of the Freudenthal
multiplicities in ``weightpoly``.

Equality of the infinite induced characters H_mu is decided through the
finite M-function: the signed sum over the Levi Weyl group of full orbit
sums of mu + rho_bar - w(rho_bar).  M-functions are stored compactly on the
orbit-sum basis (coefficients indexed by dominant representatives); the low
term count makes exact equality checks cheap even for large Weyl groups.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import kernels
from .rootsys import (LeviDatum, Weight, WeightError, _simple_coordinates,
                      chamber_cone_mask)
from .weightpoly import (BudgetError, DEFAULT_CHAR_BUDGET, WeightPolynomial,
                         _rho_drops, decompose_character, levi_table,
                         signed_bucket, weyl_character)
from .weylgrp import (DEFAULT_GROUP_GUARD, dominant_representative,
                      levi_group, weyl_group)

DEFAULT_EXPAND_BUDGET = 5_000_000
# product rows per chunk of the dual M-construction
DUAL_CHUNK_ROWS = 2_000_000


def far_from_walls(levi: LeviDatum, mu: Weight) -> bool:
    """Is the whole E-set of ``mu`` contained in one closed Weyl chamber?

    The E-set E is the |Wbar| points mu + rho_bar - w(rho_bar), w in Wbar.
    Let w1 be the element ``dominant_representative`` returns for
    mu + rho_bar and lam = w1(mu + rho_bar).  Then E lies in a closed
    chamber exactly when w1(E) lies in the closed dominant chamber, so one
    batched dominance test on w1(E) decides it.  Proof:

    * The sum of w(rho_bar) over Wbar is Wbar-invariant and lies in the
      span of the Levi roots, so it is 0, and the mean of E is mu + rho_bar.
    * If w(E) is dominant for some w in W, so is its mean w(mu + rho_bar),
      hence w(mu + rho_bar) = lam and w = sigma w1 with sigma in Stab(lam).
    * Stab(lam) is generated by the simple reflections fixing lam
      (Chevalley).  Each such simple root alpha pairs >= 0 with every point
      of the dominant set sigma w1(E) and 0 with their mean sigma(lam) =
      lam, so it pairs 0 with every point.  So Stab(lam) fixes every point
      of sigma w1(E), and w1(E) = sigma^-1 sigma w1(E) = sigma w1(E) is
      dominant.
    """
    levi.require_dominant(mu)
    datum = levi.parent
    drops, _ = _rho_drops(levi)
    w1, _ = dominant_representative(datum, mu + levi.rho_bar)
    rows = np.array(mu, dtype=np.int64) + drops
    rows = rows[:, list(w1.perm)] * np.array(w1.signs, dtype=np.int64)
    code = kernels.FAMILY_CODE[datum.family]
    return bool((kernels.dominant_rows(rows, code) == rows).all())


# -- alternating-sum branching ----------------------------------------------

def branch_multiplicity(levi: LeviDatum, lam: Weight, mu: Weight,
                        guard: int = DEFAULT_GROUP_GUARD) -> int:
    """Branching coefficient via the signed Weyl sum of partition counts.

    Terms whose argument fails the ambient cone test are pruned before the
    partition table counts the rest in one batch.
    """
    datum = levi.parent
    datum.require_dominant(lam)
    levi.require_dominant(mu)
    if not (lam - mu).is_integral():
        return 0  # different lattice classes never branch into each other
    group = weyl_group(datum, guard)
    perm, sign, eps = group.arrays
    args = kernels.orbit_images(perm, sign, np.array(lam + datum.rho, dtype=np.int64))
    args -= np.array(mu + datum.rho, dtype=np.int64)
    mask = chamber_cone_mask(datum.family, args)
    if not mask.any():
        return 0
    counts = levi_table(levi).count_rows(args[mask])
    total = int((eps[mask] * counts).sum())
    if total < 0:
        raise WeightError(f"negative branching multiplicity {total} at {lam}, {mu}")
    return total


@dataclass
class BranchingRow:
    """One row of the branching matrix: multiplicities of a fixed Levi weight."""

    levi: LeviDatum
    mu: Weight
    entries: dict
    box: tuple[Weight, ...] | None = None

    def support(self) -> tuple[Weight, ...]:
        return tuple(sorted(w for w, c in self.entries.items() if c))

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
    top = np.array(mu + k * datum.highest_root, dtype=np.int64)
    d = [k * c for c in _simple_coordinates(datum)[datum.highest_root]]
    steps = np.indices([max(c + 1, 0) for c in d]).reshape(len(d), -1).T
    simple = np.array(datum.simple_roots, dtype=np.int64).reshape(len(d), datum.rank)
    rows = top - steps @ simple
    rows = rows[(rows @ simple.T >= 0).all(axis=1)]
    keep = (chamber_cone_mask(datum.family, rows - np.array(mu, dtype=np.int64))
            & chamber_cone_mask(datum.family, top - rows))
    return tuple(sorted(map(Weight, rows[keep].tolist())))


def branch_row(levi: LeviDatum, mu: Weight, k: int = 2,
               guard: int = DEFAULT_GROUP_GUARD) -> BranchingRow:
    """Evaluate the alternating-sum branching over the default lambda box."""
    box = default_lambda_box(levi, mu, k)
    entries = {lam: branch_multiplicity(levi, lam, mu, guard) for lam in box}
    return BranchingRow(levi, mu, entries, box)


def branch_by_restriction(levi: LeviDatum, lam: Weight,
                          budget: int = DEFAULT_CHAR_BUDGET) -> dict:
    """Restriction oracle: strip Levi highest weights off the full character.

    Returns the complete row {mu: multiplicity} for the ambient highest
    weight ``lam``; independent of the alternating-sum route.
    """
    datum = levi.parent
    datum.require_dominant(lam)
    char = weyl_character(datum, lam, budget)
    return decompose_character(levi, char, budget)


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

    def poly(self, budget: int = DEFAULT_EXPAND_BUDGET) -> WeightPolynomial:
        """Materialise the full weight polynomial (all orbit points)."""
        datum = self.levi.parent
        group = weyl_group(datum)
        perm, sign, _ = group.arrays
        total_rows = len(group) * len(self.coeffs)
        if total_rows > budget:
            raise BudgetError(
                f"expansion needs {total_rows} rows > budget {budget}")
        chunks = []
        weights = []
        for lam, a in self.coeffs:
            img = kernels.orbit_images(perm, sign, np.array(lam, dtype=np.int64))
            chunks.append(img)
            weights.append(np.full(len(img), a, dtype=np.int64))
        rows = np.concatenate(chunks) if chunks else np.zeros((0, datum.rank), np.int64)
        coeffs = np.concatenate(weights) if weights else np.zeros(0, np.int64)
        return WeightPolynomial.from_rows(rows, coeffs)

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


def build_m(levi: LeviDatum, mu: Weight, *, self_check: bool = True,
            guard: int = DEFAULT_GROUP_GUARD) -> MFunction:
    """Construct the M-function of ``mu`` on the orbit-sum basis.

    Each translate mu + rho_bar - w(rho_bar) contributes its sign at its
    dominant representative.  A second, independent construction (the
    product of the two Levi alternants, summed over the group and divided
    by |Wbar|) is recomputed on every call and must agree exactly; the
    leading-term shape is also asserted.
    """
    levi.require_dominant(mu)
    datum = levi.parent
    levi_group(levi, guard)  # enforce the guard before any heavy work
    drops, eps = _rho_drops(levi)
    rows = np.array(mu, dtype=np.int64)[None, :] + drops
    code = kernels.FAMILY_CODE[datum.family]
    dom = kernels.dominant_rows(rows, code)
    urows, sums, _ = signed_bucket(dom, eps)
    keep = sums != 0
    urows, sums = urows[keep], sums[keep]
    coeffs = tuple(zip(map(Weight, urows.tolist()), sums.tolist()))
    fn = MFunction(levi, mu, coeffs)
    lam_top, lead = leading_term(levi, mu)
    if dict(coeffs).get(lam_top) != lead:
        raise WeightError(f"leading coefficient of M at {mu} is not {lead}")
    below = chamber_cone_mask(datum.family, np.array(lam_top, dtype=np.int64) - urows)
    if not below.all():
        w = Weight(urows[int(np.argmin(below))].tolist())
        raise WeightError(f"M-term {w} not dominated by the leading {lam_top}")
    if self_check:
        _check_dual_construction(levi, mu, urows, sums)
    return fn


def _check_dual_construction(levi: LeviDatum, mu: Weight,
                             urows: np.ndarray, sums: np.ndarray) -> None:
    """Cross-check build_m through the product of the two Levi alternants.

    The alternants of mu + rho_bar and of rho_bar multiply to a Levi-invariant
    polynomial X; summing w(X) over the whole Weyl group gives |Wbar| times
    the M-function up to the sign of the longest Levi element.  On the
    orbit-sum basis that is a bucket sum of the |Wbar|^2 product terms, so the
    check stays cheap even when the ambient Weyl group is large.  The result
    must equal build_m's distinct rows ``urows`` and nonzero ``sums``.
    """
    datum = levi.parent
    group = levi_group(levi)
    perm, sign, eps = group.arrays
    a_rows = kernels.orbit_images(perm, sign, np.array(mu + levi.rho_bar, np.int64))
    b_rows = kernels.orbit_images(perm, sign, np.array(levi.rho_bar, np.int64))
    k = len(eps)
    code = kernels.FAMILY_CODE[datum.family]
    chunk = max(1, DUAL_CHUNK_ROWS // max(k, 1))
    parts = []
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        block = (a_rows[start:stop, None, :] + b_rows[None, :, :])
        block = block.reshape((stop - start) * k, -1)
        block_eps = (eps[start:stop, None] * eps[None, :]).reshape((stop - start) * k)
        parts.append(signed_bucket(kernels.dominant_rows(block, code), block_eps))
    acc_rows, acc, _ = parts[0] if len(parts) == 1 else signed_bucket(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
    keep = acc != 0
    w0sign = -1 if len(levi.rbar_plus) % 2 else 1
    acc_rows, acc = acc_rows[keep], w0sign * acc[keep]
    if (acc % k).any():
        raise WeightError("dual M-construction is not divisible by |Wbar|")
    if not (np.array_equal(acc_rows, urows) and np.array_equal(acc // k, sums)):
        raise WeightError(f"dual M-constructions disagree at mu = {mu}")

