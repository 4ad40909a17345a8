"""Type-A specialisation and classical polarisation.

Littlewood-Richardson coefficients are counted by lattice-word skew
tableaux filled in reading order (rows top to bottom, right to left), so
both the semistandard constraints and the lattice prefix condition prune
during the backtracking.

The polarisation routines evaluate the classical two-parameter sums of LR
products for restrictions of the B, C and D families to their gl_n Levi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootsys import RootSystemError, Weight, WeightError


class Partition(tuple):
    """Weakly decreasing positive parts; trailing zeros are trimmed."""

    __slots__ = ()

    def __new__(cls, parts=()):
        vals = [int(p) for p in parts]
        while vals and vals[-1] == 0:
            vals.pop()
        if any(p < 0 for p in vals):
            raise WeightError(f"negative part in {parts}")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise WeightError(f"{parts} is not weakly decreasing")
        return tuple.__new__(cls, vals)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        return self[i] if i < len(self) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(len(other)))

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > i) for i in range(self[0]))

    def doubled(self) -> "Partition":
        return Partition(2 * p for p in self)


@lru_cache(maxsize=None)
def partitions_of(n: int, max_len: int | None = None,
                  max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``n`` within the given bounds, lexicographically."""
    if max_part is None:
        max_part = n
    if max_len is None:
        max_len = n
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if len(prefix) == max_len:
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, max_part, [])
    return tuple(sorted(out))


# -- Littlewood-Richardson ------------------------------------------------------

@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of LR skew tableaux of shape lam/mu and content nu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size + nu.size or not lam.contains(mu):
        return 0
    if not nu:
        return 1
    rows = len(lam)
    cells = [(r, c) for r in range(rows)
             for c in range(lam[r] - 1, mu.part(r) - 1, -1)]
    k = len(nu)
    counts = [0] * (k + 1)
    counts[0] = nu.size + 1  # sentinel so value 1 is always lattice-allowed
    entry = {}

    def place(i: int) -> int:
        if i == len(cells):
            return 1 if all(counts[v + 1] == nu[v] for v in range(k)) else 0
        r, c = cells[i]
        above = entry.get((r - 1, c))
        right = entry.get((r, c + 1))
        lo = 1 if above is None else above + 1
        hi = k if right is None else right
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue  # content exhausted for this value
            if counts[v] + 1 > counts[v - 1]:
                continue  # lattice prefix condition
            counts[v] += 1
            entry[(r, c)] = v
            total += place(i + 1)
            counts[v] -= 1
        entry.pop((r, c), None)
        return total

    return place(0)


@lru_cache(maxsize=None)
def lr_expand_pair(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Decomposition of the product of two Schur functions, as (shape, coeff)."""
    mu, nu = Partition(mu), Partition(nu)
    total = mu.size + nu.size
    out = []
    for lam in partitions_of(total, max_len=len(mu) + len(nu),
                             max_part=mu.part(0) + nu.part(0)):
        if not lam.contains(mu):
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((lam, c))
    return tuple(out)


def multi_lr(lam: Partition, mus) -> int:
    """Multiplicity of ``lam`` in the iterated product of Schur functions."""
    lam = Partition(lam)
    mus = [Partition(m) for m in mus]
    if sum(m.size for m in mus) != lam.size:
        return 0
    acc = {Partition(): 1}
    for m in mus:
        nxt: dict[Partition, int] = {}
        for shape, c in acc.items():
            for kappa, c2 in lr_expand_pair(shape, m):
                if lam.contains(kappa):
                    nxt[kappa] = nxt.get(kappa, 0) + c * c2
        acc = nxt
        if not acc:
            return 0
    return acc.get(lam, 0)


# -- polarisation -----------------------------------------------------------------

@dataclass(frozen=True)
class SignedSplit:
    """Positive and negated-negative parts of a gl_n dominant weight."""

    mu_plus: Partition
    mu_minus: Partition

    @property
    def total(self) -> int:
        return self.mu_plus.size + self.mu_minus.size


def split_signed(mu: Weight) -> SignedSplit:
    """Split a weakly decreasing integer weight into its signed partitions."""
    if not mu.is_integral():
        raise WeightError(f"{mu} is not an integral weight")
    coords = [c // 2 for c in mu]
    if any(coords[i] < coords[i + 1] for i in range(len(coords) - 1)):
        raise WeightError(f"{mu} is not weakly decreasing")
    plus = Partition(c for c in coords if c > 0)
    minus = Partition(sorted((-c for c in coords if c < 0), reverse=True))
    return SignedSplit(plus, minus)


def polarisation_branch(family: str, n: int, mu: Weight, lam: Partition) -> int:
    """Littlewood restriction multiplicity from so/sp rank n down to gl_n.

    Sums LR products over pairs of partitions: the second factor runs over
    single strips (B), doubled partitions (C) or conjugated doubled
    partitions (D).
    """
    lam = Partition(lam)
    if family not in ("B", "C", "D"):
        raise RootSystemError(f"polarisation needs family B, C or D, not {family}")
    if len(lam) > n:
        raise WeightError(f"{lam} has more than {n} parts")
    split = split_signed(mu)
    rest = lam.size - split.total
    if rest < 0:
        return 0
    if family in ("C", "D") and rest % 2:
        return 0
    delta_size = rest if family == "B" else rest // 2
    total = 0
    for gamma in partitions_of(split.total, max_len=n):
        if not lam.contains(gamma):
            continue
        c1 = lr_coefficient(gamma, split.mu_plus, split.mu_minus)
        if not c1:
            continue
        for delta in partitions_of(delta_size, max_len=n):
            if family == "B":
                second = delta
            elif family == "C":
                second = delta.doubled()
            else:
                second = delta.doubled().conjugate()
            total += c1 * lr_coefficient(lam, gamma, second)
    return total
