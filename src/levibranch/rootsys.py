"""Classical root systems and Levi subsystems in exact ambient coordinates.

Supported families, all realised in the standard epsilon basis of Z^n:

* ``GL`` -- gl_n with positive roots e_i - e_j (i < j),
* ``B``  -- so_{2n+1} with e_i - e_j, e_i + e_j (i < j) and e_i,
* ``C``  -- sp_{2n}   with e_i - e_j, e_i + e_j (i < j) and 2 e_i,
* ``D``  -- so_{2n}   with e_i - e_j and e_i + e_j (i < j).

Every weight stores twice its true coordinates so that the half-integral
spin weights of B and D stay exact integers; no floating point appears
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import numpy as np

from . import kernels

FAMILIES = ("GL", "B", "C", "D")


class WeightError(ValueError):
    """Malformed weight, or a weight outside the relevant lattice."""


class RootSystemError(ValueError):
    """Unsupported family/rank combination or bad Levi data."""


class Weight(tuple):
    """Ambient vector with exact half-integer entries (stored doubled).

    Lattice weights have uniform parity -- all integral, or (for the spin
    classes of B and D) all strictly half-integral; that law is enforced by
    the per-family lattice check, since intermediate vectors such as the
    Levi Weyl vector legitimately mix the two.
    """

    __slots__ = ()

    def __new__(cls, doubled):
        return tuple.__new__(cls, (int(c) for c in doubled))

    @classmethod
    def of(cls, *coords: int) -> "Weight":
        """Build a weight from true integer coordinates."""
        return cls(2 * c for c in coords)

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls((0,) * n)

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """Parse '5,2,-1' or half-integral '5/2,1/2,-3/2' (also '2.5')."""
        doubled = []
        for part in text.replace("|", ",").split(","):
            part = part.strip()
            if not part:
                continue
            try:
                q = Fraction(part)
            except (ValueError, ZeroDivisionError):
                q = None
            if q is None or q.denominator not in (1, 2):
                raise WeightError(f"coordinate {part!r} is not a half-integer")
            doubled.append(q.numerator * (2 // q.denominator))
        if not doubled:
            raise WeightError("empty weight")
        return cls(doubled)

    # -- exact arithmetic ------------------------------------------------
    def __add__(self, other):
        return Weight(a + b for a, b in zip(self, other, strict=True))

    def __sub__(self, other):
        return Weight(a - b for a, b in zip(self, other, strict=True))

    def __neg__(self):
        return Weight(-a for a in self)

    def __mul__(self, k):
        return Weight(a * int(k) for a in self)

    __rmul__ = __mul__

    def dot4(self, other: "Weight") -> int:
        """Four times the Euclidean inner product (doubled x doubled)."""
        return sum(a * b for a, b in zip(self, other, strict=True))

    # -- views -----------------------------------------------------------
    def is_integral(self) -> bool:
        return all(c % 2 == 0 for c in self)

    def to_json(self) -> list:
        return [c // 2 if c % 2 == 0 else c / 2 for c in self]

    def __str__(self) -> str:
        return "(" + ",".join(str(c // 2) if c % 2 == 0 else f"{c}/2" for c in self) + ")"

    def __repr__(self) -> str:
        return f"Weight{str(self)}"


@dataclass(frozen=True)
class RootDatum:
    """A classical root system with a fixed choice of positive roots."""

    family: str
    rank: int
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight

    def describe(self) -> str:
        return f"{self.family}{self.rank}"

    def weyl_order(self) -> int:
        return _weyl_order(self.family, self.rank)

    @property
    def highest_root(self) -> Weight:
        """The highest root; 0 when there are no roots (GL1)."""
        return max(self.positive_roots, key=lambda a: (a.dot4(self.rho), a),
                   default=Weight.zero(self.rank))

    # -- lattice and chamber tests ----------------------------------------
    def is_lattice_weight(self, beta: Weight) -> bool:
        if len(beta) != self.rank:
            return False
        if self.family in ("GL", "C"):
            return beta.is_integral()
        # B, D: the integral class or the all-half-integral spin class
        parities = {c & 1 for c in beta}
        return len(parities) <= 1

    def require_weight(self, beta: Weight) -> Weight:
        if len(beta) != self.rank:
            raise WeightError(f"{beta} has {len(beta)} coordinates; "
                              f"{self.describe()} needs {self.rank}")
        if not self.is_lattice_weight(beta):
            raise WeightError(f"{beta} is not an integral weight of {self.describe()}")
        if any(abs(c) >= kernels.MAX_COORDINATE for c in beta):
            raise kernels.PackRangeError(
                f"{beta} has a coordinate of absolute value >= 2^51, the limit of "
                "exact int64 arithmetic")
        return beta

    def is_dominant(self, beta: Weight) -> bool:
        return all(beta.dot4(a) >= 0 for a in self.simple_roots)

    def require_dominant(self, beta: Weight) -> Weight:
        self.require_weight(beta)
        if not self.is_dominant(beta):
            raise WeightError(f"{beta} is not dominant for {self.describe()}")
        return beta

    def dominance_leq(self, gamma: Weight, beta: Weight) -> bool:
        """gamma <= beta iff beta - gamma is an N-combination of positive roots.

        A one-row call of ``chamber_cone_mask``; callers with many pairs
        should call the mask on all differences at once.
        """
        delta = np.array([beta - gamma], dtype=np.int64)
        return bool(chamber_cone_mask(self.family, delta)[0])


def _weyl_order(family: str, n: int) -> int:
    if family == "GL":
        return factorial(n)
    if family in ("B", "C"):
        return factorial(n) << n
    return factorial(n) << (n - 1)  # D


def _unit(n: int, i: int, c: int = 2) -> Weight:
    v = [0] * n
    v[i] = c
    return Weight(v)


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootDatum:
    """Construct the root datum for one of the classical families."""
    if family not in FAMILIES:
        raise RootSystemError(f"unknown family {family!r}; expected one of {FAMILIES}")
    n = int(rank)
    if n < 1 or (family == "D" and n < 2):
        raise RootSystemError(f"rank {rank} unsupported for family {family}")

    pos: list[Weight] = []
    for i in range(n):
        for j in range(i + 1, n):
            pos.append(_unit(n, i) - _unit(n, j))
    if family in ("B", "C", "D"):
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(_unit(n, i) + _unit(n, j))
    if family == "B":
        pos.extend(_unit(n, i) for i in range(n))
    elif family == "C":
        pos.extend(_unit(n, i, 4) for i in range(n))

    simple = [_unit(n, i) - _unit(n, i + 1) for i in range(n - 1)]
    if family == "B":
        simple.append(_unit(n, n - 1))
    elif family == "C":
        simple.append(_unit(n, n - 1, 4))
    elif family == "D":
        simple.append(_unit(n, n - 2) + _unit(n, n - 1))

    pos = sorted(pos)
    total = Weight.zero(n)
    for a in pos:
        total = total + a
    if any(c % 2 for c in total):
        raise RootSystemError("positive roots do not sum to an even vector")
    rho = Weight(c // 2 for c in total)
    return RootDatum(family, n, tuple(simple), tuple(pos), rho)


def _scaled_coordinates(family: str, rows) -> tuple[np.ndarray, np.ndarray]:
    """The simple-root coordinates c of doubled rows, scaled: t = scale * c.

    They are read off the prefix sums t_k = x_1 + ... + x_k, all in one
    array:

    * GL: t_k = 2 c_k for k < n, and the row is in the span only if t_n = 0;
    * B:  t_k = 2 c_k;
    * C:  t_k = 2 c_k for k < n, and t_n = 4 c_n;
    * D:  t_k = 2 c_k for k < n - 1, t_(n-1) - x_n = 4 c_(n-1) and t_n = 4 c_n.

    ``t`` is column-major, so that every coordinate column is contiguous.
    In GL its last column is the span test, not a coordinate.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    t = np.empty(rows.shape, dtype=np.int64, order="F")
    np.cumsum(rows, axis=1, out=t)
    scale = np.full(n, 2, dtype=np.int64)
    if family == "C":
        scale[-1] = 4
    elif family == "D":
        t[:, -2] -= rows[:, -1]
        scale[-2:] = 4
    return t, scale


def chamber_cone_mask(family: str, rows: np.ndarray, sbar=None) -> np.ndarray:
    """Rows that are N-combinations of the positive roots of g, or of a Levi.

    A row is one exactly when its coordinates c over the simple roots are
    nonnegative integers.  ``_scaled_coordinates`` gives them as 2 c or 4 c,
    so a row passes when every scaled coordinate is nonnegative and
    divisible by its scale: even, and a multiple of 4 where the scale is 4.

    With ``sbar`` (1-based simple-root indices) the cone is that of the Levi
    positive roots Rbar+: a row passes when it is in the cone of g and its
    coordinates off ``sbar`` are zero.  Proof: Rbar+ lies in N.Sbar and
    contains Sbar, so N.Rbar+ = N.Sbar; simple-root coordinates are unique,
    so a row is in N.Sbar exactly when its coordinates are nonnegative
    integers that vanish off ``sbar``.
    """
    t, scale = _scaled_coordinates(family, rows)
    n = t.shape[1]
    ok = (np.bitwise_or.reduce(t, axis=1) & 1) == 0
    for k, col in enumerate(t.T):
        if (family == "GL" and k == n - 1) or (sbar is not None and k + 1 not in sbar):
            ok &= col == 0
        else:
            ok &= col >= 0
            if scale[k] == 4:
                ok &= (col & 3) == 0
    return ok


# -- Levi subsystems ------------------------------------------------------

@dataclass(frozen=True)
class LeviDatum:
    """A Levi subsystem spanned by a subset of the simple roots.

    ``blocks`` (see ``_factor_blocks``) is the one description of its
    structure: the Levi Weyl group is the product of the blocks' classical
    groups, and the labels of ``describe`` and the order of Wbar are read
    off it, as is the Levi dominant normal form in ``weightpoly``.  ``rbar_plus`` holds the positive roots in the
    Levi cone of ``chamber_cone_mask``.
    """

    parent: RootDatum
    sbar: tuple[int, ...]          # 1-based indices into parent.simple_roots
    rbar_plus: tuple[Weight, ...]
    rho_bar: Weight
    blocks: tuple[tuple[int, int, str, bool], ...]  # see ``_factor_blocks``

    @property
    def sbar_roots(self) -> tuple[Weight, ...]:
        return tuple(self.parent.simple_roots[i - 1] for i in self.sbar)

    @property
    def two_rho_bar(self) -> Weight:
        return self.rho_bar + self.rho_bar

    def describe(self) -> str:
        inner = "+".join(_block_label(fam, hi - lo) for lo, hi, fam, _ in self.blocks)
        return f"{self.parent.describe()}>{inner}"

    def is_dominant(self, beta: Weight) -> bool:
        return all(beta.dot4(a) >= 0 for a in self.sbar_roots)

    def require_dominant(self, beta: Weight) -> Weight:
        self.parent.require_weight(beta)
        if not self.is_dominant(beta):
            raise WeightError(f"{beta} is not dominant for the Levi {self.describe()}")
        return beta

    def weylbar_order(self) -> int:
        return prod(_weyl_order(fam, hi - lo) for lo, hi, fam, _ in self.blocks)

    def is_full_gl_levi(self) -> bool:
        """True when the Levi is the standard gl_n inside B_n, C_n or D_n."""
        return (self.parent.family != "GL"
                and self.blocks == ((0, self.parent.rank, "GL", False),))


def _block_label(family: str, width: int) -> str:
    """The summands of one factor block: a D tail of width 2 is A1 x A1 and
    one of width 3 is A3, named as gl blocks."""
    if family == "GL":
        return f"gl{width}"
    if family == "B":
        return f"so{2 * width + 1}"
    if family == "C":
        return f"sp{2 * width}"
    return {2: "gl2+gl2", 3: "gl4"}.get(width, f"so{2 * width}")


def build_levi(datum: RootDatum, sbar) -> LeviDatum:
    """Build the Levi datum for the subset ``sbar`` of simple-root indices (1-based)."""
    indices = tuple(sorted({int(i) for i in sbar}))
    nsimple = len(datum.simple_roots)
    for i in indices:
        if not 1 <= i <= nsimple:
            raise RootSystemError(f"simple-root index {i} out of range 1..{nsimple}")

    roots = np.array(datum.positive_roots, dtype=np.int64).reshape(-1, datum.rank)
    keep = chamber_cone_mask(datum.family, roots, indices).tolist()
    rbar = tuple(a for a, k in zip(datum.positive_roots, keep) if k)
    total = Weight.zero(datum.rank)
    for a in rbar:
        total = total + a
    rho_bar = Weight(c // 2 for c in total)
    blocks = _factor_blocks(datum.family, datum.rank, indices)
    return LeviDatum(datum, indices, rbar, rho_bar, blocks)


def _factor_blocks(family: str, n: int, sbar) -> tuple[tuple[int, int, str, bool], ...]:
    """The Levi on ``sbar`` as factor blocks (lo, hi, family, flip).

    The Levi Weyl group is a product of classical groups, one per block,
    each acting on its coordinate run [lo, hi) (0-based); the runs tile
    0..n.  Runs of simple roots e_i - e_(i+1) are ``"GL"`` blocks (of width
    1 on a coordinate no root touches).  With alpha_n, the run ending at
    coordinate n is a tail of the parent's family in B and C, and in D when
    alpha_(n-1) is retained too (D2 included).  Otherwise alpha_n =
    e_(n-1) + e_n joins the run ending at n-1 and coordinate n into one gl
    block on (x_lo, ..., x_(n-1), -x_n), marked ``flip``.
    """
    cuts = [0] + [i for i in range(1, n) if i not in sbar] + [n]
    blocks = [(lo, hi, "GL", False) for lo, hi in zip(cuts, cuts[1:])]
    if family != "GL" and n in sbar:
        if family == "D" and n - 1 not in sbar:
            blocks[-2:] = [(blocks[-2][0], n, "GL", True)]
        else:
            blocks[-1] = (blocks[-1][0], n, family, False)
    return tuple(blocks)
