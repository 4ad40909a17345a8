"""Classical root data written for the benchmark, apart from ``levibranch``.

The checks compare the program's outputs with what these helpers compute,
so nothing here imports the package under test.  Weights are tuples of
doubled coordinates, the convention ``levibranch`` uses for its input and
output, so that the half-integral spin weights of B and D stay integers.

A Weyl group element is a signed permutation ``(perm, signs)`` acting by
``act(g, v)[i] = signs[i] * v[perm[i]]``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod


def dot(a, b) -> int:
    """Four times the inner product of two doubled vectors."""
    return sum(x * y for x, y in zip(a, b))


def _e(n, i, c=2):
    return tuple(c if k == i else 0 for k in range(n))


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def simple_roots(family: str, n: int) -> tuple:
    roots = [sub(_e(n, i), _e(n, i + 1)) for i in range(n - 1)]
    if family == "B":
        roots.append(_e(n, n - 1))
    elif family == "C":
        roots.append(_e(n, n - 1, 4))
    elif family == "D":
        roots.append(add(_e(n, n - 2), _e(n, n - 1)))
    return tuple(roots)


@lru_cache(maxsize=None)
def positive_roots(family: str, n: int) -> frozenset:
    pos = {sub(_e(n, i), _e(n, j)) for i, j in itertools.combinations(range(n), 2)}
    if family != "GL":
        pos |= {add(_e(n, i), _e(n, j)) for i, j in itertools.combinations(range(n), 2)}
    if family == "B":
        pos |= {_e(n, i) for i in range(n)}
    if family == "C":
        pos |= {_e(n, i, 4) for i in range(n)}
    return frozenset(pos)


def reflection(alpha) -> tuple:
    """The reflection through a classical root, as a signed permutation."""
    n = len(alpha)
    support = [i for i in range(n) if alpha[i]]
    perm, signs = list(range(n)), [1] * n
    if len(support) == 1:
        signs[support[0]] = -1
    else:
        i, j = support
        perm[i], perm[j] = j, i
        if alpha[i] == alpha[j]:          # e_i + e_j swaps and negates
            signs[i] = signs[j] = -1
    return tuple(perm), tuple(signs)


def act(g, v) -> tuple:
    perm, signs = g
    return tuple(s * v[p] for p, s in zip(perm, signs))


def compose(g, h) -> tuple:
    """g after h."""
    return (tuple(h[0][p] for p in g[0]),
            tuple(s * h[1][p] for p, s in zip(g[0], g[1])))


def det(g) -> int:
    perm, signs = g
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return (-1) ** inversions * prod(signs)


@lru_cache(maxsize=None)
def weyl_group(family: str, n: int) -> tuple:
    """All of W by direct enumeration of signed permutations."""
    if family == "GL":
        flips = [(1,) * n]
    else:
        flips = [s for s in itertools.product((1, -1), repeat=n)
                 if family != "D" or s.count(-1) % 2 == 0]
    return tuple((p, s) for p in itertools.permutations(range(n)) for s in flips)


@lru_cache(maxsize=None)
def levi_weyl_group(family: str, n: int, sbar: tuple) -> tuple:
    """The Levi Weyl group as the closure of its simple reflections, with signs."""
    gens = [reflection(simple_roots(family, n)[i - 1]) for i in sbar]
    ident = (tuple(range(n)), (1,) * n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for r in gens:
                h = compose(r, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple((g, det(g)) for g in sorted(seen))


@lru_cache(maxsize=None)
def levi_positive_roots(family: str, n: int, sbar: tuple) -> frozenset:
    """Positive roots of the parent in the W-bar orbit of the Levi simple roots."""
    simple = simple_roots(family, n)
    orbit = {act(g, simple[i - 1])
             for g, _ in levi_weyl_group(family, n, sbar) for i in sbar}
    return frozenset(orbit & positive_roots(family, n))


@lru_cache(maxsize=None)
def diagram_automorphisms(family: str, n: int, sbar: tuple) -> tuple:
    """Every element of W that maps the Levi positive roots onto themselves."""
    rbar = levi_positive_roots(family, n, sbar)
    return tuple(g for g in weyl_group(family, n)
                 if all(act(g, a) in rbar for a in rbar))


def rho(roots) -> tuple:
    total = (0,) * len(next(iter(roots)))
    for a in roots:
        total = add(total, a)
    return tuple(c // 2 for c in total)


def is_dominant(v, simples) -> bool:
    return all(dot(v, a) >= 0 for a in simples)


def dominant_rep(family: str, v) -> tuple:
    """The dominant weight in the W-orbit of ``v``."""
    if family == "GL":
        return tuple(sorted(v, reverse=True))
    out = sorted((abs(c) for c in v), reverse=True)
    if family == "D" and sum(1 for c in v if c < 0) % 2 and out[-1]:
        out[-1] = -out[-1]     # an odd number of sign changes is not in W(D)
    return tuple(out)


def stabilizer_order(family: str, n: int, v) -> int:
    return sum(1 for g in weyl_group(family, n) if act(g, v) == tuple(v))


def weyl_dim(roots, v) -> int:
    """Weyl's dimension product over ``roots`` for highest weight ``v``."""
    r = rho(roots)
    shifted = add(v, r)
    value = prod(Fraction(dot(shifted, a), dot(r, a)) for a in roots)
    if value.denominator != 1:
        raise ValueError(f"non-integral Weyl dimension at {v}")
    return int(value)


@lru_cache(maxsize=None)
def _coordinate_map(family: str, n: int) -> tuple:
    """Integer matrices giving simple-root coordinates times a common denominator.

    Gauss-Jordan elimination of the simple roots against the identity: the
    first rows give D times the coordinates of a vector in the span, the
    remaining rows are linear conditions that vanish exactly on the span.
    """
    simple = simple_roots(family, n)
    m = len(simple)
    rows = [[Fraction(simple[k][i]) for k in range(m)]
            + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(m):
        piv = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    maps = [row[m:] for row in rows]
    denom = 1
    for row in maps:
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [tuple(int(x * denom) for x in row) for row in maps]
    return tuple(ints[:m]), tuple(ints[m:]), denom


def in_positive_cone(family: str, n: int, beta) -> bool:
    """Is ``beta`` an N-combination of the simple (so of the positive) roots?"""
    coords, conditions, denom = _coordinate_map(family, n)
    if any(dot(row, beta) for row in conditions):
        return False
    for row in coords:
        c = dot(row, beta)
        if c < 0 or c % denom:
            return False
    return True


def highest_root(family: str, n: int) -> tuple:
    r = rho(positive_roots(family, n))
    return max(positive_roots(family, n), key=lambda a: (dot(a, r), a))


def dominant_weights(family: str, n: int, cap: int, parity: int = 0) -> list:
    """Dominant weights with doubled coordinates of one parity and |c| <= cap."""
    simples = simple_roots(family, n)
    values = range(-cap + ((cap - parity) % 2), cap + 1, 2)
    out = [v for v in itertools.combinations_with_replacement(sorted(values, reverse=True), n)
           if is_dominant(v, simples)]
    return sorted(out)


def m_coefficients(family: str, n: int, sbar: tuple, mu) -> dict:
    """The M-function of ``mu`` on the orbit-sum basis, as a signed count.

    Each Levi Weyl element w contributes its sign at the dominant
    representative of mu + rho_bar - w(rho_bar).
    """
    rbar = levi_positive_roots(family, n, sbar)
    rho_bar = rho(rbar) if rbar else (0,) * n
    out: dict = {}
    for g, sign in levi_weyl_group(family, n, sbar):
        key = dominant_rep(family, add(mu, sub(rho_bar, act(g, rho_bar))))
        out[key] = out.get(key, 0) + sign
    return {w: c for w, c in out.items() if c}


def lambda_box(family: str, n: int, mu, k: int) -> list:
    """Dominant lambda with mu <= lambda <= mu + k * (highest root).

    Candidates are non-increasing rows between the extreme coordinates,
    pruned on the prefix sums that every family shares with its simple
    coordinates (the first n - 2); the cone tests decide the rest.
    """
    top = add(mu, tuple(k * c for c in highest_root(family, n)))
    cap = max(abs(c) for c in top + tuple(mu))
    values = range(cap - (cap - mu[0]) % 2, -cap - 1, -2)
    simples = simple_roots(family, n)
    out = []

    def rec(prefix, low, high):
        j = len(prefix)
        if j == n:
            lam = tuple(prefix)
            if is_dominant(lam, simples) and in_positive_cone(family, n, sub(lam, mu)) \
                    and in_positive_cone(family, n, sub(top, lam)):
                out.append(lam)
            return
        for v in values:
            if prefix and v > prefix[-1]:
                continue
            lo, hi = low + v - mu[j], high + top[j] - v
            if j <= n - 3 and (lo < 0 or hi < 0):
                continue
            prefix.append(v)
            rec(prefix, lo, hi)
            prefix.pop()

    rec([], 0, 0)
    return sorted(out)
