"""The three workloads and the seeded inputs of each.

A workload is a list of operations; one operation is one call of a
top-level ``levibranch`` function, named by the operation's ``call``.
Every round repeats the same list, so the share of failed operations never
depends on the run length.  The first operation of each list is fixed, so
that ``first_result_s`` times the same call under every seed; the seed
draws the rest.

Levis are ``(family, rank, simple-root indices)`` and weights are lists
of doubled coordinates.  Draws use only the helpers in ``lie``, never the
program under test.
"""

from __future__ import annotations

import itertools
import random

import lie

GL6_222 = ("GL", 6, (1, 3, 5))
GL6_42 = ("GL", 6, (1, 2, 3, 5))
D4_4 = ("D", 4, (1, 2, 3))
D5_322 = ("D", 5, (1, 2, 4, 5))
B3_23 = ("B", 3, (1, 3))
C3_3 = ("C", 3, (1, 2))
C4_32 = ("C", 4, (1, 2, 4))
SP12 = ("C", 6, (1, 2, 4, 5, 6))


def doubled(*coords) -> list:
    return [int(2 * c) for c in coords]


def levi_dominant(levi, cap: int, parities=(0,)) -> list:
    """Levi-dominant weights with doubled coordinates in [-cap, cap]."""
    family, n, sbar = levi
    simples = [lie.simple_roots(family, n)[i - 1] for i in sbar]
    out = []
    for parity in parities:
        values = range(-cap + (cap - parity) % 2, cap + 1, 2)
        out += [w for w in itertools.product(values, repeat=n)
                if lie.is_dominant(w, simples)]
    return sorted(out)


def spin_classes(levi) -> tuple:
    return (0, 1) if levi[0] in ("B", "D") else (0,)


def stratified(rng, pool: list, draws: int) -> list:
    """One item from each of ``draws`` consecutive slices of a sorted pool.

    Every seed then draws the same profile of sizes, so rounds cost about
    the same under any seed.
    """
    size = len(pool) // draws
    return [rng.choice(pool[i * size:(i + 1) * size]) for i in range(draws)]


# -- scan -----------------------------------------------------------------

# (Levi, coordinate bound).  The D5 box holds the open family of flagged
# pairs and goes first; the others follow in seeded order.
SCAN_BOXES = [(D5_322, 2), (GL6_222, 1), (B3_23, 4), (C3_3, 5), (SP12, 1)]


def scan_ops(seed: int) -> list:
    rest = SCAN_BOXES[1:]
    random.Random(seed).shuffle(rest)
    return [{"call": "search_box", "levi": levi, "bound": bound}
            for levi, bound in SCAN_BOXES[:1] + rest]


# -- rows -----------------------------------------------------------------

# Fixed rows first: the sp12 > gl3+sp6 rows send |W| = 46080 orbit
# arguments per lambda through the cone mask and the partition DP, and they
# carry most of the round's work, so that every seed does nearly the same
# amount of it.
ROWS_FIXED = [
    {"call": "branch_row", "levi": SP12, "mu": doubled(1, 0, 0, 1, 0, 0), "k": 1},
    {"call": "branch_row", "levi": SP12, "mu": doubled(1, 1, 0, 0, 0, 0), "k": 1},
    {"call": "branch_row", "levi": SP12, "mu": doubled(1, 0, 0, 0, 0, 0), "k": 1},
    {"call": "branch_row", "levi": GL6_222, "mu": doubled(1, 0, 1, 0, 0, -1), "k": 3},
    {"call": "branch_row", "levi": GL6_42, "mu": doubled(2, 1, 1, 0, 1, 0), "k": 3},
    {"call": "branch_row", "levi": D5_322, "mu": doubled(1, 0, 0, 0, 0), "k": 2},
    {"call": "branch_row", "levi": C4_32, "mu": doubled(1, 0, 0, 1), "k": 2},
]
ROWS_FIRST = ROWS_FIXED[0]

# Seeded rows: (Levi, k, coordinate cap of mu, smallest and largest lambda
# box, draws).  Each pool is sorted by box size and drawn from stratum by
# stratum; the rows are cheap, so the seed moves little of the work.
ROW_POOLS = [
    (GL6_222, 2, 2, 3, 10, 4),
    (GL6_42, 2, 2, 3, 10, 4),
    (D5_322, 1, 2, 2, 8, 4),
    (C4_32, 2, 2, 6, 16, 3),
    (B3_23, 2, 3, 4, 12, 4),
]


def row_pool(levi, k: int, cap: int, lo: int, hi: int) -> list:
    """Levi-dominant mu whose lambda box holds lo to hi weights, by box size."""
    family, n, _ = levi
    sized = [(len(lie.lambda_box(family, n, mu, k)), mu)
             for mu in levi_dominant(levi, cap, spin_classes(levi))]
    return [mu for size, mu in sorted(sized) if lo <= size <= hi]


def rows_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = list(ROWS_FIXED)
    for levi, k, cap, lo, hi, draws in ROW_POOLS:
        ops += [{"call": "branch_row", "levi": levi, "mu": list(mu), "k": k}
                for mu in stratified(rng, row_pool(levi, k, cap, lo, hi), draws)]
    return ops


# -- expand, first part: the restriction oracle ----------------------------

# (Levi, top lambda).  Each top lambda is always run.  The seed draws one
# lambda from each of ORACLE_STRATA slices of the weights below the top,
# ordered by dimension up to ORACLE_DIM_CAP, so that each draw costs about
# what any other draw from its slice costs.
ORACLE_TOPS = [(D5_322, doubled(2, 2, 1, 1, 0)), (C4_32, doubled(4, 2, 1, 0)),
               (B3_23, doubled(5, 3, 1))]
ORACLE_FIRST = {"call": "branch_by_restriction", "levi": D5_322,
                "lam": doubled(2, 1, 1, 0, 0)}
ORACLE_STRATA = 3
ORACLE_DIM_CAP = 2000


def oracle_pool(levi, top) -> list:
    """Nonzero dominant lambda below ``top`` up to the cap, sorted by dimension."""
    family, n, _ = levi
    cap = max(abs(c) for c in top)
    pos = lie.positive_roots(family, n)
    below = [lam for lam in lie.dominant_weights(family, n, cap, top[0] % 2)
             if any(lam) and lam != tuple(top) and lam != tuple(ORACLE_FIRST["lam"])
             and lie.in_positive_cone(family, n, lie.sub(top, lam))
             and lie.weyl_dim(pos, lam) <= ORACLE_DIM_CAP]
    return sorted(below, key=lambda lam: (lie.weyl_dim(pos, lam), lam))


def oracle_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = [ORACLE_FIRST]
    for levi, top in ORACLE_TOPS:
        ops += [{"call": "branch_by_restriction", "levi": levi, "lam": list(lam)}
                for lam in stratified(rng, oracle_pool(levi, top), ORACLE_STRATA)]
        ops.append({"call": "branch_by_restriction", "levi": levi, "lam": top})
    return ops


# -- expand, second part: M-functions --------------------------------------

# (Levi, coordinate cap, draws, expand).  Expanded draws are stratified by
# their number of orbit coefficients.  sp12 > gl3+sp6 builds M only: its
# full expansion exceeds the program's default expansion budget, and its
# build cost, mostly the dual-construction check, does not depend on mu.
# The fixed first mu has 48 regular orbit coefficients and the largest
# expansion of the list (26280 terms), so it sets the peak memory.
MFUN_POOLS = [(GL6_42, 4, 12, True), (D4_4, 4, 12, True), (B3_23, 4, 12, True),
              (SP12, 2, 6, False)]
MFUN_FIRST = {"call": "build_m", "levi": GL6_42, "mu": doubled(9, 6, 3, 0, 5, 1),
              "poly": True}


def mfun_pool(levi, cap: int, expand: bool) -> list:
    """Levi-dominant mu; pools that are expanded are sorted by the number of
    orbit coefficients, which sets the size of the expansion."""
    family, n, sbar = levi
    pool = [mu for mu in levi_dominant(levi, cap, spin_classes(levi))
            if list(mu) != MFUN_FIRST["mu"]]
    if expand:
        pool.sort(key=lambda mu: (len(lie.m_coefficients(family, n, sbar, mu)), mu))
    return pool


def mfun_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = [MFUN_FIRST]
    for levi, cap, draws, expand in MFUN_POOLS:
        pool = mfun_pool(levi, cap, expand)
        picks = stratified(rng, pool, draws) if expand else rng.sample(pool, draws)
        ops += [{"call": "build_m", "levi": levi, "mu": list(mu), "poly": expand}
                for mu in picks]
    return ops


def expand_ops(seed: int) -> list:
    """The restriction oracle, then M-functions and their expansion."""
    return oracle_ops(seed) + mfun_ops(seed)


WORKLOADS = {"scan": scan_ops, "rows": rows_ops, "expand": expand_ops}

