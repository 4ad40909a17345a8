"""Built-in invariant battery behind ``levibranch verify``.

A curated set of fast exact checks spanning every module; each prints one
PASS/FAIL line.  The pytest suite is the full gate; this command is the
quick field check.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np

from .branching import (branch_by_restriction, branch_multiplicity,
                        leading_term)
from .equivalence import induced_equal, search_box
from .rootsys import Weight, build_levi, build_root_system
from .typea_lr import (Partition, kostka_matrix_identity, lr_coefficient,
                       multi_lr)
from .weightpoly import levi_table, nabla_bar, symmetrize, weyl_character
from .weylgrp import (coset_decompose, diagram_automorphisms, straighten,
                      transversal, weyl_group)


def _checks(seed: int):
    rng = random.Random(seed or 20240901)

    def chk_root_counts():
        return (len(build_root_system("C", 6).positive_roots) == 36
                and len(build_root_system("D", 4).positive_roots) == 12
                and len(build_root_system("B", 3).positive_roots) == 9)

    def chk_two_rho():
        for fam, n in (("GL", 4), ("B", 3), ("C", 3), ("D", 4)):
            datum = build_root_system(fam, n)
            total = Weight.zero(n)
            for a in datum.positive_roots:
                total = total + a
            if total != datum.rho + datum.rho:
                return False
        return True

    def chk_group_orders():
        return (len(weyl_group(build_root_system("GL", 3))) == 6
                and len(weyl_group(build_root_system("C", 3))) == 48
                and len(weyl_group(build_root_system("D", 4))) == 192)

    def chk_coset_bijection():
        datum = build_root_system("C", 3)
        levi = build_levi(datum, [1, 2])
        seen = set()
        for w in weyl_group(datum):
            u, wb = coset_decompose(levi, w)
            if u.compose(wb) != w:
                return False
            seen.add((u, wb))
        return len(seen) == 48

    def chk_transversal_sizes():
        sp12 = build_root_system("C", 6)
        levi = build_levi(sp12, [1, 2, 4, 5, 6])
        return (len(transversal(levi)) == 160
                and len(diagram_automorphisms(levi)) == 2)

    def chk_straighten():
        datum = build_root_system("GL", 2)
        return (straighten(datum, Weight.of(0, 1)) is None
                and straighten(datum, Weight.of(-1, 2)) == (-1, Weight.of(1, 0)))

    def chk_symmetrize():
        datum = build_root_system("GL", 3)
        poly = symmetrize(datum, Weight.of(1, 0, 0))
        return len(poly) == 3 and all(c == 2 for _, c in poly)

    def chk_nabla():
        datum = build_root_system("C", 6)
        levi = build_levi(datum, [1, 2, 4, 5, 6])
        poly = nabla_bar(levi)
        return len(poly) == 288 and poly.coefficient(Weight.zero(6)) == 1

    def chk_character():
        datum = build_root_system("C", 3)
        return weyl_character(datum, Weight.of(1, 1, 0)).dimension() == 14

    def chk_oracle():
        datum = build_root_system("C", 2)
        levi = build_levi(datum, [1])
        row = branch_by_restriction(levi, Weight.of(1, 0))
        ok = row == {Weight.of(1, 0): 1, Weight.of(0, -1): 1}
        return ok and all(
            branch_multiplicity(levi, Weight.of(1, 0), mu) == m
            for mu, m in row.items())

    def chk_partition_table():
        table = levi_table(build_levi(build_root_system("C", 3), [1, 2]))
        # every complement root has coordinate sum 2: count multisets of d roots
        brute = Counter(sum(combo, Weight.zero(3)) for d in range(4)
                        for combo in combinations_with_replacement(table.root_list, d))
        return table.count_rows(np.array(list(brute))).tolist() == list(brute.values())

    def chk_mfun_regression():
        datum = build_root_system("GL", 6)
        levi = build_levi(datum, [1, 2, 3, 5])
        mu = Weight.of(5, 2, 2, 1, 4, 3)
        nu = Weight.of(5, 4, 3, 1, 2, 2)
        return not induced_equal(levi, mu, nu)

    def chk_autos_sound():
        datum = build_root_system("C", 6)
        levi = build_levi(datum, [1, 2, 4, 5, 6])
        mus = []
        for _ in range(3):
            a = sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True)
            b = sorted((rng.randint(0, 4) for _ in range(3)), reverse=True)
            mus.append(Weight.of(*a, *b))
        for mu in mus:
            for u in diagram_automorphisms(levi):
                if not induced_equal(levi, mu, u.act(mu)):
                    return False
        return True

    def chk_leading():
        datum = build_root_system("GL", 6)
        levi = build_levi(datum, [1, 2, 3, 5])
        lam, sign = leading_term(levi, Weight.of(5, 2, 2, 1, 4, 3))
        return lam == Weight.of(8, 5, 3, 2, 1, -2) and sign == -1

    def chk_lr():
        return (lr_coefficient(Partition((2, 1)), Partition((1,)), Partition((1, 1))) == 1
                and lr_coefficient(Partition((3, 2, 1)), Partition((2, 1)),
                                   Partition((2, 1))) == 2
                and multi_lr(Partition((2, 1)),
                             [Partition((1,))] * 3) == 2)

    def chk_kostka():
        return all(kostka_matrix_identity(n) for n in range(1, 6))

    def chk_search_tiny():
        datum = build_root_system("C", 2)
        levi = build_levi(datum, [1])
        summary = search_box(levi, 2)
        return summary.counterexamples == 0

    return [
        ("root counts per family", chk_root_counts),
        ("positive roots sum to twice rho", chk_two_rho),
        ("Weyl group orders", chk_group_orders),
        ("coset decomposition is a bijection (C3 > gl3)", chk_coset_bijection),
        ("transversal and automorphism sizes (sp12 > gl3+sp6)", chk_transversal_sizes),
        ("straightening walls and signs (gl2)", chk_straighten),
        ("orbit symmetrisation with stabiliser weight (gl3)", chk_symmetrize),
        ("nabla product equals alternating sum (sp12 Levi)", chk_nabla),
        ("character dimension via Freudenthal (C3)", chk_character),
        ("restriction oracle agrees with the Weyl sum (C2 > gl2)", chk_oracle),
        ("partition counts match enumeration (C3 > gl3 complement)", chk_partition_table),
        ("unequal induced characters detected (gl6 regression)", chk_mfun_regression),
        ("diagram automorphisms preserve induced characters", chk_autos_sound),
        ("leading term of the M-function (gl6)", chk_leading),
        ("Littlewood-Richardson base values", chk_lr),
        ("Kostka inversion identity (sizes 1..5)", chk_kostka),
        ("tiny conjecture scan has no counterexamples (C2 > gl2)", chk_search_tiny),
    ]


def run_suite(seed: int = 0, stream=None) -> int:
    import sys

    stream = stream or sys.stdout
    checks = _checks(seed)
    failures = 0
    for name, fn in checks:
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure with a reason
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            failures += 1
        stream.write(f"[{'PASS' if ok else 'FAIL'}] {name}\n")
    stream.write(f"{'OK' if failures == 0 else 'FAILED'}: "
                 f"{len(checks) - failures}/{len(checks)} checks passed\n")
    return failures
