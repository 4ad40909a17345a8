import itertools
import math
import random

import numpy as np
import pytest

import oracles

from levibranch import Weight, WeightError, build_levi, build_root_system, kernels
from levibranch.rootsys import (RootSystemError, _scaled_coordinates,
                                chamber_cone_mask)
from oracles import coroot_pairing, standard_gl_blocks


def _unit(n, i, c=1):
    v = [0] * n
    v[i] = c
    return Weight.of(*v)


class TestConstruction:
    @pytest.mark.parametrize("family,rank,count", [
        ("GL", 3, 3), ("GL", 6, 15), ("B", 3, 9), ("C", 3, 9),
        ("C", 6, 36), ("D", 4, 12), ("B", 1, 1), ("C", 1, 1), ("D", 2, 2),
    ])
    def test_positive_root_counts(self, family, rank, count):
        assert len(build_root_system(family, rank).positive_roots) == count

    def test_sp12_roots_are_the_expected_set(self, sp12):
        n = 6
        expected = set()
        for i in range(n):
            for j in range(i + 1, n):
                expected.add(_unit(n, i) - _unit(n, j))
                expected.add(_unit(n, i) + _unit(n, j))
            expected.add(_unit(n, i, 2))
        assert set(sp12.positive_roots) == expected

    def test_gl3_roots_and_rho(self, gl3):
        assert set(gl3.positive_roots) == {
            Weight.of(1, -1, 0), Weight.of(1, 0, -1), Weight.of(0, 1, -1)}
        assert gl3.rho == Weight.of(1, 0, -1)

    def test_c3_rho_is_half_sum(self, c3):
        # independent recomputation of the half sum
        total = Weight.zero(3)
        for a in c3.positive_roots:
            total = total + a
        assert all(c % 2 == 0 for c in total)
        assert c3.rho == Weight(c // 2 for c in total)
        assert c3.rho == Weight.of(3, 2, 1)

    @pytest.mark.parametrize("family,rank", [
        ("GL", 2), ("GL", 4), ("GL", 5), ("B", 2), ("B", 3), ("C", 3), ("C", 6),
        ("D", 2), ("D", 4),
    ])
    def test_two_rho_identity(self, family, rank):
        datum = build_root_system(family, rank)
        total = Weight.zero(rank)
        for a in datum.positive_roots:
            total = total + a
        assert total == datum.rho + datum.rho

    @pytest.mark.parametrize("family,rank", [
        ("GL", 4), ("B", 3), ("C", 3), ("D", 4)])
    def test_positive_roots_are_nonneg_simple_combinations(self, family, rank):
        datum = build_root_system(family, rank)
        t, scale = _scaled_coordinates(family, datum.positive_roots)
        assert not (t % scale).any()
        m = len(datum.simple_roots)
        for root, coeffs in zip(datum.positive_roots, (t // scale)[:, :m].tolist()):
            assert all(c >= 0 for c in coeffs)
            rebuilt = Weight.zero(rank)
            for c, a in zip(coeffs, datum.simple_roots):
                rebuilt = rebuilt + c * a
            assert rebuilt == root

    def test_bad_systems_rejected(self):
        with pytest.raises(RootSystemError):
            build_root_system("E", 6)
        with pytest.raises(RootSystemError):
            build_root_system("D", 1)
        with pytest.raises(RootSystemError):
            build_root_system("GL", 0)


class TestWeight:
    def test_parse_and_json(self):
        w = Weight.parse("5,2,-1")
        assert w == Weight.of(5, 2, -1)
        assert w.to_json() == [5, 2, -1]
        spin = Weight.parse("5/2,1/2,-3/2")
        assert spin == Weight((5, 1, -3))
        assert spin.to_json() == [2.5, 0.5, -1.5]
        assert Weight.parse("2.5,0.5") == Weight((5, 1))
        with pytest.raises(WeightError):
            Weight.parse("1/3")

    def test_str_formats_each_coordinate(self, b2):
        # as to_json does: mixed parity vectors keep their integer coordinates
        assert str(Weight((2, 0, 1))) == "(1,0,1/2)"
        assert str(Weight((5, 1, -3))) == "(5/2,1/2,-3/2)"
        assert str(Weight.of(3, 0, -1)) == "(3,0,-1)"
        assert repr(Weight((-1, 4))) == "Weight(-1/2,2)"
        with pytest.raises(WeightError, match=r"^\(1/2,0\) is not an integral weight of B2$"):
            b2.require_weight(Weight((1, 0)))

    def test_lattice_membership_per_family(self, gl3, c3, b3, d4):
        spin3 = Weight((1, 1, 1))
        assert not gl3.is_lattice_weight(spin3)
        assert not c3.is_lattice_weight(spin3)
        assert b3.is_lattice_weight(spin3)
        assert d4.is_lattice_weight(Weight((1, 1, 1, 1)))
        mixed = Weight((2, 1, 0))
        assert not b3.is_lattice_weight(mixed)

    def test_coordinate_limit(self, c3, b3):
        # true coordinates below 2^51 in absolute value, spin ones included
        assert c3.require_weight(Weight.of(2**51 - 1, 0, -(2**51 - 1)))
        assert b3.require_weight(Weight((2**52 - 1, 1, -1)))
        for beta in (Weight.of(0, 2**51, 0), Weight.of(0, 0, -(2**51))):
            with pytest.raises(kernels.PackRangeError, match="2\\^51"):
                c3.require_weight(beta)

    def test_arithmetic_is_exact(self):
        a = Weight.of(3, -1)
        b = Weight((1, 1))  # (1/2, 1/2)
        assert a + b == Weight((7, -1))
        assert a - b == Weight((5, -3))
        assert -a == Weight.of(-3, 1)
        assert 3 * a == Weight.of(9, -3)


class TestPairings:
    def test_coroot_pairing_examples(self, c3):
        long_root = Weight.of(2, 0, 0)
        assert coroot_pairing(c3.rho, long_root) == 3
        assert coroot_pairing(Weight.zero(3), long_root) == 0
        alpha = Weight.of(1, -1, 0)
        assert coroot_pairing(alpha, alpha) == 2

    def test_pairing_is_rational_exact(self):
        # half-integral weights pair exactly; a non-integer pairing is refused
        spin = Weight((1, 1, 1))
        assert coroot_pairing(spin, Weight.of(1, 0, 0)) == 1
        assert coroot_pairing(spin, Weight.of(1, -1, 0)) == 0
        assert coroot_pairing(Weight((3, -1, 1)), Weight.of(1, 1, 0)) == 1
        with pytest.raises(WeightError, match="non-integral"):
            coroot_pairing(spin, Weight.of(2, 0, 0))

    def test_zero_root_rejected(self):
        with pytest.raises(WeightError):
            coroot_pairing(Weight.of(1, 0), Weight.zero(2))


class TestLevi:
    def test_sp12_example(self, sp12, levi_sp12):
        n = 6
        expected = set()
        for i, j in itertools.combinations(range(3), 2):
            expected.add(_unit(n, i) - _unit(n, j))
        for i, j in itertools.combinations(range(3, 6), 2):
            expected.add(_unit(n, i) - _unit(n, j))
            expected.add(_unit(n, i) + _unit(n, j))
        for i in range(3, 6):
            expected.add(_unit(n, i, 2))
        assert set(levi_sp12.rbar_plus) == expected
        assert levi_sp12.rho_bar == Weight.of(1, 0, -1, 3, 2, 1)
        assert levi_sp12.blocks == ((0, 3, "GL", False), (3, 6, "C", False))
        assert oracles.levi_components(levi_sp12) == (
            ("GL", 3, (1, 2, 3)), ("C", 3, (4, 5, 6)))

    def test_gl6_two_rho_bar(self, levi_gl6_42):
        assert levi_gl6_42.two_rho_bar == Weight.of(3, 1, -1, -3, 1, -1)
        assert levi_gl6_42.describe() == "GL6>gl4+gl2"

    def test_empty_levi(self, gl3):
        levi = build_levi(gl3, [])
        assert levi.rbar_plus == ()
        assert levi.rho_bar == Weight.zero(3)
        assert levi.blocks == tuple((i, i + 1, "GL", False) for i in range(3))
        assert levi.describe() == "GL3>gl1+gl1+gl1"

    def test_gl1_component_padding(self, gl3):
        levi = build_levi(gl3, [1])
        assert levi.blocks == ((0, 2, "GL", False), (2, 3, "GL", False))
        assert oracles.levi_components(levi) == (("GL", 2, (1, 2)), ("GL", 1, (3,)))

    @pytest.mark.parametrize("family,rank,sbar", [
        ("C", 6, (1, 2, 4, 5, 6)), ("GL", 6, (1, 2, 3, 5)),
        ("B", 3, (1, 3)), ("D", 4, (1, 3, 4)),
    ])
    def test_rbar_is_span_intersection(self, family, rank, sbar):
        # every positive root inside the rational span of rbar lies in rbar
        datum = build_root_system(family, rank)
        levi = build_levi(datum, sbar)
        span = _rational_span(levi.rbar_plus, rank)
        for root in datum.positive_roots:
            assert (root in set(levi.rbar_plus)) == _in_span(span, root)

    def test_index_bounds(self, gl3):
        with pytest.raises(RootSystemError):
            build_levi(gl3, [3])

    def test_full_gl_levi_detection(self, levi_c3_gl3, levi_sp12, levi_b3_gl2_so3):
        assert levi_c3_gl3.is_full_gl_levi()
        assert not levi_sp12.is_full_gl_levi()
        assert not levi_b3_gl2_so3.is_full_gl_levi()

    def test_standard_gl_blocks(self, levi_gl6_42, levi_sp12):
        assert standard_gl_blocks(levi_gl6_42) == ((1, 2, 3, 4), (5, 6))
        assert standard_gl_blocks(levi_sp12) is None

    # the family systems of the block comparisons: GL1-7, B1-7, C1-7, D2-7
    BLOCK_SYSTEMS = ([("GL", n) for n in range(1, 8)] + [("B", n) for n in range(1, 8)]
                     + [("C", n) for n in range(1, 8)] + [("D", n) for n in range(2, 8)])

    def test_standard_gl_blocks_match_root_sets(self):
        count = 0
        for family, rank in self.BLOCK_SYSTEMS:
            for levi in oracles.every_levi(build_root_system(family, rank)):
                blocks = oracles.standard_gl_blocks_by_roots(levi)
                assert standard_gl_blocks(levi) == blocks, (family, rank, levi.sbar)
                assert levi.is_full_gl_levi() == (
                    family != "GL" and blocks is not None and len(blocks) == 1)
                count += 1
        assert count == 887

    def test_blocks_match_the_dynkin_diagram(self):
        # labels, |Wbar| and Rbar+ read off the blocks and the Levi cone,
        # against the diagram classification and root strings
        count = 0
        for family, rank in self.BLOCK_SYSTEMS:
            for levi in oracles.every_levi(build_root_system(family, rank)):
                key = (family, rank, levi.sbar)
                assert levi.describe() == oracles.describe_by_diagram(levi), key
                assert levi.weylbar_order() == oracles.weylbar_order_by_diagram(levi), key
                assert levi.rbar_plus == oracles.rbar_by_root_strings(levi), key
                count += 1
        assert count == 887

    def test_levi_on_every_simple_root_is_one_block(self):
        for family, rank in self.BLOCK_SYSTEMS:
            datum = build_root_system(family, rank)
            levi = build_levi(datum, range(1, len(datum.simple_roots) + 1))
            assert levi.blocks == ((0, rank, family, False),)

    @pytest.mark.parametrize("family,rank,sbar,blocks", [
        ("D", 5, (1, 2, 4, 5), ((0, 3, "GL", False), (3, 5, "D", False))),
        ("D", 4, (1, 2, 4), ((0, 4, "GL", True),)),
        ("D", 4, (2, 3, 4), ((0, 1, "GL", False), (1, 4, "D", False))),
        ("D", 4, (3,), ((0, 1, "GL", False), (1, 2, "GL", False), (2, 4, "GL", False))),
        ("D", 4, (4,), ((0, 1, "GL", False), (1, 2, "GL", False), (2, 4, "GL", True))),
        ("B", 3, (1, 3), ((0, 2, "GL", False), (2, 3, "B", False))),
    ], ids=["D5-gl3+D2", "D4-flipped-gl4", "D4-D3-tail", "D4-3", "D4-4", "B3-gl2+so3"])
    def test_factor_blocks(self, family, rank, sbar, blocks):
        levi = build_levi(build_root_system(family, rank), sbar)
        assert levi.blocks == blocks
        # the blocks' group orders multiply to |Wbar| of the Dynkin diagram
        assert math.prod(build_root_system(fam, hi - lo).weyl_order()
                         for lo, hi, fam, _ in blocks) == (
            oracles.weylbar_order_by_diagram(levi))

    def test_twisted_d_component(self, d4):
        # simple root e3 + e4 alone: an A1 acting on two coordinates
        levi = build_levi(d4, [4])
        comp = [c for c in oracles.levi_components(levi) if c.rank == 2 and len(c.coords) == 2]
        assert comp and comp[0].coords == (3, 4)
        assert levi.blocks[-1] == (2, 4, "GL", True)
        assert standard_gl_blocks(levi) is None


def _rational_span(vectors, n):
    from fractions import Fraction
    rows = [[Fraction(c) for c in v] for v in vectors]
    basis = []
    for row in rows:
        row = row[:]
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x)
            if row[piv]:
                f = row[piv] / b[piv]
                row = [x - f * y for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    return basis


def _in_span(basis, v):
    from fractions import Fraction
    row = [Fraction(c) for c in v]
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x)
        if row[piv]:
            f = row[piv] / b[piv]
            row = [x - f * y for x, y in zip(row, b)]
    return not any(row)


class TestDominance:
    def test_gl3_examples(self, gl3):
        gamma = Weight.of(1, -1, 0)
        beta = Weight.zero(3)
        assert not gl3.dominance_leq(gamma, beta)
        # gamma - beta is itself a positive root, so beta <= gamma holds
        assert gl3.dominance_leq(beta, gamma)
        assert gl3.dominance_leq(Weight.zero(3), Weight.of(1, 0, -1))
        assert not gl3.dominance_leq(beta, Weight.of(0, 1, -1) - Weight.of(1, 0, 0))

    def test_levi_order_examples(self, levi_gl3_21):
        def leq(gamma, beta):
            rows = np.array([beta - gamma], dtype=np.int64)
            return bool(chamber_cone_mask("GL", rows, levi_gl3_21.sbar)[0])

        mu = Weight.of(2, 0, 1)
        assert leq(mu, mu + Weight.of(1, -1, 0))
        assert leq(mu, mu)
        assert not leq(mu, mu + Weight.of(0, 1, -1))
        # far along a Levi root, and along one outside the Levi
        assert leq(Weight.zero(3), Weight.of(3000, -3000, 0))
        assert not leq(Weight.zero(3), Weight.of(3000, 0, -3000))

    @pytest.mark.parametrize("family,rank", [
        ("GL", 3), ("B", 2), ("C", 2), ("D", 3)])
    def test_closed_form_matches_exhaustive_cone(self, family, rank, cone_closure):
        # brute-force N-combinations of up to 4 roots as the independent oracle
        datum = build_root_system(family, rank)
        roots = datum.positive_roots
        reachable = {Weight.zero(rank)}
        frontier = [Weight.zero(rank)]
        for _ in range(4):
            nxt = []
            for v in frontier:
                for a in roots:
                    w = v + a
                    if w not in reachable:
                        reachable.add(w)
                        nxt.append(w)
            frontier = nxt
        zero = Weight.zero(rank)
        checked = 0
        for v in sorted(reachable):
            assert datum.dominance_leq(zero, v), v
            checked += 1
        # points just off the cone, against the closure of {0} under adding
        # positive roots up to the largest height of the sampled box
        closure = cone_closure(family, rank, 6 * sum(range(1, rank + 1)))
        rng = random.Random(5)
        misses = 0
        while misses < 60:
            v = Weight.of(*(rng.randint(-3, 3) for _ in range(rank)))
            if v not in reachable and sum(c // 2 for c in v) <= 4:
                assert datum.dominance_leq(zero, v) == (v in closure), v
                misses += 1
        assert checked > 10

    def test_partial_order_axioms_on_box(self, c2):
        box = [Weight.of(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        leq = {(x, y) for x in box for y in box if c2.dominance_leq(x, y)}
        for x in box:
            assert (x, x) in leq
        for x, y in leq:
            if (y, x) in leq:
                assert x == y
        for x, y in leq:
            for z in box:
                if (y, z) in leq:
                    assert (x, z) in leq

    def test_generic_cone_agrees_with_closed_form(self, c2, rng, cone_closure):
        # the closure of {0} under adding positive roots is the generic cone;
        # height 24 bounds every point of the sampled box
        closure = cone_closure("C", 2, 24)
        for _ in range(120):
            d = Weight.of(rng.randint(-4, 4), rng.randint(-4, 4))
            assert c2.dominance_leq(Weight.zero(2), d) == (d in closure), d

    def test_dominant_chamber_tests(self, b3, d4):
        assert b3.is_dominant(Weight((5, 3, 1)))
        assert not b3.is_dominant(Weight.of(1, 2, 0))
        assert d4.is_dominant(Weight.of(3, 2, 1, -1))
        assert not d4.is_dominant(Weight.of(3, 2, 1, -2))

