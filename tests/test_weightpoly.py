import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from levibranch import (Weight, WeightPolynomial, branch_multiplicity,
                        branch_row, build_levi, build_root_system, build_m,
                        weyl_character, weyl_group)
from levibranch import kernels, weightpoly
from levibranch.kernels import PackRangeError, orbit_images
from levibranch.rootsys import WeightError
from levibranch.weightpoly import (BudgetError, PartitionTable, _frame_for,
                                   _rho_drops, chamber_cone_mask,
                                   decompose_character,
                                   dominant_multiplicities, dominants_below,
                                   levi_table)
from levibranch.weylgrp import levi_group
from oracles import (element_sign, elements, kostka_multiplicity, nabla_bar,
                     poly_of, poly_op, support, symmetrize)


def weyl_dim(owner, lam):
    return _frame_for(owner).weyl_dim(lam)


def _act(poly, w):
    """The Weyl image of a polynomial, term by term."""
    return poly_of([(w.act(b), c) for b, c in poly])


def alternating_sum(levi, gamma):
    """Signed orbit sum of ``gamma`` over the Levi Weyl group's arrays."""
    perm, sign, eps = levi_group(levi).arrays
    rows = orbit_images(perm, sign, np.array(gamma, dtype=np.int64))
    return WeightPolynomial.from_rows(rows, eps)


def denominator_product(levi) -> dict:
    """The product of (1 - e^alpha) over the Levi positive roots, as a
    ``Counter`` of weight tuples, one factor at a time."""
    product = Counter({(0,) * levi.parent.rank: 1})
    for a in levi.rbar_plus:
        factor = Counter(product)
        for w, c in product.items():
            factor[tuple(x + y for x, y in zip(w, a))] -= c
        product = factor
    return {w: c for w, c in product.items() if c}


class TestWeightPolynomial:
    def test_normalisation_and_equality(self):
        rows = np.array([[2, 0], [0, 2], [2, 0]], dtype=np.int64)
        p = WeightPolynomial.from_rows(rows[:2], np.array([2, 0]))
        assert len(p) == 1 and p.coefficient(Weight.of(0, 1)) == 0
        q = WeightPolynomial.from_rows(rows[[0, 2]], np.array([1, 1]))
        assert p == q
        assert WeightPolynomial.from_rows(rows, np.array([1, 0, -1])) == poly_of({})

    def test_serialization_bit_exact(self):
        p = poly_of({Weight.of(2, -1): 3, Weight((1, 1)): -2})
        q = poly_of([(Weight((1, 1)), -2), (Weight.of(2, -1), 3)])
        blob = json.dumps(p.to_json(), sort_keys=True)
        assert blob == json.dumps(q.to_json(), sort_keys=True)
        assert blob == '[{"c": -2, "w": [0.5, 0.5]}, {"c": 3, "w": [2, -1]}]'

    def test_iteration_sorted(self):
        p = poly_of({Weight.of(3, 0): 1, Weight.of(-1, 2): 4})
        assert [w for w, _ in p] == sorted(support(p))

    def test_pack_range_limit(self):
        # rank 6 packs 10 bits per doubled coordinate: |c| < 512
        inside = Weight((511, 0, 0, 0, 0, -511))
        assert poly_of({inside: 1}).coefficient(inside) == 1
        outside = Weight((512, 0, 0, 0, 0, 0))
        with pytest.raises(PackRangeError, match=r"\|coordinate\| >= 512 .* rank 6"):
            WeightPolynomial.from_rows(np.array([outside]), np.array([1]))
        # looking a weight up never packs it into a failure
        assert poly_of({inside: 1}).coefficient(outside) == 0


# -- property tests against a plain dict ------------------------------------

RANK = 3
_coord = st.integers(-6, 6)
_weight = st.one_of(
    st.tuples(*[_coord.map(lambda c: 2 * c)] * RANK),        # integral
    st.tuples(*[_coord.map(lambda c: 2 * c + 1)] * RANK))    # spin
_dict_poly = st.dictionaries(_weight, st.integers(-3, 3), max_size=8)


def _ref_clean(d: dict) -> dict:
    return {w: c for w, c in d.items() if c}


def _as_dict(p: WeightPolynomial) -> dict:
    return {tuple(w): c for w, c in p}


def _from_terms(terms) -> WeightPolynomial:
    return WeightPolynomial.from_rows(
        np.array([w for w, _ in terms], dtype=np.int64).reshape(-1, RANK),
        np.array([c for _, c in terms], dtype=np.int64))


class TestWeightPolynomialProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_weight, st.integers(-3, 3)), max_size=12),
           st.lists(st.tuples(_weight, st.integers(1, 3)), max_size=4),
           st.randoms(use_true_random=False))
    def test_from_rows_buckets_like_a_counter(self, terms, pairs, rnd):
        want = Counter()
        for w, c in terms:
            want[w] += c
        shuffled = rnd.sample(terms, len(terms))
        cancelling = terms + [t for w, c in pairs for t in ((w, c), (w, -c))]
        rnd.shuffle(cancelling)
        polys = [_from_terms(t) for t in (terms, shuffled, cancelling)]
        assert polys[0] == polys[1] == polys[2]
        assert _as_dict(polys[0]) == _ref_clean(want)
        assert [w for w, _ in polys[0]] == sorted(_ref_clean(want))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), _weight, st.integers(-3, 3)), max_size=12),
           st.integers(0, 3))
    @example(terms=[], same=0)
    def test_signed_bucket_with_ids_buckets_like_a_counter(self, terms, same):
        ids = np.array([i for i, _, _ in terms], dtype=np.int64)
        rows = np.array([w for _, w, _ in terms], dtype=np.int64).reshape(-1, RANK)
        coeffs = np.array([c for _, _, c in terms], dtype=np.int64)
        want = Counter()
        for i, w, c in terms:
            want[i, w] += c
        urows, sums, keys, got_ids = weightpoly.signed_bucket(rows, coeffs, ids)
        got = list(zip(got_ids.tolist(), map(tuple, urows.tolist())))
        # key order is row order, so (id, key) order is (id, row) order
        assert got == sorted(want)
        assert sums.tolist() == [want[t] for t in got]
        assert np.array_equal(keys, kernels.pack_rows(urows))
        # one id for every row buckets as no ids do
        plain = weightpoly.signed_bucket(rows, coeffs)
        alike = weightpoly.signed_bucket(rows, coeffs, np.full(len(rows), same))
        assert all(np.array_equal(a, b) for a, b in zip(plain[:3], alike[:3]))
        assert not plain[3].any() and (alike[3] == same).all()

    @settings(max_examples=100, deadline=None)
    @given(_dict_poly, st.randoms(use_true_random=False))
    def test_equality_and_order(self, a, rnd):
        items = list(a.items())
        rnd.shuffle(items)
        p, q = poly_of(a), poly_of(items)
        assert p == q
        assert [w for w, _ in p] == sorted(support(p))
        assert len(p) == len(_ref_clean(a))
        for w, c in a.items():
            assert p.coefficient(Weight(w)) == c
        if p:
            bumped = dict(a)
            w0 = next(w for w, c in a.items() if c)
            bumped[w0] += 1
            assert poly_of(bumped) != p


class TestPartitionTable:
    def test_examples(self, levi_gl3_21):
        table = levi_table(levi_gl3_21)
        assert sorted(table.root_list) == sorted(
            [Weight.of(1, 0, -1), Weight.of(0, 1, -1)])
        targets = [Weight.zero(3), Weight.of(1, 1, -2), Weight.of(1, -1, 0)]
        assert table.count_rows(np.array(targets, dtype=np.int64)).tolist() == [1, 1, 0]

    def test_counts_match_enumeration(self, c2, levi_c3_gl3):
        # brute-force N-combinations as the oracle
        table = levi_table(build_levi(c2, ()))  # every positive root
        roots = c2.positive_roots
        from collections import Counter
        counter = Counter()
        for coeffs in itertools.product(range(5), repeat=len(roots)):
            total = Weight.zero(2)
            for c, a in zip(coeffs, roots):
                total = total + c * a
            if all(x <= 12 for x in total):
                counter[total] += 1
        targets = [w for w in counter if all(abs(x) <= 8 for x in w)]
        counts = table.count_rows(np.array(targets, dtype=np.int64))
        assert counts.tolist() == [counter[w] for w in targets]
        # the C3 > gl3 complement: every root has coordinate sum 2, so a
        # weight that is a sum of d roots is a sum of exactly d, and its
        # count is the number of multisets of d roots adding up to it
        table = levi_table(levi_c3_gl3)
        brute = Counter(sum(combo, Weight.zero(3)) for d in range(4)
                        for combo in itertools.combinations_with_replacement(
                            table.root_list, d))
        counts = table.count_rows(np.array(list(brute), dtype=np.int64))
        assert counts.tolist() == list(brute.values())

    def test_count_rows_leaves_values_empty(self, levi_c3_gl3):
        # the table records no row it counts, so the cached tables of
        # ``levi_table`` do not grow with use
        table = levi_table(levi_c3_gl3)
        targets = [Weight.of(2, 0, 0), Weight.of(1, 1, 0), Weight.of(2, 1, 1)]
        counts = table.count_rows(np.array(targets, dtype=np.int64))
        assert counts.tolist() == [1, 1, 2] and table.values == {}

    @pytest.mark.parametrize("root", [Weight.of(0, -1, 1), Weight.zero(3),
                                      Weight((1, -1, 0))],
                             ids=["negative", "zero", "odd"])
    def test_rejects_roots_outside_the_prefix_cone(self, root):
        with pytest.raises(WeightError):
            PartitionTable([Weight.of(1, -1, 0), root], 3)

    def test_table_size_guard(self, levi_gl3_21):
        table = PartitionTable(levi_table(levi_gl3_21).root_list, 3)
        with pytest.raises(BudgetError, match="9006001 cells"):
            table.count_rows(np.array([[6000, 0, -6000]], dtype=np.int64))

    def test_cone_mask_matches_scalar(self, cone_closure):
        # every row of doubled coordinates in [-bound, bound], so true
        # coordinates -6..6 up to rank 3, odd (spin and mixed) rows included,
        # against the closure of {0} under adding positive roots
        cases = [(family, rank, 12) for family in ("GL", "B", "C", "D")
                 for rank in (1, 2, 3) if not (family == "D" and rank == 1)]
        cases += [("GL", 4, 6), ("D", 4, 6), ("GL", 6, 2)]
        for family, rank, bound in cases:
            datum = build_root_system(family, rank)
            rows = np.array(list(itertools.product(range(-bound, bound + 1),
                                                   repeat=rank)), dtype=np.int64)
            height = rows @ np.arange(rank, 0, -1)
            # GL roots span only the rows of coordinate sum 0; the closure
            # must reach the greatest height of a box row in that span
            span = rows.sum(axis=1) == 0 if family == "GL" else np.ones(len(rows), bool)
            closure = cone_closure(family, rank, int(height[span].max()))
            mask = chamber_cone_mask(family, rows)
            for row, bit in zip(rows.tolist(), mask):
                assert bool(bit) == (tuple(row) in closure), (family, row)
            # the one-row method is the same test
            zero = Weight.zero(rank)
            for row in rows[::97].tolist():
                assert datum.dominance_leq(zero, Weight(row)) == (tuple(row) in closure)


class TestCharacters:
    def test_trivial(self, c3):
        ch = weyl_character(c3, Weight.zero(3))
        assert ch == poly_of({Weight.zero(3): 1})

    def test_c2_defining(self, c2):
        ch = weyl_character(c2, Weight.of(1, 0))
        assert dict(ch) == {Weight.of(1, 0): 1, Weight.of(0, 1): 1,
                            Weight.of(0, -1): 1, Weight.of(-1, 0): 1}

    def test_c3_fundamental_dim(self, c3):
        assert weyl_dim(c3, Weight.of(1, 1, 0)) == 14
        assert weyl_character(c3, Weight.of(1, 1, 0)).dimension() == 14

    def test_spin_character(self, b3):
        spin = Weight((1, 1, 1))
        ch = weyl_character(b3, spin)
        assert ch.dimension() == 8
        assert all(all(abs(c) == 1 for c in w) for w, _ in ch)

    @pytest.mark.parametrize("family,rank,lam", [
        ("GL", 3, (2, 1, 0)), ("C", 2, (2, 1)), ("B", 2, (2, 2)), ("D", 4, (1, 1, 0, 0)),
    ])
    def test_characters_are_weyl_symmetric(self, family, rank, lam):
        datum = build_root_system(family, rank)
        ch = weyl_character(datum, Weight.of(*lam))
        for w in elements(weyl_group(datum)):
            assert _act(ch, w) == ch

    @pytest.mark.parametrize("family,rank,lam", [
        ("GL", 3, (2, 1, 0)), ("GL", 3, (3, 1, -1)), ("C", 2, (2, 1)),
        ("B", 2, (2, 1)), ("D", 3, (2, 1, 1)),
    ])
    def test_freudenthal_matches_kostant_formula(self, family, rank, lam):
        # Kostant's formula is the Weyl sum of the torus Levi
        datum = build_root_system(family, rank)
        torus = build_levi(datum, ())
        lam = Weight.of(*lam)
        mult = dominant_multiplicities(datum, lam)
        for nu, m in mult.items():
            assert kostka_multiplicity(datum, lam, nu) == m
            assert branch_multiplicity(torus, lam, nu) == m
        # a Weyl image off the dominant chamber
        w = elements(weyl_group(datum))[-1]
        for nu in mult:
            assert kostka_multiplicity(datum, lam, w.act(nu)) == \
                branch_multiplicity(torus, lam, w.act(nu))
        # and a point outside the support
        beyond = lam + datum.highest_root
        assert kostka_multiplicity(datum, lam, beyond) == 0
        assert branch_multiplicity(torus, lam, beyond) == 0

    def test_budget_error(self, c3, monkeypatch):
        monkeypatch.setattr(weightpoly, "DEFAULT_CHAR_BUDGET", 1000)
        with pytest.raises(BudgetError):
            weyl_character(c3, Weight.of(40, 30, 20))

    def test_requires_dominant(self, c3):
        with pytest.raises(WeightError):
            weyl_character(c3, Weight.of(0, 1, 0))


class TestDecompose:
    def test_not_levi_symmetric(self, levi_c3_gl3):
        # the character of (1,0,0) also has weight (0,0,1)
        poly = poly_of({Weight.of(1, 0, 0): 1, Weight.of(0, 1, 0): 1})
        with pytest.raises(WeightError,
                           match=r"not symmetric: the reflection in \(0,1,-1\) maps the term "
                                 r"1\*e\^\(0,1,0\) to \(0,0,1\), whose coefficient is 0$"):
            decompose_character(levi_c3_gl3, poly)

    def test_negative_top(self, levi_c3_gl3):
        poly = poly_op(oracles.character_by_orbits(levi_c3_gl3, Weight.of(1, 0, 0)), "*", -1)
        with pytest.raises(WeightError, match="negative multiplicity -1"):
            decompose_character(levi_c3_gl3, poly)

    def test_negative_leftovers(self, levi_c3_gl3):
        # two copies at the top but one at the lower weights
        poly = poly_op(oracles.character_by_orbits(levi_c3_gl3, Weight.of(1, 0, 0)), "+",
                       poly_of({Weight.of(1, 0, 0): 1}))
        with pytest.raises(WeightError,
                           match=r"not symmetric: the reflection in \(1,-1,0\) maps the term "
                                 r"1\*e\^\(0,1,0\) to \(1,0,0\), whose coefficient is 2$"):
            decompose_character(levi_c3_gl3, poly)

    @pytest.mark.parametrize("fixture,lam", [
        ("levi_c3_gl3", Weight.of(2, 1, 0)),
        ("levi_b3_gl2_so3", Weight((3, 1, 1))),
    ])
    def test_matches_branch_rows(self, fixture, lam, request):
        levi = request.getfixturevalue(fixture)
        got = decompose_character(levi, weyl_character(levi.parent, lam))
        assert sum(m * weyl_dim(levi, mu) for mu, m in got.items()) == \
            weyl_dim(levi.parent, lam)
        for mu, m in got.items():
            row = branch_row(levi, mu, k=3)
            assert lam in row.box and row.entries[lam] == m


class TestKostka:
    def test_diagonal_and_order(self, gl3):
        lam = Weight.of(2, 1, 0)
        assert kostka_multiplicity(gl3, lam, lam) == 1
        assert kostka_multiplicity(gl3, lam, Weight.of(3, 0, 0)) == 0
        assert kostka_multiplicity(gl3, lam, Weight.of(1, 1, 1)) == 2

    def test_weyl_invariance(self, gl3, rng):
        lam = Weight.of(3, 1, 0)
        for w in elements(weyl_group(gl3)):
            beta = Weight.of(2, 1, 1)
            assert kostka_multiplicity(gl3, lam, w.act(beta)) == \
                kostka_multiplicity(gl3, lam, beta)

    def test_dimension_sums(self, c2):
        for lam in dominants_below(c2, Weight.of(3, 2)):
            mult = dominant_multiplicities(c2, lam)
            total = sum(m * len(oracles.orbit_rows(c2, nu)) for nu, m in mult.items())
            assert total == weyl_dim(c2, lam)


FRAME_SYSTEMS = ([("GL", n) for n in range(2, 6)] + [("B", n) for n in range(1, 6)]
                 + [("C", n) for n in range(1, 6)] + [("D", n) for n in range(2, 6)])


def _cone_rows(levi, rng):
    """Rows on the Levi span (in and out of the cone), rows just off it, and
    random integral, spin and mixed-parity rows."""
    n = levi.parent.rank
    simple = np.array(levi.sbar_roots, dtype=np.int64).reshape(-1, n)
    span = rng.integers(-1, 3, size=(24, len(simple))) @ simple
    off = span[:12].copy()
    off[np.arange(12), rng.integers(0, n, size=12)] += 2 * rng.choice([-1, 1], size=12)
    integral = 2 * rng.integers(-2, 3, size=(12, n))
    spin = 2 * rng.integers(-2, 2, size=(8, n)) + 1
    mixed = rng.integers(-4, 5, size=(12, n))
    return np.concatenate([span, off, integral, spin, mixed])


def _dominant_rows_input(family, n, rng):
    """Lattice rows: integral, and all-odd where every reflection keeps them
    integral (spin weights of B and D, half-integral shifts in GL)."""
    rows = [2 * rng.integers(-4, 5, size=(30, n))]
    if family != "C":
        rows.append(2 * rng.integers(-4, 4, size=(15, n)) + 1)
    return np.concatenate(rows)


class TestFrames:
    """The frames' batched dominant image and Levi cone test against the
    scalar reflection loop and the partition-count order (``oracles``)."""

    @pytest.mark.parametrize("family,rank", FRAME_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in FRAME_SYSTEMS])
    def test_levi_cone_matches_partition_order(self, family, rank):
        datum = build_root_system(family, rank)
        rng = np.random.default_rng(rank)
        for levi in oracles.every_levi(datum):
            rows = _cone_rows(levi, rng)
            got = chamber_cone_mask(family, rows, levi.sbar)
            assert got.tolist() == oracles.levi_cone(levi, rows).tolist(), levi.sbar
        # the Levi on every simple root has the cone of g
        rows = _cone_rows(levi, rng)
        assert chamber_cone_mask(family, rows, levi.sbar).tolist() == \
            chamber_cone_mask(family, rows).tolist()

    @pytest.mark.parametrize("family,rank", FRAME_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in FRAME_SYSTEMS])
    def test_dominant_matches_reflection_loop(self, family, rank):
        datum = build_root_system(family, rank)
        rng = np.random.default_rng(100 + rank)
        for owner in [datum, *oracles.every_levi(datum)]:
            rows = _dominant_rows_input(family, rank, rng)
            got = _frame_for(owner).dominant(rows)
            assert got.tolist() == [list(oracles.domrep(owner, Weight(r)))
                                    for r in rows.tolist()]

    def test_non_integral_reflection_raises(self, levi_gl3_21):
        # (-1/2, 0, 0) pairs with e1 - e2 to -1/2; the frame sorts and
        # divides by nothing, so only the oracle can meet this pairing
        beta = Weight((-1, 0, 0))
        with pytest.raises(WeightError):
            oracles.domrep(levi_gl3_21, beta)


def _same_arrays(got, want):
    return all(np.array_equal(getattr(got, a), getattr(want, a))
               for a in ("_keys", "_rows", "_coeffs"))


class TestOrbits:
    """``_Frame.orbits`` under ``weyl_character`` and ``MFunction.poly``
    against one orbit at a time, bucketed by ``from_rows`` (``oracles``).
    Only g's frame expands orbits."""

    @pytest.mark.parametrize("family,rank", FRAME_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in FRAME_SYSTEMS])
    def test_batched_orbits_match_per_orbit_route(self, family, rank):
        datum = build_root_system(family, rank)
        rng = np.random.default_rng(200 + rank)
        for owner in [datum, *oracles.every_levi(datum)]:
            rows = [2 * rng.integers(-1, 2, size=(2, rank))]
            if family in ("B", "D"):
                rows.append(2 * rng.integers(-1, 1, size=(1, rank)) + 1)  # spin
            doms = np.unique(_frame_for(owner).dominant(np.concatenate(rows)), axis=0)
            for lam in map(Weight, doms.tolist()):
                if owner is datum:
                    assert _same_arrays(weyl_character(owner, lam),
                                        oracles.character_by_orbits(owner, lam)), (owner, lam)
                else:
                    fn = build_m(owner, lam)
                    assert _same_arrays(fn.poly(), oracles.poly_by_orbits(fn)), (owner, lam)

    def test_chunks_match_one_batch(self, b3, levi_b3_gl2_so3, monkeypatch):
        lam = Weight.of(2, 1, 1)
        fn = build_m(levi_b3_gl2_so3, Weight((-1, -3, 1)))
        whole = weyl_character(b3, lam), fn.poly()
        for chunk in (1, 100):  # one orbit, and two, per chunk
            monkeypatch.setattr(weightpoly, "ORBIT_CHUNK_ROWS", chunk)
            for got, want in zip((weyl_character(b3, lam), fn.poly()), whole):
                assert _same_arrays(got, want)

    def test_orbits_refuse_repeated_or_non_dominant_rows(self, levi_c3_gl3):
        frame = _frame_for(levi_c3_gl3.parent)
        doms = np.array([[4, 2, 0], [2, 0, 0]])
        assert len(frame.orbits(doms)[0]) > 0
        for bad in ([[4, 2, 0], [2, 0, 0], [4, 2, 0]], [[2, 0, 0], [0, 4, 2]],
                    [[2, 0, 0], [0, 0, -2]]):  # the last is Levi-dominant only
            with pytest.raises(WeightError, match="distinct and frame-dominant"):
                frame.orbits(np.array(bad))

    def test_levi_frames_expand_no_orbits(self, levi_c3_gl3):
        # a Levi's orbits would silently come out as W-orbits
        with pytest.raises(TypeError, match="under W only"):
            _frame_for(levi_c3_gl3).orbits(np.array([[4, 2, 0], [2, 0, 0]]))
        with pytest.raises(TypeError, match="under W only"):
            weyl_character(levi_c3_gl3, Weight.of(1, 0, 0))


class TestSymmetrize:
    def test_zero_weight(self, gl3):
        m0 = symmetrize(gl3, Weight.zero(3))
        assert dict(m0) == {Weight.zero(3): 6}

    def test_stabiliser_coefficients(self, gl3):
        m = symmetrize(gl3, Weight.of(1, 0, 0))
        assert dict(m) == {Weight.of(1, 0, 0): 2, Weight.of(0, 1, 0): 2,
                           Weight.of(0, 0, 1): 2}

    def test_regular_orbit(self, c2):
        m = symmetrize(c2, Weight.of(2, 1))
        assert len(m) == 8 and all(c == 1 for _, c in m)

    def test_orbit_invariance(self, c2, rng):
        gamma = Weight.of(3, -1)
        for w in elements(weyl_group(c2)):
            assert symmetrize(c2, w.act(gamma)) == symmetrize(c2, gamma)


class TestAlternating:
    def test_trivial_levi(self, gl3):
        levi = build_levi(gl3, [])
        gamma = Weight.of(2, 0, 1)
        assert alternating_sum(levi, gamma) == poly_of({gamma: 1})

    def test_wall_cancellation(self, levi_gl3_21):
        # gamma fixed by the block reflection
        assert alternating_sum(levi_gl3_21, Weight.of(1, 1, 5)) == poly_of({})

    def test_two_term_block(self, levi_gl3_21):
        rho_bar = levi_gl3_21.rho_bar
        alt = alternating_sum(levi_gl3_21, rho_bar)
        assert dict(alt) == {rho_bar: 1, Weight((-1, 1, 0)): -1}

    def test_antisymmetry(self, levi_c3_gl3, rng):
        gamma = Weight.of(3, 1, -2)
        base = alternating_sum(levi_c3_gl3, gamma)
        for wbar in elements(levi_group(levi_c3_gl3)):
            assert alternating_sum(levi_c3_gl3, wbar.act(gamma)) == \
                poly_op(base, "*", element_sign(wbar))


class TestNabla:
    def test_empty(self, gl3):
        levi = build_levi(gl3, [])
        assert _as_dict(nabla_bar(levi)) == denominator_product(levi) == {(0, 0, 0): 1}

    def test_single_block(self, levi_gl3_21):
        alpha = Weight.of(1, -1, 0)
        expected = {(0, 0, 0): 1, tuple(alpha): -1}
        assert _as_dict(nabla_bar(levi_gl3_21)) == denominator_product(levi_gl3_21) == expected

    def test_sp12_term_count(self, levi_sp12):
        poly = nabla_bar(levi_sp12)
        assert len(poly) == 288
        assert poly.coefficient(Weight.zero(6)) == 1

    @pytest.mark.parametrize("fixture", [
        "levi_c3_gl3", "levi_b3_gl2_so3", "levi_d4_gl4", "levi_gl4_22"])
    def test_product_equals_alternating(self, fixture, request):
        # _rho_drops raises when the product and the signed rows disagree
        nabla_bar(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("family,rank", oracles.LEVI_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in oracles.LEVI_SYSTEMS])
    def test_denominator_identity_on_every_levi(self, family, rank):
        # prod over Rbar+ of (1 - e^alpha), multiplied out in a Counter,
        # against the signed rows build_m reads, on all 142 Levis of the systems
        datum = build_root_system(family, rank)
        for levi in oracles.every_levi(datum):
            product = denominator_product(levi)
            assert _as_dict(WeightPolynomial.from_rows(*_rho_drops(levi))) == product, \
                levi.sbar
            assert _as_dict(nabla_bar(levi)) == product

    def test_exactness_guard(self, levi_c3_gl3, monkeypatch, fresh_drops):
        # the first factor may double the coefficient 1 of e^0
        monkeypatch.setattr(kernels, "MAX_COUNT", 2)
        with pytest.raises(OverflowError,
                           match=r"coefficients up to 2 exceed the 2\^62 exactness guard"):
            _rho_drops(levi_c3_gl3)
