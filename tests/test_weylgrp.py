import itertools

import numpy as np
import pytest

import oracles
from levibranch import (Weight, build_levi, build_root_system,
                        diagram_automorphisms, dominant_representative,
                        kernels, transversal, weightpoly, weyl_group, weylgrp)
from levibranch.equivalence import dominant_box
from levibranch.weylgrp import GroupSizeError, levi_group, stabilizer_subgroup
from oracles import (compose, coset_decompose, element_sign, elements, identity,
                     is_identity, reflection, straighten)


def dot_act(datum, w, beta):
    """The dot action w . beta = w(beta + rho) - rho."""
    return w.act(beta + datum.rho) - datum.rho


class TestElements:
    def test_action_convention_matches_reflections(self, c2):
        s_short = reflection(Weight.of(1, -1))
        assert s_short.act(Weight.of(3, 1)) == Weight.of(1, 3)
        s_sum = reflection(Weight.of(1, 1))
        assert s_sum.act(Weight.of(3, 1)) == Weight.of(-1, -3)
        s_long = reflection(Weight.of(2, 0))
        assert s_long.act(Weight.of(3, 1)) == Weight.of(-3, 1)

    def test_compose_inverse_sign(self, rng):
        n = 4
        elems = list(elements(weyl_group(build_root_system("C", n))))
        for _ in range(100):
            w1, w2 = rng.choice(elems), rng.choice(elems)
            beta = Weight.of(*(rng.randint(-5, 5) for _ in range(n)))
            assert compose(w1, w2).act(beta) == w1.act(w2.act(beta))
            assert element_sign(w1) * element_sign(w2) == element_sign(compose(w1, w2))
            inv = next(g for g in elems if is_identity(compose(g, w1)))
            assert is_identity(compose(w1, inv)) and element_sign(inv) == element_sign(w1)
            assert inv.act(w1.act(beta)) == beta

    def test_action_preserves_pairing(self, rng, d4):
        elems = list(elements(weyl_group(d4)))
        for _ in range(60):
            w = rng.choice(elems)
            b = Weight.of(*(rng.randint(-4, 4) for _ in range(4)))
            g = Weight.of(*(rng.randint(-4, 4) for _ in range(4)))
            assert w.act(b).dot4(w.act(g)) == b.dot4(g)


class TestEnumeration:
    def test_orders(self, gl3, c3, d4):
        assert len(weyl_group(gl3)) == 6
        assert len(weyl_group(c3)) == 48
        assert len(weyl_group(d4)) == 192

    def test_gl_signs_are_permutation_signs(self, gl3):
        group = weyl_group(gl3)
        for w, eps in zip(elements(group), group.eps):
            assert all(s == 1 for s in w.signs)
            assert eps == element_sign(w)

    def test_each_element_once_and_deterministic(self, c2):
        group = weyl_group(c2)
        fresh = weylgrp._block_group.__wrapped__(2, ((0, 2, "C", False),))  # past the cache
        run1 = list(zip(elements(group), group.eps.tolist()))
        run2 = list(zip(elements(fresh), fresh.eps.tolist()))
        assert run1 == run2
        assert len({w for w, _ in run1}) == 8

    def test_d_family_even_sign_flips(self, d4):
        for w in elements(weyl_group(d4)):
            assert w.signs.count(-1) % 2 == 0

    def test_guard(self):
        with pytest.raises(GroupSizeError) as err:
            weyl_group(build_root_system("C", 8))
        assert err.value.size == 10_321_920

    @pytest.mark.parametrize("family,ranks", [("GL", range(1, 8)), ("B", range(1, 7)),
                                              ("C", range(1, 7)), ("D", range(2, 7))],
                             ids=["GL", "B", "C", "D"])
    def test_block_product_in_lexsort_order(self, family, ranks):
        # unsorted, the block product is in element order on every Levi, and
        # on a product of two signed blocks, which no Levi has
        cases = [(rank, levi.blocks) for rank in ranks
                 for levi in oracles.every_levi(build_root_system(family, rank))]
        if family != "GL":
            cases.append((5, ((0, 2, family, False), (2, 5, family, False))))
        for rank, blocks in cases:
            group = weylgrp._block_group.__wrapped__(rank, blocks)
            order = np.lexsort(np.hstack((group.perm, group.sign < 0)).T[::-1])
            assert (order == np.arange(len(group))).all(), blocks

    def test_no_rank_limit(self):
        # no element key bounds the rank of a block group
        levi = build_levi(build_root_system("GL", 17), [1, 16])
        assert levi_group(levi).perm.tolist() == [
            list(range(17)), list(range(15)) + [16, 15],
            [1, 0] + list(range(2, 17)), [1, 0] + list(range(2, 15)) + [16, 15]]


class TestActions:
    def test_dot_act_identity(self, c3):
        w = identity(3)
        beta = Weight.of(2, -1, 3)
        assert dot_act(c3, w, beta) == beta

    def test_dot_act_gl3_example(self, gl3):
        s = reflection(gl3.simple_roots[0])
        assert dot_act(gl3, s, Weight.zero(3)) == Weight.of(-1, 1, 0)

    @pytest.mark.parametrize("family,rank", [("GL", 3), ("B", 2), ("C", 2)])
    def test_rho_has_trivial_stabiliser(self, family, rank):
        datum = build_root_system(family, rank)
        for w in elements(weyl_group(datum)):
            if not is_identity(w):
                assert w.act(datum.rho) != datum.rho


class TestDominantRepresentative:
    def test_fixed_points(self, c3):
        beta = Weight.of(4, 2, 0)
        w, lam = dominant_representative(c3, beta)
        assert lam == beta and w.act(beta) == beta

    def test_gl6_example(self, gl6):
        beta = Weight.of(8, 5, 2, -2, 3, 1)
        w, lam = dominant_representative(gl6, beta)
        assert lam == Weight.of(8, 5, 3, 2, 1, -2)
        assert w.act(beta) == lam

    def test_c2_example(self, c2):
        w, lam = dominant_representative(c2, Weight.of(-1, -3))
        assert lam == Weight.of(3, 1)
        assert w.act(Weight.of(-1, -3)) == lam

    @pytest.mark.parametrize("family,rank", [
        ("GL", 4), ("B", 3), ("C", 3), ("D", 4)])
    def test_unique_dominant_orbit_point(self, family, rank, rng):
        datum = build_root_system(family, rank)
        group = list(elements(weyl_group(datum)))
        for _ in range(25):
            beta = Weight.of(*(rng.randint(-4, 4) for _ in range(rank)))
            w, lam = dominant_representative(datum, beta)
            assert datum.is_dominant(lam)
            assert w.act(beta) == lam
            orbit_doms = {g.act(beta) for g in group if datum.is_dominant(g.act(beta))}
            assert orbit_doms == {lam}


class TestStraighten:
    def test_dominant_passthrough(self, c3):
        beta = Weight.of(3, 1, 0)
        assert straighten(c3, beta) == (1, beta)

    def test_gl2_wall(self, gl2):
        assert straighten(gl2, Weight.of(0, 1)) is None

    def test_gl2_example(self, gl2):
        assert straighten(gl2, Weight.of(-1, 2)) == (-1, Weight.of(1, 0))

    def test_consistent_with_characters(self, c2, rng):
        # straightened labels agree with the alternating numerator symmetry
        for _ in range(12):
            beta = Weight.of(rng.randint(-3, 4), rng.randint(-3, 4))
            res = straighten(c2, beta)
            if res is None:
                continue
            sign, lam = res
            assert c2.is_dominant(lam)
            # the dot orbit of lam must contain beta
            found = any(dot_act(c2, w, lam) == beta for w in elements(weyl_group(c2)))
            assert found


class TestCosets:
    def test_levi_members_decompose_trivially(self, levi_c3_gl3):
        for wbar in elements(levi_group(levi_c3_gl3)):
            u, w2 = coset_decompose(levi_c3_gl3, wbar)
            assert is_identity(u) and w2 == wbar

    def test_transversal_members_decompose_trivially(self, levi_c3_gl3):
        for u in elements(transversal(levi_c3_gl3)):
            uu, wbar = coset_decompose(levi_c3_gl3, u)
            assert uu == u and is_identity(wbar)

    def test_bijection_c3(self, c3, levi_c3_gl3):
        pairs = {}
        for w in elements(weyl_group(c3)):
            u, wbar = coset_decompose(levi_c3_gl3, w)
            assert compose(u, wbar) == w
            pairs[w] = (u, wbar)
        assert len(set(pairs.values())) == 48
        us = {u for u, _ in pairs.values()}
        assert us == set(elements(transversal(levi_c3_gl3)))

    def test_transversal_sizes(self, gl3, levi_gl3_21, levi_sp12):
        full = build_levi(gl3, [1, 2])
        assert [is_identity(u) for u in elements(transversal(full))] == [True]
        assert len(transversal(levi_gl3_21)) == 3
        assert len(transversal(levi_sp12)) == 160

    def test_d_tail_is_cut_one_position_early(self, monkeypatch):
        # D4 {3,4}: z_3 > |z_4| is tested at position 3, so no position
        # holds more than |W(D4)| / |Wbar| = 48 partial elements
        levi = build_levi(build_root_system("D", 4), (3, 4))
        want = oracles.transversal_by_filter(levi)
        monkeypatch.setattr(weylgrp, "DEFAULT_GROUP_GUARD", 48)
        got = transversal(levi)
        assert np.array_equal(got.perm, want.perm) and np.array_equal(got.sign, want.sign)

    def test_transversal_definition(self, levi_b3_gl2_so3, b3):
        pos = set(b3.positive_roots)
        for u in elements(transversal(levi_b3_gl2_so3)):
            for a in levi_b3_gl2_so3.rbar_plus:
                assert u.act(a) in pos


class TestDiagramAutomorphisms:
    def test_unequal_blocks_trivial(self, levi_gl6_42):
        autos = elements(diagram_automorphisms(levi_gl6_42))
        assert len(autos) == 1 and is_identity(autos[0])

    def test_equal_blocks_swap(self, levi_gl4_22):
        autos = elements(diagram_automorphisms(levi_gl4_22))
        assert len(autos) == 2
        swap = autos[1]
        assert swap.act(Weight.of(4, 3, 2, 1)) == Weight.of(2, 1, 4, 3)

    def test_sp12_negating_reversal(self, levi_sp12):
        autos = elements(diagram_automorphisms(levi_sp12))
        assert len(autos) == 2
        u = autos[1]
        # e_i -> -e_{4-i} on the gl3 block, identity on the sp6 block
        assert u.act(Weight.of(1, 2, 3, 4, 5, 6)) == Weight.of(-3, -2, -1, 4, 5, 6)

    def test_subgroup_and_rho_fixed(self, levi_gl4_22, levi_sp12):
        for levi in (levi_gl4_22, levi_sp12):
            autos = elements(diagram_automorphisms(levi))
            rbar = set(levi.rbar_plus)
            for u in autos:
                assert u.act(levi.rho_bar) == levi.rho_bar
                assert {u.act(a) for a in levi.rbar_plus} == rbar
            for a, b in itertools.product(autos, repeat=2):
                assert compose(a, b) in set(autos)


class TestTransversalTheorems:
    @pytest.mark.parametrize("fixture", ["levi_c3_gl3", "levi_b3_gl2_so3"])
    def test_dominant_union_over_box(self, fixture, request):
        levi = request.getfixturevalue(fixture)
        datum = levi.parent
        n = datum.rank
        us = list(elements(transversal(levi)))
        box = [Weight.of(*coords) for coords in
               itertools.product(range(-3, 4), repeat=n)]
        if datum.family in ("B", "D"):
            box += [Weight(tuple(2 * c + 1 for c in coords)) for coords in
                    itertools.product(range(-3, 3), repeat=n)]
        for beta in box:
            in_levi_dominant = levi.is_dominant(beta)
            in_union = any(datum.is_dominant(u.act(beta)) for u in us)
            assert in_levi_dominant == in_union

    def test_rbar_as_intersection(self, levi_c3_gl3):
        datum = levi_c3_gl3.parent
        us = list(elements(transversal(levi_c3_gl3)))
        pos = set(datum.positive_roots)
        allroots = list(pos) + [-a for a in pos]
        inter = [a for a in allroots if all(u.act(a) in pos for u in us)]
        assert set(inter) == set(levi_c3_gl3.rbar_plus)

    @pytest.mark.parametrize("fixture", ["levi_c3_gl3", "levi_gl4_22", "levi_sp12"])
    def test_rho_bar_fixed_iff_rbar_preserved(self, fixture, request):
        levi = request.getfixturevalue(fixture)
        rbar = set(levi.rbar_plus)
        for u in elements(transversal(levi)):
            fixes = u.act(levi.rho_bar) == levi.rho_bar
            preserves = all(u.act(a) in rbar for a in levi.rbar_plus)
            assert fixes == preserves

    def test_moved_rho_bar_never_below(self, levi_c3_gl3):
        # u(rho_bar) != rho_bar implies u(rho_bar) is not below rho_bar
        datum = levi_c3_gl3.parent
        for u in elements(transversal(levi_c3_gl3)):
            img = u.act(levi_c3_gl3.rho_bar)
            if img != levi_c3_gl3.rho_bar:
                below = datum.dominance_leq(img, levi_c3_gl3.rho_bar)
                assert not below

    def test_transversal_preserves_levi_order(self, levi_c3_gl3, rng):
        levi = levi_c3_gl3
        datum = levi.parent
        us = list(elements(transversal(levi)))
        for _ in range(40):
            gamma = Weight.of(*(rng.randint(-3, 3) for _ in range(3)))
            coeffs = [rng.randint(0, 2) for _ in levi.rbar_plus]
            delta = Weight.zero(3)
            for c, a in zip(coeffs, levi.rbar_plus):
                delta = delta + c * a
            upper = gamma + delta
            for u in us:
                assert datum.dominance_leq(u.act(gamma), u.act(upper))

    def test_transversal_preserves_non_dominance(self, levi_c3_gl3, rng):
        levi = levi_c3_gl3
        datum = levi.parent
        us = list(elements(transversal(levi)))
        count = 0
        while count < 40:
            gamma = Weight.of(*(rng.randint(-3, 3) for _ in range(3)))
            if levi.is_dominant(gamma):
                continue
            count += 1
            for u in us:
                assert not datum.is_dominant(u.act(gamma))


class TestStabilizer:
    def test_orders(self, c2):
        assert len(stabilizer_subgroup(c2, Weight.of(2, 1))) == 1
        assert len(stabilizer_subgroup(c2, Weight.of(2, 0))) == 2
        assert len(stabilizer_subgroup(c2, Weight.zero(2))) == 8

    def test_members_fix(self, b3):
        lam = Weight.of(2, 2, 0)
        for w in elements(stabilizer_subgroup(b3, lam)):
            assert w.act(lam) == lam


# -- the array builders against the object-by-object routes -----------------

ORACLE_FAMILIES = [("GL", range(1, 6)), ("B", range(1, 6)), ("C", range(1, 6)),
                   ("D", range(3, 6))]


def _all_levis(family, ranks):
    for rank in ranks:
        yield from oracles.every_levi(build_root_system(family, rank))


def _assert_group_matches(group, ref):
    perm, sign, eps = group.arrays
    for arr in (perm, sign, eps):
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
    assert perm.tolist() == [list(w.perm) for w in ref]
    assert sign.tolist() == [list(w.signs) for w in ref]
    assert eps.tolist() == [element_sign(w) for w in ref]
    assert elements(group) == ref


def _assert_levi_matches(levi):
    _assert_group_matches(levi_group(levi), oracles.levi_elements(levi))
    assert elements(transversal(levi)) == oracles.transversal_elements(levi)
    assert elements(diagram_automorphisms(levi)) == oracles.automorphism_elements(levi)


class TestAgainstObjectOracles:
    @pytest.mark.parametrize("family,ranks", ORACLE_FAMILIES,
                             ids=[f for f, _ in ORACLE_FAMILIES])
    def test_weyl_groups(self, family, ranks):
        for rank in ranks:
            datum = build_root_system(family, rank)
            _assert_group_matches(weyl_group(datum), oracles.weyl_elements(datum))

    @pytest.mark.parametrize("family,ranks", ORACLE_FAMILIES,
                             ids=[f for f, _ in ORACLE_FAMILIES])
    def test_every_levi(self, family, ranks):
        for levi in _all_levis(family, ranks):
            _assert_levi_matches(levi)

    def test_sp12(self, levi_sp12):
        _assert_levi_matches(levi_sp12)

    @pytest.mark.parametrize("family,ranks", oracles.GROUP_SYSTEMS,
                             ids=[f for f, _ in oracles.GROUP_SYSTEMS])
    def test_automorphisms_match_the_transversal_filter(self, family, ranks):
        # the stabiliser of rho_bar against a filter of all of W, order included
        for levi in _all_levis(family, ranks):
            assert (elements(diagram_automorphisms(levi))
                    == oracles.automorphisms_by_transversal(levi))

    @pytest.mark.parametrize("family,ranks", oracles.GROUP_SYSTEMS,
                             ids=[f for f, _ in oracles.GROUP_SYSTEMS])
    def test_transversal_matches_the_filter(self, family, ranks):
        # the coset search against a filter of all of W: perm, sign, eps,
        # dtype and row order
        for levi in _all_levis(family, ranks):
            got, ref = transversal(levi), oracles.transversal_by_filter(levi)
            for a, b in zip(got.arrays, ref.arrays):
                assert a.dtype == b.dtype and np.array_equal(a, b), levi.sbar

    def test_transversal_never_enumerates_w(self, monkeypatch):
        """The coset search builds no Weyl group of g and no orbit images:
        D's ``flip`` block (D4 {1,2,4}), a D tail, a B spin tail and C6."""
        cases = []
        for family, rank, sbar in (("D", 4, (1, 2, 4)), ("D", 5, (1, 2, 4, 5)),
                                   ("B", 3, (1, 3)), ("C", 6, (1, 2, 4, 5, 6))):
            levi = build_levi(build_root_system(family, rank), sbar)
            cases.append((levi, oracles.transversal_by_filter(levi)))

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a Weyl group orbit")

        for module in (weylgrp, weightpoly):
            monkeypatch.setattr(module, "weyl_group", refuse)
        monkeypatch.setattr(kernels, "orbit_images", refuse)
        for levi, ref in cases:
            got = transversal(levi)
            for a, b in zip(got.arrays, ref.arrays):
                assert np.array_equal(a, b), levi.describe()

    @pytest.mark.parametrize("family,ranks", oracles.GROUP_SYSTEMS,
                             ids=[f for f, _ in oracles.GROUP_SYSTEMS])
    def test_levi_cone_mask_on_the_transversal(self, family, ranks):
        # on the transversal the cone test with Sbar keeps exactly the
        # automorphisms; the cone of g alone would keep every row
        for levi in _all_levis(family, ranks):
            trans, autos = transversal(levi), diagram_automorphisms(levi)
            keep = weylgrp._levi_cone_mask(levi, trans.perm, trans.sign, levi.sbar_roots)
            assert np.array_equal(trans.perm[keep], autos.perm), levi.sbar
            assert np.array_equal(trans.sign[keep], autos.sign), levi.sbar

    @pytest.mark.parametrize("family,rank,bound", [
        ("GL", 4, 2), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2)])
    def test_stabilizers(self, family, rank, bound):
        datum = build_root_system(family, rank)
        full = build_levi(datum, range(1, len(datum.simple_roots) + 1))
        weights = dominant_box(full, bound)  # spin weights on B and D
        assert any(not lam.is_integral() for lam in weights) == (family in ("B", "D"))
        for lam in weights:
            _assert_group_matches(stabilizer_subgroup(datum, lam),
                                  oracles.stabilizer_elements(datum, lam))
