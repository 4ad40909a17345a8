import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import oracles

from levibranch import (Weight, branch_by_restriction, branch_multiplicity,
                        branch_row, build_levi, build_root_system, build_m,
                        dominant_box, dominant_representative, leading_term)
from levibranch import branching, kernels, weightpoly, weylgrp
from levibranch.branching import default_lambda_box, m_terms
from levibranch.equivalence import search_box
from levibranch.rootsys import WeightError, chamber_cone_mask
from levibranch.weightpoly import _rho_drops, dominants_below
from levibranch.weylgrp import levi_group
from oracles import element_sign, elements, is_identity, poly_op, symmetrize


class TestBranchMultiplicity:
    def test_trivial(self, levi_c3_gl3):
        assert branch_multiplicity(levi_c3_gl3, Weight.zero(3), Weight.zero(3)) == 1

    def test_gl3_vector_rep(self, levi_gl3_21):
        lam = Weight.of(1, 0, 0)
        expected = {Weight.of(1, 0, 0): 1, Weight.of(0, 0, 1): 1}
        mus = [Weight.of(*m) for m in
               itertools.product(range(-1, 2), repeat=3)]
        for mu in mus:
            if levi_gl3_21.is_dominant(mu):
                assert branch_multiplicity(levi_gl3_21, lam, mu) == \
                    expected.get(mu, 0)

    def test_c2_defining_rep(self, levi_c2_gl2):
        lam = Weight.of(1, 0)
        assert branch_multiplicity(levi_c2_gl2, lam, Weight.of(1, 0)) == 1
        assert branch_multiplicity(levi_c2_gl2, lam, Weight.of(0, -1)) == 1
        assert branch_multiplicity(levi_c2_gl2, lam, Weight.of(1, 1)) == 0
        assert branch_by_restriction(levi_c2_gl2, lam) == {
            Weight.of(1, 0): 1, Weight.of(0, -1): 1}

    def test_lattice_class_mismatch(self, levi_b3_gl2_so3):
        assert branch_multiplicity(
            levi_b3_gl2_so3, Weight.of(1, 0, 0), Weight((1, 1, 1))) == 0

    def test_requires_dominant_inputs(self, levi_c2_gl2):
        with pytest.raises(WeightError):
            branch_multiplicity(levi_c2_gl2, Weight.of(0, 1), Weight.zero(2))
        with pytest.raises(WeightError):
            branch_multiplicity(levi_c2_gl2, Weight.of(1, 0), Weight.of(0, 1))


class TestRestrictionOracle:
    def test_trivial(self, levi_c3_gl3):
        assert branch_by_restriction(levi_c3_gl3, Weight.zero(3)) == {
            Weight.zero(3): 1}

    def test_c3_defining(self, levi_c3_gl3):
        row = branch_by_restriction(levi_c3_gl3, Weight.of(1, 0, 0))
        assert row == {Weight.of(1, 0, 0): 1, Weight.of(0, 0, -1): 1}

    def test_b2_vector(self, levi_b2_gl2):
        row = branch_by_restriction(levi_b2_gl2, Weight.of(1, 0))
        assert row == {Weight.of(1, 0): 1, Weight.of(0, -1): 1,
                       Weight.zero(2): 1}

    @pytest.mark.parametrize("fixture,lam", [
        ("levi_c2_gl2", (2, 1)), ("levi_b2_gl2", (2, 2)),
        ("levi_c3_gl3", (1, 1, 1)), ("levi_gl4_22", (2, 1, 1, 0)),
        ("levi_b3_gl2_so3", (1, 1, 0)), ("levi_d4_gl4", (1, 1, 1, 1)),
    ])
    def test_oracle_equals_weyl_sum(self, fixture, lam, request):
        levi = request.getfixturevalue(fixture)
        lam = Weight.of(*lam)
        row = branch_by_restriction(levi, lam)
        for mu, m in row.items():
            assert branch_multiplicity(levi, lam, mu) == m
        # spot-check zeros just outside the support
        for mu in row:
            probe = mu + levi.parent.highest_root + levi.parent.highest_root
            if levi.is_dominant(probe) and probe not in row:
                assert branch_multiplicity(levi, lam, probe) == 0

    def test_spin_restriction(self, levi_b3_gl2_so3, b3):
        spin = Weight((1, 1, 1))
        row = branch_by_restriction(levi_b3_gl2_so3, spin)
        assert sum(row.values()) >= 1
        for mu, m in row.items():
            assert branch_multiplicity(levi_b3_gl2_so3, spin, mu) == m

    def test_support_condition(self, levi_c3_gl3):
        # nonzero entries only when lam - mu is a sum of positive roots
        lam = Weight.of(2, 1, 0)
        datum = levi_c3_gl3.parent
        for mu in branch_by_restriction(levi_c3_gl3, lam):
            assert datum.dominance_leq(mu, lam)


class TestBranchRow:
    def test_default_box(self, levi_gl3_21):
        mu = Weight.of(1, 0, 0)
        row = branch_row(levi_gl3_21, mu, k=1)
        assert row.box
        assert all(m >= 0 for m in row.entries.values())
        assert row.entries.get(Weight.of(1, 0, 0)) == 1
        text = row.to_csv()
        assert text.splitlines()[0] == "lam1,lam2,lam3,multiplicity"

    @pytest.mark.parametrize("family", ["GL", "B", "C", "D"])
    def test_lambda_box_matches_dominants_below(self, family):
        # the dominant weights below dom(mu + k theta), cut by both cone
        # masks; the box's grid top - c.S, 0 <= c <= d, needs neither mask,
        # since its simple-root coordinates are c below top and d - c above mu
        for n in range(1 if family in ("B", "C") else 2, 6):
            datum = build_root_system(family, n)
            levi = build_levi(datum, [1])
            units = [Weight.of(*(int(i == j) for i in range(n))) for j in range(n)]
            mus = [Weight.zero(n), units[0], units[0] - units[-1]] + units[1:2]
            if family in ("B", "D"):  # spin weights
                mus += [Weight([1] * n), Weight([3] + [-1] * (n - 1))]
            for k in range(4):
                for mu in mus:
                    top = mu + k * datum.highest_root
                    _, anchor = dominant_representative(datum, top)
                    cands = dominants_below(datum, anchor)
                    rows = np.array(cands, dtype=np.int64)
                    keep = (chamber_cone_mask(family, rows - np.array(mu))
                            & chamber_cone_mask(family, np.array(top) - rows))
                    want = tuple(lam for lam, ok in zip(cands, keep) if ok)
                    assert default_lambda_box(levi, mu, k) == want, (n, mu, k)

    def test_row_against_oracle(self, levi_c2_gl2):
        mu = Weight.of(1, 0)
        row = branch_row(levi_c2_gl2, mu, k=2)
        for lam in row.box:
            assert row.entries[lam] == branch_by_restriction(
                levi_c2_gl2, lam).get(mu, 0)


def _sweep_mus(levi, per_class: int = 2) -> list:
    """A few Levi-dominant weights of bound 1, from each lattice class
    (spin weights on B and D), spread over the sorted box."""
    box = dominant_box(levi, 1)
    out = []
    for integral in (True, False):
        pool = [mu for mu in box if mu.is_integral() == integral]
        out += pool[::max(1, len(pool) // per_class)][:per_class]
    return out


def _signed_rows(args, eps) -> list:
    """The arguments with their signs, as a sorted list of tuples."""
    return sorted(map(tuple, np.column_stack((args, eps)).tolist()))


class TestWeylSumSearch:
    @pytest.mark.parametrize("family,rank", oracles.LEVI_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in oracles.LEVI_SYSTEMS])
    def test_survivors_match_weyl_sum_over_w(self, family, rank):
        # the pruned search against the masked sum over all of W, on every
        # proper Levi, default boxes with k = 1 and 2: the same arguments
        # with the same signs for each lambda, and the same multiplicities.
        # In D, lam + rho ends in 0 whenever lam does, and the equal images
        # of the two signs there must count once
        datum = build_root_system(family, rank)
        for levi in oracles.every_levi(datum):
            if len(levi.sbar) == len(datum.simple_roots):
                continue
            for mu in _sweep_mus(levi):
                target = np.array(mu + datum.rho, dtype=np.int64)
                for k in (1, 2):
                    box = default_lambda_box(levi, mu, k)
                    row = branch_row(levi, mu, k)
                    vs = np.array([lam + datum.rho for lam in box],
                                  dtype=np.int64).reshape(-1, rank)
                    who, args, eps = branching._alternation_set(datum, vs, target)
                    for i, lam in enumerate(box):
                        want_args, want_eps, want = oracles.weyl_sum_over_w(levi, lam, mu)
                        assert (_signed_rows(args[who == i], eps[who == i])
                                == _signed_rows(want_args, want_eps)), (levi.sbar, mu, lam)
                        assert row.entries[lam] == want, (levi.sbar, mu, lam)
                        assert branch_multiplicity(levi, lam, mu) == want

    def test_rows_never_enumerate_w(self, monkeypatch):
        """Rows and single multiplicities come from the search and one
        partition table: no Weyl group of g and no orbit images."""
        cases = []
        for family, rank, sbar, mu in (("GL", 4, (1, 3), Weight.of(1, 0, 1, -1)),
                                       ("B", 3, (1, 3), Weight((-1, -1, 3))),
                                       ("C", 4, (1, 2, 4), Weight.of(1, 0, 0, 1)),
                                       ("D", 5, (1, 2, 4, 5), Weight.of(1, 0, 0, 0, 0))):
            levi = build_levi(build_root_system(family, rank), sbar)
            want = {lam: oracles.weyl_sum_over_w(levi, lam, mu)[2]
                    for lam in default_lambda_box(levi, mu, 2)}
            assert any(want.values())
            cases.append((levi, mu, want))

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a Weyl group orbit")

        for module in (weylgrp, weightpoly):
            monkeypatch.setattr(module, "weyl_group", refuse)
        monkeypatch.setattr(kernels, "orbit_images", refuse)
        for levi, mu, want in cases:
            assert branch_row(levi, mu, 2).entries == want, levi.describe()
            for lam, m in want.items():
                assert branch_multiplicity(levi, lam, mu) == m

    def test_row_over_the_guard_searches_lambda_by_lambda(self, monkeypatch):
        # the C3 row's four lambdas enter the search together, and each
        # makes at most 3 partial elements at a position
        levi = build_levi(build_root_system("C", 3), (1, 2))
        mu = Weight.of(1, 0, 0)
        want = branch_row(levi, mu, 1).entries
        monkeypatch.setattr(weylgrp, "DEFAULT_GROUP_GUARD", 3)
        assert branch_row(levi, mu, 1).entries == want
        monkeypatch.setattr(weylgrp, "DEFAULT_GROUP_GUARD", 2)
        with pytest.raises(weylgrp.GroupSizeError,
                           match=r"Weyl-sum search in W\(C3\), position 3\| = 3 exceeds"):
            branch_row(levi, mu, 1)

    def test_row_over_the_table_limit_counts_lambda_by_lambda(self, monkeypatch):
        # the row's one table has 8 cells, each lambda's own at most 4: at a
        # limit of 4 the row is unchanged, at 3 it fails as one lambda does
        levi = build_levi(build_root_system("GL", 4), (1, 3))
        mu = Weight.of(1, 0, 1, -1)
        want = branch_row(levi, mu, 1).entries
        assert want == {Weight.of(1, 1, 0, -1): 1, Weight.of(1, 1, 1, -2): 1,
                        Weight.of(2, 0, 0, -1): 1}
        monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 4)
        assert branch_row(levi, mu, 1).entries == want
        monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 3)
        with pytest.raises(kernels.BudgetError, match="needs 4 cells > limit 3"):
            branch_row(levi, mu, 1)

    def test_negative_total_is_refused(self, monkeypatch, levi_c2_gl2):
        # with every sign flipped, the row's nonzero totals turn negative
        search = branching._alternation_set

        def flipped(*args):
            who, rows, eps = search(*args)
            return who, rows, -eps

        monkeypatch.setattr(branching, "_alternation_set", flipped)
        with pytest.raises(WeightError, match="negative branching multiplicity"):
            branch_row(levi_c2_gl2, Weight.of(1, 0), 2)


class TestMFunction:
    def test_empty_levi_m_is_orbit_sum(self, gl3):
        levi = build_levi(gl3, [])
        for mu in (Weight.zero(3), Weight.of(2, -1, 0)):
            fn = build_m(levi, mu)
            assert fn.poly() == symmetrize(gl3, mu)

    def test_dual_check_rejects_a_wrong_m(self, levi_b3_gl2_so3):
        levi = levi_b3_gl2_so3
        for mu in (Weight.of(2, 0, 1), Weight((3, -1, 1))):  # integral and spin
            fn = build_m(levi, mu)
            rows = np.array([w for w, _ in fn.coeffs], dtype=np.int64)
            sums = np.array([c for _, c in fn.coeffs], dtype=np.int64)
            # the unbucketed signed images the check compares against
            dom = kernels.dominant_rows(np.array(mu, dtype=np.int64) + _rho_drops(levi)[0],
                                        kernels.FAMILY_CODE["B"])

            def check(r, c):
                branching._check_buckets(levi, [mu], dom, r, c, np.zeros(len(r), np.int64))

            check(rows, sums)
            for bad_rows, bad_sums in ((rows, sums + 1), (rows[1:], sums[1:]),
                                       (rows, -sums), (rows + 2, sums)):
                with pytest.raises(WeightError, match="disagree"):
                    check(bad_rows, bad_sums)

    def test_rem_ce_pair_differs(self, levi_gl6_42):
        mu = Weight.of(5, 2, 2, 1, 4, 3)
        nu = Weight.of(5, 4, 3, 1, 2, 2)
        assert build_m(levi_gl6_42, mu).coeffs != build_m(levi_gl6_42, nu).coeffs

    def test_automorphism_invariance(self, levi_sp12, rng):
        from levibranch import diagram_automorphisms
        autos = elements(diagram_automorphisms(levi_sp12))
        assert len(autos) == 2
        for _ in range(5):
            a = sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True)
            b = sorted((rng.randint(0, 4) for _ in range(3)), reverse=True)
            mu = Weight.of(*a, *b)
            base = build_m(levi_sp12, mu)
            for u in autos:
                assert build_m(levi_sp12, u.act(mu)).coeffs == base.coeffs

    def test_orbit_filter_is_necessary(self, levi_c2_gl2):
        # equal M-functions only within a Weyl orbit (checked by brute force)
        from levibranch.equivalence import dominant_box
        datum = levi_c2_gl2.parent
        box = dominant_box(levi_c2_gl2, 2)
        fns = {mu: build_m(levi_c2_gl2, mu) for mu in box}
        for mu, nu in itertools.combinations(box, 2):
            if fns[mu].coeffs == fns[nu].coeffs:
                assert dominant_representative(datum, mu)[1] == \
                    dominant_representative(datum, nu)[1]
                assert leading_term(levi_c2_gl2, mu)[0] == \
                    leading_term(levi_c2_gl2, nu)[0]

    def test_coefficients_in_weight_order(self, levi_gl6_42, levi_b3_gl2_so3):
        # build_m keeps signed_bucket's key order, which is the Weight order
        for levi, mu in ((levi_gl6_42, Weight.of(5, 2, 2, 1, 4, 3)),
                         (levi_b3_gl2_so3, Weight((-1, -3, 5)))):
            support = [w for w, _ in build_m(levi, mu).coeffs]
            assert len(support) > 1 and support == sorted(set(support))

    def test_poly_matches_term_by_term_sum(self, levi_c3_gl3):
        # independent expansion: signed sum of orbit sums over the Levi group
        mu = Weight.of(2, 0, -1)
        fn = build_m(levi_c3_gl3, mu)
        datum = levi_c3_gl3.parent
        total = None
        for wbar in elements(levi_group(levi_c3_gl3)):
            gamma = mu + levi_c3_gl3.rho_bar - wbar.act(levi_c3_gl3.rho_bar)
            piece = poly_op(symmetrize(datum, gamma), "*", element_sign(wbar))
            total = piece if total is None else poly_op(total, "+", piece)
        assert fn.poly() == total

    def test_poly_budget_counts_distinct_orbit_points(self, levi_c3_gl3, monkeypatch):
        # mu = 0 has terms with zero coordinates, whose W-stabilisers are nontrivial
        fn = build_m(levi_c3_gl3, Weight.zero(3))
        datum = levi_c3_gl3.parent
        points = sum(len(symmetrize(datum, lam)) for lam, _ in fn.coeffs)
        assert points < datum.weyl_order() * len(fn.coeffs)
        full = fn.poly()
        for chunk in (weightpoly.ORBIT_CHUNK_ROWS, 1):  # one batch, then an orbit a chunk
            monkeypatch.setattr(weightpoly, "ORBIT_CHUNK_ROWS", chunk)
            for budget in (points, datum.weyl_order() * len(fn.coeffs) - 1):
                monkeypatch.setattr(branching, "DEFAULT_EXPAND_BUDGET", budget)
                assert fn.poly() == full
            monkeypatch.setattr(branching, "DEFAULT_EXPAND_BUDGET", points - 1)
            with pytest.raises(weightpoly.BudgetError, match=f"budget of {points - 1} "):
                fn.poly()

    def test_poly_coefficients_guarded(self, levi_b3_gl2_so3):
        # a |W| / |W 0| = 48 a at the zero weight, exact only below 2^62
        zero = Weight.zero(3)
        for a, fits in ((2**62 // 48, True), (2**62 // 48 + 1, False)):
            fn = branching.MFunction(levi_b3_gl2_so3, zero, ((zero, a),))
            if fits:
                assert dict(fn.poly()) == {zero: 48 * a}
            else:
                with pytest.raises(OverflowError, match="exactness guard"):
                    fn.poly()


def _oracle_coeffs(levi, mu):
    rows, sums = oracles.dual_m_construction(levi, mu)
    return tuple(zip(map(Weight, rows.tolist()), sums.tolist()))


def _terms_coeffs(terms):
    return [tuple(zip(map(Weight, rows.tolist()), sums.tolist())) for rows, sums, _ in terms]


def _far(levi, mus):
    """The FAR_FROM_WALLS flags ``m_terms`` hands out with the terms of ``mus``."""
    return [far for _, _, far in m_terms(levi, mus, [leading_term(levi, mu)[0] for mu in mus])]


class TestMAgainstDualOracle:
    """``build_m`` and the batched builds against the |Wbar|^2 dual construction."""

    @pytest.mark.parametrize("family,rank", oracles.LEVI_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in oracles.LEVI_SYSTEMS])
    def test_every_proper_levi_at_bound_1(self, family, rank, monkeypatch):
        # integral and spin weights; single builds, one batch over the whole
        # box, and the batches the scan makes
        datum = build_root_system(family, rank)
        code = kernels.FAMILY_CODE[family]
        for levi in oracles.every_levi(datum):
            if len(levi.sbar) == len(datum.simple_roots):
                continue
            box = dominant_box(levi, 1)
            want = [_oracle_coeffs(levi, mu) for mu in box]
            assert [build_m(levi, mu).coeffs for mu in box] == want, levi.describe()
            tops = kernels.dominant_rows(np.array(box, dtype=np.int64)
                                         + np.array(levi.two_rho_bar, dtype=np.int64), code)
            terms = list(m_terms(levi, box, tops))
            assert _terms_coeffs(terms) == want, levi.describe()
            # the FAR_FROM_WALLS flags the scan reads off the same images,
            # as one batch and one weight at a time (``classify_pair``)
            assert [far for _, _, far in terms] == [_far(levi, [mu])[0] for mu in box]
            batches = []
            real = branching._m_batch
            monkeypatch.setattr(branching, "_m_batch", lambda levi, mus, *rest: batches.append(
                (mus, real(levi, mus, *rest))) or batches[-1][1])
            search_box(levi, 1)
            monkeypatch.undo()
            for mus, terms in batches:
                assert _terms_coeffs(terms) == [want[box.index(mu)] for mu in mus]

    def test_sp12_gl3_sp6(self, levi_sp12, monkeypatch):
        mus = [Weight.of(1, 0, 0, 1, 0, 0), Weight.of(2, 1, 0, 1, 1, 0),
               Weight.of(0, 0, -1, 2, 1, 1), Weight.of(1, 1, 1, 0, 0, 0),
               Weight.of(2, 2, 2, 1, 1, 1)]
        want = [_oracle_coeffs(levi_sp12, mu) for mu in mus]
        assert [build_m(levi_sp12, mu).coeffs for mu in mus] == want
        tops = [leading_term(levi_sp12, mu)[0] for mu in mus]
        assert _terms_coeffs(m_terms(levi_sp12, mus, tops)) == want
        # batches of two weights and a last one of one (|Wbar| = 288)
        monkeypatch.setattr(branching, "M_BATCH_ROWS", 2 * 288)
        assert _terms_coeffs(m_terms(levi_sp12, mus, tops)) == want

    def test_rank_7_batch(self):
        # a batch's rows pack at rank 7, as a single build's do: doubled
        # coordinates up to 80 lie past the rank-8 range of 64
        levi = build_levi(build_root_system("GL", 7), (1, 2, 3))
        mus = [Weight.of(40, 35, 30, 20, 10, 5, 0), Weight.of(40, 35, 30, 20, 10, 0, 5)]
        tops = [leading_term(levi, mu)[0] for mu in mus]
        assert _terms_coeffs(m_terms(levi, mus, tops)) == [build_m(levi, mu).coeffs
                                                            for mu in mus]

    def test_product_terms_accumulate_across_chunks(self, levi_b3_gl2_so3):
        for mu in (Weight.of(2, 0, 1), Weight((3, -1, 1))):
            rows, sums = oracles.dual_m_construction(levi_b3_gl2_so3, mu)
            small = oracles.dual_m_construction(levi_b3_gl2_so3, mu, chunk_rows=5)
            assert np.array_equal(small[0], rows) and np.array_equal(small[1], sums)


def _group_with(levi, keep=None, flip=None):
    """The Levi group's arrays with only the rows ``keep`` and ``eps[flip]`` negated."""
    perm, sign, eps = levi_group(levi).arrays
    keep = np.arange(len(eps)) if keep is None else np.array(keep)
    eps = eps[keep].copy()
    if flip is not None:
        eps[flip] = -eps[flip]
    return SimpleNamespace(arrays=(perm[keep], sign[keep], eps))


class TestChecksCatchFaults:
    """Faults a monkeypatch can inject; each must make ``build_m`` raise."""

    B3 = build_levi(build_root_system("B", 3), [1, 3])
    MU = Weight.of(2, 0, 1)

    def test_eps_flipped_on_one_row(self, monkeypatch, fresh_drops):
        monkeypatch.setattr(weightpoly, "levi_group", lambda levi: _group_with(levi, flip=1))
        with pytest.raises(WeightError, match="denominator"):
            build_m(self.B3, self.MU)

    def test_wrong_levi_generator(self, monkeypatch, fresh_drops):
        # gl2+gl2+gl1 on the blocks of the simple roots 1 and 4 instead of 1 and 3:
        # same order
        levi = build_levi(build_root_system("GL", 5), [1, 3])
        wrong = build_levi(levi.parent, [1, 4]).blocks
        monkeypatch.setattr(weightpoly, "levi_group",
                            lambda levi: weylgrp._block_group(levi.parent.rank, wrong))
        with pytest.raises(WeightError, match="denominator"):
            build_m(levi, Weight.of(3, 1, 2, 0, 0))

    def test_one_round_closure(self, monkeypatch, fresh_drops):
        # the identity and the generators only
        levi = build_levi(build_root_system("C", 3), [1, 2])
        gens = {oracles.reflection(a) for a in levi.sbar_roots}
        keep = [i for i, w in enumerate(elements(levi_group(levi)))
                if is_identity(w) or w in gens]
        monkeypatch.setattr(weightpoly, "levi_group", lambda levi: _group_with(levi, keep))
        with pytest.raises(WeightError, match="denominator"):
            build_m(levi, Weight.of(1, 0, -1))

    def test_corrupted_rho_drops(self, monkeypatch, fresh_drops):
        def orbit_images(perm, sign, vec):
            img = kernels.orbit_images(perm, sign, vec)
            img[1] *= 2
            return img

        monkeypatch.setattr(weightpoly, "kernels",
                            SimpleNamespace(**{**vars(kernels), "orbit_images": orbit_images}))
        with pytest.raises(WeightError, match="denominator"):
            build_m(self.B3, self.MU)

    def test_dominant_rows_without_the_d_sign_flip(self, monkeypatch):
        real = kernels.dominant_rows
        monkeypatch.setattr(kernels, "dominant_rows",
                            lambda rows, code: real(rows, 1 if code == 2 else code))
        levi = build_levi(build_root_system("D", 4), [1, 2, 3])
        with pytest.raises(WeightError, match="W-invariants"):
            build_m(levi, Weight.of(-1, -1, -1, -1))
        # the scan reads its leading terms from the same faulty kernel
        with pytest.raises(WeightError, match="W-invariants"):
            search_box(build_levi(build_root_system("D", 5), [1, 2, 4, 5]), 1)

    def test_misordered_bucket_keys(self, monkeypatch):
        def pack_rows(rows):  # coordinate 0 least significant
            return real(np.ascontiguousarray(np.asarray(rows)[:, ::-1]))

        real = kernels.pack_rows
        monkeypatch.setattr(kernels, "pack_rows", pack_rows)
        with pytest.raises(WeightError, match="strictly increasing"):
            build_m(self.B3, Weight.of(-2, -2, 0))

    def test_signed_bucket_dropping_a_row(self, monkeypatch):
        real = branching.signed_bucket
        monkeypatch.setattr(branching, "signed_bucket",
                            lambda rows, coeffs, ids: real(rows[1:], coeffs[1:], ids[1:]))
        for mu in (self.MU, Weight((3, -1, 1))):
            with pytest.raises(WeightError, match="disagree"):
                build_m(self.B3, mu)


def _m_coefficient(levi, lam, mu):
    """The orbit-sum coefficient of M_mu at the W-orbit of ``lam``."""
    _, dom_lam = dominant_representative(levi.parent, lam)
    return dict(build_m(levi, mu).coeffs).get(dom_lam, 0)


class TestACoefficient:
    def test_diagonal_is_one(self, levi_c3_gl3, rng):
        for _ in range(10):
            mu = Weight.of(*sorted((rng.randint(-3, 3) for _ in range(3)),
                                   reverse=True))
            assert _m_coefficient(levi_c3_gl3, mu, mu) == 1

    def test_gl3_zero_weight_values(self, levi_gl3_21):
        mu = Weight.zero(3)
        assert _m_coefficient(levi_gl3_21, mu, mu) == 1
        assert _m_coefficient(levi_gl3_21, Weight.of(1, -1, 0), mu) == -1
        assert _m_coefficient(levi_gl3_21, Weight.of(2, 0, -2), mu) == 0

    def test_vanishes_off_the_e_set_orbits(self, levi_c2_gl2):
        mu = Weight.of(2, 1)
        orbits = {dominant_representative(levi_c2_gl2.parent, g)[1]
                  for g in oracles.e_set(levi_c2_gl2, mu)}
        probe = Weight.of(9, 0)
        assert probe not in orbits
        assert _m_coefficient(levi_c2_gl2, probe, mu) == 0


class TestLeadingTerm:
    def test_trivial(self, gl3):
        levi = build_levi(gl3, [])
        assert leading_term(levi, Weight.zero(3)) == (Weight.zero(3), 1)

    def test_gl6_example(self, levi_gl6_42):
        mu = Weight.of(5, 2, 2, 1, 4, 3)
        assert mu + levi_gl6_42.two_rho_bar == Weight.of(8, 3, 1, -2, 5, 2)
        lam, sign = leading_term(levi_gl6_42, mu)
        assert lam == Weight.of(8, 5, 3, 2, 1, -2)
        assert sign == -1

    def test_sign_parity(self, levi_c3_gl3, levi_gl4_22):
        assert leading_term(levi_c3_gl3, Weight.zero(3))[1] == \
            (-1) ** len(levi_c3_gl3.rbar_plus)
        assert leading_term(levi_gl4_22, Weight.zero(4))[1] == 1  # two roots

    def test_all_other_terms_below(self, levi_c2_gl2, rng):
        datum = levi_c2_gl2.parent
        for _ in range(15):
            a = rng.randint(-4, 4)
            mu = Weight.of(max(a, a + rng.randint(0, 3)), a)
            lam, sign = leading_term(levi_c2_gl2, mu)
            poly = build_m(levi_c2_gl2, mu).poly()
            for w, _ in poly:
                if w != lam:
                    assert datum.dominance_leq(w, lam) and w != lam


def _e_set(levi, mu):
    """The E-set from the signed rows ``m_terms`` reads."""
    drops, _ = _rho_drops(levi)
    return [Weight(row) for row in (np.array(mu, dtype=np.int64) + drops).tolist()]


class TestESets:
    def test_empty_levi(self, gl3):
        levi = build_levi(gl3, [])
        mu = Weight.of(3, 1, 0)
        assert _e_set(levi, mu) == [mu]
        assert _far(levi, [mu]) == [True]

    def test_cardinality_always_group_order(self, levi_c3_gl3, rng):
        for _ in range(8):
            mu = Weight.of(*sorted((rng.randint(-3, 3) for _ in range(3)),
                                   reverse=True))
            members = _e_set(levi_c3_gl3, mu)
            assert len(members) == len(levi_group(levi_c3_gl3))
            assert len(set(members)) == len(members)
            assert set(members) == set(oracles.e_set(levi_c3_gl3, mu))

    def test_gl3_example(self, levi_gl3_21):
        mu = Weight.of(5, 1, 0)
        assert set(_e_set(levi_gl3_21, mu)) == {Weight.of(5, 1, 0),
                                                Weight.of(6, 0, 0)}
        assert _far(levi_gl3_21, [mu]) == [True]

    def test_far_from_walls_matches_exhaustive(self, levi_c2_gl2, levi_gl4_22,
                                               levi_b3_gl2_so3, levi_c3_gl3,
                                               levi_d4_gl4):
        # oracle: scan every Weyl element for a chamber containing the E-set
        from levibranch import weyl_group
        seen = set()
        for levi, bound in ((levi_c2_gl2, 3), (levi_gl4_22, 3), (levi_b3_gl2_so3, 3),
                            (levi_c3_gl3, 3), (levi_d4_gl4, 2)):
            datum = levi.parent
            group = list(elements(weyl_group(datum)))
            box = dominant_box(levi, bound)  # spin weights on B and D
            for mu, far in zip(box, _far(levi, box)):
                members = oracles.e_set(levi, mu)
                oracle = any(all(datum.is_dominant(w.act(g)) for g in members)
                             for w in group)
                assert far == oracle, (levi.describe(), mu)
                seen.add((oracle, mu.is_integral()))
        # both outcomes occur, on integral and on spin weights
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("family,rank", oracles.LEVI_SYSTEMS,
                             ids=[f"{f}{n}" for f, n in oracles.LEVI_SYSTEMS])
    def test_far_from_walls_matches_coset_search(self, family, rank):
        # the summed deviations of the E-set images (``_far_flags``) against
        # a search of the whole stabiliser coset of w1, on every proper Levi
        # at bound 1 (7,709 weights over the systems), one batch per Levi
        datum = build_root_system(family, rank)
        for levi in oracles.every_levi(datum):
            if len(levi.sbar) == len(datum.simple_roots):
                continue
            box = dominant_box(levi, 1)
            assert _far(levi, box) == [
                oracles.far_from_walls_by_cosets(levi, mu) for mu in box], levi.describe()

    def test_far_from_walls_in_small_batches(self, monkeypatch, levi_c3_gl3):
        # many batches, some of one weight and the last one ragged
        box = dominant_box(levi_c3_gl3, 2)
        whole = _far(levi_c3_gl3, box)
        assert any(whole) and not all(whole)
        for rows in (6, 6 * 5 + 1):
            monkeypatch.setattr(branching, "M_BATCH_ROWS", rows)
            assert _far(levi_c3_gl3, box) == whole


@pytest.mark.parametrize("family,ranks", [
    ("GL", range(1, 10)), ("B", range(1, 10)), ("C", range(1, 10)), ("D", range(2, 10))],
    ids=["GL", "B", "C", "D"])
def test_invariance_elements_match_reflection_loop(family, ranks):
    # w0 and the Coxeter element sorted from images of rho, against the
    # elements composed from simple reflections
    for rank in ranks:
        datum = build_root_system(family, rank)
        perm, sign = branching._invariance_elements(datum)
        assert list(zip(map(tuple, perm.tolist()), map(tuple, sign.tolist()))) == [
            (w.perm, w.signs) for w in oracles.invariance_elements_by_reflections(datum)]
