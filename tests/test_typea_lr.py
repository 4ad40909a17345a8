import itertools

import pytest

from levibranch import (Weight, branch_by_restriction, branch_multiplicity,
                        build_levi, build_root_system, lr_coefficient, multi_lr,
                        polarisation_branch, split_signed, weyl_character)
from levibranch.rootsys import RootSystemError, WeightError
from levibranch.typea_lr import (Partition, SignedSplit, lr_expand_pair,
                                 partitions_of)
from levibranch.weightpoly import decompose_character
from oracles import (as_weight, delta_shift_check, in_littlewood_stable_range,
                     join_signed, kostka_matrix, kostka_matrix_identity,
                     kostka_multiplicity, kostka_number, poly_op, standard_gl_blocks)

P = Partition


class TestPartition:
    def test_normalisation(self):
        assert P((3, 2, 0, 0)) == (3, 2)
        assert P().size == 0
        with pytest.raises(WeightError):
            P((1, 2))
        with pytest.raises(WeightError):
            P((2, -1))

    def test_conjugate(self):
        assert P((3, 1)).conjugate() == P((2, 1, 1))
        assert P((2, 2)).doubled() == P((4, 4))

    def test_as_weight(self):
        assert as_weight(P((2, 1)), 4) == Weight.of(2, 1, 0, 0)
        with pytest.raises(WeightError):
            as_weight(P((1, 1, 1)), 2)

    def test_partitions_of(self):
        assert [tuple(p) for p in partitions_of(4)] == [
            (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        assert all(len(p) <= 2 for p in partitions_of(6, max_len=2))


class TestLRCoefficient:
    def test_base_cases(self):
        assert lr_coefficient(P((1,)), P((1,)), P()) == 1
        assert lr_coefficient(P((2, 1)), P((1,)), P((1, 1))) == 1
        assert lr_coefficient(P((3, 2, 1)), P((2, 1)), P((2, 1))) == 2
        assert lr_coefficient(P((2,)), P((1,)), P((2,))) == 0  # size mismatch

    def test_symmetry_exhaustive(self):
        # c^lam_{mu nu} = c^lam_{nu mu} for all |lam| <= 8
        for total in range(1, 9):
            for lam in partitions_of(total):
                for k in range(total + 1):
                    for mu in partitions_of(k):
                        for nu in partitions_of(total - k):
                            assert lr_coefficient(lam, mu, nu) == \
                                lr_coefficient(lam, nu, mu)

    def test_against_character_product(self, rng):
        # independent oracle: multiply gl characters and strip highest weights
        cases = [(P((2, 1)), P((1, 1))), (P((2,)), P((2, 1))),
                 (P((1, 1)), P((1, 1))), (P((3, 1)), P((2,)))]
        for mu, nu in cases:
            n = mu.size + nu.size
            datum = build_root_system("GL", n)
            prod = poly_op(weyl_character(datum, as_weight(mu, n)), "*",
                           weyl_character(datum, as_weight(nu, n)))
            decomp = decompose_character(datum, prod)
            for lam, c in decomp.items():
                lam_parts = P(tuple(x // 2 for x in lam))
                assert lr_coefficient(lam_parts, mu, nu) == c
            for lam in partitions_of(n, max_len=n):
                w = as_weight(lam, n)
                assert lr_coefficient(lam, mu, nu) == decomp.get(w, 0)

    def test_pieri_rule(self):
        # multiplying by a one-row shape adds horizontal strips
        for mu in partitions_of(4):
            expansion = dict(lr_expand_pair(mu, P((2,))))
            for lam, c in expansion.items():
                assert c == 1
                diffs = [lam.part(i) - mu.part(i) for i in range(len(lam))]
                assert all(d >= 0 for d in diffs) and sum(diffs) == 2
                # horizontal strip condition
                assert all(lam.part(i + 1) <= mu.part(i) for i in range(len(lam)))


class TestMultiLR:
    def test_single_factor(self):
        assert multi_lr(P((2, 1)), [P((2, 1))]) == 1
        assert multi_lr(P((2, 1)), [P((3,))]) == 0

    def test_standard_tableaux(self):
        assert multi_lr(P((2, 1)), [P((1,))] * 3) == 2
        assert multi_lr(P((2, 2)), [P((1,))] * 4) == 2
        assert multi_lr(P((3, 1)), [P((1,))] * 4) == 3

    def test_factor_permutation_invariance(self, rng):
        pool = [p for n in range(1, 4) for p in partitions_of(n)]
        for _ in range(15):
            mus = [rng.choice(pool) for _ in range(3)]
            lam_candidates = partitions_of(sum(m.size for m in mus))
            lam = rng.choice(lam_candidates)
            base = multi_lr(lam, mus)
            for perm in itertools.permutations(mus):
                assert multi_lr(lam, list(perm)) == base


class TestKostka:
    def test_values(self):
        assert kostka_number(P((2, 1)), (1, 1, 1)) == 2
        assert kostka_number(P((2, 1)), (2, 1)) == 1
        assert kostka_number(P((1, 1)), (2,)) == 0

    def test_matches_freudenthal(self):
        for n in range(1, 6):
            datum = build_root_system("GL", n)
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert kostka_number(lam, tuple(mu)) == kostka_multiplicity(
                        datum, as_weight(lam, n), as_weight(mu, n))

    def test_inverse_examples(self):
        _, idx, _, inv = kostka_matrix(2)
        assert inv[idx[P((2,))]][idx[P((2,))]] == 1
        assert inv[idx[P((2,))]][idx[P((1, 1))]] == -1
        assert inv[idx[P((1, 1))]][idx[P((2,))]] == 0

    def test_identity_small(self):
        assert all(kostka_matrix_identity(n) for n in range(1, 7))


class TestSignedSplits:
    def test_examples(self):
        s = split_signed(Weight.of(3, 1, 0, -2))
        assert s.mu_plus == P((3, 1)) and s.mu_minus == P((2,))
        z = split_signed(Weight.zero(3))
        assert z.mu_plus == P() and z.mu_minus == P()

    def test_negate_reverse_swaps(self, rng):
        for _ in range(20):
            coords = sorted((rng.randint(-4, 4) for _ in range(4)), reverse=True)
            mu = Weight.of(*coords)
            nu = Weight.of(*[-c for c in reversed(coords)])
            s, t = split_signed(mu), split_signed(nu)
            assert (s.mu_plus, s.mu_minus) == (t.mu_minus, t.mu_plus)

    def test_join_roundtrip(self):
        s = SignedSplit(P((3, 1)), P((2,)))
        assert join_signed(s, 4) == Weight.of(3, 1, 0, -2)
        assert split_signed(join_signed(s, 5)) == s

    def test_unsorted_rejected(self):
        with pytest.raises(WeightError):
            split_signed(Weight.of(1, 2))


class TestDeltaShift:
    def test_zero_shift(self, levi_gl3_21):
        assert delta_shift_check(levi_gl3_21, Weight.of(1, 0, 0),
                                 Weight.of(1, 0, 0), 0)

    def test_example(self, levi_gl3_21):
        assert delta_shift_check(levi_gl3_21, Weight.of(1, 0, 0),
                                 Weight.of(1, 0, 0), 2)

    def test_random_gl4(self, levi_gl4_22, rng):
        for _ in range(20):
            lam = Weight.of(*sorted((rng.randint(-2, 3) for _ in range(4)),
                                    reverse=True))
            row = branch_by_restriction(levi_gl4_22, lam)
            mus = sorted(row) or [None]
            mu = rng.choice(mus)
            if mu is None:
                continue
            assert delta_shift_check(levi_gl4_22, lam, mu, rng.randint(0, 3))

    def test_non_gl_rejected(self, levi_c2_gl2):
        with pytest.raises(RootSystemError):
            delta_shift_check(levi_c2_gl2, Weight.of(1, 0), Weight.of(1, 0), 1)


def _schur_factorization_holds(levi, mu):
    """Branching from gl_n equals the iterated LR product of the block Schurs,
    for every partition lambda of |mu| with at most n parts."""
    n = levi.parent.rank
    pieces = [P(mu[i - 1] // 2 for i in block) for block in standard_gl_blocks(levi)]
    return all(branch_multiplicity(levi, as_weight(lam, n), mu) == multi_lr(lam, pieces)
               for lam in partitions_of(sum(p.size for p in pieces), max_len=n))


class TestSchurFactorization:
    def test_gl2_split(self, gl2):
        levi = build_levi(gl2, [])
        mu = Weight.of(1, 1)
        assert branch_multiplicity(levi, Weight.of(2, 0), mu) == 1
        assert branch_multiplicity(levi, Weight.of(1, 1), mu) == 1
        assert _schur_factorization_holds(levi, mu)

    def test_gl3_pieri(self, levi_gl3_21):
        mu = Weight.of(1, 1, 1)
        assert branch_multiplicity(levi_gl3_21, Weight.of(1, 1, 1), mu) == 1
        assert branch_multiplicity(levi_gl3_21, Weight.of(2, 1, 0), mu) == 1
        assert _schur_factorization_holds(levi_gl3_21, mu)

    def test_gl4_example(self, levi_gl4_22):
        assert _schur_factorization_holds(levi_gl4_22, Weight.of(2, 1, 1, 1))


class TestPolarisation:
    def test_minimal_degree_is_plain_lr(self, rng):
        # |lam| = |mu+| + |mu-| forces the second factor empty
        for fam, n in (("B", 3), ("C", 3), ("D", 4)):
            for _ in range(10):
                plus = rng.choice(partitions_of(rng.randint(0, 2), max_len=1))
                minus = rng.choice(partitions_of(rng.randint(0, 2), max_len=1))
                if len(plus) + len(minus) > n:
                    continue
                mu = join_signed(SignedSplit(plus, minus), n)
                for lam in partitions_of(plus.size + minus.size, max_len=n):
                    assert polarisation_branch(fam, n, mu, lam) == \
                        lr_coefficient(lam, plus, minus)

    def test_small_size_vanishes(self):
        mu = Weight.of(1, 0, -1)
        assert polarisation_branch("C", 3, mu, P((1,))) == 0

    def test_b2_examples(self):
        assert polarisation_branch("B", 2, Weight.of(1, 0), P((1,))) == 1
        assert polarisation_branch("B", 2, Weight.of(0, 0), P((1,))) == 1
        assert polarisation_branch("B", 2, Weight.of(1, 0), P()) == 0

    @pytest.mark.parametrize("family,n", [("B", 2), ("C", 2), ("D", 3)])
    def test_against_oracle_stable_range(self, family, n):
        datum = build_root_system(family, n)
        levi = build_levi(datum, list(range(1, n)))
        mus = set()
        for pp in range(3):
            for pm in range(3 - pp):
                for p1 in partitions_of(pp, max_len=n):
                    for p2 in partitions_of(pm, max_len=n):
                        if len(p1) + len(p2) <= n:
                            mus.add(join_signed(SignedSplit(p1, p2), n))
        for size in range(n + 1):
            for lam in partitions_of(size, max_len=n):
                row = branch_by_restriction(levi, as_weight(lam, n))
                for mu in sorted(mus):
                    got = polarisation_branch(family, n, mu, lam)
                    want = row.get(mu, 0)
                    if in_littlewood_stable_range(family, n, lam):
                        assert got == want, (family, lam, mu)

    def test_d_full_length_is_out_of_range(self):
        assert not in_littlewood_stable_range("D", 3, P((1, 1, 1)))
        assert in_littlewood_stable_range("B", 2, P((1, 1)))
        assert not in_littlewood_stable_range("C", 2, P((2, 1)))  # size 3 > 2


def product_expand(mus) -> dict:
    """Full Schur expansion of a product of Schur functions (no target bound)."""
    acc = {P(): 1}
    for m in mus:
        nxt: dict = {}
        for shape, c in acc.items():
            for kappa, c2 in lr_expand_pair(shape, P(m)):
                nxt[kappa] = nxt.get(kappa, 0) + c * c2
        acc = nxt
    return acc


class TestRajanDistinctness:
    def test_multisets_determined_by_product(self):
        # multisets of at most 3 positive partitions, each of size <= 6:
        # the full Schur expansion of the product separates them
        pool = [p for n in range(1, 7) for p in partitions_of(n)]
        seen = {}
        count = 0
        for r in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(pool, r):
                key = tuple(sorted(map(tuple, product_expand(combo).items())))
                assert key not in seen or seen[key] == combo, combo
                seen[key] = combo
                count += 1
        assert count == 4959
