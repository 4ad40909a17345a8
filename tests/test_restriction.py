"""The restriction oracle against its reference routes (``oracles``).

``branch_by_restriction`` expands the character of g once and decomposes
it on the Levi frame by Klimyk's formula: one signed sort of its terms,
with no Levi character.  These tests hold the decomposition of Levi
characters against Freudenthal's recursion in the Levi frame, the
symmetry check against orbits expanded one at a time, and the decomposition of
restricted characters, single and summed, against whole characters
stripped off the whole multiset; they also pin the checks that guard the
decomposition and the shape of the route.
"""

import functools
import itertools
import re

import numpy as np
import pytest

import oracles

from levibranch import (Weight, branch_by_restriction, build_levi, build_root_system,
                        weyl_character)
from levibranch import weightpoly
from levibranch.rootsys import WeightError
from levibranch.weightpoly import _frame_for, decompose_character, dominant_multiplicities

BLOCK_SYSTEMS = ([("GL", n) for n in range(2, 7)] + [("B", n) for n in range(2, 6)]
                 + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 6)])
ORBIT_SYSTEMS = ([("GL", n) for n in range(1, 7)] + [("B", n) for n in range(1, 6)]
                 + [("C", n) for n in range(1, 6)] + [("D", n) for n in range(2, 6)])
SUM_SYSTEMS = ([("GL", n) for n in range(2, 5)] + [("B", n) for n in range(2, 4)]
               + [("C", n) for n in range(2, 4)] + [("D", n) for n in range(3, 5)])
STRIP_SYSTEMS = ([("GL", n) for n in range(2, 5)] + [("B", n) for n in range(1, 5)]
                 + [("C", n) for n in range(1, 5)] + [("D", n) for n in range(2, 5)])
# the restriction oracle's tops in the benchmark's expand workload, doubled
EXPAND_TOPS = [("D", 5, (1, 2, 4, 5), (4, 4, 2, 2, 0)), ("C", 4, (1, 2, 4), (8, 4, 2, 0)),
               ("B", 3, (1, 3), (10, 6, 2))]


def _ids(systems):
    return [f"{f}{n}" for f, n in systems]


def _proper_levis(datum):
    return list(oracles.every_levi(datum))[:-1]


def _box(family, n, values, spin_values):
    """Lattice rows with doubled coordinates in ``values``, and all-odd rows
    in ``spin_values`` where the family has spin weights."""
    rows = list(itertools.product(values, repeat=n))
    if family in ("B", "D"):
        rows += itertools.product(spin_values, repeat=n)
    return np.array(rows, dtype=np.int64)


def _dominant(owner, rows):
    return [Weight(r) for r in rows[(_frame_for(owner).dominant(rows) == rows).all(axis=1)]
            .tolist()]


class TestBlockProduct:
    """A Levi irreducible is the outer tensor product of its factor blocks'
    irreducibles.  Its character, from Freudenthal's recursion in the Levi
    frame (``oracles.character_by_orbits``), must decompose to itself alone
    by Klimyk's formula on the Levi frame.  The box holds spin tops,
    negative last coordinates (which a ``flip`` block negates) and the tops
    of D2 tails."""

    @pytest.mark.parametrize("family,rank", BLOCK_SYSTEMS, ids=_ids(BLOCK_SYSTEMS))
    def test_matches_levi_frame_freudenthal(self, family, rank):
        datum = build_root_system(family, rank)
        box = _box(family, rank, (-2, 0, 2), (-1, 1))
        for levi in _proper_levis(datum):
            for lam in _dominant(levi, box):
                char = oracles.character_by_orbits(levi, lam)
                assert decompose_character(levi, char) == {lam: 1}, (levi.sbar, lam)

    def test_mutating_a_result_leaves_the_next_call_unchanged(self, c3):
        lam = Weight.of(2, 1, 0)
        first = dominant_multiplicities(c3, lam)
        want = dict(first)
        first[lam] = 2
        first.clear()
        assert dominant_multiplicities(c3, lam) == want

    def test_levi_has_no_multiplicities(self, levi_c3_gl3):
        with pytest.raises(TypeError, match="under W only"):
            dominant_multiplicities(levi_c3_gl3, Weight.of(2, 1, 0))


class TestReflectionSymmetry:
    """``decompose_character`` checks symmetry under each simple reflection
    of the frame.  Sums of full orbits (``oracles.orbit_rows``) with random
    coefficients pass; one point dropped, one coefficient changed or one
    foreign point added fails, naming a simple root of the frame.  g and
    every Levi, so ``flip`` blocks, zeros and spin rows are included.  An
    orbit sum need not be a sum of characters, so the one error it may meet
    is the last check, a negative multiplicity; a sum of two characters
    (``oracles.character_by_orbits``) decomposes to its coefficients."""

    @pytest.mark.parametrize("family,rank", ORBIT_SYSTEMS, ids=_ids(ORBIT_SYSTEMS))
    def test_orbit_sums_pass_and_broken_sums_fail(self, family, rank):
        datum = build_root_system(family, rank)
        rng = np.random.default_rng(300 + rank)
        for owner in [datum, *oracles.every_levi(datum)]:
            frame = _frame_for(owner)
            simple = set(map(Weight, frame.simple_roots.tolist()))
            rows = 2 * rng.integers(-2, 3, size=(8, rank))
            if family in ("B", "D"):  # spin rows
                rows = np.concatenate([rows, 2 * rng.integers(-2, 2, size=(4, rank)) + 1])
            doms = np.unique(frame.dominant(rows), axis=0)
            orbits = [oracles.orbit_rows(owner, Weight(nu)) for nu in doms.tolist()]
            terms = {Weight(x): c for orbit, c in zip(orbits, rng.integers(1, 4, len(orbits)))
                     for x in orbit.tolist()}
            try:
                decompose_character(owner, oracles.poly_of(terms))
            except WeightError as e:
                assert str(e).startswith("negative multiplicity"), owner
            tops = {Weight(nu): int(c) for nu, c in zip(doms[-2:].tolist(), rng.integers(1, 4, 2))}
            chars = [oracles.poly_op(oracles.character_by_orbits(owner, nu), "*", c)
                     for nu, c in tops.items()]
            assert decompose_character(owner, functools.reduce(
                lambda p, q: oracles.poly_op(p, "+", q), chars)) == tops, owner
            moved = [x for orbit in orbits if len(orbit) > 1 for x in map(Weight, orbit.tolist())]
            foreign = [x for x in map(Weight, (2 * rng.integers(-3, 4, size=(8, rank))).tolist())
                       if x not in terms and len(oracles.orbit_rows(owner, x)) > 1]
            broken = []
            if moved:
                x = moved[rng.integers(len(moved))]
                broken += [{w: c for w, c in terms.items() if w != x}, {**terms, x: terms[x] + 1}]
            if foreign:
                broken.append({**terms, foreign[0]: 1})
            for case in broken:
                with pytest.raises(WeightError, match="not symmetric") as info:
                    decompose_character(owner, oracles.poly_of(case))
                root = re.search(r"reflection in \((\S+)\) maps", str(info.value)).group(1)
                assert Weight.parse(root) in simple, (owner, str(info.value))


def _restricted(levi_c3_gl3):
    """The terms of the C3 character of (1,1,0), and one term off the
    Levi-dominant chamber."""
    terms = dict(weyl_character(levi_c3_gl3.parent, Weight.of(1, 1, 0)))
    off = next(w for w in terms if not levi_c3_gl3.is_dominant(w))
    return terms, off


class TestStripping:
    @pytest.mark.parametrize("family,rank", STRIP_SYSTEMS, ids=_ids(STRIP_SYSTEMS))
    def test_matches_full_stripping(self, family, rank):
        datum = build_root_system(family, rank)
        lams = _dominant(datum, _box(family, rank, (-2, 0, 2), (-1, 1)))
        for levi in _proper_levis(datum):
            for lam in lams:
                want = oracles.strip_full_character(levi, weyl_character(datum, lam))
                got = branch_by_restriction(levi, lam)
                assert got == want and list(got) == list(want), (levi.sbar, lam)

    @pytest.mark.parametrize("family,rank,sbar,lam", EXPAND_TOPS,
                             ids=[f"{f}{n}" for f, n, _, _ in EXPAND_TOPS])
    def test_matches_full_stripping_at_expand_tops(self, family, rank, sbar, lam):
        datum = build_root_system(family, rank)
        levi, lam = build_levi(datum, sbar), Weight(lam)
        got = branch_by_restriction(levi, lam)
        want = oracles.strip_full_character(levi, weyl_character(datum, lam))
        assert got == want and list(got) == list(want)

    def test_missing_orbit_point(self, levi_c3_gl3):
        terms, off = _restricted(levi_c3_gl3)
        del terms[off]
        with pytest.raises(WeightError,
                           match=r"not symmetric: the reflection in \(0,1,-1\) maps the term "
                                 r"1\*e\^\(-1,0,-1\) to \(-1,-1,0\), whose coefficient is 0$"):
            decompose_character(levi_c3_gl3, oracles.poly_of(terms))

    def test_wrong_coefficient_off_the_dominant_chamber(self, levi_c3_gl3):
        terms, off = _restricted(levi_c3_gl3)
        terms[off] += 1
        with pytest.raises(WeightError,
                           match=r"not symmetric: the reflection in \(0,1,-1\) maps the term "
                                 r"2\*e\^\(-1,-1,0\) to \(-1,0,-1\), whose coefficient is 1$"):
            decompose_character(levi_c3_gl3, oracles.poly_of(terms))

    def test_extra_term(self, levi_c3_gl3):
        terms, _ = _restricted(levi_c3_gl3)
        extra = Weight.of(0, 0, 3)
        assert extra not in terms and not levi_c3_gl3.is_dominant(extra)
        terms[extra] = 1
        with pytest.raises(WeightError,
                           match=r"not symmetric: the reflection in \(0,1,-1\) maps the term "
                                 r"1\*e\^\(0,0,3\) to \(0,3,0\), whose coefficient is 0$"):
            decompose_character(levi_c3_gl3, oracles.poly_of(terms))

    def test_dimension_check(self, levi_c3_gl3, monkeypatch):
        """One wrong Klimyk sign, or one wrong dimension, fails the global
        check against the Weyl dimension formula."""
        char = weyl_character(levi_c3_gl3.parent, Weight.of(2, 1, 0))
        bucket = weightpoly.signed_bucket

        def one_sign_flipped(rows, coeffs):
            coeffs = np.array(coeffs)
            coeffs[0] *= -1
            return bucket(rows, coeffs)

        with monkeypatch.context() as patch:
            patch.setattr(weightpoly, "signed_bucket", one_sign_flipped)
            with pytest.raises(WeightError, match="dimension formula"):
                decompose_character(levi_c3_gl3, char)
        top = max(decompose_character(levi_c3_gl3, char))
        exact = weightpoly._Frame.weyl_dim
        monkeypatch.setattr(weightpoly._Frame, "weyl_dim",
                            lambda frame, mu: exact(frame, mu) + (mu == top))
        with pytest.raises(WeightError, match="dimension formula"):
            decompose_character(levi_c3_gl3, char)


class TestMultisets:
    """Multisets other than one restricted character: sums of two, and a
    difference that is no character."""

    @pytest.mark.parametrize("family,rank", SUM_SYSTEMS, ids=_ids(SUM_SYSTEMS))
    def test_sums_match_full_stripping(self, family, rank):
        datum = build_root_system(family, rank)
        lams = _dominant(datum, _box(family, rank, (0, 2), (-1, 1)))
        pairs = list(zip(lams, lams[1:] + lams[:1]))
        chars = [oracles.poly_op(weyl_character(datum, a), "+", weyl_character(datum, b))
                 for a, b in pairs]
        for levi in _proper_levis(datum):
            for (a, b), char in zip(pairs, chars):
                want = oracles.strip_full_character(levi, char)
                got = decompose_character(levi, char)
                assert got == want and list(got) == list(want), (levi.sbar, a, b)

    def test_difference_of_characters(self, c3):
        """chi_(2,0,0) - chi_(1,1,0) is symmetric and nonnegative, and its
        coefficient at (1,1,0) is 0: only a sum over every term finds the -1
        there, on g and on gl3.  On gl1+gl1+sp2 it is a character."""
        poly = oracles.poly_op(weyl_character(c3, Weight.of(2, 0, 0)), "-",
                               weyl_character(c3, Weight.of(1, 1, 0)))
        assert (poly._coeffs > 0).all() and poly.coefficient(Weight.of(1, 1, 0)) == 0
        for owner in (c3, build_levi(c3, (1, 2))):
            with pytest.raises(WeightError, match=r"negative multiplicity -1 at \(1,1,0\)"):
                decompose_character(owner, poly)
        levi = build_levi(c3, (3,))
        got = decompose_character(levi, poly)
        assert sorted(got.values()) == [1] * 5 and got == oracles.strip_full_character(levi, poly)


def test_restriction_expands_g_once_and_recurses_on_root_systems(monkeypatch):
    """One ``_Frame.orbits`` call, for the character of g; Freudenthal's
    search (``dominants_below``) only for that character, never for a Levi
    or a factor block."""
    expanded, searched = [], []
    orbits, below = weightpoly._Frame.orbits, weightpoly.dominants_below

    def counted_orbits(frame, *args, **kwargs):
        expanded.append(frame.owner)
        return orbits(frame, *args, **kwargs)

    def counted_below(owner, top):
        searched.append(owner)
        return below(owner, top)

    monkeypatch.setattr(weightpoly._Frame, "orbits", counted_orbits)
    monkeypatch.setattr(weightpoly, "dominants_below", counted_below)
    levi = build_levi(build_root_system("D", 5), (1, 2, 4, 5))
    assert branch_by_restriction(levi, Weight.of(2, 1, 1, 0, 0))
    assert expanded == [levi.parent]
    assert searched == [levi.parent]
