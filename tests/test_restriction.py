"""The restriction oracle against its reference routes (``oracles``).

``branch_by_restriction`` expands the character of g once and strips Levi
characters off its dominant terms, with each Levi character's dominant
multiplicities a product over the Levi's factor blocks.  These tests hold
the block product against Freudenthal's recursion in the Levi frame, the
orbit sizes against orbits expanded one at a time, and the stripping
against whole characters stripped off the whole multiset; they also pin
the checks that guard the stripping and the shape of the route.
"""

import itertools

import numpy as np
import pytest

import oracles

from levibranch import (Weight, WeightPolynomial, branch_by_restriction, build_levi,
                        build_root_system, weyl_character)
from levibranch import weightpoly
from levibranch.rootsys import RootDatum, WeightError
from levibranch.weightpoly import _frame_for, decompose_character, dominant_multiplicities

BLOCK_SYSTEMS = ([("GL", n) for n in range(2, 7)] + [("B", n) for n in range(2, 6)]
                 + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 6)])
ORBIT_SYSTEMS = ([("GL", n) for n in range(1, 7)] + [("B", n) for n in range(1, 6)]
                 + [("C", n) for n in range(1, 6)] + [("D", n) for n in range(2, 6)])
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
    """A Levi's dominant multiplicities, the product of its factor blocks',
    against Freudenthal's recursion on the Levi-cone search in the Levi
    frame.  The box holds spin tops, negative last coordinates (which a
    ``flip`` block negates) and the tops of D2 tails."""

    @pytest.mark.parametrize("family,rank", BLOCK_SYSTEMS, ids=_ids(BLOCK_SYSTEMS))
    def test_matches_levi_frame_freudenthal(self, family, rank):
        datum = build_root_system(family, rank)
        box = _box(family, rank, (-2, 0, 2), (-1, 1))
        for levi in _proper_levis(datum):
            for lam in _dominant(levi, box):
                want = oracles.levi_dominant_multiplicities(levi, lam)
                assert dict(dominant_multiplicities(levi, lam)) == want, (levi.sbar, lam)

    def test_gl_blocks_share_one_entry_per_central_shift(self):
        # the gl2 block of each top is (2,0) up to a central shift, spin included
        levi = build_levi(build_root_system("B", 3), (1,))
        weightpoly._block_multiplicities.cache_clear()
        for top in [(4, 2, 0), (2, 0, 2), (6, 4, -2), (3, 1, 1), (-1, -3, 1)]:
            weightpoly._levi_multiplicities(levi, Weight(top))
        assert weightpoly._block_multiplicities.cache_info().currsize == 1

    def test_cached_entries_are_read_only(self, c3, levi_c3_gl3):
        for owner in (c3, levi_c3_gl3):
            mult = dominant_multiplicities(owner, Weight.of(2, 1, 0))
            with pytest.raises(TypeError):
                mult[Weight.of(2, 1, 0)] = 2
        rows, counts = weightpoly._block_multiplicities("GL", 3, (4, 2, 0))
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        with pytest.raises(ValueError):
            counts[0] = 0


class TestOrbitSizes:
    @pytest.mark.parametrize("family,rank", ORBIT_SYSTEMS, ids=_ids(ORBIT_SYSTEMS))
    def test_match_expanded_orbits(self, family, rank):
        """Ties, zeros, odd entries, and in D rows with and without a zero."""
        datum = build_root_system(family, rank)
        rng = np.random.default_rng(300 + rank)
        for owner in [datum, *oracles.every_levi(datum)]:
            frame = _frame_for(owner)
            rows = np.concatenate([2 * rng.integers(-2, 3, size=(20, rank)),
                                   2 * rng.integers(-2, 2, size=(8, rank)) + 1])
            doms = np.unique(frame.dominant(rows), axis=0)
            assert frame.orbit_sizes(doms).tolist() == \
                [len(oracles.orbit_rows(owner, Weight(nu))) for nu in doms.tolist()], owner


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
        with pytest.raises(WeightError, match="outside the remaining multiset"):
            decompose_character(levi_c3_gl3, WeightPolynomial(terms))

    def test_wrong_coefficient_off_the_dominant_chamber(self, levi_c3_gl3):
        terms, off = _restricted(levi_c3_gl3)
        terms[off] += 1
        with pytest.raises(WeightError, match="no dominant maximal weight"):
            decompose_character(levi_c3_gl3, WeightPolynomial(terms))

    def test_extra_term(self, levi_c3_gl3):
        terms, _ = _restricted(levi_c3_gl3)
        extra = Weight.of(0, 0, 3)
        assert extra not in terms and not levi_c3_gl3.is_dominant(extra)
        terms[extra] = 1
        with pytest.raises(WeightError, match="no dominant maximal weight"):
            decompose_character(levi_c3_gl3, WeightPolynomial(terms))

    def test_dimension_check(self, levi_c3_gl3, monkeypatch):
        """Multiplicities that miss a weight fail the Weyl dimension check."""
        exact = weightpoly.dominant_multiplicities

        def short(owner, lam):
            mult = dict(exact(owner, lam))
            if owner is levi_c3_gl3 and len(mult) > 1:
                del mult[min(mult)]
            return mult

        monkeypatch.setattr(weightpoly, "dominant_multiplicities", short)
        char = weyl_character(levi_c3_gl3.parent, Weight.of(2, 1, 0))
        with pytest.raises(WeightError, match="dimension formula"):
            decompose_character(levi_c3_gl3, char)


def test_restriction_expands_g_once_and_recurses_on_root_systems(monkeypatch):
    """One ``_Frame.orbits`` call, for the character of g; Freudenthal's
    search (``dominants_below``) only on root systems, never on a Levi."""
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
    weightpoly.dominant_multiplicities.cache_clear()
    weightpoly._block_multiplicities.cache_clear()
    levi = build_levi(build_root_system("D", 5), (1, 2, 4, 5))
    assert branch_by_restriction(levi, Weight.of(2, 1, 1, 0, 0))
    assert expanded == [levi.parent]
    assert searched and all(isinstance(owner, RootDatum) for owner in searched)
