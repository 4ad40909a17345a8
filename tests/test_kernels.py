import itertools
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levibranch import (Weight, build_levi, build_root_system,
                        dominant_representative, weyl_group)
from levibranch import kernels as K
from oracles import elements, sort_normal_form


@pytest.mark.parametrize("family,rank,vec", [
    ("C", 4, Weight.of(5, 3, 2, -1)),
    ("GL", 4, Weight.of(2, 0, 0, -1)),
    ("D", 4, Weight((5, 3, 1, -1))),
    ("B", 3, Weight((3, -1, 1)))], ids=["C4", "GL4", "D4-spin", "B3-spin"])
def test_orbit_images_match_group_action(family, rank, vec):
    group = weyl_group(build_root_system(family, rank))
    perm, sign, _ = group.arrays
    img = K.orbit_images(perm, sign, np.array(vec, dtype=np.int64))
    assert img.shape == (len(group), rank)
    for u, row in zip(elements(group), img.tolist()):
        assert Weight(row) == u.act(vec)


def _chamber(rows, code):
    """Rows in the closed dominant chamber of the family with ``code``."""
    steps = rows[:, :-1] >= rows[:, 1:]
    if code == 0:
        return steps.all(axis=1)
    if code == 1:
        return steps.all(axis=1) & (rows[:, -1] >= 0)
    return steps[:, :-1].all(axis=1) & (rows[:, -2] >= np.abs(rows[:, -1]))


@pytest.mark.parametrize("code", [0, 1, 2])
def test_dominant_twins_agree(code):
    # the closed form against a scan of the whole Weyl orbit of each row
    family = {0: "GL", 1: "B", 2: "D"}[code]
    perm, sign, _ = weyl_group(build_root_system(family, 5)).arrays
    rng = np.random.default_rng(11)
    rows = (rng.integers(-9, 10, size=(800, 5)) * 2).astype(np.int64)
    out = K.dominant_rows(rows.copy(), code)
    for row, dom in zip(rows, out):
        img = K.orbit_images(perm, sign, row)
        assert {tuple(r) for r in img[_chamber(img, code)].tolist()} == {tuple(dom.tolist())}


@pytest.mark.parametrize("family,code", [("GL", 0), ("B", 1), ("C", 1), ("D", 2)])
def test_dominant_rows_match_group_normal_form(family, code):
    datum = build_root_system(family, 5)
    rng = np.random.default_rng(23)
    # doubled coordinates: integral, spin and mixed rows alike
    rows = rng.integers(-12, 13, size=(400, 5)).astype(np.int64)
    out = K.dominant_rows(rows.copy(), code)
    for row, dom in zip(rows, out):
        _, lam = sort_normal_form(datum, Weight(row))
        assert Weight(dom) == lam


# rows of doubled coordinates with ties, zeros and half-integers (odd entries)
_SORT_ROWS = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["GL", "B", "C", "D"]), _SORT_ROWS)
def test_dominant_elements_sort_like_the_python_sort(family, rows):
    # the element's image is dominant_rows's, the element lies in the
    # family's group, and it is the element of Python's stable sort
    n = len(rows[0])
    if family == "D" and n < 2:
        family = "B"
    datum = build_root_system(family, n)
    code = K.FAMILY_CODE[family]
    arr = np.array(rows, dtype=np.int64)
    perm, sign = K.dominant_elements(arr, code)
    assert perm.dtype == sign.dtype == np.int64
    image = np.take_along_axis(arr, perm, axis=1) * sign
    assert image.tolist() == K.dominant_rows(arr, code).tolist()
    assert (np.sort(perm, axis=1) == np.arange(n)).all()
    negative = np.count_nonzero(sign < 0, axis=1)
    if family == "GL":
        assert not negative.any()
    elif family == "D":
        assert not (negative & 1).any()
    for row, p, s in zip(rows, perm.tolist(), sign.tolist()):
        w, lam = sort_normal_form(datum, Weight(row))
        assert (tuple(p), tuple(s)) == (w.perm, w.signs)
        assert dominant_representative(datum, Weight(row)) == (w, lam)


def _enumerate_combinations(roots, fcoef, hmax):
    """Count every N-combination of ``roots`` of height at most ``hmax``.

    Brute force over the multiplicity of each root in turn; independent of
    the dense table of ``kostant_batch``.
    """
    counts = Counter()
    heights = [int(fcoef @ r) for r in roots]

    def rec(j, vec, h):
        if j == len(roots):
            counts[vec] += 1
            return
        while h <= hmax:
            rec(j + 1, vec, h)
            vec = tuple(a + b for a, b in zip(vec, roots[j]))
            h += heights[j]

    rec(0, (0,) * len(fcoef), 0)
    return counts


def _complement(family, rank, sbar):
    levi = build_levi(build_root_system(family, rank), sbar)
    return [a for a in levi.parent.positive_roots if a not in set(levi.rbar_plus)]


@pytest.mark.parametrize("rank,roots", [
    (4, build_root_system("GL", 4).positive_roots),
    (3, build_root_system("B", 3).positive_roots),
    (3, build_root_system("C", 3).positive_roots),
    (4, build_root_system("D", 4).positive_roots),
    (3, _complement("C", 3, [1, 2])),
    (3, ())], ids=["GL4", "B3", "C3", "D4", "C3-gl3-complement", "no-roots"])
def test_kostant_batch_matches_enumeration(rank, roots):
    roots = np.array(roots, dtype=np.int64).reshape(len(roots), rank)
    fcoef = np.arange(rank, 0, -1, dtype=np.int64)
    hmax = 20
    brute = _enumerate_combinations(roots.tolist(), fcoef, hmax)
    # every counted vector, plus a box of integral, spin and mixed rows
    box = [r for r in itertools.product(range(-3, 4), repeat=rank)
           if int(fcoef @ np.array(r)) <= hmax]
    rows = np.array(sorted(set(brute) | set(box)), dtype=np.int64)
    expected = [brute.get(tuple(r), 0) for r in rows.tolist()]
    half = len(rows) // 2
    got = np.concatenate([K.kostant_batch(rows[:half], roots),
                          K.kostant_batch(rows[half:], roots)])
    assert got.tolist() == expected
    # the reverse order gives the same counts
    assert K.kostant_batch(rows[::-1], roots).tolist() == expected[::-1]
    # the empty root list writes only 0 as its empty sum
    assert max(expected) > 2 if len(roots) else expected.count(1) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("GL", 4), ("B", 3), ("C", 3), ("D", 4)]), st.data())
def test_dense_kernel_on_random_levis(system, data):
    # the rbar or complement roots of a random Levi against brute force;
    # the box holds odd rows and rows off the axes the roots touch
    family, rank = system
    datum = build_root_system(family, rank)
    sbar = data.draw(st.sets(st.integers(1, len(datum.simple_roots))), label="sbar")
    levi = build_levi(datum, sorted(sbar))
    roots = levi.rbar_plus
    if data.draw(st.booleans(), label="complement"):
        roots = [a for a in levi.parent.positive_roots if a not in set(roots)]
    roots = np.array(roots, dtype=np.int64).reshape(len(roots), rank)
    fcoef = np.arange(rank, 0, -1, dtype=np.int64)
    hmax = 12
    brute = _enumerate_combinations(roots.tolist(), fcoef, hmax)
    box = [r for r in itertools.product(range(-3, 4), repeat=rank)
           if int(fcoef @ np.array(r)) <= hmax]
    rows = np.array(sorted(set(brute) | set(box)), dtype=np.int64)
    expected = [brute.get(tuple(r), 0) for r in rows.tolist()]
    assert K.kostant_batch(rows, roots).tolist() == expected
    # alone, a row gets a box of its own, which some roots do not fit
    for i in range(0, len(rows), 97):
        assert K.kostant_batch(rows[i:i + 1], roots).tolist() == expected[i:i + 1]


def test_kostant_overflow_guard():
    # n copies of one root out of 40 copies: C(n + 39, 39) ways
    roots = np.array([[2, -2]] * 40, dtype=np.int64)
    rows = np.array([[2 * n, -2 * n] for n in range(28)], dtype=np.int64)
    assert K.kostant_batch(rows, roots).tolist() == [comb(n + 39, 39) for n in range(28)]
    with pytest.raises(OverflowError):  # C(67, 39) >= 2^62
        K.kostant_batch(np.array([[56, -56]], dtype=np.int64), roots)


def test_kostant_empty_roots():
    roots = np.zeros((0, 3), dtype=np.int64)
    args = np.array([[0, 0, 0], [2, 0, -2]], dtype=np.int64)
    out = K.kostant_batch(args, roots)
    assert list(out) == [1, 0]


def test_spin_arguments_count_zero():
    datum = build_root_system("B", 2)
    roots = np.array(datum.positive_roots, dtype=np.int64)
    args = np.array([[3, 1], [1, 1]], dtype=np.int64)  # half-integral rows
    out = K.kostant_batch(args, roots)
    assert list(out) == [0, 0]


def test_pack_rows_distinct_and_ranged():
    rng = np.random.default_rng(7)
    rows = rng.integers(-40, 41, size=(5000, 6)).astype(np.int64)
    keys = K.pack_rows(rows)
    uniq_rows = {tuple(r) for r in rows}
    assert len(np.unique(keys)) == len(uniq_rows)
    # key order is lexicographic row order
    assert [tuple(r) for r in rows[np.argsort(keys, kind="stable")].tolist()] == \
        sorted(tuple(r) for r in rows.tolist())
    with pytest.raises(K.PackRangeError):
        K.pack_rows(np.array([[1 << 40, 0]], dtype=np.int64))
