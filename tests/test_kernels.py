import numpy as np
import pytest

from levibranch import Weight, build_root_system, dominant_representative, weyl_group
from levibranch import kernels as K


@pytest.fixture(scope="module")
def c4_arrays():
    return weyl_group(build_root_system("C", 4)).arrays


def test_orbit_twins_agree(c4_arrays):
    perm, sign, _ = c4_arrays
    vec = np.array(Weight.of(5, 3, 2, -1), dtype=np.int64)
    assert np.array_equal(K.orbit_images(perm, sign, vec),
                          K.orbit_images_numpy(perm, sign, vec))


@pytest.mark.parametrize("code", [0, 1, 2])
def test_dominant_twins_agree(code):
    rng = np.random.default_rng(11)
    rows = (rng.integers(-9, 10, size=(800, 5)) * 2).astype(np.int64)
    assert np.array_equal(K.dominant_rows(rows.copy(), code),
                          K.dominant_rows_numpy(rows.copy(), code))


@pytest.mark.parametrize("family,code", [("GL", 0), ("B", 1), ("C", 1), ("D", 2)])
def test_dominant_rows_match_group_normal_form(family, code):
    rank = 4 if family == "D" else 3
    datum = build_root_system(family, rank)
    rng = np.random.default_rng(23)
    rows = (rng.integers(-6, 7, size=(120, rank)) * 2).astype(np.int64)
    out = K.dominant_rows(rows.copy(), code)
    for row, dom in zip(rows, out):
        _, lam = dominant_representative(datum, Weight(row))
        assert Weight(dom) == lam


def test_kostant_twins_agree():
    datum = build_root_system("B", 3)
    roots = np.array(datum.positive_roots, dtype=np.int64)
    f = np.arange(3, 0, -1, dtype=np.int64)
    rng = np.random.default_rng(3)
    args = (rng.integers(-2, 8, size=(300, 3)) * 2).astype(np.int64)
    r1 = K.kostant_batch(args, roots, f, K.new_memo())
    r2 = K.kostant_batch_python(args, roots, f, K.new_memo_python())
    assert np.array_equal(r1, r2)
    assert r1.sum() > 0


def test_kostant_empty_roots():
    roots = np.zeros((0, 3), dtype=np.int64)
    f = np.arange(3, 0, -1, dtype=np.int64)
    args = np.array([[0, 0, 0], [2, 0, -2]], dtype=np.int64)
    out = K.kostant_batch(args, roots, f, K.new_memo())
    assert list(out) == [1, 0]


def test_spin_arguments_count_zero():
    datum = build_root_system("B", 2)
    roots = np.array(datum.positive_roots, dtype=np.int64)
    f = np.array([2, 1], dtype=np.int64)
    args = np.array([[3, 1], [1, 1]], dtype=np.int64)  # half-integral rows
    out = K.kostant_batch(args, roots, f, K.new_memo())
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


def test_backend_flag_reported():
    assert K.BACKEND in ("numba", "numpy")
    assert K.BACKEND == ("numba" if K.HAVE_NUMBA else "numpy")
