import random
from functools import lru_cache

import pytest

from levibranch import Weight, build_levi, build_root_system
from levibranch.weightpoly import _rho_drops


@lru_cache(maxsize=None)
def _cone_closure(family: str, rank: int, hmax: int) -> frozenset:
    """Closure of {0} under adding positive roots, up to height ``hmax``.

    The height is the pairing with (n, ..., 1) on doubled coordinates; it is
    positive on every positive root, so the closure is finite and holds
    every N-combination of positive roots of height at most ``hmax``.
    """
    datum = build_root_system(family, rank)
    fvec = Weight(range(rank, 0, -1))
    roots = [(a, a.dot4(fvec)) for a in datum.positive_roots]
    seen = {Weight.zero(rank): 0}
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for v, h in frontier:
            for a, ha in roots:
                if h + ha <= hmax:
                    w = v + a
                    if w not in seen:
                        seen[w] = h + ha
                        nxt.append((w, h + ha))
        frontier = nxt
    return frozenset(seen)


@pytest.fixture(scope="session")
def cone_closure():
    return _cone_closure


@pytest.fixture
def fresh_drops():
    """Signed Levi rows made anew under a fault, and again after it."""
    _rho_drops.cache_clear()
    yield
    _rho_drops.cache_clear()


@pytest.fixture
def rng():
    return random.Random(987654321)


@pytest.fixture(scope="session")
def gl2():
    return build_root_system("GL", 2)


@pytest.fixture(scope="session")
def gl3():
    return build_root_system("GL", 3)


@pytest.fixture(scope="session")
def gl4():
    return build_root_system("GL", 4)


@pytest.fixture(scope="session")
def gl6():
    return build_root_system("GL", 6)


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C", 2)


@pytest.fixture(scope="session")
def c3():
    return build_root_system("C", 3)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def b3():
    return build_root_system("B", 3)


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D", 4)


@pytest.fixture(scope="session")
def sp12():
    return build_root_system("C", 6)


@pytest.fixture(scope="session")
def levi_gl3_21(gl3):
    return build_levi(gl3, [1])


@pytest.fixture(scope="session")
def levi_gl4_22(gl4):
    return build_levi(gl4, [1, 3])


@pytest.fixture(scope="session")
def levi_gl6_42(gl6):
    return build_levi(gl6, [1, 2, 3, 5])


@pytest.fixture(scope="session")
def levi_c2_gl2(c2):
    return build_levi(c2, [1])


@pytest.fixture(scope="session")
def levi_c3_gl3(c3):
    return build_levi(c3, [1, 2])


@pytest.fixture(scope="session")
def levi_b2_gl2(b2):
    return build_levi(b2, [1])


@pytest.fixture(scope="session")
def levi_b3_gl2_so3(b3):
    return build_levi(b3, [1, 3])


@pytest.fixture(scope="session")
def levi_d4_gl4(d4):
    return build_levi(d4, [1, 2, 3])


@pytest.fixture(scope="session")
def levi_sp12(sp12):
    return build_levi(sp12, [1, 2, 4, 5, 6])
