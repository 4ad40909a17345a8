"""Four fixed kernel timings on the rank-6 symplectic system.

Usage: ``python3 perfbench/micro.py SRC OUT.json``.  The inputs are those of
the older ``benchmarks/bench_kernels.py``: orbit expansion over
|W(C6)| = 46080, dominant normal forms of 400000 rows, 46080 unmasked
partition-function arguments, and four M-function builds on
sp12 > gl3+sp6.  The traced run reports them as per-layer rows, so the
numbers stay comparable with that script's.
"""

import json
import sys
import time


def best_of(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    sys.path.insert(0, sys.argv[1])
    import numpy as np

    import levibranch as lb
    from levibranch import kernels as K
    from levibranch.weightpoly import levi_table

    W = lb.Weight
    sp12 = lb.build_root_system("C", 6)
    levi = lb.build_levi(sp12, [1, 2, 4, 5, 6])
    perm, sign, _ = lb.weyl_group(sp12).arrays
    vec = np.array(W.of(9, 7, 5, 4, 2, 1), dtype=np.int64)
    rng = np.random.default_rng(12345)
    big_rows = (rng.integers(-12, 13, size=(400_000, 6)) * 2).astype(np.int64)
    shifted = np.array(W.of(3, 2, 1, 1, 0, 0) + sp12.rho, dtype=np.int64)
    args = K.orbit_images(perm, sign, shifted) - np.array(W.of(1, 0, 0, 1, 0, 0) + sp12.rho,
                                                          dtype=np.int64)
    mus = [W.of(7 - i, 3, 1 - i, 5, 3, 1) for i in range(4)]
    lb.build_m(levi, mus[0])  # fill the Levi group caches, as the old script did

    out = {
        "kernels.orbit_images.micro_s": best_of(lambda: K.orbit_images(perm, sign, vec), 3),
        "kernels.dominant_rows.micro_s": best_of(lambda: K.dominant_rows(big_rows, 1), 3),
        "kernels.kostant_batch.micro_s": best_of(lambda: levi_table(levi).count_rows(args), 1),
        "branching.build_m.micro_s": best_of(lambda: [lb.build_m(levi, m) for m in mus], 1),
    }
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
