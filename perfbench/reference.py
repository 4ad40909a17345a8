#!/usr/bin/env python3
"""Reference figures recorded once in README.md, not part of a benchmark run.

Usage, from the root of a checkout:

    python3 perfbench/reference.py probe --seconds 60
    python3 perfbench/reference.py checks

``probe`` times a fixed pure-Python loop in back-to-back chunks and prints
the spread of the chunk times; run it beside a set of benchmark runs to see
how much the machine itself drifts.  ``checks`` compares ``build_m`` with
and without its dual-construction self-check on the sp12 inputs of the
benchmark, and ``search_box`` with two threads against one on the scan
boxes.
"""

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def probe_loop():
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def probe(seconds: float, stretch: float = 10.0):
    chunks = []
    t_start = time.perf_counter()
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        t0 = time.perf_counter()
        probe_loop()
        chunks.append((t0 - t_start, time.perf_counter() - t0))
    times = [d for _, d in chunks]
    q = statistics.quantiles(times, n=4)
    print(f"probe: {len(times)} chunks, min {min(times) * 1e3:.1f} ms, "
          f"quartiles {q[0] * 1e3:.1f} / {q[1] * 1e3:.1f} / {q[2] * 1e3:.1f} ms, "
          f"max {max(times) * 1e3:.1f} ms")
    stretches: dict = {}
    for t, d in chunks:
        stretches.setdefault(int(t // stretch), []).append(d)
    medians = [statistics.median(v) * 1e3 for _, v in sorted(stretches.items())]
    print(f"medians of {stretch:.0f}-s stretches, ms: "
          + " ".join(f"{m:.1f}" for m in medians))


def timed(fn, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def build(levi):
    import levibranch as lb

    family, n, sbar = levi
    return lb.build_levi(lb.build_root_system(family, n), sbar)


def check_costs():
    import levibranch as lb

    sp12 = build(workloads.SP12)
    mus = [lb.Weight.of(7 - i, 3, 1 - i, 5, 3, 1) for i in range(4)]
    mus += [lb.Weight(op["mu"]) for op in workloads.mfun_ops(1)
            if tuple(op["levi"]) == workloads.SP12]
    lb.build_m(sp12, mus[0])
    on = timed(lambda: [lb.build_m(sp12, mu) for mu in mus])
    off = timed(lambda: [lb.build_m(sp12, mu, self_check=False) for mu in mus])
    print(f"build_m on sp12 > gl3+sp6, {len(mus)} mu, median of 5: "
          f"self_check on {on:.4f} s, off {off:.4f} s, check share {1 - off / on:.0%}")
    for op in workloads.scan_ops(1):
        levi = build(op["levi"])
        lb.search_box(levi, op["bound"])
        one = timed(lambda: lb.search_box(levi, op["bound"], threads=1), 3)
        two = timed(lambda: lb.search_box(levi, op["bound"], threads=2), 3)
        print(f"search_box {levi.describe()} bound {op['bound']}, median of 3 with "
              f"warm caches: threads=1 {one:.3f} s, threads=2 {two:.3f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("probe", "checks"))
    parser.add_argument("--seconds", type=float, default=60)
    args = parser.parse_args()
    if args.what == "probe":
        probe(args.seconds)
    else:
        check_costs()


if __name__ == "__main__":
    main()
