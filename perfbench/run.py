#!/usr/bin/env python3
"""Benchmark of levibranch: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

``--workload`` is one of scan, rows, expand (see ``workloads.py``).

With ``--trace 0`` the command repeats rounds of the workload, each in a
fresh interpreter (``child.py``), while the next round is expected to end
within ``--seconds``, and reports over its rounds the median set-up time
and peak resident memory and the mean wall time and time to first result
(``ROUND_STAT`` says why), the times scaled to a fixed host speed.

With ``--trace 1`` it alternates untraced rounds with rounds that record
spans at the module boundaries (``tracing.py``), runs the fixed kernel
timings of ``micro.py``, and reports the per-layer metrics (medians over
the traced rounds) and the tracing overhead.  Counts repeat exactly for a
given seed, and the run says so on standard error if they do not.
``--seconds`` does not apply; the spans of the first traced round are
kept in ``perfbench/_out``.

Every round's outputs are checked (``checks.py``) after the timing is over.
The first round is checked against independent computations; later rounds
must reproduce its outputs exactly.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("first_result_s", "s"),
              ("peak_rss_mb", "MB")]
MICRO = [("kernels.orbit_images.micro_s", "s"), ("kernels.dominant_rows.micro_s", "s"),
         ("kernels.kostant_batch.micro_s", "s"), ("branching.build_m.micro_s", "s")]
# How a run sums up its rounds (the times are scaled to a fixed host speed,
# see child.py): the median for set-up time and peak memory, the mean for the
# wall time and the time to first result, which over the rounds of a run
# spread less than their median (README, Results).
ROUND_STAT = {"setup_s": statistics.median, "wall_s": statistics.fmean,
              "first_result_s": statistics.fmean, "peak_rss_mb": statistics.median}
# the times that child.py scales, and what the per-run result file keeps of a round
MEASURED = ("setup_s", "wall_s", "first_result_s")
ROUND_KEYS = [name for name, _ in END_TO_END] + ["measured", "op_s", "yardstick_s"]
TRACE_OWN = [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
ROUND_TIMEOUT_S = 170
# a traced run alternates untraced and traced rounds this many times
TRACE_PAIRS = 3

# single-threaded numeric libraries; a fixed hash seed for stable counts
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child(script, *args):
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          env=env, cwd=ROOT, timeout=ROUND_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")


def run_round(ops, tag, trace=False):
    spec_path = os.path.join(OUT, f"spec-{tag}.json")
    out_path = os.path.join(OUT, f"round-{tag}.json")
    spec = {"ops": ops, "src": SRC, "scratch": OUT,
            "trace": trace, "trace_path": os.path.join(OUT, f"trace-{tag}.npz")}
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        child("child.py", spec_path, out_path)
        with open(out_path) as fh:
            report = json.load(fh)
        report["trace_path"] = spec["trace_path"]
        return report
    finally:
        for path in (spec_path, out_path):
            if os.path.exists(path):
                os.remove(path)


def judge(ops, rounds):
    """(failed, wrong, problems): the first round against the checks, the rest
    against the first round's outputs."""
    import checks

    first = rounds[0]["outputs"]
    verdicts = checks.check_round(ops, first)
    problems = []
    for r in rounds:
        for i, (out, ref) in enumerate(zip(r["outputs"], first)):
            problem = verdicts[i] if out == ref else "output differs from the checked round"
            if problem:
                problems.append((i, problem, "error" in out))
    failed = len(problems)
    wrong = sum(1 for _, _, raised in problems if not raised)
    return failed, wrong, problems


def timed_rounds(ops, tag, seconds):
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(run_round(ops, f"{tag}-{len(rounds)}"))
        last = time.monotonic() - t0
        if time.monotonic() + last > start + seconds:
            return rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "levibranch", "__init__.py")):
        print(f"no levibranch sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # compile once, so that no round pays for writing bytecode
    compileall.compile_dir(os.path.join(SRC, "levibranch"), quiet=1)
    sys.path.insert(0, SRC)

    ops = json.loads(json.dumps(workloads.WORKLOADS[args.workload](args.seed)))
    tag = f"{args.workload}-{args.seed}"
    if args.trace:
        rounds, layers = [], []
        for i in range(TRACE_PAIRS):
            rounds.append(run_round(ops, f"{tag}-plain{i}"))
            rounds.append(run_round(ops, f"{tag}-traced{i}", trace=True))
            layers.append(tracing.per_layer(rounds[-1]["trace_path"], rounds[-1]["trace"]))
            if i:
                os.remove(rounds[-1]["trace_path"])
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
        if any(c != counts[0] for c in counts):
            print("per-layer counts differ between traced rounds", file=sys.stderr)
        micro_path = os.path.join(OUT, f"micro-{tag}.json")
        child("micro.py", SRC, micro_path)
        with open(micro_path) as fh:
            values = json.load(fh)
        os.remove(micro_path)
        for name, _ in tracing.PER_LAYER:
            values[name] = statistics.median(layer[name] for layer in layers)
        plain = statistics.median(r["wall_s"] for r in rounds[0::2])
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in rounds[1::2])
        values["trace.overhead_s"] = values["trace.wall_s"] - plain
        units = tracing.PER_LAYER + MICRO + TRACE_OWN
    else:
        rounds = timed_rounds(ops, tag, args.seconds)
        values = {name: ROUND_STAT[name]([r[name] for r in rounds]) for name, _ in END_TO_END}
        units = END_TO_END

    failed, wrong, problems = judge(ops, rounds)
    for i, problem, _ in problems[:20]:
        print(f"operation {i} failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": wrong == 0, "attempted": len(ops) * len(rounds),
              "failed": failed, "metrics": metrics}

    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, rounds=[{k: r[k] for k in ROUND_KEYS} for r in rounds]),
                  fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} operations")
    for name, unit in units:
        print(f"  {name:48s} {values[name]:14.6g} {unit}")
    if not args.trace:
        for name in MEASURED:
            measured = ROUND_STAT[name]([r["measured"][name] for r in rounds])
            print(f"  {name + ' as measured, unscaled':48s} {measured:14.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
