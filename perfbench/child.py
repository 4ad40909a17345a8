"""One round of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json OUT.json``.  ``run.py``
writes the spec (operations, trace flag) and reads the result.

The round times three phases from the start of ``main`` on:

* set-up: import ``levibranch``, build the root data and Levis, and the
  Weyl groups the workload needs.  Per-input caches (partition memos,
  characters) are left cold, because a CLI user fills them on every run;
* the operations, one call of a top-level function each.
  ``wall_s`` sums their durations; ``first_result_s`` is the time to the
  first result a user can see.  Between operations the round turns the
  result into JSON for the checks, outside the timed sums;
* nothing else: the checks run in ``run.py`` after the round has ended.

The host's speed drifts (README, Scaled times), so the round also times a fixed
pure-Python loop, the yardstick, before set-up and after every operation,
outside the timed sums.  The reported times are scaled to a host on which
the yardstick takes ``YARDSTICK_REF_S``: each measured time is multiplied
by ``YARDSTICK_REF_S`` over the mean of the yardstick times just before and
just after it.  The measured times are reported beside them.
"""

import json
import os
import resource
import sys
import time

YARDSTICK_ITERS = 100_000
YARDSTICK_REF_S = 0.010


def yardstick():
    t0 = time.perf_counter()
    total = 0
    for i in range(YARDSTICK_ITERS):
        total += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    return seconds * YARDSTICK_REF_S * 2 / (before + after)


class StampedSink:
    """A certificate file that remembers when its first line was written."""

    def __init__(self, fh):
        self.fh = fh
        self.first_write = None
        self.lines = 0

    def write(self, text):
        if self.first_write is None:
            self.first_write = time.perf_counter()
        self.lines += text.count("\n")
        return self.fh.write(text)


def setup(lb, ops):
    """Root data, Levis and the Weyl groups the operations' calls use."""
    from levibranch.weylgrp import levi_group

    levis = {}
    for op in ops:
        family, rank, sbar = op["levi"]
        key = (family, rank, tuple(sbar))
        if key not in levis:
            levis[key] = lb.build_levi(lb.build_root_system(family, rank), sbar)
            lb.weyl_group(levis[key].parent).arrays
        if op["call"] in ("search_box", "build_m"):
            levi_group(levis[key]).arrays
        if op["call"] == "search_box":
            lb.transversal(levis[key])
            lb.diagram_automorphisms(levis[key])
    return levis


def run_op(lb, levi, op, scratch):
    """One operation; returns its result and, for scans, the certificate sink."""
    W = lb.Weight
    if op["call"] == "search_box":
        path = os.path.join(scratch, f"cert-{os.getpid()}.jsonl")
        with open(path, "w") as fh:
            sink = StampedSink(fh)
            summary = lb.search_box(levi, op["bound"], sink=sink)
        os.remove(path)
        return summary, sink
    if op["call"] == "branch_row":
        return lb.branch_row(levi, W(op["mu"]), op["k"]), None
    if op["call"] == "branch_by_restriction":
        return lb.branch_by_restriction(levi, W(op["lam"])), None
    fn = lb.build_m(levi, W(op["mu"]))
    return (fn, fn.poly() if op["poly"] else None), None


def to_json(op, result, sink):
    """The parts of a result the checks read, in doubled coordinates."""
    if op["call"] == "search_box":
        summary = result.to_json()
        del summary["wall_clock_s"]
        verdicts = [[list(v.mu), list(v.nu), v.equal,
                     None if v.relating_auto is None else
                     [list(v.relating_auto.perm), list(v.relating_auto.signs)],
                     v.counterexample] for v in result.verdicts]
        return {"summary": summary, "verdicts": verdicts, "cert_lines": sink.lines}
    if op["call"] == "branch_row":
        return {"box": [list(w) for w in result.box],
                "entries": [[list(w), m] for w, m in sorted(result.entries.items())]}
    if op["call"] == "branch_by_restriction":
        return {"row": [[list(w), m] for w, m in sorted(result.items())]}
    fn, poly = result
    out = {"coeffs": [[list(w), c] for w, c in fn.coeffs]}
    if poly is not None:
        out["poly_terms"] = len(poly)
        out["poly_mass"] = poly.dimension()
        out["poly_at"] = [poly.coefficient(w) for w, _ in fn.coeffs]
    return out


def main():
    ticks = [yardstick()]
    t0 = time.perf_counter()
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    sys.path.insert(0, spec["src"])
    import levibranch as lb

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    levis = setup(lb, ops)
    setup_s = time.perf_counter() - t0
    ticks.append(yardstick())

    outputs = []
    op_s = []
    first = None
    for op in ops:
        family, rank, sbar = op["levi"]
        levi = levis[(family, rank, tuple(sbar))]
        start = time.perf_counter()
        try:
            result, sink = run_op(lb, levi, op, spec["scratch"])
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            sink, error = None, {"error": f"{type(exc).__name__}: {exc}"}
        end = time.perf_counter()
        ticks.append(yardstick())
        outputs.append(error or to_json(op, result, sink))
        if first is None:
            stamp = sink.first_write if sink is not None and sink.first_write else end
            first = stamp - start
        op_s.append(end - start)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"setup_s": scaled(setup_s, *ticks[:2]),
              "wall_s": sum(scaled(t, *ticks[i + 1:i + 3]) for i, t in enumerate(op_s)),
              "first_result_s": scaled(first, *ticks[1:3]),
              "peak_rss_mb": peak_kb / 1024.0,
              "measured": {"setup_s": setup_s, "wall_s": sum(op_s), "first_result_s": first},
              "op_s": op_s, "yardstick_s": ticks, "outputs": outputs}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.dump(spec["trace_path"])
    with open(sys.argv[2], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
