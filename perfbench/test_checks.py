"""The benchmark's checks accept true outputs and reject wrong ones.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py

Each test computes a real output with the same calls a benchmark round
makes, confirms that its checker accepts it, then changes one thing and
confirms that the checker reports the operation as failed.
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import child  # noqa: E402
import levibranch as lb  # noqa: E402
import lie  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def output(op, tmp_path):
    op = json.loads(json.dumps(op))
    family, n, sbar = op["levi"]
    levi = lb.build_levi(lb.build_root_system(family, n), sbar)
    result, sink = child.run_op(lb, levi, op, str(tmp_path))
    return op, child.to_json(op, result, sink)


def reason(op, res):
    return checks.check_round([op], [res])[0]


@pytest.fixture(scope="module")
def d5_scan(tmp_path_factory):
    return output({"call": "search_box", "levi": workloads.D5_322, "bound": 2},
                  tmp_path_factory.mktemp("scan"))


def test_scan_drop_or_add_a_flagged_pair(d5_scan):
    op, res = d5_scan
    assert not reason(op, res)
    flagged = [i for i, v in enumerate(res["verdicts"]) if v[4]]
    related = [i for i, v in enumerate(res["verdicts"]) if not v[4]]
    assert flagged and related

    dropped = copy.deepcopy(res)
    del dropped["verdicts"][flagged[0]]
    assert reason(op, dropped)

    added = copy.deepcopy(res)
    added["verdicts"][related[0]][3] = None
    added["verdicts"][related[0]][4] = True
    assert reason(op, added)


def test_scan_automorphism_must_preserve_levi_roots(d5_scan):
    op, res = d5_scan
    levi = tuple(op["levi"][:2]) + (tuple(op["levi"][2]),)
    rbar = lie.levi_positive_roots(*levi)
    i, (mu, nu) = next((i, v[:2]) for i, v in enumerate(res["verdicts"]) if v[3])
    impostor = next(g for g in lie.weyl_group(*levi[:2])
                    if lie.act(g, tuple(mu)) == tuple(nu)
                    and {lie.act(g, a) for a in rbar} != rbar)
    bad = copy.deepcopy(res)
    bad["verdicts"][i][3] = [list(impostor[0]), list(impostor[1])]
    why = reason(op, bad)
    assert why and "moves the Levi positive roots" in why


def test_scan_b3_family_is_generated_not_stored(tmp_path):
    op, res = output({"call": "search_box", "levi": workloads.B3_23, "bound": 4}, tmp_path)
    assert not reason(op, res)
    assert len(checks.b3_spin_family(4)) == res["summary"]["counterexamples"] == 24


def test_branch_row_changed_multiplicity(tmp_path):
    op, res = output({"call": "branch_row", "levi": workloads.GL6_222,
                      "mu": workloads.doubled(1, 0, 1, 0, 0, -1), "k": 2}, tmp_path)
    assert not reason(op, res)
    bad = copy.deepcopy(res)
    bad["entries"][-1][1] += 1
    why = reason(op, bad)
    assert why and "LR product" in why

    op, res = output(workloads.ROWS_FIRST, tmp_path)
    assert not reason(op, res)
    bad = copy.deepcopy(res)
    pos = lie.positive_roots("C", 6)
    smallest = min(range(len(bad["entries"])),
                   key=lambda i: lie.weyl_dim(pos, tuple(bad["entries"][i][0])))
    bad["entries"][smallest][1] += 1
    why = reason(op, bad)
    assert why and "restriction oracle" in why


def test_restriction_changed_multiplicity(tmp_path):
    op, res = output(workloads.ORACLE_FIRST, tmp_path)
    assert not reason(op, res)
    bad = copy.deepcopy(res)
    bad["row"][0][1] += 1
    assert reason(op, bad)


def test_build_m_wrong_orbit_coefficient(tmp_path):
    for first in (workloads.MFUN_FIRST,
                  {"call": "build_m", "levi": workloads.SP12,
                   "mu": workloads.doubled(1, 0, 0, 1, 0, 0), "poly": False}):
        op, res = output(first, tmp_path)
        assert not reason(op, res)
        bad = copy.deepcopy(res)
        bad["coeffs"][0][1] += 1
        why = reason(op, bad)
        assert why and "orbit coefficients" in why


def test_build_m_wrong_expansion(tmp_path):
    op, res = output(workloads.MFUN_FIRST, tmp_path)
    bad = copy.deepcopy(res)
    bad["poly_at"][0] *= -1
    why = reason(op, bad)
    assert why and "|Stab|" in why


def test_raised_operation_fails():
    assert checks.check_round([workloads.ORACLE_FIRST], [{"error": "BudgetError: too big"}]) \
        == ["raised BudgetError: too big"]


def test_inputs_repeat_for_a_seed():
    for make in workloads.WORKLOADS.values():
        assert make(7) == make(7)


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER + run.MICRO + run.TRACE_OWN
