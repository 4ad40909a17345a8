"""Correctness checks of the outputs of each kind of operation.

Outputs are checked against computations made here with ``lie`` (brute
force over boxes and Weyl groups, signed counts, Weyl's dimension product)
or against properties the method must have, such as agreement of the
program's two independent branching routes.  Nothing is compared with a
stored copy of earlier output.

``check_round`` returns one entry per operation: None when its output is
correct, else the reason it is not.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import lie
import workloads

# Rows check their lambda of least dimension against the restriction oracle
# when that dimension is at most ORACLE_DIM_CAP, and LR_SAMPLE lambdas, spread
# evenly over the box, against LR products on GL block Levis.  Oracle rows
# check their ORACLE_SAMPLE highest entries below lambda against the Weyl
# sum.  The samples keep the checks of a run to a few seconds.
ORACLE_DIM_CAP = 5000
LR_SAMPLE = 4
ORACLE_SAMPLE = 3


def sample(items, k: int) -> list:
    """``k`` items spread evenly over a sorted list, first and last included."""
    if len(items) <= k:
        return list(items)
    return [items[round(i * (len(items) - 1) / (k - 1))] for i in range(k)]


def _levi(op) -> tuple:
    family, n, sbar = op["levi"]
    return family, n, tuple(sbar)


@lru_cache(maxsize=None)
def _program_levi(levi):
    import levibranch as lb

    family, n, sbar = levi
    return lb.build_levi(lb.build_root_system(family, n), sbar)


def _weight(w):
    import levibranch as lb

    return lb.Weight(w)


# -- search_box ------------------------------------------------------------------

def box(levi, bound: int) -> list:
    """Levi-dominant lattice weights with every |coordinate| <= bound."""
    return workloads.levi_dominant(levi, 2 * bound, workloads.spin_classes(levi))


def b3_spin_family(bound: int) -> set:
    """The proved B3 > gl2+so3 pairs: the sigma-orbits of (-1/2,-a,b) and (-1/2,-b,a)."""
    out = set()
    for a, b in itertools.permutations(range(1, 2 * bound, 2), 2):
        for x in ((-1, -a, b), (a, 1, b)):
            for y in ((-1, -b, a), (b, 1, a)):
                if x < y:
                    out.add((x, y))
    return out


@lru_cache(maxsize=None)
def _weyl_sum_row(levi, mu, cap: int) -> tuple:
    """The program's Weyl-sum route over dominant lambda with |coordinate| <= cap."""
    import levibranch as lb

    family, n, _ = levi
    lams = lie.dominant_weights(family, n, cap, mu[0] % 2)
    return tuple(lb.branch_multiplicity(_program_levi(levi), _weight(lam), _weight(mu))
                 for lam in lams)


def check_search_box(op, res) -> str | None:
    levi = _levi(op)
    family, n, sbar = levi
    summary = res["summary"]
    weights = box(levi, op["bound"])
    groups: dict = {}
    for w in weights:
        groups.setdefault(lie.dominant_rep(family, w), []).append(w)
    expected = {"box_size": len(weights), "groups": len(groups),
                "pairs_tested": sum(comb(len(g), 2) for g in groups.values())}
    for key, value in expected.items():
        if summary[key] != value:
            return f"{key} {summary[key]} != {value} by enumeration"

    m_of = {w: lie.m_coefficients(family, n, sbar, w) for w in weights}
    equal = {(mu, nu) for g in groups.values() for mu, nu in itertools.combinations(g, 2)
             if m_of[mu] == m_of[nu]}
    verdicts = {(tuple(mu), tuple(nu)): (eq, auto, cx)
                for mu, nu, eq, auto, cx in res["verdicts"]}
    if set(verdicts) != equal or len(verdicts) != len(res["verdicts"]):
        return (f"{len(verdicts)} equal pairs reported, {len(equal)} by signed counts; "
                f"differences {sorted(set(verdicts) ^ equal)[:4]}")

    rbar = lie.levi_positive_roots(family, n, sbar)
    autos = lie.diagram_automorphisms(family, n, sbar)
    flagged = set()
    for (mu, nu), (eq, auto, cx) in verdicts.items():
        if not eq:
            return f"pair {mu}, {nu} reported as a verdict but not equal"
        if auto is not None:
            g = (tuple(auto[0]), tuple(auto[1]))
            if {lie.act(g, a) for a in rbar} != rbar:
                return f"automorphism {auto} for {mu}, {nu} moves the Levi positive roots"
            if lie.act(g, mu) != nu:
                return f"automorphism {auto} does not map {mu} to {nu}"
        elif any(lie.act(g, mu) == nu for g in autos):
            return f"no automorphism reported for {mu}, {nu}, but W has one"
        if cx != (auto is None):
            return f"counterexample flag {cx} disagrees with the automorphism of {mu}, {nu}"
        if cx:
            flagged.add((mu, nu))
    counts = {"equal_pairs": len(verdicts), "counterexamples": len(flagged),
              "autos_found": len(verdicts) - len(flagged)}
    for key, value in counts.items():
        if summary[key] != value:
            return f"summary {key} {summary[key]} != {value} verdicts"
    if res["cert_lines"] != len(verdicts) + len(groups):
        return f"{res['cert_lines']} certificate lines for {len(verdicts)} verdicts"

    if (family == "GL" or levi == workloads.C3_3) and flagged:
        return f"{len(flagged)} counterexamples where the conjecture is proved"
    if levi == workloads.B3_23 and flagged != b3_spin_family(op["bound"]):
        return "B3 flagged pairs differ from the proved spin family"
    if levi in (workloads.B3_23, workloads.D5_322):
        for mu, nu in sorted(flagged):
            if _weyl_sum_row(levi, mu, 4) != _weyl_sum_row(levi, nu, 4):
                return f"flagged pair {mu}, {nu} has different Weyl-sum rows"
    return None


# -- branch_row ------------------------------------------------------------------

def gl_blocks(levi) -> list:
    """Coordinate runs of a GL block Levi: simple root i joins i and i + 1."""
    _, n, sbar = levi
    blocks = [[0]]
    for i in range(1, n):
        if i in sbar:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def lr_multiplicity(levi, lam, mu) -> int:
    """Iterated LR product from ``typea_lr``, after shifting both weights to partitions."""
    from levibranch.typea_lr import Partition, multi_lr

    shift = -min(min(lam), min(mu))
    lam = [(c + shift) // 2 for c in lam]
    mu = [(c + shift) // 2 for c in mu]
    return multi_lr(Partition(lam), [Partition(mu[i] for i in b) for b in gl_blocks(levi)])


@lru_cache(maxsize=None)
def _oracle_row(levi, lam) -> dict:
    import levibranch as lb

    row = lb.branch_by_restriction(_program_levi(levi), _weight(lam))
    return {tuple(w): m for w, m in row.items()}


def check_branch_row(op, res) -> str | None:
    levi = _levi(op)
    family, n, _ = levi
    mu = tuple(op["mu"])
    expected = lie.lambda_box(family, n, mu, op["k"])
    entries = {tuple(lam): m for lam, m in res["entries"]}
    if [tuple(w) for w in res["box"]] != expected or sorted(entries) != expected:
        return f"lambda box of {len(entries)} differs from {len(expected)} by enumeration"
    if any(m < 0 for m in entries.values()):
        return "negative multiplicity"
    if family == "GL":
        for lam in sample(expected, LR_SAMPLE):
            if entries[lam] != lr_multiplicity(levi, lam, mu):
                return (f"entry {lam}: {entries[lam]} != LR product "
                        f"{lr_multiplicity(levi, lam, mu)}")
    pos = lie.positive_roots(family, n)
    dim, lam = min((lie.weyl_dim(pos, lam), lam) for lam in expected)
    if dim <= ORACLE_DIM_CAP:
        oracle = _oracle_row(levi, lam).get(mu, 0)
        if entries[lam] != oracle:
            return f"entry {lam}: {entries[lam]} != restriction oracle {oracle}"
    return None


# -- branch_by_restriction -------------------------------------------------------

def check_restriction(op, res) -> str | None:
    import levibranch as lb

    levi = _levi(op)
    family, n, sbar = levi
    lam = tuple(op["lam"])
    row = {tuple(mu): m for mu, m in res["row"]}
    simples = [lie.simple_roots(family, n)[i - 1] for i in sbar]
    rbar = lie.levi_positive_roots(family, n, sbar)
    if any(m <= 0 or not lie.is_dominant(mu, simples) for mu, m in row.items()):
        return "row holds a nonpositive entry or a weight that is not Levi-dominant"
    total = sum(m * lie.weyl_dim(rbar, mu) for mu, m in row.items())
    dim = lie.weyl_dim(lie.positive_roots(family, n), lam)
    if total != dim:
        return f"sum of m * dim V-bar(mu) is {total}, dim V(lambda) is {dim}"
    # the highest weights below lambda: the Weyl sum is cheapest near lambda
    rho = lie.rho(lie.positive_roots(family, n))
    below = sorted((mu for mu in row if mu != lam), key=lambda mu: (-lie.dot(mu, rho), mu))
    for mu in below[:ORACLE_SAMPLE]:
        value = lb.branch_multiplicity(_program_levi(levi), _weight(lam), _weight(mu))
        if value != row[mu]:
            return f"entry {mu}: oracle {row[mu]} != Weyl sum {value}"
    return None


# -- build_m ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stab(family, n, w) -> int:
    return lie.stabilizer_order(family, n, w)


def check_build_m(op, res) -> str | None:
    import levibranch as lb

    levi = _levi(op)
    family, n, sbar = levi
    mu = tuple(op["mu"])
    coeffs = {tuple(w): c for w, c in res["coeffs"]}
    if coeffs != lie.m_coefficients(family, n, sbar, mu):
        return "orbit coefficients differ from the signed count over the Levi Weyl group"
    rbar = lie.levi_positive_roots(family, n, sbar)
    top = lie.dominant_rep(family, tuple(m + 2 * r for m, r in zip(mu, lie.rho(rbar))))
    sign = -1 if len(rbar) % 2 else 1
    if coeffs.get(top) != sign:
        return f"leading orbit coefficient at {top} is {coeffs.get(top)}, not {sign}"
    if "poly_terms" in res:
        order = len(lie.weyl_group(family, n))
        stabs = [_stab(family, n, tuple(w)) for w, _ in res["coeffs"]]
        terms = sum(order // s for s in stabs)
        if res["poly_terms"] != terms:
            return f"expansion has {res['poly_terms']} terms, the orbits hold {terms}"
        want = [c * s for (_, c), s in zip(res["coeffs"], stabs)]
        if res["poly_at"] != want:
            return "expanded coefficients are not orbit coefficient times |Stab|"
        if res["poly_mass"] != order * sum(coeffs.values()):
            return "expansion mass is not |W| times the orbit coefficient sum"
    for g in lie.diagram_automorphisms(family, n, sbar):
        image = lie.act(g, mu)
        if image == mu:
            continue
        other = lb.build_m(_program_levi(levi), _weight(image))
        if {tuple(w): c for w, c in other.coeffs} != coeffs:
            return f"M changes under the automorphism {g}"
    return None


CHECKS = {"search_box": check_search_box, "branch_row": check_branch_row,
          "branch_by_restriction": check_restriction, "build_m": check_build_m}


def check_round(ops: list, outputs: list) -> list:
    """None for each correct output, else the reason it is wrong."""
    problems = []
    for op, res in zip(ops, outputs):
        if "error" in res:
            problems.append(f"raised {res['error']}")
            continue
        try:
            problems.append(CHECKS[op["call"]](op, res))
        except Exception as exc:  # a check that cannot run fails its operation
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems
