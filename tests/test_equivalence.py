import io
import itertools
import json
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from levibranch import branching, kernels, weightpoly, weylgrp
from levibranch import (Weight, branch_by_restriction,
                        branch_multiplicity, build_levi, build_m,
                        build_root_system, classify_pair, diagram_automorphisms,
                        dominant_box, dominant_representative, equivalence,
                        induced_equal, leading_term, relating_automorphism,
                        search_box, weyl_group)
from levibranch.equivalence import (MU_2RHO_DOMINANT, POLARISATION, SAME_CHAMBER,
                                    TYPE_A, ClassificationBugError,
                                    replay_resume_state, same_closed_chamber)
from levibranch.weylgrp import WeylGroup
from oracles import elements, is_identity


class TestInducedEqual:
    def test_reflexive(self, levi_c3_gl3):
        mu = Weight.of(2, 1, -1)
        assert induced_equal(levi_c3_gl3, mu, mu)

    def test_rem_ce_pair(self, levi_gl6_42):
        mu = Weight.of(5, 2, 2, 1, 4, 3)
        nu = Weight.of(5, 4, 3, 1, 2, 2)
        assert not induced_equal(levi_gl6_42, mu, nu)

    def test_automorphism_images_equal(self, levi_sp12, rng):
        u = elements(diagram_automorphisms(levi_sp12))[1]
        for _ in range(4):
            a = sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True)
            b = sorted((rng.randint(0, 3) for _ in range(3)), reverse=True)
            mu = Weight.of(*a, *b)
            assert induced_equal(levi_sp12, mu, u.act(mu))

    def test_equal_implies_same_orbit_and_leading(self, levi_c2_gl2):
        box = dominant_box(levi_c2_gl2, 3)
        datum = levi_c2_gl2.parent
        for mu, nu in itertools.combinations(box, 2):
            if induced_equal(levi_c2_gl2, mu, nu):
                assert dominant_representative(datum, mu)[1] == \
                    dominant_representative(datum, nu)[1]
                assert leading_term(levi_c2_gl2, mu)[0] == \
                    leading_term(levi_c2_gl2, nu)[0]


class TestRelatingAutomorphism:
    def test_identity_for_equal_weights(self, levi_c3_gl3):
        mu = Weight.of(1, 0, -1)
        u = relating_automorphism(levi_c3_gl3, mu, mu)
        assert u is not None and is_identity(u)

    def test_gl4_block_swap(self, levi_gl4_22):
        mu = Weight.of(3, 1, 2, 2)
        nu = Weight.of(2, 2, 3, 1)
        u = relating_automorphism(levi_gl4_22, mu, nu)
        assert u is not None and u.act(mu) == nu

    def test_c_type_negate_reverse(self, levi_c3_gl3):
        mu = Weight.of(3, 1, -2)
        nu = Weight.of(2, -1, -3)  # reverse and negate
        u = relating_automorphism(levi_c3_gl3, mu, nu)
        assert u is not None
        assert u.act(Weight.of(1, 2, 3)) == Weight.of(-3, -2, -1)

    def test_none_when_unrelated(self, levi_gl4_22):
        assert relating_automorphism(
            levi_gl4_22, Weight.of(3, 1, 2, 2), Weight.of(3, 2, 2, 1)) is None


class TestClassify:
    def test_zero_pair(self, levi_c3_gl3):
        v = classify_pair(levi_c3_gl3, Weight.zero(3), Weight.zero(3))
        assert v.equal and is_identity(v.relating_auto)
        assert SAME_CHAMBER in v.covered_by
        assert not v.counterexample

    def test_rem_ce_classification(self, levi_gl6_42):
        v = classify_pair(levi_gl6_42,
                          Weight.of(5, 2, 2, 1, 4, 3), Weight.of(5, 4, 3, 1, 2, 2))
        assert not v.equal and TYPE_A in v.covered_by
        assert not v.counterexample

    def test_mu_2rho_dominant_case(self, levi_c3_gl3):
        mu = Weight.of(5, 2, 2)
        assert levi_c3_gl3.parent.is_dominant(mu + levi_c3_gl3.two_rho_bar)
        v = classify_pair(levi_c3_gl3, mu, mu)
        assert MU_2RHO_DOMINANT in v.covered_by

    def test_polarisation_flag(self, levi_c2_gl2, levi_b3_gl2_so3):
        v = classify_pair(levi_c2_gl2, Weight.of(1, 0), Weight.of(1, 0))
        assert POLARISATION in v.covered_by
        v2 = classify_pair(levi_b3_gl2_so3, Weight.of(1, 0, 0), Weight.of(1, 0, 0))
        assert POLARISATION not in v2.covered_by

    def test_json_shape(self, levi_c2_gl2):
        v = classify_pair(levi_c2_gl2, Weight.of(1, 0), Weight.of(0, -1))
        blob = v.to_json()
        assert set(blob) == {"mu", "nu", "equal", "auto", "covered",
                             "counterexample"}

    def test_same_chamber_oracle(self, levi_c2_gl2, levi_gl4_22, levi_b3_gl2_so3,
                                 levi_c3_gl3, levi_d4_gl4, rng):
        from levibranch import weyl_group
        for levi in (levi_c2_gl2, levi_gl4_22, levi_b3_gl2_so3, levi_c3_gl3,
                     levi_d4_gl4):
            datum = levi.parent
            n = datum.rank
            group = list(elements(weyl_group(datum)))
            parities = (0, 1) if datum.family in ("B", "D") else (0,)
            seen = set()
            for k in range(120):
                # doubled coordinates; spin rows on B and D
                mu, nu = (Weight(2 * rng.randint(-3, 3) + p for _ in range(n))
                          for p in (rng.choice(parities), rng.choice(parities)))
                if k % 2:  # a pair sharing a chamber, moved by a random element
                    w = rng.choice(group)
                    mu = w.act(dominant_representative(datum, mu)[1])
                    nu = w.act(dominant_representative(datum, nu)[1])
                oracle = any(datum.is_dominant(w.act(mu)) and
                             datum.is_dominant(w.act(nu)) for w in group)
                assert same_closed_chamber(levi, mu, nu) == oracle, (mu, nu)
                seen.add(oracle)
            assert seen == {True, False}, levi.describe()


class TestSearch:
    def test_full_levi_all_singletons(self, c2):
        levi = build_levi(c2, [1, 2])
        summary = search_box(levi, 3)
        assert summary.equal_pairs == 0
        assert summary.pairs_tested == 0  # groups are singletons

    def test_c2_scan(self, levi_c2_gl2):
        summary = search_box(levi_c2_gl2, 4)
        assert summary.counterexamples == 0
        assert summary.equal_pairs > 0
        assert summary.autos_found == summary.equal_pairs

    def test_gl4_scan_swap_autos(self, levi_gl4_22):
        summary = search_box(levi_gl4_22, 3)
        assert summary.counterexamples == 0
        swap = elements(diagram_automorphisms(levi_gl4_22))[1]
        for v in summary.verdicts:
            assert v.relating_auto is not None
            assert v.relating_auto in (swap,) or is_identity(v.relating_auto) is False

    def test_direct_soundness_inside_scan(self, levi_gl4_22):
        # every automorphism image inside the box is reported equal
        autos = elements(diagram_automorphisms(levi_gl4_22))
        box = set(dominant_box(levi_gl4_22, 2))
        found = {(v.mu, v.nu) for v in search_box(levi_gl4_22, 2).verdicts}
        for mu in box:
            for u in autos[1:]:
                nu = u.act(mu)
                if nu in box and nu != mu:
                    pair = (min(mu, nu), max(mu, nu))
                    assert pair in found

    def test_threaded_scan_matches(self, levi_c2_gl2):
        base = search_box(levi_c2_gl2, 3)
        threaded = search_box(levi_c2_gl2, 3, threads=4)
        assert [v.to_json() for v in base.verdicts] == \
            [v.to_json() for v in threaded.verdicts]
        assert base.pairs_tested == threaded.pairs_tested

    def test_sink_and_resume_state(self, levi_c2_gl2, tmp_path):
        buf = io.StringIO()
        summary = search_box(levi_c2_gl2, 3, sink=buf)
        lines = [json.loads(x) for x in buf.getvalue().splitlines()]
        markers = [x for x in lines if "group_done" in x]
        assert len(markers) == summary.groups
        path = tmp_path / "certs.jsonl"
        path.write_text(buf.getvalue())
        done, offset = replay_resume_state(path)
        assert len(done) == summary.groups
        assert offset == len(buf.getvalue().encode())
        rerun = search_box(levi_c2_gl2, 3, resume_keys=done)
        assert rerun.pairs_tested == 0 and rerun.skipped_groups == summary.groups

    def test_groups_stream_to_a_write_only_sink(self, levi_b3_gl2_so3, monkeypatch):
        tested = []  # one entry per M-function the scan builds
        real = equivalence.m_terms
        monkeypatch.setattr(equivalence, "m_terms",
                            lambda levi, mus, tops: tested.extend(mus) or real(levi, mus, tops))

        class WriteOnly:
            def __init__(self):
                self.lines, self.at_marker = [], []

            def write(self, line):
                self.lines.append(line)
                if "group_done" in line:
                    self.at_marker.append(len(tested))

        sink = WriteOnly()
        summary = search_box(levi_b3_gl2_so3, 2, sink=sink)
        # each marker is written when its group is done, before later groups run
        assert len(sink.at_marker) == summary.groups
        assert sink.at_marker == sorted(sink.at_marker)
        assert sink.at_marker[0] < sink.at_marker[-1] == len(tested)
        buf = io.StringIO()
        search_box(levi_b3_gl2_so3, 2, sink=buf)
        assert "".join(sink.lines) == buf.getvalue()

    def test_classification_guard_fires_in_scan(self, levi_gl4_22, monkeypatch):
        # TYPE_A covers every GL4 pair, so an equal pair without automorphism
        # can only come from a broken automorphism lookup
        identity = WeylGroup(np.arange(4)[None, :], np.ones((1, 4), dtype=np.int64))
        monkeypatch.setattr(equivalence, "diagram_automorphisms",
                            lambda *a, **k: identity)
        for threads in (1, 2):
            with pytest.raises(ClassificationBugError, match="TYPE_A"):
                search_box(levi_gl4_22, 2, threads=threads)

    def test_box_contents(self, levi_b3_gl2_so3):
        box = dominant_box(levi_b3_gl2_so3, 2)
        assert all(levi_b3_gl2_so3.is_dominant(mu) for mu in box)
        assert all(max(abs(c) for c in mu) <= 4 for mu in box)  # doubled
        assert any(not mu.is_integral() for mu in box)  # spin class present
        assert len(set(box)) == len(box)


@pytest.mark.parametrize("family,ranks", oracles.RANK6_SYSTEMS,
                         ids=[f for f, _ in oracles.RANK6_SYSTEMS])
def test_box_matches_the_prefix_root_recursion(family, ranks):
    for rank in ranks:
        for levi in oracles.every_levi(build_root_system(family, rank)):
            for bound in range(4 if rank <= 4 else 3):
                assert (dominant_box(levi, bound)
                        == oracles.dominant_box_by_prefix_roots(levi, bound)), (levi.sbar, bound)


@pytest.mark.parametrize("family,ranks", [("GL", range(1, 6)), ("B", range(1, 5)),
                                          ("C", range(1, 5)), ("D", range(2, 6))],
                         ids=["GL", "B", "C", "D"])
def test_box_is_counted_before_it_is_made(family, ranks, monkeypatch):
    """The guard sees the box's exact size: at a guard of that size the box
    is made, one below it the count is refused."""
    for rank in ranks:
        for levi in oracles.every_levi(build_root_system(family, rank)):
            for bound in range(4):
                size = len(dominant_box(levi, bound))
                monkeypatch.setattr(weylgrp, "DEFAULT_GROUP_GUARD", size)
                assert len(dominant_box(levi, bound)) == size
                monkeypatch.setattr(weylgrp, "DEFAULT_GROUP_GUARD", size - 1)
                with pytest.raises(weylgrp.GroupSizeError) as info:
                    dominant_box(levi, bound)
                assert info.value.size == size, (levi.sbar, bound)
                monkeypatch.undo()


def test_scan_and_compare_never_enumerate_w(monkeypatch):
    """Scans and pair verdicts enumerate Levi-sized groups only, never W."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the Weyl group of g")

    for module in (weylgrp, weightpoly):
        monkeypatch.setattr(module, "weyl_group", refuse)
    monkeypatch.setattr(weylgrp, "transversal", refuse)
    # a fresh cache, so the automorphisms are built under the patches
    monkeypatch.setattr(equivalence, "diagram_automorphisms",
                        lru_cache(maxsize=None)(diagram_automorphisms.__wrapped__))
    for family, rank, sbar, bound in (("B", 3, (1, 3), 2), ("D", 5, (1, 2, 4, 5), 1),
                                      ("C", 6, (1, 2, 4, 5, 6), 1)):
        levi = build_levi(build_root_system(family, rank), sbar)
        assert search_box(levi, bound).autos_found > 0
    b3 = build_levi(build_root_system("B", 3), (1, 3))
    spin = classify_pair(b3, Weight((-1, -1, 3)), Weight((-1, -3, 1)))
    assert spin.equal and spin.counterexample
    c6 = build_levi(build_root_system("C", 6), (1, 2, 4, 5, 6))
    swap = classify_pair(c6, Weight.of(1, 0, 0, 0, 0, 0), Weight.of(0, 0, -1, 0, 0, 0))
    assert swap.equal and swap.relating_auto is not None


def test_warm_automorphism_cache_is_hit():
    """Once the automorphisms of a Levi are built, scans and pair verdicts
    reuse them: every caller keys the cache by the Levi alone."""
    levi = build_levi(build_root_system("D", 5), (1, 2, 4, 5))
    diagram_automorphisms(levi)
    misses = diagram_automorphisms.cache_info().misses
    summary = search_box(levi, 1)
    assert summary.autos_found > 0
    pair = summary.verdicts[0]
    assert classify_pair(levi, pair.mu, pair.nu).relating_auto == pair.relating_auto
    assert diagram_automorphisms.cache_info().misses == misses


def test_warm_scan_sorts_no_weyl_elements(monkeypatch):
    """After one warm-up scan, a scan reads its FAR_FROM_WALLS flags off the
    dominant images of its M-function builds and sorts out no Weyl element."""
    levi = build_levi(build_root_system("D", 5), (1, 2, 4, 5))
    want = search_box(levi, 2)
    calls = []
    real = kernels.dominant_elements
    monkeypatch.setattr(kernels, "dominant_elements",
                        lambda *args: calls.append(args) or real(*args))
    summary = search_box(levi, 2)
    assert calls == []
    assert summary.verdicts == want.verdicts and summary.counterexamples > 0


# -- M-functions built for runs of groups -------------------------------------------

def _built_by_group(levi, bound):
    """The box's groups in scan order, each as the weights whose M-functions
    the scan builds: those sharing their leading term with another member."""
    groups: dict = {}
    for mu in dominant_box(levi, bound):
        groups.setdefault(dominant_representative(levi.parent, mu)[1], []).append(mu)
    out = []
    for key in sorted(groups):
        tops = [leading_term(levi, mu)[0] for mu in groups[key]]
        shared = Counter(tops)
        out.append([mu for mu, top in zip(groups[key], tops) if shared[top] > 1])
    return out


def _scan_runs(levi, bound, monkeypatch):
    """Each ``m_terms`` call of a scan, as its weights and the groups of its
    run: (weights, index of the run's first group, number of groups)."""
    calls, sink = [], io.StringIO()
    real = equivalence.m_terms

    def spy(levi, mus, tops):
        calls.append((list(mus), sink.getvalue().count("group_done")))
        return real(levi, mus, tops)

    monkeypatch.setattr(equivalence, "m_terms", spy)
    search_box(levi, bound, sink=sink)
    done = [n for _, n in calls] + [sink.getvalue().count("group_done")]
    return [(mus, n, end - n) for (mus, n), end in zip(calls, done[1:])]


def test_scan_builds_runs_of_groups(levi_c3_gl3, monkeypatch):
    """The first ``m_terms`` call builds the first group alone, before any
    line is written; each later call builds every weight of the next run of
    groups, and a run stops only where the next group's built weights would
    take it past ``M_BATCH_ROWS`` E-set rows.  At the default cap the whole
    box after the first group is one run; a cap of 10 weights cuts it."""
    wbar = len(weylgrp.levi_group(levi_c3_gl3))
    built = _built_by_group(levi_c3_gl3, 3)
    for weights in (None, 10):
        monkeypatch.undo()
        if weights is not None:
            monkeypatch.setattr(branching, "M_BATCH_ROWS", weights * wbar)
        runs = _scan_runs(levi_c3_gl3, 3, monkeypatch)
        assert runs[0] == (built[0], 0, 1)
        assert sum(size for _, _, size in runs) == len(built)
        for mus, first, size in runs[1:-1]:
            assert size >= 1
            assert (len(mus) + len(built[first + size])) * wbar > branching.M_BATCH_ROWS
        assert len(runs) == (2 if weights is None else 10)
        for mus, first, size in runs:
            assert mus == [mu for group in built[first:first + size] for mu in group]
        # a later run builds the weights of more than one group in one call
        assert any(sum(1 for group in built[first:first + size] if group) > 1
                   for _, first, size in runs[1:])


@pytest.mark.parametrize("weights", [None, 1, 3], ids=["default", "cap1", "cap3"])
def test_scan_runs_stay_under_the_row_cap(levi_c3_gl3, weights, monkeypatch):
    """A run passes ``M_BATCH_ROWS`` E-set rows, |Wbar| per built weight, only
    when it is one group; the certificate stays the same."""
    wbar = len(weylgrp.levi_group(levi_c3_gl3))
    buf = io.StringIO()
    search_box(levi_c3_gl3, 3, sink=buf)
    if weights is not None:
        monkeypatch.setattr(branching, "M_BATCH_ROWS", weights * wbar)
    runs = _scan_runs(levi_c3_gl3, 3, monkeypatch)
    assert all(len(mus) * wbar <= branching.M_BATCH_ROWS or size == 1
               for mus, _, size in runs)
    if weights is not None:  # some group alone passes the cap
        assert any(len(mus) > weights for mus, _, _ in runs)
    again = io.StringIO()
    search_box(levi_c3_gl3, 3, sink=again)
    assert again.getvalue() == buf.getvalue()


@pytest.mark.parametrize("family,rank,sbar,bound", [
    ("C", 3, (1, 2), 3), ("B", 3, (1, 3), 3), ("D", 5, (1, 2, 4, 5), 2)],
    ids=["C3-12-b3", "B3-13-b3", "D5-1245-b2"])
def test_scan_certificates_do_not_depend_on_batching(family, rank, sbar, bound,
                                                     monkeypatch):
    """One weight per M-function batch, or runs of groups at the default cap,
    with one thread or two: the same certificate bytes."""
    levi = build_levi(build_root_system(family, rank), sbar)

    def certificate(threads):
        buf = io.StringIO()
        search_box(levi, bound, sink=buf, threads=threads)
        return buf.getvalue()

    want = certificate(1)
    assert certificate(2) == want
    sizes = []
    real = branching._m_batch
    monkeypatch.setattr(branching, "_m_batch",
                        lambda levi, mus, *rest: sizes.append(len(mus)) or real(levi, mus, *rest))
    monkeypatch.setattr(branching, "M_BATCH_ROWS", len(weylgrp.levi_group(levi)))
    assert certificate(1) == want and certificate(2) == want
    assert set(sizes) == {1}


# -- the automorphism of a verdict against the object loop -------------------------

AUTO_SYSTEMS = [("GL", range(2, 6)), ("B", range(2, 6)), ("C", range(2, 6)),
                ("D", range(3, 6))]


def _proper_levis(family, ranks):
    for rank in ranks:
        datum = build_root_system(family, rank)
        yield from (levi for levi in oracles.every_levi(datum)
                    if len(levi.sbar) < len(datum.simple_roots))
    if family == "GL":  # six automorphisms, so the first one has rivals
        yield build_levi(build_root_system("GL", 6), (1, 3, 5))


@pytest.mark.parametrize("family,ranks", AUTO_SYSTEMS, ids=[f for f, _ in AUTO_SYSTEMS])
def test_relating_automorphisms_match_the_object_loop(family, ranks):
    """Every verdict's automorphism at bound 1, and ``relating_automorphism``
    on each equal pair, is the first automorphism the object loop finds."""
    moved = none = 0
    for levi in _proper_levis(family, ranks):
        for v in search_box(levi, 1).verdicts:  # spin weights on B and D
            want = oracles.first_automorphism(levi, v.mu, v.nu)
            assert v.relating_auto == want, (levi.describe(), v.mu, v.nu)
            assert relating_automorphism(levi, v.mu, v.nu) == want
            moved += want is not None and not is_identity(want)
            none += want is None
    assert moved > 0 and (none > 0) == (family in ("C", "D"))


@pytest.mark.parametrize("family,rank,sbar,bound", [
    ("GL", 6, (1, 3, 5), 1), ("C", 4, (1, 2, 4), 2), ("B", 3, (1, 3), 3)],
    ids=["GL6", "C4", "B3"])
def test_automorphism_images_in_small_chunks(family, rank, sbar, bound, monkeypatch):
    # one weight's images per chunk give the verdicts of one chunk per group
    levi = build_levi(build_root_system(family, rank), sbar)
    whole = [v.to_json() for v in search_box(levi, bound).verdicts]
    monkeypatch.setattr(equivalence, "ORBIT_CHUNK_ROWS", 1)
    assert [v.to_json() for v in search_box(levi, bound).verdicts] == whole


# -- the scan against the pairwise route ----------------------------------------

@lru_cache(maxsize=None)
def _pairwise_scan(family: str, rank: int, sbar: tuple, bound: int):
    """Certificate bytes and counts built pair by pair from the public predicates.

    Groups are W-orbits keyed by ``dominant_representative``; every pair of a
    group goes through ``induced_equal`` and, when equal, ``classify_pair``.
    """
    levi = build_levi(build_root_system(family, rank), list(sbar))
    groups: dict = {}
    for mu in dominant_box(levi, bound):
        groups.setdefault(dominant_representative(levi.parent, mu)[1], []).append(mu)
    out = io.StringIO()
    counts = {"pairs_tested": 0, "equal_pairs": 0, "counterexamples": 0}
    for key in sorted(groups):
        pairs = list(itertools.combinations(sorted(groups[key]), 2))
        for mu, nu in pairs:
            if induced_equal(levi, mu, nu):
                v = classify_pair(levi, mu, nu)
                out.write(json.dumps(v.to_json(), sort_keys=True) + "\n")
                counts["equal_pairs"] += 1
                counts["counterexamples"] += v.counterexample
        counts["pairs_tested"] += len(pairs)
        out.write(json.dumps({"group_done": key.to_json(), "pairs": len(pairs)},
                             sort_keys=True) + "\n")
    return levi, out.getvalue(), counts


@pytest.mark.parametrize("family, rank, sbar, bound, threads", [
    ("B", 3, (1, 3), 3, 1),
    ("D", 5, (1, 2, 4, 5), 2, 1),
    ("D", 5, (1, 2, 4, 5), 2, 2),
    ("GL", 4, (1, 3), 2, 1),
    ("C", 3, (1, 2), 3, 1),
    ("C", 2, (1,), 4, 1),
    ("GL", 6, (1, 3, 5), 1, 1),  # pairs related by two block permutations
], ids=["B3-13-b3", "D5-1245-b2", "D5-1245-b2-threads2", "GL4-13-b2", "C3-12-b3",
        "C2-1-b4", "GL6-135-b1"])
def test_scan_matches_pairwise_route(family, rank, sbar, bound, threads):
    levi, expected, counts = _pairwise_scan(family, rank, sbar, bound)
    buf = io.StringIO()
    summary = search_box(levi, bound, sink=buf, threads=threads)
    assert buf.getvalue() == expected
    for key, value in counts.items():
        assert getattr(summary, key) == value, key
    assert summary.equal_pairs > 0
    if family in ("B", "D"):  # the flagged families of ROADMAP
        assert summary.counterexamples > 0


# -- property tests of the easy direction --------------------------------------

_B3_SO3 = build_levi(build_root_system("B", 3), [1, 3])
_C3_GL3 = build_levi(build_root_system("C", 3), [1, 2])
_D4_GL4 = build_levi(build_root_system("D", 4), [1, 2, 3])
_LEVI_WEIGHTS = [(levi, mu) for levi in (_B3_SO3, _C3_GL3, _D4_GL4)
                 for mu in dominant_box(levi, 3)]  # spin weights on B3 and D4


class TestEasyDirectionProperties:
    """A diagram automorphism u in W maps mu to a weight with the same M."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_LEVI_WEIGHTS))
    def test_automorphism_images_share_m(self, case):
        levi, mu = case
        m = build_m(levi, mu)
        for u in elements(diagram_automorphisms(levi)):
            nu = u.act(mu)
            assert levi.is_dominant(nu)
            assert build_m(levi, nu).coeffs == m.coeffs
            assert induced_equal(levi, mu, nu)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    def test_weyl_sum_equals_restriction(self, coords):
        lam = Weight.of(*sorted(coords, reverse=True))
        row = branch_by_restriction(_C3_GL3, lam)
        # every weight of the lam module lies in the box of bound lam_1
        box = dominant_box(_C3_GL3, max(coords))
        assert set(row) <= set(box)
        for mu in box:
            assert branch_multiplicity(_C3_GL3, lam, mu) == row.get(mu, 0), mu


_CHAMBER_SYSTEMS = [build_root_system(f, n) for f, n in
                    (("GL", 3), ("GL", 5), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                     ("D", 4), ("D", 5))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CHAMBER_SYSTEMS), st.data())
def test_same_closed_chamber_matches_inner_products(datum, data):
    """dom(mu) + dom(nu) = dom(mu + nu) against <mu, nu> = <dom mu, dom nu>,
    on random pairs (spin rows on B and D), and on pairs moved into one
    chamber by one random signed permutation of their dominant images."""
    n = datum.rank
    parities = st.sampled_from((0, 1) if datum.family in ("B", "D") else (0,))
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    mu, nu = (Weight(2 * c + p for c in data.draw(coords)) for p in data.draw(
        st.tuples(parities, parities)))
    if data.draw(st.booleans()):
        w = weyl_group(datum).element(data.draw(st.integers(0, datum.weyl_order() - 1)))
        mu, nu = (w.act(dominant_representative(datum, x)[1]) for x in (mu, nu))
    levi = build_levi(datum, ())
    assert (same_closed_chamber(levi, mu, nu)
            == oracles.same_chamber_by_inner_products(datum, mu, nu)), (mu, nu)
