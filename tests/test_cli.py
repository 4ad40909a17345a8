import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from levibranch import Weight, build_levi, build_root_system

CLI = [sys.executable, "-m", "levibranch.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=ENV, **kw)


class TestBranchCommand:
    def test_single_multiplicity(self):
        out = run("branch", "--system", "C:6", "--levi", "1,2,4,5,6",
                  "--lam", "1,0,0,0,0,0", "--mu", "1,0,0,0,0,0")
        assert out.returncode == 0
        assert out.stdout.strip() == "1"

    def test_trivial_pair(self):
        out = run("branch", "--system", "GL:3", "--levi", "1",
                  "--lam", "0,0,0", "--mu", "0,0,0")
        assert out.returncode == 0 and out.stdout.strip() == "1"

    def test_oracle_diff_empty(self):
        out = run("branch", "--system", "C:2", "--levi", "1",
                  "--lam", "2,1", "--mu", "1,0", "--oracle")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["oracle_diff"] == []
        assert payload["multiplicity"] == payload["oracle"]

    def test_row_csv(self, tmp_path):
        path = tmp_path / "row.csv"
        out = run("branch", "--system", "GL:3", "--levi", "1",
                  "--mu", "1,0,0", "--format", "csv", "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "lam1,lam2,lam3,multiplicity"
        assert len(lines) > 1

    def test_determinism(self):
        args = ("branch", "--system", "C:3", "--levi", "1,2",
                "--mu", "1,0,0", "--box-k", "2")
        assert run(*args).stdout == run(*args).stdout

    def test_row_checks_mu_when_the_box_is_empty(self):
        # with --lam the same mu exits 2 as well
        out = run("branch", "--system", "GL:3", "--levi", "1", "--mu", "0,1,5",
                  "--box-k", "0")
        assert out.returncode == 2 and out.stdout == ""
        assert "is not dominant for the Levi" in out.stderr

    def test_rank_one_row(self):
        # GL1 has no roots, so the box of mu is {mu}
        base = ("branch", "--system", "GL:1", "--levi=", "--mu", "0")
        for extra in ((), ("--box-k", "0")):
            out = run(*base, *extra)
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout) == {"entries": [{"lam": [0], "m": 1}], "mu": [0]}
        out = run(*base, "--format", "csv")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "lam1,multiplicity\n0,1\n"

    def test_cache_dir_refused(self, tmp_path):
        out = run("branch", "--system", "C:3", "--levi", "1,2", "--mu", "1,0,0",
                  "--cache-dir", str(tmp_path))
        assert out.returncode == 2
        assert "--cache-dir" in out.stderr
        assert not list(tmp_path.iterdir())


class TestCompareCommand:
    def test_rem_ce(self):
        out = run("compare", "--system", "GL:6", "--levi", "1,2,3,5",
                  "--mu", "5,2,2,1,4,3", "--nu", "5,4,3,1,2,2")
        payload = json.loads(out.stdout)
        assert payload["equal"] is False and payload["counterexample"] is False

    def test_automorphism_pair(self):
        out = run("compare", "--system", "GL:4", "--levi", "1,3",
                  "--mu", "3,1,2,2", "--nu", "2,2,3,1")
        payload = json.loads(out.stdout)
        assert payload["equal"] is True
        assert payload["auto"] == {"perm": [3, 4, 1, 2], "signs": [1, 1, 1, 1]}

    def test_equal_weights(self):
        out = run("compare", "--system", "C:2", "--levi", "1",
                  "--mu", "2,1", "--nu", "2,1")
        payload = json.loads(out.stdout)
        assert payload["equal"] and payload["auto"]["perm"] == [1, 2]


class TestSearchCommand:
    def test_summary_and_certificates(self, tmp_path):
        certs = tmp_path / "c.jsonl"
        out = run("search", "--system", "C:2", "--levi", "1", "--bound", "4",
                  "--certificates", str(certs))
        assert out.returncode == 0
        summary = json.loads(out.stdout)
        assert summary["counterexamples"] == 0
        lines = [json.loads(x) for x in certs.read_text().splitlines()]
        verdicts = [x for x in lines if "mu" in x]
        assert len(verdicts) == summary["equal_pairs"]
        assert all(v["auto"] is not None for v in verdicts)

    def test_resume_reproduces_bytes(self, tmp_path):
        full = tmp_path / "full.jsonl"
        run("search", "--system", "C:2", "--levi", "1", "--bound", "3",
            "--certificates", str(full))
        partial = tmp_path / "part.jsonl"
        content = full.read_text().splitlines(keepends=True)
        partial.write_text("".join(content[:7]))
        out = run("search", "--system", "C:2", "--levi", "1", "--bound", "3",
                  "--certificates", str(partial), "--resume")
        assert out.returncode == 0
        assert partial.read_text() == full.read_text()

    def test_resume_after_a_torn_last_line(self, tmp_path):
        # a write cut mid-line (SIGKILL, full disk) leaves an unterminated line
        scan = ("search", "--system", "C:3", "--levi", "1,2", "--bound", "2")
        full = tmp_path / "full.jsonl"
        assert run(*scan, "--certificates", str(full)).returncode == 0
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(full.read_bytes()[:-20])
        out = run(*scan, "--certificates", str(torn), "--resume")
        assert out.returncode == 0
        assert torn.read_bytes() == full.read_bytes()
        # a malformed line that did end is still refused
        torn.write_bytes(full.read_bytes() + b'{"bad": \n')
        out = run(*scan, "--certificates", str(torn), "--resume")
        assert out.returncode == 2 and out.stderr.startswith("error:")

    def test_killed_scan_resumes_byte_identical(self, tmp_path):
        scan = ("search", "--system", "D:5", "--levi", "1,2,4,5", "--bound", "2")
        full = tmp_path / "full.jsonl"
        assert run(*scan, "--certificates", str(full)).returncode == 0
        markers = full.read_text().count('"group_done"')
        killed = tmp_path / "killed.jsonl"
        child = subprocess.Popen(CLI + list(scan) + ["--certificates", str(killed)],
                                 stdout=subprocess.DEVNULL, env=ENV)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and child.poll() is None:
                if killed.exists() and '"group_done"' in killed.read_text():
                    break
                time.sleep(0.005)
            child.send_signal(signal.SIGKILL)
        finally:
            child.wait()
        # the kill landed mid-scan: some groups on disk, not all of them
        assert child.returncode == -signal.SIGKILL
        assert 1 <= killed.read_text().count('"group_done"') < markers
        out = run(*scan, "--certificates", str(killed), "--resume")
        assert out.returncode == 0
        assert json.loads(out.stdout)["skipped_groups"] >= 1
        assert killed.read_bytes() == full.read_bytes()


class TestOtherCommands:
    def test_autos(self):
        out = run("autos", "--system", "C:6", "--levi", "1,2,4,5,6")
        payload = json.loads(out.stdout)
        assert payload["count"] == 2

    def test_autos_at_rank_8(self):
        # found in the 12-element stabiliser of rho_bar, not in |W| = 10321920
        out = run("autos", "--system", "C:8", "--levi", "1,2,4,5,6,7,8")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {"count": 2, "elements": [
            {"perm": [1, 2, 3, 4, 5, 6, 7, 8], "signs": [1] * 8},
            {"perm": [3, 2, 1, 4, 5, 6, 7, 8], "signs": [-1, -1, -1, 1, 1, 1, 1, 1]}]}

    def test_autos_of_the_torus_at_rank_8_refused(self):
        # rho_bar = 0, so its stabiliser is all of W
        out = run("autos", "--system", "C:8", "--levi", "")
        assert out.returncode == 3
        assert out.stderr.startswith("guard:") and "10321920" in out.stderr

    def test_branch_row_at_rank_8(self):
        # the Weyl-sum search never enumerates |W(C8)| = 10321920; in the
        # stable range the row is the sp12 > gl3+sp6 row, padded with zeros
        rows = {}
        for system, levi, zeros in (("C:8", "1,2,4,5,6,7,8", 2), ("C:6", "1,2,4,5,6", 0)):
            out = run("branch", "--system", system, "--levi", levi,
                      "--mu", ",".join(["1", "0", "0", "1", "0", "0"] + ["0"] * zeros),
                      "--box-k", "1")
            assert out.returncode == 0, out.stderr
            rows[system] = [(e["lam"], e["m"]) for e in json.loads(out.stdout)["entries"]]
        assert rows["C:8"] == [(lam + [0, 0], m) for lam, m in rows["C:6"]]
        assert rows["C:8"] == [([1, 1, 0, 0, 0, 0, 0, 0], 1), ([1, 1, 1, 1, 0, 0, 0, 0], 1),
                               ([2, 0, 0, 0, 0, 0, 0, 0], 1)]

    @pytest.mark.parametrize("family", ["C", "B", "D"])
    def test_transversal_at_rank_8(self, family):
        # W/Wbar of gl3 + a rank-5 tail has 448 elements, where |W| passes
        # the guard; each u is read back as the point z = u^-1(rho)
        out = run("u", "--system", f"{family}:8", "--levi", "1,2,4,5,6,7,8", "--full")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["count"] == len(payload["elements"]) == 448
        datum = build_root_system(family, 8)
        rho = list(datum.rho)
        points = set()
        for u in payload["elements"]:
            z = [0] * 8
            for i, (p, s) in enumerate(zip(u["perm"], u["signs"])):
                z[p - 1] = s * rho[i]
            points.add(tuple(z))
        assert len(points) == 448
        if family == "D":
            levi = build_levi(datum, (1, 2, 4, 5, 6, 7, 8))
            assert all(levi.is_dominant(Weight(z)) for z in points)
        else:
            # shuffles: three signed values of rho, sorted, for the gl3
            # block, and the other five positive and sorted
            want = {tuple(sorted((s * x for s, x in zip(signs, head)), reverse=True))
                    + tuple(x for x in rho if x not in head)
                    for head in itertools.combinations(rho, 3)
                    for signs in itertools.product((1, -1), repeat=3)}
            assert points == want

    @pytest.mark.parametrize("system,summary", [
        ("C:8", (60, 9, 216, 24, 24, 0)), ("D:8", (78, 12, 287, 34, 34, 0))])
    def test_search_at_rank_8(self, system, summary):
        out = run("search", "--system", system, "--levi", "1,2,4,5,6,7,8", "--bound", "1")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert tuple(payload[k] for k in (
            "box_size", "groups", "pairs_tested", "equal_pairs", "autos_found",
            "counterexamples")) == summary

    def test_u_count(self):
        out = run("u", "--system", "GL:3", "--levi", "1")
        assert json.loads(out.stdout)["count"] == 3

    def test_mfun_trivial(self):
        out = run("mfun", "--system", "GL:3", "--levi", "", "--mu", "0,0,0")
        payload = json.loads(out.stdout)
        assert payload["terms"] == [{"c": 6, "w": [0, 0, 0]}]

    def test_mfun_compact(self):
        out = run("mfun", "--system", "GL:6", "--levi", "1,2,3,5",
                  "--mu", "5,2,2,1,4,3", "--compact")
        payload = json.loads(out.stdout)
        assert payload["leading"] == {"sign": -1, "w": [8, 5, 3, 2, 1, -2]}

    def test_mfun_at_rank_15(self):
        # 16 packed columns do not fit in int64, so each weight is its own batch
        out = run("mfun", "--system", "GL:15", "--levi", "1", "--mu", ",".join("0" * 15),
                  "--compact")
        assert out.returncode == 0, out.stderr
        top = [1] + [0] * 13 + [-1]
        assert json.loads(out.stdout) == {
            "mu": [0] * 15, "leading": {"sign": -1, "w": top},
            "coeffs": [{"c": 1, "w": [0] * 15}, {"c": -1, "w": top}]}

    def test_lr(self):
        assert run("lr", "--lam", "3,2,1", "--mu", "2,1",
                   "--nu", "2,1").stdout.strip() == "2"
        assert run("lr", "--lam", "2,1", "--multi", "1;1;1").stdout.strip() == "2"
        assert run("lr", "--lam", "1", "--polar", "B:2",
                   "--mu", "1,0").stdout.strip() == "1"

    def test_out_holds_what_stdout_held(self, tmp_path):
        for args in (("branch", "--system", "C:2", "--levi", "1",
                      "--lam", "1,0", "--mu", "1,0"),
                     ("lr", "--lam", "3,2,1", "--mu", "2,1", "--nu", "2,1")):
            plain = run(*args)
            path = tmp_path / "f"
            out = run(*args, "--out", str(path))
            assert plain.returncode == out.returncode == 0, args
            assert out.stdout == "" and path.read_text() == plain.stdout != "", args


class TestPinnedOutputs:
    """Outputs that must stay byte-identical, by their md5."""

    @pytest.mark.parametrize("args,digest", [
        (("mfun", "--system", "GL:6", "--levi", "1,2,3,5", "--mu", "9,6,3,0,5,1"),
         "dd843ca45e942c2560fdcf05fd42b50b"),
        (("branch", "--system", "B:3", "--levi", "1,3", "--mu", "0,0,0",
          "--lam", "5,3,1", "--oracle"), "0cb2f6ece825f34f5586216922343e4b"),
        (("autos", "--system", "C:6", "--levi", "1,2,4,5,6"),
         "756d5ffcdf0d3709e0e2bccb748bd3b6"),
        (("autos", "--system", "D:5", "--levi", "1,2,4,5"),
         "6bba9843229a858e3c4a2c7501117c54"),
        (("autos", "--system", "GL:6", "--levi", "1,3,5"),
         "0ec6bc7243f252f553f617f95f3e930e"),
        (("u", "--system", "D:5", "--levi", "1,2,4,5", "--full"),
         "d49a7fb1cd22ffdaba9230e01b92c940"),
        (("compare", "--system", "B:3", "--levi", "1,3", "--mu=-1/2,-1/2,3/2",
          "--nu=-1/2,-3/2,1/2"), "531ce81596fbafdaddaf79001d258028"),
        (("compare", "--system", "GL:4", "--levi", "1,3", "--mu=2,1,1,0",
          "--nu=1,0,2,1"), "a5936ecea9e89caf6fcd4e2fa22c3697"),
        (("u", "--full", "--system", "B:4", "--levi", "1,3,4"),
         "05fb36c0b76b0fb8a833af266f459a94"),
        (("u", "--full", "--system", "C:4", "--levi", "2,4"),
         "1e1ca804b42d4a1dc62cf24199720c71"),
        (("autos", "--system", "D:4", "--levi", "1,2,4"),  # a flip block
         "345bd044fe44450dc18aa08e7de46bde"),
        # E-set coordinates far beyond the packing range of rank 4
        (("compare", "--system", "C:3", "--levi", "1", "--mu=20000,0,0",
          "--nu=19999,0,0"), "49f1b436994a26df69325f498cfc24e6"),
        # whole rows, each lambda of the box from one batched Weyl sum
        (("branch", "--system", "C:6", "--levi", "1,2,4,5,6", "--mu", "1,0,0,1,0,0",
          "--box-k", "1"), "27376f1121c71a4fcaec2d2d32438dcd"),
        (("branch", "--system", "D:5", "--levi", "1,2,4,5", "--mu", "1,0,0,0,0",
          "--box-k", "2", "--format", "csv"), "e22ce7e47e063bf5e38ca01e13ee1f40"),
        # whole rows against the restriction oracle, each lambda decomposed
        (("branch", "--system", "D:4", "--levi", "1,2,4", "--mu", "1,0,0,0",
          "--box-k", "2", "--oracle"), "12f876a3b83ca81219aadde7fb7cc5e2"),  # a flip block
        (("branch", "--system", "D:5", "--levi", "1,2,4,5", "--mu", "1,0,0,0,0",
          "--box-k", "2", "--oracle"), "0d5efa1d25f680f8113733b4243e4f36"),
        (("branch", "--system", "C:4", "--levi", "1,2,4", "--mu", "1,0,0,1",
          "--box-k", "2", "--oracle"), "bd0a60865b4fcc5effd0b805c1facdfc"),
        (("branch", "--system", "B:3", "--levi", "1,3", "--mu", "1/2,1/2,1/2",
          "--box-k", "2", "--oracle"), "ddd805379c716a049f8ec01a16145893"),  # spin
    ], ids=["mfun-GL6", "branch-oracle-B3", "autos-C6", "autos-D5", "autos-GL6",
            "u-full-D5", "compare-B3-counterexample", "compare-GL4-block-swap",
            "u-full-B4", "u-full-C4", "autos-D4-flip", "compare-C3-large",
            "branch-row-C6", "branch-row-D5-csv", "branch-oracle-row-D4-flip",
            "branch-oracle-row-D5", "branch-oracle-row-C4", "branch-oracle-row-B3-spin"])
    def test_stdout(self, args, digest):
        out = subprocess.run(CLI + list(args), capture_output=True, env=ENV)
        assert out.returncode == 0
        assert hashlib.md5(out.stdout).hexdigest() == digest

    @pytest.mark.parametrize("system,levi,bound,digest", [
        ("B:3", "1,3", "3", "1663c3275bb932b2779c2b00e8b00a64"),
        ("D:5", "1,2,4,5", "2", "1a39f9fcd370262052b1a0a3dfb0f01f"),
        ("GL:6", "1,3,5", "1", "d8b74409690039cdbaf4ba196ba36c86"),
        ("C:7", "1,2", "1", "1d72453c5097d218dcb2644517ee8906"),  # 768 automorphisms
        ("C:4", "1,2,4", "2", "f5913b647e77ab688595f16de9315e9c"),
        ("D:6", "5,6", "1", "4e12f2e3e84478c8ef94bb6a1f1e5707"),
    ], ids=["B3", "D5", "GL6", "C7", "C4", "D6"])
    def test_certificates(self, tmp_path, system, levi, bound, digest):
        certs = tmp_path / "c.jsonl"
        out = run("search", "--system", system, "--levi", levi, "--bound", bound,
                  "--certificates", str(certs))
        assert out.returncode == 0
        assert hashlib.md5(certs.read_bytes()).hexdigest() == digest


class TestConfigAndErrors:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"family": "C", "rank": 6, "levi": [1, 2, 4, 5, 6]}))
        out = run("autos", "--config", str(cfg))
        assert json.loads(out.stdout)["count"] == 2

    def test_config_mapping_builds_the_levi(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"family": "c", "rank": 6, "levi": [1, 2, 4, 5, 6]}))
        out = run("search", "--config", str(cfg), "--bound", "0")
        assert out.returncode == 0
        assert json.loads(out.stdout)["levi"] == "C6>gl3+sp6"

    def test_system_without_levi(self):
        out = run("u", "--system", "C:6")
        assert out.returncode == 2 and "--levi" in out.stderr

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "C", "rank": 2, "bogus": True}))
        out = run("autos", "--config", str(cfg))
        assert out.returncode == 2

    def test_config_that_is_not_an_object_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2]))
        out = run("autos", "--config", str(cfg))
        assert out.returncode == 2
        assert "error: config must be a JSON object, got list [1, 2]" in out.stderr

    def test_config_levi_string_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "C", "rank": 3, "levi": "1,2"}))
        out = run("autos", "--config", str(cfg))
        assert out.returncode == 2
        assert "error: config field levi must be a list of integers, got '1,2'" in out.stderr

    def test_weight_length_named(self):
        out = run("mfun", "--system", "C:3", "--levi", "1,2", "--mu", "1,,0")
        assert out.returncode == 2
        assert "error: (1,0) has 2 coordinates; C3 needs 3" in out.stderr

    def test_malformed_integers_named(self, tmp_path):
        for args, message in (
                (("u", "--system", "C:3", "--levi", "1,,2"),
                 "error: --levi entry must be an integer, got ''"),
                (("u", "--system", "C:x", "--levi", "1"),
                 "error: --system rank must be an integer, got 'x'"),
                (("mfun", "--system", "C:3", "--levi", "1", "--mu", "1,x,0"),
                 "error: coordinate 'x' is not a half-integer"),
                (("lr", "--lam", "2,x", "--mu", "1", "--nu", "1"),
                 "error: partition entry must be an integer, got 'x'")):
            out = run(*args)
            assert out.returncode == 2 and out.stderr == message + "\n", args
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "C", "rank": "x", "levi": [1]}))
        out = run("u", "--config", str(cfg))
        assert out.returncode == 2
        assert out.stderr == "error: config field rank must be an integer, got 'x'\n"

    def test_cache_dir_config_refused(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "C", "rank": 3, "levi": [1, 2],
                                   "cache_dir": str(tmp_path)}))
        out = run("branch", "--config", str(cfg), "--mu", "1,0,0")
        assert out.returncode == 2
        assert "cache_dir" in out.stderr

    def test_seed_config_refused(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "C", "rank": 3, "levi": [1, 2],
                                   "seed": 1}))
        out = run("branch", "--config", str(cfg), "--mu", "1,0,0")
        assert out.returncode == 2
        assert "seed" in out.stderr

    def test_seed_and_threads_options_refused(self):
        out = run("autos", "--system", "C:6", "--levi", "1,2,4,5,6", "--seed", "1")
        assert out.returncode == 2 and "--seed" in out.stderr
        out = run("branch", "--system", "C:3", "--levi", "1,2", "--mu", "1,0,0",
                  "--threads", "2")
        assert out.returncode == 2 and "--threads" in out.stderr
        out = run("verify")
        assert out.returncode == 2 and "invalid choice: 'verify'" in out.stderr

    def test_options_that_would_be_ignored_refused(self, tmp_path):
        c2 = ("--system", "C:2", "--levi", "1")
        out = run("search", *c2, "--bound", "1", "--resume")
        assert out.returncode == 2
        assert out.stderr == "error: --resume needs --certificates, the file to resume from\n"
        for extra, named in ((("--lam", "1,0"), "--lam"), (("--oracle",), "--oracle"),
                             (("--lam", "1,0", "--oracle"), "--lam or --oracle")):
            out = run("branch", *c2, "--mu", "1,0", "--format", "csv", *extra,
                      "--out", str(tmp_path / "f"))
            assert out.returncode == 2, extra
            assert out.stderr == ("error: --format csv writes a row only; it cannot "
                                  f"go with {named}\n"), extra
        for extra, message in (
                (("--box-k", "3"), "--box-k sizes a row only; it cannot go with --lam"),
                (("--box-k", "3", "--oracle"),
                 "--box-k sizes a row only; it cannot go with --lam"),
                (("--format", "json"), "--format json writes a row or an oracle report; "
                                       "it cannot go with --lam alone")):
            out = run("branch", *c2, "--mu", "1,0", "--lam", "1,0", *extra,
                      "--out", str(tmp_path / "f"))
            assert out.returncode == 2 and out.stderr == f"error: {message}\n", extra
        assert not list(tmp_path.iterdir())
        # the same options are honoured where they act
        assert json.loads(run("branch", *c2, "--mu", "1,0", "--lam", "1,0", "--oracle",
                              "--format", "json").stdout)["oracle_diff"] == []
        assert run("branch", *c2, "--mu", "1,0", "--box-k", "3", "--format",
                   "json").returncode == 0

    def test_validation_exit(self, tmp_path):
        assert run("branch", "--system", "X:9", "--mu", "0").returncode == 2
        assert run("branch", "--system", "C:2", "--levi", "1",
                   "--lam", "0,1", "--mu", "0,0").returncode == 2
        # negative limits name their option; 0 keeps meaning the default
        c3 = ("--system", "C:3", "--levi", "1,2")
        for args, name in ((("search", *c3, "--bound", "-1"), "--bound"),
                           (("branch", *c3, "--mu", "1,0,0", "--box-k", "-1"), "--box-k")):
            out = run(*args)
            assert out.returncode == 2 and f"argument {name}: must be >= 0" in out.stderr
        # a scan runs on one thread: no option and no config key sets more
        out = run("search", *c3, "--bound", "1", "--threads", "2")
        assert out.returncode == 2 and "unrecognized arguments: --threads 2" in out.stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "C", "rank": 3, "levi": [1, 2], "threads": 2}))
        out = run("search", "--config", str(cfg), "--bound", "1")
        assert out.returncode == 2 and "unknown config fields: ['threads']" in out.stderr
        # the group guard is a constant: no option and no config key sets it
        out = run("u", *c3, "--guard", "5")
        assert out.returncode == 2 and "unrecognized arguments: --guard 5" in out.stderr
        cfg.write_text(json.dumps({"family": "C", "rank": 3, "levi": [1, 2], "guard": 5}))
        out = run("u", "--config", str(cfg))
        assert out.returncode == 2 and "unknown config fields: ['guard']" in out.stderr

    def test_guard_exit(self):
        # |W/Wbar| = 10321920 / 2 is refused before the coset search starts
        out = run("u", "--system", "C:8", "--levi", "8")
        assert out.returncode == 3
        assert "guard" in out.stderr

    @pytest.mark.parametrize("args,label,size", [
        (("u", "--system", "C:8", "--levi", "8"),
         "W/Wbar of C8>" + "+".join(["gl1"] * 7) + "+sp2", 5160960),
        (("autos", "--system", "C:8", "--levi", ""),
         "Stab_W(rho_bar) of C8>" + "+".join(["gl1"] * 8), 10321920),
        # C(2001 + 3, 4) weakly decreasing 4-tuples, counted before any is made
        (("search", "--system", "GL:4", "--levi", "1,2,3", "--bound", "1000"),
         "weight box of GL4>gl4 at bound 1000", 670005837501)], ids=["u", "autos", "search"])
    def test_guard_message(self, args, label, size):
        out = run(*args)
        assert out.returncode == 3
        assert out.stderr == f"guard: |{label}| = {size} exceeds the guard 2000000\n"

    def test_weyl_sum_search_guard_exit(self, monkeypatch, capsys):
        # the search counts the partial elements each position makes, not
        # |W|: here at most 3 for each lambda of the row
        from levibranch import cli, weylgrp
        monkeypatch.setattr(weylgrp, "DEFAULT_GROUP_GUARD", 1)
        code = cli.main(["branch", "--system", "C:3", "--levi", "1,2", "--mu", "1,0,0",
                         "--box-k", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "guard: |Weyl-sum search in W(C3), position 2| = 2 exceeds the guard 1\n")

    def test_pack_range_exit(self):
        out = run("mfun", "--system", "GL:6", "--levi", "1",
                  "--mu", "300,0,0,0,0,-300", "--compact")
        assert out.returncode == 3
        assert out.stderr.startswith("guard:") and "512" in out.stderr

    @pytest.mark.parametrize("args", [
        ("compare", "--mu=100000000000000000000,0", "--nu=0,-100000000000000000000"),
        ("mfun", "--mu=100000000000000000000,0"),
        ("branch", "--mu=100000000000000000000,0")], ids=["compare", "mfun", "branch"])
    def test_coordinate_beyond_int64_exit(self, args):
        out = run(*args, "--system", "C:2", "--levi", "1")
        assert out.returncode == 3
        assert out.stderr.startswith("guard:") and "2^51" in out.stderr

    def test_exactness_guard_exit(self, monkeypatch, capsys):
        # a partition count at the 2^62 guard, here lowered to 3
        from levibranch import cli, kernels
        monkeypatch.setattr(kernels, "MAX_COUNT", 3)
        code = cli.main(["branch", "--system", "B:3", "--levi", "1",
                         "--lam", "4,2,0", "--mu", "0,0,0"])
        assert code == 3
        assert capsys.readouterr().err.startswith("guard: partition count exceeds")

    def test_table_size_exit(self):
        # (3000,0,-3000) over gl2+gl1 needs a 3001 x 3001 partition table
        out = run("branch", "--system", "GL:3", "--levi", "1",
                  "--lam", "3000,0,-3000", "--mu", "0,0,0")
        assert out.returncode == 3
        assert out.stderr.startswith("guard:") and "9006001 cells" in out.stderr

    def test_io_exit(self, tmp_path):
        out = run("compare", "--system", "C:2", "--levi", "1",
                  "--mu", "1,0", "--nu", "1,0",
                  "--out", str(tmp_path / "no" / "dir" / "x.json"))
        assert out.returncode == 4

    def test_missing_system(self):
        assert run("autos").returncode == 2
