"""Command line front end.

Subcommands: branch, compare, search, autos, u, mfun, lr.  Output is
deterministic: identical configuration yields byte-identical primary output
(wall-clock fields appear only in summary metadata).  ``--out`` writes the
primary output to a file instead of stdout, for every subcommand.

Exit codes: 0 success, 2 validation error (also for an option the command
would ignore), 3 group/size guard exceeded (also a coordinate or a count
beyond exact int64 arithmetic), 4 I/O failure.  No command exits 1.  The
group guard is a constant and a scan runs on one thread: no option or
config key sets either.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import nullcontext

from . import kernels
from .branching import (branch_by_restriction, branch_multiplicity, branch_row,
                        build_m)
from .equivalence import classify_pair, replay_resume_state, search_box
from .rootsys import (LeviDatum, RootSystemError, Weight,
                      WeightError, build_levi, build_root_system)
from .typea_lr import Partition, lr_coefficient, multi_lr, polarisation_branch
from .weightpoly import BudgetError
from .weylgrp import GroupSizeError, diagram_automorphisms, transversal

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_IO = 4

_CONFIG_FIELDS = {"family", "rank", "levi"}


def _load_config(args) -> LeviDatum:
    """The Levi that ``--system``/``--levi`` and ``--config`` describe; the
    options override the config's entries."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise RootSystemError(
                f"config must be a JSON object, got {type(data).__name__} {data!r}")
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise RootSystemError(f"unknown config fields: {sorted(unknown)}")
        levi = data.get("levi", [])
        if not (isinstance(levi, list) and all(type(i) is int for i in levi)):
            raise RootSystemError(
                f"config field levi must be a list of integers, got {levi!r}")
    if args.system:
        fam, _, rk = args.system.partition(":")
        data["family"] = fam
        data["rank"] = _integer(rk, "--system rank") if rk else None
    if getattr(args, "levi", None) is not None:
        data["levi"] = ([_integer(x, "--levi entry") for x in args.levi.split(",")]
                        if args.levi else [])
    if "family" not in data or data.get("rank") is None:
        raise RootSystemError("no root system given; use --system FAMILY:RANK or --config")
    datum = build_root_system(str(data["family"]).upper(),
                              _integer(data["rank"], "config field rank"))
    if "levi" not in data:
        raise RootSystemError("this command needs --levi (or a levi config entry)")
    return build_levi(datum, data["levi"])


def _integer(value, name: str) -> int:
    """``int(value)``, or a validation error that names the field it came from."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise RootSystemError(f"{name} must be an integer, got {value!r}") from None


def _count_arg(text: str) -> int:
    """An option value that is a nonnegative integer (argparse names the option)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _emit(payload, out_path=None) -> None:
    """Write ``payload`` as indented JSON, or as it is when it is text, in
    pieces of 2^14 encoder chunks: few writes even to an unbuffered stdout."""
    chunks = iter([payload]) if isinstance(payload, str) else itertools.chain(
        json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload), "\n")
    with open(out_path, "w") if out_path else nullcontext(sys.stdout) as fh:
        for piece in iter(lambda: "".join(itertools.islice(chunks, 1 << 14)), ""):
            fh.write(piece)


# -- subcommands ---------------------------------------------------------------

def cmd_branch(args) -> int:
    given = [opt for opt, on in (("--lam", args.lam), ("--oracle", args.oracle)) if on]
    if args.format == "csv" and given:
        raise ValueError(f"--format csv writes a row only; it cannot go with "
                         f"{' or '.join(given)}")
    if args.lam and args.box_k is not None:
        raise ValueError("--box-k sizes a row only; it cannot go with --lam")
    if args.lam and args.format == "json" and not args.oracle:
        raise ValueError("--format json writes a row or an oracle report; "
                         "it cannot go with --lam alone")
    levi = _load_config(args)
    mu = Weight.parse(args.mu)
    if args.lam:
        lam = Weight.parse(args.lam)
        value = branch_multiplicity(levi, lam, mu)
        if args.oracle:
            row = branch_by_restriction(levi, lam)
            oracle_value = row.get(mu, 0)
            diff = [] if oracle_value == value else [
                {"lam": lam.to_json(), "mu": mu.to_json(),
                 "sum": value, "oracle": oracle_value}]
            _emit({"multiplicity": value, "oracle": oracle_value,
                   "oracle_diff": diff}, args.out)
        else:
            _emit(f"{value}\n", args.out)
    else:
        row = branch_row(levi, mu, 2 if args.box_k is None else args.box_k)
        if args.oracle:
            diffs = []
            for lam in row.box:
                oracle = branch_by_restriction(levi, lam).get(mu, 0)
                if oracle != row.entries[lam]:
                    diffs.append({"lam": lam.to_json(), "sum": row.entries[lam],
                                  "oracle": oracle})
            payload = row.to_json()
            payload["oracle_diff"] = diffs
            _emit(payload, args.out)
        elif args.format == "csv":
            _emit(row.to_csv(), args.out)
        else:
            _emit(row.to_json(), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    levi = _load_config(args)
    mu = Weight.parse(args.mu)
    nu = Weight.parse(args.nu)
    verdict = classify_pair(levi, mu, nu)
    _emit(verdict.to_json(), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.resume and not args.certificates:
        raise ValueError("--resume needs --certificates, the file to resume from")
    levi = _load_config(args)
    resume = set()
    if args.resume:
        resume, offset = replay_resume_state(args.certificates)
        if os.path.exists(args.certificates):
            with open(args.certificates, "r+b") as fh:
                fh.truncate(offset)
    # line-buffered, so every finished group is on disk before the next starts
    sink = open(args.certificates, "a", buffering=1) if args.certificates else None
    try:
        summary = search_box(levi, args.bound, sink=sink, resume_keys=resume)
    finally:
        if sink:
            sink.close()
    _emit(summary.to_json(), args.out)
    return EXIT_OK


def cmd_group(args) -> int:
    """``autos`` and ``u``: the order of the group, and its elements if ``full``."""
    group = args.group(_load_config(args))
    payload = {"count": len(group)}
    if args.full:
        payload["elements"] = group.to_json()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_mfun(args) -> int:
    levi = _load_config(args)
    mu = Weight.parse(args.mu)
    fn = build_m(levi, mu)
    lam, sign = fn.leading()
    payload = {"mu": mu.to_json(), "leading": {"w": lam.to_json(), "sign": sign}}
    if args.compact:
        payload["coeffs"] = fn.to_json()["coeffs"]
    else:
        payload["terms"] = fn.poly().to_json()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_lr(args) -> int:
    def partition(text: str) -> Partition:
        return Partition(_integer(x, "partition entry") for x in text.split(",") if x.strip())

    if args.polar:
        fam, _, rk = args.polar.partition(":")
        value = polarisation_branch(fam.upper(), _integer(rk, "--polar rank"),
                                    Weight.parse(args.mu), partition(args.lam))
    elif args.multi:
        value = multi_lr(partition(args.lam), [partition(b) for b in args.multi.split(";")])
    else:
        value = lr_coefficient(partition(args.lam), partition(args.mu), partition(args.nu))
    _emit(f"{value}\n", args.out)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levibranch",
        description="Exact branching to Levi subalgebras and induced-character "
                    "equality for the classical families.  A Weyl group of more "
                    "than 2,000,000 elements is never enumerated (exit 3).")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--system", help="root system FAMILY:RANK, e.g. C:6")
        p.add_argument("--levi", help="retained simple-root indices, e.g. 1,2,4,5,6")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write primary output to this file")

    p = sub.add_parser("branch", help="branching multiplicity or a whole row")
    common(p)
    p.add_argument("--lam", help="ambient highest weight")
    p.add_argument("--mu", required=True, help="Levi highest weight")
    p.add_argument("--oracle", action="store_true",
                   help="also run the restriction oracle and report diffs")
    p.add_argument("--box-k", type=_count_arg,
                   help="row box: lambda <= mu + k * highest root (default 2)")
    p.add_argument("--format", choices=("json", "csv"),
                   help="row output (default json)")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("compare", help="decide equality of two induced characters")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("search", help="scan a dominant box for equal pairs")
    common(p)
    p.add_argument("--bound", type=_count_arg, required=True)
    p.add_argument("--certificates", help="append JSONL verdicts to this file")
    p.add_argument("--resume", action="store_true",
                   help="skip groups already completed in the certificate file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("autos", help="diagram automorphisms inside the Weyl group")
    common(p)
    p.set_defaults(func=cmd_group, group=diagram_automorphisms, full=True)

    p = sub.add_parser("u", help="minimal-length coset transversal")
    common(p)
    p.add_argument("--full", action="store_true", help="list the elements")
    p.set_defaults(func=cmd_group, group=transversal)

    p = sub.add_parser("mfun", help="the finite M-function of a Levi weight")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--compact", action="store_true",
                   help="emit orbit-sum coefficients instead of the expansion")
    p.set_defaults(func=cmd_mfun)

    p = sub.add_parser("lr", help="Littlewood-Richardson and polarisation numbers")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    p.add_argument("--multi", help="semicolon-separated factors, e.g. '1;1;1'")
    p.add_argument("--polar", help="polarisation family:rank, e.g. C:2")
    p.add_argument("--out", help="write primary output to this file")
    p.set_defaults(func=cmd_lr)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except (GroupSizeError, BudgetError, kernels.PackRangeError, OverflowError) as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return EXIT_GUARD
    except (WeightError, RootSystemError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
