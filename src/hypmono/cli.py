"""Batch command-line front end.

One subcommand per reproducible artifact: digit-lemma verification runs,
trace tables with their statistics, parameter-set classification, and the
full reproduction suite.  Exit codes: 0 success, 1 verification failure,
2 usage error (any ValueError a command raises: parameters the model
refuses included, and an --out that cannot be made, refused before any
computation), 3 resource cap exceeded (`CapExceededError`).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import acceptance, exp_sums, hyp_params, kubert
from .errors import CapExceededError
from .finite_field import build_field


def _dump(obj, fh) -> None:
    json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
    fh.write("\n")


def _emit_records(records, out_path, label):
    if out_path is None:
        for rec in records:
            _dump(rec, sys.stdout)
    else:
        with open(out_path, "w") as fh:
            for rec in records:
                _dump(rec, fh)
        print(f"{label}: wrote {out_path}")


def cmd_verify_digit_lemma(args) -> int:
    family = args.family
    lemma = getattr(kubert, f"verify_lemma_{family}")
    r_max = args.r_max if args.r_max is not None else kubert.LEMMAS[family].r_ext
    if r_max < 1:
        raise ValueError(f"--r-max must be at least 1, not {r_max}")
    reports = [lemma(r) for r in range(1, r_max + 1)]
    reports += kubert.bracket_reports(family, r_max)
    out = Path(args.out) / f"digit_lemma_{family}.ndjson" if args.out else None
    _emit_records([rec for rep in reports for rec in rep.to_json_records()],
                  out, f"digit-lemma {family}")
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_trace_table(args) -> int:
    fam = exp_sums.FAMILIES[args.family]
    k = args.field_degree
    if k < 1:
        raise ValueError(f"--field-degree must be at least 1, not {k}")
    field = build_field(fam.p, k)
    modes = ["exact", "float"] if args.mode == "both" else [args.mode]
    tables = {
        mode: exp_sums.trace_table_all(field, fam.kind, A=fam.A, B=fam.B, mode=mode)
        for mode in modes
    }
    stats = exp_sums.table_stats(*tables.values())
    out_dir = Path(args.out)
    base = f"trace_{args.family}_q{field.q}"
    for mode, table in tables.items():
        exp_sums.export_csv(table, out_dir / f"{base}_{mode}.csv")
    with open(out_dir / f"{base}_stats.json", "w") as fh:
        _dump(stats, fh)
    print(f"trace-table {args.family} over q={field.q}: "
          f"M1={stats['M1']:.6f} max|T|={stats['max_abs']:.4f} -> {out_dir}")
    return 0 if exp_sums.stats_pass(stats) else 1


def cmd_classify(args) -> int:
    if args.family:
        if (args.p, args.A, args.B) != (None, None, None):
            raise ValueError("--family takes no --p, --A or --B")
        fam = exp_sums.FAMILIES[args.family]
        label, kind, p, A, B = args.family, fam.kind, fam.p, fam.A, fam.B
    elif args.A is None or args.p is None:
        raise ValueError("need --family or both --p and --A")
    else:
        p, A, B = args.p, args.A, args.B
        label, kind = (f"{A}x", "Atimes") if B is None else (f"{A}x{B}", "AxB")
    # the A-times spec does not read B, so its report leaves B out
    params = {"A": A, "B": B} if kind == "AxB" else {"A": A}
    spec = hyp_params.build_spec(kind, p, A, B)
    report = hyp_params.classification_report(spec, label, params)
    _emit_records([report], Path(args.out) if args.out else None, f"classify {label}")
    return 0


def cmd_reproduce_all(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    out_dir = Path(args.out)
    man = acceptance.manifest(results)
    with open(out_dir / "manifest.json", "w") as fh:
        _dump(man, fh)
    timings = {r.cid: round(r.elapsed_s, 3) for r in results}
    with open(out_dir / "timings.json", "w") as fh:
        _dump(timings, fh)
    for r in results:
        print(f"{r.cid} {'PASS' if r.passed else 'FAIL'} {r.description}")
    print(f"manifest: {out_dir / 'manifest.json'}")
    return 0 if man["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypmono",
        description="verification suite for three hypergeometric local systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("verify-digit-lemma",
                        help="exhaustive digit-sum lemma verification")
    p1.add_argument("--family", required=True, choices=list(kubert.LEMMAS))
    p1.add_argument("--r-max", type=int, default=None,
                    help="defaults per family: " + ", ".join(
                        f"{name} -> {lemma.r_ext}" for name, lemma in kubert.LEMMAS.items()))
    p1.add_argument("--out", default=None)
    p1.set_defaults(func=cmd_verify_digit_lemma)

    p2 = sub.add_parser("trace-table",
                        help="build a trace table with statistics and checks")
    p2.add_argument("--family", required=True, choices=list(exp_sums.FAMILIES))
    p2.add_argument("--field-degree", type=int, required=True)
    p2.add_argument("--mode", choices=["exact", "float", "both"], default="float")
    p2.add_argument("--out", default=".")
    p2.set_defaults(func=cmd_trace_table)

    p3 = sub.add_parser("classify", help="classify a parameter set")
    p3.add_argument("--family", choices=list(exp_sums.FAMILIES), default=None)
    p3.add_argument("--p", type=int, default=None)
    p3.add_argument("--A", type=int, default=None)
    p3.add_argument("--B", type=int, default=None)
    p3.add_argument("--out", default=None)
    p3.set_defaults(func=cmd_classify)

    p4 = sub.add_parser("reproduce-all",
                        help="run every acceptance criterion and write a manifest")
    p4.add_argument("--seed", type=int, default=20240601)
    p4.add_argument("--out", default="reproduction")
    p4.set_defaults(func=cmd_reproduce_all)
    return parser


def _make_out_dir(args) -> None:
    """Make the directory a command writes into: its --out, or for
    `classify`, whose --out names a file, the parent of that file.
    Raises OSError where it cannot be made."""
    if args.out is None:
        return
    out = Path(args.out)
    if args.command == "classify":
        if out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
        out = out.parent
    out.mkdir(parents=True, exist_ok=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _make_out_dir(args)
    except OSError as exc:
        print(f"{args.command}: cannot write to --out {args.out}: {exc.filename}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # parameters the model refuses
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
