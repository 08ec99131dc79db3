"""Field-build, float-table, trace-table command and digit-scan cost
against q, one fresh process a point.

Usage, from the root of a checkout:

    python3 tools/q_sweep.py --label L [--base REV] [--only PREFIX ...]

At q = 2^10, 2^12, ..., 2^24 and 3^6, 3^7, ..., 3^15, up to the degree
caps, it times three calls, each in a new interpreter that imports hypmono
from the checkout's src/, three runs a point:

- `build_field(p, k)`;
- the float `trace_table_all` of the family over that characteristic,
  3x13 for p = 2 and 4x5 for p = 3, after an untimed `build_field`.  The
  4x5 table needs quartic characters, 4 | q - 1, so p = 3 has it at even
  k only;
- the whole `trace-table --mode float` command of that family, field
  build, table, checks and CSV export, as `hypmono.cli.main` into a
  temporary directory, up to 2^22 and 3^14 (the CSV at 2^24 alone is
  about 0.5 GB).

For each digit lemma family (3x13, 4x5, 28) it times two exhaustive
scans at q = p^r, r = 8 up to `kubert.R_CAP[p]`, the same way, each
after an untimed call of the same function at r = 2:

- `verify_lemma_<family>(r)`, over 0 <= x < p^r;
- `verify_brackets(family, r)`, over 0 < x < p^r - 1, at even r only
  for 3x13.

Each process reports the time of the call alone and its max RSS
(`ru_maxrss`, so a table's RSS includes its field); a point keeps the
median time and the largest RSS of its runs, and a table point also the
sha256 of its float values, a command point that of its CSV and the
CSV's size in bytes, a scan point that of its reports, to compare the
sweeps of two trees.  Per
series the points are listed by log2 q with log2 of the time, and each
step between neighbours carries the slope log(t2 / t1) / log(q2 / q1):
about 1 for O(q) and for O(q log q) at these sizes, 2 for O(q^2), 0.5
for a scan in O(sqrt(q)).

It writes BENCH_<L>-sweep.json at the root of the checkout and prints one
line per point.  Runs go one at a time; the 3x13 table at 2^24 peaks near
2 GB.  `--only` keeps the series whose names start with one of its
prefixes, such as `scan.` or `cli.p3`.

With `--base REV` it sweeps two trees, the committed trees of REV and of
HEAD, each exported with `git archive` into a temporary directory as
`tools/bench_pairs.py` does, and refuses to start while src/ differs
from HEAD.  The two trees alternate point by point: each run of a point
goes on both trees, and the tree that runs first alternates from run to
run, so a change in host load falls on both alike.  Every process runs
this file's timing code with the tree's src/ on PYTHONPATH.  HEAD's
points go to BENCH_<L>-sweep.json and REV's to BENCH_<L>-sweep-base.json,
each file naming its commit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, git

ROOT = Path(__file__).resolve().parent.parent
FAMILY = {2: "3x13", 3: "4x5"}
DEGREES = {2: range(10, 25, 2), 3: range(6, 16)}
CLI_DEGREES = {2: range(10, 23, 2), 3: range(6, 15, 2)}
REPEAT = 3


def child(job: str, p: int, k: int) -> None:
    """Run one timed call in this process and print its JSON record."""
    import functools
    import hashlib
    import resource
    import tempfile
    import time

    from hypmono.exp_sums import FAMILIES, trace_table_all
    from hypmono.finite_field import build_field

    out = {}
    if job.startswith(("lemma.", "brackets.")):
        from hypmono import kubert

        kind, family = job.split(".")
        if kind == "lemma":
            scan = getattr(kubert, f"verify_lemma_{family}")
        else:
            scan = functools.partial(kubert.verify_brackets, family)
        scan(2)
        t0 = time.perf_counter()
        reports = scan(k)
        out["s"] = time.perf_counter() - t0
        if kind == "lemma":
            reports = [reports]
        records = [rec for rep in reports for rec in rep.to_json_records()]
        for rec in records:
            del rec["elapsed_ms"]
        out["sha256"] = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    elif job == "cli":
        from hypmono.cli import main

        with tempfile.TemporaryDirectory(prefix="q-sweep-") as tmp:
            argv = ["trace-table", "--family", FAMILY[p], "--field-degree", str(k),
                    "--mode", "float", "--out", tmp]
            t0 = time.perf_counter()
            rc = main(argv)
            out["s"] = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {rc}")
            with open(next(Path(tmp).glob("*_float.csv")), "rb") as fh:
                out["sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()
                out["csv_bytes"] = fh.tell()
    elif job == "build":
        t0 = time.perf_counter()
        build_field(p, k)
        out["s"] = time.perf_counter() - t0
    else:
        field = build_field(p, k)
        fam = FAMILIES[FAMILY[p]]
        t0 = time.perf_counter()
        table = trace_table_all(field, fam.kind, A=fam.A, B=fam.B, mode="float")
        out["s"] = time.perf_counter() - t0
        out["sha256"] = hashlib.sha256(table.float_values.tobytes()).hexdigest()
        out["float_err"] = table.float_err
    out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def run_point(job: str, p: int, k: int, srcs: dict[str, Path]) -> dict[str, dict]:
    """The point of each tree in srcs, its runs alternating between them."""
    runs = {side: [] for side in srcs}
    for i in range(REPEAT):
        for side in list(srcs)[::1 if i % 2 == 0 else -1]:
            env = dict(os.environ, PYTHONPATH=str(srcs[side]), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run(
                [sys.executable, __file__, "--child", job, str(p), str(k)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{job} at {p}^{k} on {side} exited "
                                   f"{proc.returncode}:\n{proc.stderr}")
            runs[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {side: summarise(job, p, k, rs) for side, rs in runs.items()}


def summarise(job: str, p: int, k: int, runs: list[dict]) -> dict:
    point = {"p": p, "k": k, "q": p ** k, "log2_q": k * math.log2(p),
             "runs_s": [r["s"] for r in runs],
             "s": statistics.median(r["s"] for r in runs),
             "max_rss_mb": max(r["max_rss_mb"] for r in runs)}
    point["log2_s"] = math.log2(point["s"])
    if job != "build":
        digests = {r["sha256"] for r in runs}
        if len(digests) != 1:
            raise RuntimeError(f"{job} at {p}^{k} differs between runs")
        point["sha256"] = digests.pop()
    if job == "table":
        point["float_err"] = runs[0]["float_err"]
    if job == "cli":
        point["csv_bytes"] = runs[0]["csv_bytes"]
    return point


def slopes(points: list[dict]) -> list[dict]:
    return [{"from_q": a["q"], "to_q": b["q"],
             "slope": (b["log2_s"] - a["log2_s"]) / (b["log2_q"] - a["log2_q"])}
            for a, b in zip(points, points[1:])]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="writes BENCH_<label>-sweep.json")
    parser.add_argument("--base", help="git revision to sweep beside HEAD, point by point")
    parser.add_argument("--only", nargs="+", default=[""], metavar="PREFIX",
                        help="sweep only the series whose names start with a prefix")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.label is None:
        parser.error("--label is required")
    return args


def series() -> list[tuple[str, str, int, list[int]]]:
    """(series name, job, p, degrees or r) of every series, in sweep order."""
    out = []
    for p, ks in DEGREES.items():
        for job in ("build", "table", "cli"):
            name = f"{job}.p{p}" + (f".{FAMILY[p]}" if job != "build" else "")
            degrees = CLI_DEGREES[p] if job == "cli" else ks
            if job == "table" and p == 3:
                degrees = [k for k in degrees if k % 2 == 0]  # 4 | 3^k - 1
            out.append((name, job, p, list(degrees)))
    sys.path.insert(0, str(ROOT / "src"))  # for the scans' families and r caps
    from hypmono.kubert import LEMMAS, R_CAP

    for family, lemma in LEMMAS.items():
        p = lemma.p
        for kind in ("lemma", "brackets"):
            rs = [r for r in range(8, R_CAP[p] + 1)
                  if not (kind == "brackets" and lemma.even_r_brackets and r % 2)]
            out.append((f"scan.{kind}.{family}", f"{kind}.{family}", p, rs))
    return out


def sweep(srcs: dict[str, Path], only: list[str]) -> dict[str, dict]:
    """The series of each tree in srcs, one point after another."""
    machine = {"python": platform.python_version(), "platform": platform.platform(),
               "processor": platform.processor(), "cpus": os.cpu_count()}
    out = {side: {"repeat": REPEAT, "machine": machine, "series": {}} for side in srcs}
    for name, job, p, degrees in series():
        if not name.startswith(tuple(only)):
            continue
        points = {side: [] for side in srcs}
        for k in degrees:
            got = run_point(job, p, k, srcs)
            times = []
            for side, point in got.items():
                points[side].append(point)
                times.append(f"{side} {point['s'] * 1e3:.2f} ms, {point['max_rss_mb']:.0f} MB")
            print(f"{name} q={p}^{k}: " + "; ".join(times), flush=True)
        for side, pts in points.items():
            out[side]["series"][name] = {"points": pts, "steps": slopes(pts)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        job, p, k = args.child
        child(job, int(p), int(k))
        return 0
    paths = {"head": ROOT / f"BENCH_{args.label}-sweep.json"}
    if args.base is None:
        results = sweep({"head": ROOT / "src"}, args.only)
    else:
        if git("status", "--porcelain", "--", "src"):
            sys.exit("src/ differs from HEAD; commit it first, so the sweep measures a commit")
        paths["base"] = ROOT / f"BENCH_{args.label}-sweep-base.json"
        commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
        with tempfile.TemporaryDirectory(prefix="q-sweep-") as tmp:
            for side, commit in commits.items():
                export(commit, Path(tmp) / side)
            results = sweep({side: Path(tmp) / side / "src" for side in commits}, args.only)
        for side, commit in commits.items():
            results[side]["commit"] = commit
    for side, path in paths.items():
        path.write_text(json.dumps(results[side], indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
