"""Paired benchmark runs: a base revision against HEAD.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --base REV --label L [--seed0 S]

For every workload in BENCHMARK.json it runs `perfbench/run.py --trace 0`
on both sides, ten pairs of runs, with the run length `run_seconds` from
BENCHMARK.json.  Each side is the committed tree of its revision, REV or
HEAD, exported with `git archive` into a temporary directory of its own
(the benchmark likewise runs committed files in a fresh directory), so
the two sides run from alike places and every record measures a commit.
It refuses to start while src/ differs from HEAD: commit first.  Both
runs of a pair use the same seed, and the side that runs first alternates
from pair to pair.  Runs go one at a time, so the two sides never share
the CPU.

It writes BENCH_<L>.json at the root of the checkout.  Each side is named
by its commit and by the digest of its src/ tree that perfbench reports.
Per workload and end-to-end metric it records every run's value on each
side, each side's median and quartiles, the pairs HEAD wins (ties count
for neither side), and whether the claim rule holds: wins in at least
nine tenths of the pairs, and medians further apart than the base runs'
quartile spread.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the claim rule reads wins out of ten pairs


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed tree of rev into dest."""
    data = subprocess.run(["git", "archive", "--format=zip", rev], cwd=ROOT,
                          check=True, stdout=subprocess.PIPE).stdout
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        archive.extractall(dest)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in root: its final JSON line, with the digest of
    src/ from the run's provenance line added."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            result["src_sha256"] = prov["src_sha256"]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(metric: dict, base: list[float], head: list[float]) -> dict:
    lower = metric["better"] == "lower"
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    ties = sum(h == b for b, h in zip(base, head))
    b, h = summary(base), summary(head)
    gain = (b["median"] - h["median"]) if lower else (h["median"] - b["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": b,
        "head": h,
        "head_over_base": h["median"] / b["median"] if b["median"] else None,
        "wins": wins,
        "ties": ties,
        "claim_holds": wins >= 0.9 * len(base) and gain > b["q3"] - b["q1"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if git("status", "--porcelain", "--", "src"):
        sys.exit("src/ differs from HEAD; commit it first, so the runs measure a commit")
    out = {
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "head": {"rev": "HEAD", "commit": git("rev-parse", "HEAD")},
        "pairs": PAIRS,
        "run_seconds": seconds,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {side: Path(tmp) / side for side in ("base", "head")}
        for side, root in sides.items():
            export(out[side]["commit"], root)
        digests = {"base": set(), "head": set()}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "head": []}
            seeds, first = [], []
            for i in range(PAIRS):
                seed = args.seed0 + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed, seconds))
                    print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} {side}: "
                          + json.dumps({k: v["value"] for k, v in
                                        runs[side][-1]["metrics"].items()}), flush=True)
                seeds.append(seed)
                first.append(order[0])
            for side, rs in runs.items():
                digests[side] |= {r["src_sha256"] for r in rs}
            out["workloads"][workload] = {
                "seeds": seeds,
                "first": first,
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "metrics": {
                    m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[s]]
                                            for s in ("base", "head")))
                    for m in spec["end_to_end"]
                },
            }
    for side, found in digests.items():
        out[side]["src_sha256"] = sorted(found)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
