"""The benchmark workloads: the jobs of one iteration and the checks of
their outputs.

A user runs hypmono as a batch tool, one command at a time, so every job is
one user-level call in a fresh interpreter: `hypmono.cli.main` with the
argv a user would type, or the public finite_field functions where no
subcommand exists.  A fresh interpreter per job also keeps the in-process
caches (`build_field`, `acceptance._table_cached`, `cyclotomic._context`)
from turning later iterations into cache hits.  No job passes `--workers`,
so the CLI defaults apply.

Why these workloads:
- reproduce: the headline command.  About 90% of it is the kubert digit
  kernels and scans (C1, C2, C4), which no other workload runs.
- trace-tables: the float trace pipeline at the largest q the float cap
  allows in each characteristic, with a smaller q below each for the
  time-against-q slope.  At 2^14 the O(q^2) convolution and additive
  transform dominate; at 3^8 the base-3 `FieldTable.add` inside the
  twisted sums does.  Then the exact pipeline at the exact cap, in both
  modes: int64 convolutions over Z[zeta_m], CycNumber construction, and
  the Galois, integrality and rationality checks.  The exact tables take
  about 1 s of the 30; they are not a workload of their own because, as
  short jobs, their run-to-run spread on a shared host (7-38% over
  batches of 5-10 runs) was at times wider than any bound the benchmark
  may set.
- field-large: field construction at sizes where it is the bottleneck, with
  a write path (save_cache) beside a read path (load_cache, which
  re-verifies everything).
"""

from __future__ import annotations

import base64
import cmath
import functools
import hashlib
import json
import math
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
FAMILY_P = {"3x13": 2, "4x5": 3, "28x": 3}
TRACE_FLOAT = (("3x13", 10), ("3x13", 12), ("3x13", 14), ("4x5", 6), ("4x5", 8))
TRACE_EXACT = (("3x13", 10), ("4x5", 6), ("28x", 6))
FIELDS = ((2, 20), (3, 12))
SAMPLES = 512  # reference points checked per float table


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    gap: float = 0.0  # distance from the reference values, where there is one


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def array_digest(a) -> str:
    """sha256 of an integer table as little-endian int64."""
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _exit_ok(result: dict, job: str) -> Check:
    return Check(f"{job}.exit", result.get("rc") == 0)


def decode_lattice(ref: dict) -> np.ndarray:
    """Reference table values a + b*zeta_p, stored as int8 a and b."""
    a, b = (np.frombuffer(zlib.decompress(base64.b64decode(ref[k])), dtype=np.int8)
            for k in ("a", "b"))
    return a + b * cmath.exp(2j * math.pi / ref["p"])


def _number(text: str) -> float:
    # export_csv writes repr() of numpy scalars, which numpy >= 2 spells
    # "np.float64(x)"; accept that form as well as a plain float
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def sample_rows(seed: int, name: str, n: int) -> list[int]:
    return random.Random(f"{seed}:{name}").sample(range(n), min(SAMPLES, n))


def sample_gap(csv_path: Path, ref: dict, seed: int, name: str) -> float:
    """Largest |value - reference| over seeded sample rows of a float CSV;
    infinite when the file is missing or malformed."""
    try:
        lines = csv_path.read_text().splitlines()
    except OSError:
        return math.inf
    want = decode_lattice(ref)
    if len(lines) != len(want) + 1 or lines[0] != "s_log_index,re,im":
        return math.inf
    gap = 0.0
    for i in sample_rows(seed, name, len(want)):
        try:
            idx, re, im = lines[i + 1].split(",")
            z = complex(_number(re), _number(im))
        except ValueError:
            return math.inf
        if int(idx) != i:
            return math.inf
        gap = max(gap, abs(z - want[i]))
    return gap


# ----------------------------------------------------------------------
# checks, one function per kind of job

def fail_frac(checks: list[Check]) -> float:
    """check_fail_frac: failed output checks, nonzero exits included, over
    the checks attempted."""
    return sum(not c.ok for c in checks) / len(checks)


def check_reproduce(out: Path, result: dict, seed: int) -> list[Check]:
    want = reference()["reproduce"]["manifest_sha256"]
    return [_exit_ok(result, "reproduce-all"),
            Check("manifest_sha256", _sha256(out / "manifest.json") == want)]


def check_trace_float(base: Path, result: dict, seed: int) -> list[Check]:
    ref = reference()["trace_float"][base.name]
    stats = _json(base.with_name(base.name + "_stats.json"))
    m1 = stats.get("M1")
    gap = sample_gap(base.with_name(base.name + "_float.csv"), ref, seed, base.name)
    name = base.name
    return [
        _exit_ok(result, name),
        Check(f"{name}.purity_pass", stats.get("purity_pass") is True),
        Check(f"{name}.frobenius_pass", stats.get("frobenius_pass") is True),
        Check(f"{name}.M1", m1 is not None and abs(m1 - 1) <= 10 / math.sqrt(ref["q"])),
        Check(f"{name}.samples", gap <= ref["tol"], gap),
    ]


def check_trace_exact(base: Path, result: dict, seed: int) -> list[Check]:
    ref = reference()["trace_exact"][base.name]
    stats = _json(base.with_name(base.name + "_stats.json"))
    passes = sorted(k for k in stats if k.endswith("_pass"))
    name = base.name
    return [
        _exit_ok(result, name),
        Check(f"{name}.pass_keys", passes == ref["pass_keys"]),
        Check(f"{name}.all_pass", bool(passes) and all(stats[k] is True for k in passes)),
        Check(f"{name}.float_gap_over_tol", stats.get("float_gap_over_tol") == 0),
        Check(f"{name}.exact_csv_sha256",
              _sha256(base.with_name(name + "_exact.csv")) == ref["exact_csv_sha256"]),
    ]


def check_fields(result: dict, seed: int) -> list[Check]:
    facts = result.get("fields", {})
    checks = [_exit_ok(result, "fields")]
    for label, ref in reference()["field_large"].items():
        got = facts.get(label, {})
        checks += [
            Check(f"{label}.identical", got.get("identical") is True),
            Check(f"{label}.antilog", got.get("antilog") == ref["antilog"]),
            Check(f"{label}.trace_table", got.get("trace_table") == ref["trace_table"]),
        ]
    return checks


# ----------------------------------------------------------------------
# jobs

def trace_job(family: str, k: int, mode: str, out: Path):
    argv = ["trace-table", "--family", family, "--field-degree", str(k),
            "--mode", mode, "--out", str(out)]
    base = out / f"trace_{family}_q{FAMILY_P[family] ** k}"
    check = check_trace_exact if mode == "both" else check_trace_float
    return {"kind": "cli", "argv": argv}, functools.partial(check, base)


def jobs(workload: str, seed: int, out: Path) -> list:
    """(spec, check) pairs of one iteration; check(result, seed) -> [Check]."""
    if workload == "reproduce":
        argv = ["reproduce-all", "--seed", str(seed), "--out", str(out)]
        return [({"kind": "cli", "argv": argv}, functools.partial(check_reproduce, out))]
    if workload == "trace-tables":
        return ([trace_job(f, k, "float", out) for f, k in TRACE_FLOAT]
                + [trace_job(f, k, "both", out) for f, k in TRACE_EXACT])
    if workload == "field-large":
        spec = {"kind": "field", "fields": FIELDS, "dir": str(out)}
        return [(spec, check_fields)]
    raise KeyError(workload)


WORKLOADS = ("reproduce", "trace-tables", "field-large")
