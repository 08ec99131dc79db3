"""Regenerate reference.json, the pinned outputs the benchmark checks against.

Usage, from the root of a checkout (takes about a minute):

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good: every check of the
benchmark compares against what this script records.  Float trace tables
are stored exactly, as a + b*zeta_p with small integers a and b; the script
refuses to write them unless every float value rounds to that lattice with
a margin far inside the table's certified error bound, and unless the
tables within the exact cap equal the exact pipeline's values.
"""

from __future__ import annotations

import base64
import cmath
import hashlib
import json
import math
import sys
import tempfile
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from hypmono import build_field, exp_sums  # noqa: E402
from hypmono.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402


def _lattice(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, float]:
    zeta = cmath.exp(2j * math.pi / p)
    b = np.rint(values.imag / zeta.imag) if p > 2 else np.zeros(len(values))
    a = np.rint(values.real - b * zeta.real)
    margin = float(np.abs(values - (a + b * zeta)).max())
    return a.astype(np.int8), b.astype(np.int8), margin


def _pack(arr: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(arr.tobytes(), 9)).decode()


def _table(family: str, k: int, mode: str):
    fam = exp_sums.FAMILIES[family]
    a_param = fam.A if fam.kind == "AxB" else None
    return exp_sums.trace_table_all(build_field(fam.p, k), fam.kind, A=a_param,
                                    B=fam.B, mode=mode)


def trace_float() -> dict:
    out = {}
    for family, k in workloads.TRACE_FLOAT:
        t = _table(family, k, "float")
        a, b, margin = _lattice(t.float_values, t.p)
        if margin > t.float_err or margin > 1e-6:
            raise SystemExit(f"{family} q={t.field.q}: values are off the lattice "
                             f"by {margin:g} (bound {t.float_err:g})")
        if t.field.q <= exp_sums._EXACT_Q_CAP:
            exact = np.array([v.to_complex() for v in _table(family, k, "exact").exact_values])
            zeta = cmath.exp(2j * math.pi / t.p)
            if np.abs(exact - (a + b * zeta)).max() > 1e-9:
                raise SystemExit(f"{family} q={t.field.q}: float and exact tables differ")
        out[f"trace_{family}_q{t.field.q}"] = {
            "p": t.p, "q": t.field.q, "tol": t.float_err, "margin": margin,
            "a": _pack(a), "b": _pack(b),
        }
        print(f"{family} q={t.field.q}: certified bound {t.float_err:.3g}, "
              f"observed margin {margin:.3g}")
    return out


def trace_exact(tmp: Path) -> dict:
    out = {}
    for family, k in workloads.TRACE_EXACT:
        spec, _ = workloads.trace_job(family, k, "both", tmp)
        if cli_main(spec["argv"]) != 0:
            raise SystemExit(f"trace-table {family} failed")
        base = f"trace_{family}_q{workloads.FAMILY_P[family] ** k}"
        stats = json.loads((tmp / f"{base}_stats.json").read_text())
        keys = sorted(key for key in stats if key.endswith("_pass"))
        if not all(stats[key] is True for key in keys) or stats["float_gap_over_tol"] != 0:
            raise SystemExit(f"trace-table {family}: a check failed: {stats}")
        out[base] = {
            "pass_keys": keys,
            "exact_csv_sha256": hashlib.sha256(
                (tmp / f"{base}_exact.csv").read_bytes()).hexdigest(),
        }
    return out


def field_large() -> dict:
    return {
        f"F{p}_{k}": {"antilog": workloads.array_digest(f.antilog),
                      "trace_table": workloads.array_digest(f.trace_table)}
        for p, k in workloads.FIELDS
        for f in [build_field(p, k)]
    }


def reproduce(tmp: Path) -> dict:
    if cli_main(["reproduce-all", "--out", str(tmp)]) != 0:
        raise SystemExit("reproduce-all failed")
    return {"manifest_sha256": hashlib.sha256((tmp / "manifest.json").read_bytes()).hexdigest()}


def main() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        ref = {
            "reproduce": reproduce(Path(tmp)),
            "trace_float": trace_float(),
            "trace_exact": trace_exact(Path(tmp)),
            "field_large": field_large(),
        }
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
