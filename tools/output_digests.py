"""sha256 digests of the command-line outputs that must stay byte-identical.

Usage, from anywhere:

    python3 tools/output_digests.py > digests.json

It runs the CLI of the checkout it lives in (its src/ on PYTHONPATH, no
bytecode written) in a temporary directory and prints one JSON object,
name -> sha256, covering:

- `reproduce-all`'s manifest.json;
- the stdout of `classify` for every family and for the explicit
  parameters `--p 3 --A 4 --B 5` and `--p 3 --A 28`;
- the CSVs and the stats JSON of `trace-table --mode both` for 3x13 at
  degrees 4 and 10, 4x5 at 2, 4 and 6, and 28x at 2 and 6;
- the stats JSON alone of `trace-table --mode float` for 3x13 at degree
  16 and 4x5 and 28x at degree 10, where the last bits of `float_err`
  show a change in the float route;
- the CSV alone of `trace-table --mode float` for 3x13 at degree 14 and
  4x5 at degree 8, the perfbench sizes, each written in several blocks;
- the `verify-digit-lemma` NDJSON at the CLI defaults for every family,
  with the timing field `elapsed_ms` taken out of each record;
- the `verify-digit-lemma --help` text.

Run it on two trees and diff the two outputs.  It uses the standard
library only and writes nothing into the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSIFY = [["--family", "3x13"], ["--family", "4x5"], ["--family", "28x"],
            ["--p", "3", "--A", "4", "--B", "5"], ["--p", "3", "--A", "28"]]
TRACE_TABLES = [("3x13", 4), ("3x13", 10), ("4x5", 2), ("4x5", 4), ("4x5", 6),
                ("28x", 2), ("28x", 6)]
FLOAT_STATS = [("3x13", 16), ("4x5", 10), ("28x", 10)]
FLOAT_CSVS = [("3x13", 14), ("4x5", 8)]
LEMMAS = ["3x13", "4x5", "28"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = {}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        work = Path(tmp)

        def cli(*args: str) -> bytes:
            proc = subprocess.run([sys.executable, "-m", "hypmono.cli", *args], cwd=work,
                                  env=env, stdout=subprocess.PIPE, check=True)
            return proc.stdout

        cli("reproduce-all", "--out", "reproduction")
        out["reproduce-all manifest.json"] = sha256(
            (work / "reproduction" / "manifest.json").read_bytes())
        for args in CLASSIFY:
            out["classify " + " ".join(args)] = sha256(cli("classify", *args))
        for family, k in TRACE_TABLES:
            table_dir = work / f"trace_{family}_{k}"
            cli("trace-table", "--family", family, "--field-degree", str(k),
                "--mode", "both", "--out", str(table_dir))
            for path in sorted(table_dir.iterdir()):
                out[f"trace-table {path.name}"] = sha256(path.read_bytes())
        for (family, k), suffix in ([(fk, "_stats.json") for fk in FLOAT_STATS]
                                    + [(fk, "_float.csv") for fk in FLOAT_CSVS]):
            table_dir = work / f"float_{family}_{k}"
            cli("trace-table", "--family", family, "--field-degree", str(k),
                "--mode", "float", "--out", str(table_dir))
            path = next(table_dir.glob("*" + suffix))
            out[f"trace-table --mode float {path.name}"] = sha256(path.read_bytes())
        for family in LEMMAS:
            records = [json.loads(line) for line in
                       cli("verify-digit-lemma", "--family", family).decode().splitlines()]
            for rec in records:
                del rec["elapsed_ms"]
            text = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                           for rec in records)
            out[f"verify-digit-lemma {family} (no elapsed_ms)"] = sha256(text.encode())
        out["verify-digit-lemma --help"] = sha256(cli("verify-digit-lemma", "--help"))
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
