"""Run one benchmark job in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC is a job written by run.py.  RESULT receives the job's exit code, its
timed region (wall time, CPU time, peak RSS), the facts the output checks
need from inside the process and, when the spec asks for a trace, the
per-layer numbers.  Importing hypmono is set-up, timed separately by
run.py, so it stays outside the timed region.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cli(spec):
    from hypmono.cli import main

    try:
        return main(spec["argv"]), None
    except SystemExit as exc:  # argparse usage errors
        return exc.code, None


def _field(spec):
    from hypmono import build_field, load_cache, save_cache

    out = Path(spec["dir"])
    built = [build_field(p, k) for p, k in spec["fields"]]
    paths = [out / f"field_{f.p}_{f.k}.tab" for f in built]
    for f, path in zip(built, paths):
        save_cache(f, path)
    loaded = [load_cache(path) for path in paths]
    return 0, (built, loaded)


def _field_facts(built, loaded) -> dict:
    import numpy as np
    from workloads import array_digest

    return {
        f"F{b.p}_{b.k}": {
            "identical": b.modulus == c.modulus
            and all(np.array_equal(getattr(b, t), getattr(c, t))
                    for t in ("antilog", "log", "trace_table")),
            "antilog": array_digest(b.antilog),
            "trace_table": array_digest(b.trace_table),
        }
        for b, c in zip(built, loaded)
    }


JOBS = {"cli": _cli, "field": _field}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import hypmono.cli

    src = Path(spec["src"]).resolve()
    if not Path(hypmono.cli.__file__).resolve().is_relative_to(src):
        print(f"hypmono was imported from {hypmono.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    error = None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc, state = JOBS[spec["kind"]](spec)
    except Exception:  # a crashing job is a failed check, not a lost run
        rc, state, error = None, None, traceback.format_exc()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    if spec["kind"] == "field" and state is not None:
        result["fields"] = _field_facts(*state)
    if tracer is not None:
        from tracer import layer_metrics, table_records

        result["layers"] = layer_metrics(tracer.spans)
        result["tables"] = table_records(tracer.spans)
        result["absent"] = tracer.absent
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
