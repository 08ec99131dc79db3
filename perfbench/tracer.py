"""Span tracer for the traced benchmark run.

It wraps public functions of the hypmono modules from outside the library:
each wrapped call records a span (name, start, end, info) in memory, and
`layer_metrics` turns the spans of one process into per-layer numbers.
Times are the length of the union of a layer's spans, so nested calls and
calls on pool threads are not counted twice.  A layer's self time is its
union minus the part of it covered by the spans of its child layers.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time


def _size(x) -> int:
    shape = getattr(x, "shape", ())
    return math.prod(shape)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _table_info(args, kwargs, t):
    if t.family == "Atimes":
        fam = f"{t.params['A']}x"
    else:
        fam = f"{t.params['A']}x{t.params['B']}"
    return {"label": f"{fam}_q{t.field.q}.{t.mode}", "p": t.p, "q": t.field.q,
            "mode": t.mode, "float_err": t.float_err}


def _scan_info(args, kwargs, report):
    slacks = [min(v.slack_histogram) for v in getattr(report, "variants", ())
              if v.slack_histogram]
    return {"elems": report.checked, "min_slack": min(slacks, default=None)}


# (module, attribute path, span name, info function).  Module-level
# functions are rebound in every hypmono namespace that holds them; methods
# are rebound in their class.
TARGETS = (
    ("finite_field", "build_field", "build",
     lambda a, k, r: {"label": f"F{r.p}_{r.k}"}),
    ("finite_field", "save_cache", "save", None),
    ("finite_field", "load_cache", "load", None),
    ("finite_field", "FieldTable.add", "add", lambda a, k, r: {"elems": _size(r)}),
    ("exp_sums", "trace_table_all", "table", _table_info),
    ("exp_sums", "table_stats", "check", None),
    ("exp_sums", "moments", "check", None),
    ("exp_sums", "purity_check", "check", None),
    ("exp_sums", "frobenius_invariance_check", "check", None),
    ("exp_sums", "galois_invariance_check", "check", None),
    ("exp_sums", "rationality_check", "check", None),
    ("exp_sums", "integrality_check", "check", None),
    ("exp_sums", "export_csv", "export",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("exp_sums", "trace_axb", "direct", None),
    ("exp_sums", "trace_quartic", "direct", None),
    ("kubert", "digit_sum_vec", "digit_sum",
     lambda a, k, r: {"p": _arg(a, k, 1, "p"), "elems": _size(r)}),
    ("kubert", "verify_lemma_3x13", "scan", _scan_info),
    ("kubert", "verify_lemma_4x5", "scan", _scan_info),
    ("kubert", "verify_lemma_28", "scan", _scan_info),
    ("kubert", "verify_bracket_corollaries", "scan", _scan_info),
    ("kubert", "verify_sharp_inequality", "scan", _scan_info),
    ("kubert", "check_criterion_AxB", "criterion", _scan_info),
    ("kubert", "check_criterion_Atimes", "criterion", _scan_info),
    ("cyclotomic", "CycNumber.__mul__", "mul", None),
    ("cyclotomic", "CycNumber.from_exponent_counts", "from_counts", None),
    ("cyclotomic", "CycNumber.galois", "galois", None),
    ("acceptance", "run_criterion", "run_criterion",
     lambda a, k, r: {"label": r.cid}),
)


class Tracer:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self, package: str = "hypmono", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.spans: list[tuple[str, float, float, dict | None]] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name, info):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            # list.append is atomic, so pool threads may record concurrently
            spans.append((name, t0, t1, info(args, kwargs, result) if info else None))
            return result

        return wrapper

    def install(self) -> None:
        prefix = self.package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(prefix)]
        for modname, path, name, info in self.targets:
            owner = sys.modules.get(prefix + modname)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{modname}.{path}")
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, info))
            else:
                wrapped = self._wrap(original, name, info)
            for ns in ([owner] if owners else modules):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)


# ----------------------------------------------------------------------
# interval arithmetic over spans

def union(intervals) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [tuple(iv) for iv in out]


def length(merged) -> float:
    return sum(hi - lo for lo, hi in merged)


def overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one process.  run.py adds them up over the
    jobs of an iteration, except the `*_max` and `min_slack` entries,
    which take the largest and the smallest."""

    def pick(names, **where):
        return [s for s in spans if s[0] in names
                and all((s[3] or {}).get(k) == v for k, v in where.items())]

    def busy(sel):
        return length(union((s[1], s[2]) for s in sel))

    def total(sel, key):
        return sum(s[3][key] for s in sel)

    def self_time(parents, children):
        up = union((s[1], s[2]) for s in parents)
        return length(up) - overlap(up, union((s[1], s[2]) for s in children))

    m: dict = {}
    for label in ("F2_20", "F3_12"):
        m[f"finite_field.build_s.{label}"] = busy(pick({"build"}, label=label))
    m["finite_field.build_s"] = busy(pick({"build"}))
    m["finite_field.cache_save_s"] = busy(pick({"save"}))
    m["finite_field.cache_load_s"] = busy(pick({"load"}))
    add = pick({"add"})
    m["finite_field.add_calls"] = len(add)
    m["finite_field.add_elems"] = total(add, "elems")
    m["finite_field.add_s"] = busy(add)

    tables = pick({"table"})
    for s in tables:
        key = f"exp_sums.table_s.{s[3]['label']}"
        m[key] = m.get(key, 0.0) + s[2] - s[1]
    m["exp_sums.table_s"] = busy(tables)
    m["exp_sums.table_self_s"] = self_time(
        tables, pick({"add", "mul", "from_counts", "galois"}))
    m["exp_sums.checks_s"] = busy(pick({"check"}))
    export = pick({"export"})
    m["exp_sums.export_s"] = busy(export)
    m["exp_sums.export_bytes"] = total(export, "bytes")
    direct = pick({"direct"})
    m["exp_sums.direct_s"] = busy(direct)
    m["exp_sums.direct_points"] = len(direct)
    m["exp_sums.float_err_max"] = max(
        (s[3]["float_err"] for s in tables if s[3]["mode"] == "float"), default=0.0)

    for p in (2, 3):
        sel = pick({"digit_sum"}, p=p)
        m[f"kubert.digit_sum_s.p{p}"] = busy(sel)
        m[f"kubert.digit_sum_elems.p{p}"] = total(sel, "elems")
    scans = pick({"scan", "criterion"})
    m["kubert.scan_s"] = busy(scans)
    m["kubert.scan_self_s"] = self_time(scans, pick({"digit_sum"}))
    m["kubert.scan_elems"] = total(scans, "elems")
    m["kubert.criterion_s"] = busy(pick({"criterion"}))
    slacks = [s[3]["min_slack"] for s in scans if s[3]["min_slack"] is not None]
    m["kubert.min_slack"] = min(slacks, default=None)

    for name in ("mul", "from_counts", "galois"):
        sel = pick({name})
        m[f"cyclotomic.{name}_calls"] = len(sel)
        m[f"cyclotomic.{name}_s"] = busy(sel)

    for s in pick({"run_criterion"}):
        m[f"acceptance.criterion_s.{s[3]['label']}"] = s[2] - s[1]
    return m


def table_records(spans) -> list[dict]:
    """(p, q, mode, seconds) of every trace table built, for the q slopes."""
    return [{k: s[3][k] for k in ("p", "q", "mode")} | {"s": s[2] - s[1]}
            for s in spans if s[0] == "table"]
