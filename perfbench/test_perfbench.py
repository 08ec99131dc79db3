"""Tests of the benchmark itself: its output checks, its tracer and its
contract.  Run with `python3 -m pytest -q perfbench` from the repo root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from hypmono.cli import main as cli_main  # noqa: E402


def _run_job(spec, result_path):
    """One job through child.py, as run.py runs it."""
    path = result_path.with_suffix(".spec.json")
    path.write_text(json.dumps(dict(spec, src=str(ROOT / "src"))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(path), str(result_path)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(result_path.read_text())


def test_corrupted_exact_csv_makes_check_fail_frac_positive(tmp_path):
    spec, check = workloads.trace_job("3x13", 10, "both", tmp_path)
    assert cli_main(spec["argv"]) == 0
    assert workloads.fail_frac(check({"rc": 0}, 7)) == 0
    csv = tmp_path / "trace_3x13_q1024_exact.csv"
    lines = csv.read_text().splitlines(keepends=True)
    corrupted = lines[5].replace('""den"": 1}', '""den"": 3}')
    assert corrupted != lines[5]
    lines[5] = corrupted
    csv.write_text("".join(lines))
    assert workloads.fail_frac(check({"rc": 0}, 7)) > 0


def test_corrupted_float_value_makes_check_fail_frac_positive(tmp_path):
    spec, check = workloads.trace_job("3x13", 10, "float", tmp_path)
    assert cli_main(spec["argv"]) == 0
    assert workloads.fail_frac(check({"rc": 0}, 7)) == 0
    csv = tmp_path / "trace_3x13_q1024_float.csv"
    lines = csv.read_text().splitlines(keepends=True)
    row = workloads.sample_rows(7, "trace_3x13_q1024", len(lines) - 1)[0]
    lines[row + 1] = f"{row},0.5,0.0\r\n"
    csv.write_text("".join(lines))
    checks = check({"rc": 0}, 7)
    assert [c.name for c in checks if not c.ok] == ["trace_3x13_q1024.samples"]
    assert workloads.fail_frac(checks) > 0


def test_nonzero_exit_and_wrong_manifest_fail(tmp_path):
    (tmp_path / "manifest.json").write_text("{}\n")
    checks = workloads.check_reproduce(tmp_path, {"rc": 1}, 7)
    assert [c.ok for c in checks] == [False, False]


def test_field_checks_compare_against_pinned_digests():
    good = {label: dict(ref, identical=True)
            for label, ref in workloads.reference()["field_large"].items()}
    assert workloads.fail_frac(workloads.check_fields({"rc": 0, "fields": good}, 7)) == 0
    good["F3_12"]["trace_table"] = "0" * 64
    assert workloads.fail_frac(workloads.check_fields({"rc": 0, "fields": good}, 7)) > 0


def test_tracer_rebinds_every_namespace_and_records_absent_names():
    pkg, mod, user = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.mod", "fakepkg.user"))

    def work(x):
        return x + 1

    mod.work = user.work = pkg.work = work
    fakes = {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user}
    sys.modules.update(fakes)
    try:
        t = tracer.Tracer("fakepkg", (("mod", "work", "w", None), ("mod", "gone", "g", None),
                                      ("missing", "f", "m", None)))
        t.install()
        assert user.work(1) == 2 and pkg.work(2) == 3 and mod.work(3) == 4
    finally:
        for name in fakes:
            sys.modules.pop(name)
    assert [s[0] for s in t.spans] == ["w", "w", "w"]
    assert t.absent == ["mod.gone", "missing.f"]


def test_self_time_subtracts_the_union_of_child_spans():
    # two pool threads run overlapping digit-sum kernels inside one scan
    spans = [
        ("scan", 0.0, 10.0, {"elems": 100, "min_slack": 0}),
        ("digit_sum", 1.0, 4.0, {"p": 3, "elems": 50}),
        ("digit_sum", 2.0, 6.0, {"p": 3, "elems": 50}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["kubert.scan_s"] == 10.0
    assert m["kubert.scan_self_s"] == 5.0
    assert m["kubert.digit_sum_s.p3"] == 5.0
    assert m["kubert.digit_sum_elems.p3"] == 100


@pytest.mark.parametrize("argv", [
    ["trace-table", "--family", "4x5", "--field-degree", "4", "--mode", "both"],
    ["verify-digit-lemma", "--family", "28", "--r-max", "8"],
])
def test_traced_counts_repeat_exactly(tmp_path, argv):
    spec = {"kind": "cli", "argv": argv + ["--out", str(tmp_path)], "trace": 1}
    first, second = (_run_job(spec, tmp_path / f"r{i}.json")["layers"] for i in (0, 1))
    counts = ("finite_field.add_elems", "kubert.digit_sum_elems.p3",
              "kubert.scan_elems", "cyclotomic.mul_calls")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert any(first[k] for k in counts)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reproduce",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_follows_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]
