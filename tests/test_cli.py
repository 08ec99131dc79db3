import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypmono.cli import main


def test_verify_digit_lemma_stream(capsys):
    rc = main(["verify-digit-lemma", "--family", "28", "--r-max", "3"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in out]
    assert all(rec["counterexamples"] == [] for rec in records)
    lemmas = {rec["lemma"] for rec in records}
    assert "lemma-28" in lemmas and "corollary-28" in lemmas
    assert any(rec["lemma"] == "sharp-28" for rec in records)


def test_verify_digit_lemma_writes_file(tmp_path, capsys):
    rc = main([
        "verify-digit-lemma", "--family", "3x13", "--r-max", "4",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    path = tmp_path / "digit_lemma_3x13.ndjson"
    lines = path.read_text().strip().splitlines()
    assert all(json.loads(line)["p"] == 2 for line in lines)


def test_classify_family(capsys):
    rc = main(["classify", "--family", "3x13"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["primitivity"] == "NOT_INDUCED"
    assert report["inertia"]["group"] == "C2^11 : C23"
    rc = main(["classify", "--family", "28x"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["n"] == 12


_D3X13 = "140511ac1394560591189b4386d52646237da990f7c9adb56636de8970674e9e"
_D4X5 = "60dadd9f0679b36498da87aad7e3f862db0531efe39b27224e90a19db872c077"
_D28X = "5d6f47d8ae40c77d36166449f18cf040689abf85f709f4591829b9099564226c"


@pytest.mark.parametrize("argv, digest", [
    (["--family", "3x13"], _D3X13),
    (["--family", "4x5"], _D4X5),
    (["--family", "28x"], _D28X),
    (["--p", "3", "--A", "4", "--B", "5"], _D4X5),
    (["--p", "3", "--A", "28"], _D28X),
], ids=["3x13", "4x5", "28x", "p3-A4-B5", "p3-A28"])
def test_classify_report_bytes(argv, digest, capsys):
    # each report is byte-identical to the one of every earlier version, and
    # a family's explicit parameters give the report of --family
    assert main(["classify", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_classify_out_writes_the_stdout_bytes(tmp_path, capsys):
    assert main(["classify", "--family", "4x5"]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "reports" / "4x5.json"
    assert main(["classify", "--family", "4x5", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"classify 4x5: wrote {path}\n"
    assert path.read_text() == printed


def test_classify_explicit_params(capsys):
    rc = main(["classify", "--p", "3", "--A", "4", "--B", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selfdual"] == "none" and report["det_trivial"] is True


def test_classify_missing_args():
    assert main(["classify"]) == 2


@pytest.mark.parametrize("argv", [
    ["--p", "2", "--A", "3"],  # build_Atimes needs A >= 7
    ["--p", "5", "--A", "4", "--B", "3"],  # wild rank 15, divisible by p = 5
    ["--family", "3x13", "--p", "3"],  # a family fixes its own p
], ids=["p2-A3", "p5-A4-B3", "family-and-p"])
def test_classify_refusals_are_usage_errors(argv, capsys):
    # parameters the model refuses exit 2 with a message, not a traceback
    assert main(["classify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("classify: ")


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_classify_refuses_a_p_that_is_not_prime(p, capsys):
    # p = 0 used to die with ZeroDivisionError, p = 4 printed a report
    assert main(["classify", "--p", p, "--A", "3", "--B", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"classify: p = {p} is not a prime\n"


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_trace_table_refuses_field_degree_below_1(degree, tmp_path, capsys):
    # a usage error (2), not an exceeded resource cap (3)
    rc = main(["trace-table", "--family", "4x5", "--field-degree", degree,
               "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "--field-degree" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("r_max", ["0", "-1"])
def test_verify_digit_lemma_refuses_r_max_below_1(r_max, capsys):
    # r_max < 1 would verify nothing and pass
    assert main(["verify-digit-lemma", "--family", "28", "--r-max", r_max]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--r-max" in err


def test_trace_table_outputs(tmp_path, capsys):
    rc = main([
        "trace-table", "--family", "3x13", "--field-degree", "4",
        "--mode", "both", "--out", str(tmp_path),
    ])
    assert rc == 0
    stats = json.loads((tmp_path / "trace_3x13_q16_stats.json").read_text())
    assert stats["frobenius_pass"] is True
    assert stats["integrality_pass"] is True
    assert stats["rationality_pass"] is True
    assert stats["float_gap_over_tol"] == 0.0
    assert 0.0 < stats["float_err"] < 1e-9
    assert 0.0 <= stats["float_gap"] <= stats["float_err"]
    assert 0.0 < stats["imag_residual"] <= stats["float_err"]
    assert (tmp_path / "trace_3x13_q16_exact.csv").exists()
    rows = (tmp_path / "trace_3x13_q16_float.csv").read_text().splitlines()[1:]
    assert len(rows) == 15 and all(row.endswith(",0.0") for row in rows)


@pytest.mark.parametrize("family, module, name, fake", [
    ("4x5", "exp_sums", "integrality_check", lambda table: False),
    ("4x5", "exp_sums", "galois_invariance_check", lambda table: False),
    ("3x13", "exp_sums", "rationality_check", lambda table: False),
    ("4x5", "exp_sums", "float_gap", lambda exact, flt: 0.5),
], ids=["integrality", "galois", "rationality", "float-gap"])
def test_trace_table_fails_on_any_failed_check(tmp_path, monkeypatch, capsys,
                                               family, module, name, fake):
    # every *_pass flag and a nonzero float gap set the exit code
    import hypmono.cli as cli_mod

    monkeypatch.setattr(getattr(cli_mod, module), name, fake)
    rc = main(["trace-table", "--family", family, "--field-degree", "2",
               "--mode", "both", "--out", str(tmp_path)])
    assert rc == 1


def test_trace_table_quartic(tmp_path, capsys):
    rc = main([
        "trace-table", "--family", "28x", "--field-degree", "2",
        "--mode", "exact", "--out", str(tmp_path),
    ])
    assert rc == 0
    stats = json.loads((tmp_path / "trace_28x_q9_stats.json").read_text())
    assert stats["galois_pass"] is True and stats["purity_pass"] is True
    assert "float_err" not in stats  # no float table was built


def test_import_leaves_numpy_fft_unloaded():
    # numpy loads np.fft lazily; importing it up front would show in the
    # start-up time of every CLI call
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, hypmono.cli; sys.exit('numpy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _numpy_blas() -> str:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts threads in /proc/self/task (Linux)")
@pytest.mark.parametrize("user_env", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                      {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"])
def test_import_starts_one_blas_thread_unless_asked(user_env):
    # importing hypmono sets OPENBLAS_NUM_THREADS=1 before numpy loads
    # OpenBLAS, so no worker thread starts; a count the user set in any
    # variable OpenBLAS reads is kept
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import os, hypmono.cli; print(len(os.listdir('/proc/self/task')),"
            " os.environ.get('OPENBLAS_NUM_THREADS'))")
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env.update(user_env)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    threads, value = int(out[0]), out[1]
    assert value == user_env.get("OPENBLAS_NUM_THREADS", "None" if user_env else "1")
    # the thread counts hold for an OpenBLAS numpy on two or more cores
    if "openblas" in _numpy_blas() and len(os.sched_getaffinity(0)) >= 2:
        assert threads == (2 if user_env else 1)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["trace-table", "--family", "nonsense", "--field-degree", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family", ["3x13", "28x"])
def test_trace_table_refuses_a_field_without_the_characters(family, tmp_path, capsys):
    # F_8 and F_27 lack the characters of order 3 and 4 that the trace
    # formulas use: a parameter the model refuses (2), not a cap (3)
    rc = main(["trace-table", "--family", family, "--field-degree", "3",
               "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("trace-table: ") and "characters" in err
    assert list(tmp_path.iterdir()) == []


def test_cap_exit_code(capsys):
    # exact mode beyond the table cap
    rc = main(["trace-table", "--family", "3x13", "--field-degree", "12",
               "--mode", "exact"])
    assert rc == 3
    # float tables have no cap of their own; the field degree caps bound them
    rc = main(["trace-table", "--family", "3x13", "--field-degree", "26",
               "--mode", "float"])
    assert rc == 3


def test_verification_failure_exit_code(monkeypatch, capsys):
    import hypmono.cli as cli_mod

    class FailingReport:
        passed = False

        def to_json_records(self):
            return [{"lemma": "lemma-28", "p": 3, "r": 1, "variant": "plus1",
                     "checked": 1, "counterexamples": [{"x": 0, "lhs": 9, "rhs": 1}],
                     "slack_histogram": {"-1": 1}, "elapsed_ms": 0.0}]

    monkeypatch.setattr(cli_mod.kubert, "verify_lemma_28",
                        lambda r: FailingReport())
    rc = main(["verify-digit-lemma", "--family", "28", "--r-max", "1"])
    assert rc == 1


def test_reproduce_all_plumbing(tmp_path, monkeypatch, capsys):
    from hypmono import acceptance

    small = [c for c in acceptance.CRITERIA if c[0] in ("C9", "C10")]
    monkeypatch.setattr(acceptance, "CRITERIA", small)
    rc = main(["reproduce-all", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [c["id"] for c in manifest["criteria"]] == ["C9", "C10"]
    assert manifest["all_passed"] is True
    assert (tmp_path / "timings.json").exists()
    out = capsys.readouterr().out
    assert "C9 PASS" in out and "C10 PASS" in out


def test_reproduce_all_manifest_bytes(tmp_path, capsys):
    # the manifest is bit-identical to the one of every earlier version, whose
    # sha256 the benchmark's reference pins as well
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    want = json.loads(reference.read_text())["reproduce"]["manifest_sha256"]
    rc = main(["reproduce-all", "--out", str(tmp_path)])
    assert rc == 0
    assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == want
