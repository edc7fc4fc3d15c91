"""Tests for the command-line interface: documented invocations, formats,
determinism, and the exit-code contract."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odeform
from odeform.cli import run

INV_SOLVE_LINEAR = [
    "solve", "--class", "linear", "--f", "1", "--g", "0",
    "--x0", "0", "--y0", "1", "--range", "0:1", "--samples", "3",
]
INV_SOLVE_SECOND = [
    "solve", "--class", "second-order", "--b", "0", "--c", "1",
    "--x0", "0", "--y0", "0", "--yp0", "1",
    "--range", "0:3.1415926", "--samples", "2",
]
INV_VERIFY_BERNOULLI = [
    "verify", "--class", "bernoulli", "--f", "1", "--g", "1",
    "--alpha", "2", "--x0", "0", "--y0", "0.5", "--range", "0:1",
    "--format", "json",
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "x,y"
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# The three documented invocations


def test_documented_solve_linear():
    code, out, err = invoke(INV_SOLVE_LINEAR)
    assert code == 0
    assert err == ""
    rows = csv_rows(out)
    assert len(rows) == 3
    assert rows[0] == (0.0, 1.0)
    assert rows[1][0] == 0.5
    assert abs(rows[1][1] - math.exp(-0.5)) <= 1e-9
    assert rows[2][0] == 1.0
    assert abs(rows[2][1] - math.exp(-1.0)) <= 1e-9
    # The exact documented text of the first data row.
    assert "\nx,y\n0,1\n" in out


def test_documented_solve_second_order():
    code, out, err = invoke(INV_SOLVE_SECOND)
    assert code == 0
    assert err == ""
    rows = csv_rows(out)
    assert len(rows) == 2
    assert rows[0] == (0.0, 0.0)
    assert rows[1][0] == 3.1415926
    assert abs(rows[1][1]) <= 1e-6  # sin near pi


def test_documented_verify_bernoulli():
    code, out, err = invoke(INV_VERIFY_BERNOULLI)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["class"] == "bernoulli"
    assert doc["report"]["pass"] is True
    names = [c["name"] for c in doc["report"]["checks"]]
    assert names == ["residual", "oracle", "route_equivalence"]
    for check in doc["report"]["checks"]:
        assert check["pass"] is True
        assert check["max_deviation"] <= check["tolerance"]
    assert doc["validity"] == {"lo": None, "hi": None}
    assert "alpha" in doc["parameters"]
    assert "C" in doc["constants"]
    assert doc["provenance"]


@pytest.mark.parametrize("argv", [INV_SOLVE_LINEAR, INV_SOLVE_SECOND,
                                  INV_VERIFY_BERNOULLI])
def test_documented_invocations_are_byte_deterministic(argv):
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    assert first[1].encode("utf-8") == second[1].encode("utf-8")


# ---------------------------------------------------------------------------
# Formats


def test_cross_format_solve_consistency():
    _, csv_text, _ = invoke(INV_SOLVE_LINEAR)
    code, json_text, _ = invoke(INV_SOLVE_LINEAR + ["--format", "json"])
    assert code == 0
    doc = json.loads(json_text)
    rows = csv_rows(csv_text)
    assert [(s["x"], s["y"]) for s in doc["samples"]] == rows
    assert doc["class"] == "linear"
    assert doc["validity"] == {"lo": None, "hi": None}
    assert set(doc) == {"class", "parameters", "constants", "validity",
                        "provenance", "samples"}


def test_cross_format_verify_consistency():
    code, csv_text, _ = invoke(INV_VERIFY_BERNOULLI[:-2])  # default csv
    assert code == 0
    _, json_text, _ = invoke(INV_VERIFY_BERNOULLI)
    doc = json.loads(json_text)
    data = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    assert data[0] == "name,max_deviation,tolerance,pass"
    assert "# overall: pass" in csv_text
    parsed = []
    for ln in data[1:]:
        name, dev, tol, ok = ln.split(",")
        parsed.append((name, float(dev), float(tol), ok == "true"))
    from_json = [(c["name"], c["max_deviation"], c["tolerance"], c["pass"])
                 for c in doc["report"]["checks"]]
    assert parsed == from_json


def test_solve_csv_metadata_lines():
    _, out, _ = invoke(INV_SOLVE_LINEAR)
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    joined = "\n".join(meta)
    assert "# class: linear" in joined
    assert "# constants:" in joined
    assert "# validity:" in joined
    assert "# provenance:" in joined


def test_out_flag_writes_file_and_keeps_stdout_empty(tmp_path):
    target = tmp_path / "rows.csv"
    code, out, err = invoke(INV_SOLVE_LINEAR + ["--out", str(target)])
    assert code == 0
    assert out == "" and err == ""
    _, direct, _ = invoke(INV_SOLVE_LINEAR)
    assert target.read_text(encoding="utf-8") == direct


def test_oracle_subcommand():
    code, out, err = invoke([
        "oracle", "--class", "linear", "--f", "-1", "--g", "0",
        "--x0", "0", "--y0", "1", "--range", "0:1", "--samples", "11",
    ])
    assert code == 0
    assert err == ""
    assert "# method: rk45" in out
    rows = csv_rows(out)
    assert len(rows) == 11
    assert abs(rows[-1][1] - math.e) <= 1e-8


def test_negative_range_bound_equals_form():
    code, out, err = invoke([
        "solve", "--class", "linear", "--f", "0", "--g", "1",
        "--x0", "0", "--y0", "0", "--range=-1:1", "--samples", "3",
    ])
    assert code == 0
    rows = csv_rows(out)
    assert rows[0][0] == -1.0 and rows[-1][0] == 1.0
    assert abs(rows[0][1] + 1.0) <= 1e-9


@pytest.mark.parametrize("flag", ["--y0", "--yp0", "--alpha"])
def test_negative_exponent_form_after_a_space(flag):
    argv = {
        "--y0": ["solve", "--class", "linear", "--f", "1", "--g", "0",
                 "--x0", "0", "--range", "0:1", "--samples", "3"],
        "--yp0": ["solve", "--class", "second-order", "--b", "0",
                  "--c", "1", "--x0", "0", "--y0", "1", "--range", "0:1",
                  "--samples", "3"],
        "--alpha": ["solve", "--class", "bernoulli", "--f", "1", "--g", "1",
                    "--x0", "0", "--y0", "0.5", "--range", "0:1",
                    "--samples", "3"],
    }[flag]
    code, out, err = invoke(argv + [flag, "-2e-05"])
    assert (code, err) == (0, "")
    assert invoke(argv + [f"{flag}=-2e-05"]) == (code, out, err)


def test_second_order_far_from_origin_solves_cleanly():
    code, out, err = invoke([
        "solve", "--class", "second-order", "--b", "-2", "--c", "0",
        "--x0", "1000", "--y0", "1", "--yp0", "0", "--range", "999:1001",
    ])
    assert (code, err) == (0, "")
    assert [y for _, y in csv_rows(out)] == [1.0] * 201


def test_tolerance_flags_accepted():
    code, _, err = invoke(INV_SOLVE_LINEAR + ["--abs-tol", "1e-8",
                                              "--rel-tol", "1e-8"])
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# Exit codes and error streams


def assert_clean_error(argv, expected_code):
    code, out, err = invoke(argv)
    assert code == expected_code, (argv, code, err)
    assert out == ""  # nothing partial on stdout
    assert err.startswith("error:")
    assert err.count("\n") == 1  # single diagnostic line
    return err


def test_usage_error_malformed_expression():
    err = assert_clean_error(
        ["solve", "--class", "linear", "--f", "2*+x", "--g", "0",
         "--x0", "0", "--y0", "1", "--range", "0:1"], 1)
    assert "offset 2" in err


def test_usage_error_unknown_flag():
    assert_clean_error(INV_SOLVE_LINEAR + ["--bogus", "1"], 1)


def test_usage_error_missing_parameter():
    assert_clean_error(
        ["solve", "--class", "linear", "--f", "1",
         "--x0", "0", "--y0", "1", "--range", "0:1"], 1)


def test_usage_error_extraneous_parameter():
    assert_clean_error(INV_SOLVE_LINEAR + ["--alpha", "2"], 1)


def test_usage_error_x0_outside_range():
    assert_clean_error(
        ["solve", "--class", "linear", "--f", "1", "--g", "0",
         "--x0", "5", "--y0", "1", "--range", "0:1"], 1)


def test_usage_error_malformed_range():
    assert_clean_error(
        ["solve", "--class", "linear", "--f", "1", "--g", "0",
         "--x0", "0", "--y0", "1", "--range", "0-1"], 1)


def test_usage_error_unknown_class():
    assert_clean_error(
        ["solve", "--class", "cubic", "--f", "1", "--g", "0",
         "--x0", "0", "--y0", "1", "--range", "0:1"], 1)


def test_usage_error_bad_subcommand():
    assert_clean_error(["frobnicate"], 1)


def test_usage_error_too_few_samples():
    assert_clean_error(INV_SOLVE_LINEAR[:-1] + ["1"], 1)


def test_domain_error_empty_overlap_exits_2():
    # Blow-up just past x0 leaves nothing of the requested range.
    assert_clean_error(
        ["solve", "--class", "bernoulli", "--f", "0", "--g", "1",
         "--alpha", "2", "--x0", "0.001", "--y0", "1e12",
         "--range", "0.001:2"], 2)


def test_domain_error_oracle_anchor_exits_2():
    assert_clean_error(
        ["oracle", "--class", "linear", "--f", "1/x", "--g", "0",
         "--x0", "0", "--y0", "1", "--range", "0:1"], 2)


def test_domain_error_power_overflow_exits_2():
    # C = y0^(1 - alpha) = 1e600 lies outside double range.
    err = assert_clean_error(
        ["solve", "--class", "bernoulli", "--f", "1", "--g", "1",
         "--alpha", "-1", "--x0", "0", "--y0", "1e300", "--range", "0:1"], 2)
    assert "double range" in err


_TOL_FLAG_COMMANDS = {
    "--abs-tol": ("solve", "verify", "oracle"),
    "--rel-tol": ("solve", "verify", "oracle"),
    "--check-tol": ("verify",),
    "--oracle-tol": ("verify", "oracle"),
}
_BAD_TOLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0),
    st.floats(min_value=1.0))


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_bad_tolerance_flag_is_a_usage_error(data):
    flag = data.draw(st.sampled_from(sorted(_TOL_FLAG_COMMANDS)))
    command = data.draw(st.sampled_from(_TOL_FLAG_COMMANDS[flag]))
    value = data.draw(_BAD_TOLS)
    err = assert_clean_error(
        [command, "--class", "linear", "--f", "1", "--g", "0", "--x0", "0",
         "--y0", "1", "--range", "0:1", f"{flag}={value!r}"], 1)
    assert flag in err


def test_verify_failure_exits_3_with_full_report():
    code, out, err = invoke(INV_VERIFY_BERNOULLI + ["--perturb", "1e-3"])
    assert code == 3
    assert err == ""
    doc = json.loads(out)
    assert doc["report"]["pass"] is False
    assert any(not c["pass"] for c in doc["report"]["checks"])


# ---------------------------------------------------------------------------
# Console entry point


def test_console_script_matches_in_process_run(tmp_path):
    # Run the entry point declared in pyproject.toml the way pip's generated
    # wrapper does, against the same odeform package this test imported, so
    # no install is needed and no other installed copy can stand in for it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["odeform"]
    module, _, attr = entry.partition(":")
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(odeform.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script] + INV_SOLVE_LINEAR,
                          capture_output=True, text=True, timeout=300,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    _, expected, _ = invoke(INV_SOLVE_LINEAR)
    assert proc.stdout == expected
    assert proc.stderr == ""


@pytest.mark.parametrize("x0", ["0", "0.5"])
def test_power_overflow_names_the_initial_point(x0):
    # The failure is in C = y0^(1 - alpha), taken at x0; y0 is no point.
    err = assert_clean_error(
        ["solve", "--class", "bernoulli", "--f", "1", "--g", "1",
         "--alpha", "-1", "--x0", x0, "--y0", "1e300", "--range", "0:1"], 2)
    assert f"(at x={float(x0)!r})" in err
    assert "1e+300" not in err


def test_overflowing_weighted_integrand_ends_validity(tmp_path):
    # y' + y = e^x, y(0) = 1 is cosh(x). Inside the closed form,
    # W = integral of e^t * e^t leaves double range at ln(DBL_MAX)/2 while
    # each factor stays finite. Such nodes once kept their panels splitting
    # until memory ran out, so the run gets an address-space cap and a
    # timeout: a regression fails here instead of taking the machine down.
    script = (
        "import resource, sys\n"
        "cap = 1 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from odeform.cli import main\n"
        "sys.exit(main())\n")
    argv = ["solve", "--class", "linear", "--f", "1", "--g", "exp(x)",
            "--x0", "0", "--y0", "1", "--range", "0:800", "--format", "json"]
    package_root = str(Path(odeform.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""  # no numpy warning about the overflow
    doc = json.loads(proc.stdout)
    hi = doc["validity"]["hi"]
    assert 354.0 < hi < 356.0
    assert abs(hi - math.log(sys.float_info.max) / 2.0) < 0.5
    rows = [(row["x"], row["y"]) for row in doc["samples"]]
    assert max(x for x, _ in rows) < hi
    for x, y in rows:
        assert abs(y - math.cosh(x)) <= 1e-8 * math.cosh(x), x
