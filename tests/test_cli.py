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


def test_one_process_serves_a_mix_of_commands(capsys):
    """Runs of every kind share one process, and so one argument parser:
    each must read as the first run of the same argv did."""
    mix = [INV_SOLVE_LINEAR, ["--help"], INV_VERIFY_BERNOULLI,
           INV_SOLVE_SECOND + ["--format", "json"], ["verify", "--help"],
           ["solve", "--class", "cubic", "--x0", "0", "--y0", "1",
            "--range", "0:1"],
           INV_SOLVE_LINEAR + ["--samples", "1"], ["bogus"],
           ["oracle"] + INV_SOLVE_LINEAR[1:]]
    first = {}
    for argv in mix + mix[::-1] + mix:
        result = invoke(argv) + tuple(capsys.readouterr())
        assert first.setdefault(tuple(argv), result) == result
    codes = [first[tuple(argv)][0] for argv in mix]
    assert codes == [0, 0, 0, 0, 0, 1, 1, 1, 0]
    assert first[("--help",)][3].startswith("usage: odeform")


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


def test_oracle_json_matches_csv():
    # sqrt(1-x) has no real value past 1, so the trajectory truncates there.
    argv = ["oracle", "--class", "linear", "--f", "sqrt(1-x)", "--g", "0",
            "--x0", "0", "--y0", "1", "--range", "0:2", "--samples", "5"]
    code, csv_text, err = invoke(argv)
    assert (code, err) == (0, "")
    code, json_text, err = invoke(argv + ["--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(json_text)
    assert set(doc) == {"class", "parameters", "method", "steps",
                        "truncated_at", "validity", "samples"}
    meta = dict(ln[2:].split(": ", 1) for ln in csv_text.splitlines()
                if ln.startswith("# "))
    assert float(meta["truncated_at"]) == doc["truncated_at"]
    assert 1.0 - 1e-9 <= doc["truncated_at"] <= 1.0
    assert meta["steps"] == (f"taken={doc['steps']['taken']} "
                             f"rejected={doc['steps']['rejected']}")
    assert doc["validity"] == {"lo": 0.0, "hi": 2.0}
    assert [(s["x"], s["y"]) for s in doc["samples"]] == csv_rows(csv_text)


def test_verify_csv_note_matches_json():
    # y' + y = y^2 with y(0) = 2 blows up at ln 2, inside the range.
    argv = ["verify", "--class", "bernoulli", "--f", "1", "--g", "1",
            "--alpha", "2", "--x0", "0", "--y0", "2", "--range", "0:1.7"]
    code, csv_text, err = invoke(argv)
    assert (code, err) == (0, "")
    code, json_text, _ = invoke(argv + ["--format", "json"])
    notes = [ln for ln in csv_text.splitlines() if ln.startswith("# note: ")]
    assert notes == [f"# note: {json.loads(json_text)['note']}"]
    assert "range clipped" in notes[0]


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


_LINEAR = ["--class", "linear", "--f", "1", "--g", "0", "--x0", "0",
           "--y0", "1", "--range", "0:1"]


@pytest.mark.parametrize("argv, expected", [
    # q ** 2 of a Python float raised OverflowError in the oracle's error
    # norm; the step is now rejected and the trajectory truncates.
    (["oracle"] + _LINEAR + ["--oracle-tol", "1e-300"], 0),
    (["verify"] + _LINEAR + ["--oracle-tol", "1e-300"], 2),
    # Recursion: in the parser, and in the tree walk that built the tape.
    (["solve", "--class", "linear", "--f", "(" * 300 + "x" + ")" * 300,
      "--g", "0", "--x0", "0", "--y0", "1", "--range", "0:1"], 1),
    (["solve", "--class", "linear", "--f", "+".join(["1"] * 3000),
      "--g", "0", "--x0", "0", "--y0", "1", "--range", "0:1",
      "--samples", "3"], 0),
    # 0.5 * (pa + pb) overflowed to inf.
    (["solve", "--class", "linear", "--f", "1", "--g", "0", "--x0=0",
      "--y0=-1", "--range=0:1e308", "--samples", "17", "--abs-tol=0.5"], 0),
    # numpy overflow warnings from the NaN test on the checkpoint table and
    # from the tolerance share.
    (["solve", "--class", "linear", "--f", "1", "--g", "exp(x)", "--x0", "0",
      "--y0", "1", "--range", "0:400", "--samples", "9"], 0),
    (["solve", "--class", "linear", "--f", "0", "--g", "1", "--x0", "1e300",
      "--y0", "1", "--range", "1e300:1.0000000001e300"], 0),
    (["verify"] + _LINEAR + ["--perturb", "inf"], 1),
    (["verify"] + _LINEAR + ["--perturb", "nan"], 1),
    # x +- h rounded at |x| = 1e6 and the differences divided by the
    # nominal step: exact solutions failed the residual and Riccati checks.
    (["verify", "--class", "linear", "--f", "1", "--g", "0", "--x0", "1e6",
      "--y0", "1", "--range", "999999:1000001"], 0),
    (["verify", "--class", "second-order", "--b", "3", "--c", "2", "--x0",
      "1e6", "--y0", "1", "--yp0", "0", "--range", "999999:1000001"], 0),
    # numpy's MemoryError escaped run() for a grid too large to allocate.
    (["solve"] + _LINEAR + ["--samples", "1000001"], 1),
    (["verify"] + _LINEAR + ["--samples", "10000000000000"], 1),
    (["oracle"] + _LINEAR + ["--samples", "10000000000000"], 1),
    # A validity boundary exactly at the range end: the residual stencil
    # stepped past it after the range had been clipped.
    (["verify", "--class", "linear", "--f", "sqrt(x)", "--g", "0", "--x0",
      "1", "--y0", "1", "--range", "0:1"], 0),
    (["verify", "--class", "linear", "--f", "1", "--g", "sqrt(x)", "--x0",
      "1", "--y0", "1", "--range", "0:1"], 0),
], ids=["oracle-tol-oracle", "oracle-tol-verify", "deep-nesting",
        "long-sum", "huge-range", "table-nan-test", "huge-x0",
        "perturb-inf", "perturb-nan", "residual-at-1e6", "riccati-at-1e6",
        "samples-over-bound", "samples-1e13-verify", "samples-1e13-oracle",
        "boundary-at-range-end-f", "boundary-at-range-end-g"])
def test_hostile_invocations_end_cleanly(argv, expected):
    if expected:
        assert_clean_error(argv, expected)
        return
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    if "--oracle-tol" in argv:
        assert "\n# truncated_at: " in out


@pytest.mark.parametrize("f, g, clipped", [
    ("log(x)", "1", [0.02, 2.0]),
    ("1", "log(2-x)", [0.0, 1.98]),
], ids=["f-fails-at-lo", "g-fails-at-hi"])
def test_coefficient_failing_at_a_range_end_clips_it(f, g, clipped):
    """The closed form's cells never sample their ends, so its validity
    reaches past a coefficient's failure there; the oracle must step onto
    that end, so the end is clipped as a boundary would be."""
    code, out, err = invoke(["verify", "--class", "linear", "--f", f, "--g",
                             g, "--x0", "1", "--y0", "1", "--range", "0:2",
                             "--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["note"].startswith(f"range clipped to {clipped} ")
    assert doc["note"].endswith("; a coefficient is not finite at a range end")
    # The report's validity is the solution's own, past the clipped end.
    v = doc["validity"]
    assert (v["lo"] is None or v["lo"] < 0.0) and \
        (v["hi"] is None or v["hi"] > 2.0)
    assert [c["name"] for c in doc["report"]["checks"]] == [
        "residual", "oracle"]
    assert doc["report"]["pass"] is True


def test_coefficient_failing_at_x0_still_raises():
    err = assert_clean_error(
        ["verify", "--class", "linear", "--f", "log(x)", "--g", "1", "--x0",
         "0", "--y0", "1", "--range", "0:2"], 2)
    assert "log of a non-positive argument" in err and "x=0.0" in err


def test_unwritable_out_is_a_usage_error(tmp_path):
    target = str(tmp_path / "missing" / "x")
    err = assert_clean_error(INV_SOLVE_LINEAR + ["--out", target], 1)
    assert target in err


_HOSTILE = ["0", "-0", "1e-300", "-1e-300", "5e-324", "1e300", "-1e300",
            "1e308", "inf", "-inf", "nan", "700", "1e-9"]
_CLASS_ARGS = {
    "linear": ["--f=1", "--g=1"],
    "bernoulli": ["--f=1", "--g=1", "--alpha"],
    "exp": ["--f=1", "--g=1", "--beta"],
    "second-order": ["--b", "--c", "--yp0"],
}
_OPTIONAL_FLAGS = {
    "solve": ["--abs-tol", "--rel-tol"],
    "verify": ["--abs-tol", "--rel-tol", "--check-tol", "--oracle-tol",
               "--perturb"],
    "oracle": ["--abs-tol", "--rel-tol", "--oracle-tol"],
}


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_hostile_numeric_flags_end_cleanly(data):
    """Every numeric flag at an extreme or non-finite value, on every
    subcommand and class: an exit code of the contract, one error line on
    1 and 2, a silent stderr on 0 and 3, and nothing escapes run()."""
    value = st.sampled_from(_HOSTILE)
    command = data.draw(st.sampled_from(sorted(_OPTIONAL_FLAGS)))
    klass = data.draw(st.sampled_from(sorted(_CLASS_ARGS)))
    flags = _CLASS_ARGS[klass] + ["--x0", "--y0"] + data.draw(
        st.lists(st.sampled_from(_OPTIONAL_FLAGS[command]), unique=True))
    argv = [command, "--class", klass]
    argv += [f if "=" in f else f"{f}={data.draw(value)}" for f in flags]
    argv += [f"--range={data.draw(value)}:{data.draw(value)}",
             "--samples", data.draw(st.sampled_from(["2", "3", "17"]))]
    code, out, err = invoke(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert err.startswith("error:") and err.count("\n") == 1, argv
    else:
        assert err == "", argv


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


@pytest.mark.parametrize("g, exact, reach", [
    ("0", lambda x: math.exp(-x), math.inf),
    # Past x = 708.4 g = e^(-x) is subnormal and carries fewer bits, and so
    # does V's integrand; y is subnormal from 715 on.
    ("exp(-x)", lambda x: (x + 1.0) * math.exp(-x), 715.0),
])
def test_weight_that_offsets_an_overflowing_exponential(g, exact, reach):
    # y' + y = g, y(0) = 1. Past x = 709.78, e^F = e^x overflows inside W's
    # integrand g e^F, which is still finite there; validity no longer
    # ends at 709.78.
    code, out, err = invoke(["solve", "--class", "linear", "--f", "1",
                             "--g", g, "--x0", "0", "--y0", "1",
                             "--range", "0:800", "--samples", "5"])
    assert code == 0 and err == ""
    line = next(ln for ln in out.splitlines()
                if ln.startswith("# validity: "))
    lo, hi = (float(v) for v in line[len("# validity: "):].split(":"))
    assert lo == -math.inf and hi >= reach
    for x, y in csv_rows(out):
        ref = exact(x)
        if ref >= sys.float_info.min:  # a normal double
            assert abs(y - ref) <= 1e-10 * ref, x


def test_overflowing_weighted_integrand_ends_validity(tmp_path):
    # y' + y = e^x, y(0) = 1 is cosh(x). W = integral of e^t * e^t leaves
    # double range at ln(DBL_MAX)/2 while each factor stays finite; the
    # closed form carries V = e^(-F) W instead, so validity ends where g = e^x
    # itself leaves double range, at ln(DBL_MAX). Overflowing integrand
    # nodes once kept their panels splitting
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
    assert abs(hi - math.log(sys.float_info.max)) <= 1e-8
    rows = [(row["x"], row["y"]) for row in doc["samples"]]
    assert max(x for x, _ in rows) < hi
    for x, y in rows:
        assert abs(y - math.cosh(x)) <= 1e-8 * math.cosh(x), x


@pytest.mark.parametrize("equation, exact, hi", [
    # y' + y = 1, y' + y = sin(x) and y' + e^y = 1: W = integral of
    # g e^F leaves double range near x = 710, y does not.
    (["--class", "linear", "--f", "1", "--g", "1", "--y0", "0"],
     lambda x: -math.expm1(-x), math.inf),
    (["--class", "linear", "--f", "1", "--g", "sin(x)", "--y0", "0"],
     lambda x: (math.sin(x) - math.cos(x) + math.exp(-x)) / 2.0, math.inf),
    (["--class", "exp", "--f", "1", "--g", "1", "--beta", "1",
      "--y0", "0.5"],
     lambda x: -math.log1p(math.expm1(-0.5) * math.exp(-x)), math.inf),
    # P = y^(1-alpha) or e^(-beta y) itself leaves double range in these
    # two where y does not: y = y0 - x, and y = e^x up to its own overflow.
    (["--class", "exp", "--f", "0", "--g=-1", "--beta", "1", "--y0", "0.5"],
     lambda x: 0.5 - x, math.inf),
    (["--class", "bernoulli", "--alpha=-1", "--f=-1", "--g", "0",
      "--y0", "1"],
     math.exp, math.log(sys.float_info.max)),
    # Here e^(-z) W leaves double range where W = integral of g e^z, with
    # z = (1-alpha) F or beta G falling, stays bounded: y = (1 +
    # 3 e^(2x))^(-1/2), and y = -x - log(e^(-1/2) + 1 - e^(-x)).
    (["--class", "bernoulli", "--alpha", "3", "--f", "1", "--g", "1",
      "--y0", "0.5"],
     lambda x: math.exp(-x) / math.sqrt(3.0 + math.exp(-2.0 * x)),
     math.inf),
    (["--class", "exp", "--f", "1", "--g=-1", "--beta", "1", "--y0", "0.5"],
     lambda x: -x - math.log(math.exp(-0.5) + 1.0 - math.exp(-x)), math.inf),
])
def test_first_order_validity_ends_with_the_solution(equation, exact, hi):
    code, out, err = invoke(["solve"] + equation + [
        "--x0", "0", "--range", "0:800", "--samples", "9"])
    assert code == 0 and err == ""
    line = next(ln for ln in out.splitlines()
                if ln.startswith("# validity: "))
    lo, got = (float(v) for v in line[len("# validity: "):].split(":"))
    assert lo == -math.inf
    assert got == hi if hi == math.inf else abs(got - hi) <= 1e-8
    for x, y in csv_rows(out):
        assert abs(y - exact(x)) <= 1e-10 * (1.0 + abs(exact(x))), x


def test_stiff_verify_ends_on_the_oracle_step_budget(tmp_path):
    # y'' + 1e6 y' + y = 0 on 0:1e6: stability holds explicit Runge-Kutta
    # steps near 3e-6, so the oracle would take about 3e11 of them. Its step
    # budget ends the stage with exit 2 instead; the timeout turns a
    # regression into a failure rather than a hang.
    argv = ["verify", "--class", "second-order", "--b", "1e6", "--c", "1",
            "--x0", "0", "--y0", "1", "--yp0", "0", "--range", "0:1e6",
            "--samples", "3"]
    package_root = str(Path(odeform.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from odeform.cli import main; sys.exit(main())"]
        + argv, capture_output=True, text=True, timeout=30, cwd=tmp_path,
        env=env)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: stage 'oracle comparison' failed")
    assert "budget of 50000 step attempts" in proc.stderr


_SECOND_ORDER_IVP = ["--class", "second-order", "--x0", "0", "--y0", "1",
                     "--yp0", "0"]


@pytest.mark.parametrize("b, hi, x, y", [
    # b * b overflowed and the rates came out "repeated": y read 0.
    ("1e200", "1", 1.0, 1.0),
    # The smaller rate -b/2 + sqrt(disc)/2 cancelled: y read
    # 0.36787663996690934.
    ("1e6", "1e6", 1e6, math.exp(-1.0)),
])
def test_second_order_extreme_rates_solve_correctly(b, hi, x, y):
    code, out, err = invoke(["solve"] + _SECOND_ORDER_IVP
                            + ["--b", b, "--c", "1", "--range", f"0:{hi}",
                               "--samples", "3"])
    assert (code, err) == (0, "")
    assert "repeated" not in out
    last = csv_rows(out)[-1]
    assert last[0] == x and last[1] == pytest.approx(y, rel=1e-15)


def validity_of(out):
    line = next(ln for ln in out.splitlines()
                if ln.startswith("# validity: "))
    return tuple(float(v) for v in line[len("# validity: "):].split(":"))


def test_second_order_fast_mode_ends_validity():
    # The e^(-1e200 t) mode has weight about -1e-400, so y leaves double
    # range by x = -1.6e-197. Its case-basis constant underflowed to -0:
    # validity read -inf:inf and y(-1) read 1.
    code, out, err = invoke(["solve"] + _SECOND_ORDER_IVP
                            + ["--b", "1e200", "--c", "1", "--range=-1:1",
                               "--samples", "3"])
    assert (code, err) == (0, "")
    lo, hi = validity_of(out)
    assert -1e-10 <= lo < 0.0 and hi == math.inf
    assert all(x >= lo and y == 1.0 for x, y in csv_rows(out))


def test_second_order_opposite_rates_keep_their_validity():
    # y = cosh(x): e^(2x) alone overflows from x = 354.9, and the bracket
    # is scaled so that validity still ends where e^|x| does.
    code, out, err = invoke(["solve"] + _SECOND_ORDER_IVP
                            + ["--b", "0", "--c=-1", "--range=-800:800",
                               "--samples", "5"])
    assert (code, err) == (0, "")
    lo, hi = validity_of(out)
    edge = math.log(sys.float_info.max)
    assert abs(lo + edge) <= 1e-8 and abs(hi - edge) <= 1e-8
    for x, y in csv_rows(out):
        assert y == pytest.approx(math.cosh(x), rel=1e-13)


def test_near_repeated_rates_verify():
    # c = 1 - 1e-11: the case-basis constants grew like 1/(r2 - r1) and
    # cancelled, and the residual (3.5e-3) and Riccati (3.2e-2) checks
    # failed an answer the oracle agreed with to 3.6e-10.
    code, out, err = invoke(["verify"] + _SECOND_ORDER_IVP
                            + ["--b", "2", "--c", "0.99999999999",
                               "--range", "0:10"])
    assert (code, err) == (0, "")
    assert "# overall: pass" in out


def test_second_order_overflowing_discriminant_names_no_constant():
    # The constructor failed on "C2 must be a finite number", a constant the
    # user never gave. The closed form now stands; the explicit oracle
    # cannot step a rate of -1e308.
    err = assert_clean_error(["verify"] + _SECOND_ORDER_IVP
                             + ["--b", "1e308", "--c", "1e308",
                                "--range", "0:1"], 2)
    assert "constructor" not in err and "C2" not in err


@pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
def test_range_of_infinite_width_is_a_usage_error(command):
    # oracle printed an empty table truncated at 0; verify and solve named
    # checkpoint_spacing, a setting the user never gave.
    err = assert_clean_error(
        [command, "--class", "linear", "--f", "1", "--g", "0", "--x0", "0",
         "--y0", "1", "--range=-1e308:1e308", "--samples", "3"], 1)
    assert "range width" in err
