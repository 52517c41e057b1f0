"""Command line interface: payload schemas, formats and exit codes."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell3q.cli
import bell3q.expressions
from bell3q.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_states_catalog_listing(capsys):
    payload = run_json(capsys, "states")
    assert payload["command"] == "states"
    names = [entry["name"] for entry in payload["result"]["catalog"]]
    assert names == ["ghz", "w", "singlet", "hardy"]
    assert "mermin" in payload["result"]["expressions"]


def test_states_amplitudes_and_reductions(capsys):
    payload = run_json(capsys, "states", "--state", "ghz")
    amplitudes = payload["result"]["amplitudes"]
    assert len(amplitudes) == 8
    assert amplitudes[0] == {"index": 0, "ket": "+++", "re": 0.5, "im": 0.0}
    concurrences = payload["result"]["pair_concurrences"]
    assert all(value == 0.0 for value in concurrences.values())
    payload = run_json(capsys, "states", "--state", "w")
    assert all(
        value == pytest.approx(2.0 / 3.0, abs=1e-9)
        for value in payload["result"]["pair_concurrences"].values()
    )


def test_states_two_qubit_concurrence(capsys):
    payload = run_json(capsys, "states", "--state", "singlet")
    assert payload["result"]["concurrence"] == pytest.approx(1.0, abs=1e-9)


def test_eval_happy_path(capsys):
    payload = run_json(
        capsys, "eval", "--state", "w", "--expr", "cabello_ch", "--bind", "A=z,B=x"
    )
    assert payload["config"] == {
        "state": "w",
        "expr": "cabello_ch",
        "bind": "A=z,B=x",
        "tol": 1e-9,
    }
    result = payload["result"]
    assert result["quantum_value"] == 0.25
    assert result["classical_upper"] == 0.0
    assert result["violated"] is True
    assert result["margin"] == 0.25
    assert result["witness"] is None
    assert len(result["terms"]) == 5
    assert result["binding"]["q1:A"] == [0.0, 0.0, 1.0]


def test_eval_per_qubit_override(capsys):
    payload = run_json(
        capsys,
        "eval",
        "--state",
        "ghz",
        "--expr",
        "mermin",
        "--bind",
        "A=z,B=x,q2:B=y",
    )
    assert payload["result"]["binding"]["q2:B"] == [0.0, 1.0, 0.0]
    assert payload["result"]["binding"]["q1:B"] == [1.0, 0.0, 0.0]


def test_eval_angle_binding_twelve_digit_floats(capsys):
    code, out, err = run_cli(
        capsys,
        "eval",
        "--state",
        "w",
        "--expr",
        "mermin",
        "--bind",
        "A=angle:3.769358,B=angle:5.129419",
    )
    assert code == 0
    payload = json.loads(out)
    value = payload["result"]["quantum_value"]
    assert value == pytest.approx(3.045956, abs=1e-5)
    # floats are serialized at 12 significant digits
    assert f"{value:.12g}" in out


def test_eval_csv_term_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "eval",
        "--state",
        "ghz",
        "--expr",
        "cabello_ch",
        "--bind",
        "A=z,B=x",
        "--out",
        "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["record", "index", "coefficient", "detail", "value"]
    term_rows = [row for row in rows if row[0] == "term"]
    assert len(term_rows) == 5
    summary = {row[0]: row[4] for row in rows if row[0] != "term"}
    assert float(summary["quantum_value"]) == 0.5
    assert summary["violated"] == "True"


def test_bounds_literal_warning(capsys):
    payload = run_json(capsys, "bounds", "--expr", "cabello_ch_literal")
    result = payload["result"]
    assert result["classical_lower"] == -1.0
    assert result["classical_upper"] == 1.0
    assert result["strategy_count"] == 64
    assert result["warning"] is not None
    assert result["note"] is not None
    assert set(result["maximizer"]) == {
        "q1:A",
        "q1:B",
        "q2:A",
        "q2:B",
        "q3:A",
        "q3:B",
    }


def test_bounds_canonical_silent(capsys):
    payload = run_json(capsys, "bounds", "--expr", "mermin")
    assert payload["result"]["warning"] is None
    assert payload["result"]["classical_lower"] == -2.0
    assert payload["result"]["classical_upper"] == 2.0


def test_argue_w_json(capsys):
    payload = run_json(capsys, "argue", "--state", "w")
    result = payload["result"]
    assert result["structure"] == "always-always-sometimes"
    assert result["p1"] == 1.0
    assert result["p4"] == 0.75
    assert result["unexplained_fraction"] == 0.25
    assert len(result["conditionals"]) == 3


def test_argue_text_table(capsys):
    code, out, err = run_cli(capsys, "argue", "--state", "ghz", "--out", "text")
    assert code == 0
    assert "sometimes-always-fewer" in out
    assert "p1" in out and "p4" in out
    assert "unexplained fraction: 0.5" in out


def test_argue_two_qubit_requires_angles(capsys):
    code, out, err = run_cli(capsys, "argue", "--state", "hardy:0.3")
    assert code == 2
    assert "angles" in err


def test_argue_two_qubit_with_angles(capsys):
    payload = run_json(
        capsys,
        "argue",
        "--state",
        "singlet",
        "--angles",
        f"0,{math.pi / 2},{-3 * math.pi / 4},{3 * math.pi / 4}",
    )
    assert payload["result"]["ch_middle"] == pytest.approx(
        (math.sqrt(2.0) - 1.0) / 2.0, abs=1e-9
    )


def test_argue_rejects_angles_for_three_qubits(capsys):
    code, out, err = run_cli(capsys, "argue", "--state", "w", "--angles", "1,2,3,4")
    assert code == 2


def test_optimize_symmetric(capsys):
    payload = run_json(
        capsys, "optimize", "--state", "ghz", "--expr", "mermin", "--mode", "symmetric"
    )
    result = payload["result"]
    assert result["mode"] == "symmetric"
    assert result["value"] == pytest.approx(4.0, abs=1e-6)
    assert set(result["angles"]) == {"A", "B"}
    assert payload["config"]["state"] == "ghz"


def test_optimize_certification(capsys):
    payload = run_json(
        capsys,
        "optimize",
        "--state",
        "ghz",
        "--expr",
        "eq14",
        "--certify-below",
        "4.0",
    )
    assert payload["result"]["certified"] is True
    assert payload["result"]["bound"] == 4.0


def test_optimize_hardy_search(capsys):
    payload = run_json(capsys, "optimize", "--hardy-search")
    result = payload["result"]
    assert result["value"] == pytest.approx(0.0901699437, abs=1e-6)
    assert result["report"]["checks_passed"] is True
    assert set(result["angles"]) == {"a1", "b1", "a2", "b2"}


def test_optimize_requires_inputs(capsys):
    code, out, err = run_cli(capsys, "optimize", "--state", "w")
    assert code == 2


def test_exit_code_config_error(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--state", "nope", "--expr", "mermin", "--bind", "A=z,B=x"
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_contract_violation(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--state", "singlet", "--expr", "mermin", "--bind", "A=z,B=x"
    )
    assert code == 3


def test_exit_code_budget(capsys):
    code, out, err = run_cli(
        capsys, "optimize", "--state", "ghz", "--expr", "mermin", "--mode", "free",
        "--budget", "1000000",
    )
    assert code == 4


def test_exit_code_argparse(capsys):
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_bad_binding_diagnostics(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--state", "w", "--expr", "mermin", "--bind", "A=z"
    )
    assert code == 2
    assert "no observable bound for qubit 1 label 'B'" in err
    code, out, err = run_cli(
        capsys, "eval", "--state", "w", "--expr", "mermin", "--bind", "A=z,q1:B=x,q2:B=y"
    )
    assert code == 2
    assert "no observable bound for qubit 3 label 'B'" in err
    code, out, err = run_cli(
        capsys, "eval", "--state", "w", "--expr", "mermin", "--bind", "A=z,B=x,q2:b=y,q7:A=y"
    )
    assert (code, out) == (2, "")
    assert "match no qubit and label of the expression: q2:b, q7:A" in err
    code, out, err = run_cli(
        capsys, "eval", "--state", "w", "--expr", "mermin", "--bind", "A=z,B=x,C=y"
    )
    assert (code, out) == (2, "")
    assert "match no qubit and label of the expression: C" in err
    code, out, err = run_cli(
        capsys, "eval", "--state", "w", "--expr", "mermin", "--bind", "A=z,B=spin"
    )
    assert code == 2
    code, out, err = run_cli(
        capsys,
        "eval",
        "--state",
        "w",
        "--expr",
        "mermin",
        "--bind",
        "A=z,B=angle:abc",
    )
    assert code == 2


def test_file_based_state_and_expression(tmp_path, capsys):
    state_path = tmp_path / "state.txt"
    state_path.write_text(
        "0 0\n0.70710678118654752 0\n-0.70710678118654752 0\n0 0\n"
    )
    expr_path = tmp_path / "expr.txt"
    expr_path.write_text("1 CORR q1:A q2:A SUBSET=1,2\n")
    payload = run_json(
        capsys,
        "eval",
        "--state",
        f"file:{state_path}",
        "--expr",
        f"file:{expr_path}",
        "--bind",
        "A=z",
    )
    assert payload["result"]["quantum_value"] == -1.0
    assert payload["result"]["expression"] == "expr"


def test_states_text_mode(capsys):
    code, out, err = run_cli(capsys, "states", "--state", "w", "--out", "text")
    assert code == 0
    assert "+--" in out
    code, out, err = run_cli(capsys, "states", "--out", "csv")
    assert code == 0
    assert out.startswith("key,value")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


_REFUSED = [
    (["eval", "--state", "w", "--expr", "mermin", "--bind", "A=angle:nan,B=x"], 3),
    (["eval", "--state", "w", "--expr", "mermin", "--bind", "A=angle:inf,B=x"], 3),
    (["argue", "--state", "singlet", "--angles", "0,1,nan,2"], 3),
    (["eval", "--state", "w", "--expr", "mermin", "--bind", "A=z,B=x", "--tol", "nan"], 2),
    (["eval", "--state", "w", "--expr", "mermin", "--bind", "A=z,B=x", "--tol", "-1"], 2),
    (["argue", "--state", "w", "--tol", "inf"], 2),
    (["optimize", "--state", "w", "--expr", "mermin", "--grid-step", "0"], 2),
    (["optimize", "--state", "w", "--expr", "mermin", "--grid-step", "-1"], 2),
    (["optimize", "--state", "w", "--expr", "mermin", "--grid-step", "nan"], 2),
    (["optimize", "--state", "w", "--expr", "mermin", "--grid-step", "1e-320"], 4),
    (["optimize", "--state", "w", "--expr", "mermin", "--budget", "-5"], 2),
    (["optimize", "--state", "ghz", "--expr", "eq14", "--certify-below", "nan"], 2),
    (["optimize", "--state", "ghz", "--expr", "eq14", "--certify-below", "inf"], 2),
    (["optimize", "--state", "ghz", "--expr", "eq14", "--certify-below", "1e400"], 2),
]


@pytest.mark.parametrize("argv, code", _REFUSED, ids=[" ".join(argv[-2:]) for argv, _ in _REFUSED])
def test_non_finite_and_out_of_range_numbers_are_refused(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert "error" in err


_IGNORING_TOL = [
    ["states"],
    ["bounds", "--expr", "mermin"],
    ["optimize", "--state", "ghz", "--expr", "eq14", "--certify-below", "4.0"],
]


@pytest.mark.parametrize("argv", _IGNORING_TOL, ids=[argv[0] for argv in _IGNORING_TOL])
def test_tol_is_refused_where_it_is_not_read(capsys, argv):
    # only eval and argue compare against --tol; elsewhere it is an error
    got, out, err = run_cli(capsys, *argv, "--tol", "0.5")
    assert (got, out) == (2, "")
    assert "unrecognized arguments: --tol 0.5" in err


_UNREAD_BY_OPTIMIZE = [
    (["--hardy-search", "--state", "w"], "--state"),
    (["--hardy-search", "--expr", "mermin"], "--expr"),
    (["--hardy-search", "--mode", "symmetric"], "--mode"),
    (["--hardy-search", "--grid-step", "0.1"], "--grid-step"),
    (["--hardy-search", "--budget", "100000000"], "--budget"),
    (["--hardy-search", "--certify-below", "4.0"], "--certify-below"),
    (["--state", "w", "--expr", "mermin", "--state-angle", "0.3"], "--state-angle"),
    (["--state", "ghz", "--expr", "eq14", "--certify-below", "4", "--state-angle", "0.3"], "--state-angle"),
]


@pytest.mark.parametrize("argv, flag", _UNREAD_BY_OPTIMIZE, ids=[flag for _, flag in _UNREAD_BY_OPTIMIZE])
def test_optimize_refuses_flags_it_would_not_read(capsys, argv, flag):
    # the Hardy search takes only --state-angle, and only it reads that flag;
    # a default value given explicitly is refused too
    got, out, err = run_cli(capsys, "optimize", *argv)
    assert (got, out) == (2, "")
    assert flag in err


def test_optimize_refusal_names_every_unread_flag(capsys):
    got, out, err = run_cli(
        capsys, "optimize", "--hardy-search", "--state-angle", "0.3", "--mode", "free",
        "--state", "w", "--budget", "5",
    )
    assert (got, out) == (2, "")
    assert "--hardy-search does not take --state, --mode, --budget" in err


def test_non_finite_state_file_is_refused(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("nan 0\n" + "0 0\n" * 6 + "1 0\n")
    code, out, err = run_cli(
        capsys, "eval", "--state", f"file:{path}", "--expr", "mermin", "--bind", "A=z,B=x"
    )
    assert (code, out) == (3, "")
    assert "norm nan" in err


_OVERFLOWING_EXPRESSIONS = {
    "1e308-and-1": ("w", "1e308 CORR q1:A q2:A q3:A SUBSET=1,2,3\n-1 CORR q1:B q2:B q3:B SUBSET=1,2,3\n"),
    "1e308-twice": ("w", "1e308 CORR q1:A q2:A q3:A SUBSET=1,2,3\n1e308 CORR q1:B q2:B q3:B SUBSET=1,2,3\n"),
    "nan": ("singlet", "nan CORR q1:A q2:A SUBSET=1,2\n"),
}


@pytest.mark.parametrize("mode", ["symmetric", "free"])
@pytest.mark.parametrize("name", list(_OVERFLOWING_EXPRESSIONS))
def test_overflowing_coefficients_end_cleanly(tmp_path, capsys, name, mode):
    # a refused coefficient exits 2; a grid that overflows to NaN exits 3
    state, text = _OVERFLOWING_EXPRESSIONS[name]
    path = tmp_path / "expr.txt"
    path.write_text(text)
    expr = ["--expr", f"file:{path}"]
    code, out, err = run_cli(capsys, "optimize", "--state", state, *expr, "--mode", mode)
    assert (code in (2, 3), out) == (True, "")
    assert "error" in err
    for argv in (["eval", "--state", state, *expr, "--bind", "A=z,B=x"], ["bounds", *expr]):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3), err
        if code == 0:
            _strict_json(out)
        else:
            assert out == ""


@pytest.mark.parametrize("out_format", ["json", "csv", "text"])
def test_non_finite_output_is_a_contract_violation(monkeypatch, capsys, out_format):
    def handler(args):
        return {"command": "states", "config": {}, "result": {"value": math.inf}}

    monkeypatch.setattr(bell3q.cli, "_cmd_states", handler)
    code, out, err = run_cli(capsys, "states", "--out", out_format)
    assert (code, out) == (3, "")
    assert "non-finite" in err


def test_closed_pipe_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bell3q.cli", "states"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_import_defaults_openblas_to_one_thread():
    # set before numpy loads; a value the user set wins
    probe = "import os, bell3q; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    for setting, expected in ((None, "1"), ("4", "4")):
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == expected


def test_eval_evaluates_each_term_once(monkeypatch, capsys):
    # every term of one eval is read from a single contraction
    calls = []
    original = bell3q.expressions.correlation_table

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(bell3q.expressions, "correlation_table", counting)
    payload = run_json(
        capsys, "eval", "--state", "ghz", "--expr", "cabello_ch", "--bind", "A=z,B=x"
    )
    assert len(payload["result"]["terms"]) == 5
    assert len(calls) == 1
    assert [len(per_qubit) for per_qubit in calls[0]] == [2, 2, 2]


_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-320", "1e308"]),
    st.floats(-10.0, 10.0).map(repr),
)


_EXPRESSION_FILE = "file:<expression>"


@st.composite
def numeric_commands(draw):
    """An argv, and the text of the expression file that ``_EXPRESSION_FILE``
    in it names: two three-qubit correlators with coefficients x and y."""
    x, y = draw(_NUMBERS), draw(_NUMBERS)
    budget = str(draw(st.integers(-5, 5000)))
    expression = f"{x} CORR q1:A q2:A q3:A SUBSET=1,2,3\n{y} CORR q1:B q2:B q3:B SUBSET=1,2,3\n"
    commands = [
        ["eval", "--state", "w", "--expr", "mermin", "--bind", f"A=angle:{x},B=x", "--tol", y],
        ["optimize", "--state", "w", "--expr", "mermin", "--grid-step", x, "--budget", budget],
        [
            "optimize", "--state", "ghz", "--expr", "eq14", "--certify-below", x,
            "--grid-step", y, "--budget", budget,
        ],
        ["argue", "--state", f"hardy:{x}", "--angles", f"{y},1,{x},2", "--tol", y],
        ["optimize", "--hardy-search", "--state-angle", x],
        ["states", "--state", f"hardy:{x}", "--out", "csv"],
        ["eval", "--state", "w", "--expr", _EXPRESSION_FILE, "--bind", "A=z,B=x"],
        ["bounds", "--expr", _EXPRESSION_FILE],
        ["optimize", "--state", "w", "--expr", _EXPRESSION_FILE],
    ]
    return draw(st.sampled_from(commands)), expression


@settings(max_examples=40, deadline=None, derandomize=True)
@given(command=numeric_commands())
def test_generated_numeric_arguments_end_cleanly(tmp_path_factory, command):
    argv, expression = command
    path = tmp_path_factory.getbasetemp() / "numeric-expression.txt"
    path.write_text(expression)
    argv = [f"file:{path}" if arg == _EXPRESSION_FILE else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4), stderr.getvalue()
    if code != 0:
        assert stdout.getvalue() == ""
    elif "--out" not in argv:
        _strict_json(stdout.getvalue())


def test_hardy_search_refuses_an_underflowing_state_angle(capsys):
    code, out, err = run_cli(capsys, "optimize", "--hardy-search", "--state-angle", "1e-200")
    assert code == 2
    assert out == ""
    assert "state angle" in err
