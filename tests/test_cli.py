"""Command-line behavior: exit codes, determinism, report contents."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from elsakit import (
    BadProblemFile,
    BadSystemFile,
    LinearSystem,
    Matrix,
    SingularSystem,
    build_invsqr,
    make_problem,
    problem_from_json,
    problem_to_json,
    system_from_json,
    system_to_json,
)
from elsakit.cli import main
from oracles import piecewise_invsqr

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def reject_constant(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


class TestVerifyLemmas:
    def test_default_run_passes(self, capsys):
        code, out = run_cli(["verify-lemmas", "--trials", "25", "--seed", "0"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert set(report["suites"]) == {"mask_move", "const", "skip", "matmul_v1", "matmul_v2"}
        assert all(s["failures"] == 0 for s in report["suites"].values())

    def test_perturbation_is_caught_and_named(self, capsys):
        code, out = run_cli(
            ["verify-lemmas", "--trials", "10", "--seed", "0", "--perturb"], capsys
        )
        report = json.loads(out)
        assert code == 1
        assert report["failing_suites"] == ["const"]

    def test_zero_trials_warns_and_passes(self, capsys):
        code, out = run_cli(["verify-lemmas", "--trials", "0", "--seed", "0"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["warnings"]

    def test_byte_identical_reports_for_same_config(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["verify-lemmas", "--trials", "15", "--seed", "42",
                         "--report", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify-lemmas", "--trials", "15", "--seed", "1", "--report", str(a)])
        main(["verify-lemmas", "--trials", "15", "--seed", "2", "--report", str(b)])
        assert json.loads(a.read_text())["seed"] != json.loads(b.read_text())["seed"]


class TestRidgeCommand:
    def test_generated_problem_report(self, capsys):
        code, out = run_cli(
            ["ridge", "--form", "elsa", "--n", "8", "--d", "3", "--steps", "50",
             "--seed", "7"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert report["form"] == "enumerated"
        assert report["max_step_deviation"] <= 1e-9
        assert "closed_form_gap" in report

    def test_long_run_reaches_closed_form(self, capsys):
        code, out = run_cli(
            ["ridge", "--form", "lsa", "--n", "20", "--d", "4", "--lambda", "0.5",
             "--eta", "auto", "--steps", "5000", "--seed", "1"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["closed_form_gap"] <= 1e-6

    def test_forms_agree_on_same_seed(self, capsys):
        preds = {}
        for form in ("lsa", "elsa"):
            _, out = run_cli(
                ["ridge", "--form", form, "--n", "6", "--d", "2", "--steps", "100",
                 "--seed", "11"], capsys
            )
            preds[form] = json.loads(out)["prediction"]
        assert abs(preds["lsa"] - preds["elsa"]) <= 1e-9 * (1 + abs(preds["lsa"]))

    def test_problem_file_and_zero_steps(self, tmp_path, capsys):
        p = make_problem(
            Matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            Matrix([[1.0], [2.0], [3.0]]),
            Matrix([[2.0], [1.0]]),
            0.5,
            eta=0.1,
            steps=0,
            w0=Matrix([[1.0], [1.0]]),
        )
        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(p))
        code, out = run_cli(["ridge", "--problem", str(path), "--seed", "0"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["T"] == 0
        assert report["prediction"] == pytest.approx(3.0, abs=1e-12)  # u . w0

    def test_bad_problem_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, out = run_cli(["ridge", "--problem", str(path), "--seed", "0"], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "BadProblemFile"

    @pytest.mark.parametrize("form", ["lsa", "elsa"])
    def test_divergent_rate_fails_with_strict_json(self, form, capsys):
        code, out = run_cli(
            ["ridge", "--n", "5", "--d", "3", "--lambda", "0", "--eta", "100",
             "--steps", "400", "--form", form], capsys
        )
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert report["passed"] is False
        assert report["prediction"] is None
        assert report["diverged_at"] is not None

    def test_divergent_rate_fails_on_contraction(self, capsys):
        # The pipeline tracks the diverging descent step for step, so only
        # the contraction factor tells this run apart from a good one.
        code, out = run_cli(["ridge", "--eta", "10", "--steps", "40"], capsys)
        report = json.loads(out)
        assert code == 1
        assert report["passed"] is False
        assert report["max_step_deviation"] <= report["step_tol"]
        assert report["contraction"] > 1.0

    @pytest.mark.parametrize("form", ["lsa", "elsa"])
    def test_divergent_explicit_eta_stops_silently(self, tmp_path, form):
        # X^T X is finite, but eta = 0.1 overflows the descent at step 3.
        doc = {"X": [[1e100, 1], [2, 3]], "y": [1, 2], "u": [1, 1], "lambda": 0.5,
               "eta": 0.1, "steps": 5}
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "elsakit.cli", "ridge", "--problem", str(path),
             "--form", form], env=env, capture_output=True, text=True, timeout=60,
        )
        report = json.loads(result.stdout, parse_constant=reject_constant)
        assert result.returncode == 1
        assert result.stderr == ""
        assert report["passed"] is False
        assert report["diverged_at"] == 3
        assert len(report["per_step_deviation"]) == 3

    def test_default_run_contracts(self, capsys):
        code, out = run_cli(["ridge"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert 0.0 < report["contraction"] < 1.0

    def test_auto_eta_on_singular_design(self, tmp_path, capsys):
        doc = {"X": [[0.0, 0.0], [0.0, 0.0]], "y": [1.0, 2.0], "u": [1.0, 1.0],
               "lambda": 0, "eta": "auto", "steps": 5}
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["ridge", "--problem", str(path)], capsys)
        report = json.loads(out)
        assert code == 1
        assert report["command"] == "ridge"
        assert report["error"] == "SingularSystem"
        assert report["message"]


GOOD_PROBLEM = {"X": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 2.0], "u": [1.0, 1.0],
                "lambda": 0.5, "eta": 0.1, "steps": 5}
GOOD_SYSTEM = {"F": [[2.0, 1.0], [1.0, 3.0]], "alpha": [3.0, 5.0]}


class TestBadInputFiles:
    """Each malformed file ends in one structured report, never a traceback."""

    @pytest.mark.parametrize("command,flag,text,error", [
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "X": [[1.0, 0.0], [1.0]]}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "lambda": -1}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "steps": -2}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "steps": float("inf")}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "lambda": -1, "eta": "auto"}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "steps": 2.5}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "steps": True}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "lambda": True}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "eta": False}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "y": [[1.0, 2.0]]}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "u": [[1.0], [1.0]]}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "w0": [[0.0, 0.0]]}),
         "BadProblemFile"),
        ("gauss", "--system", json.dumps({**GOOD_SYSTEM, "F": [[2.0, 1.0], [1.0]]}),
         "BadSystemFile"),
        ("gauss", "--system", '{"F": [[1e400, 1.0], [1.0, 3.0]], "alpha": [3.0, 5.0]}',
         "BadSystemFile"),
        ("gauss", "--system", json.dumps({**GOOD_SYSTEM, "alpha": [3.0, "a"]}),
         "BadSystemFile"),
        ("gauss", "--system", json.dumps({**GOOD_SYSTEM, "alpha": [[3.0, 5.0]]}),
         "BadSystemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "X": [[True, 0.0], [0.0, 1.0]]}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "y": ["1", 2.0]}), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "u": [1.0, False]}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "w0": ["0", 0.0]}), "BadProblemFile"),
        ("gauss", "--system", json.dumps({**GOOD_SYSTEM, "F": [["2", 1.0], [1.0, 3.0]]}),
         "BadSystemFile"),
        ("gauss", "--system", json.dumps({**GOOD_SYSTEM, "alpha": ["1e0", 5.0]}),
         "BadSystemFile"),
        ("gauss", "--system", json.dumps({**GOOD_SYSTEM, "alpha": [3.0, True]}),
         "BadSystemFile"),
        ("ridge", "--problem",
         json.dumps({**GOOD_PROBLEM, "X": [[1e200, 1.0], [2.0, 3.0]], "eta": "auto"}),
         "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**GOOD_PROBLEM, "X": [[1e200, 1.0], [2.0, 3.0]]}),
         "BadProblemFile"),
        ("gauss", "--system", '{"F": [[1e160, 0.0], [0.0, 1.0]], "alpha": [1e160, 1.0]}',
         "SingularDetected"),
    ], ids=["ragged-X", "negative-lambda", "negative-steps", "infinite-steps",
            "negative-lambda-auto-eta", "fractional-steps", "boolean-steps",
            "boolean-lambda", "boolean-eta", "nested-y", "nested-u", "nested-w0",
            "ragged-F", "overflowing-entry", "non-numeric-alpha", "nested-alpha",
            "boolean-X-entry", "string-y-entry", "boolean-u-entry", "string-w0-entry",
            "string-F-entry", "string-alpha-entry", "boolean-alpha-entry",
            "overflowing-gram-auto-eta", "overflowing-gram-explicit-eta", "huge-exact-pivot"])
    def test_reported_as_structured_error(self, tmp_path, capsys, command, flag, text, error):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main([command, flag, str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert code == 1
        assert set(report) == {"command", "error", "message"}
        assert report["command"] == command
        assert report["error"] == error
        assert report["message"]
        assert "Traceback" not in captured.err


# Any JSON value, non-finite floats and unbounded integers included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=10,
)


def floats(size):
    return st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size)


@st.composite
def corrupted(draw, valid):
    """A well-formed document with any subset of its values replaced."""
    doc = draw(valid)
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        doc[key] = draw(JSON_VALUES)
    return doc


@st.composite
def problem_docs(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {
        "X": draw(st.lists(floats(d), min_size=n, max_size=n)),
        "y": draw(floats(n)),
        "u": draw(floats(d)),
        "lambda": draw(st.floats(0.0, 3.0)),
        "eta": draw(st.just("auto") | st.floats(0.0, 3.0)),
        "steps": draw(st.integers(0, 5)),
        "w0": draw(st.just("zero") | floats(d)),
    }


@st.composite
def system_docs(draw):
    m = draw(st.integers(2, 3))
    return {"F": draw(st.lists(floats(m), min_size=m, max_size=m)), "alpha": draw(floats(m))}


class TestFileParserProperty:
    """A parser either returns the document's values or raises its own named error."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(doc=corrupted(problem_docs()))
    def test_problem_from_json(self, doc):
        try:
            p = problem_from_json(json.dumps(doc))
        except (BadProblemFile, SingularSystem):
            return
        assert type(doc["steps"]) is int and p.steps == doc["steps"]
        assert p.lam == float(doc["lambda"])
        assert p.y.array[:, 0].tolist() == [float(v) for v in doc["y"]]

    @settings(max_examples=150, deadline=None, database=None)
    @given(doc=corrupted(system_docs()))
    def test_system_from_json(self, doc):
        try:
            sys = system_from_json(json.dumps(doc))
        except BadSystemFile:
            return
        assert sys.alpha.array[:, 0].tolist() == [float(v) for v in doc["alpha"]]


class TestRidgeExitCodeProperty:
    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 4),
        lam=st.floats(0.0, 2.0),
        eta=st.one_of(st.just("auto"), st.floats(1e-3, 20.0)),
        steps=st.integers(0, 30),
        form=st.sampled_from(["lsa", "elsa"]),
        seed=st.integers(0, 2**16),
    )
    def test_exit_code_equals_passed(self, n, d, lam, eta, steps, form, seed):
        args = ["ridge", "--form", form, "--n", str(n), "--d", str(d),
                "--lambda", str(lam), "--eta", str(eta),
                "--steps", str(steps), "--seed", str(seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args)
        report = json.loads(buf.getvalue(), parse_constant=reject_constant)
        assert (code == 0) == (report.get("passed") is True)


EXIT_RULE = {
    "verify_default": (["verify-lemmas"], True),
    "verify_perturb": (["verify-lemmas", "--perturb"], False),
    "ridge_default": (["ridge"], True),
    "ridge_divergent": (["ridge", "--eta", "10", "--steps", "40"], False),
    "gauss_default": (["gauss"], True),
    "gauss_tight_tol": (["gauss", "--mode", "relu", "--size", "4", "--tol", "1e-12"], False),
    "sweep_refines": (["gauss", "--mode", "relu", "--size", "6", "--seed", "2", "--sweep"], True),
    "sweep_stalls": (["gauss", "--size", "3", "--knots", "explicit:1,2", "--sweep"], False),
}


class TestExitRule:
    """Every report command: exit 0 exactly when the one report says passed."""

    @pytest.mark.parametrize("name", EXIT_RULE, ids=str)
    def test_exit_code_follows_report(self, tmp_path, capsys, name):
        args, verdict = EXIT_RULE[name]
        code, out = run_cli(args, capsys)
        report = json.loads(out, parse_constant=reject_constant)  # exactly one document
        assert report["passed"] is verdict
        assert (code == 0) == (report["passed"] is True)
        path = tmp_path / "report.json"
        assert run_cli([*args, "--report", str(path)], capsys) == (code, "")
        assert path.read_text() == out


class TestGaussCommand:
    def test_exact_mode_passes(self, capsys):
        code, out = run_cli(["gauss", "--mode", "exact", "--size", "8", "--seed", "2"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["rel_error_vs_oracle"] <= 1e-8
        assert len(report["pivots"]) == 8 + 7  # forward then backward pivots

    def test_sweep_is_nonincreasing(self, capsys):
        code, out = run_cli(
            ["gauss", "--mode", "relu", "--size", "6", "--seed", "2", "--sweep"], capsys
        )
        report = json.loads(out)
        assert code == 0
        errs = [row["rel_error_vs_oracle"] for row in report["sweep"]]
        assert errs[0] >= errs[1] >= errs[2]
        assert [row["knots"] for row in report["sweep"]] == [64, 128, 256]

    def test_sweep_fails_above_tol(self, capsys):
        # Both knots lie below every pivot, so refinement cannot help.
        code, out = run_cli(
            ["gauss", "--mode", "relu", "--size", "3", "--knots", "explicit:1,2", "--sweep"],
            capsys,
        )
        report = json.loads(out)
        assert code == 1
        assert report["passed"] is False
        assert report["tol"] == 5e-2
        assert report["sweep"][-1]["rel_error_vs_oracle"] > report["tol"]

    def test_singular_system_names_pivot_error(self, tmp_path, capsys):
        sys_json = system_to_json(
            LinearSystem(f=Matrix([[1.0, 2.0], [1.0, 2.0]]), alpha=Matrix([[1.0], [1.0]]))
        )
        path = tmp_path / "singular.json"
        path.write_text(sys_json)
        code, out = run_cli(["gauss", "--system", str(path), "--seed", "0"], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "PivotBelowTolerance"

    @pytest.mark.parametrize("text", ['{"F": [[2.0]]}', "not json"])
    def test_bad_system_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out = run_cli(["gauss", "--system", str(path), "--seed", "0"], capsys)
        report = json.loads(out)
        assert code == 1
        assert report["command"] == "gauss"
        assert report["error"] == "BadSystemFile"
        assert report["message"]


    @pytest.mark.parametrize("args", [
        ["--mode", "relu", "--knots", "bogus"],
        ["--mode", "relu", "--sweep", "--knots", "geometric:x1=1,xmax=0.5,n=3"],
        ["--mode", "relu", "--knots", "explicit:1,nan,3"],
        ["--mode", "relu", "--knots", "explicit:1e-200,1e-100"],
        ["--mode", "exact", "--knots", "garbage"],
    ], ids=["relu", "sweep", "relu_nan", "relu_overflow", "exact"])
    def test_bad_knot_spec(self, capsys, args):
        code, out = run_cli(["gauss", "--size", "4", *args], capsys)
        report = json.loads(out)
        assert code == 1
        assert report["command"] == "gauss"
        assert report["error"] == "BadKnotSpec"
        assert report["message"]

    def test_size_one_is_a_shape_error(self, capsys):
        code, out = run_cli(["gauss", "--size", "1"], capsys)
        report = json.loads(out)
        assert code == 1
        assert report["command"] == "gauss"
        assert report["error"] == "ShapeMismatch"
        assert report["message"]

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_nonpositive_size_is_a_shape_error(self, capsys, size):
        code, out = run_cli(["gauss", "--size", size], capsys)
        report = json.loads(out)
        assert code == 1
        assert report["error"] == "ShapeMismatch"
        assert size in report["message"]


class TestInvsqrCommand:
    def test_table_matches_piecewise_oracle(self, capsys):
        code, out = run_cli(
            ["invsqr", "--knots", "explicit:1,2", "--samples", "9"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "x"
        rows = [line.split(",") for line in lines[1:]]
        table = build_invsqr("explicit:1,2")
        for r in rows:
            x, sigma = float(r[0]), float(r[1])
            want = float(piecewise_invsqr(table.knots, table.values, x))
            assert sigma == pytest.approx(want, abs=1e-12)
        by_x = {float(r[0]): float(r[1]) for r in rows}
        assert by_x[-2.0] == pytest.approx(0.25)
        assert by_x[2.0] == pytest.approx(0.25)
        # beyond the cutoff knot the approximator is exactly zero
        assert by_x[8.0] == 0.0 and by_x[-8.0] == 0.0

    def test_error_column_symmetric(self, capsys):
        _, out = run_cli(
            ["invsqr", "--knots", "explicit:1,2,4", "--samples", "41"], capsys
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[3]) for r in rows]
        mid = len(errs) // 2
        for i in range(mid):  # grid is symmetric; skip the x=0 midpoint
            assert errs[i] == pytest.approx(errs[-1 - i], abs=1e-12)

    def test_report_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "sigma.csv"
        code, out = run_cli(
            ["invsqr", "--knots", "explicit:1,2", "--samples", "5", "--report", str(path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert len(path.read_text().splitlines()) == 6

    def test_bad_knot_spec(self, capsys):
        code, out = run_cli(["invsqr", "--knots", "explicit:2,1"], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "BadKnotSpec"

    # NaN passes every order check; 1e-200 squares to 0, so its value is inf.
    @pytest.mark.parametrize("knots", ["explicit:1,nan,3", "explicit:1e-200,1e-100"],
                             ids=["nan", "overflow"])
    def test_non_finite_knot_table(self, capsys, knots):
        code, out = run_cli(["invsqr", "--knots", knots], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "BadKnotSpec"


class TestOutOfRangeOptions:
    @pytest.mark.parametrize("args", [
        ["ridge", "--n", "0"],
        ["ridge", "--d", "0"],
        ["ridge", "--steps", "-1"],
        ["invsqr", "--samples", "-5"],
        ["verify-lemmas", "--max-dim", "0"],
        ["verify-lemmas", "--trials", "-3"],
        ["ridge", "--n", "abc"],
        ["ridge", "--lambda", "-1"],
        ["ridge", "--lambda", "nan"],
        ["ridge", "--eta", "-1"],
        ["ridge", "--eta", "nan"],
        ["ridge", "--eta", "inf"],
        ["ridge", "--tol", "inf"],
        ["gauss", "--tol", "-1"],
        ["verify-lemmas", "--tol", "nan"],
    ])
    def test_rejected_as_usage_error(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""  # no report, so nothing claims "passed"
        assert f"argument {args[1]}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("args", [
        ["ridge", "--n", "1", "--d", "1", "--steps", "0"],
        ["verify-lemmas", "--max-dim", "1", "--trials", "0"],
        ["ridge", "--lambda", "0", "--eta", "0", "--tol", "0"],
    ])
    def test_lower_bounds_are_accepted(self, capsys, args):
        code, out = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestIoFailures:
    def test_unwritable_report_path(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        code = main(["verify-lemmas", "--trials", "2", "--seed", "0",
                     "--report", str(target)])
        assert code == 2
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("ridge", "--problem"), ("gauss", "--system")])
    def test_missing_input_file(self, tmp_path, capsys, command, flag):
        code = main([command, flag, str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "io error" in captured.err

    def test_input_error_with_unwritable_report(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        code = main(["gauss", "--size", "1", "--report", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "io error" in captured.err
        assert "Traceback" not in captured.err


class TestSeedEnvOverride:
    def test_env_var_sets_default_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ELSA_WB_SEED", "123")
        _, out = run_cli(["verify-lemmas", "--trials", "5"], capsys)
        assert json.loads(out)["seed"] == 123
        # explicit flag still wins
        _, out = run_cli(["verify-lemmas", "--trials", "5", "--seed", "9"], capsys)
        assert json.loads(out)["seed"] == 9
