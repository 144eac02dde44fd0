"""Command-line behavior: exit codes, determinism, report contents."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
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
from elsakit.cli import INPUT_ERRORS, MAX_LENGTH, MAX_SIDE, _build_parser, main
from elsakit.netcomp import DEFAULT_KNOT_SPEC, MAX_KNOTS
from elsakit.ridge import MAX_STEPS
from oracles import piecewise_invsqr

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """os.environ with src on PYTHONPATH, for a fresh elsakit process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


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
        result = subprocess.run(
            [sys.executable, "-m", "elsakit.cli", "ridge", "--problem", str(path),
             "--form", form], env=src_env(), capture_output=True, text=True, timeout=60,
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
# X^T X is finite, but X^T y overflows.
OVERFLOWING_XTY = {**GOOD_PROBLEM, "X": [[1e150, 0.0], [0.0, 1.0]], "y": [1e300, 1.0],
                   "eta": 1.0, "steps": 2}


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
        ("ridge", "--problem", json.dumps(OVERFLOWING_XTY), "BadProblemFile"),
        ("ridge", "--problem", json.dumps({**OVERFLOWING_XTY, "eta": "auto"}), "BadProblemFile"),
        ("ridge", "--problem",
         json.dumps({**GOOD_PROBLEM, "y": [-1e308, 1.0], "eta": 1e300, "steps": 2}),
         "BadProblemFile"),
    ], ids=["ragged-X", "negative-lambda", "negative-steps", "infinite-steps",
            "negative-lambda-auto-eta", "fractional-steps", "boolean-steps",
            "boolean-lambda", "boolean-eta", "nested-y", "nested-u", "nested-w0",
            "ragged-F", "overflowing-entry", "non-numeric-alpha", "nested-alpha",
            "boolean-X-entry", "string-y-entry", "boolean-u-entry", "string-w0-entry",
            "string-F-entry", "string-alpha-entry", "boolean-alpha-entry",
            "overflowing-gram-auto-eta", "overflowing-gram-explicit-eta", "huge-exact-pivot",
            "overflowing-xty", "overflowing-xty-auto-eta", "overflowing-scaled-prompt"])
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
        assert captured.err == ""

    # Files that parse but make a run fail: the report says so, with the
    # named field null, and nothing reaches stderr.
    @pytest.mark.parametrize("command,flag,text,null_field", [
        ("ridge", "--problem",
         json.dumps({"X": [[-0.0, 1e154, 1e154]], "y": [1.0], "u": [1, 1, 1], "lambda": 0.5,
                     "eta": "auto", "steps": 3}), "contraction"),
        ("ridge", "--problem",
         json.dumps({**GOOD_PROBLEM, "u": [1e154, 1e154], "eta": 1e300, "steps": 1}),
         "prediction"),
        ("ridge", "--problem",
         json.dumps({"X": [[1e154]], "y": [0.0], "u": [0.0], "lambda": 1e308, "eta": "auto",
                     "steps": 0}), "closed_form_prediction"),
    ], ids=["overflowing-contraction", "overflowing-prediction", "overflowing-ridge-term"])
    def test_reported_as_failing_run_without_a_warning(self, tmp_path, capsys, command, flag,
                                                       text, null_field):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main([command, flag, str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert code == 1
        assert captured.err == ""
        assert report["command"] == command
        assert report["passed"] is False
        assert report[null_field] is None


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


EXTREMES = (1e308, -1e308, 1e154, -1e154, 5e-324, -5e-324, 2.2e-308, -0.0)
FUZZ_NUMBERS = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), st.sampled_from(EXTREMES))


@st.composite
def fuzzed_problem_docs(draw):
    """A ridge problem document of extreme numbers, with up to two keys broken.

    A broken key is missing, holds any JSON value, holds its value nested one
    list deeper, or holds a ragged array.
    """
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def vector(size):
        return st.lists(FUZZ_NUMBERS, min_size=size, max_size=size)

    doc = {
        "X": draw(st.lists(vector(d), min_size=n, max_size=n)),
        "y": draw(vector(n)),
        "u": draw(vector(d)),
        "lambda": draw(FUZZ_NUMBERS),
        "eta": draw(st.just("auto") | FUZZ_NUMBERS),
        "steps": draw(st.integers(0, 6)),
        "w0": draw(st.just("zero") | vector(d)),
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        fault = draw(st.sampled_from(("missing", "any-value", "nested", "ragged")))
        if fault == "missing":
            del doc[key]
        elif fault == "any-value":
            doc[key] = draw(JSON_VALUES)
        elif fault == "nested":
            doc[key] = [doc[key]]
        elif key == "X":
            doc[key][draw(st.integers(0, n - 1))].append(1.0)
        else:
            doc[key] = [[1.0, 2.0], [3.0]]
    return doc


def descent_prediction(doc):
    """u^T w_T of plain numpy descent on a document the parser accepted."""
    x = np.array(doc["X"], dtype=float)
    y, u = (np.array(doc[k], dtype=float).reshape(-1, 1) for k in ("y", "u"))
    lam, eta, w0 = float(doc["lambda"]), doc.get("eta", "auto"), doc.get("w0", "zero")
    if eta == "auto":
        eta = 1.0 / (np.linalg.eigvalsh(x.T @ x)[-1] + lam)
    w = np.zeros_like(u) if w0 == "zero" else np.array(w0, dtype=float).reshape(-1, 1)
    with np.errstate(all="ignore"):
        for _ in range(doc["steps"]):
            w = w - eta * (-(x.T @ y) + x.T @ (x @ w) + lam * w)
        return w, float(u[:, 0] @ w[:, 0])


class TestRidgeInputFuzz:
    """Any ridge --problem document ends in a strict report or one stderr line, with no warning."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(doc=fuzzed_problem_docs(), form=st.sampled_from(["lsa", "elsa"]))
    def test_ridge_problem_documents(self, doc, form):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["ridge", "--form", form, "--problem", str(path)])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            return
        assert err.getvalue() == ""
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert (code == 0) == (report.get("passed") is True)
        if code == 0:
            w, want = descent_prediction(doc)
            assert np.all(np.isfinite(w)) and math.isfinite(want)
            u_norm = sum(abs(v) for v in doc["u"])  # Python floats: inf, without a warning
            scale = max(1.0, abs(want), u_norm * float(np.abs(w).max()))
            assert abs(report["prediction"] - want) <= 1e-8 * scale
            assert abs(report["oracle_prediction"] - want) <= 1e-12 * scale


@st.composite
def fuzzed_system_docs(draw):
    """A linear system document of extreme numbers, with keys that may be broken.

    m = 1 is a shape error; a broken key is as in fuzzed_problem_docs. So
    that solves run and pass, half of the documents break no key, and half
    make F diagonally dominant (an inf diagonal is a bad file).
    """
    m = draw(st.integers(1, 4))
    f = draw(st.lists(st.lists(FUZZ_NUMBERS, min_size=m, max_size=m), min_size=m, max_size=m))
    if draw(st.booleans()):
        for i, row in enumerate(f):
            row[i] = 1.0 + sum(abs(v) for v in row)  # Python floats: inf, without a warning
    doc = {"F": f, "alpha": draw(st.lists(FUZZ_NUMBERS, min_size=m, max_size=m))}
    broken = draw(st.sets(st.sampled_from(sorted(doc)), min_size=1)) if draw(st.booleans()) else ()
    for key in broken:
        fault = draw(st.sampled_from(("missing", "any-value", "nested", "ragged")))
        if fault == "missing":
            del doc[key]
        elif fault == "any-value":
            doc[key] = draw(JSON_VALUES)
        elif fault == "nested":
            doc[key] = [doc[key]]
        elif key == "F":
            doc[key][draw(st.integers(0, m - 1))].append(1.0)
        else:
            doc[key] = [[1.0, 2.0], [3.0]]
    return doc


KNOT_NUMBERS = st.one_of(FUZZ_NUMBERS, st.floats(1e-3, 1e3), st.sampled_from([0, "nan", "inf"]))
# Half of the specs are the default table. n runs up to and past MAX_KNOTS,
# which build_invsqr rejects before it allocates a knot.
FUZZED_KNOT_SPECS = st.just(DEFAULT_KNOT_SPEC) | st.one_of(
    st.builds("geometric:x1={},xmax={},n={}".format, KNOT_NUMBERS, KNOT_NUMBERS,
              st.integers(-1, MAX_KNOTS + 1)
              | st.sampled_from([MAX_KNOTS, MAX_KNOTS + 1, 10**9, "1.5", "", "x"])),
    st.lists(KNOT_NUMBERS, max_size=5).map(lambda xs: "explicit:" + ",".join(map(str, xs))),
    st.text(max_size=8),
)


def system_reference(doc):
    """(|F|_inf, |alpha|_inf, x, |F x - alpha|_inf) of numpy's pivoted solve of a parsed document."""
    f = np.array(doc["F"], dtype=float)
    alpha = np.array(doc["alpha"], dtype=float).reshape(-1, 1)
    with np.errstate(all="ignore"):
        x = np.linalg.solve(f, alpha)
        residual = float(np.max(np.abs(f @ x - alpha)))
        return float(np.abs(f).sum(axis=1).max()), float(np.abs(alpha).max()), x, residual


class TestGaussInputFuzz:
    """Any gauss --system document and --knots spec ends in a strict report or one stderr line."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(doc=fuzzed_system_docs(), knots=FUZZED_KNOT_SPECS,
           mode=st.sampled_from(["exact", "relu"]))
    def test_gauss_system_documents(self, doc, knots, mode):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "system.json"
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                # --knots=SPEC: a spec that starts with "-" is not an option.
                code = main(["gauss", "--mode", mode, f"--knots={knots}", "--system", str(path)])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            return
        assert err.getvalue() == ""
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert (code == 0) == (report.get("passed") is True)
        if code == 0:
            # The solution is within rel_error_vs_oracle of numpy's solve, so
            # its residual is within |F| times that distance of numpy's.
            f_norm, alpha_norm, x, residual = system_reference(doc)
            m = len(doc["alpha"])
            assert report["mode"] == mode and report["m"] == m
            assert len(report["pivots"]) == 2 * m - 1
            assert report["pivots"][0] == float(doc["F"][0][0])
            rel = report["rel_error_vs_oracle"]
            assert rel <= (1e-8 if mode == "exact" else 5e-2)
            scale = max(1.0, float(np.abs(x).max()))
            bound = residual + f_norm * (rel + 1e-12) * scale + 1e-12 * alpha_norm
            got = report["residual_inf"]  # None: it overflowed
            assert got <= bound if got is not None else not math.isfinite(bound)


# JSON text drawn from a grammar, so that it can hold what json.dumps never writes: numbers
# of 5,000 digits (an integer past Python's 4,300-digit limit, a float that rounds to inf or
# 0), the NaN and Infinity literals, and nesting past the recursion limit.
PLAIN_TEXT = st.floats(-3.0, 3.0).map(repr) | st.integers(-3, 3).map(str)
NUMBER_TEXT = PLAIN_TEXT | st.sampled_from([
    "5e-324", "-2.2e-308", "1e308", "-1e308", "-0.0", "NaN", "Infinity", "-Infinity",
    "1" + "0" * 4999, "-0." + "0" * 4998 + "1", "9" * 5000 + ".5"])
VALUE_TEXT = st.recursive(
    NUMBER_TEXT | st.sampled_from(["true", "false", "null", '"auto"', '"zero"', '"1"', "{}"]),
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=12,
)
DEEP_TEXT = st.just("[" * 100_000 + "1" + "]" * 100_000)
# Small step counts, and the large ones that are refused, or cannot be allocated, before any
# loop runs: 2**50 + 1 and 10**30 are past MAX_STEPS, and a trace of 2**50 + 1 states needs
# more than 2**47 bytes of address space.
LARGE_STEPS = (MAX_STEPS + 1, 10**30, MAX_STEPS)
STEPS_TEXT = st.integers(0, 20).map(str) | st.sampled_from(LARGE_STEPS).map(str)


@st.composite
def document_texts(draw, command: str) -> str:
    """A --problem or --system document: one key may be missing, any value or deep.

    Most documents hold plain numbers only and break no key, so that runs start.
    """
    numbers = draw(st.sampled_from([PLAIN_TEXT, PLAIN_TEXT, NUMBER_TEXT]))

    def array(*shape: int) -> str:
        if not shape:
            return draw(numbers)
        return "[" + ", ".join(array(*shape[1:]) for _ in range(shape[0])) + "]"

    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if command == "ridge":
        # lambda and eta drop any minus sign: most negative values are refused at once.
        scalar = numbers.map(lambda text: text.lstrip("-"))
        values = {"X": array(n, d), "y": array(n), "u": array(d), "lambda": draw(scalar),
                  "eta": draw(st.just('"auto"') | scalar), "steps": draw(STEPS_TEXT),
                  "w0": draw(st.just('"zero"') | st.just(array(d)))}
    else:
        values = {"F": array(n, n), "alpha": array(n)}
    fault = draw(st.sampled_from(["none", "none", "missing", "any-value", "deep"]))
    if fault != "none":
        key = draw(st.sampled_from(sorted(values)))
        if fault == "missing":
            del values[key]
        else:
            values[key] = draw(VALUE_TEXT if fault == "any-value" else DEEP_TEXT)
    for key in draw(st.sets(st.sampled_from(["extra", "x", "F" if command == "ridge" else "X"]),
                            max_size=2)):
        values[key] = draw(VALUE_TEXT)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in values.items()) + "}"


def error_names(classes) -> set:
    """The names of the classes and of all their subclasses."""
    return {name for cls in classes
            for name in (cls.__name__, *error_names(cls.__subclasses__()))}


class TestGeneratedFiles:
    """Any --problem or --system document ends in a strict report, never a traceback."""

    @pytest.mark.parametrize("command", ["ridge", "gauss"])
    @settings(max_examples=50, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_documents_from_the_grammar(self, data, command):
        text = data.draw(document_texts(command))
        flag = {"ridge": "--problem", "gauss": "--system"}[command]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, flag, str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            return
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert (code == 0) == (report.get("passed") is True)
        if "error" in report:
            assert set(report) == {"command", "error", "message"}
            assert report["error"] in error_names((*INPUT_ERRORS, MemoryError))


# argv values the parser refuses, in every flag that takes a number: no digit in a junk string
# (so no valid size hides in one), and no leading "-" (so no --help).
JUNK_TEXT = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6).filter(
    lambda text: not text.startswith("-") and text not in ("lsa", "elsa", "exact", "relu", "auto"))
NON_FINITE = ("inf", "-inf", "nan")


def numbers(valid, *refused):
    """A numeric flag: a strategy of valid values, and the values the parser refuses."""
    return valid.map(str), (-1, *refused, *NON_FINITE)


def size(valid, bound):
    """A bounded size: small valid values; -1, bound + 1, 2**63 and 10**30 are refused."""
    return numbers(valid, bound + 1, 2**63, 10**30)


# Large values are valid for these, and cheap: they shape no array.
SEED = numbers(st.integers(0, 2**16) | st.sampled_from([2**63, 10**30]))
NONNEGATIVE = numbers(st.floats(0.0, 2.0) | st.sampled_from([1e30, 2.0**63]))
MISSING_FILE = (st.just(str(Path(__file__).resolve().parent / "no-such-dir" / "missing.json")),
                None)
KNOTS = (st.sampled_from([DEFAULT_KNOT_SPEC, "geometric:x1=1e-2,xmax=1e2,n=16"]) | JUNK_TEXT,
         None)

# Each subcommand's flags: (a strategy of values the parser takes, the values it refuses; None:
# it refuses none, not even junk), or None for a flag without a value. --trials has no upper
# bound, so its valid values stay small.
ARGV_FLAGS = {
    "verify-lemmas": {
        "--trials": numbers(st.integers(0, 3)), "--max-dim": size(st.integers(1, 4), MAX_SIDE),
        "--seed": SEED, "--tol": NONNEGATIVE, "--perturb": None,
    },
    "ridge": {
        "--form": (st.sampled_from(["lsa", "elsa"]), ("",)),
        "--n": size(st.integers(1, 4), MAX_SIDE), "--d": size(st.integers(1, 3), MAX_SIDE),
        "--lambda": NONNEGATIVE, "--eta": (NONNEGATIVE[0] | st.just("auto"), NONNEGATIVE[1]),
        "--steps": size(st.integers(0, 20), MAX_LENGTH),
        "--seed": SEED, "--tol": NONNEGATIVE, "--problem": MISSING_FILE,
    },
    "gauss": {
        "--mode": (st.sampled_from(["exact", "relu"]), ("",)),
        # Any size up to the bound parses; one below 2 is cmd_gauss's ShapeMismatch.
        "--size": (st.integers(-2, 8).map(str), (MAX_SIDE + 1, 2**63, 10**30, *NON_FINITE)),
        "--knots": KNOTS, "--sweep": None, "--seed": SEED, "--tol": NONNEGATIVE,
        "--system": MISSING_FILE,
    },
    "invsqr": {"--knots": KNOTS, "--samples": size(st.integers(0, 50), MAX_LENGTH)},
}


@st.composite
def argvs(draw):
    """(argv, whether the parser must refuse it): a subcommand and up to four of its flags.

    Half the argvs give one flag a value the parser refuses, most often a listed one, so
    each bound is met with nothing else refused; one in ten of the rest adds an unknown flag.
    """
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)) | st.just("no-such-command"))
    flags = ARGV_FLAGS.get(command, {})
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)
                  if flags else st.just([]))
    refusable = [flag for flag in chosen if flags[flag] is not None and flags[flag][1] is not None]
    bad_flag = draw(st.sampled_from(refusable)) if refusable and draw(st.booleans()) else None
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flag == bad_flag:
            listed = st.sampled_from([str(v) for v in flags[flag][1]])
            argv.append(draw(st.one_of(listed, listed, listed, JUNK_TEXT)))
        elif flags[flag] is not None:
            argv.append(draw(flags[flag][0]))
    if command == "verify-lemmas" and "--trials" not in argv:
        argv += ["--trials", "2"]  # the default, 100 trials, takes ~40 ms
    refuses = command not in ARGV_FLAGS or bad_flag is not None
    if not refuses and draw(st.integers(0, 9)) == 0:
        argv.append("--no-such-flag")
        refuses = True
    return argv, refuses


class TestGeneratedArgv:
    """Any argv ends in exit 0, 1 or 2 and one strict report, CSV, or a usage error on stderr."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=argvs())
    def test_argv_from_the_flag_table(self, case):
        argv, refuses = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
                assert code == 2
        assert code in (0, 1, 2)
        if code == 2 or refuses:
            assert code == 2 and out.getvalue() == ""
            assert "Traceback" not in err.getvalue()
            return
        if argv[0] == "invsqr" and code == 0:
            rows = list(csv.reader(io.StringIO(out.getvalue())))
            assert rows[0] == ["x", "sigma_invsqr", "inv_square", "abs_err", "rel_err"]
            return
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert (code == 0) == (report.get("passed") is True)
        if "error" in report:
            assert set(report) == {"command", "error", "message"}
            assert report["error"] in error_names((*INPUT_ERRORS, MemoryError))


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

    @pytest.mark.parametrize("mode", ["exact", "relu"])
    @pytest.mark.parametrize("doc", [
        {"F": [[1, 1e300], [1e300, 1]], "alpha": [1, 1]},
        {"F": [[1, 1, 1e300], [1e300, 1, 1], [0, 0, 1]], "alpha": [1, 1, 1]},
        {"F": [[1, 0], [1e300, 1]], "alpha": [1e300, 1]},
        {"F": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1e300], [0, 0, 1e300, 1]],
         "alpha": [1, 1, 1, 1]},
    ], ids=["pivot_2x2", "off_pivot", "right_hand_side", "column_3"])
    def test_overflowing_elimination_is_named(self, tmp_path, capsys, doc, mode):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = main(["gauss", "--system", str(path), "--mode", mode])
        out, err = capsys.readouterr()
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert err == ""
        assert report == {"command": "gauss", "error": "EliminationOverflow",
                          "message": report["message"]}
        assert "overflows float64" in report["message"]

    def test_overflowing_elimination_prints_no_warning(self, tmp_path):
        # A fresh process turns no warning into an error, so one would reach stderr.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"F": [[1, 1e300], [1e300, 1]], "alpha": [1, 1]}))
        result = subprocess.run(
            [sys.executable, "-m", "elsakit.cli", "gauss", "--system", str(path),
             "--mode", "relu"], env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == ""
        assert json.loads(result.stdout)["error"] == "EliminationOverflow"

    @pytest.mark.parametrize("doc, mode", [
        ({"F": [[1e154, 0.5], [-1e308, -1e154]], "alpha": [-1e154, 0.5]}, "exact"),
        ({"F": [[1e154, 0.5], [-1e308, -1e154]], "alpha": [-1e154, 0.5]}, "relu"),
        ({"F": [[1e154, -0.0, -1e154], [1e154, 3.0, -1e308], [-1e308, 1e-300, 0.5]],
          "alpha": [1e300, -1e300, -1e154]}, "relu"),
    ], ids=["residual-exact", "residual-relu", "gap-relu"])
    def test_overflowing_oracle_fails_without_a_warning(self, tmp_path, capsys, doc, mode):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code = main(["gauss", "--system", str(path), "--mode", mode])
        out, err = capsys.readouterr()
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert err == ""
        assert report["passed"] is False
        assert report["rel_error_vs_oracle"] is None
        assert "reference_solve_failed" in report["flags"]

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
        ["--mode", "exact", "--knots", "geometric:x1=1,xmax=inf,n=1"],
    ], ids=["relu", "sweep", "relu_nan", "relu_overflow", "exact", "infinite_xmax"])
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


class TestUnallocatableSizes:
    """A size whose arrays cannot be allocated ends in a MemoryError report, not a traceback.

    Each size asks for tens of PiB, past any machine's address space, so
    the allocation fails at once.
    """

    @staticmethod
    def assert_memory_error(code, out, command):
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert report == {"command": command, "error": "MemoryError",
                          "message": report["message"]}
        assert "PiB" in report["message"]

    @pytest.mark.parametrize("source", ["flag", "problem"])
    def test_ridge_steps(self, tmp_path, capsys, source):
        steps = 10**15
        if source == "flag":
            args = ["ridge", "--steps", str(steps)]
        else:
            p = make_problem(Matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                             Matrix([[1.0], [2.0], [3.0]]), Matrix([[2.0], [1.0]]),
                             0.5, eta=0.1, steps=steps)
            path = tmp_path / "problem.json"
            path.write_text(problem_to_json(p))
            args = ["ridge", "--problem", str(path)]
        self.assert_memory_error(*run_cli(args, capsys), "ridge")

    def test_gauss_size(self, capsys):
        self.assert_memory_error(*run_cli(["gauss", "--size", str(10**8)], capsys), "gauss")


class TestDeeplyNestedFiles:
    @pytest.mark.parametrize("command,flag,error", [("ridge", "--problem", "BadProblemFile"),
                                                    ("gauss", "--system", "BadSystemFile")])
    def test_nesting_past_the_recursion_limit_is_a_bad_file(self, tmp_path, capsys, command,
                                                           flag, error):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out = run_cli([command, flag, str(path)], capsys)
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert report == {"command": command, "error": error, "message": report["message"]}
        assert "recursion" in report["message"]


class TestSizesPastTheBounds:
    """A size whose arrays numpy could not index is refused before anything is allocated."""

    @staticmethod
    def peak(run):
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        return result

    @pytest.mark.parametrize("command,flag,bound", [
        ("ridge", "--steps", MAX_LENGTH), ("ridge", "--n", MAX_SIDE), ("ridge", "--d", MAX_SIDE),
        ("gauss", "--size", MAX_SIDE), ("verify-lemmas", "--max-dim", MAX_SIDE),
        ("invsqr", "--samples", MAX_LENGTH),
    ])
    @pytest.mark.parametrize("size", ["past", "2**63", "10**30"])
    def test_flag_is_a_usage_error(self, capsys, command, flag, bound, size):
        value = {"past": bound + 1, "2**63": 2**63, "10**30": 10**30}[size]

        def run():
            with pytest.raises(SystemExit) as exc:
                main([command, flag, str(value)])
            return exc.value.code

        assert self.peak(run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at most {bound}" in captured.err
        assert "Traceback" not in captured.err
        # The bound itself parses.
        assert getattr(_build_parser().parse_args([command, flag, str(bound)]),
                       flag[2:].replace("-", "_")) == bound

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 2**63, 10**30])
    def test_problem_file_steps_is_a_bad_problem(self, tmp_path, capsys, steps):
        p = make_problem(Matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                         Matrix([[1.0], [2.0], [3.0]]), Matrix([[2.0], [1.0]]), 0.5, eta=0.1)
        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(p).replace('"steps": 0', f'"steps": {steps}'))
        code, out = self.peak(lambda: run_cli(["ridge", "--problem", str(path)], capsys))
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert report == {"command": "ridge", "error": "BadProblemFile",
                          "message": report["message"]}
        assert f"steps must be at most {MAX_STEPS}" in report["message"]


    @pytest.mark.parametrize("source", ["flag", "problem", "override"])
    def test_a_trace_past_the_index_limit_is_a_memory_error(self, tmp_path, capsys, source):
        # Each size is within its bound, but a trace of (2**50 + 1) * 1025 float64 entries
        # needs 2**63 bytes or more, which numpy refuses with a ValueError.
        args = ["ridge", "--n", "1", "--d", "1024", "--steps", str(MAX_STEPS)]
        if source != "flag":
            rng = np.random.default_rng(37)
            p = make_problem(Matrix.from_array(rng.normal(size=(1, 1024))), Matrix([[1.0]]),
                             Matrix.from_array(rng.normal(size=(1024, 1))), 0.5, eta=0.1,
                             steps=MAX_STEPS if source == "problem" else 3)
            path = tmp_path / "problem.json"
            path.write_text(problem_to_json(p))
            args = ["ridge", "--form", "elsa", "--problem", str(path)]
            args += ["--steps", str(MAX_STEPS)] if source == "override" else []
        code, out = run_cli(args, capsys)
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert report == {"command": "ridge", "error": "MemoryError",
                          "message": report["message"]}
        assert "2**63 bytes" in report["message"]


class TestKnotCountCap:
    @pytest.mark.parametrize("command", ["gauss", "invsqr"])
    @pytest.mark.parametrize("n", [MAX_KNOTS + 1, 10**9], ids=["cap_plus_one", "billion"])
    def test_knot_count_over_the_cap(self, capsys, command, n):
        # Rejected before a knot is allocated: geomspace at n = 1e9 would ask for 8 GB.
        tracemalloc.start()
        try:
            code, out = run_cli([command, f"--knots=geometric:x1=1e-2,xmax=1e2,n={n}"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert report == {"command": command, "error": "BadKnotSpec",
                          "message": report["message"]}
        assert "MAX_KNOTS" in report["message"]
        assert peak < 8 * 2**20


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


    @pytest.mark.parametrize("knots", ["explicit:1,1e154", "explicit:1,9e153"],
                             ids=["two_cutoffs_overflow", "grid_width_overflows"])
    def test_sample_range_past_float64(self, knots):
        # Cutoffs 1e308 and 8.1e307: the +-2 * cutoff grid's width is not finite.
        # A fresh process under -W error turns a numpy warning into a traceback.
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "elsakit.cli", "invsqr", "--knots", knots,
             "--samples", "3"], env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == ""
        report = json.loads(result.stdout, parse_constant=reject_constant)
        assert report["error"] == "BadKnotSpec"

    def test_squares_that_overflow_print_no_warning(self):
        # Samples reach 2e306, whose square overflows to inf: 1/x^2 is 0.
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "elsakit.cli", "invsqr", "--knots",
             "explicit:1,1e153", "--samples", "3"], env=src_env(), capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
        assert [(float(r[0]), float(r[2])) for r in rows] == [(-2e306, 0.0), (0.0, math.inf),
                                                                (2e306, 0.0)]


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

    @pytest.mark.parametrize("value", ["-3", "abc"])
    def test_bad_env_seed_is_a_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("ELSA_WB_SEED", value)
        with pytest.raises(SystemExit) as exc:
            main(["gauss"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --seed" in captured.err
