"""CLI wiring: config validation, emitters, problem files, check suites."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vigap
from vigap import checks
from vigap.cli import (
    CSV_COLUMNS,
    CheckReport,
    ConfigError,
    ExperimentConfig,
    check_invariants,
    load_problem_file,
    main,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from vigap.solvers import solve_inner


def small_cfg(**kw):
    base = dict(problem="example5_1", model="dualgap", regularizer="l1",
                epsilons=(0.5,), seed=0, max_iter=400, timing=False)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_empty_epsilon_list_rejected():
    with pytest.raises(ConfigError, match="epsilon"):
        run_experiment(small_cfg(epsilons=()))


def test_negative_epsilon_rejected():
    with pytest.raises(ConfigError, match="positive"):
        run_experiment(small_cfg(epsilons=(0.5, -0.1)))


def test_bad_model_rejected():
    with pytest.raises(ConfigError, match="model"):
        run_experiment(small_cfg(model="primal"))


def test_direct_l1_requires_flag():
    with pytest.raises(ConfigError, match="experimental"):
        run_experiment(small_cfg(model="direct", regularizer="l1"))


def test_unknown_problem_rejected():
    with pytest.raises(ConfigError, match="unknown problem"):
        run_experiment(small_cfg(problem="mystery"))


# ---------------------------------------------------------------------------
# runs and emitters
# ---------------------------------------------------------------------------

def test_run_dualgap_row_contents():
    rows = run_experiment(small_cfg())
    assert len(rows) == 1
    r = rows[0]
    assert r.model == "dualgap" and r.regularizer == "l1" and r.epsilon == 0.5
    assert r.dist_to_S0 is not None and r.dist_to_S0 <= 1e-4
    assert r.exactness == "exact"
    assert r.wall_time_s == 0.0  # timing disabled
    assert r.iterations > 0


def test_run_direct_rows_sorted_and_complete():
    cfg = small_cfg(model="direct", regularizer="l2", epsilons=(0.1, 0.5))
    rows = run_experiment(cfg)
    assert [r.epsilon for r in rows] == [0.1, 0.5]
    for r in rows:
        assert r.final_gap is not None
        assert r.dist_to_reg_solution is not None
        assert r.dist_to_reg_solution <= 1e-6


def test_determinism_byte_identical():
    a = rows_to_csv(run_experiment(small_cfg()))
    b = rows_to_csv(run_experiment(small_cfg()))
    assert a == b


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    ("run --problem example5_1 --model direct --reg l2 --eps 0.5,0.1,0.01 --x0 1,-2,1 "
     "--no-timing", "golden_direct_l2.csv"),
    ("run --problem example5_1 --model dualgap --reg l1 --eps 0.5 --max-iter 50 "
     "--no-timing", "golden_dualgap_l1.csv"),
    # finite bounds on both sides of a 5-D box: D-gap steps at eps = 0.5, Newton below
    ("run --problem affine5d --model direct --reg l2 --eps 0.5,0.1,0.01 --no-timing",
     "golden_affine5d_direct_l2.csv"),
    # the cold solve at eps = 1e-4: three Newton steps, then the residual certificate
    ("run --problem example5_1 --model direct --reg l2 --eps 0.0001 --x0 1,-2,1 "
     "--no-timing", "golden_cold_direct_l2.csv"),
    # the dual-gap ascent on box rows with the analytic affine inner gradient
    ("run --problem affine5d --model dualgap --reg l2 --eps 0.1 --max-iter 100 --no-timing",
     "golden_affine5d_dualgap_l2.csv"),
    # the dual-gap ascent on ball rows (from the default x0 it stops after one step)
    ("run --problem sharp_ball2d --model dualgap --reg l2 --eps 0.1 --x0 0.6,-0.7 "
     "--max-iter 100 --no-timing", "golden_sharp_ball2d_dualgap_l2.csv"),
    # the nonsmooth direct route: no certificate, every level stops at the theta floor
    ("run --problem example5_1 --model direct --reg l1 --eps 0.5,0.1,0.01,0.005,0.0001 "
     "--x0 1,-2,1 --experimental-nonsmooth --no-timing", "golden_direct_l1.csv"),
], ids=["direct-l2", "dualgap-l1", "affine5d-direct-l2", "cold-direct-l2",
        "affine5d-dualgap-l2", "sharp-ball2d-dualgap-l2", "direct-l1"])
def test_output_matches_committed_golden(argv, golden, capsys):
    # the golden files hold the bytes of an earlier commit, so a refactor that
    # moves any printed number by one ulp fails here
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_csv_json_round_trip_no_drift():
    rows = run_experiment(small_cfg(model="direct", regularizer="l2",
                                    epsilons=(0.5,)))
    csv_text = rows_to_csv(rows)
    json_rows = json.loads(rows_to_json(rows))
    header, line = csv_text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    cells = line.split(",")
    for col, cell in zip(CSV_COLUMNS, cells):
        jv = json_rows[0][col]
        if isinstance(jv, float):
            assert float(cell) == jv  # exact: repr round-trips
        elif jv is None:
            assert cell == ""
        else:
            assert cell == str(jv)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

AFFINE_INI = """
[operator]
kind = affine
matrix = 2 0; 0 3
offset = -1 0

[set]
kind = box
lower = -1 -1
upper = 1 1

[constants]
x0 = 0.9 -0.9
"""


def test_load_problem_file(tmp_path):
    path = tmp_path / "prob.ini"
    path.write_text(AFFINE_INI)
    inst = load_problem_file(str(path))
    assert inst.dimension == 2
    np.testing.assert_allclose(inst.default_x0, [0.9, -0.9])
    np.testing.assert_allclose(inst.map(np.array([1.0, 1.0])), [1.0, 3.0])
    cfg = small_cfg(problem=str(path), model="direct", regularizer="l2",
                    epsilons=(0.5,))
    rows = run_experiment(cfg)
    assert rows[0].final_gap is not None


def test_problem_file_named_builtin(tmp_path):
    path = tmp_path / "named.ini"
    path.write_text("[problem]\nname = example5_1\n")
    inst = load_problem_file(str(path))
    assert inst.name == "example5_1"


def test_problem_file_errors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[operator]\nkind = affine\nmatrix = 1 0; 0 1\noffset = 0 0\n")
    with pytest.raises(ConfigError, match=r"\[operator\] \+ \[set\]|\[set\]"):
        load_problem_file(str(path))
    path.write_text(AFFINE_INI.replace("2 0; 0 3", "2 zz; 0 3"))
    with pytest.raises(ConfigError, match="operator.matrix"):
        load_problem_file(str(path))
    path.write_text(AFFINE_INI.replace("lower = -1 -1", "lower = -1"))
    with pytest.raises(ConfigError):
        load_problem_file(str(path))


# ---------------------------------------------------------------------------
# main entry point
# ---------------------------------------------------------------------------

def test_main_run_writes_deterministic_files(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["run", "--problem", "example5_1", "--model", "direct", "--reg", "l2",
            "--eps", "0.5", "--no-timing"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_module_invocation(tmp_path):
    out = tmp_path / "m.csv"
    # the child imports the same vigap as this process, installed or not
    src = str(Path(vigap.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-m", "vigap", "run", "--problem", "example5_1",
         "--model", "direct", "--reg", "l2", "--eps", "0.5", "--no-timing",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert res.returncode == 0, res.stderr
    assert out.read_text().startswith(",".join(CSV_COLUMNS))


def test_main_rejects_bad_config():
    assert main(["run", "--problem", "example5_1", "--model", "direct",
                 "--reg", "l1", "--eps", "0.5"]) == 2


def test_main_direct_l1_gate(capsys):
    # the nonsmooth direct route is opt-in at the CLI boundary only
    argv = "run --problem example5_1 --model direct --reg l1 --eps 0.5 --no-timing".split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass --experimental-nonsmooth to enable it" in captured.err
    assert main(argv + ["--experimental-nonsmooth"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(CSV_COLUMNS)
    assert out[1].startswith("example5_1,direct,l1,0.5,")


@pytest.mark.parametrize("model", ["direct", "dualgap"])
@pytest.mark.parametrize("flags, message", [
    ("--eps nan", "finite and positive"),
    ("--eps inf", "finite and positive"),
    ("--eps 0.5,-inf", "finite and positive"),
    ("--eps abc", "--eps: cannot parse"),
    ("--eps 0.5 --x0 1,2", "x0 must be 3 finite numbers"),
    ("--eps 0.5 --x0 1,-2,nan", "x0 must be 3 finite numbers"),
    ("--eps 0.5 --x0 1,x,1", "--x0: cannot parse"),
    ("--eps 0.5 --tol inf", "tol and tau must be finite and positive"),
    ("--eps 0.5 --max-iter 0", "max_iter must be positive"),
])
def test_main_rejects_bad_run_inputs(model, flags, message, capsys):
    # caught at the boundary on both models, before any solve starts
    argv = f"run --problem example5_1 --model {model} --reg l2 {flags}".split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_check_unknown_suite():
    with pytest.raises(ConfigError, match="core-geometry"):
        check_invariants("no-such-suite")
    assert main(["check", "no-such-suite"]) == 2


def test_check_core_geometry_passes():
    report = check_invariants("core-geometry", seed=7)
    assert isinstance(report, CheckReport)
    assert report.passed
    text = report.render()
    assert "PASS" in text and "FAIL" not in text.replace("FAILURES", "")


def test_check_bounds_soundness_passes():
    report = check_invariants("bounds-soundness", seed=3)
    assert report.passed, report.render()
    assert any("residual-certified" in name for name, _, _ in report.lines)


def test_check_bounds_soundness_names_the_failing_check(monkeypatch):
    # a solve that reports a wrong threshold p, at an unchanged point, fails
    # the threshold line alone
    def wrong_p(*args, **kwargs):
        x, tr = solve_inner(*args, **kwargs)
        return x, dataclasses.replace(tr, p=2.0 * tr.p)

    monkeypatch.setattr(checks, "solve_inner", wrong_p)
    report = check_invariants("bounds-soundness", seed=3)
    failed = [name for name, ok, _ in report.lines if not ok]
    assert failed == ["stopping threshold matches and is met"], report.render()


def test_check_report_render_failures():
    rep = CheckReport("demo")
    rep.record("good", True, "m=0")
    rep.record("bad", False, "m=1")
    assert not rep.passed
    assert "FAIL" in rep.render()
