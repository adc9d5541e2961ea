"""CLI wiring: config validation, emitters, problem files, check suites."""
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_matches_golden

import vigap
from vigap import bounds, checks, cli, problems, solvers
from vigap.checks import CheckReport
from vigap.cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    check_invariants,
    load_problem_file,
    main,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from vigap.gap import dual_gap
from vigap.solvers import DualGapUnreliableError, solve_inner


def small_cfg(**kw):
    base = dict(problem="example5_1", model="dualgap", regularizer="l1",
                epsilons=(0.5,), max_iter=400, timing=False)
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
    # finite bounds on both sides of a 5-D box: Newton on every level, D-gap-certified at 0.5
    ("run --problem affine5d --model direct --reg l2 --eps 0.5,0.1,0.01 --no-timing",
     "golden_affine5d_direct_l2.csv"),
    # the cold solve at eps = 1e-4: two Newton steps, then the residual certificate
    ("run --problem example5_1 --model direct --reg l2 --eps 0.0001 --x0 1,-2,1 "
     "--no-timing", "golden_cold_direct_l2.csv"),
    # affine5d lies on a finite box, so G is the exact box QP of gap.affine_box_dual_gap
    ("run --problem affine5d --model dualgap --reg l2 --eps 0.1 --max-iter 100 --no-timing",
     "golden_affine5d_dualgap_l2.csv"),
    # the dual-gap ascent on a ball: no radius; the projected-gradient residual
    # reaches 0 at x = 0, in S0, after 3 steps
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
    assert_matches_golden(capsys.readouterr().out, GOLDEN / golden)


def test_dualgap_cell_reports_solver_failures_and_propagates_bugs(monkeypatch):
    # an unreliable dual gap is a per-cell result; a programming error is not
    def unreliable(*args, **kwargs):
        raise DualGapUnreliableError("too many non-converged inner solves")

    monkeypatch.setattr(cli, "solve_pge", unreliable)
    rows = run_experiment(small_cfg(epsilons=(0.5, 0.1)))
    assert [r.exactness for r in rows] == ["error:DualGapUnreliableError"] * 2

    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "solve_pge", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_experiment(small_cfg())


def test_direct_sweep_failing_partway_keeps_the_levels_done(monkeypatch):
    cfg = small_cfg(model="direct", regularizer="l2", epsilons=(0.5, 0.1, 0.01),
                    x0=(1.0, -2.0, 1.0))
    # one iteration is too few for the first level: no level is done
    rows = run_experiment(cfg._replace(max_iter=1))
    assert [(r.epsilon, r.iterations, r.final_gap, r.exactness) for r in rows] == \
        [(e, 0, None, "error:MaxIterationsError") for e in (0.01, 0.1, 0.5)]

    # a failure on the second level keeps the first level's row as it was
    real, levels = solvers.solve_inner, []

    def fail_second_level(*args, **kwargs):
        levels.append(args[2])
        if len(levels) == 2:
            raise solvers.StepFailureError("injected")
        return real(*args, **kwargs)

    first = run_experiment(cfg._replace(epsilons=(0.5,)))
    monkeypatch.setattr(solvers, "solve_inner", fail_second_level)
    rows = run_experiment(cfg)
    assert levels == [0.5, 0.1]
    assert rows[2] == first[0] and first[0].exactness in ("exact", "not_exact")
    assert [(r.epsilon, r.exactness) for r in rows[:2]] == \
        [(0.01, "error:StepFailureError"), (0.1, "error:StepFailureError")]


def test_direct_sweep_marks_a_non_finite_evaluation(capsys):
    # theta_ab overflows at a start near the largest float: every level is an
    # error row, as on the dual-gap route, not a traceback (numpy's overflow
    # warnings precede the EvaluationError and are silenced here)
    argv = ["run", "--problem", "affine2d", "--model", "direct", "--reg", "l2",
            "--eps", "0.1,0.01", "--x0", "1e308,-1e308", "--no-timing"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == [f"affine2d,direct,l2,{e},0,0.0,,,,error:EvaluationError"
                     for e in (0.01, 0.1)]


def _rows_with_points(cfg, monkeypatch):
    """run_experiment(cfg) and the x solve_pge returned for each row's eps."""
    real, points = cli.solve_pge, {}

    def solve_pge(problem, reg, eps, x0, max_iter=None):
        x, trace = real(problem, reg, eps, x0, max_iter)
        points[eps] = x
        return x, trace

    monkeypatch.setattr(cli, "solve_pge", solve_pge)
    return run_experiment(cfg), points


def _gap_cell(value):
    return 0.0 if value <= 0.0 else value


BA = dict(problem="example5_1", model="dualgap", x0=(1.0, -2.0, 1.0), max_iter=None)
# every dual-gap cell of table1 (each eps is an independent solve), the four
# dualgap-ba benchmark cells, and the affine5d and sharp_ball2d golden cells
REUSE_CASES = [dict(BA, regularizer=r, epsilons=cli.TABLE1_EPSILONS) for r in ("l1", "l2")] + [
    dict(BA, regularizer=r, epsilons=(e,)) for r in ("l1", "l2") for e in (0.5, 1e-4)] + [
    dict(problem="affine5d", model="dualgap", regularizer="l2", epsilons=(0.1,), max_iter=100),
    dict(problem="sharp_ball2d", model="dualgap", regularizer="l2", epsilons=(0.1,),
         x0=(0.6, -0.7), max_iter=100)]


@pytest.mark.parametrize("case", REUSE_CASES, ids=lambda c: f"{c['problem']}-{c['regularizer']}-"
                         f"{len(c['epsilons'])}eps")
def test_dualgap_row_reads_the_solvers_own_gap(case, monkeypatch):
    # a dual-gap row takes final_gap and its verdict from the G bracket the
    # solve returned: bit for bit a fresh G where G is exact, and the verdict
    # of exactness_check at P_Omega(x) everywhere
    cfg = small_cfg(**case)
    rows, points = _rows_with_points(cfg, monkeypatch)
    problem = problems.get_problem(cfg.problem)
    assert len(rows) == len(points) == len(cfg.epsilons)
    for r in rows:
        x = points[r.epsilon]
        if problem.dual_gap_exact is not None:
            assert r.final_gap.hex() == _gap_cell(dual_gap(problem, x).value).hex()
        assert r.exactness == bounds.exactness_check(problem, problem.set.project(x))


def test_dualgap_row_on_an_ascent_set_reads_the_warm_ascent(tmp_path, monkeypatch):
    # on a hyperplane G comes from the ascent, warm-started within the solve,
    # so the solver's value may differ from a fresh one by rounding
    path = tmp_path / "plane.ini"
    path.write_text("[operator]\nmatrix = 2 1; -1 3\noffset = -1 0\n"
                    "[set]\nkind = hyperplane\nnormal = 1 -1\noffset = 0\n")
    cfg = small_cfg(problem=str(path), regularizer="l2", epsilons=(0.01,), max_iter=None)
    (row,), points = _rows_with_points(cfg, monkeypatch)
    problem, x = load_problem_file(str(path)), points[0.01]
    assert problem.dual_gap_exact is None
    assert row.final_gap == pytest.approx(dual_gap(problem, x).value, rel=1e-12, abs=0.0)
    assert row.exactness == bounds.exactness_check(problem, problem.set.project(x))


@pytest.mark.parametrize("reg", ["l1", "l2"])
def test_rows_evaluate_G_no_more_than_the_solve(reg, monkeypatch):
    # a dual-gap cell makes exactly the G calls of its solve_pge call; a
    # direct level makes one, at P_Omega(x)
    base, calls = problems.get_problem("example5_1"), []

    def counted(x):
        calls.append(x)
        return base.dual_gap_exact(x)

    ba = replace(base, dual_gap_exact=counted)
    monkeypatch.setitem(problems.BUILTIN_PROBLEMS, "counted_ba", lambda seed=0: ba)
    cfg = small_cfg(problem="counted_ba", regularizer=reg, epsilons=(0.5,), max_iter=None)
    run_experiment(cfg)
    in_rows = len(calls)
    calls.clear()
    solvers.solve_pge(ba, cli._regularizer(reg), 0.5, ba.default_x0)
    assert in_rows == len(calls) > 0
    calls.clear()
    run_experiment(cfg._replace(model="direct", regularizer="l2", epsilons=(0.5, 0.1)))
    assert len(calls) == 2


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


# each set of a problem file: its [set] keys, the closed-form projection of
# (3, 4), and whether G is exact, as it is on a box with finite bounds alone
SET_KINDS = {
    "box": ("kind = box\nlower = -1 -1\nupper = 1 1", [1.0, 1.0], True),
    "box-inf": ("kind = box\nlower = -1 -1\nupper = 1 inf", [1.0, 4.0], False),
    "orthant": ("kind = orthant\nlower = 0 5", [3.0, 5.0], False),
    "ball": ("kind = ball\ncenter = 0 0\nradius = 1", [0.6, 0.8], False),
    "halfspace": ("kind = halfspace\nnormal = 1 1\noffset = 1", [0.0, 1.0], False),
    "hyperplane": ("kind = hyperplane\nnormal = 1 -1\noffset = 0", [3.5, 3.5], False),
}


@pytest.mark.parametrize("kind", list(SET_KINDS))
def test_problem_file_set_kinds(kind, tmp_path):
    keys, projection, exact = SET_KINDS[kind]
    path = tmp_path / f"{kind}.ini"
    path.write_text(AFFINE_INI.split("[set]")[0] + f"[set]\n{keys}\n")
    inst = load_problem_file(str(path))
    np.testing.assert_allclose(inst.set.project(np.array([3.0, 4.0])), projection,
                               rtol=0.0, atol=1e-15)
    assert (inst.dual_gap_exact is not None) == exact
    if exact:
        # affine F on a finite box: the exact oracle, here G(0) = max_y y1 - 2 y1^2 - 3 y2^2
        ev = dual_gap(inst, np.zeros(2))
        assert ev.converged and ev.value == pytest.approx(0.125, abs=1e-12)


def test_every_exact_dual_gap_has_both_spg_hooks(tmp_path):
    # an exact G certifies a dual-gap l2 cell only where its set also has
    # tangent_project; an instance the CLI builds without one would quietly lose
    # its radius. Every set the CLI builds (each set kind of a problem file, and
    # the built-in problems' sets, example5_1's Omega among them) has l1_prox, so
    # no l1 cell of the CLI meets solve_pge's ValueError
    built = [problems.get_problem(name) for name in problems.BUILTIN_PROBLEMS]
    assert {kind.split("-")[0] for kind in SET_KINDS} == set(cli.SET_KEYS)
    for kind, (keys, _, _) in SET_KINDS.items():
        path = tmp_path / f"{kind}.ini"
        path.write_text(AFFINE_INI.split("[set]")[0] + f"[set]\n{keys}\n")
        built.append(load_problem_file(str(path)))
    exact = [p for p in built if p.dual_gap_exact is not None]
    assert {p.name for p in exact} >= {"example5_1", "affine_monotone(n=5, seed=0, box)"}
    for p in exact:
        assert p.set.tangent_project is not None, p.name
    assert "example5_1" in {p.name for p in built}
    for p in built:
        assert p.set.l1_prox is not None, p.name


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


@pytest.mark.parametrize("sections, message", [
    # a missing radius or offset is named, also with a start in [constants]
    ("[set]\nkind = ball\ncenter = 0 0\n", "set.radius: missing"),
    ("[set]\nkind = ball\ncenter = 0 0\n[constants]\nx0 = 0.1 0.1\n", "set.radius: missing"),
    ("[set]\nkind = halfspace\nnormal = 1 1\n", "set.offset: missing"),
    ("[set]\nkind = hyperplane\nnormal = 1 1\n", "set.offset: missing"),
    ("[set]\nkind = hyperplane\nnormal = 1 1\noffset = inf\n", "offset finite"),
    ("[set]\nkind = ball\ncenter = nan 0\nradius = 1\n", "center finite"),
    ("[set]\nkind = box\nlower = nan 0\nupper = 1 1\n", "no NaN"),
], ids=["ball", "ball-x0", "halfspace", "hyperplane", "inf-offset", "nan-center", "nan-box"])
def test_problem_file_missing_or_non_finite_set_data_exits_2(sections, message, tmp_path,
                                                            capsys):
    path = tmp_path / "set.ini"
    path.write_text(AFFINE_INI.split("[set]")[0] + sections)
    with pytest.raises(ConfigError, match=message):
        load_problem_file(str(path))
    assert main(f"run --problem {path} --model direct --reg l2 --eps 0.5".split()) == 2
    assert message in capsys.readouterr().err


def test_problem_file_with_a_non_finite_operator_exits_2(tmp_path, capsys):
    path = tmp_path / "operator.ini"
    path.write_text(AFFINE_INI.replace("offset = -1 0", "offset = inf 0"))
    assert main(f"run --problem {path} --model direct --reg l2 --eps 0.5".split()) == 2
    assert "operator: the matrix and the offset must be finite" in capsys.readouterr().err


def test_problem_file_with_a_non_monotone_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "indefinite.ini"
    path.write_text(AFFINE_INI.replace("2 0; 0 3", "1 0; 0 -1"))
    with pytest.raises(ConfigError, match="indefinite"):
        load_problem_file(str(path))
    argv = f"run --problem {path} --model direct --reg l2 --eps 0.5".split()
    assert main(argv) == 2
    assert "indefinite" in capsys.readouterr().err


def test_problem_file_lipschitz_key_exits_2(tmp_path, capsys):
    # L is ||M||_2, computed from the matrix; a declared value is refused
    text = AFFINE_INI.replace("2 0; 0 3", "8 3; -3 8")
    path = tmp_path / "declared.ini"
    path.write_text(text.replace("[operator]\n", "[operator]\nlipschitz = 0.05\n"))
    argv = f"run --problem {path} --model direct --reg l2 --eps 0.1".split()
    assert main(argv) == 2
    assert "computed from the matrix" in capsys.readouterr().err
    path.write_text(text)
    assert load_problem_file(str(path)).map.lipschitz_L == \
        np.linalg.norm(np.array([[8.0, 3.0], [-3.0, 8.0]]), 2)


def test_problem_file_misspelt_key_exits_2(tmp_path, capsys):
    # a misspelt x0 would otherwise leave the run at the default start, exit 0
    path = tmp_path / "typo.ini"
    path.write_text(AFFINE_INI.replace("x0 =", "x_0 ="))
    argv = f"run --problem {path} --model direct --reg l2 --eps 0.5".split()
    assert main(argv) == 2
    assert "constants.x_0: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (AFFINE_INI + "[solver]\ntau = 1\n", r"\[solver\]: unknown section"),
    ("[DEFAULT]\nx0 = 1 1\n" + AFFINE_INI, r"\[DEFAULT\]: unknown section"),
    (AFFINE_INI.replace("upper = 1 1", "upper = 1 1\nradius = 2"), "set.radius: unknown key"),
    (AFFINE_INI.replace("kind = affine", "kind = affine\nmatirx = 1 0; 0 1"),
     "operator.matirx: unknown key"),
    # a builtin is run by --problem <name>, not named in a problem file
    ("[problem]\nname = example5_1\n", r"\[problem\]: unknown section"),
], ids=["section", "default", "set-key", "operator-key", "problem-section"])
def test_problem_file_unknown_sections_and_keys_rejected(text, message, tmp_path, capsys):
    path = tmp_path / "unknown.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_problem_file(str(path))
    assert main(f"run --problem {path} --model direct --reg l2 --eps 0.5".split()) == 2
    assert re.search(message, capsys.readouterr().err)


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


def test_main_table1_writes_the_golden_table(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out), "--no-timing"]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert_matches_golden(out.read_text(), GOLDEN / "golden_table1.csv")


def _child_env():
    """The environment of a child process that imports the same vigap as
    this process, installed or not."""
    src = str(Path(vigap.__file__).resolve().parent.parent)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_main_module_invocation(tmp_path):
    out = tmp_path / "m.csv"
    env = _child_env()
    res = subprocess.run(
        [sys.executable, "-m", "vigap", "run", "--problem", "example5_1",
         "--model", "direct", "--reg", "l2", "--eps", "0.5", "--no-timing",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert res.returncode == 0, res.stderr
    assert out.read_text().startswith(",".join(CSV_COLUMNS))


def test_importing_the_cli_leaves_the_check_suites_unimported():
    # only the check command needs `checks`, so other callers never compile it
    code = "import sys, vigap.cli; print('vigap.checks' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=_child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_run_command_leaves_the_check_suites_unimported(tmp_path):
    # the parser's help does not list the suites, so `vigap run` and
    # `vigap table1` never import `checks`
    out = tmp_path / "r.csv"
    code = ("import sys; from vigap.cli import main; "
            "rc = main(['run', '--problem', 'example5_1', '--model', 'direct', '--reg', 'l2', "
            f"'--eps', '0.5', '--no-timing', '--out', {str(out)!r}]); "
            "print(rc, 'vigap.checks' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, env=_child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 False"
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
    ("--eps 0.5 --tau inf", "tau must be finite and positive"),
    ("--eps 0.5 --max-iter 0", "max_iter must be positive"),
])
def test_main_rejects_bad_run_inputs(model, flags, message, capsys):
    # caught at the boundary on both models, before any solve starts
    argv = f"run --problem example5_1 --model {model} --reg l2 {flags}".split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_check_unknown_suite(capsys):
    with pytest.raises(ConfigError, match="core-geometry"):
        check_invariants("no-such-suite")
    # the check command's help does not list the suites; the error does
    assert main(["check", "no-such-suite"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite 'no-such-suite'" in err
    assert all(name in err for name in checks.CHECK_SUITES), err


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
        return x, tr._replace(p=2.0 * tr.p)

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
