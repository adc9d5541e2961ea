"""Source lint: every parameter of every function in src/vigap is read,
problem instances and the exact dual gap are built in one place each, and
only three classes are dataclasses."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vigap"


def _unread_parameters(path):
    """(file, function, parameter) for each parameter its function body never loads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in params:
            if name not in read:
                yield path.name, node.name, name


def test_every_parameter_is_read():
    unread = {u for path in sorted(SRC.glob("*.py")) for u in _unread_parameters(path)}
    assert sorted(unread) == []


def _calls(path, callee):
    """(file, enclosing function) for each call of callee in the file."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == callee:
                yield path.name, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text()), None)


def test_problem_instances_and_exact_G_have_one_home():
    # every affine problem takes its exact G from problems.affine_problem,
    # so a new exact oracle is wired in there alone
    paths = sorted(SRC.glob("*.py"))
    assert {f for p in paths for f, _ in _calls(p, "ProblemInstance")} == {"problems.py"}
    assert {u for p in paths for u in _calls(p, "affine_box_dual_gap")} == \
        {("problems.py", "affine_problem")}


PINNED_DATACLASSES = {"MonotoneMap", "FeasibleSet", "ProblemInstance"}


def _dataclasses(path):
    """(file, class) for each class in the file decorated with dataclass."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                f = dec.func if isinstance(dec, ast.Call) else dec
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
                    yield path.name, node.name


def test_only_the_pinned_classes_are_dataclasses():
    found = {c for p in sorted(SRC.glob("*.py")) for _, c in _dataclasses(p)}
    assert found == PINNED_DATACLASSES, (
        f"@dataclass decorates {sorted(found)}; only {sorted(PINNED_DATACLASSES)} may be "
        "dataclasses, because perfbench/tracing.py calls dataclasses.replace on them. "
        "A @dataclass generates and execs its __init__, __repr__, __eq__ and more on "
        "every import; use a NamedTuple for a read-only record or a class with "
        "__slots__ and a validating __init__")
