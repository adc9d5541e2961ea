"""Source lint: every parameter of every function in src/vigap is read,
problem instances and the exact dual gap are built in one place each, only
three classes are dataclasses, and no public name of core, gap or problems
is reached by the tests alone."""
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


PERFBENCH = SRC.parents[1] / "perfbench"


def _module_all(path):
    """The names a module lists in its __all__."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _referenced_names(path):
    """Every name a file imports, loads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_public_names_are_reached_outside_the_tests():
    # a public name of core, gap or problems must be used by another module
    # of the package (vigap/__init__.py re-exports count) or by the benchmark
    # scripts; code only the tests call lives under tests/
    users = sorted(SRC.glob("*.py")) + sorted(p for p in PERFBENCH.glob("*.py")
                                              if not p.name.startswith("test_"))
    unused = []
    for module in ("core", "gap", "problems"):
        path = SRC / f"{module}.py"
        reached = set().union(*(_referenced_names(p) for p in users if p != path))
        unused += [f"{module}.{name}" for name in _module_all(path) if name not in reached]
    assert unused == [], (
        f"{unused} are public but reached only by the tests. ROADMAP.md rules out "
        "test-only code in src/ (design aim: the same behaviour from the least "
        "code): move such a helper to tests/, as tests/probes.py holds the "
        "sampling probes, or delete it")
