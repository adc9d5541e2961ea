"""Source lint: every parameter of every function in src/vigap is read."""
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
