"""Static check: every name the package imports is used or re-exported."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nomajam"
ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "StrategyGrid"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def _definitions(tree):
    """(name, first line, last line) of every function, class and method, and
    of every name a module-level assignment binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of every name and attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _acceptance_imports():
    """Names tests/test_acceptance.py imports from the package."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nomajam")
        for alias in node.names
    }


def test_every_definition_is_referenced():
    # a function, class, method or module-level name that nothing under src/
    # names outside its own definition is dead code or test-only API; an
    # ``__all__`` entry alone does not count, except for the names the
    # acceptance criteria import; dunder methods are called by Python itself,
    # and dunder names such as __version__ are read by tools
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.rglob("*.py"))}
    public = _acceptance_imports()
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    dead = [
        f"{path.relative_to(PACKAGE)}:{first} {name}"
        for path, tree in trees.items()
        for name, first, last in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and not any(p != path or not first <= line <= last
                    for p, line in refs.get(name, ()))
    ]
    assert not dead, f"defined but never referenced under src/: {dead}"
