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
    """(name, first line, last line, module-level def) of every function, class
    and method, and of every name a module-level assignment binds; the flag is
    True for the functions and classes of the module body."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno, id(node) in top
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno, node.end_lineno, False


def _references(tree):
    """(name, line, bare name) of every name and attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False


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
    # and dunder names such as __version__ are read by tools.  A module-level
    # function or class counts only a bare name as a reference: an attribute
    # of the same name, such as a record field, does not call it
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.rglob("*.py"))}
    public = _acceptance_imports()
    refs: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line, bare in _references(tree):
            refs.setdefault(name, []).append((path, line, bare))
    dead = [
        f"{path.relative_to(PACKAGE)}:{first} {name}"
        for path, tree in trees.items()
        for name, first, last, top in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and not any((bare or not top) and (p != path or not first <= line <= last)
                    for p, line, bare in refs.get(name, ()))
    ]
    assert not dead, f"defined but never referenced under src/: {dead}"
