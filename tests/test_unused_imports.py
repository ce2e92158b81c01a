"""Pyflakes' F401 (imported but unused) over the directories CI lints.

CI's ``lint`` job runs ``ruff check src tests benchmarks examples`` with
``ruff.toml``, which selects F401 and exempts ``__init__.py`` re-export
modules.  This test applies the same rule with :mod:`ast`, so an unused
import fails tier-1 on a host without ruff too.

An import counts as used when its bound name is read in the scope that
imports it or in a scope nested inside it, is listed in ``__all__``, or
its line carries ``# noqa: F401``.  ``from __future__`` imports are
exempt.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Set

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LINTED = ("src", "tests", "benchmarks", "examples")
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def linted_files(with_init: bool = False) -> Iterator[str]:
    """Every ``.py`` file CI lints; ``__init__.py`` files only when
    ``with_init`` (ruff.toml exempts those re-export modules from F401
    only)."""
    for top in _LINTED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(_ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py") and (with_init or name != "__init__.py"):
                    yield os.path.join(dirpath, name)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``scope`` outside its nested function/class scopes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _names_read(scope: ast.AST) -> Set[str]:
    """Every name read anywhere under ``scope``, string annotations and
    ``__all__`` entries included."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for const in ast.walk(ann) if ann is not None else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    try:
                        quoted = ast.parse(const.value, mode="eval")
                    except SyntaxError:  # a Literal's string, not a type
                        continue
                    names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def unused_imports(path: str) -> List[str]:
    """``file:line: name`` for every import in ``path`` F401 flags."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        imports = [n for n in _own_nodes(scope) if isinstance(n, (ast.Import, ast.ImportFrom))]
        if not imports:
            continue
        read = _names_read(scope)
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in read:
                    rel = os.path.relpath(path, _ROOT)
                    found.append(f"{rel}:{node.lineno}: {alias.name}")
    return found


def test_no_unused_imports():
    found = [hit for path in linted_files() for hit in unused_imports(path)]
    assert not found, "imported but unused (F401):\n" + "\n".join(found)


def test_the_scan_catches_an_unused_import(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import os\n"
        "from typing import List, Dict  # noqa: F401  (re-export)\n"
        "from json import dumps\n"
        "def f():\n"
        "    import sys\n"
        "    return dumps\n"
        "def g() -> 'List':\n"
        "    return sys\n"
    )
    found = [hit.rsplit(": ", 1)[1] for hit in unused_imports(str(bad))]
    assert found == ["os", "sys"]
