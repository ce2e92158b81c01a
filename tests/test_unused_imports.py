"""Pyflakes' F401 (imported but unused) over the directories CI lints,
and unreferenced private module-level functions and classes in ``src``.

CI's ``lint`` job runs ``ruff check src tests benchmarks examples`` with
``ruff.toml``, which selects F401 and exempts ``__init__.py`` re-export
modules.  This test applies the same rule with :mod:`ast`, so an unused
import fails tier-1 on a host without ruff too.

An import counts as used when its bound name is read in the scope that
imports it or in a scope nested inside it, is listed in ``__all__``, or
its line carries ``# noqa: F401``.  ``from __future__`` imports are
exempt.

A module-level ``def _name`` or ``class _Name`` in ``src`` is dead when
no file of the linted directories or ``perfbench/`` names it anywhere
but in its definition: not as a name, an attribute, an imported name or
a word of a string literal (``monkeypatch.setattr(mod, "_name", ...)``).
Docstrings do not count as a use.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator, List, Set, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LINTED = ("src", "tests", "benchmarks", "examples")
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def linted_files(
    with_init: bool = False, tops: Tuple[str, ...] = _LINTED
) -> Iterator[str]:
    """Every ``.py`` file CI lints (or under ``tops``); ``__init__.py``
    files only when ``with_init`` (ruff.toml exempts those re-export
    modules from F401 only)."""
    for top in tops:
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


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring node of ``tree``."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, _SCOPES) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def referenced_names(path: str) -> Set[str]:
    """Every identifier ``path`` uses: names, attributes, imported names
    and the words of its string literals other than docstrings."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    docs = _docstrings(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docs:
                names.update(re.findall(r"\w+", node.value))
    return names


def private_definitions(path: str) -> List[Tuple[str, int]]:
    """``(name, line)`` of every module-level private function or class."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.name, node.lineno) for node in tree.body
        if isinstance(node, kinds)
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def unreferenced_private_definitions(root: str = _ROOT) -> List[str]:
    """``file:line: name`` for every private module-level function or
    class under ``root/src`` that no scanned file references."""
    tops = tuple(os.path.join(root, top) for top in _LINTED + ("perfbench",))
    used: Set[str] = set()
    for path in linted_files(with_init=True, tops=tops):
        used |= referenced_names(path)
    return [
        f"{os.path.relpath(path, root)}:{line}: {name}"
        for path in linted_files(with_init=True, tops=(os.path.join(root, "src"),))
        for name, line in private_definitions(path)
        if name not in used
    ]


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


def test_no_unreferenced_private_definitions():
    found = unreferenced_private_definitions()
    assert not found, "private and never referenced:\n" + "\n".join(found)


def test_the_scan_catches_an_unreferenced_private_definition(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "def _dead():\n"
        "    \"\"\"Not _dead_class either.\"\"\"\n"
        "class _DeadClass:\n"
        "    pass\n"
        "def _called():\n"
        "    pass\n"
        "def _patched():\n"
        "    pass\n"
        "def _imported():\n"
        "    pass\n"
        "def public():\n"
        "    return _called()\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from mod import _imported\n"
        "def test(monkeypatch):\n"
        "    monkeypatch.setattr(mod, '_patched', None)\n"
    )
    found = [hit.rsplit(": ", 1)[1] for hit in unreferenced_private_definitions(str(tmp_path))]
    assert found == ["_dead", "_DeadClass"]
