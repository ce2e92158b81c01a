"""The syntax-level checks of CI's ``lint`` job, for hosts without ruff.

CI runs ``ruff check src tests benchmarks examples`` with ``ruff.toml``.
Two of its selected rule families need nothing but the standard
library, so this test applies them to the same files:

* E9, F7 and F63's F631/F632: every file compiles, with
  ``SyntaxWarning`` raised as an error.  The compiler rejects syntax
  errors and ``return``/``break``/``continue``/``yield`` out of place,
  and warns on ``is`` against a literal and on an ``assert`` of a
  tuple.
* F822: every string in a module's ``__all__`` is bound at module
  level — by an assignment, ``def``, ``class`` or import, also inside a
  module-level ``if``/``try``/``with``/``for`` block.

F821 (undefined name) and F823 (local read before assignment) need
scope analysis, which only ruff (or pyflakes) does; those still need
ruff.
"""

from __future__ import annotations

import ast
import os
import warnings
from typing import List, Set

from tests.test_unused_imports import _ROOT, linted_files

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def compile_errors(path: str) -> List[str]:
    """``file: error`` when ``path`` does not compile cleanly."""
    with open(path) as fh:
        source = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        try:
            compile(source, path, "exec", dont_inherit=True)
        except (SyntaxError, SyntaxWarning) as exc:
            return [f"{os.path.relpath(path, _ROOT)}: {type(exc).__name__}: {exc}"]
    return []


def _targets(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _module_bindings(tree: ast.Module) -> Set[str]:
    """Names bound in module scope, nested function and class bodies
    excluded."""
    bound: Set[str] = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                bound |= _targets(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bound |= _targets(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bound |= _targets(node.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            bound |= _targets(node.target)
        todo.extend(ast.iter_child_nodes(node))
    return bound


def undefined_exports(path: str) -> List[str]:
    """``file:line: name`` for every ``__all__`` entry F822 flags."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    exports = []
    for node in tree.body:
        target = getattr(node, "target", None)
        targets = getattr(node, "targets", None) or ([target] if target else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exports += [
                    (e.lineno, e.value) for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
    if not exports or any(
        isinstance(n, ast.ImportFrom) and any(a.name == "*" for a in n.names)
        for n in ast.walk(tree)
    ):
        return []  # a star import binds names the scan cannot see
    bound = _module_bindings(tree)
    rel = os.path.relpath(path, _ROOT)
    return [f"{rel}:{line}: {name}" for line, name in exports if name not in bound]


def test_every_file_compiles_without_syntax_warnings():
    found = [hit for path in linted_files(with_init=True) for hit in compile_errors(path)]
    assert not found, "syntax errors or warnings (E9/F7/F63):\n" + "\n".join(found)


def test_every_export_is_bound():
    found = [
        hit for path in linted_files(with_init=True) for hit in undefined_exports(path)
    ]
    assert not found, "undefined name in __all__ (F822):\n" + "\n".join(found)


def test_the_compile_check_catches_errors_and_warnings(tmp_path):
    cases = {
        "is_literal.py": "x = 1\nif x is 1:\n    pass\n",
        "assert_tuple.py": "assert (1, 'always true')\n",
        "return_outside.py": "return 1\n",
        "break_outside.py": "break\n",
        "syntax.py": "def f(:\n",
    }
    for name, source in cases.items():
        path = tmp_path / name
        path.write_text(source)
        assert compile_errors(str(path)), name
    ok = tmp_path / "ok.py"
    ok.write_text("x = 1\nassert x == 1, 'fine'\n")
    assert compile_errors(str(ok)) == []


def test_the_export_scan_catches_an_unbound_name(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import os.path\n"
        "from json import dumps as to_json\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    np = None\n"
        "A, (B, C) = 1, (2, 3)\n"
        "def f():\n"
        "    hidden = 1\n"
        "class K:\n"
        "    attr = 2\n"
        "__all__ = ['os', 'to_json', 'np', 'A', 'C', 'f', 'K',\n"
        "           'hidden', 'attr', 'missing']\n"
    )
    found = [hit.rsplit(": ", 1)[1] for hit in undefined_exports(str(bad))]
    assert found == ["hidden", "attr", "missing"]
