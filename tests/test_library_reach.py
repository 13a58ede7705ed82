"""Every public library name is reached by a command, a benchmark or an acceptance criterion.

A public top-level function or class of ``src/varcert`` must be referenced
somewhere in ``src/`` outside its own definition, in ``perfbench/``, in
``tests/test_acceptance.py`` or in ``tests/test_golden.py``.  A name that
only its own unit tests reach is dead weight, unless its docstring has a
``Kept:`` line that says why it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "varcert").glob("*.py"))
OUTSIDE = sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_golden.py",
]


def _referenced(node):
    """Names, attributes and dotted string parts (``perfbench`` wraps by string) under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(sub.value.split("."))
    return found


def _kept(node):
    doc = ast.get_docstring(node) or ""
    return any(line.strip().startswith("Kept:") for line in doc.splitlines())


def unreached_names():
    """``module.name`` for each public top-level definition with no reach and no ``Kept:`` line."""
    outside = set()
    for path in OUTSIDE:
        outside |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC}
    # each top-level statement's references, with the name it defines (if any)
    statements = [(mod, stmt) for mod, tree in trees.items() for stmt in tree.body]
    refs = [(mod, getattr(stmt, "name", None), _referenced(stmt)) for mod, stmt in statements]
    unreached = []
    for mod, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        name = stmt.name
        in_src = any(name in found for m, owner, found in refs if (m, owner) != (mod, name))
        if not (in_src or name in outside or _kept(stmt)):
            unreached.append(f"{mod}.{name}")
    return unreached


def test_every_public_name_is_reached_or_kept_with_a_reason():
    assert unreached_names() == []
