"""Every public library name and parameter is reached by a command, a benchmark or an acceptance criterion.

A public top-level function or class of ``src/varcert`` must be referenced
somewhere in ``src/`` outside its own definition, in ``perfbench/``, in
``tests/test_acceptance.py`` or in ``tests/test_golden.py``.  A name that
only its own unit tests reach is dead weight, unless its docstring has a
``Kept:`` line that says why it stays.

The same rule holds for the defaulted parameters of a public top-level
function: some call of that name in the same places (in ``src/`` outside
the function's own body) sets the parameter by keyword or by position, or a
``Kept:`` paragraph of the docstring names it.  A default that nothing sets
is a constant.
"""

import ast
import re
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


def _kept_text(node):
    """The docstring's ``Kept:`` paragraphs, each from its ``Kept:`` line to a blank line."""
    lines = (ast.get_docstring(node) or "").splitlines()
    kept, inside = [], False
    for line in lines:
        inside = line.strip().startswith("Kept:") or (inside and bool(line.strip()))
        if inside:
            kept.append(line)
    return "\n".join(kept)


def _kept(node):
    return bool(_kept_text(node))


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


def _defaulted(fn):
    """(name, position or None) of each parameter of ``fn`` that has a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    out = [(arg.arg, k) for k, arg in enumerate(positional)
           if k >= len(positional) - len(a.defaults)]
    return out + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _calls(node):
    """(called name, what the call sets) for each call of a plain or dotted name
    under ``node``.  What it sets is (number of positional arguments, keyword
    names), or None, for every parameter, behind a * or ** argument."""
    out = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = sub.func.id if isinstance(sub.func, ast.Name) else getattr(sub.func, "attr", None)
        if any(isinstance(arg, ast.Starred) for arg in sub.args) \
                or any(kw.arg is None for kw in sub.keywords):
            out.append((name, None))
        else:
            out.append((name, (len(sub.args), {kw.arg for kw in sub.keywords})))
    return out


def unset_parameters():
    """``module.function(parameter)`` for each defaulted parameter of a public
    top-level function that no counted call sets and no ``Kept:`` paragraph names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC}
    statements = [(mod, stmt) for mod, tree in trees.items() for stmt in tree.body]
    # each call with the top-level statement it sits in (None outside src/)
    calls = [(None, call) for path in OUTSIDE
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")))]
    calls += [(stmt, call) for _, stmt in statements for call in _calls(stmt)]
    unset = []
    for mod, fn in statements:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        sets = [s for owner, (name, s) in calls if name == fn.name and owner is not fn]
        kept = _kept_text(fn)
        for param, position in _defaulted(fn):
            if re.search(rf"\b{param}\b", kept):
                continue
            if not any(s is None or param in s[1] or (position is not None and position < s[0])
                       for s in sets):
                unset.append(f"{mod}.{fn.name}({param})")
    return unset


def test_every_defaulted_parameter_is_set_or_kept_with_a_reason():
    assert unset_parameters() == []


def callers(name):
    """``module.definition`` of the top-level statement around each call of
    ``name`` in ``src/``, once per call."""
    return [f"{path.stem}.{getattr(stmt, 'name', None)}" for path in SRC
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            for called, _ in _calls(stmt) if called == name]


def test_the_lp_answers_only_the_sip_and_sdp_atom_fit():
    """Every other feasibility or membership question is answered by least
    squares: the simplex serves conic_fit alone, and conic_fit the atom fit."""
    assert callers("lp_solve") == ["solvers.conic_fit"]
    assert callers("conic_fit") == ["sip.stationarity_atoms"]


def test_every_certificate_is_built_by_the_issuer_that_returns_it():
    """An issuer returns every certificate it issues, NO_MULTIPLIER included,
    so none rides on an exception for a caller to rebuild: Certificate(...)
    is called only in certify and sip, and no module of src/ or perfbench/
    names NoMultiplierError."""
    assert {caller.split(".")[0] for caller in callers("Certificate")} == {"certify", "sip"}
    naming = [path.name for path in SRC + sorted((ROOT / "perfbench").glob("*.py"))
              if "NoMultiplierError" in _referenced(ast.parse(path.read_text(encoding="utf-8")))]
    assert naming == []


def test_no_code_is_generated():
    """Expressions are only walked: the builtins compile, exec and eval are
    called nowhere in src/ by bare name (so re.compile and SmoothMap.eval do
    not count)."""
    generators = [f"{path.stem}.{getattr(stmt, 'name', None)}" for path in SRC
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                  for sub in ast.walk(stmt) if isinstance(sub, ast.Call)
                  and isinstance(sub.func, ast.Name) and sub.func.id in ("compile", "exec", "eval")]
    assert generators == []
