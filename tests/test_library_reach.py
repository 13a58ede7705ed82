"""Every public library name and parameter is reached by a command, a benchmark or an acceptance criterion.

A public top-level function or class of ``src/varcert`` must be referenced
somewhere in ``src/`` outside its own definition, in ``perfbench/``, in
``tests/test_acceptance.py`` or in ``tests/test_golden.py``.  A name that
only its own unit tests reach is dead weight, unless its docstring has a
``Kept:`` line that says why it stays.  A class named only in the second
argument of ``isinstance`` is not reached: that is dispatch on it, and a
branch that tests for a class nothing builds is dead too.

The rule holds for each public method of a top-level class as well: its
name appears in ``src/`` outside the method's own body, or in the same
files outside, or the method has a ``Kept:`` line.  The rule reads names,
not owners, so a method reads as reached wherever anything of the same name
is used: ``PolyhedralCone.contains`` would pass on the calls of
``Polyhedron.contains`` alone.  A trace of the calls themselves tells the
owners apart.

The same rule holds for the defaulted parameters of a public top-level
function: some call of that name in the same places (in ``src/`` outside
the function's own body) sets the parameter by keyword or by position, or a
``Kept:`` paragraph of the docstring names it.  A default that nothing sets
is a constant.

Last, no module of ``src/`` imports a name it never uses, so that a deletion
leaves no import behind.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "varcert").glob("*.py"))
OUTSIDE = sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_golden.py",
]


def _occurrences(node, dispatch=False):
    """Names, attributes and dotted string parts (``perfbench`` wraps by string)
    under ``node``, counted once per occurrence; those in the second argument
    of an ``isinstance`` call only with ``dispatch``."""
    skip = set()
    if not dispatch:
        skip = {id(sub) for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                and len(call.args) == 2 for sub in ast.walk(call.args[1])}
    found = Counter()
    for sub in ast.walk(node):
        if id(sub) in skip:
            continue
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(sub.value.split("."))
    return found


def _referenced(node, dispatch=False):
    return set(_occurrences(node, dispatch))


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


def _outside():
    """The references in the files outside ``src/``."""
    return set().union(*(_referenced(ast.parse(path.read_text(encoding="utf-8")))
                         for path in OUTSIDE))


def unreached_names():
    """``module.name`` for each public top-level definition with no reach and no ``Kept:`` line."""
    outside = _outside()
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


def unreached_methods():
    """``module.Class.method`` for each public method of a top-level class
    with no reach and no ``Kept:`` line."""
    outside = _outside()
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC}
    methods = [(f"{mod}.{cls.name}.{fn.name}", fn) for mod, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    in_src = sum(map(_occurrences, trees.values()), Counter())
    return [name for name, fn in methods
            if in_src[fn.name] <= _occurrences(fn)[fn.name]  # none outside its own body
            and fn.name not in outside and not _kept(fn)]


def test_every_public_method_is_reached_or_kept_with_a_reason():
    assert unreached_methods() == []


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
              if "NoMultiplierError" in _referenced(ast.parse(path.read_text(encoding="utf-8")),
                                                    dispatch=True)]
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


def unused_imports():
    """``module.name`` for each name that a module of src/ imports and never
    uses: no ``Name`` node in the module reads it.  ``from __future__`` is
    exempt, and ``import a.b`` binds ``a``."""
    unused = []
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}.{bound}" for alias in stmt.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in used]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []
