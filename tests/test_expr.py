import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from varcert import cli, expr
from varcert.errors import (
    DimensionMismatchError,
    ExprSyntaxError,
    KinkWarning,
    NotInDomainError,
    UnknownVariableError,
)
from test_expr_tiers import outcome, random_point, random_text


def central_diff(e, x, h=1e-6):
    """Independent gradient oracle: central finite differences."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (expr.evaluate(e, xp) - expr.evaluate(e, xm)) / (2 * h)
    return g


def test_parse_example_tree():
    e = expr.parse("x1^2 + sin(x2)", ["x1", "x2"])
    assert isinstance(e, expr.BinOp) and e.op == "+"
    assert isinstance(e.lhs, expr.BinOp) and e.lhs.op == "^"
    assert isinstance(e.rhs, expr.Call) and e.rhs.func == "sin"


def test_undeclared_variable_rejected():
    with pytest.raises(UnknownVariableError) as exc:
        expr.parse("x3", ["x1", "x2"])
    assert exc.value.name == "x3"


def test_index_variable_product():
    e = expr.parse("s1*x1", ["x1", "s1"])
    assert expr.evaluate(e, [3.0, 0.5]) == pytest.approx(1.5)
    # gradient in x at (x1, s1) = (0, 1)
    assert expr.grad(e, [0.0, 1.0])[0] == pytest.approx(1.0)


SYNTAX_ERRORS = [
    ("", 0, "empty expression"),
    ("   ", 0, "empty expression"),
    ("x1 +", 4, "expected number, variable, function, or '('"),
    ("sin(x1", 6, "expected ')'"),
    ("max(x1)", 0, "max takes 2 argument(s)"),
    ("sin(x1, x2)", 0, "sin takes 1 argument(s)"),
    ("(x1))", 4, "unexpected trailing input ')'"),
    ("x1 $ x2", 3, "unexpected character '$'"),
    ("2 3", 2, "unexpected trailing input 3.0"),  # the token's value, not its text
    ("foo(x1)", 0, "unknown function 'foo'"),
    ("x1 +\t@", 5, "unexpected character '@'"),
]


@pytest.mark.parametrize("text, position, message", SYNTAX_ERRORS, ids=[t for t, _, _ in SYNTAX_ERRORS])
def test_syntax_errors_are_positioned(text, position, message):
    with pytest.raises(ExprSyntaxError) as exc:
        expr.parse(text, ["x1", "x2"])
    assert (exc.value.position, exc.value.message) == (position, message)


def test_a_chain_too_deep_to_write_as_source_is_a_syntax_error():
    """The parser reads 5,000 chained terms in a loop, but writing their
    closure source recurses once per term and runs out of stack: the same
    error as a chain that CPython refuses to compile."""
    with pytest.raises(ExprSyntaxError) as exc:
        expr.parse("+".join(["x1"] * 5000), ["x1"])
    assert (exc.value.position, exc.value.message) == (0, "expression nested too deeply")


def test_eval_examples():
    e = expr.parse("x1^2 + sin(x2)", ["x1", "x2"])
    assert expr.evaluate(e, [2.0, 0.0]) == pytest.approx(4.0)
    val, bad = expr.evaluate_flagged(expr.parse("log(x1)", ["x1"]), [0.0])
    assert val == math.inf and bad
    val, bad = expr.evaluate_flagged(expr.parse("sqrt(x1)", ["x1"]), [-1.0])
    assert val == math.inf and bad
    val, bad = expr.evaluate_flagged(expr.parse("x1/x2", ["x1", "x2"]), [1.0, 0.0])
    assert val == math.inf and bad


def test_eval_dimension_mismatch():
    e = expr.parse("x1 + x2", ["x1", "x2"])
    with pytest.raises(DimensionMismatchError):
        expr.evaluate(e, [1.0])


def test_grad_examples():
    e = expr.parse("x1^2 + sin(x2)", ["x1", "x2"])
    assert np.allclose(expr.grad(e, [2.0, 0.0]), [4.0, 1.0])
    c = expr.parse("7", ["x1", "x2"])
    assert np.allclose(expr.grad(c, [3.0, -5.0]), [0.0, 0.0])


def test_kink_warning_and_first_branch_rule():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        g = expr.grad(expr.parse("abs(x1)", ["x1"]), [0.0])
        assert g[0] == pytest.approx(1.0)  # identity branch of abs
        g = expr.grad(expr.parse("max(x1, -x1)", ["x1"]), [0.0])
        assert g[0] == pytest.approx(1.0)  # first argument
        g = expr.grad(expr.parse("min(2*x1, x1)", ["x1"]), [0.0])
        assert g[0] == pytest.approx(2.0)
    assert sum(issubclass(w.category, KinkWarning) for w in rec) == 3


def test_power_rules():
    # integer exponent works for negative base
    assert expr.evaluate(expr.parse("x1^3", ["x1"]), [-2.0]) == pytest.approx(-8.0)
    # fractional power of a negative base is a domain violation
    val, bad = expr.evaluate_flagged(expr.parse("x1^0.5", ["x1"]), [-2.0])
    assert bad and val == math.inf
    # general real exponent with positive base
    assert expr.evaluate(expr.parse("x1^2.5", ["x1"]), [4.0]) == pytest.approx(32.0)
    assert expr.evaluate(expr.parse("x1^0", ["x1"]), [0.0]) == pytest.approx(1.0)


RNG_FUNCS = ["sin", "cos", "exp"]


def random_expr(rng, names, depth):
    """Random smooth expression (kept away from kinks and singular domains)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return str(round(rng.uniform(0.1, 2.0), 3))
        return names[rng.integers(0, len(names))]
    r = rng.random()
    a = random_expr(rng, names, depth - 1)
    b = random_expr(rng, names, depth - 1)
    if r < 0.25:
        return f"({a} + {b})"
    if r < 0.45:
        return f"({a} - {b})"
    if r < 0.65:
        return f"({a} * {b})"
    if r < 0.8:
        return f"{RNG_FUNCS[rng.integers(0, 3)]}({a})"
    if r < 0.9:
        return f"({a})^2"
    return f"exp(-({a})^2)"


def test_grad_matches_finite_differences_on_random_expressions():
    rng = np.random.default_rng(7)
    names = ["x1", "x2", "x3"]
    checked = 0
    while checked < 100:
        text = random_expr(rng, names, 3)
        e = expr.parse(text, names)
        x = rng.uniform(-1.0, 1.0, size=3)
        v = expr.evaluate(e, x)
        if not math.isfinite(v) or abs(v) > 1e6:
            continue
        g = expr.grad(e, x)
        if np.any(np.abs(g) > 1e4):
            continue
        assert np.allclose(g, central_diff(e, x), atol=1e-5), text
        checked += 1


def test_grad_linearity_and_chain_rule_structure():
    rng = np.random.default_rng(11)
    names = ["x1", "x2"]
    for _ in range(30):
        ta = random_expr(rng, names, 2)
        tb = random_expr(rng, names, 2)
        x = rng.uniform(-0.8, 0.8, size=2)
        ea, eb = expr.parse(ta, names), expr.parse(tb, names)
        esum = expr.parse(f"({ta}) + ({tb})", names)
        if not all(math.isfinite(expr.evaluate(e, x)) for e in (ea, eb, esum)):
            continue
        assert np.allclose(expr.grad(esum, x), expr.grad(ea, x) + expr.grad(eb, x), atol=1e-9)
        # chain rule on a nested unary wrap: d/dx sin(g) = cos(g) * g'
        enest = expr.parse(f"sin({ta})", names)
        gval = expr.evaluate(ea, x)
        assert np.allclose(expr.grad(enest, x), math.cos(gval) * expr.grad(ea, x), atol=1e-9)


def test_smoothmap_eval_and_jacobian():
    m = expr.SmoothMap.from_strings(["x1^2 - x2", "x1*x2", "sin(x1)"], ["x1", "x2"])
    x = np.array([0.7, -0.4])
    assert m.eval(x).shape == (3,)
    J = m.jacobian(x)
    assert J.shape == (3, 2)
    h = 1e-6
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = (m.eval(xp) - m.eval(xm)) / (2 * h)
        assert np.allclose(J[:, j], fd, atol=1e-5)
    with pytest.raises(DimensionMismatchError):
        m.eval([1.0, 2.0, 3.0])


def test_smoothmap_identity_and_jacobian():
    m = expr.SmoothMap.identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(m.eval(x), x)
    assert np.allclose(m.jacobian(x), np.eye(3))
    mc = expr.SmoothMap.from_strings(["x1*x2", "3"], ["x1", "x2"])
    assert mc.jacobian([2.0, 5.0]).tolist() == [[5.0, 2.0], [0.0, 0.0]]
    with pytest.raises(NotInDomainError, match="outside a component domain"):
        expr.SmoothMap.from_strings(["log(x1)"], ["x1"]).jacobian([-1.0])


def test_compiled_closures_live_on_the_expression():
    """Evaluating many parsed expressions grows no module-level cache, and an
    expression is freed once its caller drops it."""
    import gc
    import weakref

    def container_sizes():
        return {name: len(v) for name, v in vars(expr).items()
                if isinstance(v, (dict, list, set))}

    before = container_sizes()
    for i in range(200):
        e = expr.parse(f"x1 * {i} + x2", ["x1", "x2"])
        assert expr.evaluate(e, [1.0, 2.0]) == i + 2.0
        assert list(expr.grad(e, [1.0, 2.0])) == [i, 1.0]
    assert container_sizes() == before
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_a_literal_past_the_float_range_is_inf():
    e = expr.parse("1e999*x1", ["x1"])
    assert expr.evaluate(e, [1.0]) == math.inf
    assert list(expr.grad(e, [1.0])) == [math.inf]


def _max_var_index(e):
    if isinstance(e, expr.Var):
        return e.index
    return max(map(_max_var_index, expr._children(e)), default=-1)


def golden_expressions():
    """(text, declared names) of every expression the golden problems parse."""
    seen = []
    parse = expr.parse

    def recording(text, declared_vars):
        seen.append((text, list(declared_vars)))
        return parse(text, declared_vars)

    build = {"nlp": cli.build_nlp, "sip": cli.build_sip, "sdp": cli.build_sdp}
    cases = json.loads((Path(__file__).with_name("golden") / "cases.json").read_text(encoding="utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "parse", recording)
        for case in cases:
            if case["problem"] is not None:
                build[case["problem"]["kind"]](case["problem"])
    return seen


EDGE_CASES = ["1e999*x1", "-x1^2", "x1^-1", "--x1", "x1", "3", "(x2)",
              "max(abs(min(x1, -x2)), max(x1^2, abs(-3)))", "min(max(x1, 2), abs(x2 - 1e999))"]


def bits(out):
    """A float, or a Dual's value and tangents, as one array."""
    if isinstance(out, expr.Dual):
        return np.concatenate([[out.val], np.ravel(out.dot)])
    return out


def test_the_walk_and_the_compiled_source_agree_bit_for_bit():
    """Over the golden problems, the grammar fuzz of the tier tests and edge
    cases, walking the tree gives what the closure compiled from ``_source``
    gives: the same bits on floats, on width-n Dual numbers and on numpy
    grids, the same error and the same warnings in order.  The parser's
    bracket count is that of the source, and its largest variable index that
    of the tree."""
    texts = golden_expressions()
    assert len(texts) > 50
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 4)
        texts.append((random_text(rng, n, rng.randint(1, 6)), [f"x{i + 1}" for i in range(n)]))
    texts += [(t, ["x1", "x2"]) for t in EDGE_CASES]
    shim, grid_shim = expr._Shim(), expr._NP_SHIM
    kinds, kinked = set(), 0
    for text, names in texts:
        e = expr.parse(text, names)
        parser = expr._Parser(text, names)
        parser.parse()
        source = expr._source(e)
        assert parser.brackets == source.count("(") + source.count("["), text
        assert e._top == _max_var_index(e), text
        fn = expr._compile(source)
        n = len(names)
        for x in [random_point(rng, n) for _ in range(3)]:
            v = tuple(x)
            duals = tuple(map(expr.Dual, map(float, x), expr._unit_rows(n) if n > 1 else [1.0]))
            grid = tuple(np.array([random_point(rng, 1)[0] for _ in range(4)]) for _ in range(n))
            for args in ((v, shim), (duals, shim), (grid, grid_shim)):
                with np.errstate(all="ignore"):
                    walked = outcome(lambda: bits(expr._walk(e, *args)))
                    assert walked == outcome(lambda: bits(fn(*args))), (text, x)
                kinds.add(walked[0][0] if walked[0][0] == "ok" else walked[0][1])
                kinked += any(isinstance(w, str) for w in walked[1])
    # the draws reach results, every shim error and kinks
    assert {"ok", "_DomainViolation", "OverflowError", "ZeroDivisionError"} <= kinds
    assert kinked >= 10
    assert expr._source(expr.parse("-x1^2", ["x1"])) == "m.pw((-v[0]),2.0)"
    assert expr._source(expr.parse("3", ["x1", "x2"])) == "3.0"


def test_nodes_are_unhashable_and_unchanged_by_use():
    """Nodes are immutable after parsing by convention, not by ``frozen``:
    a tree compares equal to a fresh parse after walks, Dual passes, the
    compiled closure, the hot Jacobian and a grid scan, and no node is
    hashable, so nothing keys a cache on one."""
    texts = ["sin(x1)*x2^2 - max(x1, x2)/3", "exp(x1 - x2) + abs(x2) - log(2 + x1^2)",
             "-(x1 + 2)^3 + sqrt(1 + x2^2)*min(x1, 0.5)"]
    names = ["x1", "x2"]
    f = expr.SmoothMap.from_strings(texts, names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(2 * expr.HOT_AFTER):
            x = [0.1 * k - 0.7, 0.3 - 0.05 * k]
            f.eval(x)
            f.jacobian(x)
            for e in f.components:
                expr.grad(e, x)
        for e in f.components:
            expr.evaluate_grid(e, (np.linspace(-1.0, 1.0, 6), np.linspace(0.0, 1.0, 6)))
    assert all(callable(e._closure) for e in f.components)
    for e, text in zip(f.components, texts):
        assert e == expr.parse(text, names)
        with pytest.raises(TypeError):
            hash(e)
