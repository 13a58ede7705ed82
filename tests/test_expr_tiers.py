"""The Jacobian's hot tier (straight-line code) against the Dual tier, the
Dual tier's one vector-tangent pass against one pass per coordinate, and
``SmoothMap.eval`` against ``evaluate`` per component, bit for bit.

``expr.HOT_AFTER`` patched to 0 puts every Jacobian on the hot tier; patched
high it keeps every call on Dual.  Results are compared as bytes, with one
exception: NaN sign and payload, which CPython's own float arithmetic does
not keep fixed (they change once its bytecode specializes).
"""

import math
import random
import warnings
import weakref

import numpy as np
import pytest

from varcert import expr
from varcert.errors import KinkWarning, NotInDomainError

COLD = 10**9
CONSTANTS = ["0", "1", "2", "3", "0.5", "2.5", "1e-170", "1e-320", "1e200", "1e308", "1e999"]
EXPONENTS = ["0", "1", "2", "3", "0.5", "1.5", "(-1)", "(-0.5)", "(2*1)", "(1-1)", "x1", "(x1+1)"]
UNARY = ["sin", "cos", "exp", "log", "sqrt", "abs"]
# ties, signed zeros, domain edges, values whose squares underflow or overflow
COORDINATES = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-170, -1e-170, 1e-320, 1e154, 1e200, -1e200,
               math.pi]


def random_text(rng, n, depth):
    """A random expression over the full grammar."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([f"x{rng.randrange(n) + 1}"] * 3 + CONSTANTS)
    a = random_text(rng, n, depth - 1)
    k = rng.random()
    if k < 0.45:
        return f"({a} {rng.choice('+-*/')} {random_text(rng, n, depth - 1)})"
    if k < 0.55:
        return f"({a})^{rng.choice(EXPONENTS)}"
    if k < 0.6:
        return f"-({a})"
    if k < 0.85:
        return f"{rng.choice(UNARY)}({a})"
    return f"{rng.choice(['max', 'min'])}({a}, {random_text(rng, n, depth - 1)})"


def random_point(rng, n):
    x = [rng.choice(COORDINATES) if rng.random() < 0.7 else rng.gauss(0.0, 2.0) for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        x[1] = x[0]
    k = rng.random()
    if k < 0.4:
        return np.array(x)
    if k < 0.5:  # ints where exact: evaluate passes them through unconverted
        return [int(v) if abs(v) < 1e6 and int(v) == v else v for v in x]
    return x


def outcome(fn):
    """(result bytes or error class and message, KinkWarning messages and any
    other warning's class and message)."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            a = np.asarray(fn(), dtype=float)
            out = ("ok", a.shape, np.where(np.isnan(a), np.nan, a).tobytes())
        except Exception as exc:  # the error class and message are compared
            out = ("error", type(exc).__name__, str(exc))
    return out, [str(w.message) if issubclass(w.category, KinkWarning)
                 else (w.category.__name__, str(w.message)) for w in rec]


def all_outcomes(texts, names, points):
    m = expr.SmoothMap.from_strings(texts, names)
    es = [expr.parse(t, names) for t in texts]
    return [(outcome(lambda: m.jacobian(x)), outcome(lambda: m.eval(x)),
             [outcome(lambda: expr.grad(e, x)) for e in es]) for x in points]


def test_hot_tier_matches_dual_over_the_full_grammar(monkeypatch):
    rng = random.Random(20261018)
    kinds, flagged, ints = set(), 0, 0
    for _ in range(150):
        n = rng.randint(1, 4)
        names = [f"x{i + 1}" for i in range(n)]
        texts = [random_text(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        points = [random_point(rng, n) for _ in range(3)]
        monkeypatch.setattr(expr, "HOT_AFTER", COLD)
        cold = all_outcomes(texts, names, points)
        monkeypatch.setattr(expr, "HOT_AFTER", 0)
        assert all_outcomes(texts, names, points) == cold, texts
        for (jac, _), _, _ in cold:
            kinds.add(jac[0] if jac[0] == "ok" else jac[2])
        m = expr.SmoothMap.from_strings(texts, names)
        for x in points:
            values = outcome(lambda: [expr.evaluate(c, x) for c in m.components])
            assert outcome(lambda: m.eval(x)) == values, (texts, x)
            flagged += any(expr.evaluate_flagged(c, x)[1] for c in m.components)
            ints += any(type(xj) is int for xj in x)
    # the draws reach both error messages as well as results, and values
    # at int coordinates and outside the domain
    assert {"ok", "derivative overflow", "Jacobian requested outside a component domain"} <= kinds
    assert flagged >= 10 and ints >= 10


@pytest.mark.parametrize("texts, x", [
    (["max(x1, x2) + max(x1, x2)", "abs(x1 - x2) * min(x2, x1)"], [1.5, 1.5]),  # repeated kinks
    (["1/x1 + log(x2)", "x2"], [1e-170, -1.0]),  # the first failure in Dual's order wins
    (["log(x2) + 1/x1"], [1e-170, -1.0]),
    (["(x1^3)^0", "x1^2"], np.array([1e200, 0.0])),  # numpy ** overflows to inf, float ** raises
    (["sqrt(x1) + x2", "-0 * x1"], [0.0, -0.0]),
    (["x1^x2", "x2"], [2.0, 3.0]),  # a variable exponent stays on Dual
])
def test_hot_tier_matches_dual_at_edges(monkeypatch, texts, x):
    names = ["x1", "x2"]
    monkeypatch.setattr(expr, "HOT_AFTER", COLD)
    cold = all_outcomes(texts, names, [x])
    monkeypatch.setattr(expr, "HOT_AFTER", 0)
    assert all_outcomes(texts, names, [x]) == cold


def test_a_map_switches_tiers_with_the_same_bits():
    m = expr.SmoothMap.from_strings(["x1*sin(x2) + (x1 - 0.3)^2", "exp(x2/3) - x1*x2"], ["x1", "x2"])
    x = np.array([0.7, -1.3])
    calls = [m.jacobian(x).tobytes() for _ in range(expr.HOT_AFTER + 2)]
    assert callable(m._hot_jacobian)
    assert len(set(calls)) == 1


def test_a_map_called_fewer_than_k_times_compiles_no_code():
    m = expr.SmoothMap.from_strings(["x1*x2", "sin(x1)"], ["x1", "x2"])
    for _ in range(expr.HOT_AFTER - 1):
        m.jacobian([0.5, 0.25])
    assert not callable(m._hot_jacobian)


def test_grad_and_eval_build_no_code(monkeypatch):
    built = []
    monkeypatch.setattr(expr, "_hot_code", lambda *args: built.append(args))
    m = expr.SmoothMap.from_strings(["x1*x2", "sin(x1)"], ["x1", "x2"])
    e = expr.parse("x1^2 + x2", ["x1", "x2"])
    for _ in range(expr.HOT_AFTER + 2):
        m.eval([0.5, 0.25])
        expr.grad(e, [0.5, 0.25])
    assert built == []


def test_an_expression_compiles_once_from_its_hot_after_th_use(monkeypatch):
    """Values, gradients and grid values all count as uses; the walks before
    the HOT_AFTER-th use and the closure from it on give the same bits."""
    compiled = []
    real = expr._compile
    monkeypatch.setattr(expr, "_compile", lambda source: compiled.append(source) or real(source))
    e = expr.parse("x1*sin(x2) + max(x1, x2)^2 / (x2 - 0.3) - exp(-x1)", ["x1", "x2"])
    x, grid = [0.7, -1.3], (np.linspace(-1.0, 1.0, 5), 0.25)
    uses = [lambda: expr.evaluate(e, x), lambda: expr.grad(e, x), lambda: expr.evaluate_grid(e, grid)]
    results, counts = [], []
    for k in range(3 * expr.HOT_AFTER):
        results.append(np.asarray(uses[k % 3]()).tobytes())
        counts.append(len(compiled))
    assert counts == [0] * (expr.HOT_AFTER - 1) + [1] * (2 * expr.HOT_AFTER + 1)
    assert all(results[k] == results[k % 3] for k in range(len(results)))
    assert callable(e._closure)


def test_hot_code_is_freed_with_its_object(monkeypatch):
    monkeypatch.setattr(expr, "HOT_AFTER", 0)
    m = expr.SmoothMap.from_strings(["x1*x2", "cos(x2)"], ["x1", "x2"])
    m.jacobian([1.0, 2.0])
    refs = [weakref.ref(obj) for obj in (m, m._hot_jacobian)]
    del m  # no gc.collect(): the hot code holds no reference cycle
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# the Dual tier's vector-tangent pass against one directional pass per coordinate

def unit(n, j):
    return [1.0 if i == j else 0.0 for i in range(n)]


def per_coordinate_grad(e, x):
    """The reference gradient: ``directional`` along each unit vector."""
    return np.array([expr.directional(e, x, unit(len(x), j)) for j in range(len(x))])


def per_coordinate_jacobian(es, x):
    """The reference Jacobian: pass j runs every component along unit vector j."""
    J = np.zeros((len(es), len(x)))
    try:
        for j in range(len(x)):
            for k, e in enumerate(es):
                J[k, j] = expr.directional(e, x, unit(len(x), j))
    except NotInDomainError as exc:
        if str(exc) == "derivative requested outside the expression domain":
            raise NotInDomainError("Jacobian requested outside a component domain")
        raise
    return J


def assert_cold_matches_per_coordinate(texts, x):
    names = [f"x{i + 1}" for i in range(len(x))]
    es = [expr.parse(t, names) for t in texts]
    m = expr.SmoothMap(es, names)
    jac = outcome(lambda: m.jacobian(x))
    assert jac == outcome(lambda: per_coordinate_jacobian(es, x)), (texts, x)
    grads = [outcome(lambda: expr.grad(e, x)) for e in es]
    assert grads == [outcome(lambda: per_coordinate_grad(e, x)) for e in es], (texts, x)
    return jac, grads


def test_cold_tier_matches_per_coordinate_passes_over_the_full_grammar(monkeypatch):
    monkeypatch.setattr(expr, "HOT_AFTER", COLD)
    rng = random.Random(20261019)
    kinds, kinked = set(), 0
    for _ in range(200):
        n = rng.randint(1, 12)
        texts = [random_text(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        for x in [random_point(rng, n) for _ in range(2)]:
            (result, kinks), _ = assert_cold_matches_per_coordinate(texts, x)
            kinds.add(result[0] if result[0] == "ok" else result[2])
            kinked += n > 1 and len(kinks) > 0
    # the draws reach both error messages as well as results, and replayed kinks
    assert {"ok", "derivative overflow", "Jacobian requested outside a component domain"} <= kinds
    assert kinked >= 3


@pytest.mark.parametrize("texts, x", [
    (["-0 * x1", "-max(2, x2) + x3", "x1 * (-0) - x2"], [1.0, 0.5, 2.0]),  # -0.0 tangents
    (["3", "max(1, 2) - 4", "1e999"], [0.5] * 5),  # constants
    (["x1 * x2 - x3 / x1", "sin(x2)^2"], [1, 2, 3]),  # integer coordinates
    (["abs(x1) + max(x2, x3)", "min(x3, x2) * abs(x1 - x2)"], [0.0, 1.5, 1.5, 4.0]),
    (["abs(x1) + log(x2)"], [0.0, -1.0, 3.0]),  # a kink, then a domain error
    (["max(x1, x2)", "abs(x2 - x1) + 1/x1"], [1e-170, 1e-170, 0.0]),  # kinks, then q underflows
    (["1/x1 + log(x2)", "x2"], [1e-170, -1.0]),
    (["x1*x1*x1*x1 + x2", "exp(x2) * x1"], [1e100, 700.0]),  # tangents overflow to inf
    (["x1^x2 + abs(x3)", "x3 * x1"], [2.0, 3.0, 0.0]),  # a variable exponent
])
def test_cold_tier_matches_per_coordinate_passes_at_edges(monkeypatch, texts, x):
    monkeypatch.setattr(expr, "HOT_AFTER", COLD)
    assert_cold_matches_per_coordinate(texts, x)


def count_calls(monkeypatch, e):
    """Count the walks of the tree of ``e``, which stands for its closure
    while cold; the list grows by one per walk."""
    walk = expr._walk
    calls = []

    def counted(node, v, m):
        if node is e:
            calls.append(1)
        return walk(node, v, m)

    monkeypatch.setattr(expr, "_walk", counted)
    return calls


def test_a_cold_gradient_or_jacobian_runs_each_closure_once(monkeypatch):
    monkeypatch.setattr(expr, "HOT_AFTER", COLD)
    names = [f"x{i + 1}" for i in range(12)]
    x = np.linspace(-1.0, 1.0, 12)
    e = expr.parse(" + ".join(f"sin(x{i + 1})*x{12 - i}" for i in range(12)), names)
    calls = count_calls(monkeypatch, e)
    expr.grad(e, x)
    assert len(calls) == 1
    m = expr.SmoothMap.from_strings(["x1*x12", "abs(x3) + exp(x4)"], names)
    counts = [count_calls(monkeypatch, c) for c in m.components]
    m.jacobian(x)
    assert [len(c) for c in counts] == [1, 1]
    # an exponent that holds a variable keeps one pass per coordinate
    e = expr.parse("x1^x2 + x3", names)
    calls = count_calls(monkeypatch, e)
    expr.grad(e, x + 2.0)
    assert len(calls) == 12
