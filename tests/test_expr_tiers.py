"""The Dual tier's one vector-tangent pass against one pass per coordinate,
``SmoothMap.eval`` against ``evaluate`` per component, and repeated calls
against the first, bit for bit.

Results are compared as bytes, with one exception: NaN sign and payload,
which CPython's own float arithmetic does not keep fixed (they change once
its bytecode specializes).
"""
import math
import random
import warnings

import numpy as np
import pytest

from varcert import expr
from varcert.errors import KinkWarning, NotInDomainError

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


def test_repeated_uses_give_the_same_bits():
    """2 x 8 Jacobian calls on one map give the same bytes and the same
    replayed kink warnings (two kinks at width 2, each warned twice), and
    values, gradients and grid values of one expression, used in turn, give
    the same bytes at every use."""
    m = expr.SmoothMap.from_strings(["x1*sin(x2) + (x1 - 0.3)^2", "exp(x2/3) - x1*x2",
                                     "abs(x1 - 0.7) + max(x2, -1.3)"], ["x1", "x2"])
    x = np.array([0.7, -1.3])
    calls = [outcome(lambda: m.jacobian(x)) for _ in range(16)]
    assert calls[0][0][0] == "ok" and len(calls[0][1]) == 4
    assert all(call == calls[0] for call in calls)
    e = expr.parse("x1*sin(x2) + max(x1, x2)^2 / (x2 - 0.3) - exp(-x1)", ["x1", "x2"])
    x, grid = [0.7, -1.3], (np.linspace(-1.0, 1.0, 5), 0.25)
    uses = [lambda: expr.evaluate(e, x), lambda: expr.grad(e, x), lambda: expr.evaluate_grid(e, grid)]
    results = [np.asarray(uses[k % 3]()).tobytes() for k in range(24)]
    assert all(results[k] == results[k % 3] for k in range(len(results)))


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


def assert_matches_per_coordinate(texts, x):
    """The map's Jacobian and each gradient against passes per coordinate,
    and ``SmoothMap.eval`` against ``evaluate`` per component; returns the
    Jacobian's outcome and whether some value is outside its domain."""
    names = [f"x{i + 1}" for i in range(len(x))]
    es = [expr.parse(t, names) for t in texts]
    m = expr.SmoothMap(es, names)
    jac = outcome(lambda: m.jacobian(x))
    assert jac == outcome(lambda: per_coordinate_jacobian(es, x)), (texts, x)
    grads = [outcome(lambda: expr.grad(e, x)) for e in es]
    assert grads == [outcome(lambda: per_coordinate_grad(e, x)) for e in es], (texts, x)
    values = outcome(lambda: m.eval(x))
    assert values == outcome(lambda: [expr.evaluate(e, x) for e in es]), (texts, x)
    with np.errstate(all="ignore"):
        return jac, any(expr.evaluate_flagged(e, x)[1] for e in es)


def test_cold_tier_matches_per_coordinate_passes_over_the_full_grammar():
    rng = random.Random(20261019)
    kinds, kinked, flagged, ints = set(), 0, 0, 0
    for _ in range(200):
        n = rng.randint(1, 12)
        texts = [random_text(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        for x in [random_point(rng, n) for _ in range(2)]:
            (result, kinks), outside = assert_matches_per_coordinate(texts, x)
            kinds.add(result[0] if result[0] == "ok" else result[2])
            kinked += n > 1 and len(kinks) > 0
            flagged += outside
            ints += any(type(xj) is int for xj in x)
    # the draws reach both error messages as well as results, replayed kinks,
    # and values at int coordinates and outside the domain
    assert {"ok", "derivative overflow", "Jacobian requested outside a component domain"} <= kinds
    assert kinked >= 3 and flagged >= 10 and ints >= 10


@pytest.mark.parametrize("texts, x", [
    (["-0 * x1", "-max(2, x2) + x3", "x1 * (-0) - x2"], [1.0, 0.5, 2.0]),  # -0.0 tangents
    (["3", "max(1, 2) - 4", "1e999"], [0.5] * 5),  # constants
    (["x1 * x2 - x3 / x1", "sin(x2)^2"], [1, 2, 3]),  # integer coordinates
    (["abs(x1) + max(x2, x3)", "min(x3, x2) * abs(x1 - x2)"], [0.0, 1.5, 1.5, 4.0]),
    (["abs(x1) + log(x2)"], [0.0, -1.0, 3.0]),  # a kink, then a domain error
    (["max(x1, x2)", "abs(x2 - x1) + 1/x1"], [1e-170, 1e-170, 0.0]),  # kinks, then q underflows
    (["1/x1 + log(x2)", "x2"], [1e-170, -1.0]),  # the first failure in pass order wins
    (["x1*x1*x1*x1 + x2", "exp(x2) * x1"], [1e100, 700.0]),  # tangents overflow to inf
    (["x1^x2 + abs(x3)", "x3 * x1"], [2.0, 3.0, 0.0]),  # a variable exponent
    (["max(x1, x2) + max(x1, x2)", "abs(x1 - x2) * min(x2, x1)"], [1.5, 1.5]),  # repeated kinks
    (["log(x2) + 1/x1"], [1e-170, -1.0]),
    (["(x1^3)^0", "x1^2"], np.array([1e200, 0.0])),  # numpy ** overflows to inf, float ** raises
    (["sqrt(x1) + x2", "-0 * x1"], [0.0, -0.0]),  # sqrt at 0 and -0.0 tangents
])
def test_cold_tier_matches_per_coordinate_passes_at_edges(texts, x):
    assert_matches_per_coordinate(texts, x)


def count_calls(monkeypatch, e):
    """Count the walks of the tree of ``e``; the list grows by one per walk."""
    walk = expr._walk
    calls = []

    def counted(node, v, m):
        if node is e:
            calls.append(1)
        return walk(node, v, m)

    monkeypatch.setattr(expr, "_walk", counted)
    return calls


def test_a_cold_gradient_or_jacobian_runs_each_closure_once(monkeypatch):
    """A gradient or a Jacobian walks each tree once; an exponent that holds
    a variable, once per coordinate."""
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
