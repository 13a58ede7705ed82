import json
import math
import random
import struct
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
from test_expr_tiers import (COORDINATES, outcome, per_coordinate_grad, per_coordinate_jacobian,
                             random_text)


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


AFFINE_IN_X = [
    ("(s1 - 0.25)*(x1 - 0.5)", True),
    ("x1/s1", True),
    ("sin(s1)*x2", True),
    ("-(x1 + 2*x2)*exp(s1)/(1 + s1^2) - s1^3", True),
    ("s1", True),
    ("x1*x2", False),
    ("s1/x1", False),
    ("x1^2", False),
    ("abs(x1)", False),
    ("sin(x1)", False),
    ("2^x1", False),
    ("max(s1, x2)*0", False),
    ("x1*(s1 + x2)", False),
    ("-x1*-x2", False),
]


@pytest.mark.parametrize("text, affine", AFFINE_IN_X, ids=[t for t, _ in AFFINE_IN_X])
def test_affine_in_reads_the_parse_tree(text, affine):
    """affine in x1, x2 over x1, x2, s1: no x inside a call, a divisor or a
    power, and no product of two factors that both hold an x."""
    assert expr.affine_in(expr.parse(text, ["x1", "x2", "s1"]), 2) is affine


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
    """Errors are not memoized: a second call raises afresh, at the same place."""
    for _ in range(2):
        with pytest.raises(ExprSyntaxError) as exc:
            expr.parse(text, ["x1", "x2"])
        assert (exc.value.position, exc.value.message) == (position, message)


def test_a_chain_too_deep_to_write_as_source_is_a_syntax_error():
    """The parser reads 5,000 chained terms in a loop, and a path of 5,000
    nodes is deeper than the 200 that parse allows: the same error as 201
    terms."""
    with pytest.raises(ExprSyntaxError) as exc:
        expr.parse("+".join(["x1"] * 5000), ["x1"])
    assert (exc.value.position, exc.value.message) == (0, "expression nested too deeply")


def nested(n, step):
    text = "x1"
    for _ in range(n):
        text = step(text)
    return text


def balanced(depth):
    return "x1" if depth == 0 else f"({balanced(depth - 1)}) + ({balanced(depth - 1)})"


# (text, accepted): a tree is too deep when a root-to-leaf path holds more
# than 200 nodes that are not numbers
NESTING = [("+".join(["x1"] * 200), True), ("+".join(["x1"] * 201), False),
           ("+".join(["1"] * 201), True), ("+".join(["1"] * 202), False),
           ("x1" + "/x1" * 199, True), ("x1" + "/x1" * 200, False),
           (balanced(9), True)]  # 512 leaves, 10 deep
NESTING += [(nested(n, step), n < 200) for step in [
    lambda t: f"sin({t})", lambda t: f"max({t}, x1)", lambda t: f"-{t}", lambda t: f"({t})^2",
    lambda t: f"2/({t})"] for n in (199, 200)]
# a negated number is one number, which counts 0: a literal under 200 calls
# is accepted, a negated variable under 199 is not
NESTING += [("sin(" * 200 + "-1" + ")" * 200, True), ("sin(" * 199 + "-x1" + ")" * 199, False),
            ("-" * 300 + "1", True)]


@pytest.mark.parametrize("text, accepted", NESTING, ids=range(len(NESTING)))
def test_a_path_of_more_than_200_nodes_is_nested_too_deeply(text, accepted):
    if accepted:
        expr.parse(text, ["x1"])
    else:
        with pytest.raises(ExprSyntaxError) as exc:
            expr.parse(text, ["x1"])
        assert exc.value.message == "expression nested too deeply"


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
    """No closure is compiled any more, and the one thing kept is bounded:
    evaluating many parsed expressions grows no module-level container, the
    parse memo holds at most 512 trees, and a tree it has let go is freed
    once its caller drops it too.  A slotted node takes no weak reference,
    so the freeing shows in the count of live nodes: dropping the first
    tree, once the memo has let it go, takes its 5 nodes off the heap."""
    import gc

    def container_sizes():
        return {name: len(v) for name, v in vars(expr).items()
                if isinstance(v, (dict, list, set))}

    def live_nodes():
        gc.collect()
        return sum(isinstance(o, expr.Expr) for o in gc.get_objects())

    before = container_sizes()
    for i in range(200):
        e = expr.parse(f"x1 * {i} + x2", ["x1", "x2"])
        if i == 0:
            first = e
        assert expr.evaluate(e, [1.0, 2.0]) == i + 2.0
        assert list(expr.grad(e, [1.0, 2.0])) == [i, 1.0]
    assert container_sizes() == before
    del e
    for i in range(512):
        expr.parse(f"x2 - x1 / {i + 1000}", ["x1", "x2"])
    assert expr._parse_kept.cache_info().currsize <= 512
    held = live_nodes()
    del first
    assert held - live_nodes() == 5


def test_a_literal_past_the_float_range_is_inf():
    e = expr.parse("1e999*x1", ["x1"])
    assert expr.evaluate(e, [1.0]) == math.inf
    assert list(expr.grad(e, [1.0])) == [math.inf]


def _children(e):
    if isinstance(e, expr.Neg):
        return (e.arg,)
    if isinstance(e, expr.BinOp):
        return (e.lhs, e.rhs)
    return e.args if isinstance(e, expr.Call) else ()


def _max_var_index(e):
    if isinstance(e, expr.Var):
        return e.index
    return max(map(_max_var_index, _children(e)), default=-1)


def _depth(e):
    """The most nodes that are not numbers on a path from ``e`` to a leaf."""
    if isinstance(e, expr.Num):
        return 0
    return 1 + max(map(_depth, _children(e)), default=0)


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


EDGE_CASES = ["1e999*x1", "-x1^2", "x1^-1", "--x1", "x1", "3", "(x2)", "-0", "x2 - -0.403*x1",
              "x1*-0 + x2*--0", "-(2)^x1 - -1e999*x2", "-2^x2 + x1^--2",
              "max(abs(min(x1, -x2)), max(x1^2, abs(-3)))", "min(max(x1, 2), abs(x2 - 1e999))"]


def parse_corpus():
    """(text, declared names) over the golden problems, the grammar fuzz of
    the tier tests and the edge cases."""
    texts = golden_expressions()
    assert len(texts) > 50
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 4)
        texts.append((random_text(rng, n, rng.randint(1, 6)), [f"x{i + 1}" for i in range(n)]))
    return texts + [(t, ["x1", "x2"]) for t in EDGE_CASES]


def corpus_groups():
    """The parse corpus in runs of up to three texts over the same names."""
    groups = []
    for text, names in parse_corpus():
        if groups and groups[-1][0] == names and len(groups[-1][1]) < 3:
            groups[-1][1].append(text)
        else:
            groups.append((names, [text]))
    return groups


def test_one_pass_gives_what_the_value_walk_and_the_gradient_passes_gave():
    """Over the parse corpus at seeded float points, a ``Jet`` of up to three
    components carries each value ``evaluate_flagged`` gives, +inf where that
    is NaN or undefined.  Each row read through ``gradients`` has the bytes,
    NotInDomainError and KinkWarnings (text, count, order) of one directional
    pass per coordinate, which ``grad`` is held to in ``test_expr_tiers``.
    Read again, a row warns nothing, or raises with its kinks again.
    ``jacobian`` matches the passes per coordinate over every component."""
    rng = random.Random(20261020)
    seen = {"width 1": 0, "width >= 2": 0, "variable exponent, width >= 2": 0, "error": 0,
            "kink": 0, "undefined value": 0}
    for names, texts in corpus_groups():
        es = [expr.parse(t, names) for t in texts]
        n = len(names)
        for trial in range(3):
            x = [rng.choice(COORDINATES) if rng.random() < 0.7 else rng.gauss(0.0, 2.0)
                 for _ in range(n)]
            x = np.array(x) if trial == 1 else x
            jet = expr.Jet(es, x)
            with np.errstate(all="ignore"):
                flagged = [expr.evaluate_flagged(e, x) for e in es]
            assert jet.values.tobytes() == np.array([v for v, _ in flagged]).tobytes(), (texts, x)
            assert jet.values.shape == (len(es),) and jet.G.shape == (len(es), n)
            first = [outcome(lambda: jet.gradients([k])[0]) for k in range(len(es))]
            again = [outcome(lambda: jet.gradients([k])[0]) for k in range(len(es))]
            for e, got, got_again in zip(es, first, again):
                reference = outcome(lambda: per_coordinate_grad(e, x))
                assert got == reference == outcome(lambda: expr.grad(e, x)), (texts, x)
                assert got_again == (reference if got[0][0] == "error" else (got[0], [])), (texts, x)
                seen["width 1" if n == 1 else "width >= 2"] += 1
                seen["variable exponent, width >= 2"] += e._var_power and n > 1
                seen["error"] += got[0][0] == "error"
                seen["kink"] += len(got[1]) > 0
            seen["undefined value"] += sum(bad for _, bad in flagged)
            # all rows in one read: the rows' kinks in turn, up to the first error
            kinks = []
            for (result, met) in first:
                kinks += met
                if result[0] == "error":
                    break
            together = outcome(lambda: expr.Jet(es, x).gradients(list(range(len(es)))))
            assert together[1] == kinks, (texts, x)
            if result[0] == "error":
                assert together[0] == result, (texts, x)
            else:
                assert together[0][2] == b"".join(row[2] for row, _ in first), (texts, x)
            jacobian = outcome(lambda: expr.Jet(es, x).jacobian())
            assert jacobian == outcome(lambda: per_coordinate_jacobian(es, x)), (texts, x)
            assert expr.Jet(es, x).kinks == jacobian[1], (texts, x)
    assert min(seen.values()) >= 10, seen


def test_the_parser_keeps_the_depth_and_top_of_each_tree():
    """Over the parse corpus, the parser's depth is the tree's deepest path of
    nodes that are not numbers, and its largest variable index that of the
    tree."""
    depths = set()
    for text, names in parse_corpus():
        e = expr.parse(text, names)
        parser = expr._Parser(text, names)
        parser.parse()
        assert parser.depth == _depth(e), text
        assert e._top == _max_var_index(e), text
        depths.add(parser.depth)
    assert {0, 1, 2} < depths and max(depths) >= 7


def test_nodes_are_unhashable_and_unchanged_by_use():
    """Nodes are immutable after parsing by contract, not by ``frozen``: a
    tree compares equal to a fresh, unmemoized parse after walks, Dual passes
    and a grid scan, and no node is hashable, so nothing keys a cache on one."""
    texts = ["sin(x1)*x2^2 - max(x1, x2)/3", "exp(x1 - x2) + abs(x2) - log(2 + x1^2)",
             "-(x1 + 2)^3 + sqrt(1 + x2^2)*min(x1, 0.5)"]
    names = ["x1", "x2"]
    f = expr.SmoothMap.from_strings(texts, names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(16):
            x = [0.1 * k - 0.7, 0.3 - 0.05 * k]
            f.eval(x)
            f.jacobian(x)
            for e in f.components:
                expr.grad(e, x)
        for e in f.components:
            expr.evaluate_grid(e, (np.linspace(-1.0, 1.0, 6), np.linspace(0.0, 1.0, 6)))
    for e, text in zip(f.components, texts):
        assert e == expr._parse(text, tuple(names))
        with pytest.raises(TypeError):
            hash(e)


def test_the_parse_memo_returns_the_tree_a_fresh_parse_builds():
    """A repeated parse returns the kept tree, and that tree equals one built
    by the unmemoized parser, root attributes included, over the parse
    corpus."""
    for text, names in parse_corpus():
        e = expr.parse(text, names)
        assert expr.parse(text, list(names)) is e, text
        fresh = expr._parse(text, tuple(names))
        assert fresh is not e and fresh == e, text
        for attr in ("_text", "_nvars", "_top", "_var_power"):
            assert getattr(fresh, attr) == getattr(e, attr), (text, attr)


def test_a_recurring_leaf_is_one_node_of_its_own_tree():
    """A recurring variable or number is one node within its tree and no
    other: "x1" alone over one name and over two are two roots, each with
    its own declared count."""
    e = expr.parse("x1*2 + x1*2", ["x1"])
    assert e.lhs is not e.rhs and e.lhs.lhs is e.rhs.lhs and e.lhs.rhs is e.rhs.rhs
    assert expr.parse("x1*2", ["x1"]).lhs is not e.lhs.lhs
    one, two = expr.parse("x1", ["x1"]), expr.parse("x1", ["x1", "x2"])
    assert one is not two and (one._nvars, two._nvars) == (1, 2)


def _nodes(e):
    yield e
    for child in _children(e):
        yield from _nodes(child)


def test_nodes_are_slotted_and_only_the_root_holds_the_facts():
    """No node has an instance dict.  A repeated text returns the memo's
    tree, whose root holds the four facts in its one slot; the properties
    that read them are read-only, and an inner node leaves the slot unset."""
    text, names = "max(x1, -x2)*3 - sin(x2^x1) / -(x1 + 1)", ["x1", "x2", "x3"]
    e = expr.parse(text, names)
    assert expr.parse(text, list(names)) is e
    assert (e._text, e._nvars, e._top, e._var_power) == (text, 3, 1, True)
    nodes = list(_nodes(e))
    assert {type(node) for node in nodes} == {expr.BinOp, expr.Call, expr.Var, expr.Num, expr.Neg}
    for node in nodes:
        assert not hasattr(node, "__dict__"), node
    for node in nodes[1:]:
        with pytest.raises(AttributeError):
            node._facts
    with pytest.raises(AttributeError):
        e._top = 0


@pytest.mark.parametrize("text, value", [("-3", -3.0), ("--3", 3.0), ("-0", -0.0), ("--0", 0.0),
                                         ("-(3)", -3.0), ("---1e999", -math.inf)])
def test_a_negated_literal_folds_into_one_number(text, value):
    """``-`` applied to a literal is one ``Num`` of the negated value, bit
    for bit, and the walk gives that value with its sign."""
    e = expr.parse(text, ["x1"])
    assert type(e) is expr.Num and struct.pack("d", e.value) == struct.pack("d", value)
    assert struct.pack("d", expr.evaluate(e, [1.0])) == struct.pack("d", value)


def test_folded_literals_are_leaves_keyed_by_their_bits():
    """A folded literal that recurs is one node; -0 and --0, equal as dict
    keys, are two, each with its sign."""
    e = expr.parse("x1*-2 + x1*-2 + x1*-0 + x1*--0", ["x1"])
    t1, t2, t3, t4 = e.lhs.lhs.lhs, e.lhs.lhs.rhs, e.lhs.rhs, e.rhs
    assert t1.rhs is t2.rhs and t1.rhs.value == -2.0
    assert t3.rhs is not t4.rhs
    assert (math.copysign(1.0, t3.rhs.value), math.copysign(1.0, t4.rhs.value)) == (-1.0, 1.0)


@pytest.mark.parametrize("text, names, error, message", [
    (None, ["x1"], ExprSyntaxError, "syntax error at position 0: empty expression"),
    (0, ["x1"], ExprSyntaxError, "syntax error at position 0: empty expression"),
    (b"", ["x1"], ExprSyntaxError, "syntax error at position 0: empty expression"),
    ("", None, ExprSyntaxError, "syntax error at position 0: empty expression"),
    (5, ["x1"], AttributeError, "'int' object has no attribute 'strip'"),
    (["x1"], ["x1"], AttributeError, "'list' object has no attribute 'strip'"),
    (b"x1", ["x1"], TypeError, "cannot use a string pattern on a bytes-like object"),
    ("x1", None, TypeError, "'NoneType' object is not iterable"),
    ("x1", [1], AttributeError, "'int' object has no attribute 'isidentifier'"),
    ("x1", [["x1"]], AttributeError, "'list' object has no attribute 'isidentifier'"),
])
def test_input_that_is_not_text_raises_as_before_the_memo(text, names, error, message):
    """A text or name that is not a str bypasses the memo and raises what
    parse raised before there was one, every time."""
    for _ in range(2):
        with pytest.raises(error) as exc:
            expr.parse(text, names)
        assert type(exc.value) is error and str(exc.value) == message
