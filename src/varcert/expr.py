"""Scalar expression trees with exact forward-mode derivatives.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' atom)?
    atom   := number | var | func '(' expr (',' expr)? ')' | '(' expr ')' | '-' atom

Functions: sin, cos, exp, log, sqrt, abs, max(.,.), min(.,.).

Evaluation is IEEE-style: log/sqrt outside their domains (and division by
zero, invalid powers) produce a +inf sentinel together with a
domain-violation flag instead of raising.  At an abs/max/min kink a
``KinkWarning`` is emitted and the first-branch derivative is used (abs: the
identity branch; max/min: the first argument).  A derivative outside the
domain, or one that overflows or underflows to a zero divisor, raises
``NotInDomainError``.

Values and derivatives run on the parse tree, in tiers that give the same
bits (a NaN's sign aside, which CPython's float arithmetic does not keep
fixed), errors and warnings.  The parser builds only the tree.

- Cold: ``_walk`` goes down the tree with floats, ``Dual`` numbers or numpy
  grids, doing the float operations and shim calls that the expression's
  compiled closure would do, in their order.  A gradient or Jacobian is one
  pass on ``Dual`` numbers whose tangents are the rows of I: numpy arrays,
  or the float 1.0 at width 1 (vector forward mode, Griewank & Walther,
  *Evaluating Derivatives*, 2nd ed., section 3.2).  Each entry sees the
  float operations of a pass per coordinate in their order; the kink
  warnings are replayed once per further coordinate.
- Hot closure: from the ``HOT_AFTER``-th use (8) of the same expression on,
  its closure is compiled from the source that ``_source`` writes for the
  tree and kept on the root node.  Compiling costs about as much as 13-17
  walks, which is why one-shot callers (one certificate, one recheck) only
  walk.
- Hot Jacobian: from the ``HOT_AFTER``-th call of the same map on,
  ``SmoothMap.jacobian`` runs one straight-line function generated for it
  (``_hot_code``), which performs per tangent the float operations of
  ``Dual`` in their order.  Generating it costs about 10-20 per-coordinate
  Dual Jacobians.

Only the Jacobian has generated derivative code: the strong-slope estimate of
kappa takes one per sample, while ``grad`` is not called often enough on one
object for it to pay, and ``directional``'s width-1 pass it does not speed
up.  A map with an exponent that contains a variable stays on Dual passes
with float tangents (one pass per coordinate), since Dual's power rule
branches per tangent there.

The power operator is restricted: integer exponents >= 0 work for any
base, otherwise the base must be positive.

Nesting is bounded: CPython compiles no source nested in more than 200
brackets, and a closure nests one per chained operator, unary minus, call
and variable, so 201 chained terms are an ``ExprSyntaxError``; so is text
that runs the recursive-descent parser out of stack.  The parser counts the
brackets, and compiles a tree with more than 200 at once, so that the rule
holds whether or not the expression ever gets hot.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExprSyntaxError,
    KinkWarning,
    NotInDomainError,
    UnknownVariableError,
)

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "abs": 1, "max": 2, "min": 2}


class Expr:
    """Base class for expression nodes.

    Nodes are immutable after parsing by convention: only the parser builds
    them, and past ``parse`` only the root's bookkeeping (``_closure``)
    changes.  The classes are plain dataclasses, since a frozen one costs
    about three times as much to build; with ``eq`` and no ``frozen`` a node
    is unhashable, so nothing can key a cache on one."""


@dataclass(eq=True)
class Num(Expr):
    value: float


@dataclass(eq=True)
class Var(Expr):
    name: str
    index: int


@dataclass(eq=True)
class Neg(Expr):
    arg: Expr


@dataclass(eq=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(eq=True)
class Call(Expr):
    func: str
    args: tuple


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*/^(),]"
_TOKEN_RE = re.compile(_TOKEN)
_BAD_RE = re.compile(_TOKEN + r"|(\S)")  # group 1: a character that starts no token
_OPS = frozenset("-+*/^(),")
_END = ""  # the token after the last one


def _tokenize(text):
    """The token strings of ``text``, then ``_END``.

    The search skips whitespace and every character that starts no token, so
    the tokens cover the text's non-whitespace unless there is such a
    character; then the first one is reported.
    """
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        at = next(m.start() for m in _BAD_RE.finditer(text) if m.group(1))
        raise ExprSyntaxError(at, f"unexpected character {text[at]!r}")
    tokens.append(_END)
    return tokens


class _Parser:
    """Recursive descent that returns the node of each production.

    It also counts the brackets of the tree's closure source (``_source``),
    one per node that is not a number: ``v[``, ``(-``, ``(a op b)``,
    ``m.div(``, ``m.pw(`` and ``m.f(``; and it keeps the largest variable
    index it meets and whether an exponent holds a variable.
    """

    def __init__(self, text, declared_vars):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        # only a name token can be a variable
        self.varmap = {name: k for k, name in enumerate(declared_vars) if name.isidentifier()}
        self.brackets = 0
        self.variables = 0  # variable nodes built so far
        self.top = -1
        self.var_power = False

    def error(self, i, message):
        """A syntax error at token ``i``, whose position is found only now."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return ExprSyntaxError(starts[i], message)

    def expect(self, op):
        i = self.i
        if self.tokens[i] != op:
            raise self.error(i, f"expected {op!r}")
        self.i = i + 1

    def parse(self):
        e = self.expr()
        i = self.i
        tok = self.tokens[i]
        if tok != _END:
            value = tok if tok in _OPS or tok.isidentifier() else float(tok)
            raise self.error(i, f"unexpected trailing input {value!r}")
        return e

    def expr(self):
        e = self.term()
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            e = BinOp(op, e, self.term())
            self.brackets += 1
        return e

    def term(self):
        e = self.factor()
        while (op := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            e = BinOp(op, e, self.factor())
            self.brackets += 1
        return e

    def factor(self):
        e = self.atom()
        if self.tokens[self.i] == "^":
            self.i += 1
            variables = self.variables
            e = BinOp("^", e, self.atom())
            self.brackets += 1
            self.var_power = self.var_power or self.variables > variables
        return e

    def atom(self):
        tokens, i = self.tokens, self.i
        tok = tokens[i]
        self.i = i + 1
        k = self.varmap.get(tok)
        if k is not None and tokens[i + 1] != "(":
            if k > self.top:
                self.top = k
            self.variables += 1
            self.brackets += 1
            return Var(tok, k)
        if tok in _OPS or tok == _END:
            if tok == "(":
                e = self.expr()
                self.expect(")")
                return e
            if tok == "-":
                self.brackets += 1
                return Neg(self.atom())
            raise self.error(i, "expected number, variable, function, or '('")
        if not tok.isidentifier():
            return Num(float(tok))  # a literal such as 1e999 parses to inf
        if tokens[i + 1] != "(":
            raise UnknownVariableError(tok)
        if tok not in FUNCTIONS:
            raise self.error(i, f"unknown function {tok!r}")
        self.i = i + 2
        args = [self.expr()]
        if tokens[self.i] == ",":
            self.i += 1
            args.append(self.expr())
        self.expect(")")
        if len(args) != FUNCTIONS[tok]:
            raise self.error(i, f"{tok} takes {FUNCTIONS[tok]} argument(s)")
        self.brackets += 1
        return Call(tok, tuple(args))


def parse(text: str, declared_vars) -> Expr:
    """Parse ``text`` over the declared variable names (order fixes indices).

    The root keeps the source text (``_text``), the number of declared names
    (``_nvars``), the largest variable index (``_top``), whether an exponent
    contains a variable (``_var_power``) and its closure state (``_closure``,
    see ``_run``).
    """
    if not text or not text.strip():
        raise ExprSyntaxError(0, "empty expression")
    names = list(declared_vars)
    parser = _Parser(text, names)
    try:
        root = parser.parse()
    except RecursionError:
        raise parser.error(parser.i, "expression nested too deeply") from None
    closure = 0  # no use yet
    # CPython refuses a source nested in more than 200 brackets, which only a
    # source with that many brackets can be: such a source is compiled now
    if parser.brackets > 200:
        try:
            closure = _compile(_source(root))
        except (SyntaxError, RecursionError):
            raise ExprSyntaxError(0, "expression nested too deeply") from None
    root._text, root._nvars, root._top = text, len(names), parser.top
    root._var_power, root._closure = parser.var_power, closure
    return root


# ---------------------------------------------------------------------------
# evaluation: the tree walked, or its compiled closure, over a value tuple `v`
# and a math shim `m`

class _DomainViolation(Exception):
    pass


# what a value, and what a derivative, raises outside the domain or the float range
_VALUE_ERRORS = (_DomainViolation, OverflowError, ValueError)
_ARITH_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


_KINK_MESSAGES = {"abs": "abs at 0: using identity-branch derivative",
                  "max": "max tie: using first-argument derivative",
                  "min": "min tie: using first-argument derivative"}


def _kink(message, replay=None):
    """Warn of a kink; both tiers warn from here, so filters see one location."""
    warnings.warn(KinkWarning(message))
    if replay is not None:
        replay.append(message)


class Dual:
    """Dual number: a float value and its tangent, a float or an array of
    tangents, one per seed direction."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=0.0):
        self.val = val
        self.dot = dot

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self.dot + o.dot)
        return Dual(self.val + o, self.dot)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val - o.val, self.dot - o.dot)
        return Dual(self.val - o, self.dot)

    def __rsub__(self, o):
        return Dual(o - self.val, -self.dot)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)
        return Dual(self.val * o, self.dot * o)

    __rmul__ = __mul__

    def __neg__(self):
        return Dual(-self.val, -self.dot)


def _split(a):
    if isinstance(a, Dual):
        return a.val, a.dot
    return a, None


def _or0(t):
    """A tangent with -0.0 made 0.0, or 0.0 for a constant: ``(t or 0.0)``
    with the same bits on a float, and elementwise on an array of tangents."""
    return 0.0 if t is None else t + 0.0


class _Shim:
    """Math functions over floats and Duals with domain flags and kink rules.

    A Dual's tangent is a float, or an array of tangents for a pass at width
    n (see ``_tangent_pass``), which sees per entry the float operations of a
    pass at width 1.  Each KinkWarning's message is also appended to
    ``replay`` when it is a list.
    """

    def __init__(self, replay=None):
        self.replay = replay

    @staticmethod
    def div(a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if bv == 0.0:
            raise _DomainViolation
        val = av / bv
        if ad is None and bd is None:
            return val
        q = bv * bv
        if q == 0.0:
            raise ZeroDivisionError  # as float division does; an array would not
        return Dual(val, (_or0(ad) * bv - av * _or0(bd)) / q)

    @staticmethod
    def pw(a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if (bd is None or bd == 0.0) and float(bv).is_integer() and bv >= 0:
            n = int(bv)
            val = av ** n
            if ad is None:
                return val
            dot = 0.0 if n == 0 else n * av ** (n - 1) * ad
            return Dual(val, dot)
        if av <= 0.0:
            raise _DomainViolation
        val = av ** bv
        if ad is None and bd is None:
            return val
        dot = val * (_or0(bd) * math.log(av) + bv * _or0(ad) / av)
        return Dual(val, dot)

    @staticmethod
    def sin(a):
        av, ad = _split(a)
        val = math.sin(av)
        return val if ad is None else Dual(val, math.cos(av) * ad)

    @staticmethod
    def cos(a):
        av, ad = _split(a)
        val = math.cos(av)
        return val if ad is None else Dual(val, -math.sin(av) * ad)

    @staticmethod
    def exp(a):
        av, ad = _split(a)
        val = math.exp(av)
        return val if ad is None else Dual(val, val * ad)

    @staticmethod
    def log(a):
        av, ad = _split(a)
        if av <= 0.0:
            raise _DomainViolation
        val = math.log(av)
        return val if ad is None else Dual(val, ad / av)

    @staticmethod
    def sqrt(a):
        av, ad = _split(a)
        if av < 0.0:
            raise _DomainViolation
        val = math.sqrt(av)
        if ad is None:
            return val
        if av == 0.0:
            raise _DomainViolation  # one-sided; not differentiable
        return Dual(val, 0.5 * ad / val)

    def abs(self, a):
        av, ad = _split(a)
        val = builtins_abs(av)
        if ad is None:
            return val
        if av == 0.0:
            _kink(_KINK_MESSAGES["abs"], self.replay)
            return Dual(0.0, ad)
        return Dual(val, ad if av > 0 else -ad)

    def max(self, a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if ad is None and bd is None:
            return av if av >= bv else bv
        if av == bv:
            _kink(_KINK_MESSAGES["max"], self.replay)
            return Dual(av, _or0(ad))
        if av > bv:
            return Dual(av, _or0(ad))
        return Dual(bv, _or0(bd))

    def min(self, a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if ad is None and bd is None:
            return av if av <= bv else bv
        if av == bv:
            _kink(_KINK_MESSAGES["min"], self.replay)
            return Dual(av, _or0(ad))
        if av < bv:
            return Dual(av, _or0(ad))
        return Dual(bv, _or0(bd))


builtins_abs = abs
_SHIM = _Shim()


# A closure, or a map's Jacobian code, is generated from the HOT_AFTER-th use
# of the same expression or map.  Generating and compiling costs about as much
# as 13-17 walks of a tree, or 10-20 per-coordinate Dual Jacobians, so an
# expression or map used a few times (one certificate, one recheck) stays cold.
HOT_AFTER = 8


def _source(e):
    """The source of the closure of ``e`` over ``v`` and ``m``, with one
    bracket per node that is not a number."""
    if isinstance(e, Num):  # a literal such as 1e999 parses to inf
        return repr(e.value) if math.isfinite(e.value) else "1e999"
    if isinstance(e, Var):
        return f"v[{e.index}]"
    if isinstance(e, Neg):
        return f"(-{_source(e.arg)})"
    if isinstance(e, BinOp):
        a, b = _source(e.lhs), _source(e.rhs)
        if e.op in "+-*":
            return f"({a}{e.op}{b})"
        return f"m.div({a},{b})" if e.op == "/" else f"m.pw({a},{b})"
    return f"m.{e.func}({','.join(map(_source, e.args))})"


def _compile(source):
    return eval(compile(f"lambda v, m: {source}", "<expr>", "eval"), {"__builtins__": {}})


def _walk(e, v, m):
    """The value of ``e`` over the value tuple ``v`` and math shim ``m``.

    It performs the float operations and shim calls of the compiled closure
    in their order, so it gives the same bits, errors and KinkWarnings; where
    CPython folds a constant subexpression at compile time, the walk computes
    the same IEEE operation at run time.
    """
    t = type(e)
    if t is BinOp:
        a = _walk(e.lhs, v, m)
        b = _walk(e.rhs, v, m)
        op = e.op
        if op == "+":
            return a + b
        if op == "*":
            return a * b
        if op == "-":
            return a - b
        return m.div(a, b) if op == "/" else m.pw(a, b)
    if t is Var:
        return v[e.index]
    if t is Num:
        return e.value
    if t is Call:
        f, args = getattr(m, e.func), e.args
        if len(args) == 1:
            return f(_walk(args[0], v, m))
        return f(_walk(args[0], v, m), _walk(args[1], v, m))
    return -_walk(e.arg, v, m)


def _run(e, v, m):
    """The value of the root ``e`` over ``v`` and ``m``: its tree walked
    while cold, its compiled closure once hot.

    Counts the uses on the node; the HOT_AFTER-th compiles ``_source(e)``,
    and the closure is kept on the node itself, so it lives exactly as long
    as the expression.
    """
    fn = e._closure
    if type(fn) is int:
        if fn + 1 < HOT_AFTER:
            e._closure = fn + 1
            return _walk(e, v, m)
        fn = e._closure = _compile(_source(e))
    return fn(v, m)


def _children(e):
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, BinOp):
        return (e.lhs, e.rhs)
    return e.args if isinstance(e, Call) else ()


def _check_dim(e, x):
    declared = getattr(e, "_nvars", None)
    if declared is not None and len(x) != declared:
        raise DimensionMismatchError(f"point has length {len(x)}, expression declares {declared}")


def evaluate_flagged(e: Expr, x):
    """Evaluate at ``x``; returns ``(value, domain_violation)`` with a +inf sentinel.

    The expression gets ``tuple(x)``, which is ``x`` itself for a tuple, so a
    caller that evaluates many expressions at one point converts it once.
    """
    v = tuple(x)
    _check_dim(e, v)
    if e._top >= len(v):
        raise DimensionMismatchError(f"expression references variable index {e._top}, point has length {len(v)}")
    try:
        val = _run(e, v, _SHIM)
    except _VALUE_ERRORS:
        return math.inf, True
    if isinstance(val, float) and math.isnan(val):
        return math.inf, True
    return float(val), False


def evaluate(e: Expr, x) -> float:
    return evaluate_flagged(e, x)[0]


# ---------------------------------------------------------------------------
# hot tier: straight-line Jacobian code, generated once a map is called often

# the comparison that picks the first branch, as in _Shim
_KINK_TESTS = {"abs": ">=", "max": ">=", "min": "<="}
_HOT_GLOBALS = {"__builtins__": {}, "_DV": _DomainViolation, "_sin": math.sin,
                "_cos": math.cos, "_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt,
                "_abs": builtins_abs, "_kink": _kink}


class _StaysCold(Exception):
    """The map is left to the Dual tier (see _hot_code)."""


def _fold(e, args):
    """Value of a node over constant children, computed as the closure does."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, BinOp):
        a, b = args
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return _SHIM.div(a, b) if e.op == "/" else _SHIM.pw(a, b)
    return getattr(_SHIM, e.func)(*args)


def _intern(e, n, ids, nodes):
    """Id of ``e`` among the unique subtrees in ``nodes`` (evaluation order).

    Keys are built bottom up from the children's ids; a kink node gets a key
    of its own, since each occurrence warns.
    """
    kids = tuple(_intern(k, n, ids, nodes) for k in _children(e))
    if isinstance(e, Var) and e.index >= n:
        raise _StaysCold
    tag = e.value if isinstance(e, Num) else getattr(e, "op", getattr(e, "func", None))
    key = (type(e), repr(tag), getattr(e, "index", None), kids)
    if tag in _KINK_TESTS:
        key += (len(nodes),)
    if key not in ids:
        ids[key] = len(nodes)
        nodes.append((e, kids))
    return ids[key]


def _hot_code(components, n):
    """One straight-line function of v0..v{n-1} that returns the Jacobian
    rows of ``components``, or None.

    Called with float coordinates, it returns per component the n tangents
    for the unit seeds.  Per tangent it performs the float operations of
    ``Dual`` and ``_Shim`` in their order, with the same domain raises and
    kink branches, and it emits each KinkWarning once per seed, in the order
    of n Dual passes.

    Each value is named once, and a tangent is inlined into its parent unless
    its node is shared or the tangent can raise.  Repeated subtrees, keyed
    bottom up by their children's ids, are emitted once; a kink node never is,
    since each occurrence warns.  Constant subtrees are folded.  None (stay on
    Dual) for an exponent that contains a variable, whose Dual branch is per
    tangent; for a constant that always raises; and for a component that is
    not declared over exactly n variables.
    """
    env = dict(_HOT_GLOBALS)
    body = []
    temps = itertools.count()
    kinks = []

    def emit(stmt, indent=1):
        body.append("    " * indent + stmt)

    def new(text=None):
        name = f"t{next(temps)}"
        if text is not None:
            emit(f"{name} = {text}")
        return name

    def lit(v):
        if not math.isfinite(v):
            env[f"k{len(env)}"] = v
            return f"k{len(env) - 1}"
        return repr(v) if math.copysign(1.0, v) > 0 else f"({v!r})"

    def or0(t):  # Dual's ``(ad or 0.0)``, with None for a constant operand
        return "0.0" if t is None else t if t in ("0.0", "1.0") else f"({t} or 0.0)"

    def emit_op(e, a, b=(None, None, None)):
        (A, ta, _), (B, tb, cb) = a, b
        if isinstance(e, Neg):
            return new(f"-{A}"), [f"(-{x})" for x in ta]
        f = getattr(e, "op", None) or e.func
        if f in ("+", "-", "*"):
            val = new(f"{A} {f} {B}")
            if ta is not None and tb is not None:
                if f == "*":
                    return val, [f"({x} * {B} + {A} * {y})" for x, y in zip(ta, tb)]
                return val, [f"({x} {f} {y})" for x, y in zip(ta, tb)]
            if f == "*":
                return val, [f"({x} * {B})" for x in ta] if tb is None else [f"({y} * {A})" for y in tb]
            if ta is None:
                return val, tb if f == "+" else [f"(-{y})" for y in tb]
            return val, ta
        if f == "/":
            emit(f"if {B} == 0.0: raise _DV")
            val = new(f"{A} / {B}")
            q = new(f"{B} * {B}")
            # named here, so that an underflowing q raises where Dual's does
            return val, [new(f"({or0(x)} * {B} - {A} * {or0(y)}) / {q}")
                         for x, y in zip(ta or [None] * n, tb or [None] * n)]
        if f == "^":
            if cb is None:
                raise _StaysCold  # a variable exponent: Dual branches per tangent
            if float(cb).is_integer() and cb >= 0:
                k = int(cb)
                val = new(f"{A} ** {k}")
                if k == 0:
                    return val, ["0.0"] * n
                c = new(f"{k} * {A} ** {k - 1}")
                return val, [f"({c} * {x})" for x in ta]
            emit(f"if {A} <= 0.0: raise _DV")
            val = new(f"{A} ** {B}")
            c = new(f"0.0 * _log({A})")
            return val, [f"({val} * ({c} + {B} * {or0(x)} / {A}))" for x in ta]
        if f in _KINK_TESTS:
            return emit_kink(f, A, ta, B, tb)
        if f in ("log", "sqrt"):
            # Dual also refuses sqrt at 0, where its derivative is one-sided
            emit(f"if {A} <= 0.0: raise _DV")
        val = new(f"_{f}({A})")
        if f in ("sin", "cos"):
            c = new(f"_cos({A})" if f == "sin" else f"-_sin({A})")
            return val, [f"({c} * {x})" for x in ta]
        if f == "exp":
            return val, [f"({val} * {x})" for x in ta]
        if f == "log":
            return val, [f"({x} / {A})" for x in ta]
        return val, [f"(0.5 * {x} / {val})" for x in ta]

    def emit_kink(f, A, ta, B, tb):
        test = _KINK_TESTS[f]
        if f == "abs":
            val = new(f"_abs({A})")
            B, then, other = "0.0", ta, [f"-{x}" for x in ta]
        else:
            val = new()
            then, other = ([or0(t) for t in ts or [None] * n] for ts in (ta, tb))
        kinks.append(f)
        emit(f"if {A} == {B}: _kink({_KINK_MESSAGES[f]!r}, K)")
        names = [new() for _ in range(n)]
        for cond, pick, ts in ((f"if {A} {test} {B}:", A, then), ("else:", B, other)):
            emit(cond)
            if f != "abs":
                emit(f"{val} = {pick}", 2)
            for name, t in zip(names, ts):
                emit(f"{name} = {t}", 2)
        return val, names

    try:
        if any(getattr(c, "_nvars", None) != n for c in components):
            raise _StaysCold
        ids, nodes = {}, []
        root_ids = [_intern(e, n, ids, nodes) for e in components]
        uses = [0] * len(nodes)
        for i in itertools.chain(root_ids, *(kids for _, kids in nodes)):
            uses[i] += 1
        vals, tans, consts = [], [], []
        for i, (e, kids) in enumerate(nodes):
            val, tan, const = None, None, None
            if isinstance(e, Var):
                val, tan = f"v{e.index}", ["1.0" if j == e.index else "0.0" for j in range(n)]
            elif all(consts[k] is not None for k in kids):
                try:
                    const = _fold(e, [consts[k] for k in kids])
                except _VALUE_ERRORS:
                    raise _StaysCold
                val = lit(const)
            else:
                val, tan = emit_op(e, *[(vals[k], tans[k], consts[k]) for k in kids])
                if uses[i] > 1:
                    tan = [t if t.isidentifier() or t in ("0.0", "1.0") else new(t) for t in tan]
            vals.append(val)
            tans.append(tan)
            consts.append(const)
        if kinks:
            body.insert(0, "    K = []")
            emit(f"for w in K * {n - 1}:")  # the warnings of Dual passes 2..n
            emit("_kink(w)", 2)
        rows = ["(" + "".join(f"{t}, " for t in tans[i] or ["0.0"] * n) + ")" for i in root_ids]
        emit("return (" + "".join(f"{r}, " for r in rows) + ")")
        source = f"def hot({', '.join(f'v{j}' for j in range(n))}):\n" + "\n".join(body)
        exec(compile(source, "<hot expr>", "exec"), env)
    except (_StaysCold, SyntaxError, RecursionError):
        return None
    return env.pop("hot")  # popped: the function must not keep itself alive


def directional(e: Expr, x, u) -> float:
    """Directional derivative <grad e(x), u> in one Dual pass.

    It has no hot tier: straight-line code measured no faster at width 1.
    """
    _check_dim(e, x)
    if e._top >= len(x):
        raise DimensionMismatchError("point too short for expression")
    duals = tuple(Dual(float(xj), float(uj)) for xj, uj in zip(x, u))
    try:
        out = _run(e, duals, _SHIM)
    except _DomainViolation:
        raise NotInDomainError("derivative requested outside the expression domain")
    except _ARITH_ERRORS:
        raise NotInDomainError("derivative overflow")
    return out.dot if isinstance(out, Dual) else 0.0


@functools.cache
def _unit_rows(n):
    """The rows of I, the tangents of a pass at width n; read-only, since
    every pass at that width shares them."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return tuple(eye)


def _tangent_pass(components, xs, var_power):
    """Per component, its gradient at the float point ``xs`` from one Dual
    pass whose tangents are the rows of I (the float 1.0 at width 1): an
    array, or a float that every entry shares.

    Per entry it does the float operations of one pass per coordinate, so the
    bits, errors and KinkWarnings are theirs: an error depends on values only
    and ends the first pass too, and the kinks, which values alone decide, are
    replayed after the pass n - 1 times, in the order of passes 2..n.  An
    exponent that contains a variable branches per tangent (``_Shim.pw``), so
    when ``var_power`` says a component has one, one pass per coordinate
    runs.  Raises what the expressions raise.
    """
    n = len(xs)
    if n == 1:  # the pass per coordinate itself
        duals = (Dual(xs[0], 1.0),)
        outs = [_run(c, duals, _SHIM) for c in components]
    elif var_power:
        J = np.zeros((len(components), n))
        for j in range(n):
            duals = tuple(Dual(xi, 1.0 if i == j else 0.0) for i, xi in enumerate(xs))
            for k, c in enumerate(components):
                out = _run(c, duals, _SHIM)
                J[k, j] = out.dot if isinstance(out, Dual) else 0.0
        return list(J)
    else:
        kinks = []
        shim = _Shim(kinks)
        duals = tuple(map(Dual, xs, _unit_rows(n)))
        with np.errstate(all="ignore"):  # an overflow gives inf, as on floats
            outs = [_run(c, duals, shim) for c in components]
        for message in kinks * (n - 1):
            _kink(message)
    return [out.dot if isinstance(out, Dual) else 0.0 for out in outs]


def grad(e: Expr, x) -> np.ndarray:
    """Exact forward-mode gradient: one vector-tangent Dual pass
    (``_tangent_pass``)."""
    _check_dim(e, x)
    xs = [float(xj) for xj in x]
    try:
        (dot,) = _tangent_pass([e], xs, e._var_power)
    except _DomainViolation:
        raise NotInDomainError("derivative requested outside the expression domain")
    except _ARITH_ERRORS:
        raise NotInDomainError("derivative overflow")
    # a copy: the tangent may be a shared row of I
    return np.array(dot if type(dot) is np.ndarray else [dot] * len(xs))


class SmoothMap:
    """Vector-valued map built from component expressions, with exact Jacobian."""

    def __init__(self, components, var_names):
        self.components = list(components)
        self.var_names = list(var_names)
        self.n = len(self.var_names)
        self.m = len(self.components)

    @classmethod
    def from_strings(cls, strings, var_names):
        names = list(var_names)
        return cls([parse(s, names) for s in strings], names)

    @classmethod
    def identity(cls, n):
        names = [f"x{i+1}" for i in range(n)]
        return cls.from_strings(names, names)

    def _check(self, x):
        if len(x) != self.n:
            raise DimensionMismatchError(f"point has length {len(x)}, map expects {self.n}")

    def eval(self, x) -> np.ndarray:
        """``evaluate`` per component, over one tuple of ``x``."""
        self._check(x)
        v = tuple(x)
        return np.array([evaluate_flagged(c, v)[0] for c in self.components])

    def jacobian(self, x) -> np.ndarray:
        """One vector-tangent Dual pass over every component
        (``_tangent_pass``); from the HOT_AFTER-th call on this map, one call
        of its straight-line code (``_hot_code``)."""
        self._check(x)
        hot = getattr(self, "_hot_jacobian", 1)  # the call count, then the code or None
        if type(hot) is int:
            self._hot_jacobian = hot = hot + 1 if hot < HOT_AFTER else _hot_code(self.components, self.n)
        xs = [float(xi) for xi in x]
        try:
            if callable(hot):
                return np.array(hot(*xs), dtype=float)
            J = np.zeros((self.m, self.n))
            var_power = any(c._var_power for c in self.components)
            for k, dot in enumerate(_tangent_pass(self.components, xs, var_power)):
                J[k] = dot
            return J
        except _DomainViolation:
            raise NotInDomainError("Jacobian requested outside a component domain")
        except _ARITH_ERRORS:
            raise NotInDomainError("derivative overflow")


class _NpShim:
    """Vectorized math shim for grid scans; domain violations become nan/inf."""

    @staticmethod
    def div(a, b):
        with np.errstate(all="ignore"):
            return np.divide(a, b)

    @staticmethod
    def pw(a, b):
        with np.errstate(all="ignore"):
            return np.power(a, b)

    sin = staticmethod(np.sin)
    cos = staticmethod(np.cos)
    exp = staticmethod(np.exp)

    @staticmethod
    def log(a):
        with np.errstate(all="ignore"):
            return np.log(a)

    @staticmethod
    def sqrt(a):
        with np.errstate(all="ignore"):
            return np.sqrt(a)

    abs = staticmethod(np.abs)
    max = staticmethod(np.maximum)
    min = staticmethod(np.minimum)


_NP_SHIM = _NpShim()


def evaluate_grid(e: Expr, values) -> np.ndarray:
    """Vectorized evaluation: ``values`` holds scalars and/or aligned arrays.

    Out-of-domain entries come back as nan/inf rather than flagged; grid
    scanners filter them afterward.
    """
    with np.errstate(all="ignore"):
        out = _run(e, tuple(values), _NP_SHIM)
    return np.asarray(out, dtype=float)
