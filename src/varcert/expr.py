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

Values and derivatives come from one walk of the parse tree (``_walk``),
which goes down it with floats, ``Dual`` numbers or numpy grids.  A gradient
or Jacobian is one pass on ``Dual`` numbers whose tangents are the rows of I:
numpy arrays, or the float 1.0 at width 1 (vector forward mode, Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., section 3.2).  The pass carries
each value with its tangents, so a ``Jet`` gives both from one pass.  Each
entry sees the float operations of a pass per coordinate in their order; the
pass records its kink warnings and errors, and they are warned and raised
when a gradient is read, replayed once per further coordinate.  An
expression with an exponent that contains a variable takes one pass per
coordinate with float tangents, since Dual's power rule branches per tangent
there.

The power operator is restricted: integer exponents >= 0 work for any
base, otherwise the base must be positive.

Nesting is bounded: a tree with a root-to-leaf path of more than 200 nodes
that are not numbers is an ``ExprSyntaxError``, so 201 chained terms are one,
and so is text that runs the recursive-descent parser out of stack.  The
bound keeps the walk's own recursion shallow.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
import struct
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


def _fact(k, doc):
    """A read-only view of entry k of the root's facts."""
    return property(lambda e: e._facts[k], doc=doc)


class Expr:
    """Base class for expression nodes.

    Nodes are immutable after parsing, and that is a contract: ``parse``
    keeps the last 512 trees and returns the same tree to every caller of the
    same text and names, so a change to one node would reach them all.  Only
    the parser builds nodes.  The classes are slotted, unfrozen dataclasses:
    the memo keeps tens of thousands of nodes, a slotted node holds no
    instance dict, and a frozen one costs about three times as much to build.
    With ``eq`` and no ``frozen`` a node is unhashable, so nothing can key a
    cache on one.

    ``parse`` sets the slot ``_facts`` on a tree's root only, and an inner
    node leaves it unset; the four properties below read it on a root.
    """

    __slots__ = ("_facts",)

    _text = _fact(0, "the source text")
    _nvars = _fact(1, "the number of declared names")
    _top = _fact(2, "the largest variable index, -1 without one")
    _var_power = _fact(3, "whether an exponent holds a variable")


@dataclass(eq=True, slots=True)
class Num(Expr):
    value: float


@dataclass(eq=True, slots=True)
class Var(Expr):
    name: str
    index: int


@dataclass(eq=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(eq=True, slots=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(eq=True, slots=True)
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
_BITS = struct.Struct("d").pack  # a float's exact bits, which tell -0.0 from 0.0


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

    It also keeps ``depth``, the most nodes that are not numbers on a path
    from the node last returned to a leaf, the largest variable index it
    meets and whether an exponent holds a variable.  A variable or number
    token that recurs in the text reuses the leaf of its first use
    (``leaves``), so a kept tree holds each leaf once; nodes are immutable,
    and no other parse sees that leaf.  A leaf is built only on its first
    use.  ``-`` applied to a number folds into one number, the negated
    value, which is exact; its leaf is keyed by the value's bits, since
    0.0 and -0.0 are one dict key.
    """

    def __init__(self, text, declared_vars):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        # only a name token can be a variable
        self.varmap = {name: k for k, name in enumerate(declared_vars) if name.isidentifier()}
        self.leaves = {}
        self.depth = 0
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
            depth = self.depth
            e = BinOp(op, e, self.term())
            self.depth = 1 + (depth if depth > self.depth else self.depth)
        return e

    def term(self):
        e = self.factor()
        while (op := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            depth = self.depth
            e = BinOp(op, e, self.factor())
            self.depth = 1 + (depth if depth > self.depth else self.depth)
        return e

    def factor(self):
        e = self.atom()
        if self.tokens[self.i] == "^":
            self.i += 1
            depth, variables = self.depth, self.variables
            e = BinOp("^", e, self.atom())
            self.depth = 1 + (depth if depth > self.depth else self.depth)
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
            self.depth = 1
            leaf = self.leaves.get(tok)
            if leaf is None:
                leaf = self.leaves[tok] = Var(tok, k)
            return leaf
        if tok in _OPS or tok == _END:
            if tok == "(":
                e = self.expr()
                self.expect(")")
                return e
            if tok == "-":
                e = self.atom()
                if type(e) is Num:  # depth stays 0
                    value = -e.value
                    key = _BITS(value)
                    leaf = self.leaves.get(key)
                    if leaf is None:
                        leaf = self.leaves[key] = Num(value)
                    return leaf
                self.depth += 1
                return Neg(e)
            raise self.error(i, "expected number, variable, function, or '('")
        if not tok.isidentifier():
            self.depth = 0
            leaf = self.leaves.get(tok)
            if leaf is None:  # a literal such as 1e999 parses to inf
                leaf = self.leaves[tok] = Num(float(tok))
            return leaf
        if tokens[i + 1] != "(":
            raise UnknownVariableError(tok)
        if tok not in FUNCTIONS:
            raise self.error(i, f"unknown function {tok!r}")
        self.i = i + 2
        args = [self.expr()]
        depth = self.depth
        if tokens[self.i] == ",":
            self.i += 1
            args.append(self.expr())
            if depth > self.depth:
                self.depth = depth
        self.expect(")")
        if len(args) != FUNCTIONS[tok]:
            raise self.error(i, f"{tok} takes {FUNCTIONS[tok]} argument(s)")
        self.depth += 1
        return Call(tok, tuple(args))


def parse(text: str, declared_vars) -> Expr:
    """Parse ``text`` over the declared variable names (order fixes indices).

    The root's one ``_facts`` slot keeps the source text (``_text``), the
    number of declared names (``_nvars``), the largest variable index
    (``_top``) and whether an exponent contains a variable (``_var_power``),
    which read-only properties of the same names give.  A root-to-leaf path
    of more than 200 nodes that are not numbers is an ``ExprSyntaxError``;
    a negated number is one number.

    A ``str`` text over ``str`` names is parsed once per process: the last
    512 trees are kept by (text, names), and a repeat returns the same tree,
    so callers share it (see ``Expr``).  Errors are not kept, so a bad text
    raises afresh on every call; other input is parsed uncached.
    """
    if not text or not text.strip():
        raise ExprSyntaxError(0, "empty expression")
    names = tuple(declared_vars)
    if type(text) is str and all(type(name) is str for name in names):
        return _parse_kept(text, names)
    return _parse(text, names)


def _parse(text, names):
    parser = _Parser(text, names)
    try:
        root = parser.parse()
    except RecursionError:
        raise parser.error(parser.i, "expression nested too deeply") from None
    if parser.depth > 200:
        raise ExprSyntaxError(0, "expression nested too deeply")
    root._facts = (text, len(names), parser.top, parser.var_power)
    return root


# the bound re keeps on its compiled patterns, another pure text -> object map
_parse_kept = functools.lru_cache(maxsize=512)(_parse)


def affine_in(e: Expr, n) -> bool:
    """Whether ``e`` is affine in its first ``n`` variables, read off the
    parse tree: none of them inside a function call, a divisor or a power,
    and no product of two factors that both hold one.  Exact for the tree,
    not for the function it computes: ``x1*x2 - x2*x1`` is refused."""
    return _holds(e, n) is not None


def _holds(e, n):
    """Whether ``e`` holds one of the first ``n`` variables; None when it
    holds one other than affinely."""
    t = type(e)
    if t is Var:
        return e.index < n
    if t is Num:
        return False
    if t is Neg:
        return _holds(e.arg, n)
    if t is Call:
        return False if all(_holds(a, n) is False for a in e.args) else None
    lhs, rhs = _holds(e.lhs, n), _holds(e.rhs, n)
    if lhs is None or rhs is None:
        return None
    if e.op in "+-":
        return lhs or rhs
    if e.op == "*":
        return None if lhs and rhs else lhs or rhs
    if e.op == "/":
        return None if rhs else lhs
    return None if lhs or rhs else False  # '^'


# ---------------------------------------------------------------------------
# evaluation: the tree walked over a value tuple `v` and a math shim `m`

class _DomainViolation(Exception):
    pass


# what a value, and what a derivative, raises outside the domain or the float range
_VALUE_ERRORS = (_DomainViolation, OverflowError, ValueError)
_ARITH_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


_KINK_MESSAGES = {"abs": "abs at 0: using identity-branch derivative",
                  "max": "max tie: using first-argument derivative",
                  "min": "min tie: using first-argument derivative"}


def _kink(message, replay=None):
    """Warn of a kink, or append its message to the list ``replay`` to be
    warned later; every warning comes from here, so filters see one location."""
    if replay is None:
        warnings.warn(KinkWarning(message))
    else:
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
    pass at width 1.  When ``replay`` is a list, each KinkWarning's message
    is appended to it instead of warned.
    """

    def __init__(self):
        self.replay = None

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


def _walk(e, v, m):
    """The value of ``e`` over the value tuple ``v`` and math shim ``m``:
    the children's values left to right, then the node's float operation or
    shim call."""
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
        val = _walk(e, v, _SHIM)
    except _VALUE_ERRORS:
        return math.inf, True
    if isinstance(val, float) and math.isnan(val):
        return math.inf, True
    return float(val), False


def evaluate(e: Expr, x) -> float:
    return evaluate_flagged(e, x)[0]


def directional(e: Expr, x, u) -> float:
    """Directional derivative <grad e(x), u> in one Dual pass."""
    _check_dim(e, x)
    if e._top >= len(x):
        raise DimensionMismatchError("point too short for expression")
    duals = tuple(Dual(float(xj), float(uj)) for xj, uj in zip(x, u))
    try:
        out = _walk(e, duals, _SHIM)
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


# what a Dual pass raises: a value or a derivative outside the domain or the float range
_PASS_ERRORS = (_DomainViolation,) + _ARITH_ERRORS
_GRAD_DOMAIN = "derivative requested outside the expression domain"
_JACOBIAN_DOMAIN = "Jacobian requested outside a component domain"
_FLOATS = contextlib.nullcontext()  # the pass at width 1, whose tangents are floats


def _tangent_pass(components, x):
    """One Dual pass over ``components`` at the point x, which warns and
    raises nothing: (values, G, notes).

    values[k] is ``evaluate_flagged(components[k], x)``'s value: the value
    that the pass carries, or a float walk's where the pass raised.  Row k of
    G is component k's gradient (zeros where the pass raised), from tangents
    that are the rows of I, or the float 1.0 at width 1.  Per entry the pass
    does the float operations of one pass per coordinate, so the bits are
    theirs.  An exponent that contains a variable branches per tangent
    (``_Shim.pw``), so a component with one takes one pass per coordinate
    with float tangents.

    ``notes`` maps each component that met a kink or an error to (kinks,
    error).  kinks[j] lists the KinkWarning messages of the j-th pass per
    coordinate, up to the error, and error is the class raised, or None.
    Without a variable exponent, kinks and errors depend on values only:
    every pass meets the first one's kinks, and an error ends the first pass.
    """
    v = tuple(x)
    xs = [float(t) for t in v]
    n = len(xs)
    duals = (Dual(xs[0], 1.0),) if n == 1 else tuple(map(Dual, xs, _unit_rows(n)))
    shim = _Shim()
    values, G, notes = [], np.zeros((len(components), n)), {}
    with np.errstate(all="ignore") if n > 1 else _FLOATS:  # an overflow gives inf, as on floats
        for k, c in enumerate(components):
            _check_dim(c, v)
            if n > 1 and c._var_power:
                out, kinks, error = _passes_per_coordinate(c, xs, G[k])
            else:
                shim.replay = met = []
                error = None
                try:
                    out = _walk(c, duals, shim)
                except _PASS_ERRORS as exc:
                    error = type(exc)
                else:
                    if type(out) is Dual:
                        G[k] = out.dot
                kinks = [met] * (n if error is None else 1)
            if error is None:
                val = out.val if type(out) is Dual else out
                values.append(val if val == val else math.inf)
            else:
                with np.errstate(all="ignore"):  # v may hold numpy floats
                    values.append(evaluate_flagged(c, v)[0])
            if error is not None or any(kinks):
                notes[k] = (kinks, error)
    return values, G, notes


def _passes_per_coordinate(c, xs, row):
    """(the value the passes carry, the kinks of each, the error class or
    None) of c, one pass per coordinate; the gradient goes into ``row``."""
    shim, kinks = _Shim(), []
    for j in range(len(xs)):
        shim.replay = met = []
        kinks.append(met)
        try:
            out = _walk(c, tuple(Dual(xi, 1.0 if i == j else 0.0) for i, xi in enumerate(xs)), shim)
        except _PASS_ERRORS as exc:
            return None, kinks, type(exc)
        if type(out) is Dual:
            row[j] = out.dot
    return out, kinks, None


def _read(note, domain):
    """Warn the kinks of a note (kinks, error), pass by pass, and raise its
    error, which ``domain`` names when the point is outside the domain."""
    kinks, error = note
    for met in kinks:
        for message in met:
            _kink(message)
    if error is not None:
        raise NotInDomainError(domain if error is _DomainViolation else "derivative overflow")


class Jet:
    """Values and gradients of expressions at one point, from one Dual pass
    (``_tangent_pass``), which warns and raises nothing itself.

    ``values[k]`` is ``evaluate_flagged``'s value of component k at the
    point.  Gradients are read in one of two ways.  ``gradients`` and
    ``gradient`` read rows as ``grad`` would: a row's KinkWarnings on its
    first read, and ``grad``'s NotInDomainError at every read of a row
    without a gradient.  ``jacobian`` reads all rows as
    ``SmoothMap.jacobian`` always has, in the order of the passes per
    coordinate.  ``kinks`` lists the messages that ``jacobian`` warns before
    it returns or raises.
    """

    def __init__(self, components, x):
        values, self.G, self._notes = _tangent_pass(components, x)
        self.values = np.array(values)
        self._unread = dict(self._notes)

    def gradients(self, ks):
        """Rows ks of G, read in the order of ks."""
        if self._unread:
            for k in ks:
                self._read_row(k)
        return self.G[ks]

    def gradient(self, k):
        """Row k of G, read."""
        if self._unread:
            self._read_row(k)
        return self.G[k]

    def _read_row(self, k):
        note = self._unread.get(k)
        if note is not None:
            _read(note, _GRAD_DOMAIN)
            del self._unread[k]

    def _in_pass_order(self):
        """The note of all rows: the kinks of the passes per coordinate, in
        their order up to the first error, as one list; that error, or None."""
        messages = []
        for j in range(self.G.shape[1]):
            for kinks, error in self._notes.values():
                if j < len(kinks):
                    messages += kinks[j]
                    if error is not None and j == len(kinks) - 1:
                        return [messages], error
        return [messages], None

    @property
    def kinks(self):
        return self._in_pass_order()[0][0] if self._notes else []

    def jacobian(self) -> np.ndarray:
        """G, the Jacobian, itself."""
        if self._notes:
            _read(self._in_pass_order(), _JACOBIAN_DOMAIN)
        return self.G


def grad(e: Expr, x) -> np.ndarray:
    """Exact forward-mode gradient: one Dual pass (``Jet``)."""
    return Jet([e], x).gradient(0)


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

    def jet(self, x) -> Jet:
        """The value and the Jacobian at x from one Dual pass: its ``values``
        are ``eval(x)`` and its ``jacobian()`` is ``jacobian(x)``."""
        self._check(x)
        return Jet(self.components, x)

    def jacobian(self, x) -> np.ndarray:
        return self.jet(x).jacobian()


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
        out = _walk(e, tuple(values), _NP_SHIM)
    return np.asarray(out, dtype=float)
