"""Scalar expression trees with exact forward-mode derivatives.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' atom)?
    atom   := number | var | func '(' expr (',' expr)? ')' | '(' expr ')' | '-' atom

Functions: sin, cos, exp, log, sqrt, abs, max(.,.), min(.,.).

Evaluation is IEEE-style: log/sqrt outside their domains (and division by
zero, invalid powers) produce a +inf sentinel together with a
domain-violation flag instead of raising.  Derivatives are propagated by
dual numbers, one directional pass per coordinate.  At an abs/max/min kink
a ``KinkWarning`` is emitted and the first-branch derivative is used
(abs: the identity branch; max/min: the first argument).

The power operator is restricted: integer exponents >= 0 work for any
base, otherwise the base must be positive.
"""

from __future__ import annotations

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
    """Base class for expression nodes. Nodes are immutable after parsing."""


@dataclass(frozen=True, eq=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=True)
class Var(Expr):
    name: str
    index: int


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=True)
class Call(Expr):
    func: str
    args: tuple


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(at, f"unexpected character {stripped[0]!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, declared_vars):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.varmap = {name: k for k, name in enumerate(declared_vars)}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError(pos, f"expected {op!r}")

    def parse(self):
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, f"unexpected trailing input {value!r}")
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.next()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.next()
                e = BinOp(value, e, self.factor())
            else:
                return e

    def factor(self):
        e = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            e = BinOp("^", e, self.atom())
        return e

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and value == "-":
            return Neg(self.atom())
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(pos, f"unknown function {value!r}")
                self.next()
                args = [self.expr()]
                akind, avalue, apos = self.peek()
                if akind == "op" and avalue == ",":
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != FUNCTIONS[value]:
                    raise ExprSyntaxError(pos, f"{value} takes {FUNCTIONS[value]} argument(s)")
                return Call(value, tuple(args))
            if value not in self.varmap:
                raise UnknownVariableError(value)
            return Var(value, self.varmap[value])
        raise ExprSyntaxError(pos, "expected number, variable, function, or '('")


def parse(text: str, declared_vars) -> Expr:
    """Parse ``text`` over the declared variable names (order fixes indices)."""
    if not text or not text.strip():
        raise ExprSyntaxError(0, "empty expression")
    root = _Parser(text, list(declared_vars)).parse()
    object.__setattr__(root, "_nvars", len(list(declared_vars)))
    return root


# ---------------------------------------------------------------------------
# unparsing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _is_atomlike(e):
    return isinstance(e, (Num, Var, Call, Neg))


def _render(e, parent_prec, right_side):
    if isinstance(e, Num):
        v = e.value
        if float(v).is_integer() and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        inner = ", ".join(_render(a, 0, False) for a in e.args)
        return f"{e.func}({inner})"
    if isinstance(e, Neg):
        body = _render(e.arg, 0, False) if not _is_atomlike(e.arg) else None
        if body is not None:
            return f"-({body})"
        return "-" + _render(e.arg, 99, False)
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        if e.op == "^":
            # grammar requires atoms on both sides of ^
            lhs = _render(e.lhs, 99, False) if _is_atomlike(e.lhs) else "(" + _render(e.lhs, 0, False) + ")"
            rhs = _render(e.rhs, 99, False) if _is_atomlike(e.rhs) else "(" + _render(e.rhs, 0, False) + ")"
            return f"{lhs}^{rhs}"
        lhs = _render(e.lhs, p, False)
        rhs = _render(e.rhs, p + 1, True)  # - and / are left-associative
        s = f"{lhs} {e.op} {rhs}"
        if p < parent_prec:
            return "(" + s + ")"
        return s
    raise TypeError(f"not an Expr node: {e!r}")


def unparse(e: Expr) -> str:
    return _render(e, 0, False)


# ---------------------------------------------------------------------------
# evaluation: compiled closures over a value tuple `v` and math shim `m`

class _DomainViolation(Exception):
    pass


class Dual:
    """Scalar dual number: value plus one directional derivative."""

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


class _Shim:
    """Math functions over floats and Duals with domain flags and kink rules."""

    @staticmethod
    def div(a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if bv == 0.0:
            raise _DomainViolation
        val = av / bv
        if ad is None and bd is None:
            return val
        dot = ((ad or 0.0) * bv - av * (bd or 0.0)) / (bv * bv)
        return Dual(val, dot)

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
        dot = val * ((bd or 0.0) * math.log(av) + bv * (ad or 0.0) / av)
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

    @staticmethod
    def abs(a):
        av, ad = _split(a)
        val = builtins_abs(av)
        if ad is None:
            return val
        if av == 0.0:
            warnings.warn(KinkWarning("abs at 0: using identity-branch derivative"))
            return Dual(0.0, ad)
        return Dual(val, ad if av > 0 else -ad)

    @staticmethod
    def max(a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if ad is None and bd is None:
            return av if av >= bv else bv
        if av == bv:
            warnings.warn(KinkWarning("max tie: using first-argument derivative"))
            return Dual(av, ad or 0.0)
        if av > bv:
            return Dual(av, ad or 0.0)
        return Dual(bv, bd or 0.0)

    @staticmethod
    def min(a, b):
        av, ad = _split(a)
        bv, bd = _split(b)
        if ad is None and bd is None:
            return av if av <= bv else bv
        if av == bv:
            warnings.warn(KinkWarning("min tie: using first-argument derivative"))
            return Dual(av, ad or 0.0)
        if av < bv:
            return Dual(av, ad or 0.0)
        return Dual(bv, bd or 0.0)


builtins_abs = abs
_SHIM = _Shim()


def _codegen(e):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"v[{e.index}]"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.arg)})"
    if isinstance(e, BinOp):
        a, b = _codegen(e.lhs), _codegen(e.rhs)
        if e.op == "+":
            return f"({a}+{b})"
        if e.op == "-":
            return f"({a}-{b})"
        if e.op == "*":
            return f"({a}*{b})"
        if e.op == "/":
            return f"m.div({a},{b})"
        return f"m.pw({a},{b})"
    if isinstance(e, Call):
        args = ",".join(_codegen(a) for a in e.args)
        return f"m.{e.func}({args})"
    raise TypeError(f"not an Expr node: {e!r}")


def _compiled(e):
    """(closure, largest variable index) of ``e``, compiled on first use and
    kept on the node itself, so it lives exactly as long as the expression."""
    entry = getattr(e, "_closure", None)
    if entry is None:
        fn = eval(compile(f"lambda v, m: {_codegen(e)}", "<expr>", "eval"), {"__builtins__": {}})
        entry = (fn, _max_var_index(e))
        object.__setattr__(e, "_closure", entry)
    return entry


def _max_var_index(e):
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return _max_var_index(e.arg)
    if isinstance(e, BinOp):
        return max(_max_var_index(e.lhs), _max_var_index(e.rhs))
    if isinstance(e, Call):
        return max((_max_var_index(a) for a in e.args), default=-1)
    return -1


def _check_dim(e, x):
    declared = getattr(e, "_nvars", None)
    if declared is not None and len(x) != declared:
        raise DimensionMismatchError(f"point has length {len(x)}, expression declares {declared}")


def evaluate_flagged(e: Expr, x):
    """Evaluate at ``x``; returns ``(value, domain_violation)`` with a +inf sentinel."""
    _check_dim(e, x)
    fn, maxidx = _compiled(e)
    if maxidx >= len(x):
        raise DimensionMismatchError(f"expression references variable index {maxidx}, point has length {len(x)}")
    try:
        val = fn(tuple(x), _SHIM)
    except _DomainViolation:
        return math.inf, True
    except (OverflowError, ValueError):
        return math.inf, True
    if isinstance(val, float) and math.isnan(val):
        return math.inf, True
    return float(val), False


def evaluate(e: Expr, x) -> float:
    return evaluate_flagged(e, x)[0]


def directional(e: Expr, x, u) -> float:
    """Directional derivative <grad e(x), u> in one forward pass."""
    _check_dim(e, x)
    fn, maxidx = _compiled(e)
    if maxidx >= len(x):
        raise DimensionMismatchError("point too short for expression")
    duals = tuple(Dual(float(xj), float(uj)) for xj, uj in zip(x, u))
    try:
        out = fn(duals, _SHIM)
    except _DomainViolation:
        raise NotInDomainError("derivative requested outside the expression domain")
    except (OverflowError, ValueError):
        raise NotInDomainError("derivative overflow")
    return out.dot if isinstance(out, Dual) else 0.0


def grad(e: Expr, x) -> np.ndarray:
    """Exact forward-mode gradient, one pass per coordinate."""
    _check_dim(e, x)
    n = len(x)
    g = np.zeros(n)
    for i in range(n):
        g[i] = directional(e, x, [1.0 if j == i else 0.0 for j in range(n)])
    return g


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
        self._check(x)
        return np.array([evaluate(c, x) for c in self.components])

    def jacobian(self, x) -> np.ndarray:
        """One dual pass per coordinate over every component."""
        self._check(x)
        J = np.zeros((self.m, self.n))
        for j in range(self.n):
            duals = tuple(Dual(float(xi), 1.0 if i == j else 0.0) for i, xi in enumerate(x))
            for k, c in enumerate(self.components):
                fn, _ = _compiled(c)
                try:
                    val = fn(duals, _SHIM)
                except _DomainViolation:
                    raise NotInDomainError("Jacobian requested outside a component domain")
                J[k, j] = val.dot if isinstance(val, Dual) else 0.0
        return J


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
    fn, _ = _compiled(e)
    with np.errstate(all="ignore"):
        out = fn(tuple(values), _NP_SHIM)
    return np.asarray(out, dtype=float)
