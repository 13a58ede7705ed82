"""Extended-real-valued function objects and their pointwise variational data.

Values, subderivatives (analytic where the structure allows, sampled
difference quotients otherwise), Dini-Hadamard subdifferentials and
relative-Lipschitz estimation.

The sampled subderivative is the independent oracle of the toolkit: at
each level t of a geometric grid it minimizes the difference quotient
over the nominal direction, domain-feasible reprojections of it, and
random perturbations whose radius shrinks like sqrt(t), so that every
candidate direction converges to the nominal one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import (
    DimensionMismatchError,
    InconclusiveError,
    KinkWarning,
    NonconvexUnsupportedError,
    NotInDomainError,
    NumericalBreakdownError,
)
from . import expr as expr_mod
from .geometry import PolyhedralCone, Polyhedron, project, tangent_cone
from .solvers import eigh

INF = math.inf


# the difference-quotient estimator samples t on geo.default_t_grid()
QUOTIENT_TOL_SPREAD = 1e-4  # max - min of the tail quotients when they settle
QUOTIENT_TAIL = 5  # grid levels in the tail
QUOTIENT_PERTURBATIONS = 8  # random rescue directions per level


@dataclass
class SubderivativeValue:
    value: float
    mode: str  # "analytic" | "sampled"
    diagnostics: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# function objects

class FnObject:
    n: int

    # Functions whose values carry absolute tolerances (polyhedron membership,
    # projections exact only to the NNLS tolerance) cannot be sampled at
    # arbitrarily small t: the tolerance divided by t swamps the quotient.
    # Such objects floor the grid.
    t_floor = 0.0

    def value(self, x) -> float:
        raise NotImplementedError

    def dom_pieces(self):
        """Polyhedral pieces whose union is dom(fn), or None when finite everywhere."""
        return None

    def _check(self, x):
        if len(x) != self.n:
            raise DimensionMismatchError(f"point has length {len(x)}, function expects {self.n}")


class SmoothFn(FnObject):
    """Expression-backed continuously differentiable function."""

    def __init__(self, e, n=None):
        if isinstance(e, str):
            e = expr_mod.parse(e, [f"x{i+1}" for i in range(n)])
        self.e = e
        self.n = n if n is not None else getattr(e, "_nvars")

    def value(self, x):
        self._check(x)
        return expr_mod.evaluate(self.e, x)

    def gradient(self, x):
        self._check(x)
        return expr_mod.grad(self.e, x)


class OracleFn(FnObject):
    """Black-box function; all variational data is sampled."""

    def __init__(self, fn, n, candidate_fn=None, t_floor=0.0):
        self.fn = fn
        self.n = n
        self.candidate_fn = candidate_fn
        self.t_floor = t_floor

    def value(self, x):
        self._check(x)
        return float(self.fn(np.asarray(x, dtype=float)))


class IndicatorFn(FnObject):
    """0 on the polyhedron, +inf off it."""

    t_floor = 1e-6

    def __init__(self, P: Polyhedron):
        self.P = P
        self.n = P.n

    def value(self, x):
        self._check(x)
        return 0.0 if self.P.contains(x) else INF

    def dom_pieces(self):
        return [self.P]


class DistanceFn(FnObject):
    """Euclidean distance to a polyhedron; globally 1-Lipschitz."""

    t_floor = 1e-5

    def __init__(self, P: Polyhedron):
        self.P = P
        self.n = P.n

    def value(self, x):
        self._check(x)
        return project(self.P, x)[1]


@dataclass
class PLQPiece:
    omega: Polyhedron
    B: np.ndarray
    b: np.ndarray
    beta: float

    def quad(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.B @ x + self.b @ x + self.beta)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (self.B @ x) + self.b


class PLQFunction(FnObject):
    """Piecewise linear-quadratic: polyhedral pieces carrying x.Bx + b.x + beta.

    Pieces must agree on overlaps; this is validated by sampling each
    pairwise intersection at construction time.
    """

    t_floor = 1e-6

    def __init__(self, pieces, validate=True):
        self.pieces = []
        n = None
        for omega, B, b, beta in pieces:
            if n is None:
                n = omega.n
            elif omega.n != n:
                raise DimensionMismatchError("PLQ pieces live in different spaces")
            B = 0.5 * (np.atleast_2d(np.asarray(B, dtype=float))
                       + np.atleast_2d(np.asarray(B, dtype=float)).T)
            self.pieces.append(PLQPiece(omega, B, np.atleast_1d(np.asarray(b, dtype=float)), float(beta)))
        self.n = n
        self._convex = None
        if validate:
            self._validate_consistency()

    def _validate_consistency(self):
        """Pieces agree to 1e-8 relative at the point of each overlap nearest
        0 and at the projections onto the overlap of four random points
        around it (standard normal offsets).  An overlap that is nonempty
        only within tol_feas (pieces {x <= 0.3} and {x >= 0.3 + 1e-10}) holds
        no point of both pieces, so there is nothing to agree on: it is
        skipped."""
        rng = np.random.default_rng(0)
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                inter = Polyhedron.intersection(self.pieces[i].omega, self.pieces[j].omega)
                if inter.is_empty():
                    continue
                try:
                    center = project(inter, np.zeros(self.n))[0]
                except NumericalBreakdownError:
                    continue
                probes = [center] + [project(inter, center + rng.normal(size=self.n))[0]
                                     for _ in range(4)]
                for p in probes:
                    vi, vj = self.pieces[i].quad(p), self.pieces[j].quad(p)
                    if abs(vi - vj) > 1e-8 * (1.0 + abs(vi)):
                        raise ValueError(
                            f"PLQ pieces {i} and {j} disagree at {p}: {vi} vs {vj}"
                        )

    def value(self, x):
        self._check(x)
        for piece in self.pieces:
            if piece.omega.contains(x):
                return piece.quad(x)
        return INF

    def dom_pieces(self):
        return [p.omega for p in self.pieces]

    def active_pieces(self, x):
        return [p for p in self.pieces if p.omega.contains(x)]

    def is_convex(self):
        """B_i all PSD plus midpoint convexity at 500 sampled pairs over the domain."""
        if self._convex is not None:
            return self._convex
        ok = True
        for piece in self.pieces:
            w, _ = eigh(piece.B)
            if w[-1] < -1e-9 * (1.0 + abs(w[0])):
                ok = False
                break
        if ok:
            rng = np.random.default_rng(0)
            pts = self._sample_domain(rng, 50)
            if len(pts) >= 2:
                for _ in range(500):
                    a = pts[rng.integers(0, len(pts))]
                    b = pts[rng.integers(0, len(pts))]
                    m = 0.5 * (a + b)
                    vm = self.value(m)
                    if math.isfinite(vm):
                        lhs = vm
                        rhs = 0.5 * (self.value(a) + self.value(b))
                        if lhs > rhs + 1e-9 * (1.0 + abs(rhs)):
                            ok = False
                            break
        self._convex = ok
        return ok

    def _sample_domain(self, rng, count):
        pts = []
        nonempty = [p.omega for p in self.pieces if not p.omega.is_empty()]
        if not nonempty:
            return pts
        centers = [project(P, np.zeros(self.n))[0] for P in nonempty]
        for _ in range(count):
            P = nonempty[rng.integers(0, len(nonempty))]
            base = centers[rng.integers(0, len(centers))]
            z = base + rng.normal(size=self.n)
            pts.append(project(P, z)[0])
        return pts


# ---------------------------------------------------------------------------
# subdifferential sets

class SubdifferentialSet:
    """Finitely represented convex subdifferential candidates.

    kinds: "polyhedral" (V-rep: vertices + rays + lines), as ``subdifferential``
    returns it, and "cone_cap_ball" (a polyhedral cone intersected with a norm
    ball, the subdifferential of a distance function at a point of its set).
    """

    def __init__(self, kind, n, vertices=None, rays=None, lines=None, cone=None, radius=None):
        self.kind = kind
        self.n = n
        self.vertices = vertices
        self.rays = rays
        self.lines = lines
        self.cone = cone
        self.radius = radius

    @classmethod
    def singleton(cls, g):
        g = np.atleast_1d(np.asarray(g, dtype=float))
        return cls("polyhedral", len(g), vertices=g.reshape(1, -1),
                   rays=np.zeros((0, len(g))), lines=np.zeros((0, len(g))))

    @classmethod
    def polytope(cls, vertices, rays=None, lines=None):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        n = V.shape[1]
        R = np.zeros((0, n)) if rays is None else np.atleast_2d(np.asarray(rays, dtype=float))
        L = np.zeros((0, n)) if lines is None else np.atleast_2d(np.asarray(lines, dtype=float))
        if R.size == 0:
            R = R.reshape(0, n)
        if L.size == 0:
            L = L.reshape(0, n)
        return cls("polyhedral", n, vertices=V, rays=R, lines=L)

    @classmethod
    def cone_cap_ball(cls, K: PolyhedralCone, radius):
        return cls("cone_cap_ball", K.n, cone=K, radius=float(radius))

    def sample(self, count, seed=0):
        """Random elements of the set (for membership-style property tests)."""
        rng = np.random.default_rng(seed)
        out = []
        if self.kind == "polyhedral":
            V, R, L = self.vertices, self.rays, self.lines
            out.extend(list(V))
            for _ in range(count):
                w = rng.dirichlet(np.ones(V.shape[0])) if V.shape[0] > 1 else np.ones(1)
                v = V.T @ w
                if R.shape[0]:
                    v = v + R.T @ (rng.random(R.shape[0]) * rng.random())
                if L.shape[0]:
                    v = v + L.T @ rng.normal(size=L.shape[0], scale=0.5)
                out.append(v)
        elif self.kind == "cone_cap_ball":
            rays, lines = self.cone.ensure_generators()
            for _ in range(count):
                v = np.zeros(self.n)
                if rays.shape[0]:
                    v = rays.T @ rng.random(rays.shape[0])
                if lines.shape[0]:
                    v = v + lines.T @ rng.normal(size=lines.shape[0])
                nv = float(np.linalg.norm(v))
                if nv > 0:
                    v = v * (self.radius * rng.random() / nv)
                out.append(v)
        return out


# ---------------------------------------------------------------------------
# operations

def _analytic_subderivative(fn, x, u):
    """Analytic directional subderivative, or None when only sampling applies."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if isinstance(fn, SmoothFn):
        if not math.isfinite(fn.value(x)):
            raise NotInDomainError("point outside the smooth function domain")
        with warnings.catch_warnings():
            warnings.simplefilter("error", KinkWarning)
            try:
                return float(fn.gradient(x) @ u)
            except KinkWarning:  # at an abs at 0 or a max or min tie: one branch's
                return None
    if isinstance(fn, IndicatorFn):
        if not fn.P.contains(x):
            raise NotInDomainError("point outside the indicator domain")
        return 0.0 if tangent_cone(fn.P, x).contains(u, 1e-9) else INF
    if isinstance(fn, DistanceFn):
        proj, d = project(fn.P, x)
        if d <= geo.TOL_FEAS:
            return geo.dist_to_cone(tangent_cone(fn.P, proj), u)
        return float((x - proj) @ u / d)
    if isinstance(fn, PLQFunction):
        active = fn.active_pieces(x)
        if not active:
            raise NotInDomainError("point outside the PLQ domain")
        best = INF
        for piece in active:
            if tangent_cone(piece.omega, x).contains(u, 1e-9):
                best = min(best, float(piece.grad(x) @ u))
        return best
    return None


def subderivative(fn: FnObject, x, u) -> SubderivativeValue:
    """Directional subderivative; analytic for structured objects, else sampled."""
    val = _analytic_subderivative(fn, x, u)
    if val is not None:
        return SubderivativeValue(value=val, mode="analytic")
    return subderivative_sampled(fn, x, u)


def _level_quotients(fn, x, u, rng):
    """Per-level difference quotients over shrinking candidate direction sets.

    Candidates at level t: the nominal direction, domain reprojections of
    it (x + t u projected onto dom pieces and rescaled), and any
    structural candidates supplied by the function object; all filtered to
    stay within radius_scale*sqrt(t) of the nominal direction so every
    candidate converges to it.  Random perturbations are a feasibility
    rescue only: they are consulted when no structural candidate is
    feasible, which keeps the estimator unbiased on Lipschitz functions
    while still covering indicator-type domains.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    phix = fn.value(x)
    if not math.isfinite(phix):
        raise NotInDomainError("base point outside the domain")
    dom = fn.dom_pieces()
    dom = [P for P in dom if not P.is_empty()] if dom is not None else None
    candidate_fn = getattr(fn, "candidate_fn", None)
    grid = [t for t in geo.default_t_grid() if t >= fn.t_floor]
    if not grid:
        grid = geo.default_t_grid()[:QUOTIENT_TAIL]
    levels = []
    for t in grid:
        radius = math.sqrt(t)
        cands = [u]
        if dom is not None:
            base = x + t * u
            for P in dom:
                w, d = project(P, base)
                if d > 0.0:
                    cands.append((w - x) / t)
        if candidate_fn is not None:
            cands.extend(candidate_fn(x, u, t))
        best = INF
        for k, cand in enumerate(cands):
            cand = np.asarray(cand, dtype=float)
            if k > 0 and float(np.linalg.norm(cand - u)) > radius + 1e-12:
                continue
            v = fn.value(x + t * cand)
            if math.isfinite(v):
                q = (v - phix) / t
                if q < best:
                    best = q
        if best == INF:
            for _ in range(QUOTIENT_PERTURBATIONS):
                step = rng.standard_normal(len(u))
                nrm = float(np.linalg.norm(step))
                if nrm == 0:
                    continue
                cand = u + step * (radius * rng.random() / nrm)
                v = fn.value(x + t * cand)
                if math.isfinite(v):
                    q = (v - phix) / t
                    if q < best:
                        best = q
        levels.append(best)
    return levels


def _tail_value(levels, tail):
    tail_vals = levels[-tail:]
    finite = [q for q in tail_vals if math.isfinite(q)]
    if not finite:
        return INF, 0.0
    if len(finite) < len(tail_vals):
        return min(finite), INF
    return min(tail_vals), max(tail_vals) - min(tail_vals)


def subderivative_sampled(fn: FnObject, x, u, seed=0, check_spread=True) -> SubderivativeValue:
    """Difference-quotient estimator of the subderivative along a t-grid.

    This is the independent oracle used to validate analytic paths and
    the chain rule; raises InconclusiveError when the quotient tail does
    not settle within QUOTIENT_TOL_SPREAD.
    """
    rng = np.random.default_rng(seed)
    levels = _level_quotients(fn, x, u, rng)
    val, spread = _tail_value(levels, QUOTIENT_TAIL)
    diag = {"levels": levels, "spread": spread, "t_grid": geo.default_t_grid()}
    if check_spread and spread > QUOTIENT_TOL_SPREAD:
        raise InconclusiveError(val, spread, QUOTIENT_TOL_SPREAD)
    return SubderivativeValue(value=val, mode="sampled", diagnostics=diag)


def subdifferential(fn: FnObject, x) -> SubdifferentialSet:
    """Exact Dini-Hadamard subdifferential of a smooth or convex PLQ function at x.

    {grad fn(x)} for a smooth fn, and conv{gradients of the active pieces} +
    N_dom(x) for a convex PLQ: the gradients as vertices, N_dom's generators
    as rays and lines.  A point outside dom fn raises NotInDomainError; any
    other function, a nonconvex PLQ included, NonconvexUnsupportedError.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(fn, SmoothFn):
        if not math.isfinite(fn.value(x)):
            raise NotInDomainError("point outside the smooth function domain")
        return SubdifferentialSet.singleton(fn.gradient(x))
    if isinstance(fn, PLQFunction):
        if not fn.is_convex():
            raise NonconvexUnsupportedError(
                "nonconvex PLQ: use subderivative membership tests instead"
            )
        active = fn.active_pieces(x)
        if not active:
            raise NotInDomainError("point outside the PLQ domain")
        vertices = np.array([p.grad(x) for p in active])
        N = _union_domain_normal_cone([p.omega for p in active], x)
        rays, lines = N.ensure_generators()
        return SubdifferentialSet.polytope(vertices, rays, lines)
    raise NonconvexUnsupportedError(
        f"no exact subdifferential for {type(fn).__name__}; "
        "test membership via the subderivative inequality"
    )


def _union_domain_normal_cone(omegas, x) -> PolyhedralCone:
    """Normal cone of a union of polyhedra at a common point: polar of the tangent union."""
    n = omegas[0].n
    halfspace_stacks = []
    for om in omegas:
        T = tangent_cone(om, x)
        if T.G.shape[0] == 0 and T.H.shape[0] == 0:
            return PolyhedralCone.zero(n)  # interior point: normal cone {0}
        halfspace_stacks.append(T.ensure_generators())  # T's generators: its polar's halfspaces
    G = np.vstack([g for g, _ in halfspace_stacks])
    H = np.vstack([h for _, h in halfspace_stacks]) if any(h.shape[0] for _, h in halfspace_stacks) \
        else np.zeros((0, n))
    return PolyhedralCone.from_halfspaces(G, H, n=n)


REL_LIPSCHITZ_SAMPLES = 60  # points drawn by the relative-Lipschitz estimate


def rel_lipschitz_estimate(fn: FnObject, x, radius, seed=0) -> float:
    """Lower estimate of the relative Lipschitz constant on dom(fn) near x."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    n = fn.n
    dom = fn.dom_pieces()
    dom = [P for P in dom if not P.is_empty()] if dom is not None else None
    pts, vals = [], []
    if math.isfinite(fn.value(x)):
        pts.append(x)
        vals.append(fn.value(x))
    for _ in range(REL_LIPSCHITZ_SAMPLES):
        step = rng.standard_normal(n)
        nrm = float(np.linalg.norm(step))
        if nrm == 0:
            continue
        z = x + step * (radius * rng.random() ** (1.0 / n) / nrm)
        if dom is None:
            v = fn.value(z)
            if math.isfinite(v):
                pts.append(z)
                vals.append(v)
        else:
            P = dom[rng.integers(0, len(dom))]
            w, _ = project(P, z)
            if float(np.linalg.norm(w - x)) <= radius + 1e-12:
                v = fn.value(w)
                if math.isfinite(v):
                    pts.append(w)
                    vals.append(v)
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = float(np.linalg.norm(pts[i] - pts[j]))
            if gap > 1e-9:
                best = max(best, abs(vals[i] - vals[j]) / gap)
    return best


# convenience PLQ builders -------------------------------------------------

def plq_max_of_affine(coeffs, consts):
    """max_i (a_i . x + c_i) as a PLQ with pieces {a_i.x + c_i >= a_j.x + c_j}."""
    A = np.atleast_2d(np.asarray(coeffs, dtype=float))
    c = np.atleast_1d(np.asarray(consts, dtype=float))
    k, n = A.shape
    pieces = []
    for i in range(k):
        rows = []
        rhs = []
        for j in range(k):
            if i == j:
                continue
            rows.append(A[j] - A[i])
            rhs.append(c[i] - c[j])
        omega = Polyhedron(np.array(rows) if rows else None,
                           np.array(rhs) if rhs else None, n=n)
        pieces.append((omega, np.zeros((n, n)), A[i], c[i]))
    return PLQFunction(pieces)
