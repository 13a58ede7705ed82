"""Compositions theta(f(x)): the chain rule for their subderivative,
feasibility restoration onto f^{-1}(dom theta), and qualification checkers.

Verdict semantics: REFUTED verdicts always carry a concrete witness and
are conclusive (up to stated tolerances); VERIFIED verdicts obtained by
sampling are labeled sampling-confidence, since qualification conditions
are universally quantified.

Where dom theta is one polyhedron and f has no kink at xbar,
``coderivative_constant`` computes c = min ||J^T y|| over unit normals y
at f(xbar), and reg F = 1/c exactly (the coderivative criterion).  c > 0
is Robinson's condition, gives metric subregularity with modulus 1/c, and
for polyhedral Theta that implies Abadie: ``cq_reports`` then reports all
three with confidence "exact" and samples nothing.  c = 0 refutes
Robinson with its normal as witness, and the sampled checks answer the
rest.  Elsewhere Robinson reduces to finitely many polyhedral emptiness
questions, which is exact too, and Abadie and MSQC are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from . import geometry as geo
from .errors import DimensionMismatchError, NotInDomainError, NumericalBreakdownError
from .expr import Jet, SmoothMap
from .funcspace import INF, FnObject, OracleFn, SubderivativeValue, subderivative
from .geometry import (
    Polyhedron,
    PolyhedralCone,
    SampledSetOracle,
    project,
    tangent_cone,
)
from .solvers import nnls

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_APPLICABLE = "NOT-APPLICABLE"
# a sample whose violation is at most this counts as feasible
FEASIBLE_SAMPLE = 10 * geo.TOL_FEAS


@dataclass
class DomainOracle:
    """Non-polyhedral dom(theta) access for hand-coded fixtures."""

    member: callable  # y -> bool
    tangent_member: callable  # w -> bool, tangent cone at the base image point
    dist: callable  # y -> float


@dataclass
class CQReport:
    condition: str
    verdict: str
    witness: np.ndarray = None
    kappa_hat: float = None
    samples: int = 0
    # "exact", "exact-witness" or "sampling" for how the verdict was reached;
    # "none" for a report that decided nothing
    confidence: str = field(kw_only=True)
    diverging: bool = False
    notes: list = field(default_factory=list)


class Composite:
    """theta(f(.)) anchored at a base point with f(xbar) in dom(theta).

    Kept: ``domain_oracle``, which the second-order-cone fixture needs; that
    fixture reproduces the sampled kappa's false VERIFIED (ROADMAP item 10).
    """

    def __init__(self, theta: FnObject, f: SmoothMap, xbar, domain_oracle: DomainOracle = None):
        if theta.n != f.m:
            raise DimensionMismatchError("outer function dimension must match the map range")
        self.theta = theta
        self.f = f
        self.xbar = np.asarray(xbar, dtype=float)
        self.jet = f.jet(self.xbar)  # f(xbar) and its Jacobian, from one Dual pass
        self.ybar = self.jet.values
        self.domain_oracle = domain_oracle
        self._last_image = (None, None)
        self._last_point = (None, None)
        self._coderivative = False  # not computed yet
        if domain_oracle is None:
            if not math.isfinite(theta.value(self.ybar)):
                raise NotInDomainError("f(xbar) is outside dom(theta)")
        elif not domain_oracle.member(self.ybar):
            raise NotInDomainError("f(xbar) is outside dom(theta) (oracle)")

    @property
    def n(self):
        return self.f.n

    @property
    def m(self):
        return self.f.m

    def dom_theta_pieces(self):
        if self.domain_oracle is not None:
            return None
        return self.theta.dom_pieces()

    def coderivative(self):
        """``coderivative_of`` at xbar when dom theta is one polyhedron, else
        None.  Computed once."""
        if self._coderivative is False:
            pieces = self.dom_theta_pieces()
            self._coderivative = None
            if pieces is not None and len(pieces) == 1:
                self._coderivative = coderivative_of(self.jet, pieces[0], self.ybar)
        return self._coderivative

    def dist_dom(self, y):
        """dist(y; dom theta); 0 when theta is finite everywhere."""
        if self.domain_oracle is not None:
            return float(self.domain_oracle.dist(np.asarray(y, dtype=float)))
        pieces = self.theta.dom_pieces()
        if pieces is None:
            return 0.0
        residuals = [P.residual(y) for P in pieces]
        if min(residuals, default=INF) <= geo.TOL_FEAS:  # projections are only for outsiders
            return 0.0
        return min((d for _, d in self._piece_projections(y, pieces, residuals)), default=INF)

    def _piece_projections(self, y, pieces, residuals):
        """project(P, y) for each nonempty piece P, kept for the last y: a
        sampler's violation projects an image that the Gauss-Newton
        restoration then projects again.  ``residuals`` are the pieces'
        P.residual(y), which the caller has just computed."""
        y = np.asarray(y, dtype=float)
        if self._last_image[0] != y.tobytes():
            self._last_image = (y.tobytes(), [project(P, y, r) for P, r in zip(pieces, residuals)
                                              if not P.is_empty()])
        return self._last_image[1]

    def image(self, x):
        """f(x), or None when x is outside dom f (its image is not finite).
        The last point's image is kept: ``restore`` measures the violation at
        z, starts from z and measures its end point again."""
        key = np.asarray(x, dtype=float).tobytes()
        if self._last_point[0] != key:
            y = self.f.eval(x)
            self._last_point = (key, y if np.isfinite(y).all() else None)
        return self._last_point[1]

    def violation(self, x):
        """dist(f(x); dom theta).  The one rule for points outside dom f:
        there is no image to measure or project, so they are infinitely
        infeasible, and samplers skip them."""
        y = self.image(x)
        return INF if y is None else self.dist_dom(y)

    def dom_residual(self, y):
        """(d, v): d = dist(y; dom theta) and v = d * grad dist(.; dom theta)(y),
        that is y - w for the nearest point w; v is None where d is 0 or inf.

        Off a convex piece P, dist(.; P) is differentiable with gradient
        (y - w) / d; where pieces tie, the nearest piece's is taken.  A
        DomainOracle's dist is differenced centrally, at a step small
        against d.
        """
        y = np.asarray(y, dtype=float)
        if self.domain_oracle is None:
            pieces = self.theta.dom_pieces()
            residuals = [] if pieces is None else [P.residual(y) for P in pieces]
            if pieces is None or min(residuals, default=INF) <= 0.0:
                return 0.0, None
            w, d = min(self._piece_projections(y, pieces, residuals), key=lambda wd: wd[1],
                       default=(None, INF))
            return d, (y - w if 0.0 < d < INF else None)
        d = self.dist_dom(y)
        if not 0.0 < d < INF:
            return d, None
        steps = 1e-4 * d * np.eye(len(y))
        return d, np.array([self.dist_dom(y + e) - self.dist_dom(y - e) for e in steps]) / 2e-4

    def tangent_member(self, w, tol=1e-9):
        """w in T_{dom theta}(ybar)?"""
        if self.domain_oracle is not None:
            return bool(self.domain_oracle.tangent_member(np.asarray(w, dtype=float)))
        pieces = self.theta.dom_pieces()
        if pieces is None:
            return True
        for P in pieces:
            if P.contains(self.ybar) and tangent_cone(P, self.ybar).contains(w, tol):
                return True
        return False


# ---------------------------------------------------------------------------
# feasibility restoration onto Omega = f^{-1}(dom theta)

PENALTY_MUS = (1e2, 1e4, 1e6)  # the penalty descent's graduated penalties
PENALTY_STEPS = 60  # descent steps per penalty


def restore(c: Composite, z):
    """A point of Omega = f^{-1}(dom theta) near z.

    Gauss-Newton steps from z usually land on Omega.  When they stall above
    TOL_FEAS (a rank-deficient Jacobian, an image that meets dom theta
    tangentially), a graduated penalty descent from z finds a nearby point
    that Gauss-Newton then polishes.  Distance estimates stay upper bounds either way, which the
    ratio tests tolerate.  No step goes to a point outside dom f, and a z
    outside dom f comes back unchanged, infinitely violating.
    """
    z = np.array(z, dtype=float)
    x = _polish(c, z)
    if geo.TOL_FEAS < c.violation(x) < INF:
        x = _polish(c, _penalty_descent(c, z))
    return x


def _gauss_newton(c: Composite, x):
    """Gauss-Newton iterates x + lstsq(J(x), -v) from x, with
    (d, v) = ``c.dom_residual(f(x))``.  They end once d <= 1e-12, at a step
    shorter than 1e-15 or longer than 1e3, and before a step to a point
    outside dom f; a point outside dom f takes no step."""
    y = c.image(x)
    while y is not None:
        d, v = c.dom_residual(y)
        if not 1e-12 < d < INF:
            return
        delta, *_ = np.linalg.lstsq(c.f.jacobian(x), -v, rcond=None)
        nd = float(np.linalg.norm(delta))
        if nd < 1e-15 or nd > 1e3:
            return
        x = x + delta
        y = c.image(x)
        if y is not None:
            yield x


def _polish(c: Composite, x):
    """The last of at most 60 Gauss-Newton iterates from x, or x."""
    for x in islice(_gauss_newton(c, x), 60):
        pass
    return x


def _penalty_descent(c: Composite, z):
    """Backtracking descent from z on ||x - z||^2 + mu g(x)^2, g = c.violation,
    for each mu in PENALTY_MUS until g(x) <= TOL_FEAS.  The gradient of g^2
    is 2 J(x)^T v, v from ``c.dom_residual``; a trial point outside dom f
    has an infinite penalty and is rejected."""
    x = z
    for mu in PENALTY_MUS:
        if c.violation(x) <= geo.TOL_FEAS:
            break

        def fval(p):
            return float(np.dot(p - z, p - z)) + mu * c.violation(p) ** 2

        fx = fval(x)
        t = 1.0  # adaptive: grows on acceptance, halves on rejection
        for _ in range(PENALTY_STEPS):
            _, v = c.dom_residual(c.image(x))
            grad_sq = np.zeros(c.n) if v is None else 2.0 * (c.f.jacobian(x).T @ v)
            g = 2.0 * (x - z) + mu * grad_sq
            gn = float(np.linalg.norm(g))
            if gn < 1e-12:
                break
            for _ in range(60):
                xn = x - t * g
                fn = fval(xn)
                if fn <= fx - 1e-4 * t * gn * gn:
                    x, fx = xn, fn
                    t *= 2.0
                    break
                t *= 0.5
            else:
                break
    return x


def feasible_set_oracle(c: Composite) -> SampledSetOracle:
    """Oracle for Omega = f^{-1}(dom theta): the violation dist(f(x); dom theta),
    inf outside dom f, and the projection ``restore``."""
    return SampledSetOracle(c.violation, lambda z: restore(c, z))


def composite_fn(c: Composite) -> OracleFn:
    """theta-after-f as a sampled function object (the chain-rule oracle side)."""

    def val(z):
        return c.theta.value(c.f.eval(z))

    def candidates(x, u, t):
        """The first two Gauss-Newton iterates of ``restore`` from x + t u,
        as directions from x."""
        x = np.asarray(x, dtype=float)
        return [(z - x) / t for z in islice(_gauss_newton(c, x + t * np.asarray(u)), 2)]

    return OracleFn(val, c.n, candidate_fn=candidates, t_floor=1e-6)


# ---------------------------------------------------------------------------
# the chain rule

def chain_subderivative(c: Composite, u) -> SubderivativeValue:
    """d(theta o f)(xbar)(u) = d theta(ybar)(Jacobian u), under AQC+epi or MSQC."""
    J = c.jet.jacobian()
    inner = subderivative(c.theta, c.ybar, J @ np.asarray(u, dtype=float))
    inner.flags = list(inner.flags) + ["hypothesis:asserted"]
    return inner


# ---------------------------------------------------------------------------
# qualification conditions

def sampled_tangent_directions(c: Composite, count=12, seed=0):
    """Unit directions toward nearby feasible points of Omega = f^{-1}(dom theta),
    from points drawn at radius 1e-3 around xbar."""
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(count * 3):
        if len(dirs) >= count:
            break
        z = c.xbar + 1e-3 * rng.standard_normal(c.n)
        w = oracle.project(z)
        d = w - c.xbar
        nd = float(np.linalg.norm(d))
        if nd > 1e-5 and oracle.violation(w) <= FEASIBLE_SAMPLE:
            dirs.append(d / nd)
    return dirs


def _linearized_cone_generators(c: Composite, J):
    """Generator directions of {u : J u in T_dom(ybar)} for polyhedral dom theta."""
    dirs = []
    pieces = c.dom_theta_pieces()
    if pieces is None:
        return dirs
    for P in pieces:
        if not P.contains(c.ybar):
            continue
        T = tangent_cone(P, c.ybar)
        K = PolyhedralCone.from_halfspaces(T.G @ J, T.H @ J, n=c.n)
        rays, lines = K.ensure_generators()
        for r in rays:
            dirs.append(r / np.linalg.norm(r))
        for l in lines:
            dirs.append(l / np.linalg.norm(l))
            dirs.append(-l / np.linalg.norm(l))
    # deduplicate
    out = []
    for d in dirs:
        if not any(np.linalg.norm(d - e) < 1e-9 for e in out):
            out.append(d)
    return out


ABADIE_SAMPLES = 10  # the Abadie check tests at least this many directions
ABADIE_TOL = 1e-2  # the derivability ratio it accepts
# floored: below t ~ 1e-3 quadratic violations drop under tol_feas and
# membership tolerance would fake derivability
ABADIE_T_GRID = tuple(1e-1 * 0.5 ** j for j in range(8))


def abadie_check(c: Composite, seed=0) -> CQReport:
    """AQC: tangents of Omega = f^{-1}(dom theta) match the linearized cone.

    The linearized cone is exact (polyhedral preimage); the tangent side is
    sampled: every linearized direction must pass the derivability ratio
    test on Omega, and sampled feasible directions must linearize (the
    always-true inclusion, asserted numerically).
    """
    J = c.jet.jacobian()
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    notes = []
    dirs = _linearized_cone_generators(c, J)
    # sampled tangents toward nearby feasible points always linearize;
    # in oracle mode they are the only reachable source of directions
    sampled = sampled_tangent_directions(c, count=6, seed=seed + 1)
    for d in sampled:
        if c.tangent_member(J @ d, tol=1e-6):
            dirs.append(d)
    tries = 0
    while len(dirs) < ABADIE_SAMPLES and tries < ABADIE_SAMPLES * 80:
        tries += 1
        u = rng.standard_normal(c.n)
        u /= np.linalg.norm(u)
        if c.tangent_member(J @ u):
            dirs.append(u)
    witness = None
    inconclusive = False
    skipped = 0
    for u in dirs:
        rep = geo.derivability_check(oracle, c.xbar, u, t_grid=ABADIE_T_GRID,
                                     tol_deriv=ABADIE_TOL)
        skipped += rep.skipped
        if rep.max_tail_ratio > 10 * ABADIE_TOL:
            witness = np.asarray(u)
            break
        if not rep.passed:
            inconclusive = True
    # the one-sided inclusion T_Omega subset linearized cone, on sampled tangents
    for d in sampled:
        y_dir = J @ d
        if not c.tangent_member(y_dir, tol=1e-5):
            proj_gap = c.dist_dom(c.ybar + 1e-6 * y_dir) / 1e-6
            if proj_gap > 1e-4:
                notes.append(f"one-sided inclusion violated numerically by {proj_gap:.2e}")
    if skipped:
        notes.append(f"{skipped} derivability samples outside dom f skipped")
    if witness is not None:
        return CQReport("Abadie", REFUTED, witness=witness, samples=len(dirs),
                        confidence="exact-witness", notes=notes)
    if inconclusive or not dirs:
        return CQReport("Abadie", INCONCLUSIVE, samples=len(dirs), confidence="sampling",
                        notes=notes)
    return CQReport("Abadie", VERIFIED, samples=len(dirs), confidence="sampling", notes=notes)


def msqc_estimate(c: Composite, radius=0.5, samples=30, seed=0) -> CQReport:
    """Estimate the metric subregularity modulus: dist(x; Omega) <= kappa g(x),
    with g(x) = dist(f(x); dom theta) and Omega = f^{-1}(dom theta).

    As for SIP, each sample's ratio is 1 / |grad g|(z), the reciprocal strong
    slope of the violation (Aze & Corvellec, ESAIM: COCV 10, 2004).  With
    y = f(z) and (w, d) its projection onto dom theta,
    |grad g|(z) = ||J(z)^T (y - w)|| / d: one projection and one Jacobian per
    sample.  dist(.; P) is differentiable off a convex piece P, so no hull of
    gradients is needed; where pieces of a union tie, g is their min, whose
    slope is the largest tied one, so the nearest piece's is conservative.
    A zero slope gives kappa_hat = inf, INCONCLUSIVE.  The verdict follows
    ``ratio_stability_estimate``.

    Kept: ``radius`` and ``samples``, which the acceptance criteria set (0.3
    and 15, 0.3 and 20, 0.5 and 40).
    """

    def ratio(z):
        y = c.f.eval(z)
        if not np.isfinite(y).all():
            return None  # z is outside dom f: there is no violation to measure
        d, v = c.dom_residual(y)
        if not FEASIBLE_SAMPLE < d < INF:
            return None
        slope = float(np.linalg.norm(c.f.jacobian(z).T @ v)) / d
        return 1.0 / slope if slope > 0.0 else INF

    return ratio_stability_estimate("MSQC", ratio, c.xbar, radius, samples, seed)


def ratio_stability_estimate(condition, ratio_fn, xbar, radius, samples, seed) -> CQReport:
    """Shared max-ratio scheme: kappa_hat over shells [r/2, r] at three radii.

    ``ratio_fn(z)`` is a sample's estimate of dist(z; set) / g(z), the
    reciprocal strong slope 1 / |grad g|(z) of the violation g for both nlp
    and SIP (inf for a zero slope), or None when g(z) is at most
    FEASIBLE_SAMPLE or not finite (the sample is not used).
    kappa_hat is the largest ratio: VERIFIED when the shell maxima grow less
    than 10% under two radius halvings, REFUTED with divergence flagged when
    they roughly double at each halving, INCONCLUSIVE otherwise and whenever
    a slope is zero.  Shell sampling keeps the estimator's scale tied to the
    radius so that halvings reveal genuine divergence; full-ball sampling is
    heavy-tailed and can mask it.
    """
    xbar = np.asarray(xbar, dtype=float)
    n = len(xbar)
    rng = np.random.default_rng(seed)
    kappas = []
    used = 0
    worst_point = None
    worst_ratio = 0.0
    for r in (radius, radius / 2.0, radius / 4.0):
        kr = 0.0
        for _ in range(samples):
            step = rng.standard_normal(n)
            nrm = float(np.linalg.norm(step))
            if nrm == 0:
                continue
            z = xbar + step * (r * (0.5 + 0.5 * rng.random()) / nrm)
            ratio = ratio_fn(z)
            if ratio is None:
                continue
            used += 1
            if ratio > worst_ratio:
                worst_ratio, worst_point = ratio, z.copy()
            kr = max(kr, ratio)
        kappas.append(kr)
    k1, k2, k3 = kappas
    kappa_hat = max(kappas)
    if kappa_hat == 0.0:
        return CQReport(condition, VERIFIED, kappa_hat=0.0, samples=used, confidence="sampling",
                        notes=["no infeasible samples: the feasible set is locally everything"])
    if kappa_hat == INF:
        return CQReport(condition, INCONCLUSIVE, witness=worst_point, kappa_hat=kappa_hat,
                        samples=used, confidence="sampling",
                        notes=["an infeasible sample has zero slope"])
    g1 = k2 / k1 if k1 > 0 else INF
    g2 = k3 / k2 if k2 > 0 else INF
    if g1 < 1.1 and g2 < 1.1:
        return CQReport(condition, VERIFIED, kappa_hat=kappa_hat, samples=used,
                        confidence="sampling")
    if g1 >= 1.5 and g2 >= 1.5 and g1 * g2 >= 3.0:
        return CQReport(condition, REFUTED, witness=worst_point, kappa_hat=kappa_hat,
                        samples=used, confidence="sampling", diverging=True,
                        notes=["kappa doubles under radius halving",
                               f"worst sampled ratio {worst_ratio:.4g}"])
    return CQReport(condition, INCONCLUSIVE, kappa_hat=kappa_hat, samples=used,
                    confidence="sampling")


CODERIVATIVE_MAX_FACES = 4096  # the enumeration cap: faces of N_Theta(ybar) tried at most
KAPPA_MARGIN = 1e-9  # a computed kappa is (1 + KAPPA_MARGIN) / c, strictly above reg F


def coderivative_constant(J, P: Polyhedron, ybar, rows=None):
    """(c, y): c = min ||J^T y|| over unit y in N_P(ybar), and a unit
    minimizer y (None when N_P(ybar) = {0}, c = inf); None past the cap.

    N_P(ybar) is generated by the inequality rows ``rows`` and spanned by
    the equality rows.  ``rows`` defaults to the rows that ybar meets to
    rounding, b_i - a_i.ybar <= 1e-12 (|b_i| + ||a_i|| ||ybar||): a row with
    more slack is inactive at ybar however thin P is, so the answer does not
    depend on units.  kkt passes the rows of its fit (``TOL_ACTIVE``), the
    rows its multipliers lie on.  Each inequality row is scaled to unit norm
    first: the cone is the same, and a row's scale moves neither c nor y.

    reg F = 1/c for F(x) = f(x) - P at xbar, J = f'(xbar): the Mordukhovich
    coderivative criterion (Mordukhovich, Trans. AMS 340, 1993; Rockafellar &
    Wets, Variational Analysis, 9G).  The minimum of a quadratic form over a
    polyhedral cone and the sphere is a Pareto eigenvalue (Seeger, Linear
    Algebra Appl. 292, 1999): every y in N = cone(active rows) + span(equality
    rows) has positive weights on a linearly independent subset S of the
    active rows, taken with a basis of the equality rows, and a minimizer in
    the relative interior of such a face is an eigenvector of the whitened
    pencil (B^T J J^T B, B^T B), B = [lines | rows of S].  B = U s V^T whitens
    it (y = U t, weights V s^-1 t), so each face is one symmetric eigh; the
    faces of one size are solved as one batch.  An eigenvector counts when
    its inequality weights have one sign, to 1e-9 of their largest.

    Rounding errs toward a smaller c, which only enlarges kappa: each
    eigenvalue loses 64 eps cond(B) ||J||_F^2 before its square root, where
    cond(B) of unit columns measures only the angles between them, so a c
    below about 1e-7 ||J||_F reads 0.  None when more than
    CODERIVATIVE_MAX_FACES faces would be tried.
    """
    if rows is None:
        ybar = np.asarray(ybar, dtype=float)
        rows = P.b_ineq - P.A_ineq @ ybar <= 1e-12 * (
            np.abs(P.b_ineq) + np.linalg.norm(P.A_ineq, axis=1) * np.linalg.norm(ybar))
    G = P.A_ineq[rows]
    norms = np.linalg.norm(G, axis=1)
    G = G[norms > 0.0] / norms[norms > 0.0, None]
    _, sv, Vt = np.linalg.svd(P.A_eq)
    L = Vt[:int(np.sum(sv > 1e-10 * max(1.0, sv[0] if len(sv) else 1.0)))]
    k, l = len(G), len(L)
    sizes = range(0 if l else 1, min(k, P.n - l) + 1)
    if sum(math.comb(k, j) for j in sizes) > CODERIVATIVE_MAX_FACES:
        return None
    margin = 64.0 * np.finfo(float).eps * float(np.sum(J * J))
    best, y = INF, None
    for j in sizes:
        faces = np.array(list(combinations(range(k), j)), dtype=int).reshape(math.comb(k, j), j)
        B = np.concatenate([np.broadcast_to(L.T, (len(faces), P.n, l)),
                            G[faces].transpose(0, 2, 1)], axis=2)
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        keep = s[:, -1] > 1e-10 * s[:, 0]
        U, s, Vt = U[keep], s[keep], Vt[keep]
        K = J.T @ U
        lam, T = np.linalg.eigh(K.transpose(0, 2, 1) @ K)
        W = (Vt.transpose(0, 2, 1) @ (T / s[:, :, None]))[:, l:, :]
        tol = 1e-9 * np.abs(W).max(axis=1, initial=0.0)[:, None, :]
        pos, neg = (W >= -tol).all(axis=1), (W <= tol).all(axis=1)
        low = np.where(pos | neg, lam - margin * (s[:, :1] / s[:, -1:]), INF)
        if low.size and low.min() < best:
            f, q = np.unravel_index(np.argmin(low), low.shape)
            best = float(low[f, q])
            y = (U[f] @ T[f][:, q]) * (1.0 if pos[f, q] else -1.0)
    return math.sqrt(max(best, 0.0)), y


def coderivative_of(jet: Jet, P: Polyhedron, ybar, rows=None):
    """``coderivative_constant(J, P, ybar, rows)`` for the Jacobian J of
    ``jet`` (``SmoothMap.jet`` at xbar) where the criterion applies.

    None when the Jacobian passes a kink (an abs at 0 or a max or min tie,
    which ``jacobian`` warns as a KinkWarning; ``jet.kinks`` lists them, so
    J is not read): the criterion needs f strictly differentiable at xbar,
    and at a kink J is one branch's.  Off its ties each abs, max and min
    keeps one branch near xbar.  None too when ybar does not project onto P
    (free when ybar lies in P exactly): a P with no point to rounding, such
    as a slab nonempty only within TOL_FEAS, has no normal cone to read, and
    the sampled checks, whose projections fail alike, report it."""
    if jet.kinks:
        return None
    J = jet.jacobian()
    try:
        project(P, ybar)
    except NumericalBreakdownError:
        return None
    return coderivative_constant(J, P, ybar, rows)


def criterion_note(cval):
    return f"coderivative criterion: c = min ||J^T y|| over unit y in N_Theta(f(xbar)) = {cval:.6g}"


def robinson_check(c: Composite) -> CQReport:
    """0 in int{ f(xbar) + J X - dom theta }.

    Where ``Composite.coderivative`` decides, Robinson's condition is c > 0
    (for one polyhedral piece it is the coderivative criterion), and c = 0
    is REFUTED with its unit normal y, J^T y = 0 within the rounding of c,
    as witness.  Otherwise 2m emptiness questions: for each
    t = +/-eps e_j - f(xbar), some piece P of dom theta has {u : J u - t in P}
    nonempty.  A DomainOracle gives no pieces to ask: INCONCLUSIVE."""
    exact = c.coderivative()
    if exact is not None:
        cval, y = exact
        if cval > 0.0:
            return CQReport("Robinson", VERIFIED, confidence="exact", notes=[criterion_note(cval)])
        return CQReport("Robinson", REFUTED, witness=y, confidence="exact",
                        notes=[f"unit normal y with ||J^T y|| = "
                               f"{float(np.linalg.norm(c.jet.jacobian().T @ y)):.1e}: c = 0"])
    if c.domain_oracle is not None:
        return CQReport("Robinson", INCONCLUSIVE, confidence="none",
                        notes=["dom theta is a DomainOracle: its domain was not checked"])
    pieces = c.dom_theta_pieces()
    if pieces is None:
        return CQReport("Robinson", VERIFIED, confidence="exact",
                        notes=["dom theta is the whole space"])
    J = c.jet.jacobian()
    m, n = c.m, c.n
    eps = 1e-3 * (1.0 + float(np.linalg.norm(c.ybar)))
    notes = []
    if len(pieces) > 1:
        notes.append("dom theta is a union; per-direction piece choice")
    for j in range(m):
        for sgn in (1.0, -1.0):
            target = sgn * eps * np.eye(m)[j] - c.ybar
            if all(Polyhedron(P.A_ineq @ J, P.b_ineq + P.A_ineq @ target,
                              P.A_eq @ J, P.b_eq + P.A_eq @ target, n=n).is_empty()
                   for P in pieces):
                w = sgn * np.eye(m)[j]
                return CQReport("Robinson", REFUTED, witness=w, confidence="exact",
                                notes=notes + [f"direction {w} unreachable at eps={eps:.1e}"])
    return CQReport("Robinson", VERIFIED, confidence="exact", notes=notes)


CQ_CONDITIONS = ("abadie", "msqc", "robinson")


def cq_reports(c: Composite, names=CQ_CONDITIONS, seed=0) -> dict:
    """name -> CQReport for each of ``names``, in CQ_CONDITIONS order.

    Where ``Composite.coderivative`` gives c > 0, all three hold and none is
    sampled: Robinson's condition is c > 0, metric regularity with modulus
    1/c gives MSQC with kappa_hat = 1/c (0 for c = inf, where N = {0}), and
    for polyhedral Theta, MSQC implies Abadie (for u with J u in T_Theta(ybar),
    dist(f(xbar + t u); Theta) = o(t), so dist(xbar + t u; Omega) = o(t)).
    Each is VERIFIED with confidence "exact".  Otherwise each sampled check
    runs, and ``robinson_check`` decides Robinson."""
    exact = c.coderivative()
    if exact is not None and exact[0] > 0.0:
        note = criterion_note(exact[0])
        checks = {"abadie": lambda: CQReport("Abadie", VERIFIED, confidence="exact", notes=[note]),
                  "msqc": lambda: CQReport("MSQC", VERIFIED, kappa_hat=1.0 / exact[0],
                                           confidence="exact", notes=[note])}
    else:
        checks = {"abadie": lambda: abadie_check(c, seed=seed),
                  "msqc": lambda: msqc_estimate(c, seed=seed)}
    checks["robinson"] = lambda: robinson_check(c)
    return {name: checks[name]() for name in CQ_CONDITIONS if name in names}


# ---------------------------------------------------------------------------
# robustness of subnormals

@dataclass
class RobustnessReport:
    status: str
    max_violation: float = None
    sequences: int = 0
    notes: list = field(default_factory=list)


ROBUSTNESS_SEQUENCES = 5  # boundary sequences tested
ROBUSTNESS_LEVELS = 16  # points per sequence, at radii ROBUSTNESS_R0 / 2^k
ROBUSTNESS_R0 = 1e-2  # the first radius


def robustness_check(c: Composite, kappa=None, seed=0) -> RobustnessReport:
    """Limits of nearby subnormals stay in the subnormal cone at xbar.

    Samples feasible points x_k -> xbar with normals v_k built from the
    mapped active generators; the tail average of each normalized sequence
    is tested for membership in J(xbar)^T N_Theta(ybar) by an NNLS residual.
    """
    pieces = c.dom_theta_pieces()
    if kappa is None:
        return RobustnessReport(NOT_APPLICABLE, notes=["no subamenability modulus supplied"])
    if pieces is None or len(pieces) != 1:
        return RobustnessReport(NOT_APPLICABLE, notes=["needs one polyhedral dom piece"])
    Theta = pieces[0]
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    Jbar = c.jet.jacobian()
    gens_bar = Theta.A_ineq[Theta.active_rows(c.ybar, tol_active=1e-5)]
    lines_bar = Theta.A_eq
    max_violation = 0.0
    done = skipped = 0
    for _ in range(ROBUSTNESS_SEQUENCES * 3):
        if done >= ROBUSTNESS_SEQUENCES:
            break
        d = rng.standard_normal(c.n)
        d /= np.linalg.norm(d)
        if oracle.feasible(c.xbar + ROBUSTNESS_R0 * d):
            d = -d
            if oracle.feasible(c.xbar + ROBUSTNESS_R0 * d):
                continue  # interior direction pair: nothing to test
        weights = rng.random(max(1, Theta.A_ineq.shape[0]))
        eq_weights = rng.normal(size=Theta.A_eq.shape[0]) if Theta.A_eq.shape[0] else None
        tail = []
        for k in range(ROBUSTNESS_LEVELS):
            r = ROBUSTNESS_R0 * 2.0 ** (-k)
            xk = oracle.project(c.xbar + r * d)
            if oracle.violation(xk) == INF:
                skipped += 1
                continue
            yk = c.f.eval(xk)
            act = Theta.active_rows(yk, tol_active=1e-6)
            lam = np.zeros(c.m)
            for i in act:
                lam += weights[i] * Theta.A_ineq[i]
            if eq_weights is not None and Theta.A_eq.shape[0]:
                lam += Theta.A_eq.T @ eq_weights
            vk = c.f.jacobian(xk).T @ lam
            nv = float(np.linalg.norm(vk))
            if nv > 1e-12:
                tail.append(vk / nv)
        if len(tail) < 4:
            continue
        vbar = np.mean(tail[-4:], axis=0)
        viol = _cone_membership_violation(vbar, Jbar, gens_bar, lines_bar)
        max_violation = max(max_violation, viol)
        done += 1
    notes = [f"{skipped} samples outside dom f skipped"] if skipped else []
    if done == 0:
        return RobustnessReport(NOT_APPLICABLE, notes=["no boundary sequences found"] + notes)
    return RobustnessReport(VERIFIED if max_violation <= 1e-5 else REFUTED,
                            max_violation=max_violation, sequences=done, notes=notes)


def _cone_membership_violation(v, J, gens, lines):
    """min ||J^T lambda - v|| over lambda in cone(gens) + span(lines): the
    residual of the NNLS fit of v by J^T [gens; lines; -lines]^T."""
    E = J.T @ np.vstack([gens, lines, -lines]).T
    return float(np.linalg.norm(E @ nnls(E, v) - v))
