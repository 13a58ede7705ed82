"""Chain and sum rules for compositions theta(f(x)) plus qualification checkers.

Verdict semantics: REFUTED verdicts always carry a concrete witness and
are conclusive (up to stated tolerances); VERIFIED verdicts obtained by
sampling are labeled sampling-confidence, since qualification conditions
are universally quantified.  Only the Robinson check, which reduces to
finitely many LP feasibility problems, is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import (
    DimensionMismatchError,
    InfeasibleWitnessError,
    NonconvexUnsupportedError,
    NotInDomainError,
)
from .expr import SmoothMap
from .funcspace import (
    INF,
    DistanceFn,
    FnObject,
    IndicatorFn,
    OracleFn,
    PLQFunction,
    SeparableSumFn,
    SmoothFn,
    SubderivativeValue,
    SubdifferentialSet,
    subderivative,
    subdifferential,
)
from .geometry import (
    Polyhedron,
    PolyhedralCone,
    SampledSetOracle,
    normal_cone,
    project,
    tangent_cone,
)
from .solvers import OPTIMAL, LPProblem, conic_fit, lp_solve

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_APPLICABLE = "NOT-APPLICABLE"
# a ratio-scheme sample whose violation is at most this counts as feasible
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
    confidence: str = "sampling"
    diverging: bool = False
    notes: list = field(default_factory=list)


class Composite:
    """theta(f(.)) anchored at a base point with f(xbar) in dom(theta)."""

    def __init__(self, theta: FnObject, f: SmoothMap, xbar, domain_oracle: DomainOracle = None):
        if theta.n != f.m:
            raise DimensionMismatchError("outer function dimension must match the map range")
        self.theta = theta
        self.f = f
        self.xbar = np.asarray(xbar, dtype=float)
        self.ybar = f.eval(self.xbar)
        self.domain_oracle = domain_oracle
        self._last_image = (None, None)
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

    def dist_dom(self, y):
        """dist(y; dom theta); 0 when theta is finite everywhere."""
        if self.domain_oracle is not None:
            return float(self.domain_oracle.dist(np.asarray(y, dtype=float)))
        pieces = self.theta.dom_pieces()
        if pieces is None:
            return 0.0
        for P in pieces:  # membership first: projections are only for outsiders
            if P.contains(y):
                return 0.0
        return min((d for _, d in self._piece_projections(y, pieces)), default=INF)

    def project_dom(self, y):
        """Nearest point of dom theta (over its polyhedral pieces)."""
        pieces = self.theta.dom_pieces()
        if pieces is None:
            return np.asarray(y, dtype=float), 0.0
        y = np.asarray(y, dtype=float)
        for P in pieces:
            if P.residual(y) <= 0.0:
                return y.copy(), 0.0
        return min(self._piece_projections(y, pieces), key=lambda wd: wd[1], default=(None, INF))

    def _piece_projections(self, y, pieces):
        """project(P, y) for each nonempty piece P, kept for the last y: the
        ratio estimate projects an image that the Gauss-Newton restoration
        then projects again."""
        y = np.asarray(y, dtype=float)
        if self._last_image[0] != y.tobytes():
            self._last_image = (y.tobytes(), [project(P, y) for P in pieces if not P.is_empty()])
        return self._last_image[1]

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


def feasible_set_oracle(c: Composite) -> SampledSetOracle:
    """Oracle for Omega = f^{-1}(dom theta): penalty descent plus GN restoration.

    The graduated penalty phase can stall short of tol_feas on flat
    landscapes (for instance a squared map against a singleton target);
    the Gauss-Newton polish drives the image onto dom theta so that
    distance estimates are backed by genuinely feasible points.
    """

    def image(x):
        """f(x), or None when x is outside dom f (its image is not finite)."""
        y = c.f.eval(x)
        return y if np.isfinite(y).all() else None

    def violation(x):
        # the one rule for points outside dom f: there is no image to measure
        # or project, so they are infinitely infeasible, and samplers skip them
        y = image(x)
        return INF if y is None else c.dist_dom(y)

    if c.domain_oracle is not None:
        return SampledSetOracle(violation)

    def grad_sq(x):
        y = c.f.eval(x)
        w, d = c.project_dom(y)
        if d == 0.0:
            return np.zeros(c.n)
        return 2.0 * (c.f.jacobian(x).T @ (y - w))

    base = SampledSetOracle(violation, grad_sq=grad_sq)

    def gn_restore(x, iters=60):
        """Gauss-Newton steps; stops before a step whose image is not finite."""
        y = image(x)
        for _ in range(iters if y is not None else 0):
            w, d = c.project_dom(y)
            if d <= 1e-12:
                break
            J = c.f.jacobian(x)
            delta, *_ = np.linalg.lstsq(J, w - y, rcond=None)
            nd = float(np.linalg.norm(delta))
            if nd < 1e-15 or nd > 1e3:
                break
            x_next = x + delta
            y = image(x_next)
            if y is None:
                break
            x = x_next
        return x

    def project_fn(z):
        z = np.asarray(z, dtype=float)
        # Gauss-Newton restoration is cheap and usually lands on a nearby
        # feasible point; the graduated penalty descent is the fallback when
        # it stalls (rank-deficient Jacobian and the like).  Distance
        # estimates stay upper bounds either way, which the ratio tests
        # tolerate.  A z outside dom f comes back as is, infinitely violating.
        x = gn_restore(z.copy())
        v = violation(x)
        if v <= geo.TOL_FEAS or v == INF:
            return x
        x = SampledSetOracle.project(base, z)
        return gn_restore(x)

    return SampledSetOracle(violation, grad_sq=grad_sq, project_fn=project_fn)


def _composite_candidate_fn(c: Composite):
    """Gauss-Newton feasibility restoration candidates for sampled quotients."""

    def candidates(x, u, t):
        base = np.asarray(x) + t * np.asarray(u)
        z = base.copy()
        out = []
        for _ in range(2):
            y = c.f.eval(z)
            w, d = c.project_dom(y)
            if d <= geo.TOL_FEAS:
                break
            J = c.f.jacobian(z)
            delta, *_ = np.linalg.lstsq(J, w - y, rcond=None)
            z = z + delta
            out.append((z - np.asarray(x)) / t)
        return out

    return candidates


def composite_fn(c: Composite, t_floor=1e-6) -> OracleFn:
    """theta-after-f as a sampled function object (the chain-rule oracle side)."""

    def val(z):
        return c.theta.value(c.f.eval(z))

    return OracleFn(val, c.n, candidate_fn=_composite_candidate_fn(c), t_floor=t_floor)


# ---------------------------------------------------------------------------
# chain rules

def chain_subderivative(c: Composite, u, route="asserted", seed=0) -> SubderivativeValue:
    """d(theta o f)(xbar)(u) = d theta(ybar)(Jacobian u), under AQC+epi or MSQC."""
    J = c.f.jacobian(c.xbar)
    inner = subderivative(c.theta, c.ybar, J @ np.asarray(u, dtype=float), seed=seed)
    inner.flags = list(inner.flags) + [f"hypothesis:{route}"]
    return inner


def chain_subdifferential(c: Composite, cq: CQReport = None) -> SubdifferentialSet:
    """Adjoint image of the outer subdifferential.

    Route A: theta locally Lipschitz and Dini-Hadamard regular at ybar.
    Route B: theta convex relatively Lipschitz, under AQC with a closed
    adjoint image (automatic for polyhedral data in finite dimensions).
    """
    JT = c.f.jacobian(c.xbar).T
    theta = c.theta
    if isinstance(theta, SmoothFn):
        S = SubdifferentialSet.singleton(JT @ theta.gradient(c.ybar))
        S.flags.append("route:A-smooth")
        return S
    S = subdifferential(theta, c.ybar)  # raises NonconvexUnsupportedError when unavailable
    mapped = S.map_adjoint(JT)
    if isinstance(theta, DistanceFn):
        mapped.flags.append("route:A-lipschitz-regular")
        return mapped
    if isinstance(theta, PLQFunction) and theta.is_convex():
        if _plq_locally_lipschitz_at(theta, c.ybar):
            mapped.flags.append("route:A-lipschitz-regular")
        else:
            mapped.flags.append("route:B-convex-AQC")
            if cq is not None and cq.condition.lower().startswith("abadie") and cq.verdict == VERIFIED:
                mapped.flags.append(f"AQC:{cq.confidence}")
            else:
                mapped.flags.append("heuristic:AQC-unverified")
        return mapped
    if isinstance(theta, IndicatorFn):
        mapped.flags.append("route:B-convex-AQC")
        if cq is not None and cq.verdict == VERIFIED:
            mapped.flags.append(f"AQC:{cq.confidence}")
        else:
            mapped.flags.append("heuristic:AQC-unverified")
        return mapped
    mapped.flags.append("route:unclassified")
    return mapped


def _plq_locally_lipschitz_at(theta: PLQFunction, y, probe=16, seed=0):
    """Interior-of-domain test: finite values in a small ball around y."""
    rng = np.random.default_rng(seed)
    r = 1e-6
    for _ in range(probe):
        d = rng.standard_normal(theta.n)
        d /= np.linalg.norm(d)
        if not math.isfinite(theta.value(np.asarray(y) + r * d)):
            return False
    return True


# ---------------------------------------------------------------------------
# sum rules

def _diagonal_composite(phi: FnObject, psi: FnObject, x) -> Composite:
    """phi + psi = theta o f with theta(y,z) = phi(y)+psi(z), f(x) = (x,x)."""
    n = phi.n
    names = [f"x{i+1}" for i in range(n)]
    f = SmoothMap.from_strings(names + names, names)
    return Composite(SeparableSumFn(phi, psi), f, x)


def sum_subderivative(phi: FnObject, psi: FnObject, x, u, seed=0) -> SubderivativeValue:
    """d(phi+psi)(x)(u) = d phi(x)(u) + d psi(x)(u) under a tangential or metric QC."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    flags = []
    dphi_p, dpsi_p = phi.dom_pieces(), psi.dom_pieces()
    if dphi_p is None or dpsi_p is None:
        flags.append("tangential-QC:trivial")  # one domain is the whole space
    else:
        ok = _tangential_qc_exact(dphi_p, dpsi_p, x)
        flags.append("tangential-QC:exact" if ok else "QCUnverified")
    d1 = subderivative(phi, x, u, seed=seed)
    if d1.value == INF:
        return SubderivativeValue(INF, d1.mode, flags=flags + d1.flags)
    d2 = subderivative(psi, x, u, seed=seed)
    if d2.value == INF:
        return SubderivativeValue(INF, d2.mode, flags=flags + d2.flags)
    mode = "analytic" if d1.mode == d2.mode == "analytic" else "sampled"
    return SubderivativeValue(d1.value + d2.value, mode, flags=flags)


def _tangential_qc_exact(pieces_a, pieces_b, x, tol=1e-9):
    """T_{A cap B}(x) = T_A(x) cap T_B(x), piece by piece (exact for polyhedra)."""
    for P in pieces_a:
        if not P.contains(x):
            continue
        for Q in pieces_b:
            if not Q.contains(x):
                continue
            inter = Polyhedron.intersection(P, Q)
            T_inter = tangent_cone(inter, x)
            TP = tangent_cone(P, x)
            TQ = tangent_cone(Q, x)
            both = PolyhedralCone.from_halfspaces(
                np.vstack([TP.G, TQ.G]), np.vstack([TP.H, TQ.H]), n=P.n
            )
            if not T_inter.same_set(both):
                return False
    return True


def sum_subdifferential(phi: FnObject, psi: FnObject, x) -> SubdifferentialSet:
    """Minkowski sum of subdifferentials; both summands Lipschitz + regular."""
    for fn in (phi, psi):
        if isinstance(fn, IndicatorFn):
            raise NonconvexUnsupportedError(
                "indicator summand is not locally Lipschitz; use the chain route"
            )
        if isinstance(fn, PLQFunction) and not _plq_locally_lipschitz_at(fn, x):
            raise NonconvexUnsupportedError("PLQ summand not Lipschitz at the point")
    return subdifferential(phi, x).minkowski(subdifferential(psi, x))


# ---------------------------------------------------------------------------
# qualification conditions

def sampled_tangent_directions(c: Composite, count=12, radius=1e-3, seed=0):
    """Unit directions toward nearby feasible points of Omega = f^{-1}(dom theta)."""
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(count * 3):
        if len(dirs) >= count:
            break
        z = c.xbar + radius * rng.standard_normal(c.n)
        w = oracle.project(z)
        d = w - c.xbar
        nd = float(np.linalg.norm(d))
        if nd > 1e-2 * radius and oracle.violation(w) <= geo.TOL_FEAS * 10:
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


def abadie_check(c: Composite, samples=10, tol=1e-2, seed=0, t_grid=None,
                 directions=None) -> CQReport:
    """AQC: tangents of Omega = f^{-1}(dom theta) match the linearized cone.

    The linearized cone is exact (polyhedral preimage); the tangent side is
    sampled: every linearized direction must pass the derivability ratio
    test on Omega, and sampled feasible directions must linearize (the
    always-true inclusion, asserted numerically).
    """
    J = c.f.jacobian(c.xbar)
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    notes = []
    dirs = list(directions) if directions is not None else []
    dirs += _linearized_cone_generators(c, J)
    # sampled tangents toward nearby feasible points always linearize;
    # in oracle mode they are the only reachable source of directions
    sampled = sampled_tangent_directions(c, count=6, seed=seed + 1)
    for d in sampled:
        if c.tangent_member(J @ d, tol=1e-6):
            dirs.append(d)
    tries = 0
    while len(dirs) < samples and tries < samples * 80:
        tries += 1
        u = rng.standard_normal(c.n)
        u /= np.linalg.norm(u)
        if c.tangent_member(J @ u):
            dirs.append(u)
    if t_grid is None:
        # floored: below t ~ 1e-3 quadratic violations drop under tol_feas
        # and membership tolerance would fake derivability
        t_grid = [1e-1 * 0.5 ** j for j in range(8)]
    witness = None
    inconclusive = False
    skipped = 0
    for u in dirs:
        rep = geo.derivability_check(oracle, c.xbar, u, t_grid=t_grid, tol_deriv=tol)
        skipped += rep.skipped
        if rep.max_tail_ratio > 10 * tol:
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
        return CQReport("Abadie", INCONCLUSIVE, samples=len(dirs), notes=notes)
    return CQReport("Abadie", VERIFIED, samples=len(dirs), confidence="sampling", notes=notes)


def msqc_estimate(c: Composite, radius=0.5, samples=30, seed=0) -> CQReport:
    """Estimate the metric subregularity modulus dist(x;Omega) <= kappa dist(f(x);dom).

    kappa_hat is the max sampled ratio; VERIFIED when the ratios are stable
    under two radius halvings (growth < 10%), divergence-flagged REFUTED-style
    when kappa_hat roughly doubles at each halving.
    """
    oracle = feasible_set_oracle(c)

    def ratio(z):
        # a violation above FEASIBLE_SAMPLE already makes z infeasible; an
        # infinite one puts z outside dom f, where there is no ratio
        denom = oracle.violation(z)
        if not FEASIBLE_SAMPLE < denom < INF:
            return None
        return float(np.linalg.norm(z - oracle.project(z))) / denom

    return ratio_stability_estimate("MSQC", ratio, c.xbar, radius, samples, seed)


def ratio_stability_estimate(condition, ratio_fn, xbar, radius, samples, seed) -> CQReport:
    """Shared max-ratio scheme: kappa_hat over shells [r/2, r] at three radii.

    ``ratio_fn(z)`` is a sample's ratio dist(z; set) / violation(z), or None
    when the violation is at most FEASIBLE_SAMPLE (the sample is not used).
    Shell sampling keeps the estimator's scale tied to the radius so that
    halvings reveal genuine divergence; full-ball sampling is heavy-tailed
    and can mask it.
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
        return CQReport(condition, VERIFIED, kappa_hat=0.0, samples=used,
                        notes=["no infeasible samples: the feasible set is locally everything"])
    if kappa_hat == INF:
        return CQReport(condition, INCONCLUSIVE, witness=worst_point, kappa_hat=kappa_hat,
                        samples=used, notes=["an infeasible sample has zero slope"])
    g1 = k2 / k1 if k1 > 0 else INF
    g2 = k3 / k2 if k2 > 0 else INF
    if g1 < 1.1 and g2 < 1.1:
        return CQReport(condition, VERIFIED, kappa_hat=kappa_hat, samples=used,
                        confidence="sampling")
    if g1 >= 1.5 and g2 >= 1.5 and g1 * g2 >= 3.0:
        return CQReport(condition, REFUTED, witness=worst_point, kappa_hat=kappa_hat,
                        samples=used, diverging=True,
                        notes=["kappa doubles under radius halving",
                               f"worst sampled ratio {worst_ratio:.4g}"])
    return CQReport(condition, INCONCLUSIVE, kappa_hat=kappa_hat, samples=used)


def robinson_check(c: Composite, eps_scale=1e-3) -> CQReport:
    """0 in int{ f(xbar) + J X - dom theta }, via 2m LP feasibility certificates."""
    pieces = c.dom_theta_pieces()
    if pieces is None:
        return CQReport("Robinson", VERIFIED, confidence="exact",
                        notes=["dom theta is the whole space"])
    J = c.f.jacobian(c.xbar)
    m, n = c.m, c.n
    eps = eps_scale * (1.0 + float(np.linalg.norm(c.ybar)))
    notes = []
    if len(pieces) > 1:
        notes.append("dom theta is a union; per-direction piece choice")
    for j in range(m):
        for sgn in (1.0, -1.0):
            target = sgn * eps * np.eye(m)[j] - c.ybar
            ok = False
            for P in pieces:
                # variables (u, w): J u - w = target, w in P
                A_eq = np.hstack([J, -np.eye(m)])
                A_ineq = np.hstack([np.zeros((P.A_ineq.shape[0], n)), P.A_ineq])
                A_eq2 = np.hstack([np.zeros((P.A_eq.shape[0], n)), P.A_eq])
                A = np.vstack([A_eq, A_ineq, A_eq2])
                b = np.concatenate([target, P.b_ineq, P.b_eq])
                senses = ["="] * m + ["<="] * P.A_ineq.shape[0] + ["="] * P.A_eq.shape[0]
                sol = lp_solve(LPProblem(c=np.zeros(n + m), A=A, b=b, senses=senses))
                if sol.status == OPTIMAL:
                    ok = True
                    break
            if not ok:
                w = sgn * np.eye(m)[j]
                return CQReport("Robinson", REFUTED, witness=w, confidence="exact",
                                notes=notes + [f"direction {w} unreachable at eps={eps:.1e}"])
    return CQReport("Robinson", VERIFIED, confidence="exact", notes=notes)


def guignard_check(c: Composite) -> CQReport:
    """Polyhedral Guignard comparison, exact only for affine f and polyhedral dom."""
    pieces = c.dom_theta_pieces()
    J = c.f.jacobian(c.xbar)
    probe = c.xbar + 0.37 * np.ones(c.n)
    affine = np.allclose(c.f.jacobian(probe), J, atol=1e-10)
    if pieces is None or len(pieces) != 1 or not affine:
        return CQReport("Guignard", NOT_APPLICABLE,
                        notes=["assessed only for affine f with one polyhedral dom piece"])
    Theta = pieces[0]
    f0 = c.ybar - J @ c.xbar
    Omega = Polyhedron(
        Theta.A_ineq @ J, Theta.b_ineq - Theta.A_ineq @ f0,
        Theta.A_eq @ J, Theta.b_eq - Theta.A_eq @ f0, n=c.n,
    )
    lhs = tangent_cone(Omega, c.xbar).polar()
    N = normal_cone(Theta, c.ybar)
    rays, lines = N.ensure_generators()
    rhs = PolyhedralCone.from_generators(
        rays @ J if rays.shape[0] else np.zeros((0, c.n)),
        lines @ J if lines.shape[0] else np.zeros((0, c.n)),
        n=c.n,
    )
    if lhs.same_set(rhs):
        return CQReport("Guignard", VERIFIED, confidence="exact")
    return CQReport("Guignard", REFUTED, confidence="exact")


# ---------------------------------------------------------------------------
# normals to inverse images, robustness, prox-regularity

@dataclass
class BoundCheck:
    lam: np.ndarray
    lam_norm: float
    bound: float
    ok: bool


def normal_cone_inverse_image(c: Composite, kappa):
    """(J^T N_Theta(ybar) in generator form, checker for ||lambda|| <= kappa ||v||)."""
    pieces = c.dom_theta_pieces()
    if pieces is None or len(pieces) != 1:
        raise NonconvexUnsupportedError("requires a single polyhedral dom-theta piece")
    Theta = pieces[0]
    J = c.f.jacobian(c.xbar)
    N = normal_cone(Theta, c.ybar)
    gens, lines = N.ensure_generators()
    mapped = PolyhedralCone.from_generators(
        gens @ J if gens.shape[0] else np.zeros((0, c.n)),
        lines @ J if lines.shape[0] else np.zeros((0, c.n)),
        n=c.n,
    )

    def bound_checker(v, tol=1e-6):
        v = np.asarray(v, dtype=float)
        r, l = gens.shape[0], lines.shape[0]
        if r + l == 0:
            if float(np.linalg.norm(v)) <= 1e-10:
                return BoundCheck(np.zeros(c.m), 0.0, kappa * float(np.linalg.norm(v)), True)
            raise InfeasibleWitnessError("normal cone is {0} but v is nonzero")
        fit = conic_fit(v, J.T @ gens.T, J.T @ lines.T, tiebreak=True)
        if fit is None:
            raise InfeasibleWitnessError("v admits no representation over the mapped cone")
        lam = np.zeros(c.m)
        if r:
            lam += gens.T @ fit.w
        if l:
            lam += lines.T @ fit.mu
        lam_norm = float(np.linalg.norm(lam))
        bound = kappa * float(np.linalg.norm(v))
        return BoundCheck(lam, lam_norm, bound, lam_norm <= bound + tol * (1.0 + bound))

    return mapped, bound_checker


@dataclass
class RobustnessReport:
    status: str
    max_violation: float = None
    sequences: int = 0
    notes: list = field(default_factory=list)


def robustness_check(c: Composite, kappa=None, sequences=5, levels=16, seed=0,
                     r0=1e-2) -> RobustnessReport:
    """Limits of nearby subnormals stay in the subnormal cone at xbar.

    Samples feasible points x_k -> xbar with normals v_k built from the
    mapped active generators; the tail average of each normalized sequence
    is tested for membership in J(xbar)^T N_Theta(ybar) by an LP residual.
    """
    pieces = c.dom_theta_pieces()
    if kappa is None:
        return RobustnessReport(NOT_APPLICABLE, notes=["no subamenability modulus supplied"])
    if pieces is None or len(pieces) != 1:
        return RobustnessReport(NOT_APPLICABLE, notes=["needs one polyhedral dom piece"])
    Theta = pieces[0]
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    Jbar = c.f.jacobian(c.xbar)
    gens_bar = Theta.A_ineq[Theta.active_rows(c.ybar, tol_active=1e-5)]
    lines_bar = Theta.A_eq
    max_violation = 0.0
    done = skipped = 0
    for _ in range(sequences * 3):
        if done >= sequences:
            break
        d = rng.standard_normal(c.n)
        d /= np.linalg.norm(d)
        if oracle.feasible(c.xbar + r0 * d):
            d = -d
            if oracle.feasible(c.xbar + r0 * d):
                continue  # interior direction pair: nothing to test
        weights = rng.random(max(1, Theta.A_ineq.shape[0]))
        eq_weights = rng.normal(size=Theta.A_eq.shape[0]) if Theta.A_eq.shape[0] else None
        tail = []
        for k in range(levels):
            r = r0 * 2.0 ** (-k)
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
    """min ||J^T lambda - v||_inf over lambda in cone(gens) + span(lines)."""
    n = J.shape[1]
    r, l = gens.shape[0], lines.shape[0]
    ncols = r + 2 * l + 1
    A = np.zeros((2 * n, ncols))
    cols = []
    if r:
        cols.append((J.T @ gens.T, 0))
    if l:
        cols.append((J.T @ lines.T, r))
        cols.append((-(J.T @ lines.T), r + l))
    for M, off in cols:
        A[:n, off:off + M.shape[1]] = M
        A[n:, off:off + M.shape[1]] = -M
    A[:n, -1] = -1.0
    A[n:, -1] = -1.0
    b = np.concatenate([v, -v])
    cost = np.zeros(ncols)
    cost[-1] = 1.0
    sol = lp_solve(LPProblem(c=cost, A=A, b=b, senses=["<="] * (2 * n),
                             bounds=[(0.0, None)] * ncols))
    if sol.status != OPTIMAL:
        return INF
    return float(sol.objective)


@dataclass
class ProxRegularityReport:
    status: str
    r_hat: float = None
    r_hat_half: float = None
    r_theory: float = None
    passed: bool = False
    notes: list = field(default_factory=list)


def prox_regularity_check(c: Composite, radius=0.3, samples=40, seed=0, kappa=None,
                          fd_step=1e-4) -> ProxRegularityReport:
    """Estimate the prox-regularity constant <v, u - x> <= r ||u - x||^2.

    Sampled over feasible pairs and unit normals; passes when the estimate
    is finite and stable under sample doubling.  A curvature-based bound
    gamma*beta from finite-difference Hessians is reported alongside.
    """
    pieces = c.dom_theta_pieces()
    if kappa is None:
        return ProxRegularityReport(NOT_APPLICABLE, notes=["no subamenability modulus supplied"])
    if pieces is None or len(pieces) != 1:
        return ProxRegularityReport(NOT_APPLICABLE, notes=["needs one polyhedral dom piece"])
    Theta = pieces[0]
    oracle = feasible_set_oracle(c)
    rng = np.random.default_rng(seed)
    pts = []
    skipped = 0
    for _ in range(samples):
        z = c.xbar + radius * rng.standard_normal(c.n)
        w = oracle.project(z)
        v = oracle.violation(w)
        skipped += v == INF
        if v <= geo.TOL_FEAS * 10:
            pts.append(_refine_onto_facets(c, Theta, w))
    notes = [f"{skipped} samples outside dom f skipped"] if skipped else []
    ratios = []
    for x in pts:
        y = c.f.eval(x)
        # points are GN-polished to ~1e-12 feasibility; only genuinely touched
        # faces may contribute normals, else tolerance-fake normals leak in
        act = Theta.active_rows(y, tol_active=1e-9)
        if not act:
            continue
        Jx = c.f.jacobian(x)
        for _ in range(3):
            lam = np.zeros(c.m)
            for i in act:
                lam += rng.random() * Theta.A_ineq[i]
            if Theta.A_eq.shape[0]:
                lam += Theta.A_eq.T @ rng.normal(size=Theta.A_eq.shape[0])
            v = Jx.T @ lam
            nv = float(np.linalg.norm(v))
            if nv <= 1e-12:
                continue
            v /= nv
            for u in pts:
                den = float(np.dot(u - x, u - x))
                if den > 1e-4:
                    ratios.append(max(0.0, float(v @ (u - x)) / den))
    if not ratios:
        return ProxRegularityReport(NOT_APPLICABLE, notes=["no boundary normals sampled"] + notes)
    r_half = max(ratios[: len(ratios) // 2]) if len(ratios) >= 2 else max(ratios)
    r_hat = max(ratios)
    stable = r_hat <= max(2.0 * r_half, r_half + 0.1)
    beta = _max_hessian_norm(c, fd_step)
    r_theory = kappa * beta
    return ProxRegularityReport(VERIFIED if stable else INCONCLUSIVE, r_hat=r_hat,
                                r_hat_half=r_half, r_theory=r_theory, passed=stable, notes=notes)


def _refine_onto_facets(c: Composite, Theta: Polyhedron, x, band=1e-4):
    """Newton-pull rows that are almost active onto their facets exactly.

    Feasibility restoration may stop a hair inside the set; normals exist
    only at exactly-touched faces, so near-active rows are driven to zero
    residual (and the point is kept only if it stays feasible).
    """
    x = np.asarray(x, dtype=float).copy()
    for i in range(Theta.A_ineq.shape[0]):
        y = c.f.eval(x)
        res = float(Theta.A_ineq[i] @ y - Theta.b_ineq[i])
        if -band <= res < -1e-12:
            xt = x.copy()
            ok = False
            for _ in range(6):
                yt = c.f.eval(xt)
                g = float(Theta.A_ineq[i] @ yt - Theta.b_ineq[i])
                if abs(g) <= 1e-13:
                    ok = True
                    break
                grad = Theta.A_ineq[i] @ c.f.jacobian(xt)
                gg = float(grad @ grad)
                if gg < 1e-18:
                    break
                xt = xt - (g / gg) * grad
            if ok and c.dist_dom(c.f.eval(xt)) <= 1e-9:
                x = xt
    return x


def _max_hessian_norm(c: Composite, h):
    """Max spectral norm of component Hessians by central differences of the Jacobian."""
    from .solvers import eigh

    n = c.n
    worst = 0.0
    for k in range(c.m):
        H = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            Jp = c.f.jacobian(c.xbar + e)
            Jm = c.f.jacobian(c.xbar - e)
            H[:, j] = (Jp[k] - Jm[k]) / (2 * h)
        H = 0.5 * (H + H.T)
        w, _ = eigh(H)
        worst = max(worst, float(np.max(np.abs(w))))
    return worst
