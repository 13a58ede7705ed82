"""Stationarity certification for: minimize objective(x) subject to f(x) in Theta.

Two certificate kinds: the primal descent-cone test (no linearized
feasible direction is a descent direction) and the dual KKT certificate
with the bounded-multiplier estimate ||lambda|| <= kappa ||grad|| (or
ell*kappa for piecewise objectives).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import calculus as calc
from .calculus import INCONCLUSIVE, REFUTED, VERIFIED
from .errors import (
    DimensionMismatchError,
    InfeasiblePointError,
    NoMultiplierError,
    NonconvexUnsupportedError,
    NumericalBreakdownError,
)
from .expr import SmoothMap
from . import funcspace as fs
from .funcspace import (
    FnObject,
    IndicatorFn,
    PLQFunction,
    SmoothFn,
    rel_lipschitz_estimate,
)
from .geometry import Polyhedron, tangent_cone
from .solvers import OPTIMAL, LPProblem, least_norm_multiplier, lp_solve

TOL_STAT = 1e-7
TOL_CONE = 1e-8
TOL_BOUND = 1e-6


@dataclass
class ConstrainedProblem:
    objective: FnObject  # SmoothFn or convex PLQFunction
    f: SmoothMap
    Theta: Polyhedron

    def __post_init__(self):
        if self.objective.n != self.f.n:
            raise DimensionMismatchError("objective and constraint map disagree on n")
        if self.Theta.n != self.f.m:
            raise DimensionMismatchError("Theta must live in the image space of f")

    @property
    def n(self):
        return self.f.n

    @property
    def m(self):
        return self.f.m


@dataclass
class Certificate:
    kind: str
    status: str
    detail: str = None
    point: np.ndarray = None
    multipliers: np.ndarray = None
    generator_weights: np.ndarray = None
    eq_weights: np.ndarray = None
    atoms: list = None
    eq_atoms: list = None
    residual: float = None
    bound_lhs: float = None
    bound_rhs: float = None
    kappa: float = None
    kappa_source: str = None
    bound_rule: str = None
    descent_witness: np.ndarray = None
    tolerances: dict = field(default_factory=dict)
    seed: int = None
    notes: list = field(default_factory=list)


def _check_feasible(p: ConstrainedProblem, x):
    x = np.asarray(x, dtype=float)
    y = p.f.eval(x)
    if not p.Theta.contains(y):
        raise InfeasiblePointError(
            f"f(x) violates Theta by {p.Theta.residual(y):.3e}"
        )
    return x, y


def _objective_gradients(p: ConstrainedProblem, x):
    """Gradient candidates of the objective at x: one for smooth, the active
    piece gradients (plus a domain-interior requirement) for convex PLQ."""
    if isinstance(p.objective, SmoothFn):
        return [p.objective.gradient(x)], "smooth"
    if isinstance(p.objective, PLQFunction):
        plq = p.objective
        if not plq.is_convex():
            raise NonconvexUnsupportedError("dual certification needs a convex PLQ objective")
        active = plq.active_pieces(x)
        if not active:
            raise InfeasiblePointError("x outside dom(objective)")
        return [piece.grad(x) for piece in active], "plq"
    raise NonconvexUnsupportedError(
        f"objective of type {type(p.objective).__name__} is not certifiable"
    )


def primal_check(p: ConstrainedProblem, xbar, seed=42) -> Certificate:
    """No linearized feasible direction descends: min <g,u> over the
    linearized cone (boxed) is >= -tol."""
    xbar, ybar = _check_feasible(p, xbar)
    T = tangent_cone(p.Theta, ybar)
    J = p.f.jacobian(xbar)
    G = T.G @ J if T.G.shape[0] else np.zeros((0, p.n))
    H = T.H @ J if T.H.shape[0] else np.zeros((0, p.n))
    grads, obj_kind = _objective_gradients(p, xbar)
    worst = (0.0, None)
    for gi, g in enumerate(grads):
        rows = [G, H]
        senses = ["<="] * G.shape[0] + ["="] * H.shape[0]
        if obj_kind == "plq":
            # restrict to directions staying in the active piece of the objective
            piece = p.objective.active_pieces(xbar)[gi]
            Tp = tangent_cone(piece.omega, xbar)
            rows += [Tp.G, Tp.H]
            senses += ["<="] * Tp.G.shape[0] + ["="] * Tp.H.shape[0]
        A = np.vstack([M for M in rows if M.shape[0]]) if any(M.shape[0] for M in rows) \
            else np.zeros((0, p.n))
        b = np.zeros(A.shape[0])
        sol = lp_solve(LPProblem(c=g, A=A, b=b, senses=senses[: A.shape[0]],
                                 bounds=[(-1.0, 1.0)] * p.n))
        if sol.status != OPTIMAL:
            continue
        if sol.objective < worst[0]:
            worst = (sol.objective, sol.x)
    opt, witness = worst
    status = VERIFIED if opt >= -TOL_STAT else REFUTED
    return Certificate(
        kind="Primal", status=status, point=xbar,
        descent_witness=None if status == VERIFIED else witness,
        residual=max(0.0, -opt),
        tolerances={"tol_stat": TOL_STAT}, seed=seed,
        notes=[f"descent LP optimum {opt:.3e}"],
    )


def resolve_kappa(kappa, estimate):
    """(kappa value or None, its source, estimator report or None).

    A number is taken as asserted; otherwise ``estimate()`` runs and its
    kappa_hat is used when the report is VERIFIED."""
    if isinstance(kappa, (int, float)):
        return float(kappa), "user-asserted", None
    rep = estimate()
    if rep.verdict == VERIFIED and rep.kappa_hat is not None:
        return (rep.kappa_hat if rep.kappa_hat > 0 else 1.0), \
            "estimated (sampling-confidence)", rep
    return None, "unavailable", rep


def verdict(residual, lhs, rhs, tol_stat, tol_bound):
    """(status, detail) of a dual certificate, by the ladder RESIDUAL ->
    KAPPA_UNAVAILABLE -> BOUND_EXCEEDED -> VERIFIED shared by nlp, sip and
    sdp.  ``rhs`` is None when no kappa is available; the bound lhs <= rhs
    has a tolerance relative to rhs."""
    if residual > tol_stat:
        return INCONCLUSIVE, "RESIDUAL"
    if rhs is None:
        return INCONCLUSIVE, "KAPPA_UNAVAILABLE"
    if not lhs <= rhs + tol_bound * (1.0 + rhs):  # a NaN rhs fails
        return REFUTED, "BOUND_EXCEEDED"
    return VERIFIED, None


def checked(found):
    """(residual, lhs) of a condition function's (failures, residual, lhs);
    a failure raises, so no certificate is issued that its checker rejects."""
    failures, residual, lhs = found
    if failures:
        raise NumericalBreakdownError("the multiplier fails its own check: " + "; ".join(failures))
    return residual, lhs


def kkt_conditions(p: ConstrainedProblem, y, J, g, lam, w, ab):
    """(failures, residual, lhs) of a DualKKT certificate, from the image
    y = f(x), the Jacobian J and the objective gradient g at its point.

    y is in Theta, the weights w >= 0 (one per row of A_ineq) are
    complementary to its slack, and lam = A_ineq^T w + A_eq^T (a - b) for the
    equality weights ab = (a, b).  residual is ||g + J^T lam||, lhs ||lam||."""
    Th = p.Theta
    failures = []
    if not Th.contains(y):
        failures.append(f"infeasible point: residual {Th.residual(y):.3e}")
    if np.any(w < -TOL_CONE):
        failures.append("negative generator weight")
    l = Th.A_eq.shape[0]
    lam_hat = Th.A_ineq.T @ w if len(w) else np.zeros(p.m)
    if l:
        lam_hat = lam_hat + Th.A_eq.T @ (ab[:l] - ab[l:])
    if float(np.linalg.norm(lam_hat - lam)) > TOL_CONE * (1.0 + np.linalg.norm(lam)):
        failures.append("multiplier is not the recorded conic combination")
    if len(w) and float(np.max(w * (Th.b_ineq - Th.A_ineq @ y))) > \
            1e-6 * (1.0 + float(np.max(np.abs(w)))):
        failures.append("complementary slackness violated")
    return failures, float(np.linalg.norm(g + J.T @ lam)), float(np.linalg.norm(lam))


def dual_certificate(p: ConstrainedProblem, xbar, kappa="estimate", seed=42) -> Certificate:
    """Recover the lambda of least Euclidean norm in N_Theta(ybar) with
    J^T lambda = -g, and check the bounded-multiplier estimate on it."""
    xbar, ybar = _check_feasible(p, xbar)
    J = p.f.jacobian(xbar)
    kappa_val, kappa_source, rep = resolve_kappa(kappa, lambda: calc.msqc_estimate(
        calc.Composite(IndicatorFn(p.Theta), p.f, xbar), seed=seed))
    notes = []
    if rep is not None:
        notes.append(f"msqc_estimate kappa_hat={rep.kappa_hat:.4g}" if kappa_val is not None
                     else f"msqc_estimate verdict {rep.verdict}")

    act = p.Theta.active_rows(ybar)
    G_act = p.Theta.A_ineq[act] if act else np.zeros((0, p.m))
    E = p.Theta.A_eq
    r, l = G_act.shape[0], E.shape[0]
    grads, obj_kind = _objective_gradients(p, xbar)

    Jx, target, cols = J, -grads[0], None
    if obj_kind != "smooth":
        # J^T lam + g = 0 for some g in conv{piece gradients} + N_dom: the
        # hull and the N_dom rays and lines are equality columns outside the
        # norm, and the hull's sum(nu) = 1 is one more target row
        Gm = np.array(grads)  # (k, n)
        Ndom = fs._union_domain_normal_cone(
            [piece.omega for piece in p.objective.active_pieces(xbar)], xbar)
        dr, dl = Ndom.ensure_generators()
        cols = np.vstack([np.hstack([Gm.T, dr.T, dl.T, -dl.T]),
                          np.concatenate([np.ones(len(Gm)), np.zeros(len(dr) + 2 * len(dl))])])
        Jx, target = np.hstack([J, np.zeros((p.m, 1))]), np.append(np.zeros(p.n), 1.0)
    fit = least_norm_multiplier(Jx, target, G_act.T, E.T, extra=cols, tol=TOL_STAT)
    if fit is None:
        raise NoMultiplierError("stationarity system infeasible: not dual-stationary")
    z, lam = fit
    grad_used = grads[0] if cols is None else cols[:-1] @ z[r + 2 * l:]
    w, ab = z[:r], z[r:r + 2 * l]
    gen_weights = np.zeros(p.Theta.A_ineq.shape[0])
    gen_weights[act] = w
    residual, bound_lhs = checked(kkt_conditions(p, ybar, J, grad_used, lam, gen_weights, ab))
    if obj_kind == "smooth":
        scale = float(np.linalg.norm(grad_used))
        bound_rule = "kappa*||grad objective|| (enhanced estimate)"
    else:
        scale = rel_lipschitz_estimate(p.objective, xbar, radius=0.5, seed=seed)
        bound_rule = "ell*kappa with sampled relative Lipschitz ell"
    bound_rhs = kappa_val * scale if kappa_val is not None else None
    status, detail = verdict(residual, bound_lhs, bound_rhs, TOL_STAT, TOL_BOUND)
    return Certificate(kind="DualKKT", status=status, detail=detail, point=xbar,
                       multipliers=lam, generator_weights=gen_weights,
                       eq_weights=ab if l else None,
                       residual=residual, bound_lhs=bound_lhs, bound_rhs=bound_rhs,
                       kappa=kappa_val, kappa_source=kappa_source, bound_rule=bound_rule,
                       tolerances={"tol_stat": TOL_STAT, "tol_cone": TOL_CONE,
                                   "tol_bound": TOL_BOUND},
                       seed=seed, notes=notes)
