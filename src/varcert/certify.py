"""Stationarity certification for: minimize objective(x) subject to f(x) in Theta.

Both certificate kinds read one least-norm fit of J^T lambda = -grad over
N_Theta(f(xbar)) (``_fit``), which answers both sides of one Farkas
alternative.  A multiplier is the primal certificate's witness that no
linearized feasible direction descends, and the dual KKT certificate checks
||lambda|| <= kappa ||grad|| (ell*kappa for piecewise objectives) on it.
Without one, both kinds store the fit's descent direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import calculus as calc
from .calculus import INCONCLUSIVE, REFUTED, VERIFIED
from .errors import (
    DimensionMismatchError,
    InfeasiblePointError,
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
from .geometry import Polyhedron
from .solvers import least_norm_multiplier

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
    """(x as floats, the jet of f at x, which holds f(x) and J(x)), when
    f(x) lies in Theta."""
    x = np.asarray(x, dtype=float)
    jet = p.f.jet(x)
    if not p.Theta.contains(jet.values):
        raise InfeasiblePointError(
            f"f(x) violates Theta by {p.Theta.residual(jet.values):.3e}"
        )
    return x, jet


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
    """No linearized feasible direction descends.  VERIFIED stores the fit's
    multiplier; no bound is claimed, so the ladder stops at its RESIDUAL
    rung.  REFUTED stores the fit's descent witness."""
    cert, *_ = _fit(p, xbar, "Primal", seed)
    if cert.descent_witness is not None:
        return cert
    status, detail = verdict(cert.residual, cert.bound_lhs, np.inf)
    return replace(cert, status=status, detail=detail, bound_lhs=None,
                   notes=[f"least-norm multiplier residual {cert.residual:.3e}"])


KAPPA_COMPUTED = "computed (coderivative criterion)"


def resolve_kappa(kappa, estimate):
    """(kappa value or None, its source, estimator report or None).

    A number is taken as asserted; otherwise ``estimate()`` runs and its
    kappa_hat is used when the report is VERIFIED (1 for a kappa_hat of 0).
    A sampled kappa_hat is a lower estimate of a supremum; where nlp's
    coderivative criterion gives c > 0, ``dual_certificate`` computes kappa
    instead and does not call this."""
    if isinstance(kappa, (int, float)):
        return float(kappa), "user-asserted", None
    rep = estimate()
    if rep.verdict == VERIFIED and rep.kappa_hat is not None:
        return (rep.kappa_hat if rep.kappa_hat > 0 else 1.0), \
            "estimated (sampling-confidence)", rep
    return None, "unavailable", rep


def verdict(residual, lhs, rhs):
    """(status, detail) of a dual certificate, by the ladder RESIDUAL ->
    KAPPA_UNAVAILABLE -> BOUND_EXCEEDED -> VERIFIED shared by nlp, sip and
    sdp, on TOL_STAT and TOL_BOUND.  ``rhs`` is None when no kappa is available;
    the bound's tolerance is relative to rhs.  A NaN residual, lhs or rhs fails its rung."""
    if not residual <= TOL_STAT:
        return INCONCLUSIVE, "RESIDUAL"
    if rhs is None:
        return INCONCLUSIVE, "KAPPA_UNAVAILABLE"
    if not lhs <= rhs + TOL_BOUND * (1.0 + rhs):
        return REFUTED, "BOUND_EXCEEDED"
    return VERIFIED, None


def no_multiplier_certificate(kind, point, seed, note, witness=None) -> Certificate:
    """REFUTED NO_MULTIPLIER as every issuer returns it: it claims no residual,
    bound or tolerance; ``witness``, if any, is a descent direction."""
    return Certificate(kind=kind, status=REFUTED, detail="NO_MULTIPLIER", point=point,
                       descent_witness=witness, seed=seed, notes=[note])


def checked(found):
    """The values of a condition function's (failures, *values); a failure
    raises, so no certificate is issued that its checker rejects."""
    failures, *values = found
    if failures:
        raise NumericalBreakdownError("the witness fails its own check: " + "; ".join(failures))
    return values


def kkt_conditions(p: ConstrainedProblem, y, J, g, lam, w, ab):
    """(failures, residual, lhs) of a DualKKT certificate, from the image
    y = f(x), the Jacobian J and the objective gradient g at its point.

    y is in Theta, the weights w >= 0 (one per row of A_ineq) are
    complementary to its slack, and lam = A_ineq^T w + A_eq^T (a - b) for the
    equality weights ab = (a, b).  residual is ||g + J^T lam||, lhs ||lam||.
    The slack of a y outside Theta, which may not be finite, is not read."""
    Th = p.Theta
    failures = []
    feasible = Th.contains(y)
    if not feasible:
        failures.append(f"infeasible point: residual {Th.residual(y):.3e}")
    if np.any(w < -TOL_CONE):
        failures.append("negative generator weight")
    l = Th.A_eq.shape[0]
    lam_hat = Th.A_ineq.T @ w if len(w) else np.zeros(p.m)
    if l:
        lam_hat = lam_hat + Th.A_eq.T @ (ab[:l] - ab[l:])
    if float(np.linalg.norm(lam_hat - lam)) > TOL_CONE * (1.0 + np.linalg.norm(lam)):
        failures.append("multiplier is not the recorded conic combination")
    if feasible and len(w) and float(np.max(w * (Th.b_ineq - Th.A_ineq @ y))) > \
            1e-6 * (1.0 + float(np.max(np.abs(w)))):
        failures.append("complementary slackness violated")
    return failures, float(np.linalg.norm(g + J.T @ lam)), float(np.linalg.norm(lam))


def descent_conditions(p: ConstrainedProblem, y, J, grads, d):
    """(failures, descent) of a descent witness d, from the image y = f(x),
    the Jacobian J and the objective gradients at its point (one, or the
    active pieces' of a PLQ objective): y is in Theta, J d is in the
    linearized cone to TOL_STAT (1 + ||J d||), and descent = -max <g, d>
    exceeds TOL_STAT.  A y outside Theta has no linearized cone to test."""
    Th = p.Theta
    if not Th.contains(y):
        failures = [f"infeasible point: residual {Th.residual(y):.3e}"]
    else:
        failures, v = [], J @ d
        rows = np.vstack([Th.A_ineq[Th.active_rows(y)], Th.A_eq, -Th.A_eq])
        if float(np.max(rows @ v, initial=-np.inf)) > TOL_STAT * (1.0 + float(np.linalg.norm(v))):
            failures.append("descent witness leaves the linearized cone")
    descent = -max(float(g @ d) for g in grads)
    if not descent > TOL_STAT:  # a NaN fails
        failures.append(f"descent witness does not descend: slope {-descent:.3e}")
    return failures, descent


def _fit(p: ConstrainedProblem, xbar, kind, seed):
    """(certificate, objective gradients, jet of f at xbar): the lam of least
    Euclidean norm in N_Theta(ybar) with J^T lam = -g and bound_lhs ||lam||,
    no status yet; or REFUTED, when there is none, with
    least_norm_multiplier's Farkas direction at max-norm 1 as descent_witness
    and its descent as residual."""
    xbar, jet = _check_feasible(p, xbar)
    ybar, J = jet.values, jet.jacobian()
    act, E = p.Theta.active_rows(ybar), p.Theta.A_eq
    r, l = len(act), len(E)
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
    fit = least_norm_multiplier(Jx, target, p.Theta.A_ineq[act].T, E.T, extra=cols, tol=TOL_STAT)
    cert = Certificate(kind=kind, status=None, point=xbar, tolerances={"tol_stat": TOL_STAT},
                       seed=seed)
    if not isinstance(fit, tuple):  # the witness is the x part of the direction
        d = fit[:p.n] / float(np.max(np.abs(fit[:p.n])))
        (descent,) = checked(descent_conditions(p, ybar, J, grads, d))
        return replace(cert, status=REFUTED, descent_witness=d, residual=descent,
                       notes=[f"descent slope {-descent:.3e} along the witness"]), grads, jet
    z, lam = fit
    grad_used = grads[0] if cols is None else cols[:-1] @ z[r + 2 * l:]
    ab, gen_weights = z[r:r + 2 * l], np.zeros(p.Theta.A_ineq.shape[0])
    gen_weights[act] = z[:r]
    residual, lhs = checked(kkt_conditions(p, ybar, J, grad_used, lam, gen_weights, ab))
    return replace(cert, multipliers=lam, generator_weights=gen_weights,
                   eq_weights=ab if l else None, residual=residual, bound_lhs=lhs), grads, jet


def dual_certificate(p: ConstrainedProblem, xbar, kappa="estimate", seed=42) -> Certificate:
    """Recover the lambda of least Euclidean norm in N_Theta(ybar) with
    J^T lambda = -g, and check the bounded-multiplier estimate on it; kappa
    is resolved after the fit, so no multiplier (REFUTED NO_MULTIPLIER, with
    the fit's descent witness), no estimate.  Unless kappa is asserted, the
    coderivative criterion's c > 0 gives the computed kappa = (1 +
    KAPPA_MARGIN) / c, just above reg F = 1/c (1 for c = inf), with no
    sampling; otherwise ``msqc_estimate`` samples it."""
    cert, grads, jet = _fit(p, xbar, "DualKKT", seed)
    if cert.descent_witness is not None:
        return no_multiplier_certificate("DualKKT", cert.point, seed, "stationarity system "
                                         "infeasible: not dual-stationary", cert.descent_witness)
    found = None if isinstance(kappa, (int, float)) else \
        calc.coderivative_of(jet, p.Theta, jet.values, p.Theta.active_rows(jet.values))
    if found is not None and found[0] > 0.0:
        kappa_val = (1.0 + calc.KAPPA_MARGIN) / found[0] if np.isfinite(found[0]) else 1.0
        kappa_source, notes = KAPPA_COMPUTED, [calc.criterion_note(found[0])]
    else:
        kappa_val, kappa_source, rep = resolve_kappa(kappa, lambda: calc.msqc_estimate(
            calc.Composite(IndicatorFn(p.Theta), p.f, cert.point), seed=seed))
        notes = []
        if rep is not None:
            notes.append(f"msqc_estimate kappa_hat={rep.kappa_hat:.4g}" if kappa_val is not None
                         else f"msqc_estimate verdict {rep.verdict}")
    if isinstance(p.objective, SmoothFn):
        scale = float(np.linalg.norm(grads[0]))
        bound_rule = "kappa*||grad objective|| (enhanced estimate)"
    else:
        scale = rel_lipschitz_estimate(p.objective, cert.point, radius=0.5, seed=seed)
        bound_rule = "ell*kappa with sampled relative Lipschitz ell"
    bound_rhs = kappa_val * scale if kappa_val is not None else None
    status, detail = verdict(cert.residual, cert.bound_lhs, bound_rhs)
    return replace(cert, status=status, detail=detail, bound_rhs=bound_rhs, kappa=kappa_val,
                   kappa_source=kappa_source, bound_rule=bound_rule,
                   tolerances={"tol_stat": TOL_STAT, "tol_cone": TOL_CONE,
                               "tol_bound": TOL_BOUND}, notes=notes)
