"""Semidefinite programs: min objective(x) s.t. Phi(x) <= 0 (PSD order), Psi(x) = 0.

Feasibility is the largest eigenvalue sigma^+(Phi(x)) plus the max-entry
norm of Psi(x).  Multiplier recovery places rank-one atoms s_i s_i^T on
the kernel of Phi(xbar) (complementarity forces them there) and solves an
LP for the weights, with the bound sum(lambda) + sum|mu_ij| <= 2 kappa
||grad objective||.  For m <= 3 the problem cross-validates against its
sphere-parameterized semi-infinite reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import expr as expr_mod
from .certify import Certificate, TOL_BOUND, TOL_STAT, checked, verdict
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InfeasiblePointError,
    NoMultiplierError,
    NotUnitError,
)
from .geometry import TOL_FEAS
from .sip import SIProblem, stationarity_atoms
from .solvers import eigh

# an atom s is a unit vector when | ||s|| - 1 | <= TOL_UNIT
TOL_UNIT = 1e-10


@dataclass
class SDProblem:
    n: int
    objective: expr_mod.Expr
    Phi: list  # m x m Expr grid, symmetric by construction
    Psi: list = None

    @classmethod
    def from_strings(cls, n, objective, Phi, Psi=None):
        """Build from string matrices; only the upper triangle is read, mirrored."""
        xnames = [f"x{i+1}" for i in range(n)]
        obj = expr_mod.parse(objective, xnames)

        def build(mat):
            if mat is None:
                return None
            m = len(mat)
            grid = [[None] * m for _ in range(m)]
            for i in range(m):
                if len(mat[i]) != m:
                    raise DimensionMismatchError("matrix of expressions must be square")
                for j in range(i, m):
                    grid[i][j] = expr_mod.parse(mat[i][j], xnames)
                    grid[j][i] = grid[i][j]
            return grid

        return cls(n=n, objective=obj, Phi=build(Phi), Psi=build(Psi))

    @property
    def m(self):
        return len(self.Phi)

    def grad_objective(self, x):
        return expr_mod.grad(self.objective, x)

    def phi_value(self, x) -> np.ndarray:
        return _values(self.Phi, x)

    def psi_value(self, x) -> np.ndarray:
        return None if self.Psi is None else _values(self.Psi, x)


def _values(M, x):
    """The symmetric matrix of the expression grid M's values at x, read from
    its upper triangle; x becomes a tuple once, which every entry shares."""
    m = len(M)
    A = np.zeros((m, m))
    v = tuple(x)
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = expr_mod.evaluate(M[i][j], v)
    return A


@dataclass
class FeasibilityReport:
    sigma_plus: float
    psi_max: float
    feasible: bool


def feasibility(p: SDProblem, x) -> FeasibilityReport:
    """sigma^+(Phi(x)) from the eigensolver plus the max-entry norm of Psi(x)."""
    return _feasibility(p, x, eigh(p.phi_value(np.asarray(x, dtype=float)))[0])


def _feasibility(p: SDProblem, x, w):
    """The report for the eigenvalues w of Phi(x), in descending order."""
    sigma_plus = max(0.0, float(w[0]))
    psi_max = 0.0
    B = p.psi_value(np.asarray(x, dtype=float))
    if B is not None:
        psi_max = float(np.max(np.abs(B)))
    return FeasibilityReport(sigma_plus=sigma_plus, psi_max=psi_max,
                             feasible=sigma_plus <= TOL_FEAS and psi_max <= TOL_FEAS)


def entry_grads(M, x):
    """(i, j) -> expr.grad of M[i][j] at x, each computed on first use."""
    x = np.asarray(x, dtype=float)
    return cache(lambda i, j: expr_mod.grad(M[i][j], x))


def grad_quadform(p: SDProblem, x, s) -> np.ndarray:
    """j-th component <s, (dPhi/dx_j)(x) s>, via entrywise expression gradients."""
    return quadforms(p, entry_grads(p.Phi, x), [s])[0]


def quadforms(p: SDProblem, phi_grads, atoms) -> np.ndarray:
    """Row k: grad <s, Phi s> at the point of the ``entry_grads`` table
    ``phi_grads``, for s = atoms[k], a unit vector.

    One sweep over the upper-triangle entries serves every atom.  Each row
    sums weight * grad over the entries in row-major order, skipping a zero
    weight, and an entry's gradient is computed only when some atom weighs it.
    """
    S = np.array(atoms, dtype=float).reshape(len(atoms), p.m)
    for s in S:
        if abs(float(np.linalg.norm(s)) - 1.0) > TOL_UNIT:
            raise NotUnitError(f"atom has norm {np.linalg.norm(s):.12f}")
    rows, cols = np.triu_indices(p.m)
    weights = S[:, rows] * S[:, cols] * np.where(rows == cols, 1.0, 2.0)
    live_atoms, live_entries = np.nonzero(weights)
    grads = np.zeros((len(rows), p.n))
    for e in np.unique(live_entries):
        grads[e] = phi_grads(int(rows[e]), int(cols[e]))
    terms = np.zeros((len(S), len(rows), p.n))
    terms[live_atoms, live_entries] = weights[live_atoms, live_entries, None] * grads[live_entries]
    # a zero-weight term is 0.0, which leaves a partial sum started at 0.0
    # unchanged (such a sum is never -0.0); accumulate starts at the first
    # term instead, which can only turn a final 0.0 into -0.0, and + 0.0
    # undoes that
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def _tol_ker(w):
    """The kernel tolerance for the eigenvalues w of Phi(x)."""
    return 1e-7 * (1.0 + float(np.max(np.abs(w))) if len(w) else 1.0)


def _kernel_atoms(w, V, seed):
    tol_ker = _tol_ker(w)
    kernel = [V[:, i] for i in range(len(w)) if abs(w[i]) <= tol_ker]
    atoms = [v / np.linalg.norm(v) for v in kernel]
    kdim = len(kernel)
    if kdim >= 2:
        rng = np.random.default_rng(seed)
        extra = 3 * math.comb(kdim, 2)
        for _ in range(extra):
            coef = rng.standard_normal(kdim)
            v = sum(c * k for c, k in zip(coef, kernel))
            nv = float(np.linalg.norm(v))
            if nv > 1e-12:
                atoms.append(v / nv)
    return atoms, tol_ker


def conditions(p: SDProblem, x, A, w, phi_grads, psi_grads, g0, atoms, psi_atoms):
    """(failures, residual, lhs) of an SDP certificate at x, from A = Phi(x),
    its eigenvalues w (descending), the ``entry_grads`` tables of Phi and Psi
    and the objective gradient g0.

    x is feasible (``_feasibility``), and each atom (s, lambda) has ||s|| = 1
    to ``TOL_UNIT``, lambda >= 0 and |<s, A s>| <= 10 tol_ker; an atom off
    the unit sphere settles the check, with residual and lhs inf.  residual
    is ||g0 + sum lambda grad<s,Phi s> + sum c_ij mu_ij grad Psi_ij|| and lhs
    is sum lambda + sum c_ij |mu_ij| over psi_atoms [((i, j), mu_ij)], c_ij =
    2 off the diagonal (Psi is symmetric)."""
    rep = _feasibility(p, x, w)
    failures = [] if rep.feasible else [
        f"infeasible point: sigma+ {rep.sigma_plus:.3e}, |Psi|max {rep.psi_max:.3e}"]
    tol_ker = _tol_ker(w)
    for s, lam in atoms:
        if abs(float(np.linalg.norm(s)) - 1.0) > TOL_UNIT:
            return failures + ["atom is not a unit vector"], math.inf, math.inf
        if lam < -1e-12:
            failures.append("negative atom weight")
        if abs(float(s @ A @ s)) > 10 * tol_ker:
            failures.append("complementarity violated for an atom")
    resid = g0.copy()
    total = 0.0
    for (_, lam), col in zip(atoms, quadforms(p, phi_grads, [s for s, _ in atoms])):
        resid = resid + lam * col
        total += lam
    for (i, j), mij in psi_atoms:
        factor = 1.0 if i == j else 2.0
        resid = resid + factor * mij * psi_grads(i, j)
        total += factor * abs(mij)
    return failures, float(np.linalg.norm(resid)), total


def certify(p: SDProblem, xbar, kappa, seed=42) -> Certificate:
    """Eigenvector-atom multiplier certificate with the 2*kappa bound."""
    xbar = np.asarray(xbar, dtype=float)
    Abar = p.phi_value(xbar)
    w, V = eigh(Abar)
    rep = _feasibility(p, xbar, w)
    if not rep.feasible:
        raise InfeasiblePointError(
            f"sigma+ {rep.sigma_plus:.3e}, |Psi|max {rep.psi_max:.3e}")
    g0 = p.grad_objective(xbar)
    atoms, tol_ker = _kernel_atoms(w, V, seed)
    phi_grads, psi_grads = entry_grads(p.Phi, xbar), entry_grads(p.Psi, xbar)
    lam_cols = list(quadforms(p, phi_grads, atoms))

    psi_entries = []
    psi_cols = []
    psi_costs = []
    if p.Psi is not None:
        mP = len(p.Psi)
        for i in range(mP):
            for j in range(i, mP):
                g = psi_grads(i, j)
                factor = 1.0 if i == j else 2.0
                psi_entries.append((i, j))
                psi_cols.append(factor * g)
                psi_costs.append(factor)

    lam_atoms, mu = [], {}
    if lam_cols or psi_cols:
        found = stationarity_atoms(atoms, lam_cols, -g0, psi_entries, psi_cols, psi_costs)
        if found is None:
            raise NoMultiplierError("stationarity system infeasible over kernel atoms")
        lam_atoms, mu = found
    elif float(np.linalg.norm(g0)) > TOL_STAT:
        raise NoMultiplierError("no kernel atoms and nonzero objective gradient")
    residual, total = checked(conditions(p, xbar, Abar, w, phi_grads, psi_grads, g0,
                                         lam_atoms, mu.items()))
    comp_worst = max([0.0] + [abs(float(s @ Abar @ s)) * wgt for s, wgt in lam_atoms])
    bound_rhs = 2.0 * kappa * float(np.linalg.norm(g0))
    notes = [f"kernel tolerance {tol_ker:.2e}",
             f"complementarity max lambda*<s,Phi s> = {comp_worst:.2e}"]
    status, detail = verdict(residual, total, bound_rhs, TOL_STAT, TOL_BOUND)
    return Certificate(
        kind="SDP", status=status, detail=detail, point=xbar,
        atoms=[(np.asarray(s, dtype=float).tolist(), w) for s, w in lam_atoms],
        eq_atoms=[([int(i), int(j)], m_) for (i, j), m_ in mu.items() if m_ != 0.0],
        residual=residual, bound_lhs=total, bound_rhs=bound_rhs, kappa=kappa,
        kappa_source="user-asserted", bound_rule="2*kappa*||grad objective||",
        tolerances={"tol_stat": TOL_STAT, "tol_bound": TOL_BOUND, "tol_ker": tol_ker},
        seed=seed, notes=notes,
    )


def reduce_to_sip(p: SDProblem) -> SIProblem:
    """Sphere-chart reduction theta(x, angles) = <s(angles), Phi(x) s(angles)>, m <= 3.

    theta is written from the source text that each entry and the objective
    were parsed from (``expr.parse`` keeps it on the root), so it parses to
    the entries' own trees."""
    m = p.m
    if m > 3:
        raise DimensionTooLargeError("sphere chart available only for m <= 3")
    if m == 1:
        comps = ["1"]
        box = [(0.0, 0.0)]
    elif m == 2:
        comps = ["cos(s1)", "sin(s1)"]
        box = [(0.0, math.pi)]
    else:
        comps = ["cos(s1)*sin(s2)", "sin(s1)*sin(s2)", "cos(s2)"]
        box = [(0.0, 2.0 * math.pi), (0.0, math.pi)]
    terms = []
    for i in range(m):
        for j in range(m):
            terms.append(f"({p.Phi[i][j]._text})*({comps[i]})*({comps[j]})")
    return SIProblem.from_strings(p.n, p.objective._text, theta=" + ".join(terms), S=box)
