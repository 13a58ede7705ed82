"""Semidefinite programs: min objective(x) s.t. Phi(x) <= 0 (PSD order), Psi(x) = 0.

Feasibility is the largest eigenvalue sigma^+(Phi(x)) plus the max-entry
norm of Psi(x).  Multiplier recovery places rank-one atoms s_i s_i^T on
the kernel of Phi(xbar) (complementarity forces them there), with the
bound sum(lambda) + sum|mu_ij| <= 2 kappa ||grad objective||.  As a SIP
over the unit sphere (v^T Phi(x) v <= 0 for unit v), its atoms come from
SIP's exchange loop, which prices by the kernel eigenproblem.  For m <= 3
the problem cross-validates against its sphere-parameterized
semi-infinite reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as expr_mod
from .certify import Certificate, TOL_BOUND, TOL_STAT, checked, verdict
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InfeasiblePointError,
    NoMultiplierError,
    NonConvergenceError,
    NotUnitError,
)
from .geometry import TOL_FEAS
from .sip import SIProblem, stationarity_atoms
from .solvers import eigh

# an atom s is a unit vector when | ||s|| - 1 | <= TOL_UNIT
TOL_UNIT = 1e-10
# the kernel atoms one certificate may price in
MAX_OFFERS = 200


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

    def tables(self, x):
        """The ``EntryTable`` of Phi and of Psi (None without Psi) at x."""
        return EntryTable(self.Phi, x), None if self.Psi is None else EntryTable(self.Psi, x)

    def phi_value(self, x) -> np.ndarray:
        return EntryTable(self.Phi, x).matrix


def _entry(m, i, j):
    """The index of entry (i, j), i <= j, in the row-major upper triangle of
    an m x m grid; elementwise on index arrays."""
    return i * (2 * m - i + 1) // 2 + j - i


class EntryTable(expr_mod.Jet):
    """The expression grid M at x: one Dual pass over its upper-triangle
    entries in row-major order (``expr.Jet``), which gives the symmetric
    ``matrix`` M(x) and, through ``gradients``, each entry's gradient."""

    def __init__(self, M, x):
        m = len(M)
        rows, cols = np.triu_indices(m)
        super().__init__([M[i][j] for i, j in zip(rows, cols)], np.asarray(x, dtype=float))
        self.m, self.rows, self.cols = m, rows, cols
        self.matrix = np.zeros((m, m))
        self.matrix[rows, cols] = self.matrix[cols, rows] = self.values

    @cached_property
    def spectrum(self):
        """``eigh`` of the matrix; NaN eigenvalues and no eigenvectors when
        it holds a non-finite entry, which LAPACK cannot take."""
        if np.isfinite(self.matrix).all():
            return eigh(self.matrix)
        return np.full(self.m, np.nan), None


@dataclass
class FeasibilityReport:
    sigma_plus: float
    psi_max: float
    feasible: bool


def feasibility(p: SDProblem, x) -> FeasibilityReport:
    """sigma^+(Phi(x)) from the eigensolver (NaN when Phi(x) holds a
    non-finite entry) plus the max-entry norm of Psi(x)."""
    return _feasibility(*p.tables(x))


def _feasibility(phi, psi):
    """The report from the tables of Phi and Psi (None without Psi) at x."""
    sigma_plus = float(np.maximum(0.0, phi.spectrum[0][0]))  # NaN, not 0, for a NaN eigenvalue
    psi_max = 0.0 if psi is None else float(np.max(np.abs(psi.values)))
    return FeasibilityReport(sigma_plus=sigma_plus, psi_max=psi_max,
                             feasible=sigma_plus <= TOL_FEAS and psi_max <= TOL_FEAS)


def grad_quadform(p: SDProblem, x, s) -> np.ndarray:
    """j-th component <s, (dPhi/dx_j)(x) s>, via entrywise expression gradients."""
    return quadforms(EntryTable(p.Phi, x), [s])[0]


def quadforms(phi: EntryTable, atoms) -> np.ndarray:
    """Row k: grad <s, Phi s> at the point of the table ``phi``, for
    s = atoms[k], a unit vector.

    One sweep over the upper-triangle entries serves every atom.  Each row
    sums weight * grad over the entries in row-major order, skipping a zero
    weight.  Only the rows of entries that some atom weighs are read from
    the table, in entry order, so only their kinks warn and only their
    missing derivatives raise.
    """
    S = np.array(atoms, dtype=float).reshape(len(atoms), phi.m)
    for s in S:
        if abs(float(np.linalg.norm(s)) - 1.0) > TOL_UNIT:
            raise NotUnitError(f"atom has norm {np.linalg.norm(s):.12f}")
    rows, cols = phi.rows, phi.cols
    weights = S[:, rows] * S[:, cols] * np.where(rows == cols, 1.0, 2.0)
    live_atoms, live_entries = np.nonzero(weights)
    read, at = np.unique(live_entries, return_inverse=True)
    terms = np.zeros((len(S), len(rows), phi.G.shape[1]))
    terms[live_atoms, live_entries] = weights[live_atoms, live_entries, None] * phi.gradients(read)[at]
    # a zero-weight term is 0.0, which leaves a partial sum started at 0.0
    # unchanged (such a sum is never -0.0); accumulate starts at the first
    # term instead, which can only turn a final 0.0 into -0.0, and + 0.0
    # undoes that
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def _tol_ker(w):
    """The kernel tolerance for the eigenvalues w of Phi(x)."""
    return 1e-7 * (1.0 + float(np.max(np.abs(w))) if len(w) else 1.0)


def _kernel_price(phi: EntryTable, U):
    """``price(y, floor)`` over the unit vectors of span U: the top eigenvector
    v of U^T (sum_i y_i dPhi/dx_i) U, mapped by U, and its column, when the
    eigenvalue <column, y> exceeds floor + 1e-9 (Helmberg & Rendl, SIAM J.
    Optim. 10, 2000).  Only the table rows of entries on rows that U meets
    are read, once, as in ``quadforms``; the offer after MAX_OFFERS raises
    ``NonConvergenceError``."""
    on = np.flatnonzero(np.any(U != 0.0, axis=1))
    rows, cols = (on[t] for t in np.triu_indices(len(on)))
    G = phi.gradients(_entry(phi.m, rows, cols))
    offers = 0

    def price(y, floor):
        nonlocal offers
        if not len(on):
            return None
        D = np.zeros((phi.m, phi.m))
        D[rows, cols] = D[cols, rows] = G @ y
        w, V = eigh(U.T @ D @ U)
        if w[0] <= floor + 1e-9:  # the simplex's reduced-cost tolerance
            return None
        if offers == MAX_OFFERS:
            raise NonConvergenceError(offers, "kernel pricing offer limit")
        offers += 1
        v = U @ V[:, 0]
        v = v / np.linalg.norm(v)
        return (None, v), quadforms(phi, [v])[0]

    return price


def conditions(phi: EntryTable, psi, g0, atoms, psi_atoms):
    """(failures, residual, lhs) of an SDP certificate at x, from the tables
    of Phi and Psi at x (``SDProblem.tables``) and the objective gradient g0.

    x is feasible (``_feasibility``; a non-finite Phi(x) has sigma^+ NaN),
    and each atom (s, lambda) has ||s|| = 1 to ``TOL_UNIT``, lambda >= 0 and
    |<s, Phi(x) s>| <= 10 tol_ker; an atom off the unit sphere settles the
    check, with residual and lhs inf.  residual is ||g0 + sum lambda
    grad<s,Phi s> + sum c_ij mu_ij grad Psi_ij|| and lhs is sum lambda +
    sum c_ij |mu_ij| over psi_atoms [((i, j), mu_ij)], c_ij = 2 off the
    diagonal (Psi is symmetric).  The gradients are the tables' rows of the
    entries that the atoms weigh."""
    rep = _feasibility(phi, psi)
    failures = [] if rep.feasible else [
        f"infeasible point: sigma+ {rep.sigma_plus:.3e}, |Psi|max {rep.psi_max:.3e}"]
    tol_ker = _tol_ker(phi.spectrum[0])
    for s, lam in atoms:
        if not abs(float(np.linalg.norm(s)) - 1.0) <= TOL_UNIT:  # NaN fails
            return failures + ["atom is not a unit vector"], math.inf, math.inf
        if lam < -1e-12:
            failures.append("negative atom weight")
        with np.errstate(invalid="ignore"):  # NaN on a non-finite Phi(x), which fails above
            quad = float(s @ phi.matrix @ s)
        if abs(quad) > 10 * tol_ker:
            failures.append("complementarity violated for an atom")
    resid = g0.copy()
    total = 0.0
    for (_, lam), col in zip(atoms, quadforms(phi, [s for s, _ in atoms])):
        resid = resid + lam * col
        total += lam
    for (i, j), mij in psi_atoms:
        factor = 1.0 if i == j else 2.0
        resid = resid + factor * mij * psi.gradient(_entry(psi.m, i, j))
        total += factor * abs(mij)
    return failures, float(np.linalg.norm(resid)), total


def certify(p: SDProblem, xbar, kappa, seed=42) -> Certificate:
    """Kernel-atom multiplier certificate with the 2*kappa bound, from the
    exchange loop of ``sip.stationarity_atoms``: it starts from the unit
    kernel basis U of Phi(xbar) and a +/- atom pair per Psi entry (i, j),
    column +/-grad Psi_ij and cost 1, so mu_ij = +/-w / c_ij; ``_kernel_price``
    offers the rest.  ``seed`` is only recorded: nothing is drawn at random."""
    xbar = np.asarray(xbar, dtype=float)
    phi, psi = p.tables(xbar)
    rep = _feasibility(phi, psi)
    if not rep.feasible:
        raise InfeasiblePointError(
            f"sigma+ {rep.sigma_plus:.3e}, |Psi|max {rep.psi_max:.3e}")
    w, V = phi.spectrum
    g0 = p.grad_objective(xbar)
    tol_ker = _tol_ker(w)
    basis = [V[:, i] / np.linalg.norm(V[:, i]) for i in range(len(w)) if abs(w[i]) <= tol_ker]
    atoms, cols = [(None, u) for u in basis], list(quadforms(phi, basis))
    if psi is not None:
        for e, col in zip(zip(*np.triu_indices(psi.m)), psi.gradients(np.arange(len(psi.values)))):
            atoms += [(e, 1.0), (e, -1.0)]
            cols += [col, -col]

    lam_atoms, mu = [], {}
    if cols:
        U = np.array(basis).reshape(-1, p.m).T
        found = stationarity_atoms(atoms, cols, -g0, _kernel_price(phi, U))
        if found is None:
            raise NoMultiplierError("stationarity system infeasible over kernel atoms")
        lam_atoms = [(s, wgt) for (e, s), wgt in found if e is None]
        # the columns of a +/- pair are never both in a simplex basis
        mu = {e: s * wgt / (1.0 if e[0] == e[1] else 2.0)
              for (e, s), wgt in found if e is not None}
    elif float(np.linalg.norm(g0)) > TOL_STAT:
        raise NoMultiplierError("no kernel atoms and nonzero objective gradient")
    residual, total = checked(conditions(phi, psi, g0, lam_atoms, mu.items()))
    comp_worst = max([0.0] + [abs(float(s @ phi.matrix @ s)) * wgt for s, wgt in lam_atoms])
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
