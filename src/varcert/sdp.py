"""Semidefinite programs: min objective(x) s.t. Phi(x) <= 0 (PSD order), Psi(x) = 0.

Feasibility is the largest eigenvalue sigma^+(Phi(x)) plus the max-entry
norm of Psi(x).  Multiplier recovery places rank-one atoms s_i s_i^T on
the kernel of Phi(xbar) (complementarity forces them there), with the
bound sum(lambda) + sum c_ij |mu_ij| <= 2 kappa ||grad objective||.  As a
SIP over the unit sphere (v^T Phi(x) v <= 0 for unit v), its index family
(``sphere_family``) serves SIP's ``certify`` and ``conditions``, whose
exchange loop prices by the kernel eigenproblem.  For m <= 3 the problem
cross-validates against its sphere-parameterized semi-infinite reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as expr_mod, sip
from .certify import Certificate
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InfeasiblePointError,
    NonConvergenceError,
    NotUnitError,
)
from .geometry import TOL_FEAS
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

    def family(self, x, density=None):
        """``sphere_family`` at x; ``density`` is a SIP's index grid."""
        return sphere_family(self, x)


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

    def __str__(self):
        return f"sigma+ {self.sigma_plus:.3e}, |Psi|max {self.psi_max:.3e}"


def feasibility(p: SDProblem, x) -> FeasibilityReport:
    """sigma^+(Phi(x)) (NaN when Phi(x) holds a non-finite entry) and the
    max-entry norm of Psi(x): the report of ``sphere_family``'s sup."""
    return sphere_family(p, x).sup()[2]


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


def _psi_entry(p: SDProblem, t):
    """A certificate's Psi atom t as its entry (i, j): two integral numbers
    with 0 <= i <= j < m."""
    i, j = t
    m = 0 if p.Psi is None else len(p.Psi)
    if not (all(type(v) in (int, float) and float(v).is_integer() for v in t) and 0 <= i <= j < m):
        raise DimensionMismatchError(
            f"Psi atom t = {t} is not an entry (i, j) with 0 <= i <= j < {m}")
    return int(i), int(j)


def sphere_family(p: SDProblem, x) -> sip.Family:
    """An sdp's family at x (``sip.Family``) from one ``EntryTable`` of Phi:
    atoms (None, v) of <v, Phi(x) v> <= 0, seeded by the unit kernel basis
    and priced by ``_kernel_price``, and each Psi entry (i, j) as the pair
    (+/-1/c_ij, (i, j)) of columns +/-grad Psi_ij.  Its sup is lambda_max(Phi(x))
    with a top eigenvector (NaN at a non-finite Phi(x)), reported with
    |Psi(x)|max as a ``FeasibilityReport``; its kappa is asserted.  An atom
    needs ||s|| = 1 to ``TOL_UNIT`` (else it ends the checks, with no
    column), lambda >= 0 and |<s, Phi(x) s>| <= 10 tol_ker."""
    phi, psi = EntryTable(p.Phi, x), None if p.Psi is None else EntryTable(p.Psi, x)
    tol_ker = _tol_ker(phi.spectrum[0])
    # Psi's upper triangle by rows, with c_ij = 2 where mu_ij stands for (i, j) and (j, i)
    entries = [] if psi is None else [((i, j), 1.0 if i == j else 2.0)
                                      for i in range(psi.m) for j in range(i, psi.m)]

    def sup():
        w, V = phi.spectrum
        psi_max = 0.0 if psi is None else float(np.max(np.abs(psi.values)))
        sigma_plus = float(np.maximum(0.0, w[0]))  # NaN, not 0, for a NaN eigenvalue
        rep = FeasibilityReport(sigma_plus, psi_max, sigma_plus <= TOL_FEAS and psi_max <= TOL_FEAS)
        return float(w[0]), (None, None if V is None else V[:, 0]), rep

    def active():
        rep = sup()[2]
        if not rep.feasible:
            raise InfeasiblePointError(rep)
        w, V = phi.spectrum
        basis = [V[:, i] / np.linalg.norm(V[:, i]) for i in range(len(w)) if abs(w[i]) <= tol_ker]
        seed = list(zip([(None, u) for u in basis], quadforms(phi, basis)))
        if psi is not None:
            for (t, c), col in zip(entries, psi.gradients(np.arange(len(entries)))):
                seed += [((1.0 / c, t), col), ((-1.0 / c, t), -col)]
        return seed, _kernel_price(phi, np.array(basis).reshape(-1, p.m).T)

    def terms(atoms, eq_atoms):
        ts = [_psi_entry(p, t) for t, _ in eq_atoms]
        rep = sup()[2]
        failures = [] if rep.feasible else [f"infeasible point: {rep}"]
        for s, lam in atoms:
            if not abs(float(np.linalg.norm(s)) - 1.0) <= TOL_UNIT:  # NaN fails
                return failures + ["atom is not a unit vector"], None, None
            if lam < -1e-12:
                failures.append("negative atom weight")
            with np.errstate(invalid="ignore"):  # NaN on a non-finite Phi(x), which fails above
                quad = float(s @ phi.matrix @ s)
            if abs(quad) > 10 * tol_ker:
                failures.append("complementarity violated for an atom")
        return failures, quadforms(phi, [s for s, _ in atoms]), \
            [(1.0 if i == j else 2.0, psi.gradient(_entry(psi.m, i, j))) for i, j in ts]

    def describe(atoms, eq_atoms):
        comp = max([0.0] + [abs(float(s @ phi.matrix @ s)) * w for s, w in atoms])
        return "SDP", {"tol_ker": tol_ker}, [
            f"kernel tolerance {tol_ker:.2e}", f"complementarity max lambda*<s,Phi s> = {comp:.2e}"]

    return sip.Family(sup, active, terms, lambda kappa, *_: (float(kappa), "user-asserted", []),
                      describe, bound_factor=2.0, no_multiplier=lambda seed:
                      "stationarity system infeasible over kernel atoms" if seed else
                      "no kernel atoms and nonzero objective gradient")


def certify(p: SDProblem, xbar, kappa, seed=42) -> Certificate:
    """Kernel-atom multiplier certificate with the 2*kappa bound: SIP's
    ``certify`` on the sphere family.  ``seed`` is only recorded."""
    return sip.certify(p, xbar, kappa, seed)


def reduce_to_sip(p: SDProblem) -> sip.SIProblem:
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
    return sip.SIProblem.from_strings(p.n, p.objective._text, theta=" + ".join(terms), S=box)
