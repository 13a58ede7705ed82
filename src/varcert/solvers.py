"""Numerical engines: a dense two-phase simplex, Lawson-Hanson nnls, least
distance and the least-norm multiplier, and a LAPACK symmetric eigensolver.

Problem sizes here are tiny (at most a few hundred columns after
discretization), so everything is dense.  The simplex is deterministic:
Bland's anti-cycling rule fixes all pivot ties.  ``eigh`` calls LAPACK and
fixes each eigenvector's sign, so its output is deterministic for one machine
and numpy build.

Feasibility and membership questions are answered by least squares, from
the least-squares side of their alternatives (Lawson & Hanson, *Solving
Least Squares Problems*, 1974, ch. 23): ``least_distance`` finds G w <= h
empty when its NNLS residual vanishes, and a target is in the cone of some
columns when their NNLS fit reaches it.  ``least_norm_multiplier`` returns
the multiplier of least Euclidean norm, the one the bound ||lambda|| <=
kappa ||v|| speaks of: nnls finds a fit (a free line is a +/- pair of
nonnegative columns), and an active-set descent that holds the equality
rows exactly moves it to the least norm; on a miss, the nnls residual gives
the Farkas direction instead.  The one LP, ``conic_fit``, fits the SIP and
sdp atoms at least cost, where a simplex vertex is the answer, or gives
phase 1's Farkas direction (``sip.stationarity_atoms``); ``lp_solve`` reads
both phases' duals off the final tableau by one rule, with no linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonConvergenceError, NumericalBreakdownError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-9
_MAX_PIVOTS = 20000  # per simplex phase


@dataclass
class LPProblem:
    """min c.x  s.t.  A x (senses) b,  lo <= x <= hi (default free)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: list = None
    bounds: list = None  # list of (lo, hi); None entries mean unbounded

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if len(self.c) != n or len(self.b) != m:
            raise DimensionMismatchError("LP data dimensions inconsistent")
        if self.senses is None:
            self.senses = ["<="] * m
        if len(self.senses) != m:
            raise DimensionMismatchError("one sense per row required")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"bad row sense {s!r}")
        if self.bounds is not None:
            if len(self.bounds) != n:
                raise DimensionMismatchError("one bound pair per variable required")
            for lo, hi in self.bounds:
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError("bound lo > hi")


@dataclass
class LPSolution:
    status: str
    x: np.ndarray = None
    y: np.ndarray = None  # row duals read off the final tableau (INFEASIBLE: phase 1's)
    objective: float = None
    iterations: int = 0


def _standardize(p: LPProblem):
    """Rewrite into min c.z s.t. M z = r, z >= 0 plus bookkeeping to map back."""
    m, n = p.A.shape
    bounds = p.bounds if p.bounds is not None else [(None, None)] * n

    # variable substitution x = t + sum_k sign[k] z_k e_var[k] with z >= 0
    var, sign = [], []
    t = np.zeros(n)
    extra_rows = []  # (z_index, ub) for boxed variables
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            var += [j, j]
            sign += [1.0, -1.0]
        elif lo is not None:
            if hi is not None:
                extra_rows.append((len(var), hi - lo))
            var.append(j)
            sign.append(1.0)
            t[j] = lo
        else:  # hi finite only
            var.append(j)
            sign.append(-1.0)
            t[j] = hi
    var, sign = np.array(var, dtype=int), np.array(sign)
    nz = len(var)

    A2 = p.A[:, var] * sign
    b2 = p.b - p.A @ t
    senses2 = list(p.senses)
    for k, ub in extra_rows:
        row = np.zeros(nz)
        row[k] = 1.0
        A2 = np.vstack([A2, row])
        b2 = np.append(b2, ub)
        senses2.append("<=")
    c2 = p.c[var] * sign
    const = float(p.c @ t)

    def to_x(z):
        return np.bincount(var, weights=sign * z[:nz], minlength=n) + t

    # slacks / surpluses
    n_slack = sum(1 for s in senses2 if s != "=")
    M = np.hstack([A2, np.zeros((A2.shape[0], n_slack))])
    k = nz
    for i, s in enumerate(senses2):
        if s == "<=":
            M[i, k] = 1.0
            k += 1
        elif s == ">=":
            M[i, k] = -1.0
            k += 1
    r = b2.copy()
    cost = np.concatenate([c2, np.zeros(n_slack)])

    flip = np.ones(len(r))
    neg = r < 0
    M[neg] *= -1.0
    r[neg] = -r[neg]
    flip[neg] = -1.0

    return M, r, cost, const, to_x, flip, m


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    # rank-1 update of the rows with a nonzero pivot-column entry only, so a
    # row whose entry is +/-0.0 keeps its signed zeros
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    T[rows] -= np.outer(T[rows, col], T[row])
    basis[row] = col


def _simplex_loop(T, basis, allowed, obj_row):
    """Bland's rule iteration on the bottom objective row. Returns status."""
    it = 0
    while True:
        it += 1
        if it > _MAX_PIVOTS:
            raise NonConvergenceError(_MAX_PIVOTS, "simplex iteration limit")
        rc = T[obj_row, :-1]
        col = -1
        for j in allowed:
            if rc[j] < -_RC_TOL:
                col = j
                break
        if col < 0:
            return OPTIMAL, it
        ratios = []
        nrows = len(basis)
        for i in range(nrows):
            a = T[i, col]
            if a > _PIVOT_TOL:
                ratios.append((T[i, -1] / a, basis[i], i))
        if not ratios:
            return UNBOUNDED, it
        ratios.sort(key=lambda z: (z[0], z[1]))
        _pivot(T, basis, ratios[0][2], col)


def lp_solve(p: LPProblem) -> LPSolution:
    """Two-phase primal simplex with Bland's anti-cycling rule.

    Every pivot updates both objective rows, so each is c - pi^T [M | I]
    over all standardized rows, dropped ones included, and row i's dual is
    c_art - T[objective, artificial i] (c_art = 1 in phase 1, 0 in phase 2)
    through the row's flip: y prices each column as the optimality test saw
    it.  OPTIMAL carries phase 2's duals; INFEASIBLE phase 1's, for A x = b,
    x >= 0 the Farkas direction A^T y <= 0 < <b, y>.  Before OPTIMAL is
    returned, the basic z of the standardized M z = r is checked against
    phase 1's tol: z >= -tol and ||M z - r|| <= tol, else it raises
    ``NumericalBreakdownError``."""
    if not (np.all(np.isfinite(p.A)) and np.all(np.isfinite(p.b)) and np.all(np.isfinite(p.c))):
        raise ValueError("LP data must be finite")
    M, r, cost, const, to_x, flip, n_user_rows = _standardize(p)
    mrows, ncols = M.shape

    # artificial variables, one per row, form the initial basis
    basis = list(range(ncols, ncols + mrows))
    T = np.zeros((mrows + 2, ncols + mrows + 1))
    T[:mrows, :ncols] = M
    T[:mrows, ncols:-1] = np.eye(mrows)
    T[:mrows, -1] = r
    # phase-1 cost row (index mrows) and real cost row (index mrows+1)
    T[mrows, ncols:-1] = 1.0
    T[mrows + 1, :ncols] = cost
    for i in range(mrows):
        T[mrows] -= T[i]  # price out the artificial basis

    def duals(obj, c_art):  # obj: an objective row of T
        return (flip * (c_art - obj[ncols:ncols + mrows]))[:n_user_rows]

    allowed = list(range(ncols + mrows))
    status, it1 = _simplex_loop(T, basis, allowed, mrows)
    tol = 1e-9 * (1.0 + float(np.linalg.norm(r)))  # phase 1's rule
    if -T[mrows, -1] > tol:
        return LPSolution(status=INFEASIBLE, y=duals(T[mrows], 1.0), iterations=it1)

    # drive artificials out of the basis; drop redundant rows.  A basic
    # artificial may sit at a level within phase 1's tolerance: zeroed first,
    # its pivot is degenerate and leaves no other basic value negative
    keep = list(range(mrows))
    for i in range(mrows):
        if basis[i] >= ncols:
            piv_col = -1
            for j in range(ncols):
                if abs(T[i, j]) > 1e-9:
                    piv_col = j
                    break
            if piv_col >= 0:
                T[i, -1] = 0.0
                _pivot(T, basis, i, piv_col)
            else:
                keep.remove(i)

    if len(keep) < mrows:
        T = T[keep + [mrows, mrows + 1]]
        basis = [basis[i] for i in keep]
    nbrows = len(basis)

    # phase 2 over structural + slack columns only
    allowed = list(range(ncols))

    status, it2 = _simplex_loop(T, basis, allowed, nbrows + 1)
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED, iterations=it1 + it2)

    z = np.zeros(ncols)
    for i, bj in enumerate(basis):
        if bj < ncols:
            z[bj] = T[i, -1]
    low, miss = float(z.min(initial=0.0)), float(np.linalg.norm(M @ z - r))
    if not (low >= -tol and miss <= tol):  # a NaN fails
        raise NumericalBreakdownError(f"simplex optimum: min z {low:.3e}, ||M z - r|| {miss:.3e}")
    x = to_x(z)
    objective = float(cost @ z) + const
    return LPSolution(status=OPTIMAL, x=x, y=duals(T[nbrows + 1], 0.0), objective=objective,
                      iterations=it1 + it2)


def eigh(A):
    """(eigenvalues descending, orthonormal eigenvectors as columns) of a
    symmetric matrix, from LAPACK.

    Each eigenvector's sign is fixed so that its largest-magnitude entry is
    positive, since sdp atoms are written into the certificate bytes.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("eigh requires a square matrix")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if float(np.max(np.abs(A - A.T))) > 1e-10 * (1.0 + scale):
        raise ValueError("matrix is not symmetric within 1e-10")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    w, V = w[::-1], V[:, ::-1]  # LAPACK's order is ascending
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(len(w))]
    return w, V * np.where(peak < 0.0, -1.0, 1.0)


@dataclass
class ConicFit:
    w: np.ndarray  # ray weights, None when no fit exists
    y: np.ndarray  # lp_solve's row duals: a ray c prices at 1 - <c, y>; Farkas when w is None


def conic_fit(target, rays):
    """Least-cost fit  rays w = target, every weight >= 0 and costing 1 per
    unit.  ``rays`` are columns."""
    b = np.asarray(target, dtype=float)
    R = np.asarray(rays, dtype=float).reshape(len(b), -1)
    sol = lp_solve(LPProblem(c=np.ones(R.shape[1]), A=R, b=b, senses=["="] * len(b),
                             bounds=[(0.0, None)] * R.shape[1]))
    return ConicFit(w=sol.x, y=sol.y)


def nnls(E, f):
    """argmin ||E w - f|| over w >= 0 by the Lawson-Hanson active-set method
    (Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23).

    Each outer step frees the bound variable with the largest residual
    gradient; the inner loop steps back along the segment to the
    unconstrained passive-set solution until every passive weight is
    positive.  A step that leaves w and the passive set as they were ends the
    loop: every later step would repeat it."""
    E = np.atleast_2d(np.asarray(E, dtype=float))
    f = np.asarray(f, dtype=float)
    k = E.shape[1]
    w = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    col_sum = float(np.abs(E).sum(axis=0).max(initial=0.0))
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * max(1.0, col_sum)
    for _ in range(3 * k):
        grad = E.T @ (f - E @ w)
        grad[passive] = -np.inf
        if passive.all() or grad.max() <= tol:
            break
        j, start = int(np.argmax(grad)), w
        passive[j] = True
        while True:
            trial = np.zeros(k)
            trial[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
            if (trial[passive] > tol).all():
                w = trial
                break
            blocked = passive & (trial <= tol)
            drop = w[blocked] - trial[blocked]  # 0 only for a weight that stays at 0
            alpha = np.min(np.where(drop > 0.0, w[blocked] / np.where(drop > 0.0, drop, 1.0), 0.0))
            w = w + alpha * (trial - w)
            passive &= w > tol
            w[~passive] = 0.0
        if not passive[j] and np.array_equal(w, start):  # passive is w > tol
            break
    return w


def least_distance(G, h):
    """The point w of least norm with G w <= h, or None when there is none
    (Lawson & Hanson, 1974, ch. 23): w = -r[:-1] / r[-1] for the residual
    r = (G^T u, h^T u + 1) of the NNLS solution u of min ||[G^T; h^T] u + e_last||.
    r[-1] is the squared NNLS residual, 0 exactly on an empty system; a w
    that misses a unit-norm row by over 1e-9 (1 + ||w|| + |h_i|) is None too.
    Rows are scaled to unit norm, as nnls's weights shrink below its
    tolerance when its columns grow, and r[-1] = 1 / (1 + ||w||^2) cancels
    when w is long, so h is then scaled down until no row is violated at 0
    by more than distance 1."""
    norms = np.linalg.norm(G, axis=1)
    rows = norms > 0
    G, h = G / np.where(rows, norms, 1.0)[:, None], h / np.where(rows, norms, 1.0)
    s = max(1.0, float(np.max(-h[rows], initial=0.0)))
    u = nnls(np.vstack([G.T, h / s]), np.append(np.zeros(G.shape[1]), -1.0))
    den = h @ u / s + 1.0
    if den <= 0.0:
        return None
    w = -s * (G.T @ u) / den
    if (G @ w - h > 1e-9 * (rows * (1.0 + float(np.linalg.norm(w))) + np.abs(h))).any():
        return None
    return w


def min_norm_point(P):
    """The point of least Euclidean norm in the convex hull of the columns of P.

    It is P w / sum(w) for the NNLS solution w of min ||[P; 1^T] w - [0; 1]||:
    over the cone generated by the columns (p_i, 1) that problem is solved
    by t (x*, 1), t = 1 / (1 + ||x*||^2), with x* the least-norm hull point."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n = P.shape[0]
    w = nnls(np.vstack([P, np.ones(P.shape[1])]), np.append(np.zeros(n), 1.0))
    return P @ w / w.sum()


def least_norm_multiplier(J, target, rays, lines=None, extra=None, tol=1e-9):
    """(z, lam): the lam = rays z_r + lines (z_a - z_b) of least Euclidean
    norm with J^T lam + extra z_e = target, and its weights z >= 0 over
    [rays | lines | -lines | extra] (columns; ``extra`` stays out of the
    norm).  When the best nonnegative fit misses the target by more than
    tol * (1 + ||target||): the Farkas direction d (an array, not a tuple),
    with <c, d> <= 0 for every column c of [J^T B | extra] and <target, d> > 0.

    With the SVD J = U S V^T and M = [S^-1 V_1^T; V_2^T] the equality rows
    M [J^T B | extra] z = M target read U_1^T lam + S^-1 V_1^T extra z_e =
    S^-1 V_1^T target and V_2^T extra z_e = V_2^T target, and nnls finds a
    fit.  Without ``extra`` they fix U_1^T lam, so ||U_2^T lam|| is the norm
    left to minimize; with U_2 empty (J^T injective) every fit has the same
    lam.  On a miss the nnls residual r has (M [J^T B | extra])^T r <= 0 and
    <M target, r> = ||r||^2 (Lawson & Hanson, 1974, ch. 23): d = M^T r."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    t = np.asarray(target, dtype=float)
    m, n = J.shape
    R, L = (np.zeros((m, 0)) if M is None else np.asarray(M, dtype=float).reshape(m, -1)
            for M in (rays, lines))
    B = np.hstack([R, L, -L])
    C = np.zeros((n, 0)) if extra is None else np.asarray(extra, dtype=float).reshape(n, -1)
    U, s, Vt = np.linalg.svd(J)
    k = int(np.sum(s > max(m, n) * np.finfo(float).eps * s.max(initial=0.0)))
    eq = np.vstack([np.hstack([U[:, :k].T @ B, Vt[:k] @ C / s[:k, None]]),
                    np.hstack([np.zeros((n - k, B.shape[1])), Vt[k:] @ C])])
    norm = U[:, k:].T @ B if not C.shape[1] else np.hstack([B, np.zeros((m, C.shape[1]))])
    f = np.concatenate([Vt[:k] @ t / s[:k], Vt[k:] @ t])
    z = nnls(eq, f)
    miss = np.hstack([J.T @ B, C]) @ z - t
    if float(np.linalg.norm(miss)) > tol * (1.0 + float(np.linalg.norm(t))):
        r = f - eq @ z
        return Vt[:k].T @ (r[:k] / s[:k]) + Vt[k:].T @ r[k:]
    if norm.shape[0] and len(z):  # with no column, lam = 0 is the only fit
        z = _least_norm_on_fits(norm, eq, z)
    return z, B @ z[:B.shape[1]]


def _least_norm_on_fits(N, E, z):
    """argmin ||N z'|| over z' >= 0 with E z' = E z, from z, by the primal
    active-set method (Nocedal & Wright, *Numerical Optimization*, 2006,
    alg. 16.3) on an orthonormal basis of E's rows.  The working set starts
    with no bound, so its rows stay independent and a freed weight grows in
    the next step.  Steps stay in null(E): z stays a fit even at the cap."""
    _, s, Vt = np.linalg.svd(E)
    Er = Vt[:int(np.sum(s > max(E.shape) * np.finfo(float).eps * s.max(initial=0.0)))]
    r, free, scale = len(Er), np.ones(len(z), dtype=bool), float(np.linalg.norm(N))
    for _ in range(10 * (len(z) + 1)):
        Z = np.linalg.svd(Er[:, free])[2][r:].T  # null space of the working rows
        # least squares on the face, blind to what N does not see (a line's
        # +/- pair, a repeated ray)
        u, sv, vt = np.linalg.svd(N[:, free] @ Z, full_matrices=False)
        keep = sv > 1e-10 * scale
        step = np.zeros(len(z))
        step[free] = Z @ (vt[keep].T @ (u[:, keep].T @ -(N @ z) / sv[keep]))
        trial = z + step
        # a weight that the step moves by rounding only does not block it
        blocked = (trial < 0.0) & (step < -1e-12 * float(np.abs(step).max(initial=0.0)))
        if blocked.any():
            ratio = np.where(blocked, z / np.where(blocked, z - trial, 1.0), np.inf)
            j = int(np.argmin(ratio))
            z = np.maximum(z + ratio[j] * step, 0.0)
            z[j], free[j] = 0.0, False
            continue
        z = np.maximum(trial, 0.0)
        grad = N.T @ (N @ z)
        mult = grad - Er.T @ np.linalg.lstsq(Er[:, free].T, grad[free], rcond=None)[0]
        j = int(np.argmin(np.where(free, 0.0, mult)))
        if free[j] or mult[j] >= -1e-10 * (1.0 + float(np.abs(grad).max())):
            break
        free[j] = True
    return z
