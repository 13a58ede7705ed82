"""Semi-infinite programs: min objective(x) s.t. theta(x,s) <= 0 for all s in a box S.

Feasibility is the sup of the constraint over the compact index box
(grid plus projected-gradient polish), and multipliers are recovered as
finite atomic measures supported on active indexes.  The atoms come from
the exchange method (Hettich & Kortanek, SIAM Review 35, 1993): an LP over
a small working set of active indexes, whose duals price the rest of the
active set (``active_indexes``) for the index to add next.  The multiplier
LP's simplex vertex has at most n positive weights, so the support has at
most n atoms (Caratheodory's bound; ``caratheodory_reduce`` prunes any
other conic combination to that size).  Equality families psi(x,t) = 0 are
handled by the two-inequality split over the T grid with the 2*kappa bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from .calculus import FEASIBLE_SAMPLE, CQReport, INCONCLUSIVE, REFUTED, VERIFIED, \
    ratio_stability_estimate
from .certify import Certificate, TOL_BOUND, TOL_STAT, checked, resolve_kappa, verdict
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InfeasiblePointError,
    NoMultiplierError,
)
from .geometry import TOL_ACTIVE, TOL_FEAS
from .solvers import OPTIMAL, LPProblem, conic_fit, lp_solve, min_norm_point

MAX_GRID_CELLS = 2 ** 20  # index grid points, checked before any is allocated
SLOPE_TAU = 0.25  # near-active radius of the slope estimate, in units of sup / ||grad||
SLOPE_DENSITY = 16  # index grid of the slope estimate, per axis
SLOPE_POLISH_STEPS = 30


def default_density(k):
    return 64 if k <= 2 else 16


@dataclass
class SIProblem:
    n: int
    objective: expr_mod.Expr
    theta: expr_mod.Expr = None  # over x1..xn, s1..sk
    S: list = None  # [(lo, hi)] * k
    psi: expr_mod.Expr = None  # over x1..xn, t1..tk2
    T: list = None

    @classmethod
    def from_strings(cls, n, objective, theta=None, S=None, psi=None, T=None):
        xnames = [f"x{i+1}" for i in range(n)]
        obj = expr_mod.parse(objective, xnames)
        th = None
        if theta is not None:
            k = len(S)
            th = expr_mod.parse(theta, xnames + [f"s{i+1}" for i in range(k)])
        ps = None
        if psi is not None:
            k2 = len(T)
            ps = expr_mod.parse(psi, xnames + [f"t{i+1}" for i in range(k2)])
        prob = cls(n=n, objective=obj, theta=th, S=list(S) if S else None,
                   psi=ps, T=list(T) if T else None)
        prob._validate()
        return prob

    def _validate(self):
        for box in (self.S, self.T):
            if box is not None:
                for lo, hi in box:
                    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                        raise DimensionMismatchError(
                            f"index box bounds must be finite with lo <= hi, got [{lo}, {hi}]")

    @property
    def k(self):
        return len(self.S) if self.S is not None else 0

    def grad_objective(self, x):
        return expr_mod.grad(self.objective, x)

    def theta_at(self, x, s):
        return expr_mod.evaluate(self.theta, list(x) + list(s))

    def grad_x_theta(self, x, s):
        return _grad_x(self.theta, x, s)

    def grad_s_theta(self, x, s):
        return _index_partials(self.theta, x, s)

    def psi_at(self, x, t):
        return expr_mod.evaluate(self.psi, list(x) + list(t))

    def grad_x_psi(self, x, t):
        return _grad_x(self.psi, x, t)


def _index_partials(e, x, s):
    """Partials of ``e`` in the index variables ``s`` at (x, s): one forward
    pass per index coordinate with the unit vectors ``expr.grad`` uses, so
    the values are those of ``expr.grad(e, x + s)[len(x):]``."""
    z = list(x) + list(s)
    return np.array([expr_mod.directional(e, z, [1.0 if j == i else 0.0 for j in range(len(z))])
                     for i in range(len(x), len(z))])


@functools.lru_cache(maxsize=8)
def _cached_grid(axes, density):
    lin = [np.linspace(lo, hi, density) if hi > lo else np.array([lo]) for lo, hi, _ in axes]
    mesh = np.meshgrid(*lin, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    grid.flags.writeable = False
    return grid


def _box_grid(box, density):
    """The density**k grid over the box, built once per (box, density); each
    caller gets its own copy.  The key carries each lower bound's type, since
    a degenerate axis keeps it (an integer bound gives an integer axis).  A
    grid of more than MAX_GRID_CELLS points is refused before it is built."""
    if math.prod(density if hi > lo else 1 for lo, hi in box) > MAX_GRID_CELLS:
        raise DimensionTooLargeError(
            f"index grid of {density} points per axis over {len(box)} axes exceeds "
            f"{MAX_GRID_CELLS} points")
    return _cached_grid(tuple((lo, hi, type(lo)) for lo, hi in box), density).copy()


def _clip_box(s, box):
    return np.array([min(max(v, lo), hi) for v, (lo, hi) in zip(s, box)])


def _pinned(cand, s):
    """True when the clipped trial ``cand`` is ``s`` bit for bit and ``s`` is
    finite float64 with no -0.0 coordinate (see ``_polish_max``)."""
    if cand.dtype != np.float64 or s.dtype != np.float64 or cand.tobytes() != s.tobytes():
        return False
    return bool(np.isfinite(s).all()) and not np.signbit(s[s == 0.0]).any()


def _point_box(widths):
    """Every index width is 0 (a NaN width is not): no polish trial moves."""
    return not any(widths)


def _polish_max(value_fn, grad_fn, s0, box, steps=100):
    """Projected-gradient ascent over the box, adaptive step on the raw gradient.

    Unnormalized steps let the step length shrink with the gradient near a
    smooth maximum, which is what delivers the 1e-6-level sup accuracy the
    eigenvalue cross-checks rely on.

    Both line searches stop at the first trial that is ``s`` itself
    (``_pinned``), as at a box corner the step points out of; this skips
    only trials whose outcome is already known.  Proof: per coordinate,
    fl(t*g_i) is monotone in t, fl(s_i + y) is monotone in y and clipping
    is monotone, and the trials only shrink t.  So if clip(s + t*g) = s,
    every t' < t gives s_i <= clip(s_i + t'*g_i) <= s_i for g_i >= 0 (the
    mirror for g_i < 0): s again in value.  It is s in bits too.  A finite
    nonzero value has one encoding.  A zero s_i is +0.0, and +0.0 plus a
    zero of either sign is +0.0; a clip to a zero bound would have hit the
    same bound at t, where it gave +0.0.  (-0.0 is excluded because
    -0.0 + (+0.0) = +0.0.)  The trial stays float64, since an integer
    array needs every coordinate strictly past an integer bound at t' and
    so also at t.  ``value_fn`` is pure, so each later trial scores exactly
    ``val`` and fails the strict acceptance test: the search ends
    unaccepted, as it would have after its remaining evaluations.
    A point box returns the clipped start at once (``_point_box``).
    """
    s = _clip_box(np.asarray(s0, dtype=float), box)
    val = value_fn(s)
    widths = [hi - lo for lo, hi in box]
    if _point_box(widths):
        return s, val
    t = max(max(widths), 1e-3) / 8.0
    for _ in range(steps):
        g = grad_fn(s)
        gn = float(np.linalg.norm(g))
        if gn < 1e-14:
            break
        accepted = False
        for _ in range(40):
            cand = _clip_box(s + t * g, box)
            if _pinned(cand, s):
                break
            vc = value_fn(cand)
            if vc > val + 1e-18:
                s, val = cand, vc
                t *= 2.0
                accepted = True
                break
            t *= 0.5
            if t * gn < 1e-14:
                break
        if not accepted:
            break
    # damped-Newton finish: the gradient phase stalls when the index chart is
    # badly conditioned (e.g. near a sphere-chart pole); a few FD-Hessian steps
    # recover the 1e-6-level accuracy the eigenvalue cross-checks need
    k = len(s)
    for _ in range(12):
        g = grad_fn(s)
        if float(np.linalg.norm(g)) < 1e-13:
            break
        h = 1e-5
        H = np.zeros((k, k))
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            H[:, j] = (grad_fn(s + e) - grad_fn(s - e)) / (2 * h)
        H = 0.5 * (H + H.T)
        try:
            step_vec = np.linalg.lstsq(H, -g, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        moved = False
        tt = 1.0
        for _ in range(20):
            cand = _clip_box(s + tt * step_vec, box)
            if _pinned(cand, s):
                break
            vc = value_fn(cand)
            if vc > val:
                s, val = cand, vc
                moved = True
                break
            tt *= 0.5
        if not moved:
            break
    return s, val


def _grid_values(e, x, grid):
    """Vectorized theta/psi values over an index grid (nan -> -inf)."""
    values = [float(v) for v in x] + [grid[:, j] for j in range(grid.shape[1])]
    vals = expr_mod.evaluate_grid(e, values)
    if vals.ndim == 0:  # expression constant in the index variables
        vals = np.full(grid.shape[0], float(vals))
    return np.where(np.isfinite(vals), vals, -np.inf)


def _top_cells(e, x, sign, box, density, count, value_fn, grad_fn, steps):
    """Grid search plus polish: sort the cells of the density-``density`` grid
    over ``box`` by sign * e(x, cell) and run ``_polish_max`` from each of the
    best ``count`` cells.  Returns [(cell, cell value, polished index,
    polished value)], best cell first."""
    grid = _box_grid(box, density)
    vals = sign * _grid_values(e, x, grid)
    return [(grid[idx], vals[idx], *_polish_max(value_fn, grad_fn, grid[idx], box, steps))
            for idx in np.argsort(-vals)[:count]]


def sup_violation(p: SIProblem, x, density=None):
    """(sup_s theta(x,s)^+, argmax): grid plus polish from the top 5 cells."""
    x = np.asarray(x, dtype=float)
    if p.theta is None:
        return 0.0, None
    cells = _top_cells(p.theta, x, 1.0, p.S, density or default_density(p.k), 5,
                       lambda ss: p.theta_at(x, ss), lambda ss: p.grad_s_theta(x, ss), 100)
    best_s, best_v = cells[0][:2]
    for _, _, s, v in cells:
        if v > best_v:
            best_s, best_v = s, v
    return max(0.0, float(best_v)), best_s


def sup_abs_equality(p: SIProblem, x, density=None):
    """(sup_t |psi(x,t)|, argmax t, sign of psi there) over the equality
    index box; the argmax is None while the sup is 0.

    Kept: ``density``, for ``sip --grid N``: ``certify`` builds the T columns
    at density N but calls this sup at the default density, an open defect
    (FOUND in CHANGES.md).
    """
    if p.psi is None:
        return 0.0, None, 1.0
    x = np.asarray(x, dtype=float)
    best, best_t, best_sign = 0.0, None, 1.0
    for sign in (1.0, -1.0):
        for _, _, t, v in _top_cells(p.psi, x, sign, p.T, density or default_density(len(p.T)),
                                     3, lambda tt: sign * p.psi_at(x, tt),
                                     lambda tt: sign * _index_partials(p.psi, x, tt), 60):
            if float(v) > best:
                best, best_t, best_sign = float(v), t, sign
    return best, best_t, best_sign


def active_indexes(p: SIProblem, xbar, density=None):
    """The active index set as the exchange method sees it: (seed, price).

    ``seed`` holds (s*, grad_x theta(xbar, s*)) for the polished argmax s* of
    the sup when it is active (an active peak between grid nodes has no cell
    near 0).  ``price(y, floor)`` tries the grid cells with theta >=
    -TOL_ACTIVE - 1e-3, best central-difference <grad_x theta, y> first; a
    cell below -TOL_ACTIVE is polished once, when first tried, and the exact
    gradient decides.  It returns (s, gradient) with <gradient, y> > floor,
    each index once, or None; a cell turned down stays a candidate."""
    xbar = np.asarray(xbar, dtype=float)
    sup, s_max = sup_violation(p, xbar, density)
    if sup > TOL_FEAS:
        raise InfeasiblePointError(f"sup violation {sup:.3e} exceeds tol_feas")
    seed = [(s_max, p.grad_x_theta(xbar, s_max))] if p.theta_at(xbar, s_max) >= -TOL_ACTIVE \
        else []
    grid = _box_grid(p.S, density or default_density(p.k))
    vals = _grid_values(p.theta, xbar, grid)
    near = vals >= -TOL_ACTIVE - 1e-3
    cells, vals = grid[near].astype(float, copy=False), vals[near]
    grads = _x_gradients(p.theta, xbar, cells)
    exact = np.zeros(len(cells), dtype=bool)
    live = np.ones(len(cells), dtype=bool)

    def price(y, floor):
        floor += 1e-9  # the simplex's reduced-cost tolerance
        scores = grads @ y
        picks = np.flatnonzero(live & (scores > floor))
        for i in picks[np.argsort(-scores[picks], kind="stable")]:
            if not exact[i] and vals[i] < -TOL_ACTIVE:
                cells[i], vals[i] = _polish_max(lambda ss: p.theta_at(xbar, ss),
                                                lambda ss: p.grad_s_theta(xbar, ss),
                                                cells[i], p.S, 40)
                live[i] = vals[i] >= -TOL_ACTIVE
            if live[i] and not exact[i]:
                grads[i], exact[i] = p.grad_x_theta(xbar, cells[i]), True
            if live[i] and grads[i] @ y > floor:
                live[i] = False
                return cells[i].copy(), grads[i].copy()
        return None

    return seed, price


def _x_gradients(e, z, cells):
    """Central-difference x-gradients of e at (z, s) for every index s in
    ``cells`` at once: two grid evaluations per coordinate of z."""
    fd = np.empty((len(cells), len(z)))
    for j in range(len(z)):
        h = 1e-6 * max(1.0, abs(z[j]))
        up, down = list(z), list(z)
        up[j] += h
        down[j] -= h
        fd[:, j] = (_grid_values(e, up, cells) - _grid_values(e, down, cells)) / (2 * h)
    return fd


def _near_active_gradients(e, signs, z, box):
    """The sup of sign*e(z, s) over the index box and ``signs``, and the
    x-gradients of sign*e at the indexes near-active at z; (0.0, []) when
    the sup is not positive.

    The argmax s* comes from the best grid cell, polished.  An index s is
    near-active when gap(s) = sup - sign*e(z, s) <= delta * ||grad_s - grad_s*||
    with delta = SLOPE_TAU * sup / ||grad_s*||: moving z by delta can let s
    overtake s*.  Grid cells with gap <= 2 * SLOPE_TAU * sup are screened by
    central differences over all cells at once, and only the survivors get
    an exact gradient."""
    grid = _box_grid(box, SLOPE_DENSITY)
    vals = np.stack([sign * _grid_values(e, z, grid) for sign in signs])
    f, i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    top_sign = signs[f]
    s_star, top = _polish_max(lambda s: top_sign * expr_mod.evaluate(e, list(z) + list(s)),
                              lambda s: top_sign * _index_partials(e, z, s), grid[i], box,
                              SLOPE_POLISH_STEPS)
    if not top > 0.0:
        return 0.0, []
    g_star = top_sign * _grad_x(e, z, s_star)
    scale = float(np.linalg.norm(g_star))
    if scale == 0.0:  # a zero gradient is in the hull already
        return top, [g_star]
    delta = SLOPE_TAU * top / scale
    grads = [g_star]
    for sign, row in zip(signs, vals):
        pick = top - row <= 2.0 * SLOPE_TAU * top
        cells, gap = grid[pick], top - row[pick]
        fd = sign * _x_gradients(e, z, cells)
        # the slack covers the central-difference error
        screen = gap <= delta * (np.linalg.norm(fd - g_star, axis=1) + 1e-6 * (1.0 + scale))
        for s, gs in zip(cells[screen], gap[screen]):
            g = sign * _grad_x(e, z, s)
            if gs <= delta * float(np.linalg.norm(g - g_star)):
                grads.append(g)
    return top, grads


def _grad_x(e, z, s):
    return expr_mod.grad(e, list(z) + list(s))[:len(z)]


def violation_slope(p: SIProblem, z):
    """(g(z), |grad g|(z)) for the violation g = hypot(sup theta^+, sup |psi|).

    By Danskin's theorem the strong slope is the least norm in
    v * conv{grad_x theta(z, s)} + e * conv{sign * grad_x psi(z, t)}, over the
    near-active s and t, divided by g (Aze & Corvellec, ESAIM: COCV 10,
    2004).  The Minkowski sum of two hulls is the hull of the pairwise
    sums."""
    z = np.asarray(z, dtype=float)
    groups = []
    if p.theta is not None:
        groups.append(_near_active_gradients(p.theta, (1.0,), z, p.S))
    if p.psi is not None:
        groups.append(_near_active_gradients(p.psi, (1.0, -1.0), z, p.T))
    g = math.hypot(*(v for v, _ in groups))
    if g == 0.0:
        return 0.0, 0.0
    cols = [np.zeros(p.n)]
    for v, grads in groups:
        if v > 0.0:
            cols = [c + v * gk for c in cols for gk in grads]
    return g, float(np.linalg.norm(min_norm_point(np.array(cols).T))) / g


def sip_kappa_estimate(p: SIProblem, xbar, samples=30, seed=0) -> CQReport:
    """Ratio scheme at radius 0.25 with dist(z; feasible set) estimated as
    g(z) / |grad g|(z), the violation over its strong slope: each sample's
    ratio is 1 / slope.

    Kept: ``samples``, which ``perfbench/spans.py`` reads from the signature
    for ``samples_used_frac``.
    """

    def ratio(z):
        g, slope = violation_slope(p, z)
        if g <= FEASIBLE_SAMPLE:
            return None
        return 1.0 / slope if slope > 0.0 else math.inf

    return ratio_stability_estimate("SIP-MSQC", ratio, xbar, 0.25, samples, seed)


def emfcq_check(p: SIProblem, xbar) -> CQReport:
    """Extended MFCQ: some u has <grad_x theta(xbar,s), u> < 0 on every active s.
    The direction LP min tau s.t. <c_s, u> <= tau, u in the unit box, gains
    the rows that ``active_indexes`` prices above tau at its u."""
    xbar = np.asarray(xbar, dtype=float)
    seed, price = active_indexes(p, xbar)
    if not seed:
        return CQReport("EMFCQ", VERIFIED, confidence="exact",
                        notes=["no active indexes: condition is vacuous"])
    rows, n = [c for _, c in seed], p.n
    while True:
        sol = lp_solve(LPProblem(c=np.eye(n + 1)[-1], A=np.hstack([rows, -np.ones((len(rows), 1))]),
                                 b=np.zeros(len(rows)), senses=["<="] * len(rows),
                                 bounds=[(-1.0, 1.0)] * n + [(None, None)]))
        if sol.status != OPTIMAL:
            return CQReport("EMFCQ", INCONCLUSIVE, notes=["direction LP failed"])
        new = price(sol.x[:n], sol.objective)
        if new is None:
            break
        rows.append(new[1])
    if sol.objective < -1e-7:
        return CQReport("EMFCQ", VERIFIED, witness=sol.x[:n], confidence="sampling",
                        notes=[f"max inner product {sol.objective:.3e} on sampled active set"])
    return CQReport("EMFCQ", REFUTED, confidence="sampling",
                    notes=[f"best achievable max inner product {sol.objective:.3e} >= 0"])


@dataclass
class AtomicMultiplier:
    atoms: list  # [(s point, weight >= 0)]


def caratheodory_reduce(atoms, weights, G) -> AtomicMultiplier:
    """Prune a conic combination to at most n atoms, preserving G @ weights.

    While more than n weights are positive, move along a null direction of
    the active columns until one weight hits zero; nonnegativity is exact
    and the target moves by at most the null-space residual.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n = G.shape[0]
    w = np.asarray(weights, dtype=float).copy()
    if len(atoms) != len(w) or G.shape[1] != len(w):
        raise DimensionMismatchError("atoms, weights, and G columns must align")
    while int(np.sum(w > 0.0)) > n:
        S = [i for i in range(len(w)) if w[i] > 0.0]
        M = G[:, S]
        _, sv, Vt = np.linalg.svd(M)
        d = Vt[-1]
        if len(sv) == M.shape[1] and sv[-1] > 1e-11 * max(1.0, sv[0]):
            break  # columns independent; cannot happen with |S| > n
        if float(np.max(d)) <= 0.0:
            d = -d
        taus = [(w[S[i]] / d[i], i) for i in range(len(S)) if d[i] > 1e-14]
        if not taus:
            break
        tau, drop = min(taus)
        for i, idx in enumerate(S):
            w[idx] = w[idx] - tau * d[i]
        w[S[drop]] = 0.0
        w[w < 0.0] = 0.0  # clip roundoff at the 1e-16 scale
    kept = [(atoms[i], float(w[i])) for i in range(len(w)) if w[i] > 0.0]
    return AtomicMultiplier(atoms=kept)


def stationarity_atoms(atoms, cols, target, lines=(), line_cols=(), line_costs=None,
                       price=None):
    """Least-cost multiplier sum_i w_i cols_i + sum_j mu_j line_cols_j = target
    with w >= 0; None when there is none.

    An atom costs 1 per unit weight and line j costs ``line_costs[j]``
    (default 1) per unit of |mu_j|; each line enters the LP as a +/- column
    pair.  The simplex returns a vertex, so at most len(target) weights are
    positive: the Caratheodory bound holds with no reduction.  Returns
    ([(atom, w)], {tuple(line): mu}) over the positive weights, the lines
    on their + column first.

    With ``price(y, floor)``, which returns an (atom, column) with
    <column, y> > floor or None, the atoms are a working set grown from the
    LP duals y: phase 1 minimizes the L1 residual with free atoms (floor 0)
    until it is 0, then phase 2 the cost (floor 1)."""
    atoms, cols = list(atoms), list(cols)
    L = np.array(line_cols).T if len(line_cols) else None
    tol = 1e-9 * (1.0 + float(np.linalg.norm(target)))  # lp_solve's feasibility rule
    for floor in (0.0, 1.0) if price is not None else (1.0,):
        while True:
            cost = 0.0 if floor == 0.0 else None if line_costs is None else \
                np.concatenate([np.ones(len(cols)), line_costs])
            fit = conic_fit(target, np.array(cols).T if cols else None, L, cost=cost,
                            residual=1.0 if floor == 0.0 else None)
            if fit is None or price is None or (floor == 0.0 and fit.residual <= tol) \
                    or (new := price(fit.y, floor)) is None:
                break
            atoms.append(new[0])
            cols.append(new[1])
        if fit is None or fit.residual > tol:
            return None
    l = len(lines)
    signed = {tuple(t): float(v) for t, v in zip(lines, fit.split[:l]) if v > 0.0}
    for t, v in zip(lines, fit.split[l:]):
        if v > 0.0:
            signed[tuple(t)] = signed.get(tuple(t), 0.0) - float(v)
    return [(a, float(w)) for a, w in zip(atoms, fit.w) if w > 0.0], signed


def conditions(p: SIProblem, x, g0, atoms, eq_atoms):
    """(failures, residual, lhs) of a SIP certificate at x, from the objective
    gradient g0 there.

    The conditions: each atom (s, lambda) has lambda >= 0, s in the box S and
    theta(x, s) ~ 0; each equality atom (t, mu) has psi(x, t) ~ 0.  residual
    is ||g0 + sum lambda grad_x theta(x,s) + sum mu grad_x psi(x,t)|| and lhs
    is sum lambda + sum |mu|."""
    failures = []
    resid = g0.copy()
    total = 0.0
    for s, w in atoms:
        if w < -1e-12:
            failures.append("negative atom weight")
        if any(v < lo - 1e-9 or v > hi + 1e-9 for v, (lo, hi) in zip(s, p.S)):
            failures.append("atom outside the index box")
        val = p.theta_at(x, s)
        if val < -1e-5 or val > 1e-6:
            failures.append(f"atom not active: theta = {val:.3e}")
        resid = resid + w * p.grad_x_theta(x, s)
        total += w
    for t, m in eq_atoms:
        if abs(p.psi_at(x, t)) > 1e-6:
            failures.append("equality atom violated at the point")
        resid = resid + m * p.grad_x_psi(x, t)
        total += abs(m)
    return failures, float(np.linalg.norm(resid)), total


def certify(p: SIProblem, xbar, kappa, seed=42, density=None) -> Certificate:
    """Atomic-multiplier KKT certificate with the bound sum(lambda) <= kappa*||grad||.

    An equality family psi(x,t) = 0 enters by the two-inequality split: each
    point of the T grid (``density`` per axis, at most 33) gives a free +/-
    column pair, and the bound becomes sum(lambda) + sum|mu| <= 2*kappa*||grad||.
    The theta atoms come from the exchange method over ``active_indexes``
    on the ``density`` grid."""
    xbar = np.asarray(xbar, dtype=float)
    if p.psi is not None and sup_abs_equality(p, xbar)[0] > TOL_FEAS:
        raise InfeasiblePointError("equality family violated at xbar")
    g0 = p.grad_objective(xbar)
    # SIP certificates carry no estimator notes
    kappa_val, kappa_source, _ = resolve_kappa(
        kappa, lambda: sip_kappa_estimate(p, xbar, seed=seed))
    eq_points = [] if p.psi is None else \
        list(_box_grid(p.T, min(density or default_density(len(p.T)), 33)))
    eq_cols = [p.grad_x_psi(xbar, t) for t in eq_points]
    start, price = ([], None) if p.theta is None else active_indexes(p, xbar, density)
    found = stationarity_atoms([s for s, _ in start], [c for _, c in start], -g0,
                               eq_points, eq_cols, price=price)
    if found is None:
        raise NoMultiplierError("no atomic multiplier")
    atoms, signed = found
    eq_atoms = [(np.array(t), m) for t, m in signed.items() if abs(m) > 0.0]
    bound_factor = 1.0 if p.psi is None else 2.0
    residual, total = checked(conditions(p, xbar, g0, atoms, eq_atoms))
    comp_worst = max([0.0] + [abs(w * p.theta_at(xbar, s)) for s, w in atoms])
    bound_rhs = bound_factor * kappa_val * float(np.linalg.norm(g0)) \
        if kappa_val is not None else None
    status, detail = verdict(residual, total, bound_rhs, TOL_STAT, TOL_BOUND)
    return Certificate(kind="SIP-EQ" if eq_atoms else "SIP", status=status, detail=detail,
                       point=xbar,
                       atoms=[(np.asarray(s, dtype=float).tolist() if np.ndim(s) else [float(s)], w)
                              for s, w in atoms],
                       eq_atoms=[(np.asarray(t, dtype=float).tolist(), m) for t, m in eq_atoms],
                       residual=residual, bound_lhs=total, bound_rhs=bound_rhs,
                       kappa=kappa_val, kappa_source=kappa_source,
                       bound_rule=f"{'2*' if p.psi is not None else ''}kappa*||grad objective||",
                       tolerances={"tol_stat": TOL_STAT, "tol_bound": TOL_BOUND,
                                   "tol_active": TOL_ACTIVE, "tol_feas": TOL_FEAS},
                       seed=seed, notes=[f"complementarity max |lambda*theta| = {comp_worst:.2e}"])
