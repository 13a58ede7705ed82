"""Semi-infinite programs: min objective(x) s.t. theta(x,s) <= 0 for all s in a box S.

Feasibility is the sup of the constraint over the compact index box
(grid plus projected-gradient polish from the grid's local maxima), and
multipliers are recovered as finite atomic measures supported on active
indexes.  An equality family psi(x,t) = 0 is the two-inequality split: the
index families psi <= 0 and -psi <= 0 over T join theta <= 0 over S
(``SIProblem.families``), and each family's sup, grid and atoms are found
alike.  The atoms come from the exchange method (Hettich & Kortanek, SIAM
Review 35, 1993): an LP over a small working set of active indexes, whose
duals price the rest of every family's active set (``active_indexes``) for
the index to add next.  The multiplier LP's simplex vertex has at most n
positive weights, so the support has at most n atoms (Caratheodory's
bound; ``caratheodory_reduce`` prunes any other conic combination to that
size).  With psi the bound is 2*kappa.  Unless asserted, kappa is computed
from Danskin's criterion on the same active set where it applies
(``danskin_constant``); where that c is 0 but theta is affine in x, from the
minimal faces of the active linear system (``affine_kappa``); and sampled
(``sip_kappa_estimate``) elsewhere.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import expr as expr_mod
from .calculus import (CODERIVATIVE_MAX_FACES, FEASIBLE_SAMPLE, KAPPA_MARGIN, REFUTED,
                       VERIFIED, CQReport, ratio_stability_estimate)
from .certify import (Certificate, TOL_BOUND, TOL_STAT, checked, no_multiplier_certificate,
                      resolve_kappa, verdict)
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InfeasiblePointError,
    KinkWarning,
    NotInDomainError,
)
from .geometry import TOL_ACTIVE, TOL_FEAS, hull_vertices, minimal_faces
from .solvers import conic_fit, min_norm_point, nnls

MAX_GRID_CELLS = 2 ** 20  # index grid points, checked before any is allocated
SLOPE_TAU = 0.25  # near-active radius of the slope estimate, in units of sup / ||grad||
SLOPE_DENSITY = 16  # index grid of the slope estimate, per axis
SLOPE_POLISH_STEPS = 30
KAPPA_DANSKIN = "computed (Danskin criterion)"
KAPPA_AFFINE = "computed (affine criterion)"


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

    @property
    def families(self):
        """The index families (expression, sign, box): theta <= 0 over S, and
        psi = 0 over T as the two inequalities psi <= 0 and -psi <= 0."""
        theta = [] if self.theta is None else [(self.theta, 1.0, self.S)]
        return theta + [(self.psi, sign, self.T) for sign in (1.0, -1.0) if self.psi is not None]

    def grad_objective(self, x):
        return expr_mod.grad(self.objective, x)

    def family(self, x, density=None):
        """The index family at x on the ``density`` grid (``box_family``)."""
        return box_family(self, x, density)

    def theta_at(self, x, s):
        return expr_mod.evaluate(self.theta, list(x) + list(s))

    def psi_at(self, x, t):
        return expr_mod.evaluate(self.psi, list(x) + list(t))


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
    No trial is accepted at an undefined point (+inf from ``evaluate``), and
    a ``NotInDomainError`` from ``grad_fn`` ends the polish at ``s``.
    """
    s = _clip_box(np.asarray(s0, dtype=float), box)
    val = value_fn(s)
    widths = [hi - lo for lo, hi in box]
    if _point_box(widths):
        return s, val
    t = max(max(widths), 1e-3) / 8.0
    for _ in range(steps):
        try:
            g = grad_fn(s)
        except NotInDomainError:
            return s, val
        gn = float(np.linalg.norm(g))
        if gn < 1e-14:
            break
        accepted = False
        for _ in range(40):
            cand = _clip_box(s + t * g, box)
            if _pinned(cand, s):
                break
            vc = value_fn(cand)
            if val + 1e-18 < vc < math.inf:
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
        try:
            g = grad_fn(s)
            if float(np.linalg.norm(g)) < 1e-13:
                break
            h = 1e-5
            H = np.zeros((k, k))
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                H[:, j] = (grad_fn(s + e) - grad_fn(s - e)) / (2 * h)
        except NotInDomainError:
            break
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
            if val < vc < math.inf:
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


def _local_maxima(vals, box):
    """Mask of the grid cells whose value is >= each neighbour's along every
    axis of ``box``; ``vals`` is in ``_box_grid``'s row order.  The cells
    per axis come from the grid's own size: 1 on a degenerate axis, and the
    same count on the others."""
    live = [hi > lo for lo, hi in box]
    side = round(len(vals) ** (1.0 / max(1, sum(live))))
    v = vals.reshape([side if a else 1 for a in live])
    keep = np.ones(v.shape, dtype=bool)
    for axis in range(v.ndim):
        w, k = np.moveaxis(v, axis, 0), np.moveaxis(keep, axis, 0)  # views
        k[:-1] &= w[:-1] >= w[1:]
        k[1:] &= w[1:] >= w[:-1]
    return keep.ravel()


def _sup(e, x, sign, box, density):
    """sup of sign*e(x, .) over the box: sort the cells of the
    density-``density`` grid by sign * e(x, cell), an undefined cell last,
    and run ``_polish_max`` from each of the best 5 defined cells that are
    local maxima of the grid (``_local_maxima``).  One ascent per peak: the
    other cells of a peak climb to its maximizer.  The best cell is always a
    start (an undefined one only when every cell is undefined), and on a
    plateau every cell is a local maximum.  Returns (sup, argmax, grid,
    values of sign*e on the grid with undefined cells at -inf)."""
    grid = _box_grid(box, density)
    raw = _grid_values(e, x, grid)
    vals = np.where(np.isfinite(raw), sign * raw, -np.inf)
    order = np.argsort(-vals)
    keep = _local_maxima(vals, box) & (vals > -np.inf)
    keep[order[0]] = True
    best_s, best_v = grid[order[0]], vals[order[0]]
    for idx in order[keep[order]][:5]:
        s, v = _polish_max(lambda ss: sign * expr_mod.evaluate(e, list(x) + list(ss)),
                           lambda ss: sign * _index_partials(e, x, ss), grid[idx], box)
        if v > best_v:
            best_s, best_v = s, v
    return float(best_v), best_s, grid, vals


def sup_violation(p: SIProblem, x):
    """(sup_s theta(x,s)^+, argmax) on the default grid (see ``_sup``)."""
    x = np.asarray(x, dtype=float)
    if p.theta is None:
        return 0.0, None
    sup, s, _, _ = _sup(p.theta, x, 1.0, p.S, default_density(p.k))
    return max(0.0, sup), s


@dataclass
class Family:
    """The constraints of a SIP, or of an sdp as the SIP over unit v of
    <v, Phi(x) v> <= 0 (Shapiro, Math. Program. 77, 1997), at a point x:
    c(x, s) <= 0 for every index s, and psi(x, t) = 0 as +/-psi <= 0.  An
    atom is (None, s), or (f, t) for an equality index with mu_t = f * w."""
    sup: object  # () -> (sup c(x, .) or NaN, an argmax atom, the InfeasiblePointError text)
    active: object  # () -> (seed [(atom, column)], price(y, floor)); infeasible x: raises
    terms: object  # (atoms [(s, lambda)], eq_atoms [(t, mu)]) -> (failure lines of the point and
    # the atoms, with no sup; [grad_x c(x, s)], None off the index set; [(c_t, grad_x psi(x, t))])
    kappa: object  # (kappa, the loop's indexes, price, seed) -> (kappa or None, its source, notes)
    describe: object  # (atoms, eq_atoms) -> (kind, tolerances it adds, notes)
    bound_factor: float  # sum(lambda) + sum c_t |mu| <= bound_factor * kappa * ||grad objective||
    no_multiplier: object  # (seed) -> the note of the NO_MULTIPLIER certificate


def box_family(p: SIProblem, x, density=None) -> Family:
    """A SIP's family at x: each (e, sign, box) of ``p.families``, atoms
    (None, s) of theta and (sign, t) of +/-psi.  Its sup is the best of
    ``_sup``'s on the density grid, ``active_indexes`` gives its active set
    and price, and ``terms`` checks a finite x, boxes and activity.  Unless
    kappa is asserted or psi is present, ``kappa`` takes (1 + KAPPA_MARGIN) / c
    (1 for c = inf) from ``danskin_constant``'s c over the loop's indexes,
    where c > 0 (the atoms' gradients are in the hull, so sum(lambda) <=
    ||grad|| / c); where c = 0 and theta is affine in x, (1 + KAPPA_MARGIN)
    times ``affine_kappa``; else ``sip_kappa_estimate``'s, from ``seed``."""
    x = np.asarray(x, dtype=float)

    def sup():
        (v, s, _, _), e, sign = max(
            ((_sup(e, x, sign, box, density or default_density(len(box))), e, sign)
             for e, sign, box in p.families), key=lambda found: found[0][0])
        return v, (None if e is p.theta else sign, s), f"sup violation {v:.3e} exceeds tol_feas"

    def terms(atoms, eq_atoms):
        if eq_atoms and p.psi is None:
            raise DimensionMismatchError(
                "certificate carries equality atoms but the problem has no psi")
        failures = [] if all(map(math.isfinite, x)) else ["infeasible point: x is not finite"]
        for s, w in atoms:
            if w < -1e-12:
                failures.append("negative atom weight")
            if not all(lo - 1e-9 <= v <= hi + 1e-9 for v, (lo, hi) in zip(s, p.S)):  # NaN fails
                failures.append("atom outside the index box")
            val = p.theta_at(x, s)
            if val < -1e-5 or val > 1e-6:
                failures.append(f"atom not active: theta = {val:.3e}")
        for t, _ in eq_atoms:
            if not all(lo - 1e-9 <= v <= hi + 1e-9 for v, (lo, hi) in zip(t, p.T)):
                failures.append("equality atom outside the index box")
            if abs(p.psi_at(x, t)) > 1e-6:
                failures.append("equality atom violated at the point")
        return failures, [_grad_x(p.theta, x, s) for s, _ in atoms], \
            [(1.0, _grad_x(p.psi, x, t)) for t, _ in eq_atoms]

    def kappa(asserted, indexes, price, seed):
        c, rows = (None, []) if isinstance(asserted, (int, float)) or p.psi is not None else \
            danskin_constant(p, x, indexes, price)
        affine = affine_kappa(p, x, rows, density) \
            if c == 0.0 and expr_mod.affine_in(p.theta, p.n) else None
        if c is not None and c > 0.0:
            return (1.0 + KAPPA_MARGIN) / c if math.isfinite(c) else 1.0, KAPPA_DANSKIN, \
                [f"Danskin criterion: c = {c:.6g} <= dist(0, conv grad_x theta(xbar, active s))"]
        if affine is not None:
            return (1.0 + KAPPA_MARGIN) * affine[0], KAPPA_AFFINE, \
                [f"affine criterion: max 1/dist(0, conv grad_x theta(xbar, D)) over "
                 f"{affine[1]} minimal face(s) D = {affine[0]:.6g}"]
        return (*resolve_kappa(asserted, lambda: sip_kappa_estimate(p, x, seed=seed))[:2], [])

    def describe(atoms, eq_atoms):
        comp = max([0.0] + [abs(w * p.theta_at(x, s)) for s, w in atoms])
        return "SIP-EQ" if eq_atoms else "SIP", {"tol_active": TOL_ACTIVE, "tol_feas": TOL_FEAS}, \
            [f"complementarity max |lambda*theta| = {comp:.2e}"]

    return Family(sup, lambda: active_indexes(p, x, density), terms, kappa, describe,
                  1.0 if p.psi is None else 2.0, lambda seed: "no atomic multiplier")


def active_indexes(p: SIProblem, xbar, density=None):
    """The active index set as the exchange method sees it: (seed, price).

    Every index family (e, sign, box) of ``p.families`` needs sup sign*e(xbar, .)
    <= TOL_FEAS, and its atoms are (None, s) for theta and (sign, t) for
    +/-psi.  ``seed`` holds (atom at s*, sign * grad_x e(xbar, s*)) for each
    family whose polished argmax s* is active (an active peak between grid
    nodes has no cell near 0).  ``price(y, floor)`` tries the grid cells of
    every family with sign*e >= -TOL_ACTIVE - 1e-3, best central-difference
    <sign * grad_x e, y> first; a cell below -TOL_ACTIVE is polished once,
    when first tried, and the exact gradient decides.  It returns (atom,
    gradient) with <gradient, y> > floor, each index once, or None; a cell
    turned down stays a candidate."""
    xbar = np.asarray(xbar, dtype=float)
    families = p.families
    seed, cells, vals, grads = [], [], [], []
    for e, sign, box in families:
        sup, s_max, grid, v = _sup(e, xbar, sign, box, density or default_density(len(box)))
        if sup > TOL_FEAS:
            raise InfeasiblePointError(f"sup violation {sup:.3e} exceeds tol_feas")
        if sup >= -TOL_ACTIVE:
            seed.append(((None if e is p.theta else sign, s_max), sign * _grad_x(e, xbar, s_max)))
        near = v >= -TOL_ACTIVE - 1e-3
        cells.append(grid[near].astype(float, copy=False))
        vals.append(v[near])
        grads.append(sign * _x_gradients(e, xbar, cells[-1]))
    # one row per near-active cell of every family; cells[f] holds family f's
    starts = np.cumsum([0] + [len(c) for c in cells])
    vals, grads = np.concatenate(vals), np.concatenate(grads)
    exact = np.zeros(len(vals), dtype=bool)
    live = np.ones(len(vals), dtype=bool)

    def price(y, floor):
        floor += 1e-9  # the simplex's reduced-cost tolerance
        scores = grads @ y
        picks = np.flatnonzero(live & (scores > floor))
        for i in picks[np.argsort(-scores[picks], kind="stable")]:
            f = int(np.searchsorted(starts, i, side="right")) - 1
            (e, sign, box), fc, j = families[f], cells[f], i - starts[f]
            if not exact[i] and vals[i] < -TOL_ACTIVE:
                fc[j], vals[i] = _polish_max(
                    lambda ss: sign * expr_mod.evaluate(e, list(xbar) + list(ss)),
                    lambda ss: sign * _index_partials(e, xbar, ss), fc[j], box, 40)
                live[i] = vals[i] >= -TOL_ACTIVE
            if live[i] and not exact[i]:
                grads[i], exact[i] = sign * _grad_x(e, xbar, fc[j]), True
            if live[i] and grads[i] @ y > floor:
                live[i] = False
                return (None if e is p.theta else sign, fc[j].copy()), grads[i].copy()
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
    raw = _grid_values(e, z, grid)
    vals = np.stack([np.where(np.isfinite(raw), sign * raw, -np.inf) for sign in signs])
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
    groups = [_near_active_gradients(e, signs, z, box) for e, signs, box in
              ((p.theta, (1.0,), p.S), (p.psi, (1.0, -1.0), p.T)) if e is not None]
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


def active_hull(rows, price):
    """(c, q, rows): the least-norm point q of the hull of the active
    x-gradients, found by row generation, and c, a lower bound on its norm.

    Each round takes q for the hull of ``rows`` and asks ``price`` (see
    ``active_indexes``) for a column g with <g, u> > tau = max <row, u> at
    u = -q / ||q||_inf, which joins the rows.  When none is left, every
    active column has <g, u> <= tau + 1e-9 (price's reduced-cost floor), so
    <g, q> >= min <row, q> - 1e-9 ||q||_inf, and every point h of the hull
    has ||h|| >= <h, q> / ||q||: c is that bound less the rounding of the
    products (0 when it is not positive, inf with no rows).  ||q|| itself
    is no lower bound, since any hull point's norm is at least the minimum.
    The active set is the grid's (cells screened by central differences),
    so c bounds the hull of what the grid sees."""
    rows = list(rows)
    if not rows:
        return math.inf, None, rows
    while True:
        R = np.array(rows)
        q = min_norm_point(R.T)
        u = -q / np.abs(q).max() if q.any() else q
        new = price(u, float(np.max(R @ u)))
        if new is None:
            break
        rows.append(new[1])
    if not q.any():
        return 0.0, q, rows
    rounding = 4 * len(q) * np.finfo(float).eps * float(np.linalg.norm(R, axis=1).max())
    low = (float(np.min(R @ q)) - 1e-9 * float(np.abs(q).max())) / float(np.linalg.norm(q))
    return max(low - rounding, 0.0), q, rows


def danskin_constant(p: SIProblem, xbar, indexes, price):
    """(c, rows): ``active_hull``'s c for theta at xbar from the x-gradients
    at ``indexes`` and the columns ``price`` still offers, and the hull's
    rows; (None, []) where a gradient it reads passes a kink (an abs at 0
    or a max or min tie, which emits KinkWarning) or leaves the domain.

    c > 0 is the extended MFCQ.  By Danskin's theorem the strong slope of
    the violation sup theta(., s)^+ is the least norm in the hull of the
    near-active gradients, which tends to at least c as the point nears
    xbar, so any kappa > 1/c is a local modulus (Danskin, *The Theory of
    Max-Min*, 1967; Aze & Corvellec, ESAIM: COCV 10, 2004).  At a kink the
    gradient is one branch's, and the criterion needs theta strictly
    differentiable."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", KinkWarning)
        try:
            c, _, rows = active_hull([_grad_x(p.theta, xbar, s) for s in indexes], price)
        except (KinkWarning, NotInDomainError):
            return None, []
    return c, rows


def affine_kappa(p: SIProblem, xbar, rows, density):
    """(kappa, faces): for a theta affine in x, the modulus of the active
    linear system a_t^T d <= 0 at xbar, max over the minimal faces D of
    P = {d : a_t^T d <= 1} of 1 / dist(0, conv{a_t : t in D}) (1 with no
    nonzero a_t), and the number of faces; None past the face cap, with no
    face, or where a gradient passes a kink or leaves the domain.

    Affine theta makes the violation sup theta(., s)^+ convex, so its
    modulus is 1 / inf of its strong slope (Aze & Corvellec, ESAIM: COCV 10,
    2004), which for a finite system is this maximum (Canovas, Lopez, Parra
    & Toledo, Set-Valued Var. Anal. 22, 2014), finite where Danskin's c is
    0.  The a_t are ``rows`` (Danskin's, exact) and those of the grid cells
    with theta(xbar, s) >= -TOL_ACTIVE, screened by one grid evaluation per
    coordinate (exact up to rounding for affine theta); only the rows that
    make faces get an exact gradient.  As with c, the active set is the
    grid's."""
    grid = _box_grid(p.S, density or default_density(p.k))
    vals = _grid_values(p.theta, xbar, grid)
    active = vals >= -TOL_ACTIVE
    cells, base = grid[active].astype(float, copy=False), vals[active]
    screened = np.empty((len(cells), p.n))
    for j in range(p.n):
        up = xbar.copy()
        up[j] += max(1.0, abs(up[j]))
        screened[:, j] = (_grid_values(p.theta, up, cells) - base) / (up[j] - xbar[j])
    R = np.vstack([np.reshape(rows, (-1, p.n)), screened])
    if not np.isfinite(R).all():
        return None
    keep = hull_vertices(R)
    if not keep:
        return 1.0, 0
    faces = minimal_faces(R[keep], CODERIVATIVE_MAX_FACES)
    if not faces:
        return None
    A = R[keep]
    with warnings.catch_warnings():
        warnings.simplefilter("error", KinkWarning)
        try:
            for k in np.flatnonzero(np.any(faces, axis=0)):
                if keep[k] >= len(rows):
                    A[k] = _grad_x(p.theta, xbar, cells[keep[k] - len(rows)])
        except (KinkWarning, NotInDomainError):
            return None
    dist = min(float(np.linalg.norm(min_norm_point(A[f].T))) for f in faces)
    return (1.0 / dist, len(faces)) if dist > 0.0 else None


def emfcq_check(p: SIProblem, xbar) -> CQReport:
    """Extended MFCQ: some u has <grad_x theta(xbar,s), u> < 0 on every active s.
    By Gordan's alternative (Mangasarian, *Nonlinear Programming*, 1969, ch. 2)
    it holds iff 0 is outside the hull of the gradients c_s, whose least-norm
    point q has <c_s, q> >= ||q||^2: u = -q / ||q||_inf has tau = max <c_s, u>
    < 0.  The rows are ``active_hull``'s."""
    xbar = np.asarray(xbar, dtype=float)
    if p.theta is None:
        return CQReport("EMFCQ", VERIFIED, confidence="exact",
                        notes=["no inequality family: condition is vacuous"])
    seed, price = active_indexes(replace(p, psi=None, T=None), xbar)
    if not seed:
        return CQReport("EMFCQ", VERIFIED, confidence="exact",
                        notes=["no active indexes: condition is vacuous"])
    _, q, rows = active_hull([c for _, c in seed], price)
    u = -q / np.abs(q).max() if q.any() else q
    tau = float(np.max(np.array(rows) @ u))
    if tau < -1e-7:
        return CQReport("EMFCQ", VERIFIED, witness=u, confidence="sampling",
                        notes=[f"max inner product {tau:.3e} on sampled active set"])
    return CQReport("EMFCQ", REFUTED, confidence="sampling",
                    notes=[f"max inner product {tau:.3e} >= -1e-7 on sampled active set"])


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


def stationarity_atoms(atoms, cols, target, price):
    """(multiplier, working set): the least-cost multiplier sum_i w_i cols_i =
    target with w >= 0, each atom costing 1 per unit weight, or None when
    there is none; and ``atoms``, then each atom ``price`` offered, in order.

    The working set C grows by ``price(y, floor)``, which returns an (atom,
    column) with <column, y> > floor or None.  While the nnls residual r =
    target - C nnls(C, target) exceeds tol in the 1-norm and shrinks, r /
    ||r||_inf prices at floor 0; C^T r <= 0 < <target, r> = ||r||^2, so when
    it prices nothing there is no fit (Lawson & Hanson, 1974, ch. 23).  Then
    ``conic_fit``'s duals price: its fit's at floor 1, its Farkas direction's
    at floor 0, whose gain is first order where r's is second (r stalls near
    an sdp target on the kernel cone's boundary).  A fresh r that prices
    nothing separates only when its miss is decisive, above 1e-7 (1 +
    ||target||) in the 1-norm; below that, the LP's Farkas direction is
    priced too.  A simplex vertex has at most len(target) positive weights.
    ``lp_solve`` raises rather than return a weight below -tol or a fit
    that misses by more than tol, so a w <= 1e-12 sum(w) is roundoff, dropped."""
    atoms, cols = list(atoms), list(cols)
    scale = 1.0 + float(np.linalg.norm(target))
    tol = 1e-9 * scale  # lp_solve's feasibility rule
    last = np.inf
    while True:
        C = np.array(cols, dtype=float).reshape(len(cols), len(target)).T
        r = target - C @ nnls(C, target)
        miss = np.abs(r).sum()
        fresh, last = tol < miss < last, miss  # nnls used what r priced last
        new = price(r / np.abs(r).max(), 0.0) if fresh else None
        if new is None:
            fit = conic_fit(target, C)  # no fit after a decisive fresh r: r separates
            new = None if fit.w is None and fresh and miss > 1e-7 * scale else \
                price(fit.y, 0.0 if fit.w is None else 1.0)
            if new is None:
                break
        atoms.append(new[0])
        cols.append(new[1])
    return None if fit.w is None else \
        [(a, float(w)) for a, w in zip(atoms, fit.w) if w > 1e-12 * fit.w.sum()], atoms


def conditions(fam: Family, g0, atoms, eq_atoms):
    """(failures, residual, lhs) of a SIP or sdp certificate at the point of
    ``fam``, from the objective gradient g0 there: the family's ``terms`` on
    atoms [(s, lambda)] and eq_atoms [(t, mu)], residual ||g0 + sum lambda
    grad_x c(x, s) + sum c_t mu grad_x psi(x, t)|| and lhs sum lambda + sum
    c_t |mu|, both inf where some s has no column."""
    failures, cols, eq_cols = fam.terms(atoms, eq_atoms)
    if cols is None:
        return failures, math.inf, math.inf
    resid, total = g0.copy(), 0.0
    for (_, w), col in zip(atoms, cols):
        resid = resid + w * col
        total += w
    for (_, m), (c, col) in zip(eq_atoms, eq_cols):
        resid = resid + c * m * col
        total += c * abs(m)
    return failures, float(np.linalg.norm(resid)), total


def certify(p, xbar, kappa, seed=42, density=None) -> Certificate:
    """Atomic-multiplier KKT certificate of a SIP or an sdp at xbar, bounded
    by sum(lambda) + sum c_t |mu| <= bound_factor * kappa * ||grad||: the
    ``stationarity_atoms`` loop over ``p.family(xbar, density)``, checked by
    ``conditions``, with kappa from the family over the loop's working set;
    else REFUTED NO_MULTIPLIER.  With no active index and ||grad|| <=
    TOL_STAT (the loop's fit tolerance is stricter) the multiplier is empty."""
    xbar = np.asarray(xbar, dtype=float)
    fam = p.family(xbar, density)
    start, price = fam.active()
    g0 = p.grad_objective(xbar)
    found, taken = ([], []) if not start and float(np.linalg.norm(g0)) <= TOL_STAT else \
        stationarity_atoms([a for a, _ in start], [c for _, c in start], -g0, price)
    if found is None:
        return no_multiplier_certificate(fam.describe([], [])[0], xbar, seed,
                                         fam.no_multiplier(start))
    kappa_val, kappa_source, notes = fam.kappa(kappa, [s for _, s in taken], price, seed)
    atoms = [(s, w) for (f, s), w in found if f is None]
    eq_atoms = [(t, f * w) for (f, t), w in found if f is not None]
    residual, total = checked(conditions(fam, g0, atoms, eq_atoms))
    bound_rhs = fam.bound_factor * kappa_val * float(np.linalg.norm(g0)) \
        if kappa_val is not None else None
    status, detail = verdict(residual, total, bound_rhs)
    kind, tolerances, described = fam.describe(atoms, eq_atoms)
    return Certificate(kind=kind, status=status, detail=detail, point=xbar,
                       atoms=[(np.asarray(s, dtype=float).tolist(), w) for s, w in atoms],
                       eq_atoms=[(np.asarray(t, dtype=float).tolist(), m) for t, m in eq_atoms],
                       residual=residual, bound_lhs=total, bound_rhs=bound_rhs,
                       kappa=kappa_val, kappa_source=kappa_source,
                       bound_rule=f"{'2*' if fam.bound_factor == 2.0 else ''}kappa*||grad objective||",
                       tolerances={"tol_stat": TOL_STAT, "tol_bound": TOL_BOUND, **tolerances},
                       seed=seed, notes=described + notes)
