"""Polyhedral sets and cones: tangent/normal cones, polars, projections,
and the minimal faces of {d : A d <= 1} with the hull vertices that make them.

Conventions
-----------
A ``Polyhedron`` is { x : A_ineq x <= b_ineq, A_eq x = b_eq }.  A
``PolyhedralCone`` carries a halfspace form { u : G u <= 0, H u = 0 }
and/or a generator form cone{r_1..r_k} + span{l_1..l_m}; a conversion
state records which forms are populated, and conversions are performed
by stripping the lineality space and enumerating extreme rays of the
pointed remainder (each extreme ray is cut out by dim-1 independent
active constraints).  Exact cone operations are reserved for polyhedra;
nonconvex sets enter only through ``SampledSetOracle``.

No LP runs here.  Projections onto a polyhedron are exact: Lawson and
Hanson's least-distance program, solved by NNLS.  The same program decides
emptiness (no point passes ``contains``: its rows relaxed by ``TOL_FEAS``
have no solution), and an NNLS fit decides generator-cone membership.
Each ``Polyhedron`` also remembers the last ``_MAX_FACES`` faces its
projections landed on (a face: the active inequality rows plus every
equality row), most recently hit first.  Sampled points keep landing on
the same few faces, so ``project`` first tries them in closed form: the
projection onto a face's affine hull, accepted only when its inequality
multipliers are >= 0 and it satisfies every other row exactly.
That is the KKT system of the strictly convex projection problem, so an
accepted face yields the projection itself; the NNLS runs only on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySetError,
    NotMemberError,
    NumericalBreakdownError,
    VarcertError,
)
from .solvers import least_distance, nnls

TOL_FEAS = 1e-8
TOL_ACTIVE = 1e-6

_MAX_RAY_SUBSETS = 500_000
_MAX_FACES = 16


def _as_matrix(M, n):
    if M is None:
        return np.zeros((0, n))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((0, n))
    if M.shape[1] != n:
        raise DimensionMismatchError(f"matrix has {M.shape[1]} columns, expected {n}")
    return M


def _as_vector(v, k):
    if v is None:
        return np.zeros(0)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if len(v) != k:
        raise DimensionMismatchError(f"vector has length {len(v)}, expected {k}")
    return v


def nullspace(M):
    """Orthonormal basis (columns) of the null space of M: singular values at
    most 1e-10 times the largest (or 1) count as zero."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)))
    return Vt[rank:].T


class Polyhedron:
    """{ x : A_ineq x <= b_ineq, A_eq x = b_eq }; emptiness is an answer, not an error."""

    def __init__(self, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None, n=None):
        if n is None:
            for M in (A_ineq, A_eq):
                if M is not None and np.asarray(M).size:
                    n = np.atleast_2d(np.asarray(M)).shape[1]
                    break
            if n is None:
                raise ValueError("dimension n could not be inferred")
        self.n = int(n)
        self.A_ineq = _as_matrix(A_ineq, self.n)
        self.b_ineq = _as_vector(b_ineq, self.A_ineq.shape[0])
        self.A_eq = _as_matrix(A_eq, self.n)
        self.b_eq = _as_vector(b_eq, self.A_eq.shape[0])
        self._empty = None
        self._faces = []  # see _face_hit: at most _MAX_FACES, most recently hit first

    # ---- constructors -------------------------------------------------
    @classmethod
    def box(cls, bounds):
        """Axis-aligned box from (lo, hi) pairs; None entries drop the face."""
        bounds = list(bounds)
        n = len(bounds)
        rows, rhs = [], []
        for j, (lo, hi) in enumerate(bounds):
            if hi is not None:
                r = np.zeros(n)
                r[j] = 1.0
                rows.append(r)
                rhs.append(hi)
            if lo is not None:
                r = np.zeros(n)
                r[j] = -1.0
                rows.append(r)
                rhs.append(-lo)
        return cls(np.array(rows) if rows else None, np.array(rhs) if rhs else None, n=n)

    @classmethod
    def nonpositive_orthant(cls, n):
        return cls(np.eye(n), np.zeros(n), n=n)

    @classmethod
    def halfspace(cls, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        return cls(a.reshape(1, -1), [float(b)], n=len(a))

    @classmethod
    def singleton(cls, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(A_eq=np.eye(len(x)), b_eq=x, n=len(x))

    @classmethod
    def whole_space(cls, n):
        return cls(n=n)

    @classmethod
    def intersection(cls, P, Q):
        if P.n != Q.n:
            raise DimensionMismatchError("intersection of polyhedra in different spaces")
        return cls(
            np.vstack([P.A_ineq, Q.A_ineq]),
            np.concatenate([P.b_ineq, Q.b_ineq]),
            np.vstack([P.A_eq, Q.A_eq]),
            np.concatenate([P.b_eq, Q.b_eq]),
            n=P.n,
        )

    # ---- predicates ----------------------------------------------------
    def residual(self, x):
        """Worst constraint violation at x; inf at a non-finite x."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return np.inf
        r = 0.0
        if self.A_ineq.shape[0]:
            r = max(r, float(np.max(self.A_ineq @ x - self.b_ineq)))
        if self.A_eq.shape[0]:
            r = max(r, float(np.max(np.abs(self.A_eq @ x - self.b_eq))))
        return r

    def contains(self, x, tol=TOL_FEAS):
        return self.residual(x) <= tol

    def is_empty(self):
        """No point passes ``contains``: the rows relaxed by TOL_FEAS (each
        equality as two inequalities) have no least-distance point."""
        if self._empty is None:
            G = np.vstack([self.A_ineq, self.A_eq, -self.A_eq])
            h = np.concatenate([self.b_ineq, self.b_eq, -self.b_eq]) + TOL_FEAS
            self._empty = least_distance(G, h) is None
        return self._empty

    def active_rows(self, x, tol_active=TOL_ACTIVE):
        """Indices of inequality rows active at x within tol_active."""
        if self.A_ineq.shape[0] == 0:
            return []
        res = self.A_ineq @ np.asarray(x, dtype=float) - self.b_ineq
        return [int(i) for i in np.nonzero(res >= -tol_active)[0]]

    def __repr__(self):
        return f"Polyhedron(n={self.n}, ineq={self.A_ineq.shape[0]}, eq={self.A_eq.shape[0]})"


# ---------------------------------------------------------------------------
# cones

class PolyhedralCone:
    def __init__(self, n):
        self.n = int(n)
        self.G = None  # (k, n) halfspace normals, G u <= 0
        self.H = None  # (m, n) hyperplane normals, H u = 0
        self.rays = None  # (k, n)
        self.lines = None  # (m, n)

    @classmethod
    def from_halfspaces(cls, G, H=None, n=None):
        if n is None:
            n = np.atleast_2d(np.asarray(G if G is not None and np.asarray(G).size else H)).shape[1]
        K = cls(n)
        K.G = _as_matrix(G, K.n)
        K.H = _as_matrix(H, K.n)
        return K

    @classmethod
    def from_generators(cls, rays, lines=None, n=None):
        if n is None:
            src = rays if rays is not None and np.asarray(rays).size else lines
            n = np.atleast_2d(np.asarray(src)).shape[1]
        K = cls(n)
        K.rays = _as_matrix(rays, K.n)
        K.lines = _as_matrix(lines, K.n)
        return K

    @classmethod
    def whole_space(cls, n):
        return cls.from_halfspaces(None, None, n=n)

    @classmethod
    def zero(cls, n):
        return cls.from_generators(None, None, n=n)

    def ensure_halfspace(self):
        if self.G is None:
            G, H = cone_halfspaces_from_generators(self.rays, self.lines)
            self.G, self.H = G, H
        return self.G, self.H

    def ensure_generators(self):
        if self.rays is None:
            rays, lines = cone_generators_from_halfspaces(self.G, self.H)
            self.rays, self.lines = rays, lines
        return self.rays, self.lines

    def contains(self, u, tol=1e-9):
        u = np.asarray(u, dtype=float)
        scale = 1.0 + float(np.linalg.norm(u))
        if self.G is not None:
            ok = True
            if self.G.shape[0]:
                ok = ok and float(np.max(self.G @ u)) <= tol * scale
            if self.H.shape[0]:
                ok = ok and float(np.max(np.abs(self.H @ u))) <= tol * scale
            return ok
        return self._contains_by_fit(u, tol * scale)

    def _contains_by_fit(self, u, tol):
        # the NNLS fit of u by the generators R^T w + L^T (a - b), w, a, b >= 0
        E = np.vstack([self.rays, self.lines, -self.lines]).T
        return float(np.linalg.norm(E @ nnls(E, u) - u)) <= tol

    def polar(self):
        """Standard cone duality: generators become halfspaces and vice versa."""
        out = PolyhedralCone(self.n)
        if self.rays is not None:
            out.G = self.rays.copy()
            out.H = self.lines.copy()
        if self.G is not None:
            out.rays = self.G.copy()
            out.lines = self.H.copy()
        return out

    def same_set(self, other):
        """Mutual membership of generators (and +/- lines) in both cones, to 1e-7."""
        for a, b in ((self, other), (other, self)):
            rays, lines = a.ensure_generators()
            for r in rays:
                if not b.contains(r, 1e-7):
                    return False
            for l in lines:
                if not (b.contains(l, 1e-7) and b.contains(-l, 1e-7)):
                    return False
        return True

    def __repr__(self):
        forms = []
        if self.G is not None:
            forms.append(f"G{self.G.shape}")
        if self.rays is not None:
            forms.append(f"rays{self.rays.shape}")
        return f"PolyhedralCone(n={self.n}, {', '.join(forms)})"


def _orth_complement_within(NH, L):
    """Orthonormal basis of span(NH) ∩ span(L)^perp."""
    if NH.shape[1] == 0:
        return NH
    B = NH
    if L.shape[1]:
        B = NH - L @ (L.T @ NH)
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)))
    return U[:, :rank]


def _pointed_cone_rays(Gr):
    """Extreme rays of the pointed cone {w : Gr w <= 0} in R^d."""
    p, d = Gr.shape
    scale = 1.0 + float(np.max(np.abs(Gr))) if Gr.size else 1.0
    feas_tol = 1e-9 * scale
    if d == 1:
        out = []
        for w in (np.array([1.0]), np.array([-1.0])):
            if p == 0 or float(np.max(Gr @ w)) <= feas_tol:
                out.append(w)
        return out
    if p < d - 1:
        return []  # not pointed unless trivial; lineality was stripped upstream
    if comb(p, d - 1) > _MAX_RAY_SUBSETS:
        raise VarcertError(f"cone conversion too large: C({p},{d-1}) facet subsets")
    seen = {}
    for S in combinations(range(p), d - 1):
        M = Gr[list(S)]
        U, s, Vt = np.linalg.svd(M)
        if len(s) and s[-1] <= 1e-9 * max(1.0, s[0]):
            continue  # rows dependent: null dimension > 1
        w = Vt[-1]
        for cand in (w, -w):
            if float(np.max(Gr @ cand)) <= feas_tol:
                key = tuple(np.round(cand / np.linalg.norm(cand), 9))
                seen.setdefault(key, cand / np.linalg.norm(cand))
                break
    return list(seen.values())


def hull_vertices(R):
    """Indexes of the rows of R, one per distinct row, that hold the
    vertices of conv({0} u rows): the largest and the most negative row at
    n = 1, Andrew's monotone chain at n = 2, every nonzero row at n >= 3.

    A row r that is no vertex is sum mu_v v over the vertices and 0 with
    mu >= 0 summing to 1, so <r, d> <= sum mu_v <= 1 on {d : R d <= 1},
    with equality only where every v with mu_v > 0 is tight: r lies in the
    hull of the tight vertices, and dropping it moves no hull distance.  A
    zero row is never tight."""
    if R.shape[1] == 1:
        col = R[:, 0]
        hi, lo = int(np.argmax(col)), int(np.argmin(col))
        return [i for i, keep in ((hi, col[hi] > 0.0), (lo, col[lo] < 0.0)) if keep]
    distinct = {}  # the first index of each distinct nonzero row
    for i, row in enumerate(R.tolist()):
        if any(row):
            distinct.setdefault(tuple(row), i)
    if R.shape[1] > 2:
        return list(distinct.values())

    def chain(points):  # one half of the hull, collinear points dropped
        out = []
        for (x, y), i in points:
            while len(out) > 1:
                (ox, oy), _ = out[-2]
                (ax, ay), _ = out[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                    break
                out.pop()
            out.append(((x, y), i))
        return out[:-1]

    pts = sorted([*distinct.items(), ((0.0, 0.0), -1)])
    return [i for _, i in chain(pts) + chain(pts[::-1]) if i >= 0]


def minimal_faces(A, cap):
    """The tight sets of the minimal faces of P = {d : A d <= 1}, as boolean
    masks over the rows of A; None when more than ``cap`` subsets would be
    tried.

    Off P's lineality space ker A, P is pointed, so each minimal face is a
    vertex there: for a subset D of r = rank A rows of rank r, the least-norm
    solution d of A_D d = 1, which lies in the row space, when it meets
    A d <= 1.  With A_D^T = Q R, d = Q z for R^T z = 1.  Its tight set is
    every row with <a, d> >= 1.  Both tests allow 1e-9 ||a|| ||d||, which
    errs toward a larger tight set and more faces: each only enlarges
    kappa."""
    sv = np.linalg.svd(A, compute_uv=False)
    r = int(np.sum(sv > 1e-10 * sv[0]))
    if comb(len(A), r) > cap:
        return None
    Q, R = np.linalg.qr(A[np.array(list(combinations(range(len(A)), r)))].transpose(0, 2, 1))
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    keep = diag.min(axis=1) > 1e-10 * diag.max(axis=1)
    Q, R = Q[keep], R[keep]
    z = np.empty((len(R), r))
    for i in range(r):  # forward substitution in R^T z = 1
        z[:, i] = (1.0 - np.einsum("fj,fj->f", R[:, :i, i], z[:, :i])) / R[:, i, i]
    d = np.einsum("fnr,fr->fn", Q, z)
    scores = A @ d.T
    tol = 1e-9 * np.linalg.norm(A, axis=1)[:, None] * np.linalg.norm(d, axis=1)
    feasible = (scores <= 1.0 + tol).all(axis=0)
    return list({t.tobytes(): t for t in (scores >= 1.0 - tol)[:, feasible].T}.values())


def cone_generators_from_halfspaces(G, H):
    """(rays, lines) with cone{rays} + span{lines} = {u : G u <= 0, H u = 0}."""
    n = G.shape[1] if G is not None and np.asarray(G).size else np.atleast_2d(H).shape[1]
    G = _as_matrix(G, n)
    H = _as_matrix(H, n)
    stacked = np.vstack([G, H])
    L = nullspace(stacked)  # lineality space
    NH = nullspace(H)
    B = _orth_complement_within(NH, L)
    d = B.shape[1]
    lines = L.T.copy()
    if d == 0:
        return np.zeros((0, n)), lines
    Gr = G @ B
    # drop zero rows of the reduced system (vacuous constraints on this subspace)
    keep = np.linalg.norm(Gr, axis=1) > 1e-12 if Gr.shape[0] else np.zeros(0, dtype=bool)
    Gr = Gr[keep]
    if Gr.shape[0] == 0:
        # the whole subspace is free: fold it into the lineality part
        return np.zeros((0, n)), np.vstack([lines, B.T]) if lines.size else B.T.copy()
    rays_red = _pointed_cone_rays(Gr)
    rays = np.array([B @ w for w in rays_red]) if rays_red else np.zeros((0, n))
    return rays, lines


def cone_halfspaces_from_generators(rays, lines):
    """(G, H) with {u : G u <= 0, H u = 0} = cone{rays} + span{lines}."""
    n = rays.shape[1] if rays is not None and np.asarray(rays).size else np.atleast_2d(lines).shape[1]
    rays = _as_matrix(rays, n)
    lines = _as_matrix(lines, n)
    # polar cone in halfspace form, then its generators are our halfspaces
    polar_rays, polar_lines = cone_generators_from_halfspaces(rays, lines)
    return polar_rays, polar_lines


def tangent_cone(P: Polyhedron, x) -> PolyhedralCone:
    """Contingent cone of a polyhedron: active rows become homogeneous halfspaces."""
    if not P.contains(x):
        raise NotMemberError(f"point has residual {P.residual(x):.3e}")
    act = P.active_rows(x)
    G = P.A_ineq[act] if act else np.zeros((0, P.n))
    return PolyhedralCone.from_halfspaces(G, P.A_eq.copy(), n=P.n)


def normal_cone(P: Polyhedron, x) -> PolyhedralCone:
    """Polar of the tangent cone: generated by active inequality rows + span of equality rows."""
    if not P.contains(x):
        raise NotMemberError(f"point has residual {P.residual(x):.3e}")
    act = P.active_rows(x)
    rays = P.A_ineq[act] if act else np.zeros((0, P.n))
    return PolyhedralCone.from_generators(rays, P.A_eq.copy(), n=P.n)


# ---------------------------------------------------------------------------
# projections

def _finite_point(z):
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NumericalBreakdownError("cannot project a point with a non-finite coordinate")
    return z


def _nearest(A, b, C, d, z):
    """Nearest point to z of {y : A y <= b, C y = d}.

    y0 is the nearest point of {C y = d} and N an orthonormal basis of
    null(C); then y = y0 + N w with w the least-norm solution of
    (A N) w <= b - A y0, a least-distance program solved exactly.  The
    rounding of y0 can leave b - A y0 below 0 on a row that y0 meets, which
    empties the program when null(C) is {0}; so when it has no w, it is
    solved again with each row relaxed by 1e-12 (|b_i| + ||a_i|| ||y0||).
    No w even then (a set nonempty only within TOL_FEAS):
    NumericalBreakdownError."""
    y0, G = z, A
    if C.shape[0]:
        y0 = z - np.linalg.lstsq(C, C @ z - d, rcond=None)[0]
        N = nullspace(C)
        G = A @ N
    h = b - A @ y0
    w = least_distance(G, h)
    if w is None:
        w = least_distance(G, h + 1e-12 * (np.abs(b) + np.linalg.norm(A, axis=1) * np.linalg.norm(y0)))
    if w is None:
        raise NumericalBreakdownError(
            f"no point satisfies every row: the set is nonempty only within tol_feas = {TOL_FEAS:g}")
    return y0 + N @ w if C.shape[0] else z + w


def _face_hit(P: Polyhedron, z):
    """The projection of z from a remembered face of P, or None.

    A face with rows K (K y = k on it) stores Q R = K^T, the least-norm point
    c of its affine hull, R^-1 restricted to the inequality rows and the
    other inequality rows.  x = z - Q Q^T (z - c) is the nearest point of the
    hull and z - x = K^T mu with R mu = Q^T (z - c); x is the projection onto
    P when the inequality part of mu is >= 0 and A x <= b holds on the other
    rows.  A hit moves its face to the front."""
    for i, (Q, c, R_inv, A, b) in enumerate(P._faces):
        q = Q.T @ (z - c)
        x = z - Q @ q
        if (R_inv @ q >= 0.0).all() and (A @ x <= b).all():
            P._faces.insert(0, P._faces.pop(i))
            return x
    return None


def _remember_face(P: Polyhedron, x):
    """Remember the face of the rows active at the projection x, unless its
    rows are dependent (R has a diagonal entry <= 1e-10 times its largest)."""
    act = P.active_rows(x)
    K = np.vstack([P.A_ineq[act], P.A_eq])
    if not 0 < len(K) <= P.n:
        return
    Q, R = np.linalg.qr(K.T)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-10 * diag.max():
        return
    R_inv = np.linalg.inv(R)
    c = Q @ (R_inv.T @ np.concatenate([P.b_ineq[act], P.b_eq]))
    P._faces.insert(0, (Q, c, R_inv[:len(act)], np.delete(P.A_ineq, act, axis=0),
                        np.delete(P.b_ineq, act)))
    del P._faces[_MAX_FACES:]


def project(P: Polyhedron, z, residual=None):
    """Euclidean projection onto P and the distance, exact by Lawson and
    Hanson's least-distance program.  ``residual`` is P.residual(z) when the
    caller has computed it already.

    The first try is P's remembered faces (module docstring): a face whose
    multipliers are >= 0 and whose hull point satisfies every other row
    meets the projection's KKT conditions, so it gives the projection in
    closed form.  On a miss the NNLS point is returned as it is, and the face
    of its active rows is remembered; P keeps at most ``_MAX_FACES`` faces.
    A result's last bits may thus depend on the points P projected before.

    The shortcut requires exact membership: rounding tol-level distances
    to zero would hide sub-tolerance infeasibility from polishing loops.
    A P nonempty only within TOL_FEAS raises NumericalBreakdownError.
    """
    z = _finite_point(z)
    if (P.residual(z) if residual is None else residual) <= 0.0:
        return z.copy(), 0.0
    if P.is_empty():
        raise EmptySetError("cannot project onto an empty polyhedron")
    x = _face_hit(P, z)
    if x is None:
        x = _nearest(P.A_ineq, P.b_ineq, P.A_eq, P.b_eq, z)
        _remember_face(P, x)
    return x, float(np.linalg.norm(z - x))


def dist(P: Polyhedron, z) -> float:
    return project(P, z)[1]


def project_cone(K: PolyhedralCone, z):
    """Euclidean projection onto a polyhedral cone via its halfspace form."""
    G, H = K.ensure_halfspace()
    z = _finite_point(z)
    if np.all(G @ z <= 1e-14) and np.all(np.abs(H @ z) <= 1e-14):
        return z.copy(), 0.0
    x = _nearest(G, np.zeros(len(G)), H, np.zeros(len(H)), z)
    return x, float(np.linalg.norm(z - x))


def dist_to_cone(K: PolyhedralCone, z) -> float:
    return project_cone(K, z)[1]


# ---------------------------------------------------------------------------
# sampled sets and derivability

class SampledSetOracle:
    """Nonconvex set access: a violation callback and a local projection.

    ``violation(x) >= 0`` vanishes exactly on the set (typically
    dist(f(x); Theta)).  ``projection(z)`` returns a nearby point of the set;
    for Omega = f^{-1}(dom theta) it is ``calculus.restore``.
    """

    def __init__(self, violation, projection):
        self.violation = violation
        self.projection = projection

    def feasible(self, x):
        return self.violation(np.asarray(x, dtype=float)) <= TOL_FEAS

    def project(self, z):
        """Approximate nearest point of the set."""
        return self.projection(np.asarray(z, dtype=float))

    def dist(self, z):
        """Distance to the set; inf where ``violation`` is inf, which marks a
        point that has no estimate (a sampler skips it)."""
        z = np.asarray(z, dtype=float)
        v = self.violation(z)
        if v <= TOL_FEAS:
            return 0.0
        if v == np.inf:
            return np.inf
        return float(np.linalg.norm(z - self.project(z)))


def default_t_grid():
    """The 20 levels 1e-2 * 0.5^j of the difference-quotient and derivability grids."""
    return [1e-2 * 0.5 ** j for j in range(20)]


@dataclass
class DerivabilityReport:
    ratios: list
    max_tail_ratio: float
    passed: bool
    tol: float
    t_grid: list
    skipped: int = 0


def derivability_check(target, x, u, t_grid=None, tol_deriv=1e-6) -> DerivabilityReport:
    """Verify dist(x + t u; set)/t -> 0 along a geometric grid: the largest
    ratio over the last 5 usable levels is at most ``tol_deriv``.

    ``target`` is a Polyhedron (the direction must then lie in the tangent
    cone), a PolyhedralCone, or a SampledSetOracle.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if t_grid is None:
        t_grid = default_t_grid()
    if isinstance(target, Polyhedron):
        if not tangent_cone(target, x).contains(u, 1e-7):
            raise NotMemberError("direction is outside the tangent cone")
        dist_fn = lambda z: dist(target, z)
    elif isinstance(target, PolyhedralCone):
        dist_fn = lambda z: dist_to_cone(target, z)
    elif isinstance(target, SampledSetOracle):
        dist_fn = target.dist
    else:
        dist_fn = target  # plain distance callable
    ratios = [dist_fn(x + t * u) / t for t in t_grid]
    # an infinite distance is a sample without an estimate: skip it
    usable = [r for r in ratios if r < np.inf]
    max_tail = float(max(usable[-5:], default=np.nan))
    return DerivabilityReport(ratios=ratios, max_tail_ratio=max_tail,
                              passed=max_tail <= tol_deriv, tol=tol_deriv, t_grid=list(t_grid),
                              skipped=len(ratios) - len(usable))
