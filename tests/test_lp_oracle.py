"""Least-squares answers against the general-form simplex as the reference.

Emptiness, the SIP extended MFCQ, cone membership and the
robustness residual are answered by NNLS and the least-distance program,
and Robinson's condition by the coderivative criterion's eigenproblems
(``calculus.coderivative_constant``) or, where it steps aside, by emptiness
questions.  Each property below poses the same question to
``lp_solve`` on seeded instances and requires the same answer, except in a
band of width about 1e-9 times the instance's scale around the decision
boundary, where the two solvers' tolerances differ.
"""

import itertools

import numpy as np
import pytest

from varcert import calculus as calc
from varcert import sip as sip_mod
from varcert.calculus import Composite, _cone_membership_violation, robinson_check
from varcert.expr import SmoothMap
from varcert.funcspace import IndicatorFn
from varcert.geometry import TOL_FEAS, PolyhedralCone, Polyhedron, normal_cone
from varcert.solvers import OPTIMAL, LPProblem, lp_solve


def max_violation(P):
    """min over x of the largest row violation of P (an equality row counts
    both ways), by the LP  min t  s.t.  A x - t <= b, t >= -1."""
    G = np.vstack([P.A_ineq, P.A_eq, -P.A_eq])
    h = np.concatenate([P.b_ineq, P.b_eq, -P.b_eq])
    sol = lp_solve(LPProblem(c=np.eye(P.n + 1)[-1], A=np.hstack([G, -np.ones((len(G), 1))]),
                             b=h, bounds=[(None, None)] * P.n + [(-1.0, None)]))
    assert sol.status == OPTIMAL
    return sol.objective


def random_polyhedron(rng):
    """n <= 4, at most 6 rows, some of them equalities; a third are slabs
    a.x <= c, -a.x <= -c - margin with |margin| in 1e-12 .. 1e-6; 5% are
    scaled by 1e4 or 1e6."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 7))
    A = rng.normal(size=(k, n))
    b = rng.normal(size=k)
    if rng.random() < 1 / 3:
        a, c = rng.normal(size=n), rng.normal()
        margin = rng.choice([-1.0, 1.0]) * 10.0 ** rng.integers(-12, -5)
        A, b = np.vstack([A[:k - 2], a, -a]), np.append(b[:k - 2], [c, -c - margin])
    neq = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
    A_eq, b_eq = rng.normal(size=(neq, n)), rng.normal(size=neq)
    scale = rng.choice([1e4, 1e6]) if rng.random() < 0.05 else 1.0
    return Polyhedron(scale * A, scale * b, scale * A_eq, scale * b_eq, n=n)


def test_is_empty_agrees_with_the_lp_outside_a_band_at_tol_feas():
    """P is empty when no point passes ``contains``, that is, when the LP's
    least largest violation exceeds TOL_FEAS.  Both agree unless that
    violation is within 1e-9 * scale of TOL_FEAS, scale = 1 + max |b|."""
    rng = np.random.default_rng(31)
    close = 0
    for trial in range(600):
        P = random_polyhedron(rng)
        t = max_violation(P)
        scale = 1.0 + np.abs(np.concatenate([P.b_ineq, P.b_eq])).max(initial=0.0)
        if abs(t - TOL_FEAS) <= 1e-9 * scale:
            close += 1
            continue
        assert P.is_empty() == (t > TOL_FEAS), trial
    assert close < 30


def robinson_by_lp(c):
    """Whether Robinson's condition fails, as the simplex answers the exact
    question: some y in N_Theta(ybar) has J^T y = 0 and ||y||_1 = 1.  One LP
    per sign pattern s of y: y = G^T w + E^T a (w >= 0 on the active rows G,
    a free on the equality rows E), J^T y = 0, s_i y_i >= 0 and s.y = 1."""
    J = c.f.jacobian(c.xbar)
    (P,) = c.dom_theta_pieces()
    M = np.vstack([P.A_ineq[P.active_rows(c.ybar)], P.A_eq]).T
    k = M.shape[1] - len(P.A_eq)
    for signs in itertools.product((1.0, -1.0), repeat=c.m):
        A = np.vstack([J.T @ M, np.diag(signs) @ M, np.array(signs) @ M])
        sol = lp_solve(LPProblem(c=np.zeros(M.shape[1]), A=A,
                                 b=np.r_[np.zeros(c.n + c.m), 1.0],
                                 senses=["="] * c.n + [">="] * c.m + ["="],
                                 bounds=[(0.0, None)] * k + [(None, None)] * len(P.A_eq)))
        if sol.status == OPTIMAL:
            return True
    return False


def robinson_reach_by_lp(c):
    """(verdict, witness, eps) of Robinson's condition as the simplex answers
    robinson_check's emptiness questions: for each target
    t = +/-eps e_j - f(xbar), some piece has (u, w) with J u - w = t and w in
    the piece."""
    J = c.f.jacobian(c.xbar)
    m, n = c.m, c.n
    eps = 1e-3 * (1.0 + float(np.linalg.norm(c.ybar)))
    for j in range(m):
        for sgn in (1.0, -1.0):
            target = sgn * eps * np.eye(m)[j] - c.ybar
            reached = False
            for P in c.dom_theta_pieces():
                A = np.vstack([np.hstack([J, -np.eye(m)]),
                               np.hstack([np.zeros((len(P.A_ineq), n)), P.A_ineq]),
                               np.hstack([np.zeros((len(P.A_eq), n)), P.A_eq])])
                senses = ["="] * m + ["<="] * len(P.A_ineq) + ["="] * len(P.A_eq)
                sol = lp_solve(LPProblem(c=np.zeros(n + m), A=A, senses=senses,
                                         b=np.concatenate([target, P.b_ineq, P.b_eq])))
                reached = reached or sol.status == OPTIMAL
            if not reached:
                return calc.REFUTED, sgn * np.eye(m)[j], eps
    return calc.VERIFIED, None, eps


def linear_map(J, c):
    m, n = J.shape
    return SmoothMap.from_strings(
        [" + ".join([f"{float(J[i, j])!r}*x{j + 1}" for j in range(n)] + [repr(float(c[i]))])
         for i in range(m)],
        [f"x{j + 1}" for j in range(n)])


def random_composite(rng):
    """f(x) = J x + c (a third with a rank drop) into a polyhedron through
    f(xbar) with some rows active and, in a third, equality rows."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    J = rng.normal(size=(m, n)).round(3)
    if rng.random() < 1 / 3:
        J[-1] = J[0] * rng.choice([0.0, 2.0])
    c, xbar = rng.normal(size=m).round(3), rng.normal(size=n).round(3)
    ybar = J @ xbar + c
    k = int(rng.integers(1, 5))
    A = rng.normal(size=(k, m)).round(3)
    b = A @ ybar + np.where(rng.random(k) < 0.5, 0.0, rng.random(k))
    neq = int(rng.integers(1, m + 1)) if rng.random() < 1 / 3 else 0
    A_eq = rng.normal(size=(neq, m)).round(3)
    theta = IndicatorFn(Polyhedron(A, b, A_eq, A_eq @ ybar, n=m))
    return Composite(theta, linear_map(J, c), xbar)


def test_robinson_check_agrees_with_the_lp():
    """robinson_check reads c = 0 from the coderivative criterion; its
    witness is a unit normal y with J^T y = 0 to rounding.  The criterion
    decides every instance, also trial 110, whose Theta is one point that
    ybar misses by rounding, which ``geometry._nearest`` allows."""
    rng = np.random.default_rng(32)
    verdicts = []
    for trial in range(150):
        c = random_composite(rng)
        rep = robinson_check(c)
        fails = robinson_by_lp(c)
        assert rep.verdict == (calc.REFUTED if fails else calc.VERIFIED), trial
        assert rep.confidence == "exact", trial
        assert c.coderivative() is not None, trial
        if fails:
            y, J = rep.witness, c.f.jacobian(c.xbar)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12), trial
            assert np.linalg.norm(J.T @ y) <= 1e-12 * (1.0 + np.linalg.norm(J)), trial
            N = normal_cone(c.dom_theta_pieces()[0], c.ybar)
            assert N.contains(y, 1e-9), trial
        else:
            assert rep.witness is None, trial
        verdicts.append(rep.verdict)
    assert verdicts.count(calc.REFUTED) >= 10 and verdicts.count(calc.VERIFIED) >= 10


def test_robinson_emptiness_questions_agree_with_the_reach_lp(monkeypatch):
    """With the criterion out of the way, robinson_check's emptiness
    questions, which still decide Robinson for a kinked f, past the
    enumeration cap, where ybar does not project and for a union of pieces,
    give the simplex's verdict, witness and note on the same 150 composites."""
    monkeypatch.setattr(Composite, "coderivative", lambda self: None)
    rng = np.random.default_rng(32)
    verdicts = []
    for trial in range(150):
        c = random_composite(rng)
        rep = robinson_check(c)
        verdict, witness, eps = robinson_reach_by_lp(c)
        assert rep.verdict == verdict, trial
        if witness is None:
            assert rep.witness is None and rep.notes == [], trial
        else:
            assert np.array_equal(rep.witness, witness), trial
            assert rep.notes == [f"direction {witness} unreachable at eps={eps:.1e}"], trial
        verdicts.append(verdict)
    assert verdicts.count(calc.REFUTED) >= 10 and verdicts.count(calc.VERIFIED) >= 10


def emfcq_by_lp(p, xbar):
    """The EMFCQ verdict from the direction LP min tau s.t. <c_s, u> <= tau,
    u in the unit box, grown by the rows that ``active_indexes`` prices."""
    seed, price = sip_mod.active_indexes(p, xbar)
    if not seed:
        return calc.VERIFIED
    rows, n = [c for _, c in seed], p.n
    while True:
        sol = lp_solve(LPProblem(c=np.eye(n + 1)[-1], A=np.hstack([rows, -np.ones((len(rows), 1))]),
                                 b=np.zeros(len(rows)), bounds=[(-1.0, 1.0)] * n + [(None, None)]))
        new = price(sol.x[:n], sol.objective)
        if new is None:
            return calc.VERIFIED if sol.objective < -1e-7 else calc.REFUTED
        rows.append(new[1])


def random_sip(rng):
    """theta(x, s) = <a + b s, x> - w(s) on s in [0, 1], n = 2: w >= 0
    vanishes at one to three peaks (the active indexes of x = 0), or
    nowhere (no active index).  In half, a = -s0 b: the gradient vanishes at
    s0, and 0 is in the hull of the active gradients when peaks lie on both
    sides of s0."""
    b = rng.normal(size=2).round(3)
    a = rng.normal(size=2).round(3) if rng.random() < 0.5 else -round(rng.random(), 3) * b
    a, b = a.tolist(), b.tolist()
    peaks = rng.random(int(rng.integers(0, 4))).round(3).tolist()
    w = "*".join(f"(s1 - {s!r})^2" for s in peaks) if len(peaks) else "0.1"
    theta = f"({a[0]!r} + {b[0]!r}*s1)*x1 + ({a[1]!r} + {b[1]!r}*s1)*x2 - {w}"
    return sip_mod.SIProblem.from_strings(2, "x1", theta=theta, S=[(0.0, 1.0)])


def test_emfcq_check_agrees_with_the_lp():
    rng = np.random.default_rng(33)
    verdicts = []
    for trial in range(80):
        p = random_sip(rng)
        verdict = sip_mod.emfcq_check(p, [0.0, 0.0]).verdict
        assert verdict == emfcq_by_lp(p, np.zeros(2)), trial
        verdicts.append(verdict)
    assert verdicts.count(calc.REFUTED) >= 5 and verdicts.count(calc.VERIFIED) >= 5


def l1_fit_residual(u, rays, lines):
    """min ||r||_1 over u = rays^T w + lines^T (a - b) + r with w, a, b >= 0,
    by the simplex."""
    n = len(u)
    cols = np.vstack([rays, lines, -lines]).T
    A = np.hstack([cols, np.eye(n), -np.eye(n)])
    b = np.asarray(u, dtype=float)
    c = np.r_[np.zeros(cols.shape[1]), np.ones(2 * n)]
    sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["="] * len(b), bounds=[(0.0, None)] * len(c)))
    assert sol.status == OPTIMAL
    return sol.objective


def membership_queries(rng, rays, lines, vertices=None):
    """A member, and points at distance 1e-11 .. 1e-5 off a member along a
    random unit direction (often inside or along the set), and far off."""
    n = rays.shape[1]
    member = rays.T @ rng.random(len(rays)) + lines.T @ rng.normal(size=len(lines))
    if vertices is not None:
        member = member + vertices.T @ rng.dirichlet(np.ones(len(vertices)))
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    return [member] + [member + 10.0 ** e * d for e in range(-11, -4)] + [member + 3.0 * d]


def test_cone_and_v_rep_membership_agree_with_the_lp_outside_a_band():
    """The NNLS residual is Euclidean and the LP's is the 1-norm, which is
    between 1 and sqrt(n) times it.  Outside that band above the tolerance,
    both answer alike.  No V-rep membership test is left to pose its half of
    the question, but each trial still draws the polytope's vertices and
    queries, so that the cone queries read the random stream they always have."""
    rng = np.random.default_rng(34)
    band = 0
    for trial in range(150):
        n = int(rng.integers(2, 5))
        rays = rng.normal(size=(int(rng.integers(0, n + 2)), n))
        lines = rng.normal(size=(int(rng.integers(0, 2)), n))
        K = PolyhedralCone.from_generators(rays, lines, n=n)
        vertices = rng.normal(size=(int(rng.integers(1, 4)), n))
        for u in membership_queries(rng, rays, lines):
            tol, rho = 1e-9 * (1.0 + np.linalg.norm(u)), l1_fit_residual(u, rays, lines)
            if tol < rho <= np.sqrt(n) * tol + 1e-15:
                band += 1
                continue
            assert K.contains(u) == (rho <= tol), trial
        membership_queries(rng, rays, lines, vertices)
    assert band < 0.05 * 150 * 9


def linf_violation_by_lp(v, J, gens, lines):
    """min ||J^T lambda - v||_inf over lambda in cone(gens) + span(lines)."""
    n = J.shape[1]
    cols = J.T @ np.vstack([gens, lines, -lines]).T
    k = cols.shape[1]
    A = np.vstack([np.hstack([cols, -np.ones((n, 1))]), np.hstack([-cols, -np.ones((n, 1))])])
    sol = lp_solve(LPProblem(c=np.eye(k + 1)[-1], A=A, b=np.concatenate([v, -v]),
                             bounds=[(0.0, None)] * (k + 1)))
    assert sol.status == OPTIMAL
    return sol.objective


def test_cone_membership_violation_is_within_sqrt_n_of_the_linf_lp():
    rng = np.random.default_rng(35)
    for trial in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        J = rng.normal(size=(m, n))
        gens = rng.normal(size=(int(rng.integers(0, 4)), m))
        lines = rng.normal(size=(int(rng.integers(0, 2)), m))
        v = rng.normal(size=n)
        ours = _cone_membership_violation(v, J, gens, lines)
        ref = linf_violation_by_lp(v, J, gens, lines)
        assert ref - 1e-12 <= ours <= np.sqrt(n) * ref + 1e-12, trial
