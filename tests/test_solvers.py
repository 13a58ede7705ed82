import itertools

import numpy as np
import pytest

from varcert import solvers
from varcert.solvers import LPProblem, conic_fit, eigh, lp_solve


def test_simple_lower_bound():
    # min x s.t. x >= 1
    sol = lp_solve(LPProblem(c=[1.0], A=[[1.0]], b=[1.0], senses=[">="]))
    assert sol.status == solvers.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_infeasible():
    # min 0 s.t. x <= -1, x >= 0
    sol = lp_solve(LPProblem(c=[0.0], A=[[1.0], [1.0]], b=[-1.0, 0.0], senses=["<=", ">="]))
    assert sol.status == solvers.INFEASIBLE


def test_facet_optimum():
    # min -x1-x2 s.t. x1+x2 <= 1, x >= 0
    p = LPProblem(c=[-1.0, -1.0], A=[[1.0, 1.0]], b=[1.0], senses=["<="],
                  bounds=[(0.0, None), (0.0, None)])
    sol = lp_solve(p)
    assert sol.status == solvers.OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    assert sol.x.sum() == pytest.approx(1.0)


def test_unbounded():
    sol = lp_solve(LPProblem(c=[-1.0], A=[[1.0]], b=[0.0], senses=[">="]))
    assert sol.status == solvers.UNBOUNDED


def test_equality_rows_and_box_bounds():
    # min x1 + 2 x2 s.t. x1 + x2 = 1, 0 <= xi <= 1
    p = LPProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], senses=["="],
                  bounds=[(0.0, 1.0), (0.0, 1.0)])
    sol = lp_solve(p)
    assert sol.status == solvers.OPTIMAL
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex
    A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    p = LPProblem(c=[-1.0, -1.0], A=A, b=b, senses=["<="] * 5)
    sol = lp_solve(p)
    assert sol.status == solvers.OPTIMAL
    assert sol.objective == pytest.approx(0.0)


def random_feasible_bounded_lp(rng, n, m):
    """Random LP with free variables, guaranteed feasible and bounded.

    Feasible: b is set so a reference point satisfies every row.
    Bounded: rows include +/- box caps on every coordinate.
    """
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n) * 0.3
    b = A @ x0 + np.abs(rng.normal(size=m)) + 0.1
    cap = np.vstack([np.eye(n), -np.eye(n)])
    bcap = np.full(2 * n, 5.0)
    A_all = np.vstack([A, cap])
    b_all = np.concatenate([b, bcap])
    c = rng.normal(size=n)
    return LPProblem(c=c, A=A_all, b=b_all, senses=["<="] * (m + 2 * n))


def test_lp_duality_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        p = random_feasible_bounded_lp(rng, n, m)
        sol = lp_solve(p)
        assert sol.status == solvers.OPTIMAL
        # primal feasibility
        assert np.all(p.A @ sol.x <= p.b + 1e-8)
        # duality: primal objective equals b.y, with y <= 0 for <= rows
        assert sol.objective == pytest.approx(float(p.b @ sol.y), abs=1e-7)
        assert np.all(sol.y <= 1e-9)
        # dual feasibility A^T y = c and complementary slackness
        assert np.allclose(p.A.T @ sol.y, p.c, atol=1e-8)
        slack = p.b - p.A @ sol.x
        assert float(np.max(np.abs(sol.y * slack))) < 1e-8


def test_eigh_diagonal():
    w, V = eigh(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(V), np.eye(2))


def test_eigh_reflection():
    w, V = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(np.abs(V[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert np.abs(V[:, 1] @ V[:, 0]) < 1e-12


def test_eigh_kernel_fixture():
    w, V = eigh(np.diag([0.0, -1.0]))
    assert w[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(np.abs(V[:, 0]), [1.0, 0.0])


def test_eigh_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_invariants_random():
    rng = np.random.default_rng(1)
    # random sizes up to the benchmark's largest Phi (m = 16), and a rotated
    # matrix with a repeated eigenvalue, whose eigenvector basis is not unique
    mats = []
    for _ in range(50):
        n = int(rng.integers(2, 17))
        B = rng.normal(size=(n, n))
        mats.append(0.5 * (B + B.T))
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    mats.append(Q @ np.diag([2.0, 0.0, 0.0, 0.0, -1.0, -1.0]) @ Q.T)
    for A in mats:
        n = len(A)
        w, V = eigh(A)
        # reconstruction and orthogonality
        assert np.linalg.norm(V @ np.diag(w) @ V.T - A) <= 1e-9 * max(1.0, np.linalg.norm(A))
        assert np.allclose(V.T @ V, np.eye(n), atol=1e-10)
        # trace and determinant
        assert np.sum(w) == pytest.approx(np.trace(A), rel=1e-8, abs=1e-8)
        assert np.prod(w) == pytest.approx(np.linalg.det(A), rel=1e-7, abs=1e-8)
        # descending order, and each column's largest-magnitude entry is positive
        assert np.all(np.diff(w) <= 0.0)
        assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(n)] > 0.0)


def test_sigma_matches_random_unit_vector_sup():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        B = rng.normal(size=(m, m))
        A = 0.5 * (B + B.T)
        sigma = solvers.largest_eigenvalue(A)
        s = rng.normal(size=(10000, m))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        sup = float(np.max(np.einsum("ij,jk,ik->i", s, A, s)))
        assert sup <= sigma + 1e-12          # sigma dominates the quadratic form
        assert sigma - sup <= 5e-2           # random sampling approaches it
        # the sup is attained: Rayleigh quotient at the top eigenvector
        w, V = eigh(A)
        v1 = V[:, 0]
        assert float(v1 @ A @ v1) == pytest.approx(sigma, abs=1e-6)


def test_lp_solve_against_scipy_oracle():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        p = random_feasible_bounded_lp(rng, n, m)
        ours = lp_solve(p)
        ref = linprog(p.c, A_ub=p.A, b_ub=p.b, bounds=[(None, None)] * n,
                      method="highs")
        assert ours.status == solvers.OPTIMAL and ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


def test_eigh_against_numpy_oracle():
    rng = np.random.default_rng(78)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        A = 0.5 * (B + B.T)
        w, V = eigh(A)
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(w, ref, atol=1e-10)


def test_lp_solve_mixed_senses_and_bounds_against_scipy():
    opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(79)
    solved = 0
    while solved < 40:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n) * 0.4
        senses = [("<=", "=", ">=")[int(rng.integers(0, 3))] for _ in range(m)]
        b = np.empty(m)
        for i, s in enumerate(senses):
            slack = abs(rng.normal()) * 0.5
            b[i] = A[i] @ x0 + (slack if s == "<=" else -slack if s == ">=" else 0.0)
        bounds = []
        for _ in range(n):
            lo = float(rng.uniform(-4, -1)) if rng.random() < 0.7 else None
            hi = float(rng.uniform(1, 4)) if rng.random() < 0.7 else None
            bounds.append((lo, hi))
        c = rng.normal(size=n)
        ours = lp_solve(LPProblem(c=c, A=A, b=b, senses=senses, bounds=bounds))
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i, s in enumerate(senses):
            if s == "<=":
                A_ub.append(A[i]); b_ub.append(b[i])
            elif s == ">=":
                A_ub.append(-A[i]); b_ub.append(-b[i])
            else:
                A_eq.append(A[i]); b_eq.append(b[i])
        ref = opt.linprog(c, A_ub=np.array(A_ub) if A_ub else None,
                          b_ub=np.array(b_ub) if b_ub else None,
                          A_eq=np.array(A_eq) if A_eq else None,
                          b_eq=np.array(b_eq) if b_eq else None,
                          bounds=bounds, method="highs")
        if ref.status == 2:
            assert ours.status == solvers.INFEASIBLE
        elif ref.status == 3:
            assert ours.status == solvers.UNBOUNDED
        elif ref.status == 0:
            assert ours.status == solvers.OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            solved += 1


def test_conic_fit_blocks_costs_and_tiebreak():
    # conv{(0,0), (2,0)} + cone{(0,1)} + span{(1,1)}; columns are generators
    V = np.array([[0.0, 2.0], [0.0, 0.0]])
    ray = np.array([[0.0], [1.0]])
    fit = conic_fit([1.0, 3.0], ray, convex=V)
    assert np.allclose(fit.w, [3.0]) and np.allclose(fit.conv, [0.5, 0.5])
    assert fit.residual == 0.0 and fit.A.shape == (2, 3)
    assert np.allclose(fit.A @ fit.x, [1.0, 3.0])
    # below the hull: no exact fit, but an L1 residual slack of 1
    assert conic_fit([1.0, -1.0], ray, convex=V) is None
    fit = conic_fit([1.0, -1.0], ray, convex=V, residual=10.0)
    assert fit.residual == pytest.approx(1.0) and np.isclose(fit.conv.sum(), 1.0)
    assert fit.A.shape == (2, 7)  # [ray | convex | +I | -I]
    # a line enters as a +/- column pair; mu is the signed coefficient
    fit = conic_fit([-1.0, 2.0], ray, np.array([[1.0], [1.0]]), convex=V)
    assert fit.split.shape == (2,) and np.allclose(fit.mu, fit.split[:1] - fit.split[1:])
    assert np.allclose(fit.A @ fit.x, [-1.0, 2.0])
    # per-generator prices: rays first, then lines
    fit = conic_fit([2.0], np.array([[1.0, 2.0]]), np.array([[1.0]]), cost=[1.0, 0.25, 5.0])
    assert np.allclose(fit.w, [0.0, 1.0]) and np.allclose(fit.split, 0.0)
    # two equal columns: the 1-norm face is w1 + w2 = 2, the tie-break takes
    # the infinity-norm-minimal point on it
    twins = np.array([[1.0, 1.0]])
    assert sorted(conic_fit([2.0], twins).w.tolist()) == [0.0, 2.0]
    assert np.allclose(conic_fit([2.0], twins, tiebreak=True).w, [1.0, 1.0])


def _pivot_loop(T, basis, row, col):
    """The row-by-row pivot that solvers._pivot vectorizes (reference)."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def test_pivot_rank1_update_matches_the_row_loop_bit_for_bit():
    """Zero, -0.0 and NaN pivot-column entries included: rows whose entry is
    a zero of either sign keep their bits."""
    rng = np.random.default_rng(3)
    for trial in range(200):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        T = rng.normal(size=(m, n))
        T[rng.uniform(size=(m, n)) < 0.3] = 0.0
        T[rng.uniform(size=(m, n)) < 0.1] = -0.0
        if trial % 10 == 0:
            T[rng.integers(m), rng.integers(n)] = np.nan
        row, col = int(rng.integers(m)), int(rng.integers(n))
        T[row, col] = rng.uniform(0.5, 2.0)
        ref, fast = T.copy(), T.copy()
        b_ref, b_fast = list(range(m)), list(range(m))
        _pivot_loop(ref, b_ref, row, col)
        solvers._pivot(fast, b_fast, row, col)
        assert ref.tobytes() == fast.tobytes() and b_ref == b_fast


def _standardize_dense(p):
    """The standard form built through a dense n x nz substitution matrix S,
    x = S z + t: the reference for ``solvers._standardize``'s index arrays."""
    m, n = p.A.shape
    bounds = p.bounds if p.bounds is not None else [(None, None)] * n
    cols, t, extra_rows, nz = [], np.zeros(n), [], 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            cols.append([(nz, 1.0), (nz + 1, -1.0)])
            nz += 2
        elif lo is not None:
            cols.append([(nz, 1.0)])
            t[j] = lo
            if hi is not None:
                extra_rows.append((nz, hi - lo))
            nz += 1
        else:
            cols.append([(nz, -1.0)])
            t[j] = hi
            nz += 1
    S = np.zeros((n, nz))
    for j, parts in enumerate(cols):
        for k, sgn in parts:
            S[j, k] = sgn
    A2, b2, senses2 = p.A @ S, p.b - p.A @ t, list(p.senses)
    for k, ub in extra_rows:
        row = np.zeros(nz)
        row[k] = 1.0
        A2, b2 = np.vstack([A2, row]), np.append(b2, ub)
        senses2.append("<=")
    n_slack = sum(1 for s in senses2 if s != "=")
    M = np.hstack([A2, np.zeros((A2.shape[0], n_slack))])
    k = nz
    for i, s in enumerate(senses2):
        if s != "=":
            M[i, k] = 1.0 if s == "<=" else -1.0
            k += 1
    r, cost = b2.copy(), np.concatenate([S.T @ p.c, np.zeros(n_slack)])
    flip = np.ones(len(r))
    neg = r < 0
    M[neg] *= -1.0
    r[neg] = -r[neg]
    flip[neg] = -1.0
    return M, r, cost, float(p.c @ t), lambda z: S @ z[:nz] + t, flip, m


def test_lp_solve_matches_the_dense_substitution_bit_for_bit(monkeypatch):
    """Mixed bounds (free, lower, boxed, upper-only, -0.0) and senses: x, the
    objective and the pivot count keep their bits; y keeps its values."""
    rng = np.random.default_rng(11)
    problems = []
    for _ in range(300):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        A = rng.normal(size=(m, n)).round(int(rng.integers(0, 3)))
        A[rng.uniform(size=(m, n)) < 0.2] = -0.0
        c = rng.normal(size=n).round(1)
        c[rng.uniform(size=n) < 0.2] = -0.0
        bounds = []
        for _ in range(n):
            lo, hi = float(rng.choice([-0.0, -1.5, -0.5])), float(rng.choice([-0.0, 0.5, 2.0]))
            bounds.append([(None, None), (lo, None), (lo, hi), (None, hi)][int(rng.integers(4))])
        problems.append(LPProblem(c=c, A=A, b=rng.normal(size=m).round(1),
                                  senses=list(rng.choice(["<=", "=", ">="], m)),
                                  bounds=bounds if rng.uniform() < 0.8 else None))
    fast = [lp_solve(p) for p in problems]
    monkeypatch.setattr(solvers, "_standardize", _standardize_dense)
    optimal = 0
    for p, got in zip(problems, fast):
        ref = lp_solve(p)
        assert (got.status, got.iterations) == (ref.status, ref.iterations)
        if ref.status == solvers.OPTIMAL:
            optimal += 1
            assert got.x.tobytes() == ref.x.tobytes()
            assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes()
            assert np.array_equal(got.y, ref.y)
    assert optimal >= 50


def test_nnls_matches_the_best_nonnegative_support():
    """Lawson-Hanson against enumeration: the NNLS optimum is the best
    least-squares fit over the supports whose fit is nonnegative."""
    rng = np.random.default_rng(5)
    for trial in range(40):
        m, k = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        E, f = rng.normal(size=(m, k)), rng.normal(size=m)
        best = float(np.linalg.norm(f))
        for size in range(1, k + 1):
            for support in itertools.combinations(range(k), size):
                w = np.linalg.lstsq(E[:, support], f, rcond=None)[0]
                if (w >= 0).all():
                    best = min(best, float(np.linalg.norm(E[:, support] @ w - f)))
        w = solvers.nnls(E, f)
        assert (w >= 0).all()
        assert np.linalg.norm(E @ w - f) == pytest.approx(best, abs=1e-9)


def test_min_norm_point_of_a_hull():
    # the unit vectors of R^3: the centroid; a segment off the origin: its foot
    assert solvers.min_norm_point(np.eye(3)) == pytest.approx(np.full(3, 1.0 / 3.0))
    seg = np.array([[1.0, 1.0], [-1.0, 3.0]])  # columns (1, -1) and (1, 3)
    assert solvers.min_norm_point(seg) == pytest.approx([1.0, 0.0])
    assert solvers.min_norm_point(np.array([[2.0], [0.0]])) == pytest.approx([2.0, 0.0])
    # the origin inside the hull
    assert solvers.min_norm_point(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])) == \
        pytest.approx([0.0, 0.0], abs=1e-12)
