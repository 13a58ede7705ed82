import numpy as np
import pytest

from varcert import geometry as geo
from varcert.calculus import Composite, feasible_set_oracle
from varcert.errors import EmptySetError, NotMemberError, NumericalBreakdownError
from varcert.expr import SmoothMap
from varcert.funcspace import IndicatorFn
from varcert.geometry import (
    Polyhedron,
    PolyhedralCone,
    derivability_check,
    normal_cone,
    project,
    project_cone,
    tangent_cone,
)
from varcert.solvers import min_norm_point, nnls


def wedge():
    # {x + y <= 0, x - y <= 0}
    return Polyhedron([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])


def test_membership_and_emptiness():
    P = Polyhedron.nonpositive_orthant(2)
    assert P.contains([-1.0, 0.0])
    assert not P.contains([1e-3, 0.0])
    assert not P.is_empty()
    Q = Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])  # x <= -1 and x >= 1
    assert Q.is_empty()
    assert not Polyhedron(n=3).is_empty()


def test_tangent_cone_examples():
    P = Polyhedron.nonpositive_orthant(2)
    K = tangent_cone(P, [0.0, 0.0])
    assert K.contains([-1.0, -2.0]) and not K.contains([1.0, 0.0])
    # interior point of a halfspace: all of R
    K = tangent_cone(Polyhedron([[1.0]], [0.0]), [-1.0])
    assert K.G.shape[0] == 0
    assert K.contains([5.0]) and K.contains([-5.0])
    # two active halfspaces through the origin
    K = tangent_cone(wedge(), [0.0, 0.0])
    assert K.G.shape[0] == 2
    assert K.contains([-1.0, 0.0]) and not K.contains([1.0, 0.0])
    with pytest.raises(NotMemberError):
        tangent_cone(P, [1.0, 1.0])


def test_normal_cone_examples():
    N = normal_cone(Polyhedron.nonpositive_orthant(2), [0.0, 0.0])
    assert N.contains([1.0, 0.0]) and N.contains([2.0, 3.0])
    assert not N.contains([-0.1, 1.0])
    N = normal_cone(Polyhedron([[1.0, 0.0]], [0.0]), [-1.0, 0.5])
    assert N.rays.shape[0] == 0 and N.lines.shape[0] == 0
    assert N.contains([0.0, 0.0]) and not N.contains([1e-3, 0.0])


def test_normal_cone_of_wedge_against_sampled_polar():
    # brute-force oracle: v is normal iff <v,u> <= 0 on a fine grid of tangent dirs
    K = tangent_cone(wedge(), [0.0, 0.0])
    angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tangent_dirs = [u for u in dirs if K.contains(u, 1e-12)]

    def in_sampled_polar(v):
        return all(float(v @ u) <= 1e-9 for u in tangent_dirs)

    N = normal_cone(wedge(), [0.0, 0.0])
    for r in N.rays:
        assert in_sampled_polar(r)
    # sampled polar elements all belong to the returned normal cone
    for v in dirs:
        if in_sampled_polar(v):
            assert N.contains(v, 1e-6)
    assert N.contains([1.0, 1.0]) and N.contains([1.0, -1.0]) and not N.contains([0.0, 1.0])


def test_polar_examples():
    nonpos = PolyhedralCone.from_halfspaces(np.eye(2))
    polar = nonpos.polar()
    assert polar.contains([1.0, 1.0]) and not polar.contains([-0.1, 0.0])
    zero = PolyhedralCone.zero(3)
    assert zero.polar().contains([4.0, -5.0, 6.0])
    K = PolyhedralCone.from_generators([[1.0, 1.0], [1.0, -1.0]])
    Kp = K.polar()
    assert np.allclose(Kp.G, [[1.0, 1.0], [1.0, -1.0]])
    # verify the polar inequality on a grid
    angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    for a in angles:
        v = np.array([np.cos(a), np.sin(a)])
        expected = float(v @ [1.0, 1.0]) <= 1e-12 and float(v @ [1.0, -1.0]) <= 1e-12
        assert Kp.contains(v, 1e-9) == expected


def random_cone(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        rays = rng.normal(size=(int(rng.integers(1, n + 3)), n))
        return PolyhedralCone.from_generators(rays)
    if kind == 1:
        G = rng.normal(size=(int(rng.integers(1, n + 3)), n))
        return PolyhedralCone.from_halfspaces(G)
    rays = rng.normal(size=(int(rng.integers(1, n + 1)), n))
    lines = rng.normal(size=(1, n))
    return PolyhedralCone.from_generators(rays, lines)


def test_double_polar_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        K = random_cone(rng, n)
        # force the conversion machinery: rebuild the double polar from
        # the polar's halfspace/generator data only
        P1 = K.polar()
        if P1.G is not None:
            P1 = PolyhedralCone.from_halfspaces(P1.G, P1.H, n=n)
        else:
            P1 = PolyhedralCone.from_generators(P1.rays, P1.lines, n=n)
        K2 = P1.polar()
        if K2.G is not None:
            K2 = PolyhedralCone.from_halfspaces(K2.G, K2.H, n=n)
        else:
            K2 = PolyhedralCone.from_generators(K2.rays, K2.lines, n=n)
        assert K.same_set(K2), f"double polar mismatch (n={n})"


def random_polyhedron_with_boundary_point(rng, n, rows):
    A = rng.normal(size=(rows, n))
    x0 = rng.normal(size=n) * 0.5
    b = A @ x0 + np.abs(rng.normal(size=rows))
    P = Polyhedron(A, b)
    # push x0 to the boundary along a random recession-free direction via LP
    from varcert.solvers import LPProblem, lp_solve, OPTIMAL

    c = rng.normal(size=n)
    cap = np.vstack([np.eye(n), -np.eye(n)])
    sol = lp_solve(LPProblem(c=c, A=np.vstack([A, cap]), b=np.concatenate([b, np.full(2 * n, 10.0)]),
                             senses=["<="] * (rows + 2 * n)))
    assert sol.status == OPTIMAL
    return P, sol.x


def test_normal_cone_equals_polar_of_tangent_cone_random():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        P, x = random_polyhedron_with_boundary_point(rng, n, int(rng.integers(2, 6)))
        if P.active_rows(x):
            N = normal_cone(P, x)
            T = tangent_cone(P, x)
            assert N.same_set(T.polar())


def test_project_examples():
    proj, d = project(Polyhedron.nonpositive_orthant(2), [1.0, 1.0])
    assert np.allclose(proj, [0.0, 0.0], atol=1e-9)
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-9)
    box = Polyhedron.box([(0.0, 1.0), (0.0, 1.0)])
    proj, d = project(box, [2.0, 0.5])
    assert np.allclose(proj, [1.0, 0.5], atol=1e-9)
    assert d == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(EmptySetError):
        project(Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]), [0.0])


def test_a_set_empty_within_rounding_has_no_projection():
    """{a.x <= 1, -a.x <= -1 - 1e-9} is nonempty only within TOL_FEAS: it is
    not empty, but no point meets its rows, so there is no projection to
    return (an LP-based emptiness test let the NNLS point through, 2.07 off
    the slab)."""
    a = np.array([0.6, 0.8])
    P = Polyhedron(np.array([a, -a]), [1.0, -1.0 - 1e-9])
    assert not P.is_empty() and P.contains(a)
    with pytest.raises(NumericalBreakdownError, match="nonempty only within tol_feas"):
        project(P, [3.0, -2.0])


def test_a_point_pinned_by_equality_rows_projects_despite_rounding():
    """Two equality rows pin {y} at n = 2, with inequality rows active at y;
    y itself misses the equality rows by 2.2e-16.  With null(C) empty, the
    active rows read b - A y0 = -1e-16 in place of 0, and the exact program
    had no point; the rounding of b - A y0 is now allowed."""
    P = Polyhedron([[0.951, -1.002], [2.442, -1.056], [-1.579, -1.966], [-0.355, -0.243]],
                   [-0.4283628282284083, -1.15124592, -0.4773385979899333, -0.026675016000000024],
                   [[-1.308, 0.781], [1.561, -1.543]], [0.722033704, -1.1606553999999998])
    y = np.array([-0.259824, 0.48935199999999995])
    assert 0.0 < P.residual(y) <= 3e-16 and not P.is_empty()
    for z in (y, y + [1.0, -2.0]):
        x, d = project(P, z)
        assert np.allclose(x, y, rtol=0.0, atol=1e-12)
        assert d == pytest.approx(np.linalg.norm(z - y), abs=1e-12)
        assert P.residual(x) <= 1e-12


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
def test_projection_onto_rows_of_large_norm(scale):
    """{scale y1 <= -0.1 scale, scale y2 <= 2 scale} is {y1 <= -0.1, y2 <= 2}:
    the nearest point to 0 is (-0.1, 0) however long the rows, where
    unscaled NNLS weights of 1e-9 fell below its tolerance and 0 came back."""
    P = Polyhedron([[scale, 0.0], [0.0, scale]], [-0.1 * scale, 2.0 * scale])
    assert not P.is_empty()
    y, d = project(P, [0.0, 0.0])
    assert np.allclose(y, [-0.1, 0.0], rtol=0.0, atol=1e-15) and d == pytest.approx(0.1, rel=1e-15)


def test_project_wedge_against_grid_oracle():
    W = wedge()
    z = np.array([1.0, 0.0])
    proj, d = project(W, z)
    # brute force over a fine feasible grid
    best = np.inf
    for a in np.linspace(-2.0, 0.5, 251):
        for b in np.linspace(-1.5, 1.5, 301):
            if W.contains([a, b], 1e-12):
                best = min(best, float(np.hypot(a - 1.0, b)))
    assert d == pytest.approx(best, abs=1e-3)
    assert d == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(proj, [0.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_project_onto_a_thin_wedge_is_exact(eps, scale):
    """{y1 <= 0, -y1 + eps*y2 <= 0} nearly folds onto the ray y1 = 0, y2 <= 0;
    the nearest point to z = scale * (0.3, 1) is the apex, at distance ||z||."""
    P = Polyhedron([[1.0, 0.0], [-1.0, eps]], [0.0, 0.0])
    z = scale * np.array([0.3, 1.0])
    proj, d = project(P, z)
    assert abs(d - np.linalg.norm(z)) <= 1e-12 * scale
    assert P.residual(proj) <= 1e-12 * (1.0 + np.linalg.norm(z))


def test_project_rejects_a_non_finite_point():
    P = Polyhedron([[0.0, 1.0]], [0.0])
    assert P.residual([np.inf, -1.0]) == np.inf
    assert not P.contains([np.inf, -1.0])
    with pytest.raises(NumericalBreakdownError):
        project(P, [np.inf, 1.0])
    with pytest.raises(NumericalBreakdownError):
        project_cone(PolyhedralCone.from_halfspaces(None, None, n=2), [np.nan, 1.0])


def nearly_parallel_instances():
    """40 seeded (P, x0, z): 2-4 nearly parallel inequality rows, up to 2
    random ones and up to n - 2 equality rows through x0, and z near x0."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        base = rng.standard_normal(n)
        rows = [base + 1e-3 * rng.standard_normal(n) for _ in range(int(rng.integers(2, 5)))]
        rows += list(rng.standard_normal((int(rng.integers(0, 3)), n)))
        A = np.array(rows)
        C = rng.standard_normal((int(rng.integers(0, n - 1)), n))
        x0 = rng.standard_normal(n)
        P = Polyhedron(A, A @ x0 + rng.uniform(0.0, 0.1, len(A)), C, C @ x0, n=n)
        yield P, x0, x0 + 3.0 * rng.standard_normal(n)


def assert_projection_kkt(P, z, y, d):
    """Feasible projection, and z - y is a nonnegative combination of the rows
    active at y plus any combination of the equality rows."""
    scale = 1.0 + np.linalg.norm(z)
    assert P.residual(y) <= 1e-12 * scale
    assert d == pytest.approx(np.linalg.norm(z - y), abs=1e-15)
    active = P.A_ineq[P.A_ineq @ y - P.b_ineq >= -1e-9 * scale]
    E = np.vstack([active, P.A_eq, -P.A_eq]).T
    w = nnls(E, z - y)
    assert np.linalg.norm(E @ w - (z - y)) <= 1e-9 * scale


def test_project_satisfies_kkt_on_nearly_parallel_rows():
    for P, _, z in nearly_parallel_instances():
        assert_projection_kkt(P, z, *project(P, z))


def cold_projection(P, z):
    """The NNLS point, as ``project`` computes it with no remembered face."""
    return geo._nearest(P.A_ineq, P.b_ineq, P.A_eq, P.b_eq, z)


def test_warm_projections_on_nearly_parallel_rows_match_the_nnls(monkeypatch):
    """60 points per instance, most projected from a remembered face: each
    meets the KKT bounds above and lies within 1e-10 (1 + ||z||) of the NNLS
    point."""
    nnls_calls = []
    least_distance = geo.least_distance

    def counting(G, h):
        nnls_calls.append(len(G))
        return least_distance(G, h)

    monkeypatch.setattr(geo, "least_distance", counting)
    rng = np.random.default_rng(12)
    projected = 0
    for P, x0, z0 in nearly_parallel_instances():
        for z in [z0] + [x0 + 3.0 * rng.standard_normal(P.n) for _ in range(59)]:
            y, d = project(P, z)
            assert_projection_kkt(P, z, y, d)
            if d > 0.0:
                projected += 1
                assert np.linalg.norm(y - cold_projection(P, z)) <= 1e-10 * (1.0 + np.linalg.norm(z))
        assert len(P._faces) <= geo._MAX_FACES
    # cold_projection solved one NNLS per projected point; project solved the rest
    assert projected > 1000 and len(nnls_calls) - projected < 0.25 * projected


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-5])
def test_warm_projections_onto_a_thin_wedge_are_no_worse_than_the_nnls(eps, scale):
    """60 points around the wedge of the test above, projected through its
    memory: no residual above the NNLS's at the same z (or 1e-12 (1 + ||z||)),
    and, where the NNLS itself is accurate (eps >= 1e-3), within
    1e-10 (1 + ||z||) of its point."""
    P = Polyhedron([[1.0, 0.0], [-1.0, eps]], [0.0, 0.0])
    rng = np.random.default_rng(5)
    for z in scale * np.vstack([[0.3, 1.0], rng.standard_normal((59, 2))]):
        y, _ = project(P, z)
        cold = cold_projection(P, z) if P.residual(z) > 0.0 else z
        size = 1.0 + np.linalg.norm(z)
        assert P.residual(y) <= max(P.residual(cold), 1e-12 * size)
        if eps >= 1e-3:
            assert np.linalg.norm(y - cold) <= 1e-10 * size
    assert P._faces


def test_a_remembered_face_projects_without_the_nnls(monkeypatch):
    """Once {y1 <= 0, y2 <= 0} has projected (1, 1, 0) onto its edge, every
    point whose projection lies on that edge is a hit: no NNLS runs."""
    P = Polyhedron([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0])
    project(P, [1.0, 1.0, 0.0])

    def refuse(G, h):
        raise AssertionError("the NNLS ran on a remembered face")

    monkeypatch.setattr(geo, "least_distance", refuse)
    rng = np.random.default_rng(8)
    for z in np.abs(rng.standard_normal((50, 3))) * [1.0, 1.0, -1.0] + [1e-3, 1e-3, 0.5]:
        y, d = project(P, z)
        assert np.array_equal(y, [0.0, 0.0, z[2]])
        assert d == pytest.approx(np.hypot(z[0], z[1]), rel=1e-15)


def test_the_face_memory_is_bounded():
    """A box in R^12 has 3^12 faces; 1,000 projections remember at most 16."""
    P = Polyhedron.box([(-1.0, 1.0)] * 12)
    rng = np.random.default_rng(9)
    for z in 2.0 * rng.standard_normal((1000, 12)):
        y, _ = project(P, z)
        assert np.allclose(y, np.clip(z, -1.0, 1.0), rtol=0.0, atol=1e-12)
        assert len(P._faces) <= geo._MAX_FACES


@pytest.mark.parametrize("n", [2, 3])
def test_a_face_of_dependent_rows_is_never_remembered(n):
    """y1 <= 0, y2 <= 0 and y1 + y2 <= 0 meet at the projection of every z
    with z1, z2 > 0: three rows in R^2, or rank 2 in R^3.  The NNLS serves
    each such point, exactly."""
    P = Polyhedron(np.hstack([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros((3, n - 2))]),
                   [0.0, 0.0, 0.0])
    rng = np.random.default_rng(10)
    for z in np.abs(rng.standard_normal((20, n))) + 1e-3:
        y, d = project(P, z)
        assert np.allclose(y, np.append([0.0, 0.0], z[2:]), rtol=0.0, atol=1e-14)
        assert d == pytest.approx(np.linalg.norm(z[:2]), rel=1e-14)
    assert P._faces == []


def test_project_variational_inequality_and_lipschitz():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        lo = -np.abs(rng.normal(size=n)) - 0.2
        hi = np.abs(rng.normal(size=n)) + 0.2
        B = Polyhedron.box(list(zip(lo, hi)))
        z1 = rng.normal(size=n) * 2
        z2 = rng.normal(size=n) * 2
        p1, d1 = project(B, z1)
        p2, d2 = project(B, z2)
        # <z - proj, w - proj> <= tol for box vertices w
        for mask in range(2 ** n):
            w = np.array([hi[j] if (mask >> j) & 1 else lo[j] for j in range(n)])
            assert float((z1 - p1) @ (w - p1)) <= 1e-7
        assert abs(d1 - d2) <= np.linalg.norm(z1 - z2) + 1e-9


def test_derivability_examples():
    grid = geo.default_t_grid()
    orthant = geo.SampledSetOracle(lambda z: float(np.linalg.norm(np.maximum(z, 0.0))),
                                   lambda z: np.minimum(z, 0.0))
    rep = derivability_check(orthant, [0.0, 0.0], [-1.0, -1.0], grid)
    assert rep.passed and rep.max_tail_ratio == pytest.approx(0.0, abs=1e-12)
    assert rep.skipped == 0

    # parabola graph {(a, b): b = a^2} through a refining grid projection
    def graph_point(z):
        lo, hi = -1.5, 1.5
        for _ in range(4):
            a = np.linspace(lo, hi, 801)
            k = int(np.argmin(np.hypot(z[0] - a, z[1] - a ** 2)))
            step = a[1] - a[0]
            lo, hi = a[k] - 2 * step, a[k] + 2 * step
        return np.array([a[k], a[k] ** 2])

    graph = geo.SampledSetOracle(lambda z: float(np.linalg.norm(z - graph_point(z))), graph_point)
    rep = derivability_check(graph, np.zeros(2), np.array([1.0, 0.0]),
                             [1e-2 * 0.5 ** j for j in range(10)], tol_deriv=1e-2)
    assert rep.passed
    ratios = rep.ratios
    assert all(ratios[i + 1] <= ratios[i] + 1e-12 for i in range(len(ratios) - 1))

    # off the orthant along (1, 0) the ratio is 1 at every level; a violation
    # of inf (a point without an estimate) is skipped, and the last 5 usable
    # levels decide
    undefined = geo.SampledSetOracle(lambda z: np.inf if z[0] > 1e-4 else max(z[0], 0.0),
                                     lambda z: np.minimum(z, 0.0))
    rep = derivability_check(undefined, [0.0, 0.0], [1.0, 0.0], grid)
    assert rep.skipped == sum(t > 1e-4 for t in grid) == 7
    assert rep.ratios[:7] == [np.inf] * 7
    assert not rep.passed and rep.max_tail_ratio == pytest.approx(1.0)


def test_sampled_set_oracle_penalty_projection():
    # parabola epigraph {b >= a^2} as Omega = f^{-1}(dom theta), f = a^2 - b,
    # Theta = {y <= 0}; the violation is max(a^2 - b, 0)
    f = SmoothMap.from_strings(["x1^2 - x2"], ["x1", "x2"])
    c = Composite(IndicatorFn(Polyhedron([[1.0]], [0.0])), f, [0.0, 0.0])
    oracle = feasible_set_oracle(c)
    assert oracle.feasible([0.5, 0.5])
    z = np.array([0.0, -1.0])
    d = oracle.dist(z)
    # from (0,-1) the nearest point of the epigraph is (0, 0), at distance 1
    a = np.linspace(-2, 2, 4001)
    true = float(np.min(np.hypot(a, a ** 2 + 1.0)))
    assert true == pytest.approx(1.0)
    assert d == pytest.approx(true, abs=5e-3)
    assert oracle.violation(oracle.project(z)) <= 1e-5


def test_cone_conversion_known_cases():
    # halfplane: one ray and one line
    K = PolyhedralCone.from_halfspaces([[1.0, 0.0]])
    rays, lines = K.ensure_generators()
    assert rays.shape[0] == 1 and lines.shape[0] == 1
    assert np.allclose(rays[0] / np.linalg.norm(rays[0]), [-1.0, 0.0])
    # generator cone to halfspaces and back
    K = PolyhedralCone.from_generators([[0.0, 1.0], [1.0, 1.0]])
    G, H = K.ensure_halfspace()
    K2 = PolyhedralCone.from_halfspaces(G, H)
    assert K.same_set(K2)
    assert K2.contains([0.5, 1.0]) and not K2.contains([1.0, 0.5])


def test_validate_forms_invariant():
    K = PolyhedralCone.from_generators([[0.0, 1.0], [1.0, 1.0]])
    G, H = K.ensure_halfspace()
    assert K.same_set(PolyhedralCone.from_halfspaces(G, H, n=2))
    # a halfspace form that cuts the generated cone must be caught
    bad = PolyhedralCone.from_halfspaces([[0.0, 1.0], [1.0, 0.0]], n=2)  # forces u1 <= 0
    assert not PolyhedralCone.from_generators([[1.0, 0.0]]).same_set(bad)


def _facet_probes(G, gens, lines, tol=1e-9):
    """(point on the facet, unit outer normal) for each row of G u <= 0 that
    some generator lies on; lines lie on every facet."""
    out = []
    for g in G:
        on = [v for v in gens if abs(float(g @ v)) <= tol * (1.0 + float(np.linalg.norm(v)))]
        if on:
            out.append((np.sum(on, axis=0) + np.sum(lines, axis=0), g / np.linalg.norm(g)))
    return out


def test_generator_cone_membership_random():
    """LP membership in cone{rays} + span{lines}: inside points, points
    1e-3 outside a facet, and points within 1e-12 of a facet."""
    rng = np.random.default_rng(7)
    checked = {"in": 0, "out": 0, "near": 0}
    for _ in range(25):
        n = int(rng.integers(2, 5))
        nl = int(rng.integers(0, n - 1))
        L = rng.normal(size=(nl, n))
        e = rng.normal(size=n)
        if nl:
            e -= L.T @ np.linalg.lstsq(L.T, e, rcond=None)[0]
        e /= np.linalg.norm(e)
        R = e + 0.6 * rng.normal(size=(int(rng.integers(1, 6)), n))
        K = PolyhedralCone.from_generators(R, L, n=n)
        for _ in range(3):
            u = R.T @ rng.uniform(0.0, 2.0, size=R.shape[0]) + L.T @ rng.normal(size=nl)
            assert K.contains(u)
            checked["in"] += 1
        G, _ = geo.cone_halfspaces_from_generators(R, L)
        for p, g in _facet_probes(G, R, L):
            assert not K.contains(p + 1e-3 * g)
            assert K.contains(p + 1e-12 * g) and K.contains(p - 1e-12 * g)
            checked["out"] += 1
            checked["near"] += 2
        assert K.G is None  # every query above took the LP path
    assert min(checked.values()) >= 20


def test_hull_vertices_are_the_rows_off_the_hull_of_the_others_and_0():
    """Against a brute-force reference: a distinct nonzero row is a vertex of
    conv({0} u rows) exactly when it lies off the hull of 0 and the other
    rows.  Rows on a grid, with repeats, collinear runs and zero rows."""
    rng = np.random.default_rng(3602)
    for n in (1, 2):
        for _ in range(30):
            R = rng.integers(-3, 4, size=(int(rng.integers(1, 12)), n)).astype(float)
            got = geo.hull_vertices(R)
            assert len(got) == len({tuple(R[i]) for i in got})
            distinct = {tuple(r) for r in R if r.any()}
            want = set()
            for r in distinct:
                others = np.array([np.zeros(n)] + [o for o in distinct if o != r]).T
                if np.linalg.norm(min_norm_point(others - np.array(r)[:, None])) > 1e-9:
                    want.add(r)
            assert {tuple(R[i]) for i in got} == want, R
