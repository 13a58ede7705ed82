import math

import numpy as np
import pytest

from varcert import funcspace as fs
from varcert.errors import InconclusiveError, NonconvexUnsupportedError, NotInDomainError
from varcert.funcspace import (
    INF,
    DistanceFn,
    IndicatorFn,
    OracleFn,
    PLQFunction,
    ScaledFn,
    SeparableSumFn,
    SmoothFn,
    SubdifferentialSet,
    plq_abs,
    plq_max_of_affine,
    rel_lipschitz_estimate,
    subderivative,
    subderivative_sampled,
    subdifferential,
    value,
)
from varcert.geometry import (
    Polyhedron,
    PolyhedralCone,
    cone_halfspaces_from_generators,
    tangent_cone,
)


def orthant_indicator(n=2):
    return IndicatorFn(Polyhedron.nonpositive_orthant(n))


def test_value_examples():
    assert value(orthant_indicator(), [1.0, 0.0]) == INF
    assert value(orthant_indicator(), [-1.0, 0.0]) == 0.0
    assert value(plq_abs(), [-2.0]) == pytest.approx(2.0)
    assert value(SmoothFn("x1^2", 1), [3.0]) == pytest.approx(9.0)


def test_subderivative_examples():
    f = plq_abs()
    assert subderivative(f, [0.0], [1.0]).value == pytest.approx(1.0)
    assert subderivative(f, [0.0], [-1.0]).value == pytest.approx(1.0)
    assert subderivative(orthant_indicator(), [0.0, 0.0], [1.0, 0.0]).value == INF
    assert subderivative(orthant_indicator(), [0.0, 0.0], [-1.0, 0.0]).value == 0.0

    def osc(z):
        return z[0] ** 2 * math.sin(1.0 / z[0]) if z[0] != 0 else 0.0

    sv = subderivative(OracleFn(osc, 1), [0.0], [1.0])
    assert sv.mode == "sampled"
    assert sv.value == pytest.approx(0.0, abs=1e-5)


def test_subderivative_sampled_examples():
    sv = subderivative_sampled(plq_abs(), [0.0], [1.0])
    assert sv.value == pytest.approx(1.0, abs=1e-6)
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))  # R_-
    assert subderivative_sampled(ind, [0.0], [-1.0]).value == pytest.approx(0.0, abs=1e-9)
    # x^2 on R_+, -x on R_-: quotient from the -x piece
    plq = PLQFunction([
        (Polyhedron([[-1.0]], [0.0]), [[1.0]], [0.0], 0.0),
        (Polyhedron([[1.0]], [0.0]), [[0.0]], [-1.0], 0.0),
    ])
    assert subderivative_sampled(plq, [0.0], [-1.0]).value == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(NotInDomainError):
        subderivative_sampled(ind, [1.0], [1.0])


def test_subdifferential_examples():
    lo, hi = subdifferential(plq_abs(), [0.0]).interval()
    assert (lo, hi) == pytest.approx((-1.0, 1.0))
    S = subdifferential(orthant_indicator(), [0.0, 0.0])
    assert S.contains([3.0, 1.0]) and not S.contains([-0.5, 1.0])
    S = subdifferential(SmoothFn("x1^2 + x2", 2), [1.0, 0.0])
    assert np.allclose(S.vertices[0], [2.0, 1.0])


def test_subdifferential_elements_satisfy_subderivative_inequality():
    rng = np.random.default_rng(0)
    for fn, x in [
        (plq_abs(), [0.0]),
        (orthant_indicator(), [0.0, 0.0]),
        (plq_max_of_affine([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, 0.0]),
         [0.0, 0.0]),
    ]:
        S = subdifferential(fn, x)
        elements = S.sample(10, seed=1)
        n = len(x)
        for _ in range(50):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            d = subderivative(fn, x, u).value
            for v in elements:
                assert float(np.asarray(v) @ u) <= d + 1e-8


def test_distance_function_objects():
    P = Polyhedron.nonpositive_orthant(2)
    f = DistanceFn(P)
    assert value(f, [1.0, 1.0]) == pytest.approx(np.sqrt(2))
    # at a boundary point the subderivative is dist(u; tangent cone)
    d = subderivative(f, [0.0, 0.0], [1.0, 0.0]).value
    assert d == pytest.approx(1.0, abs=1e-9)
    d = subderivative(f, [0.0, 0.0], [-1.0, -1.0]).value
    assert d == pytest.approx(0.0, abs=1e-9)
    S = subdifferential(f, [0.0, 0.0])
    assert S.kind == "cone_cap_ball"
    assert S.contains([1.0 / np.sqrt(2), 1.0 / np.sqrt(2)])
    assert not S.contains([1.0, 1.0])  # norm > 1
    assert not S.contains([-0.5, 0.0])  # outside the normal cone
    # support equals the subderivative (distance functions are regular)
    for u in ([1.0, 0.0], [0.3, -0.9], [-1.0, -1.0]):
        assert S.support(u) == pytest.approx(subderivative(f, [0.0, 0.0], u).value, abs=1e-8)


def test_plq_consistency_validation():
    with pytest.raises(ValueError):
        PLQFunction([
            (Polyhedron([[-1.0]], [0.0]), [[0.0]], [1.0], 0.0),
            (Polyhedron([[1.0]], [0.0]), [[0.0]], [1.0], 0.0),  # x at 0 vs -0: ok
            (Polyhedron([[1.0]], [1.0]), [[0.0]], [0.0], 5.0),  # constant 5 overlapping
        ])


def test_plq_convexity_routing():
    nonconvex = PLQFunction([
        (Polyhedron.whole_space(1), [[-1.0]], [0.0], 0.0),  # -x^2
    ])
    assert not nonconvex.is_convex()
    with pytest.raises(NonconvexUnsupportedError):
        subdifferential(nonconvex, [0.0])


def test_analytic_matches_sampled_on_random_plq_and_smooth():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 4))
        kind = rng.integers(0, 2)
        if kind == 0:
            coeffs = rng.normal(size=(int(rng.integers(2, 5)), n))
            consts = rng.normal(size=coeffs.shape[0]) * 0.3
            B = rng.normal(size=(n, n))
            B = 0.1 * (B + B.T)
            base = plq_max_of_affine(coeffs, consts)
            fn = PLQFunction(
                [(p.omega, B, p.b, p.beta) for p in base.pieces], validate=False
            )
        else:
            fn = SmoothFn("x1^2" + "".join(f" + sin(x{i+1})" for i in range(n)), n)
        x = rng.normal(size=n) * 0.5
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        if not math.isfinite(value(fn, x)):
            continue
        analytic = subderivative(fn, x, u)
        if analytic.mode != "analytic" or not math.isfinite(analytic.value):
            continue
        sampled = subderivative_sampled(fn, x, u, seed=checked)
        assert sampled.value == pytest.approx(analytic.value, abs=1e-5)
        checked += 1


def test_positive_homogeneity():
    rng = np.random.default_rng(3)
    fns = [plq_abs(), SmoothFn("x1^2 - x1", 1)]
    for fn in fns:
        for lam in (0.5, 2.0, 7.0):
            for _ in range(5):
                u = rng.normal(size=1)
                d1 = subderivative(fn, [0.0], lam * u).value
                d2 = subderivative(fn, [0.0], u).value
                assert d1 == pytest.approx(lam * d2, rel=1e-12, abs=1e-12)
    # sampled mode within tolerance
    f = OracleFn(lambda z: abs(z[0]), 1)
    for lam in (0.5, 2.0, 7.0):
        d1 = subderivative_sampled(f, [0.0], [lam]).value
        d2 = subderivative_sampled(f, [0.0], [1.0]).value
        assert d1 == pytest.approx(lam * d2, abs=1e-6 * lam)


def test_domain_of_subderivative_is_tangent_cone(monkeypatch):
    # dom d(phi)(x) = T_dom(x), checked on sampled directions, and
    # |d(phi)(x)(u)| <= lhat * ||u|| there
    rng = np.random.default_rng(4)
    P = Polyhedron([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
    monkeypatch.setattr(fs, "REL_LIPSCHITZ_SAMPLES", 80)
    for fn in (IndicatorFn(P), plq_abs()):
        x = np.zeros(fn.n)
        dom = fn.dom_pieces()
        lhat = rel_lipschitz_estimate(fn, x, 0.5, seed=5)
        for _ in range(40):
            u = rng.standard_normal(fn.n)
            u /= np.linalg.norm(u)
            d = subderivative(fn, x, u).value
            in_tangent = any(
                tangent_cone(Q, x).contains(u, 1e-9)
                for Q in dom if Q.contains(x)
            )
            assert (d < INF) == in_tangent
            if d < INF:
                assert abs(d) <= lhat * np.linalg.norm(u) + 1e-8


def test_rel_lipschitz_examples(monkeypatch):
    monkeypatch.setattr(fs, "REL_LIPSCHITZ_SAMPLES", 80)
    assert rel_lipschitz_estimate(plq_abs(), [0.0], 0.5) == pytest.approx(1.0, abs=0.05)
    ind = orthant_indicator()
    monkeypatch.setattr(fs, "REL_LIPSCHITZ_SAMPLES", 40)
    assert rel_lipschitz_estimate(ind, [-0.5, -0.5], 0.3) == 0.0
    sq = PLQFunction([(Polyhedron.box([(-1.0, 1.0)]), [[1.0]], [0.0], 0.0)])
    monkeypatch.setattr(fs, "REL_LIPSCHITZ_SAMPLES", 120)
    lhat = rel_lipschitz_estimate(sq, [0.0], 1.0, seed=7)
    assert 1.7 <= lhat <= 2.0 + 1e-9


def test_scaled_and_sum_wrappers():
    f = ScaledFn(plq_abs(), 3.0)
    assert value(f, [-2.0]) == pytest.approx(6.0)
    assert subderivative(f, [0.0], [1.0]).value == pytest.approx(3.0)
    lo, hi = subdifferential(f, [0.0]).interval()
    assert (lo, hi) == pytest.approx((-3.0, 3.0))


def test_separable_sum_is_analytic_and_unconditional():
    theta = SeparableSumFn(plq_abs(), plq_abs())
    assert value(theta, [1.0, -2.0]) == pytest.approx(3.0)
    d = subderivative(theta, [0.0, 0.0], [1.0, -2.0]).value
    assert d == pytest.approx(3.0)
    ind = SeparableSumFn(orthant_indicator(2), plq_abs())
    assert subderivative(ind, [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]).value == INF


def test_subdifferential_set_algebra():
    A = SubdifferentialSet.polytope([[1.0], [-1.0]])  # [-1, 1]
    B = SubdifferentialSet.singleton([1.0])
    M = A.minkowski(B)
    assert M.interval() == pytest.approx((0.0, 2.0))
    mapped = A.map_adjoint([[2.0]])
    assert mapped.interval() == pytest.approx((-2.0, 2.0))
    assert A.contains([0.3]) and not A.contains([1.2])


def test_mapped_ball_membership_reads_the_least_norm_preimage():
    # v = lam1 + 2 lam2 over lam in R^2_+ with ||lam|| <= 0.46: the least-norm
    # preimage of v = 1 is (0.2, 0.4), of norm 0.447, while the 1-norm-minimal
    # (0, 0.5) has norm 0.5.  support(1) = 0.46 sqrt(5) = 1.0286.
    K = PolyhedralCone.from_generators(np.eye(2))
    S = SubdifferentialSet.cone_cap_ball(K, 0.46).map_adjoint([[1.0, 2.0]])
    assert S.support([1.0]) == pytest.approx(0.46 * np.sqrt(5.0))
    assert S.contains([1.0])
    assert not S.contains([1.03])
    assert not S.contains([-0.1])


def test_mapped_ball_membership_with_a_preimage_nearly_in_null_of_j_transpose():
    # v = lam1 + lam2 over the ray lam = w (1, -0.999): the one preimage of 1
    # is 1000 (1, -0.999), of norm 1413.5
    K = PolyhedralCone.from_generators([[1.0, -0.999]])
    S = SubdifferentialSet.cone_cap_ball(K, 1414.0).map_adjoint([[1.0, 1.0]])
    assert S.contains([1.0])
    assert not S.contains([1.001])


def test_plq_boundary_subdifferential_has_domain_normal_rays():
    # x^2 on [-1, 1] at the right endpoint: subdifferential [2, inf)
    sq = PLQFunction([(Polyhedron.box([(-1.0, 1.0)]), [[1.0]], [0.0], 0.0)])
    S = subdifferential(sq, [1.0])
    assert S.support([1.0]) == INF
    assert -S.support([-1.0]) == pytest.approx(2.0)
    assert S.contains([5.0]) and not S.contains([1.5])


def test_polyhedral_set_membership_random():
    """V-rep membership conv{V} + cone{R} + span{L}: inside points, points
    1e-3 outside a facet, and points within 1e-12 of a facet.  Facets come
    from the homogenized cone over (v, 1), (r, 0), (l, 0)."""
    rng = np.random.default_rng(11)
    checked = {"in": 0, "out": 0, "near": 0}
    for _ in range(20):
        n = int(rng.integers(2, 4))
        V = rng.normal(size=(int(rng.integers(1, 5)), n))
        R = rng.normal(size=(int(rng.integers(0, 3)), n))
        L = rng.normal(size=(int(rng.integers(0, n - 1)), n))
        S = SubdifferentialSet.polytope(V, R if len(R) else None, L if len(L) else None)
        for _ in range(3):
            v = (V.T @ rng.dirichlet(np.ones(len(V))) + R.T @ rng.uniform(0.0, 2.0, size=len(R))
                 + L.T @ rng.normal(size=len(L)))
            assert S.contains(v)
            checked["in"] += 1
        hom = np.vstack([np.hstack([V, np.ones((len(V), 1))]), np.hstack([R, np.zeros((len(R), 1))])])
        hom_lines = np.hstack([L, np.zeros((len(L), 1))])
        G, _ = cone_halfspaces_from_generators(hom, hom_lines)
        for a in G:
            verts = [v for v in V if abs(float(a[:n] @ v + a[n])) <= 1e-9]
            rays = [r for r in R if abs(float(a[:n] @ r)) <= 1e-9]
            if not verts or np.linalg.norm(a[:n]) < 1e-9:
                continue
            p = np.mean(verts, axis=0) + np.sum(rays, axis=0) + np.sum(L, axis=0)
            g = a[:n] / np.linalg.norm(a[:n])
            assert not S.contains(p + 1e-3 * g)
            assert S.contains(p + 1e-12 * g) and S.contains(p - 1e-12 * g)
            checked["out"] += 1
            checked["near"] += 2
    assert min(checked.values()) >= 20
