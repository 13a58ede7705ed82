import math

import numpy as np
import pytest

from varcert import funcspace as fs
from varcert.errors import NonconvexUnsupportedError, NotInDomainError
from varcert.funcspace import (
    INF,
    DistanceFn,
    IndicatorFn,
    OracleFn,
    PLQFunction,
    SmoothFn,
    plq_max_of_affine,
    rel_lipschitz_estimate,
    subderivative,
    subderivative_sampled,
    subdifferential,
)
from varcert.geometry import Polyhedron, tangent_cone


def orthant_indicator(n=2):
    return IndicatorFn(Polyhedron.nonpositive_orthant(n))


def abs_plq():
    """|x| on the line, as the max of x and -x."""
    return plq_max_of_affine([[1.0], [-1.0]], [0.0, 0.0])


def test_value_examples():
    assert orthant_indicator().value([1.0, 0.0]) == INF
    assert orthant_indicator().value([-1.0, 0.0]) == 0.0
    assert abs_plq().value([-2.0]) == pytest.approx(2.0)
    assert SmoothFn("x1^2", 1).value([3.0]) == pytest.approx(9.0)


def test_subderivative_examples():
    f = abs_plq()
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
    sv = subderivative_sampled(abs_plq(), [0.0], [1.0])
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
    # |x| at its kink: conv{-1, 1}, both pieces active, no domain normals
    S = subdifferential(abs_plq(), [0.0])
    assert sorted(S.vertices[:, 0]) == pytest.approx([-1.0, 1.0])
    assert S.rays.shape == (0, 1) and S.lines.shape == (0, 1)
    # off the kink one piece is active: a singleton
    assert subdifferential(abs_plq(), [-2.0]).vertices.tolist() == [[-1.0]]
    S = subdifferential(SmoothFn("x1^2 + x2", 2), [1.0, 0.0])
    assert np.allclose(S.vertices, [[2.0, 1.0]])
    assert S.rays.shape == (0, 2) and S.lines.shape == (0, 2)
    with pytest.raises(NonconvexUnsupportedError, match="no exact subdifferential"):
        subdifferential(orthant_indicator(), [0.0, 0.0])
    # a point outside dom fn has none
    sq = PLQFunction([(Polyhedron.box([(-1.0, 1.0)]), [[1.0]], [0.0], 0.0)])
    with pytest.raises(NotInDomainError, match="outside the PLQ domain"):
        subdifferential(sq, [2.0])
    with pytest.raises(NotInDomainError, match="outside the smooth function domain"):
        subdifferential(SmoothFn("log(x1)", 1), [-1.0])


def test_subdifferential_elements_satisfy_subderivative_inequality():
    rng = np.random.default_rng(0)
    for fn, x in [
        (abs_plq(), [0.0]),
        (PLQFunction([(Polyhedron.box([(-1.0, 1.0)]), [[1.0]], [0.0], 0.0)]), [1.0]),
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
    assert f.value([1.0, 1.0]) == pytest.approx(np.sqrt(2))
    # at a boundary point the subderivative is dist(u; tangent cone)
    d = subderivative(f, [0.0, 0.0], [1.0, 0.0]).value
    assert d == pytest.approx(1.0, abs=1e-9)
    d = subderivative(f, [0.0, 0.0], [-1.0, -1.0]).value
    assert d == pytest.approx(0.0, abs=1e-9)


def test_plq_consistency_validation():
    with pytest.raises(ValueError):
        PLQFunction([
            (Polyhedron([[-1.0]], [0.0]), [[0.0]], [1.0], 0.0),
            (Polyhedron([[1.0]], [0.0]), [[0.0]], [1.0], 0.0),  # x at 0 vs -0: ok
            (Polyhedron([[1.0]], [1.0]), [[0.0]], [0.0], 5.0),  # constant 5 overlapping
        ])


@pytest.mark.parametrize("gap", [1e-12, 1e-10])
def test_plq_pieces_that_overlap_only_within_tol_feas_build(gap):
    """{x <= 0.3} and {x >= 0.3 + gap} share no point, though both contain
    0.3 within tol_feas: |x - 0.3| builds on them, and value takes the first
    piece there.  Pieces that overlap by 1e-6 must still agree."""
    f = PLQFunction([(Polyhedron([[1.0]], [0.3]), [[0.0]], [-1.0], 0.3),
                     (Polyhedron([[-1.0]], [-(0.3 + gap)]), [[0.0]], [1.0], -0.3)])
    assert f.value([0.3]) == 0.0 and f.value([1.3]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="disagree"):
        PLQFunction([(Polyhedron([[1.0]], [0.3]), [[0.0]], [0.0], 0.0),
                     (Polyhedron([[-1.0]], [-(0.3 - 1e-6)]), [[0.0]], [0.0], 1.0)])


def test_plq_convexity_routing():
    nonconvex = PLQFunction([
        (Polyhedron(n=1), [[-1.0]], [0.0], 0.0),  # -x^2
    ])
    assert not nonconvex.is_convex()
    with pytest.raises(NonconvexUnsupportedError, match="nonconvex PLQ"):
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
        if not math.isfinite(fn.value(x)):
            continue
        analytic = subderivative(fn, x, u)
        if analytic.mode != "analytic" or not math.isfinite(analytic.value):
            continue
        sampled = subderivative_sampled(fn, x, u, seed=checked)
        assert sampled.value == pytest.approx(analytic.value, abs=1e-5)
        checked += 1


def test_positive_homogeneity():
    rng = np.random.default_rng(3)
    fns = [abs_plq(), SmoothFn("x1^2 - x1", 1)]
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
    for fn in (IndicatorFn(P), abs_plq()):
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
    assert rel_lipschitz_estimate(abs_plq(), [0.0], 0.5) == pytest.approx(1.0, abs=0.05)
    ind = orthant_indicator()
    monkeypatch.setattr(fs, "REL_LIPSCHITZ_SAMPLES", 40)
    assert rel_lipschitz_estimate(ind, [-0.5, -0.5], 0.3) == 0.0
    sq = PLQFunction([(Polyhedron.box([(-1.0, 1.0)]), [[1.0]], [0.0], 0.0)])
    monkeypatch.setattr(fs, "REL_LIPSCHITZ_SAMPLES", 120)
    lhat = rel_lipschitz_estimate(sq, [0.0], 1.0, seed=7)
    assert 1.7 <= lhat <= 2.0 + 1e-9


def test_plq_boundary_subdifferential_has_domain_normal_rays():
    # x^2 on [-1, 1] at the right endpoint: subdifferential [2, inf)
    sq = PLQFunction([(Polyhedron.box([(-1.0, 1.0)]), [[1.0]], [0.0], 0.0)])
    S = subdifferential(sq, [1.0])
    assert S.vertices.tolist() == [[2.0]]
    assert S.rays.shape == (1, 1) and S.rays[0, 0] > 0.0
    assert S.lines.shape == (0, 1)

