import math

import numpy as np
import pytest

from varcert import calculus as calc
from varcert.calculus import (
    Composite,
    DomainOracle,
    abadie_check,
    chain_subderivative,
    chain_subdifferential,
    composite_fn,
    guignard_check,
    msqc_estimate,
    normal_cone_inverse_image,
    prox_regularity_check,
    robinson_check,
    robustness_check,
    sum_subderivative,
    sum_subdifferential,
)
from varcert.errors import InfeasibleWitnessError
from varcert.expr import SmoothMap
from varcert.funcspace import (
    INF,
    IndicatorFn,
    PLQFunction,
    SmoothFn,
    plq_abs,
    plq_max_of_affine,
    subderivative_sampled,
)
from varcert.geometry import Polyhedron


def id_map(n=1):
    return SmoothMap.identity(n)


def test_chain_subderivative_examples():
    # theta = |.|, f(x) = x^2 at xbar = 1: d theta(1)(2u)
    c = Composite(plq_abs(), SmoothMap.from_strings(["x1^2"], ["x1"]), [1.0])
    assert chain_subderivative(c, [1.0]).value == pytest.approx(2.0)
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))  # R_-
    c = Composite(ind, id_map(), [0.0])
    assert chain_subderivative(c, [-1.0]).value == 0.0
    assert chain_subderivative(c, [1.0]).value == INF


def test_chain_subdifferential_examples():
    c = Composite(plq_abs(), SmoothMap.from_strings(["2*x1"], ["x1"]), [0.0])
    S = chain_subdifferential(c)
    assert S.interval() == pytest.approx((-2.0, 2.0))
    # smooth outer: classical chain rule
    c = Composite(SmoothFn("x1^2 + x2", 2), SmoothMap.from_strings(["x1", "x1^2"], ["x1"]), [1.0])
    S = chain_subdifferential(c)
    # grad theta(y) = (2 y1, 1) at y=(1,1) -> (2,1); J^T = (1, 2) rows -> 2*1 + 1*2
    assert np.allclose(S.vertices[0], [4.0])
    # theta = max(y1, y2), f(x) = (x, -x): adjoint image of the simplex
    theta = plq_max_of_affine([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    c = Composite(theta, SmoothMap.from_strings(["x1", "-x1"], ["x1"]), [0.0])
    S = chain_subdifferential(c)
    assert S.interval() == pytest.approx((-1.0, 1.0))


def test_chain_rule_matches_sampled_quotient():
    theta = plq_max_of_affine([[1.0, 0.5], [-0.3, 1.0], [0.0, -1.0]], [0.0, 0.1, 0.2])
    f = SmoothMap.from_strings(["x1^2 - x2", "x1*x2 + x2"], ["x1", "x2"])
    xbar = np.array([0.4, -0.2])
    c = Composite(theta, f, xbar)
    fn = composite_fn(c)
    rng = np.random.default_rng(1)
    for _ in range(6):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        lhs = chain_subderivative(c, u).value
        rhs = subderivative_sampled(fn, xbar, u, seed=3).value
        assert rhs == pytest.approx(lhs, abs=1e-4)


def test_sum_subderivative_examples():
    phi, psi = plq_abs(), SmoothFn("x1", 1)
    sv = sum_subderivative(phi, psi, [0.0], [-1.0])
    assert sv.value == pytest.approx(0.0)
    assert any(f.startswith("tangential-QC") for f in sv.flags)
    # indicators of opposite rays: intersection {0}
    neg = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    pos = IndicatorFn(Polyhedron([[-1.0]], [0.0]))
    assert sum_subderivative(neg, pos, [0.0], [0.0]).value == 0.0
    assert sum_subderivative(neg, pos, [0.0], [1.0]).value == INF
    assert sum_subderivative(neg, pos, [0.0], [-1.0]).value == INF


def test_sum_subdifferential_example():
    S = sum_subdifferential(plq_abs(), SmoothFn("x1", 1), [0.0])
    assert S.interval() == pytest.approx((0.0, 2.0))


def test_sum_rule_reduces_to_diagonal_chain_rule():
    phi, psi = plq_abs(), plq_abs()
    x = [0.0]
    c = calc._diagonal_composite(phi, psi, x)
    for u in ([1.0], [-1.0], [0.3]):
        lhs = sum_subderivative(phi, psi, x, u).value
        rhs = chain_subderivative(c, u).value
        assert lhs == pytest.approx(rhs)


def test_abadie_check_identity_verified():
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    rep = abadie_check(Composite(ind, id_map(), [0.0]))
    assert rep.verdict == calc.VERIFIED


def test_abadie_check_square_refuted():
    # f(x) = x^2, dom theta = {0}: linearized cone is R, tangents are {0}
    ind = IndicatorFn(Polyhedron.singleton([0.0]))
    f = SmoothMap.from_strings(["x1^2"], ["x1"])
    rep = abadie_check(Composite(ind, f, [0.0]))
    assert rep.verdict == calc.REFUTED
    assert rep.witness is not None


def test_abadie_check_oracle_domain_cone_fixture():
    # product of a negative second-order cone and a halfspace, f(x) = (x, x)
    def soc_neg_dist(y):
        # dist to {(w, s): ||w|| <= -s} in R^3
        w, s = y[:2], y[2]
        nw = float(np.linalg.norm(w))
        if nw <= -s:
            return 0.0
        if nw <= s:
            return float(np.linalg.norm(y))
        return (nw + s) / math.sqrt(2.0)

    def member(y):
        scale = 1e-6 * (1.0 + float(np.linalg.norm(y)))
        return soc_neg_dist(y[:3]) <= scale and y[3] - y[5] <= scale

    def dist(y):
        d1 = soc_neg_dist(y[:3])
        d2 = max(0.0, (y[3] - y[5]) / math.sqrt(2.0))
        return math.hypot(d1, d2)

    def tangent_member(w):
        # tangent cone of a closed convex cone at its apex is the cone itself;
        # tolerate sampled-direction noise at the 1e-3 scale
        scale = 1e-3 * (1.0 + float(np.linalg.norm(w)))
        return dist(w) <= scale

    oracle = DomainOracle(member=member, tangent_member=tangent_member, dist=dist)
    f = SmoothMap.from_strings(["x1", "x2", "x3", "x1", "x2", "x3"], ["x1", "x2", "x3"])
    theta = IndicatorFn(Polyhedron.whole_space(6))  # placeholder; oracle overrides
    c = Composite(theta, f, [0.0, 0.0, 0.0], domain_oracle=oracle)
    rep = abadie_check(c, samples=8, seed=3)
    assert rep.verdict == calc.VERIFIED


def test_msqc_estimate_identity():
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    rep = msqc_estimate(Composite(ind, id_map(), [0.0]), radius=0.5, samples=40)
    assert rep.verdict == calc.VERIFIED
    assert rep.kappa_hat == pytest.approx(1.0, abs=0.1)


def test_msqc_estimate_projects_no_image_twice_in_a_row(monkeypatch):
    """The ratio's dist(f(z); Theta) and the first Gauss-Newton restoration
    step from z project the same image; it is projected once."""
    images = []
    project = calc.project

    def recording(P, y):
        images.append(np.asarray(y, dtype=float).tobytes())
        return project(P, y)

    monkeypatch.setattr(calc, "project", recording)
    ind = IndicatorFn(Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
    f = SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"])
    msqc_estimate(Composite(ind, f, [0.0, 0.0]), radius=0.5, samples=10)
    assert images
    assert all(a != b for a, b in zip(images, images[1:]))


def test_msqc_estimate_square_diverges():
    ind = IndicatorFn(Polyhedron.singleton([0.0]))
    f = SmoothMap.from_strings(["x1^2"], ["x1"])
    rep = msqc_estimate(Composite(ind, f, [0.0]), radius=0.5, samples=40)
    assert rep.diverging
    assert rep.verdict == calc.REFUTED


def test_msqc_scalar_sip_surrogate():
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    rep = msqc_estimate(Composite(ind, id_map(), [0.0]), radius=0.25, samples=30, seed=5)
    assert rep.verdict == calc.VERIFIED
    assert 0.9 <= rep.kappa_hat <= 1.1


def test_robinson_check_examples():
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    rep = robinson_check(Composite(ind, id_map(), [0.0]))
    assert rep.verdict == calc.VERIFIED and rep.confidence == "exact"
    # f(x) = (x, 0) into R^2_-: +e2 unreachable
    ind2 = IndicatorFn(Polyhedron.nonpositive_orthant(2))
    f = SmoothMap.from_strings(["x1", "0"], ["x1"])
    rep = robinson_check(Composite(ind2, f, [0.0]))
    assert rep.verdict == calc.REFUTED
    assert np.allclose(np.abs(rep.witness), [0.0, 1.0])


def test_guignard_polyhedral_exact():
    ind = IndicatorFn(Polyhedron.nonpositive_orthant(2))
    f = SmoothMap.from_strings(["x1 + x2", "x1 - x2"], ["x1", "x2"])
    rep = guignard_check(Composite(ind, f, [0.0, 0.0]))
    assert rep.verdict == calc.VERIFIED


def test_normal_cone_inverse_image_examples():
    ind = IndicatorFn(Polyhedron.nonpositive_orthant(2))
    c = Composite(ind, SmoothMap.identity(2), [0.0, 0.0])
    cone, checker = normal_cone_inverse_image(c, kappa=1.0)
    chk = checker([1.0, 1.0])
    assert chk.ok
    assert chk.lam_norm == pytest.approx(np.sqrt(2.0), abs=1e-8)
    with pytest.raises(InfeasibleWitnessError):
        checker([-1.0, 0.0])
    # f(x) = (x, x): the tie-broken multiplier meets the Euclidean bound
    f = SmoothMap.from_strings(["x1", "x1"], ["x1"])
    c = Composite(ind, f, [0.0])
    cone, checker = normal_cone_inverse_image(c, kappa=1.0 / np.sqrt(2.0))
    chk = checker([2.0])
    assert np.allclose(chk.lam, [1.0, 1.0], atol=1e-8)
    assert chk.ok


def test_robustness_check_orthant_and_parabola():
    ind = IndicatorFn(Polyhedron.nonpositive_orthant(2))
    c = Composite(ind, SmoothMap.identity(2), [0.0, 0.0])
    rep = robustness_check(c, kappa=1.0, seed=2)
    assert rep.status == calc.VERIFIED
    assert rep.max_violation <= 1e-5

    # Omega = {(a,b): b >= a^2} as preimage of R_+ under b - a^2
    pos = IndicatorFn(Polyhedron([[-1.0]], [0.0]))
    f = SmoothMap.from_strings(["x2 - x1^2"], ["x1", "x2"])
    c = Composite(pos, f, [0.0, 0.0])
    rep = robustness_check(c, kappa=1.0, seed=3)
    assert rep.status == calc.VERIFIED
    assert rep.max_violation <= 1e-5

    rep = robustness_check(c, kappa=None)
    assert rep.status == calc.NOT_APPLICABLE


def test_prox_regularity_convex_and_parabola():
    ind = IndicatorFn(Polyhedron.nonpositive_orthant(2))
    c = Composite(ind, SmoothMap.identity(2), [0.0, 0.0])
    rep = prox_regularity_check(c, kappa=1.0, seed=1)
    assert rep.status == calc.VERIFIED
    assert rep.r_hat <= 1e-5  # convex sets need no curvature allowance

    # parabola hypograph {b <= a^2}: nonconvex, prox-regular with r ~ curvature
    neg = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    f = SmoothMap.from_strings(["x2 - x1^2"], ["x1", "x2"])
    c = Composite(neg, f, [0.0, 0.0])
    rep = prox_regularity_check(c, kappa=1.0, seed=1)
    assert rep.status == calc.VERIFIED
    assert 0.05 <= rep.r_hat <= 5.0  # curvature scale of the parabola
    assert rep.r_theory == pytest.approx(2.0, abs=1e-3)

    rep = prox_regularity_check(c, kappa=None)
    assert rep.status == calc.NOT_APPLICABLE


def test_msqc_verified_never_abadie_refuted():
    # hierarchy consistency on a small mixed corpus
    fixtures = []
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    fixtures.append(Composite(ind, id_map(), [0.0]))
    wedge = IndicatorFn(Polyhedron([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0]))
    fixtures.append(Composite(wedge, SmoothMap.identity(2), [0.0, 0.0]))
    pos = IndicatorFn(Polyhedron([[-1.0]], [0.0]))
    f = SmoothMap.from_strings(["x2 - x1^2"], ["x1", "x2"])
    fixtures.append(Composite(pos, f, [0.0, 0.0]))
    for c in fixtures:
        ms = msqc_estimate(c, radius=0.3, samples=25, seed=7)
        if ms.verdict == calc.VERIFIED:
            ab = abadie_check(c, seed=7)
            assert ab.verdict != calc.REFUTED


def test_chain_subdifferential_generators_respect_subderivative():
    theta = plq_max_of_affine([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [0.0, 0.0, 0.0])
    f = SmoothMap.from_strings(["x1 - x2", "x1 + x2"], ["x1", "x2"])
    c = Composite(theta, f, [0.0, 0.0])
    S = chain_subdifferential(c)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        d = chain_subderivative(c, u).value
        for v in S.vertices:
            assert float(v @ u) <= d + 1e-8


def test_msqc_divergence_carries_witness():
    ind = IndicatorFn(Polyhedron.singleton([0.0]))
    f = SmoothMap.from_strings(["x1^2"], ["x1"])
    rep = msqc_estimate(Composite(ind, f, [0.0]), radius=0.5, samples=40)
    assert rep.diverging and rep.witness is not None
    # the witness genuinely has a large distance ratio
    x = float(rep.witness[0])
    assert abs(x) / x ** 2 > 10.0


def test_robinson_implies_msqc_not_diverging():
    # metric regularity (Robinson) sits above subregularity in the hierarchy
    fixtures = [
        Composite(IndicatorFn(Polyhedron([[1.0]], [0.0])), id_map(), [0.0]),
        Composite(IndicatorFn(Polyhedron.nonpositive_orthant(2)),
                  SmoothMap.identity(2), [0.0, 0.0]),
    ]
    for c in fixtures:
        rob = robinson_check(c)
        if rob.verdict == calc.VERIFIED:
            ms = msqc_estimate(c, radius=0.3, samples=25, seed=1)
            assert not ms.diverging


def test_chain_subdifferential_indicator_matches_inverse_image_cone():
    ind = IndicatorFn(Polyhedron.nonpositive_orthant(2))
    f = SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"])
    c = Composite(ind, f, [0.0, 0.0])
    S = chain_subdifferential(c)
    cone, _ = normal_cone_inverse_image(c, kappa=1.0)
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.standard_normal(2)
        assert S.contains(v, 1e-7) == cone.contains(v, 1e-7)


def test_samplers_skip_and_count_points_outside_dom_f():
    """f1 = log(x1) at x1 = 0.1: samples reach x1 <= 0, where f has no
    image; the robustness and prox-regularity samplers skip them and say so."""
    f = SmoothMap.from_strings(["log(x1)", "x2"], ["x1", "x2"])
    c = Composite(IndicatorFn(Polyhedron(np.eye(2), np.zeros(2))), f, [0.1, 0.0])
    for rep in (robustness_check(c, kappa=1.0, r0=0.2), prox_regularity_check(c, kappa=1.0)):
        assert rep.status == "VERIFIED"
        assert any(note.endswith("samples outside dom f skipped") for note in rep.notes)
