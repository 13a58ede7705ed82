import math
import warnings

import numpy as np
import pytest

from varcert import calculus as calc, geometry as geo
from varcert.calculus import (
    Composite,
    DomainOracle,
    abadie_check,
    chain_subderivative,
    chain_subdifferential,
    composite_fn,
    msqc_estimate,
    robinson_check,
    robustness_check,
    sum_subderivative,
    sum_subdifferential,
)
from varcert.errors import KinkWarning
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
from varcert.geometry import Polyhedron, PolyhedralCone
from test_acceptance import random_poly_map


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


def test_chain_rule_oracle_skips_restoration_outside_dom_f():
    """f = log(x1) - x2 at x1 = 0.004: along u = (-1, 0) the quotient levels
    reach x1 <= 0, where f has no image.  The restoration candidates take no
    step from there, so the sampled quotient matches the chain rule."""
    f = SmoothMap.from_strings(["log(x1) - x2"], ["x1", "x2"])
    c = Composite(IndicatorFn(Polyhedron([[1.0]], [0.0])), f, [0.004, 10.0])
    u = np.array([-1.0, 0.0])
    assert subderivative_sampled(composite_fn(c), c.xbar, u).value == 0.0
    assert chain_subderivative(c, u).value == 0.0


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


def soc_halfspace_composite():
    """dom theta the product of a negative second-order cone and a halfspace,
    given by a DomainOracle, and f(x) = (x, x)."""
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
    return Composite(theta, f, [0.0, 0.0, 0.0], domain_oracle=oracle)


def test_abadie_check_oracle_domain_cone_fixture(monkeypatch):
    monkeypatch.setattr(calc, "ABADIE_SAMPLES", 8)
    rep = abadie_check(soc_halfspace_composite(), seed=3)
    assert rep.verdict == calc.VERIFIED


def test_msqc_estimate_oracle_domain_cone_fixture():
    """A DomainOracle's dist is differenced centrally: d * grad dist matches
    y - P(y), P the projection onto the product of the cone
    {||w|| <= -s} and the halfspace y4 <= y6, and kappa_hat is finite."""
    c = soc_halfspace_composite()

    def nearest(y):
        w, s = y[:2], -y[2]  # the cone is -SOC: project (w, s) onto SOC
        nw = float(np.linalg.norm(w))
        if nw <= s:
            cone = y[:3]
        elif nw <= -s:
            cone = np.zeros(3)
        else:
            a = (nw + s) / 2.0
            cone = np.array([a * w[0] / nw, a * w[1] / nw, -a])
        half = y[3:].copy()
        gap = max(0.0, half[0] - half[2]) / 2.0
        half[0] -= gap
        half[2] += gap
        return np.concatenate([cone, half])

    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.standard_normal(6)
        d, v = c.dom_residual(y)
        if d == 0.0:
            assert v is None and np.array_equal(nearest(y), y)
            continue
        assert d == pytest.approx(np.linalg.norm(y - nearest(y)), rel=1e-12)
        assert np.allclose(v, y - nearest(y), rtol=0, atol=1e-6 * d)
    rep = msqc_estimate(c, radius=0.5, samples=30, seed=3)
    assert math.isfinite(rep.kappa_hat) and rep.kappa_hat > 0.0


def test_msqc_estimate_identity():
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    rep = msqc_estimate(Composite(ind, id_map(), [0.0]), radius=0.5, samples=40)
    assert rep.verdict == calc.VERIFIED
    assert rep.kappa_hat == pytest.approx(1.0, abs=0.1)


def test_msqc_estimate_projects_no_image_twice_in_a_row(monkeypatch):
    """Each sample's image is projected once: the slope's distance and its
    normal y - w come from one projection."""
    images = []
    project = calc.project

    def recording(P, y, *residual):
        images.append(np.asarray(y, dtype=float).tobytes())
        return project(P, y, *residual)

    monkeypatch.setattr(calc, "project", recording)
    ind = IndicatorFn(Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
    f = SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"])
    msqc_estimate(Composite(ind, f, [0.0, 0.0]), radius=0.5, samples=10)
    assert images
    assert all(a != b for a, b in zip(images, images[1:]))


def test_msqc_estimate_tests_each_image_against_theta_once(monkeypatch):
    """A sample's violation tests P.residual(y) once: the projection of an
    outsider takes the residual its caller computed, not its own."""
    ind = IndicatorFn(Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
    c = Composite(ind, SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"]),
                  [0.0, 0.0])
    calls = {"residual": 0, "dom_residual": 0, "project": 0}
    residual, dom_residual, project = Polyhedron.residual, Composite.dom_residual, calc.project

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Polyhedron, "residual", counted("residual", residual))
    monkeypatch.setattr(Composite, "dom_residual", counted("dom_residual", dom_residual))
    monkeypatch.setattr(calc, "project", counted("project", project))
    msqc_estimate(c, radius=0.5, samples=10)
    assert calls["project"] > 0
    assert calls["residual"] == calls["dom_residual"]


def test_msqc_estimate_is_the_same_from_remembered_faces():
    """A second estimate on one Composite projects from the faces its Theta
    remembered during the first: same verdict, kappa_hat equal to 1e-12."""
    ind = IndicatorFn(Polyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]], [0.0, 0.0, 0.1]))
    f = SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"])
    c = Composite(ind, f, [0.0, 0.0])
    cold = msqc_estimate(c, radius=0.5, samples=30, seed=5)
    assert ind.P._faces
    warm = msqc_estimate(c, radius=0.5, samples=30, seed=5)
    assert warm.verdict == cold.verdict
    assert warm.kappa_hat == pytest.approx(cold.kappa_hat, rel=1e-12)


def test_feasible_set_oracle_evaluates_f_once_per_point(monkeypatch):
    """One dist: the violation at z, the Gauss-Newton restoration from z and
    the violation at its end point share each image."""
    points = []
    evaluate = SmoothMap.eval

    def counting(self, x):
        points.append(np.asarray(x, dtype=float).tobytes())
        return evaluate(self, x)

    ind = IndicatorFn(Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
    f = SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"])
    oracle = calc.feasible_set_oracle(Composite(ind, f, [0.0, 0.0]))
    monkeypatch.setattr(SmoothMap, "eval", counting)
    d = oracle.dist(np.array([0.3, 0.2]))
    assert 0.0 < d < INF
    assert len(points) >= 3  # z and the Gauss-Newton iterates
    assert len(points) == len(set(points))


@pytest.mark.parametrize("components, xbar", [
    (["log(x1)", "x2"], [0.1, 0.0]),  # the coderivative criterion decides
    (["x1 - abs(x2)", "x2"], [0.0, 0.0]),  # a kink: every check samples
])
def test_cq_walks_f_at_xbar_once(components, xbar, monkeypatch):
    """A Composite reads f(xbar) and the Jacobian there off one Jet, so the
    three checks together make one Dual pass at xbar and no float walk."""
    seen = {"eval": 0, "jet": 0}
    at = np.array(xbar).tobytes()

    def counted(name):
        real = getattr(SmoothMap, name)

        def wrapper(self, x):
            seen[name] += np.asarray(x, dtype=float).tobytes() == at
            return real(self, x)
        monkeypatch.setattr(SmoothMap, name, wrapper)

    counted("eval")
    counted("jet")
    f = SmoothMap.from_strings(components, ["x1", "x2"])
    c = Composite(IndicatorFn(Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])), f, xbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KinkWarning)
        reports = calc.cq_reports(c, seed=0)
    assert len(reports) == 3
    assert seen == {"eval": 0, "jet": 1}


def test_restore_reaches_omega_through_the_penalty_fallback():
    """A seeded polynomial composite (n = 2, m = 3) on which Gauss-Newton
    alone stalls above TOL_FEAS: restore reaches Omega through the penalty
    descent and its Gauss-Newton polish, nearer z than the stalled point."""
    rng = np.random.default_rng(9)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    f = random_poly_map(rng, n, m)
    xbar = rng.normal(size=n) * 0.5
    A = rng.normal(size=(m, m))
    b = A @ f.eval(xbar) + np.abs(rng.normal(size=m)) * 0.2
    c = Composite(IndicatorFn(Polyhedron(A, b)), f, xbar)
    z = xbar + 0.5 * rng.standard_normal(n)
    assert (n, m) == (2, 3)
    stalled = calc._polish(c, z)
    assert geo.TOL_FEAS < c.violation(stalled) < INF
    x = calc.restore(c, z)
    assert c.violation(x) <= geo.TOL_FEAS
    assert np.linalg.norm(x - z) < np.linalg.norm(stalled - z)


def affine_composite(rng, n):
    """f = ybar + J (x - c) with a seeded invertible J and a random polyhedral
    Theta holding ybar, some rows active; returns the composite and J."""
    J = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
    c = rng.uniform(-1.0, 1.0, n)
    ybar = rng.uniform(-1.0, 1.0, n)
    f = SmoothMap.from_strings(
        [" + ".join([repr(float(ybar[i]))]
                    + [f"{float(J[i, j])!r}*(x{j + 1} - {float(c[j])!r})" for j in range(n)])
         for i in range(n)], [f"x{j + 1}" for j in range(n)])
    G = rng.standard_normal((int(rng.integers(1, n + 2)), n))
    slack = np.where(rng.random(len(G)) < 0.5, 0.0, rng.uniform(0.0, 0.5, len(G)))
    Theta = Polyhedron(G, G @ ybar + slack)
    return Composite(IndicatorFn(Theta), f, c), J


def test_msqc_slope_estimate_is_at_most_the_inverse_jacobian_norm():
    """For affine f, |grad g| = ||J^T u|| >= sigma_min(J) with u = (y - w) / d
    a unit vector, so every kappa_hat is at most ||J^-1||."""
    rng = np.random.default_rng(12)
    for trial in range(24):
        c, J = affine_composite(rng, 2 + trial % 3)
        assert np.array_equal(c.f.jacobian(c.xbar), J)
        rep = msqc_estimate(c, radius=0.5, samples=20, seed=trial)
        bound = float(np.linalg.norm(np.linalg.inv(J), 2))
        assert rep.kappa_hat <= bound * (1 + 1e-9), (trial, rep.kappa_hat, bound)


def test_msqc_slope_estimate_is_exact_on_a_scaled_orthant():
    """f = (2 x1, x2) into R^2_-: a sample violating only y2 has slope 1, one
    violating y1 has slope at least 1, so kappa_hat is 1 exactly."""
    f = SmoothMap.from_strings(["2*x1", "x2"], ["x1", "x2"])
    c = Composite(IndicatorFn(Polyhedron.nonpositive_orthant(2)), f, [0.0, 0.0])
    rep = msqc_estimate(c, radius=0.5, samples=30, seed=0)
    assert rep.verdict == calc.VERIFIED
    assert rep.kappa_hat == 1.0


def test_msqc_slope_estimate_does_not_over_read_a_far_restoration():
    """A nonlinear nlp whose projection-ratio estimate read 310.8: the
    Gauss-Newton restoration landed far from the nearest feasible point.
    ||J(xbar)^-1|| is 1.41.  The slope estimate reads 3.43 at a sample 0.33
    from xbar, where J is near singular (||J(z)^-1|| = 138), so the bound
    allows 3 ||J(xbar)^-1||, not 2."""
    u, v = "(x1 - -0.43761959575728504)", "(x2 - 0.18010175656987393)"
    f = SmoothMap.from_strings([
        f"0.0912627981551355 + 0.7371116235678825*{u} + 0.45175666178666657*{v}"
        f" + 0.9043043940818283*{v}^2 + 0.9242592501060272*{v}*{u}"
        f" + -0.45523496473612735*(sin{u} - {u}) + 0.013422214487495143*(1 - cos{v})",
        f"-0.19225299625065762 + 0.34048889092868445*{u} + -0.6255378657063617*{v}"
        f" + -0.6937884086460426*{v}^2 + -0.34867016055777267*{v}*{v}"
        f" + 0.06210324294335823*(sin{v} - {v}) + 0.017656327123626636*(1 - cos{v})",
    ], ["x1", "x2"])
    Theta = Polyhedron(
        [[-0.10573396214114766, 0.8744502655205248], [1.1846555238631469, -0.41215894966261224],
         [0.9677600625194633, -0.2518738997838494], [0.981750374674053, -0.1901741355372925]],
        [-0.1777652608635343, 0.18735377096184985, 3.041514874926113, 2.1980834058837044])
    c = Composite(IndicatorFn(Theta), f, [-0.43761959575728504, 0.18010175656987393])
    rep = msqc_estimate(c, radius=0.5, samples=30, seed=1898808465)
    bound = float(np.linalg.norm(np.linalg.inv(c.f.jacobian(c.xbar)), 2))
    assert rep.kappa_hat <= 3.0 * bound


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


def test_robinson_check_leaves_a_domain_oracle_unchecked():
    """A DomainOracle gives no pieces to ask, so Robinson's condition is
    INCONCLUSIVE, not an exact VERIFIED for "the whole space", and with
    nothing sampled its confidence is "none"."""
    rep = robinson_check(soc_halfspace_composite())
    assert (rep.verdict, rep.confidence, rep.samples) == (calc.INCONCLUSIVE, "none", 0)
    assert rep.notes == ["dom theta is a DomainOracle: its domain was not checked"]


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
    J = c.f.jacobian(c.xbar)
    gens, lines = geo.normal_cone(ind.P, c.ybar).ensure_generators()
    cone = PolyhedralCone.from_generators(gens @ J, lines @ J, n=2)
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.standard_normal(2)
        assert S.contains(v, 1e-7) == cone.contains(v, 1e-7)


def test_samplers_skip_and_count_points_outside_dom_f(monkeypatch):
    """f1 = log(x1) at x1 = 0.1: samples reach x1 <= 0, where f has no
    image; the robustness sampler skips them and says so."""
    monkeypatch.setattr(calc, "ROBUSTNESS_R0", 0.2)
    f = SmoothMap.from_strings(["log(x1)", "x2"], ["x1", "x2"])
    c = Composite(IndicatorFn(Polyhedron(np.eye(2), np.zeros(2))), f, [0.1, 0.0])
    rep = robustness_check(c, kappa=1.0)
    assert rep.status == "VERIFIED"
    assert any(note.endswith("samples outside dom f skipped") for note in rep.notes)
