import json
from dataclasses import replace

import numpy as np
import pytest

from varcert import certify, cli
from varcert.certify import (
    ConstrainedProblem,
    dual_certificate,
    primal_check,
)
from varcert.errors import InfeasiblePointError, NonconvexUnsupportedError, NotInDomainError
from varcert.expr import SmoothMap
from varcert.funcspace import PLQFunction, SmoothFn
from varcert.geometry import Polyhedron
from varcert.solvers import LPProblem, OPTIMAL, lp_solve


def orthant_problem(obj="-x1 - x2"):
    return ConstrainedProblem(
        SmoothFn(obj, 2), SmoothMap.identity(2), Polyhedron.nonpositive_orthant(2)
    )


def test_primal_check_examples():
    cert = primal_check(orthant_problem("-x1 - x2"), [0.0, 0.0])
    assert cert.status == certify.VERIFIED
    cert = primal_check(orthant_problem("x1 + x2"), [0.0, 0.0])
    assert cert.status == certify.REFUTED
    assert cert.descent_witness is not None
    assert np.allclose(cert.descent_witness, [-1.0, -1.0], atol=1e-9)
    p = ConstrainedProblem(SmoothFn("-x1", 1), SmoothMap.identity(1),
                           Polyhedron([[1.0]], [0.0]))
    assert primal_check(p, [0.0]).status == certify.VERIFIED
    with pytest.raises(InfeasiblePointError):
        primal_check(orthant_problem(), [1.0, 0.0])


def test_dual_certificate_orthant_fixture():
    cert = dual_certificate(orthant_problem("-x1 - x2"), [0.0, 0.0], kappa=1.0)
    assert cert.status == certify.VERIFIED
    assert np.allclose(cert.multipliers, [1.0, 1.0], atol=1e-9)
    assert cert.residual <= 1e-7
    assert cert.bound_lhs == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert cert.bound_rhs == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_dual_certificate_no_multiplier():
    cert = dual_certificate(orthant_problem("x1 + x2"), [0.0, 0.0], kappa=1.0)
    assert (cert.kind, cert.status, cert.detail) == ("DualKKT", certify.REFUTED, "NO_MULTIPLIER")
    assert np.allclose(cert.descent_witness, [-1.0, -1.0], atol=1e-9)
    assert cert.notes == ["stationarity system infeasible: not dual-stationary"]
    assert (cert.residual, cert.bound_lhs, cert.tolerances, cert.seed) == (None, None, {}, 42)


def test_dual_certificate_duplicated_row_map():
    # f(x) = (x, x), Theta = R^2_-: the least-norm multiplier (1/2, 1/2)
    p = ConstrainedProblem(
        SmoothFn("-x1", 1),
        SmoothMap.from_strings(["x1", "x1"], ["x1"]),
        Polyhedron.nonpositive_orthant(2),
    )
    cert = dual_certificate(p, [0.0], kappa=1.0)
    assert cert.status == certify.VERIFIED
    assert cert.residual <= 1e-9
    assert np.allclose(cert.multipliers, [0.5, 0.5], atol=1e-8)
    assert cert.bound_lhs <= 1.0 + 1e-9


# f(x) = (x, x) into Theta = {y1 - 0.999 y2 <= 0}: the one multiplier is
# 1000 (1, -0.999), of norm 1413.5, and it lies almost in null(J^T), where
# J^T = (1, 1).  A least-squares fit that weights J^T lam = t above ||lam||
# misses t there, so an exact equality is what keeps this point VERIFIED.
NEAR_NULL_RAY = Polyhedron([[1.0, -0.999]], [0.0])


def test_dual_certificate_multiplier_nearly_in_null_of_j_transpose():
    p = ConstrainedProblem(SmoothFn("-x1", 1), SmoothMap.from_strings(["x1", "x1"], ["x1"]),
                           NEAR_NULL_RAY)
    cert = dual_certificate(p, [0.0], kappa=2000.0)
    assert (cert.status, cert.detail) == (certify.VERIFIED, None)
    assert np.allclose(cert.multipliers, [1000.0, -999.0], rtol=1e-9)
    assert cert.residual <= 1e-9


def test_dual_bound_exceeded_detail():
    # tiny asserted kappa forces the bound to fail while KKT holds
    cert = dual_certificate(orthant_problem("-x1 - x2"), [0.0, 0.0], kappa=1e-3)
    assert cert.status == certify.REFUTED
    assert cert.detail == "BOUND_EXCEEDED"
    assert cert.residual <= 1e-9


def test_dual_with_estimated_kappa():
    cert = dual_certificate(orthant_problem("-x1 - x2"), [0.0, 0.0], kappa="estimate")
    assert cert.status == certify.VERIFIED
    assert cert.kappa_source == certify.KAPPA_COMPUTED
    assert cert.kappa == pytest.approx(1.0, abs=0.15)


def test_dual_certificate_plq_objective():
    # minimize |x1| + x2 over the box [-1,0]^2 at (0, -1): dual stationarity
    # V-shaped objective in 2d: |x1| + x2 as a PLQ over two halfplanes
    pos = Polyhedron([[-1.0, 0.0]], [0.0])
    neg = Polyhedron([[1.0, 0.0]], [0.0])
    obj = PLQFunction([
        (pos, np.zeros((2, 2)), [1.0, 1.0], 0.0),
        (neg, np.zeros((2, 2)), [-1.0, 1.0], 0.0),
    ])
    box = Polyhedron.box([(-1.0, 0.0), (-1.0, 0.0)])
    p = ConstrainedProblem(obj, SmoothMap.identity(2), box)
    cert = dual_certificate(p, [0.0, -1.0], kappa=1.0)
    assert cert.status == certify.VERIFIED
    assert cert.residual <= 1e-8
    assert cert.bound_rule.startswith("ell*kappa")


def test_plq_objective_errors_are_the_subdifferentials():
    """Both certificates read the objective's subdifferential: a feasible
    point outside dom objective raises NotInDomainError, and a nonconvex PLQ
    NonconvexUnsupportedError, each with subdifferential's wording."""
    box = Polyhedron.box([(-1.0, 1.0)])
    sq = PLQFunction([(Polyhedron.box([(0.0, 1.0)]), [[1.0]], [0.0], 0.0)])  # x^2 on [0, 1]
    nonconvex = PLQFunction([(Polyhedron(n=1), [[-1.0]], [0.0], 0.0)])  # -x^2
    for issue in (lambda p, x: dual_certificate(p, x, kappa=1.0), primal_check):
        with pytest.raises(NotInDomainError, match="outside the PLQ domain"):
            issue(ConstrainedProblem(sq, SmoothMap.identity(1), box), [-0.5])
        with pytest.raises(NonconvexUnsupportedError, match="nonconvex PLQ"):
            issue(ConstrainedProblem(nonconvex, SmoothMap.identity(1), box), [0.0])


def random_lp_problem(rng, n):
    A = rng.normal(size=(int(rng.integers(1, 4)), n))
    x0 = rng.normal(size=n) * 0.3
    b = A @ x0 + np.abs(rng.normal(size=A.shape[0])) + 0.1
    caps = np.vstack([np.eye(n), -np.eye(n)])
    bcap = np.full(2 * n, 3.0)
    Theta = Polyhedron(np.vstack([A, caps]), np.concatenate([b, bcap]))
    c = rng.normal(size=n)
    c /= np.linalg.norm(c)
    expr = " + ".join(f"{float(c[i])!r}*x{i+1}" for i in range(n))
    return ConstrainedProblem(SmoothFn(expr, n), SmoothMap.identity(n), Theta), c


def test_dual_and_primal_agree_on_random_lp_minimizers():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p, c = random_lp_problem(rng, n)
        sol = lp_solve(LPProblem(c=c, A=p.Theta.A_ineq, b=p.Theta.b_ineq,
                                 senses=["<="] * p.Theta.A_ineq.shape[0]))
        assert sol.status == OPTIMAL
        xstar = sol.x
        dual = dual_certificate(p, xstar, kappa=1.0)
        assert dual.status == certify.VERIFIED
        assert dual.residual <= 1e-7
        assert dual.bound_lhs <= np.linalg.norm(c) * np.sqrt(p.m) + 1e-9
        primal = primal_check(p, xstar)
        assert primal.status == certify.VERIFIED


def test_scaling_covariance():
    base = orthant_problem("-x1 - x2")
    cert1 = dual_certificate(base, [0.0, 0.0], kappa=1.0)
    scaled = orthant_problem("3*(-x1 - x2)")
    cert3 = dual_certificate(scaled, [0.0, 0.0], kappa=1.0)
    assert cert3.status == cert1.status == certify.VERIFIED
    assert np.allclose(cert3.multipliers, 3.0 * np.asarray(cert1.multipliers), atol=1e-8)
    assert cert3.bound_lhs == pytest.approx(3.0 * cert1.bound_lhs, rel=1e-9)
    assert cert3.bound_rhs == pytest.approx(3.0 * cert1.bound_rhs, rel=1e-9)


def test_dual_certificate_nonlinear_map():
    # curved constraint map, stationary at the origin vertex
    p = ConstrainedProblem(
        SmoothFn("-x1 - x2", 2),
        SmoothMap.from_strings(["x1 + x2^2", "x2 - x1^2"], ["x1", "x2"]),
        Polyhedron.nonpositive_orthant(2),
    )
    cert = dual_certificate(p, [0.0, 0.0], kappa="estimate")
    assert cert.status == certify.VERIFIED
    assert np.allclose(cert.multipliers, [1.0, 1.0], atol=1e-8)
    assert primal_check(p, [0.0, 0.0]).status == certify.VERIFIED


def test_dual_certificate_interior_stationary_point():
    # no active rows and zero gradient: the zero multiplier certifies
    p = ConstrainedProblem(SmoothFn("x1^2 + x2^2", 2), SmoothMap.identity(2),
                           Polyhedron.box([(-1.0, 1.0), (-1.0, 1.0)]))
    cert = dual_certificate(p, [0.0, 0.0], kappa=1.0)
    assert cert.status == certify.VERIFIED
    assert np.allclose(cert.multipliers, 0.0)
    assert cert.bound_lhs == 0.0


# The PLQ branch of dual_certificate with a nonzero domain normal cone
# N_dom: its rays and lines join the piece-gradient hull as equality columns
# of solvers.least_norm_multiplier, outside the norm.  The certificate bytes
# were pinned under the stationarity LP; the least-norm multiplier kept every
# byte but the four residuals, which moved from 0 by rounding (at most 1.2e-15).
_Z2 = np.zeros((2, 2))
_BOX2 = Polyhedron.box([(-1.0, 1.0), (-1.0, 1.0)])
PLQ_DOMAIN_CASES = {
    # -x1 + x2 on {x1 <= 0}: the N_dom ray (1, 0) absorbs the x1 slope
    "domain_ray": ([(Polyhedron([[1.0, 0.0]], [0.0]), _Z2, [-1.0, 1.0], 0.0)],
                   _BOX2, [0.0, -1.0]),
    # 3 x1 + x2 on {x1 = 0}: N_dom is the line through (1, 0)
    "domain_line": ([(Polyhedron(None, None, [[1.0, 0.0]], [0.0], n=2), _Z2, [3.0, 1.0], 0.0)],
                    _BOX2, [0.0, -1.0]),
    # |x1| - x2 on {x2 <= 0}, two active pieces at the origin
    "two_pieces": ([(Polyhedron([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), _Z2, [1.0, -1.0], 0.0),
                    (Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), _Z2, [-1.0, -1.0], 0.0)],
                   Polyhedron.box([(-1.0, 0.0), (-1.0, 1.0)]), [0.0, 0.0]),
    # -x1 + 2 x2 on {x1 <= 0} with Theta = {y1 <= 1, y2 = -1}: equality weights
    "theta_equality": ([(Polyhedron([[1.0, 0.0]], [0.0]), _Z2, [-1.0, 2.0], 0.0)],
                       Polyhedron([[1.0, 0.0]], [1.0], [[0.0, 1.0]], [-1.0]), [0.0, -1.0]),
}
PLQ_DOMAIN_PINS = {
    "domain_ray": (
        '{"kind":"DualKKT","status":"VERIFIED","detail":null,"problem_kind":"nlp","point"'
        ':[0.000000000000e+00,-1.000000000000e+00],"multipliers":[0.000000000000e+00,-1.0'
        '00000000000e+00],"generator_weights":[0.000000000000e+00,0.000000000000e+00,0.00'
        '0000000000e+00,1.000000000000e+00],"residual":2.482534153247e-16,"bound":{"lhs":'
        '1.000000000000e+00,"rhs":1.414213044778e+00,"kappa":1.000000000000e+00,"kappa_so'
        'urce":"user-asserted","rule":"ell*kappa with sampled relative Lipschitz ell"},"t'
        'olerances":{"tol_stat":1.000000000000e-07,"tol_cone":1.000000000000e-08,"tol_bou'
        'nd":1.000000000000e-06},"seed":42,"notes":[],"tool_version":"0.1.0"}'),
    "domain_line": (
        '{"kind":"DualKKT","status":"VERIFIED","detail":null,"problem_kind":"nlp","point"'
        ':[0.000000000000e+00,-1.000000000000e+00],"multipliers":[0.000000000000e+00,-1.0'
        '00000000000e+00],"generator_weights":[0.000000000000e+00,0.000000000000e+00,0.00'
        '0000000000e+00,1.000000000000e+00],"residual":1.110223024625e-15,"bound":{"lhs":'
        '1.000000000000e+00,"rhs":1.000000000000e+00,"kappa":1.000000000000e+00,"kappa_so'
        'urce":"user-asserted","rule":"ell*kappa with sampled relative Lipschitz ell"},"t'
        'olerances":{"tol_stat":1.000000000000e-07,"tol_cone":1.000000000000e-08,"tol_bou'
        'nd":1.000000000000e-06},"seed":42,"notes":[],"tool_version":"0.1.0"}'),
    "two_pieces": (
        '{"kind":"DualKKT","status":"VERIFIED","detail":null,"problem_kind":"nlp","point"'
        ':[0.000000000000e+00,0.000000000000e+00],"multipliers":[0.000000000000e+00,0.000'
        '000000000e+00],"generator_weights":[0.000000000000e+00,0.000000000000e+00,0.0000'
        '00000000e+00,0.000000000000e+00],"residual":2.220446049250e-16,"bound":{"lhs":0.'
        '000000000000e+00,"rhs":1.414192218934e+00,"kappa":1.000000000000e+00,"kappa_sour'
        'ce":"user-asserted","rule":"ell*kappa with sampled relative Lipschitz ell"},"tol'
        'erances":{"tol_stat":1.000000000000e-07,"tol_cone":1.000000000000e-08,"tol_bound'
        '":1.000000000000e-06},"seed":42,"notes":[],"tool_version":"0.1.0"}'),
    "theta_equality": (
        '{"kind":"DualKKT","status":"VERIFIED","detail":null,"problem_kind":"nlp","point"'
        ':[0.000000000000e+00,-1.000000000000e+00],"multipliers":[0.000000000000e+00,-2.0'
        '00000000000e+00],"generator_weights":[0.000000000000e+00],"eq_weights":[0.000000'
        '000000e+00,2.000000000000e+00],"residual":6.753223014464e-16,"bound":{"lhs":2.00'
        '0000000000e+00,"rhs":2.236067654891e+00,"kappa":1.000000000000e+00,"kappa_source'
        '":"user-asserted","rule":"ell*kappa with sampled relative Lipschitz ell"},"toler'
        'ances":{"tol_stat":1.000000000000e-07,"tol_cone":1.000000000000e-08,"tol_bound":'
        '1.000000000000e-06},"seed":42,"notes":[],"tool_version":"0.1.0"}'),
}


@pytest.mark.parametrize("name", sorted(PLQ_DOMAIN_CASES))
def test_dual_certificate_plq_with_domain_normal_cone(name):
    pieces, theta, x = PLQ_DOMAIN_CASES[name]
    p = ConstrainedProblem(PLQFunction(pieces), SmoothMap.identity(2), theta)
    cert = dual_certificate(p, x, kappa=1.0)
    assert cli.canonical_json(cli.certificate_document(cert, "nlp")).strip() == PLQ_DOMAIN_PINS[name]


def test_an_issuer_writes_no_certificate_that_its_own_check_rejects(tmp_path, monkeypatch):
    """A multiplier that fails its kind's condition function is a numerical
    error, exit 4, and no file is written."""
    monkeypatch.setattr(certify, "kkt_conditions", lambda *args: (["forced failure"], 0.0, 0.0))
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    prob.write_text(json.dumps({
        "kind": "nlp", "n": 2, "objective": "-x1 - x2",
        "constraints": {"f": ["x1", "x2"],
                        "Theta": {"A_ineq": [[1, 0], [0, 1]], "b_ineq": [0, 0]}}}))
    argv = ["kkt", "-p", str(prob), "--point", "0,0", "--kappa", "1", "--out", str(out)]
    assert cli.run(argv) == 4
    assert not out.exists()


def _linearized_descent_lp(J, A_act, E, grads, piece_rows):
    """min over the gradients g_i of min <g_i, u> over u in [-1, 1]^n with
    A_act J u <= 0, E J u = 0 and piece_rows[i] u <= 0: the parent's boxed
    descent LP, an oracle independent of the least-norm fit."""
    n = J.shape[1]
    best = 0.0
    for g, rows in zip(grads, piece_rows):
        A = np.vstack([A_act @ J, E @ J, rows])
        sol = lp_solve(LPProblem(c=g, A=A, b=np.zeros(len(A)),
                                 senses=["<="] * len(A_act) + ["="] * len(E) + ["<="] * len(rows),
                                 bounds=[(-1.0, 1.0)] * n))
        assert sol.status == OPTIMAL
        best = min(best, sol.objective)
    return best


def _random_jacobian(rng, trial, m, n):
    """An m x n Jacobian, of rank min(m, n) - 1 in trials 0 and 1 mod 4."""
    if trial % 4 < 2:
        k = min(m, n) - 1
        return rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    return rng.normal(size=(m, n))


def _random_theta(rng, trial, J):
    """Theta with 1-4 rows active at y = 0, one inactive row and, every third
    trial, an equality row; and a multiplier lam in its normal cone at 0."""
    m = J.shape[0]
    k = int(rng.integers(1, 5))
    A = rng.normal(size=(k + 1, m))
    E = rng.normal(size=(int(trial % 3 == 0), m))
    Theta = Polyhedron(A, np.append(np.zeros(k), 1.0), E, np.zeros(len(E)), n=m)
    lam = A[:k].T @ rng.random(k) + E.T @ rng.normal(size=len(E))
    return Theta, A[:k], E, lam


def _recheck(cert, doc):
    """(exit code, log lines) of recheck on the certificate as written."""
    lines = []
    cert_doc = json.loads(cli.canonical_json(cli.certificate_document(cert, "nlp")))
    return cli.recheck(cert_doc, doc, lines.append), lines


def test_primal_and_kkt_read_one_farkas_alternative():
    """Seeded nlps at x = 0, with an equality row every third trial, a
    rank-deficient J in half, and stationary objectives in half.
    primal and kkt agree with each other and with the boxed descent LP; every
    VERIFIED replays through kkt_conditions (recheck exit 0); every descent
    witness passes recheck (exit 1), and the flipped one fails it (exit 2)."""
    rng = np.random.default_rng(26)
    verdicts = set()
    for trial in range(60):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        J = _random_jacobian(rng, trial, m, n)
        Theta, A_act, E, lam = _random_theta(rng, trial, J)
        g = -J.T @ lam if trial % 2 == 0 else rng.normal(size=n)
        doc = {"kind": "nlp", "n": n,
               "objective": " + ".join(f"{float(g[j])!r}*x{j + 1}" for j in range(n)) + " + x2^2",
               "constraints": {
                   "f": [" + ".join([f"{float(J[i, j])!r}*x{j + 1}" for j in range(n)]
                                    + [f"{float(rng.normal())!r}*x1^2"]) for i in range(m)],
                   "Theta": {"A_ineq": Theta.A_ineq.tolist(), "b_ineq": Theta.b_ineq.tolist(),
                             "A_eq": Theta.A_eq.tolist(), "b_eq": Theta.b_eq.tolist()}}}
        p, x = cli.build_nlp(doc), np.zeros(n)
        primal, kkt = primal_check(p, x), dual_certificate(p, x, kappa=1e6)
        assert primal.status == kkt.status, trial
        descent = _linearized_descent_lp(J, A_act, E, [g], [np.zeros((0, n))])
        verdicts.add(primal.status)
        if primal.status == certify.VERIFIED:
            assert descent >= -1e-6, trial
            assert np.array_equal(primal.multipliers, kkt.multipliers), trial
            failures, residual, _ = certify.kkt_conditions(
                p, p.f.eval(x), J, g, primal.multipliers, primal.generator_weights,
                primal.eq_weights if primal.eq_weights is not None else np.zeros(0))
            assert failures == [] and residual <= certify.TOL_STAT, trial
            assert _recheck(primal, doc)[0] == 0, trial
            continue
        assert primal.status == certify.REFUTED and kkt.detail == "NO_MULTIPLIER", trial
        assert np.array_equal(primal.descent_witness, kkt.descent_witness), trial
        assert np.max(np.abs(primal.descent_witness)) == 1.0
        assert descent <= -primal.residual + 1e-12 and primal.residual > certify.TOL_STAT, trial
        for cert in (primal, kkt):
            assert _recheck(cert, doc) == (1, ["recheck: descent witness reproduces REFUTED"])
            code, lines = _recheck(replace(cert, descent_witness=-cert.descent_witness), doc)
            assert code == 2 and lines[0].startswith("recheck failure: "), trial
    assert verdicts == {certify.VERIFIED, certify.REFUTED}


def test_primal_and_kkt_agree_on_a_plq_objective():
    """|x1| + <g, x> (two pieces; every third trial restricted to x2 <= 0)
    through the library: primal and kkt agree with the per-piece descent LP;
    a VERIFIED multiplier passes kkt_conditions' cone checks and -J^T lam is
    in conv{piece gradients} + N_dom; a witness descends on every active
    piece, stays in the domain's tangent cone, and fails flipped."""
    rng = np.random.default_rng(27)
    verdicts = set()
    for trial in range(24):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        J = _random_jacobian(rng, trial, m, n)
        Theta, A_act, E, lam = _random_theta(rng, trial, J)
        e1 = np.eye(n)[0]
        g = -J.T @ lam + rng.uniform(-0.9, 0.9) * e1 if trial % 2 == 0 else rng.normal(size=n)
        dom = np.eye(n)[1:2] if trial % 3 == 0 else np.zeros((0, n))
        pieces = [(Polyhedron(np.vstack([-sign * e1, dom]), np.zeros(1 + len(dom))),
                   np.zeros((n, n)), g + sign * e1, 0.0) for sign in (1.0, -1.0)]
        f = SmoothMap.from_strings(
            [" + ".join(f"{float(J[i, j])!r}*x{j + 1}" for j in range(n)) for i in range(m)],
            [f"x{j + 1}" for j in range(n)])
        p, x = ConstrainedProblem(PLQFunction(pieces), f, Theta), np.zeros(n)
        primal, kkt = primal_check(p, x), dual_certificate(p, x, kappa=1e6)
        assert primal.status == kkt.status, trial
        grads = [g + e1, g - e1]
        descent = _linearized_descent_lp(J, A_act, E, grads,
                                         [np.vstack([-e1, dom]), np.vstack([e1, dom])])
        verdicts.add(primal.status)
        if primal.status == certify.VERIFIED:
            assert descent >= -1e-6, trial
            v = -J.T @ primal.multipliers
            failures, _, _ = certify.kkt_conditions(
                p, f.eval(x), J, v, primal.multipliers, primal.generator_weights,
                primal.eq_weights if primal.eq_weights is not None else np.zeros(0))
            assert failures == [], trial
            # v in cone(dom) + conv(grads): the hull weights sum to 1 on an extra row
            cols = np.vstack([np.hstack([dom.T, np.array(grads).T]),
                              np.r_[np.zeros(len(dom)), np.ones(len(grads))]])
            # the least L1 residual of a fit: columns [cols | I | -I], the slack costing 1
            (r, k), eye = cols.shape, np.eye(len(cols))
            hull = lp_solve(LPProblem(c=np.r_[np.zeros(k), np.ones(2 * r)],
                                      A=np.hstack([cols, eye, -eye]), b=np.append(v, 1.0),
                                      senses=["="] * r, bounds=[(0.0, None)] * (k + 2 * r)))
            assert hull.status == OPTIMAL, trial
            assert hull.objective <= 1e-9 * (1.0 + np.linalg.norm(v)), trial
            continue
        d = primal.descent_witness
        assert np.array_equal(d, kkt.descent_witness) and np.max(np.abs(d)) == 1.0, trial
        assert descent <= -primal.residual + 1e-12 and primal.residual > certify.TOL_STAT, trial
        assert (dom @ d <= 1e-12).all(), trial
        assert certify.descent_conditions(p, f.eval(x), J, grads, d) == ([], primal.residual)
        assert certify.descent_conditions(p, f.eval(x), J, grads, -d)[0] != [], trial
    assert verdicts == {certify.VERIFIED, certify.REFUTED}
