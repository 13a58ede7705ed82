"""The coderivative criterion: c = min ||J^T y|| over unit y in N_Theta(ybar).

c > 0 makes kkt's kappa computed, (1 + KAPPA_MARGIN) / c, and makes cq's
Robinson, MSQC and Abadie exact; c = 0 refutes Robinson with its normal and
leaves kappa and the other two checks to the samplers.
"""

import json

import numpy as np
import pytest

from varcert import calculus as calc, certify, cli
from varcert.calculus import Composite, coderivative_constant, cq_reports
from varcert.certify import ConstrainedProblem, dual_certificate
from varcert.expr import SmoothMap
from varcert.funcspace import IndicatorFn, SmoothFn
from varcert.geometry import Polyhedron


def linear_strings(J, c):
    return [" + ".join([f"{float(J[i, j])!r}*x{j + 1}" for j in range(J.shape[1])]
                       + [repr(float(c[i]))]) for i in range(J.shape[0])]


def slab_doc(scale=1.0):
    """ROADMAP item 23's repro, scaled: f = s x1^2 into [-1e-4 s, 1e-4 s] at 0,
    an interior point, so N_Theta = {0} and c = inf."""
    return {"kind": "nlp", "n": 1, "objective": "x1",
            "constraints": {"f": [f"{scale!r}*x1^2"],
                            "Theta": {"A_ineq": [[1], [-1]], "b_ineq": [1e-4 * scale, 1e-4 * scale]}}}


def test_coderivative_constant_examples():
    # the README orthant: J = I and N = R^2_+, so c = 1
    P = Polyhedron.nonpositive_orthant(2)
    c, y = coderivative_constant(np.eye(2), P, np.zeros(2))
    assert c == pytest.approx(1.0, abs=1e-12) and c <= 1.0
    assert np.linalg.norm(y) == pytest.approx(1.0) and (y >= -1e-12).all()
    # f = (x1, 0): the normal e2 is killed by J^T, so c = 0 with witness e2
    c, y = coderivative_constant(np.array([[1.0], [0.0]]), P, np.zeros(2))
    assert c == 0.0 and np.allclose(y, [0.0, 1.0])
    # an interior point: N = {0}, c = inf and no minimizer
    assert coderivative_constant(np.eye(2), P, -np.ones(2)) == (np.inf, None)
    # an equality row is a line of N: min |J^T y| over y = +/-1 is |J|
    E = Polyhedron(A_eq=[[1.0]], b_eq=[0.0], n=1)
    assert coderivative_constant(np.array([[0.0]]), E, [0.0])[0] == 0.0
    assert coderivative_constant(np.array([[-3.0]]), E, [0.0])[0] == pytest.approx(3.0)
    # a thin wedge: rows (1, 0) and (-1, 0.01) span a cone of half-angle ~0.005
    W = Polyhedron([[1.0, 0.0], [-1.0, 0.01]], [0.0, 0.0])
    c, y = coderivative_constant(np.eye(2), W, np.zeros(2))
    assert c == pytest.approx(1.0, abs=1e-10) and c <= 1.0
    J = np.array([[0.0, 0.0], [0.0, 1.0]])  # J^T y = (0, y2): least at y = e1
    assert coderivative_constant(J, W, np.zeros(2))[0] == pytest.approx(0.0, abs=1e-7)


def test_the_enumeration_is_capped():
    """3n rows active at 0 in R^12: C(36, <= 12) faces is past the cap."""
    rng = np.random.default_rng(0)
    P = Polyhedron(rng.normal(size=(36, 12)), np.zeros(36))
    assert coderivative_constant(np.eye(12), P, np.zeros(12)) is None


def random_instance(rng):
    """J (m x n, n <= 4), Theta through ybar with up to m + 2 active rows
    (degenerate vertices), inactive rows and, in a third, fewer than m
    equality rows (so that Theta is more than the point ybar, which it would
    miss by rounding)."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    J = rng.normal(size=(m, n))
    if rng.random() < 0.25:
        J[-1] = J[0] * rng.choice([0.0, 2.0])
    ybar = rng.normal(size=m)
    G = rng.normal(size=(int(rng.integers(0, m + 3)), m))
    H = rng.normal(size=(int(rng.integers(0, 3)), m))
    E = rng.normal(size=(int(rng.integers(1, m)) if m > 1 and rng.random() < 1 / 3 else 0, m))
    A = np.vstack([G, H])
    b = np.concatenate([G @ ybar, H @ ybar + rng.uniform(0.1, 1.0, len(H))])
    return J, Polyhedron(A, b, E, E @ ybar, n=m), ybar, G, E


def cone_samples(rng, G, E, count):
    """Unit points of cone(G) + span(E): sparse nonnegative weights."""
    W = rng.exponential(size=(count, len(G))) * (rng.random((count, len(G))) < 0.6)
    Y = W @ G + rng.normal(size=(count, len(E))) @ E
    Y = Y[np.linalg.norm(Y, axis=1) > 1e-9]
    return Y / np.linalg.norm(Y, axis=1, keepdims=True)


def test_computed_kappa_bounds_every_issued_multiplier():
    """Seeded polyhedral instances: c never exceeds the least ||J^T y|| over
    dense samples of the cone and the sphere; where c > 0, the kkt multiplier
    of a stationary objective satisfies ||lambda|| / ||g|| <= 1/c, the
    certificate is VERIFIED at kappa = (1 + 1e-9) / c, and recheck passes."""
    rng = np.random.default_rng(40)
    issued = zero = 0
    for trial in range(120):
        J, P, ybar, G, E = random_instance(rng)
        m, n = J.shape
        found = coderivative_constant(J, P, ybar, P.active_rows(ybar))
        assert found is not None, trial
        c, y = found
        samples = cone_samples(rng, P.A_ineq[P.active_rows(ybar)], E, 3000)
        if len(samples):
            assert c <= np.linalg.norm(samples @ J, axis=1).min() + 1e-12, trial
        if c == np.inf:
            assert y is None and len(samples) == 0, trial
            continue
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12), trial
        assert np.linalg.norm(J.T @ y) >= c - 1e-12, trial
        if c == 0.0:
            zero += 1
            continue
        xbar = rng.normal(size=n)
        lam0 = (rng.random(len(G)) * (rng.random(len(G)) < 0.7)) @ G if len(G) else np.zeros(m)
        lam0 = lam0 + rng.normal(size=len(E)) @ E
        g = -J.T @ lam0
        doc = {"kind": "nlp", "n": n,
               "objective": " + ".join(f"{float(g[j])!r}*x{j + 1}" for j in range(n)) + " + 0",
               "constraints": {"f": linear_strings(J, ybar - J @ xbar),
                               "Theta": {"A_ineq": P.A_ineq.tolist(), "b_ineq": P.b_ineq.tolist(),
                                         "A_eq": P.A_eq.tolist(), "b_eq": P.b_eq.tolist()}}}
        p = cli.build_nlp(doc)
        cert = dual_certificate(p, xbar, kappa="estimate")
        if cert.residual > certify.TOL_STAT:
            continue  # ybar rounded off the face that lam0 needs
        issued += 1
        assert cert.kappa_source == certify.KAPPA_COMPUTED, trial
        assert cert.kappa == pytest.approx((1.0 + calc.KAPPA_MARGIN) / c, rel=1e-15), trial
        assert cert.status == certify.VERIFIED, trial
        assert cert.bound_lhs <= np.linalg.norm(g) / c * (1.0 + 1e-9) + 1e-12, trial
        text = cli.canonical_json(cli.certificate_document(cert, "nlp"))
        assert cli.recheck(json.loads(text), doc) == cli.EXIT_VERIFIED, trial
    assert issued >= 40 and zero >= 5


@pytest.mark.parametrize("k", range(-6, 7))
def test_cq_verdicts_are_scale_free(k):
    """Item 23's slab, and the same slab at its upper face (x1 = 0.01, where
    c = 0.02 s), with Theta's width and f scaled by s = 10^k: three exact
    VERIFIED reports at every scale."""
    s = 10.0 ** k
    for point in ([0.0], [0.01]):
        p = cli.build_nlp(slab_doc(s))
        reports = cq_reports(Composite(IndicatorFn(p.Theta), p.f, point))
        assert [(r.verdict, r.confidence) for r in reports.values()] == \
            [(calc.VERIFIED, "exact")] * 3, (k, point)


def test_item_23_repro_is_three_exact_verified(tmp_path, capsys):
    """The one-variable slab: cq exits 0 with three VERIFIED exact reports,
    where the sampled checks gave three false REFUTEDs.  With the objective
    x1^2 the point is stationary and kkt's kappa is 1, as for an estimated
    kappa_hat of 0; there J = 0 and no row is active, so the least-norm fit
    has no column, which raised ValueError before."""
    prob = tmp_path / "slab.json"
    prob.write_text(json.dumps(slab_doc()), encoding="utf-8")
    out = tmp_path / "cq.json"
    assert cli.run(["cq", "-p", str(prob), "--point", "0", "--which", "all",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for name in ("abadie", "msqc", "robinson"):
        assert (doc[name]["verdict"], doc[name]["confidence"]) == ("VERIFIED", "exact")
    assert doc["msqc"]["kappa_hat"] == 0.0
    cert = tmp_path / "cert.json"
    assert cli.run(["kkt", "-p", str(prob), "--point", "0", "--out", str(cert)]) == 1
    assert json.loads(cert.read_text())["detail"] == "NO_MULTIPLIER"
    doc = slab_doc()
    doc["objective"] = "x1^2"
    prob.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["kkt", "-p", str(prob), "--point", "0", "--out", str(cert)]) == 0
    bound = json.loads(cert.read_text())["bound"]
    assert (bound["kappa"], bound["kappa_source"]) == (1.0, certify.KAPPA_COMPUTED)
    assert "Traceback" not in capsys.readouterr().err


def count_calls(monkeypatch, names):
    """The names of the calculus functions ``names`` in call order."""
    calls = []
    for name in names:
        def wrapper(*args, _real=getattr(calc, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(calc, name, wrapper)
    return calls


def test_c_zero_falls_back_to_the_samplers(monkeypatch):
    """Where c = 0 the kappa estimate and cq's Abadie and MSQC still sample:
    J = 0 on an equality Theta (golden nlp_kappa_unavailable) leaves kappa
    unavailable, and f = (x1, x2, x2) into {y2 <= 0, y3 >= 0} an estimated
    kappa.  Robinson is REFUTED with a unit normal that J^T kills."""
    calls = count_calls(monkeypatch, ("msqc_estimate", "abadie_check"))
    flat = ConstrainedProblem(SmoothFn("x1^2", 1), SmoothMap.from_strings(["x1^2"], ["x1"]),
                              Polyhedron(A_eq=[[1.0]], b_eq=[0.0], n=1))
    cert = dual_certificate(flat, [0.0], kappa="estimate")
    assert (cert.kappa_source, calls) == ("unavailable", ["msqc_estimate"])
    pinned = ConstrainedProblem(SmoothFn("-x2", 2),
                                SmoothMap.from_strings(["x1", "x2", "x2"], ["x1", "x2"]),
                                Polyhedron([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0]], [0.0, 0.0]))
    cert = dual_certificate(pinned, [0.0, 0.0], kappa="estimate")
    assert cert.kappa_source.startswith("estimated") and cert.status == certify.VERIFIED
    assert calls == ["msqc_estimate"] * 2
    comp = Composite(IndicatorFn(pinned.Theta), pinned.f, [0.0, 0.0])
    reports = cq_reports(comp)
    assert calls == ["msqc_estimate"] * 2 + ["abadie_check", "msqc_estimate"]
    assert reports["abadie"].confidence == reports["msqc"].confidence == "sampling"
    rob = reports["robinson"]
    assert (rob.verdict, rob.confidence) == (calc.REFUTED, "exact")
    assert np.allclose(np.abs(rob.witness), [0.0, 2 ** -0.5, 2 ** -0.5])


def test_a_kink_at_xbar_keeps_the_samplers(monkeypatch):
    """f = min(x1, 0.13) is x1 near 0, where the criterion reads c = 1; at
    its tie x1 = 0.13 the Jacobian is one branch's, so the criterion steps
    aside and kappa and cq are sampled."""
    f = SmoothMap.from_strings(["min(x1, 0.13)"], ["x1"])
    assert calc.coderivative_of(f.jet([0.0]), Polyhedron([[1.0]], [0.0]), [0.0])[0] == \
        pytest.approx(1.0, abs=1e-12)
    p = ConstrainedProblem(SmoothFn("-x1", 1), f, Polyhedron([[1.0]], [0.13]))
    assert calc.coderivative_of(f.jet([0.13]), p.Theta, [0.13]) is None
    calls = count_calls(monkeypatch, ("msqc_estimate", "abadie_check"))
    assert Composite(IndicatorFn(p.Theta), f, [0.13]).coderivative() is None
    assert dual_certificate(p, [0.13], kappa="estimate").kappa_source != certify.KAPPA_COMPUTED
    assert calls == ["msqc_estimate"]


def test_a_row_scale_moves_neither_c_nor_a_verdict():
    """Theta's rows are scaled to unit norm before the eigenproblems, so
    cond(B) measures angles only.  The orthant {y1 <= 0, 1e8 y2 <= 0} with
    J = diag(1e-3, 1) has c = 1e-3, as with unit rows; and on seeded
    instances, one inequality row and its b times 10^k, k in {-6, ..., 6},
    leave c to rounding and the cq verdicts as they were."""
    J = np.diag([1e-3, 1.0])
    for P in (Polyhedron.nonpositive_orthant(2), Polyhedron([[1.0, 0.0], [0.0, 1e8]], [0.0, 0.0])):
        comp = Composite(IndicatorFn(P), SmoothMap.from_strings(["0.001*x1", "x2"], ["x1", "x2"]),
                         [0.0, 0.0])
        assert comp.coderivative()[0] == pytest.approx(1e-3, rel=1e-8)  # less its margin
        assert [r.verdict for r in cq_reports(comp).values()] == [calc.VERIFIED] * 3
    rng = np.random.default_rng(41)
    scaled = 0
    for trial in range(120):
        J, P, ybar, _, _ = random_instance(rng)
        n = J.shape[1]
        f = SmoothMap.from_strings(linear_strings(J, ybar), [f"x{j + 1}" for j in range(n)])
        c0 = coderivative_constant(J, P, ybar)[0]
        names = calc.CQ_CONDITIONS if c0 > 0.0 else ("robinson",)  # c = 0 samples the rest
        verdicts = [r.verdict for r in cq_reports(Composite(IndicatorFn(P), f, np.zeros(n)),
                                                  names).values()]
        for _ in range(3 if len(P.A_ineq) else 0):
            i, k = int(rng.integers(len(P.A_ineq))), int(rng.integers(-6, 7))
            A, b = P.A_ineq.copy(), P.b_ineq.copy()
            A[i], b[i] = A[i] * 10.0 ** k, b[i] * 10.0 ** k
            Q = Polyhedron(A, b, P.A_eq, P.b_eq, n=P.n)
            c1 = coderivative_constant(J, Q, ybar)[0]
            assert c1 == c0 or abs(c1 - c0) <= 1e-12 * (1.0 + np.linalg.norm(J)), (trial, k)
            assert [r.verdict for r in cq_reports(Composite(IndicatorFn(Q), f, np.zeros(n)),
                                                  names).values()] == verdicts, (trial, k)
            scaled += 1
    assert scaled >= 250
