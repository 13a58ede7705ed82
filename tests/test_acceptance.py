"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest

from varcert import calculus, certify, cli, sdp as sdp_mod, sip as sip_mod
from varcert.calculus import Composite, abadie_check, msqc_estimate, robustness_check
from varcert.certify import ConstrainedProblem, dual_certificate, primal_check
from varcert.expr import SmoothMap
from varcert.funcspace import (
    DistanceFn,
    IndicatorFn,
    PLQFunction,
    SmoothFn,
    SubdifferentialSet,
    plq_max_of_affine,
    subderivative_sampled,
)
from varcert.geometry import Polyhedron, dist_to_cone, normal_cone, tangent_cone
from varcert.sip import SIProblem, caratheodory_reduce
from varcert.solvers import LPProblem, OPTIMAL, eigh, lp_solve

INF = math.inf


def report(num, passed, detail, t0=None):
    stamp = f" [{time.monotonic() - t0:.1f}s]" if t0 is not None else ""
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}{stamp}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# fixture generators

def random_plq_outer(rng, m, boundary=False):
    """Consistent PLQ: max of affines plus a shared small quadratic."""
    k = int(rng.integers(2, 5))
    coeffs = rng.normal(size=(k, m))
    consts = rng.normal(size=k) * 0.3
    B = rng.normal(size=(m, m))
    B = 0.1 * (B + B.T)
    base = plq_max_of_affine(coeffs, consts)
    pieces = [(p.omega, B, p.b, p.beta) for p in base.pieces]
    return PLQFunction(pieces, validate=False)


def restrict_to_box(theta, lo, hi):
    box = Polyhedron.box(list(zip(lo, hi)))
    pieces = [(Polyhedron.intersection(p.omega, box), p.B, p.b, p.beta)
              for p in theta.pieces]
    return PLQFunction(pieces, validate=False)


def random_poly_map(rng, n, m):
    """Random polynomial map of degree <= 3 with tame coefficients."""
    comps = []
    for _ in range(m):
        terms = [repr(float(rng.normal() * 0.2))]
        for i in range(n):
            terms.append(f"{float(rng.normal() * 0.6)!r}*x{i+1}")
        for i in range(n):
            j = int(rng.integers(0, n))
            terms.append(f"{float(rng.normal() * 0.2)!r}*x{i+1}*x{j+1}")
        i = int(rng.integers(0, n))
        terms.append(f"{float(rng.normal() * 0.1)!r}*x{i+1}^3")
        comps.append(" + ".join(terms))
    return SmoothMap.from_strings(comps, [f"x{i+1}" for i in range(n)])


def random_polyhedron_with_vertex(rng, n, rows):
    """Nonempty polyhedron, bounded by a box, and an LP vertex on its boundary."""
    A = rng.normal(size=(rows, n))
    x0 = rng.normal(size=n) * 0.3
    b = A @ x0 + np.abs(rng.normal(size=rows)) * 0.5 + 0.05
    cap = np.vstack([np.eye(n), -np.eye(n)])
    bcap = np.full(2 * n, 5.0)
    P = Polyhedron(np.vstack([A, cap]), np.concatenate([b, bcap]))
    c = rng.normal(size=n)
    sol = lp_solve(LPProblem(c=c, A=P.A_ineq, b=P.b_ineq,
                             senses=["<="] * P.A_ineq.shape[0]))
    assert sol.status == OPTIMAL
    return P, sol.x


# ---------------------------------------------------------------------------

def test_criterion_1_chain_rule_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    built = 0
    checked_pairs = 0
    worst = 0.0
    while built < 50:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        theta = random_plq_outer(rng, m)
        f = random_poly_map(rng, n, m)
        xbar = rng.uniform(-0.5, 0.5, size=n)
        boundary = built % 6 == 5
        if boundary:
            ybar = f.eval(xbar)
            lo = ybar - rng.uniform(0.5, 1.0, size=m)
            hi = ybar.copy()  # ybar sits on the upper facet
            hi[1:] = ybar[1:] + rng.uniform(0.5, 1.0, size=m - 1) if m > 1 else hi[1:]
            theta = restrict_to_box(theta, lo, hi)
        try:
            c = Composite(theta, f, xbar)
        except Exception:
            continue
        ms = msqc_estimate(c, radius=0.3, samples=15, seed=built)
        if ms.verdict != calculus.VERIFIED:
            continue
        fn = calculus.composite_fn(c)
        ok = True
        for d in range(10):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            lhs = calculus.chain_subderivative(c, u).value
            try:
                rhs = subderivative_sampled(fn, xbar, u, seed=d).value
            except Exception:
                ok = False
                break
            if lhs == INF or rhs == INF:
                if lhs != rhs:
                    ok = False
                    break
                continue
            err = abs(lhs - rhs)
            worst = max(worst, err)
            checked_pairs += 1
            if err > 1e-4:
                ok = False
                break
        if not ok:
            report(1, False, f"composite {built} failed oracle equivalence", t0)
        built += 1
    elapsed = time.monotonic() - t0
    report(1, elapsed <= 60.0,
           f"50 composites x 10 directions ({checked_pairs} finite pairs), "
           f"max |chain - sampled| = {worst:.2e} <= 1e-4, runtime {elapsed:.1f}s <= 60s", t0)


def test_criterion_2_distance_function_formulas():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    done = 0
    worst = 0.0
    while done < 30:
        n = int(rng.integers(2, 5))
        P, x = random_polyhedron_with_vertex(rng, n, int(rng.integers(2, 6)))
        fn = DistanceFn(P)
        T = tangent_cone(P, x)
        N = normal_cone(P, x)
        for d in range(5):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            analytic = dist_to_cone(T, u)
            sampled = subderivative_sampled(fn, x, u, seed=d).value
            err = abs(sampled - analytic)
            worst = max(worst, err)
            assert err <= 1e-4, f"distance subderivative mismatch {err:.2e}"
        ball = SubdifferentialSet.cone_cap_ball(N, 1.0)
        elements = ball.sample(10, seed=done)
        for k in range(50):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            dphi = dist_to_cone(T, u)
            for v in elements:
                assert float(v @ u) <= dphi + 1e-6, "subgradient inequality violated"
        done += 1
    elapsed = time.monotonic() - t0
    report(2, elapsed <= 30.0,
           f"30 polyhedra: max sampled-vs-analytic gap {worst:.2e} <= 1e-4, "
           f"all cone-cap-ball elements satisfy the subgradient inequality, "
           f"runtime {elapsed:.1f}s <= 30s", t0)


def soc_project(y):
    """Euclidean projection onto the ice-cream cone {(w, r): ||w|| <= r} in R^3."""
    w, r = y[:2], y[2]
    nw = float(np.linalg.norm(w))
    if nw <= r:
        return np.asarray(y, dtype=float)
    if nw <= -r:
        return np.zeros(3)
    alpha = 0.5 * (nw + r)
    return np.concatenate([alpha * w / nw, [alpha]])


def test_criterion_3_nonclosed_cone_counterexample():
    t0 = time.monotonic()
    # oracle sanity: projection formula versus a brute grid (once)
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.normal(size=3)
        p = soc_project(y)
        best = np.inf
        for a in np.linspace(0, 2 * np.pi, 181):
            for r in np.linspace(0, 3, 301):
                cand = np.array([r * np.cos(a), r * np.sin(a), r])
                best = min(best, float(np.linalg.norm(y - cand)))
        assert abs(np.linalg.norm(y - p) - best) <= 2e-2

    # (a) membership of (0,1,0) reduces to ||(-t, 1)|| <= t: impossible since
    # t^2 + 1 <= t^2 has no solution
    grid = np.linspace(0.0, 1e4, 10001)
    min_gap = float(np.min((grid ** 2 + 1.0) - grid ** 2))
    assert min_gap == 1.0
    assert all(math.hypot(-t, 1.0) > t for t in grid)

    # (b) the explicit family lies in the sum with tiny residual
    for t in (1.0, 0.5, 0.1):
        u1 = np.array([-t, 1.0 + 1.0 / t, t + (1.0 / t + 2.0 / t ** 2 + 1.0 / t ** 3) / 2.0])
        u2 = np.array([t, 0.0, -t])
        soc_residual = max(0.0, math.hypot(u1[0], u1[1]) - u1[2])
        assert soc_residual <= 1e-9
        target = np.array([0.0, 1.0 + 1.0 / t, (1.0 / t + 2.0 / t ** 2 + 1.0 / t ** 3) / 2.0])
        assert float(np.max(np.abs(u1 + u2 - target))) <= 1e-9

    # (c) the distance from (0,1,0) to the sum vanishes along the ray (1-d grid oracle)
    point = np.array([0.0, 1.0, 0.0])
    for t in (1e-2, 5e-3, 1e-3):
        tau = 1.0 / t
        d = float(np.linalg.norm(point - tau * np.array([1.0, 0.0, -1.0])
                                 - soc_project(point - tau * np.array([1.0, 0.0, -1.0]))))
        assert d <= 1e-2, f"distance {d:.3e} at t={t}"
    report(3, True,
           "(a) (0,1,0) not in Theta1+Theta2 (1-parameter reduction), "
           "(b) family members inside with residual <= 1e-9, "
           "(c) dist <= 1e-2 for t <= 1e-2", t0)


def test_criterion_4_bounded_multiplier_on_random_lps():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    certs = []
    for trial in range(100):
        n = int(rng.integers(2, 5))
        Theta, xstar = random_polyhedron_with_vertex(rng, n, int(rng.integers(1, 5)))
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        # xstar minimizes a random direction; use that direction as the gradient
        sol = lp_solve(LPProblem(c=c, A=Theta.A_ineq, b=Theta.b_ineq,
                                 senses=["<="] * Theta.A_ineq.shape[0]))
        assert sol.status == OPTIMAL
        xstar = sol.x
        obj = " + ".join(f"{float(c[i])!r}*x{i+1}" for i in range(n))
        prob_doc = {
            "kind": "nlp", "n": n, "objective": obj,
            "constraints": {"f": [f"x{i+1}" for i in range(n)],
                            "Theta": {"A_ineq": Theta.A_ineq.tolist(),
                                      "b_ineq": Theta.b_ineq.tolist()}},
        }
        p = cli.build_nlp(prob_doc)
        cert = dual_certificate(p, xstar, kappa=1.0, seed=trial)
        assert cert.status == certify.VERIFIED, f"trial {trial} not verified"
        assert cert.residual <= 1e-7
        assert cert.bound_lhs <= np.linalg.norm(c) * np.sqrt(n) + 1e-9
        primal = primal_check(p, xstar)
        assert primal.status == certify.VERIFIED
        certs.append((prob_doc, cli.certificate_document(cert, "nlp")))
    # criterion 10 hook: round-trip every emitted certificate
    for prob_doc, cert_doc in certs:
        assert cli.recheck(cert_doc, prob_doc) == 0
    mutated = json.loads(json.dumps(certs[0][1]))
    mutated["multipliers"] = [v + 1.0 for v in mutated["multipliers"]]
    assert cli.recheck(mutated, certs[0][0]) == 1
    elapsed = time.monotonic() - t0
    report(4, elapsed <= 60.0,
           f"100 random LPs: dual VERIFIED with ||lambda|| <= ||grad||*sqrt(m), "
           f"residual <= 1e-7, primal VERIFIED, all rechecks exit 0, "
           f"runtime {elapsed:.1f}s <= 60s", t0)


def test_criterion_5_sip_remark_fixture_end_to_end(tmp_path):
    t0 = time.monotonic()
    p = SIProblem.from_strings(1, "-x1", theta="s1*x1", S=[(0.0, 1.0)])
    emf = sip_mod.emfcq_check(p, [0.0])
    assert emf.verdict == calculus.REFUTED  # EMFCQ/Robinson fails in SIP form
    kap = sip_mod.sip_kappa_estimate(p, [0.0], seed=5)
    assert kap.verdict == calculus.VERIFIED
    assert 0.9 <= kap.kappa_hat <= 1.1
    cert = sip_mod.certify(p, [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    (s, lam), = cert.atoms
    assert s[0] == pytest.approx(1.0, abs=1e-9)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_lhs == pytest.approx(1.0 * 1.0, abs=1e-6)  # sum = kappa*||grad||
    # end to end through the CLI
    prob_doc = {"kind": "sip", "n": 1, "objective": "-x1",
                "constraints": {"theta": "s1*x1", "S": [[0.0, 1.0]]}}
    prob_path = tmp_path / "linear_sip.json"
    prob_path.write_text(json.dumps(prob_doc), encoding="utf-8")
    out = tmp_path / "cert.json"
    code = cli.run(["sip", "-p", str(prob_path), "--point", "0", "--kappa", "1",
                    "--out", str(out)])
    assert code == 0
    cert_doc = json.loads(out.read_text())
    assert cli.recheck(cert_doc, prob_doc) == 0
    report(5, True,
           "EMFCQ REFUTED, kappa_hat in [0.9,1.1], atom s=1 lambda=1 with "
           "sum(lambda) = kappa*||grad|| and CLI exit 0", t0)


def test_criterion_6_caratheodory_reduction():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        K = int(rng.integers(n + 1, 41))
        G = rng.normal(size=(n, K))
        w = rng.random(K)
        target = G @ w
        mult = caratheodory_reduce(list(range(K)), w, G)
        assert len(mult.atoms) <= n
        w2 = np.zeros(K)
        for idx, weight in mult.atoms:
            assert weight >= 0.0
            w2[idx] = weight
        assert np.linalg.norm(G @ w2 - target) <= 1e-10 * (1.0 + np.linalg.norm(target))
    elapsed = time.monotonic() - t0
    report(6, elapsed <= 10.0,
           f"200 instances: support <= n, G lambda preserved to 1e-10, "
           f"lambda >= 0 exactly, runtime {elapsed:.1f}s <= 10s", t0)


def test_criterion_7_sdp_fixture_and_sphere_agreement():
    t0 = time.monotonic()
    p = sdp_mod.SDProblem.from_strings(1, "-x1", [["x1", "0"], [None, "-1"]])
    cert = sdp_mod.certify(p, [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    s, lam = cert.atoms[0]
    assert abs(abs(s[0]) - 1.0) <= 1e-9 and abs(s[1]) <= 1e-9
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_rhs == pytest.approx(2.0, abs=1e-9)
    prob_doc = {"kind": "sdp", "n": 1, "objective": "-x1",
                "constraints": {"Phi": [["x1", "0"], [None, "-1"]]}}
    assert cli.recheck(cli.certificate_document(cert, "sdp"), prob_doc) == 0

    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 4))
        B = rng.normal(size=(m, m))
        A = 0.5 * (B + B.T)
        Phi = [[repr(float(A[i, j])) for j in range(m)] for i in range(m)]
        q = sdp_mod.SDProblem.from_strings(1, "-x1", Phi)
        sigma = max(0.0, eigh(A)[0][0])
        v, _ = sip_mod.sup_violation(sdp_mod.reduce_to_sip(q), [0.0])
        worst = max(worst, abs(v - sigma))
        assert abs(v - sigma) <= 1e-6
    report(7, True,
           f"fixture atom e1 with bound 1 <= 2, recheck exit 0; eigenvalue vs "
           f"sphere-SIP sup agreement max gap {worst:.2e} <= 1e-6 on 50 matrices", t0)


def subamenable_fixtures(rng, count=20):
    out = []
    k = 0
    while len(out) < count:
        k += 1
        mode = len(out) % 3
        if mode == 0:
            n = int(rng.integers(2, 4))
            try:
                P, x = random_polyhedron_with_vertex(rng, n, int(rng.integers(2, 5)))
            except AssertionError:
                continue
            out.append((Composite(IndicatorFn(P), SmoothMap.identity(n), x), 1.0))
        elif mode == 1:
            a = float(rng.uniform(0.5, 2.0))
            sgn = "-" if len(out) % 2 else ""
            f = SmoothMap.from_strings([f"x2 {'-' if not sgn else '+'} {a!r}*x1^2"],
                                       ["x1", "x2"])
            side = Polyhedron([[-1.0]], [0.0]) if not sgn else Polyhedron([[1.0]], [0.0])
            out.append((Composite(IndicatorFn(side), f, [0.0, 0.0]), 1.5))
        else:
            f = SmoothMap.from_strings(["x1 + 0.3*x2^2", "x2 - 0.4*x1^2"], ["x1", "x2"])
            out.append((Composite(IndicatorFn(Polyhedron.nonpositive_orthant(2)), f,
                                  [0.0, 0.0]), 2.0))
    return out


def test_criterion_8_robustness_of_subnormal_cone():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    fixtures = subamenable_fixtures(rng, 20)
    worst = 0.0
    for i, (c, kappa) in enumerate(fixtures):
        rep = robustness_check(c, kappa=kappa, seed=i)
        assert rep.status == calculus.VERIFIED, f"fixture {i}: {rep.status} {rep.notes}"
        worst = max(worst, rep.max_violation)
        assert rep.max_violation <= 1e-5
    elapsed = time.monotonic() - t0
    report(8, True,
           f"20 subamenable fixtures: max membership violation {worst:.2e} <= 1e-5, "
           f"runtime {elapsed:.1f}s", t0)


def test_criterion_9_qualification_hierarchy():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    corpus = [c for c, _ in subamenable_fixtures(rng, 9)]
    ind = IndicatorFn(Polyhedron([[1.0]], [0.0]))
    corpus.append(Composite(ind, SmoothMap.identity(1), [0.0]))
    wedge = IndicatorFn(Polyhedron([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0]))
    corpus.append(Composite(wedge, SmoothMap.identity(2), [0.0, 0.0]))
    violations = 0
    checked = 0
    for i, c in enumerate(corpus):
        ms = msqc_estimate(c, radius=0.3, samples=20, seed=i)
        if ms.verdict == calculus.VERIFIED:
            ab = abadie_check(c, seed=i)
            checked += 1
            if ab.verdict == calculus.REFUTED:
                violations += 1
    assert violations == 0
    # the squared map against {0}: AQC refuted together with MSQC divergence
    sq = Composite(IndicatorFn(Polyhedron.singleton([0.0])),
                   SmoothMap.from_strings(["x1^2"], ["x1"]), [0.0])
    ab = abadie_check(sq)
    ms = msqc_estimate(sq, radius=0.5, samples=40)
    assert ab.verdict == calculus.REFUTED
    assert ms.diverging
    elapsed = time.monotonic() - t0
    report(9, True,
           f"no MSQC-verified fixture is Abadie-refuted ({checked} checked); "
           f"x^2 against {{0}} has AQC REFUTED with MSQC divergence, "
           f"runtime {elapsed:.1f}s", t0)


def test_criterion_10_certificate_round_trip(tmp_path):
    t0 = time.monotonic()
    # criteria 4 and 7 recheck inline above; here the full CLI round trip plus
    # a mutated multiplier for each problem class
    prob_doc = {"kind": "nlp", "n": 2, "objective": "-x1 - x2",
                "constraints": {"f": ["x1", "x2"],
                                "Theta": {"A_ineq": [[1.0, 0.0], [0.0, 1.0]],
                                          "b_ineq": [0.0, 0.0]}}}
    prob = tmp_path / "orthant.json"
    prob.write_text(json.dumps(prob_doc), encoding="utf-8")
    out = tmp_path / "cert.json"
    assert cli.run(["kkt", "-p", str(prob), "--point", "0,0", "--kappa", "1",
                    "--out", str(out)]) == 0
    assert cli.run(["recheck", "-p", str(prob), "-c", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["multipliers"] = [2.0, 2.0]
    cert["generator_weights"] = [2.0, 2.0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert), encoding="utf-8")
    assert cli.run(["recheck", "-p", str(prob), "-c", str(tampered)]) == 1

    sip_doc = {"kind": "sip", "n": 1, "objective": "-x1",
               "constraints": {"theta": "s1*x1", "S": [[0.0, 1.0]]}}
    sp = tmp_path / "sip.json"
    sp.write_text(json.dumps(sip_doc), encoding="utf-8")
    sout = tmp_path / "sipcert.json"
    assert cli.run(["sip", "-p", str(sp), "--point", "0", "--kappa", "1",
                    "--out", str(sout)]) == 0
    assert cli.run(["recheck", "-p", str(sp), "-c", str(sout)]) == 0
    scert = json.loads(sout.read_text())
    scert["atoms"][0]["lambda"] = 0.25
    stam = tmp_path / "sip_tampered.json"
    stam.write_text(json.dumps(scert), encoding="utf-8")
    assert cli.run(["recheck", "-p", str(sp), "-c", str(stam)]) == 1
    report(10, True,
           "emitted certificates recheck to exit 0; tampered multipliers exit 1", t0)
