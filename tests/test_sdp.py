import math

import numpy as np
import pytest

from varcert import sdp, sip
from varcert.errors import DimensionTooLargeError, InfeasiblePointError, NoMultiplierError, NotUnitError
from varcert.sdp import SDProblem, certify, feasibility, grad_quadform, reduce_to_sip
from varcert.solvers import eigh


def diag_problem(objective="-x1"):
    # Phi(x) = diag(x, -1)
    return SDProblem.from_strings(1, objective, [["x1", "0"], [None, "-1"]])


def test_feasibility_examples():
    p = diag_problem()
    rep = feasibility(p, [0.0])
    assert rep.feasible and rep.sigma_plus == 0.0
    rep = feasibility(p, [0.5])
    assert not rep.feasible
    assert rep.sigma_plus == pytest.approx(0.5)
    q = SDProblem.from_strings(1, "-x1", [["-1"]], Psi=[["x1"]])
    assert feasibility(q, [0.0]).psi_max == 0.0
    assert not feasibility(q, [0.3]).feasible


def test_grad_quadform_examples():
    p = diag_problem()
    assert np.allclose(grad_quadform(p, [0.0], [1.0, 0.0]), [1.0])
    assert np.allclose(grad_quadform(p, [0.0], [0.0, 1.0]), [0.0])
    const = SDProblem.from_strings(1, "-x1", [["-1", "0"], [None, "-1"]])
    assert np.allclose(grad_quadform(const, [0.0], [1.0, 0.0]), [0.0])
    with pytest.raises(NotUnitError):
        grad_quadform(p, [0.0], [2.0, 0.0])


def test_certify_fixture():
    cert = certify(diag_problem("-x1"), [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    assert len(cert.atoms) == 1
    s, lam = cert.atoms[0]
    assert abs(abs(s[0]) - 1.0) < 1e-9 and abs(s[1]) < 1e-9  # s = +-e1
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_rhs == pytest.approx(2.0, abs=1e-9)
    assert cert.residual <= 1e-7


def test_certify_sign_infeasible():
    with pytest.raises(NoMultiplierError):
        certify(diag_problem("x1"), [0.0], kappa=1.0)


def test_certify_equality_only():
    p = SDProblem.from_strings(1, "-x1", [["-1"]], Psi=[["x1"]])
    cert = certify(p, [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    assert cert.eq_atoms == [([0, 0], 1.0)]
    assert cert.bound_lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.residual <= 1e-9


def test_certify_infeasible_point():
    with pytest.raises(InfeasiblePointError):
        certify(diag_problem(), [0.5], kappa=1.0)


def test_reduce_to_sip_examples():
    p = diag_problem()
    q = reduce_to_sip(p)
    v, s = sip.sup_violation(q, [0.5])
    assert v == pytest.approx(0.5, abs=1e-9)
    assert s[0] == pytest.approx(0.0, abs=1e-4)
    flip = SDProblem.from_strings(1, "-x1", [["0", "1"], [None, "0"]])
    v, s = sip.sup_violation(reduce_to_sip(flip), [0.0])
    assert v == pytest.approx(1.0, abs=1e-9)
    assert s[0] == pytest.approx(math.pi / 4, abs=1e-4)
    big = SDProblem.from_strings(1, "-x1", [["x1", "0", "0", "0"],
                                            [None, "-1", "0", "0"],
                                            [None, None, "-1", "0"],
                                            [None, None, None, "-1"]])
    with pytest.raises(DimensionTooLargeError):
        reduce_to_sip(big)


def fmt(v):
    return repr(float(v))


def random_constant_sdp(rng, m):
    B = rng.normal(size=(m, m))
    A = 0.5 * (B + B.T)
    Phi = [[fmt(A[i, j]) for j in range(m)] for i in range(m)]
    return SDProblem.from_strings(1, "-x1", Phi), A


def test_sigma_matches_sphere_sip_on_random_matrices():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        p, A = random_constant_sdp(rng, m)
        sigma = eigh(A)[0][0]
        v, _ = sip.sup_violation(reduce_to_sip(p), [0.0])
        assert v == pytest.approx(max(0.0, sigma), abs=1e-6)


def test_orthogonal_change_of_basis_invariance():
    # rotate Phi(x) = diag(x, -1) by a fixed angle and compare certificates
    a = 0.7
    Q = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    # Q^T Phi Q entries as expressions in x1
    base = [["x1", "0"], ["0", "-1"]]

    def entry(i, j):
        terms = []
        for k in range(2):
            for l in range(2):
                coef = Q[k, i] * Q[l, j]
                if abs(coef) > 1e-15 and base[k][l] != "0":
                    terms.append(f"{float(coef)!r}*({base[k][l]})")
        return " + ".join(terms) if terms else "0"

    rotated = [[entry(0, 0), entry(0, 1)], [None, entry(1, 1)]]
    p_rot = SDProblem.from_strings(1, "-x1", rotated)
    cert_rot = certify(p_rot, [0.0], kappa=1.0)
    cert_base = certify(diag_problem(), [0.0], kappa=1.0)
    assert cert_rot.status == cert_base.status == "VERIFIED"
    assert cert_rot.bound_lhs == pytest.approx(cert_base.bound_lhs, abs=1e-8)
    # atoms map by Q^T: the rotated atom aligns with Q^T e1
    s_rot = np.array(cert_rot.atoms[0][0])
    target = Q.T @ np.array([1.0, 0.0])
    assert min(np.linalg.norm(s_rot - target), np.linalg.norm(s_rot + target)) < 1e-7


def test_atoms_lie_in_kernel_complementarity():
    p = SDProblem.from_strings(
        2, "-x1 - x2",
        [["x1", "0", "0"], [None, "x2", "0"], [None, None, "-1"]],
    )
    cert = certify(p, [0.0, 0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    A = p.phi_value(np.array([0.0, 0.0]))
    for s, lam in cert.atoms:
        s = np.array(s)
        assert abs(s @ A @ s) <= 10 * cert.tolerances["tol_ker"]
    assert cert.residual <= 1e-7
    assert len(cert.atoms) <= 2
