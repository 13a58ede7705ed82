import json
import math
import warnings

import numpy as np
import pytest

from varcert import cli, expr, sdp, sip
from varcert.errors import (DimensionTooLargeError, InfeasiblePointError, KinkWarning,
                            NonConvergenceError, NotInDomainError, NotUnitError,
                            NumericalBreakdownError)
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
    cert = certify(diag_problem("x1"), [0.0], kappa=1.0)
    assert (cert.kind, cert.status, cert.detail) == ("SDP", "REFUTED", "NO_MULTIPLIER")
    assert cert.atoms is None and cert.residual is None and cert.tolerances == {}


def test_certify_equality_only():
    p = SDProblem.from_strings(1, "-x1", [["-1"]], Psi=[["x1"]])
    cert = certify(p, [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    assert cert.eq_atoms == [([0, 0], 1.0)]
    assert cert.bound_lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.residual <= 1e-9


def test_no_kernel_and_a_gradient_within_tol_stat_take_the_empty_multiplier(tmp_path):
    """Phi = -I has no kernel.  A gradient of norm 1e-8 lies between the
    exchange loop's fit tolerance and TOL_STAT: the empty multiplier is
    issued VERIFIED, and recheck passes it.  A larger gradient has no
    multiplier, with the note that names the missing kernel."""
    doc = {"kind": "sdp", "n": 1, "objective": "-1e-8*x1",
           "constraints": {"Phi": [["-1", "0"], [None, "-1"]]}}
    code, cert = _issue(tmp_path, doc, "0", "--kappa", "1")
    assert code == 0 and cert["status"] == "VERIFIED" and cert["atoms"] == []
    assert cli.run(["recheck", "-p", str(tmp_path / "problem.json"),
                    "-c", str(tmp_path / "cert.json")]) == 0
    p = SDProblem.from_strings(1, "-x1", [["-1", "0"], [None, "-1"]])
    for q, note in ((p, "no kernel atoms and nonzero objective gradient"),
                    (diag_problem("x1"), "stationarity system infeasible over kernel atoms")):
        cert = certify(q, [0.0], kappa=1.0)
        assert (cert.status, cert.detail, cert.notes) == ("REFUTED", "NO_MULTIPLIER", [note])


def test_any_real_kappa_is_asserted():
    """sdp has no kappa ladder: a numpy integer or float32 kappa is asserted
    like a float, and what is not a number raises as 2.0 * kappa did."""
    for kappa in (np.int64(2), np.float32(2.0), 2):
        cert = certify(diag_problem(), [0.0], kappa=kappa)
        assert (cert.kappa, cert.kappa_source) == (2.0, "user-asserted")
        assert cert.bound_rhs == pytest.approx(4.0)
    with pytest.raises(TypeError):
        certify(diag_problem(), [0.0], kappa=None)


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


def test_reduce_to_sip_keeps_an_overflowing_literal():
    """1e999 parses to inf; theta is written from the entry's text, which
    parses again, where rendering the tree would write the name 'inf'."""
    p = SDProblem.from_strings(1, "-x1", [["min(x1, 1e999)", "0"], ["0", "-1"]])
    assert p.phi_value([-2.0])[0, 0] == -2.0
    q = reduce_to_sip(p)
    assert sip.sup_violation(q, [-2.0])[0] == 0.0
    assert sip.sup_violation(q, [1.0])[0] == 1.0


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


def per_atom_quadform(p, x, s):
    """The reference for one atom: sum weight * expr.grad over the entries,
    in row-major order, skipping a zero weight."""
    out = np.zeros(p.n)
    for i in range(p.m):
        for j in range(i, p.m):
            weight = s[i] * s[j] * (1.0 if i == j else 2.0)
            if weight != 0.0:
                out += weight * expr.grad(p.Phi[i][j], x)
    return out


def test_one_entry_sweep_matches_per_atom_sums_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for _ in range(12):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        terms = [f"{rng.normal():.6f}*x{k + 1}*x{(k + 1) % n + 1}" for k in range(n)]
        Phi = [[" + ".join([f"sin({rng.normal():.6f}*x{(i + j) % n + 1})", *rng.choice(terms, 2)])
                for j in range(m)] for i in range(m)]
        p = SDProblem.from_strings(n, "x1", Phi)
        x = rng.normal(size=n)
        atoms = [v / np.linalg.norm(v) for v in rng.normal(size=(3, m))]
        atoms.append(np.eye(m)[m - 1])  # zero entries: most entries weigh 0
        zeros = rng.normal(size=m)
        zeros[::2] = 0.0
        atoms.append(zeros / np.linalg.norm(zeros))
        swept = sdp.quadforms(sdp.EntryTable(p.Phi, x), atoms)
        assert swept.shape == (len(atoms), n)
        for row, s in zip(swept, atoms):
            assert row.tobytes() == per_atom_quadform(p, x, s).tobytes()
            assert row.tobytes() == grad_quadform(p, x, s).tobytes()


def test_the_sweep_differentiates_only_entries_some_atom_weighs():
    """Phi[1][1] = log(x1) has no derivative at x1 = -1; atoms that give it
    weight 0 never ask for one."""
    p = SDProblem.from_strings(1, "x1", [["x1", "0"], [None, "log(x1)"]])
    table = sdp.EntryTable(p.Phi, [-1.0])
    assert sdp.quadforms(table, [[1.0, 0.0], [-1.0, 0.0]]).tolist() == [[1.0], [1.0]]
    assert sdp.quadforms(table, []).shape == (0, 1)
    with pytest.raises(NotUnitError):
        sdp.quadforms(table, [[1.0, 0.0], [0.6, 0.6]])
    # an atom that weighs the entry asks for its derivative, at every read
    for _ in range(2):
        with pytest.raises(NotInDomainError, match="outside the expression domain"):
            sdp.quadforms(table, [[0.0, 1.0]])


def kink_messages(fn):
    """The KinkWarning messages that ``fn()`` warns, in order."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        fn()
    return [str(w.message) for w in rec if issubclass(w.category, KinkWarning)]


def test_an_entry_no_atom_weighs_warns_no_kink():
    """Phi[1][1] = abs(x1) - 1 has a kink at x1 = 0; atoms that give it weight
    0 warn nothing, as one expr.grad per entry read on first use did."""
    p = SDProblem.from_strings(2, "x1", [["x1", "x2"], [None, "abs(x1) - 1"]])
    table = sdp.EntryTable(p.Phi, [0.0, 0.0])
    assert kink_messages(lambda: sdp.quadforms(table, [[1.0, 0.0], [-1.0, 0.0]])) == []
    price = sdp._kernel_price(table, np.array([[1.0], [0.0]]))
    assert kink_messages(lambda: price(np.array([1.0, 0.0]), 0.0)) == []


def test_an_entry_an_atom_weighs_warns_its_kinks_once():
    """The same kinked entry, weighed by an atom: its kink warns once per
    coordinate on the entry's first read, and never again, as one expr.grad
    per entry read on first use did."""
    p = SDProblem.from_strings(2, "x1", [["x1", "x2"], [None, "abs(x1) - max(x2, 0)"]])
    table = sdp.EntryTable(p.Phi, [0.0, 0.0])
    atom = [[0.6, 0.8]]
    expected = kink_messages(lambda: expr.grad(p.Phi[1][1], [0.0, 0.0]))
    assert expected == ["abs at 0: using identity-branch derivative",
                        "max tie: using first-argument derivative"] * 2
    assert kink_messages(lambda: sdp.quadforms(table, atom)) == expected
    assert kink_messages(lambda: sdp.quadforms(table, atom)) == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KinkWarning)
        reference = per_atom_quadform(p, [0.0, 0.0], atom[0])
    assert sdp.quadforms(table, atom).tobytes() == reference.tobytes()



def test_a_sum_of_one_negative_zero_term_is_zero():
    """The entry's gradient is -0.0; a sum started at 0.0 gives 0.0."""
    p = SDProblem.from_strings(1, "x1", [["-(x1*0)"]])
    table = sdp.EntryTable(p.Phi, [1.0])
    assert table.gradient(0).tobytes() == np.array([-0.0]).tobytes()
    swept = sdp.quadforms(table, [[1.0]])
    assert swept.tobytes() == per_atom_quadform(p, [1.0], [1.0]).tobytes() == np.zeros(1).tobytes()


def _issue(tmp_path, doc, point, *args):
    """(exit code, certificate document or None) of ``sdp`` on doc at point."""
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    prob.write_text(json.dumps(doc), encoding="utf-8")
    if out.exists():
        out.unlink()
    code = cli.run(["sdp", "-p", str(prob), "--point", point, *args, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None


def test_a_rank_one_multiplier_off_the_kernel_basis(tmp_path):
    """Phi = [[x1, x2], [., x3]] at 0 and objective -<v v^T, Phi> with v =
    (cos pi/8, sin pi/8): Lambda = v v^T is the only multiplier, an extreme
    ray of the PSD cone that no atom but +/-v represents.  The kernel price
    finds v."""
    v = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    doc = {"kind": "sdp", "n": 3,
           "objective": f"-{fmt(v[0] ** 2)}*x1 - {fmt(2 * v[0] * v[1])}*x2 - {fmt(v[1] ** 2)}*x3",
           "constraints": {"Phi": [["x1", "x2"], [None, "x3"]]}}
    code, cert = _issue(tmp_path, doc, "0,0,0", "--kappa", "10")
    assert code == 0 and cert["status"] == "VERIFIED"
    (atom,) = cert["atoms"]
    s = np.array(atom["s"])
    assert min(np.linalg.norm(s - v), np.linalg.norm(s + v)) <= 1e-9
    assert atom["lambda"] == pytest.approx(1.0, abs=1e-9)
    assert cert["bound"]["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert cli.run(["recheck", "-p", str(tmp_path / "problem.json"),
                    "-c", str(tmp_path / "cert.json")]) == 0


def test_rank_one_multipliers_on_a_two_dimensional_kernel():
    """Phi(x) = diag(0, 0, -1) + sum_l D_l x_l with small integer D_l, and the
    objective -<v v^T, Phi> with v = (cos pi/8, sin pi/8, 0): Lambda = v v^T
    is a multiplier on the boundary of the kernel's PSD cone.  Near it the
    nnls residual's gain is second order and stalls; the LP's Farkas
    direction carries the loop to v, so every instance is VERIFIED with
    sum(lambda) <= trace(v v^T) = 1 to the bound tolerance 1e-6."""
    rng = np.random.default_rng(1)
    v = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0])
    for trial in range(40):
        D = [(lambda B: B + B.T)(rng.integers(-2, 3, size=(3, 3)).astype(float)) for _ in range(4)]
        Phi = [[" + ".join([fmt(-1.0 if i == j == 2 else 0.0)]
                           + [f"({fmt(d[i, j])})*x{l + 1}" for l, d in enumerate(D)])
                if j >= i else None for j in range(3)] for i in range(3)]
        objective = " + ".join(f"({fmt(-(v @ d @ v))})*x{l + 1}" for l, d in enumerate(D))
        cert = certify(SDProblem.from_strings(4, objective, Phi), np.zeros(4), kappa=10.0)
        assert cert.status == "VERIFIED" and cert.bound_lhs <= 1.0 + 1e-6, trial


def kernel_doc(rng, m, k):
    """Phi(x) = Phi0 + sum_l D_l x_l with Phi0 = Q diag(0_k, -d) Q^T, whose
    kernel K has dimension k, and the objective whose multiplier is w I on
    K; n = k(k+1)/2 + 1, so the map from multipliers to gradients is
    injective for generic D."""
    n = k * (k + 1) // 2 + 1
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    Phi0 = Q @ np.diag(np.concatenate([np.zeros(k), -rng.uniform(0.5, 2.0, m - k)])) @ Q.T
    D = rng.uniform(-1.0, 1.0, (n, m, m))
    D = 0.5 * (D + D.transpose(0, 2, 1))
    K = Q[:, :k]
    g = -rng.uniform(0.5, 2.0) * np.einsum("ip,lij,jp->l", K, D, K)

    def entry(i, j):
        return " + ".join([fmt(0.5 * (Phi0[i, j] + Phi0[j, i]))]
                          + [f"{fmt(D[l, i, j])}*x{l + 1}" for l in range(n)])

    return {"kind": "sdp", "n": n, "objective": " + ".join(
                f"{fmt(g[l])}*x{l + 1}" for l in range(n)),
            "constraints": {"Phi": [[entry(i, j) if j >= i else None for j in range(m)]
                                    for i in range(m)]}}


def test_certificate_bytes_do_not_depend_on_the_seed(tmp_path):
    """Kernels of dimension 2 and 3: no atom is drawn at random, so --seed
    changes only the recorded seed."""
    rng = np.random.default_rng(37)
    for m, k in ((3, 2), (4, 2), (4, 3), (5, 3)):
        doc = kernel_doc(rng, m, k)
        point = ",".join(["0"] * doc["n"])
        certs = []
        for seed in ("1", "2", "3"):
            code, cert = _issue(tmp_path, doc, point, "--kappa", "100", "--seed", seed)
            assert code == 0 and cert["status"] == "VERIFIED", (m, k, cert)
            assert cert.pop("seed") == int(seed)
            certs.append(cert)
        assert certs[0] == certs[1] == certs[2]


def test_the_price_reads_no_entry_off_the_kernel_rows(tmp_path, capsys):
    """Phi[2][2] = -1 - sqrt(x4) has no derivative at x4 = 0, and the
    kernel of Phi(0) = diag(0, 0, -1) leaves its row out: the price never
    asks for it.  grad objective has x4-component 1, which no kernel atom
    reaches: NO_MULTIPLIER, exit 1, and no derivative error."""
    doc = {"kind": "sdp", "n": 4, "objective": "-x1 - x3 + x4",
           "constraints": {"Phi": [["x1", "x2", "0"], [None, "x3", "0"],
                                   [None, None, "-1 - sqrt(x4)"]]}}
    code, cert = _issue(tmp_path, doc, "0,0,0,0", "--kappa", "10")
    assert code == 1 and (cert["status"], cert["detail"]) == ("REFUTED", "NO_MULTIPLIER")
    assert "error" not in capsys.readouterr().err


def test_an_undefined_entry_makes_the_point_infeasible_before_the_eigensolver(tmp_path, capsys):
    """log(x1) at x1 = 0 evaluates to +inf, so Phi(0) is not finite: sigma^+
    is NaN without the eigensolver, and sdp exits 1 with the infeasible-point
    line and no RuntimeWarning."""
    doc = {"kind": "sdp", "n": 1, "objective": "x1",
           "constraints": {"Phi": [["x1 - 1", "log(x1)"], [None, "-1"]]}}
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        code, cert = _issue(tmp_path, doc, "0", "--kappa", "1")
    assert (code, cert) == (1, None)
    assert [str(w.message) for w in rec] == []
    assert capsys.readouterr().err == "infeasible point: sigma+ nan, |Psi|max 0.000e+00\n"
    table = sdp.EntryTable(SDProblem.from_strings(1, "x1", doc["constraints"]["Phi"]).Phi, [0.0])
    assert table.matrix[0, 1] == math.inf and np.isnan(table.spectrum[0]).all()


def test_a_price_that_never_stops_hits_the_offer_cap(tmp_path, capsys, monkeypatch):
    """A price that offers at any floor is cut off after MAX_OFFERS atoms:
    exit 4 with a numerical error line, and no exception escapes."""
    real = sdp._kernel_price
    monkeypatch.setattr(sdp, "_kernel_price", lambda *a: (
        lambda price: lambda y, floor: price(y, -math.inf))(real(*a)))
    code, cert = _issue(tmp_path, kernel_doc(np.random.default_rng(4), 3, 2), "0,0,0,0",
                        "--kappa", "100")
    assert code == 4 and cert is None
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and f"after {sdp.MAX_OFFERS} " in err
    assert "Traceback" not in err


def test_a_numerically_singular_fit_basis_still_prices_the_kernel(tmp_path):
    """perfbench certify_asserted seed 4317, cycle 12, sdp1: the atom fit's
    optimal basis is numerically singular.  With duals read off the final
    tableau the kernel price stops, and the issue is VERIFIED and rechecks;
    duals from a re-solve of the basis re-offered one vector until the
    offer cap (exit 4)."""
    c = ["-0.9980294483741317", "-0.3464479062326673", "-0.7720294717510472",
         "-0.7289805411844867", "-0.4295451290751904", "0.8585907293904735"]
    x1, x2, x3, x4, x5, x6 = (f"(x{i} - {ci})" for i, ci in enumerate(c, 1))
    doc = {"kind": "sdp", "n": 6, "objective": (
        "-0.05650726009453346*x1 + 0.41508608085320065*x2 + 0.4360205953688744*x3 + "
        "-0.6938334492489228*x4 + -0.2102129007228093*x5 + -0.3836505186180513*x6 + "
        f"1.9922019171958703*{x1}^2 + 1.9260622860524006*{x2}^2 + 1.8773810934416355*{x3}^2 + "
        f"1.3256625927326535*{x4}^2 + 1.9274595524009484*{x5}^2 + 1.028572921984805*{x6}^2"),
        "constraints": {"Phi": [
            [f"-0.793228713727907 + 0.010286692983636048*{x3} + -0.45985478640065613*{x4} + "
             f"-0.2971937319457647*{x1}^2",
             f"-0.03483330643372105 + -0.45985714214465667*{x3} + 0.1812303746287085*{x6} + "
             f"-0.6804195320300486*{x5}^2",
             f"-0.06460817381528286 + -0.9073493835842126*{x4} + -0.594671691918792*{x5}",
             f"0.5150972893588408 + -0.3529824156865238*{x3} + 0.6704506648357391*{x4}"],
            [None,
             f"-0.5111711195659849 + -0.8631127668455418*{x4} + -0.6755460252582686*{x5}",
             f"-0.22466570659970003 + -0.09695686415553983*{x1} + 0.7122172387549996*{x2}",
             f"-0.18771335748553092 + 0.2692685391177221*{x4} + -0.4505028057860909*{x6} + "
             f"-0.8857945805434646*{x6}^2"],
            [None, None,
             f"-0.10181627465854048 + -0.28443084272482544*{x3} + 0.6947190246787169*{x4}",
             f"-0.04959588604962573 + 0.6273707340989982*{x3} + 0.4737458179535121*{x4}"],
            [None, None, None,
             f"-0.42129371801150123 + 0.45881074013556455*{x5} + 0.46204672065930974*{x6}"]]}}
    code, cert = _issue(tmp_path, doc, ",".join(c), "--kappa", "1.3542105335981718")
    assert code == 0 and cert["status"] == "VERIFIED"
    assert cli.run(["recheck", "-p", str(tmp_path / "problem.json"),
                    "-c", str(tmp_path / "cert.json")]) == 0


def known_multiplier_sdp(seed):
    """A seeded sdp with a multiplier by construction, stationary at x = 0:
    Phi(x) = Phi0 + sum_l x_l A_l, Phi0 = Q diag(0_r, -d) Q^T with a kernel
    U = Q[:, :r] of dimension r, each A_l a symmetric Gaussian (B + B^T),
    and the objective g with g_l = -<Lambda, A_l> for Lambda = U F F^T U^T,
    F an r x k Gaussian: a PSD multiplier on the kernel, of rank k, often on
    the boundary of the kernel's PSD cone.  m in [2, 5], r in [1, m], n in
    [2, 6], k in [1, r]."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    r = int(rng.integers(1, m + 1))
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, r + 1))
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    Phi0 = Q @ np.diag(np.concatenate([np.zeros(r), -rng.uniform(0.5, 2.0, m - r)])) @ Q.T
    A = rng.normal(size=(n, m, m))
    A = A + A.transpose(0, 2, 1)
    F = rng.normal(size=(r, k))
    U = Q[:, :r]
    g = -np.einsum("ij,lij->l", U @ F @ F.T @ U.T, A)
    Phi = [[" + ".join([fmt(0.5 * (Phi0[i, j] + Phi0[j, i]))]
                       + [f"{fmt(A[l, i, j])}*x{l + 1}" for l in range(n)])
            if j >= i else None for j in range(m)] for i in range(m)]
    return SDProblem.from_strings(n, " + ".join(f"{fmt(g[l])}*x{l + 1}" for l in range(n)), Phi)


def known_multiplier_answer(seed):
    """The verdict of ``certify`` at 0 with kappa = 1e6 on
    ``known_multiplier_sdp(seed)``, or the exit 4 an issue reports for it."""
    p = known_multiplier_sdp(seed)
    try:
        cert = certify(p, np.zeros(p.n), kappa=1e6)
    except (NonConvergenceError, NumericalBreakdownError):
        return "exit 4"
    return cert.status if cert.detail is None else f"{cert.status} {cert.detail}"


def test_no_false_verdict_on_sdps_with_a_known_multiplier():
    """Every known_multiplier_sdp has a multiplier, and each of seeds 0-79 is
    VERIFIED.  Seed 51 once exited 4 on duals re-solved from the basis, and
    seeds 14, 51 and 73 were INCONCLUSIVE RESIDUAL on fits with a negative
    weight, which the simplex's drive-out of a nonzero artificial left."""
    answers = {seed: known_multiplier_answer(seed) for seed in range(80)}
    assert {s: a for s, a in answers.items() if a != "VERIFIED"} == {}


def test_the_last_atom_fit_of_seed_193_has_no_negative_weight(monkeypatch):
    """Seed 193's last ``conic_fit`` put -8.66 on one column: an artificial
    driven out of the basis at a level within phase 1's tolerance spread it
    into other rows.  Replayed, the fit's weights are >= 0 and fit within
    lp_solve's feasibility rule, and the certificate is VERIFIED."""
    fits = []
    real = sip.conic_fit
    monkeypatch.setattr(sip, "conic_fit", lambda target, rays: fits.append((target, rays)) or
                        real(target, rays))
    answer = known_multiplier_answer(193)
    b, C = fits[-1]
    w = real(b, C).w
    assert w is not None and (w >= 0.0).all()
    assert np.linalg.norm(C @ w - b) <= 1e-9 * (1.0 + np.linalg.norm(b))
    assert answer == "VERIFIED"


def test_a_miss_that_is_not_decisive_prices_the_farkas_direction():
    """On seed 343 (m = r = 2, Phi(0) = 0, a rank-one Lambda) a fresh NNLS
    residual prices nothing and the LP misses, but the residual's miss is
    not decisive: the LP's Farkas direction still prices the atom (0.707,
    0.707), and the certificate is VERIFIED, not REFUTED NO_MULTIPLIER."""
    assert known_multiplier_answer(343) == "VERIFIED"
