"""Golden certificate corpus: every case is reissued and compared byte for byte.

``golden/cases.json`` lists each case: a problem file, the CLI arguments
that issue its certificate, the exit code of that call and the exit code of
``recheck`` on the result.  ``golden/<name>.json`` holds the certificate
bytes; a case that writes no certificate has no such file.  Run this file as
a script to rewrite the expected outputs after an intended change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from varcert import cli, expr, solvers
from varcert.certify import ConstrainedProblem, dual_certificate
from varcert.expr import SmoothMap
from varcert.funcspace import PLQFunction
from varcert.geometry import Polyhedron

GOLDEN = Path(__file__).with_name("golden")
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def plq_certificate():
    """|x1| + x2 over the box [-1, 0]^2 at (0, -1).  The CLI reads only smooth
    objectives, so this case goes through the library and has no recheck."""
    obj = PLQFunction([
        (Polyhedron([[-1.0, 0.0]], [0.0]), np.zeros((2, 2)), [1.0, 1.0], 0.0),
        (Polyhedron([[1.0, 0.0]], [0.0]), np.zeros((2, 2)), [-1.0, 1.0], 0.0),
    ])
    p = ConstrainedProblem(obj, SmoothMap.identity(2),
                           Polyhedron.box([(-1.0, 0.0), (-1.0, 0.0)]))
    cert = dual_certificate(p, [0.0, -1.0], kappa=1.0)
    return cli.canonical_json(cli.certificate_document(cert, "nlp"))


def issue(case, tmp):
    """(issue exit code, certificate text or None, recheck exit code or None)."""
    if case["args"] is None:
        return None, plq_certificate(), None
    prob = tmp / "problem.json"
    prob.write_text(json.dumps(case["problem"]), encoding="utf-8")
    out = tmp / "cert.json"
    command, *rest = case["args"]
    code = cli.run([command, "-p", str(prob), *rest, "--out", str(out)])
    if not out.exists():
        return code, None, None
    recheck = None if command == "cq" else cli.run(["recheck", "-p", str(prob), "-c", str(out)])
    return code, out.read_text(encoding="utf-8"), recheck


def expected_text(case):
    path = GOLDEN / f"{case['name']}.json"
    return path.read_text(encoding="utf-8") if path.exists() else None


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_certificate(case, tmp_path):
    code, text, recheck = issue(case, tmp_path)
    assert code == case["exit"]
    assert text == expected_text(case)
    assert recheck == case["recheck"]


def recheck_edited(case, edit, tmp_path):
    """The recheck exit code of the case's golden certificate after ``edit(doc)``."""
    cert = json.loads(expected_text(case))
    edit(cert)
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    prob.write_text(json.dumps(case["problem"]), encoding="utf-8")
    out.write_text(json.dumps(cert), encoding="utf-8")
    return cli.run(["recheck", "-p", str(prob), "-c", str(out)])


def by_name(name):
    return next(c for c in CASES if c["name"] == name)


def test_recheck_refutes_sdp_atom_off_the_unit_sphere(tmp_path):
    """Tampering the sdp_readme atom to s = [2, 0] makes recheck exit 1
    (REFUTED), not 3: the unit check settles it before the residual."""
    def edit(cert):
        cert["atoms"][0]["s"] = [2.0, 0.0]
    assert recheck_edited(by_name("sdp_readme"), edit, tmp_path) == 1



def test_recheck_refutes_sdp_atom_just_off_the_unit_sphere(tmp_path, capsys):
    """An atom 5e-9 off the unit sphere fails the unit check that the
    residual's quadratic forms apply too: exit 1 with a failure line, where
    a looser check let the quadratic forms end recheck with exit 3."""
    def edit(cert):
        cert["atoms"][0]["s"] = [1.0 + 5e-9, 0.0]
    assert recheck_edited(by_name("sdp_readme"), edit, tmp_path) == 1
    err = capsys.readouterr().err
    assert "recheck failure: atom is not a unit vector" in err.splitlines()
    assert "Traceback" not in err


def test_recheck_of_a_failing_descent_witness_is_inconclusive(tmp_path, capsys):
    """The nlp_primal_refuted witness (-1, -1) rechecks to exit 1; negated to
    (1, 1) it neither descends nor stays in the linearized cone, which shows
    nothing: exit 2 with the failure lines, not the valid witness's exit 1."""
    def negate(cert):
        cert["descent_witness"] = [-w for w in cert["descent_witness"]]
    case = by_name("nlp_primal_refuted")
    assert recheck_edited(case, lambda cert: None, tmp_path) == 1
    assert "recheck: descent witness reproduces REFUTED" in capsys.readouterr().err
    assert recheck_edited(case, negate, tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("recheck failure: ") for line in err)


@pytest.mark.parametrize("name", ["nlp_primal_refuted", "nlp_no_multiplier"])
def test_recheck_of_a_refuted_nlp_without_its_witness_is_inconclusive(name, tmp_path, capsys):
    """An nlp REFUTED shows itself by its descent witness or its multipliers;
    with neither it shows nothing: exit 2 with one failure line, not the
    exit 1 of a residual read from an empty multiplier."""
    def strip(cert):
        del cert["descent_witness"]
    assert recheck_edited(by_name(name), strip, tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("recheck failure: ")


def forged_verified(section=None, field=None, value=None):
    """An edit that claims VERIFIED with no detail, and sets one field."""
    def edit(cert):
        cert["status"], cert["detail"] = "VERIFIED", None
        if section is not None:
            cert[section][field] = value
    return edit


FORGERIES = [(name, section, field, value)
             for name in ("nlp_bound_exceeded", "sip_bound_exceeded", "sdp_bound_exceeded")
             for section, field, value in (("bound", "rhs", 100.0),
                                           ("tolerances", "tol_bound", 1e9))] + [
    ("nlp_kappa_unavailable", None, None, None),
    ("sip_kappa1", "bound", "kappa", None),
]


@pytest.mark.parametrize("name, section, field, value", FORGERIES,
                         ids=[f"{n}-{f or 'status'}" for n, _, f, _ in FORGERIES])
def test_recheck_refutes_a_forged_verified_claim(name, section, field, value, tmp_path):
    """recheck recomputes the bound from kappa with its own tolerances, and
    VERIFIED needs a kappa: none of these forgeries rechecks to exit 0."""
    assert recheck_edited(by_name(name), forged_verified(section, field, value), tmp_path) == 1


def test_only_an_nlp_primal_claims_no_bound(tmp_path):
    """A Primal VERIFIED skips the bound, and only on nlp: a sip certificate
    relabelled Primal still needs sum(lambda) <= kappa ||grad||."""
    def edit(cert):
        forged_verified()(cert)
        cert["kind"] = "Primal"
    assert recheck_edited(by_name("sip_bound_exceeded"), edit, tmp_path) == 1


@pytest.mark.parametrize("kappa, code", [
    (math.inf, 1), (math.nan, 1), (-1.0, 1), (-1e-9, 1),
    ("1", 3), (True, 3), ([1.0], 3), (10 ** 400, 3),  # 10**400 has no float
], ids=["inf", "nan", "negative", "tiny_negative", "string", "bool", "list", "huge_int"])
def test_recheck_reads_kappa_as_a_finite_nonnegative_number(kappa, code, tmp_path):
    edit = forged_verified("bound", "kappa", kappa)
    assert recheck_edited(by_name("sip_kappa1"), edit, tmp_path) == code


@pytest.mark.parametrize("t", [[-2, -1], [0.7, 1.2], [1, 0], [0, 2]],
                         ids=["wraps_around", "fractional", "lower_triangle", "out_of_range"])
def test_recheck_reads_a_psi_atom_only_as_an_upper_triangle_entry(t, tmp_path):
    """sdp_psi_offdiag (m = 2) stores t = [0, 1]: an entry that is not two
    integers with 0 <= i <= j < m is malformed, exit 3."""
    def edit(cert):
        cert["eq_atoms"][0]["t"] = t
    assert recheck_edited(by_name("sdp_psi_offdiag"), edit, tmp_path) == 3


def scramble_informational(cert):
    """Set every field recheck does not read to a value that would refute
    the certificate if it were read."""
    cert["tolerances"] = {key: -1.0 for key in cert["tolerances"]}
    cert["bound"].update(rhs=-1.0, lhs=1e9, rule="forged", kappa_source="forged")
    cert.update(residual=1e9, detail="FORGED", seed=-1, notes=["forged"], tool_version="0")


VERIFIED_CASES = [c for c in CASES
                  if c["recheck"] is not None and c["exit"] == 0 and expected_text(c)]


@pytest.mark.parametrize("case", VERIFIED_CASES, ids=[c["name"] for c in VERIFIED_CASES])
def test_informational_fields_leave_a_verified_recheck_at_0(case, tmp_path):
    assert recheck_edited(case, scramble_informational, tmp_path) == 0


def forbid_lp(monkeypatch):
    """Replace every varcert binding of lp_solve by one that raises."""
    lp_solve = solvers.lp_solve

    def no_lp(*args, **kwargs):
        raise AssertionError("lp_solve called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "varcert" and getattr(module, "lp_solve", None) is lp_solve:
            monkeypatch.setattr(module, "lp_solve", no_lp)


def test_recheck_solves_no_lp(tmp_path, monkeypatch):
    """With lp_solve raising, recheck reproduces each golden recheck exit code."""
    forbid_lp(monkeypatch)
    with pytest.raises(AssertionError):  # the patch reaches the issuers
        issue(by_name("sip_kappa1"), tmp_path)
    for case in CASES:
        if case["recheck"] is not None:
            assert recheck_edited(case, lambda cert: None, tmp_path) == case["recheck"], case["name"]


NLP_CASES = [c for c in CASES if c["args"] is not None and c["problem"]["kind"] == "nlp"]


@pytest.mark.parametrize("case", NLP_CASES, ids=[c["name"] for c in NLP_CASES])
def test_kkt_and_primal_solve_no_lp(case, tmp_path, monkeypatch):
    """kkt with an asserted kappa and primal read one least-norm fit, which
    solves no LP: both issue at each golden nlp point with lp_solve raising."""
    forbid_lp(monkeypatch)
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(case["problem"]), encoding="utf-8")
    args = case["args"]
    i = next(i for i, arg in enumerate(args) if arg.startswith("--point"))
    point = args[i:i + 1] if "=" in args[i] else args[i:i + 2]
    assert cli.run(["kkt", "-p", str(prob), *point, "--kappa", "1"]) in (0, 1, 2)
    assert cli.run(["primal", "-p", str(prob), *point]) in (0, 1)


def test_cq_solves_no_lp(tmp_path, monkeypatch):
    """Abadie, MSQC and Robinson answer by least squares: with lp_solve
    raising, cq writes the golden nlp_cq_all bytes."""
    forbid_lp(monkeypatch)
    case = by_name("nlp_cq_all")
    assert issue(case, tmp_path) == (case["exit"], expected_text(case), case["recheck"])


@pytest.mark.parametrize("name", ["nlp_kkt_kappa1", "nlp_primal", "sdp_readme", "sdp_psi_kernel2"])
def test_a_one_shot_command_and_its_recheck_compile_no_expression(name, tmp_path, monkeypatch):
    """A kkt, primal or sdp certificate and its recheck use each expression
    fewer than HOT_AFTER times, so every one is walked and none compiled."""
    compiled = []
    monkeypatch.setattr(expr, "_compile", compiled.append)
    case = by_name(name)
    assert issue(case, tmp_path) == (case["exit"], expected_text(case), case["recheck"])
    assert compiled == []


# Each case before the SIP kappa was estimated from strong slopes: the
# sha256 prefix of its certificate bytes, its exit code and its recheck exit
# code.  Only the two estimated-kappa SIP certificates changed, and only in
# kappa and rhs: the penalty-descent distance stopped just short of the set
# and read 9.999989963092e-01 where the slope reads the exact 1.
PARENT = {
    "nlp_kkt_kappa1": ("e2d17cfdf9a2668a", 0, 0),
    "nlp_kkt_estimate": ("2ba774f3e28ab88c", 0, 0),
    "nlp_primal": ("740430dc37d3a8f3", 0, 0),
    "nlp_primal_refuted": ("9413fe755b066fd0", 1, 1),
    "nlp_cq_all": ("e23b86986fdbdc2f", 0, None),
    "nlp_kappa_unavailable": ("a2278cff64cfc03c", 2, 2),
    "nlp_bound_exceeded": ("7291fc061a89a636", 1, 1),
    "nlp_no_multiplier": ("dd7af20c654f6a61", 1, 1),
    "sip_kappa1": ("7c2f4b5f85bfe388", 0, 0),
    "nlp_plq_library": ("409f4a72077ea5e1", None, None),
    "sip_eq": ("44573492953bcb29", 0, 0),
    "sip_kappa_unavailable": ("75b8adbdd72f3aee", 2, 2),
    "sip_bound_exceeded": ("d21e60c204208566", 1, 1),
    "sip_readme_estimate": ("b601a32bd59770f4", 0, 0),
    "sip_two_index_estimate": ("861849ff42e46d51", 0, 0),
    "sdp_readme": ("85ea79e957fdeb6f", 0, 0),
    "sdp_psi_kernel2": ("f8651b8e4006e1c4", 0, 0),
    "sdp_psi_offdiag": ("f81b323eca4cbf67", 0, 0),
    "sdp_kappa_estimate_refused": (None, 3, None),
    "sdp_bound_exceeded": ("de66815d05b612a4", 1, 1),
    "sdp_no_multiplier": ("d736bfc69dc0d72d", 1, 1),
    "random_lp_0": ("c1ebf339661f4989", 0, 0),
    "random_lp_1": ("8ea1de63da6635e0", 0, 0),
    "random_lp_2": ("17f025e045a0b25a", 0, 0),
    "random_lp_3": ("28e402b596e647e7", 0, 0),
    "random_lp_4": ("058acfc3440d76b0", 0, 0),
    "random_lp_5": ("76582e08e1e596d0", 0, 0),
    "random_lp_6": ("ddfc9709b253656a", 0, 0),
    "random_lp_7": ("c02e27d48e73a4c1", 0, 0),
    "random_lp_8": ("1f8313f6f5cd2692", 0, 0),
    "random_lp_9": ("38018ed3f5956a2f", 0, 0),
    "sip_eq_theta_psi": ("e5e2741c55811b2e", 0, 0),
    "sip_eq_theta_psi_grid16": ("e5e2741c55811b2e", 0, 0),
}
# The coderivative criterion (calculus.coderivative_constant) gives c = 1 at
# the README orthant point, where kkt sampled kappa_hat = 1 and cq sampled
# Abadie and MSQC.  Per case, the parent value of each field that changed:
# kkt's kappa is now (1 + 1e-9) / c, its rhs follows, and its source and note
# name the criterion; cq keeps every verdict and MSQC's kappa_hat = 1/c, and
# Abadie and MSQC become exact.  Each report notes the criterion's c.
PARENT_CRITERION = {
    "nlp_kkt_estimate": {"bound": {"rhs": 1.414213562373, "kappa": 1.0,
                                   "kappa_source": "estimated (sampling-confidence)"},
                         "notes": ["msqc_estimate kappa_hat=1"]},
    "nlp_cq_all": {"abadie": {"confidence": "sampling", "notes": []},
                   "msqc": {"confidence": "sampling", "notes": []},
                   "robinson": {"notes": []}},
}
PARENT_KAPPA = {"sip_readme_estimate": 9.999989963092e-01,
                "sip_two_index_estimate": 9.999989963092e-01}

# kkt and primal read one least-norm fit (certify._fit), and every nlp
# verdict carries its witness.  Per case: the fields it gained, and the
# parent value of each field that changed.  The primal VERIFIED stores the
# fit's multiplier; the primal REFUTED keeps its witness (-1, -1) and
# residual 2, the LP's optimum over the box, which the fit's direction
# reaches at max-norm 1; the kkt NO_MULTIPLIER stores that direction too.
PARENT_WITNESS = {
    "nlp_primal": (("multipliers", "generator_weights"),
                   {"notes": ["descent LP optimum 0.000e+00"]}),
    "nlp_primal_refuted": ((), {"notes": ["descent LP optimum -2.000e+00"]}),
    "nlp_no_multiplier": (("descent_witness",), {}),
}

# The floats that the least-norm multiplier (solvers.least_norm_multiplier,
# which replaced the 1-norm LP and its infinity-norm tie-break) moved, with
# their values before it.  Each residual is rounding: it moved by at most
# 3.4e-16, against tol_stat = 1e-7.  The PLQ case's first generator weight was
# 2e-9 of slack that the tie-break LP's optimal-face row allowed; the least
# Euclidean norm puts 0 there, within tol_cone = 1e-8.
PARENT_FLOATS = {
    "random_lp_0": {"residual": 0.0},
    "random_lp_1": {"residual": 0.0},
    "random_lp_2": {"residual": 1.241267076624e-16},
    "random_lp_4": {"residual": 1.110223024625e-16},
    "random_lp_5": {"residual": 1.570092458684e-16},
    "nlp_plq_library": {"residual": 0.0, "multipliers": [1.999999943436e-09, -1.0],
                        "generator_weights": [1.999999943436e-09, 0.0, 0.0, 1.0]},
}
FLOAT_TOL = {"residual": 1e-15, "multipliers": 1e-8, "generator_weights": 1e-8}

# f = (x1, 2 x1), Theta = R^2_-, objective -x1, kappa 0.46.  The 1-norm LP
# returned lambda = (3e-9, 0.5), of norm 0.5 > 0.46: REFUTED (BOUND_EXCEEDED),
# exit 1, recheck exit 1, certificate f39ff90316b0ffbc.  The least-norm
# lambda is (0.2, 0.4), of norm 0.447, and the verdict turns to VERIFIED.
#
# theta = s1*x1 + s2*x2 on [0,1]^2, objective -x1-x2, kappa 2: the LP over the
# 400 grid cells that active_indexes kept gave lambda = 10.5 at s ~ (0.095,
# 0.095), REFUTED (BOUND_EXCEEDED), although lambda = 1 at s = (1, 1) meets the
# bound.  The exchange method prices the whole active grid and finds it.
#
# The three NO_MULTIPLIER cases keep every byte but the note, which read "no
# atomic multiplier after two grid refinements" before the retries at 2x and
# 4x density were deleted.
PARENT_CHANGED = {"nlp_least_norm_multiplier": (("f39ff90316b0ffbc", 1, 1), (0, 0)),
                  "sip_flat_face": (("3bed75f153b582c7", 1, 1), (0, 0)),
                  "sip_no_multiplier": (("ecade3753565c4fd", 1, 1), (1, 1)),
                  "sip_cubic_no_multiplier_estimate": (("ecade3753565c4fd", 1, 1), (1, 1)),
                  "sip_eq_no_multiplier": (("64a57779e736905f", 1, 1), (1, 1))}
PARENT_NOTES = {name: ["no atomic multiplier after two grid refinements"]
                for name in ("sip_no_multiplier", "sip_cubic_no_multiplier_estimate",
                             "sip_eq_no_multiplier")}


def test_corpus_matches_its_parent_outside_the_slope_kappa():
    by_name = {case["name"]: case for case in CASES}
    assert set(by_name) == set(PARENT) | set(PARENT_CHANGED) | set(PARENT_ROTATED)
    for name, ((digest, *_), codes) in PARENT_CHANGED.items():
        case = by_name[name]
        assert (case["exit"], case["recheck"]) == codes, name
        assert hashlib.sha256(expected_text(case).encode("utf-8")).hexdigest()[:16] != digest
        if name in PARENT_NOTES:
            doc = json.loads(expected_text(case))
            assert doc["notes"] == ["no atomic multiplier"], name
            doc["notes"] = PARENT_NOTES[name]
            text = cli.canonical_json(doc)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest, name
    for name, (digest, code, recheck) in PARENT.items():
        case = by_name[name]
        assert (case["exit"], case["recheck"]) == (code, recheck), name
        text = expected_text(case)
        if name in PARENT_KAPPA or name in PARENT_FLOATS or name in PARENT_WITNESS \
                or name in PARENT_CRITERION:
            doc = json.loads(text)
            for field, old in PARENT_CRITERION.get(name, {}).items():
                assert doc[field] != old, name
                if isinstance(old, dict):
                    doc[field].update(old)
                else:
                    doc[field] = old
            gained, changed = PARENT_WITNESS.get(name, ((), {}))
            for field in gained:
                del doc[field]
            for field, old in changed.items():
                assert doc[field] != old, name
                doc[field] = old
            if name in PARENT_KAPPA:
                assert doc["bound"]["kappa"] == doc["bound"]["rhs"] == 1.0
                doc["bound"]["kappa"] = doc["bound"]["rhs"] = PARENT_KAPPA[name]
            for field, old in PARENT_FLOATS.get(name, {}).items():
                assert np.allclose(doc[field], old, rtol=0.0, atol=FLOAT_TOL[field]), name
                doc[field] = old
            text = cli.canonical_json(doc)
        got = None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert got == digest, name


# Every other sdp case has a diagonal Phi(xbar), so these two read a
# non-trivial eigenvector: Phi(0) = Q diag(0, -1, -2) Q^T (kernel dimension 1)
# and Q diag(0, 0, -1) Q^T (dimension 2) for a rational rotation Q.  Each one's
# sha256 prefix with the cyclic Jacobi eigh, and the fields that LAPACK's eigh
# changed.  Dimension 1 keeps its atom to all 13 digits; only the rounding in
# the complementarity note moved.  Dimension 2 gets another basis of the
# kernel, hence other atoms and weights, while the status, the detail,
# bound.lhs (the weights still sum to 3) and the recheck exit stay.
PARENT_ROTATED = {
    "sdp_rotated_kernel1": ("9b1fa995aa26d3ce", 1, {
        "residual": 0.0,
        "notes": ["kernel tolerance 3.00e-07",
                  "complementarity max lambda*<s,Phi s> = 7.49e-18"]}),
    "sdp_rotated_kernel2": ("03301b155b71fd99", 2, {
        "atoms": [{"s": [0.03347605167823, 0.1778727522007, 0.9834839286885],
                   "lambda": 2.156289072268},
                  {"s": [0.982746955909, -0.1849551855222, 0.0],
                   "lambda": 0.8437109277319}],
        "residual": 1.387778780781e-17,
        "notes": ["kernel tolerance 2.00e-07",
                  "complementarity max lambda*<s,Phi s> = 7.81e-18"]}),
}


def test_rotated_kernel_cases_match_their_parent_up_to_the_kernel_basis():
    by_name = {case["name"]: case for case in CASES}
    for name, (digest, kdim, parent) in PARENT_ROTATED.items():
        case = by_name[name]
        assert (case["exit"], case["recheck"]) == (0, 0), name
        doc = json.loads(expected_text(case))
        old = parent.get("atoms", doc["atoms"])
        # the atoms span the same kernel, and their weights sum to bound.lhs
        atoms = np.array([a["s"] for a in old + doc["atoms"]])
        assert np.linalg.svd(atoms, compute_uv=False)[kdim:].max(initial=0.0) < 1e-12, name
        assert sum(a["lambda"] for a in doc["atoms"]) == pytest.approx(doc["bound"]["lhs"], abs=1e-12)
        # both residuals are rounding, far below tol_stat = 1e-7
        assert max(doc["residual"], parent["residual"]) <= 1e-15, name
        doc.update(parent)
        text = cli.canonical_json(doc)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest, name


def regenerate():
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            case["exit"], text, case["recheck"] = issue(case, Path(tmp))
        path = GOLDEN / f"{case['name']}.json"
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text, encoding="utf-8")
    with open(GOLDEN / "cases.json", "w", encoding="utf-8") as fh:
        json.dump(CASES, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
