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
import tempfile
from pathlib import Path

import numpy as np
import pytest

from varcert import cli
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


def test_recheck_refutes_sdp_atom_off_the_unit_sphere(tmp_path):
    """Tampering the sdp_readme atom to s = [2, 0] makes recheck exit 1
    (REFUTED), not 3: the unit check settles it before the residual."""
    case = next(c for c in CASES if c["name"] == "sdp_readme")
    cert = json.loads(expected_text(case))
    cert["atoms"][0]["s"] = [2.0, 0.0]
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    prob.write_text(json.dumps(case["problem"]), encoding="utf-8")
    out.write_text(json.dumps(cert), encoding="utf-8")
    assert cli.run(["recheck", "-p", str(prob), "-c", str(out)]) == 1


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
    "sip_no_multiplier": ("ecade3753565c4fd", 1, 1),
    "sip_readme_estimate": ("b601a32bd59770f4", 0, 0),
    "sip_two_index_estimate": ("861849ff42e46d51", 0, 0),
    "sip_cubic_no_multiplier_estimate": ("ecade3753565c4fd", 1, 1),
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
    "sip_eq_no_multiplier": ("64a57779e736905f", 1, 1),
}
PARENT_KAPPA = {"sip_readme_estimate": 9.999989963092e-01,
                "sip_two_index_estimate": 9.999989963092e-01}


def test_corpus_matches_its_parent_outside_the_slope_kappa():
    by_name = {case["name"]: case for case in CASES}
    for name, (digest, code, recheck) in PARENT.items():
        case = by_name[name]
        assert (case["exit"], case["recheck"]) == (code, recheck), name
        text = expected_text(case)
        if name in PARENT_KAPPA:
            doc = json.loads(text)
            assert doc["bound"]["kappa"] == doc["bound"]["rhs"] == 1.0
            doc["bound"]["kappa"] = doc["bound"]["rhs"] = PARENT_KAPPA[name]
            text = cli.canonical_json(doc)
        got = None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert got == digest, name


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
