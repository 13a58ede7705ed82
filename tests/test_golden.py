"""Golden certificate corpus: every case is reissued and compared byte for byte.

``golden/cases.json`` lists each case: a problem file, the CLI arguments
that issue its certificate, the exit code of that call and the exit code of
``recheck`` on the result.  ``golden/<name>.json`` holds the certificate
bytes; a case that writes no certificate has no such file.  Run this file as
a script to rewrite the expected outputs after an intended change:

    PYTHONPATH=src python tests/test_golden.py
"""

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
