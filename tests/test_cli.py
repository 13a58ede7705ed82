import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from varcert import calculus, certify, cli


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def orthant_doc():
    return {
        "kind": "nlp",
        "n": 2,
        "objective": "-x1 - x2",
        "constraints": {
            "f": ["x1", "x2"],
            "Theta": {"A_ineq": [[1.0, 0.0], [0.0, 1.0]], "b_ineq": [0.0, 0.0]},
        },
    }


def linear_sip_doc():
    return {
        "kind": "sip",
        "n": 1,
        "objective": "-x1",
        "constraints": {"theta": "s1*x1", "S": [[0.0, 1.0]]},
    }


def sdp_doc():
    return {
        "kind": "sdp",
        "n": 1,
        "objective": "-x1",
        "constraints": {"Phi": [["x1", "0"], [None, "-1"]]},
    }


def test_kkt_end_to_end(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "cert.json")
    code = cli.run(["kkt", "-p", prob, "--point", "0,0", "--kappa", "1", "--out", out])
    assert code == 0
    cert = json.loads(open(out).read())
    assert cert["status"] == "VERIFIED"
    assert np.allclose(cert["multipliers"], [1.0, 1.0])
    assert cert["tool_version"]
    # round trip
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def test_kkt_no_multiplier_exit_code(tmp_path):
    doc = orthant_doc()
    doc["objective"] = "x1 + x2"
    prob = write_problem(tmp_path, doc)
    out = str(tmp_path / "cert.json")
    code = cli.run(["kkt", "-p", prob, "--point", "0,0", "--kappa", "1", "--out", out])
    assert code == 1
    cert = json.loads(open(out).read())
    assert cert["detail"] == "NO_MULTIPLIER"
    # no stored multiplier reads as the empty combination, which leaves the
    # whole gradient as residual: recheck reproduces REFUTED
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 1


def test_sip_end_to_end(tmp_path):
    prob = write_problem(tmp_path, linear_sip_doc())
    out = str(tmp_path / "cert.json")
    code = cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1", "--out", out])
    assert code == 0
    cert = json.loads(open(out).read())
    assert cert["status"] == "VERIFIED"
    assert len(cert["atoms"]) == 1
    assert cert["atoms"][0]["s"][0] == pytest.approx(1.0)
    assert cert["atoms"][0]["lambda"] == pytest.approx(1.0)
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def test_sdp_end_to_end(tmp_path):
    prob = write_problem(tmp_path, sdp_doc())
    out = str(tmp_path / "cert.json")
    code = cli.run(["sdp", "-p", prob, "--point", "0", "--kappa", "1", "--out", out])
    assert code == 0
    cert = json.loads(open(out).read())
    assert cert["status"] == "VERIFIED"
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def test_negative_first_coordinate_as_separate_value(tmp_path):
    doc = orthant_doc()
    doc["objective"] = "-x2"
    prob = write_problem(tmp_path, doc)
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "-1,0", "--kappa", "1",
                    "--out", out]) == 0
    assert json.loads(open(out).read())["point"] == [-1.0, 0.0]
    sd = str(tmp_path / "sd.json")
    assert cli.run(["subderiv", "-p", prob, "--point", "-1,0",
                    "--direction", "-1,1", "--out", sd]) == 0
    assert json.loads(open(sd).read())["analytic"] == pytest.approx(-1.0)
    assert cli.run(["kkt", "-p", prob, "--kappa", "1", "--point"]) == 3


def test_malformed_json_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.run(["kkt", "-p", str(bad), "--point", "0,0"]) == 3


def test_dimension_mismatch_exit_3(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    assert cli.run(["kkt", "-p", prob, "--point", "0"]) == 3


def test_recheck_detects_tampering(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "0,0", "--kappa", "1",
                    "--out", out]) == 0
    cert = json.loads(open(out).read())
    cert["multipliers"] = [2.0, 2.0]
    cert["generator_weights"] = [2.0, 2.0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert), encoding="utf-8")
    assert cli.run(["recheck", "-p", prob, "-c", str(tampered)]) == 1


def test_recheck_replays_the_nlp_checks_for_a_kind_no_command_issues(tmp_path, capsys):
    """A kkt certificate relabelled "ExactPenalty", VERIFIED at a feasible point
    that is not stationary and stripped of its multipliers, is no primal
    certificate: recheck runs the nlp checks on it and refutes it."""
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "0,0", "--kappa", "1",
                    "--out", out]) == 0
    cert = json.loads(open(out).read())
    cert.update(kind="ExactPenalty", status="VERIFIED", point=[-5, -3])
    del cert["multipliers"], cert["generator_weights"]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert cli.run(["recheck", "-p", prob, "-c", str(forged)]) == 1
    err = capsys.readouterr().err
    assert "recheck failure: RESIDUAL" in err and "Traceback" not in err


def test_recheck_refutes_a_forged_primal_verified(tmp_path, capsys):
    """The README kkt certificate relabelled Primal, VERIFIED at the feasible
    point (-5, -3), where -x1 - x2 descends along (-1, -1), and stripped of
    its multipliers: a Primal VERIFIED replays its multiplier through the
    nlp checks, so the empty one leaves the whole gradient as residual."""
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "0,0", "--kappa", "1",
                    "--out", out]) == 0
    cert = json.loads(open(out).read())
    cert.update(kind="Primal", status="VERIFIED", point=[-5, -3])
    del cert["multipliers"], cert["generator_weights"]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert cli.run(["recheck", "-p", prob, "-c", str(forged)]) == 1
    err = capsys.readouterr().err
    assert "recheck failure: RESIDUAL" in err and "Traceback" not in err


def test_no_multiplier_runs_no_kappa_estimate(tmp_path, monkeypatch):
    """kappa is resolved after the fit: with both estimators raising, the nlp
    and sip NO_MULTIPLIER cases still issue REFUTED at --kappa estimate."""
    from varcert import calculus, sip

    def no_estimate(*args, **kwargs):
        raise AssertionError("kappa estimated")

    monkeypatch.setattr(calculus, "msqc_estimate", no_estimate)
    monkeypatch.setattr(sip, "sip_kappa_estimate", no_estimate)
    doc = orthant_doc()
    doc["objective"] = "x1 + x2"
    sip_doc = linear_sip_doc()
    sip_doc["constraints"]["theta"] = "(s1 - 0.5)*x1^3"
    for command, problem in (("kkt", doc), ("sip", sip_doc)):
        prob, out = write_problem(tmp_path, problem), tmp_path / f"{command}.json"
        point = ",".join(["0"] * problem["n"])
        assert cli.run([command, "-p", prob, "--point", point, "--kappa", "estimate",
                        "--out", str(out)]) == 1
        assert json.loads(out.read_text())["detail"] == "NO_MULTIPLIER"


def test_sip_grid_reaches_the_psi_feasibility_sup(tmp_path, capsys):
    """psi(0, 0.5) = 1, a bump 1e-4 wide that the 33-grid hits at t = 16/32
    and the default 64-grid misses: --grid 33 must find the point infeasible."""
    prob = write_problem(tmp_path, {
        "kind": "sip", "n": 1, "objective": "x1^2",
        "constraints": {"psi": "x1 + exp(0 - ((t1 - 0.5)/0.0001)^2)", "T": [[0.0, 1.0]]}})
    assert cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1", "--grid", "33"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("infeasible point: ") and "Traceback" not in err


def test_undefined_psi_cells_rank_last_for_both_signs(tmp_path, capsys):
    """psi is undefined on t < 0.5 and -1 on t >= 0.5 at x = 0: the sup of
    -psi must climb from a defined cell, not from an undefined one, and find
    the point infeasible."""
    prob = write_problem(tmp_path, {
        "kind": "sip", "n": 1, "objective": "x1^2",
        "constraints": {"psi": "x1 - 1 + 0*sqrt(t1 - 0.5)", "T": [[0.0, 1.0]]}})
    assert cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("infeasible point: ") and "Traceback" not in err


def test_undefined_psi_cells_are_no_start_when_psi_is_not_flat(tmp_path, capsys):
    """psi is undefined on t < 0.5; where defined, each sign of it has one
    local maximum on the grid (t near 0.505 for +psi, t = 1 for -psi): the
    other starts of each sign are not taken from the undefined cells."""
    prob = write_problem(tmp_path, {
        "kind": "sip", "n": 1, "objective": "x1^2",
        "constraints": {"psi": "x1 - 1 - 0.1*(t1 - 0.505)^2 + 0*sqrt(t1 - 0.5)",
                        "T": [[0.0, 1.0]]}})
    for point in ("0", "1"):
        assert cli.run(["sip", "-p", prob, "--point", point, "--kappa", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("infeasible point: ") and "Traceback" not in err


def test_undefined_theta_cells_are_no_start_beside_an_isolated_peak(tmp_path, capsys):
    """theta is undefined on s < 0.5 and has one peak, at s = 0.8: the sup
    climbs it once and polishes from no undefined cell, so x = 1 is
    infeasible and x = 0 is certified."""
    prob = write_problem(tmp_path, {
        "kind": "sip", "n": 1, "objective": "x1^2",
        "constraints": {"theta": "x1 - (s1 - 0.8)^2 + 0*sqrt(s1 - 0.5)",
                        "S": [[0.0, 1.0]]}})
    assert cli.run(["sip", "-p", prob, "--point", "1", "--kappa", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("infeasible point: ") and "Traceback" not in err
    assert cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1"]) == 0


def test_undefined_psi_cells_give_no_columns(tmp_path, capsys):
    """psi = x1 - 1 is feasible at x = 1 where defined (t >= 0.5 or 0.51):
    a cell where psi is undefined, or at the edge where its derivative is,
    is never near-active, so it gives no column, and the point is certified
    with mu = -2 at one t."""
    for edge in ("0.5", "0.51"):
        prob = write_problem(tmp_path, {
            "kind": "sip", "n": 1, "objective": "x1^2",
            "constraints": {"psi": f"x1 - 1 + 0*sqrt(t1 - {edge})", "T": [[0.0, 1.0]]}})
        assert cli.run(["sip", "-p", prob, "--point", "1", "--kappa", "1"]) == 0
        err = capsys.readouterr().err
        first = err.splitlines()[0]
        assert first.startswith("SIP-EQ: VERIFIED ") and first.endswith(" bound 2 <= 4")
        assert "Traceback" not in err


def test_the_sup_stops_at_an_edge_of_the_domain(tmp_path, capsys):
    """The maximizer of each sup below lies at s = 0.5 or t = 0.5, where
    sqrt(s1 - 0.5) stops being defined: the polish stays on the defined side
    and stops where the derivative is undefined, so the verdicts are those
    of the sup's value, not an error."""
    def run(constraints, point):
        prob = write_problem(tmp_path, {"kind": "sip", "n": 1, "objective": "x1^2",
                                        "constraints": constraints})
        code = cli.run(["sip", "-p", prob, "--point", point, "--kappa", "1"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    theta = {"theta": "x1 - 1 - 0.1*s1 + 0*sqrt(s1 - 0.5)", "S": [[0.0, 1.0]]}
    code, err = run(theta, "0")
    assert code == 0 and err.startswith("SIP: VERIFIED")
    code, err = run(theta, "2")
    assert code == 1 and err.startswith("infeasible point: ")
    for sign in ("+", "-"):
        code, err = run({"psi": f"x1 - 1 {sign} 0.1*t1 + 0*sqrt(t1 - 0.5)",
                         "T": [[0.0, 1.0]]}, "0")
        assert code == 1 and err.startswith("infeasible point: ")


def test_recheck_wrong_problem_exit_3(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "0,0", "--kappa", "1",
                    "--out", out]) == 0
    other = {
        "kind": "nlp",
        "n": 3,
        "objective": "-x1 - x2 - x3",
        "constraints": {"f": ["x1", "x2", "x3"],
                        "Theta": {"A_ineq": [[1.0, 0.0, 0.0]], "b_ineq": [0.0]}},
    }
    prob3 = write_problem(tmp_path, other, "other.json")
    assert cli.run(["recheck", "-p", prob3, "-c", out]) == 3


def test_certificates_are_byte_identical(tmp_path):
    prob = write_problem(tmp_path, linear_sip_doc())
    out1 = str(tmp_path / "c1.json")
    out2 = str(tmp_path / "c2.json")
    assert cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1",
                    "--seed", "42", "--out", out1]) == 0
    assert cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1",
                    "--seed", "42", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_float_formatting_is_fixed(tmp_path):
    text = cli.canonical_json({"a": 1.0, "b": [0.5, 2]})
    assert text == '{"a":1.000000000000e+00,"b":[5.000000000000e-01,2]}\n'


def test_primal_and_cq_commands(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    assert cli.run(["primal", "-p", prob, "--point", "0,0", "--out",
                    str(tmp_path / "p.json")]) == 0
    code = cli.run(["cq", "-p", prob, "--point", "0,0", "--which", "robinson",
                    "--out", str(tmp_path / "cq.json")])
    assert code == 0
    rep = json.loads(open(tmp_path / "cq.json").read())
    assert rep["robinson"]["verdict"] == "VERIFIED"


def test_cq_has_no_radius_option(tmp_path, capsys):
    """The MSQC sampler's radius and sample count are the library's defaults:
    ``cq --radius`` is a usage error, exit 3, with no traceback."""
    prob = write_problem(tmp_path, orthant_doc())
    assert cli.run(["cq", "-p", prob, "--point", "0,0", "--radius", "0.3"]) == 3
    err = capsys.readouterr().err
    assert "unrecognized arguments: --radius 0.3" in err and "Traceback" not in err


def test_subderiv_command(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "sd.json")
    assert cli.run(["subderiv", "-p", prob, "--point", "1,1",
                    "--direction", "1,0", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["analytic"] == pytest.approx(-1.0)
    assert rep["sampled"] == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("direction", ["-1", "1"])
def test_subderiv_at_a_kink_has_no_analytic_value(direction, tmp_path):
    """abs(x1) at 0: the gradient there is one branch's, so there is no
    analytic value; the sampled one is 1 in either direction."""
    prob = write_problem(tmp_path, {"kind": "nlp", "n": 1, "objective": "abs(x1)",
                                    "constraints": {"f": ["x1"],
                                                    "Theta": {"A_ineq": [[1]], "b_ineq": [1]}}})
    out = str(tmp_path / "sd.json")
    assert cli.run(["subderiv", "-p", prob, "--point", "0",
                    "--direction", direction, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["analytic"] is None and rep["sampled"] == pytest.approx(1.0, abs=1e-9)


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "varcert.cli"],
                          capture_output=True, text=True)
    # argparse reports missing subcommand as a usage error
    assert proc.returncode == 3 or "usage" in proc.stderr


@pytest.mark.parametrize("preset, expected", [(None, ["1", "1", "1"]), ("3", ["3", "1", "1"])])
def test_cli_pins_blas_threads_unless_set(preset, expected):
    """Loading the CLI sets one BLAS thread before numpy loads; a value the
    user set stays."""
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    # prints the variables as they are when numpy starts to load
    code = ("import os, sys\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy':\n"
            f"        print(*(os.environ.get(v) for v in {names!r}))\n"
            "sys.addaudithook(hook)\n"
            "import varcert.cli\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == expected


def test_console_invocation_smoke(tmp_path):
    prob = write_problem(tmp_path, linear_sip_doc())
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from varcert.cli import run; sys.exit(run(sys.argv[1:]))",
         "sip", "-p", prob, "--point", "0", "--kappa", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["status"] == "VERIFIED"
    assert "SIP: VERIFIED" in proc.stderr


def test_primal_certificate_roundtrip(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "p.json")
    assert cli.run(["primal", "-p", prob, "--point", "0,0", "--out", out]) == 0
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0
    doc = orthant_doc()
    doc["objective"] = "x1 + x2"
    prob2 = write_problem(tmp_path, doc, "ascent.json")
    out2 = str(tmp_path / "p2.json")
    assert cli.run(["primal", "-p", prob2, "--point", "0,0", "--out", out2]) == 1
    assert cli.run(["recheck", "-p", prob2, "-c", out2]) == 1


def test_recheck_malformed_certificate_exit_3(tmp_path):
    prob = write_problem(tmp_path, linear_sip_doc())
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "kind": "SIP", "status": "VERIFIED", "problem_kind": "sip",
        "point": [0.0], "atoms": [{"s": "oops"}],
    }), encoding="utf-8")
    assert cli.run(["recheck", "-p", prob, "-c", str(broken)]) == 3


@pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
def test_recheck_certificate_not_an_object_exit_3(text, tmp_path, capsys):
    prob = write_problem(tmp_path, linear_sip_doc())
    cert = tmp_path / "cert.json"
    cert.write_text(text, encoding="utf-8")
    assert cli.run(["recheck", "-p", prob, "-c", str(cert)]) == 3
    assert capsys.readouterr().err == "error: certificate file must hold a JSON object\n"


def test_kkt_with_estimated_kappa(tmp_path):
    prob = write_problem(tmp_path, orthant_doc())
    out = str(tmp_path / "cert.json")
    code = cli.run(["kkt", "-p", prob, "--point", "0,0", "--out", out])
    assert code == 0
    cert = json.loads(open(out).read())
    assert cert["bound"]["kappa_source"] == certify.KAPPA_COMPUTED
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def thin_wedge_doc():
    """Theta = {y1 <= 0, -y1 + 0.01*y2 <= 0}, a wedge whose rows are nearly
    parallel; an alternating-projection scheme stalls on it."""
    return {
        "kind": "nlp",
        "n": 2,
        "objective": "-0.01*x2",
        "constraints": {
            "f": ["x1", "x2"],
            "Theta": {"A_ineq": [[1, 0], [-1, 0.01]], "b_ineq": [0, 0]},
        },
    }


def test_thin_wedge_estimated_kappa_and_cq(tmp_path):
    prob = write_problem(tmp_path, thin_wedge_doc())
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "0,0", "--out", out]) == 0
    cert = json.loads(open(out).read())
    assert cert["status"] == "VERIFIED"
    assert cert["bound"]["kappa_source"] == certify.KAPPA_COMPUTED
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0
    assert cli.run(["cq", "-p", prob, "--point", "0,0", "--which", "all"]) == 0


def slab_doc():
    """Theta = {a.y <= 1, -a.y <= -1 - 1e-9}, a = (0.6, 0.8): nonempty only within tol_feas."""
    return {"kind": "nlp", "n": 2, "objective": "-0.6*x1 - 0.8*x2",
            "constraints": {"f": ["x1", "x2"],
                            "Theta": {"A_ineq": [[0.6, 0.8], [-0.6, -0.8]],
                                      "b_ineq": [1, -1.000000001]}}}


def test_a_slab_empty_within_rounding_exits_4_where_it_projects(tmp_path, capsys):
    """Estimating kappa and cq project onto Theta, which has no point: exit 4
    with a numerical error line, not a kappa_hat read from a bogus projection.
    kkt with an asserted kappa and primal project nothing: exit 0."""
    prob = write_problem(tmp_path, slab_doc())
    for args in (["kkt", "--kappa", "estimate"], ["cq", "--which", "all"]):
        capsys.readouterr()
        assert cli.run([*args, "-p", prob, "--point", "0.6,0.8"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "Traceback" not in err
    for args in (["kkt", "--kappa", "1"], ["primal"]):
        assert cli.run([*args, "-p", prob, "--point", "0.6,0.8"]) == 0


def test_point_outside_a_component_domain_is_infeasible(tmp_path, capsys):
    """f1 = log(x1) is NaN at x1 = -1; the image is not in Theta, so kkt
    reports an infeasible point (exit 1) instead of a domain error."""
    doc = {"kind": "nlp", "n": 2, "objective": "x1",
           "constraints": {"f": ["log(x1)", "x2"],
                           "Theta": {"A_ineq": [[0, 1]], "b_ineq": [0]}}}
    prob = write_problem(tmp_path, doc)
    assert cli.run(["kkt", "-p", prob, "--point", "-1,0", "--kappa", "1"]) == 1
    assert capsys.readouterr().err.startswith("infeasible point")


def log_slab_doc():
    """f = (log(x1), x2, x2) into {y1 <= 0, y2 <= 0, y3 >= 0}: the normals e2
    and -e3 cancel under J^T, so c = 0, and kappa and cq are sampled."""
    return {"kind": "nlp", "n": 2, "objective": "-x2",
            "constraints": {"f": ["log(x1)", "x2", "x2"],
                            "Theta": {"A_ineq": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                                      "b_ineq": [0, 0, 0]}}}


def test_estimated_kappa_skips_samples_outside_a_component_domain(tmp_path):
    """f1 = log(x1) at x1 = 0.3: the radius-0.5 ratio samples reach x1 <= 0,
    where f is undefined; they are skipped, not projected."""
    doc = log_slab_doc()
    prob = write_problem(tmp_path, doc)
    out = str(tmp_path / "cert.json")
    assert cli.run(["kkt", "-p", prob, "--point", "0.3,0", "--out", out]) == 0
    assert json.loads(open(out).read())["bound"]["kappa"] == pytest.approx(1.0)
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def equality_box_doc(T):
    """The sip fixture with theta = x2 - s1 and psi = t1*...*tk*x1 over T."""
    psi = "*".join(f"t{i + 1}" for i in range(len(T))) + "*x1"
    return {"kind": "sip", "n": 2, "objective": "x1^2 - x2",
            "constraints": {"theta": "x2 - s1", "S": [[0, 1]], "psi": psi, "T": T}}


def test_sip_theta_psi_estimated_kappa_is_exact(tmp_path):
    """theta = x2 - s1 and psi = t1*x1: the feasible set is {x1 = 0, x2 <= 0}
    and the violation hypot(x2^+, |x1|) is the distance to it, so kappa = 1."""
    prob = write_problem(tmp_path, {
        "kind": "sip", "n": 2, "objective": "x1^2 - x2",
        "constraints": {"theta": "x2 - s1", "S": [[0, 1]], "psi": "t1*x1", "T": [[0, 1]]}})
    out = str(tmp_path / "cert.json")
    start = time.perf_counter()
    code = cli.run(["sip", "-p", prob, "--point", "0,0", "--kappa", "estimate", "--out", out])
    elapsed = time.perf_counter() - start
    cert = json.loads(open(out).read())
    assert (code, cert["status"]) == (0, "VERIFIED")
    assert cert["bound"]["kappa"] == pytest.approx(1.0, abs=1e-6)
    assert elapsed < 2.0
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def test_sip_keeps_an_active_peak_between_grid_nodes(tmp_path):
    """The sharp peak at s = (0.5, 0.5) lies between the nodes of the
    8-grid, where the nearest cell has theta = -0.026; the polished argmax
    of the sup carries lambda = 1."""
    prob = write_problem(tmp_path, {
        "kind": "sip", "n": 1, "objective": "-x1",
        "constraints": {"theta": "x1 - (s1 - 0.5)^2 - 4*(s2 - 0.5)^2", "S": [[0, 1], [0, 1]]}})
    out = str(tmp_path / "cert.json")
    code = cli.run(["sip", "-p", prob, "--point", "0", "--kappa", "1", "--grid", "8", "--out", out])
    cert = json.loads(open(out).read())
    assert (code, cert["status"]) == (0, "VERIFIED")
    (atom,) = cert["atoms"]
    assert atom["s"] == pytest.approx([0.5, 0.5], abs=1e-6)
    assert atom["lambda"] == pytest.approx(1.0)
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def test_three_dimensional_equality_box_verifies(tmp_path):
    """A 3-D T box gets the 16-per-axis default grid (4,096 points, not
    33^3), and no LP builds a dense variables x columns matrix."""
    prob = write_problem(tmp_path, equality_box_doc([[0, 1], [0, 1], [0, 1]]))
    out = str(tmp_path / "cert.json")
    tracemalloc.start()
    try:
        code = cli.run(["sip", "-p", prob, "--point", "0,0", "--kappa", "1", "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 100e6
    cert = json.loads(open(out).read())
    assert cert["status"] == "VERIFIED" and cert["bound"]["rule"] == "2*kappa*||grad objective||"
    assert cli.run(["recheck", "-p", prob, "-c", out]) == 0


def test_bad_sip_input_exits_3_with_an_error_line(tmp_path, capsys):
    """--grid below 1, an index grid of more than 2**20 points (--grid 100000
    on a 2-D box, or the default 16 per axis on a 6-D one), a malformed or
    non-numeric index box bound and a non-numeric point in the problem file:
    exit 3 and an error line.  The grid is refused before it is allocated."""
    cases = [(equality_box_doc([[0, 1]]), ["--grid", grid]) for grid in ("-5", "0")]
    for k, args in ((2, ["--grid", "100000"]), (6, [])):
        doc = equality_box_doc([[0, 1]])
        doc["constraints"]["S"] = [[0, 1]] * k
        cases.append((doc, args))
    for key, box in (("S", [[0]]), ("S", [[0, "a"]]), ("T", [[None, 1]]), ("T", 5)):
        doc = equality_box_doc([[0, 1]])
        doc["constraints"][key] = box
        cases.append((doc, []))
    doc = equality_box_doc([[0, 1]])
    doc["point"] = ["a", 0]
    cases.append((doc, []))
    for doc, args in cases:
        prob = write_problem(tmp_path, doc)
        point = [] if "point" in doc else ["--point", "0,0"]
        assert cli.run(["sip", "-p", prob, "--kappa", "1", *point, *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


NON_FINITE = [
    ("kappa_negative", linear_sip_doc(), ["--point", "0", "--kappa", "-1"]),
    ("kappa_nan", linear_sip_doc(), ["--point", "0", "--kappa", "nan"]),
    ("kappa_inf", linear_sip_doc(), ["--point", "0", "--kappa", "inf"]),
    ("kappa_in_file", dict(linear_sip_doc(), kappa=-1.0), ["--point", "0"]),
    ("S_nan", {**linear_sip_doc(), "constraints": {"theta": "s1*x1", "S": [[0.0, float("nan")]]}},
     ["--point", "0", "--kappa", "1"]),
    ("S_inf", {**linear_sip_doc(), "constraints": {"theta": "s1*x1", "S": [[0.0, float("inf")]]}},
     ["--point", "0", "--kappa", "1"]),
    ("point_nan", linear_sip_doc(), ["--point", "nan", "--kappa", "1"]),
    ("point_in_file_inf", dict(linear_sip_doc(), point=[float("inf")]), ["--kappa", "1"]),
    # an integer with no float: json reads 10**400 back as an int
    ("point_huge_int", dict(linear_sip_doc(), point=[10 ** 400]), ["--kappa", "1"]),
    ("kappa_huge_int", dict(linear_sip_doc(), kappa=10 ** 400), ["--point", "0"]),
    ("S_huge_int", {**linear_sip_doc(), "constraints": {"theta": "s1*x1", "S": [[0, 10 ** 400]]}},
     ["--point", "0", "--kappa", "1"]),
    ("A_ineq_nan", {**orthant_doc(), "constraints": {"f": ["x1", "x2"], "Theta": {
        "A_ineq": [[float("nan"), 0.0], [0.0, 1.0]], "b_ineq": [0.0, 0.0]}}},
     ["--point", "0,0", "--kappa", "1"]),
    ("b_ineq_inf", {**orthant_doc(), "constraints": {"f": ["x1", "x2"], "Theta": {
        "A_ineq": [[1.0, 0.0], [0.0, 1.0]], "b_ineq": [0.0, float("inf")]}}},
     ["--point", "0,0", "--kappa", "1"]),
    ("b_eq_nan", {**orthant_doc(), "constraints": {"f": ["x1", "x2"], "Theta": {
        "A_eq": [[1.0, 0.0]], "b_eq": [float("nan")]}}}, ["--point", "0,0", "--kappa", "1"]),
]


@pytest.mark.parametrize("doc, args", [case[1:] for case in NON_FINITE],
                         ids=[case[0] for case in NON_FINITE])
def test_non_finite_or_negative_input_exits_3_with_an_error_line(doc, args, tmp_path, capsys,
                                                                 monkeypatch):
    """A kappa that is not finite and >= 0 (the rule recheck applies), an
    index box bound, a point coordinate or a Theta entry that is not a
    finite number: exit 3 and an error line, before any certificate work."""
    def no_work(*args, **kwargs):
        raise AssertionError("certificate work started")

    monkeypatch.setattr(cli.sip_mod, "certify", no_work)
    monkeypatch.setattr(cli.certify, "dual_certificate", no_work)
    prob = write_problem(tmp_path, doc)
    command = "sip" if doc["kind"] == "sip" else "kkt"
    assert cli.run([command, "-p", prob, *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    prob = write_problem(tmp_path, orthant_doc())
    commands = [["kkt", "-p", prob, "--point", "0,0", "--kappa", "1"],
                ["cq", "-p", prob, "--point", "0,0", "--which", "all"]]
    fresh = []
    for argv in commands:  # a parser of its own for each command, as before
        cli._parser.cache_clear()
        fresh.append((cli.run(argv), capsys.readouterr()))
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert [(cli.run(argv), capsys.readouterr()) for argv in commands] == fresh
    assert len(built) == 1


def test_a_derivative_that_underflows_exits_3_with_an_error_line(tmp_path, capsys):
    """1/x1 at x1 = 1e-170: the x1*x1 of its derivative underflows to 0, in
    the objective gradient and in the constraint Jacobian alike."""
    for objective, f in (("1/x1", "x1"), ("x1", "1/x1")):
        doc = {"kind": "nlp", "n": 1, "objective": objective,
               "constraints": {"f": [f], "Theta": {"A_ineq": [[-1]], "b_ineq": [0]}}}
        prob = write_problem(tmp_path, doc)
        assert cli.run(["kkt", "-p", prob, "--point", "1e-170", "--kappa", "1"]) == 3
        assert capsys.readouterr().err == "error: derivative overflow\n"


def one_constraint_doc(f):
    return {"kind": "nlp", "n": 1, "objective": "-x1",
            "constraints": {"f": [f], "Theta": {"A_ineq": [[1]], "b_ineq": [0]}}}


def test_a_chain_of_201_terms_exits_3_with_an_error_line(tmp_path, capsys):
    """x1+x1+...+x1 nests its closure source one bracket per term, and CPython
    compiles at most 200: 200 terms certify, 201 are a syntax error."""
    prob = write_problem(tmp_path, one_constraint_doc("+".join(["x1"] * 200)))
    assert cli.run(["kkt", "-p", prob, "--point", "0", "--kappa", "1"]) == 0
    capsys.readouterr()
    prob = write_problem(tmp_path, one_constraint_doc("+".join(["x1"] * 201)))
    assert cli.run(["kkt", "-p", prob, "--point", "0", "--kappa", "1"]) == 3
    assert capsys.readouterr().err == ("error: constraint expression error: "
                                       "syntax error at position 0: expression nested too deeply\n")


def test_300_nested_parentheses_exit_3_with_an_error_line(tmp_path, capsys):
    """The recursive-descent parser runs out of stack inside 300 parentheses;
    150 parse."""
    prob = write_problem(tmp_path, one_constraint_doc("(" * 150 + "x1" + ")" * 150))
    assert cli.run(["kkt", "-p", prob, "--point", "0", "--kappa", "1"]) == 0
    capsys.readouterr()
    prob = write_problem(tmp_path, one_constraint_doc("(" * 300 + "x1" + ")" * 300))
    assert cli.run(["kkt", "-p", prob, "--point", "0", "--kappa", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: constraint expression error: syntax error at position ")
    assert err.endswith(": expression nested too deeply\n")


def test_cq_skips_samples_outside_a_component_domain(tmp_path):
    """f1 = log(x1) at x1 = 0.1: derivability samples reach x1 <= 0, where f
    is undefined; they are skipped and counted, not projected.  c = 0 here
    (Robinson fails), so Abadie is sampled."""
    prob = write_problem(tmp_path, log_slab_doc())
    out = str(tmp_path / "cq.json")
    assert cli.run(["cq", "-p", prob, "--point", "0.1,0", "--which", "abadie", "--out", out]) == 0
    notes = json.loads(open(out).read())["abadie"]["notes"]
    assert any(note.endswith("samples outside dom f skipped") for note in notes)


def test_cq_at_a_log_component_decides_by_the_criterion(tmp_path, capsys):
    """f = (log(x1), x2) into the orthant at (0.1, 0): J is regular there, so
    the coderivative criterion decides all three reports exactly, and no
    sample reaches x1 <= 0, where f is undefined."""
    doc = orthant_doc()
    doc["constraints"]["f"] = ["log(x1)", "x2"]
    out = tmp_path / "cq.json"
    assert cli.run(["cq", "-p", write_problem(tmp_path, doc), "--point", "0.1,0",
                    "--which", "all", "--out", str(out)]) == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert {(rep[name]["verdict"], rep[name]["confidence"])
            for name in ("abadie", "msqc", "robinson")} == {("VERIFIED", "exact")}
    assert "Traceback" not in capsys.readouterr().err


def test_a_zero_slope_plateau_is_inconclusive_not_refuted(tmp_path, capsys):
    """f = min(x1, 0.13) - min(0, x1) against y <= 0 at 0: kappa = 1 holds
    near 0, but beyond x1 = 0.13 the violation is flat.  The tie of min(0, x1)
    at 0 keeps the coderivative criterion aside, so kappa is sampled.  A zero
    slope leaves no finite kappa_hat, so the estimate is INCONCLUSIVE with
    kappa_hat null, and kkt has no kappa to bound with."""
    doc = {"kind": "nlp", "n": 1, "objective": "-x1",
           "constraints": {"f": ["min(x1, 0.13) - min(0, x1)"],
                           "Theta": {"A_ineq": [[1]], "b_ineq": [0]}}}
    prob = write_problem(tmp_path, doc)
    out = str(tmp_path / "cq.json")
    assert cli.run(["cq", "-p", prob, "--point", "0", "--which", "msqc", "--out", out]) == 2
    msqc = json.loads(open(out).read())["msqc"]
    assert msqc["verdict"] == "INCONCLUSIVE" and not msqc["diverging"]
    assert msqc["kappa_hat"] is None
    assert cli.run(["kkt", "-p", prob, "--point", "0", "--kappa", "estimate", "--out", out]) == 2
    cert = json.loads(open(out).read())
    assert (cert["status"], cert["detail"]) == ("INCONCLUSIVE", "KAPPA_UNAVAILABLE")
    assert cert["notes"] == ["msqc_estimate verdict INCONCLUSIVE"]
    assert "Traceback" not in capsys.readouterr().err


def test_a_plateau_off_its_tie_reads_kappa_from_the_criterion(tmp_path):
    """f = min(x1, 0.13) is x1 near 0 (its tie is at 0.13), so against y <= 0
    at 0 the coderivative criterion reads c = 1 and nothing is sampled: MSQC
    is VERIFIED exactly with kappa_hat 1, where the sampled estimate met the
    plateau beyond 0.13 and was INCONCLUSIVE, and kkt bounds with kappa
    computed."""
    doc = {"kind": "nlp", "n": 1, "objective": "-x1",
           "constraints": {"f": ["min(x1, 0.13)"], "Theta": {"A_ineq": [[1]], "b_ineq": [0]}}}
    prob = write_problem(tmp_path, doc)
    out = str(tmp_path / "cq.json")
    assert cli.run(["cq", "-p", prob, "--point", "0", "--which", "msqc", "--out", out]) == 0
    msqc = json.loads(open(out).read())["msqc"]
    assert (msqc["verdict"], msqc["confidence"], msqc["kappa_hat"]) == ("VERIFIED", "exact", 1.0)
    assert cli.run(["kkt", "-p", prob, "--point", "0", "--kappa", "estimate", "--out", out]) == 0
    cert = json.loads(open(out).read())
    assert (cert["status"], cert["bound"]["kappa_source"]) == ("VERIFIED", certify.KAPPA_COMPUTED)


def test_cq_prints_the_confidence_of_a_report_that_decided_nothing(tmp_path, monkeypatch):
    """A report that checked nothing, such as Robinson's for a DomainOracle,
    has confidence "none", and cq writes it as such, not as "sampling"."""
    unchecked = calculus.CQReport("Robinson", calculus.INCONCLUSIVE, confidence="none",
                                  notes=["dom theta is a DomainOracle: its domain was not checked"])
    monkeypatch.setattr(calculus, "robinson_check", lambda c: unchecked)
    prob, out = write_problem(tmp_path, orthant_doc()), str(tmp_path / "cq.json")
    assert cli.run(["cq", "-p", prob, "--point", "0,0", "--which", "robinson", "--out", out]) == 2
    rob = json.loads(open(out).read())["robinson"]
    assert (rob["verdict"], rob["confidence"], rob["notes"]) == \
        ("INCONCLUSIVE", "none", unchecked.notes)


def kernel_2d_sdp_doc():
    """Phi = diag(x1, 0, -1): at x1 = 0 the kernel is 2-dimensional, so sdp
    draws random kernel combinations from its seed."""
    return {"kind": "sdp", "n": 1, "objective": "-x1",
            "constraints": {"Phi": [["x1", "0", "0"], [None, "0", "0"], [None, None, "-1"]]}}


NEGATIVE_SEED = [
    ("cq", orthant_doc(), ["--point", "0,0", "--which", "all"]),
    ("sip", linear_sip_doc(), ["--point", "0"]),
    ("kkt", orthant_doc(), ["--point", "0,0", "--kappa", "estimate"]),
    ("sdp", kernel_2d_sdp_doc(), ["--point", "0", "--kappa", "1"]),
]


@pytest.mark.parametrize("command, doc, args", NEGATIVE_SEED, ids=[c[0] for c in NEGATIVE_SEED])
def test_a_negative_seed_exits_3_with_an_error_line(command, doc, args, tmp_path, capsys):
    """numpy's generators take no negative seed, so the option refuses one
    before any work; each of these commands draws from the seed."""
    prob = write_problem(tmp_path, doc)
    assert cli.run([command, "-p", prob, *args]) in (0, 2)  # the default seed works
    capsys.readouterr()
    assert cli.run([command, "-p", prob, *args, "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert f"varcert {command}: error: argument --seed: must be a nonnegative integer, not -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("direction", ["nan,0", "inf,0", "0,-inf"])
def test_a_non_finite_direction_exits_3_before_any_work(direction, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("subderivative work started")

    monkeypatch.setattr(cli, "subderivative", no_work)
    prob = write_problem(tmp_path, orthant_doc())
    assert cli.run(["subderiv", "-p", prob, "--point", "1,1", "--direction", direction]) == 3
    assert capsys.readouterr().err == "error: 'direction' must hold finite numbers\n"


def unit_nlp_doc(a=1.0):
    """min -x1 s.t. a x1 <= 0 at 0 with kappa 1: VERIFIED with lambda = 1
    for a = 1, REFUTED with the descent witness 1 for a = -1."""
    return {"kind": "nlp", "n": 1, "objective": "-x1", "point": [0.0], "kappa": 1.0,
            "constraints": {"f": ["x1"], "Theta": {"A_ineq": [[a]], "b_ineq": [0.0]}}}


def unit_sip_doc():
    """min -x1 s.t. x1 - s1 <= 0 on S = [0, 1] at 0 with kappa 1: VERIFIED
    with the atom s = 0, lambda = 1."""
    return {"kind": "sip", "n": 1, "objective": "-x1", "point": [0.0], "kappa": 1.0,
            "constraints": {"theta": "x1 - s1", "S": [[0.0, 1.0]]}}


BOOL_IN_PROBLEM = [
    ("n", unit_nlp_doc, lambda d: d.update(n=True)),
    ("A_ineq", unit_nlp_doc, lambda d: d["constraints"]["Theta"].update(A_ineq=[[True]])),
    ("b_ineq", unit_nlp_doc, lambda d: d["constraints"]["Theta"].update(b_ineq=[False])),
    ("point", unit_nlp_doc, lambda d: d.update(point=[False])),
    ("kappa", unit_nlp_doc, lambda d: d.update(kappa=True)),
    ("S", unit_sip_doc, lambda d: d["constraints"].update(S=[[False, True]])),
]
BOOL_IN_CERTIFICATE = [
    ("point", unit_nlp_doc, lambda c: c.update(point=[False])),
    ("multipliers", unit_nlp_doc, lambda c: c.update(multipliers=[True])),
    ("generator_weights", unit_nlp_doc, lambda c: c.update(generator_weights=[True])),
    ("descent_witness", lambda: unit_nlp_doc(-1.0), lambda c: c.update(descent_witness=[True])),
    ("atom_s", unit_sip_doc, lambda c: c["atoms"][0].update(s=[False])),
    ("atom_lambda", unit_sip_doc, lambda c: c["atoms"][0].update({"lambda": True})),
    ("bound_lhs", unit_nlp_doc, lambda c: c["bound"].update(lhs=True)),
    ("bound_kappa", unit_nlp_doc, lambda c: c["bound"].update(kappa=True)),
]


@pytest.mark.parametrize("make, edit", [case[1:] for case in BOOL_IN_PROBLEM],
                         ids=[case[0] for case in BOOL_IN_PROBLEM])
def test_a_json_bool_in_a_problem_exits_3(make, edit, tmp_path, capsys):
    """JSON's true and false are not the numbers 1 and 0, though Python
    compares them equal: a problem that holds one where a number belongs
    exits 3 with an error line, where its numeric twin is issued."""
    doc = make()
    command = "kkt" if doc["kind"] == "nlp" else doc["kind"]
    assert cli.run([command, "-p", write_problem(tmp_path, doc)]) == 0
    edit(doc)
    assert doc == make()  # the same numbers, as Python reads them
    capsys.readouterr()
    assert cli.run([command, "-p", write_problem(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("make, edit", [case[1:] for case in BOOL_IN_CERTIFICATE],
                         ids=[case[0] for case in BOOL_IN_CERTIFICATE])
def test_a_json_bool_in_a_certificate_exits_3(make, edit, tmp_path, capsys):
    """A certificate that holds true or false where recheck reads a number
    exits 3 with an error line, where its numeric twin reproduces its status."""
    doc = make()
    prob, out = write_problem(tmp_path, doc), tmp_path / "cert.json"
    command = "kkt" if doc["kind"] == "nlp" else doc["kind"]
    issued = cli.run([command, "-p", prob, "--out", str(out)])
    assert cli.run(["recheck", "-p", prob, "-c", str(out)]) == issued
    cert = json.loads(out.read_text(encoding="utf-8"))
    edited = json.loads(json.dumps(cert))
    edit(edited)
    assert edited == cert  # the same numbers, as Python reads them
    out.write_text(json.dumps(edited), encoding="utf-8")
    capsys.readouterr()
    assert cli.run(["recheck", "-p", prob, "-c", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_deeply_nested_number_field_exits_3(tmp_path, capsys):
    """The true-or-false screen walks any nesting json reads without
    recursion: a number field nested 900 lists deep (a certificate's
    multipliers, a problem's point) is refused with an error line, not a
    RecursionError."""
    deep = json.loads("[" * 900 + "0" + "]" * 900)
    doc = unit_nlp_doc()
    prob, out = write_problem(tmp_path, doc), tmp_path / "cert.json"
    assert cli.run(["kkt", "-p", prob, "--out", str(out)]) == 0
    cert = json.loads(out.read_text(encoding="utf-8"))
    out.write_text(json.dumps(dict(cert, multipliers=deep)), encoding="utf-8")
    assert cli.run(["recheck", "-p", prob, "-c", str(out)]) == 3
    assert cli.run(["kkt", "-p", write_problem(tmp_path, dict(doc, point=deep))]) == 3
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


DEEP = "[" * 2000 + "0" + "]" * 2000  # deeper than json's decoder reads


def test_nesting_too_deep_to_read_exits_3(tmp_path, capsys):
    """A problem whose point, or a VERIFIED certificate whose multipliers,
    are nested 2,000 lists deep is more than json reads: both exit 3 with
    an error line, not a RecursionError."""
    doc = unit_nlp_doc()
    prob, out = write_problem(tmp_path, doc), tmp_path / "cert.json"
    assert cli.run(["kkt", "-p", prob, "--out", str(out)]) == 0
    cert = json.loads(out.read_text(encoding="utf-8"))
    out.write_text(json.dumps(dict(cert, multipliers="deep")).replace('"deep"', DEEP),
                   encoding="utf-8")
    deep_prob = tmp_path / "deep.json"
    deep_prob.write_text(json.dumps(dict(doc, point="deep")).replace('"deep"', DEEP),
                         encoding="utf-8")
    capsys.readouterr()
    assert cli.run(["recheck", "-p", prob, "-c", str(out)]) == 3
    assert cli.run(["kkt", "-p", str(deep_prob)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and line.endswith("nested too deeply") for line in err)


def _with(make, **constraints):
    doc = make()
    doc["constraints"].update(constraints)
    return doc


@pytest.mark.parametrize("command, args, doc, field", [
    ("kkt", ["--point", "0,0"], _with(orthant_doc, f=[1, "x2"]), "'f'"),
    ("primal", ["--point", "0,0"], _with(orthant_doc, f=[1, "x2"]), "'f'"),
    ("cq", ["--point", "0,0"], _with(orthant_doc, f=[1, "x2"]), "'f'"),
    ("kkt", ["--point", "0,0"], _with(orthant_doc, f=[0, "x2"]), "'f'"),
    ("kkt", ["--point", "0,0"], _with(orthant_doc, f=["x1", None]), "'f'"),
    ("sip", ["--point", "0", "--kappa", "1"], _with(linear_sip_doc, theta=1), "'theta'"),
    ("sip", ["--point", "0", "--kappa", "1"], _with(linear_sip_doc, psi=2, T=[[0.0, 1.0]]),
     "'psi'"),
    ("sdp", ["--point", "0", "--kappa", "1"], _with(sdp_doc, Phi=[[1, "0"], [None, "-1"]]),
     "'Phi'"),
    ("sdp", ["--point", "0", "--kappa", "1"], _with(sdp_doc, Psi=[[2]]), "'Psi'"),
], ids=["kkt_f", "primal_f", "cq_f", "f_zero", "f_null", "sip_theta", "sip_psi", "sdp_Phi",
        "sdp_Psi"])
def test_an_expression_field_that_is_not_text_exits_3(command, args, doc, field,
                                                      tmp_path, capsys):
    """A number or null where an expression belongs exits 3 with an error
    line that names the field: a number is not read as text, and a 0 or a
    null is not an empty expression."""
    assert cli.run([command, "-p", write_problem(tmp_path, doc), *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def _theta(**fields):
    doc = orthant_doc()
    doc["constraints"]["Theta"].update(fields)
    return doc


def _log_over_r_minus():
    return {"kind": "nlp", "n": 1, "objective": "log(x1)",
            "constraints": {"f": ["x1"], "Theta": {"A_ineq": [[1]], "b_ineq": [0]}}}


def _recheck_of(cert):
    """A certificate document, rechecked against the case's problem."""
    return dict({"problem_kind": "nlp", "point": [0.0, 0.0], "status": "VERIFIED"}, **cert)


BAD_INPUT = [
    ("kind", ["kkt", "--point", "0,0"], dict(orthant_doc(), kind="lp"),
     "error: unknown problem kind 'lp'"),
    ("n", ["kkt", "--point", "0,0"], dict(orthant_doc(), n=0),
     "error: field 'n' must be a positive integer"),
    ("objective_not_text", ["kkt", "--point", "0,0"], dict(orthant_doc(), objective=1),
     "error: field 'objective' must be an expression string"),
    ("constraints_not_object", ["kkt", "--point", "0,0"], dict(orthant_doc(), constraints=[]),
     "error: field 'constraints' must be an object"),
    ("A_ineq_not_numbers", ["kkt", "--point", "0,0"], _theta(A_ineq=[["a", 0], [0, 1]]),
     "error: 'A_ineq' must hold numbers"),
    ("A_ineq_not_matrix", ["kkt", "--point", "0,0"], _theta(A_ineq=[1, 0]),
     "error: 'A_ineq' must be a matrix"),
    ("A_ineq_columns", ["kkt", "--point", "0,0"], _theta(A_ineq=[[1, 0, 0]], b_ineq=[0]),
     "error: 'A_ineq' has 3 columns, expected 2"),
    ("no_Theta", ["kkt", "--point", "0,0"],
     dict(orthant_doc(), constraints={"f": ["x1", "x2"]}),
     "error: nlp constraints need a 'Theta' polyhedron object"),
    ("right_hand_sides", ["kkt", "--point", "0,0"], _theta(b_ineq=[0]),
     "error: Theta right-hand sides do not match the matrices"),
    ("objective_syntax", ["kkt", "--point", "0,0"], dict(orthant_doc(), objective="x1 $ 2"),
     "error: objective expression error: syntax error at position 3: unexpected character '$'"),
    ("f_syntax", ["kkt", "--point", "0,0"], _with(orthant_doc, f=["x1 $ 2", "x2"]),
     "error: constraint expression error: syntax error at position 3: unexpected character '$'"),
    ("theta_without_S", ["sip", "--point", "0"],
     dict(linear_sip_doc(), constraints={"theta": "s1*x1"}),
     "error: sip constraints with 'theta' need an index box 'S'"),
    ("psi_without_T", ["sip", "--point", "0"],
     dict(linear_sip_doc(), constraints={"psi": "t1*x1"}),
     "error: sip constraints with 'psi' need an index box 'T'"),
    ("neither_theta_nor_psi", ["sip", "--point", "0"], dict(linear_sip_doc(), constraints={}),
     "error: sip constraints need 'theta' or 'psi'"),
    ("sdp_syntax", ["sdp", "--point", "0", "--kappa", "1"],
     _with(sdp_doc, Phi=[["x1 $", "0"], [None, "-1"]]),
     "error: sdp expression error: syntax error at position 3: unexpected character '$'"),
    ("point_unparsable", ["kkt", "--point", "a,b"], orthant_doc(),
     "error: cannot parse --point 'a,b'"),
    ("no_point", ["kkt"], orthant_doc(),
     "error: no point: pass --point or put 'point' in the problem file"),
    ("sip_on_nlp", ["sip", "--point", "0,0"], orthant_doc(),
     "error: sip expects a problem of kind sip"),
    ("direction_not_numbers", ["subderiv", "--point", "1,1", "--direction", "a,0"], orthant_doc(),
     "error: subderiv needs --direction as comma-separated floats"),
    ("direction_length", ["subderiv", "--point", "1,1", "--direction", "1"], orthant_doc(),
     "error: direction length does not match n"),
    ("seed_not_integer", ["kkt", "--point", "0,0", "--seed", "1.5"], orthant_doc(),
     "varcert kkt: error: argument --seed: invalid int value: '1.5'"),
    # log(x1) at x1 = -1 over Theta = R_-: a feasible point where the
    # objective is not finite; kkt and primal read its subdifferential and
    # subderiv its subderivative, and each refuses the point alike
    ("objective_undefined_kkt", ["kkt", "--point", "-1", "--kappa", "1"], _log_over_r_minus(),
     "error: point outside the smooth function domain"),
    ("objective_undefined_primal", ["primal", "--point", "-1"], _log_over_r_minus(),
     "error: point outside the smooth function domain"),
    ("objective_undefined_subderiv", ["subderiv", "--point", "-1", "--direction", "1"],
     _log_over_r_minus(), "error: point outside the smooth function domain"),
    ("recheck_other_kind", _recheck_of({"problem_kind": "sip"}), orthant_doc(),
     "error: certificate was issued for a different problem kind"),
    ("recheck_multipliers", _recheck_of({"multipliers": [1.0]}), orthant_doc(),
     "error: multiplier length does not match the image dimension"),
    ("recheck_generator_weights",
     _recheck_of({"multipliers": [1.0, 1.0], "generator_weights": [1.0]}), orthant_doc(),
     "error: generator weights do not match Theta's rows"),
    ("recheck_eq_weights", _recheck_of({"multipliers": [1.0, 1.0], "generator_weights": [1.0, 1.0],
                                        "eq_weights": [1.0]}),
     _theta(A_eq=[[1.0, 0.0]], b_eq=[0.0]), "error: equality weights malformed"),
]


@pytest.mark.parametrize("args, doc, line", [case[1:] for case in BAD_INPUT],
                         ids=[case[0] for case in BAD_INPUT])
def test_bad_input_exits_3_with_its_error_line(args, doc, line, tmp_path, capsys):
    """A malformed problem file, option or certificate exits 3 with the line
    that names what is wrong; a certificate case (a dict in place of the
    arguments) is rechecked against the problem.  Only argparse's own errors
    print its usage lines first."""
    prob = write_problem(tmp_path, doc)
    if isinstance(args, dict):
        args = ["recheck", "-c", write_problem(tmp_path, args, "cert.json")]
    assert cli.run([args[0], "-p", prob, *args[1:]]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == line and (len(lines) == 1 or lines[0].startswith("usage: varcert "))
    assert not any("Traceback" in text for text in lines)


@pytest.mark.parametrize("A_eq", ["absent", None, []])
def test_an_absent_null_or_empty_matrix_has_no_rows(A_eq):
    doc = orthant_doc() if A_eq == "absent" else _theta(A_eq=A_eq)
    assert cli.build_nlp(doc).Theta.A_eq.shape == (0, 2)


def test_cq_exits_1_on_a_refuted_report(tmp_path, capsys):
    """f = x1^2 into {y = 0} at 0: J = 0, so the unit normal y = 1 has
    J^T y = 0 and Robinson's condition fails, with that y as its witness."""
    doc = {"kind": "nlp", "n": 1, "objective": "x1^2",
           "constraints": {"f": ["x1^2"], "Theta": {"A_eq": [[1]], "b_eq": [0]}}}
    out = tmp_path / "cq.json"
    assert cli.run(["cq", "-p", write_problem(tmp_path, doc), "--point", "0",
                    "--which", "robinson", "--out", str(out)]) == 1
    rob = json.loads(out.read_text(encoding="utf-8"))["robinson"]
    assert (rob["verdict"], rob["witness"]) == ("REFUTED", [1.0])
    assert capsys.readouterr().err == ""
