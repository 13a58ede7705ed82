"""Command-line entry point, problem/certificate JSON formats, and recheck.

Exit codes: 0 VERIFIED, 1 REFUTED (including no-multiplier outcomes),
2 INCONCLUSIVE, 3 usage or parse error, 4 numerical error.

Certificates are independently verifiable: ``recheck`` recomputes the
residual, cone membership, complementarity, and bound from scratch using
only expression gradients and dense linear algebra (no LP), and the exit
code reproduces the certificate's status.  Serialization is canonical:
fixed key order and %.12e floats, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

# One BLAS thread unless the user chose otherwise, set before numpy loads:
# the solves here are small, and competing BLAS threads make them spike
# from a fraction of a millisecond to a hundred.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__, calculus, certify, sdp as sdp_mod, sip as sip_mod
from .calculus import REFUTED, VERIFIED
from .certify import Certificate, ConstrainedProblem
from .errors import (
    InfeasiblePointError,
    NoMultiplierError,
    NonConvergenceError,
    NumericalBreakdownError,
    VarcertError,
)
from .expr import SmoothMap
from .funcspace import IndicatorFn, SmoothFn, subderivative, subderivative_sampled
from .geometry import Polyhedron
from .solvers import eigh

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# canonical serialization

def _canon(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            raise CliError("non-finite float in certificate payload")
        return "%.12e" % v
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_canon(v) for v in list(obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _canon(v)
                              for k, v in obj.items()) + "}"
    raise CliError(f"unserializable value of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    return _canon(obj) + "\n"


# ---------------------------------------------------------------------------
# problem files

def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read problem file {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError("problem file must hold a JSON object")
    kind = doc.get("kind")
    if kind not in ("nlp", "sip", "sdp"):
        raise CliError(f"unknown problem kind {kind!r}")
    if not isinstance(doc.get("n"), int) or doc["n"] < 1:
        raise CliError("field 'n' must be a positive integer")
    if not isinstance(doc.get("objective"), str):
        raise CliError("field 'objective' must be an expression string")
    cons = doc.get("constraints")
    if not isinstance(cons, dict):
        raise CliError("field 'constraints' must be an object")
    return doc


def _matrix(doc, key, rows=None, cols=None, default_empty_cols=None):
    M = doc.get(key)
    if M is None:
        if default_empty_cols is None:
            raise CliError(f"missing matrix {key!r}")
        return np.zeros((0, default_empty_cols))
    arr = np.array(M, dtype=float)
    if arr.ndim == 1 and arr.size == 0:
        return np.zeros((0, default_empty_cols or (cols or 0)))
    if arr.ndim != 2:
        raise CliError(f"{key!r} must be a matrix")
    if cols is not None and arr.shape[1] != cols:
        raise CliError(f"{key!r} has {arr.shape[1]} columns, expected {cols}")
    return arr


def build_nlp(doc) -> ConstrainedProblem:
    n = doc["n"]
    cons = doc["constraints"]
    fexprs = cons.get("f")
    if not isinstance(fexprs, list) or not fexprs:
        raise CliError("nlp constraints need a nonempty expression list 'f'")
    try:
        f = SmoothMap.from_strings(fexprs, [f"x{i+1}" for i in range(n)])
    except VarcertError as exc:
        raise CliError(f"constraint expression error: {exc}")
    theta_doc = cons.get("Theta")
    if not isinstance(theta_doc, dict):
        raise CliError("nlp constraints need a 'Theta' polyhedron object")
    m = f.m
    A_ineq = _matrix(theta_doc, "A_ineq", cols=m, default_empty_cols=m)
    b_ineq = np.array(theta_doc.get("b_ineq", []), dtype=float)
    A_eq = _matrix(theta_doc, "A_eq", cols=m, default_empty_cols=m)
    b_eq = np.array(theta_doc.get("b_eq", []), dtype=float)
    if A_ineq.shape[0] != len(b_ineq) or A_eq.shape[0] != len(b_eq):
        raise CliError("Theta right-hand sides do not match the matrices")
    Theta = Polyhedron(A_ineq, b_ineq, A_eq, b_eq, n=m)
    try:
        obj = SmoothFn(doc["objective"], n)
    except VarcertError as exc:
        raise CliError(f"objective expression error: {exc}")
    return ConstrainedProblem(obj, f, Theta)


def _index_box(box, key):
    """The index box as [(lo, hi)] floats, or None when absent."""
    if not box:
        return None
    try:
        return [(float(lo), float(hi)) for lo, hi in box]
    except (TypeError, ValueError):
        raise CliError(f"index box {key!r} must be a list of [lo, hi] number pairs")


def build_sip(doc) -> sip_mod.SIProblem:
    cons = doc["constraints"]
    S = cons.get("S")
    T = cons.get("T")
    if cons.get("theta") is not None and not S:
        raise CliError("sip constraints with 'theta' need an index box 'S'")
    if cons.get("psi") is not None and not T:
        raise CliError("sip constraints with 'psi' need an index box 'T'")
    if cons.get("theta") is None and cons.get("psi") is None:
        raise CliError("sip constraints need 'theta' or 'psi'")
    try:
        return sip_mod.SIProblem.from_strings(
            doc["n"], doc["objective"], theta=cons.get("theta"), S=_index_box(S, "S"),
            psi=cons.get("psi"), T=_index_box(T, "T"))
    except VarcertError as exc:
        raise CliError(f"sip expression error: {exc}")


def build_sdp(doc) -> sdp_mod.SDProblem:
    cons = doc["constraints"]
    Phi = cons.get("Phi")
    if not isinstance(Phi, list) or not Phi:
        raise CliError("sdp constraints need a matrix of expressions 'Phi'")
    try:
        return sdp_mod.SDProblem.from_strings(doc["n"], doc["objective"], Phi,
                                              Psi=cons.get("Psi"))
    except VarcertError as exc:
        raise CliError(f"sdp expression error: {exc}")


def _resolve_point(doc, args):
    if getattr(args, "point", None):
        try:
            pt = [float(v) for v in args.point.split(",")]
        except ValueError:
            raise CliError(f"cannot parse --point {args.point!r}")
    elif doc.get("point") is not None:
        try:
            pt = [float(v) for v in doc["point"]]
        except (TypeError, ValueError):
            raise CliError(f"cannot parse point {doc['point']!r}")
    else:
        raise CliError("no point: pass --point or put 'point' in the problem file")
    if len(pt) != doc["n"]:
        raise CliError(f"point has length {len(pt)}, problem declares n={doc['n']}")
    return np.array(pt)


def _resolve_kappa(doc, args):
    raw = getattr(args, "kappa", None)
    if raw is None:
        raw = doc.get("kappa")
    if raw is None or raw == "estimate":
        return "estimate"
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise CliError(f"cannot parse kappa {raw!r}")


# ---------------------------------------------------------------------------
# certificate files

def certificate_document(cert: Certificate, problem_kind) -> dict:
    doc = {
        "kind": cert.kind,
        "status": cert.status,
        "detail": cert.detail,
        "problem_kind": problem_kind,
        "point": None if cert.point is None else [float(v) for v in cert.point],
    }
    if cert.multipliers is not None:
        doc["multipliers"] = [float(v) for v in cert.multipliers]
    if cert.generator_weights is not None:
        doc["generator_weights"] = [float(v) for v in cert.generator_weights]
    if cert.eq_weights is not None:
        doc["eq_weights"] = [float(v) for v in cert.eq_weights]
    if cert.atoms is not None:
        doc["atoms"] = [{"s": [float(v) for v in s], "lambda": float(w)}
                        for s, w in cert.atoms]
    if cert.eq_atoms is not None:
        doc["eq_atoms"] = [{"t": [float(v) for v in t], "mu": float(m)}
                           for t, m in cert.eq_atoms]
    if cert.descent_witness is not None:
        doc["descent_witness"] = [float(v) for v in cert.descent_witness]
    if cert.penalty_margin is not None:
        doc["penalty_margin"] = float(cert.penalty_margin)
    doc["residual"] = cert.residual
    doc["bound"] = {
        "lhs": cert.bound_lhs,
        "rhs": cert.bound_rhs,
        "kappa": cert.kappa,
        "kappa_source": cert.kappa_source,
        "rule": cert.bound_rule,
    }
    doc["tolerances"] = dict(cert.tolerances)
    doc["seed"] = cert.seed
    doc["notes"] = list(cert.notes)
    doc["tool_version"] = __version__
    return doc


def write_certificate(doc, out):
    text = canonical_json(doc)
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _status_exit(status):
    if status == VERIFIED:
        return EXIT_VERIFIED
    if status == REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# recheck: pure arithmetic, no LP

def _refuted(failures, log):
    for msg in failures:
        log(f"recheck failure: {msg}")
    return EXIT_REFUTED


def recheck(cert_doc, prob_doc, log=lambda msg: None) -> int:
    kind = prob_doc["kind"]
    if cert_doc.get("problem_kind") != kind:
        raise CliError("certificate was issued for a different problem kind")
    point = cert_doc.get("point")
    if point is None or len(point) != prob_doc["n"]:
        raise CliError("certificate point does not match the problem dimension")
    x = np.array(point, dtype=float)
    tols = cert_doc.get("tolerances", {})
    tol_stat = float(tols.get("tol_stat", certify.TOL_STAT))
    tol_cone = float(tols.get("tol_cone", certify.TOL_CONE))
    tol_bound = float(tols.get("tol_bound", certify.TOL_BOUND))
    bound = cert_doc.get("bound", {})
    failures = []

    if cert_doc.get("kind") in ("Primal", "ExactPenalty"):
        # primal-style certificates: a REFUTED witness is recheckable by
        # plain evaluation; a VERIFIED verdict is a universally quantified
        # LP/sampling statement with no finite witness to replay
        p = build_nlp(prob_doc)
        y = p.f.eval(x)
        if not p.Theta.contains(y):
            log("recheck failure: infeasible point")
            return EXIT_REFUTED
        witness = cert_doc.get("descent_witness")
        if cert_doc.get("status") == REFUTED and witness is not None:
            u = np.array(witness, dtype=float)
            if cert_doc.get("kind") == "Primal":
                g = p.objective.gradient(x)
                J = p.f.jacobian(x)
                from .geometry import tangent_cone as _tc
                T = _tc(p.Theta, y)
                lin_ok = T.contains(J @ u, 1e-7)
                if lin_ok and float(g @ u) < -tol_stat:
                    log("recheck: descent witness reproduces REFUTED")
                    return EXIT_REFUTED
                log("recheck failure: stored descent witness does not descend")
                return EXIT_REFUTED
        log(f"recheck: {cert_doc.get('kind')} status {cert_doc.get('status')} "
            "(no finite witness to replay)")
        return _status_exit(cert_doc.get("status"))

    if kind == "nlp":
        p = build_nlp(prob_doc)
        y = p.f.eval(x)
        if not p.Theta.contains(y):
            failures.append(f"infeasible point: residual {p.Theta.residual(y):.3e}")
        rows, l = p.Theta.A_ineq.shape[0], p.Theta.A_eq.shape[0]
        # a NO_MULTIPLIER certificate stores no combination: read it as the empty one
        lam = np.array(cert_doc.get("multipliers", np.zeros(p.m)), dtype=float)
        if len(lam) != p.m:
            raise CliError("multiplier length does not match the image dimension")
        w = np.array(cert_doc.get("generator_weights", np.zeros(rows)), dtype=float)
        if len(w) != rows:
            raise CliError("generator weights do not match Theta's rows")
        ab = np.array(cert_doc.get("eq_weights", np.zeros(2 * l)), dtype=float)
        if np.any(w < -tol_cone):
            failures.append("negative generator weight")
        lam_hat = p.Theta.A_ineq.T @ w if len(w) else np.zeros(p.m)
        if l:
            if len(ab) != 2 * l:
                raise CliError("equality weights malformed")
            lam_hat = lam_hat + p.Theta.A_eq.T @ (ab[:l] - ab[l:])
        if float(np.linalg.norm(lam_hat - lam)) > tol_cone * (1.0 + np.linalg.norm(lam)):
            failures.append("multiplier is not the recorded conic combination")
        slack = p.Theta.b_ineq - p.Theta.A_ineq @ y if len(w) else np.zeros(0)
        if len(w) and float(np.max(w * slack)) > 1e-6 * (1.0 + float(np.max(np.abs(w)))):
            failures.append("complementary slackness violated")
        g = p.objective.gradient(x)
        residual = float(np.linalg.norm(g + p.f.jacobian(x).T @ lam))
        lhs = float(np.linalg.norm(lam))
    elif kind == "sip":
        p = build_sip(prob_doc)
        atoms = [(np.array(a["s"], dtype=float), float(a["lambda"]))
                 for a in cert_doc.get("atoms", [])]
        for s, lam in atoms:
            if lam < -1e-12:
                failures.append("negative atom weight")
            for v, (lo, hi) in zip(s, p.S):
                if v < lo - 1e-9 or v > hi + 1e-9:
                    failures.append("atom outside the index box")
            val = p.theta_at(x, s)
            if val < -1e-5 or val > 1e-6:
                failures.append(f"atom not active: theta = {val:.3e}")
        eq_atoms = [(np.array(a["t"], dtype=float), float(a["mu"]))
                    for a in cert_doc.get("eq_atoms", [])]
        if eq_atoms and p.psi is None:
            raise CliError("certificate carries equality atoms but the problem has no psi")
        for t, mu in eq_atoms:
            if abs(p.psi_at(x, t)) > 1e-6:
                failures.append("equality atom violated at the point")
        residual, lhs = sip_mod.stationarity_residual(p, x, p.grad_objective(x),
                                                      atoms, eq_atoms)
    elif kind == "sdp":
        p = build_sdp(prob_doc)
        A = p.phi_value(x)
        wv, _ = eigh(A)
        tol_ker = float(tols.get("tol_ker", 1e-7 * (1.0 + float(np.max(np.abs(wv))))))
        if wv[0] > 1e-7:
            failures.append(f"Phi(x) not negative semidefinite: sigma = {wv[0]:.3e}")
        B = p.psi_value(x)
        if B is not None and float(np.max(np.abs(B))) > 1e-7:
            failures.append("Psi(x) nonzero at the point")
        atoms = [(np.array(a["s"], dtype=float), float(a["lambda"]))
                 for a in cert_doc.get("atoms", [])]
        for s, lam in atoms:
            if abs(float(np.linalg.norm(s)) - 1.0) > 1e-8:
                failures.append("atom is not a unit vector")
            if lam < -1e-12:
                failures.append("negative atom weight")
            if abs(float(s @ A @ s)) > 10 * tol_ker:
                failures.append("complementarity violated for an atom")
        if "atom is not a unit vector" in failures:
            # the residual needs unit atoms (grad_quadform); the verdict is settled
            return _refuted(failures, log)
        psi_atoms = [(tuple(int(v) for v in a["t"]), float(a["mu"]))
                     for a in cert_doc.get("eq_atoms", [])]
        residual, lhs = sdp_mod.stationarity_residual(p, x, p.grad_objective(x),
                                                      atoms, psi_atoms)
    else:
        raise CliError(f"recheck does not support problem kind {kind!r}")
    if residual > tol_stat:
        failures.append(f"stationarity residual {residual:.3e} > {tol_stat:.1e}")
    rhs = bound.get("rhs")
    if rhs is not None and not certify.bound_holds(lhs, rhs, tol_bound):
        failures.append(f"bound violated: {lhs:.6e} > {rhs:.6e}")

    stored = cert_doc.get("status")
    if failures:
        return _refuted(failures, log)
    if stored == VERIFIED:
        log("recheck passed: certificate conditions reproduce VERIFIED")
        return EXIT_VERIFIED
    log(f"recheck: algebraic conditions hold; stored status was {stored}")
    return _status_exit(stored)


# ---------------------------------------------------------------------------
# subcommands

def _load(args, kind, build):
    """The problem document, the built problem and the point, for a command
    that takes only problems of this kind."""
    doc = load_problem(args.problem)
    if doc["kind"] != kind:
        raise CliError(f"{args.command} expects a problem of kind {kind}")
    return doc, build(doc), _resolve_point(doc, args)


def _emit(cert: Certificate, kind, args):
    write_certificate(certificate_document(cert, kind), args.out)
    _summarize(cert)
    return _status_exit(cert.status)


def _issue(args, kind, build, cert_kind, certify_fn):
    """Issue the dual certificate ``certify_fn(p, x, kappa)``; a missing
    multiplier becomes a REFUTED certificate with detail NO_MULTIPLIER."""
    doc, p, x = _load(args, kind, build)
    kappa = _resolve_kappa(doc, args)
    try:
        cert = certify_fn(p, x, kappa)
    except NoMultiplierError as exc:
        cert = Certificate(kind=cert_kind, status=REFUTED, detail="NO_MULTIPLIER",
                           point=x, seed=args.seed, notes=[str(exc)])
    return _emit(cert, kind, args)


def _cmd_kkt(args):
    return _issue(args, "nlp", build_nlp, "DualKKT", lambda p, x, kappa:
                  certify.dual_certificate(p, x, kappa=kappa, seed=args.seed))


def _cmd_primal(args):
    _, p, x = _load(args, "nlp", build_nlp)
    return _emit(certify.primal_check(p, x, seed=args.seed), "nlp", args)


def _cmd_sip(args):
    if args.grid is not None and args.grid < 1:
        raise CliError(f"--grid must be a positive integer, got {args.grid}")
    return _issue(args, "sip", build_sip, "SIP", lambda p, x, kappa:
                  sip_mod.certify(p, x, kappa=kappa, seed=args.seed, density=args.grid))


def _cmd_sdp(args):
    def certify_sdp(p, x, kappa):
        if kappa == "estimate":
            raise CliError("sdp certification needs an explicit --kappa")
        return sdp_mod.certify(p, x, kappa=kappa, seed=args.seed)

    return _issue(args, "sdp", build_sdp, "SDP", certify_sdp)


def _cmd_subderiv(args):
    doc = load_problem(args.problem)
    x = _resolve_point(doc, args)
    try:
        u = [float(v) for v in args.direction.split(",")]
    except (AttributeError, ValueError):
        raise CliError("subderiv needs --direction as comma-separated floats")
    if len(u) != doc["n"]:
        raise CliError("direction length does not match n")
    fn = SmoothFn(doc["objective"], doc["n"])
    analytic = subderivative(fn, x, u)
    sampled = subderivative_sampled(fn, x, u, seed=args.seed, check_spread=False)
    out = {
        "point": [float(v) for v in x],
        "direction": u,
        "analytic": analytic.value if math.isfinite(analytic.value) else None,
        "sampled": sampled.value if math.isfinite(sampled.value) else None,
        "spread": sampled.diagnostics.get("spread"),
        "tool_version": __version__,
    }
    write_certificate(out, args.out)
    return EXIT_VERIFIED


def _cmd_cq(args):
    _, p, x = _load(args, "nlp", build_nlp)
    comp = calculus.Composite(IndicatorFn(p.Theta), p.f, x)
    which = args.which
    reports = {}
    if which in ("abadie", "all"):
        reports["abadie"] = calculus.abadie_check(comp, seed=args.seed)
    if which in ("msqc", "all"):
        reports["msqc"] = calculus.msqc_estimate(comp, radius=args.radius,
                                                 samples=args.samples, seed=args.seed)
    if which in ("robinson", "all"):
        reports["robinson"] = calculus.robinson_check(comp)
    out = {"point": [float(v) for v in x], "tool_version": __version__}
    exit_code = EXIT_VERIFIED
    for name, rep in reports.items():
        out[name] = {
            "verdict": rep.verdict,
            # a zero slope leaves no finite estimate: kappa_hat = inf
            "kappa_hat": rep.kappa_hat if rep.kappa_hat is None or math.isfinite(rep.kappa_hat)
            else None,
            "witness": None if rep.witness is None else [float(v) for v in rep.witness],
            "confidence": rep.confidence,
            "diverging": rep.diverging,
            "notes": list(rep.notes),
        }
        if rep.verdict == REFUTED:
            exit_code = EXIT_REFUTED
        elif rep.verdict != VERIFIED and exit_code == EXIT_VERIFIED:
            exit_code = EXIT_INCONCLUSIVE
    write_certificate(out, args.out)
    return exit_code


def _cmd_recheck(args):
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read certificate {args.certificate}: {exc}")
    prob_doc = load_problem(args.problem)
    try:
        return recheck(cert_doc, prob_doc, log=lambda m: print(m, file=sys.stderr))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CliError(f"malformed certificate: {exc}")


def _summarize(cert: Certificate):
    parts = [f"{cert.kind}: {cert.status}"]
    if cert.detail:
        parts.append(f"({cert.detail})")
    if cert.residual is not None:
        parts.append(f"residual={cert.residual:.3e}")
    if cert.bound_lhs is not None and cert.bound_rhs is not None:
        parts.append(f"bound {cert.bound_lhs:.6g} <= {cert.bound_rhs:.6g}")
    print(" ".join(parts), file=sys.stderr)


def build_parser():
    ap = argparse.ArgumentParser(prog="varcert",
                                 description="stationarity certificates for "
                                             "constrained, semi-infinite, and "
                                             "semidefinite programs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, kappa=True):
        sp.add_argument("-p", "--problem", required=True)
        sp.add_argument("--point", default=None, help="comma-separated coordinates")
        if kappa:
            sp.add_argument("--kappa", default=None,
                            help="metric subregularity modulus or 'estimate'")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--out", default=None, help="certificate path (default stdout)")

    sp = sub.add_parser("kkt", help="dual KKT certificate with bounded multipliers")
    common(sp)
    sp.set_defaults(fn=_cmd_kkt)

    sp = sub.add_parser("primal", help="primal descent-cone certificate")
    common(sp, kappa=False)
    sp.set_defaults(fn=_cmd_primal)

    sp = sub.add_parser("sip", help="semi-infinite atomic-multiplier certificate")
    common(sp)
    sp.add_argument("--grid", type=int, default=None, help="index grid density per axis")
    sp.set_defaults(fn=_cmd_sip)

    sp = sub.add_parser("sdp", help="semidefinite eigenvector-atom certificate")
    common(sp)
    sp.set_defaults(fn=_cmd_sdp)

    sp = sub.add_parser("subderiv", help="objective subderivative at a point/direction")
    common(sp, kappa=False)
    sp.add_argument("--direction", required=True)
    sp.set_defaults(fn=_cmd_subderiv)

    sp = sub.add_parser("cq", help="qualification-condition reports")
    common(sp, kappa=False)
    sp.add_argument("--which", choices=["abadie", "msqc", "robinson", "all"],
                    default="all")
    sp.add_argument("--radius", type=float, default=0.5)
    sp.add_argument("--samples", type=int, default=30)
    sp.set_defaults(fn=_cmd_cq)

    sp = sub.add_parser("recheck", help="re-verify a certificate without LPs")
    sp.add_argument("-p", "--problem", required=True)
    sp.add_argument("-c", "--certificate", required=True)
    sp.set_defaults(fn=_cmd_recheck)
    return ap


def _attach_coordinates(argv):
    """Rewrite ``--point V`` and ``--direction V`` as ``--point=V``: argparse
    reads a separate value such as ``-1,0`` as an option, not as the value."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in ("--point", "--direction") else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


@functools.cache
def _parser():
    """The parser, built on first use and reused: building it costs far more
    than parsing one command line."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(_attach_coordinates(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasiblePointError as exc:
        print(f"infeasible point: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (NonConvergenceError, NumericalBreakdownError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VarcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
