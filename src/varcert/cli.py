"""Command-line entry point, problem/certificate JSON formats, and recheck.

Exit codes: 0 VERIFIED, 1 REFUTED (including no-multiplier outcomes),
2 INCONCLUSIVE, 3 usage or parse error, 4 numerical error.

Certificates are independently verifiable: ``recheck`` recomputes the
residual, cone membership, complementarity, and bound from scratch using
only expression gradients and dense linear algebra (no LP), and the exit
code reproduces the certificate's status.  It runs each kind's issuer-side
condition function on the stored witness (point, multiplier data, kappa);
the bound's right side and the tolerances are never read from the file.
Serialization is canonical:
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


def _finite(values, key):
    """``values`` as a float array; anything but finite numbers is refused."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"{key!r} must hold numbers")
    if not np.isfinite(arr).all():
        raise CliError(f"{key!r} must hold finite numbers")
    return arr


def _matrix(doc, key, rows=None, cols=None, default_empty_cols=None):
    M = doc.get(key)
    if M is None:
        if default_empty_cols is None:
            raise CliError(f"missing matrix {key!r}")
        return np.zeros((0, default_empty_cols))
    arr = _finite(M, key)
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
    b_ineq = _finite(theta_doc.get("b_ineq", []), "b_ineq")
    A_eq = _matrix(theta_doc, "A_eq", cols=m, default_empty_cols=m)
    b_eq = _finite(theta_doc.get("b_eq", []), "b_eq")
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
    except (TypeError, ValueError, OverflowError):
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
        raise CliError(f"sip problem error: {exc}")


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
        except (TypeError, ValueError, OverflowError):
            raise CliError(f"cannot parse point {doc['point']!r}")
    else:
        raise CliError("no point: pass --point or put 'point' in the problem file")
    if len(pt) != doc["n"]:
        raise CliError(f"point has length {len(pt)}, problem declares n={doc['n']}")
    return _finite(pt, "point")


def _resolve_kappa(doc, args):
    raw = getattr(args, "kappa", None)
    if raw is None:
        raw = doc.get("kappa")
    if raw is None or raw == "estimate":
        return "estimate"
    try:
        kappa = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"cannot parse kappa {raw!r}")
    if not 0.0 <= kappa < math.inf:  # the rule recheck applies to bound.kappa
        raise CliError(f"kappa must be a finite nonnegative number, got {raw!r}")
    return kappa


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


def _psi_entry(t, p):
    """A Psi atom's entry (i, j): two integral numbers with 0 <= i <= j < m."""
    i, j = t
    m = 0 if p.Psi is None else len(p.Psi)
    if not (all(type(v) in (int, float) and float(v).is_integer() for v in t) and 0 <= i <= j < m):
        raise CliError(f"Psi atom t = {t} is not an entry (i, j) with 0 <= i <= j < {m}")
    return int(i), int(j)


def recheck(cert_doc, prob_doc, log=lambda msg: None) -> int:
    kind = prob_doc["kind"]
    if cert_doc.get("problem_kind") != kind:
        raise CliError("certificate was issued for a different problem kind")
    point = cert_doc.get("point")
    if point is None or len(point) != prob_doc["n"]:
        raise CliError("certificate point does not match the problem dimension")
    x = np.array(point, dtype=float)

    # the bound scale is ||grad objective||, doubled for sip with psi and for sdp
    if kind == "nlp":
        p = build_nlp(prob_doc)
        y, J, g = p.f.eval(x), p.f.jacobian(x), p.objective.gradient(x)
        witness = cert_doc.get("descent_witness")
        if witness is not None:  # a descent direction shows REFUTED, whatever the status
            failures, _ = certify.descent_conditions(p, y, J, [g], np.array(witness, dtype=float))
            if failures:  # a witness that fails shows nothing: neither REFUTED nor VERIFIED
                _refuted(failures, log)
                return EXIT_INCONCLUSIVE
            log("recheck: descent witness reproduces REFUTED")
            return EXIT_REFUTED
        if cert_doc.get("status") == REFUTED and "multipliers" not in cert_doc:  # shows nothing
            _refuted(["a REFUTED certificate with neither descent_witness nor multipliers"], log)
            return EXIT_INCONCLUSIVE
        rows, l = p.Theta.A_ineq.shape[0], p.Theta.A_eq.shape[0]
        # a missing combination reads as the empty one: a VERIFIED without it fails
        lam = np.array(cert_doc.get("multipliers", np.zeros(p.m)), dtype=float)
        if len(lam) != p.m:
            raise CliError("multiplier length does not match the image dimension")
        w = np.array(cert_doc.get("generator_weights", np.zeros(rows)), dtype=float)
        if len(w) != rows:
            raise CliError("generator weights do not match Theta's rows")
        ab = np.array(cert_doc.get("eq_weights", np.zeros(2 * l)), dtype=float)
        if l and len(ab) != 2 * l:
            raise CliError("equality weights malformed")
        failures, residual, lhs = certify.kkt_conditions(p, y, J, g, lam, w, ab)
        scale = float(np.linalg.norm(g))
    elif kind == "sip":
        p = build_sip(prob_doc)
        atoms = [(np.array(a["s"], dtype=float), float(a["lambda"]))
                 for a in cert_doc.get("atoms", [])]
        eq_atoms = [(np.array(a["t"], dtype=float), float(a["mu"]))
                    for a in cert_doc.get("eq_atoms", [])]
        if eq_atoms and p.psi is None:
            raise CliError("certificate carries equality atoms but the problem has no psi")
        g = p.grad_objective(x)
        failures, residual, lhs = sip_mod.conditions(p, x, g, atoms, eq_atoms)
        scale = (1.0 if p.psi is None else 2.0) * float(np.linalg.norm(g))
    elif kind == "sdp":
        p = build_sdp(prob_doc)
        A = p.phi_value(x)
        atoms = [(np.array(a["s"], dtype=float), float(a["lambda"]))
                 for a in cert_doc.get("atoms", [])]
        psi_atoms = [(_psi_entry(a["t"], p), float(a["mu"])) for a in cert_doc.get("eq_atoms", [])]
        g = p.grad_objective(x)
        failures, residual, lhs = sdp_mod.conditions(
            p, x, A, eigh(A)[0], sdp_mod.entry_grads(p.Phi, x), sdp_mod.entry_grads(p.Psi, x),
            g, atoms, psi_atoms)
        scale = 2.0 * float(np.linalg.norm(g))
    else:
        raise CliError(f"recheck does not support problem kind {kind!r}")

    bound = cert_doc.get("bound")
    kappa = bound.get("kappa") if isinstance(bound, dict) else None
    if kappa is not None and (isinstance(kappa, bool) or not isinstance(kappa, (int, float))):
        raise CliError(f"bound.kappa must be a number or null, not {kappa!r}")
    if kappa is not None and not 0.0 <= kappa < math.inf:
        failures.append(f"kappa {kappa} is not a finite nonnegative number")
    # an nlp Primal certificate claims no bound: its ladder stops at the RESIDUAL rung
    rhs = math.inf if (kind, cert_doc.get("kind")) == ("nlp", "Primal") else \
        None if kappa is None else kappa * scale
    stored = cert_doc.get("status")
    status, detail = certify.verdict(residual, lhs, rhs, certify.TOL_STAT, certify.TOL_BOUND)
    # a missing kappa refutes only a VERIFIED claim; the other rungs refute any
    if status != VERIFIED and (detail != "KAPPA_UNAVAILABLE" or stored == VERIFIED):
        failures.append(f"{detail}: residual {residual:.3e}, bound {lhs:.6e} <= {rhs}")
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
                           point=x, descent_witness=exc.witness, seed=args.seed,
                           notes=[str(exc)])
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
    _finite(u, "direction")
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
    reports = calculus.cq_reports(comp, calculus.CQ_CONDITIONS if args.which == "all"
                                  else (args.which,), seed=args.seed)
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
    if not isinstance(cert_doc, dict):
        raise CliError("certificate file must hold a JSON object")
    prob_doc = load_problem(args.problem)
    try:
        return recheck(cert_doc, prob_doc, log=lambda m: print(m, file=sys.stderr))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
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


def _seed(text):
    """A ``--seed`` value: numpy's generators take nonnegative integers only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {seed}")
    return seed


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
        sp.add_argument("--seed", type=_seed, default=42)
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
