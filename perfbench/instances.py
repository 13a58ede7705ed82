"""Seeded problem generators with answers known from their construction.

Everything here uses numpy only and never imports varcert, so the known
answers are independent of the program under test:

* nlp: f has an invertible Jacobian J at the point, so the multiplier is
  unique and equals -J^{-T} grad(objective), computed with numpy.linalg.solve;
* sdp: the kernel of Phi(x) comes from numpy.linalg.eigh, and the multiplier
  is a multiple of the identity on it, so its trace is known;
* sip: the fixtures have an analytic modulus kappa and analytic atoms.

Each workload is a sequence of cycles.  A cycle always holds the same kinds
of instance in the same proportions, and instance sizes follow a fixed
schedule over the slots of consecutive cycles (see ``spread``), so every run
of a given length covers the same sizes and cycles cost about the same; the
seed draws only the numbers.  Cost varies steeply with size, and random
sizes made per-run figures depend on the seed more than on the program.  Numbers are written with ``repr`` so the
problem files hold exactly the doubles the answers were computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXIT_OF_STATUS = {"VERIFIED": 0, "REFUTED": 1, "INCONCLUSIVE": 2}

# varcert's bound tolerance; a sampled kappa that lands within BAND of the
# exact ratio may give either verdict
TOL_BOUND = 1e-6
BAND = 1e-5


GOLDEN = 0.6180339887498949


def spread(t, count) -> int:
    """An integer in [0, count) from slot t; consecutive slots cover the range evenly."""
    return int(((t + 1) * GOLDEN) % 1.0 * count)


def num(v) -> str:
    return repr(float(v))


def csv(values) -> str:
    return ",".join(num(v) for v in values)


def shifted(j, c) -> str:
    return f"(x{j + 1} - {num(c)})"


@dataclass
class Call:
    """One issuing call: subcommand, its arguments, and its known-answer check.

    ``check(exit_code, output_document)`` returns None when the output is
    one the construction allows, else the reason it is not.
    """

    command: str
    args: list
    check: Callable[[int, dict], str | None]

    @property
    def writes_certificate(self) -> bool:
        return self.command != "cq"


@dataclass
class Instance:
    label: str
    problem: dict
    calls: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# known-answer checks

def _exit_matches(code, doc):
    want = EXIT_OF_STATUS.get(doc.get("status"))
    if code != want:
        return f"exit code {code} does not match status {doc.get('status')}"
    return None


def expect_status(status, detail=None):
    def check(code, doc):
        if doc.get("status") != status or doc.get("detail") != detail:
            return f"expected {status}/{detail}, got {doc.get('status')}/{doc.get('detail')}"
        return _exit_matches(code, doc)
    return check


def expect_bound(lhs, scale, kappa=None, kappa_exact=None, multipliers=None, atoms=None):
    """Dual certificate whose verdict follows from the exact bound lhs.

    ``scale`` is the factor times ||grad objective||, so rhs = kappa * scale.
    With ``kappa`` given (user-asserted) the certificate must carry it;
    with None the kappa is estimated by sampling and may be unavailable,
    and when ``kappa_exact`` is known an estimate must lie within a factor
    of two of it.  ``atoms`` is a list of (s, lambda, s_tol) the
    certificate must hold.
    """

    def check(code, doc):
        bad = _exit_matches(code, doc)
        if bad:
            return bad
        bound = doc.get("bound") or {}
        k = bound.get("kappa")
        if kappa is not None and (k is None or abs(k - kappa) > 1e-9 * (1.0 + kappa)):
            return f"certificate kappa {k} differs from the asserted {kappa}"
        if k is None:
            if (doc.get("status"), doc.get("detail")) != ("INCONCLUSIVE", "KAPPA_UNAVAILABLE"):
                return f"no kappa but status {doc.get('status')}/{doc.get('detail')}"
            return None
        if kappa_exact is not None and not 0.5 <= k / kappa_exact <= 2.0:
            return f"estimated kappa {k:.6g} is far from the exact {kappa_exact:.6g}"
        rhs = k * scale
        if abs((bound.get("rhs") or 0.0) - rhs) > 1e-9 * (1.0 + rhs):
            return f"bound rhs {bound.get('rhs')} differs from kappa*scale {rhs}"
        limit = rhs + TOL_BOUND * (1.0 + rhs)
        allowed = set()
        if lhs <= limit + BAND * (1.0 + rhs):
            allowed.add(("VERIFIED", None))
        if lhs >= limit - BAND * (1.0 + rhs):
            allowed.add(("REFUTED", "BOUND_EXCEEDED"))
        got = (doc.get("status"), doc.get("detail"))
        if got not in allowed:
            return f"exact lhs {lhs:.9g} vs rhs {rhs:.9g} allows {sorted(allowed, key=str)}, got {got}"
        if abs((bound.get("lhs") or 0.0) - lhs) > 1e-6 * (1.0 + lhs):
            return f"bound lhs {bound.get('lhs')} differs from the exact {lhs}"
        if multipliers is not None:
            lam = np.array(doc.get("multipliers") or [], dtype=float)
            if lam.shape != multipliers.shape or \
                    np.linalg.norm(lam - multipliers) > 1e-6 * (1.0 + np.linalg.norm(multipliers)):
                return "multipliers differ from -J^{-T} grad objective"
        if atoms is not None:
            got_atoms = doc.get("atoms") or []
            if len(got_atoms) != len(atoms):
                return f"expected {len(atoms)} atom(s), got {len(got_atoms)}"
            for atom, (s, lam, s_tol) in zip(got_atoms, atoms):
                if np.max(np.abs(np.array(atom["s"]) - s)) > s_tol or \
                        abs(atom["lambda"] - lam) > 1e-6 * (1.0 + lam):
                    return f"atom {atom} differs from s={list(s)}, lambda={lam}"
        return None

    return check


def expect_cq(allowed):
    """``cq --which all``: each report's verdict is one ``allowed`` permits."""

    def check(code, doc):
        worst = 0
        for name, verdicts in allowed.items():
            rep = doc.get(name)
            if rep is None or rep.get("verdict") not in verdicts:
                return f"{name} verdict {None if rep is None else rep.get('verdict')} not in {verdicts}"
            worst = max(worst, {"VERIFIED": 0, "REFUTED": 2}.get(rep["verdict"], 1))
        want = {0: 0, 1: 2, 2: 1}[worst]
        if code != want:
            return f"cq exit code {code}, reports imply {want}"
        return None

    return check


# ---------------------------------------------------------------------------
# generators

def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _polyhedron(rng, ybar, r_act, tilt, slack):
    """Rows active at ybar (b = a.ybar) plus one or two inactive ones.

    With ``tilt`` None the active rows are independent Gaussians, which can
    make degenerate vertices.  Otherwise they are orthonormal rows plus
    Gaussian noise of scale ``tilt``: Dykstra's iteration count grows
    without bound as active rows approach parallel, and Gaussian rows gave
    single estimated-kappa calls from 0.03 s to 27 s.
    """
    m = len(ybar)
    if tilt is None:
        G = rng.standard_normal((r_act, m))
    else:
        G = _orthogonal(rng, m)[:r_act] + tilt * rng.standard_normal((r_act, m))
    H = rng.standard_normal((int(rng.integers(1, 3)), m))
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    A = np.vstack([G, H])
    b = np.concatenate([G @ ybar, H @ ybar + rng.uniform(*slack, len(H))])
    return G, {"A_ineq": A.tolist(), "b_ineq": b.tolist()}


def _nlp(rng, n, r_act, nonlinear, tilt=None, slack=(0.2, 1.0)):
    """f(x) = ybar + J (x - c) + terms with zero derivative at c.

    Returns c, J, the Theta document, f's component strings and
    lambda_0 = G^T w with w > 0 over the active rows G, so lambda_0 lies in
    the normal cone of Theta at ybar.
    """
    c = rng.uniform(-1.0, 1.0, n)
    J = _orthogonal(rng, n) @ np.diag(rng.uniform(0.7, 1.5, n)) @ _orthogonal(rng, n)
    ybar = rng.uniform(-1.0, 1.0, n)
    G, theta = _polyhedron(rng, ybar, r_act, tilt, slack)
    f = []
    for i in range(n):
        terms = [num(ybar[i])] + [f"{num(J[i, j])}*{shifted(j, c[j])}" for j in range(n)]
        p, q = rng.integers(0, n, 2)
        terms.append(f"{num(rng.uniform(-1, 1))}*{shifted(p, c[p])}^2")
        terms.append(f"{num(rng.uniform(-1, 1))}*{shifted(p, c[p])}*{shifted(q, c[q])}")
        if nonlinear:
            # bounded growth: with exp here, Gauss-Newton steps of the
            # sampled oracle overflow f and varcert fails (see README.md)
            terms.append(f"{num(rng.uniform(-0.5, 0.5))}*(sin{shifted(q, c[q])} - {shifted(q, c[q])})")
            terms.append(f"{num(rng.uniform(-0.5, 0.5))}*(1 - cos{shifted(p, c[p])})")
        f.append(" + ".join(terms))
    lam0 = G.T @ rng.uniform(0.2, 1.5, r_act)
    return c, J, theta, f, lam0


def _objective(rng, g, c):
    n = len(g)
    terms = [f"{num(g[j])}*x{j + 1}" for j in range(n)]
    terms += [f"{num(rng.uniform(0.5, 2.0))}*{shifted(j, c[j])}^2" for j in range(n)]
    return " + ".join(terms)


def _kappa(rng, ratio, refuted):
    return ratio * (rng.uniform(0.4, 0.8) if refuted else rng.uniform(1.25, 3.0))


def nlp_asserted(rng, label, refuted, n, t):
    """Polynomial nlp at a possibly degenerate vertex (up to 3n active rows)."""
    c, J, theta, f, lam0 = _nlp(rng, n, 1 + spread(t, 3 * n), nonlinear=False)
    g = -J.T @ lam0
    lam = -np.linalg.solve(J.T, g)
    ratio = np.linalg.norm(lam) / np.linalg.norm(g)
    kappa = _kappa(rng, ratio, refuted)
    seed = int(rng.integers(0, 2**31))
    doc = {"kind": "nlp", "n": n, "objective": _objective(rng, g, c),
           "constraints": {"f": f, "Theta": theta}}
    point = f"--point={csv(c)}"
    return Instance(label, doc, [
        Call("kkt", [point, f"--kappa={num(kappa)}", f"--seed={seed}"],
             expect_bound(np.linalg.norm(lam), np.linalg.norm(g), kappa=kappa, multipliers=lam)),
        Call("primal", [point, f"--seed={seed}"], expect_status("VERIFIED")),
    ])


def sdp_asserted(rng, label, refuted, t):
    """Phi(c) has a k-dimensional kernel; the multiplier is w*I on it.

    With n at least the number of unknowns (k(k+1)/2 kernel entries plus
    the Psi entries) the map from multipliers to gradients is injective,
    so every representation has the same trace and the bound lhs is exact.
    ``refuted`` is None, "bound" or "stationarity".
    """
    m = 4 + spread(t, 13)
    k = 1 + t % 3
    psi = (t // 3) % 3 == 0
    pairs = [(p, q) for p in range(k) for q in range(p, k)]
    psi_entries = [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)] if psi else []
    n = len(pairs) + len(psi_entries) + 1 + (t // 9) % 3
    c = rng.uniform(-1.0, 1.0, n)
    Q = _orthogonal(rng, m)
    Phi0 = Q @ np.diag(np.concatenate([np.zeros(k), -rng.uniform(0.5, 2.0, m - k)])) @ Q.T
    Phi0 = 0.5 * (Phi0 + Phi0.T)
    evals, evecs = np.linalg.eigh(Phi0)
    K = evecs[:, np.argsort(np.abs(evals))[:k]]
    while True:
        D = np.zeros((n, m, m))
        for i in range(m):
            for j in range(i, m):
                for l in rng.choice(n, size=min(n, 2), replace=False):
                    D[l, i, j] = D[l, j, i] = rng.uniform(-1.0, 1.0)
        B = rng.uniform(-1.0, 1.0, (len(psi_entries), n))
        KDK = np.einsum("ip,lij,jq->lpq", K, D, K)
        cols = [KDK[:, p, q] * (1.0 if p == q else 2.0) for p, q in pairs]
        cols += [fac * B[e] for e, (_, _, fac) in enumerate(psi_entries)]
        C = np.array(cols).T
        if np.linalg.matrix_rank(C, tol=1e-6) == C.shape[1]:
            break
    w = rng.uniform(0.5, 2.0)
    mu = rng.uniform(0.2, 1.0, len(psi_entries)) * rng.choice([-1.0, 1.0], len(psi_entries))
    image = w * np.trace(KDK, axis1=1, axis2=2) + sum(
        fac * mu[e] * B[e] for e, (_, _, fac) in enumerate(psi_entries))
    g = -image
    if refuted == "stationarity":
        U, _, _ = np.linalg.svd(C)
        g = g + rng.uniform(0.3, 1.0) * np.linalg.norm(g) * U[:, -1]
    total = k * w + sum(fac * abs(mu[e]) for e, (_, _, fac) in enumerate(psi_entries))
    kappa = _kappa(rng, total / (2.0 * np.linalg.norm(g)), refuted == "bound")

    def entry(i, j):
        terms = [num(Phi0[i, j])]
        terms += [f"{num(D[l, i, j])}*{shifted(l, c[l])}" for l in range(n) if D[l, i, j] != 0.0]
        if rng.random() < 0.25:
            l = int(rng.integers(0, n))
            terms.append(f"{num(rng.uniform(-1, 1))}*{shifted(l, c[l])}^2")
        return " + ".join(terms)

    Phi = [[entry(i, j) if j >= i else None for j in range(m)] for i in range(m)]
    cons = {"Phi": Phi}
    if psi:
        Psi = [[None, None], [None, None]]
        for e, (i, j, _) in enumerate(psi_entries):
            Psi[i][j] = " + ".join(f"{num(B[e, l])}*{shifted(l, c[l])}" for l in range(n))
        cons["Psi"] = Psi
    doc = {"kind": "sdp", "n": n, "objective": _objective(rng, g, c), "constraints": cons}
    seed = int(rng.integers(0, 2**31))
    if refuted == "stationarity":
        check = expect_status("REFUTED", "NO_MULTIPLIER")
    else:
        check = expect_bound(total, 2.0 * np.linalg.norm(g), kappa=kappa)
    return Instance(label, doc, [
        Call("sdp", [f"--point={csv(c)}", f"--kappa={num(kappa)}", f"--seed={seed}"], check)])


def sip_asserted(rng, label, refuted, t):
    """One index with an isolated active index s* and a constant x-gradient a.

    theta = a.(x - c) + e*(x1 - c1)^2*s1 - beta*(s1 - s*)^2.  The multiplier
    is one atom at s* with weight lambda, and kappa >= 1/||a|| suffices.
    """
    n = 1 + t % 4
    c = rng.uniform(-1.0, 1.0, n)
    lo = rng.uniform(-1.0, 0.0)
    hi = lo + rng.uniform(0.5, 2.0)
    s_star = rng.uniform(lo, hi)
    a = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    lam = rng.uniform(0.3, 2.0)
    g = -lam * a
    if refuted == "stationarity":
        g = -g
        if n > 1:
            perp = rng.standard_normal(n)
            perp -= (perp @ a) / (a @ a) * a
            g = g + perp
    lin = " + ".join(f"{num(a[j])}*{shifted(j, c[j])}" for j in range(n))
    theta = (f"{lin} + {num(rng.uniform(-1, 1))}*{shifted(0, c[0])}^2*s1"
             f" - {num(rng.uniform(0.5, 3.0))}*(s1 - {num(s_star)})^2")
    kappa = _kappa(rng, 1.0 / np.linalg.norm(a), refuted == "bound")
    doc = {"kind": "sip", "n": n, "objective": _objective(rng, g, c),
           "constraints": {"theta": theta, "S": [[lo, hi]]}}
    seed = int(rng.integers(0, 2**31))
    if refuted == "stationarity":
        check = expect_status("REFUTED", "NO_MULTIPLIER")
    else:
        check = expect_bound(lam, np.linalg.norm(g), kappa=kappa,
                             atoms=[(np.array([s_star]), lam, 1e-3)])
    return Instance(label, doc, [
        Call("sip", [f"--point={csv(c)}", f"--kappa={num(kappa)}", f"--seed={seed}"], check)])


def certify_asserted_cycle(rng, index):
    """Four nlp, two sdp and two sip instances; two of the eight are REFUTED.

    One nlp instance has kappa below the exact ratio.  The other REFUTED one
    alternates between sdp and sip and is non-stationary or below the ratio.
    """
    odd = index % 2 == 1
    other = str(rng.choice(["stationarity", "bound"]))
    # n = 2..12, spread over the four nlp slots of every cycle
    insts = [nlp_asserted(rng, f"nlp{i}", (i == 0), 2 + (index + 3 * i) % 11, 4 * index + i)
             for i in range(4)]
    insts += [sdp_asserted(rng, f"sdp{i}", other if (i == 0 and not odd) else None,
                           2 * index + i) for i in range(2)]
    insts += [sip_asserted(rng, f"sip{i}", other if (i == 0 and odd) else None,
                           2 * index + i) for i in range(2)]
    return [insts[i] for i in rng.permutation(len(insts))]


# scale of the noise added to nlp_estimate's orthonormal Theta rows (see _polyhedron)
TILT = 0.15


def nlp_estimate_cycle(rng, index):
    """Four small nonlinear nlp instances: kkt with sampled kappa, and cq.

    J is invertible, so Robinson's condition holds exactly, and Abadie and
    metric subregularity hold too; a sampled check may only fail to confirm
    them.  The kkt verdict must agree with the exact multiplier at whatever
    kappa the sampler reports.
    """
    insts = []
    for i in range(4):
        t = 4 * index + i
        n = 2 + t % 3
        c, J, theta, f, lam0 = _nlp(rng, n, 1 + spread(t, n), nonlinear=True,
                                    tilt=TILT, slack=(2.0, 3.0))
        g = -J.T @ lam0
        lam = -np.linalg.solve(J.T, g)
        seed = int(rng.integers(0, 2**31))
        doc = {"kind": "nlp", "n": n, "objective": _objective(rng, g, c),
               "constraints": {"f": f, "Theta": theta}}
        point = f"--point={csv(c)}"
        insts.append(Instance(f"nlp{i}", doc, [
            Call("kkt", [point, "--kappa=estimate", f"--seed={seed}"],
                 expect_bound(np.linalg.norm(lam), np.linalg.norm(g), multipliers=lam)),
            Call("cq", [point, "--which=all", f"--seed={seed}"],
                 expect_cq({"robinson": {"VERIFIED"},
                            "abadie": {"VERIFIED", "INCONCLUSIVE"},
                            "msqc": {"VERIFIED", "INCONCLUSIVE"}})),
        ]))
    return insts


def sip_estimate_cycle(rng, index):
    """The README 1-D fixture, the cubic and slack fixtures, and a 2-index one.

    The seed scales each objective by alpha and shifts x by c and the index
    box by d.  The constraint's own scale stays that of the test fixtures,
    since the kappa estimate's cost depends on it and the objective does not
    enter the estimate.  Every certificate uses the sampled kappa with
    varcert's default sampling seed, so the estimate samples the same
    offsets from the point in every cycle and its cost does not vary with
    the seed.
    """
    def fixture(label, objective, theta, box, c, check):
        return Instance(label, {
            "kind": "sip", "n": 1, "objective": objective,
            "constraints": {"theta": theta, "S": box}},
            [Call("sip", [f"--point={num(c)}", "--kappa=estimate"], check)])

    insts = []
    alpha, c, d = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    # theta = (s1 - d)*(x1 - c) on [d, d+1]: every s is active, the cheapest
    # multiplier is one atom at s = d+1 with weight alpha, and kappa = 1
    insts.append(fixture(
        "readme", f"{num(-alpha)}*x1", f"(s1 - {num(d)})*{shifted(0, c)}", [[d, d + 1.0]], c,
        expect_bound(alpha, alpha, kappa_exact=1.0, atoms=[(np.array([d + 1.0]), alpha, 1e-6)])))
    # every active gradient vanishes, so no multiplier exists
    alpha, c, d = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    insts.append(fixture(
        "cubic", f"{num(-alpha)}*x1", f"(s1 - {num(d)})*{shifted(0, c)}^3", [[d, d + 1.0]], c,
        expect_status("REFUTED", "NO_MULTIPLIER")))
    # the constraint is slack at c and the gradient is nonzero: not stationary
    alpha, c, d = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    insts.append(fixture(
        "slack", f"{num(alpha)}*x1", f"(s1 - {num(d)})*{shifted(0, c)} - 1", [[d, d + 1.0]], c,
        expect_status("REFUTED", "NO_MULTIPLIER")))
    # theta = (x1 - c) - |s - s*|^2 on a 2-d box: one isolated active index
    # s*, lambda = alpha and kappa = 1
    alpha, c = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    d = rng.uniform(-1.0, 1.0, 2)
    s_star = d + rng.uniform(0.2, 0.8, 2)
    insts.append(fixture(
        "two_index", f"{num(-alpha)}*x1",
        f"{shifted(0, c)} - (s1 - {num(s_star[0])})^2 - (s2 - {num(s_star[1])})^2",
        [[d[0], d[0] + 1.0], [d[1], d[1] + 1.0]], c,
        expect_bound(alpha, alpha, kappa_exact=1.0, atoms=[(s_star, alpha, 1e-3)])))
    return [insts[i] for i in rng.permutation(len(insts))]


CYCLES = {
    "certify_asserted": certify_asserted_cycle,
    "nlp_estimate": nlp_estimate_cycle,
    "sip_estimate": sip_estimate_cycle,
}


def cycle(workload, seed, index):
    """The ``index``-th cycle of a workload; equal arguments give equal cycles."""
    rng = np.random.default_rng([seed, index, sorted(CYCLES).index(workload)])
    return CYCLES[workload](rng, index)
