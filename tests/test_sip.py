import dataclasses
import functools
import itertools
import json
import warnings

import numpy as np
import pytest

from varcert import cli, sip, solvers
from varcert.calculus import REFUTED, VERIFIED
from varcert.errors import InfeasiblePointError, KinkWarning
from varcert.sip import (
    SIProblem,
    active_indexes,
    caratheodory_reduce,
    certify,
    emfcq_check,
    sip_kappa_estimate,
    sup_violation,
)


def linear_sip(objective="-x1"):
    return SIProblem.from_strings(1, objective, theta="s1*x1", S=[(0.0, 1.0)])


def test_sup_violation_examples():
    p = linear_sip()
    v, s = sup_violation(p, [2.0])
    assert v == pytest.approx(2.0, abs=1e-9)
    assert s[0] == pytest.approx(1.0, abs=1e-9)
    v, _ = sup_violation(p, [-1.0])
    assert v == 0.0
    p2 = SIProblem.from_strings(1, "x1", theta="x1 - (s1 - 0.5)^2", S=[(0.0, 1.0)])
    v, s = sup_violation(p2, [0.25])
    assert v == pytest.approx(0.25, abs=1e-9)
    assert s[0] == pytest.approx(0.5, abs=1e-4)


def drain(price, y, floor):
    """Every (tag, index, gradient) that ``price`` offers at one y, in the
    order offered."""
    out = []
    while (new := price(np.asarray(y, dtype=float), floor)) is not None:
        (tag, s), g = new
        out.append((tag, s, g))
    return out


def test_active_indexes_examples():
    """The seed is the polished argmax of each family when it is active;
    price offers each active index of every family with
    <sign * grad_x e, y> > floor once, with its exact gradient, tagged with
    None for theta and with the sign of a +/-psi family."""
    p = linear_sip()
    seed, price = active_indexes(p, [0.0])
    ((tag, s), g), = seed
    assert tag is None and g == pytest.approx([s[0]])
    assert price(np.array([-1.0]), 0.0) is None  # every column s has <s, -1> <= 0
    offered = drain(price, [1.0], 0.5)  # the whole box is active: the cells with s > 0.5
    assert all(tag is None for tag, _, _ in offered)
    assert [s[0] for _, s, _ in offered] == pytest.approx(np.linspace(0.0, 1.0, 64)[32:][::-1])
    assert all(g == pytest.approx(s) for _, s, g in offered)
    assert [s[0] for _, s, _ in drain(price, [1.0], 0.0)] == \
        pytest.approx(np.linspace(0.0, 1.0, 64)[1:32][::-1])  # each offered once
    p2 = SIProblem.from_strings(1, "x1", theta="s1*x1 - 1", S=[(0.0, 1.0)])
    seed, price = active_indexes(p2, [0.0])
    assert seed == [] and price(np.array([1.0]), -1e9) is None
    p3 = SIProblem.from_strings(1, "x1", theta="0 - (s1 - 0.5)^2", S=[(0.0, 1.0)])
    ((_, s), g), = active_indexes(p3, [7.0])[0]
    assert s[0] == pytest.approx(0.5, abs=1e-4) and g.tolist() == [0.0]
    with pytest.raises(InfeasiblePointError):
        active_indexes(p, [1.0])
    # psi = t1*x1 on T = [0, 1] at x = 0: the families +psi and -psi are
    # active on every cell, with columns +t1 and -t1
    eq = SIProblem.from_strings(1, "x1", psi="t1*x1", T=[(0.0, 1.0)])
    seed, price = active_indexes(eq, [0.0])
    assert [tag for (tag, _), _ in seed] == [sign for _, sign, _ in eq.families] == [1.0, -1.0]
    assert all(g == pytest.approx([tag * s[0]]) for (tag, s), g in seed)
    offered = drain(price, [-1.0], 0.5)
    assert all(tag == -1.0 for tag, _, _ in offered)
    assert [s[0] for _, s, _ in offered] == pytest.approx(np.linspace(0.0, 1.0, 64)[32:][::-1])
    assert all(g == pytest.approx(-s) for _, s, g in offered)
    with pytest.raises(InfeasiblePointError):
        active_indexes(SIProblem.from_strings(1, "x1", psi="t1*x1 - 1", T=[(0.0, 1.0)]), [0.0])


def test_a_cell_turned_down_at_one_dual_stays_a_candidate(monkeypatch):
    """theta = s1*x1 - (s1 - 0.5)^2 at x = 0 is active at s = 0.5 only, where
    grad_x theta = 0.5; the grid cells beside it sit below -TOL_ACTIVE and
    their screened gradients are their own s.  Priced at floor 0.5, the
    cells above 0.5 pass the screen, are polished onto 0.5 and turned down by
    the exact gradient; at floor 0.4 they are offered.  Each cell is polished
    once."""
    p = SIProblem.from_strings(1, "x1", theta="s1*x1 - (s1 - 0.5)^2", S=[(0.0, 1.0)])
    seed, price = active_indexes(p, [0.0])
    assert seed[0][0][1][0] == pytest.approx(0.5, abs=1e-6)
    polished = []
    real = sip._polish_max
    monkeypatch.setattr(sip, "_polish_max",
                        lambda v, g, s0, box, steps=100: polished.append(float(s0[0]))
                        or real(v, g, s0, box, steps))
    assert price(np.array([1.0]), 0.5) is None
    assert len(polished) == 2 and all(s > 0.5 for s in polished)  # 32/63 and 33/63
    (_, s), g = price(np.array([1.0]), 0.4)
    assert s[0] == pytest.approx(0.5, abs=1e-6) and g[0] == pytest.approx(0.5, abs=1e-6)
    drain(price, [1.0], 0.0)
    assert len(polished) == len(set(polished))  # never the same cell twice


def test_sip_kappa_estimate_examples():
    rep = sip_kappa_estimate(linear_sip(), [0.0], seed=3)
    assert rep.verdict == VERIFIED
    assert 0.9 <= rep.kappa_hat <= 1.1
    p_cubic = SIProblem.from_strings(1, "-x1", theta="s1*x1^3", S=[(0.0, 1.0)])
    rep = sip_kappa_estimate(p_cubic, [0.0], seed=3)
    assert rep.diverging
    p_slack = SIProblem.from_strings(1, "x1", theta="s1*x1 - 1", S=[(0.0, 1.0)])
    rep = sip_kappa_estimate(p_slack, [0.0], seed=3)
    assert rep.verdict == VERIFIED
    assert rep.kappa_hat == 0.0


def test_emfcq_check_remark_fixture():
    rep = emfcq_check(linear_sip(), [0.0])
    assert rep.verdict == REFUTED  # s = 0 is active with zero gradient


def test_certify_remark_fixture():
    cert = certify(linear_sip(), [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    assert len(cert.atoms) == 1
    (s, lam), = cert.atoms
    assert s[0] == pytest.approx(1.0, abs=1e-9)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_lhs == pytest.approx(cert.kappa * 1.0, abs=1e-6)
    assert cert.residual <= 1e-7


def test_certify_no_multiplier_by_sign():
    """theta priced by the exchange loop, and psi alone (one LP): one note."""
    for p in (SIProblem.from_strings(1, "x1", theta="s1*x1", S=[(0.0, 1.0)]),
              SIProblem.from_strings(1, "x1", psi="t1*x1^2", T=[(0.0, 1.0)])):
        cert = certify(p, [0.0], kappa=1.0)
        assert (cert.kind, cert.status, cert.detail) == ("SIP", REFUTED, "NO_MULTIPLIER")
        assert cert.notes == ["no atomic multiplier"] and cert.atoms is None


def test_no_active_index_and_a_gradient_within_tol_stat_take_the_empty_multiplier():
    """theta = s1*x1 - 1 is -1 at x = 0 for every s: no index is active.  A
    gradient of norm 1e-8, above the exchange loop's fit tolerance, is
    within TOL_STAT, and the empty multiplier is VERIFIED."""
    p = SIProblem.from_strings(1, "1e-8*x1", theta="s1*x1 - 1", S=[(0.0, 1.0)])
    cert = certify(p, [0.0], kappa=1.0)
    assert cert.status == VERIFIED and cert.atoms == [] and cert.residual == 1e-8
    cert = certify(SIProblem.from_strings(1, "x1", theta="s1*x1 - 1", S=[(0.0, 1.0)]), [0.0],
                   kappa=1.0)
    assert (cert.status, cert.detail, cert.notes) == (REFUTED, "NO_MULTIPLIER",
                                                      ["no atomic multiplier"])


def test_the_family_sup_is_the_best_of_theta_and_both_psi_signs():
    """The box family's sup ranges over theta on S and +/-psi on T, and its
    argmax atom is tagged None for theta and with the sign for psi."""
    p = SIProblem.from_strings(1, "x1", theta="s1*x1 - 1", S=[(0.0, 1.0)],
                               psi="t1 - x1", T=[(0.0, 1.0)])
    v, (tag, t), _ = p.family([2.0]).sup()
    assert (v, tag, list(t)) == (2.0, -1.0, [0.0])  # -psi(2, 0) = 2 beats theta(2, 1) = 1
    v, (tag, s), text = SIProblem.from_strings(1, "x1", theta="s1*x1 - 1", S=[(0.0, 1.0)]).family(
        [3.0]).sup()
    assert (v, tag, list(s), text) == (2.0, None, [1.0], "sup violation 2.000e+00 exceeds tol_feas")


def test_flat_face_takes_one_atom_at_the_far_corner(monkeypatch):
    """theta = s1*x1 + s2*x2 on [0,1]^2, objective -x1-x2 at 0: every index is
    active and lambda = 1 at s = (1, 1) is the least multiplier.  The
    exchange loop finds it from one LP of 2 columns: the nnls residual of the
    seed at the polished argmax prices the corner, and the LP's duals price
    nothing more."""
    widths = []
    real = sip.conic_fit
    monkeypatch.setattr(sip, "conic_fit", lambda target, rays: widths.append(
        np.shape(rays)[1]) or real(target, rays))
    p = SIProblem.from_strings(2, "-x1 - x2", theta="s1*x1 + s2*x2", S=[(0.0, 1.0), (0.0, 1.0)])
    cert = certify(p, [0.0, 0.0], kappa=2.0)
    assert (cert.status, cert.atoms, cert.bound_lhs) == ("VERIFIED", [([1.0, 1.0], 1.0)], 1.0)
    assert widths == [2]


def test_the_readme_fixture_takes_one_lp(monkeypatch):
    """theta = s1*x1 on [0, 1], objective -x1 at 0: the seed's gradient is 0,
    its nnls residual prices s = 1, and one LP fits lambda = 1 there."""
    calls = []
    real = solvers.lp_solve
    monkeypatch.setattr(solvers, "lp_solve", lambda lp: calls.append(lp) or real(lp))
    cert = certify(linear_sip(), [0.0], kappa="estimate")
    assert (cert.status, cert.atoms) == ("VERIFIED", [([1.0], 1.0)])
    assert len(calls) == 1


def test_a_tiny_target_prices_from_its_normalized_residual():
    """theta = 0.2*s1*x1 on [0, 1], objective -3e-9*x1 at 0: the residual r =
    3e-9 of the seed prices s = 1 at <0.2, r / |r|> = 0.2.  Unscaled, <0.2,
    r> = 6e-10 is below the pricing floor 1e-9, and nothing would fit."""
    p = SIProblem.from_strings(1, "-3e-9*x1", theta="0.2*s1*x1", S=[(0.0, 1.0)])
    cert = certify(p, [0.0], kappa=10.0)
    assert cert.status == "VERIFIED"
    (s, lam), = cert.atoms
    assert s == [1.0] and lam == pytest.approx(1.5e-8, rel=1e-9)


def _pool_price(pool, taken=(), offers=None):
    """``price(y, floor)`` over the columns of ``pool``: the best <c, y> >
    floor + 1e-9 among columns neither ``taken`` nor offered yet, as (index,
    column).  Each call's (y, floor) goes to ``offers``."""
    offered = np.isin(np.arange(pool.shape[1]), taken)

    def price(y, floor):
        if offers is not None:
            offers.append((np.array(y), floor))
        scores = np.where(offered, -np.inf, y @ pool)
        j = int(np.argmax(scores))
        if scores[j] <= floor + 1e-9:
            return None
        offered[j] = True
        return j, pool[:, j].copy()

    return price


def _two_phase_atoms(atoms, cols, target, price):
    """The exchange loop that ``stationarity_atoms`` replaced, as reference:
    phase 1 minimizes the L1 residual over [C | I | -I] at zero atom cost
    and prices its duals at floor 0 until the residual is 0, then phase 2
    minimizes sum(w) over C and prices at floor 1."""
    atoms, cols, n = list(atoms), list(cols), len(target)
    tol = 1e-9 * (1.0 + float(np.linalg.norm(target)))
    for floor in (0.0, 1.0):
        while True:
            C = np.array(cols, dtype=float).reshape(len(cols), n).T
            slack = np.eye(n)[:, :n if floor == 0.0 else 0]
            A = np.hstack([C, slack, -slack])
            cost = np.r_[np.full(C.shape[1], floor), np.ones(A.shape[1] - C.shape[1])]
            sol = solvers.lp_solve(solvers.LPProblem(c=cost, A=A, b=target, senses=["="] * n,
                                                     bounds=[(0.0, None)] * len(cost)))
            if sol.status != solvers.OPTIMAL:
                return None
            w, residual = sol.x[:C.shape[1]], float(np.sum(sol.x[C.shape[1]:]))
            if (floor == 0.0 and residual <= tol) or (new := price(sol.y, floor)) is None:
                break
            atoms.append(new[0])
            cols.append(new[1])
        if residual > tol:
            return None
    return [(a, float(x)) for a, x in zip(atoms, w) if x > 0.0]


def _exchange_instances():
    """Seeded (target, pool, start) triples: a target in the pool's cone on
    even trials, a free one on odd trials, from 0 to 2 start columns."""
    rng = np.random.default_rng(40)
    for trial in range(120):
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 13))
        pool = rng.normal(size=(n, k))
        if trial % 2 == 0:
            weights = np.where(rng.uniform(size=k) < 0.4, rng.uniform(0.1, 2.0, size=k), 0.0)
            target = pool @ weights
        else:
            target = rng.normal(size=n)
        yield trial, target, pool, list(range(int(rng.integers(0, 3))))[:k]


def test_one_loop_agrees_with_the_two_phase_loop():
    """Over seeded targets and pools, stationarity_atoms and the two-phase
    loop agree on fit versus None and on the least sum(w).  The working set
    stationarity_atoms returns is the start, then each offer once, and
    holds the fit's atoms."""
    fits = 0
    for trial, target, pool, start in _exchange_instances():
        cols = [pool[:, j] for j in start]
        ours, taken = sip.stationarity_atoms(start, cols, target, _pool_price(pool, start))
        ref = _two_phase_atoms(start, cols, target, _pool_price(pool, start))
        assert (ours is None) == (ref is None), trial
        assert taken[:len(start)] == start and len(set(taken)) == len(taken), trial
        if ours is not None:
            fits += 1
            total = sum(w for _, w in ours)
            assert total == pytest.approx(sum(w for _, w in ref), rel=1e-9, abs=1e-12), trial
            assert np.allclose(sum(w * pool[:, j] for j, w in ours), target, atol=1e-8), trial
            assert {j for j, _ in ours} <= set(taken), trial
    assert 60 < fits < 120


def test_no_fit_leaves_the_farkas_direction_it_priced_from():
    """When stationarity_atoms returns None, its last floor-0 price was a
    Farkas direction d, r / ||r||_inf for the nnls residual r or the LP's:
    <c, d> <= 1e-9 for every pool column and <target, d> > 0."""
    misses = 0
    for trial, target, pool, _ in _exchange_instances():
        offers = []
        found, _ = sip.stationarity_atoms([], [], target, _pool_price(pool, offers=offers))
        if found is not None:
            continue
        misses += 1
        d = [y for y, floor in offers if floor == 0.0][-1]
        assert (d @ pool <= 1e-9).all() and target @ d > 0.0, trial
    assert misses > 10


def test_a_tiny_gradient_gets_its_large_multiplier():
    """theta = 1e-7*s1*x1 needs lambda = 1e7 at s = 1: no cap on the weights
    may cut it off."""
    p = SIProblem.from_strings(1, "-x1", theta="1e-7*s1*x1", S=[(0.0, 1.0)])
    cert = certify(p, [0.0], kappa=1e10)
    assert cert.status == "VERIFIED"
    (s, lam), = cert.atoms
    assert s == [1.0] and lam == pytest.approx(1e7, rel=1e-12)
    assert cert.residual <= 1e-7


def test_emfcq_on_the_flat_face_and_the_cap():
    """Row generation keeps the verdicts: the flat face has an active index
    (s = 0) with a zero gradient, so no direction exists; the cap's one
    active index has gradient (1, 0), so u = (-1, .) works."""
    flat = SIProblem.from_strings(2, "x1", theta="s1*x1 + s2*x2", S=[(0.0, 1.0), (0.0, 1.0)])
    assert emfcq_check(flat, [0.0, 0.0]).verdict == REFUTED
    cap = SIProblem.from_strings(2, "x1", theta="x1 - (s1 - 0.5)^2 - 4*(s2 - 0.5)^2",
                                 S=[(0.0, 1.0), (0.0, 1.0)])
    rep = emfcq_check(cap, [0.0, 0.0])
    assert rep.verdict == VERIFIED and rep.witness[0] == -1.0


def test_emfcq_without_theta_is_vacuous():
    """A psi-only problem has no inequality family to qualify."""
    p = SIProblem.from_strings(1, "x1", psi="t1*x1", T=[(0.0, 1.0)])
    rep = emfcq_check(p, [0.0])
    assert rep.verdict == VERIFIED and rep.notes == ["no inequality family: condition is vacuous"]


def test_certify_bound_exceeded():
    cert = certify(linear_sip(), [0.0], kappa=0.5)
    assert cert.status == "REFUTED"
    assert cert.detail == "BOUND_EXCEEDED"


def test_certify_grid_refinement_monotonicity():
    base = certify(linear_sip(), [0.0], kappa=1.0, density=16)
    doubled = certify(linear_sip(), [0.0], kappa=1.0, density=32)
    assert base.status == doubled.status == "VERIFIED"


def test_caratheodory_examples():
    mult = caratheodory_reduce(["a", "b"], [0.5, 0.5], [[1.0, 1.0]])
    assert len(mult.atoms) == 1
    assert mult.atoms[0][1] == pytest.approx(1.0)
    mult = caratheodory_reduce(["a"], [2.0], [[1.0]])
    assert mult.atoms == [("a", 2.0)]
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    mult = caratheodory_reduce(["a", "b", "c"], [1.0, 1.0, 1.0], G)
    assert len(mult.atoms) <= 2
    w = np.zeros(3)
    for atom, weight in mult.atoms:
        w["abc".index(atom)] = weight
    assert np.allclose(G @ w, [2.0, 2.0], atol=1e-10)
    assert np.all(w >= 0.0)


def test_caratheodory_random_property():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        K = int(rng.integers(n + 1, 41))
        G = rng.normal(size=(n, K))
        w = rng.random(K)
        target = G @ w
        mult = caratheodory_reduce(list(range(K)), w, G)
        assert len(mult.atoms) <= n
        w2 = np.zeros(K)
        for idx, weight in mult.atoms:
            w2[idx] = weight
            assert weight >= 0.0
        assert np.linalg.norm(G @ w2 - target) <= 1e-10 * (1.0 + np.linalg.norm(target))


def test_certify_with_equalities_examples():
    p = SIProblem.from_strings(1, "-x1", psi="t1*x1", T=[(1.0, 1.0)])
    cert = certify(p, [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    assert len(cert.eq_atoms) == 1
    t, mu = cert.eq_atoms[0]
    assert mu == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.bound_rhs == pytest.approx(2.0, abs=1e-9)  # 2 kappa ||grad||
    assert cert.residual <= 1e-7

    bad = SIProblem.from_strings(1, "-x1", psi="t1*x1 + 1", T=[(1.0, 1.0)])
    with pytest.raises(InfeasiblePointError):
        certify(bad, [0.0], kappa=1.0)

    # the bound factor follows psi: 1 without it, 2 with it
    pure = certify(linear_sip(), [0.0], kappa=1.0)
    assert pure.status == "VERIFIED" and pure.eq_atoms == []
    assert pure.bound_rhs == pytest.approx(1.0, abs=1e-9)
    assert pure.bound_rule == "kappa*||grad objective||"
    assert cert.bound_rule == "2*kappa*||grad objective||"


def test_equality_grid_takes_the_command_density(monkeypatch):
    """The T grid takes --grid or the default for T's own dimension, with no
    cap: 64 for one or two index variables, 16 for three."""
    asked = []
    real = sip._box_grid

    def recording(box, density):
        if box == T:  # T differs from S
            asked.append(density)
            density = 1  # one point is enough to see the request
        return real(box, density)

    monkeypatch.setattr(sip, "_box_grid", recording)
    for T, density, expected in (([(0.0, 2.0)], None, 64), ([(0.0, 2.0)] * 3, None, 16),
                                 ([(0.0, 2.0)] * 3, 8, 8), ([(0.0, 2.0)], 100, 100)):
        asked.clear()
        psi = "*".join(f"t{i + 1}" for i in range(len(T))) + "*x1"
        p = SIProblem.from_strings(2, "x1^2 - x2", theta="x2 - s1", S=[(0.0, 1.0)], psi=psi, T=T)
        assert certify(p, [0.0, 0.0], kappa=1.0, density=density).status == "VERIFIED"
        assert asked[-1] == expected


def _equality_cases():
    """24 seeded sip problems with psi over a 1- or 2-index T, half with a
    theta, n = 1 to 3, at a point where psi vanishes for every t (or, in
    every 8th case, 0.05 off it), with the grid cycling through the default,
    9, 17 and 33 per axis."""
    rng = np.random.default_rng(2801)
    num = lambda v: repr(round(float(v), 3))  # noqa: E731
    cases = []
    for i in range(24):
        n, k2, with_theta = 1 + i % 3, 1 + (i // 3) % 2, (i // 6) % 2 == 1
        c = rng.uniform(-1.0, 1.0, n).round(3)
        T = [[0.0, float(rng.choice([1.0, 2.0]))] for _ in range(k2)]
        ts = [f"t{a + 1}" for a in range(k2)]
        menu = ["1", ts[0], f"sin({ts[0]})", f"({ts[0]} - 0.4)^2", f"{ts[0]}*{ts[-1]}",
                f"cos({ts[-1]})"]
        coef = [menu[int(rng.integers(len(menu)))] for _ in range(n)]
        cons = {"psi": " + ".join(f"{a}*(x{j + 1} - {num(c[j])})" for j, a in enumerate(coef)),
                "T": T}
        r, b = float(rng.uniform(0.1, 0.9)), rng.uniform(-1.0, 1.0, n)
        if with_theta:
            cons["theta"] = (" + ".join(f"{num(b[j])}*s1*(x{j + 1} - {num(c[j])})"
                                        for j in range(n))
                             + f" - {num(rng.uniform(0.5, 2.0))}*(s1 - {num(r)})^2")
            cons["S"] = [[0.0, 1.0]]
        g = rng.normal(size=n)
        if rng.random() < 0.6:  # in the cone of a psi column and the theta peak's
            tt = rng.uniform(0.0, 1.0, k2) * np.array([hi for _, hi in T])
            env = {"t1": tt[0], "t2": tt[-1], "sin": np.sin, "cos": np.cos}
            a = np.array([eval(e.replace("^", "**"), env) for e in coef], dtype=float)
            g = -float(rng.uniform(-2.0, 2.0)) * a
            if with_theta:
                g = g - float(rng.uniform(0.0, 2.0)) * r * b
        point = c + (0.05 if i % 8 == 7 else 0.0)
        args = ["--point", ",".join(num(v) for v in point),
                "--kappa", num(rng.choice([0.5, 1.0, 3.0]))]
        if i % 4:
            args += ["--grid", str([9, 17, 33][i % 4 - 1])]
        doc = {"kind": "sip", "n": n, "objective": " + ".join(f"{num(g[j])}*x{j + 1}"
                                                              for j in range(n)),
               "constraints": cons}
        cases.append((doc, args))
    return cases


# (issue exit, status, detail, bound lhs at --grid <= 33) of each case above,
# as issued when every psi column was a T grid point (at most 33 per axis)
# and |psi| had its own sup
EQUALITY_VERDICTS = [
    (0, "VERIFIED", None, None),
    (0, "VERIFIED", None, 0.6543499145744),
    (1, "REFUTED", "NO_MULTIPLIER", None),
    (0, "VERIFIED", None, 1.1615),
    (0, "VERIFIED", None, None),
    (0, "VERIFIED", None, 0.3876104958811),
    (0, "VERIFIED", None, 0.6559633868336),
    (1, None, None, None),
    (0, "VERIFIED", None, None),
    (0, "VERIFIED", None, 0.09525),
    (0, "VERIFIED", None, 1.002663379041),
    (1, "REFUTED", "BOUND_EXCEEDED", 1.370779549783),
    (0, "VERIFIED", None, None),
    (0, "VERIFIED", None, 0.6104056795132),
    (0, "VERIFIED", None, 0.7905),
    (1, None, None, None),
    (0, "VERIFIED", None, None),
    (0, "VERIFIED", None, 0.9199188213147),
    (0, "VERIFIED", None, 2.029778840669),
    (1, "REFUTED", "BOUND_EXCEEDED", 3.166066650263),
    (0, "VERIFIED", None, None),
    (0, "VERIFIED", None, 0.11775),
    (0, "VERIFIED", None, 1.492652470739),
    (1, None, None, None),
]


def test_equality_families_keep_the_verdicts_of_the_grid_columns(tmp_path):
    """psi as the families +psi and -psi keeps every status and detail of
    the T grid columns, and at --grid <= 33, where both see the same cells,
    the bound's lhs to 1e-9; every VERIFIED certificate rechecks."""
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    for (doc, args), (code, status, detail, lhs) in zip(_equality_cases(), EQUALITY_VERDICTS):
        prob.write_text(json.dumps(doc), encoding="utf-8")
        out.unlink(missing_ok=True)
        assert cli.run(["sip", "-p", str(prob), *args, "--out", str(out)]) == code, args
        cert = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        assert (cert.get("status"), cert.get("detail")) == (status, detail), args
        if lhs is not None:
            assert cert["bound"]["lhs"] == pytest.approx(lhs, abs=1e-9)
        if status == "VERIFIED":
            assert cli.run(["recheck", "-p", str(prob), "-c", str(out)]) == 0


def test_verified_certificates_have_tiny_residual():
    fixtures = [
        (linear_sip(), 1.0),
        (SIProblem.from_strings(2, "-x1 - x2", theta="s1*x1 + (1 - s1)*x2",
                                S=[(0.0, 1.0)]), 2.0),
    ]
    for p, kappa in fixtures:
        cert = certify(p, np.zeros(p.n), kappa=kappa)
        assert cert.status == "VERIFIED"
        assert cert.residual <= 1e-7
        assert len(cert.atoms) <= p.n


def test_certify_interior_stationary_point():
    p = SIProblem.from_strings(1, "x1^2", theta="s1*x1 - 1", S=[(0.0, 1.0)])
    cert = certify(p, [0.0], kappa=1.0)
    assert cert.status == "VERIFIED"
    assert cert.atoms == []
    assert cert.bound_lhs == 0.0


def test_equality_only_kappa_estimate_reads_the_danskin_slope():
    """psi = t1*x1^3 on T = {1}: sup|psi| = |x1|^3 admits no kappa at 0.  A
    sample's slope is the Danskin derivative 3*x1^2 of |x1|^3."""
    p = SIProblem.from_strings(1, "x1^2", psi="t1*x1^3", T=[(1.0, 1.0)])
    cert = certify(p, [0.0], kappa="estimate")
    assert (cert.status, cert.detail) == ("INCONCLUSIVE", "KAPPA_UNAVAILABLE")
    for x in (0.5, -0.5):
        g, slope = sip.violation_slope(p, [x])
        assert g == pytest.approx(abs(x) ** 3, rel=1e-12)
        assert slope == pytest.approx(3.0 * x ** 2, rel=1e-9)


def test_slope_of_psi_skips_its_undefined_cells_for_both_signs():
    """psi = x1 is undefined on t < 0.5: for sign -1 those cells stay last,
    so the slope at x1 = -0.1 reads the defined cells, as at x1 = 0.1."""
    p = SIProblem.from_strings(1, "x1^2", psi="x1 + 0*sqrt(t1 - 0.5)", T=[(0.0, 1.0)])
    for x in (0.1, -0.1):
        assert sip.violation_slope(p, [x]) == (0.1, 1.0)


def test_slope_estimate_takes_the_hull_of_near_active_gradients():
    """At ties the slope is the least norm in the hull of the near-active
    gradients, not the argmax gradient: the modulus of g = max(x)^+ on the
    nonpositive orthant of R^k is sqrt(k), and the unit circle's is 1."""
    orthant = SIProblem.from_strings(2, "-x1", theta="s1*x1 + (1 - s1)*x2", S=[(0.0, 1.0)])
    rep = sip_kappa_estimate(orthant, [0.0, 0.0], seed=42)
    assert rep.verdict == VERIFIED
    assert 1.35 <= rep.kappa_hat <= 1.5
    orthant3 = SIProblem.from_strings(
        3, "-x1", theta="s1*x1 + (1 - s1)*s2*x2 + (1 - s1)*(1 - s2)*x3",
        S=[(0.0, 1.0), (0.0, 1.0)])
    assert sip_kappa_estimate(orthant3, [0.0, 0.0, 0.0], seed=42).kappa_hat >= 1.6
    circle = SIProblem.from_strings(
        2, "x1", theta="cos(6.283185307179586*s1)*x1 + sin(6.283185307179586*s1)*x2",
        S=[(0.0, 1.0)])
    rep = sip_kappa_estimate(circle, [0.0, 0.0], seed=42)
    assert rep.verdict == VERIFIED
    assert 0.95 <= rep.kappa_hat <= 1.15


def test_zero_slope_sample_leaves_kappa_unavailable():
    """theta = min(x1, 0.13) is flat beyond 0.13, so samples of the outer
    shell have zero slope: the estimate is INCONCLUSIVE, not a VERIFIED
    infinite kappa from the stable inner shells.  Kinked at the point by
    - min(0, x1), which leaves the plateau as it is, theta has no Danskin
    c, so certify samples and reports KAPPA_UNAVAILABLE."""
    p = SIProblem.from_strings(1, "-x1", theta="min(x1, 0.13) + 0*s1", S=[(0.0, 1.0)])
    rep = sip_kappa_estimate(p, [0.0], seed=42)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.kappa_hat == np.inf and rep.witness[0] > 0.13
    kinked = SIProblem.from_strings(1, "-x1", theta="min(x1, 0.13) - min(0, x1) + 0*s1",
                                    S=[(0.0, 1.0)])
    with pytest.warns(KinkWarning):
        cert = certify(kinked, [0.0], kappa="estimate")
    assert (cert.status, cert.detail) == ("INCONCLUSIVE", "KAPPA_UNAVAILABLE")


def test_a_plateau_off_the_point_leaves_the_computed_kappa():
    """min(x1, 0.13) ties at 0.13, not at 0: every index is active with
    gradient 1, so c = 1 less price's floor, and kappa is computed without
    the sampler that the plateau defeats."""
    p = SIProblem.from_strings(1, "-x1", theta="min(x1, 0.13) + 0*s1", S=[(0.0, 1.0)])
    cert = certify(p, [0.0], kappa="estimate")
    assert (cert.status, cert.kappa_source) == ("VERIFIED", sip.KAPPA_DANSKIN)
    assert cert.kappa == pytest.approx(1.0, abs=1e-8) and cert.kappa > 1.0


def test_box_grid_hands_out_independent_copies():
    grid = sip._box_grid([(0.0, 1.0)], 5)
    grid[:] = 7.0
    assert sip._box_grid([(0.0, 1.0)], 5)[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # a degenerate axis keeps its bound's type, as the uncached grid did
    assert sip._box_grid([(1, 1)], 3).dtype.kind == "i"
    assert sip._box_grid([(1.0, 1.0)], 3).dtype.kind == "f"


def test_polish_pinned_exit_matches_the_full_line_search(monkeypatch):
    """Stopping a line search at a trial that is s itself gives the same
    bits as running it out, with fewer evaluations (box corners, point
    axes, a -0.0 bound)."""
    rng = np.random.default_rng(11)
    problems = []
    for i in range(40):
        k = 1 + i % 2
        lo = rng.uniform(-1.0, 1.0, k)
        width = rng.choice([0.0, 0.5, 2.0], size=k)
        box = [(float(a), float(a + w)) for a, w in zip(lo, width)]
        if i % 5 == 0:
            box[0] = (-1.0, -0.0)
        problems.append((box, rng.normal(size=k), rng.uniform(-2.0, 2.0, k),
                         float(i % 3 == 0), rng.uniform(-1.0, 1.0, k)))

    def run():
        out, calls = [], 0
        for box, a, c, q, s0 in problems:
            def value(s):
                nonlocal calls
                calls += 1
                return float(a @ s + q * np.sum(np.sin(3.0 * s + c)))
            s, v = sip._polish_max(value, lambda s: a + 3.0 * q * np.cos(3.0 * s + c),
                                   s0, box, steps=30)
            out.append((s.dtype, s.tobytes(), np.float64(v).tobytes()))
        return out, calls

    pinned, pinned_calls = run()
    monkeypatch.setattr(sip, "_pinned", lambda cand, s: False)
    full, full_calls = run()
    assert pinned == full
    assert pinned_calls < full_calls, (pinned_calls, full_calls)


def test_polish_point_box_exit_matches_the_full_polish(monkeypatch):
    """On a point box the polish returns the clipped start and its value at
    once, with the same bits as the gradient and Newton phases give (float,
    integer and -0.0 bounds)."""
    rng = np.random.default_rng(5)
    problems = []
    for i in range(30):
        k = 1 + i % 3
        box = [(float(a), float(a)) for a in rng.uniform(-1.0, 1.0, k)]
        if i % 3 == 0:
            box[0] = (1, 1)
        if i % 3 == 1:
            box[-1] = (-0.0, -0.0)
        problems.append((box, rng.normal(size=k), rng.uniform(-2.0, 2.0, k),
                         rng.uniform(-2.0, 2.0, k)))

    def run():
        out, calls = [], 0
        for box, a, c, s0 in problems:
            def grad(s):
                nonlocal calls
                calls += 1
                return a + 3.0 * np.cos(3.0 * s + c)
            s, v = sip._polish_max(lambda s: float(a @ s + np.sum(np.sin(3.0 * s + c))),
                                   grad, s0, box)
            out.append((s.dtype, s.tobytes(), np.float64(v).tobytes()))
        return out, calls

    early, early_calls = run()
    monkeypatch.setattr(sip, "_point_box", lambda widths: False)
    full, full_calls = run()
    assert early == full
    assert {dtype.kind for dtype, _, _ in early} == {"f", "i"}
    assert early_calls == 0 < full_calls


def _sup_violation_loop(p, x, density, polish_top=5, polish_steps=100):
    """The grid-sort-polish loop sup_violation ran before the shared search."""
    grid = sip._box_grid(p.S, density)
    vals = sip._grid_values(p.theta, x, grid)
    order = np.argsort(-vals)[:polish_top]
    best_s, best_v = grid[order[0]], vals[order[0]]
    for idx in order:
        s, v = sip._polish_max(lambda ss: p.theta_at(x, ss),
                               lambda ss: sip._index_partials(p.theta, x, ss),
                               grid[idx], p.S, steps=polish_steps)
        if v > best_v:
            best_s, best_v = s, v
    return max(0.0, float(best_v)), best_s


def _sup_abs_equality_loop(p, x, density, polish_top=3, polish_steps=60):
    grid = sip._box_grid(p.T, density)
    best, best_t, best_sign = 0.0, None, 1.0
    for sign in (1.0, -1.0):
        vals = sign * sip._grid_values(p.psi, x, grid)
        for idx in np.argsort(-vals)[:polish_top]:
            t, v = sip._polish_max(lambda tt: sign * p.psi_at(x, tt),
                                   lambda tt: sign * sip._index_partials(p.psi, x, tt),
                                   grid[idx], p.T, steps=polish_steps)
            if float(v) > best:
                best, best_t, best_sign = float(v), t, sign
    return best, best_t, best_sign


def _grid_positions(grid):
    """Each cell's position along each axis, found from the grid's coordinates."""
    return np.stack([np.searchsorted(np.unique(col), col) for col in grid.T], axis=1)


def _grid_neighbours(pos, i):
    """The cells one grid step from cell i along one axis."""
    return np.flatnonzero(np.abs(pos - pos[i]).sum(axis=1) == 1)


def _brute_local_maxima(grid, vals):
    """Cell i is kept when vals[i] >= vals[j] for every neighbour j."""
    pos = _grid_positions(grid)
    return np.array([bool(np.all(vals[i] >= vals[_grid_neighbours(pos, i)]))
                     for i in range(len(grid))])


def test_local_maxima_mask_matches_a_neighbour_comparison():
    """On random 1-, 2- and 3-index grids, with degenerate axes, ties and
    undefined (-inf) cells, the mask keeps exactly the cells >= every grid
    neighbour; it keeps the best cell, and every cell of a constant grid."""
    rng = np.random.default_rng(27)
    for trial in range(60):
        k = 1 + trial % 3
        box = [(lo, lo if rng.random() < 0.3 else lo + float(rng.uniform(0.5, 2.0)))
               for lo in rng.uniform(-1.0, 1.0, k)]
        grid = sip._box_grid(box, int(rng.integers(2, 7)))
        vals = rng.integers(0, 3, len(grid)).astype(float)  # few levels: many ties
        vals[rng.random(len(grid)) < 0.2] = -np.inf
        keep = sip._local_maxima(vals, box)
        assert keep.tolist() == _brute_local_maxima(grid, vals).tolist()
        assert keep[np.argsort(-vals)[0]]
        assert sip._local_maxima(np.full(len(grid), vals[0]), box).all()


def test_sup_keeps_its_bits_on_isolated_peaks():
    """On one-index shapes like perfbench's certify_asserted sip (a linear
    part plus one concave peak), the sup and its argmax at the certified
    point, where the peak is active, are the bits of the five-start loop,
    from one start.  Strictly inside the feasible set the loop's other
    starts may end an ulp higher."""
    rng = np.random.default_rng(2701)
    num = lambda v: repr(float(v))  # noqa: E731
    for trial in range(48):
        n = 1 + trial % 4
        c = rng.uniform(-1.0, 1.0, n)
        lo = float(rng.uniform(-1.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        a = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        lin = " + ".join(f"{num(a[j])}*(x{j + 1} - {num(c[j])})" for j in range(n))
        theta = (f"{lin} + {num(rng.uniform(-1, 1))}*(x1 - {num(c[0])})^2*s1"
                 f" - {num(rng.uniform(0.5, 3.0))}*(s1 - {num(rng.uniform(lo, hi))})^2")
        p = SIProblem.from_strings(n, "x1", theta=theta, S=[(lo, hi)])
        sup, s = sup_violation(p, c)
        ref_sup, ref_s = _sup_violation_loop(p, c, sip.default_density(1))
        assert sup == ref_sup and s.tobytes() == ref_s.tobytes()
        inside = c - rng.uniform(0.05, 0.2) * a / np.linalg.norm(a)
        s, ref_s = sup_violation(p, inside)[1], _sup_violation_loop(p, inside, 64)[1]
        assert p.theta_at(inside, s) == pytest.approx(p.theta_at(inside, ref_s), rel=1e-14)


def test_top_cell_search_matches_the_three_loops(monkeypatch):
    """The family sup of theta, those of +psi and -psi, and active_indexes
    return the same bits as the loops the theta sup, the |psi| sup and
    active_indexes ran before sharing one search; the |psi| loop with 5
    starts of 100 steps per sign, as every family now has.  Their
    _polish_max calls are the loop's calls, run over every cell, whose start
    is a defined local maximum of the grid for the function polished: in
    the loop's order, at most 5 per family.  On the flat face and on the
    psi that vanishes at x = 0 every cell ties, so they are the loop's first
    5 calls per family.  active_indexes polishes no grid cell before its
    price picks one."""
    calls = []
    density, dry = None, False
    polish = sip._polish_max
    layouts = {}

    def recording(value_fn, grad_fn, s0, box, steps=100):
        s0 = np.asarray(s0)
        peak = None
        if dry:  # judged now: the psi loop's value_fn reads a sign its next pass rebinds
            key = (tuple(box), density)
            if key not in layouts:
                grid = sip._box_grid(box, density)
                layouts[key] = grid, {c.tobytes(): i for i, c in enumerate(grid)}, \
                    _grid_positions(grid)
            grid, index, pos = layouts[key]
            i = index[s0.tobytes()]
            peak = np.isfinite(value_fn(grid[i])) and all(
                value_fn(grid[i]) >= value_fn(grid[j]) for j in _grid_neighbours(pos, i))
        calls.append((s0.tobytes(), steps, peak))
        return (s0.astype(float), value_fn(s0)) if dry else polish(value_fn, grad_fn, s0, box,
                                                                   steps)

    monkeypatch.setattr(sip, "_polish_max", recording)

    def bits(result):
        return [None if r is None else np.asarray(r, dtype=float).tobytes() for r in result]

    def starts(recorded):
        return [(s0, steps) for s0, steps, _ in recorded]

    def restricted(loop, p, x, box, count, signs):
        """The loop's calls over all cells at local-maximum starts, at most
        ``count`` per sign."""
        nonlocal dry
        cells = len(sip._box_grid(box, density))
        calls.clear()
        dry = True
        loop(p, x, density, polish_top=cells)
        dry = False
        return [c for f in range(signs)
                for c in starts([r for r in calls[f * cells:(f + 1) * cells] if r[2]])[:count]]

    def both(fn, loop, p, x, box, count, signs):
        calls.clear()
        got = fn(p, x, density)
        got_calls = starts(calls)
        assert bits(got) == bits(loop(p, x, density))
        assert got_calls == restricted(loop, p, x, box, count, signs)

    def theta_sup(p, x, density):
        sup, s = sip._sup(p.theta, x, 1.0, p.S, density)[:2]
        return max(0.0, sup), s

    def psi_sup(p, x, density):
        """The +psi and -psi family sups, read as the |psi| loop's
        (sup, argmax, sign)."""
        best = 0.0, None, 1.0
        for sign in (1.0, -1.0):
            sup, t = sip._sup(p.psi, x, sign, p.T, density)[:2]
            if sup > best[0]:
                best = sup, t, sign
        return best

    psi_loop = functools.partial(_sup_abs_equality_loop, polish_top=5, polish_steps=100)

    cubic = SIProblem.from_strings(2, "x1", theta="(s1 - 0.3)*(x1 - 0.2)^3 + x2*s2 - s2^2",
                                   S=[(0.3, 1.3), (0.0, 1.0)],
                                   psi="sin(3*t1 - x1)*x2 + t1*x1", T=[(0.0, 2.0)])
    for x in ([0.2, 0.0], [0.5, -0.3], [1.0, 0.4]):
        for density in (8, 16):
            both(theta_sup, _sup_violation_loop, cubic, np.array(x), cubic.S, 5, 1)
            both(psi_sup, psi_loop, cubic, np.array(x), cubic.T, 5, 2)
    # a flat active face (every cell active) and a cap whose cells fall below the floor
    flat = SIProblem.from_strings(2, "x1", theta="s1*x1 + s2*x2", S=[(0.0, 1.0), (0.0, 1.0)])
    cap = SIProblem.from_strings(2, "x1", theta="x1 - (s1 - 0.5)^2 - 4*(s2 - 0.5)^2",
                                 S=[(0.0, 1.0), (0.0, 1.0)])
    for p in (flat, cap):
        for density in (9, 17, 65):
            calls.clear()
            ((_, s_max), _), = sip.active_indexes(p, np.zeros(2), density)[0]
            got_calls = starts(calls)
            calls.clear()
            assert bits([s_max]) == bits(_sup_violation_loop(p, np.zeros(2), density)[1:])
            if p is flat:
                assert got_calls == starts(calls) and len(calls) == 5
            assert got_calls == restricted(_sup_violation_loop, p, np.zeros(2), p.S, 5, 1)
    eq = dataclasses.replace(cubic, theta=None, S=None)  # psi vanishes at x = 0
    for density in (8, 16):
        calls.clear()
        sip.active_indexes(eq, np.zeros(2), density)
        got_calls = starts(calls)
        assert got_calls == restricted(psi_loop, eq, np.zeros(2), eq.T, 5, 2) == \
            [c for f in range(2) for c in starts(calls[f * density:(f + 1) * density])[:5]]


def _hull_distance(G):
    """dist(0, conv of the rows of G), by faces: on each subset of rows, the
    least-norm point of its affine hull, kept when its weights are >= 0."""
    best = np.inf
    for r in range(1, len(G) + 1):
        for face in itertools.combinations(range(len(G)), r):
            F = G[list(face)]
            K = np.block([[F @ F.T, np.ones((r, 1))], [np.ones((1, r)), np.zeros((1, 1))]])
            try:
                w = np.linalg.solve(K, np.append(np.zeros(r), 1.0))[:r]
            except np.linalg.LinAlgError:
                continue
            if (w >= -1e-12).all():
                best = min(best, float(np.linalg.norm(F.T @ w)))
    return best


def _peak_sips():
    """(problem doc, G, lambda) for 24 seeded SIPs, n <= 3 and k <= 2, with 1
    to 3 isolated active peaks s_j on grid nodes at x = 0: theta is
    sum_i exp(-|s - s_i|^2 / 0.09) <g_i, x> - 100 prod_j |s - s_j|^2, so the
    active set is {s_j} and the x-gradient there is the known
    G_j = sum_i exp(-|s_j - s_i|^2 / 0.09) g_i.  The objective is
    -sum_j lambda_j <G_j, x>, stationary with the atoms (s_j, lambda_j).
    Each hull misses 0 by at least 0.05."""
    rng = np.random.default_rng(3401)
    cases = []
    while len(cases) < 24:
        n, k, m = (int(v) for v in rng.integers(1, (4, 3, 4)))
        peaks = rng.integers(0, 64, size=(m, k)) / 63.0
        gap = np.linalg.norm(peaks[:, None] - peaks[None], axis=2)
        if m > 1 and gap[np.triu_indices(m, 1)].min() < 0.2:
            continue
        g = rng.normal(size=(m, n))
        G = np.exp(-gap ** 2 / 0.09) @ g
        if _hull_distance(G) < 0.05:
            continue
        lam = rng.uniform(0.1, 2.0, m) * (rng.random(m) < 0.7)
        if not lam.any():
            continue
        sq = ["(" + " + ".join(f"(s{a + 1} - {float(v)!r})^2" for a, v in enumerate(s)) + ")"
              for s in peaks]
        theta = " + ".join(f"exp(0 - {d}/0.09)*(" + " + ".join(
            f"{float(gi[j])!r}*x{j + 1}" for j in range(n)) + ")" for d, gi in zip(sq, g))
        grad = -lam @ G
        doc = {"kind": "sip", "n": n,
               "objective": " + ".join(f"{float(grad[j])!r}*x{j + 1}" for j in range(n)),
               "constraints": {"theta": f"{theta} - 100*" + "*".join(sq), "S": [[0, 1]] * k}}
        cases.append((doc, G, lam))
    return cases


def no_sampler(*args, **kwargs):
    raise AssertionError("sip_kappa_estimate called")


def test_danskin_kappa_bounds_the_multipliers_of_isolated_peaks(tmp_path, monkeypatch):
    """On each peak SIP the computed c is at most dist(0, conv{G_j}) and
    within 1e-8 of it; the certificate issues with the sampler raising, has
    sum(lambda) <= kappa ||grad||, and rechecks to exit 0."""
    monkeypatch.setattr(sip, "sip_kappa_estimate", no_sampler)
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    for doc, G, _ in _peak_sips():
        dist = _hull_distance(G)
        p = cli.build_sip(doc)
        cert = certify(p, np.zeros(p.n), kappa="estimate")
        assert cert.kappa_source == sip.KAPPA_DANSKIN, doc
        c = (1.0 + sip.KAPPA_MARGIN) / cert.kappa
        assert dist - 1e-8 <= c <= dist, doc
        g0 = np.linalg.norm(p.grad_objective(np.zeros(p.n)))
        assert cert.status == "VERIFIED" and cert.bound_lhs <= cert.kappa * g0, doc
        prob.write_text(json.dumps(doc), encoding="utf-8")
        point = ",".join(["0"] * p.n)
        assert cli.run(["sip", "-p", str(prob), "--point", point, "--out", str(out)]) == 0
        assert cli.run(["recheck", "-p", str(prob), "-c", str(out)]) == 0


def test_the_sampler_runs_where_the_danskin_criterion_does_not_apply(monkeypatch):
    """c = 0 with theta not affine in x (s1*sin(x1): s = 0 is active with
    gradient 0), a psi family, and a theta kinked in x at the point each
    call the sampler."""
    calls = []
    real = sip.sip_kappa_estimate
    monkeypatch.setattr(sip, "sip_kappa_estimate",
                        lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    sine = SIProblem.from_strings(1, "-x1", theta="s1*sin(x1)", S=[(0.0, 1.0)])
    kinked = SIProblem.from_strings(1, "-x1", theta="x1 + 0.5*abs(x1) + 0*s1", S=[(0.0, 1.0)])
    psi = SIProblem.from_strings(1, "-x1", psi="t1*x1", T=[(1.0, 1.0)])
    for p in (sine, psi, kinked):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KinkWarning)
            cert = certify(p, [0.0], kappa="estimate")
        assert calls[-1] is p and cert.kappa_source not in (sip.KAPPA_DANSKIN, sip.KAPPA_AFFINE)
    assert len(calls) == 3


@pytest.mark.parametrize("d, c", [(0.0, 0.0), (-0.375, 0.625), (0.5, -1.0)])
def test_an_affine_theta_with_c_zero_issues_kappa_unsampled(d, c, tmp_path, monkeypatch):
    """theta = (s1 - d)*(x1 - c) on [d, d + 1] at x = c (the README fixture
    at d = c = 0): s = d is active with gradient 0, so Danskin's c is 0, and
    the one face of {u : (s - d) u <= 1} is u = 1 with tight row s = d + 1:
    kappa = 1 + 1e-9, with the sampler raising, and recheck exits 0."""
    monkeypatch.setattr(sip, "sip_kappa_estimate", no_sampler)
    doc = {"kind": "sip", "n": 1, "objective": "-1.5*x1",
           "constraints": {"theta": f"(s1 - {d!r})*(x1 - {c!r})", "S": [[d, d + 1.0]]}}
    p = cli.build_sip(doc)
    cert = certify(p, [c], kappa="estimate")
    assert (cert.status, cert.kappa_source, cert.kappa) == ("VERIFIED", sip.KAPPA_AFFINE, 1 + 1e-9)
    assert cert.notes[1] == ("affine criterion: max 1/dist(0, conv grad_x theta(xbar, D)) "
                             "over 1 minimal face(s) D = 1")
    prob, out = tmp_path / "problem.json", tmp_path / "cert.json"
    prob.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["sip", "-p", str(prob), "--point", repr(c), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["bound"]["kappa"] == 1 + 1e-9
    assert cli.run(["recheck", "-p", str(prob), "-c", str(out)]) == 0


def test_the_affine_kappa_of_the_unit_circle_is_its_63_gon():
    """cos(2 pi s1) x1 + sin(2 pi s1) x2 on the default 64-cell grid: the
    rows are the 63 corners of a regular polygon on the unit circle, each
    face of P is tight on two neighbours, whose hull misses 0 by
    cos(pi/63)."""
    circle = SIProblem.from_strings(
        2, "x1", theta="cos(6.283185307179586*s1)*x1 + sin(6.283185307179586*s1)*x2",
        S=[(0.0, 1.0)])
    cert = certify(circle, [0.0, 0.0], kappa="estimate")
    assert (cert.status, cert.kappa_source) == ("VERIFIED", sip.KAPPA_AFFINE)
    assert 1.0 <= cert.kappa <= (1.0 + 1e-9) / np.cos(np.pi / 63)
    assert "over 63 minimal face(s)" in cert.notes[1]


def _linear_sips():
    """(problem, density, rows) for 24 seeded homogeneous linear SIPs with
    Danskin's c = 0, n <= 3 and k <= 2: theta(x, s) = <a(s), x> with a(s) a
    quadratic in u = s - s0 for a grid node s0, and rows = a(s) over the
    grid, all active at x = 0.  Half have a(s0) = 0, an active zero row; the
    other half a constant term, kept when 0 is still in the hull.  The
    objective is -sum lambda_j <a(s_j), x> over three grid nodes s_j."""
    rng = np.random.default_rng(3601)
    cases = []
    while len(cases) < 24:
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        density = 64 if n < 3 else 16 if k == 1 else 4
        axis = np.linspace(0.0, 1.0, density)
        grid = np.stack([m.ravel() for m in np.meshgrid(*[axis] * k, indexing="ij")], axis=1)
        s0 = grid[rng.integers(len(grid))]
        u = [f"(s{i + 1} - {float(v)!r})" for i, v in enumerate(s0)]
        terms = u + [f"{a}*{b}" for a, b in itertools.combinations_with_replacement(u, 2)]
        U = grid - s0
        cols = [U[:, i] for i in range(k)] + [U[:, i] * U[:, j] for i, j in
                                               itertools.combinations_with_replacement(range(k), 2)]
        if len(cases) % 2:
            terms, cols = ["1"] + terms, [np.ones(len(grid))] + cols
        G = np.round(rng.normal(size=(len(terms), n)), 3)
        rows = np.array(cols).T @ G
        if np.linalg.norm(sip.min_norm_point(rows.T)) > 0.0:
            continue
        theta = " + ".join("(" + " + ".join(f"{float(G[m, j])!r}*{t}" for m, t in enumerate(terms))
                           + f")*x{j + 1}" for j in range(n))
        grad = -rng.uniform(0.1, 1.0, 3) @ rows[rng.choice(len(grid), 3)]
        if np.linalg.norm(grad) < 1e-3:
            continue
        cases.append((SIProblem.from_strings(
            n, " + ".join(f"{float(g)!r}*x{j + 1}" for j, g in enumerate(grad)),
            theta=theta, S=[(0.0, 1.0)] * k), density, rows))
    return cases


def test_the_affine_kappa_bounds_every_sampled_ratio_of_linear_sips(monkeypatch):
    """On each linear SIP the affine kappa is issued with the sampler
    raising, and it bounds dist(d; F) / g(d) at 300 seeded directions d:
    F = {d : A d <= 0} is the polar of cone{a_t}, so by Moreau dist(d; F)
    is the norm of d's projection onto cone{a_t}, an nnls fit, and g(d) =
    max (A d)^+.  At n = 1 both signs of d are drawn, and the largest ratio
    is kappa itself, less the margin.  Every certificate has sum(lambda) <=
    kappa ||grad||."""
    monkeypatch.setattr(sip, "sip_kappa_estimate", no_sampler)
    rng = np.random.default_rng(3603)
    for p, density, A in _linear_sips():
        cert = certify(p, np.zeros(p.n), kappa="estimate", density=density)
        assert (cert.status, cert.kappa_source) == ("VERIFIED", sip.KAPPA_AFFINE), p.theta._text
        g0 = float(np.linalg.norm(p.grad_objective(np.zeros(p.n))))
        assert cert.bound_lhs <= cert.kappa * g0, p.theta._text
        ratios = []
        for d in rng.normal(size=(300, p.n)):
            g = float(np.max(A @ d))
            if g > 1e-9 * np.linalg.norm(d):
                ratios.append(float(np.linalg.norm(A.T @ solvers.nnls(A.T, d))) / g)
        assert max(ratios) <= cert.kappa, p.theta._text
        if p.n == 1:
            assert max(ratios) * (1.0 + sip.KAPPA_MARGIN) == pytest.approx(cert.kappa, rel=1e-12)


@pytest.mark.parametrize("objective, eq_mu", [("x1", -1.0), ("2*x1", -2.0)])
def test_identical_theta_and_psi_texts_keep_their_families(objective, eq_mu):
    """theta and psi with the same text are parsed over different names
    (s1 against t1), so they are two trees and certify tells theta's atoms
    from psi's: grad = 1 or 2 needs mu < 0, which only psi's atoms carry."""
    p = SIProblem.from_strings(1, objective, theta="x1", S=[(0.0, 1.0)], psi="x1", T=[(0.0, 1.0)])
    assert p.theta is not p.psi and p.theta == p.psi
    cert = certify(p, [0.0], kappa=10.0)
    assert (cert.status, cert.kind, cert.atoms) == ("VERIFIED", "SIP-EQ", [])
    (t, mu), = cert.eq_atoms
    assert mu == pytest.approx(eq_mu, abs=1e-12) and 0.0 <= t[0] <= 1.0
    assert cert.residual <= 1e-9
