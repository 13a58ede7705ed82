import numpy as np
import pytest

from varcert import sip
from varcert.calculus import REFUTED, VERIFIED
from varcert.errors import InfeasiblePointError, NoMultiplierError
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
    """Every index that ``price`` offers at one y, in the order offered."""
    out = []
    while (new := price(np.asarray(y, dtype=float), floor)) is not None:
        out.append(new)
    return out


def test_active_indexes_examples():
    """The seed is the polished argmax when it is active; price offers each
    active index with <grad_x theta, y> > floor once, with its exact gradient."""
    p = linear_sip()
    seed, price = active_indexes(p, [0.0])
    assert len(seed) == 1 and seed[0][1] == pytest.approx([seed[0][0][0]])
    assert price(np.array([-1.0]), 0.0) is None  # every column s has <s, -1> <= 0
    offered = drain(price, [1.0], 0.5)  # the whole box is active: the cells with s > 0.5
    assert [s[0] for s, _ in offered] == pytest.approx(np.linspace(0.0, 1.0, 64)[32:][::-1])
    assert all(g == pytest.approx(s) for s, g in offered)
    assert [s[0] for s, _ in drain(price, [1.0], 0.0)] == \
        pytest.approx(np.linspace(0.0, 1.0, 64)[1:32][::-1])  # each offered once
    p2 = SIProblem.from_strings(1, "x1", theta="s1*x1 - 1", S=[(0.0, 1.0)])
    seed, price = active_indexes(p2, [0.0])
    assert seed == [] and price(np.array([1.0]), -1e9) is None
    p3 = SIProblem.from_strings(1, "x1", theta="0 - (s1 - 0.5)^2", S=[(0.0, 1.0)])
    (s, g), = active_indexes(p3, [7.0])[0]
    assert s[0] == pytest.approx(0.5, abs=1e-4) and g.tolist() == [0.0]
    with pytest.raises(InfeasiblePointError):
        active_indexes(p, [1.0])


def test_a_cell_turned_down_at_one_dual_stays_a_candidate(monkeypatch):
    """theta = s1*x1 - (s1 - 0.5)^2 at x = 0 is active at s = 0.5 only, where
    grad_x theta = 0.5; the grid cells beside it sit below -TOL_ACTIVE and
    their screened gradients are their own s.  Priced at floor 0.5, the
    cells above 0.5 pass the screen, are polished onto 0.5 and turned down by
    the exact gradient; at floor 0.4 they are offered.  Each cell is polished
    once."""
    p = SIProblem.from_strings(1, "x1", theta="s1*x1 - (s1 - 0.5)^2", S=[(0.0, 1.0)])
    seed, price = active_indexes(p, [0.0])
    assert seed[0][0][0] == pytest.approx(0.5, abs=1e-6)
    polished = []
    real = sip._polish_max
    monkeypatch.setattr(sip, "_polish_max",
                        lambda v, g, s0, box, steps=100: polished.append(float(s0[0]))
                        or real(v, g, s0, box, steps))
    assert price(np.array([1.0]), 0.5) is None
    assert len(polished) == 2 and all(s > 0.5 for s in polished)  # 32/63 and 33/63
    s, g = price(np.array([1.0]), 0.4)
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
        with pytest.raises(NoMultiplierError, match="^no atomic multiplier$"):
            certify(p, [0.0], kappa=1.0)


def test_flat_face_takes_one_atom_at_the_far_corner(monkeypatch):
    """theta = s1*x1 + s2*x2 on [0,1]^2, objective -x1-x2 at 0: every index is
    active and lambda = 1 at s = (1, 1) is the least multiplier.  The
    exchange loop finds it from 3 LPs of at most 2 columns (the seed at the
    polished argmax, then the corner)."""
    widths = []
    real = sip.conic_fit
    monkeypatch.setattr(sip, "conic_fit", lambda target, rays, *a, **k: widths.append(
        0 if rays is None else np.shape(rays)[1]) or real(target, rays, *a, **k))
    p = SIProblem.from_strings(2, "-x1 - x2", theta="s1*x1 + s2*x2", S=[(0.0, 1.0), (0.0, 1.0)])
    cert = certify(p, [0.0, 0.0], kappa=2.0)
    assert (cert.status, cert.atoms, cert.bound_lhs) == ("VERIFIED", [([1.0, 1.0], 1.0)], 1.0)
    assert widths == [1, 2, 2]


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


def test_equality_grid_follows_the_dimension_of_T(monkeypatch):
    """The T grid takes --grid or the default for T's own dimension, capped
    at 33 per axis: 33 for one or two index variables, 16 for three."""
    asked = []
    real = sip._box_grid

    def recording(box, density):
        if box == T:  # T differs from S
            asked.append(density)
            density = 1  # one point is enough to see the request
        return real(box, density)

    monkeypatch.setattr(sip, "_box_grid", recording)
    for T, density, expected in (([(0.0, 2.0)], None, 33), ([(0.0, 2.0)] * 3, None, 16),
                                 ([(0.0, 2.0)] * 3, 8, 8), ([(0.0, 2.0)], 100, 33)):
        asked.clear()
        psi = "*".join(f"t{i + 1}" for i in range(len(T))) + "*x1"
        p = SIProblem.from_strings(2, "x1^2 - x2", theta="x2 - s1", S=[(0.0, 1.0)], psi=psi, T=T)
        assert certify(p, [0.0, 0.0], kappa=1.0, density=density).status == "VERIFIED"
        assert asked[-1] == expected


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
    infinite kappa from the stable inner shells."""
    p = SIProblem.from_strings(1, "-x1", theta="min(x1, 0.13) + 0*s1", S=[(0.0, 1.0)])
    rep = sip_kappa_estimate(p, [0.0], seed=42)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.kappa_hat == np.inf and rep.witness[0] > 0.13
    cert = certify(p, [0.0], kappa="estimate")
    assert (cert.status, cert.detail) == ("INCONCLUSIVE", "KAPPA_UNAVAILABLE")


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
        s, v = sip._polish_max(lambda ss: p.theta_at(x, ss), lambda ss: p.grad_s_theta(x, ss),
                               grid[idx], p.S, steps=polish_steps)
        if v > best_v:
            best_s, best_v = s, v
    return max(0.0, float(best_v)), best_s


def _sup_abs_equality_loop(p, x, density, polish_steps=60):
    grid = sip._box_grid(p.T, density)
    best, best_t, best_sign = 0.0, None, 1.0
    for sign in (1.0, -1.0):
        vals = sign * sip._grid_values(p.psi, x, grid)
        for idx in np.argsort(-vals)[:3]:
            t, v = sip._polish_max(lambda tt: sign * p.psi_at(x, tt),
                                   lambda tt: sign * sip._index_partials(p.psi, x, tt),
                                   grid[idx], p.T, steps=polish_steps)
            if float(v) > best:
                best, best_t, best_sign = float(v), t, sign
    return best, best_t, best_sign


def test_top_cell_search_matches_the_three_loops(monkeypatch):
    """sup_violation, sup_abs_equality and active_indexes make the same
    _polish_max calls, in the same order, and return the same bits as the
    loops each of them ran before sharing one search; active_indexes polishes
    no grid cell before its price picks one."""
    calls = []
    polish = sip._polish_max

    def recording(value_fn, grad_fn, s0, box, steps=100):
        calls.append((np.asarray(s0).tobytes(), steps))
        return polish(value_fn, grad_fn, s0, box, steps)

    monkeypatch.setattr(sip, "_polish_max", recording)

    def bits(result):
        return [None if r is None else np.asarray(r, dtype=float).tobytes() for r in result]

    def both(fn, loop, p, x, density, *args):
        calls.clear()
        got = fn(p, x, density, *args)
        got_calls = list(calls)
        calls.clear()
        assert bits(got) == bits(loop(p, x, density, *args)) and got_calls == calls

    cubic = SIProblem.from_strings(2, "x1", theta="(s1 - 0.3)*(x1 - 0.2)^3 + x2*s2 - s2^2",
                                   S=[(0.3, 1.3), (0.0, 1.0)],
                                   psi="sin(3*t1 - x1)*x2 + t1*x1", T=[(0.0, 2.0)])
    for x in ([0.2, 0.0], [0.5, -0.3], [1.0, 0.4]):
        for density in (8, 16):
            both(sip.sup_violation, _sup_violation_loop, cubic, np.array(x), density)
            both(sip.sup_abs_equality, _sup_abs_equality_loop, cubic, np.array(x), density)
    # a flat active face (every cell active) and a cap whose cells fall below the floor
    flat = SIProblem.from_strings(2, "x1", theta="s1*x1 + s2*x2", S=[(0.0, 1.0), (0.0, 1.0)])
    cap = SIProblem.from_strings(2, "x1", theta="x1 - (s1 - 0.5)^2 - 4*(s2 - 0.5)^2",
                                 S=[(0.0, 1.0), (0.0, 1.0)])
    for p in (flat, cap):
        for density in (9, 17, 65):
            calls.clear()
            (s_max, _), = sip.active_indexes(p, np.zeros(2), density)[0]
            got_calls = list(calls)
            calls.clear()
            assert bits([s_max]) == bits(_sup_violation_loop(p, np.zeros(2), density)[1:])
            assert got_calls == calls
