"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines and the measured quantities they are based on.
"""

import math
import time

import numpy as np
import pytest

from conftest import LinearOneDim
from pdsg import bench, metrics
from pdsg.auglag import penalty, penalty_mean
from pdsg.baselines import MirrorProxConfig, full_batch_reference, mirror_prox_run, zmax_from_reference
from pdsg.problems import (
    certify_constants,
    random_qcqp,
    random_scenario_lp,
    scenario_count_discarding,
    scenario_count_robust,
)
from pdsg.problems import _log_discard_lhs
from pdsg.solver import (
    anytime,
    fixed_horizon,
    init_state,
    max_equal_steps,
    pdsg_step,
    run,
    strongly_convex,
    validate_schedule,
)
from pdsg.theory import BoundInputs, dual_bound


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {tag}{suffix}")
    return ok


# -- shared desk-scale fixtures -------------------------------------------------

DESK_DIMS = dict(n=20, p=15, N=200, m=200)


@pytest.fixture(scope="module")
def desk_constrained():
    """Desk instance whose optimum has active constraints (|z*| ~ 21)."""
    inst = random_qcqp(seed=13, **DESK_DIMS)
    consts = certify_constants(inst)
    ref = full_batch_reference(inst, tol=1e-9)
    return inst, consts, ref


@pytest.fixture(scope="module")
def desk_interior():
    """Desk instance whose optimum is interior (z* = 0)."""
    inst = random_qcqp(seed=0, **DESK_DIMS)
    consts = certify_constants(inst)
    ref = full_batch_reference(inst, tol=1e-9)
    return inst, consts, ref


def _pdsg_records(inst, alpha, seeds, epochs, ref):
    cfg = bench.ExperimentConfig(alpha=alpha, rho=alpha, epochs=epochs, seeds=tuple(seeds))
    K = epochs * inst.m
    return [
        bench.run_one("pdsg", inst, cfg, K, seed, ref, cadence_steps=inst.m)
        for seed in seeds
    ]


def _first_epoch_ergodic(inst, sched, seed):
    """Replay the first epoch of a pdsg run and return its ergodic mean."""
    state = init_state(inst, seed)
    for _ in range(inst.m):
        pdsg_step(state, inst, *sched.steps(state.k))
    return state.ergodic_plain()


def _lagrangian_gap(inst, ref, x):
    """f0(x) - f0* + (1/m) sum_j (1 + z*_j) [f_j(x)]_+ at the reference (x*, z*).

    The saddle-point inequality f0(x) + (1/m) sum_j z*_j f_j(x) >= f0* on the
    box makes this at least the infeasibility of x, with zero only at the
    optimum.
    """
    viol = np.maximum(inst.constraint_values(x), 0.0)
    return inst.objective(x) - ref.f0 + float(((1.0 + ref.z) * viol).mean())


# -- criteria -------------------------------------------------------------------


def test_criterion_01_penalty_primitives():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    ok = True
    for _ in range(500):  # continuity across the switching surface
        u = rng.normal() * 3
        beta = rng.uniform(0.1, 5.0)
        v = -beta * u
        first = u * v + 0.5 * beta * u * u
        second = -v * v / (2 * beta)
        scale = max(abs(first), abs(second), 1e-300)
        ok &= abs(first - second) <= 1e-12 * scale

    h = 1e-6
    checked = 0
    while checked < 1000:  # finite-difference match of both partials
        u, v = rng.normal(size=2) * 2
        beta = rng.uniform(0.2, 4.0)
        if abs(beta * u + v) < 10 * h:
            continue
        out = penalty(u, v, beta)
        du_fd = (penalty(u + h, v, beta).value - penalty(u - h, v, beta).value) / (2 * h)
        dv_fd = (penalty(u, v + h, beta).value - penalty(u, v - h, beta).value) / (2 * h)
        ok &= abs(out.du - du_fd) < 1e-5 and abs(out.dv - dv_fd) < 1e-5
        checked += 1

    for _ in range(400):  # convexity in u, concavity in v
        u1, u2, v, v1, v2, u = rng.normal(size=6) * 3
        beta = rng.uniform(0.1, 5.0)
        t = rng.uniform(0.01, 0.99)
        ok &= (
            penalty(t * u1 + (1 - t) * u2, v, beta).value
            <= t * penalty(u1, v, beta).value + (1 - t) * penalty(u2, v, beta).value + 1e-12
        )
        ok &= (
            penalty(u, t * v1 + (1 - t) * v2, beta).value
            >= t * penalty(u, v1, beta).value + (1 - t) * penalty(u, v2, beta).value - 1e-12
        )

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _verdict(1, "penalty-primitive suite", ok, f"{elapsed:.2f}s")


def test_criterion_02_hand_trace(one_dim):
    want_x = [0.0, -1.0, -2.0] + [-1.0] * 8
    want_z = [0.0, 0.0] + [1.0] * 9
    state = init_state(one_dim, seed=0)
    xs, zs = [float(state.x[0])], [float(state.z[0])]
    for _ in range(10):
        pdsg_step(state, one_dim, 1.0, 1.0, 1.0)
        xs.append(float(state.x[0]))
        zs.append(float(state.z[0]))
    ok = max(abs(a - b) for a, b in zip(xs, want_x)) <= 1e-12
    ok &= max(abs(a - b) for a, b in zip(zs, want_z)) <= 1e-12
    assert _verdict(2, "hand-trace equivalence", ok)


def test_criterion_03_dual_nonnegativity():
    steps = 10_000
    worst = np.inf
    for iseed in range(20):
        inst = random_qcqp(10, 8, 50, 50, seed=100 + iseed)
        consts = certify_constants(inst, samples=4, rng_seed=0)
        a_fixed = max_equal_steps(inst.m, consts.G)
        a_any = max_equal_steps(inst.m, consts.G, "anytime")
        mu = consts.mu
        rho_sc = 0.9 * inst.m / (32 * consts.G**2) * mu
        scheds = (
            fixed_horizon(a_fixed, a_fixed, steps),
            anytime(a_any, a_any),
            strongly_convex(1.0 / mu, rho_sc, steps, mu=mu),
        )
        for sched in scheds:
            state = init_state(inst, seed=iseed)
            for _ in range(steps):
                a_k, r_k, b_k = sched.steps(state.k)
                pdsg_step(state, inst, a_k, r_k, b_k)
                zmin = float(state.z.min())
                worst = min(worst, zmin)
                if zmin < 0.0:
                    break
    ok = worst >= 0.0
    assert _verdict(3, "dual nonnegativity", ok, f"min z = {worst:g}")


def _feasible_sample(inst, u, s):
    """Feasible point along ray u: closed-form max step for quadratic constraints."""
    q = np.einsum("mij,i,j->m", inst.data.Q, u, u)
    l = inst.data.a @ u
    b = inst.data.b
    with np.errstate(divide="ignore", invalid="ignore"):
        t_quad = np.where(q > 0, (-l + np.sqrt(l * l + 2 * q * b)) / np.where(q > 0, q, 1.0), np.inf)
        t_lin = np.where((q <= 0) & (l > 0), b / np.where(l > 0, l, 1.0), np.inf)
    t_box = np.min(np.minimum(np.abs(inst.box_lo), np.abs(inst.box_hi)) / np.maximum(np.abs(u), 1e-12))
    t_max = min(float(np.min(np.minimum(t_quad, t_lin))), float(t_box))
    return s * t_max * u


def test_criterion_04_penalty_bounds():
    t0 = time.perf_counter()
    samples = 10_000
    ok = True
    worst_margin = np.inf
    for iseed in range(3):
        inst = random_qcqp(10, 8, 20, 50, seed=200 + iseed)
        consts = certify_constants(inst, samples=4, rng_seed=0)
        F2G2 = consts.F**2 * consts.G**2
        G2 = consts.G**2
        rng = np.random.default_rng(iseed)

        xs = rng.uniform(inst.box_lo, inst.box_hi, size=(samples, inst.n))
        betas = rng.uniform(1e-3, 10.0, size=samples)
        zs = np.abs(rng.normal(size=(samples, inst.m))) * rng.uniform(0, 20, size=(samples, 1))
        for i in range(samples):
            vals, grads = inst.constraint_values_and_grads(xs[i])
            mult = np.maximum(betas[i] * vals + zs[i], 0.0)
            lhs = float(np.mean(mult**2 * np.sum(grads * grads, axis=1)))
            rhs = 2 * betas[i] ** 2 * F2G2 + 2 * G2 / inst.m * float(zs[i] @ zs[i])
            worst_margin = min(worst_margin, rhs - lhs)
            if lhs > rhs:
                ok = False
                break

        for i in range(samples):  # mean penalty nonpositive on feasible points
            u = rng.normal(size=inst.n)
            u /= np.linalg.norm(u)
            x = _feasible_sample(inst, u, rng.uniform(0.0, 1.0))
            vals = inst.constraint_values(x)
            assert np.all(vals <= 1e-9)
            z = np.abs(rng.normal(size=inst.m))
            if penalty_mean(np.minimum(vals, 0.0), z, float(rng.uniform(1e-3, 10.0))) > 1e-15:
                ok = False
                break

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _verdict(4, "penalty-gradient and penalty-sign bounds", ok, f"{elapsed:.1f}s, margin {worst_margin:.3g}")


def test_criterion_05_schedule_validator():
    K = 100_000
    m, G, mu = 200, 1.0, 2.0
    ok = True

    a = max_equal_steps(m, G)
    ok &= validate_schedule(fixed_horizon(a, a, K), m, G, K).ok
    a = max_equal_steps(m, G, "anytime")
    ok &= validate_schedule(anytime(a, a), m, G, K).ok
    rho = 0.9 * m / (32 * G * G) * mu
    ok &= validate_schedule(strongly_convex(1.0 / mu, rho, K, mu=mu), m, G, K, mu=mu).ok

    bad_alpha = validate_schedule(
        strongly_convex(1.0 / (2 * mu), rho, K, mu=mu), m, G, K, mu=mu
    )
    ok &= any(c.name == "alpha_ge_inv_mu" and not c.passed for c in bad_alpha.checks)

    too_big = math.sqrt(m / (32 * G * G)) * 1.01
    bad_prod = validate_schedule(fixed_horizon(too_big, too_big, K), m, G, K)
    ok &= any(c.name == "alpha_rho_product" and not c.passed for c in bad_prod.checks)

    assert _verdict(5, "schedule validator", ok)


def test_criterion_06_desk_scale_reproduction(desk_constrained):
    t0 = time.perf_counter()
    inst, consts, ref = desk_constrained
    assert ref.converged
    alpha = max_equal_steps(inst.m, consts.G)
    seeds = range(5)
    epochs = 50
    K = epochs * inst.m

    pdsg_recs = _pdsg_records(inst, alpha, seeds, epochs, ref)
    mp_recs = []
    for seed in seeds:
        cfg = MirrorProxConfig(z_max=zmax_from_reference(ref.z))
        rec = metrics.Recorder(inst, ref.f0, meta={"method": "mirror_prox", "seed": seed})
        mirror_prox_run(inst, cfg, K, seed, recorder=rec, cadence=inst.m)
        mp_recs.append(rec.record)

    p_first = [r.by_point("ergodic_plain")[0] for r in pdsg_recs]
    p_last = [r.by_point("ergodic_plain")[-1] for r in pdsg_recs]
    m_last = [r.by_point("ergodic_plain")[-1] for r in mp_recs]

    inf1 = float(np.mean([r.infeas for r in p_first]))
    inf50 = float(np.mean([r.infeas for r in p_last]))
    obj1 = float(np.mean([r.obj_err for r in p_first]))
    obj50 = float(np.mean([r.obj_err for r in p_last]))

    # (a) is measured against the epoch-1 Lagrangian optimality gap, which
    # bounds the epoch-1 infeasibility from above and is positive even when
    # the feasible start keeps that infeasibility at exactly zero
    sched = fixed_horizon(alpha, alpha, K)
    gaps = []
    for seed, row in zip(seeds, p_first):
        x1 = _first_epoch_ergodic(inst, sched, seed)
        inf_x1 = metrics.infeasibility(inst, x1)
        assert inf_x1 == pytest.approx(row.infeas, rel=1e-9, abs=1e-12)
        assert metrics.objective_error(inst, x1, ref.f0) == pytest.approx(
            row.obj_err, rel=1e-9, abs=1e-12
        )
        gap = _lagrangian_gap(inst, ref, x1)
        assert gap >= inf_x1 - 1e-9, f"seed {seed}: gap {gap:.3g} < infeas {inf_x1:.3g}"
        gaps.append(gap)
    gap1 = float(np.mean(gaps))
    bound_a = 0.05 * gap1

    ok_a = inf50 <= bound_a
    ok_b = obj50 <= 0.2 * obj1
    wins = sum(
        1
        for p, q in zip(p_last, m_last)
        if p.obj_err < q.obj_err and p.infeas < q.infeas
    )
    ok_c = wins >= 4
    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 60.0

    detail = (
        f"(a) infeas {inf1:.3g} -> {inf50:.3g}, epoch-1 gap {gap1:.3g}, "
        f"bound 0.05*gap {bound_a:.3g} [{'ok' if ok_a else 'VIOLATED'}]; "
        f"(b) obj {obj1:.3g} -> {obj50:.3g}, ratio {obj50 / obj1:.3f} [{'ok' if ok_b else 'VIOLATED'}]; "
        f"(c) pdsg wins {wins}/5 [{'ok' if ok_c else 'VIOLATED'}]; {elapsed:.0f}s"
    )
    ok = ok_a and ok_b and ok_c and ok_time
    _verdict(6, "desk-scale convex reproduction", ok, detail)
    assert ok, (
        "criterion 6: (a) epoch-50 ergodic infeasibility at most 0.05 times the "
        "epoch-1 Lagrangian optimality gap, (b) objective error ratio at most "
        "0.2, (c) pdsg beats mirror-prox on at least 4 of 5 seeds, in under 60 s "
        "(see notes/decisions.md). measured: " + detail
    )


def test_criterion_07_rate_order(desk_interior):
    inst, consts, ref = desk_interior
    alpha = max_equal_steps(inst.m, consts.G)
    records = _pdsg_records(inst, alpha, range(10), 50, ref)

    per_epoch = {}
    for rec in records:
        for row in rec.by_point("ergodic_plain"):
            per_epoch.setdefault(row.epoch, []).append((row.obj_err, row.infeas))
    eps, vals = [], []
    for ep in sorted(per_epoch):
        if 5 <= ep <= 50:
            arr = np.asarray(per_epoch[ep])
            eps.append(ep)
            vals.append(arr[:, 0].mean() + arr[:, 1].mean())
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    ok = slope <= -0.35
    assert _verdict(7, "rate-order check", ok, f"slope {slope:.3f} (target -0.5)")


def test_criterion_08_strongly_convex():
    inst = random_scenario_lp(10, 50, 8, seed=2)
    consts = certify_constants(inst)
    ref = full_batch_reference(inst, tol=1e-10)
    mu = consts.mu
    assert mu == pytest.approx(1.0, abs=1e-12)
    alpha = 1.0 / mu
    rho = 0.9 * inst.m / (32 * consts.G**2) / alpha
    K0 = 50 * inst.m

    means = {}
    for K in (K0, 4 * K0):
        sched = strongly_convex(alpha, rho, K, mu=mu)
        assert validate_schedule(sched, inst.m, consts.G, K, mu=mu).ok
        sq = []
        for seed in range(10):
            state, _ = run(inst, sched, K, seed)
            sq.append(float(np.sum((state.x - ref.x) ** 2)))
        means[K] = float(np.mean(sq))

    ratio = means[4 * K0] / means[K0]
    ok = ratio <= 0.5
    assert _verdict(
        8, "strongly convex check", ok, f"ratio {ratio:.3f} (theory ~0.31, limit 0.5)"
    )


class _ZNormRecorder:
    def __init__(self):
        self.record = metrics.RunRecord()
        self.z_sq = []

    def __call__(self, state):
        self.z_sq.append(float(state.z @ state.z))
        return None


def test_criterion_09_dual_boundedness_envelope(desk_interior):
    inst, consts, ref = desk_interior
    alpha = max_equal_steps(inst.m, consts.G)
    K = 10 * inst.m

    traces = []
    for seed in range(20):
        rec = _ZNormRecorder()
        run(inst, fixed_horizon(alpha, alpha, K), K, seed, recorder=rec, cadence=1)
        traces.append(rec.z_sq)
    mean_z_sq = np.asarray(traces).mean(axis=0)

    b = BoundInputs(
        alpha=alpha,
        rho=alpha,
        m=inst.m,
        F=consts.F,
        G=consts.G,
        sigma=consts.sigma,
        dist0=float(np.linalg.norm(inst.start_point() - ref.x)),
        zstar_norm=float(np.linalg.norm(ref.z)),
        ones_plus_zstar_norm=float(np.linalg.norm(1.0 + ref.z)),
    )
    bound = dual_bound("fixed_horizon", b, K=K)
    ok = bool(np.all(mean_z_sq <= bound))
    assert _verdict(
        9,
        "dual boundedness envelope",
        ok,
        f"max mean |z|^2 = {mean_z_sq.max():.3g} vs bound {bound:.3g}",
    )


def test_criterion_10_oracle_equivalence(one_dim):
    cases = []  # (name, instance, analytic x*, pdsg step scalar or None for valid)

    cases.append(("linear-1d", one_dim, np.array([-1.0]), "hand"))

    sc1 = random_scenario_lp(1, 1, 1, seed=3)
    cbar = sc1.data.c.mean(axis=0)
    a, b = sc1.data.a[0], sc1.data.b[0]
    x_an = cbar if float(a @ cbar) <= b else np.array([b / a[0]])
    cases.append(("scenario-1d", sc1, np.clip(x_an, sc1.box_lo, sc1.box_hi), "valid"))

    for n, p, m, seed in ((4, 3, 8, 2), (4, 3, 8, 3), (5, 4, 10, 0), (5, 4, 10, 2), (3, 2, 6, 2), (3, 2, 6, 3)):
        cases.append((f"qcqp-{n}-{seed}", random_qcqp(n, p, 30, m, seed=seed), None, "practical"))
    for seed in (0, 1):
        cases.append((f"scenario-4d-{seed}", random_scenario_lp(4, 8, 3, seed=seed), None, "valid"))

    assert len(cases) == 10
    ok = True
    details = []
    for name, inst, x_an, stepping in cases:
        ref = full_batch_reference(inst, tol=1e-7)
        kkt = metrics.kkt_residual(inst, ref.x, ref.z)
        kkt_ok = (
            kkt.stationarity <= 1e-5
            and kkt.primal_infeas <= 1e-5
            and kkt.complementarity <= 1e-5
            and kkt.dual_infeas <= 1e-5
        )
        an_ok = x_an is None or float(np.max(np.abs(ref.x - x_an))) <= 1e-6

        K = 200 * inst.m
        if stepping == "hand":
            scal = math.sqrt(K)  # alpha_k = rho_k = 1, the hand-trace stepping
        elif stepping == "practical":
            scal = 1.0
        else:
            scal = max_equal_steps(inst.m, certify_constants(inst, samples=2).G)
        state, _ = run(inst, fixed_horizon(scal, scal, K), K, seed=0)
        err = abs(inst.objective(state.ergodic_plain()) - ref.f0)
        case_ok = kkt_ok and an_ok and err <= 1e-2
        ok &= case_ok
        details.append(f"{name}: kkt {kkt.max():.1e} err {err:.1e}{'' if case_ok else ' FAIL'}")
    assert _verdict(10, "oracle equivalence", ok, "; ".join(details))


def test_criterion_11_scenario_sizing():
    ok = scenario_count_robust(100, 0.01, 0.01) == 999_999

    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        p = int(rng.integers(0, 6))
        tau = float(rng.uniform(0.05, 0.45))
        eps = float(rng.uniform(0.02, 0.5))
        N = scenario_count_discarding(n, tau, eps, p)
        ok &= N >= p + n
        ok &= _log_discard_lhs(N, n, tau, p) <= math.log(eps)
        if N - 1 >= p + n:
            ok &= _log_discard_lhs(N - 1, n, tau, p) > math.log(eps)
    assert _verdict(11, "scenario sizing", ok)
