"""End-to-end acceptance checks for the energy-aware inference stack.

Twelve numbered tests, one per release gate. Each prints a single line of
measured values; the pytest outcome line is the verdict. Every expected
number is either a closed form computed in the test, an independent
enumeration, or a published target with its stated tolerance. Runtime
budgets are asserted alongside correctness.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from ehinfer.confidence import (ConfidenceDataset, SyntheticSpec,
                                default_spec, distort_calibration,
                                exit_accuracy, generate_synthetic)
from ehinfer.dqn import (QNetwork, TrainConfig, encode_inc, greedy_action,
                         td_loss_and_grads, train, _inc_feasible)
from ehinfer.env import (ArrivalModel, BatteryConfig, EpochConfig,
                         HarvestChain, HarvestEnvironment, battery_step,
                         energy_rate, two_state_env)
from ehinfer.harness import (IncDqnController, IncTableController,
                             MmsController, OracleController, SweepGrid,
                             exit_probability_matrix, exit_probability_mc,
                             exit_probability_mms, simulate, sweep)
from ehinfer.mdp import (FiniteMdp, build_inc_iag_mdp, build_mms_mdp,
                         check_monotone, check_superadditive,
                         dominance_margin, evaluate_policy, fixed_point,
                         policy_iteration, q_table, value_iteration)
from ehinfer.oracle import (approx_operator, build_partition_matrices, region_of,
                            solve_oracle)

RICH_ROWS = [(0.2, 0.1), (0.4, 0.2), (0.7, 0.35), (0.9, 0.55),
             (1.0, 0.75), (1.0, 1.0)]
RATE_TARGETS = [0.54, 1.11, 1.92, 2.52, 2.88, 3.00]


def reference_env(b_max=30, **kw):
    """The figure-of-merit environment: good/bad chain with solar-like bursts."""
    return two_state_env(0.9, 0.5, 0.8, 0.0, b_max=b_max, **kw)


@pytest.fixture(scope="module")
def ds10k():
    return generate_synthetic(np.random.default_rng(42), default_spec(), 10_000)


@pytest.fixture(scope="module")
def est20k():
    return generate_synthetic(np.random.default_rng(42), default_spec(), 20_000)


@pytest.fixture(scope="module")
def test10k():
    return generate_synthetic(np.random.default_rng(43), default_spec(), 10_000)


def grid_sample(n=24, seed=7):
    cells = SweepGrid().cells()
    picks = np.random.default_rng(seed).choice(len(cells), size=n, replace=False)
    return [cells[i] for i in picks]


def test_01_battery_and_kernel_physics():
    t0 = time.monotonic()
    # exhaustive battery update against the clipping closed form
    b_max = 10
    for b in range(11):
        for u in range(4):
            for e in range(3):
                assert battery_step(b, u, e, b_max) == min(max(b - u + e, 0), b_max)
    env = reference_env()
    worst_row = 0.0
    for u in set(env.battery.cost):
        worst_row = max(worst_row, float(np.abs(
            env.slot_kernel(u).sum(axis=1) - 1.0).max()))
    for a in range(env.n_modes):
        worst_row = max(worst_row, float(np.abs(
            env.epoch_kernel(a).sum(axis=1) - 1.0).max()))
    assert worst_row <= 1e-9

    # inverse-cdf Monte Carlo of one epoch vs the kernel row
    n = 10**5
    a, b0, h0 = 2, 15, 0
    rng = np.random.default_rng(123)
    cum_chain = np.cumsum(env.chain.transition, axis=1)
    cum_arr = np.cumsum(env.arrivals.pmf_per_state, axis=1)
    b = np.full(n, b0)
    h = np.full(n, h0)
    for tau in range(env.epoch.T):
        c = env.battery.cost[a] if tau == 0 else 0
        e = (rng.random(n)[:, None] > cum_arr[h]).sum(axis=1)
        h = (rng.random(n)[:, None] > cum_chain[h]).sum(axis=1)
        b = np.clip(b - c + e, 0, env.battery.b_max)
    emp = np.bincount(b * env.chain.n + h, minlength=env.n_states) / n
    expect = env.epoch_kernel(a)[env.state_index(b0, h0)]
    sigma = np.sqrt(np.maximum(expect * (1 - expect), 0.0) / n)
    mc_ok = np.abs(emp - expect) <= 3 * sigma + 1e-6
    assert mc_ok.all()
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"01 battery/kernels: exhaustive update exact, row-sum dev "
          f"{worst_row:.1e}, MC max |emp-p| {np.abs(emp - expect).max():.2e} "
          f"({dt:.1f}s)")


def test_02_energy_rate_table():
    t0 = time.monotonic()
    got = []
    for (pe_g, pe_b), target in zip(RICH_ROWS, RATE_TARGETS):
        env = two_state_env(0.9, 0.5, pe_g, pe_b, b_max=5)
        mu = energy_rate(env.chain, env.arrivals, env.epoch.T)
        got.append(mu)
        assert mu == pytest.approx(target, abs=0.02)
    # closed form: stationary law of the (0.9, 0.5) chain is (5/6, 1/6)
    exact = [3 * (5 / 6 * g + 1 / 6 * b) for g, b in RICH_ROWS]
    assert np.allclose(got, exact, atol=1e-12)
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"02 energy rate: {['%.3f' % m for m in got]} vs targets "
          f"{RATE_TARGETS} +-0.02 ({dt:.2f}s)")


def test_03_monotone_and_superadditive(ds10k):
    t0 = time.monotonic()
    rho = exit_accuracy(ds10k)
    envs = [reference_env()] + [two_state_env(*cell) for cell in grid_sample()]
    worst = 0.0
    for env in envs:
        mdp = build_mms_mdp(env, rho)
        vt, pol = policy_iteration(mdp)
        ok_m, where = check_monotone(pol, env)
        assert ok_m, f"monotone violated at {where} in {env.fingerprint()}"
        ok_s, deficit = check_superadditive(q_table(mdp, vt), env, tol=1e-9)
        assert ok_s, f"superadditive deficit {deficit} in {env.fingerprint()}"
        worst = max(worst, deficit)
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"03 structure: {len(envs)} environments monotone+superadditive, "
          f"worst deficit {worst:.2e} ({dt:.1f}s)")


def test_04_incremental_dominance(ds10k):
    t0 = time.monotonic()
    rho = exit_accuracy(ds10k)
    envs = [reference_env()] + [two_state_env(*cell) for cell in grid_sample()]
    margins = [dominance_margin(env, rho) for env in envs]
    assert min(margins) >= -1e-6
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"04 dominance: {len(envs)} environments, min margin "
          f"{min(margins):+.2e} ({dt:.1f}s)")


def test_05_three_mode_decision_geometry():
    t0 = time.monotonic()
    pm = build_partition_matrices(3)
    assert np.array_equal(pm.m[0], [[1, -1, 0], [1, 0, -1]])
    assert np.array_equal(pm.m[1], [[-1, 1, 0], [0, 1, -1]])
    assert np.array_equal(pm.m[2], [[-1, 0, 1], [0, -1, 1]])
    assert np.array_equal(pm.f[0], [[-1, 0], [0, -1]])
    assert np.array_equal(pm.f[1], [[1, 0], [1, -1]])
    assert np.array_equal(pm.f[2], [[0, 1], [-1, 1]])

    spec = SyntheticSpec(accuracies=(1 / 200, 0.6, 0.8), n_classes=200)
    ds = generate_synthetic(np.random.default_rng(9), spec, 4000)
    env = two_state_env(0.9, 0.5, 0.3, 0.0, b_max=5, costs=(0, 1, 2), T=2)
    sol = solve_oracle(env, ds, eps=1e-8)

    # grid agreement between the region map and a recomputed argmax
    axis = np.linspace(0.0, 1.0, 101)
    z0 = 1 / 200
    cont = np.stack([
        0.9 * (env.epoch_kernel(a) @ sol.v_bar) for a in range(3)
    ])                                                     # (A, S)
    costs = np.asarray(env.battery.cost)
    mismatches = 0
    for b in range(6):
        for h in range(2):
            s = env.state_index(b, h)
            base = cont[:, s].copy()
            base[costs > b] = -np.inf
            for z1 in axis:
                brute = np.where(
                    z0 + base[0] >= np.maximum(z1 + base[1], axis + base[2]),
                    0, np.where(z1 + base[1] >= axis + base[2], 1, 2))
                lib = [region_of((z0, z1, z2), b, h, sol) for z2 in axis]
                mismatches += int(np.sum(brute != np.array(lib)))
    assert mismatches == 0

    # the free-mode region at full battery is an axis-aligned rectangle
    b, h = 5, 0
    delta = sol.delta_of(b, h)
    t1, t2 = z0 + delta[0], z0 + delta[1]
    assert 0 < t1 < 1 and 0 < t2 < 1
    region = np.array([[region_of((z0, z1, z2), b, h, sol)
                        for z2 in axis] for z1 in axis])
    rect = (axis[:, None] <= t1) & (axis[None, :] <= t2)
    assert np.array_equal(region == 0, rect)

    # the boundary between the informed modes is a unit-slope line
    icpt = delta[1] - delta[0]
    z1s = np.linspace(t1 + 0.02, 1 - icpt - 0.02, 25)
    z2s = []
    for z1 in z1s:
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if region_of((z0, z1, mid), b, h, sol) == 2:
                hi = mid
            else:
                lo = mid
        z2s.append(0.5 * (lo + hi))
    slope, fit_icpt = np.polyfit(z1s, np.array(z2s), 1)
    residual = float(np.abs(np.array(z2s) - (slope * z1s + fit_icpt)).max())
    assert abs(slope - 1.0) < 1e-9
    assert residual < 1e-9
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"05 geometry: grid agreement 101x101x12 exact, rectangle "
          f"[0,{t1:.3f}]x[0,{t2:.3f}], boundary slope {slope:.12f} "
          f"residual {residual:.1e} ({dt:.1f}s)")


def test_06_empirical_operator(ds10k):
    t0 = time.monotonic()
    env = reference_env(b_max=5)
    # contraction of the operator's residual sequence, iterated from zero
    # (solve_oracle's policy iteration records Bellman residuals, which
    # would not test the operator); the 1e-2 stopping point keeps every
    # residual far above the float noise floor of the averaged maxima
    # (about 3e-12 absolute)
    gamma = env.epoch.discount_epoch
    _, res = fixed_point(lambda v: approx_operator(v, ds10k, env, gamma),
                         env.n_states, 1e-2, 10**5, "operator iteration")
    res = np.array(res)
    ratios = res[1:] / res[:-1]
    worst_ratio = float(ratios.max()) if len(ratios) else 0.0
    assert worst_ratio <= 0.9 + 1e-9

    # two independent datasets agree on the mean value function
    ds_a = generate_synthetic(np.random.default_rng(0), default_spec(), 10_000)
    ds_b = generate_synthetic(np.random.default_rng(1), default_spec(), 10_000)
    va = solve_oracle(env, ds_a, gamma=0.5, eps=1e-6).v_bar
    vb = solve_oracle(env, ds_b, gamma=0.5, eps=1e-6).v_bar
    sup = float(np.abs(va - vb).max())
    assert sup < 0.01

    # myopic closed form: mean best feasible confidence
    sol0 = solve_oracle(env, ds10k, gamma=0.0, eps=1e-12)
    costs = np.asarray(env.battery.cost)
    err0 = 0.0
    for b in range(6):
        feas = costs <= b
        expect = ds10k.z[:, feas].max(axis=1).mean()
        for h in range(2):
            err0 = max(err0, abs(sol0.v_bar[env.state_index(b, h)] - expect))
    assert err0 <= 1e-12
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"06 operator: worst residual ratio {worst_ratio:.6f} <= 0.9+1e-9, "
          f"dataset sup diff {sup:.4f} < 0.01, myopic error {err0:.1e} "
          f"({dt:.1f}s)")


def test_07_exit_probabilities(ds10k):
    t0 = time.monotonic()
    env = reference_env()
    rho = exit_accuracy(ds10k)
    _, ipol = value_iteration(build_inc_iag_mdp(env, rho), eps=1e-8)
    eta = exit_probability_matrix(ipol, env)
    row_dev = float(np.abs(eta.sum(axis=1) - 1.0).max())
    assert row_dev <= 1e-9

    ctrl = IncTableController(ipol, env)
    n = 10**5
    worst_z = 0.0
    for b0, h0 in ((30, 0), (3, 1), (0, 0)):
        mc = exit_probability_mc(ctrl, ds10k, (b0, h0), n, seed=17)
        p = eta[env.state_index(b0, h0)]
        sigma = np.sqrt(np.maximum(p * (1 - p), 0.0) / n)
        gap = np.abs(mc - p)
        assert np.all(gap <= 3 * sigma + 1e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            worst_z = max(worst_z, float(np.nanmax(
                np.where(sigma > 0, gap / sigma, 0.0))))

    _, mpol = policy_iteration(build_mms_mdp(env, rho))
    eta_os = exit_probability_mms(mpol, env)
    assert np.allclose(eta_os.sum(axis=1), 1.0)
    assert set(np.unique(eta_os)) <= {0.0, 1.0}
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"07 exit probabilities: row-sum dev {row_dev:.1e}, MC worst "
          f"{worst_z:.2f} sigma over 3 starts, one-shot one-hot ({dt:.1f}s)")


def test_08_calibration_effect(est20k, test10k):
    t0 = time.monotonic()
    test_dist = distort_calibration(test10k, 0.5)
    gaps = []
    for pe_g, pe_b in RICH_ROWS:
        env = two_state_env(0.9, 0.5, pe_g, pe_b, b_max=5)
        sol = solve_oracle(env, est20k, eps=1e-6)
        ctrl = OracleController(sol)
        acc = {}
        for name, ds in (("cal", test10k), ("dist", test_dist)):
            res = simulate(ctrl, ds, episodes=10, epochs=2000, seed=3)
            acc[name] = float(np.mean([r.accuracy for r in res]))
        assert acc["cal"] >= acc["dist"], \
            f"distorted beat calibrated at ({pe_g},{pe_b})"
        gaps.append(acc["cal"] - acc["dist"])
    mean_gap = float(np.mean(gaps))
    assert 0.005 <= mean_gap <= 0.06
    dt = time.monotonic() - t0
    assert dt < 300.0
    print(f"08 calibration: per-row gaps {['%+.4f' % g for g in gaps]}, "
          f"mean {mean_gap:.4f} in [0.005, 0.06] ({dt:.0f}s)")


def test_09_aware_vs_agnostic(ds10k):
    t0 = time.monotonic()
    grid = SweepGrid(p_g=(0.9, 0.5), p_b=(0.5, 0.3), pe_g=(0.8, 1.0),
                     pe_b=(0.0, 0.2), b_max=(5,), seeds=(0,),
                     episodes=10, epochs=2000)
    rows = sweep(grid, ("MmS", "OsIAwOracle"), ds10k)
    near = [r for r in rows if abs(r["mu"] - 2.0) <= 0.15]
    assert near, "no cells near the two-packet rate"
    mms = np.mean([r["accuracy"] for r in near if r["controller"] == "MmS"])
    orc = np.mean([r["accuracy"] for r in near
                   if r["controller"] == "OsIAwOracle"])
    gap = float(orc - mms)
    assert gap >= 0.02

    # saturated harvest: every informed controller sits at the top
    # mode's accuracy
    rho = exit_accuracy(ds10k)
    plateau = []
    for p_g, p_b in ((0.9, 0.5), (0.7, 0.3)):
        env = two_state_env(p_g, p_b, 1.0, 1.0, b_max=30)
        assert energy_rate(env.chain, env.arrivals, env.epoch.T) == \
            pytest.approx(3.0, abs=1e-12)
        _, mpol = policy_iteration(build_mms_mdp(env, rho))
        _, ipol = value_iteration(build_inc_iag_mdp(env, rho), eps=1e-8)
        sol = solve_oracle(env, ds10k, eps=1e-6)
        for ctrl in (MmsController(mpol, env), IncTableController(ipol, env),
                     OracleController(sol)):
            res = simulate(ctrl, ds10k, episodes=10, epochs=2000, seed=0)
            acc = float(np.mean([r.accuracy for r in res]))
            plateau.append(acc)
            assert acc == pytest.approx(0.83, abs=0.02), \
                f"{ctrl.kind} off the saturation plateau: {acc:.4f}"
    dt = time.monotonic() - t0
    assert dt < 600.0
    print(f"09 aware vs agnostic: near-rate-2 gap {gap:+.4f} >= 0.02, "
          f"saturation accuracies {['%.4f' % a for a in plateau]} ~ 0.83 "
          f"({dt:.0f}s)")


# ---- toy problem with a finite confidence alphabet, solvable exactly ----

Z_LO, Z_HI, Z0, Z2 = 0.40, 0.90, 0.25, 0.95
P_HI = 0.5


def toy_env():
    chain = HarvestChain(states=("S",), transition=np.array([[1.0]]))
    arr = ArrivalModel(pmf_per_state=np.array([[0.5, 0.5]]))
    bat = BatteryConfig(b_max=2, cost=(0, 1, 2))
    ep = EpochConfig(2, 0.9)
    return HarvestEnvironment(chain=chain, arrivals=arr, battery=bat, epoch=ep)


def toy_dataset():
    z = np.array([[Z0, Z_LO, Z2], [Z0, Z_HI, Z2]])
    correct = np.array([[0, 0, 1], [0, 1, 1]], dtype=np.int8)
    return ConfidenceDataset(z, correct)


def z_of(xi, lvl):
    """Observed confidence at an exit; lvl encodes what has been revealed."""
    if xi == 0:
        return Z0
    if xi == 2:
        return Z2
    return {0: P_HI * Z_HI + (1 - P_HI) * Z_LO, 1: Z_LO, 2: Z_HI}[lvl]


def toy_obs_mdp(env):
    """Exact slot-level model over (b, xi, tau, revealed level)."""
    t, bmax = env.epoch.T, env.battery.b_max
    n_b, n_xi, n_lvl = bmax + 1, 3, 3
    n = n_b * n_xi * t * n_lvl

    def idx(b, xi, tau, lvl):
        return ((b * n_xi + xi) * t + tau) * n_lvl + lvl

    trans = np.zeros((2, n, n))
    reward = np.zeros((n, 2))
    feas = np.zeros((n, 2), dtype=bool)
    for b in range(n_b):
        for xi in range(n_xi):
            for tau in range(t):
                for lvl in range(n_lvl):
                    s = idx(b, xi, tau, lvl)
                    feas[s, 0] = True
                    feas[s, 1] = xi < n_xi - 1 and b >= 1
                    for a in (0, 1):
                        if not feas[s, a]:
                            trans[a, s, s] = 1.0   # placeholder, never taken
                            continue
                        xi1 = xi + a
                        if xi == 0 and a == 1:
                            lvl_dist = {1: 1 - P_HI, 2: P_HI}
                        else:
                            lvl_dist = {lvl: 1.0}
                        if tau == t - 1:
                            reward[s, a] = sum(
                                p * z_of(xi1, l1)
                                for l1, p in lvl_dist.items())
                        for l1, p in lvl_dist.items():
                            for e in (0, 1):
                                b1 = battery_step(b, a, e, bmax)
                                if tau == t - 1:
                                    s1 = idx(b1, 0, 0, 0)
                                else:
                                    s1 = idx(b1, xi1, tau + 1, l1)
                                trans[a, s, s1] += 0.5 * p
    mdp = FiniteMdp(transition=trans, reward=reward, feasible=feas,
                    discount=env.epoch.discount_slot)
    return mdp, idx


def dqn_policy_on_obs(net, env, idx, n):
    actions = np.zeros(n, dtype=int)
    for b in range(env.battery.b_max + 1):
        for xi in range(3):
            for tau in range(env.epoch.T):
                for lvl in range(3):
                    x = encode_inc(env, b, 0, xi, tau, z_of(xi, lvl))
                    actions[idx(b, xi, tau, lvl)] = greedy_action(
                        net, x, _inc_feasible(env, b, xi))
    return actions


def test_10_dqn(est20k, test10k):
    t0 = time.monotonic()
    # analytic gradients against central differences
    rng = np.random.default_rng(7)
    net = QNetwork.create(rng, 5, 3, hidden=(8,))
    target = QNetwork.create(rng, 5, 3, hidden=(8,))
    batch = (rng.random((4, 5)), rng.integers(0, 3, size=4), rng.random(4),
             rng.random((4, 5)), np.ones((4, 3), dtype=bool),
             np.zeros(4, dtype=bool))
    _, grads = td_loss_and_grads(net, target, batch, 0.9)
    eps = 1e-6
    worst_rel = 0.0
    check_rng = np.random.default_rng(8)
    for p, g in zip(net.parameters(), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in check_rng.integers(0, flat_p.size, size=5):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            lp, _ = td_loss_and_grads(net, target, batch, 0.9)
            flat_p[i] = orig - eps
            lm, _ = td_loss_and_grads(net, target, batch, 0.9)
            flat_p[i] = orig
            fd = (lp - lm) / (2 * eps)
            worst_rel = max(worst_rel, abs(fd - flat_g[i]) / max(1.0, abs(fd)))
    assert worst_rel < 1e-4

    # finite-alphabet toy: learned policy evaluated exactly in the
    # observation model must reach 95% of the planning optimum
    env_t = toy_env()
    mdp, idx = toy_obs_mdp(env_t)
    vt, _ = policy_iteration(mdp)
    s0 = idx(env_t.battery.b_max, 0, 0, 0)
    v_opt = float(vt.values[s0])
    cfg = TrainConfig(mode="incremental", lr=3e-4, total_steps=40_000,
                      eps_decay_steps=15_000, target_sync=500,
                      buffer_capacity=20_000, warmup=500,
                      eval_every=10**9, eval_epochs=1, seed=0)
    net_t, _ = train(env_t, toy_dataset(), cfg)
    actions = dqn_policy_on_obs(net_t, env_t, idx, mdp.n_states)
    v_dqn = float(evaluate_policy(mdp, actions)[s0])
    ratio = v_dqn / v_opt
    assert ratio >= 0.95

    # tight battery: the confidence-aware learner beats the blind
    # slot-level optimum, paired across evaluation seeds
    env = reference_env(b_max=3)
    rho = exit_accuracy(est20k)
    _, ipol = value_iteration(build_inc_iag_mdp(env, rho), eps=1e-8)
    iag = IncTableController(ipol, env)
    cfg3 = TrainConfig(mode="incremental", lr=1e-4, total_steps=300_000,
                       eps_decay_steps=75_000, target_sync=1000,
                       buffer_capacity=100_000, warmup=1000,
                       eval_every=50_000, eval_epochs=500, seed=0)
    net3, _ = train(env, est20k, cfg3)
    dqn = IncDqnController(net3, env)
    diffs = []
    for seed in range(10):
        accs = {}
        for name, ctl in (("iag", iag), ("dqn", dqn)):
            res = simulate(ctl, test10k, episodes=10, epochs=2000,
                           seed=seed)
            accs[name] = float(np.mean([r.accuracy for r in res]))
        diffs.append(accs["dqn"] - accs["iag"])
    diffs = np.array(diffs)
    tstat = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs)))
    assert diffs.mean() > 0
    assert tstat > 1.833   # one-sided 5%, nine degrees of freedom
    dt = time.monotonic() - t0
    assert dt < 1200.0
    print(f"10 dqn: grad rel err {worst_rel:.1e} < 1e-4, toy ratio "
          f"{ratio:.4f} >= 0.95, tight-battery diff {diffs.mean():+.4f} "
          f"t={tstat:.2f} > 1.833 ({dt:.0f}s)")


def test_11_baseline_ordering(ds10k):
    t0 = time.monotonic()
    grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.3, 0.8),
                     pe_b=(0.0, 0.3), b_max=(3, 10, 30),
                     seeds=(0, 1, 2, 3, 4), episodes=10, epochs=1000)
    rows = sweep(grid, ("MmS", "IncIAgEE", "OsIAwOracle", "RandomFeasible"),
                 ds10k)
    key = lambda r: (r["p_h_G"], r["p_h_B"], r["p_e_G"], r["p_e_B"],
                     r["b_max"], r["seed"])
    rand = {key(r): r["accuracy"] for r in rows
            if r["controller"] == "RandomFeasible"}
    stats = {}
    for kind in ("MmS", "IncIAgEE", "OsIAwOracle"):
        diffs = np.array([r["accuracy"] - rand[key(r)]
                          for r in rows if r["controller"] == kind])
        tstat = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs)))
        stats[kind] = (float(diffs.mean()), float(tstat), len(diffs))
        assert diffs.mean() > 0
        assert tstat > 1.671   # one-sided 5%, 59 degrees of freedom
    dt = time.monotonic() - t0
    assert dt < 600.0
    summary = ", ".join(f"{k} +{m:.4f} (t={t:.1f})"
                        for k, (m, t, _) in stats.items())
    print(f"11 baseline ordering: {summary} over {stats['MmS'][2]} paired "
          f"cells ({dt:.0f}s)")


def test_12_cli_reproducibility(tmp_path, monkeypatch):
    from ehinfer.cli import main

    t0 = time.monotonic()
    monkeypatch.delenv("EH_INFER_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
    with open(tmp_path / "env.json", "w") as fh:
        json.dump(env.to_config(), fh)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "p_g": [0.9], "p_b": [0.5], "pe_g": [0.8], "pe_b": [0.0],
        "b_max": [2], "seeds": [0], "episodes": 2, "epochs": 50}))

    def run_twice(args, outputs):
        digests = []
        for _ in range(2):
            rc = main(args)
            assert rc == 0, f"command failed: {args}"
            digests.append([
                hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
                for out in outputs
            ])
        assert digests[0] == digests[1], f"artifacts differ for: {args}"

    run_twice(["gen-data", "--n", "200", "--seed", "5", "--out", "ds.jsonl"],
              ["ds.jsonl", "ds.jsonl.summary.json"])
    run_twice(["calibrate", "--dataset", "ds.jsonl", "--tau", "0.5",
               "--out", "warp.jsonl"],
              ["warp.jsonl", "warp.jsonl.summary.json"])
    run_twice(["solve", "--kind", "mms", "--env", "env.json",
               "--dataset", "ds.jsonl", "--out", "mms.json"],
              ["mms.json", "mms.json.report.json"])
    run_twice(["solve", "--kind", "inc-iag", "--env", "env.json",
               "--dataset", "ds.jsonl", "--out", "iag.json"],
              ["iag.json", "iag.json.report.json"])
    run_twice(["solve", "--kind", "oracle", "--env", "env.json",
               "--dataset", "ds.jsonl", "--eps", "1e-4", "--out", "orc.json"],
              ["orc.json", "orc.json.report.json"])
    run_twice(["train-dqn", "--env", "env.json", "--dataset", "ds.jsonl",
               "--steps", "150", "--eps-decay", "100", "--eval-every", "150",
               "--eval-epochs", "20", "--seed", "4", "--out", "net.json"],
              ["net.json", "net.json.curve.csv"])
    run_twice(["simulate", "--env", "env.json", "--dataset", "ds.jsonl",
               "--controller", "mms", "--policy", "mms.json",
               "--episodes", "2", "--epochs", "100", "--seed", "6",
               "--out", "sim.csv"], ["sim.csv"])
    run_twice(["exit-probs", "--env", "env.json", "--controller", "inc-iag",
               "--policy", "iag.json", "--out", "eta.csv"], ["eta.csv"])
    run_twice(["sweep", "--grid", str(grid), "--dataset", "ds.jsonl",
               "--kinds", "MmS,RandomFeasible", "--seed", "0",
               "--out", "rows.csv"], ["rows.csv"])
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"12 reproducibility: 9 commands, byte-identical re-runs "
          f"({dt:.0f}s)")
