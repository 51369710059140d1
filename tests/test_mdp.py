import itertools
import json
import tracemalloc

import numpy as np
import pytest

from ehinfer.confidence import default_spec, generate_synthetic, exit_accuracy
from ehinfer.env import two_state_env
from ehinfer.mdp import (FiniteMdp, NotConverged, ValueTable,
                         build_inc_iag_mdp, build_mms_mdp, check_monotone,
                         check_superadditive, dominance_margin,
                         evaluate_policy, greedy, inc_state_index, load_policy, policy_iteration,
                         q_table, save_policy, state_keys, value_iteration)
from test_acceptance import grid_sample, reference_env

RHO = np.array([0.005, 0.53, 0.69, 0.83])


def single_state_mdp(gamma=0.9, reward=1.0):
    return FiniteMdp(transition=np.ones((1, 1, 1)),
                     reward=np.array([[reward]]),
                     feasible=np.ones((1, 1), dtype=bool),
                     discount=gamma)


class TestFiniteMdp:
    def test_geometric_series(self):
        vt, _ = value_iteration(single_state_mdp(), eps=1e-12)
        assert vt.values[0] == pytest.approx(10.0, abs=1e-9)

    def test_two_state_linear_solve(self):
        p = np.array([[[0.3, 0.7], [0.6, 0.4]]])
        r = np.array([[0.2], [0.9]])
        mdp = FiniteMdp(transition=p, reward=r,
                        feasible=np.ones((2, 1), dtype=bool),
                        discount=0.8)
        expect = np.linalg.solve(np.eye(2) - 0.8 * p[0], r[:, 0])
        vt, _ = value_iteration(mdp, eps=1e-12)
        assert np.allclose(vt.values, expect, atol=1e-9)
        assert np.allclose(evaluate_policy(mdp, np.zeros(2, dtype=int)), expect)

    def test_residuals_contract(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        vt, _ = value_iteration(build_mms_mdp(env, RHO), eps=1e-8)
        r = np.array(vt.residuals)
        clean = r[:-1] >= 1e-4
        assert np.all(r[1:][clean] <= 0.9 * r[:-1][clean] + 1e-9)
        assert r[-1] <= 1e-8

    def test_nonstochastic_rejected(self):
        with pytest.raises(ValueError):
            FiniteMdp(transition=np.full((1, 1, 1), 0.5),
                      reward=np.array([[1.0]]),
                      feasible=np.ones((1, 1), dtype=bool),
                      discount=0.9)

    def test_reward_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FiniteMdp(transition=np.ones((1, 1, 1)),
                      reward=np.array([[1.5]]),
                      feasible=np.ones((1, 1), dtype=bool),
                      discount=0.9)

    # NaN compares False both ways, so "no reward below 0 or above 1" let it through
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_feasible_reward_must_be_a_probability(self, bad):
        with pytest.raises(ValueError, match="feasible rewards must lie in"):
            FiniteMdp(transition=np.ones((1, 1, 1)),
                      reward=np.array([[bad]]),
                      feasible=np.ones((1, 1), dtype=bool),
                      discount=0.9)

    def test_every_state_needs_a_feasible_action(self):
        with pytest.raises(ValueError):
            FiniteMdp(transition=np.ones((1, 1, 1)),
                      reward=np.array([[1.0]]),
                      feasible=np.zeros((1, 1), dtype=bool),
                      discount=0.9)

    def test_greedy_breaks_ties_to_smallest(self):
        p = np.ones((2, 1, 1))
        mdp = FiniteMdp(transition=p, reward=np.array([[0.5, 0.5]]),
                        feasible=np.ones((1, 2), dtype=bool),
                        discount=0.5)
        vt, pol = value_iteration(mdp, eps=1e-10)
        assert pol[0] == 0
        assert greedy(q_table(mdp, vt))[0] == 0

    def test_greedy_tie_rule(self):
        # actions within TIE_TOL of the max tie: the current one stays,
        # otherwise the cheapest wins; an infeasible (-inf) action never does
        q = np.array([[0.5, 0.5 + 1e-13, 0.2], [0.1, 0.3, 0.3 + 1e-9], [-np.inf, 0.0, 0.0]])
        assert greedy(q).tolist() == [0, 2, 1]
        assert greedy(q, np.array([1, 1, 2])).tolist() == [1, 2, 2]
        assert greedy(q, np.array([2, 0, 0])).tolist() == [0, 2, 1]

    def test_infeasible_action_never_selected(self):
        # action 1 pays more but is infeasible; greedy must ignore it
        p = np.ones((2, 1, 1))
        feas = np.array([[True, False]])
        mdp = FiniteMdp(transition=p, reward=np.array([[0.1, 1.0]]),
                        feasible=feas, discount=0.5)
        _, pol = value_iteration(mdp, eps=1e-10)
        assert pol[0] == 0
        q = q_table(mdp, value_iteration(mdp, eps=1e-10)[0])
        assert q[0, 1] == -np.inf


class TestNotConverged:
    def test_value_iteration_raises_at_max_iter(self):
        mdp = build_mms_mdp(two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5), RHO)
        with pytest.raises(NotConverged):
            value_iteration(mdp, max_iter=2)

    def test_policy_iteration_raises_at_max_iter(self):
        # the all-free starting policy is not optimal, so one step cannot stop
        mdp = build_mms_mdp(two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5), RHO)
        with pytest.raises(NotConverged):
            policy_iteration(mdp, max_iter=1)

    # inf stopped after one sweep, and NaN ran every sweep before NotConverged
    @pytest.mark.parametrize("eps", [np.inf, np.nan, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, eps):
        mdp = build_mms_mdp(two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5), RHO)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            value_iteration(mdp, eps=eps, max_iter=10)

    def test_is_a_runtime_error(self):
        # the CLI maps RuntimeError to its solver-failure exit code
        assert issubclass(NotConverged, RuntimeError)


class TestSolverAgreement:
    def test_pi_matches_vi(self):
        env = two_state_env(0.8, 0.4, 0.7, 0.2, b_max=8)
        mdp = build_mms_mdp(env, RHO)
        vt_vi, pol_vi = value_iteration(mdp, eps=1e-10)
        vt_pi, pol_pi = policy_iteration(mdp)
        assert np.allclose(vt_vi.values, vt_pi.values, atol=1e-7)
        assert np.array_equal(pol_vi, pol_pi)
        assert vt_pi.iterations <= 20


class TestMmsMdp:
    def test_empty_battery_forces_free_mode(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        mdp = build_mms_mdp(env, RHO)
        for h in range(2):
            s = env.state_index(0, h)
            assert mdp.feasible[s, 0]
            assert not np.any(mdp.feasible[s, 1:])

    def test_state_keys_labelled(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=1)
        assert state_keys(env, False) == ["b=0,h=G", "b=0,h=B", "b=1,h=G", "b=1,h=B"]
        keys = state_keys(env, True)
        assert len(keys) == 2 * 2 * 4 * 3
        assert keys[inc_state_index(env, 1, 1, 2, 0)] == "b=1,h=B,xi=2,tau=0"
        assert keys[inc_state_index(env, 0, 1, 3, 2)] == "b=0,h=B,xi=3,tau=2"

    def test_no_arrival_spenddown_matches_enumeration(self):
        # without arrivals the battery decays monotonically; the optimum is
        # a spend schedule over the first epochs plus a free-mode tail
        env = two_state_env(0.9, 0.5, 0.0, 0.0, b_max=3)
        gamma = env.epoch.discount_epoch
        vt, _ = value_iteration(build_mms_mdp(env, RHO), eps=1e-12)
        horizon = 6
        best = 0.0
        for plan in itertools.product(range(4), repeat=horizon):
            if sum(env.battery.cost[a] for a in plan) > 3:
                continue
            val = sum(g * RHO[a] for g, a in zip(gamma ** np.arange(horizon), plan))
            val += RHO[0] * gamma ** horizon / (1 - gamma)
            best = max(best, val)
        for h in range(2):
            got = vt.values[env.state_index(3, h)]
            assert got == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("build", [build_mms_mdp, build_inc_iag_mdp])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_nan_accuracy_rejected(build, at):
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)     # every mode affordable somewhere
    rho = np.array(RHO, dtype=float)
    rho[at] = np.nan
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
        build(env, rho)


@pytest.mark.parametrize("build", [build_mms_mdp, build_inc_iag_mdp])
@pytest.mark.parametrize("bad", [np.nan, 1.5, np.inf, -1.0])
def test_accuracy_of_an_unaffordable_mode_rejected(build, bad):
    # at b_max=2 no battery level pays for mode 3 (cost 3), so no feasible
    # one-shot reward holds its accuracy; rho itself is checked all the same
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=2)
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
        build(env, np.array([0.005, 0.5, 0.6, bad]))


class TestIncMdp:
    def test_state_index_bijective(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4)
        seen = set()
        for b in range(5):
            for h in range(2):
                for xi in range(4):
                    for tau in range(3):
                        seen.add(inc_state_index(env, b, h, xi, tau))
        assert seen == set(range(5 * 2 * 4 * 3))

    def test_top_exit_can_only_pause(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        mdp = build_inc_iag_mdp(env, RHO)
        for b in range(6):
            for h in range(2):
                for tau in range(3):
                    s = inc_state_index(env, b, h, 3, tau)
                    assert mdp.feasible[s, 0]
                    assert not mdp.feasible[s, 1]

    def test_proceed_needs_incremental_budget(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        mdp = build_inc_iag_mdp(env, RHO)
        s = inc_state_index(env, 0, 0, 1, 1)
        assert not mdp.feasible[s, 1]       # next increment costs 1 > b=0
        s = inc_state_index(env, 1, 0, 1, 1)
        assert mdp.feasible[s, 1]

    def test_single_slot_epoch_collapses_to_one_shot(self):
        # T=1 with two modes: one sub-action per epoch is the same decision
        # problem as the one-shot chooser
        env = two_state_env(0.8, 0.4, 0.6, 0.2, b_max=3, costs=(0, 1), T=1)
        rho2 = np.array([0.1, 0.8])
        v_inc, _ = value_iteration(build_inc_iag_mdp(env, rho2), eps=1e-11)
        v_mms, _ = value_iteration(build_mms_mdp(env, rho2), eps=1e-11)
        for b in range(4):
            for h in range(2):
                vi = v_inc.values[inc_state_index(env, b, h, 0, 0)]
                vm = v_mms.values[env.state_index(b, h)]
                assert vi == pytest.approx(vm, abs=1e-7)

    def test_dominance_on_example_env(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        margin = dominance_margin(env, RHO)
        assert margin >= -1e-6
        v_inc, _ = value_iteration(build_inc_iag_mdp(env, RHO), eps=1e-9)
        v_mms, _ = value_iteration(build_mms_mdp(env, RHO), eps=1e-9)
        scale = env.epoch.discount_slot ** (env.epoch.T - 1)
        assert margin == min(
            v_inc.values[inc_state_index(env, b, h, 0, 0)]
            - scale * v_mms.values[env.state_index(b, h)]
            for b in range(6) for h in range(2))


def dense_inc_iag_model(env, rho):
    """Reference: the incremental model as a dense (2, S, S) tensor.

    Returns (transition, reward, feasible). Infeasible proceed rows are a
    single 1 on the diagonal; the solvers never read them.
    """
    k, t, n_h = env.n_modes, env.epoch.T, env.chain.n
    n_bh = (env.battery.b_max + 1) * n_h
    n_s = n_bh * k * t
    transition = np.zeros((2, n_s, n_s))
    reward = np.zeros((n_s, 2))
    feasible = np.zeros((n_s, 2), dtype=bool)
    bh_rows = np.arange(n_bh)

    def block(xi, tau):
        return (bh_rows * k + xi) * t + tau

    for xi in range(k):
        for tau in range(t):
            rows = block(xi, tau)
            for alpha in (0, 1):
                if alpha == 1 and xi == k - 1:
                    continue
                cost = env.battery.cost[xi + alpha] - env.battery.cost[xi]
                slot = env.slot_kernel(cost)
                if tau < t - 1:
                    cols = block(xi + alpha, tau + 1)
                else:
                    cols = block(0, 0)
                    reward[rows, alpha] = rho[xi + alpha]
                transition[alpha][np.ix_(rows, cols)] = slot
    b_of = np.repeat(np.arange(env.battery.b_max + 1), n_h * k * t)
    xi_of = np.tile(np.repeat(np.arange(k), t), n_bh)
    feasible[:, 0] = True
    step_cost = np.array(
        [env.battery.cost[x + 1] - env.battery.cost[x] if x < k - 1 else 0 for x in range(k)]
    )
    feasible[:, 1] = (xi_of < k - 1) & (b_of >= step_cost[xi_of])
    dummy = np.nonzero(~feasible[:, 1])[0]
    transition[1][dummy] = 0.0
    transition[1][dummy, dummy] = 1.0
    return transition, reward, feasible


def dense_value_iteration(transition, reward, feasible, gamma, eps):
    """Reference value iteration on the dense tensor; returns (values, q)."""

    def masked_q(v):
        return np.where(feasible, reward + gamma * (transition @ v).T, -np.inf)

    v = np.zeros(reward.shape[0])
    while True:
        v_new = masked_q(v).max(axis=1)
        res = np.abs(v_new - v).max()
        v = v_new
        if res <= eps:
            return v, masked_q(v)


# the environments of gates 3, 4 and 7, the benchmark's b_max=100, and a
# one-slot epoch, where a proceed row's slot-kernel entries can fall on its
# own diagonal
REFERENCE_ENVS = (
    [reference_env()]
    + [two_state_env(*cell) for cell in grid_sample()]
    + [reference_env(b_max=100),
       two_state_env(0.8, 0.4, 0.6, 0.2, b_max=3, costs=(0, 1), T=1)]
)


class TestSparseIncModel:
    @pytest.mark.parametrize("env", REFERENCE_ENVS, ids=lambda e: e.fingerprint())
    def test_matches_dense_reference(self, env):
        rho = RHO[:env.n_modes]
        trans, reward, feasible = dense_inc_iag_model(env, rho)
        mdp = build_inc_iag_mdp(env, rho)
        n_s = mdp.n_states
        assert np.array_equal(mdp.transition.toarray().reshape(2, n_s, n_s), trans)
        assert np.array_equal(mdp.reward, reward)
        assert np.array_equal(mdp.feasible, feasible)
        v_ref, q_ref = dense_value_iteration(trans, reward, feasible, mdp.discount, 1e-8)
        vt, pol = value_iteration(mdp, eps=1e-8)
        assert np.abs(vt.values - v_ref).max() <= 1e-12
        assert np.array_equal(pol, greedy(q_ref))

    @pytest.mark.parametrize("env", REFERENCE_ENVS, ids=lambda e: e.fingerprint())
    def test_every_row_is_stochastic(self, env):
        # infeasible proceed rows included: code that reads the transition
        # matrix without the feasibility mask must still see distributions
        mdp = build_inc_iag_mdp(env, RHO[:env.n_modes])
        assert np.abs(mdp.transition.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("env", REFERENCE_ENVS, ids=lambda e: e.fingerprint())
    def test_policy_iteration_terminates(self, env):
        # pause and proceed tie up to float noise in many states; taking the
        # argmax at every improvement step made the policy cycle between them
        for build in (build_inc_iag_mdp, build_mms_mdp):
            mdp = build(env, RHO[:env.n_modes])
            vt, pol = policy_iteration(mdp, max_iter=50)
            v_ref, pol_ref = value_iteration(mdp, eps=1e-10)
            assert np.abs(vt.values - v_ref.values).max() <= 1e-8
            # one tie rule: the saved policy does not depend on the solver
            assert np.array_equal(pol, pol_ref), build.__name__

    def test_nbytes_is_the_stored_size(self):
        # the benchmark's mdp.build_inc_iag_mdp.dense_bytes reads this property
        t = build_inc_iag_mdp(reference_env(b_max=100), RHO).transition
        assert t.nbytes == t.data.nbytes + t.indices.nbytes + t.indptr.nbytes == 251_144

    def test_build_stays_small_at_b_max_300(self):
        env = reference_env(b_max=300)      # dense tensor would be 835 MB
        tracemalloc.start()
        try:
            build_inc_iag_mdp(env, RHO)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestStructureChecks:
    def test_monotone_accepts_thresholds(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        actions = np.zeros(env.n_states, dtype=int)
        for b in range(4):
            for h in range(2):
                actions[env.state_index(b, h)] = min(b, 3)
        ok, witness = check_monotone(actions, env)
        assert ok and witness is None

    def test_monotone_flags_planted_dip(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        actions = np.zeros(env.n_states, dtype=int)
        actions[env.state_index(1, 1)] = 2
        actions[env.state_index(2, 1)] = 1     # dip: worse mode at more energy
        ok, witness = check_monotone(actions, env)
        assert not ok
        assert witness == ("B", 1)   # reported at the lower battery level

    def test_superadditive_flags_planted_violation(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=2)
        q = np.zeros((env.n_states, env.n_modes))
        # q(b+1, a+1) - q(b+1, a) < q(b, a+1) - q(b, a) is the violation;
        # plant it at b=1 vs b=2 so both actions are feasible at the lower b
        q[env.state_index(1, 0), :2] = (0.0, 0.5)
        q[env.state_index(2, 0), :2] = (0.0, 0.1)
        ok, worst = check_superadditive(q, env)
        assert not ok
        assert worst >= 0.4 - 1e-12

    def test_superadditive_accepts_optimal_q(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=10)
        mdp = build_mms_mdp(env, RHO)
        vt, _ = policy_iteration(mdp)
        ok, worst = check_superadditive(q_table(mdp, vt), env)
        assert ok and worst <= 1e-9


def rewrite_sorted(src, dst):
    """The same policy file re-serialized with its keys in sorted order."""
    with open(src) as fh:
        payload = json.load(fh)
    with open(dst, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def rewrite_policy(src, dst, edit):
    with open(src) as fh:
        payload = json.load(fh)
    edit(payload["policy"])
    with open(dst, "w") as fh:
        json.dump(payload, fh)


class TestSerialization:
    def test_policy_roundtrip(self, tmp_path):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4)
        _, pol = policy_iteration(build_mms_mdp(env, RHO))
        path = tmp_path / "pol.json"
        save_policy(pol, path, env, False, meta={"note": "mms"})
        back, meta = load_policy(path, env, False)
        assert np.array_equal(back, pol)
        assert meta["note"] == "mms"

    def test_policy_file_is_stable(self, tmp_path):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        _, pol = policy_iteration(build_mms_mdp(env, RHO))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_policy(pol, p1, env, False)
        save_policy(pol, p2, env, False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_policy_file_layout(self, tmp_path):
        # one key per state in state-index order, one space of indent, and
        # the env's fingerprint stamped after the caller's metadata
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=1)
        path = tmp_path / "pol.json"
        save_policy(np.array([0, 0, 1, 0]), path, env, False, meta={"kind": "mms"})
        assert path.read_text() == (
            '{\n "meta": {\n  "kind": "mms",\n'
            f'  "env_fingerprint": "{env.fingerprint()}"\n }},\n "policy": {{\n'
            '  "b=0,h=G": 0,\n  "b=0,h=B": 0,\n  "b=1,h=G": 1,\n  "b=1,h=B": 0\n }\n}\n')

    @pytest.mark.parametrize("stamp", ["lost", "other"])
    def test_policy_for_another_env_rejected(self, tmp_path, stamp):
        # same shape and keys, so only the stamped fingerprint tells them apart
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        other = two_state_env(0.9, 0.5, 0.7, 0.0, b_max=3)
        path = tmp_path / "pol.json"
        save_policy(np.zeros(env.n_states, dtype=int), path, other if stamp == "other" else env,
                    False)
        if stamp == "lost":
            payload = json.loads(path.read_text())
            del payload["meta"]["env_fingerprint"]
            path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="made for environment"):
            load_policy(path, env, False)

    @pytest.mark.parametrize("incremental", [False, True])
    def test_reordered_keys_load_the_same_policy(self, tmp_path, incremental):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=6)
        build = build_inc_iag_mdp if incremental else build_mms_mdp
        _, pol = value_iteration(build(env, RHO), eps=1e-8)
        path, shuffled = tmp_path / "pol.json", tmp_path / "sorted.json"
        save_policy(pol, path, env, incremental)
        rewrite_sorted(path, shuffled)
        assert list(json.loads(shuffled.read_text())["policy"]) != state_keys(env, incremental)
        assert np.array_equal(load_policy(shuffled, env, incremental)[0], pol)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("b=2,h=B"),
        lambda m: m.update({"b=7,h=G": 0}),
        lambda m: m.update({"b=2,h=Q": m.pop("b=2,h=B")}),
    ], ids=["missing", "extra", "foreign"])
    def test_key_mismatch_rejected(self, tmp_path, edit):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=6)
        _, pol = policy_iteration(build_mms_mdp(env, RHO))
        path, bad = tmp_path / "pol.json", tmp_path / "bad.json"
        save_policy(pol, path, env, False)
        rewrite_policy(path, bad, edit)
        with pytest.raises(ValueError, match="policy keys"):
            load_policy(bad, env, False)

    @pytest.mark.parametrize("incremental,action", [
        (False, -1), (False, 4), (True, 2),
        (False, 2.9), (False, True), (False, "1"),     # JSON integers only
    ])
    def test_action_out_of_range_rejected(self, tmp_path, incremental, action):
        # a negative index would silently pick the last mode in a gather
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        n = len(state_keys(env, incremental))
        path, bad = tmp_path / "pol.json", tmp_path / "bad.json"
        save_policy(np.zeros(n, dtype=int), path, env, incremental)
        key = state_keys(env, incremental)[-1]
        rewrite_policy(path, bad, lambda m: m.update({key: action}))
        with pytest.raises(ValueError, match="actions must lie"):
            load_policy(bad, env, incremental)

    def test_table_kind_must_match(self, tmp_path):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        _, pol = policy_iteration(build_mms_mdp(env, RHO))
        path = tmp_path / "pol.json"
        save_policy(pol, path, env, False)
        with pytest.raises(ValueError, match="xi, tau"):
            load_policy(path, env, True)
        with pytest.raises(ValueError):
            save_policy(pol, path, env, True)


class TestAgainstSampledRho:
    def test_solves_with_dataset_accuracies(self):
        ds = generate_synthetic(np.random.default_rng(0), default_spec(), 2000)
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        rho = exit_accuracy(ds)
        vt, pol = policy_iteration(build_mms_mdp(env, rho))
        assert check_monotone(pol, env)[0]
