import ast
import csv
import hashlib
import inspect
import textwrap

import numpy as np
import pytest

from ehinfer import harness
from ehinfer import mdp as mdp_mod
from ehinfer import oracle as oracle_mod
from ehinfer.confidence import (ConfidenceDataset, SyntheticSpec, default_spec,
                                exit_accuracy, generate_synthetic)
from ehinfer.dqn import QNetwork, inc_input_dim, os_input_dim
from ehinfer.env import InfeasibleAction, two_state_env
from ehinfer.harness import (FixedModeController, IncDqnController,
                             IncTableController, IncompatibleController,
                             MmsController, OracleController, OsDqnController,
                             RandomFeasibleController, SweepGrid,
                             aggregate_accuracy, config_fingerprint,
                             exit_probability_matrix, exit_probability_mc,
                             exit_probability_mms, exit_probability_oracle,
                             simulate, sweep,
                             write_eta_csv, write_results_csv)
from ehinfer.mdp import (build_inc_iag_mdp, build_mms_mdp, inc_state_index,
                         policy_iteration, value_iteration)
from ehinfer.oracle import RECORD_BLOCK, oracle_choice, solve_oracle
from test_mdp import REFERENCE_ENVS, RHO


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(np.random.default_rng(21), default_spec(), 4000)


def fig_env(**kw):
    return two_state_env(0.9, 0.5, 0.8, 0.0, **kw)


def reference_exit_probability_matrix(policy, env):
    """Reference: the slot chain over (b, h, xi) rebuilt from the slot kernels.

    A proceed the battery cannot pay for is charged anyway (the battery
    clips at 0); the library rejects such policies instead.
    """
    actions = np.asarray(policy)
    k, t, n_bh = env.n_modes, env.epoch.T, env.n_states
    n = n_bh * k

    def step_matrix(tau, final):
        mat = np.zeros((n, k) if final else (n, n))
        for xi in range(k):
            rows = np.arange(n_bh) * k + xi
            idx = np.array([inc_state_index(env, s // env.chain.n, s % env.chain.n, xi, tau)
                            for s in range(n_bh)])
            alphas = actions[idx]
            for alpha in (0, 1):
                sel = np.flatnonzero(alphas == alpha)
                if len(sel) == 0:
                    continue
                if final:
                    mat[rows[sel], xi + alpha] = 1.0
                else:
                    cost = env.battery.cost[xi + alpha] - env.battery.cost[xi]
                    cols = np.arange(n_bh) * k + (xi + alpha)
                    mat[np.ix_(rows[sel], cols)] = env.slot_kernel(cost)[sel]
        return mat

    dist = np.zeros((n_bh, n))
    dist[np.arange(n_bh), np.arange(n_bh) * k] = 1.0     # start at xi = 0
    for tau in range(t - 1):
        dist = dist @ step_matrix(tau, final=False)
    return dist @ step_matrix(t - 1, final=True)


def reference_exit_probability_oracle(solution, dataset):
    """Reference: one bincount per state."""
    env = solution.env
    b, h = np.divmod(np.arange(env.n_states), env.n_h)
    choice = oracle_choice(solution, b, h, dataset.z[:, None, :])
    eta = np.zeros((env.n_states, env.n_modes))
    for s in range(env.n_states):
        eta[s] = np.bincount(choice[:, s], minlength=env.n_modes)
    return eta / len(dataset)


def one_shot_exit_probability_oracle(solution, dataset):
    """Reference: every record routed at once, one bincount over all states."""
    env = solution.env
    b, h = env.state_coords()
    choice = oracle_choice(solution, b, h, dataset.z[:, None, :])    # (D, S)
    counts = np.bincount((env.n_modes * np.arange(env.n_states) + choice).ravel(),
                         minlength=env.n_states * env.n_modes)
    return counts.reshape(env.n_states, env.n_modes) / len(dataset)


def always_proceed_policy(env):
    """Proceed whenever the next increment is affordable."""
    n = env.n_states * env.n_modes * env.epoch.T
    actions = np.zeros(n, dtype=int)
    for b in range(env.battery.b_max + 1):
        for h in range(env.chain.n):
            for xi in range(env.n_modes):
                for tau in range(env.epoch.T):
                    can = (xi < env.n_modes - 1
                           and env.battery.cost[xi + 1] - env.battery.cost[xi] <= b)
                    actions[inc_state_index(env, b, h, xi, tau)] = int(can)
    return actions


class TestControllers:
    def test_fixed_mode_tracks_exit_accuracy(self, dataset):
        # plentiful harvest: the fixed top-mode policy scores its exit's rate
        env = two_state_env(0.9, 0.5, 1.0, 1.0, b_max=30)
        res = simulate(FixedModeController(3, env), dataset,
                       episodes=5, epochs=1000, seed=0)
        mean, _, _ = aggregate_accuracy(res)
        assert mean == pytest.approx(exit_accuracy(dataset)[3], abs=0.02)

    def test_fixed_mode_degrades_when_poor(self, dataset):
        env = two_state_env(0.9, 0.5, 0.0, 0.0, b_max=3)
        res = simulate(FixedModeController(3, env), dataset,
                       episodes=2, epochs=50, seed=0)
        # battery starts at 3, one top-mode epoch drains it, then mode 0
        assert res[0].exit_hist[3] == 1
        assert res[0].exit_hist[0] == 49

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_fixed_mode_table_is_best_affordable_up_to_k(self, k):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4, costs=(0, 1, 1, 3))
        ctrl = FixedModeController(k, env)
        for b in range(5):
            want = max(m for m in range(k + 1) if env.battery.cost[m] <= b)
            for h in range(env.n_h):
                assert ctrl.actions[env.state_index(b, h)] == want
                assert ctrl.decide(np.array([b]), np.array([h]), None, None) == [want]

    def test_random_feasible_spans_affordable_modes(self, dataset):
        env = fig_env(b_max=30)
        ctrl = RandomFeasibleController(env)
        picks = {ctrl.decide(30, 0, None, u) for u in np.linspace(0.01, 0.99, 50)}
        assert picks == {0, 1, 2, 3}
        assert ctrl.decide(0, 0, None, 0.99) == 0

    def test_mms_controller_reads_table(self, dataset):
        env = fig_env(b_max=5)
        _, pol = policy_iteration(build_mms_mdp(env, exit_accuracy(dataset)))
        ctrl = MmsController(pol, env)
        for b in range(6):
            assert ctrl.decide(b, 0, None, 0.5) == pol[env.state_index(b, 0)]

    def test_oracle_controller_matches_regions(self, dataset):
        env = fig_env(b_max=5)
        sol = solve_oracle(env, dataset, eps=1e-6)
        ctrl = OracleController(sol)
        from ehinfer.oracle import region_of
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.random(4)
            b = int(rng.integers(0, 6))
            assert ctrl.decide(b, 1, z, 0.0) == region_of(z, b, 1, sol)


class TestIncompatibilities:
    def test_wrong_policy_size(self, dataset):
        env5, env6 = fig_env(b_max=5), fig_env(b_max=6)
        _, pol = policy_iteration(build_mms_mdp(env5, exit_accuracy(dataset)))
        with pytest.raises(IncompatibleController):
            MmsController(pol, env6)
        with pytest.raises(IncompatibleController):
            IncTableController(pol, env5)   # mms-sized table, inc controller

    # the rollout gathers its next rows with these actions, so a negative,
    # out-of-range, boolean or fractional action must not get in
    @pytest.mark.parametrize("bad", [-1, 4, True, 1.0])
    def test_mms_actions_must_be_modes(self, bad):
        env = fig_env(b_max=5)
        pol = np.zeros(env.n_states, dtype=type(bad))
        pol[3] = bad
        with pytest.raises(IncompatibleController, match="actions must lie in 0..3"):
            MmsController(pol, env)

    @pytest.mark.parametrize("bad", [-1, 2, True, 1.0])
    def test_incremental_actions_must_be_pause_or_proceed(self, bad):
        env = fig_env(b_max=5)
        pol = np.zeros(env.n_states * env.n_modes * env.epoch.T, dtype=type(bad))
        pol[7] = bad
        with pytest.raises(IncompatibleController, match="actions must lie in 0..1"):
            IncTableController(pol, env)

    def test_wrong_network_shape(self):
        env = fig_env(b_max=5)
        net = QNetwork.create(np.random.default_rng(0), 10, 2)
        with pytest.raises(IncompatibleController):
            IncDqnController(net, env)
        with pytest.raises(IncompatibleController):
            OsDqnController(net, env)

    def test_dataset_exit_mismatch(self):
        env = fig_env(b_max=5)
        ds3 = generate_synthetic(
            np.random.default_rng(0),
            SyntheticSpec(accuracies=(0.005, 0.5, 0.8), n_classes=200), 100)
        with pytest.raises(IncompatibleController):
            simulate(RandomFeasibleController(env), ds3, 1, 10, 0)

    @pytest.mark.parametrize("accuracies", [(0.005, 0.5, 0.8), (0.005, 0.4, 0.5, 0.7, 0.8)])
    def test_monte_carlo_dataset_exit_mismatch(self, accuracies):
        # simulate refused these datasets; the Monte Carlo exit estimate read
        # the wrong confidences (5 exits) or failed on an index (3 exits)
        env = fig_env(b_max=5)
        ds = generate_synthetic(np.random.default_rng(0), SyntheticSpec(accuracies=accuracies), 100)
        net = QNetwork.create(np.random.default_rng(1), inc_input_dim(env), 2)
        with pytest.raises(IncompatibleController,
                           match=f"dataset has {len(accuracies)} exits, environment 4 modes"):
            exit_probability_mc(IncDqnController(net, env), ds, (3, 0), 10, 0)

    @pytest.mark.parametrize("accuracies", [(0.005, 0.5, 0.8), (0.005, 0.4, 0.5, 0.7, 0.8)])
    def test_oracle_exit_fraction_dataset_exit_mismatch(self, dataset, accuracies):
        # the oracle's exit fractions failed on an index (3 exits) or scored
        # the first four confidences of each record (5 exits)
        sol = solve_oracle(fig_env(b_max=5), dataset, eps=1e-4)
        ds = generate_synthetic(np.random.default_rng(0), SyntheticSpec(accuracies=accuracies), 100)
        with pytest.raises(ValueError, match=f"{len(accuracies)} exits, environment 4 modes"):
            exit_probability_oracle(sol, ds)

    def test_fixed_mode_out_of_range(self):
        for k in (4, -1):
            with pytest.raises(IncompatibleController, match=f"mode {k} is not an integer"):
                FixedModeController(k, fig_env(b_max=5))

    @pytest.mark.parametrize("k", [1.5, 1.0, True, np.bool_(False), "1"])
    def test_fixed_mode_must_be_an_integer(self, k):
        # a fractional mode built and failed inside the walk on an index; True ran as mode 1
        with pytest.raises(IncompatibleController, match="is not an integer in 0..3"):
            FixedModeController(k, fig_env(b_max=5))

    def test_fixed_mode_takes_numpy_integers(self):
        assert FixedModeController(np.int32(2), fig_env(b_max=5)).kind == "FixedMode(2)"

    @pytest.mark.parametrize("episodes,epochs", [(0, 10), (1, 0), (-1, 10)])
    def test_simulate_needs_an_epoch(self, dataset, episodes, epochs):
        env = fig_env(b_max=3)
        with pytest.raises(ValueError, match="at least 1"):
            simulate(RandomFeasibleController(env), dataset, episodes, epochs, 0)

    def test_monte_carlo_needs_a_rollout(self, dataset):
        env = fig_env(b_max=3)
        with pytest.raises(ValueError, match="rollouts"):
            exit_probability_mc(RandomFeasibleController(env), dataset, (3, 0), 0, 0)

    @pytest.mark.parametrize("count", [2.0, True, np.float64(3.0), "2"])
    def test_counts_must_be_integers(self, dataset, count):
        # a float count escaped from numpy as a TypeError
        ctrl = RandomFeasibleController(fig_env(b_max=3))
        with pytest.raises(ValueError, match="episodes must be an integer"):
            simulate(ctrl, dataset, count, 10, 0)
        with pytest.raises(ValueError, match="epochs must be an integer"):
            simulate(ctrl, dataset, 1, count, 0)
        with pytest.raises(ValueError, match="rollouts must be an integer"):
            exit_probability_mc(ctrl, dataset, (3, 0), count, 0)

    def test_counts_take_numpy_integers(self, dataset):
        ctrl = RandomFeasibleController(fig_env(b_max=3))
        assert len(simulate(ctrl, dataset, np.int64(2), np.int32(3), 0)) == 2
        assert exit_probability_mc(ctrl, dataset, (3, 0), np.int64(4), 0).sum() == 1

    @pytest.mark.parametrize("field", ["episodes", "epochs"])
    def test_sweep_grid_needs_an_epoch(self, field):
        with pytest.raises(ValueError, match=field):
            SweepGrid(**{field: 0})

    def test_sweep_grid_axes_are_tuples(self):
        grid = SweepGrid(p_g=[0.9], b_max=[2, 3], seeds=[0], costs=[0, 1])
        assert (grid.p_g, grid.b_max, grid.seeds, grid.costs) == ((0.9,), (2, 3), (0,), (0, 1))
        with pytest.raises(TypeError):
            SweepGrid(b_max=3)

    @pytest.mark.parametrize("field,value", [
        ("b_max", (3.0,)), ("b_max", (True,)), ("seeds", ("0",)), ("costs", (0, 1, 2, 2.5)),
        ("T", 3.0), ("episodes", True), ("epochs", "50"),
        ("p_g", ("0.9",)), ("pe_b", (None,)), ("gamma", "0.9"), ("gamma", False),
    ])
    def test_sweep_grid_axes_must_be_json_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an? (integer|number)"):
            SweepGrid(**{field: value})


class TestOneEnvBinding:
    """A controller carries the env it was made for; nothing passes a second one."""

    def test_no_function_takes_a_controller_and_an_env(self):
        both = [name for name, fn in inspect.getmembers(harness, inspect.isfunction)
                if fn.__module__ == harness.__name__
                and {"controller", "env"} <= set(inspect.signature(fn).parameters)]
        assert both == []

    def test_controllers_keep_no_mode_count(self):
        controllers = [cls for _, cls in inspect.getmembers(harness, inspect.isclass)
                       if cls.__module__ == harness.__name__
                       and (hasattr(cls, "decide") or hasattr(cls, "decide_sub"))]
        assert len(controllers) == 7
        for cls in controllers:
            tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
            assigned = {getattr(t, "attr", getattr(t, "id", None))
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                        for t in getattr(node, "targets", [getattr(node, "target", None)])}
            assert "n_modes" not in assigned, cls.__name__


class TestSimulate:
    def test_same_seed_reproduces(self, dataset):
        env = fig_env(b_max=5)
        ctrl = RandomFeasibleController(env)
        a = simulate(ctrl, dataset, episodes=3, epochs=200, seed=12)
        b = simulate(ctrl, dataset, episodes=3, epochs=200, seed=12)
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert np.array_equal(ra.exit_hist, rb.exit_hist)
            assert (ra.energy_used, ra.overflow, ra.outage) == \
                   (rb.energy_used, rb.overflow, rb.outage)

    def test_episodes_are_paired_across_controllers(self, dataset):
        # same seed => same draws; a controller that always picks mode 0
        # must see the identical record stream as any other controller
        env = two_state_env(0.9, 0.5, 1.0, 1.0, b_max=30)
        r0 = simulate(FixedModeController(0, env), dataset, 2, 300, seed=5)
        r3 = simulate(FixedModeController(3, env), dataset, 2, 300, seed=5)
        for a, b in zip(r0, r3):
            assert a.epochs == b.epochs
        # rich harvest, no outages for either
        assert sum(r.outage for r in r0) == sum(r.outage for r in r3) == 0

    def test_exit_histogram_counts_epochs(self, dataset):
        env = fig_env(b_max=5)
        res = simulate(RandomFeasibleController(env), dataset, 2, 150, 0)
        for r in res:
            assert r.exit_hist.sum() == 150

    def test_energy_counts_spend(self, dataset):
        env = two_state_env(0.9, 0.5, 0.0, 0.0, b_max=3)
        res = simulate(FixedModeController(3, env), dataset, 1, 10, 0)
        assert res[0].energy_used == 3   # one mode-3 epoch, then broke

    # each start lies outside the b_max=5, two-weather env; some were walked
    # as if they were states, others failed deep inside the rollout
    @pytest.mark.parametrize("start", [(9, 1), (-1, 0), (6, 0), (0, 2), (0, -1),
                                       (2.0, 0), (2, 0.5), (True, 0)])
    def test_mc_start_must_be_a_state(self, dataset, start):
        env = fig_env(b_max=5)
        for ctrl in (MmsController(np.zeros(env.n_states, dtype=np.int64), env),
                     IncTableController(always_proceed_policy(env), env),
                     OracleController(solve_oracle(env, dataset, eps=1e-3)),
                     RandomFeasibleController(env), FixedModeController(3, env)):
            with pytest.raises(ValueError, match="start states must") as ex:
                exit_probability_mc(ctrl, dataset, start, 200, seed=0)
            assert type(ex.value) is ValueError, ctrl.kind

    def test_aggregate_interval(self):
        from ehinfer.harness import EpisodeResult

        def rr(acc):
            return EpisodeResult(acc, np.zeros(4, dtype=np.int64), 0, 0, 0, 10)

        mean, lo, hi = aggregate_accuracy([rr(0.4), rr(0.6)])
        assert mean == pytest.approx(0.5)
        half = 1.96 * np.std([0.4, 0.6], ddof=1) / np.sqrt(2)
        assert hi - mean == pytest.approx(half, abs=1e-12)


class TestSimulatePinned:
    """Seeded `simulate` results of every controller kind, bit for bit.

    The SHA-256 values were recorded while the rollout still drew the
    weather and the arrivals inside its slot loop; precomputing them must
    not move a single result.
    """

    GOLDEN = {
        "MmS":
            "e4ffdd4e868c2883a877c857fd11b7b3c727169f20267f091e8ebb3b9488ed39",
        "IncIAgEE":
            "33f68ea878de30429420e164a9c2040fb7b2c3514e9ef9339f8c4e2befedcfad",
        "OsIAwOracle":
            "1b330dae9f11ae86ff1687b2c479fc5bcbdb0ddb791b92db6f866f1a999a1c9b",
        "RandomFeasible":
            "0617464603951f5eef18ac6d6a3f9f6974b8ca71c0b9d16682cb4134ec79bb03",
        "FixedMode(2)":
            "4e4b6ed0cdb0a17aa8fe42a05a39e6c96da8844afd5a0170d2d258d54d1212f8",
        "IncIAwDQN":
            "b5236d88427c17e6f4677f638fa39470036340c1461ffa1cb6402f28e6b14aee",
        "OsIAwDQN":
            "b42c419ec07962a8db703516fb76a8740a1c5311cdb7a009e48f82859c4c2d08",
    }

    @pytest.fixture(scope="class")
    def controllers(self, dataset):
        env = fig_env(b_max=5)
        rho = exit_accuracy(dataset)
        rng = np.random.default_rng(3)
        ctrls = [
            MmsController(policy_iteration(build_mms_mdp(env, rho))[1], env),
            IncTableController(value_iteration(build_inc_iag_mdp(env, rho))[1], env),
            OracleController(solve_oracle(env, dataset)),
            RandomFeasibleController(env),
            FixedModeController(2, env),
            IncDqnController(QNetwork.create(rng, inc_input_dim(env), 2), env),
            OsDqnController(QNetwork.create(rng, os_input_dim(env), env.n_modes), env),
        ]
        return {c.kind: c for c in ctrls}

    @pytest.mark.parametrize("kind", list(GOLDEN))
    def test_seeded_results_match_golden_hash(self, dataset, controllers, kind):
        digest = hashlib.sha256()
        for r in simulate(controllers[kind], dataset, episodes=6, epochs=300, seed=17):
            digest.update(repr((r.accuracy, r.energy_used, r.overflow, r.outage,
                                r.epochs, r.exit_hist.dtype.str)).encode())
            digest.update(r.exit_hist.tobytes())
        assert digest.hexdigest() == self.GOLDEN[kind]


class TestExitProbabilities:
    def test_matrix_rows_are_distributions(self, dataset):
        env = fig_env(b_max=3)
        rho = exit_accuracy(dataset)
        _, pol = value_iteration(build_inc_iag_mdp(env, rho), eps=1e-8)
        eta = exit_probability_matrix(pol, env)
        assert eta.shape == (env.n_states, 4)
        assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(eta >= 0)

    def test_hand_traced_always_proceed(self):
        # guaranteed one packet per slot: from b=0 the first slot must
        # pause, after which every increment is affordable, landing on
        # exit T-1; from b>=1 every slot proceeds, landing on exit T
        env = two_state_env(0.9, 0.5, 1.0, 1.0, b_max=5)
        eta = exit_probability_matrix(always_proceed_policy(env), env)
        for h in range(2):
            assert eta[env.state_index(0, h), 2] == pytest.approx(1.0)
            for b in range(1, 6):
                assert eta[env.state_index(b, h), 3] == pytest.approx(1.0)

    def test_matrix_matches_monte_carlo(self, dataset):
        env = fig_env(b_max=2)
        rho = exit_accuracy(dataset)
        _, pol = value_iteration(build_inc_iag_mdp(env, rho), eps=1e-8)
        eta = exit_probability_matrix(pol, env)
        ctrl = IncTableController(pol, env)
        n = 20000
        for (b, h) in ((2, 0), (1, 1), (0, 0)):
            mc = exit_probability_mc(ctrl, dataset, (b, h), n, seed=1)
            sigma = np.sqrt(np.maximum(eta[env.state_index(b, h)]
                                       * (1 - eta[env.state_index(b, h)]), 1e-12) / n)
            assert np.all(np.abs(mc - eta[env.state_index(b, h)])
                          <= 3 * sigma + 1e-3)

    @pytest.mark.parametrize("env", REFERENCE_ENVS, ids=lambda e: e.fingerprint())
    def test_matrix_matches_reference(self, env):
        _, pol = value_iteration(build_inc_iag_mdp(env, RHO[:env.n_modes]), eps=1e-8)
        for policy in (pol, always_proceed_policy(env)):
            eta = exit_probability_matrix(policy, env)
            ref = reference_exit_probability_matrix(policy, env)
            assert np.abs(eta - ref).max() <= 1e-12

    def test_infeasible_proceed_rejected(self):
        # proceeding from xi=0 at b=0 would be charged to an empty battery
        env = fig_env(b_max=3)
        bad = always_proceed_policy(env)
        bad[inc_state_index(env, 0, 1, 0, 0)] = 1
        with pytest.raises(InfeasibleAction, match="b=0,h=B,xi=0,tau=0"):
            exit_probability_matrix(bad, env)

    def test_mms_one_hot(self, dataset):
        env = fig_env(b_max=4)
        _, pol = policy_iteration(build_mms_mdp(env, exit_accuracy(dataset)))
        eta = exit_probability_mms(pol, env)
        assert np.allclose(eta.sum(axis=1), 1.0)
        assert set(np.unique(eta)) <= {0.0, 1.0}

    def test_mms_unaffordable_mode_rejected(self):
        env = fig_env(b_max=3)
        pol = np.zeros(env.n_states, dtype=np.int64)
        pol[env.state_index(0, 0)] = 3
        with pytest.raises(InfeasibleAction, match="mode 3 at b=0,h=G"):
            exit_probability_mms(pol, env)

    # -1 was reported as mode K-1
    @pytest.mark.parametrize("bad", [-1, 4, True, 1.0])
    def test_mms_actions_must_be_modes(self, bad):
        env = fig_env(b_max=5)
        pol = np.zeros(env.n_states, dtype=type(bad))
        pol[3] = bad
        with pytest.raises(IncompatibleController, match="actions must lie in 0..3"):
            exit_probability_mms(pol, env)

    def test_mms_wrong_policy_size(self):
        with pytest.raises(IncompatibleController, match="table size"):
            exit_probability_mms(np.zeros(10, dtype=np.int64), fig_env(b_max=5))

    def test_oracle_exit_fraction(self, dataset):
        env = fig_env(b_max=5)
        sol = solve_oracle(env, dataset, eps=1e-6)
        eta = exit_probability_oracle(sol, dataset)
        assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-12)
        # empty battery routes every record to the free mode
        assert eta[env.state_index(0, 0), 0] == 1.0
        # a full battery should hardly ever take the blind guess
        assert eta[env.state_index(5, 0), 0] < 0.05
        assert np.array_equal(eta, reference_exit_probability_oracle(sol, dataset))

    @pytest.mark.parametrize("n", [1, RECORD_BLOCK, RECORD_BLOCK + 1, 4000])
    def test_oracle_blocks_match_one_shot(self, dataset, n):
        env = fig_env(b_max=30)
        sol = solve_oracle(env, dataset, eps=1e-6)
        part = ConfidenceDataset(dataset.z[:n], dataset.correct[:n])
        assert np.array_equal(exit_probability_oracle(sol, part),
                              one_shot_exit_probability_oracle(sol, part))


class TestSweep:
    def test_single_cell_matches_direct_simulate(self, dataset):
        grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.8,), pe_b=(0.0,),
                         b_max=(5,), seeds=(0,), episodes=3, epochs=200)
        rows = sweep(grid, ("MmS",), dataset)
        assert len(rows) == 1
        env = fig_env(b_max=5)
        _, pol = policy_iteration(build_mms_mdp(env, exit_accuracy(dataset)))
        res = simulate(MmsController(pol, env), dataset, 3, 200, 0)
        mean, lo, hi = aggregate_accuracy(res)
        assert rows[0]["accuracy"] == pytest.approx(mean, abs=1e-12)
        assert rows[0]["controller"] == "MmS"
        assert rows[0]["mu"] == pytest.approx(2.0)

    def test_grid_row_count_and_parallel_agreement(self, dataset):
        grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.8, 1.0), pe_b=(0.0,),
                         b_max=(3,), seeds=(0, 1), episodes=2, epochs=100)
        rows1 = sweep(grid, ("MmS", "RandomFeasible"), dataset)
        assert len(rows1) == 2 * 2 * 2
        rows2 = sweep(grid, ("MmS", "RandomFeasible"), dataset, jobs=2)
        key = lambda r: (r["p_e_G"], r["controller"], r["seed"])
        for a, b in zip(sorted(rows1, key=key), sorted(rows2, key=key)):
            assert a["accuracy"] == b["accuracy"]

    def test_eps_reaches_both_solvers(self, dataset, monkeypatch):
        seen = []

        def spy(solver):
            def call(*args, eps, **kwargs):
                seen.append((solver.__name__, eps))
                return solver(*args, eps=eps, **kwargs)
            return call

        monkeypatch.setattr(mdp_mod, "value_iteration", spy(mdp_mod.value_iteration))
        monkeypatch.setattr(oracle_mod, "solve_oracle", spy(oracle_mod.solve_oracle))
        grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.8,), pe_b=(0.0,),
                         b_max=(3,), seeds=(0,), episodes=1, epochs=10)
        sweep(grid, ("IncIAgEE", "OsIAwOracle"), dataset, eps=1e-5)
        assert seen == [("value_iteration", 1e-5), ("solve_oracle", 1e-5)]

    # jobs < 1 ran serially, and a kind without a solver never saw eps
    @pytest.mark.parametrize("bad,match", [
        ({"jobs": 0}, "jobs must be at least 1"), ({"jobs": -4}, "jobs must be at least 1"),
        ({"eps": np.nan}, "eps must be positive"), ({"eps": np.inf}, "eps must be positive"),
        ({"jobs": True}, "jobs must be an integer")])
    def test_bad_jobs_or_eps_rejected_before_any_cell(self, dataset, monkeypatch, bad, match):
        ran = []
        monkeypatch.setattr(harness, "_sweep_cell", ran.append)
        grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.8,), pe_b=(0.0,),
                         b_max=(3,), seeds=(0,), episodes=1, epochs=10)
        with pytest.raises(ValueError, match=match):
            sweep(grid, ("MmS",), dataset, **bad)
        assert ran == []

    def test_unknown_kind_rejected(self, dataset):
        grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.8,), pe_b=(0.0,),
                         b_max=(3,), seeds=(0,), episodes=1, epochs=10)
        with pytest.raises(ValueError):
            sweep(grid, ("IncIAwDQN",), dataset)


class TestCsv:
    def test_results_roundtrip(self, dataset, tmp_path):
        grid = SweepGrid(p_g=(0.9,), p_b=(0.5,), pe_g=(0.8,), pe_b=(0.0,),
                         b_max=(3,), seeds=(0,), episodes=2, epochs=50)
        rows = sweep(grid, ("MmS", "OsIAwOracle"), dataset)
        path = tmp_path / "rows.csv"
        write_results_csv(rows, path, n_modes=4, meta={"note": "t"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# note=t"
        back = list(csv.DictReader(lines[1:]))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert b["controller"] == a["controller"]
            assert float(b["accuracy"]) == pytest.approx(a["accuracy"], abs=1e-9)
            assert float(b["exit_hist_3"]) == pytest.approx(a["exit_hist_3"], abs=1e-9)

    def test_eta_csv_labels_states(self, dataset, tmp_path):
        env = fig_env(b_max=2)
        _, pol = policy_iteration(build_mms_mdp(env, exit_accuracy(dataset)))
        eta = exit_probability_mms(pol, env)
        path = tmp_path / "eta.csv"
        write_eta_csv(eta, env, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "b,h,k,eta"
        # long format: one row per (state, mode) pair
        assert len(lines) == 1 + env.n_states * env.n_modes
        assert lines[1] == "0,G,0,1"

    def test_config_fingerprint_stable(self):
        fp1 = config_fingerprint({"a": 1, "b": [1, 2]})
        fp2 = config_fingerprint({"b": [1, 2], "a": 1})
        assert fp1 == fp2
        assert fp1 != config_fingerprint({"a": 2, "b": [1, 2]})
