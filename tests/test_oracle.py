import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehinfer.confidence import (ConfidenceDataset, SyntheticSpec, default_spec,
                                generate_synthetic)
from ehinfer.env import two_state_env
from ehinfer.mdp import NotConverged, fixed_point
from ehinfer.oracle import (OracleSolution, approx_operator,
                            build_partition_matrices, dataset_fingerprint,
                            load_solution, oracle_choice, region_of,
                            save_solution, solve_oracle)


def region_inequalities(z, b, h, solution, j):
    """Componentwise M_j z >= F_j delta(s) restricted to feasible rivals."""
    env = solution.env
    z = np.asarray(z, dtype=float)
    pm = build_partition_matrices(env.n_modes)
    lhs = pm.m[j] @ z
    rhs = pm.f[j] @ solution.delta_of(b, h)
    affordable = env.affordable(b)
    others = [i for i in range(env.n_modes) if i != j]
    keep = [r for r, i in enumerate(others) if affordable[i]]
    return lhs[keep] >= rhs[keep] - 1e-12


def fig_env(b_max=5):
    return two_state_env(0.9, 0.5, 0.8, 0.0, b_max=b_max)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(np.random.default_rng(11), default_spec(), 4000)


@pytest.fixture(scope="module")
def solution(dataset):
    return solve_oracle(fig_env(), dataset, eps=1e-8)


class TestPartitionMatrices:
    def test_two_modes(self):
        pm = build_partition_matrices(2)
        assert np.array_equal(pm.m[0], [[1, -1]])
        assert np.array_equal(pm.f[0], [[-1]])
        assert np.array_equal(pm.m[1], [[-1, 1]])
        assert np.array_equal(pm.f[1], [[1]])

    def test_three_modes(self):
        pm = build_partition_matrices(3)
        assert np.array_equal(pm.m[0], [[1, -1, 0], [1, 0, -1]])
        assert np.array_equal(pm.f[0], [[-1, 0], [0, -1]])
        assert np.array_equal(pm.m[1], [[-1, 1, 0], [0, 1, -1]])
        assert np.array_equal(pm.f[1], [[1, 0], [1, -1]])
        assert np.array_equal(pm.m[2], [[-1, 0, 1], [0, -1, 1]])
        assert np.array_equal(pm.f[2], [[0, 1], [-1, 1]])

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_rows_are_pairwise_comparisons(self, k):
        pm = build_partition_matrices(k)
        for j in range(k):
            assert pm.m[j].shape == (k - 1, k)
            assert np.all(pm.m[j].sum(axis=1) == 0)
            assert np.all(np.abs(pm.m[j]).sum(axis=1) == 2)
            assert np.all(pm.m[j][:, j] == 1)

    def test_too_few_modes(self):
        with pytest.raises(ValueError):
            build_partition_matrices(1)

    def test_threshold_encodes_continuation_gap(self, solution):
        # row r of (M_j z >= F_j delta) must say z_j - z_i >= c_i - c_j
        env = solution.env
        s = env.state_index(3, 0)
        cont = solution.continuation[:, s]
        delta = solution.delta_of(3, 0)
        pm = build_partition_matrices(env.n_modes)
        for j in range(env.n_modes):
            others = [i for i in range(env.n_modes) if i != j]
            rhs = pm.f[j] @ delta
            for r, i in enumerate(others):
                assert rhs[r] == pytest.approx(cont[i] - cont[j], abs=1e-12)


class TestSolve:
    def test_residual_sequence_recorded(self, solution):
        assert len(solution.residuals) >= 2
        assert solution.residuals[-1] <= 1e-8

    def test_value_monotone_in_battery(self, solution):
        env = solution.env
        for h in range(2):
            vals = [solution.v_bar[env.state_index(b, h)] for b in range(6)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_fixed_point_property(self, solution, dataset):
        v2 = approx_operator(solution.v_bar, dataset, solution.env,
                             solution.gamma)
        assert np.abs(v2 - solution.v_bar).max() <= 1e-7

    def test_record_order_is_irrelevant(self, dataset):
        env = fig_env(b_max=3)
        perm = np.random.default_rng(5).permutation(len(dataset))
        a = solve_oracle(env, dataset, eps=1e-7)
        shuffled = ConfidenceDataset(dataset.z[perm], dataset.correct[perm])
        b = solve_oracle(env, shuffled, eps=1e-7)
        assert np.allclose(a.v_bar, b.v_bar, atol=1e-10)

    def test_gamma_zero_is_mean_feasible_max(self, dataset):
        env = fig_env()
        sol = solve_oracle(env, dataset, gamma=0.0, eps=1e-12)
        # with no continuation the value is the mean best feasible confidence
        for b in (0, 1, 5):
            feas = [a for a in range(4) if env.battery.cost[a] <= b]
            expect = dataset.z[:, feas].max(axis=1).mean()
            assert sol.v_bar[env.state_index(b, 0)] == pytest.approx(expect, abs=1e-12)

    def test_not_converged_raises(self, dataset):
        with pytest.raises(NotConverged):
            solve_oracle(fig_env(b_max=3), dataset, eps=1e-8, max_iter=2)

    def test_bad_eps(self, dataset):
        # inf stopped after one evaluation with a residual far above any tolerance
        for eps in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                solve_oracle(fig_env(), dataset, eps=eps, max_iter=2)

    def test_exit_count_mismatch(self):
        spec3 = SyntheticSpec(accuracies=(0.005, 0.55, 0.8), n_classes=200)
        ds3 = generate_synthetic(np.random.default_rng(0), spec3, 500)
        with pytest.raises(ValueError, match="3 exits, environment 4 modes"):
            solve_oracle(fig_env(), ds3, eps=1e-4)
        # every oracle computation scores records through the one checked path
        with pytest.raises(ValueError, match="3 exits, environment 4 modes"):
            approx_operator(np.zeros(fig_env().n_states), ds3, fig_env(), 0.9)


def operator_iteration(env, dataset, gamma, eps):
    """Reference: plain iteration of the empirical operator from zero."""
    v, _ = fixed_point(lambda v: approx_operator(v, dataset, env, gamma),
                       env.n_states, eps, 10**5, "operator iteration")
    return v


class TestPolicyIteration:
    @pytest.mark.parametrize("condition_on_next", [False, True])
    @pytest.mark.parametrize("gamma", [0.5, 0.9])
    @pytest.mark.parametrize("b_max", [0, 1, 3, 5, 30])
    def test_matches_operator_iteration(self, dataset, b_max, gamma, condition_on_next):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=b_max,
                            condition_on_next=condition_on_next)
        sol = solve_oracle(env, dataset, gamma=gamma, eps=1e-10)
        assert sol.residuals[-1] <= 1e-10
        ref = operator_iteration(env, dataset, gamma, 1e-10)
        assert np.abs(sol.v_bar - ref).max() <= 1e-8

    def test_few_evaluations(self, dataset):
        # operator iteration takes 130 sweeps here
        assert len(solve_oracle(fig_env(b_max=30), dataset).residuals) <= 10


class TestRegions:
    def test_region_matches_feasible_argmax(self, solution):
        env = solution.env
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.random(4)
            b = int(rng.integers(0, 6))
            h = int(rng.integers(0, 2))
            s = env.state_index(b, h)
            scores = z + solution.continuation[:, s]
            scores[np.asarray(env.battery.cost) > b] = -np.inf
            assert region_of(z, b, h, solution) == int(np.argmax(scores))

    def test_chosen_region_satisfies_its_inequalities(self, solution, dataset):
        rng = np.random.default_rng(3)
        for i in rng.integers(0, len(dataset), 100):
            z = dataset.z[i]
            j = region_of(z, 5, 1, solution)
            assert region_inequalities(z, 5, 1, solution, j).all()

    def test_regions_cover_and_rarely_overlap(self, solution):
        # continuous z: exactly one feasible region should claim each point
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.random(4)
            claims = [j for j in range(4)
                      if region_inequalities(z, 5, 0, solution, j).all()]
            assert len(claims) == 1

    def test_empty_battery_claims_mode_zero(self, solution):
        assert region_of((0.0, 1.0, 1.0, 1.0), 0, 0, solution) == 0

    def test_region_of_matches_batched_choice(self, solution):
        # one state at a time, region_of picks what the simulator's batched
        # oracle_choice picks for every (b, h) at once
        env = solution.env
        z = np.array([0.9, 0.91, 0.92, 0.93])
        b, h = np.divmod(np.arange(env.n_states), env.n_h)
        batched = oracle_choice(solution, b, h, z)
        assert [region_of(z, bi, hi, solution) for bi, hi in zip(b, h)] == batched.tolist()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_per_record_value_convex_along_segments(self, z0, z1):
        env = fig_env()
        ds = generate_synthetic(np.random.default_rng(11), default_spec(), 500)
        sol = solve_oracle(env, ds, eps=1e-5)
        cont = sol.continuation[:, env.state_index(5, 0)]
        z0, z1 = np.array(z0), np.array(z1)
        t = np.linspace(0.0, 1.0, 21)
        g = np.array([np.max((1 - ti) * z0 + ti * z1 + cont) for ti in t])
        assert np.all(np.diff(g, 2) >= -1e-9)


class TestSerialization:
    def test_roundtrip(self, solution, dataset, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(solution, path, meta={"eps": 1e-8})
        back = load_solution(path, fig_env())
        assert np.allclose(back.v_bar, solution.v_bar, atol=1e-12)
        assert np.allclose(back.delta, solution.delta, atol=1e-12)
        assert back.dataset_fp == dataset_fingerprint(dataset)
        # derived geometry must agree on fresh points
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.random(4)
            assert region_of(z, 4, 1, back) == region_of(z, 4, 1, solution)

    def test_other_discount_not_saved(self, dataset, tmp_path):
        # load_solution refuses a file solved at another gamma, so none is written
        env = fig_env()
        sol = solve_oracle(env, dataset, gamma=0.5, eps=1e-6)
        assert env.epoch.discount_epoch == 0.9
        with pytest.raises(ValueError, match="solved for gamma 0.5, not the environment's 0.9"):
            save_solution(sol, tmp_path / "sol.json")
        assert not (tmp_path / "sol.json").exists()

    def test_env_mismatch_rejected(self, solution, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(solution, path)
        with pytest.raises(ValueError):
            load_solution(path, two_state_env(0.9, 0.5, 0.8, 0.0, b_max=6))

    def test_fingerprint_tracks_content(self, dataset):
        fp = dataset_fingerprint(dataset)
        assert fp == dataset_fingerprint(dataset)
        other = generate_synthetic(np.random.default_rng(12), default_spec(), 100)
        assert fp != dataset_fingerprint(other)
