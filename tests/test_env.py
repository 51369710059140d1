import ast
import inspect
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehinfer import env as env_mod
from ehinfer.env import (ArrivalModel, BatteryConfig, EpochConfig,
                         HarvestChain, HarvestEnvironment,
                         NonErgodicChain, battery_step, energy_rate,
                         epoch_kernel, slot_kernel,
                         stationary_distribution, two_state_env)


def fig5_env(b_max=30):
    return two_state_env(0.9, 0.5, 0.8, 0.0, b_max=b_max)


class TestBatteryStep:
    def test_exhaustive_formula(self):
        b_max = 10
        for b in range(b_max + 1):
            for u in range(4):
                for e in range(3):
                    expect = min(max(b - u + e, 0), b_max)
                    assert battery_step(b, u, e, b_max) == expect

    def test_clipping_edges(self):
        assert battery_step(10, 0, 2, 10) == 10    # overflow discarded
        assert battery_step(0, 0, 0, 10) == 0
        assert battery_step(1, 3, 0, 10) == 0      # floor at empty
        assert battery_step(5, 2, 1, 10) == 4

    @given(b=st.integers(0, 30), u=st.integers(0, 5), e=st.integers(0, 5))
    def test_range_and_monotonicity(self, b, u, e):
        b_max = 30
        out = battery_step(b, u, e, b_max)
        assert 0 <= out <= b_max
        assert battery_step(b, u, e + 1, b_max) >= out
        if b + 1 <= b_max:
            assert battery_step(b + 1, u, e, b_max) >= out
        assert battery_step(b, u + 1, e, b_max) <= out

    # the one-shot rollout updates the battery once per epoch on the summed arrivals
    @given(data=st.data(), t=st.integers(1, 4), e_max=st.integers(0, 3),
           b_max=st.integers(0, 8))
    def test_one_update_per_one_shot_epoch(self, data, t, e_max, b_max):
        b = data.draw(st.integers(0, b_max), label="b")
        cost = data.draw(st.integers(0, b), label="cost")
        arrivals = data.draw(st.lists(st.integers(0, e_max), min_size=t, max_size=t),
                             label="arrivals")
        slotwise = b
        for tau, e in enumerate(arrivals):
            slotwise = battery_step(slotwise, cost if tau == 0 else 0, e, b_max)
        assert battery_step(b, cost, sum(arrivals), b_max) == slotwise


class TestChain:
    def test_stationary_two_state(self):
        env = fig5_env(5)
        pi = stationary_distribution(env.chain)
        assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-10)

    def test_stationary_symmetric(self):
        chain = HarvestChain(states=("G", "B"),
                             transition=np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(stationary_distribution(chain), [0.5, 0.5])

    def test_periodic_chain_rejected(self):
        chain = HarvestChain(states=("G", "B"),
                             transition=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonErgodicChain):
            stationary_distribution(chain)

    def test_reducible_chain_rejected(self):
        chain = HarvestChain(states=("G", "B"), transition=np.eye(2))
        with pytest.raises(NonErgodicChain):
            stationary_distribution(chain)

    def test_single_state_chain(self):
        chain = HarvestChain(states=("S",), transition=np.array([[1.0]]))
        assert np.allclose(stationary_distribution(chain), [1.0])

    def test_nan_rows_rejected(self):
        # every comparison with NaN is False, so a check written as any-bad passed them
        with pytest.raises(ValueError, match="HarvestChain.transition"):
            HarvestChain(states=("G", "B"), transition=np.array([[np.nan, 0.8], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="ArrivalModel.pmf_per_state"):
            ArrivalModel(pmf_per_state=np.array([[np.nan, 0.8], [1.0, 0.0]]))

    def test_duplicate_state_names_rejected(self):
        # two states of one name share one policy key, so a saved table read back wrong
        with pytest.raises(ValueError, match="state names must be distinct"):
            HarvestChain(states=("G", "G"), transition=np.array([[0.9, 0.1], [0.5, 0.5]]))


class TestEnergyRate:
    # calibration rows: arrival probabilities and their exact epoch rates
    ROWS = [((0.2, 0.1), 0.55), ((0.4, 0.2), 1.10), ((0.7, 0.35), 1.925),
            ((0.9, 0.55), 2.525), ((1.0, 0.75), 2.875), ((1.0, 1.0), 3.00)]
    TABLE = [0.54, 1.11, 1.92, 2.52, 2.88, 3.00]

    def test_six_rows_exact(self):
        for (pe_g, pe_b), mu in self.ROWS:
            env = two_state_env(0.9, 0.5, pe_g, pe_b, b_max=5)
            got = energy_rate(env.chain, env.arrivals, env.epoch.T)
            assert got == pytest.approx(mu, abs=1e-12)

    def test_six_rows_reference_tolerance(self):
        for ((pe_g, pe_b), _), ref in zip(self.ROWS, self.TABLE):
            env = two_state_env(0.9, 0.5, pe_g, pe_b, b_max=5)
            got = energy_rate(env.chain, env.arrivals, env.epoch.T)
            assert abs(got - ref) <= 0.02


def three_weather_env(cond_next, e_max=2):
    """Three weather states, one transition of probability zero, arrivals 0..e_max."""
    pmf = np.random.default_rng(5).dirichlet(np.ones(e_max + 1), size=3)
    return HarvestEnvironment(
        chain=HarvestChain(states=("G", "M", "B"), transition=np.array(
            [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.0, 0.4, 0.6]])),
        arrivals=ArrivalModel(pmf_per_state=pmf),
        battery=BatteryConfig(b_max=4, cost=(0, 1, 2)),
        epoch=EpochConfig(3, 0.9),
        condition_on_next=cond_next,
    )


def slot_step(env, b, h, consumption, u_h, u_e):
    """(b', h', overflow) of one whole slot, for scalars or arrays: the slot
    rule written out in one function, the reference that harvest_slot,
    exogenous_paths and DQN training's steps over state rows are held to.

    The next weather state is drawn with uniform u_h from the row of h,
    the arrival with u_e from the arrival pmf of h (or of the next state
    under condition_on_next); the battery then spends `consumption`, and
    overflow is the packets lost to the full battery.
    """
    h_next = env._draw(u_h, h)
    e = env._draw(u_e, h_next if env.condition_on_next else h, arrivals=True)
    b_max = env.battery.b_max
    overflow = np.maximum(b - consumption + e - b_max, 0)
    return battery_step(b, consumption, e, b_max), h_next, overflow


def reference_slot_kernel(chain, arrivals, u, b_max, condition_on_next=False):
    """The slot kernel filled one (b, e, h) at a time, as slot_kernel once was."""
    n_h = chain.n
    n_states = (b_max + 1) * n_h
    kernel = np.zeros((n_states, n_states))
    for b in range(b_max + 1):
        for e in range(arrivals.e_max + 1):
            b_next = battery_step(b, u, e, b_max)
            for h in range(n_h):
                if condition_on_next:
                    w = chain.transition[h, :] * arrivals.pmf_per_state[:, e]
                else:
                    w = chain.transition[h, :] * arrivals.pmf_per_state[h, e]
                kernel[b * n_h + h, b_next * n_h:(b_next + 1) * n_h] += w
    return kernel


class TestKernels:
    @pytest.mark.parametrize("cond_next", [False, True], ids=["arrival-on-h", "arrival-on-next"])
    @pytest.mark.parametrize("make", [
        lambda c: two_state_env(0.9, 0.5, 0.8, 0.0, b_max=30, condition_on_next=c),
        three_weather_env,
        lambda c: three_weather_env(c, e_max=300),
    ], ids=["two-weather", "three-weather", "wide-arrivals"])
    def test_slot_kernel_equals_reference_bytes(self, make, cond_next):
        # consumptions up to and past b_max, where every level empties
        env = make(cond_next)
        b_max = env.battery.b_max
        for u in (0, 1, 2, b_max, b_max + 1, b_max + 3):
            got = slot_kernel(env.chain, env.arrivals, u, b_max, condition_on_next=cond_next)
            want = reference_slot_kernel(env.chain, env.arrivals, u, b_max, cond_next)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_slot_kernel_rows_stochastic(self):
        env = fig5_env(4)
        for u in range(4):
            ker = slot_kernel(env.chain, env.arrivals, u, env.battery.b_max)
            assert ker.shape == (env.n_states, env.n_states)
            assert np.all(ker >= 0)
            assert np.abs(ker.sum(axis=1) - 1).max() <= 1e-9

    def test_epoch_kernel_rows_stochastic(self):
        env = two_state_env(0.7, 0.3, 0.6, 0.2, b_max=3)
        for a in range(env.n_modes):
            ker = epoch_kernel(env, a)
            assert np.abs(ker.sum(axis=1) - 1).max() <= 1e-9

    def test_epoch_kernel_matches_sampler(self):
        # epoch = full cost up front, then idle slots; compare against the
        # sampled slot step applied T times
        env = two_state_env(0.8, 0.4, 0.6, 0.1, b_max=3)
        a, b0, h0 = 2, 3, 0
        row = env.epoch_kernel(a)[env.state_index(b0, h0)]
        n = 20000
        rng = np.random.default_rng(5)
        b, h = np.full(n, b0), np.full(n, h0)
        for tau in range(env.epoch.T):
            cost = env.battery.cost[a] if tau == 0 else 0
            b, h, _ = slot_step(env, b, h, cost, rng.random(n), rng.random(n))
        counts = np.bincount(env.state_index(b, h), minlength=env.n_states)
        freq = counts / n
        sigma = np.sqrt(np.maximum(row * (1 - row), 1e-12) / n)
        assert np.all(np.abs(freq - row) <= 3 * sigma + 1e-3)

    def test_condition_on_next_changes_law(self):
        base = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=2)
        flipped = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=2,
                                condition_on_next=True)
        k0 = slot_kernel(base.chain, base.arrivals, 0, 2)
        k1 = slot_kernel(flipped.chain, flipped.arrivals, 0, 2,
                         condition_on_next=True)
        assert np.abs(k1.sum(axis=1) - 1).max() <= 1e-9
        assert not np.allclose(k0, k1)

    @pytest.mark.parametrize("kind", ["slot_kernel", "epoch_kernel"])
    def test_cached_kernels_are_read_only(self, kind):
        # every model of the env reads the cached array, so a write must fail
        env = fig5_env(3)
        ker = getattr(env, kind)(1)
        assert getattr(env, kind)(1) is ker
        with pytest.raises(ValueError):
            ker[0, 0] += 5
        assert np.abs(getattr(env, kind)(1).sum(axis=1) - 1).max() <= 1e-9

    def test_cached_epoch_kernel_matches_fresh_build(self):
        # slot kernels of the same index are cached first: the keys must not collide
        env = two_state_env(0.7, 0.3, 0.6, 0.2, b_max=3)
        for a in range(env.n_modes):
            env.slot_kernel(a)
            assert np.array_equal(env.epoch_kernel(a), epoch_kernel(env, a))


class TestConfigs:
    def test_cost_must_start_at_zero(self):
        with pytest.raises(ValueError):
            BatteryConfig(b_max=5, cost=(1, 2, 3))

    def test_cost_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            BatteryConfig(b_max=5, cost=(0, 2, 1))

    def test_discount_pair_consistency(self):
        cfg = EpochConfig(3, 0.9)
        assert cfg.discount_slot ** 3 == pytest.approx(0.9, abs=1e-12)
        assert cfg.discount_slot == 0.9 ** (1.0 / 3)

    @pytest.mark.parametrize("t", [0, -1])
    def test_epoch_without_slots_rejected(self, t):
        with pytest.raises(ValueError, match="T must be >= 1"):
            EpochConfig(t, 0.9)
        cfg = dict(fig5_env(3).to_config(), T=t)
        with pytest.raises(ValueError, match="T must be >= 1"):
            HarvestEnvironment.from_config(cfg)

    @pytest.mark.parametrize("key,value", [
        ("T", 3.7), ("T", "3"), ("T", True), ("b_max", "3"), ("b_max", 3.0),
        ("b_max", False), ("gamma", "0.9"), ("gamma", True), ("gamma", None),
        ("gamma", float("nan")), ("costs", [0, 1.5, 2, 3]), ("costs", [0, "1", 2, 3]),
        ("transition", [[0.9, 0.1], [0.5, "0.5"]]),
        ("arrival_pmfs", [[0.2, 0.8], [True, 0.0]])])
    def test_config_fields_must_be_json_numbers(self, key, value):
        cfg = dict(fig5_env(3).to_config(), **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be an? (integer|number)"):
            HarvestEnvironment.from_config(cfg)

    # each converted before: "false" and 0 to a flag, "GB" to ("G", "B")
    @pytest.mark.parametrize("key,value,match", [
        ("condition_arrivals_on_next_state", "false", "a boolean"),
        ("condition_arrivals_on_next_state", 0, "a boolean"),
        ("condition_arrivals_on_next_state", None, "a boolean"),
        ("states", "GB", "a list of strings"), ("states", ["G", 1], "a list of strings")])
    def test_config_names_and_flag_must_be_json_types(self, key, value, match):
        cfg = dict(fig5_env(3).to_config(), **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be {match}"):
            HarvestEnvironment.from_config(cfg)

    @pytest.mark.parametrize("flag", [False, True])
    def test_config_flag_is_optional(self, flag):
        cfg = fig5_env(3).to_config()
        del cfg["condition_arrivals_on_next_state"]
        assert not HarvestEnvironment.from_config(cfg).condition_on_next
        cfg["condition_arrivals_on_next_state"] = flag
        assert HarvestEnvironment.from_config(cfg).condition_on_next is flag

    def test_t_shorter_than_mode_ladder_rejected(self):
        chain = HarvestChain(states=("G", "B"),
                             transition=np.array([[0.9, 0.1], [0.5, 0.5]]))
        arr = ArrivalModel(pmf_per_state=np.array([[0.2, 0.8], [1.0, 0.0]]))
        bat = BatteryConfig(b_max=5, cost=(0, 1, 2, 3))
        with pytest.raises(ValueError):
            HarvestEnvironment(chain=chain, arrivals=arr, battery=bat,
                               epoch=EpochConfig(2, 0.9))

    def test_arrival_pmf_rows_must_match_chain(self):
        chain = HarvestChain(states=("G", "B"),
                             transition=np.array([[0.9, 0.1], [0.5, 0.5]]))
        arr = ArrivalModel(pmf_per_state=np.array([[0.2, 0.8]]))
        with pytest.raises(ValueError):
            HarvestEnvironment(chain=chain, arrivals=arr,
                               battery=BatteryConfig(b_max=5, cost=(0, 1)),
                               epoch=EpochConfig(3, 0.9))


class TestSerialization:
    def test_config_roundtrip(self):
        env = two_state_env(0.7, 0.4, 0.6, 0.2, b_max=7, costs=(0, 1, 3),
                            T=4, gamma=0.8, condition_on_next=True)
        clone = HarvestEnvironment.from_config(
            json.loads(json.dumps(env.to_config())))
        assert clone.fingerprint() == env.fingerprint()
        assert clone.epoch.T == 4
        assert clone.condition_on_next

    def test_fingerprint_sensitivity(self):
        assert fig5_env(5).fingerprint() != fig5_env(6).fingerprint()


class TestSampling:
    def test_slot_step_deterministic(self):
        env = fig5_env(5)
        a = [slot_step(env, 4, 0, 1, *np.random.default_rng(3).random(2))
             for _ in range(2)]
        assert a[0] == a[1]

    def test_slot_step_empirical_marginal(self):
        env = fig5_env(5)
        rng = np.random.default_rng(11)
        _, hs, _ = slot_step(env, np.full(4000, 5), np.zeros(4000, dtype=int), 0,
                             rng.random(4000), rng.random(4000))
        # from G the chain stays with probability 0.9
        assert np.mean(np.array(hs) == 0) == pytest.approx(0.9, abs=0.02)

    @given(b=st.integers(0, 5), h=st.integers(0, 1), c=st.integers(0, 3),
           u_h=st.floats(0, 1), u_e=st.floats(0, 1),
           cond_next=st.booleans())
    def test_slot_step_is_inverse_cdf_then_clip(self, b, h, c, u_h, u_e, cond_next):
        env = two_state_env(0.7, 0.4, 0.6, 0.2, b_max=5, condition_on_next=cond_next)
        b2, h2, spill = slot_step(env, b, h, c, u_h, u_e)
        cum_h = np.cumsum(env.chain.transition[h])
        assert h2 == min(np.searchsorted(cum_h, u_h), env.n_h - 1)
        cum_e = np.cumsum(env.arrivals.pmf_per_state[h2 if cond_next else h])
        e = min(np.searchsorted(cum_e, u_e), env.arrivals.e_max)
        assert b2 == min(max(b - c + e, 0), 5)
        assert spill == max(b - c + e - 5, 0)
        assert env.harvest_slot(h, u_h, u_e) == (h2, e)
        # arrays step each element exactly as scalars do
        arr = slot_step(env, np.array([b, 0]), np.array([h, 1]), c,
                        np.array([u_h, 0.5]), np.array([u_e, 0.5]))
        assert (arr[0][0], arr[1][0], arr[2][0]) == (b2, h2, spill)


class TestExogenousPaths:
    @pytest.mark.parametrize("cond_next", [False, True], ids=["arrival-on-h", "arrival-on-next"])
    @pytest.mark.parametrize("make", [
        lambda c: two_state_env(0.7, 0.4, 0.6, 0.2, b_max=5, condition_on_next=c),
        three_weather_env,
        lambda c: three_weather_env(c, e_max=300),
    ], ids=["two-weather", "three-weather", "wide-arrivals"])
    def test_paths_equal_repeated_slot_steps(self, make, cond_next):
        env = make(cond_next)
        rng = np.random.default_rng(8)
        n_ep, n_epochs, t_slots = 5, 40, env.epoch.T
        u_h, u_e = rng.random((2, n_ep, n_epochs, t_slots))
        h0 = rng.integers(env.n_h, size=n_ep)
        weather, arrivals = env.exogenous_paths(h0, u_h, u_e)
        assert weather.shape == (n_ep, n_epochs * t_slots + 1)
        assert arrivals.shape == (n_ep, n_epochs, t_slots)
        assert weather.dtype == np.min_scalar_type(env.n_h - 1)
        assert arrivals.dtype == np.min_scalar_type(env.arrivals.e_max)
        h = h0
        for n, tau in itertools.product(range(n_epochs), range(t_slots)):
            assert np.array_equal(weather[:, n * t_slots + tau], h)
            # from an empty battery that spends nothing, b' + overflow is the arrival
            b2, h, spill = slot_step(env, np.zeros(n_ep, dtype=int), h, 0,
                                     u_h[:, n, tau], u_e[:, n, tau])
            assert np.array_equal(arrivals[:, n, tau], b2 + spill)
        assert np.array_equal(weather[:, -1], h)
        if env.arrivals.e_max > 255:
            assert arrivals.max() > 255


    # slot counts that tile into blocks evenly or leave a short last block,
    # from one slot up to a walkthrough rollout's 2000 epochs of 3 slots
    @pytest.mark.parametrize("slots", [1, 2, 3, 13, 15, 16, 17, 6000])
    @pytest.mark.parametrize("cond_next", [False, True], ids=["arrival-on-h", "arrival-on-next"])
    def test_every_slot_count_walks_like_slot_steps(self, slots, cond_next):
        env = three_weather_env(cond_next)
        rng = np.random.default_rng(slots)
        n_ep = 3
        u_h, u_e = rng.random((2, n_ep, slots, 1))
        h0 = np.arange(n_ep) % env.n_h
        weather, arrivals = env.exogenous_paths(h0, u_h, u_e)
        assert weather.shape == (n_ep, slots + 1) and arrivals.shape == (n_ep, slots, 1)
        assert weather.flags.c_contiguous and arrivals.flags.c_contiguous
        h = h0
        want_w, want_e = [h], []
        for s in range(slots):
            b2, h, spill = slot_step(env, np.zeros(n_ep, dtype=int), h, 0,
                                     u_h[:, s, 0], u_e[:, s, 0])
            want_w.append(h)
            want_e.append(b2 + spill)
        assert np.array_equal(weather, np.stack(want_w, axis=1))
        assert np.array_equal(arrivals[..., 0], np.stack(want_e, axis=1))

    def test_single_outcome_tables(self):
        # one weather state and no arrivals leave both cumulative tables without columns
        env = HarvestEnvironment(
            chain=HarvestChain(states=("S",), transition=np.array([[1.0]])),
            arrivals=ArrivalModel(pmf_per_state=np.array([[1.0]])),
            battery=BatteryConfig(b_max=3, cost=(0, 1)),
            epoch=EpochConfig(2, 0.9),
        )
        u_h, u_e = np.random.default_rng(4).random((2, 3, 5, 2))
        weather, arrivals = env.exogenous_paths(np.zeros(3, dtype=int), u_h, u_e)
        assert weather.shape == (3, 11) and weather.dtype == np.uint8 and not weather.any()
        assert arrivals.shape == (3, 5, 2) and arrivals.dtype == np.uint8 and not arrivals.any()
        assert slot_step(env, 2, 0, 1, 0.99, 0.99) == (1, 0, 0)
        assert env.harvest_slot(0, 0.99, 0.99) == (0, 0)
        b2, h2, spill = slot_step(env, np.array([3, 0]), np.array([0, 0]), 0, u_h[0, 0], u_e[0, 0])
        assert b2.tolist() == [3, 0] and h2.tolist() == [0, 0] and spill.tolist() == [0, 0]

    def test_memory_does_not_grow_with_the_arrival_width(self):
        # a walkthrough rollout's draws with 301 arrival counts: gathering a
        # cumulative row per slot would hold (20, 6000, 300) floats, about 275 MiB
        env = three_weather_env(False, e_max=300)
        rng = np.random.default_rng(9)
        u_h, u_e = rng.random((2, 20, 2000, 3))
        h0 = np.arange(20) % env.n_h
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            env.exogenous_paths(h0, u_h, u_e)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


# "(b, h) of every state", the inverse of state_index, written out by hand
INVERSE_LAYOUT = re.compile(r"np\.divmod\(np\.arange\(|np\.arange\([^)]*\)\s*//\s*[\w.]*n_h\b")


class TestStateLayout:
    def test_state_coords_invert_state_index(self):
        env = HarvestEnvironment(
            chain=HarvestChain(states=("G", "M", "B"), transition=np.full((3, 3), 1 / 3)),
            arrivals=ArrivalModel(pmf_per_state=np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]])),
            battery=BatteryConfig(b_max=4, cost=(0, 1, 2)),
            epoch=EpochConfig(3, 0.9),
        )
        b, h = env.state_coords()
        assert list(zip(b.tolist(), h.tolist())) == list(itertools.product(range(5), range(3)))
        assert np.array_equal(env.state_index(b, h), np.arange(env.n_states))
        assert not b.flags.writeable and not h.flags.writeable

    def test_layout_lives_only_in_env(self):
        # every other module asks the env for (b, h) instead of deriving it
        src = Path(__file__).resolve().parent.parent / "src" / "ehinfer"
        found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py")) if path.name != "env.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if INVERSE_LAYOUT.search(line)]
        assert found == []


def _source_lines(owner):
    lines, start = inspect.getsourcelines(owner)
    return range(start, start + len(lines))


class TestOneSlotRule:
    SRC = Path(__file__).resolve().parent.parent / "src" / "ehinfer"

    def test_cumulative_tables_are_read_by_one_draw_helper(self):
        # harvest_slot and exogenous_paths both draw through _draw, so the
        # inverse-cdf rule has one copy; __post_init__ builds the tables
        found = [(path.name, i) for path in sorted(self.SRC.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"cum_(chain|arrivals)", line)]
        assert {name for name, _ in found} == {"env.py"}
        built = _source_lines(HarvestEnvironment.__post_init__)
        read = [i for _, i in found if i not in built]
        assert read and all(i in _source_lines(HarvestEnvironment._draw) for i in read)

    def test_battery_clip_lives_only_in_battery_step(self):
        # any np.minimum, np.clip or min call that bounds by b_max is a clip
        found = []
        for path in sorted(self.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func) in ("np.minimum", "np.clip", "min")
                        and "b_max" in ast.unparse(node)):
                    found.append((path.name, node.lineno))
        assert len(found) == 1
        name, line = found[0]
        assert name == "env.py" and line in _source_lines(battery_step)


class TestArtifactFiles:
    @pytest.mark.parametrize("pattern,owner", [
        (r"json\.load\(", env_mod.read_json),
        (r"json\.dump\(", env_mod.write_json),
        (r"# \{key\}=\{val\}", env_mod.write_csv),
    ])
    def test_one_reader_and_writer_per_format(self, pattern, owner):
        # every artifact goes through env's reader and writers, so no second
        # copy can skip their checks or drift from their format
        src = Path(__file__).resolve().parent.parent / "src" / "ehinfer"
        found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(pattern, line)]
        lines, start = inspect.getsourcelines(owner)
        inside = [f"env.py:{start + i}" for i, line in enumerate(lines) if re.search(pattern, line)]
        assert found == inside and len(found) == 1


class TestAffordability:
    def test_affordable_matches_costs(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4, costs=(0, 1, 3, 4))
        mask = env.affordable(np.arange(5))
        assert mask.shape == (5, 4)
        for b in range(5):
            assert mask[b].tolist() == [c <= b for c in env.battery.cost]
            assert env.affordable(b).tolist() == mask[b].tolist()

    def test_can_proceed_needs_next_increment(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4, costs=(0, 1, 3, 4))
        for b in range(5):
            assert [bool(env.can_proceed(b, xi)) for xi in range(4)] == \
                [b >= 1, b >= 2, b >= 1, False]
