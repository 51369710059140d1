"""The lockstep simulator against a one-episode-at-a-time reference.

The reference below is the scalar loop the simulator used before it
stepped all episodes together: per episode and slot it draws the next
weather state and the arrival by `np.searchsorted` on the cumulative
tables and clips the battery in plain Python. It calls the controllers
with scalars, one decision at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehinfer.confidence import ConfidenceDataset
from ehinfer.dqn import (QNetwork, encode_inc, encode_os, forward, inc_input_dim,
                         os_input_dim)
from ehinfer.env import (ArrivalModel, BatteryConfig, EpochConfig, HarvestChain,
                         HarvestEnvironment, InfeasibleAction,
                         stationary_distribution, two_state_env)
from ehinfer.harness import (EpisodeResult, FixedModeController, IncDqnController,
                             IncTableController, MmsController, OracleController,
                             OsDqnController, RandomFeasibleController,
                             exit_probability_mc, simulate)
from ehinfer.oracle import solve_oracle

NEAR_TIE = 1e-12


def reference_episode(controller, env, dataset, epochs, rng, cum_pi):
    t_slots = env.epoch.T
    costs = env.battery.cost
    b_max = env.battery.b_max
    cum_chain = np.cumsum(env.chain.transition, axis=1)
    cum_arr = np.cumsum(env.arrivals.pmf_per_state, axis=1)
    k_modes = env.n_modes

    rec_idx = rng.integers(len(dataset), size=epochs)
    u_h = rng.random((epochs, t_slots))
    u_e = rng.random((epochs, t_slots))
    u_dec = rng.random(epochs)
    b = b_max
    h = int(np.searchsorted(cum_pi, rng.random()))

    hits = energy = overflow = outage = 0
    hist = np.zeros(k_modes, dtype=np.int64)
    for n in range(epochs):
        rec = rec_idx[n]
        z_rec = dataset.z[rec]
        if k_modes > 1 and b < costs[1]:
            outage += 1
        xi = 0
        if not controller.incremental:
            xi = int(controller.decide(b, h, z_rec, u_dec[n]))
            if costs[xi] > b:
                raise InfeasibleAction(f"{controller.kind} chose mode {xi} at b={b}")
        for tau in range(t_slots):
            if controller.incremental:
                alpha = int(controller.decide_sub(b, h, xi, tau, z_rec[xi], u_dec[n]))
                if alpha and (xi >= k_modes - 1 or costs[xi + 1] - costs[xi] > b):
                    raise InfeasibleAction(f"{controller.kind} proceed at b={b}, xi={xi}")
                c = costs[xi + alpha] - costs[xi]
                xi += alpha
            else:
                c = costs[xi] if tau == 0 else 0
            energy += c
            h2 = int(np.searchsorted(cum_chain[h], u_h[n, tau]))
            src = h2 if env.condition_on_next else h
            e = int(np.searchsorted(cum_arr[src], u_e[n, tau]))
            nb = b - c + e
            if nb > b_max:
                overflow += nb - b_max
                nb = b_max
            b = max(nb, 0)
            h = h2
        hist[xi] += 1
        hits += int(dataset.correct[rec, xi])
    return EpisodeResult(hits / epochs, hist, energy, overflow, outage, epochs)


def reference_exit_probability_mc(controller, env, dataset, start, rollouts, seed):
    rng = np.random.default_rng(seed)
    t_slots = env.epoch.T
    costs = env.battery.cost
    cum_chain = np.cumsum(env.chain.transition, axis=1)
    cum_arr = np.cumsum(env.arrivals.pmf_per_state, axis=1)
    rec_idx = rng.integers(len(dataset), size=rollouts)
    u_h = rng.random((rollouts, t_slots))
    u_e = rng.random((rollouts, t_slots))
    u_dec = rng.random(rollouts)
    counts = np.zeros(env.n_modes, dtype=np.int64)
    for n in range(rollouts):
        b, h = start
        z_rec = dataset.z[rec_idx[n]]
        if controller.incremental:
            xi = 0
            for tau in range(t_slots):
                alpha = int(controller.decide_sub(b, h, xi, tau, z_rec[xi], u_dec[n]))
                c = costs[xi + 1] - costs[xi] if alpha else 0
                h2 = int(np.searchsorted(cum_chain[h], u_h[n, tau]))
                src = h2 if env.condition_on_next else h
                e = int(np.searchsorted(cum_arr[src], u_e[n, tau]))
                b = min(max(b - c + e, 0), env.battery.b_max)
                h = h2
                xi += alpha
            counts[xi] += 1
        else:
            counts[int(controller.decide(b, h, z_rec, u_dec[n]))] += 1
    return counts / rollouts


class GapSpy:
    """A DQN controller that records the smallest top-two Q gap it decided on.

    A batched forward pass may differ from a one-row one in the last bits,
    so decisions closer than NEAR_TIE may go either way.
    """

    def __init__(self, ctrl):
        self.ctrl, self.kind, self.incremental = ctrl, ctrl.kind, ctrl.incremental
        self.n_modes = ctrl.n_modes
        self.min_gap = np.inf

    def _note(self, q, feasible):
        top = np.sort(q[feasible])[::-1]
        if len(top) > 1:
            self.min_gap = min(self.min_gap, top[0] - top[1])

    def decide(self, b, h, z, u_dec):
        env = self.ctrl.env
        self._note(forward(self.ctrl.net, encode_os(env, b, h, z)), env.affordable(b))
        return self.ctrl.decide(b, h, z, u_dec)

    def decide_sub(self, b, h, xi, tau, z_xi, u_dec):
        env = self.ctrl.env
        q = forward(self.ctrl.net, encode_inc(env, b, h, xi, tau, z_xi))
        self._note(q, np.array([True, bool(env.can_proceed(b, xi))]))
        return self.ctrl.decide_sub(b, h, xi, tau, z_xi, u_dec)


@st.composite
def small_envs(draw):
    n_h = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    steps = draw(st.lists(st.integers(0, 3), min_size=k - 1, max_size=k - 1))
    costs = tuple(int(c) for c in np.cumsum([0] + steps))
    b_max = draw(st.integers(0, 6))
    t = draw(st.integers(max(1, k - 1), k + 1))
    e_max = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = rng.dirichlet(np.ones(e_max + 1), size=n_h)
    if e_max and draw(st.booleans()):
        pmf[:, -1] = 0.0        # an arrival count with zero probability
        pmf /= pmf.sum(axis=1, keepdims=True)
    env = HarvestEnvironment(
        chain=HarvestChain(states=tuple(f"s{i}" for i in range(n_h)),
                           transition=rng.dirichlet(np.ones(n_h), size=n_h)),
        arrivals=ArrivalModel(pmf_per_state=pmf),
        battery=BatteryConfig(b_max=b_max, cost=costs),
        epoch=EpochConfig.from_epoch_discount(t, 0.9),
        condition_on_next=draw(st.booleans()),
    )
    return env, rng


def every_controller(env, dataset, rng):
    """One controller of every kind; the tables are random feasible policies."""
    n_s = env.n_states
    b_of = np.arange(n_s) // env.n_h
    mms = np.array([rng.choice(np.flatnonzero(env.affordable(b))) for b in b_of])
    k, t = env.n_modes, env.epoch.T
    inc_b = np.repeat(b_of, k * t)
    inc_xi = np.tile(np.repeat(np.arange(k), t), n_s)
    inc = env.can_proceed(inc_b, inc_xi) & (rng.random(len(inc_b)) < 0.6)
    return [
        MmsController(mms, env),
        IncTableController(inc.astype(np.int64), env),
        OracleController(solve_oracle(env, dataset, eps=1e-3), env),
        RandomFeasibleController(env),
        FixedModeController(int(rng.integers(k)), env),
        GapSpy(IncDqnController(
            QNetwork.create(rng, inc_input_dim(env), 2, hidden=(8,)), env)),
        GapSpy(OsDqnController(
            QNetwork.create(rng, os_input_dim(env), k, hidden=(8,)), env)),
    ]


def assert_same_episode(a, b):
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.exit_hist, b.exit_hist)
    assert (a.energy_used, a.overflow, a.outage, a.epochs) == \
        (b.energy_used, b.overflow, b.outage, b.epochs)


@settings(max_examples=25, deadline=None)
@given(case=small_envs(), seed=st.integers(0, 2**16))
def test_lockstep_matches_scalar_reference(case, seed):
    env, rng = case
    k = env.n_modes
    dataset = ConfidenceDataset(rng.random((40, k)), rng.integers(0, 2, (40, k)))
    cum_pi = np.cumsum(stationary_distribution(env.chain))
    for ctrl in every_controller(env, dataset, rng):
        spied = isinstance(ctrl, GapSpy)
        real = ctrl.ctrl if spied else ctrl
        got = simulate(real, env, dataset, episodes=3, epochs=25, seed=seed)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(3)):
            if spied:
                ctrl.min_gap = np.inf
            want = reference_episode(ctrl, env, dataset, 25,
                                     np.random.default_rng(child), cum_pi)
            if spied and ctrl.min_gap < NEAR_TIE:
                continue
            assert_same_episode(got[i], want)

        start = (int(rng.integers(env.battery.b_max + 1)), int(rng.integers(env.n_h)))
        if spied:
            ctrl.min_gap = np.inf
        want = reference_exit_probability_mc(ctrl, env, dataset, start, 30, seed)
        got = exit_probability_mc(real, env, dataset, start, 30, seed)
        if not (spied and ctrl.min_gap < NEAR_TIE):
            assert np.array_equal(got, want)


class TopModeController:
    kind = "TopMode"
    incremental = False

    def __init__(self, env):
        self.n_modes = env.n_modes

    def decide(self, b, h, z, u_dec):
        return np.full(np.shape(b), self.n_modes - 1)


def test_infeasible_choice_raises():
    env = two_state_env(0.9, 0.5, 0.0, 0.0, b_max=3)
    dataset = ConfidenceDataset(np.full((5, 4), 0.5), np.ones((5, 4)))
    with pytest.raises(InfeasibleAction):
        simulate(TopModeController(env), env, dataset, episodes=2, epochs=5, seed=0)
