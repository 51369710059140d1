"""The lockstep simulator against a one-episode-at-a-time reference.

The reference below is the scalar loop the simulator used before it
stepped all episodes together: per episode and slot it draws the next
weather state and the arrival by `np.searchsorted` on the cumulative
tables and clips the battery in plain Python. It calls the controllers
with scalars, one decision at a time, through decide or decide_sub.

Every controller is walked over the env's state rows with one tabled
next row per step. The kinds differ only in how a step picks its actions:
a table controller's are composed into the table, and any other
controller acts on the episodes' rows, act(j, z, u, out). The last tests
hold each kind's act to its decide or decide_sub at every state row, hold
the walk to the asked step (`DecideOnly`, an act that asks decide or
decide_sub at the rows' coordinates), and check that neither the walk nor
the oracle's exit fractions ask any kind.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehinfer.confidence import ConfidenceDataset
from ehinfer.dqn import (QNetwork, _inc_feasible, encode_inc, encode_os, forward,
                         inc_input_dim, os_input_dim)
from ehinfer.env import (ArrivalModel, BatteryConfig, EpochConfig, HarvestChain,
                         HarvestEnvironment, InfeasibleAction,
                         stationary_distribution, two_state_env)
from ehinfer import oracle as oracle_mod
from ehinfer.harness import (EpisodeResult, FixedModeController, IncDqnController,
                             IncTableController, MmsController, OracleController,
                             OsDqnController, RandomFeasibleController, _state_rows,
                             _unaffordable, exit_probability_mc, exit_probability_oracle,
                             simulate)
from ehinfer.mdp import inc_state_index
from ehinfer.oracle import solve_oracle

NEAR_TIE = 1e-12


def infeasible(message, epoch, slot):
    """InfeasibleAction that also records the (epoch, slot) it was raised at."""
    ex = InfeasibleAction(message)
    ex.where = (epoch, slot)
    return ex


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
                raise infeasible(f"{controller.kind} chose mode {xi} at b={b}", n, 0)
        for tau in range(t_slots):
            if controller.incremental:
                alpha = int(controller.decide_sub(b, h, xi, tau, z_rec[xi], u_dec[n]))
                if alpha and (xi >= k_modes - 1 or costs[xi + 1] - costs[xi] > b):
                    raise infeasible(f"{controller.kind} proceed at b={b}, xi={xi}", n, tau)
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
        self.env = ctrl.env
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
def small_envs(draw, min_k=2):
    n_h = draw(st.integers(1, 3))
    k = draw(st.integers(min_k, 4))
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
        epoch=EpochConfig(t, 0.9),
        condition_on_next=draw(st.booleans()),
    )
    return env, rng


def feasible_tables(env, rng):
    """An MmS and an IncIAgEE controller of random feasible policies."""
    n_s, k, t = env.n_states, env.n_modes, env.epoch.T
    b_of = np.arange(n_s) // env.n_h
    mms = np.array([rng.choice(np.flatnonzero(env.affordable(b))) for b in b_of])
    inc_b = np.repeat(b_of, k * t)
    inc_xi = np.tile(np.repeat(np.arange(k), t), n_s)
    inc = env.can_proceed(inc_b, inc_xi) & (rng.random(len(inc_b)) < 0.6)
    return [MmsController(mms, env), IncTableController(inc.astype(np.int64), env)]


def every_controller(env, dataset, rng):
    """One controller of every kind; the tables are random feasible policies."""
    k = env.n_modes
    return [
        *feasible_tables(env, rng),
        OracleController(solve_oracle(env, dataset, eps=1e-3)),
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
        got = simulate(real, dataset, episodes=3, epochs=25, seed=seed)
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
        got = exit_probability_mc(real, dataset, start, 30, seed)
        if not (spied and ctrl.min_gap < NEAR_TIE):
            assert np.array_equal(got, want)


class TopModeController:
    kind = "TopMode"
    incremental = False

    def __init__(self, env):
        self.env = env

    def decide(self, b, h, z, u_dec):
        return np.full(np.shape(b), self.env.n_modes - 1)

    def act(self, j, z, u, out):
        out[...] = self.env.n_modes - 1


class AlwaysProceed:
    """An incremental decider that proceeds at every slot, past the last mode too."""

    kind = "AlwaysProceed"
    incremental = True

    def __init__(self, env):
        self.env = env

    def decide_sub(self, b, h, xi, tau, z_xi, u_dec):
        return np.ones(np.shape(b), dtype=np.int64)

    def act(self, j, z, u, out):
        out[...] = 1


def test_infeasible_choice_raises():
    env = two_state_env(0.9, 0.5, 0.0, 0.0, b_max=3)
    dataset = ConfidenceDataset(np.full((5, 4), 0.5), np.ones((5, 4)))
    with pytest.raises(InfeasibleAction):
        simulate(TopModeController(env), dataset, episodes=2, epochs=5, seed=0)


def reference_failure(controller, dataset, episodes, epochs, seed):
    """The InfeasibleAction message simulate must raise, or None if it must not.

    The lockstep rollout checks every episode at an epoch (one-shot) or a
    slot (incremental) before it moves on, so it raises at the earliest
    (epoch, slot) at which any episode fails, for the first such episode.
    """
    env = controller.env
    cum_pi = np.cumsum(stationary_distribution(env.chain))
    found = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(episodes)):
        try:
            reference_episode(controller, env, dataset, epochs,
                              np.random.default_rng(child), cum_pi)
        except InfeasibleAction as ex:
            found.append((ex.where, i, str(ex)))
    return min(found)[2] if found else None


def assert_raises_like_reference(controller, dataset, episodes, epochs, seed):
    want = reference_failure(controller, dataset, episodes, epochs, seed)
    if want is None:
        simulate(controller, dataset, episodes, epochs, seed)
        return None
    with pytest.raises(InfeasibleAction) as ex:
        simulate(controller, dataset, episodes, epochs, seed)
    assert str(ex.value) == want
    return want


@settings(max_examples=25, deadline=None)
@given(case=small_envs(), seed=st.integers(0, 2**16))
def test_infeasible_choices_raise_like_scalar_reference(case, seed):
    # tables drawn without regard to the battery: modes it cannot pay for,
    # steps it cannot pay for, and steps past the last mode
    env, rng = case
    k, n_inc = env.n_modes, env.n_states * env.n_modes * env.epoch.T
    dataset = ConfidenceDataset(rng.random((40, k)), rng.integers(0, 2, (40, k)))
    for ctrl in (MmsController(rng.integers(k, size=env.n_states), env),
                 TopModeController(env),
                 AlwaysProceed(env),
                 IncTableController(rng.integers(2, size=n_inc), env),
                 IncTableController(np.ones(n_inc, dtype=np.int64), env)):
        assert_raises_like_reference(ctrl, dataset, 3, 25, seed)


# an always-proceeding table reaches the last mode with slots to spare and
# steps past it, which the step-cost sentinel must refuse
@pytest.mark.parametrize("costs,t", [((0,), 1), ((0,), 3), ((0, 0, 0), 3), ((0, 1, 2), 4)])
def test_proceeding_from_the_last_mode_raises(costs, t):
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4, costs=costs, T=t)
    k = env.n_modes
    rng = np.random.default_rng(0)
    dataset = ConfidenceDataset(rng.random((20, k)), rng.integers(0, 2, (20, k)))
    ctrl = IncTableController(np.ones(env.n_states * k * t, dtype=np.int64), env)
    want = assert_raises_like_reference(ctrl, dataset, 3, 10, seed=5)
    assert want.startswith("IncIAgEE proceed at b=") and want.endswith(f", xi={k - 1}")


def test_single_mode_env_matches_scalar_reference():
    env = two_state_env(0.9, 0.5, 0.8, 0.3, b_max=3, costs=(0,), T=2)
    rng = np.random.default_rng(1)
    dataset = ConfidenceDataset(rng.random((20, 1)), rng.integers(0, 2, (20, 1)))
    cum_pi = np.cumsum(stationary_distribution(env.chain))
    for ctrl in (MmsController(np.zeros(env.n_states, dtype=np.int64), env),
                 IncTableController(np.zeros(env.n_states * 2, dtype=np.int64), env),
                 RandomFeasibleController(env), FixedModeController(0, env)):
        got = simulate(ctrl, dataset, episodes=3, epochs=30, seed=9)
        for i, child in enumerate(np.random.SeedSequence(9).spawn(3)):
            want = reference_episode(ctrl, env, dataset, 30, np.random.default_rng(child), cum_pi)
            assert_same_episode(got[i], want)
            assert want.outage == 0 and want.exit_hist.tolist() == [30]


class DecideOnly:
    """A controller whose act asks its decide or decide_sub at the rows'
    (b, h) or (b, h, xi, tau) coordinates, with arrays of every episode:
    the asked step, so the walk neither composes a table controller's
    actions nor runs the controller's own act."""

    def __init__(self, ctrl):
        self.ctrl = ctrl
        self.kind, self.incremental, self.env = ctrl.kind, ctrl.incremental, ctrl.env
        self.coords = _state_rows(ctrl.env, ctrl.incremental)

    def act(self, j, z, u, out):
        at = [c[j] for c in self.coords]
        if self.incremental:
            out[...] = self.ctrl.decide_sub(*at, z, u)
        else:
            out[...] = self.ctrl.decide(*at, z, u)


def outcome(run):
    try:
        return run()
    except InfeasibleAction as ex:
        return str(ex)


def acting_controllers(env, dataset, rng):
    """One controller of every kind that acts: small random networks of both
    DQN kinds, RandomFeasible, and the oracle wherever it has two modes to
    choose from."""
    k = env.n_modes
    return [
        IncDqnController(QNetwork.create(rng, inc_input_dim(env), 2, hidden=(8,)), env),
        OsDqnController(QNetwork.create(rng, os_input_dim(env), k, hidden=(8,)), env),
        RandomFeasibleController(env),
        *([OracleController(solve_oracle(env, dataset, eps=1e-3))] if k > 1 else []),
    ]


def walked_controllers(env, dataset, rng):
    """Every acting controller, then feasible, unfiltered and
    always-proceeding tables and FixedMode."""
    k, n_inc = env.n_modes, env.n_states * env.n_modes * env.epoch.T
    return [
        *acting_controllers(env, dataset, rng),
        *feasible_tables(env, rng),
        MmsController(rng.integers(k, size=env.n_states), env),
        IncTableController(rng.integers(2, size=n_inc), env),
        # reaches the last mode and steps past it: the sentinel step
        IncTableController(np.ones(n_inc, dtype=np.int64), env),
        FixedModeController(int(rng.integers(k)), env),
    ]


@settings(max_examples=40, deadline=None)
@given(case=small_envs(min_k=1), seed=st.integers(0, 2**16),
       episodes=st.sampled_from([1, 3]), epochs=st.sampled_from([1, 2, 25]),
       ties=st.booleans())
@example(case=(two_state_env(0.9, 0.5, 0.8, 0.3, b_max=3, costs=(0,), T=2),
               np.random.default_rng(0)), seed=3, episodes=1, epochs=1, ties=False)
# its unfiltered MmS table fails episode 0 later than another episode
@example(case=(two_state_env(0.9, 0.5, 0.8, 0.0, b_max=4, costs=(0, 1, 2), T=4),
               np.random.default_rng(0)), seed=0, episodes=3, epochs=25, ties=False)
@example(case=(two_state_env(0.9, 0.5, 0.8, 0.3, b_max=2, costs=(0, 1), T=1),
               np.random.default_rng(1)), seed=4, episodes=1, epochs=1, ties=True)
# modes 1 and 2 cost the same, so their continuations tie exactly
@example(case=(two_state_env(0.7, 0.4, 0.6, 0.2, b_max=5, costs=(0, 1, 1, 3), T=3),
               np.random.default_rng(2)), seed=7, episodes=3, epochs=25, ties=True)
def test_table_walk_matches_decision_loop(case, seed, episodes, epochs, ties):
    """The composed table step and every kind's act give what the asked
    step gives on the same controller: episodes, exit counts and
    InfeasibleAction messages. A DQN act and the asked decide run one
    batched forward over the same episodes, so they agree bit for bit,
    near ties too."""
    env, rng = case
    k = env.n_modes
    # confidences of 0, 1/2 and 1 tie within and across records
    z = rng.integers(0, 3, (40, k)) / 2 if ties else rng.random((40, k))
    dataset = ConfidenceDataset(z, rng.integers(0, 2, (40, k)))
    start = (int(rng.integers(env.battery.b_max + 1)), int(rng.integers(env.n_h)))
    for ctrl in walked_controllers(env, dataset, rng):
        slow = DecideOnly(ctrl)
        got = outcome(lambda: simulate(ctrl, dataset, episodes, epochs, seed))
        want = outcome(lambda: simulate(slow, dataset, episodes, epochs, seed))
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_episode(a, b)
                assert a.exit_hist.dtype == b.exit_hist.dtype
        for rollouts in (1, 30):
            got = outcome(lambda: exit_probability_mc(ctrl, dataset, start, rollouts, seed))
            want = outcome(lambda: exit_probability_mc(slow, dataset, start, rollouts, seed))
            assert type(got) is type(want)
            assert got == want if isinstance(want, str) else np.array_equal(got, want)


def test_walk_asks_no_table_oracle_or_dqn_controller(monkeypatch):
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
    rng = np.random.default_rng(0)
    dataset = ConfidenceDataset(rng.random((40, 4)), rng.integers(0, 2, (40, 4)))
    ctrls = walked_controllers(env, dataset, rng)
    assert {type(c) for c in ctrls} == {
        MmsController, IncTableController, FixedModeController, OracleController,
        IncDqnController, OsDqnController, RandomFeasibleController}

    def asked(*args):
        raise AssertionError("the walk asked for a decision")

    for cls in (MmsController, FixedModeController, OracleController, OsDqnController,
                RandomFeasibleController):
        monkeypatch.setattr(cls, "decide", asked)
    for cls in (IncTableController, IncDqnController):
        monkeypatch.setattr(cls, "decide_sub", asked)
    monkeypatch.setattr(oracle_mod, "oracle_choice", asked)
    for ctrl in ctrls:
        outcome(lambda: simulate(ctrl, dataset, 3, 25, seed=1))
        outcome(lambda: exit_probability_mc(ctrl, dataset, (2, 1), 30, seed=1))
        if isinstance(ctrl, OracleController):
            exit_probability_oracle(ctrl.solution, dataset)


@settings(max_examples=25, deadline=None)
@given(case=small_envs(min_k=1), ties=st.booleans())
def test_act_matches_decide_at_every_row(case, ties):
    """Each kind's act on state rows equals its decide or decide_sub at the
    rows' coordinates, for every row, in any order and repeated, and for
    decision uniforms at both ends of [0, 1)."""
    env, rng = case
    k = env.n_modes
    z = rng.integers(0, 3, (40, k)) / 2 if ties else rng.random((40, k))
    dataset = ConfidenceDataset(z, rng.integers(0, 2, (40, k)))
    for ctrl in acting_controllers(env, dataset, rng):
        coords = _state_rows(env, ctrl.incremental)
        n = len(coords[0])
        for j in (np.arange(n), rng.integers(n, size=2 * n + 1)):
            at = [c[j] for c in coords]
            z = dataset.z[rng.integers(len(dataset), size=len(j))]
            if ctrl.incremental:
                z = z[np.arange(len(j)), at[2]]     # the current mode's confidence
            for u in (0.0, 0.5, np.nextafter(1, 0)):
                u = np.full(len(j), u)
                out = np.empty(len(j), dtype=np.intp)
                ctrl.act(j, z, u, out)
                want = (ctrl.decide_sub(*at, z, u) if ctrl.incremental
                        else ctrl.decide(*at, z, u))
                assert np.array_equal(out, want)


@settings(max_examples=15, deadline=None)
@given(case=small_envs(min_k=1))
def test_row_inputs_and_masks_match_the_scalar_encodings(case):
    env, rng = case
    k, t = env.n_modes, env.epoch.T
    inc = IncDqnController(QNetwork.create(rng, inc_input_dim(env), 2, hidden=(8,)), env)
    os_ = OsDqnController(QNetwork.create(rng, os_input_dim(env), k, hidden=(8,)), env)
    inc_mask, os_mask = _unaffordable(env, True), _unaffordable(env, False)
    assert inc.inputs.shape == (env.n_states * k * t, inc_input_dim(env))
    assert os_.inputs.shape == (env.n_states, os_input_dim(env))
    for b in range(env.battery.b_max + 1):
        for h in range(env.n_h):
            row = env.state_index(b, h)
            assert np.array_equal(os_.inputs[row], encode_os(env, b, h, np.zeros(k)))
            assert np.array_equal(~os_mask[row], env.affordable(b))
            for xi in range(k):
                for tau in range(t):
                    row = inc_state_index(env, b, h, xi, tau)
                    assert np.array_equal(inc.inputs[row], encode_inc(env, b, h, xi, tau, 0.0))
                    assert np.array_equal(~inc_mask[row], _inc_feasible(env, b, xi))
