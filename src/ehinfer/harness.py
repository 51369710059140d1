"""Simulation, metrics, exit-selection analyses, and parameter sweeps.

Controllers are thin adapters around solved policies (arrays of action
indices in state-index order), oracle solutions, or trained networks,
exposing either a per-epoch mode choice (one-shot) or a per-slot
pause/proceed choice (incremental) for arrays of states, one per episode.
Each controller is bound to the environment it was made for,
`controller.env`, and the simulator runs that one. No decision changes
the weather or the arrivals, so the simulator draws them per episode
before the rollout (`env.exogenous_paths`), and controllers evaluated
under the same seed face the same paths. It then walks every episode
together over the env's state rows: an epoch (one-shot, on its summed
arrivals) or a slot (incremental) is one gather from a table of next rows
per arrival count and action, built once per rollout. The kinds differ
only in how a step picks its actions: a table controller (MmS, FixedMode,
IncIAgEE) has them composed into the table, the oracle takes the argmax of
the record's confidences plus its masked continuation, a DQN controller
runs one batched forward on its rows' inputs, encoded once per controller,
and RandomFeasible is asked through decide. DQN training steps its actor
over the same rows and tables, and evaluates its network through
`simulate`. The exact exit analyses read the models the controllers were
solved on: the IncIAgEE slot chain, and the oracle solution's
continuation. `exit_probability_matrix` (sparse walk) and `sweep` with
jobs > 1 (process pool) import scipy.sparse or the pool themselves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import dqn as dqn_mod
from . import mdp as mdp_mod
from . import oracle as oracle_mod
from .confidence import exit_accuracy
from .env import (IncompatibleController, InfeasibleAction, battery_step, check_positive,
                  energy_rate, json_number, stationary_distribution, two_state_env, write_csv)


def _action_table(policy, env, incremental):
    """policy as an array of action indices, one per (b, h) or (b, h, xi, tau)
    state of env, else IncompatibleController."""
    actions = np.asarray(policy)
    n_states, n_actions = env.n_states, env.n_modes
    if incremental:
        n_states, n_actions = n_states * env.n_modes * env.epoch.T, 2
    if len(actions) != n_states:
        raise IncompatibleController(
            "incremental policy table size mismatch" if incremental
            else "policy table size does not match environment")
    # before any gather: a negative index would pick the last action, a bool array would mask
    if not np.issubdtype(actions.dtype, np.integer) or not np.all(
            (actions >= 0) & (actions < n_actions)):
        raise IncompatibleController(f"policy actions must lie in 0..{n_actions - 1}")
    return actions


def _state_rows(env, incremental):
    """(b, h) of every (b, h) state row in state-index order, or (b, h, xi,
    tau) of every incremental row in mdp.inc_state_index order."""
    level, h = env.state_coords()
    if not incremental:
        return level, h
    grid = (env.n_states, env.n_modes, env.epoch.T)
    return tuple(np.broadcast_to(x, grid).ravel() for x in (
        level[:, None, None], h[:, None, None], np.arange(env.n_modes)[:, None],
        np.arange(env.epoch.T)))


def _unaffordable(env, incremental):
    """(row, action) mask of the actions a state's battery cannot pay for: a
    mode of a (b, h) row (one-shot), or a step of a (b, h, xi, tau) row
    (incremental; the last mode's step too)."""
    if incremental:
        b, _, xi, _ = _state_rows(env, True)
        mask = np.zeros((len(b), 2), dtype=bool)
        mask[:, 1] = ~env.can_proceed(b, xi)
        return mask
    return ~env.affordable(env.state_coords()[0])


def _next_rows(env, incremental):
    """after[e * n + row, action]: the row, weather and slot set to 0, that
    each of the n state rows reaches under each action when e packets arrive
    over its step, an epoch one-shot (on the summed arrivals) or a slot
    incremental; the mode reached is 0 again once an epoch ends."""
    k, t_slots = env.n_modes, env.epoch.T
    b_max, cost = env.battery.b_max, env._tables["cost"]
    if incremental:
        level, _, xi, slot = _state_rows(env, True)
        reached = np.minimum(xi[:, None] + np.arange(2), k - 1)     # (row, pause/proceed)
        e = np.arange(env.arrivals.e_max + 1)[:, None, None]
        after = mdp_mod.inc_state_index(
            env, battery_step(level[:, None], cost[reached] - cost[xi, None], e, b_max), 0,
            np.where(slot[:, None] == t_slots - 1, 0, reached), 0)
    else:
        e = np.arange(env.arrivals.e_max * t_slots + 1)[:, None, None]
        after = env.state_index(battery_step(env.state_coords()[0][:, None], cost, e, b_max), 0)
    return after.reshape(-1, after.shape[-1])


def _row_inputs(env, incremental):
    """Network input of every state row (_state_rows order) at zero
    confidence, (rows, d) and read-only; the rollout writes each step's
    confidences into its own copy of the rows it gathers."""
    if incremental:
        x = dqn_mod.encode_inc(env, *_state_rows(env, True), 0.0)
    else:
        x = dqn_mod.encode_os(env, *_state_rows(env, False), 0.0)
    x.setflags(write=False)
    return x


class MmsController:
    """One-shot mode choice from a solved (b, h) policy table."""

    kind = "MmS"
    incremental = False

    def __init__(self, policy, env):
        self.actions = _action_table(policy, env, False)
        self.env = env

    def decide(self, b, h, z, u_dec):
        return self.actions[self.env.state_index(b, h)]


class OracleController:
    """One-shot confidence-aware choice from a converged oracle solution."""

    kind = "OsIAwOracle"
    incremental = False

    def __init__(self, solution):
        self.solution = solution
        self.env = solution.env

    def decide(self, b, h, z, u_dec):
        return oracle_mod.oracle_choice(self.solution, b, h, z)


class IncTableController:
    """Per-slot pause/proceed from a solved (b, h, xi, tau) policy table."""

    kind = "IncIAgEE"
    incremental = True

    def __init__(self, policy, env):
        self.actions = _action_table(policy, env, True)
        # the actions in mdp.inc_state_index order, indexed by (b, h), xi and tau
        self.table = self.actions.reshape(env.n_states, env.n_modes, env.epoch.T)
        self.table.setflags(write=False)
        self.env = env

    def decide_sub(self, b, h, xi, tau, z_xi, u_dec):
        return self.table[self.env.state_index(b, h), xi, tau]


class IncDqnController:
    """Per-slot pause/proceed from a trained incremental Q-network."""

    kind = "IncIAwDQN"
    incremental = True

    def __init__(self, net, env):
        if net.sizes[0] != dqn_mod.inc_input_dim(env) or net.sizes[-1] != 2:
            raise IncompatibleController("network shape does not match incremental encoding")
        self.net = net
        self.env = env
        self.inputs = _row_inputs(env, True)

    def decide_sub(self, b, h, xi, tau, z_xi, u_dec):
        x = dqn_mod.encode_inc(self.env, b, h, xi, tau, z_xi)
        return dqn_mod.greedy_action(self.net, x, dqn_mod._inc_feasible(self.env, b, xi))


class OsDqnController:
    """One-shot mode choice from a trained full-confidence Q-network."""

    kind = "OsIAwDQN"
    incremental = False

    def __init__(self, net, env):
        if net.sizes[0] != dqn_mod.os_input_dim(env) or net.sizes[-1] != env.n_modes:
            raise IncompatibleController("network shape does not match one-shot encoding")
        self.net = net
        self.env = env
        self.inputs = _row_inputs(env, False)

    def decide(self, b, h, z, u_dec):
        x = dqn_mod.encode_os(self.env, b, h, z)
        return dqn_mod.greedy_action(self.net, x, self.env.affordable(b))


class RandomFeasibleController:
    """Uniform choice among the modes affordable at the current battery."""

    kind = "RandomFeasible"
    incremental = False

    def __init__(self, env):
        self.env = env

    def decide(self, b, h, z, u_dec):
        n_feas = self.env.affordable(b).sum(axis=-1)
        return (u_dec * n_feas).astype(np.int64)


class FixedModeController:
    """Always the requested mode, degrading to the best affordable one."""

    incremental = False

    def __init__(self, k, env):
        if not 0 <= k < env.n_modes:
            raise IncompatibleController(f"mode {k} out of range")
        self.kind = f"FixedMode({k})"
        self.actions = np.minimum(k, env.affordable(env.state_coords()[0]).sum(axis=-1) - 1)
        self.env = env

    decide = MmsController.decide


@dataclass(frozen=True)
class EpisodeResult:
    accuracy: float
    exit_hist: np.ndarray
    energy_used: int
    overflow: int
    outage: int
    epochs: int


def _rollout(controller, dataset, b, h, rec_idx, u_h, u_e, u_dec):
    """Step E episodes through N epochs together, from start states b, h (E,).

    Epoch n of episode i serves record rec_idx[i, n] and draws slot tau's
    weather and arrival from u_h[i, n, tau] and u_e[i, n, tau]; u_dec[i, n]
    is the controller's private uniform. env.exogenous_paths draws the
    weather and arrivals of every slot first, then _walk steps the
    controller over the env's state rows. Raises ValueError unless every
    start is a state of the env, InfeasibleAction if a controller picks a
    mode or a step the battery cannot pay for, at the earliest epoch and
    slot for the first episode, and IncompatibleController unless the
    dataset fits the controller's env.

    Returns per-episode (hits (E,), exit histogram (E, K), energy used,
    overflow, outage (E,)).
    """
    env = controller.env
    env.check_exits(dataset.n_exits)
    b0, h = np.asarray(b), np.asarray(h)
    b_max = env.battery.b_max
    # before any walk: a start outside the env would index rows that do not exist
    if not (np.issubdtype(b0.dtype, np.integer) and np.issubdtype(h.dtype, np.integer)
            and np.all((b0 >= 0) & (b0 <= b_max)) and np.all((h >= 0) & (h < env.n_h))):
        raise ValueError(f"start states must be integers 0 <= b <= {b_max} "
                         f"and 0 <= h < {env.n_h}")
    weather, arrivals = env.exogenous_paths(h, u_h, u_e)
    modes, outage, b = _walk(controller, dataset, b0, weather, arrivals, rec_idx, u_dec)
    costs = env._tables["cost"]
    # cost[0] is 0, so an epoch spends the cost of the mode it ends in
    energy = costs[modes].sum(axis=1)
    # the checks keep every spend within the battery, so its floor at 0 never
    # binds: each packet that arrived was spent, is still stored, or overflowed
    overflow = b0 + arrivals.sum(axis=(1, 2), dtype=np.int64) - energy - b
    hist = (modes[..., None] == np.arange(env.n_modes)).sum(axis=1)
    hits = dataset.correct[rec_idx, modes].sum(axis=1)
    return hits, hist, energy, overflow, outage


def _walk(controller, dataset, b, weather, arrivals, rec_idx, u_dec):
    """(modes (E, N), outage (E,), final battery (E,)) of any controller.

    A row is a state: (b, h) one-shot, (b, h, xi, tau) incremental. The
    walk carries the row with the weather and slot set to 0, q; the
    harvesting paths give each step's weather, slot and arrival count e, so
    its row is q plus an offset, and its next q one gather from the table of
    _next_rows. A table controller's actions are composed into that table
    once, so its step is one add and one gather. The oracle takes the argmax
    of z plus its row's masked continuation (oracle._scores at a zero
    confidence row). A DQN controller gathers its rows' inputs
    (controller.inputs, z = 0) into one array, writes z in, runs one forward
    into per-layer arrays allocated once per walk, masks the unaffordable
    actions to -inf and takes the argmax: the ops of decide and decide_sub,
    on the same shapes. Any other controller is asked: decide once per
    epoch, at the weather of its first slot, or decide_sub once per slot,
    with arrays of every episode. An action the battery cannot pay for walks
    on with the battery floored at 0 (a step past the last mode stays at
    it); every trajectory is exact up to the earliest such step, where the
    search after the walk raises, for the first episode.
    """
    env = controller.env
    incremental = controller.incremental
    k, t_slots = env.n_modes, env.epoch.T
    cost = env._tables["cost"]
    if incremental:
        level, h, xi, _ = _state_rows(env, True)
        steps, weather = arrivals.reshape(len(arrivals), -1), weather[:, :-1]
        q = mdp_mod.inc_state_index(env, b, 0, 0, 0)
    else:
        level, h = _state_rows(env, False)
        steps, weather = arrivals.sum(axis=2, dtype=np.int64), weather[:, :-1:t_slots]
        q = env.state_index(b, 0)
    after = _next_rows(env, incremental)            # (e * n + row, action)
    n = len(level)
    # each step's e * n plus its row less q, (steps, E) with a step's row
    # contiguous, built in place: e * n adds e * (b_max + 1) to a row's battery
    rows = steps.T.astype(np.int64, order="C")
    rows *= env.n_states
    rows += weather.T
    if incremental:
        rows *= k * t_slots
        rows += np.arange(len(rows))[:, None] % t_slots
    acts = None                                     # each step's action, (steps, E)
    if isinstance(controller, (MmsController, FixedModeController, IncTableController)):
        after = after[np.arange(len(after)), np.tile(controller.actions, len(after) // n)]
        for row in rows:
            row += q
            q = after[row]
    elif isinstance(controller, OracleController):
        acts = np.empty(rows.shape, dtype=np.intp)
        cm = oracle_mod._scores(env, controller.solution.continuation, level, h,
                                np.zeros((n, k)))
        cm = np.tile(cm, (len(after) // n, 1))      # (e * n + row, K)
        for row, z, act in zip(rows, dataset.z[rec_idx.T], acts):
            row += q
            scores = cm[row]
            scores += z
            scores.argmax(axis=1, out=act)
            q = after[row, act]
    elif isinstance(controller, (IncDqnController, OsDqnController)):
        net, inputs = controller.net, controller.inputs
        unaffordable = _unaffordable(env, incremental)
        n_ep = len(q)
        j = np.empty(n_ep, dtype=np.int64)
        x = np.empty((n_ep, inputs.shape[1]))
        layers = [np.empty((n_ep, d)) for d in net.sizes[1:]]
        masked = np.empty((n_ep, after.shape[1]), dtype=bool)
        acts = np.empty(rows.shape, dtype=np.min_scalar_type(after.shape[1] - 1))
        for s, (row, act) in enumerate(zip(rows, acts)):
            row += q
            np.remainder(row, n, out=j)
            inputs.take(j, axis=0, out=x)
            # the confidences are the last input column (the current mode's,
            # incremental) or the last K (one-shot) of encode_inc, encode_os
            if incremental:
                x[:, -1] = dataset.z[rec_idx[:, s // t_slots], xi[j]]
            else:
                x[:, -k:] = dataset.z[rec_idx[:, s]]
            out = dqn_mod._forward_cached(net, x, layers)[-1]
            unaffordable.take(j, axis=0, out=masked)
            np.copyto(out, -np.inf, where=masked)
            out.argmax(axis=1, out=act)
            q = after[row, act]
    else:
        # in the narrowest type: a long rollout asks for many decisions
        acts = np.empty(rows.shape, dtype=np.min_scalar_type(after.shape[1] - 1))
        episodes = np.arange(len(q))
        for s, (row, act) in enumerate(zip(rows, acts)):
            row += q
            j = row % n
            epoch, tau = divmod(s, t_slots) if incremental else (s, 0)
            if tau == 0:
                z = dataset.z[rec_idx[:, epoch]]
            if incremental:
                xi_j = xi[j]
                act[...] = controller.decide_sub(level[j], h[j], xi_j, tau, z[episodes, xi_j],
                                                 u_dec[:, epoch])
            else:
                act[...] = controller.decide(level[j], h[j], z, u_dec[:, epoch])
            q = after[row, act]
    rows %= n
    if acts is None:
        acts = controller.actions[rows]
    bad = _unaffordable(env, incremental)[rows, acts]
    if bad.any():
        first = np.argmax(bad)      # the earliest step, the first episode
        jm = rows.flat[first]
        raise InfeasibleAction(
            f"{controller.kind} proceed at b={level[jm]}, xi={xi[jm]}" if incremental
            else f"{controller.kind} chose mode {acts.flat[first]} at b={level[jm]}")
    if incremental:
        last = slice(t_slots - 1, None, t_slots)
        starts, modes = rows[::t_slots], xi[rows[last]] + acts[last]
    else:
        starts, modes = rows, acts
    # cost[0] is 0, so with a single mode no epoch is an outage
    outage = (level[starts] < cost[min(1, k - 1)]).sum(axis=0)
    return modes.T, outage, level[q]


def simulate(controller, dataset, episodes, epochs, seed):
    """Run independent episodes of controller.env; one EpisodeResult per episode.

    Per-episode generators come from spawning the master seed, so episode
    e sees the same environment randomness no matter which controller is
    being evaluated. Each episode draws its record indices, weather and
    arrival uniforms, decision uniforms and start weather state in that
    order; all episodes then advance together (see _rollout). Every
    episode starts from a full battery, so its accuracy estimates the mean
    over `epochs` epochs from (b_max, pi_h), pi_h the stationary weather,
    not the stationary long-run accuracy; the two differ while the full
    start still shows (IncIAgEE on the reference env at b_max=100 over
    2000 epochs: 0.6848 against 0.6773). Raises ValueError unless episodes
    and epochs are at least 1.
    """
    _check_counts(episodes=episodes, epochs=epochs)
    env = controller.env
    t_slots = env.epoch.T
    rec_idx = np.empty((episodes, epochs), dtype=np.int64)
    u_h = np.empty((episodes, epochs, t_slots))
    u_e = np.empty((episodes, epochs, t_slots))
    u_dec = np.empty((episodes, epochs))
    u_start = np.empty(episodes)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(episodes)):
        rng = np.random.default_rng(child)
        rec_idx[i] = rng.integers(len(dataset), size=epochs)
        rng.random(out=u_h[i])
        rng.random(out=u_e[i])
        rng.random(out=u_dec[i])
        u_start[i] = rng.random()
    b0 = np.full(episodes, env.battery.b_max)
    hits, hist, energy, overflow, outage = _rollout(
        controller, dataset, b0, _start_weather(env, u_start),
        rec_idx, u_h, u_e, u_dec)
    return [
        EpisodeResult(
            accuracy=int(hits[i]) / epochs,
            exit_hist=hist[i],
            energy_used=int(energy[i]),
            overflow=int(overflow[i]),
            outage=int(outage[i]),
            epochs=epochs,
        )
        for i in range(episodes)
    ]


def _start_weather(env, u):
    """Weather states drawn from the stationary distribution with uniforms u; without
    its last cumulative entry, a total that rounds below 1 still ends on the last state."""
    return np.searchsorted(np.cumsum(stationary_distribution(env.chain))[:-1], u)


def _check_counts(**counts):
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")


def aggregate_accuracy(results):
    """Mean accuracy and normal-approximation 95% interval over episodes."""
    accs = np.array([r.accuracy for r in results])
    mean = float(accs.mean())
    if len(accs) > 1:
        half = 1.96 * accs.std(ddof=1) / np.sqrt(len(accs))
    else:
        half = 0.0
    return mean, mean - half, mean + half


def exit_probability_matrix(policy, env):
    """Exact per-epoch exit distribution of an incremental policy.

    Walks the policy's rows of the IncIAgEE slot chain (the rows
    evaluate_policy solves with) for T - 1 slots from every (b, h, 0, 0)
    epoch start; the choice alpha at the last slot ends the epoch in mode
    xi + alpha. policy is an action per incremental state. Returns eta
    with shape (n_bh_states, K); rows sum to 1. Raises IncompatibleController
    unless policy is a pause/proceed table of env, and InfeasibleAction if
    it proceeds where the battery cannot pay for the next mode.
    """
    import scipy.sparse as sp

    actions = _action_table(policy, env, True)
    bad = np.flatnonzero(_unaffordable(env, True)[np.arange(len(actions)), actions])
    if len(bad):
        raise InfeasibleAction(f"policy proceeds at {mdp_mod.state_keys(env, True)[bad[0]]}")
    k, t, n = env.n_modes, env.epoch.T, len(actions)
    model = mdp_mod.build_inc_iag_mdp(env, np.zeros(k))
    p_pi = model.transition[actions * n + np.arange(n)]
    b, h = env.state_coords()
    dist = sp.eye_array(n, format="csr")[mdp_mod.inc_state_index(env, b, h, 0, 0)]
    for _ in range(t - 1):
        dist = dist @ p_pi
    # the last slot of every (b, h, xi), and the mode each one ends the epoch in
    xi = np.arange(k)
    last = mdp_mod.inc_state_index(env, b[:, None], h[:, None], xi, t - 1)     # (n_bh, K)
    final = xi + actions[last]
    return dist[:, last.ravel()].toarray() @ np.eye(k)[final.ravel()]


def exit_probability_oracle(solution, dataset):
    """Fraction of records each (b, h) routes to every mode.

    Records are routed oracle.RECORD_BLOCK at a time, so no (D, S, K)
    score tensor is held.
    """
    env = solution.env
    b, h = env.state_coords()
    cells = env.n_modes * np.arange(env.n_states)
    counts = np.zeros(env.n_states * env.n_modes, dtype=np.int64)
    for blk in oracle_mod.record_blocks(len(dataset)):
        choice = oracle_mod.oracle_choice(solution, b, h, dataset.z[blk, None, :])  # (B, S)
        counts += np.bincount((cells + choice).ravel(), minlength=len(counts))
    return counts.reshape(env.n_states, env.n_modes) / len(dataset)


def exit_probability_mms(policy, env):
    """One-hot exit distribution of a one-shot confidence-blind policy.

    Raises IncompatibleController unless policy is a mode per (b, h) state,
    and InfeasibleAction if it picks a mode the battery cannot pay for.
    """
    actions = _action_table(policy, env, False)
    bad = np.flatnonzero(_unaffordable(env, False)[np.arange(len(actions)), actions])
    if len(bad):
        raise InfeasibleAction(
            f"policy chooses mode {actions[bad[0]]} at {mdp_mod.state_keys(env, False)[bad[0]]}")
    eta = np.zeros((env.n_states, env.n_modes))
    eta[np.arange(env.n_states), actions] = 1.0
    return eta


def exit_probability_mc(controller, dataset, start, rollouts, seed):
    """Monte Carlo single-epoch exit distribution from a fixed (b, h) of controller.env."""
    _check_counts(rollouts=rollouts)
    rng = np.random.default_rng(seed)
    t_slots = controller.env.epoch.T
    rec_idx = rng.integers(len(dataset), size=(rollouts, 1))
    u_h = rng.random((rollouts, 1, t_slots))
    u_e = rng.random((rollouts, 1, t_slots))
    u_dec = rng.random((rollouts, 1))
    b0, h0 = (np.full(rollouts, x) for x in start)
    _, hist, _, _, _ = _rollout(controller, dataset, b0, h0, rec_idx, u_h, u_e, u_dec)
    return hist.sum(axis=0) / rollouts


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian environment grid plus simulation protocol parameters."""

    p_g: tuple = (0.5, 0.7, 0.9)
    p_b: tuple = (0.3, 0.5, 0.9)
    pe_g: tuple = (0.3, 0.7, 0.8, 1.0)
    pe_b: tuple = (0.0, 0.2, 0.3, 0.5)
    b_max: tuple = (3, 5, 10, 20, 30)
    seeds: tuple = (0,)
    episodes: int = 30
    epochs: int = 5000
    costs: tuple = (0, 1, 2, 3)
    T: int = 3
    gamma: float = 0.9

    def __post_init__(self):
        for name in ("p_g", "p_b", "pe_g", "pe_b", "b_max", "seeds", "costs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        integers = ("b_max", "seeds", "costs", "T", "episodes", "epochs")
        for name in ("p_g", "p_b", "pe_g", "pe_b", "gamma") + integers:
            value = getattr(self, name)
            for v in value if type(value) is tuple else (value,):
                json_number(name, v, integer=name in integers)
        _check_counts(episodes=self.episodes, epochs=self.epochs)

    def cells(self):
        return list(product(self.p_g, self.p_b, self.pe_g, self.pe_b, self.b_max))


_SWEEP_KINDS = ("MmS", "IncIAgEE", "OsIAwOracle", "RandomFeasible")


def _sweep_cell(args):
    grid, cell, kinds, z, correct, eps = args
    from .confidence import ConfidenceDataset

    dataset = ConfidenceDataset(z, correct)
    p_g, p_b, pe_g, pe_b, b_max = cell
    env = two_state_env(p_g, p_b, pe_g, pe_b, b_max, costs=grid.costs,
                        T=grid.T, gamma=grid.gamma)
    env.check_exits(dataset.n_exits)
    mu = energy_rate(env.chain, env.arrivals, env.epoch.T)
    rho = exit_accuracy(dataset)
    controllers = {}
    for kind in kinds:
        if kind == "MmS":
            _, pol = mdp_mod.policy_iteration(mdp_mod.build_mms_mdp(env, rho))
            controllers[kind] = MmsController(pol, env)
        elif kind == "IncIAgEE":
            _, pol = mdp_mod.value_iteration(mdp_mod.build_inc_iag_mdp(env, rho), eps=eps)
            controllers[kind] = IncTableController(pol, env)
        elif kind == "OsIAwOracle":
            sol = oracle_mod.solve_oracle(env, dataset, eps=eps)
            controllers[kind] = OracleController(sol)
        elif kind == "RandomFeasible":
            controllers[kind] = RandomFeasibleController(env)
        elif kind.startswith("FixedMode(") and kind.endswith(")"):
            controllers[kind] = FixedModeController(int(kind[10:-1]), env)
        else:
            raise ValueError(
                f"sweep does not support controller kind {kind!r}; train networks "
                "separately and evaluate them with simulate()"
            )
    rows = []
    for seed in grid.seeds:
        for kind in kinds:
            results = simulate(controllers[kind], dataset, grid.episodes, grid.epochs, seed)
            mean, lo, hi = aggregate_accuracy(results)
            hist = np.sum([r.exit_hist for r in results], axis=0)
            hist = hist / hist.sum()
            row = {
                "p_h_G": p_g, "p_h_B": p_b, "p_e_G": pe_g, "p_e_B": pe_b,
                "b_max": b_max, "mu": mu, "controller": kind, "seed": seed,
                "accuracy": mean, "ci_low": lo, "ci_high": hi,
            }
            for k in range(env.n_modes):
                row[f"exit_hist_{k}"] = float(hist[k])
            rows.append(row)
    return rows


def sweep(grid, kinds, dataset, eps=1e-6, jobs=1):
    """Simulate every controller kind over the whole environment grid.

    eps is the solver tolerance of both IncIAgEE value iteration and the
    oracle, as in `solve`. Network-based kinds are rejected: a sweep would
    have to train one network per cell, which is out of scope here. Cells
    run independently (optionally in parallel); row order is deterministic
    in cell order. Raises ValueError, before any cell runs, unless eps is
    positive and finite and jobs at least 1.
    """
    check_positive("eps", eps)
    _check_counts(jobs=jobs)
    cells = grid.cells()
    args = [(grid, cell, tuple(kinds), dataset.z, dataset.correct, eps)
            for cell in cells]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(_sweep_cell, args))
    else:
        per_cell = [_sweep_cell(a) for a in args]
    return [row for rows in per_cell for row in rows]


def results_columns(n_modes):
    return [
        "p_h_G", "p_h_B", "p_e_G", "p_e_B", "b_max", "mu", "controller",
        "seed", "accuracy", "ci_low", "ci_high",
    ] + [f"exit_hist_{k}" for k in range(n_modes)]


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10g}"


def write_results_csv(rows, path, n_modes, meta=None):
    """Sweep/simulate rows as CSV with '#' metadata comment lines first."""
    cols = results_columns(n_modes)
    write_csv(path, meta, cols, ([_fmt(row[c]) for c in cols] for row in rows))


def write_eta_csv(eta, env, path, meta=None):
    """Exit-probability table as CSV rows (b, h, k, eta)."""
    write_csv(path, meta, ("b", "h", "k", "eta"), (
        (b, label, k, f"{p:.10g}") for b in range(env.battery.b_max + 1)
        for h, label in enumerate(env.chain.states)
        for k, p in enumerate(eta[env.state_index(b, h)])))


def config_fingerprint(payload):
    """Short stable hash of a JSON-serializable configuration."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
