"""Simulation, metrics, exit-selection analyses, and parameter sweeps.

Controllers are thin adapters around solved policies (arrays of action
indices in state-index order), oracle solutions, or trained networks,
exposing either a per-epoch mode choice (one-shot) or a per-slot
pause/proceed choice (incremental); they decide for arrays of states, one
entry per episode. The simulator pre-draws all environment
randomness per episode so different controllers evaluated under the same
seed face identical arrival and environment-state paths, then steps every
episode together; DQN training evaluates its network through the same
`simulate`. The exact exit analyses read the models the controllers were
solved on: the IncIAgEE slot chain for incremental policies, and the
oracle solution's continuation for the oracle.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from . import dqn as dqn_mod
from . import mdp as mdp_mod
from . import oracle as oracle_mod
from .confidence import exit_accuracy
from .env import InfeasibleAction, energy_rate, json_number, stationary_distribution, two_state_env


class IncompatibleController(ValueError):
    """Controller does not fit the environment or dataset shape."""


class MmsController:
    """One-shot mode choice from a solved (b, h) policy table."""

    kind = "MmS"
    incremental = False

    def __init__(self, policy, env):
        if len(policy) != env.n_states:
            raise IncompatibleController("policy table size does not match environment")
        self.actions = np.asarray(policy)
        self.env = env
        self.n_modes = env.n_modes

    def decide(self, b, h, z, u_dec):
        return self.actions[self.env.state_index(b, h)]


class OracleController:
    """One-shot confidence-aware choice from a converged oracle solution."""

    kind = "OsIAwOracle"
    incremental = False

    def __init__(self, solution, env):
        if solution.env.fingerprint() != env.fingerprint():
            raise IncompatibleController("oracle solution solved for a different environment")
        self.solution = solution
        self.env = env
        self.n_modes = env.n_modes

    def decide(self, b, h, z, u_dec):
        return oracle_mod.oracle_choice(self.solution, b, h, z)


class IncTableController:
    """Per-slot pause/proceed from a solved (b, h, xi, tau) policy table."""

    kind = "IncIAgEE"
    incremental = True

    def __init__(self, policy, env):
        if len(policy) != env.n_states * env.n_modes * env.epoch.T:
            raise IncompatibleController("incremental policy table size mismatch")
        self.actions = np.asarray(policy)
        self.env = env
        self.n_modes = env.n_modes

    def decide_sub(self, b, h, xi, tau, z_xi, u_dec):
        return self.actions[mdp_mod.inc_state_index(self.env, b, h, xi, tau)]


class IncDqnController:
    """Per-slot pause/proceed from a trained incremental Q-network."""

    kind = "IncIAwDQN"
    incremental = True

    def __init__(self, net, env):
        if net.sizes[0] != dqn_mod.inc_input_dim(env) or net.sizes[-1] != 2:
            raise IncompatibleController("network shape does not match incremental encoding")
        self.net = net
        self.env = env
        self.n_modes = env.n_modes

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
        self.n_modes = env.n_modes

    def decide(self, b, h, z, u_dec):
        x = dqn_mod.encode_os(self.env, b, h, z)
        return dqn_mod.greedy_action(self.net, x, self.env.affordable(b))


class RandomFeasibleController:
    """Uniform choice among the modes affordable at the current battery."""

    kind = "RandomFeasible"
    incremental = False

    def __init__(self, env):
        self.env = env
        self.n_modes = env.n_modes

    def decide(self, b, h, z, u_dec):
        n_feas = self.env.affordable(b).sum(axis=-1)
        return (u_dec * n_feas).astype(np.int64)


class FixedModeController:
    """Always the requested mode, degrading to the best affordable one."""

    incremental = False

    def __init__(self, k, env):
        if not 0 <= k < env.n_modes:
            raise IncompatibleController(f"mode {k} out of range")
        self.k = k
        self.kind = f"FixedMode({k})"
        self.env = env
        self.n_modes = env.n_modes

    def decide(self, b, h, z, u_dec):
        return np.minimum(self.k, self.env.affordable(b).sum(axis=-1) - 1)


@dataclass(frozen=True)
class EpisodeResult:
    accuracy: float
    exit_hist: np.ndarray
    energy_used: int
    overflow: int
    outage: int
    epochs: int


def _rollout(controller, env, dataset, b, h, rec_idx, u_h, u_e, u_dec):
    """Step E episodes through N epochs together, from start states b, h (E,).

    Epoch n of episode i serves record rec_idx[i, n] and draws slot tau's
    weather and arrival from u_h[i, n, tau] and u_e[i, n, tau]; u_dec[i, n]
    is the controller's private uniform. Controllers see arrays: decide
    gets (b, h, z, u) of every episode once per epoch, decide_sub
    (b, h, xi, tau, z_xi, u) once per slot. Raises InfeasibleAction if a
    controller picks a mode or a step the battery cannot pay for.

    Returns per-episode (hits (E,), exit histogram (E, K), energy used,
    overflow, outage (E,)).
    """
    n_ep, n_epochs, t_slots = u_h.shape
    costs = np.asarray(env.battery.cost)
    rows = np.arange(n_ep)
    hits, energy, overflow, outage = (np.zeros(n_ep, dtype=np.int64) for _ in range(4))
    hist = np.zeros((n_ep, env.n_modes), dtype=np.int64)
    b, h = np.asarray(b), np.asarray(h)
    for n in range(n_epochs):
        rec = rec_idx[:, n]
        z = dataset.z[rec]
        if env.n_modes > 1:
            outage += b < costs[1]
        if controller.incremental:
            mode = np.zeros(n_ep, dtype=np.int64)      # xi, the mode reached so far
        else:
            mode = controller.decide(b, h, z, u_dec[:, n])
            bad = np.flatnonzero(~env.affordable(b)[rows, mode])
            if len(bad):
                i = bad[0]
                raise InfeasibleAction(f"{controller.kind} chose mode {mode[i]} at b={b[i]}")
        for tau in range(t_slots):
            if controller.incremental:
                alpha = controller.decide_sub(b, h, mode, tau, z[rows, mode], u_dec[:, n])
                bad = np.flatnonzero((alpha != 0) & ~env.can_proceed(b, mode))
                if len(bad):
                    i = bad[0]
                    raise InfeasibleAction(
                        f"{controller.kind} proceed at b={b[i]}, xi={mode[i]}")
                c = costs[mode + alpha] - costs[mode]
                mode = mode + alpha
            else:
                c = costs[mode] if tau == 0 else 0
            energy += c
            b, h, spill = env.slot_step(b, h, c, u_h[:, n, tau], u_e[:, n, tau])
            overflow += spill
        hist[rows, mode] += 1
        hits += dataset.correct[rec, mode]
    return hits, hist, energy, overflow, outage


def simulate(controller, env, dataset, episodes, epochs, seed):
    """Run independent episodes; returns one EpisodeResult per episode.

    Per-episode generators come from spawning the master seed, so episode
    e sees the same environment randomness no matter which controller is
    being evaluated. Each episode draws its record indices, weather and
    arrival uniforms, decision uniforms and start weather state in that
    order; all episodes then advance together (see _rollout). Raises
    ValueError unless episodes and epochs are at least 1.
    """
    _check_counts(episodes=episodes, epochs=epochs)
    if dataset.n_exits != env.n_modes:
        raise IncompatibleController(
            f"dataset has {dataset.n_exits} exits, environment {env.n_modes} modes"
        )
    if controller.n_modes != env.n_modes:
        raise IncompatibleController("controller mode count mismatch")
    cum_pi = np.cumsum(stationary_distribution(env.chain))
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
        controller, env, dataset, b0, np.searchsorted(cum_pi, u_start),
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
    with shape (n_bh_states, K); rows sum to 1. Raises InfeasibleAction if
    the policy proceeds where the battery cannot pay for the next mode.
    """
    actions = np.asarray(policy)
    k, t = env.n_modes, env.epoch.T
    n = env.n_states * k * t
    if len(actions) != n:
        raise IncompatibleController("incremental policy table size mismatch")
    model = mdp_mod.build_inc_iag_mdp(env, np.zeros(k))
    idx = np.arange(n)
    bad = np.flatnonzero(~model.feasible[idx, actions])
    if len(bad):
        raise InfeasibleAction(f"policy proceeds at {mdp_mod.state_keys(env, True)[bad[0]]}")
    p_pi = model.transition[actions * n + idx]
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
    """One-hot exit distribution of a one-shot confidence-blind policy."""
    eta = np.zeros((env.n_states, env.n_modes))
    eta[np.arange(env.n_states), np.asarray(policy)] = 1.0
    return eta


def exit_probability_mc(controller, env, dataset, start, rollouts, seed):
    """Monte Carlo single-epoch exit distribution from a fixed (b, h)."""
    _check_counts(rollouts=rollouts)
    rng = np.random.default_rng(seed)
    t_slots = env.epoch.T
    rec_idx = rng.integers(len(dataset), size=(rollouts, 1))
    u_h = rng.random((rollouts, 1, t_slots))
    u_e = rng.random((rollouts, 1, t_slots))
    u_dec = rng.random((rollouts, 1))
    b0, h0 = (np.full(rollouts, x) for x in start)
    _, hist, _, _, _ = _rollout(controller, env, dataset, b0, h0, rec_idx, u_h, u_e, u_dec)
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
            controllers[kind] = OracleController(sol, env)
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
            results = simulate(controllers[kind], env, dataset,
                               grid.episodes, grid.epochs, seed)
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
    in cell order.
    """
    cells = grid.cells()
    args = [(grid, cell, tuple(kinds), dataset.z, dataset.correct, eps)
            for cell in cells]
    if jobs > 1:
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
    with open(path, "w") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def write_eta_csv(eta, env, path, meta=None):
    """Exit-probability table as CSV rows (b, h, k, eta)."""
    with open(path, "w") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("b,h,k,eta\n")
        for b in range(env.battery.b_max + 1):
            for h, label in enumerate(env.chain.states):
                for k, p in enumerate(eta[env.state_index(b, h)]):
                    fh.write(f"{b},{label},{k},{p:.10g}\n")


def config_fingerprint(payload):
    """Short stable hash of a JSON-serializable configuration."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
