"""Markov-modulated energy harvesting environment.

An environment couples a finite Markov chain over harvesting conditions
(e.g. Good/Bad) with state-conditioned packet-arrival distributions and a
finite battery. Decision epochs span ``T`` slots; the battery evolves
slotwise as ``b' = min(max(b - u + e, 0), b_max)``.

All types are immutable after construction. Sampling takes uniforms the
caller drew from its own ``numpy.random.Generator``; there is no hidden
global state.

Every artifact but the JSONL datasets is read and written here: JSON
objects, solved tables among them stamped with the environment's
fingerprint, and CSVs with ``# key=value`` header lines.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np


class NonErgodicChain(ValueError):
    """Harvesting chain is not irreducible and aperiodic."""


class InfeasibleAction(ValueError):
    """Action cost exceeds the current battery level."""


class IncompatibleController(ValueError):
    """Controller or dataset does not fit the environment's shape."""


def _as_readonly(a, dtype=float):
    arr = np.ascontiguousarray(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def json_number(name, value, integer=False):
    """value if it is a JSON integer, or unless `integer` a JSON number; else ValueError."""
    # bool is a subclass of int, so the type is compared exactly; NaN and Infinity are not JSON
    if type(value) not in ((int,) if integer else (int, float)) or not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def check_positive(name, value):
    """value if it is a finite number above 0; else (NaN too) ValueError."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def read_json(path):
    """The JSON object in path; any other JSON value is a ValueError."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
    return raw


def write_json(path, payload, indent=None, sort_keys=False):
    """payload as one newline-terminated JSON document in path."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


def read_artifact(path, env):
    """(payload, meta) of a JSON artifact made for env, else ValueError.

    Solutions keep env_fingerprint at the top level, policies and checkpoints in meta.
    """
    payload = read_json(path)
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"meta must be a JSON object, got {type(meta).__name__}")
    found = payload.get("env_fingerprint", meta.get("env_fingerprint"))
    if found != env.fingerprint():
        raise ValueError(f"made for environment {found}, not {env.fingerprint()}")
    return payload, meta


def write_csv(path, meta, columns, rows):
    """CSV of one '# key=value' line per meta item, the columns, then the rows of cells."""
    with open(path, "w") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _check_rows_stochastic(mat, what, tol=1e-12):
    # written as not-all-ok, so NaN entries, which compare False, fail too
    if not np.all((mat >= -tol) & (mat <= 1 + tol)):
        raise ValueError(f"{what}: entries must lie in [0, 1]")
    err = np.abs(mat.sum(axis=-1) - 1.0)
    if not np.all(err <= tol):
        raise ValueError(f"{what}: rows must sum to 1 (max error {err.max():.3e})")


@dataclass(frozen=True)
class HarvestChain:
    """Finite Markov chain over harvesting environment states."""

    states: tuple
    transition: np.ndarray

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("chain needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"state names must be distinct, got {list(self.states)}")
        object.__setattr__(self, "states", tuple(self.states))
        mat = _as_readonly(self.transition)
        if mat.shape != (len(self.states), len(self.states)):
            raise ValueError("transition matrix shape must be |H| x |H|")
        _check_rows_stochastic(mat, "HarvestChain.transition")
        object.__setattr__(self, "transition", mat)

    @property
    def n(self):
        return len(self.states)


@dataclass(frozen=True)
class ArrivalModel:
    """Per-environment-state pmf over integer packet arrivals 0..e_max."""

    pmf_per_state: np.ndarray

    def __post_init__(self):
        mat = _as_readonly(np.atleast_2d(self.pmf_per_state))
        _check_rows_stochastic(mat, "ArrivalModel.pmf_per_state")
        object.__setattr__(self, "pmf_per_state", mat)

    @property
    def e_max(self):
        return self.pmf_per_state.shape[1] - 1

    @property
    def support(self):
        return np.arange(self.pmf_per_state.shape[1])

    def mean_per_state(self):
        """Expected packets per slot conditioned on each environment state."""
        return self.pmf_per_state @ self.support.astype(float)


@dataclass(frozen=True)
class BatteryConfig:
    """Finite packet buffer plus the cumulative cost of each computing mode.

    ``cost[k]`` is the total energy of mode k; it is nondecreasing with
    cost[0] = 0 (mode 0 is the energy-free random predictor). cost[K-1]
    may exceed b_max, in which case the top mode is sometimes infeasible.
    """

    b_max: int
    cost: tuple

    def __post_init__(self):
        if self.b_max < 0:
            raise ValueError("b_max must be nonnegative")
        cost = tuple(int(c) for c in self.cost)
        if not cost or cost[0] != 0:
            raise ValueError("cost vector must start at 0 (free mode 0)")
        if any(c1 > c2 for c1, c2 in zip(cost, cost[1:])):
            raise ValueError("cost vector must be nondecreasing")
        object.__setattr__(self, "cost", cost)

    @property
    def n_modes(self):
        return len(self.cost)


@dataclass(frozen=True)
class EpochConfig:
    """Slots per decision epoch and the per-epoch discount.

    The per-slot discount is derived, discount_epoch**(1/T), so that T
    slots discount as much as one epoch and one-shot and incremental
    returns line up.
    """

    T: int
    discount_epoch: float

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not (0 < self.discount_epoch < 1):
            raise ValueError("discount_epoch must lie in (0, 1)")

    @property
    def discount_slot(self):
        return self.discount_epoch ** (1.0 / self.T)


@dataclass(frozen=True)
class HarvestEnvironment:
    """Bundle of chain, arrivals, battery, and epoch configuration.

    ``condition_on_next`` selects whether the arrival in a slot is drawn
    conditioned on the slot's current environment state (default) or on
    the next one; both appear in the source formulations.
    """

    chain: HarvestChain
    arrivals: ArrivalModel
    battery: BatteryConfig
    epoch: EpochConfig
    condition_on_next: bool = False
    _kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _tables: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.arrivals.pmf_per_state.shape[0] != self.chain.n:
            raise ValueError("arrival pmf rows must match number of chain states")
        if self.epoch.T < self.battery.n_modes - 1:
            raise ValueError("T must be at least K - 1")
        cost = np.asarray(self.battery.cost)
        b, h = np.divmod(np.arange(self.n_states), self.n_h)
        # the last cumulative column is left out, so an inverse-cdf draw
        # never lands past the last state when rounding leaves it below 1
        tables = {
            "cost": cost,
            "step_cost": np.append(np.diff(cost), np.iinfo(np.int64).max),
            "cum_chain": np.cumsum(self.chain.transition, axis=1)[:, :-1],
            "cum_arrivals": np.cumsum(self.arrivals.pmf_per_state, axis=1)[:, :-1],
            "b": b,
            "h": h,
        }
        for arr in tables.values():
            arr.setflags(write=False)
        object.__setattr__(self, "_tables", tables)

    @property
    def n_h(self):
        return self.chain.n

    @property
    def n_states(self):
        return (self.battery.b_max + 1) * self.chain.n

    @property
    def n_modes(self):
        return self.battery.n_modes

    def state_index(self, b, h):
        return b * self.chain.n + h

    def check_exits(self, n_exits):
        """Raise IncompatibleController unless n_exits confidences fit the modes."""
        if n_exits != self.n_modes:
            raise IncompatibleController(
                f"dataset has {n_exits} exits, environment {self.n_modes} modes")

    def state_coords(self):
        """(b, h) of every state in state-index order, as read-only arrays."""
        return self._tables["b"], self._tables["h"]

    def _kernel(self, key, build):
        """Kernel built once per environment and handed out read-only."""
        if key not in self._kernels:
            self._kernels[key] = _as_readonly(build())
        return self._kernels[key]

    def slot_kernel(self, u):
        u = int(u)
        return self._kernel(("slot", u), lambda: slot_kernel(
            self.chain, self.arrivals, u, self.battery.b_max,
            condition_on_next=self.condition_on_next))

    def epoch_kernel(self, a):
        a = int(a)
        return self._kernel(("epoch", a), lambda: epoch_kernel(self, a))

    def affordable(self, b):
        """Modes whose full cost fits battery level b, as a bool array (..., K)."""
        return np.asarray(b)[..., None] >= self._tables["cost"]

    def can_proceed(self, b, xi):
        """Whether an incremental controller at mode xi can afford the next mode."""
        return self._tables["step_cost"][xi] <= b

    def harvest_slot(self, h, u_h, u_e):
        """(h', e) of one slot by inverse-cdf draws, for scalars or arrays.

        The next weather state is drawn with uniform u_h from the row of h,
        the arrival with u_e from the arrival pmf of h (or of the next state
        under condition_on_next); battery_step then spends and stores.
        """
        h_next = self._draw(u_h, h)
        return h_next, self._draw(u_e, h_next if self.condition_on_next else h, arrivals=True)

    def exogenous_paths(self, h0, u_h, u_e):
        """The harvesting process of E episodes, drawn before any decision.

        Weather and arrivals do not depend on what a controller does, so the
        draws of harvest_slot can all be made up front: u_h and u_e are (E, N, T)
        uniforms of N epochs of T slots, h0 (E,) the start states. Returns the
        weather state at every slot start, (E, N*T + 1), whose column s + 1 is
        harvest_slot's h' of slot s, and the arrivals of every slot, (E, N, T).
        Both hold the narrowest unsigned type that fits. The weather is walked
        in blocks of slots (_weather_path), and each slot's arrival is drawn
        at the path's own state.
        """
        shape = np.shape(u_e)
        path = self._weather_path(h0, np.reshape(u_h, (shape[0], -1)))
        src = path[:, 1:] if self.condition_on_next else path[:, :-1]
        e = self._draw(np.reshape(u_e, src.shape), src, arrivals=True,
                       dtype=np.min_scalar_type(self.arrivals.e_max))
        return path, e.reshape(shape)

    def _weather_path(self, h0, u):
        """The weather at every slot start, (E, slots + 1), from h0 (E,) and the
        uniforms u (E, slots), walked in blocks of about sqrt(slots) slots.

        The next state from every state is drawn for every slot, and the maps
        of each block's slots are composed for all blocks at once, so that row
        i of the composition maps a block's start to the state after its slot
        i. The walk then steps from block start to block start, and one gather
        fills in every slot.
        """
        (n_ep, slots), n_h = u.shape, self.n_h
        h_type = np.min_scalar_type(n_h - 1)
        size = max(1, math.isqrt(slots))        # slots per block
        blocks = -(-slots // size)
        # the uniforms as (slot in block, block, episode); the pad slots are never read
        grid = np.zeros((blocks * size, n_ep))
        grid[:slots] = u.T
        grid = grid.reshape(blocks, size, n_ep).swapaxes(0, 1)
        # row i: the next state from every state at slot i of every block, as
        # (block and episode, state), then composed over the block
        comp = self._draw(grid[..., None], np.arange(n_h), dtype=h_type).reshape(size, -1, n_h)
        group = np.arange(blocks * n_ep)        # the (block, episode) pairs
        first = n_h * group[:, None]            # the flat index of each pair's state 0
        for i in range(1, size):
            comp[i] = comp[i].reshape(-1)[first + comp[i - 1]]
        # the walk, from block start to block start
        starts = np.empty((blocks, n_ep), dtype=h_type)
        starts[0] = h0
        ends = comp[-1].reshape(blocks, n_ep, n_h)
        for blk in range(1, blocks):
            starts[blk] = ends[blk - 1][group[:n_ep], starts[blk - 1]]
        # every slot, from the start of its block
        path = np.empty((n_ep, blocks * size + 1), dtype=h_type)
        path[:, 0] = h0
        path[:, 1:].reshape(n_ep, blocks, size)[...] = (
            comp[:, group, starts.ravel()].reshape(size, blocks, n_ep).transpose(2, 1, 0))
        return np.ascontiguousarray(path[:, :slots + 1])

    def _draw(self, u, rows, arrivals=False, dtype=int):
        """Inverse-cdf draws with uniforms u from the given rows of the chain's
        (or, if arrivals, the arrival pmfs') cumulative table: the number of
        cumulative entries below u.

        The entries are counted one column at a time, so memory stays that of
        the broadcast of u and rows whatever the width of the table.
        """
        cols = self._tables["cum_arrivals" if arrivals else "cum_chain"].T
        if not len(cols):           # a single outcome, drawn every time
            return np.zeros(np.broadcast(u, rows).shape, dtype=dtype)[()]
        count = (u > cols[0][rows]).astype(dtype)
        for col in cols[1:]:
            count += u > col[rows]
        return count

    def to_config(self):
        return {
            "states": list(self.chain.states),
            "transition": self.chain.transition.tolist(),
            "arrival_pmfs": self.arrivals.pmf_per_state.tolist(),
            "b_max": self.battery.b_max,
            "costs": list(self.battery.cost),
            "T": self.epoch.T,
            "gamma": self.epoch.discount_epoch,
            "condition_arrivals_on_next_state": self.condition_on_next,
        }

    @classmethod
    def from_config(cls, cfg):
        """Environment of a to_config dict, as read from JSON.

        T, b_max and each cost must be JSON integers, gamma and each
        transition and arrival_pmfs entry numbers, states a list of strings,
        condition_arrivals_on_next_state (optional) a boolean; anything else,
        a numeric string included, raises ValueError.
        """
        for key in ("T", "b_max", "gamma"):
            json_number(key, cfg[key], integer=key != "gamma")
        states, flag = cfg["states"], cfg.get("condition_arrivals_on_next_state", False)
        if type(states) is not list or not all(type(x) is str for x in states):
            raise ValueError(f"states must be a list of strings, got {states!r}")
        if type(flag) is not bool:
            raise ValueError(f"condition_arrivals_on_next_state must be a boolean, got {flag!r}")
        mat = {key: [[json_number(key, x) for x in row] for row in cfg[key]]
               for key in ("transition", "arrival_pmfs")}
        return cls(
            chain=HarvestChain(states=tuple(states), transition=np.asarray(mat["transition"])),
            arrivals=ArrivalModel(pmf_per_state=np.asarray(mat["arrival_pmfs"])),
            battery=BatteryConfig(b_max=cfg["b_max"], cost=tuple(
                json_number("costs", c, integer=True) for c in cfg["costs"])),
            epoch=EpochConfig(cfg["T"], float(cfg["gamma"])),
            condition_on_next=flag,
        )

    def fingerprint(self):
        blob = json.dumps(self.to_config(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def two_state_env(p_g, p_b, pe_g, pe_b, b_max, costs=(0, 1, 2, 3), T=3, gamma=0.9,
                  condition_on_next=False):
    """Good/Bad chain with binary packet arrivals.

    p_g, p_b are the self-transition probabilities of the Good and Bad
    states; pe_g, pe_b the per-slot probabilities of harvesting one packet.
    """
    return HarvestEnvironment(
        chain=HarvestChain(states=("G", "B"), transition=np.array([[p_g, 1 - p_g], [1 - p_b, p_b]])),
        arrivals=ArrivalModel(pmf_per_state=np.array([[1 - pe_g, pe_g], [1 - pe_b, pe_b]])),
        battery=BatteryConfig(b_max=b_max, cost=costs),
        epoch=EpochConfig(T, gamma),
        condition_on_next=condition_on_next,
    )


def battery_step(b, u, e, b_max):
    """One-slot battery update: min(max(b - u + e, 0), b_max), elementwise."""
    return np.minimum(np.maximum(b - u + e, 0), b_max)


def stationary_distribution(chain):
    """Limiting distribution of an irreducible aperiodic chain.

    Power iteration stops once successive iterates differ by at most 1e-12
    in l1. Raises NonErgodicChain when the chain is reducible or periodic,
    or if power iteration fails to converge within 10**6 sweeps.
    """
    n = chain.n
    if n == 1:
        return np.array([1.0])
    # Wielandt bound: a primitive matrix has a strictly positive power at
    # exponent (n-1)^2 + 1; anything else is reducible or periodic.
    reach = chain.transition > 0
    power = np.eye(n, dtype=bool)
    exponent = (n - 1) ** 2 + 1
    for _ in range(exponent):
        power = power @ reach
    if not power.all():
        raise NonErgodicChain("chain is reducible or periodic")
    pi = np.full(n, 1.0 / n)
    for _ in range(10**6):
        nxt = pi @ chain.transition
        if np.abs(nxt - pi).sum() <= 1e-12:
            return nxt / nxt.sum()
        pi = nxt
    raise NonErgodicChain("power iteration did not converge within 10**6 sweeps")


def energy_rate(chain, arrivals, T):
    """Expected harvested packets per decision epoch of T slots.

    T times the stationary per-slot rate; the per-epoch scaling is what the
    reference operating points (0.54 .. 3.00 at T=3) are expressed in.
    """
    pi = stationary_distribution(chain)
    return float(T) * float(pi @ arrivals.mean_per_state())


def slot_kernel(chain, arrivals, u, b_max, condition_on_next=False):
    """Single-slot transition kernel over (b, h) under fixed consumption u.

    Row index is b * |H| + h. By default the arrival is conditioned on the
    slot's current environment state; with condition_on_next=True it is
    conditioned on the successor state instead.
    """
    if u < 0:
        raise ValueError("consumption must be nonnegative")
    n_h = chain.n
    levels = np.arange(b_max + 1)
    # indexed (b, h, b', h'); the arrival counts add up in increasing order
    kernel = np.zeros((b_max + 1, n_h, b_max + 1, n_h))
    for e in range(arrivals.e_max + 1):
        pmf = arrivals.pmf_per_state[:, e]
        # weight e by the arrival pmf of the successor state, or of the current one
        w = chain.transition * (pmf if condition_on_next else pmf[:, None])
        kernel[levels, :, battery_step(levels, u, e, b_max), :] += w
    return kernel.reshape((b_max + 1) * n_h, -1)


def epoch_kernel(env, a):
    """Exact T-slot kernel for one decision epoch under one-shot action a.

    The full mode cost is consumed in the first slot; the remaining T - 1
    slots only accumulate arrivals. Both one-shot and incremental
    controllers therefore share identical energy physics.
    """
    cost = env.battery.cost[a]
    kernel = env.slot_kernel(cost)
    idle = env.slot_kernel(0)
    for _ in range(env.epoch.T - 1):
        kernel = kernel @ idle
    return kernel

