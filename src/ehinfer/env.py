"""Markov-modulated energy harvesting environment.

An environment couples a finite Markov chain over harvesting conditions
(e.g. Good/Bad) with state-conditioned packet-arrival distributions and a
finite battery. Decision epochs span ``T`` slots; the battery evolves
slotwise as ``b' = min(max(b - u + e, 0), b_max)``.

All types are immutable after construction. Sampling takes uniforms the
caller drew from its own ``numpy.random.Generator``; there is no hidden
global state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


class NonErgodicChain(ValueError):
    """Harvesting chain is not irreducible and aperiodic."""


class InfeasibleAction(ValueError):
    """Action cost exceeds the current battery level."""


def _as_readonly(a, dtype=float):
    arr = np.ascontiguousarray(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def json_number(name, value, integer=False):
    """value if it is a JSON integer, or unless `integer` a JSON number; else ValueError."""
    # bool is a subclass of int, so the type is compared exactly
    if type(value) not in ((int,) if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def _check_rows_stochastic(mat, what, tol=1e-12):
    if np.any(mat < -tol) or np.any(mat > 1 + tol):
        raise ValueError(f"{what}: entries must lie in [0, 1]")
    err = np.abs(mat.sum(axis=-1) - 1.0)
    if np.any(err > tol):
        raise ValueError(f"{what}: rows must sum to 1 (max error {err.max():.3e})")


@dataclass(frozen=True)
class HarvestChain:
    """Finite Markov chain over harvesting environment states."""

    states: tuple
    transition: np.ndarray

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("chain needs at least one state")
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

    def slot_step(self, b, h, consumption, u_h, u_e):
        """One slot of dynamics by inverse-cdf draws, for scalars or arrays.

        The next weather state is drawn with uniform u_h from the row of h,
        the arrival with u_e from the arrival pmf of h (or of the next state
        under condition_on_next); the battery then spends `consumption`.
        Returns (b', h', overflow), overflow being the packets lost to the
        full battery.
        """
        t = self._tables
        h_next = (np.asarray(u_h)[..., None] > t["cum_chain"][h]).sum(axis=-1)
        src = h_next if self.condition_on_next else h
        e = (np.asarray(u_e)[..., None] > t["cum_arrivals"][src]).sum(axis=-1)
        b_max = self.battery.b_max
        overflow = np.maximum(b - consumption + e - b_max, 0)
        return battery_step(b, consumption, e, b_max), h_next, overflow

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

        T and b_max must be integers and gamma a number; anything else,
        a bool or a numeric string included, raises ValueError.
        """
        for key in ("T", "b_max", "gamma"):
            json_number(key, cfg[key], integer=key != "gamma")
        return cls(
            chain=HarvestChain(states=tuple(cfg["states"]), transition=np.asarray(cfg["transition"])),
            arrivals=ArrivalModel(pmf_per_state=np.asarray(cfg["arrival_pmfs"])),
            battery=BatteryConfig(b_max=cfg["b_max"], cost=tuple(cfg["costs"])),
            epoch=EpochConfig(cfg["T"], float(cfg["gamma"])),
            condition_on_next=bool(cfg.get("condition_arrivals_on_next_state", False)),
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
    n_e = arrivals.e_max + 1
    n_states = (b_max + 1) * n_h
    kernel = np.zeros((n_states, n_states))
    for b in range(b_max + 1):
        for e in range(n_e):
            b_next = battery_step(b, u, e, b_max)
            for h in range(n_h):
                row = b * n_h + h
                if condition_on_next:
                    # weight e by the arrival pmf of the successor state
                    w = chain.transition[h, :] * arrivals.pmf_per_state[:, e]
                else:
                    w = chain.transition[h, :] * arrivals.pmf_per_state[h, e]
                kernel[row, b_next * n_h : (b_next + 1) * n_h] += w
    return kernel


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

