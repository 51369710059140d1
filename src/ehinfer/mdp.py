"""Finite MDPs, exact solvers, and the confidence-blind controller models.

Two planning problems are built here. The one-shot model-selection MDP has
state (b, h) and picks a whole computing mode per epoch, earning that
mode's average accuracy. The incremental MDP has state (b, h, xi, tau) and
decides pause/proceed each slot, earning the accuracy of the reached mode
at the last slot of the epoch. Both are confidence-blind: rewards are
average accuracies, not per-instance confidences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class SingularEvaluation(RuntimeError):
    """Policy evaluation linear system could not be solved."""


class NotConverged(RuntimeError):
    """An iterative solver used up max_iter before reaching its tolerance."""


class TransitionMatrix(sp.csr_array):
    """CSR transition matrix; nbytes, as on an ndarray, is its stored size."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(frozen=True)
class FiniteMdp:
    """Tabular MDP with per-state feasible action sets.

    transition is one sparse (n_actions * n_states, n_states) matrix whose
    row a * n_states + s holds P_a(s, .); a dense (n_actions, n_states,
    n_states) array is converted on construction. Rows for infeasible
    (state, action) pairs are present but never used by the solvers.
    Rewards are expected immediate rewards in [0, 1].
    """

    transition: TransitionMatrix
    reward: np.ndarray
    feasible: np.ndarray
    discount: float
    state_keys: tuple

    def __post_init__(self):
        r = np.ascontiguousarray(self.reward, dtype=float)
        f = np.ascontiguousarray(self.feasible, dtype=bool)
        if r.ndim != 2 or f.shape != r.shape:
            raise ValueError("inconsistent transition/reward/feasible shapes")
        n_s, n_a = r.shape
        t = self.transition
        if not sp.issparse(t):
            t = np.asarray(t, dtype=float)
            if t.shape != (n_a, n_s, n_s):
                raise ValueError("inconsistent transition/reward/feasible shapes")
            t = t.reshape(n_a * n_s, n_s)
        t = TransitionMatrix(t, dtype=float)
        if t.shape != (n_a * n_s, n_s):
            raise ValueError("inconsistent transition/reward/feasible shapes")
        if not (0 < self.discount < 1):
            raise ValueError("discount must lie in (0, 1)")
        if not f.any(axis=1).all():
            raise ValueError("every state needs at least one feasible action")
        row_err = np.abs(t.sum(axis=1) - 1.0).reshape(n_a, n_s)
        if np.any(row_err.T[f] > 1e-9):
            raise ValueError("feasible transition rows must be stochastic")
        if np.any(r[f] < 0) or np.any(r[f] > 1):
            raise ValueError("feasible rewards must lie in [0, 1]")
        if len(self.state_keys) != n_s:
            raise ValueError("state_keys length must match n_states")
        for arr in (t.data, t.indices, t.indptr, r, f):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "feasible", f)
        object.__setattr__(self, "state_keys", tuple(self.state_keys))

    @property
    def n_states(self):
        return self.reward.shape[0]

    @property
    def n_actions(self):
        return self.reward.shape[1]


@dataclass(frozen=True)
class ValueTable:
    values: np.ndarray
    state_keys: tuple
    residuals: tuple = field(default=(), compare=False)
    iterations: int = field(default=0, compare=False)

    def as_dict(self):
        return {k: float(v) for k, v in zip(self.state_keys, self.values)}


@dataclass(frozen=True)
class PolicyTable:
    actions: np.ndarray
    state_keys: tuple

    def as_dict(self):
        return {k: int(a) for k, a in zip(self.state_keys, self.actions)}


@dataclass(frozen=True)
class QTable:
    """Action values with -inf at infeasible pairs."""

    q: np.ndarray
    state_keys: tuple

    def as_dict(self):
        return {
            k: [None if not np.isfinite(v) else float(v) for v in row]
            for k, row in zip(self.state_keys, self.q)
        }


def _masked_q(mdp, v):
    q = mdp.reward + mdp.discount * (mdp.transition @ v).reshape(mdp.n_actions, -1).T
    return np.where(mdp.feasible, q, -np.inf)


def q_table(mdp, values):
    return QTable(q=_masked_q(mdp, np.asarray(values.values)), state_keys=mdp.state_keys)


def greedy_policy_from_values(mdp, v):
    # np.argmax picks the first maximizer, i.e. the cheapest action on ties
    return np.argmax(_masked_q(mdp, v), axis=1)


def value_iteration(mdp, eps=1e-8, max_iter=10**6):
    """Classic value iteration to sup-norm residual eps.

    Greedy ties break toward the smallest action index. The residual
    sequence is recorded on the returned ValueTable. Raises NotConverged
    when max_iter sweeps do not reach eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = np.zeros(mdp.n_states)
    residuals = []
    for it in range(1, max_iter + 1):
        q = _masked_q(mdp, v)
        v_new = q.max(axis=1)
        res = float(np.abs(v_new - v).max())
        residuals.append(res)
        v = v_new
        if res <= eps:
            break
    else:
        raise NotConverged(f"value iteration did not reach eps={eps} in {max_iter} sweeps")
    policy = np.argmax(_masked_q(mdp, v), axis=1)
    vt = ValueTable(values=v, state_keys=mdp.state_keys, residuals=tuple(residuals), iterations=it)
    return vt, PolicyTable(actions=policy, state_keys=mdp.state_keys)


def evaluate_policy(mdp, policy):
    """Exact discounted value of a fixed policy by one dense linear solve.

    `policy` is an action index per state; only its rows of the transition
    matrix are made dense.
    """
    if isinstance(policy, PolicyTable):
        policy = policy.actions
    n = mdp.n_states
    idx = np.arange(n)
    p_pi = mdp.transition[np.asarray(policy) * n + idx].toarray()
    r_pi = mdp.reward[idx, policy]
    try:
        return np.linalg.solve(np.eye(n) - mdp.discount * p_pi, r_pi)
    except np.linalg.LinAlgError as ex:
        raise SingularEvaluation(str(ex)) from ex


def policy_iteration(mdp, max_iter=10**4):
    """Howard policy iteration with exact evaluation.

    Starts from the cheapest feasible action in every state; terminates
    when policy improvement leaves the policy unchanged. Raises
    NotConverged when that takes more than max_iter evaluations.
    """
    policy = np.argmax(mdp.feasible, axis=1)
    for it in range(1, max_iter + 1):
        v = evaluate_policy(mdp, policy)
        improved = np.argmax(_masked_q(mdp, v), axis=1)
        if np.array_equal(improved, policy):
            break
        policy = improved
    else:
        raise NotConverged(f"policy iteration still improving after {max_iter} steps")
    vt = ValueTable(values=v, state_keys=mdp.state_keys, iterations=it)
    return vt, PolicyTable(actions=policy, state_keys=mdp.state_keys)


def mms_state_keys(env):
    return tuple(
        f"b={b},h={env.chain.states[h]}"
        for b in range(env.battery.b_max + 1)
        for h in range(env.chain.n)
    )


def build_mms_mdp(env, rho, gamma=None):
    """One-shot model-selection MDP over (b, h).

    Action k runs mode k for the whole epoch; reward is its average
    accuracy rho[k]; feasible iff its full cost fits the battery.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (env.n_modes,):
        raise ValueError("rho length must match the number of modes")
    gamma = env.epoch.discount_epoch if gamma is None else float(gamma)
    n_s = env.n_states
    n_a = env.n_modes
    transition = sp.vstack([sp.csr_array(env.epoch_kernel(a)) for a in range(n_a)])
    reward = np.tile(rho, (n_s, 1))
    feasible = env.affordable(np.arange(n_s) // env.n_h)
    return FiniteMdp(transition, reward, feasible, gamma, mms_state_keys(env))


def inc_state_index(env, b, h, xi, tau):
    k, t = env.n_modes, env.epoch.T
    return ((b * env.chain.n + h) * k + xi) * t + tau


def inc_state_keys(env):
    k, t = env.n_modes, env.epoch.T
    return tuple(
        f"b={b},h={env.chain.states[h]},xi={xi},tau={tau}"
        for b in range(env.battery.b_max + 1)
        for h in range(env.chain.n)
        for xi in range(k)
        for tau in range(t)
    )


def build_inc_iag_mdp(env, rho, gamma_slot=None):
    """Incremental confidence-blind MDP over (b, h, xi, tau).

    Sub-action 1 advances one mode at the incremental cost
    cost[xi+1] - cost[xi]; sub-action 0 idles. Leaving the final slot
    (tau = T-1) pays rho[xi + alpha] and resets xi and tau to 0, so the
    epoch return shows up gamma_slot**(T-1) later than in the one-shot
    model.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (env.n_modes,):
        raise ValueError("rho length must match the number of modes")
    gamma_slot = env.epoch.discount_slot if gamma_slot is None else float(gamma_slot)
    k, t, n_h = env.n_modes, env.epoch.T, env.chain.n
    n_bh = (env.battery.b_max + 1) * n_h
    n_s = n_bh * k * t
    reward = np.zeros((n_s, 2))
    feasible = np.zeros((n_s, 2), dtype=bool)
    bh_rows = np.arange(n_bh)
    b_of = np.repeat(np.arange(env.battery.b_max + 1), n_h * k * t)
    xi_of = np.tile(np.repeat(np.arange(k), t), n_bh)
    feasible[:, 0] = True
    feasible[:, 1] = env.can_proceed(b_of, xi_of)
    # infeasible proceed rows are valid dummies: a single 1 on the diagonal
    is_dummy = ~feasible[:, 1]
    dummy = np.nonzero(is_dummy)[0]
    triplets = [(n_s + dummy, dummy, np.ones(len(dummy)))]

    def block(xi, tau):
        return (bh_rows * k + xi) * t + tau

    for xi in range(k):
        for tau in range(t):
            rows = block(xi, tau)
            for alpha in (0, 1):
                if alpha == 1 and xi == k - 1:
                    continue    # already at the deepest mode
                cost = env.battery.cost[xi + alpha] - env.battery.cost[xi]
                slot = env.slot_kernel(cost)
                if tau < t - 1:
                    cols = block(xi + alpha, tau + 1)
                else:
                    cols = block(0, 0)
                    reward[rows, alpha] = rho[xi + alpha]
                i, j = np.nonzero(slot)
                keep = (alpha == 0) | ~is_dummy[rows[i]]
                triplets.append((alpha * n_s + rows[i][keep], cols[j][keep], slot[i, j][keep]))
    r, c, p = (np.concatenate(x) for x in zip(*triplets))
    transition = sp.coo_array((p, (r, c)), shape=(2 * n_s, n_s))
    return FiniteMdp(transition, reward, feasible, gamma_slot, inc_state_keys(env))


def check_monotone(policy, env):
    """Mode index nondecreasing in battery for each environment state.

    Returns (ok, first_violation) with the violation as (h label, b) where
    the policy at b+1 drops below the policy at b.
    """
    for h in range(env.chain.n):
        for b in range(env.battery.b_max):
            lo = policy.actions[env.state_index(b, h)]
            hi = policy.actions[env.state_index(b + 1, h)]
            if hi < lo:
                return False, (env.chain.states[h], b)
    return True, None


def check_superadditive(qtab, env, tol=1e-9):
    """Nondecreasing differences of q in (b, a), per environment state.

    Checks q(b2,a2) - q(b2,a1) >= q(b1,a2) - q(b1,a1) for b1 <= b2 and
    a1 <= a2 both feasible at b1 (costs are nondecreasing, so both stay
    feasible at b2). Returns (ok, worst_deficit).
    """
    worst = 0.0
    b_max = env.battery.b_max
    for h in range(env.chain.n):
        q_bh = np.array([qtab.q[env.state_index(b, h)] for b in range(b_max + 1)])
        for b1 in range(b_max + 1):
            acts = np.flatnonzero(env.affordable(b1))
            for i, a1 in enumerate(acts):
                for a2 in acts[i + 1:]:
                    d1 = q_bh[b1, a2] - q_bh[b1, a1]
                    d2 = q_bh[b1:, a2] - q_bh[b1:, a1]
                    worst = max(worst, float((d1 - d2).max()))
    return worst <= tol, worst


def dominance_margin(env, rho, eps=1e-9):
    """Worst-case incremental-minus-one-shot value gap at epoch starts.

    Solves both confidence-blind models and returns
    min over (b,h) of V_inc(b,h,0,0) - gamma_slot**(T-1) * V_mms(b,h);
    a nonnegative result (up to solver tolerance) means the incremental
    controller can do everything the one-shot one can.
    """
    v_mms, _ = value_iteration(build_mms_mdp(env, rho), eps=eps)
    v_inc, _ = value_iteration(build_inc_iag_mdp(env, rho), eps=eps)
    return epoch_start_margin(env, v_inc, v_mms)


def epoch_start_margin(env, v_inc, v_mms):
    """min over (b,h) of V_inc(b,h,0,0) - gamma_slot**(T-1) * V_mms(b,h).

    v_inc and v_mms are the ValueTables of the incremental and one-shot
    confidence-blind models of env.
    """
    scale = env.epoch.discount_slot ** (env.epoch.T - 1)
    # (b, h) epoch starts in state order: every (n_modes * T)-th incremental state
    v_start = v_inc.values[::env.n_modes * env.epoch.T]
    return float((v_start - scale * v_mms.values).min())


def save_policy(policy, path, meta=None):
    """Policy JSON: metadata plus a state-key -> action-index mapping."""
    payload = {"meta": dict(meta or {}), "policy": policy.as_dict()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=False)
        fh.write("\n")


def load_policy(path):
    with open(path) as fh:
        payload = json.load(fh)
    mapping = payload["policy"]
    keys = tuple(mapping.keys())
    actions = np.array([int(mapping[key]) for key in keys], dtype=np.int64)
    return PolicyTable(actions=actions, state_keys=keys), payload.get("meta", {})


def save_values(values, path, meta=None):
    """Value JSON: metadata plus a state-key -> value mapping."""
    payload = {"meta": dict(meta or {}), "values": values.as_dict()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=False)
        fh.write("\n")


def load_values(path):
    with open(path) as fh:
        payload = json.load(fh)
    mapping = payload["values"]
    keys = tuple(mapping.keys())
    vals = np.array([float(mapping[key]) for key in keys])
    return ValueTable(values=vals, state_keys=keys), payload.get("meta", {})
