"""Finite MDPs, exact solvers, and the confidence-blind controller models.

Two planning problems are built here. The one-shot model-selection MDP has
state (b, h) and picks a whole computing mode per epoch, earning that
mode's average accuracy. The incremental MDP has state (b, h, xi, tau) and
decides pause/proceed each slot, earning the accuracy of the reached mode
at the last slot of the epoch. Both are confidence-blind: rewards are
average accuracies, not per-instance confidences.

Solved tables are plain arrays in state-index order: values (S,), action
values (S, A) and policies (S,) of action indices. States are named only
in artifact files, by the keys of `state_keys`; `by_key` reads each
stored value back by its key.

A model's transition matrix is a `_sparse.TransitionMatrix`, a CSR array.
scipy.sparse is imported by the code that builds one (`FiniteMdp` and the
two builders), not by this module, so a command that builds no model never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .env import check_positive, read_artifact, write_json

if TYPE_CHECKING:
    from ._sparse import TransitionMatrix


class SingularEvaluation(RuntimeError):
    """Policy evaluation linear system could not be solved."""


class NotConverged(RuntimeError):
    """An iterative solver used up max_iter before reaching its tolerance."""


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

    def __post_init__(self):
        # here and in the builders, not at the top: see the module docstring
        import scipy.sparse as sp
        from ._sparse import TransitionMatrix

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
        # written as not-all-in-range, so NaN rewards, which compare False, fail too
        if not np.all((r[f] >= 0) & (r[f] <= 1)):
            raise ValueError("feasible rewards must lie in [0, 1]")
        for arr in (t.data, t.indices, t.indptr, r, f):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "feasible", f)

    @property
    def n_states(self):
        return self.reward.shape[0]

    @property
    def n_actions(self):
        return self.reward.shape[1]


@dataclass(frozen=True)
class ValueTable:
    values: np.ndarray
    residuals: tuple = field(default=(), compare=False)
    iterations: int = field(default=0, compare=False)


def _masked_q(mdp, v):
    q = mdp.reward + mdp.discount * (mdp.transition @ v).reshape(mdp.n_actions, -1).T
    return np.where(mdp.feasible, q, -np.inf)


def q_table(mdp, values):
    """Action values (S, A) of a ValueTable, with -inf at infeasible pairs."""
    return _masked_q(mdp, np.asarray(values.values))


def action_max(q):
    """q.max(axis=-1) as a running maximum, several times faster on a short action axis."""
    top = np.maximum(q[..., 0], q[..., -1])
    for a in range(1, q.shape[-1] - 1):
        np.maximum(top, q[..., a], out=top)
    return top


# Qs this close to the max tie; float noise between tied actions is far smaller
TIE_TOL = 1e-12


def greedy(q, current=None, top=None):
    """The one tie rule of every solver: an action index along q's last axis.

    Keeps `current` (q without its last axis) where its Q is within TIE_TOL
    of the max (Howard's rule, Puterman 1994, sec. 6.4: policy iteration
    cannot cycle on float ties), else takes the cheapest action that is.
    `top` is action_max(q) when the caller has it already.
    """
    bar = (action_max(q) if top is None else top) - TIE_TOL
    best = (q >= bar[..., None]).argmax(axis=-1)
    if current is not None:
        held = np.take_along_axis(q, current[..., None], axis=-1)[..., 0]
        np.copyto(best, current, where=held >= bar)
    return best


def fixed_point(operator, n, eps, max_iter, what):
    """Iterate v <- operator(v) from zeros(n) until the sup-norm residual is <= eps.

    Returns (v, residuals), one residual per sweep. Raises NotConverged
    naming `what` when max_iter sweeps do not reach eps.
    """
    check_positive("eps", eps)
    v = np.zeros(n)
    residuals = []
    for _ in range(max_iter):
        v_new = operator(v)
        residuals.append(float(np.abs(v_new - v).max()))
        v = v_new
        if residuals[-1] <= eps:
            return v, tuple(residuals)
    raise NotConverged(f"{what} did not reach eps={eps} in {max_iter} sweeps")


def value_iteration(mdp, eps=1e-8, max_iter=10**6):
    """Classic value iteration to sup-norm residual eps.

    The policy is `greedy` at the returned values, an action index per
    state. The residual sequence is recorded on the returned ValueTable.
    Raises NotConverged when max_iter sweeps do not reach eps.
    """
    v, residuals = fixed_point(lambda v: action_max(_masked_q(mdp, v)), mdp.n_states,
                               eps, max_iter, "value iteration")
    vt = ValueTable(values=v, residuals=residuals, iterations=len(residuals))
    return vt, greedy(_masked_q(mdp, v))


def evaluate_policy(mdp, policy):
    """Exact discounted value of a fixed policy by one dense linear solve.

    `policy` is an action index per state; only its rows of the transition
    matrix are made dense.
    """
    n = mdp.n_states
    idx = np.arange(n)
    p_pi = mdp.transition[np.asarray(policy) * n + idx].toarray()
    return solve_affine_value(p_pi, mdp.reward[idx, policy], mdp.discount)


def solve_affine_value(p_pi, r_pi, discount):
    """v solving (I - discount * p_pi) v = r_pi by one dense solve.

    p_pi is the (S, S) transition matrix and r_pi the (S,) expected reward
    of a fixed policy. Raises SingularEvaluation when the system is singular.
    """
    try:
        return np.linalg.solve(np.eye(len(r_pi)) - discount * p_pi, r_pi)
    except np.linalg.LinAlgError as ex:
        raise SingularEvaluation(str(ex)) from ex


def policy_iteration(mdp, max_iter=10**4):
    """Howard policy iteration with exact evaluation.

    Starts from the cheapest feasible action in every state; improvement is
    `greedy` with the current policy, until it changes nothing. Returns that
    policy's values and, as value_iteration does, `greedy` at them. Raises
    NotConverged when that takes more than max_iter evaluations.
    """
    policy = np.argmax(mdp.feasible, axis=1)
    for it in range(1, max_iter + 1):
        v = evaluate_policy(mdp, policy)
        q = _masked_q(mdp, v)
        improved = greedy(q, policy)
        if np.array_equal(improved, policy):
            break
        policy = improved
    else:
        raise NotConverged(f"policy iteration still improving after {max_iter} steps")
    return ValueTable(values=v, iterations=it), greedy(q)


def state_keys(env, incremental):
    """Artifact keys of the (b, h) or, if incremental, (b, h, xi, tau) states.

    In state-index order: "b=3,h=G" names (b, h) state env.state_index(3, 0),
    "b=3,h=G,xi=1,tau=2" incremental state inc_state_index(env, 3, 0, 1, 2).
    """
    keys = [f"b={b},h={h}" for b in range(env.battery.b_max + 1) for h in env.chain.states]
    if not incremental:
        return keys
    return [f"{bh},xi={xi},tau={tau}"
            for bh in keys for xi in range(env.n_modes) for tau in range(env.epoch.T)]


def _accuracies(env, rho):
    """rho as one accuracy in [0, 1] per mode of env, else ValueError.

    Checked whole, since FiniteMdp checks only the rewards of feasible
    pairs: a mode that no battery level pays for earns no feasible reward.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (env.n_modes,):
        raise ValueError("rho length must match the number of modes")
    # written as not-all-in-range, so NaN, which compares False, fails too
    if not np.all((rho >= 0) & (rho <= 1)):
        raise ValueError(f"rho must lie in [0, 1], got {rho.tolist()}")
    return rho


def build_mms_mdp(env, rho):
    """One-shot model-selection MDP over (b, h), discounted per epoch.

    Action k runs mode k for the whole epoch; reward is its average
    accuracy rho[k]; feasible iff its full cost fits the battery.
    """
    import scipy.sparse as sp

    rho = _accuracies(env, rho)
    n_s = env.n_states
    n_a = env.n_modes
    transition = sp.vstack([sp.csr_array(env.epoch_kernel(a)) for a in range(n_a)])
    reward = np.tile(rho, (n_s, 1))
    feasible = env.affordable(env.state_coords()[0])
    return FiniteMdp(transition, reward, feasible, env.epoch.discount_epoch)


def inc_state_index(env, b, h, xi, tau):
    """Index of incremental state (b, h, xi, tau); broadcasts over arrays."""
    return (env.state_index(b, h) * env.n_modes + xi) * env.epoch.T + tau


def build_inc_iag_mdp(env, rho):
    """Incremental confidence-blind MDP over (b, h, xi, tau), discounted per slot.

    Sub-action 1 advances one mode at the incremental cost
    cost[xi+1] - cost[xi]; sub-action 0 idles. Leaving the final slot
    (tau = T-1) pays rho[xi + alpha] and resets xi and tau to 0, so the
    epoch return shows up gamma_slot**(T-1) later than in the one-shot
    model.
    """
    import scipy.sparse as sp

    rho = _accuracies(env, rho)
    k, t = env.n_modes, env.epoch.T
    n_s = env.n_states * k * t
    b, h = env.state_coords()
    reward = np.zeros((n_s, 2))
    feasible = np.ones((n_s, 2), dtype=bool)
    triplets = []
    for xi in range(k):
        proceed = env.can_proceed(b, xi)
        for tau in range(t):
            rows = inc_state_index(env, b, h, xi, tau)
            feasible[rows, 1] = proceed
            # infeasible proceed rows are valid dummies: a single 1 on the diagonal
            dummy = rows[~proceed]
            triplets.append((n_s + dummy, dummy, np.ones(len(dummy))))
            for alpha in (0, 1):
                if alpha == 1 and xi == k - 1:
                    continue    # already at the deepest mode
                cost = env.battery.cost[xi + alpha] - env.battery.cost[xi]
                slot = env.slot_kernel(cost)
                if tau < t - 1:
                    cols = inc_state_index(env, b, h, xi + alpha, tau + 1)
                else:
                    cols = inc_state_index(env, b, h, 0, 0)
                    reward[rows, alpha] = rho[xi + alpha]
                i, j = np.nonzero(slot)
                keep = (alpha == 0) | proceed[i]
                triplets.append((alpha * n_s + rows[i][keep], cols[j][keep], slot[i, j][keep]))
    r, c, p = (np.concatenate(x) for x in zip(*triplets))
    transition = sp.coo_array((p, (r, c)), shape=(2 * n_s, n_s))
    return FiniteMdp(transition, reward, feasible, env.epoch.discount_slot)


def check_monotone(policy, env):
    """Mode index nondecreasing in battery for each environment state.

    policy is a (b, h) action table. Returns (ok, first_violation) with the
    violation as (h label, b) where the policy at b+1 drops below the
    policy at b.
    """
    dips = np.diff(np.reshape(policy, (env.battery.b_max + 1, env.n_h)), axis=0) < 0
    h, b = np.nonzero(dips.T)       # ordered by h, then by b
    if len(h):
        return False, (env.chain.states[h[0]], int(b[0]))
    return True, None


def check_superadditive(q, env, tol=1e-9):
    """Nondecreasing differences of q in (b, a), per environment state.

    q is a (b, h) action-value table (S, A). Checks q(b2,a2) - q(b2,a1) >=
    q(b1,a2) - q(b1,a1) for b1 <= b2 and a1 <= a2 both feasible at b1
    (costs are nondecreasing, so both stay feasible at b2). Returns
    (ok, worst_deficit).
    """
    worst = 0.0
    q = np.reshape(q, (env.battery.b_max + 1, env.n_h, env.n_modes))
    for b1 in range(env.battery.b_max + 1):
        acts = np.flatnonzero(env.affordable(b1))
        for i, a1 in enumerate(acts):
            for a2 in acts[i + 1:]:
                d = q[b1:, :, a2] - q[b1:, :, a1]      # (b2 >= b1, h)
                worst = max(worst, float((d[0] - d).max()))
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
    b, h = env.state_coords()
    v_start = v_inc.values[inc_state_index(env, b, h, 0, 0)]
    return float((v_start - scale * v_mms.values).min())


def save_policy(policy, path, env, incremental, meta=None):
    """Policy JSON: metadata stamped with env's fingerprint, plus a state-key -> action mapping.

    The keys are state_keys(env, incremental), in state-index order.
    """
    keys = state_keys(env, incremental)
    if len(policy) != len(keys):
        raise ValueError(f"policy has {len(policy)} states, the environment {len(keys)}")
    payload = {"meta": dict(meta or {}, env_fingerprint=env.fingerprint()),
               "policy": {k: int(a) for k, a in zip(keys, policy)}}
    write_json(path, payload, indent=1)


def by_key(mapping, env, incremental, what):
    """mapping's values in state-index order; ValueError unless its keys are state_keys'."""
    keys = state_keys(env, incremental)
    missing = [k for k in keys if k not in mapping]
    extra = sorted(set(mapping).difference(keys))
    if missing or extra:
        kind = "(b, h, xi, tau)" if incremental else "(b, h)"
        raise ValueError(f"{what} keys are not the {kind} states of this environment: "
                         f"{len(missing)} missing, {len(extra)} unexpected "
                         f"(first {(missing or extra)[0]!r})")
    return [mapping[k] for k in keys]


def load_policy(path, env, incremental):
    """(actions, meta) of a save_policy file for env; each action a JSON integer action index."""
    payload, meta = read_artifact(path, env)
    actions = by_key(payload["policy"], env, incremental, "policy")
    n_actions = 2 if incremental else env.n_modes
    # bool is a subclass of int, so the type is compared exactly
    bad = [i for i, a in enumerate(actions) if type(a) is not int or not 0 <= a < n_actions]
    if bad:
        raise ValueError(f"policy actions must lie in 0..{n_actions - 1} as JSON integers; "
                         f"{state_keys(env, incremental)[bad[0]]!r} holds {actions[bad[0]]!r}")
    return np.array(actions, dtype=np.int64), meta
