"""One-shot instance-aware planner over (battery, environment, confidence).

The value function is piecewise linear in the confidence vector: picking
mode a earns z^(a) now plus a continuation that depends only on (b, h).
Confidence space is partitioned into polyhedral decision regions
Z_j = {z : M_j z >= F_j delta}, where delta collects the continuation
gaps of each mode against mode 0. The mean value v_bar over the
confidence distribution is the fixed point of an empirical Bellman
operator averaged over a dataset of confidence draws. Fixing every
record's decision region makes that operator affine, so v_bar is found
by Howard policy iteration over per-record choices; plain iteration of
the operator (`approx_operator`) is the slow reference. Every score is a
record's confidences plus one masked table: the continuation per (state,
mode), -inf where the battery cannot pay for the mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .env import check_positive, json_number, read_artifact, write_json
from .mdp import NotConverged, action_max, by_key, greedy, solve_affine_value, state_keys

# records scored together by the policy-improvement step and the oracle exit
# counts, so no (D, S, K) score tensor is held however large the dataset is
RECORD_BLOCK = 256


@dataclass(frozen=True)
class PartitionMatrices:
    """Decision-region inequalities M_j z >= F_j delta for each mode j.

    M_j is a negative identity on the other modes with a ones column
    spliced in at position j; row r of M_j and F_j compares mode j with
    the r-th other mode in ascending order. delta coordinates are the
    continuation gaps (delta_01, ..., delta_0,K-1).
    """

    n_modes: int
    m: tuple
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(_as_readonly_int(a) for a in self.m))
        object.__setattr__(self, "f", tuple(_as_readonly_int(a) for a in self.f))


def _as_readonly_int(a):
    arr = np.ascontiguousarray(a, dtype=int)
    arr.setflags(write=False)
    return arr


def build_partition_matrices(K):
    if K < 2:
        raise ValueError("need at least two modes")
    ms, fs = [], []
    for j in range(K):
        others = [i for i in range(K) if i != j]
        m = np.zeros((K - 1, K), dtype=int)
        f = np.zeros((K - 1, K - 1), dtype=int)
        for r, i in enumerate(others):
            m[r, j] = 1
            m[r, i] = -1
            # threshold for z_j - z_i is delta_0j - delta_0i (delta_00 = 0)
            if j >= 1:
                f[r, j - 1] = 1
            if i >= 1:
                f[r, i - 1] = -1
        ms.append(m)
        fs.append(f)
    return PartitionMatrices(n_modes=K, m=tuple(ms), f=tuple(fs))


def dataset_fingerprint(dataset):
    digest = hashlib.sha256()
    digest.update(dataset.z.tobytes())
    digest.update(dataset.correct.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class OracleSolution:
    """Converged mean value function and derived decision geometry."""

    env: object
    gamma: float
    v_bar: np.ndarray                 # (S,) mean value per (b,h)
    continuation: np.ndarray          # (A, S) discounted expected next value
    delta: np.ndarray                 # (S, K-1) gaps vs mode 0
    masked: np.ndarray                # (S, K) continuation, -inf where b cannot pay
    residuals: tuple = field(compare=False)   # Bellman residual after each evaluation
    dataset_fp: str = ""

    def delta_of(self, b, h):
        return self.delta[self.env.state_index(b, h)]


def record_blocks(n):
    """Slices covering n records in order, RECORD_BLOCK records each."""
    return [slice(i, i + RECORD_BLOCK) for i in range(0, n, RECORD_BLOCK)]


def _kernels(env):
    return np.stack([env.epoch_kernel(a) for a in range(env.n_modes)])     # (A, S, S)


def _continuation(env, gamma, v_bar):
    return gamma * (_kernels(env) @ v_bar)


def _masked(env, continuation):
    """continuation (A, S) as a (state, mode) table, -inf where the battery cannot pay."""
    return np.where(env.affordable(env.state_coords()[0]), continuation.T, -np.inf)


def approx_operator(v_bar, dataset, env, gamma):
    """Empirical Bellman update averaged over the confidence dataset.

    (Tv)(s) = mean over records of max over feasible a of
    z^(a) + gamma * P_a(s) . v_bar. The per-record max is the exact
    evaluation of the region-indicator form: each record contributes the
    affine piece of the region it falls in.
    """
    env.check_exits(dataset.n_exits)
    scores = dataset.z[:, None, :] + _masked(env, _continuation(env, gamma, v_bar))
    return action_max(scores).mean(axis=0)      # scores: (D, S, K)


def solve_oracle(env, dataset, gamma=None, eps=1e-6, max_iter=10**5):
    """Mean value v_bar of the empirical operator by Howard policy iteration.

    A policy fixes the mode of every record d at every (b, h): a (D, S)
    array of choices a_d(s). The operator restricted to it is affine, so
    its value is one dense solve of (I - gamma P_pi) v = r_pi, with
    r_pi(s) = mean_d z_d[a_d(s)] and P_pi(s) = sum_a freq(a|s) P_a(s).
    Improvement is `mdp.greedy` of the oracle_choice scores at the latest
    v with each record's current choice, the tie rule of the table
    solvers (Puterman 1994, sec. 6.4). The first policy
    improves mode 0 everywhere at v = 0: the masked argmax of z. Each later
    improvement also yields Tv of approx_operator from the same scores; the
    Bellman residual sup|Tv - v| is recorded in residuals, and the solve
    stops once it is <= eps, or when improvement changes no choice. Raises
    NotConverged after max_iter evaluations.
    """
    check_positive("eps", eps)
    env.check_exits(dataset.n_exits)
    gamma = env.epoch.discount_epoch if gamma is None else float(gamma)
    choices = np.zeros((len(dataset), env.n_states), dtype=np.min_scalar_type(env.n_modes - 1))
    masked = _masked(env, np.zeros((env.n_modes, env.n_states)))
    reward, freq, *_ = _improve(dataset.z, masked, choices)
    residuals = []
    for _ in range(max_iter):
        v = solve_affine_value(np.einsum("as,ast->st", freq, _kernels(env)), reward, gamma)
        masked = _masked(env, _continuation(env, gamma, v))
        reward, freq, changed, tv = _improve(dataset.z, masked, choices)
        residuals.append(float(np.abs(tv - v).max()))
        if residuals[-1] <= eps or not changed:
            break
    else:
        raise NotConverged(f"oracle policy iteration did not reach eps={eps} "
                           f"in {max_iter} evaluations")
    return _solution(env, gamma, v, tuple(residuals), dataset_fingerprint(dataset))


def _improve(z, masked, choices):
    """Improve the choices (D, S) of the records z (D, K) against the masked continuation (S, K).

    Works one block of records at a time and writes in place: each choice
    becomes `greedy` of its scores z + masked with the current choice.
    Returns r_pi (S,), freq(a|s) (A, S), the number of changed choices and
    (Tv)(s), the mean over records of each record's best score.
    """
    n_s, k = masked.shape
    cells = k * np.arange(n_s)
    reward = np.zeros(n_s)
    counts = np.zeros(n_s * k, dtype=np.int64)
    changed = 0
    top = np.empty((len(z), n_s))
    for blk in record_blocks(len(z)):
        scores = np.empty((len(z[blk]), n_s, k))
        # one add per mode: a broadcast add over the few modes is about 2x slower
        for a in range(k):
            np.add(z[blk, a, None], masked[:, a], out=scores[..., a])
        top[blk] = action_max(scores)
        best = greedy(scores, choices[blk], top[blk])
        changed += np.count_nonzero(best != choices[blk])
        choices[blk] = best
        reward += np.take_along_axis(z[blk], best, axis=1).sum(axis=0)
        counts += np.bincount((cells + best).ravel(), minlength=n_s * k)
    return reward / len(z), counts.reshape(n_s, k).T / len(z), changed, top.mean(axis=0)


def _solution(env, gamma, v_bar, residuals, dataset_fp):
    """OracleSolution with the continuation, delta and masked table implied by v_bar."""
    cont = _continuation(env, gamma, v_bar)
    # delta_0i(s) = gamma * (P_0(s) - P_i(s)) . v_bar = cont_0 - cont_i
    delta = np.ascontiguousarray((cont[0][None, :] - cont[1:]).T)
    masked = _masked(env, cont)
    for arr in (v_bar, cont, delta, masked):
        arr.setflags(write=False)
    return OracleSolution(env, gamma, v_bar, cont, delta, masked, residuals, dataset_fp)


def oracle_choice(solution, b, h, z):
    """Mode maximising z^(a) plus the continuation of (b, h), among affordable a.

    Ties go to the cheaper mode. b and h broadcast together, and z has one
    trailing axis of K finite confidences that broadcasts against them.
    """
    env = solution.env
    env.check_exits(np.shape(z)[-1])
    return (z + solution.masked[env.state_index(b, h)]).argmax(axis=-1)


def region_of(z, b, h, solution):
    """Mode whose decision region contains z at epoch-start state (b, h).

    Computed as the feasible argmax of z^(a) plus the discounted
    continuation, ties toward the smaller mode; equivalent to testing the
    region inequalities restricted to feasible modes.
    """
    return int(oracle_choice(solution, b, h, np.asarray(z, dtype=float)))


def save_solution(solution, path, meta=None):
    """Write solution to path; it must be solved at its env's gamma, as load_solution reads it."""
    _check_gamma(solution.gamma, solution.env)
    keys = state_keys(solution.env, incremental=False)
    payload = {
        "meta": dict(meta or {}),
        "gamma": solution.gamma,
        "env_fingerprint": solution.env.fingerprint(),
        "dataset_fingerprint": solution.dataset_fp,
        "v_bar": {k: float(v) for k, v in zip(keys, solution.v_bar)},
        "delta": {k: [float(x) for x in row] for k, row in zip(keys, solution.delta)},
    }
    write_json(path, payload, indent=1)


def load_solution(path, env):
    """OracleSolution of a save_solution file for env, whose gamma it must store."""
    payload, _ = read_artifact(path, env)
    _check_gamma(json_number("gamma", payload["gamma"]), env)
    v = np.array([json_number("each v_bar entry", x)
                  for x in by_key(payload["v_bar"], env, False, "v_bar")], dtype=float)
    return _solution(env, env.epoch.discount_epoch, v, (), payload.get("dataset_fingerprint", ""))


def _check_gamma(gamma, env):
    own = env.epoch.discount_epoch
    if gamma != own:
        raise ValueError(f"solved for gamma {gamma}, not the environment's {own}")
