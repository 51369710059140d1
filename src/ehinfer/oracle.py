"""One-shot instance-aware planner over (battery, environment, confidence).

The value function is piecewise linear in the confidence vector: picking
mode a earns z^(a) now plus a continuation that depends only on (b, h).
Confidence space is partitioned into polyhedral decision regions
Z_j = {z : M_j z >= F_j delta}, where delta collects the continuation
gaps of each mode against mode 0. The mean value v_bar over the
confidence distribution is found by fixed-point iteration of an
empirical Bellman operator averaged over a dataset of confidence draws.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .confidence import EmptyDataset
from .mdp import fixed_point, state_keys


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
    matrices: PartitionMatrices
    residuals: tuple = field(compare=False)
    dataset_fp: str = ""

    def delta_of(self, b, h):
        return self.delta[self.env.state_index(b, h)]


def _continuation(env, gamma, v_bar):
    kernels = np.stack([env.epoch_kernel(a) for a in range(env.n_modes)])
    return gamma * (kernels @ v_bar)


def approx_operator(v_bar, dataset, env, gamma):
    """Empirical Bellman update averaged over the confidence dataset.

    (Tv)(s) = mean over records of max over feasible a of
    z^(a) + gamma * P_a(s) . v_bar. The per-record max is the exact
    evaluation of the region-indicator form: each record contributes the
    affine piece of the region it falls in.
    """
    if len(dataset) == 0:
        raise EmptyDataset("empirical operator needs at least one record")
    if dataset.n_exits != env.n_modes:
        raise ValueError("dataset exit count must match environment modes")
    cont = _continuation(env, gamma, v_bar)             # (A, S)
    masked = np.where(env.affordable(env.state_coords()[0]).T, cont, -np.inf)
    scores = dataset.z[:, :, None] + masked[None, :, :]  # (D, A, S)
    return scores.max(axis=1).mean(axis=0)


def solve_oracle(env, dataset, gamma=None, eps=1e-6, max_iter=10**5):
    """Iterate the empirical operator from zero until sup-norm residual eps.

    Raises NotConverged when max_iter sweeps do not reach eps.
    """
    gamma = env.epoch.discount_epoch if gamma is None else float(gamma)
    v, residuals = fixed_point(lambda v: approx_operator(v, dataset, env, gamma),
                               env.n_states, eps, max_iter, "operator iteration")
    return _solution(env, gamma, v, residuals, dataset_fingerprint(dataset))


def _solution(env, gamma, v_bar, residuals, dataset_fp):
    """OracleSolution with the continuation and delta implied by v_bar."""
    cont = _continuation(env, gamma, v_bar)
    # delta_0i(s) = gamma * (P_0(s) - P_i(s)) . v_bar = cont_0 - cont_i
    delta = np.ascontiguousarray((cont[0][None, :] - cont[1:]).T)
    for arr in (v_bar, cont, delta):
        arr.setflags(write=False)
    return OracleSolution(
        env=env,
        gamma=gamma,
        v_bar=v_bar,
        continuation=cont,
        delta=delta,
        matrices=build_partition_matrices(env.n_modes),
        residuals=residuals,
        dataset_fp=dataset_fp,
    )


def oracle_choice(solution, b, h, z):
    """Mode maximising z^(a) plus the continuation of (b, h), among affordable a.

    Ties go to the cheaper mode. b and h broadcast together, and z has one
    trailing axis of K confidences that broadcasts against them.
    """
    env = solution.env
    scores = z + solution.continuation.T[env.state_index(b, h)]
    np.copyto(scores, -np.inf, where=~env.affordable(b))
    return scores.argmax(axis=-1)


def region_of(z, b, h, solution):
    """Mode whose decision region contains z at epoch-start state (b, h).

    Computed as the feasible argmax of z^(a) plus the discounted
    continuation, ties toward the smaller mode; equivalent to testing the
    region inequalities restricted to feasible modes.
    """
    return int(oracle_choice(solution, b, h, np.asarray(z, dtype=float)))


def region_inequalities(z, b, h, solution, j):
    """Componentwise M_j z >= F_j delta(s) restricted to feasible rivals."""
    env = solution.env
    z = np.asarray(z, dtype=float)
    delta = solution.delta_of(b, h)
    lhs = solution.matrices.m[j] @ z
    rhs = solution.matrices.f[j] @ delta
    affordable = env.affordable(b)
    others = [i for i in range(env.n_modes) if i != j]
    keep = [r for r, i in enumerate(others) if affordable[i]]
    return lhs[keep] >= rhs[keep] - 1e-12


def save_solution(solution, path, meta=None):
    keys = state_keys(solution.env, incremental=False)
    payload = {
        "meta": dict(meta or {}),
        "gamma": solution.gamma,
        "env_fingerprint": solution.env.fingerprint(),
        "dataset_fingerprint": solution.dataset_fp,
        "v_bar": {k: float(v) for k, v in zip(keys, solution.v_bar)},
        "delta": {k: [float(x) for x in row] for k, row in zip(keys, solution.delta)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_solution(path, env, dataset_fp=""):
    """Rebuild an OracleSolution from its JSON artifact plus the env."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload["env_fingerprint"] != env.fingerprint():
        raise ValueError("environment does not match the stored solution")
    v = np.array([payload["v_bar"][k] for k in state_keys(env, incremental=False)])
    return _solution(env, float(payload["gamma"]), v, (),
                     payload.get("dataset_fingerprint", dataset_fp))
