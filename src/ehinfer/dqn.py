"""From-scratch deep Q-learning for the confidence-aware controllers.

A small fully connected network (two rectifier hidden layers of 64 units)
learns either the incremental per-slot pause/proceed choice from
(b, h, xi, tau, current-exit confidence), or the one-shot mode choice from
(b, h, full confidence vector). Replay buffer, target network, epsilon-
greedy exploration, and the adaptive-moment optimizer are implemented
directly on numpy arrays so gradients can be checked against finite
differences. Training evaluates the greedy network as a harness controller
through `harness.simulate`, the same rollout every controller runs on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .env import stationary_distribution


class DimensionMismatch(ValueError):
    """Input vector length does not match the network's first layer."""


@dataclass
class QNetwork:
    """Fully connected rectifier network; weights[i] maps layer i to i+1."""

    sizes: tuple
    weights: list
    biases: list

    @classmethod
    def create(cls, rng, input_dim, n_actions, hidden=(64, 64)):
        sizes = (input_dim, *hidden, n_actions)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            biases.append(np.zeros(fan_out))
        return cls(sizes=sizes, weights=weights, biases=biases)

    def copy(self):
        return QNetwork(
            sizes=self.sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def parameters(self):
        return self.weights + self.biases


def forward(net, x):
    """Q-values for a single encoded state (d,) or a batch (B, d)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.sizes[0]:
        raise DimensionMismatch(f"expected input dim {net.sizes[0]}, got {x.shape[-1]}")
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def _forward_cached(net, x):
    acts = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
        acts.append(a)
    return acts


def mac_count(net):
    """Multiply-accumulates of one forward pass."""
    return int(sum(w.shape[0] * w.shape[1] for w in net.weights))


def encode_inc(env, b, h, xi, tau, z):
    """Incremental-mode input: one-hot b, one-hot h, one-hot xi, tau, z.

    The battery level is one-hot so the first layer width tracks b_max,
    matching the reference forward cost of about 6.6k multiply-adds at
    b_max=30; scalar b/b_max would undershoot that budget by a third.
    Scalars give one (d,) vector; b, h, xi, z of shape (E,) a batch (E, d).
    """
    n_b, n_h = env.battery.b_max + 1, env.chain.n
    vec, rows = _zero_inputs(b, inc_input_dim(env))
    vec[rows, b] = 1.0
    vec[rows, n_b + h] = 1.0
    vec[rows, n_b + n_h + xi] = 1.0
    vec[rows, -2] = tau / (env.epoch.T - 1) if env.epoch.T > 1 else 0.0
    vec[rows, -1] = z
    return vec


def encode_os(env, b, h, z_vec):
    """One-shot-mode input: one-hot b, one-hot h, full confidence vector.

    Scalar b, h give one (d,) vector; b, h of shape (E,) with z_vec (E, K)
    a batch (E, d).
    """
    n_b = env.battery.b_max + 1
    vec, rows = _zero_inputs(b, os_input_dim(env))
    vec[rows, b] = 1.0
    vec[rows, n_b + h] = 1.0
    vec[rows, n_b + env.chain.n:] = z_vec
    return vec


def _zero_inputs(b, dim):
    """Zero encodings shaped like b, plus the row index that pairs with b."""
    if np.ndim(b) == 0:
        return np.zeros(dim), ...
    return np.zeros((len(b), dim)), np.arange(len(b))


def inc_input_dim(env):
    return env.battery.b_max + 1 + env.chain.n + env.n_modes + 2


def os_input_dim(env):
    return env.battery.b_max + 1 + env.chain.n + env.n_modes


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling."""

    def __init__(self, capacity, state_dim, n_actions):
        self.capacity = capacity
        self.x = np.zeros((capacity, state_dim))
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity)
        self.x2 = np.zeros((capacity, state_dim))
        self.feasible2 = np.zeros((capacity, n_actions), dtype=bool)
        self.terminal = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._head = 0

    def push(self, x, action, reward, x2, feasible2, terminal):
        i = self._head
        self.x[i] = x
        self.action[i] = action
        self.reward[i] = reward
        self.x2[i] = x2
        self.feasible2[i] = feasible2
        self.terminal[i] = terminal
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, batch_size):
        idx = rng.integers(self.size, size=batch_size)
        return (
            self.x[idx],
            self.action[idx],
            self.reward[idx],
            self.x2[idx],
            self.feasible2[idx],
            self.terminal[idx],
        )


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def td_loss_and_grads(net, target_net, batch, gamma):
    """Mean squared TD error and gradients w.r.t. every parameter.

    Targets use the lagged network with infeasible next actions masked out;
    terminal transitions bootstrap nothing.
    """
    x, action, reward, x2, feasible2, terminal = batch
    n = len(action)
    q2 = forward(target_net, x2)
    q2 = np.where(feasible2, q2, -np.inf)
    target = reward + np.where(terminal, 0.0, gamma * q2.max(axis=1))
    acts = _forward_cached(net, x)
    q = acts[-1]
    picked = q[np.arange(n), action]
    err = picked - target
    loss = float(np.mean(err**2))

    d_out = np.zeros_like(q)
    d_out[np.arange(n), action] = 2.0 * err / n
    grads_w, grads_b = [], []
    delta = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        a_prev = acts[i]
        grads_w.append(a_prev.T @ delta)
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0)
    grads_w.reverse()
    grads_b.reverse()
    return loss, grads_w + grads_b


def grad_step(net, target_net, batch, optimizer, gamma):
    loss, grads = td_loss_and_grads(net, target_net, batch, gamma)
    optimizer.step(net.parameters(), grads)
    return loss


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "incremental"          # or "oneshot"
    lr: float = 1e-4
    batch_size: int = 32
    buffer_capacity: int = 10**5
    target_sync: int = 1000
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 50_000
    total_steps: int = 300_000
    warmup: int = 1000
    train_every: int = 1
    eval_every: int = 10_000
    eval_epochs: int = 500
    gamma: float | None = None         # default: slot/epoch discount per mode
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("incremental", "oneshot"):
            raise ValueError("mode must be 'incremental' or 'oneshot'")
        for name in ("lr", "batch_size", "buffer_capacity", "target_sync",
                     "eps_decay_steps", "total_steps", "train_every", "eval_every",
                     "eval_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be nonnegative")
        if not (0 <= self.eps_end <= self.eps_start <= 1):
            raise ValueError("need 0 <= eps_end <= eps_start <= 1")


def _epsilon(cfg, step):
    frac = min(1.0, step / cfg.eps_decay_steps)
    return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)


def _inc_feasible(env, b, xi):
    """Feasible (pause, proceed) pair, as (2,) for scalars or (E, 2)."""
    can = env.can_proceed(b, xi)
    feasible = np.ones(np.shape(can) + (2,), dtype=bool)
    feasible[..., 1] = can
    return feasible


def greedy_action(net, x, feasible):
    """Best feasible action for one encoded state (d,) or for each row of (E, d)."""
    q = np.where(feasible, forward(net, x), -np.inf)
    return np.argmax(q, axis=-1)


def _slot(env, rng, b, h, consumption):
    """One sampled slot from a single state; draws u_h, then u_e."""
    u_h = rng.random()
    b, h, _ = env.slot_step(b, h, consumption, u_h, rng.random())
    return b, h


def train(env, dataset, cfg):
    """Deep Q-learning against the sampled environment and dataset.

    Incremental mode steps once per slot with reward equal to the reached
    mode's confidence at the last slot of each epoch; one-shot mode steps
    once per epoch with reward equal to the chosen mode's confidence.
    Both are continuing tasks (the battery carries across epochs), so no
    transition is terminal. Returns the trained network and a learning
    curve of (env step, greedy accuracy, mean recent loss) rows; each
    greedy accuracy is one `harness.simulate` episode of cfg.eval_epochs
    epochs, seeded from the training seed and the step.
    """
    if dataset.n_exits != env.n_modes:
        raise ValueError("dataset exit count must match environment modes")
    rng = np.random.default_rng(cfg.seed)
    eval_seed = int(rng.integers(2**31))
    inc = cfg.mode == "incremental"
    dim = inc_input_dim(env) if inc else os_input_dim(env)
    n_actions = 2 if inc else env.n_modes
    gamma = cfg.gamma
    if gamma is None:
        gamma = env.epoch.discount_slot if inc else env.epoch.discount_epoch
    net = QNetwork.create(rng, dim, n_actions)
    target = net.copy()
    buf = ReplayBuffer(cfg.buffer_capacity, dim, n_actions)
    opt = Adam(net.parameters(), lr=cfg.lr)
    pi0 = stationary_distribution(env.chain)

    b = env.battery.b_max
    h = int(np.searchsorted(np.cumsum(pi0), rng.random()))
    t = env.epoch.T
    k = env.n_modes
    rec = dataset.record(int(rng.integers(len(dataset))))
    xi, tau = 0, 0
    curve = []
    recent_losses = []
    grad_steps = 0
    for step in range(1, cfg.total_steps + 1):
        eps = _epsilon(cfg, step)
        if inc:
            feas = _inc_feasible(env, b, xi)
            x = encode_inc(env, b, h, xi, tau, rec.z[xi])
            if rng.random() < eps:
                alpha = int(rng.integers(2)) if feas[1] else 0
            else:
                alpha = greedy_action(net, x, feas)
            cost = env.battery.cost[xi + alpha] - env.battery.cost[xi]
            b2, h2 = _slot(env, rng, b, h, cost)
            if tau == t - 1:
                reward = float(rec.z[xi + alpha])
                rec = dataset.record(int(rng.integers(len(dataset))))
                xi2, tau2 = 0, 0
            else:
                reward = 0.0
                xi2, tau2 = xi + alpha, tau + 1
            # continuing task: epoch ends reset (xi, tau) but the battery
            # carries over, so bootstrapping must cross the epoch boundary
            x2 = encode_inc(env, b2, h2, xi2, tau2, rec.z[xi2])
            buf.push(x, alpha, reward, x2, _inc_feasible(env, b2, xi2), False)
            b, h, xi, tau = b2, h2, xi2, tau2
        else:
            feas = env.affordable(b)
            x = encode_os(env, b, h, rec.z)
            if rng.random() < eps:
                choices = np.flatnonzero(feas)
                a = int(choices[rng.integers(len(choices))])
            else:
                a = greedy_action(net, x, feas)
            reward = float(rec.z[a])
            b2, h2 = _slot(env, rng, b, h, env.battery.cost[a])
            for _ in range(t - 1):
                b2, h2 = _slot(env, rng, b2, h2, 0)
            rec = dataset.record(int(rng.integers(len(dataset))))
            x2 = encode_os(env, b2, h2, rec.z)
            buf.push(x, a, reward, x2, env.affordable(b2), False)
            b, h = b2, h2

        if buf.size >= max(cfg.warmup, cfg.batch_size) and step % cfg.train_every == 0:
            batch = buf.sample(rng, cfg.batch_size)
            loss = grad_step(net, target, batch, opt, gamma)
            recent_losses.append(loss)
            grad_steps += 1
            if grad_steps % cfg.target_sync == 0:
                target = net.copy()

        if step % cfg.eval_every == 0 or step == cfg.total_steps:
            from . import harness       # harness imports this module
            controller = harness.IncDqnController if inc else harness.OsDqnController
            acc = harness.simulate(controller(net, env), env, dataset, 1, cfg.eval_epochs,
                                   eval_seed + step)[0].accuracy
            mean_loss = float(np.mean(recent_losses)) if recent_losses else float("nan")
            curve.append((step, acc, mean_loss))
            recent_losses = []
    return net, curve


def save_checkpoint(net, path, meta=None):
    """Checkpoint JSON: layer sizes plus row-major weight and bias arrays."""
    payload = {
        "meta": dict(meta or {}),
        "sizes": list(net.sizes),
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path):
    with open(path) as fh:
        payload = json.load(fh)
    sizes = tuple(payload["sizes"])
    weights = [
        np.asarray(w, dtype=float).reshape(fan_in, fan_out)
        for w, fan_in, fan_out in zip(payload["weights"], sizes, sizes[1:])
    ]
    biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
    return QNetwork(sizes=sizes, weights=weights, biases=biases), payload.get("meta", {})


def save_curve(curve, path, meta=None):
    """Learning curve CSV: step, eval accuracy, loss."""
    with open(path, "w") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("step,eval_accuracy,loss\n")
        for step, acc, loss in curve:
            fh.write(f"{step},{acc:.10g},{loss:.10g}\n")
