import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehinfer.confidence import default_spec, generate_synthetic
from ehinfer.dqn import (Adam, DimensionMismatch, QNetwork, ReplayBuffer,
                         TrainConfig, encode_inc, encode_os, forward,
                         grad_step, greedy_action, inc_input_dim, load_checkpoint,
                         os_input_dim, save_checkpoint, save_curve,
                         td_loss_and_grads, train)
from ehinfer.env import two_state_env
from ehinfer.harness import IncDqnController, OsDqnController, simulate


def tiny_net():
    # weights and biases are views into net.flat, so they are written through
    net = QNetwork.create(np.random.default_rng(0), 2, 2, hidden=(3,))
    net.weights[0][:] = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
    net.biases[0][:] = np.array([0.0, -1.0, 0.5])
    net.weights[1][:] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    net.biases[1][:] = np.array([0.1, -0.1])
    return net


# The per-array optimizer and list-allocating backward pass that the flat
# versions replaced, kept as the slow reference they must match bit for bit.
class ReferenceAdam:
    def __init__(self, params, lr):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_forward_cached(net, x):
    acts = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
        acts.append(a)
    return acts


def reference_td_loss_and_grads(net, target_net, batch, gamma):
    x, action, reward, x2, feasible2, terminal = batch
    n = len(action)
    q2 = reference_forward_cached(target_net, x2)[-1]
    q2 = np.where(feasible2, q2, -np.inf)
    target = reward + np.where(terminal, 0.0, gamma * q2.max(axis=1))
    acts = reference_forward_cached(net, x)
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


def separate_arrays(net):
    """A copy of net as independent per-layer arrays, as the reference keeps them."""
    return SimpleNamespace(weights=[w.copy() for w in net.weights],
                           biases=[b.copy() for b in net.biases])


def random_batch(rng, n, d, k):
    """n random transitions with at least one feasible next action each."""
    feasible2 = rng.random((n, k)) < 0.7
    feasible2[np.arange(n), rng.integers(0, k, size=n)] = True
    return (rng.random((n, d)), rng.integers(0, k, size=n), rng.random(n),
            rng.random((n, d)), feasible2, rng.random(n) < 0.2)


class TestForward:
    def test_hand_computed(self):
        # x=[1,2]: pre=[1,1,1.5] (relu passes) -> out=[2.6, 2.4]
        out = forward(tiny_net(), np.array([1.0, 2.0]))
        assert np.allclose(out, [2.6, 2.4], atol=1e-12)

    def test_relu_clips_negatives(self):
        out = forward(tiny_net(), np.array([2.0, 0.0]))
        # pre=[2,-1,-1.5] -> relu [2,0,0] -> [2.1, -0.1]
        assert np.allclose(out, [2.1, -0.1], atol=1e-12)

    def test_batch_matches_stacked_singles(self):
        net = QNetwork.create(np.random.default_rng(1), 7, 3)
        xs = np.random.default_rng(2).random((5, 7))
        batch = forward(net, xs)
        for i in range(5):
            assert np.allclose(batch[i], forward(net, xs[i]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            forward(tiny_net(), np.zeros(3))


class TestEncoding:
    def test_incremental_layout(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=30)
        assert inc_input_dim(env) == 31 + 2 + 4 + 2 == 39
        v = encode_inc(env, b=7, h=1, xi=2, tau=1, z=0.62)
        assert v.shape == (39,)
        assert v[7] == 1.0 and v.sum() == pytest.approx(3 + 0.5 + 0.62)
        assert v[31 + 1] == 1.0
        assert v[31 + 2 + 2] == 1.0
        assert v[-2] == pytest.approx(1 / 2)
        assert v[-1] == pytest.approx(0.62)

    def test_oneshot_layout(self):
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=5)
        assert os_input_dim(env) == 6 + 2 + 4
        z = np.array([0.005, 0.5, 0.7, 0.9])
        v = encode_os(env, b=0, h=0, z_vec=z)
        assert v[0] == 1.0 and v[6] == 1.0
        assert np.array_equal(v[8:], z)


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        net = QNetwork.create(rng, 5, 3, hidden=(8,))
        target = QNetwork.create(rng, 5, 3, hidden=(8,))
        batch = (
            rng.random((4, 5)),
            rng.integers(0, 3, size=4),
            rng.random(4),
            rng.random((4, 5)),
            np.ones((4, 3), dtype=bool),
            np.zeros(4, dtype=bool),
        )
        _, grads = td_loss_and_grads(net, target, batch, 0.9)
        params = net.parameters()
        eps = 1e-6
        worst = 0.0
        check_rng = np.random.default_rng(8)
        for p, g in zip(params, grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for idx in check_rng.integers(0, flat_p.size, size=5):
                orig = flat_p[idx]
                flat_p[idx] = orig + eps
                lp, _ = td_loss_and_grads(net, target, batch, 0.9)
                flat_p[idx] = orig - eps
                lm, _ = td_loss_and_grads(net, target, batch, 0.9)
                flat_p[idx] = orig
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(fd - flat_g[idx]) / max(1.0, abs(fd)))
        assert worst < 1e-6

    def test_infeasible_next_actions_are_masked(self):
        net = QNetwork.create(np.random.default_rng(0), 2, 2, hidden=(3,))
        for w in net.weights:
            w[:] = 0.0
        target = net.copy()
        target.biases[-1][:] = (0.0, 100.0)   # huge value on the masked action
        batch = (np.zeros((1, 2)), np.array([0]), np.array([0.7]),
                 np.zeros((1, 2)), np.array([[True, False]]),
                 np.array([False]))
        loss, _ = td_loss_and_grads(net, target, batch, 0.9)
        # masked target: 0.7 + 0.9 * 0, prediction 0
        assert loss == pytest.approx(0.7**2, abs=1e-12)

    def test_terminal_stops_bootstrap(self):
        net = QNetwork.create(np.random.default_rng(0), 2, 2, hidden=(3,))
        for w in net.weights:
            w[:] = 0.0
        target = net.copy()
        target.biases[-1][:] = 100.0
        batch = (np.zeros((1, 2)), np.array([1]), np.array([0.4]),
                 np.zeros((1, 2)), np.ones((1, 2), dtype=bool),
                 np.array([True]))
        loss, _ = td_loss_and_grads(net, target, batch, 0.9)
        assert loss == pytest.approx(0.4**2, abs=1e-12)

    def test_overfits_a_single_transition(self):
        rng = np.random.default_rng(3)
        net = QNetwork.create(rng, 4, 2, hidden=(16,))
        target = net.copy()
        batch = (rng.random((1, 4)), np.array([1]), np.array([0.55]),
                 rng.random((1, 4)), np.ones((1, 2), dtype=bool),
                 np.array([True]))
        opt = Adam(net.flat, lr=1e-2)
        grads = net.copy()
        for _ in range(500):
            td_loss_and_grads(net, target, batch, 0.9, grads)
            opt.step(net.flat, grads.flat)
        q = forward(net, batch[0][0])
        assert q[1] == pytest.approx(0.55, abs=1e-3)


class TestFlatLayout:
    def test_parameters_are_views_of_flat_in_order(self):
        net = QNetwork.create(np.random.default_rng(3), 4, 2, hidden=(5, 3))
        assert net.flat.shape == (4 * 5 + 5 * 3 + 3 * 2 + 5 + 3 + 2,)
        assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in net.parameters()]))
        for p in net.parameters():
            assert np.shares_memory(p, net.flat) and p.flags.c_contiguous
        net.flat[:] = np.arange(net.flat.size)
        assert net.weights[0][0, 1] == 1.0 and net.biases[0][0] == 4 * 5 + 5 * 3 + 3 * 2

    def test_copy_is_independent(self):
        net = QNetwork.create(np.random.default_rng(3), 4, 2, hidden=(5,))
        twin = net.copy()
        twin.weights[0][:] = 0.0
        assert not np.shares_memory(twin.flat, net.flat)
        assert np.any(net.weights[0] != 0.0)

    @pytest.mark.parametrize("weights,biases", [
        ([np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(1), np.zeros(2)]),       # short bias
        ([np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 2))],
         [np.zeros(3), np.zeros(2)]),                                            # extra weight
        ([np.zeros((3, 2)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)]),       # transposed
        ([np.zeros((2, 3))], [np.zeros(3)]),                                     # missing layer
        ([np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros((1, 2))]),  # 2-D bias
    ])
    def test_construction_checks_shapes(self, weights, biases):
        with pytest.raises(ValueError, match="do not fit sizes"):
            QNetwork((2, 3, 2), weights, biases)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=4),
       n=st.integers(1, 9), gamma=st.floats(0.0, 0.99), lr=st.floats(1e-4, 1e-1),
       seed=st.integers(0, 2**16))
def test_flat_step_matches_reference_bit_for_bit(sizes, n, gamma, lr, seed):
    rng = np.random.default_rng(seed)
    net = QNetwork.create(rng, sizes[0], sizes[-1] + 1, hidden=tuple(sizes[1:-1]))
    target = QNetwork.create(rng, sizes[0], sizes[-1] + 1, hidden=tuple(sizes[1:-1]))
    ref, ref_target = separate_arrays(net), separate_arrays(target)
    opt, grads = Adam(net.flat, lr), net.copy()
    ref_opt = ReferenceAdam(ref.weights + ref.biases, lr)
    for _ in range(4):
        batch = random_batch(rng, n, sizes[0], sizes[-1] + 1)
        ref_loss, ref_grads = reference_td_loss_and_grads(ref, ref_target, batch, gamma)
        loss, flat_grads = td_loss_and_grads(net, target, batch, gamma)
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(flat_grads, ref_grads, strict=True))
        assert grad_step(net, target, batch, opt, gamma, grads) == ref_loss
        ref_opt.step(ref.weights + ref.biases, ref_grads)
        assert all(np.array_equal(p, r) for p, r in
                   zip(net.parameters(), ref.weights + ref.biases, strict=True))
        x = rng.random((n, sizes[0]))
        assert np.array_equal(forward(net, x), reference_forward_cached(ref, x)[-1])


class TestReplay:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(capacity=4, state_dim=1, n_actions=2)
        for i in range(6):
            buf.push([float(i)], 0, 0.0, [0.0], [True, True], False)
        assert buf.size == 4
        assert sorted(buf.x[:, 0].tolist()) == [2.0, 3.0, 4.0, 5.0]

    def test_sampling_is_uniform(self):
        buf = ReplayBuffer(capacity=8, state_dim=1, n_actions=2)
        for i in range(8):
            buf.push([float(i)], 0, 0.0, [0.0], [True, True], False)
        rng = np.random.default_rng(9)
        counts = np.zeros(8)
        for _ in range(1000):
            x, *_ = buf.sample(rng, 8)
            for v in x[:, 0]:
                counts[int(v)] += 1
        expect = 1000.0
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        assert chi2 < 24.3   # df=7 at p=1e-3

    def test_sample_respects_fill_level(self):
        buf = ReplayBuffer(capacity=100, state_dim=1, n_actions=2)
        for i in range(3):
            buf.push([float(i)], 0, 0.0, [0.0], [True, True], False)
        x, *_ = buf.sample(np.random.default_rng(0), 64)
        assert set(x[:, 0].tolist()) <= {0.0, 1.0, 2.0}


class TestAdam:
    def test_constant_gradient_moves_at_learning_rate(self):
        p = np.array([1.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, np.array([0.5]))
        assert p[0] == pytest.approx(0.9, abs=1e-7)
        opt.step(p, np.array([0.5]))
        assert p[0] == pytest.approx(0.8, abs=1e-7)


class TestGreedy:
    def test_masking(self):
        net = tiny_net()
        x = np.array([1.0, 2.0])   # q = [2.6, 2.4]
        assert greedy_action(net, x, np.array([True, True])) == 0
        assert greedy_action(net, x, np.array([False, True])) == 1


@pytest.fixture(scope="module")
def setup():
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=2)
    ds = generate_synthetic(np.random.default_rng(0), default_spec(), 300)
    return env, ds


class TestTraining:
    def smoke_cfg(self, mode, seed=0):
        return TrainConfig(mode=mode, total_steps=400, warmup=32,
                           buffer_capacity=500, eps_decay_steps=200,
                           target_sync=50, eval_every=400, eval_epochs=50,
                           lr=1e-3, seed=seed)

    @pytest.mark.parametrize("mode", ["incremental", "oneshot"])
    def test_deterministic_given_seed(self, setup, mode):
        env, ds = setup
        net1, curve1 = train(env, ds, self.smoke_cfg(mode))
        net2, curve2 = train(env, ds, self.smoke_cfg(mode))
        for w1, w2 in zip(net1.parameters(), net2.parameters()):
            assert np.array_equal(w1, w2)
        assert curve1 == curve2

    # SHA-256 of the trained parameters and the curve, recorded before
    # training moved to the flat parameter vector
    GOLDEN = {
        "incremental": "45965c37ac96e27570258edd809c93d899aebf5791b2e9d8eebcaa4bff1f8c3b",
        "oneshot": "6252df64a9fde890be04a0b102c6dbb442793e76e7d80220e80a9e09b6cd9fd4",
    }

    @pytest.mark.parametrize("mode", ["incremental", "oneshot"])
    def test_seeded_run_matches_golden_hash(self, setup, mode):
        env, ds = setup
        net, curve = train(env, ds, self.smoke_cfg(mode))
        digest = hashlib.sha256()
        for p in net.parameters():
            digest.update(np.ascontiguousarray(p).tobytes())
        digest.update(repr(curve).encode())
        assert digest.hexdigest() == self.GOLDEN[mode]

    def test_seed_changes_run(self, setup):
        env, ds = setup
        net1, _ = train(env, ds, self.smoke_cfg("incremental", seed=0))
        net2, _ = train(env, ds, self.smoke_cfg("incremental", seed=1))
        assert any(not np.array_equal(a, b)
                   for a, b in zip(net1.parameters(), net2.parameters()))

    def test_curve_rows_at_eval_points(self, setup):
        env, ds = setup
        _, curve = train(env, ds, self.smoke_cfg("oneshot"))
        assert [row[0] for row in curve] == [400]
        assert 0.0 <= curve[0][1] <= 1.0

    @pytest.mark.parametrize("mode,controller", [("incremental", IncDqnController),
                                                 ("oneshot", OsDqnController)])
    def test_eval_is_one_simulated_episode(self, setup, mode, controller):
        env, ds = setup
        cfg = self.smoke_cfg(mode)
        net, curve = train(env, ds, cfg)
        eval_seed = int(np.random.default_rng(cfg.seed).integers(2**31))
        (result,) = simulate(controller(net, env), env, ds, 1, cfg.eval_epochs,
                             eval_seed + cfg.total_steps)
        assert curve[-1][1] == result.accuracy

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1e-4)
        with pytest.raises(ValueError):
            TrainConfig(mode="tabular")

    @pytest.mark.parametrize("field,value", [
        ("eval_every", 0), ("eval_epochs", 0), ("warmup", -1)])
    def test_schedule_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        TrainConfig(warmup=0)

    def test_exit_count_checked(self, setup):
        env, _ = setup
        spec = default_spec()
        ds3 = generate_synthetic(
            np.random.default_rng(0),
            type(spec)(accuracies=(0.005, 0.5, 0.8), n_classes=200), 100)
        with pytest.raises(ValueError):
            train(env, ds3, self.smoke_cfg("incremental"))


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        net = QNetwork.create(np.random.default_rng(4), 10, 3)
        path = tmp_path / "net.json"
        save_checkpoint(net, path, meta={"mode": "oneshot"})
        back, meta = load_checkpoint(path)
        assert back.sizes == net.sizes
        assert meta["mode"] == "oneshot"
        x = np.random.default_rng(5).random(10)
        assert np.allclose(forward(back, x), forward(net, x), atol=1e-12)

    @pytest.mark.parametrize("damage", ["short_bias", "extra_weights"])
    def test_misshapen_checkpoint_rejected(self, tmp_path, damage):
        path = tmp_path / "net.json"
        save_checkpoint(QNetwork.create(np.random.default_rng(4), 10, 3), path)
        raw = json.loads(path.read_text())
        if damage == "short_bias":
            raw["biases"][0] = [0.5]
        else:
            raw["weights"].append(raw["weights"][-1])
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="do not fit sizes"):
            load_checkpoint(path)

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        save_curve([(100, 0.5, 0.01), (200, 0.625, 0.005)], path,
                   meta={"seed": 3})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == "step,eval_accuracy,loss"
        assert lines[2].split(",") == ["100", "0.5", "0.01"]
        assert lines[3].startswith("200,0.625")
