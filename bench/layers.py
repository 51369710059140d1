"""Which ehinfer layers the traced run wraps, and the metrics derived from them.

Every wrapped name is a public function of an `ehinfer` module or a method
of a public class. The counts computed from array shapes and return values
(sweep counts, tensor sizes) repeat exactly for a given seed, so a change
can name one beforehand as its claim.
"""

import os
import statistics

from ehinfer import confidence, dqn, env, harness, mdp, oracle

from tracer import counted, timed

SIM_KINDS = ("MmS", "IncIAgEE", "OsIAwOracle", "IncIAwDQN")

# CLI commands as the benchmark labels them: "<command>" or "<command>.<kind>".
CLI_COMMANDS = (
    "gen-data", "calibrate", "solve.mms", "solve.inc-iag", "solve.oracle",
    "exit-probs.inc-iag", "exit-probs.oracle", "simulate.mms",
    "simulate.inc-iag", "simulate.oracle", "simulate.inc-dqn", "train-dqn",
)

_CONTROLLERS = (
    (harness.MmsController, "decide"),
    (harness.OracleController, "decide"),
    (harness.RandomFeasibleController, "decide"),
    (harness.FixedModeController, "decide"),
    (harness.OsDqnController, "decide"),
    (harness.IncTableController, "decide_sub"),
    (harness.IncDqnController, "decide_sub"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _vi_sweeps(tr, args, kwargs, result):
    tr.add("mdp.value_iteration.sweeps", result[0].iterations)


def _pi_iterations(tr, args, kwargs, result):
    tr.add("mdp.policy_iteration.iterations", result[0].iterations)


def _oracle_sweeps(tr, args, kwargs, result):
    tr.add("oracle.solve_oracle.sweeps", len(result.residuals))


def _dense_bytes(tr, args, kwargs, result):
    tr.peak("mdp.build_inc_iag_mdp.dense_bytes", result.transition.nbytes)


def _score_bytes(tr, args, kwargs, result):
    dataset, e = _arg(args, kwargs, 1, "dataset"), _arg(args, kwargs, 2, "env")
    tr.peak("oracle.approx_operator.score_bytes", len(dataset) * e.n_modes * e.n_states * 8)


def _saved_bytes(tr, args, kwargs, result):
    tr.add("confidence.save_jsonl.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _sim_epochs(tr, args, kwargs, result):
    tr.add("harness.simulate.epochs", sum(r.epochs for r in result))


def _sim_name(args):
    return "harness.simulate." + args[0].kind


def install(tracer, patches):
    """Swap every traced layer for its wrapper; `patches` restores them."""

    def span(owner, attr, name, after=None, name_of=None):
        patches.set(owner, attr, timed(tracer, name, getattr(owner, attr), after, name_of))

    span(env, "epoch_kernel", "env.epoch_kernel")
    span(mdp, "build_inc_iag_mdp", "mdp.build_inc_iag_mdp", _dense_bytes)
    span(mdp, "value_iteration", "mdp.value_iteration", _vi_sweeps)
    span(mdp, "policy_iteration", "mdp.policy_iteration", _pi_iterations)
    span(mdp, "check_superadditive", "mdp.check_superadditive")
    span(oracle, "solve_oracle", "oracle.solve_oracle", _oracle_sweeps)
    patches.set(oracle, "approx_operator",
                counted(tracer, "oracle.approx_operator", oracle.approx_operator, _score_bytes))
    span(harness, "simulate", "harness.simulate", _sim_epochs, _sim_name)
    span(harness, "exit_probability_oracle", "harness.exit_probability_oracle")
    span(harness, "exit_probability_matrix", "harness.exit_probability_matrix")
    for cls, attr in _CONTROLLERS:
        patches.set(cls, attr, counted(tracer, "harness.decide", getattr(cls, attr)))
    span(dqn, "train", "dqn.train")
    span(dqn, "grad_step", "dqn.grad_step")
    span(dqn, "td_loss_and_grads", "dqn.td_loss_and_grads")
    span(dqn.Adam, "step", "dqn.Adam.step")
    span(dqn.ReplayBuffer, "sample", "dqn.ReplayBuffer.sample")
    span(dqn, "greedy_action", "dqn.greedy_action")
    span(dqn, "encode_inc", "dqn.encode_inc")
    span(confidence, "load_jsonl", "confidence.load_jsonl")
    span(confidence, "save_jsonl", "confidence.save_jsonl", _saved_bytes)
    span(confidence, "temperature_scale", "confidence.temperature_scale")
    span(confidence, "generate_synthetic", "confidence.generate_synthetic")


def _quantile_us(durations, q):
    if len(durations) <= 1000:
        return 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def _calls(name):
    return lambda tr: tr.stats[name].calls if name in tr.stats else tr.counts.get(name + ".calls", 0)


def _self(name):
    return lambda tr: tr.stats[name].self_s if name in tr.stats else 0.0


def _total(name):
    return lambda tr: tr.stats[name].total_s if name in tr.stats else 0.0


def _count(key):
    return lambda tr: tr.counts.get(key, 0)


def _pct(name, q):
    return lambda tr: _quantile_us(tr.stats[name].durations, q) if name in tr.stats else 0.0


def _sim_self(tr):
    return sum(_self("harness.simulate." + k)(tr) for k in SIM_KINDS)


def _layer_metrics():
    """(metric name, unit, better, reader) for every per-layer metric."""
    m = [
        ("env.epoch_kernel.calls", "count", "lower", _calls("env.epoch_kernel")),
        ("env.epoch_kernel.self_s", "s", "lower", _self("env.epoch_kernel")),
        ("mdp.build_inc_iag_mdp.self_s", "s", "lower", _self("mdp.build_inc_iag_mdp")),
        ("mdp.build_inc_iag_mdp.dense_bytes", "B", "lower",
         _count("mdp.build_inc_iag_mdp.dense_bytes")),
        ("mdp.value_iteration.calls", "count", "lower", _calls("mdp.value_iteration")),
        ("mdp.value_iteration.sweeps", "count", "lower", _count("mdp.value_iteration.sweeps")),
        ("mdp.value_iteration.self_s", "s", "lower", _self("mdp.value_iteration")),
        ("mdp.policy_iteration.iterations", "count", "lower",
         _count("mdp.policy_iteration.iterations")),
        ("mdp.policy_iteration.self_s", "s", "lower", _self("mdp.policy_iteration")),
        ("mdp.check_superadditive.self_s", "s", "lower", _self("mdp.check_superadditive")),
        ("oracle.solve_oracle.calls", "count", "lower", _calls("oracle.solve_oracle")),
        ("oracle.solve_oracle.sweeps", "count", "lower", _count("oracle.solve_oracle.sweeps")),
        ("oracle.solve_oracle.self_s", "s", "lower", _self("oracle.solve_oracle")),
        ("oracle.approx_operator.calls", "count", "lower", _calls("oracle.approx_operator")),
        ("oracle.approx_operator.score_bytes", "B", "lower",
         _count("oracle.approx_operator.score_bytes")),
        ("harness.simulate.self_s", "s", "lower", _sim_self),
        ("harness.simulate.epochs", "count", "higher", _count("harness.simulate.epochs")),
    ]
    m += [(f"harness.simulate.{k}.self_s", "s", "lower", _self("harness.simulate." + k))
          for k in SIM_KINDS]
    m += [
        ("harness.decide.calls", "count", "lower", _calls("harness.decide")),
        ("harness.exit_probability_oracle.self_s", "s", "lower",
         _self("harness.exit_probability_oracle")),
        ("harness.exit_probability_matrix.self_s", "s", "lower",
         _self("harness.exit_probability_matrix")),
    ]
    for name in ("dqn.grad_step", "dqn.greedy_action"):
        m += [
            (name + ".calls", "count", "lower", _calls(name)),
            (name + ".self_s", "s", "lower", _self(name)),
            (name + ".p50_us", "us", "lower", _pct(name, 50)),
            (name + ".p99_us", "us", "lower", _pct(name, 99)),
        ]
    m += [(name + ".self_s", "s", "lower", _self(name))
          for name in ("dqn.td_loss_and_grads", "dqn.Adam.step", "dqn.ReplayBuffer.sample",
                       "dqn.encode_inc", "dqn.train")]
    m += [
        ("confidence.load_jsonl.calls", "count", "lower", _calls("confidence.load_jsonl")),
        ("confidence.load_jsonl.self_s", "s", "lower", _self("confidence.load_jsonl")),
        ("confidence.save_jsonl.self_s", "s", "lower", _self("confidence.save_jsonl")),
        ("confidence.save_jsonl.bytes", "B", "lower", _count("confidence.save_jsonl.bytes")),
        ("confidence.temperature_scale.self_s", "s", "lower",
         _self("confidence.temperature_scale")),
        ("confidence.generate_synthetic.self_s", "s", "lower",
         _self("confidence.generate_synthetic")),
    ]
    for cmd in CLI_COMMANDS:
        m += [(f"cli.{cmd}.s", "s", "lower", _total("cli." + cmd)),
              (f"cli.{cmd}.self_s", "s", "lower", _self("cli." + cmd))]
    return m


LAYER_METRICS = _layer_metrics()


def layer_values(tracer):
    return {name: read(tracer) for name, _, _, read in LAYER_METRICS}
