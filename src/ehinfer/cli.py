"""Command line front end: datasets, solving, training, simulation, sweeps.

Every command is a pure function of its input files and the seed; re-runs
with identical arguments rewrite identical bytes (no timestamps in any
artifact). The seed comes from --seed or the EH_INFER_SEED variable; there
is no wall-clock fallback.

Exit codes, mapped in `main`: 2 invalid input (any ValueError), 3 solver
failure, 4 training configuration, 5 missing policy/solution/checkpoint artifact.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .env import HarvestEnvironment, check_positive, read_json, write_csv, write_json
from . import confidence as conf
from . import mdp as mdp_mod
from . import oracle as oracle_mod
from . import dqn as dqn_mod
from . import harness

EXIT_INPUT, EXIT_SOLVER, EXIT_TRAINING, EXIT_MISSING = 2, 3, 4, 5


class CliExit(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _check_writable(out):
    """Reject an output path whose directory is missing or read-only, before any work."""
    parent = os.path.dirname(os.path.abspath(out)) or "."
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise CliExit(EXIT_INPUT, f"output directory not writable: {parent}")


def _resolve_seed(value):
    if value is not None:
        return int(value)
    fallback = os.environ.get("EH_INFER_SEED")
    if fallback is None:
        raise CliExit(EXIT_INPUT,
                      "no --seed given and EH_INFER_SEED unset; "
                      "runs must be explicitly seeded")
    try:
        return int(fallback)
    except ValueError:
        raise CliExit(EXIT_INPUT, f"EH_INFER_SEED is not an integer: {fallback!r}")


def _read(path, what, parse=read_json, code=EXIT_INPUT):
    """parse(path) of an input file: missing exits with `code`, malformed with 2.

    JSON syntax errors are ValueErrors, so they are malformed input too.
    """
    if not os.path.isfile(path):
        raise CliExit(code, f"missing {what} file: {path}")
    try:
        return parse(path)
    except (ValueError, KeyError, TypeError) as ex:
        raise CliExit(EXIT_INPUT, f"{path}: bad {what} ({ex})")


def _load_env(path, code=EXIT_INPUT):
    return _read(path, "environment config",
                 lambda p: HarvestEnvironment.from_config(read_json(p)), code)


# ---------------------------------------------------------------- gen-data

def cmd_gen_data(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    if args.spec is not None:
        spec = _read(args.spec, "synthetic spec", lambda p: conf.SyntheticSpec(**read_json(p)))
    else:
        spec = conf.default_spec()
    rng = np.random.default_rng(seed)
    ds = conf.generate_synthetic(rng, spec, args.n, with_logits=args.logits)
    conf.save_jsonl(ds, args.out)
    acc = conf.exit_accuracy(ds)
    _, ece = conf.reliability_report(ds)
    write_json(args.out + ".summary.json", {
        "seed": seed,
        "n_records": len(ds),
        "per_exit_accuracy": [float(a) for a in acc],
        "ece": [float(e) for e in ece],
        "spec": dataclasses.asdict(spec),
    }, indent=1, sort_keys=True)
    print(f"wrote {args.out}: n={len(ds)} accuracies="
          + "/".join(f"{a:.4f}" for a in acc))
    return 0


# ------------------------------------------------------------------- solve

def _rho_from_args(args):
    if args.dataset is not None:
        ds = _read(args.dataset, "dataset", conf.load_jsonl)
        return conf.exit_accuracy(ds), args.dataset
    if args.rho is not None:
        try:
            rho = tuple(float(x) for x in args.rho.split(","))
        except ValueError:
            raise CliExit(EXIT_INPUT, f"--rho is not a comma list: {args.rho!r}")
        return np.array(rho), None
    raise CliExit(EXIT_INPUT, "need --dataset or --rho for the mode accuracies")


def cmd_solve(args):
    # every kind takes --eps, although policy iteration (mms) has no tolerance
    check_positive("eps", args.eps)
    env = _load_env(args.env)
    meta = {"env_fingerprint": env.fingerprint(), "kind": args.kind,
            "gamma": env.epoch.discount_epoch}
    report = dict(meta)
    if args.kind == "oracle":
        if args.dataset is None:
            raise CliExit(EXIT_INPUT, "kind=oracle requires --dataset")
        ds = _read(args.dataset, "dataset", conf.load_jsonl)
        sol = oracle_mod.solve_oracle(env, ds, eps=args.eps)
        oracle_mod.save_solution(sol, args.out, meta={"source": args.dataset})
        res = sol.residuals
        report.update({
            "iterations": len(res),
            "residual_final": res[-1],
            "contraction_ratio_max": max(
                (res[i + 1] / res[i] for i in range(len(res) - 1)
                 if res[i] > 0), default=0.0),
            "dataset_fingerprint": sol.dataset_fp,
        })
    elif args.kind == "mms":
        rho, src = _rho_from_args(args)
        m = mdp_mod.build_mms_mdp(env, rho)
        vt, pol = mdp_mod.policy_iteration(m)
        qt = mdp_mod.q_table(m, vt)
        ok_m, where = mdp_mod.check_monotone(pol, env)
        ok_s, worst = mdp_mod.check_superadditive(qt, env)
        mdp_mod.save_policy(pol, args.out, env, False, meta=dict(meta, source=src))
        report.update({
            "iterations": vt.iterations,
            "monotone": bool(ok_m),
            "monotone_violation": None if where is None else list(where),
            "superadditive": bool(ok_s),
            "superadditive_worst_deficit": float(worst),
        })
    else:  # inc-iag
        rho, src = _rho_from_args(args)
        vt, pol = mdp_mod.value_iteration(
            mdp_mod.build_inc_iag_mdp(env, rho), eps=args.eps)
        # the dominance margin compares against the one-shot model's values
        v_mms, _ = mdp_mod.value_iteration(
            mdp_mod.build_mms_mdp(env, rho), eps=args.eps)
        mdp_mod.save_policy(pol, args.out, env, True, meta=dict(meta, source=src))
        report.update({
            "iterations": vt.iterations,
            "residual_final": vt.residuals[-1] if vt.residuals else 0.0,
            "dominance_margin": mdp_mod.epoch_start_margin(env, vt, v_mms),
        })
    write_json(args.out + ".report.json", report, indent=1, sort_keys=True)
    line = ", ".join(f"{k}={report[k]}" for k in sorted(report)
                     if k not in ("env_fingerprint", "dataset_fingerprint"))
    print(f"wrote {args.out} ({line})")
    return 0


# --------------------------------------------------------------- train-dqn

def _train_config(**fields):
    try:
        return dqn_mod.TrainConfig(**fields)
    except ValueError as ex:
        raise CliExit(EXIT_TRAINING, f"bad training configuration: {ex}")


def cmd_train_dqn(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    env = _load_env(args.env)
    ds = _read(args.dataset, "dataset", conf.load_jsonl)
    curve_path = args.curve or args.out + ".curve.csv"
    meta = {
        "mode": args.mode, "seed": seed, "steps": args.steps, "lr": args.lr,
        "env_fingerprint": env.fingerprint(),
        "dataset_fingerprint": oracle_mod.dataset_fingerprint(ds),
    }
    fields = dict(
        mode=args.mode, lr=args.lr, batch_size=args.batch_size,
        buffer_capacity=args.buffer, target_sync=args.target_sync,
        eps_decay_steps=args.eps_decay, eval_every=args.eval_every,
        eval_epochs=args.eval_epochs, seed=seed)
    if args.steps == 0:
        # the fields a run checks, at the default total_steps: 0 is no run length
        _train_config(**fields)
        env.check_exits(ds.n_exits)     # dqn.train checks it on the other path
        rng = np.random.default_rng(seed)
        if args.mode == "incremental":
            net = dqn_mod.QNetwork.create(rng, dqn_mod.inc_input_dim(env), 2)
        else:
            net = dqn_mod.QNetwork.create(rng, dqn_mod.os_input_dim(env),
                                          env.n_modes)
        print("warning: 0 training steps requested, writing an untrained "
              "network", file=sys.stderr)
        dqn_mod.save_checkpoint(net, args.out, env, meta=meta)
        dqn_mod.save_curve([], curve_path, meta=meta)
        return 0
    cfg = _train_config(total_steps=args.steps, **fields)
    net, curve = dqn_mod.train(env, ds, cfg)
    dqn_mod.save_checkpoint(net, args.out, env, meta=meta)
    dqn_mod.save_curve(curve, curve_path, meta=meta)
    print(f"wrote {args.out}: final eval accuracy {curve[-1][1]:.4f}")
    return 0


# ---------------------------------------------------------------- simulate

def _build_controller(args, env):
    """The controller of --controller, built from its artifact for env."""
    kind = args.controller

    def artifact(what, parse):
        if not getattr(args, what):
            raise CliExit(EXIT_INPUT, f"controller={kind} requires --{what}")
        return _read(getattr(args, what), what, parse, EXIT_MISSING)

    if kind in ("mms", "inc-iag"):
        inc = kind == "inc-iag"
        pol, _ = artifact("policy", lambda p: mdp_mod.load_policy(p, env, inc))
        return (harness.IncTableController if inc else harness.MmsController)(pol, env)
    if kind == "oracle":
        sol = artifact("solution", lambda p: oracle_mod.load_solution(p, env))
        return harness.OracleController(sol)
    if kind in ("inc-dqn", "os-dqn"):
        net, _ = artifact("checkpoint", lambda p: dqn_mod.load_checkpoint(p, env))
        return (harness.IncDqnController if kind == "inc-dqn" else harness.OsDqnController)(
            net, env)
    if kind == "random":
        return harness.RandomFeasibleController(env)
    if kind == "fixed":
        if args.mode_k is None:
            raise CliExit(EXIT_INPUT, "controller=fixed requires --mode-k")
        return harness.FixedModeController(args.mode_k, env)
    raise CliExit(EXIT_INPUT, f"unknown controller kind {kind!r}")


def cmd_simulate(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    env = _load_env(args.env, code=EXIT_MISSING)
    ds = _read(args.dataset, "dataset", conf.load_jsonl, EXIT_MISSING)
    controller = _build_controller(args, env)
    results = harness.simulate(controller, ds, episodes=args.episodes,
                               epochs=args.epochs, seed=seed)
    mean, lo, hi = harness.aggregate_accuracy(results)
    meta = {
        "controller": controller.kind, "seed": seed,
        "episodes": args.episodes, "epochs": args.epochs,
        "env_fingerprint": env.fingerprint(),
        "dataset_fingerprint": oracle_mod.dataset_fingerprint(ds),
        "config_fingerprint": harness.config_fingerprint({
            "env": env.to_config(), "controller": controller.kind,
            "episodes": args.episodes, "epochs": args.epochs, "seed": seed,
        }),
    }
    columns = ["episode", "accuracy", *(f"exit_{k}" for k in range(env.n_modes)),
               "energy_used", "overflow", "outage", "epochs"]
    write_csv(args.out, meta, columns, (
        (i, f"{r.accuracy:.10g}", *map(int, r.exit_hist), r.energy_used, r.overflow,
         r.outage, r.epochs) for i, r in enumerate(results)))
    print(f"wrote {args.out}: mean accuracy {mean:.4f} [{lo:.4f}, {hi:.4f}]")
    return 0


# ------------------------------------------------------------------- sweep

def cmd_sweep(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    ds = _read(args.dataset, "dataset", conf.load_jsonl, EXIT_MISSING)
    fields = {} if args.grid is None else _read(args.grid, "sweep grid")
    fields.setdefault("seeds", (seed,))
    try:
        grid = harness.SweepGrid(**fields)
    except (TypeError, ValueError) as ex:
        raise CliExit(EXIT_INPUT, f"bad sweep grid: {ex}")
    kinds = tuple(args.kinds.split(",")) if args.kinds else harness._SWEEP_KINDS
    rows = harness.sweep(grid, kinds, ds, eps=args.eps, jobs=args.jobs)
    meta = {
        "seed": seed, "kinds": "/".join(kinds),
        "dataset_fingerprint": oracle_mod.dataset_fingerprint(ds),
        "config_fingerprint": harness.config_fingerprint({
            "grid": {k: getattr(grid, k) for k in fields},
            "kinds": list(kinds), "seed": seed,
        }),
    }
    harness.write_results_csv(rows, args.out, n_modes=len(grid.costs), meta=meta)
    print(f"wrote {args.out}: {len(rows)} rows over {len(grid.cells())} cells")
    return 0


# -------------------------------------------------------------- exit-probs

def cmd_exit_probs(args):
    env = _load_env(args.env, code=EXIT_MISSING)
    _check_writable(args.out)
    kind = args.controller
    meta = {"controller": kind, "env_fingerprint": env.fingerprint()}
    ds = None
    if kind in ("oracle", "inc-dqn"):
        if kind == "inc-dqn":
            meta.update(seed=_resolve_seed(args.seed), rollouts=args.rollouts)
        if args.dataset is None:
            raise CliExit(EXIT_INPUT, f"controller={kind} requires --dataset")
        ds = _read(args.dataset, "dataset", conf.load_jsonl, EXIT_MISSING)
        meta["dataset_fingerprint"] = oracle_mod.dataset_fingerprint(ds)
    ctl = _build_controller(args, env)
    if kind == "mms":
        eta = harness.exit_probability_mms(ctl.actions, env)
    elif kind == "inc-iag":
        eta = harness.exit_probability_matrix(ctl.actions, env)
    elif kind == "oracle":
        eta = harness.exit_probability_oracle(ctl.solution, ds)
    else:   # inc-dqn: sampled epochs from every (b, h)
        eta = np.array([
            harness.exit_probability_mc(ctl, ds, bh, args.rollouts, meta["seed"])
            for bh in zip(*env.state_coords())])
    harness.write_eta_csv(eta, env, args.out, meta=meta)
    print(f"wrote {args.out}: {eta.shape[0]} states x {eta.shape[1]} modes")
    return 0


# --------------------------------------------------------------- calibrate

def cmd_calibrate(args):
    _check_writable(args.out)
    ds = _read(args.dataset, "dataset", conf.load_jsonl)
    _, ece_before = conf.reliability_report(ds)
    if args.fit:
        tau, out_ds = conf.temperature_scale(ds)
    else:
        tau, out_ds = args.tau, conf.distort_calibration(ds, args.tau)
    conf.save_jsonl(out_ds, args.out)
    _, ece_after = conf.reliability_report(out_ds)
    write_json(args.out + ".summary.json", {
        "mode": "fit" if args.fit else "distort",
        "tau": float(tau),
        "ece_before": [float(e) for e in ece_before],
        "ece_after": [float(e) for e in ece_after],
    }, indent=1, sort_keys=True)
    print(f"wrote {args.out}: tau={tau:.6g} "
          f"ece {np.mean(ece_before):.4f} -> {np.mean(ece_after):.4f}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ehinfer",
        description="Energy-aware controllers for adaptive inference under "
                    "harvested energy.",
        epilog="Exit codes: 2 invalid input, 3 solver failure, "
               "4 training configuration, 5 missing artifact.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample a synthetic confidence dataset")
    p.add_argument("--spec", help="JSON file of generator parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--logits", action="store_true",
                   help="attach per-class logits to every record")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("solve", help="solve a controller to a policy artifact")
    p.add_argument("--kind", choices=("mms", "inc-iag", "oracle"), required=True)
    p.add_argument("--env", required=True, help="environment config JSON")
    p.add_argument("--dataset")
    p.add_argument("--rho", help="comma list of per-mode accuracies "
                                 "(alternative to --dataset)")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train-dqn", help="train a Q-network controller")
    p.add_argument("--env", required=True)
    p.add_argument("--dataset", required=True)
    defaults = dqn_mod.TrainConfig
    p.add_argument("--mode", choices=("incremental", "oneshot"), default=defaults.mode)
    p.add_argument("--steps", type=int, default=defaults.total_steps)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--buffer", type=int, default=defaults.buffer_capacity)
    p.add_argument("--target-sync", type=int, default=defaults.target_sync)
    p.add_argument("--eps-decay", type=int, default=defaults.eps_decay_steps)
    p.add_argument("--eval-every", type=int, default=defaults.eval_every)
    p.add_argument("--eval-epochs", type=int, default=defaults.eval_epochs)
    p.add_argument("--seed", type=int)
    p.add_argument("--curve", help="learning curve CSV path "
                                   "(default: <out>.curve.csv)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_dqn)

    p = sub.add_parser("simulate", help="roll a controller through episodes")
    p.add_argument("--env", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--controller", required=True,
                   choices=("mms", "inc-iag", "oracle", "inc-dqn", "os-dqn",
                            "random", "fixed"))
    p.add_argument("--policy")
    p.add_argument("--solution")
    p.add_argument("--checkpoint")
    p.add_argument("--mode-k", type=int, help="mode index for controller=fixed")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate controllers over a grid")
    p.add_argument("--grid", help="JSON overrides for the default grid")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kinds", help="comma list of controller kinds")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exit-probs",
                       help="per-state computing-mode distribution of a policy")
    p.add_argument("--env", required=True)
    p.add_argument("--controller", required=True,
                   choices=("mms", "inc-iag", "oracle", "inc-dqn"))
    p.add_argument("--policy")
    p.add_argument("--solution")
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--rollouts", type=int, default=2000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_exit_probs)

    p = sub.add_parser("calibrate",
                       help="temperature-fit or deliberately distort a dataset")
    p.add_argument("--dataset", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fit", action="store_true",
                       help="fit a softmax temperature on stored logits")
    group.add_argument("--tau", type=float,
                       help="apply a fixed distortion temperature")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliExit as ex:
        code, message = ex.code, ex.message
    except (mdp_mod.NotConverged, mdp_mod.SingularEvaluation) as ex:
        code, message = EXIT_SOLVER, f"{args.command} failed: {ex}"
    except ValueError as ex:
        code, message = EXIT_INPUT, f"{args.command} rejected: {ex}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
