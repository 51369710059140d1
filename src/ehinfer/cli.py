"""Command line front end: datasets, solving, training, simulation, sweeps.

Every command is a pure function of its input files and the seed; re-runs
with identical arguments rewrite identical bytes (no timestamps in any
artifact). The seed comes from --seed or the EH_INFER_SEED variable; there
is no wall-clock fallback.

Exit codes: 2 invalid input, 3 solver failure, 4 training configuration,
5 missing policy/solution/checkpoint artifact.
"""

import argparse
import json
import os
import sys

import numpy as np

from .env import HarvestEnvironment, NonErgodicChain
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


def _load_json(path, code):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliExit(code, f"missing input file: {path}")
    except json.JSONDecodeError as ex:
        raise CliExit(EXIT_INPUT, f"{path}: not valid JSON ({ex})")


def _load_env(path, gamma=None, code=EXIT_INPUT):
    cfg = _load_json(path, code)
    if gamma is not None:
        cfg = dict(cfg, gamma=gamma)
    try:
        return HarvestEnvironment.from_config(cfg)
    except (KeyError, ValueError, TypeError) as ex:
        raise CliExit(EXIT_INPUT, f"{path}: bad environment config ({ex})")


def _load_dataset(path, code=EXIT_INPUT):
    if not os.path.isfile(path):
        raise CliExit(code, f"missing dataset file: {path}")
    try:
        return conf.load_jsonl(path)
    except (ValueError, KeyError, json.JSONDecodeError) as ex:
        raise CliExit(EXIT_INPUT, f"{path}: bad dataset ({ex})")


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- gen-data

def cmd_gen_data(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    if args.n <= 0:
        raise CliExit(EXIT_INPUT, "--n must be a positive record count")
    if args.spec is not None:
        raw = _load_json(args.spec, EXIT_INPUT)
        try:
            spec = conf.SyntheticSpec(
                accuracies=tuple(raw["accuracies"]),
                n_classes=int(raw.get("n_classes", 200)),
                difficulty_correlation=float(raw.get("difficulty_correlation", 0.6)),
                concentration=float(raw.get("concentration", 8.0)),
            )
        except (KeyError, ValueError, TypeError) as ex:
            raise CliExit(EXIT_INPUT, f"{args.spec}: bad synthetic spec ({ex})")
    else:
        spec = conf.default_spec()
    rng = np.random.default_rng(seed)
    ds = conf.generate_synthetic(rng, spec, args.n, with_logits=args.logits)
    conf.save_jsonl(ds, args.out)
    acc = conf.exit_accuracy(ds)
    _, ece = conf.reliability_report(ds)
    _write_json({
        "seed": seed,
        "n_records": len(ds),
        "per_exit_accuracy": [float(a) for a in acc],
        "ece": [float(e) for e in ece],
        "spec": {
            "accuracies": list(spec.accuracies),
            "n_classes": spec.n_classes,
            "difficulty_correlation": spec.difficulty_correlation,
            "concentration": spec.concentration,
        },
    }, args.out + ".summary.json")
    print(f"wrote {args.out}: n={len(ds)} accuracies="
          + "/".join(f"{a:.4f}" for a in acc))
    return 0


# ------------------------------------------------------------------- solve

def _rho_from_args(args):
    if args.dataset is not None:
        return conf.exit_accuracy(_load_dataset(args.dataset)), args.dataset
    if args.rho is not None:
        try:
            rho = tuple(float(x) for x in args.rho.split(","))
        except ValueError:
            raise CliExit(EXIT_INPUT, f"--rho is not a comma list: {args.rho!r}")
        return np.array(rho), None
    raise CliExit(EXIT_INPUT, "need --dataset or --rho for the mode accuracies")


def cmd_solve(args):
    env = _load_env(args.env, gamma=args.gamma)
    meta = {"env_fingerprint": env.fingerprint(), "kind": args.kind,
            "gamma": env.epoch.discount_epoch}
    report = dict(meta)
    try:
        if args.kind == "oracle":
            if args.dataset is None:
                raise CliExit(EXIT_INPUT, "kind=oracle requires --dataset")
            ds = _load_dataset(args.dataset)
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
            if len(rho) != env.n_modes:
                raise CliExit(EXIT_INPUT, "mode accuracy vector length mismatch")
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
            if len(rho) != env.n_modes:
                raise CliExit(EXIT_INPUT, "mode accuracy vector length mismatch")
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
    except CliExit:
        raise
    except (NonErgodicChain, mdp_mod.SingularEvaluation, RuntimeError) as ex:
        raise CliExit(EXIT_SOLVER, f"solver failed: {ex}")
    except ValueError as ex:
        raise CliExit(EXIT_INPUT, f"solve rejected: {ex}")
    _write_json(report, args.out + ".report.json")
    line = ", ".join(f"{k}={report[k]}" for k in sorted(report)
                     if k not in ("env_fingerprint", "dataset_fingerprint"))
    print(f"wrote {args.out} ({line})")
    return 0


# --------------------------------------------------------------- train-dqn

def cmd_train_dqn(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    env = _load_env(args.env)
    ds = _load_dataset(args.dataset)
    curve_path = args.curve or args.out + ".curve.csv"
    meta = {
        "mode": args.mode, "seed": seed, "steps": args.steps, "lr": args.lr,
        "env_fingerprint": env.fingerprint(),
        "dataset_fingerprint": oracle_mod.dataset_fingerprint(ds),
    }
    if args.steps == 0:
        rng = np.random.default_rng(seed)
        if args.mode == "incremental":
            net = dqn_mod.QNetwork.create(rng, dqn_mod.inc_input_dim(env), 2)
        else:
            net = dqn_mod.QNetwork.create(rng, dqn_mod.os_input_dim(env),
                                          env.n_modes)
        print("warning: 0 training steps requested, writing an untrained "
              "network", file=sys.stderr)
        dqn_mod.save_checkpoint(net, args.out, meta=meta)
        dqn_mod.save_curve([], curve_path, meta=meta)
        return 0
    try:
        cfg = dqn_mod.TrainConfig(
            mode=args.mode, lr=args.lr, total_steps=args.steps,
            batch_size=args.batch_size, buffer_capacity=args.buffer,
            target_sync=args.target_sync, eps_decay_steps=args.eps_decay,
            eval_every=args.eval_every, eval_epochs=args.eval_epochs,
            seed=seed)
    except ValueError as ex:
        raise CliExit(EXIT_TRAINING, f"bad training configuration: {ex}")
    net, curve = dqn_mod.train(env, ds, cfg)
    dqn_mod.save_checkpoint(net, args.out, meta=meta)
    dqn_mod.save_curve(curve, curve_path, meta=meta)
    print(f"wrote {args.out}: final eval accuracy {curve[-1][1]:.4f}")
    return 0


# ---------------------------------------------------------------- simulate

def _build_controller(args, env, ds):
    kind = args.controller
    need = lambda attr, flag: getattr(args, attr) or _missing_flag(flag, kind)
    if kind == "mms":
        return harness.MmsController(_load_policy(need("policy", "--policy"), env, False), env)
    if kind == "inc-iag":
        return harness.IncTableController(
            _load_policy(need("policy", "--policy"), env, True), env)
    if kind == "oracle":
        sol = _load_solution(need("solution", "--solution"), env, ds)
        return harness.OracleController(sol, env)
    if kind == "inc-dqn":
        net = _load_checkpoint(need("checkpoint", "--checkpoint"), env)
        return harness.IncDqnController(net, env)
    if kind == "os-dqn":
        net = _load_checkpoint(need("checkpoint", "--checkpoint"), env)
        return harness.OsDqnController(net, env)
    if kind == "random":
        return harness.RandomFeasibleController(env)
    if kind == "fixed":
        if args.mode_k is None:
            raise CliExit(EXIT_INPUT, "controller=fixed requires --mode-k")
        return harness.FixedModeController(args.mode_k, env)
    raise CliExit(EXIT_INPUT, f"unknown controller kind {kind!r}")


def _missing_flag(flag, kind):
    raise CliExit(EXIT_INPUT, f"controller={kind} requires {flag}")


def _check_env_binding(path, meta, env):
    found = meta.get("env_fingerprint")
    if found != env.fingerprint():
        raise CliExit(EXIT_INPUT, f"{path}: made for environment {found}, "
                                  f"not {env.fingerprint()}")


def _load_policy(path, env, incremental):
    if not os.path.isfile(path):
        raise CliExit(EXIT_MISSING, f"missing policy artifact: {path}")
    try:
        pol, meta = mdp_mod.load_policy(path, env, incremental)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as ex:
        raise CliExit(EXIT_INPUT, f"{path}: bad policy file ({ex})")
    _check_env_binding(path, meta, env)
    return pol


def _load_solution(path, env, ds):
    if not os.path.isfile(path):
        raise CliExit(EXIT_MISSING, f"missing solution artifact: {path}")
    try:
        return oracle_mod.load_solution(
            path, env, dataset_fp=oracle_mod.dataset_fingerprint(ds))
    except (ValueError, KeyError, json.JSONDecodeError) as ex:
        raise CliExit(EXIT_INPUT, f"{path}: bad solution file ({ex})")


def _load_checkpoint(path, env):
    if not os.path.isfile(path):
        raise CliExit(EXIT_MISSING, f"missing checkpoint artifact: {path}")
    try:
        net, meta = dqn_mod.load_checkpoint(path)
    except (ValueError, KeyError, json.JSONDecodeError) as ex:
        raise CliExit(EXIT_INPUT, f"{path}: bad checkpoint file ({ex})")
    _check_env_binding(path, meta, env)
    return net


def cmd_simulate(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    env = _load_env(args.env, code=EXIT_MISSING)
    ds = _load_dataset(args.dataset, code=EXIT_MISSING)
    try:
        controller = _build_controller(args, env, ds)
        results = harness.simulate(controller, env, ds, episodes=args.episodes,
                                   epochs=args.epochs, seed=seed)
    except CliExit:
        raise
    except (harness.IncompatibleController, ValueError) as ex:
        raise CliExit(EXIT_INPUT, f"simulation rejected: {ex}")
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
    with open(args.out, "w") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}={val}\n")
        exits = ",".join(f"exit_{k}" for k in range(env.n_modes))
        fh.write(f"episode,accuracy,{exits},energy_used,overflow,outage,epochs\n")
        for i, r in enumerate(results):
            hist = ",".join(str(int(c)) for c in r.exit_hist)
            fh.write(f"{i},{r.accuracy:.10g},{hist},{r.energy_used},"
                     f"{r.overflow},{r.outage},{r.epochs}\n")
    print(f"wrote {args.out}: mean accuracy {mean:.4f} [{lo:.4f}, {hi:.4f}]")
    return 0


# ------------------------------------------------------------------- sweep

def cmd_sweep(args):
    seed = _resolve_seed(args.seed)
    _check_writable(args.out)
    ds = _load_dataset(args.dataset, code=EXIT_MISSING)
    fields = {}
    if args.grid is not None:
        raw = _load_json(args.grid, EXIT_INPUT)
        tuple_keys = {"p_g", "p_b", "pe_g", "pe_b", "b_max", "seeds", "costs"}
        for key, val in raw.items():
            fields[key] = tuple(val) if key in tuple_keys else val
    fields.setdefault("seeds", (seed,))
    try:
        grid = harness.SweepGrid(**fields)
    except (TypeError, ValueError) as ex:
        raise CliExit(EXIT_INPUT, f"bad sweep grid: {ex}")
    kinds = tuple(args.kinds.split(",")) if args.kinds else harness._SWEEP_KINDS
    try:
        rows = harness.sweep(grid, kinds, ds, oracle_eps=args.eps, jobs=args.jobs)
    except ValueError as ex:
        raise CliExit(EXIT_INPUT, f"sweep rejected: {ex}")
    meta = {
        "seed": seed, "kinds": "/".join(kinds),
        "dataset_fingerprint": oracle_mod.dataset_fingerprint(ds),
        "config_fingerprint": harness.config_fingerprint({
            "grid": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in fields.items()},
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
    try:
        if kind == "mms":
            pol = _load_policy(args.policy or _missing_flag("--policy", kind), env, False)
            eta = harness.exit_probability_mms(pol, env)
        elif kind == "inc-iag":
            pol = _load_policy(args.policy or _missing_flag("--policy", kind), env, True)
            eta = harness.exit_probability_matrix(pol, env)
        elif kind == "oracle":
            if args.dataset is None:
                raise CliExit(EXIT_INPUT, "controller=oracle requires --dataset")
            ds = _load_dataset(args.dataset, code=EXIT_MISSING)
            sol = _load_solution(
                args.solution or _missing_flag("--solution", kind), env, ds)
            eta = harness.exit_probability_oracle(sol, ds)
            meta["dataset_fingerprint"] = oracle_mod.dataset_fingerprint(ds)
        elif kind == "inc-dqn":
            seed = _resolve_seed(args.seed)
            if args.dataset is None:
                raise CliExit(EXIT_INPUT, "controller=inc-dqn requires --dataset")
            ds = _load_dataset(args.dataset, code=EXIT_MISSING)
            net = _load_checkpoint(
                args.checkpoint or _missing_flag("--checkpoint", kind), env)
            ctl = harness.IncDqnController(net, env)
            eta = np.zeros((env.n_states, env.n_modes))
            for b in range(env.battery.b_max + 1):
                for h in range(env.chain.n):
                    eta[env.state_index(b, h)] = harness.exit_probability_mc(
                        ctl, env, ds, (b, h), rollouts=args.rollouts, seed=seed)
            meta.update(seed=seed, rollouts=args.rollouts,
                        dataset_fingerprint=oracle_mod.dataset_fingerprint(ds))
        else:
            raise CliExit(EXIT_INPUT, f"unknown controller kind {kind!r}")
    except CliExit:
        raise
    except (harness.IncompatibleController, ValueError, IndexError) as ex:
        raise CliExit(EXIT_INPUT, f"exit-probs rejected: {ex}")
    harness.write_eta_csv(eta, env, args.out, meta=meta)
    print(f"wrote {args.out}: {eta.shape[0]} states x {eta.shape[1]} modes")
    return 0


# --------------------------------------------------------------- calibrate

def cmd_calibrate(args):
    _check_writable(args.out)
    ds = _load_dataset(args.dataset)
    _, ece_before = conf.reliability_report(ds)
    if args.fit:
        try:
            tau, out_ds = conf.temperature_scale(ds)
        except conf.MissingLogits as ex:
            raise CliExit(EXIT_INPUT, f"cannot fit temperature: {ex}")
    else:
        if args.tau <= 0:
            raise CliExit(EXIT_INPUT, "--tau must be positive")
        tau, out_ds = args.tau, conf.distort_calibration(ds, args.tau)
    conf.save_jsonl(out_ds, args.out)
    _, ece_after = conf.reliability_report(out_ds)
    _write_json({
        "mode": "fit" if args.fit else "distort",
        "tau": float(tau),
        "ece_before": [float(e) for e in ece_before],
        "ece_after": [float(e) for e in ece_after],
    }, args.out + ".summary.json")
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
    p.add_argument("--gamma", type=float, help="override the config discount")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train-dqn", help="train a Q-network controller")
    p.add_argument("--env", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=("incremental", "oneshot"),
                   default="incremental")
    p.add_argument("--steps", type=int, default=300_000)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--buffer", type=int, default=10**5)
    p.add_argument("--target-sync", type=int, default=1000)
    p.add_argument("--eps-decay", type=int, default=50_000)
    p.add_argument("--eval-every", type=int, default=10_000)
    p.add_argument("--eval-epochs", type=int, default=500)
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
        print(f"error: {ex.message}", file=sys.stderr)
        return ex.code


if __name__ == "__main__":
    sys.exit(main())
