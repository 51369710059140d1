"""The benchmark's workloads: inputs from the seed, CLI command sequences, checks.

Each workload is batch and closed-loop with one client: every command
starts after the previous one ends. `prepare` writes the inputs into the
current directory; `commands` lists the CLI invocations of one iteration;
`check` inspects the artifacts an iteration left behind.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from ehinfer import confidence
from ehinfer.env import two_state_env

EPS = 1e-6                      # the CLI's default solver tolerance


@dataclass(frozen=True)
class Command:
    label: str                  # "<command>" or "<command>.<kind>"
    argv: tuple
    outputs: tuple              # artifacts hashed for the determinism checks
    epochs: int = 0             # simulated epochs this command produces
    steps: int = 0              # environment steps this command trains for


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_dataset(path, seed, stream, n):
    rng = np.random.default_rng([seed, stream])
    confidence.save_jsonl(confidence.generate_synthetic(rng, confidence.default_spec(), n), path)


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _report(path):
    with open(path + ".report.json") as fh:
        return json.load(fh)


def _check_rows(checks, path, expected):
    n = len(_rows(path))
    checks.append((f"{path} has {expected} rows", n == expected, n))


def _check_residual(checks, path):
    res = _report(path)["residual_final"]
    checks.append((f"{path} residual_final <= eps", res <= EPS, res))


def _check_eta(checks, path, n_states, n_modes):
    rows = {}
    for row in _rows(path):
        rows.setdefault((row["b"], row["h"]), []).append(float(row["eta"]))
    worst = max((abs(sum(r) - 1.0) for r in rows.values()), default=float("inf"))
    ok = len(rows) == n_states and all(len(r) == n_modes for r in rows.values()) and worst <= 1e-9
    checks.append((f"{path} rows sum to 1 over {n_modes} modes", ok, worst))


def _mean_accuracy(paths):
    accs = [float(r["accuracy"]) for p in paths for r in _rows(p)]
    return sum(accs) / len(accs)


def _simulate(kind, flag, artifact, dataset, episodes, epochs, seed):
    out = f"sim_{kind}.csv"
    argv = ("simulate", "--env", "env.json", "--dataset", dataset, "--controller", kind,
            flag, artifact, "--episodes", str(episodes), "--epochs", str(epochs),
            "--seed", str(seed), "--out", out)
    return Command(f"simulate.{kind}", argv, (out,), epochs=episodes * epochs)


class Walkthrough:
    """The README walkthrough on the reference environment at b_max=100."""

    name = "walkthrough-b100"
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=100)
    n_est, n_test, n_logits = 3000, 3000, 1000
    episodes, epochs = 20, 2000

    def prepare(self, seed):
        _write_json("env.json", self.env.to_config())
        _write_dataset("est.jsonl", seed, 1, self.n_est)
        _write_dataset("test.jsonl", seed, 2, self.n_test)

    def commands(self, seed):
        cmds = [
            Command("gen-data", ("gen-data", "--n", str(self.n_logits), "--logits",
                                 "--seed", str(seed), "--out", "logits.jsonl"),
                    ("logits.jsonl", "logits.jsonl.summary.json")),
            Command("calibrate", ("calibrate", "--dataset", "logits.jsonl", "--fit",
                                  "--out", "calibrated.jsonl"),
                    ("calibrated.jsonl", "calibrated.jsonl.summary.json")),
        ]
        for kind, out in (("mms", "mms.json"), ("inc-iag", "iag.json"), ("oracle", "orc.json")):
            cmds.append(Command(f"solve.{kind}",
                                ("solve", "--kind", kind, "--env", "env.json",
                                 "--dataset", "est.jsonl", "--out", out),
                                (out, out + ".report.json")))
        cmds += [
            Command("exit-probs.inc-iag",
                    ("exit-probs", "--env", "env.json", "--controller", "inc-iag",
                     "--policy", "iag.json", "--out", "eta_iag.csv"), ("eta_iag.csv",)),
            Command("exit-probs.oracle",
                    ("exit-probs", "--env", "env.json", "--controller", "oracle",
                     "--solution", "orc.json", "--dataset", "est.jsonl",
                     "--out", "eta_orc.csv"), ("eta_orc.csv",)),
        ]
        for kind, flag, artifact in (("mms", "--policy", "mms.json"),
                                     ("inc-iag", "--policy", "iag.json"),
                                     ("oracle", "--solution", "orc.json")):
            cmds.append(_simulate(kind, flag, artifact, "test.jsonl",
                                  self.episodes, self.epochs, seed))
        return cmds

    def check(self):
        checks = []
        mms = _report("mms.json")
        checks.append(("mms.json monotone", mms["monotone"] is True, mms["monotone"]))
        checks.append(("mms.json superadditive", mms["superadditive"] is True,
                       mms["superadditive_worst_deficit"]))
        _check_residual(checks, "iag.json")
        _check_residual(checks, "orc.json")
        # both value iterations stop within eps * gamma / (1 - gamma) of their fixed point
        gamma = self.env.epoch.discount_slot
        tol = 2 * EPS * gamma / (1 - gamma)
        margin = _report("iag.json")["dominance_margin"]
        checks.append(("iag.json dominance_margin >= -tol", margin >= -tol, margin))
        _check_eta(checks, "eta_iag.csv", self.env.n_states, self.env.n_modes)
        _check_eta(checks, "eta_orc.csv", self.env.n_states, self.env.n_modes)
        for kind in ("mms", "inc-iag", "oracle"):
            _check_rows(checks, f"sim_{kind}.csv", self.episodes)
        return checks

    def accuracy(self):
        return _mean_accuracy([f"sim_{k}.csv" for k in ("mms", "inc-iag", "oracle")])


class LearnDqn:
    """Incremental DQN training at b_max=3, then a rollout of the trained net."""

    name = "learn-dqn"
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
    n_train, n_test = 20000, 10000
    steps, eval_every, eval_epochs = 8000, 4000, 200
    episodes, epochs = 40, 1000

    def prepare(self, seed):
        _write_json("env.json", self.env.to_config())
        _write_dataset("train.jsonl", seed, 1, self.n_train)
        _write_dataset("test.jsonl", seed, 2, self.n_test)

    def commands(self, seed):
        train = Command("train-dqn",
                        ("train-dqn", "--env", "env.json", "--dataset", "train.jsonl",
                         "--mode", "incremental", "--steps", str(self.steps),
                         "--eps-decay", str(self.steps // 2),
                         "--eval-every", str(self.eval_every),
                         "--eval-epochs", str(self.eval_epochs),
                         "--seed", str(seed), "--out", "net.json"),
                        ("net.json", "net.json.curve.csv"), steps=self.steps)
        return [train, _simulate("inc-dqn", "--checkpoint", "net.json", "test.jsonl",
                                 self.episodes, self.epochs, seed)]

    def check(self):
        checks = []
        _check_rows(checks, "net.json.curve.csv", self.steps // self.eval_every)
        _check_rows(checks, "sim_inc-dqn.csv", self.episodes)
        return checks

    def accuracy(self):
        return _mean_accuracy(["sim_inc-dqn.csv"])


WORKLOADS = {w.name: w for w in (Walkthrough(), LearnDqn())}
