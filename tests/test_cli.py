import ast
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ehinfer import mdp as mdp_mod
from ehinfer.cli import build_parser, main
from ehinfer.confidence import default_spec, load_jsonl
from ehinfer.dqn import TrainConfig
from ehinfer.env import two_state_env
from ehinfer.mdp import dominance_margin


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    monkeypatch.delenv("EH_INFER_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
    with open(tmp_path / "env.json", "w") as fh:
        json.dump(env.to_config(), fh)
    return tmp_path


def gen(sandbox, name="ds.jsonl", n=400, seed=7, extra=()):
    rc = main(["gen-data", "--n", str(n), "--seed", str(seed),
               "--out", str(sandbox / name), *extra])
    assert rc == 0
    return sandbox / name


def calibrate_edited(sandbox, capsys, field, value, mode=("--fit",)):
    """Stderr of calibrate on a 50-record --logits file whose eighth record holds
    value as its label, as one logit, or as the second entry of z or correct;
    the command must exit 2 and write nothing."""
    lines = gen(sandbox, n=50, extra=("--logits",)).read_text().splitlines()
    row = json.loads(lines[7])
    if field == "label":
        row["label"] = value
    elif field == "logits":
        row["logits"][1][3] = value
    else:
        row[field][1] = value
    lines[7] = json.dumps(row)
    (sandbox / "bad.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["calibrate", "--dataset", "bad.jsonl", *mode, "--out", "cal.jsonl"]) == 2
    assert not (sandbox / "cal.jsonl").exists()
    return capsys.readouterr().err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSeeding:
    def test_missing_seed_everywhere_is_an_error(self, sandbox, capsys):
        rc = main(["gen-data", "--n", "10", "--out", "x.jsonl"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_environment_variable_fallback(self, sandbox, monkeypatch):
        monkeypatch.setenv("EH_INFER_SEED", "7")
        assert main(["gen-data", "--n", "50", "--out", "a.jsonl"]) == 0
        ds_env = load_jsonl(sandbox / "a.jsonl")
        gen(sandbox, "b.jsonl", n=50, seed=7)
        ds_flag = load_jsonl(sandbox / "b.jsonl")
        assert np.array_equal(ds_env.z, ds_flag.z)

    def test_garbage_environment_seed(self, sandbox, monkeypatch):
        monkeypatch.setenv("EH_INFER_SEED", "yes")
        assert main(["gen-data", "--n", "10", "--out", "x.jsonl"]) == 2


class TestGenData:
    def test_reruns_are_byte_identical(self, sandbox):
        a = gen(sandbox, "a.jsonl")
        b = gen(sandbox, "b.jsonl")
        assert sha(a) == sha(b)
        assert sha(sandbox / "a.jsonl.summary.json") == \
               sha(sandbox / "b.jsonl.summary.json")

    def test_summary_contents(self, sandbox):
        gen(sandbox)
        summary = json.loads((sandbox / "ds.jsonl.summary.json").read_text())
        assert summary["n_records"] == 400
        assert summary["seed"] == 7
        assert len(summary["per_exit_accuracy"]) == 4
        assert summary["spec"]["n_classes"] == 200

    def test_zero_records_rejected(self, sandbox):
        assert main(["gen-data", "--n", "0", "--seed", "1",
                     "--out", "x.jsonl"]) == 2

    def test_bad_spec_rejected(self, sandbox):
        spec = sandbox / "spec.json"
        spec.write_text(json.dumps({"accuracies": [0.9, 0.5]}))
        # exit 0 accuracy must be the uninformed guess rate
        assert main(["gen-data", "--n", "10", "--seed", "1",
                     "--spec", str(spec), "--out", "x.jsonl"]) == 2

    def test_spec_file_shapes_dataset(self, sandbox):
        spec = sandbox / "spec.json"
        spec.write_text(json.dumps(
            {"accuracies": [0.01, 0.5, 0.9], "n_classes": 100}))
        gen(sandbox, "three.jsonl", extra=("--spec", str(spec)))
        assert load_jsonl(sandbox / "three.jsonl").n_exits == 3

    @pytest.mark.parametrize("raw,match", [
        ({"accuracies": [0.5, 0.6], "n_classes": 0}, "n_classes"),
        ({"accuracies": [0.5, 0.6], "n_classes": 2.0}, "n_classes"),
        ({"accuracies": [0.005, 0.5, 0.7], "concentraton": 4.0}, "concentraton"),
        ({"n_classes": 200}, "accuracies"),
        ([0.005, 0.5], "JSON object"),
        ({"accuracies": [0.005, 0.5, 0.7], "concentration": "8"}, "concentration"),
        ({"accuracies": [0.005, 0.5, 0.7], "difficulty_correlation": False},
         "difficulty_correlation"),
        ({"accuracies": [0.005, "0.5", 0.7]}, "accuracy"),
        ({"accuracies": [0.005, 0.5, 0.7], "concentration": float("nan")}, "concentration"),
        ({"accuracies": [0.005, 0.5, 0.7], "concentration": float("inf")}, "concentration"),
    ])
    def test_malformed_spec_is_input_error(self, sandbox, capsys, raw, match):
        spec = sandbox / "spec.json"
        spec.write_text(json.dumps(raw))
        assert main(["gen-data", "--n", "10", "--seed", "1",
                     "--spec", str(spec), "--out", "x.jsonl"]) == 2
        assert match in capsys.readouterr().err
        assert not (sandbox / "x.jsonl").exists()


class TestSolve:
    def test_mms_report(self, sandbox):
        ds = gen(sandbox)
        rc = main(["solve", "--kind", "mms", "--env", "env.json",
                   "--dataset", str(ds), "--out", "mms.json"])
        assert rc == 0
        report = json.loads((sandbox / "mms.json.report.json").read_text())
        assert report["monotone"] is True
        assert report["superadditive"] is True
        assert report["kind"] == "mms"

    def test_inc_iag_builds_and_solves_its_model_once(self, sandbox, monkeypatch):
        # the dominance margin reuses the values of the policy's own solve
        calls = {"build": 0, "solve": []}
        build, solve = mdp_mod.build_inc_iag_mdp, mdp_mod.value_iteration

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counted_solve(mdp, *args, **kwargs):
            calls["solve"].append(mdp.n_actions)
            return solve(mdp, *args, **kwargs)

        monkeypatch.setattr(mdp_mod, "build_inc_iag_mdp", counted_build)
        monkeypatch.setattr(mdp_mod, "value_iteration", counted_solve)
        rc = main(["solve", "--kind", "inc-iag", "--env", "env.json",
                   "--rho", "0.005,0.53,0.69,0.83", "--out", "iag.json"])
        assert rc == 0
        # one incremental (pause/proceed) solve, one one-shot (K modes) solve
        assert calls == {"build": 1, "solve": [2, 4]}
        report = json.loads((sandbox / "iag.json.report.json").read_text())
        env = two_state_env(0.9, 0.5, 0.8, 0.0, b_max=3)
        assert report["dominance_margin"] == dominance_margin(
            env, np.array([0.005, 0.53, 0.69, 0.83]), eps=1e-6)

    def test_rho_list_alternative(self, sandbox):
        rc = main(["solve", "--kind", "mms", "--env", "env.json",
                   "--rho", "0.005,0.53,0.69,0.83", "--out", "mms.json"])
        assert rc == 0

    @pytest.mark.parametrize("kind", ["mms", "inc-iag"])
    def test_rho_length_mismatch(self, sandbox, kind):
        assert main(["solve", "--kind", kind, "--env", "env.json",
                     "--rho", "0.1,0.9", "--out", "x.json"]) == 2

    # a NaN accuracy solved to an all-mode-0 table (mms) or ran the sweep
    # limit out (inc-iag) instead of being refused
    @pytest.mark.parametrize("kind,rho", [("mms", "nan,0.5,0.6,0.8"),
                                          ("inc-iag", "0.005,nan,0.6,0.8")])
    def test_nan_rho_is_input_error(self, sandbox, capsys, kind, rho):
        assert main(["solve", "--kind", kind, "--env", "env.json",
                     "--rho", rho, "--out", "x.json"]) == 2
        assert "rho must lie in [0, 1]" in capsys.readouterr().err
        assert not (sandbox / "x.json").exists()

    # no battery level of b_max=2 pays for mode 3, so no feasible reward held
    # its accuracy, and mms solved with any value there
    @pytest.mark.parametrize("kind", ["mms", "inc-iag"])
    @pytest.mark.parametrize("bad", ["nan", "1.5", "inf", "-1"])
    def test_accuracy_of_an_unaffordable_mode_is_input_error(self, sandbox, capsys, kind, bad):
        with open(sandbox / "env.json", "w") as fh:
            json.dump(two_state_env(0.9, 0.5, 0.8, 0.0, b_max=2).to_config(), fh)
        assert main(["solve", "--kind", kind, "--env", "env.json",
                     "--rho", f"0.005,0.5,0.6,{bad}", "--out", "x.json"]) == 2
        assert "rho must lie in [0, 1]" in capsys.readouterr().err
        assert not (sandbox / "x.json").exists()

    def test_oracle_requires_dataset(self, sandbox):
        assert main(["solve", "--kind", "oracle", "--env", "env.json",
                     "--out", "x.json"]) == 2

    @pytest.mark.parametrize("field,value", [("z", float("nan")), ("correct", 2),
                                             ("z", "0.5"), ("correct", "1")])
    def test_bad_dataset_is_input_error(self, sandbox, capsys, field, value):
        lines = gen(sandbox).read_text().splitlines()
        row = json.loads(lines[0])
        row[field][1] = value
        lines[0] = json.dumps(row)
        (sandbox / "bad.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--kind", "oracle", "--env", "env.json",
                   "--dataset", "bad.jsonl", "--out", "sol.json"])
        assert rc == 2
        assert "bad dataset" in capsys.readouterr().err

    def test_partial_logits_is_input_error(self, sandbox, capsys):
        lines = gen(sandbox, extra=("--logits",)).read_text().splitlines()
        row = json.loads(lines[0])
        del row["logits"]
        lines[0] = json.dumps(row)
        (sandbox / "bad.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["calibrate", "--dataset", "bad.jsonl", "--fit",
                     "--out", "cal.jsonl"]) == 2
        assert "bad dataset" in capsys.readouterr().err

    def test_oracle_report_records_contraction(self, sandbox):
        ds = gen(sandbox)
        rc = main(["solve", "--kind", "oracle", "--env", "env.json",
                   "--dataset", str(ds), "--eps", "1e-4",
                   "--out", "sol.json"])
        assert rc == 0
        report = json.loads((sandbox / "sol.json.report.json").read_text())
        assert report["residual_final"] <= 1e-4
        assert 0 < report["contraction_ratio_max"] < 1

    def test_periodic_chain_solves_but_cannot_simulate(self, sandbox):
        # a periodic chain still defines a well-formed planning problem,
        # but simulation needs a stationary initial law and must refuse
        cfg = json.loads((sandbox / "env.json").read_text())
        cfg["transition"] = [[0.0, 1.0], [1.0, 0.0]]
        with open(sandbox / "bad_env.json", "w") as fh:
            json.dump(cfg, fh)
        rc = main(["solve", "--kind", "mms", "--env", "bad_env.json",
                   "--rho", "0.005,0.53,0.69,0.83", "--out", "p.json"])
        assert rc == 0
        ds = gen(sandbox)
        rc = main(["simulate", "--env", "bad_env.json", "--dataset", str(ds),
                   "--controller", "mms", "--policy", "p.json",
                   "--episodes", "1", "--epochs", "10", "--seed", "0",
                   "--out", "r.csv"])
        assert rc == 2

    def test_epoch_without_slots_is_input_error(self, sandbox, capsys):
        env = json.loads((sandbox / "env.json").read_text())
        (sandbox / "env.json").write_text(json.dumps(dict(env, T=0)))
        assert main(["solve", "--kind", "mms", "--env", "env.json",
                     "--rho", "0.005,0.5,0.7,0.8", "--out", "p.json"]) == 2
        assert "T must be >= 1" in capsys.readouterr().err

    # each loaded before; the converted costs and pmf even kept the clean
    # env's fingerprint, so artifacts made for that env passed
    @pytest.mark.parametrize("key,value", [
        ("T", 3.7), ("b_max", "3"), ("gamma", "0.9"),
        ("costs", [0, 1.5, 2, 3]), ("costs", [0, "1", 2, 3]),
        ("arrival_pmfs", [[0.2, 0.8], [True, 0.0]]),
        ("arrival_pmfs", [[float("nan"), 0.8], [1.0, 0.0]])])
    def test_non_numeric_env_field_is_input_error(self, sandbox, capsys, key, value):
        env = json.loads((sandbox / "env.json").read_text())
        (sandbox / "env.json").write_text(json.dumps(dict(env, **{key: value})))
        assert main(["solve", "--kind", "mms", "--env", "env.json",
                     "--rho", "0.005,0.5,0.7,0.8", "--out", "p.json"]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    # each loaded before under the clean env's fingerprint: the string flag as
    # True, "GB" as ("G", "B"), and two states sharing one policy key
    @pytest.mark.parametrize("key,value,match", [
        ("condition_arrivals_on_next_state", "false",
         "condition_arrivals_on_next_state must be a boolean"),
        ("states", "GB", "states must be a list of strings"),
        ("states", ["G", "G"], "state names must be distinct")])
    def test_bad_state_names_or_flag_is_input_error(self, sandbox, capsys, key, value, match):
        env = json.loads((sandbox / "env.json").read_text())
        (sandbox / "env.json").write_text(json.dumps(dict(env, **{key: value})))
        assert main(["solve", "--kind", "mms", "--env", "env.json",
                     "--rho", "0.005,0.5,0.7,0.8", "--out", "p.json"]) == 2
        assert match in capsys.readouterr().err
        assert not (sandbox / "p.json").exists()

    def test_gamma_override_is_a_usage_error(self, sandbox, capsys):
        # the discount has one source, env.json: an overridden solve wrote
        # artifacts that simulate and exit-probs refused for their env
        with pytest.raises(SystemExit) as ex:
            main(["solve", "--kind", "mms", "--env", "env.json", "--gamma", "0.5",
                  "--rho", "0.005,0.5,0.7,0.8", "--out", "p.json"])
        assert ex.value.code == 2
        assert "--gamma" in capsys.readouterr().err
        assert not (sandbox / "p.json").exists()

    def test_missing_env_file(self, sandbox):
        assert main(["solve", "--kind", "mms", "--env", "nope.json",
                     "--rho", "0.1,0.2,0.3,0.4", "--out", "x.json"]) == 2

    # inf exited 0 after one sweep and wrote the policy; nan ran 10**6 sweeps;
    # mms, whose policy iteration has no tolerance, never read --eps
    @pytest.mark.parametrize("kind", ["mms", "inc-iag", "oracle"])
    @pytest.mark.parametrize("eps", ["0", "-1e-6", "-1", "inf", "nan"])
    def test_nonpositive_eps_is_input_error(self, sandbox, capsys, kind, eps):
        ds = gen(sandbox, n=200)
        assert main(["solve", "--kind", kind, "--env", "env.json", "--dataset", str(ds),
                     f"--eps={eps}", "--out", "x.json"]) == 2
        assert "eps must be positive" in capsys.readouterr().err
        assert not (sandbox / "x.json").exists()


class TestSimulate:
    def test_end_to_end_and_missing_artifact(self, sandbox):
        ds = gen(sandbox)
        assert main(["simulate", "--env", "env.json", "--dataset", str(ds),
                     "--controller", "mms", "--policy", "nope.json",
                     "--seed", "0", "--out", "r.csv"]) == 5
        main(["solve", "--kind", "mms", "--env", "env.json",
              "--dataset", str(ds), "--out", "mms.json"])
        rc = main(["simulate", "--env", "env.json", "--dataset", str(ds),
                   "--controller", "mms", "--policy", "mms.json",
                   "--episodes", "2", "--epochs", "100",
                   "--seed", "0", "--out", "r.csv"])
        assert rc == 0
        lines = (sandbox / "r.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("controller=MmS" in l for l in meta)
        body = [l for l in lines if not l.startswith("#")]
        assert body[0].startswith("episode,accuracy")
        assert len(body) == 1 + 2

    @pytest.mark.parametrize("flag", ["--episodes", "--epochs"])
    def test_zero_count_is_input_error(self, sandbox, flag):
        ds = gen(sandbox)
        argv = ["simulate", "--env", "env.json", "--dataset", str(ds),
                "--controller", "random", "--episodes", "2", "--epochs", "10",
                "--seed", "0", "--out", "r.csv"]
        argv[argv.index(flag) + 1] = "0"
        assert main(argv) == 2
        assert not (sandbox / "r.csv").exists()

    def test_fixed_requires_mode_k(self, sandbox):
        ds = gen(sandbox)
        assert main(["simulate", "--env", "env.json", "--dataset", str(ds),
                     "--controller", "fixed", "--seed", "0",
                     "--out", "r.csv"]) == 2

    def test_random_controller_runs_seedless_artifacts(self, sandbox):
        ds = gen(sandbox)
        rc = main(["simulate", "--env", "env.json", "--dataset", str(ds),
                   "--controller", "random", "--episodes", "2",
                   "--epochs", "50", "--seed", "3", "--out", "r.csv"])
        assert rc == 0
        rc = main(["simulate", "--env", "env.json", "--dataset", str(ds),
                   "--controller", "random", "--episodes", "2",
                   "--epochs", "50", "--seed", "3", "--out", "r2.csv"])
        assert sha(sandbox / "r.csv") == sha(sandbox / "r2.csv")


class TestTrainDqn:
    def test_zero_steps_writes_untrained_artifacts(self, sandbox, capsys):
        ds = gen(sandbox, n=200)
        rc = main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                   "--steps", "0", "--seed", "0", "--out", "net.json"])
        assert rc == 0
        assert "untrained" in capsys.readouterr().err
        assert (sandbox / "net.json").is_file()
        curve = (sandbox / "net.json.curve.csv").read_text().splitlines()
        assert curve[-1] == "step,eval_accuracy,loss"

    @pytest.mark.parametrize("flag", ["--eval-every", "--eval-epochs"])
    def test_zero_evaluation_schedule(self, sandbox, flag):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                     "--steps", "100", flag, "0", "--seed", "0",
                     "--out", "net.json"]) == 4

    # with --steps 0 only --mode and --lr were checked, and these exited 0
    # with an untrained checkpoint
    @pytest.mark.parametrize("flags", [("--batch-size", "-5", "--eval-every", "0"),
                                       ("--buffer", "0"), ("--target-sync", "-1"),
                                       ("--eps-decay", "0"), ("--eval-epochs", "0")])
    def test_zero_steps_checks_every_field(self, sandbox, capsys, flags):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                     "--steps", "0", *flags, "--seed", "0", "--out", "net.json"]) == 4
        assert "bad training configuration" in capsys.readouterr().err
        assert not (sandbox / "net.json").exists()
        assert not (sandbox / "net.json.curve.csv").exists()

    def test_bad_learning_rate(self, sandbox, capsys):
        # --lr nan trained NaN weights, and simulate refused the checkpoint
        ds = gen(sandbox, n=200)
        for steps in ("100", "0"):
            for lr in ("-1", "nan", "inf"):
                assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                             "--steps", steps, "--lr", lr, "--seed", "0",
                             "--out", "net.json"]) == 4
                assert "lr must be positive and finite" in capsys.readouterr().err
                assert not (sandbox / "net.json").exists()

    def test_periodic_chain_is_input_error(self, sandbox, capsys):
        # simulate refused this env with exit 2; training ended in a traceback
        env = json.loads((sandbox / "env.json").read_text())
        (sandbox / "bad_env.json").write_text(
            json.dumps(dict(env, transition=[[0.0, 1.0], [1.0, 0.0]])))
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "bad_env.json", "--dataset", str(ds),
                     "--steps", "100", "--seed", "0", "--out", "net.json"]) == 2
        assert ("error: train-dqn rejected: chain is reducible or periodic"
                in capsys.readouterr().err)
        assert not (sandbox / "net.json").exists()

    def test_short_training_produces_usable_checkpoint(self, sandbox):
        ds = gen(sandbox, n=200)
        rc = main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                   "--steps", "300", "--eps-decay", "150",
                   "--eval-every", "300", "--eval-epochs", "30",
                   "--seed", "0", "--out", "net.json"])
        assert rc == 0
        rc = main(["simulate", "--env", "env.json", "--dataset", str(ds),
                   "--controller", "inc-dqn", "--checkpoint", "net.json",
                   "--episodes", "1", "--epochs", "50", "--seed", "0",
                   "--out", "r.csv"])
        assert rc == 0


    @pytest.mark.parametrize("damage", ["short_bias", "extra_weights", "string_weight",
                                        "bool_bias", "nan_weight", "inf_bias"])
    def test_misshapen_checkpoint_is_input_error(self, sandbox, capsys, damage):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                     "--steps", "0", "--seed", "0", "--out", "net.json"]) == 0
        raw = json.loads((sandbox / "net.json").read_text())
        if damage == "short_bias":
            raw["biases"][0] = [0.5]    # broadcast over the whole layer before
        elif damage == "extra_weights":
            raw["weights"].append(raw["weights"][-1])    # dropped by a zip before
        elif damage == "string_weight":
            raw["weights"][0][0] = "0.25"   # loaded as 0.25 before
        elif damage == "bool_bias":
            raw["biases"][-1][0] = True     # loaded as 1.0 before
        elif damage == "nan_weight":
            raw["weights"][0][0] = float("nan")     # json reads the NaN token
        else:
            raw["biases"][-1][0] = float("inf")     # and Infinity
        (sandbox / "bad.json").write_text(json.dumps(raw))
        assert main(["simulate", "--env", "env.json", "--dataset", str(ds),
                     "--controller", "inc-dqn", "--checkpoint", "bad.json",
                     "--episodes", "1", "--epochs", "10", "--seed", "0",
                     "--out", "r.csv"]) == 2
        assert "bad checkpoint" in capsys.readouterr().err
        assert not (sandbox / "r.csv").exists()


class TestExitProbs:
    def test_mms_rows_are_one_hot(self, sandbox):
        ds = gen(sandbox)
        main(["solve", "--kind", "mms", "--env", "env.json",
              "--dataset", str(ds), "--out", "mms.json"])
        rc = main(["exit-probs", "--env", "env.json", "--controller", "mms",
                   "--policy", "mms.json", "--out", "eta.csv"])
        assert rc == 0
        lines = [l for l in (sandbox / "eta.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "b,h,k,eta"
        per_state = {}
        for b, h, k, v in (l.split(",") for l in lines[1:]):
            per_state.setdefault((b, h), []).append(float(v))
        for probs in per_state.values():
            assert sum(probs) == pytest.approx(1.0)
            assert sorted(set(probs)) in ([0.0, 1.0], [1.0])

    def test_infeasible_proceed_is_input_error(self, sandbox, capsys):
        ds = gen(sandbox)
        main(["solve", "--kind", "inc-iag", "--env", "env.json",
              "--dataset", str(ds), "--out", "iag.json"])
        payload = json.loads((sandbox / "iag.json").read_text())
        payload["policy"]["b=0,h=B,xi=0,tau=0"] = 1     # no energy to proceed
        (sandbox / "bad.json").write_text(json.dumps(payload))
        assert main(["exit-probs", "--env", "env.json", "--controller", "inc-iag",
                     "--policy", "bad.json", "--out", "eta.csv"]) == 2
        assert "b=0,h=B,xi=0,tau=0" in capsys.readouterr().err
        assert not (sandbox / "eta.csv").exists()

    # simulate refused this table while exit-probs reported mode 3 at b=0
    @pytest.mark.parametrize("command", ["exit-probs", "simulate"])
    def test_unaffordable_mode_is_input_error(self, sandbox, capsys, command):
        ds = gen(sandbox)
        main(["solve", "--kind", "mms", "--env", "env.json",
              "--dataset", str(ds), "--out", "mms.json"])
        payload = json.loads((sandbox / "mms.json").read_text())
        payload["policy"]["b=0,h=G"] = 3                # no energy for mode 3
        (sandbox / "bad.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([command, "--env", "env.json", "--controller", "mms",
                     "--policy", "bad.json", "--dataset", str(ds), "--seed", "0",
                     "--out", "out.csv"]) == 2
        assert "mode 3 at b=0" in capsys.readouterr().err
        assert not (sandbox / "out.csv").exists()

    def test_zero_rollouts_is_input_error(self, sandbox):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                     "--steps", "0", "--seed", "0", "--out", "net.json"]) == 0
        assert main(["exit-probs", "--env", "env.json", "--controller", "inc-dqn",
                     "--checkpoint", "net.json", "--dataset", str(ds),
                     "--rollouts", "0", "--seed", "0", "--out", "eta.csv"]) == 2
        assert not (sandbox / "eta.csv").exists()

    def test_incompatible_policy_is_input_error(self, sandbox):
        ds = gen(sandbox)
        main(["solve", "--kind", "mms", "--env", "env.json",
              "--dataset", str(ds), "--out", "mms.json"])
        # one-shot table handed to the incremental walker
        assert main(["exit-probs", "--env", "env.json",
                     "--controller", "inc-iag", "--policy", "mms.json",
                     "--out", "eta.csv"]) == 2

    # a 5-exit dataset wrote an eta table from the wrong confidences, and a
    # 3-exit one failed on an index into the confidences
    @pytest.mark.parametrize("accuracies", [[0.005, 0.5, 0.8], [0.005, 0.4, 0.5, 0.7, 0.8]])
    @pytest.mark.parametrize("kind", ["inc-dqn", "oracle"])
    def test_dataset_exit_count_mismatch_is_input_error(self, sandbox, capsys, kind, accuracies):
        ds = gen(sandbox, n=200)
        if kind == "oracle":
            made = main(["solve", "--kind", "oracle", "--env", "env.json",
                         "--dataset", str(ds), "--out", "art.json"])
        else:
            made = main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                         "--steps", "0", "--seed", "0", "--out", "art.json"])
        assert made == 0
        (sandbox / "spec.json").write_text(json.dumps({"accuracies": accuracies}))
        other = gen(sandbox, "other.jsonl", n=200, extra=("--spec", "spec.json"))
        capsys.readouterr()
        flag = "--solution" if kind == "oracle" else "--checkpoint"
        assert main(["exit-probs", "--env", "env.json", "--controller", kind,
                     flag, "art.json", "--dataset", str(other),
                     "--rollouts", "20", "--seed", "0", "--out", "eta.csv"]) == 2
        err = capsys.readouterr().err
        assert f"{len(accuracies)} exits, environment 4 modes" in err
        assert "index" not in err
        assert not (sandbox / "eta.csv").exists()


class TestEnvBinding:
    """Artifacts made for another environment of the same shape are refused."""

    @pytest.fixture()
    def other_env(self, sandbox):
        cfg = json.loads((sandbox / "env.json").read_text())
        cfg["arrival_pmfs"][0] = [0.3, 0.7]         # pe_g 0.8 -> 0.7
        (sandbox / "other_env.json").write_text(json.dumps(cfg))
        return "other_env.json"

    def _simulate(self, ds, flag, artifact, kind):
        return main(["simulate", "--env", "env.json", "--dataset", str(ds),
                     "--controller", kind, flag, artifact, "--episodes", "1",
                     "--epochs", "10", "--seed", "0", "--out", "r.csv"])

    def _exit_probs(self, ds, flag, artifact, kind):
        return main(["exit-probs", "--env", "env.json", "--controller", kind,
                     flag, artifact, "--dataset", str(ds), "--rollouts", "5",
                     "--seed", "0", "--out", "eta.csv"])

    @pytest.mark.parametrize("kind", ["mms", "inc-iag"])
    def test_policy_for_other_env(self, sandbox, other_env, capsys, kind):
        ds = gen(sandbox, n=200)
        assert main(["solve", "--kind", kind, "--env", other_env,
                     "--dataset", str(ds), "--out", "p.json"]) == 0
        assert self._simulate(ds, "--policy", "p.json", kind) == 2
        assert self._exit_probs(ds, "--policy", "p.json", kind) == 2
        assert "environment" in capsys.readouterr().err

    def test_solution_for_other_env(self, sandbox, other_env, capsys):
        ds = gen(sandbox, n=200)
        assert main(["solve", "--kind", "oracle", "--env", other_env,
                     "--dataset", str(ds), "--out", "orc.json"]) == 0
        assert self._simulate(ds, "--solution", "orc.json", "oracle") == 2
        assert self._exit_probs(ds, "--solution", "orc.json", "oracle") == 2
        assert "made for environment" in capsys.readouterr().err

    def test_checkpoint_for_other_env(self, sandbox, other_env, capsys):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", other_env, "--dataset", str(ds),
                     "--steps", "0", "--seed", "0", "--out", "net.json"]) == 0
        assert self._simulate(ds, "--checkpoint", "net.json", "inc-dqn") == 2
        assert self._exit_probs(ds, "--checkpoint", "net.json", "inc-dqn") == 2
        assert "environment" in capsys.readouterr().err


class TestSolutionFile:
    """An oracle solution is read by key, as JSON numbers, at the env's discount."""

    @pytest.fixture()
    def solved(self, sandbox):
        ds = gen(sandbox, n=200)
        assert main(["solve", "--kind", "oracle", "--env", "env.json",
                     "--dataset", str(ds), "--out", "orc.json"]) == 0
        return ds, json.loads((sandbox / "orc.json").read_text())

    def _run(self, command, ds, solution):
        argv = [command, "--env", "env.json", "--dataset", str(ds), "--controller", "oracle",
                "--solution", solution, "--out", "out.csv"]
        if command == "simulate":
            argv += ["--episodes", "1", "--epochs", "10", "--seed", "0"]
        return main(argv)

    @pytest.mark.parametrize("command", ["simulate", "exit-probs"])
    def test_clean_solution_runs(self, solved, command):
        assert self._run(command, solved[0], "orc.json") == 0

    # each of these simulated with exit 0 before, the NaN one at near-zero accuracy
    @pytest.mark.parametrize("edit,match", [
        (lambda p: p["v_bar"].update({"b=2,h=G": True}), "v_bar entry must be a number"),
        (lambda p: p["v_bar"].update({"b=2,h=G": float("nan")}), "v_bar entry must be a number"),
        (lambda p: p["v_bar"].update({"b=9,h=G": 0.5}), "v_bar keys"),
        (lambda p: p.update(gamma=0.5), "gamma"),
    ], ids=["true", "nan", "extra_key", "gamma"])
    @pytest.mark.parametrize("command", ["simulate", "exit-probs"])
    def test_damaged_solution_is_input_error(self, sandbox, solved, capsys, command,
                                             edit, match):
        ds, payload = solved
        edit(payload)
        (sandbox / "bad.json").write_text(json.dumps(payload))
        assert self._run(command, ds, "bad.json") == 2
        assert match in capsys.readouterr().err
        assert not (sandbox / "out.csv").exists()


class TestPolicyKeys:
    """Policy artifacts are read by key, not by the order of the file."""

    def _solve_and_sort(self, sandbox, kind):
        ds = gen(sandbox)
        assert main(["solve", "--kind", kind, "--env", "env.json",
                     "--dataset", str(ds), "--out", "p.json"]) == 0
        payload = json.loads((sandbox / "p.json").read_text())
        (sandbox / "sorted.json").write_text(json.dumps(payload, sort_keys=True))
        return ds

    def _simulate(self, ds, kind, policy, out):
        return main(["simulate", "--env", "env.json", "--dataset", str(ds),
                     "--controller", kind, "--policy", policy, "--episodes", "3",
                     "--epochs", "200", "--seed", "4", "--out", out])

    @pytest.mark.parametrize("kind", ["mms", "inc-iag"])
    def test_sorted_file_simulates_identically(self, sandbox, kind):
        ds = self._solve_and_sort(sandbox, kind)
        assert self._simulate(ds, kind, "p.json", "a.csv") == 0
        assert self._simulate(ds, kind, "sorted.json", "b.csv") == 0
        assert sha(sandbox / "a.csv") == sha(sandbox / "b.csv")
        for policy, out in (("p.json", "a_eta.csv"), ("sorted.json", "b_eta.csv")):
            assert main(["exit-probs", "--env", "env.json", "--controller", kind,
                         "--policy", policy, "--out", out]) == 0
        assert sha(sandbox / "a_eta.csv") == sha(sandbox / "b_eta.csv")

    @pytest.mark.parametrize("edit", ["missing", "foreign"])
    @pytest.mark.parametrize("kind", ["mms", "inc-iag"])
    def test_key_mismatch_is_input_error(self, sandbox, capsys, kind, edit):
        ds = self._solve_and_sort(sandbox, kind)
        payload = json.loads((sandbox / "p.json").read_text())
        first = next(iter(payload["policy"]))
        action = payload["policy"].pop(first)
        if edit == "foreign":
            payload["policy"][first.replace("h=G", "h=X")] = action
        (sandbox / "bad.json").write_text(json.dumps(payload))
        assert self._simulate(ds, kind, "bad.json", "r.csv") == 2
        assert "policy keys" in capsys.readouterr().err
        assert not (sandbox / "r.csv").exists()

    @pytest.mark.parametrize("action", [None, 7, 2.9, True, "1"])
    def test_bad_action_is_input_error(self, sandbox, action):
        ds = self._solve_and_sort(sandbox, "mms")
        payload = json.loads((sandbox / "p.json").read_text())
        payload["policy"]["b=3,h=G"] = action
        (sandbox / "bad.json").write_text(json.dumps(payload))
        assert self._simulate(ds, "mms", "bad.json", "r.csv") == 2

    def test_mms_policy_as_inc_iag_is_input_error(self, sandbox, capsys):
        ds = self._solve_and_sort(sandbox, "mms")
        assert self._simulate(ds, "inc-iag", "p.json", "r.csv") == 2
        assert "policy keys" in capsys.readouterr().err


class TestCalibrate:
    def test_fit_needs_logits(self, sandbox):
        ds = gen(sandbox)   # no --logits
        assert main(["calibrate", "--dataset", str(ds), "--fit",
                     "--out", "cal.jsonl"]) == 2

    def test_fit_with_logits(self, sandbox):
        ds = gen(sandbox, "ds.jsonl", extra=("--logits",))
        rc = main(["calibrate", "--dataset", str(ds), "--fit",
                   "--out", "cal.jsonl"])
        assert rc == 0
        summary = json.loads((sandbox / "cal.jsonl.summary.json").read_text())
        assert summary["tau"] > 0

    # tau = inf exited 0 and wrote "tau": Infinity, which is not JSON
    @pytest.mark.parametrize("tau", ["inf", "nan", "0"])
    def test_tau_must_be_positive_and_finite(self, sandbox, capsys, tau):
        ds = gen(sandbox, n=50)
        assert main(["calibrate", "--dataset", str(ds), f"--tau={tau}",
                     "--out", "warped.jsonl"]) == 2
        assert "tau must be positive and finite" in capsys.readouterr().err
        assert not (sandbox / "warped.jsonl").exists()
        assert not (sandbox / "warped.jsonl.summary.json").exists()

    def test_fixed_tau_distorts(self, sandbox):
        ds = gen(sandbox)
        rc = main(["calibrate", "--dataset", str(ds), "--tau", "0.5",
                   "--out", "warped.jsonl"])
        assert rc == 0
        warped = load_jsonl(sandbox / "warped.jsonl")
        clean = load_jsonl(ds)
        assert not np.allclose(warped.z[:, 1:], clean.z[:, 1:])
        assert np.array_equal(warped.correct, clean.correct)

    # each edit once let calibrate exit 0 on a wrong reading or fail with a traceback
    @pytest.mark.parametrize("field,value,match", [
        ("label", -1, "labels must lie in"),
        ("label", 500, "labels must lie in"),
        ("label", 3.7, "labels must be integers"),
        ("label", 2 ** 70, "labels must be integers"),
        ("logits", float("nan"), "logits must be finite"),
        ("logits", float("inf"), "logits must be finite"),
        ("logits", -float("inf"), "logits must be finite"),
    ])
    @pytest.mark.parametrize("mode", [("--fit",), ("--tau", "0.5")])
    def test_bad_label_or_logit_is_input_error(self, sandbox, capsys, field, value, match, mode):
        err = calibrate_edited(sandbox, capsys, field, value, mode)
        assert "bad dataset" in err and match in err


    @pytest.mark.parametrize("field,value", [
        ("z", True), ("correct", True), ("correct", False), ("logits", False), ("label", True),
    ])
    def test_json_boolean_is_input_error(self, sandbox, capsys, field, value):
        err = calibrate_edited(sandbox, capsys, field, value)
        assert "bad dataset" in err and f"{field} must hold numbers" in err

    # ConfidenceDataset converted numeric text to floats, so these loaded as numbers
    @pytest.mark.parametrize("field,value", [("z", "0.5"), ("correct", "1"), ("logits", "-1.25")])
    def test_json_string_is_input_error(self, sandbox, capsys, field, value):
        err = calibrate_edited(sandbox, capsys, field, value)
        assert "bad dataset" in err and f"{field} must hold numbers" in err

    # ["fu"] and null once ended in an AttributeError traceback (exit 1)
    @pytest.mark.parametrize("line", ['["fu"]', '"fu"', "5", "null"])
    def test_line_that_is_not_an_object_is_input_error(self, sandbox, capsys, line):
        lines = gen(sandbox, n=10).read_text().splitlines()
        lines[3] = line
        (sandbox / "bad.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["calibrate", "--dataset", "bad.jsonl", "--tau", "0.5",
                     "--out", "cal.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "bad dataset" in err and "line 4: a record must be a JSON object" in err
        assert not (sandbox / "cal.jsonl").exists()

    # each line must hold exactly one JSON document
    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:3] + [lines[3] + " " + lines[4]] + lines[5:],
        lambda lines: lines[:3] + [lines[3] + " garbage"] + lines[4:],
        lambda lines: ["\ufeff" + lines[0]] + lines[1:],
        lambda lines: lines[:3] + lines[3].split(', "correct"') + lines[4:],
    ], ids=["two-records", "trailing-garbage", "leading-bom", "split-record"])
    def test_malformed_line_is_input_error(self, sandbox, capsys, edit):
        lines = gen(sandbox, n=10).read_text().splitlines()
        (sandbox / "bad.jsonl").write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        assert main(["calibrate", "--dataset", "bad.jsonl", "--tau", "0.5",
                     "--out", "cal.jsonl"]) == 2
        assert "bad dataset" in capsys.readouterr().err
        assert not (sandbox / "cal.jsonl").exists()


class TestDatasetPinned:
    """Seeded `gen-data` and `calibrate` datasets, byte for byte.

    The SHA-256 values were recorded while `save_jsonl` still wrote one
    `json.dumps` per record; writing each distinct number once per block
    must not move a byte. "fit" was re-recorded when the temperature fit
    moved from a golden-section search to Newton's method, which moved its
    tau by 3.1e-8 to a lower NLL.
    """

    GOLDEN = {
        "plain":
            "7c1b3902533aaead149937d8f05364a0999b7feb8b81404605d5a53343d6ec4e",
        "logits":
            "0587e8217921f461ede065832fa58ba77a3c56ca4b62c499be94185a77d93a1c",
        "spec3":
            "ce6dbcb587b3c4cc36a8e6ede34d8a85a623a430454eafd7fa1dd25470816b33",
        "fit":
            "0de51046b2653613204595aef8868c9852cb3a7254c25a24d575dbde2d73d220",
        "tau":
            "d6ffafb05dd5ce759ae8372fddf22c9ce3ec75906a7a66df5005d167b7b75196",
    }

    @pytest.fixture()
    def outputs(self, sandbox):
        (sandbox / "spec.json").write_text(json.dumps(
            {"accuracies": [0.1, 0.6, 0.8], "n_classes": 10}))
        gen(sandbox, "plain.jsonl", n=300, seed=11)
        gen(sandbox, "logits.jsonl", n=60, seed=12, extra=("--logits",))
        gen(sandbox, "spec3.jsonl", n=500, seed=13, extra=("--spec", "spec.json", "--logits"))
        assert main(["calibrate", "--dataset", "logits.jsonl", "--fit",
                     "--out", "fit.jsonl"]) == 0
        assert main(["calibrate", "--dataset", "plain.jsonl", "--tau", "0.5",
                     "--out", "tau.jsonl"]) == 0
        return sandbox

    def test_datasets_match_golden_hashes(self, outputs):
        assert {name: sha(outputs / f"{name}.jsonl") for name in self.GOLDEN} == self.GOLDEN


class TestSweep:
    def test_row_count_and_dqn_rejected(self, sandbox):
        ds = gen(sandbox, n=300)
        grid = sandbox / "grid.json"
        grid.write_text(json.dumps({
            "p_g": [0.9], "p_b": [0.5], "pe_g": [0.8], "pe_b": [0.0],
            "b_max": [2], "seeds": [0, 1], "episodes": 2, "epochs": 50}))
        rc = main(["sweep", "--grid", str(grid), "--dataset", str(ds),
                   "--kinds", "MmS,RandomFeasible", "--seed", "0",
                   "--out", "rows.csv"])
        assert rc == 0
        body = [l for l in (sandbox / "rows.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(body) == 1 + 1 * 2 * 2   # header + cells*kinds*seeds
        assert main(["sweep", "--grid", str(grid), "--dataset", str(ds),
                     "--kinds", "IncIAwDQN", "--seed", "0",
                     "--out", "rows.csv"]) == 2

    @pytest.mark.parametrize("raw,match", [
        ([1, 2], "JSON object"),
        ({"b_max": 3}, "not iterable"),
        ({"b_max": [2], "episodez": 2}, "episodez"),
        ({"b_max": [3.0]}, "b_max"),
        ({"b_max": [2], "seeds": [True]}, "seeds"),
        ({"b_max": [2], "costs": [0, 1, 2, 2.5]}, "costs"),
        ({"b_max": [2], "T": 3.0}, "T"),
        ({"b_max": [2], "episodes": 2.0}, "episodes"),
        ({"b_max": [2], "epochs": "50"}, "epochs"),
        ({"b_max": [2], "p_g": ["0.9"]}, "p_g"),
        ({"b_max": [2], "gamma": True}, "gamma"),
        ({"b_max": [2], "pe_g": [float("nan")]}, "pe_g"),
        ({"b_max": [2], "p_b": [float("inf")]}, "p_b"),
    ])
    def test_malformed_grid_is_input_error(self, sandbox, capsys, raw, match):
        ds = gen(sandbox, n=50)
        grid = sandbox / "grid.json"
        grid.write_text(json.dumps(raw))
        assert main(["sweep", "--grid", str(grid), "--dataset", str(ds),
                     "--kinds", "RandomFeasible", "--seed", "0",
                     "--out", "rows.csv"]) == 2
        assert match in capsys.readouterr().err
        assert not (sandbox / "rows.csv").exists()

    # --jobs 0 or -4 ran the cells serially
    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_input_error(self, sandbox, capsys, jobs):
        ds = gen(sandbox, n=50)
        grid = sandbox / "grid.json"
        grid.write_text(json.dumps({"b_max": [2], "episodes": 1, "epochs": 5}))
        assert main(["sweep", "--grid", str(grid), "--dataset", str(ds),
                     "--kinds", "RandomFeasible", f"--jobs={jobs}", "--seed", "0",
                     "--out", "rows.csv"]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (sandbox / "rows.csv").exists()

    def test_zero_episodes_is_input_error(self, sandbox):
        ds = gen(sandbox, n=300)
        grid = sandbox / "grid.json"
        grid.write_text(json.dumps({
            "p_g": [0.9], "p_b": [0.5], "pe_g": [0.8], "pe_b": [0.0],
            "b_max": [2], "episodes": 0, "epochs": 50}))
        assert main(["sweep", "--grid", str(grid), "--dataset", str(ds),
                     "--kinds", "RandomFeasible", "--seed", "0",
                     "--out", "rows.csv"]) == 2
        assert not (sandbox / "rows.csv").exists()


class TestLibraryDefaults:
    """The CLI reads its defaults from the library instead of restating them."""

    def test_train_dqn_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(
            ["train-dqn", "--env", "e.json", "--dataset", "d.jsonl", "--out", "n.json"])
        fields = {"mode": "mode", "steps": "total_steps", "lr": "lr",
                  "batch_size": "batch_size", "buffer": "buffer_capacity",
                  "target_sync": "target_sync", "eps_decay": "eps_decay_steps",
                  "eval_every": "eval_every", "eval_epochs": "eval_epochs"}
        defaults = TrainConfig()
        for dest, field in fields.items():
            assert getattr(args, dest) == getattr(defaults, field), dest

    def test_gen_data_summary_holds_the_default_spec(self, sandbox):
        gen(sandbox, n=50)
        summary = json.loads((sandbox / "ds.jsonl.summary.json").read_text())
        assert summary["spec"] == json.loads(json.dumps(asdict(default_spec())))


def fresh(code, *args, cwd=None):
    """The last stdout line of code run in a fresh interpreter, split into words."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         cwd=cwd, env={**os.environ, "PYTHONPATH": src}, check=True)
    return out.stdout.splitlines()[-1].split()


def test_import_leaves_scipy_special_out():
    # scipy.special and scipy.sparse take about half the command line's import
    # time; the process pool is for sweep --jobs alone
    lazy = ("scipy.special", "scipy.sparse", "concurrent.futures")
    code = f"import sys, ehinfer.cli; print(*(m in sys.modules for m in {lazy}))"
    assert fresh(code) == ["False"] * 3


class TestFreshProcess:
    """The test process has imported scipy.sparse already, so only a fresh
    interpreter shows which commands load it."""

    def run(self, sandbox, *argv):
        code = ("import sys; from ehinfer.cli import main; rc = main(sys.argv[1:]); "
                "print(rc, 'scipy.sparse' in sys.modules)")
        return fresh(code, *argv, cwd=sandbox)

    def test_gen_data_leaves_scipy_sparse_out(self, sandbox):
        argv = ["gen-data", "--n", "50", "--seed", "1", "--out", "ds.jsonl"]
        assert self.run(sandbox, *argv) == ["0", "False"]

    def test_simulate_mms_leaves_scipy_sparse_out(self, sandbox):
        ds = gen(sandbox)
        assert main(["solve", "--kind", "mms", "--env", "env.json",
                     "--dataset", str(ds), "--out", "mms.json"]) == 0
        argv = ["simulate", "--env", "env.json", "--dataset", str(ds), "--controller", "mms",
                "--policy", "mms.json", "--episodes", "2", "--epochs", "100",
                "--seed", "0", "--out", "r.csv"]
        assert self.run(sandbox, *argv) == ["0", "False"]

    def test_solve_inc_iag_writes_the_in_process_bytes(self, sandbox):
        argv = ["solve", "--kind", "inc-iag", "--env", "env.json",
                "--rho", "0.005,0.53,0.69,0.83", "--out"]
        assert self.run(sandbox, *argv, "fresh.json") == ["0", "True"]
        assert main(argv + ["here.json"]) == 0
        assert (sandbox / "fresh.json").read_bytes() == (sandbox / "here.json").read_bytes()


class TestFailureMap:
    """`main` maps exceptions to exit codes; the commands leave that to it."""

    @pytest.mark.parametrize("error", [mdp_mod.NotConverged, mdp_mod.SingularEvaluation])
    def test_solver_failure_exits_3(self, sandbox, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("no fixed point")

        monkeypatch.setattr(mdp_mod, "value_iteration", fail)
        assert main(["solve", "--kind", "inc-iag", "--env", "env.json",
                     "--rho", "0.005,0.53,0.69,0.83", "--out", "x.json"]) == 3
        assert "error: solve failed: no fixed point" in capsys.readouterr().err
        assert not (sandbox / "x.json").exists()

    def test_commands_catch_no_broad_error(self):
        # a per-command handler is a second copy of the map in main; the
        # training configuration (exit 4) and a grid's unknown field (a
        # TypeError) are the two that stay
        source = (Path(__file__).resolve().parent.parent / "src" / "ehinfer" / "cli.py").read_text()
        broad = {"ValueError", "RuntimeError", "IndexError", "Exception", "BaseException"}
        allowed = {"cmd_train_dqn": "TrainConfig(", "cmd_sweep": "SweepGrid("}
        caught = []
        for fn in ast.parse(source).body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Try):
                    continue
                body = "\n".join(ast.unparse(stmt) for stmt in node.body)
                for handler in node.handlers:
                    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
                        else [handler.type]
                    names = {"Exception" if t is None else ast.unparse(t).split(".")[-1]
                             for t in types}
                    exempt = fn.name in allowed and allowed[fn.name] in body
                    if names & broad and not exempt:
                        caught.append(f"{fn.name}:{handler.lineno}")
        assert caught == []

    # exit-probs gives the same message (TestExitProbs)
    @pytest.mark.parametrize("accuracies", [[0.005, 0.5, 0.8], [0.005, 0.4, 0.5, 0.7, 0.8]])
    @pytest.mark.parametrize("argv", [
        ["train-dqn", "--steps", "1", "--seed", "0", "--env", "env.json"],
        ["train-dqn", "--steps", "0", "--seed", "0", "--env", "env.json"],
        ["simulate", "--controller", "random", "--epochs", "10", "--seed", "0",
         "--env", "env.json"],
        ["solve", "--kind", "oracle", "--env", "env.json"],
        ["sweep", "--grid", "grid.json", "--seed", "0"],
    ], ids=["train-dqn", "train-dqn-zero-steps", "simulate", "solve-oracle", "sweep"])
    def test_dataset_exit_count_mismatch_has_one_wording(self, sandbox, capsys, argv,
                                                         accuracies):
        (sandbox / "spec.json").write_text(json.dumps({"accuracies": accuracies}))
        (sandbox / "grid.json").write_text(json.dumps({
            "p_g": [0.9], "p_b": [0.5], "pe_g": [0.8], "pe_b": [0.0],
            "b_max": [3], "episodes": 1, "epochs": 1}))
        other = gen(sandbox, "other.jsonl", n=200, extra=("--spec", "spec.json"))
        capsys.readouterr()
        assert main([*argv, "--dataset", str(other), "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert f"{argv[0]} rejected: dataset has {len(accuracies)} exits, " \
               "environment 4 modes" in err
        assert not (sandbox / "out.json").exists()

    def test_one_empty_dataset_check(self):
        # ConfidenceDataset refuses zero records; generate_synthetic's argument
        # check and load_jsonl's per-file message are the other two raises
        src = Path(__file__).resolve().parent.parent / "src" / "ehinfer"
        found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "raise EmptyDataset" in line]
        assert len(found) == 3
        assert all(where.startswith("confidence.py:") for where in found)
