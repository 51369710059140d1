import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from ehinfer import mdp as mdp_mod
from ehinfer.cli import build_parser, main
from ehinfer.confidence import default_spec, load_jsonl
from ehinfer.dqn import TrainConfig
from ehinfer.env import NonErgodicChain, two_state_env
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

    def test_oracle_requires_dataset(self, sandbox):
        assert main(["solve", "--kind", "oracle", "--env", "env.json",
                     "--out", "x.json"]) == 2

    @pytest.mark.parametrize("field,value", [("z", float("nan")), ("correct", 2)])
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

    @pytest.mark.parametrize("key,value", [("T", 3.7), ("b_max", "3"), ("gamma", "0.9")])
    def test_non_numeric_env_field_is_input_error(self, sandbox, capsys, key, value):
        env = json.loads((sandbox / "env.json").read_text())
        (sandbox / "env.json").write_text(json.dumps(dict(env, **{key: value})))
        assert main(["solve", "--kind", "mms", "--env", "env.json",
                     "--rho", "0.005,0.5,0.7,0.8", "--out", "p.json"]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    def test_missing_env_file(self, sandbox):
        assert main(["solve", "--kind", "mms", "--env", "nope.json",
                     "--rho", "0.1,0.2,0.3,0.4", "--out", "x.json"]) == 2

    @pytest.mark.parametrize("kind", ["inc-iag", "oracle"])
    @pytest.mark.parametrize("eps", ["0", "-1e-6"])
    def test_nonpositive_eps_is_input_error(self, sandbox, capsys, kind, eps):
        ds = gen(sandbox, n=200)
        assert main(["solve", "--kind", kind, "--env", "env.json", "--dataset", str(ds),
                     f"--eps={eps}", "--out", "x.json"]) == 2
        assert "eps must be positive" in capsys.readouterr().err

    def test_non_ergodic_chain_stays_a_solver_failure(self, sandbox, monkeypatch):
        # NonErgodicChain is a ValueError, but not an input error
        def refuse(*args, **kwargs):
            raise NonErgodicChain("chain is reducible or periodic")

        monkeypatch.setattr(mdp_mod, "policy_iteration", refuse)
        assert main(["solve", "--kind", "mms", "--env", "env.json",
                     "--rho", "0.005,0.53,0.69,0.83", "--out", "x.json"]) == 3


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

    def test_bad_learning_rate(self, sandbox):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                     "--steps", "100", "--lr", "-1", "--seed", "0",
                     "--out", "net.json"]) == 4

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


    @pytest.mark.parametrize("damage", ["short_bias", "extra_weights"])
    def test_misshapen_checkpoint_is_input_error(self, sandbox, capsys, damage):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", "env.json", "--dataset", str(ds),
                     "--steps", "0", "--seed", "0", "--out", "net.json"]) == 0
        raw = json.loads((sandbox / "net.json").read_text())
        if damage == "short_bias":
            raw["biases"][0] = [0.5]    # broadcast over the whole layer before
        else:
            raw["weights"].append(raw["weights"][-1])    # dropped by a zip before
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

    def test_checkpoint_for_other_env(self, sandbox, other_env, capsys):
        ds = gen(sandbox, n=200)
        assert main(["train-dqn", "--env", other_env, "--dataset", str(ds),
                     "--steps", "0", "--seed", "0", "--out", "net.json"]) == 0
        assert self._simulate(ds, "--checkpoint", "net.json", "inc-dqn") == 2
        assert self._exit_probs(ds, "--checkpoint", "net.json", "inc-dqn") == 2
        assert "environment" in capsys.readouterr().err


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

    def test_fixed_tau_distorts(self, sandbox):
        ds = gen(sandbox)
        rc = main(["calibrate", "--dataset", str(ds), "--tau", "0.5",
                   "--out", "warped.jsonl"])
        assert rc == 0
        warped = load_jsonl(sandbox / "warped.jsonl")
        clean = load_jsonl(ds)
        assert not np.allclose(warped.z[:, 1:], clean.z[:, 1:])
        assert np.array_equal(warped.correct, clean.correct)


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
