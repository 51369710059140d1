import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehinfer.confidence import (ConfidenceDataset, EmptyDataset, MissingLogits,
                                SyntheticSpec, default_spec,
                                distort_calibration, exit_accuracy,
                                generate_synthetic, load_jsonl,
                                reliability_report, save_jsonl,
                                temperature_scale)


@pytest.fixture(scope="module")
def big_dataset():
    return generate_synthetic(np.random.default_rng(42), default_spec(), 100_000)


class TestGenerator:
    def test_marginal_accuracies(self, big_dataset):
        acc = exit_accuracy(big_dataset)
        targets = default_spec().accuracies
        assert acc[0] == pytest.approx(targets[0], abs=0.003)
        for k in range(1, 4):
            assert acc[k] == pytest.approx(targets[k], abs=0.01)

    def test_calibrated_by_construction(self, big_dataset):
        bins, ece = reliability_report(big_dataset)
        # every informed exit: mean confidence tracks accuracy bin by bin
        for k in range(1, big_dataset.n_exits):
            for conf, acc, count in bins[k]:
                if count >= 500:
                    assert abs(conf - acc) <= 0.02
        assert np.all(ece[1:] <= 0.02)

    def test_confidence_range(self, big_dataset):
        assert np.all(big_dataset.z > 0)
        assert np.all(big_dataset.z < 1)
        assert set(np.unique(big_dataset.correct)) <= {0, 1}

    def test_difficulty_correlation_positive(self, big_dataset):
        # the latent factor shows up strongly in confidences and, diluted by
        # the Bernoulli draw, more weakly in the correctness bits
        z, c = big_dataset.z, big_dataset.correct
        assert np.corrcoef(z[:, 2], z[:, 3])[0, 1] > 0.4
        assert np.corrcoef(c[:, 2], c[:, 3])[0, 1] > 0.03

    def test_zero_correlation_independent(self):
        spec = SyntheticSpec(accuracies=(0.005, 0.5, 0.7),
                             difficulty_correlation=0.0)
        ds = generate_synthetic(np.random.default_rng(0), spec, 50_000)
        r = np.corrcoef(ds.correct[:, 1], ds.correct[:, 2])[0, 1]
        assert abs(r) < 3.0 / np.sqrt(len(ds))

    def test_free_exit_is_chance(self, big_dataset):
        assert np.all(big_dataset.z[:, 0] == big_dataset.z[0, 0])
        assert big_dataset.z[0, 0] == pytest.approx(1 / 200)

    def test_deterministic_given_seed(self):
        a = generate_synthetic(np.random.default_rng(9), default_spec(), 256)
        b = generate_synthetic(np.random.default_rng(9), default_spec(), 256)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.correct, b.correct)

    def test_spec_accuracy_zero_must_be_chance(self):
        with pytest.raises(ValueError):
            SyntheticSpec(accuracies=(0.5, 0.6, 0.7), n_classes=200)

    # accuracies[0] is 1/n_classes wherever that is defined, so only the
    # n_classes check itself can reject the spec
    @pytest.mark.parametrize("n_classes,chance", [
        (0, 0.5), (1, 1.0), (-3, -1 / 3), (200.0, 0.005), (True, 1.0), ("200", 0.005),
        (None, 0.5)])
    def test_spec_n_classes_must_be_an_integer_of_at_least_two(self, n_classes, chance):
        with pytest.raises(ValueError, match="n_classes must be an integer"):
            SyntheticSpec(accuracies=(chance, 0.6), n_classes=n_classes)

    def test_spec_coerces_float_fields(self):
        spec = SyntheticSpec(accuracies=(0.5, 0.6), n_classes=2,
                             difficulty_correlation=0, concentration=8)
        assert type(spec.difficulty_correlation) is float
        assert type(spec.concentration) is float
        with pytest.raises(ValueError):
            SyntheticSpec(accuracies=(0.5, 0.6), n_classes=2, concentration="dense")

    @pytest.mark.parametrize("field,value", [
        ("concentration", "8"), ("concentration", True), ("concentration", None),
        ("difficulty_correlation", "0.5"), ("difficulty_correlation", False),
        ("accuracies", (0.5, "0.6")), ("accuracies", (0.5, True)),
    ])
    def test_spec_fields_must_be_json_numbers(self, field, value):
        fields = {"accuracies": (0.5, 0.6), "n_classes": 2, field: value}
        with pytest.raises(ValueError, match="must be a number"):
            SyntheticSpec(**fields)


class TestDatasetContainer:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            ConfidenceDataset(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence_rejected(self, bad):
        z = np.full((2, 3), 0.5)
        z[1, 2] = bad
        with pytest.raises(ValueError):
            ConfidenceDataset(z, np.zeros((2, 3), dtype=np.int8))

    @pytest.mark.parametrize("bad", [2, -1, 256, 0.5])
    def test_correct_must_be_zero_or_one(self, bad):
        # 256 would wrap to 0 and 0.5 truncate to 0 under an int8 cast
        correct = np.zeros((2, 3))
        correct[0, 1] = bad
        with pytest.raises(ValueError):
            ConfidenceDataset(np.full((2, 3), 0.5), correct)

    def test_arrays_read_only(self, big_dataset):
        with pytest.raises(ValueError):
            big_dataset.z[0, 0] = 0.5


class TestTemperature:
    def test_recovers_planted_temperature(self):
        ds = generate_synthetic(np.random.default_rng(1), default_spec(),
                                20_000, with_logits=True)
        hot = ConfidenceDataset(ds.z, ds.correct, ds.logits * 2.0, ds.labels)
        # logits scaled by 2 are corrected by tau ~= 2
        tau, rescaled = temperature_scale(hot)
        assert tau == pytest.approx(2.0, abs=0.1)
        _, ece_before = reliability_report(
            ConfidenceDataset(_softmax_conf(hot), hot.correct))
        _, ece_after = reliability_report(rescaled)
        assert np.mean(ece_after[1:]) < np.mean(ece_before[1:])

    def test_near_identity_on_calibrated(self):
        ds = generate_synthetic(np.random.default_rng(2), default_spec(),
                                20_000, with_logits=True)
        tau, _ = temperature_scale(ds)
        assert tau == pytest.approx(1.0, abs=0.1)

    def test_fitted_tau_is_nll_minimizer(self):
        ds = generate_synthetic(np.random.default_rng(3), default_spec(),
                                5_000, with_logits=True)
        tau, _ = temperature_scale(ds)
        for other in (tau * 1.2, tau / 1.2):
            assert _pooled_nll(ds, tau) <= _pooled_nll(ds, other) + 1e-9

    def test_missing_logits(self, big_dataset):
        with pytest.raises(MissingLogits):
            temperature_scale(big_dataset)


def _softmax_conf(ds):
    z = ds.z.copy()
    for k in range(1, ds.n_exits):
        logits = ds.logits[:, k - 1]
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        z[:, k] = p.max(axis=1)
    return z


def _pooled_nll(ds, tau):
    total, count = 0.0, 0
    for k in range(1, ds.n_exits):
        logits = ds.logits[:, k - 1] / tau
        m = logits.max(axis=1, keepdims=True)
        logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
        total -= logp[np.arange(len(ds)), ds.labels].sum()
        count += len(ds)
    return total / count


class TestDistortion:
    def test_identity_at_one(self, big_dataset):
        out = distort_calibration(big_dataset, 1.0)
        assert np.allclose(out.z, big_dataset.z)

    def test_sharpening_direction(self, big_dataset):
        out = distort_calibration(big_dataset, 0.5)
        # informed-exit confidences move toward the extremes and, with most
        # mass above 1/2, the mean rises; outcomes are untouched
        assert np.all(out.z[:, 1:].mean(axis=0) > big_dataset.z[:, 1:].mean(axis=0))
        assert np.array_equal(out.correct, big_dataset.correct)
        assert np.allclose(out.z[:, 0], big_dataset.z[:, 0])

    def test_shrinking_direction(self, big_dataset):
        out = distort_calibration(big_dataset, 2.0)
        assert np.all(np.abs(out.z[:, 1:] - 0.5)
                      <= np.abs(big_dataset.z[:, 1:] - 0.5) + 1e-12)

    def test_breaks_calibration(self, big_dataset):
        _, before = reliability_report(big_dataset)
        _, after = reliability_report(distort_calibration(big_dataset, 0.5))
        assert np.all(after[1:] > before[1:])

    def test_earlier_exits_distorted_more(self, big_dataset):
        out = distort_calibration(big_dataset, 0.5)
        shift = np.abs(out.z[:, 1:] - big_dataset.z[:, 1:]).mean(axis=0)
        assert shift[0] > shift[1] > shift[2]

    def test_bad_tau(self, big_dataset):
        with pytest.raises(ValueError):
            distort_calibration(big_dataset, 0.0)

    @given(tau=st.floats(0.25, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_accuracy_invariant(self, tau):
        ds = generate_synthetic(np.random.default_rng(7), default_spec(), 500)
        out = distort_calibration(ds, tau)
        assert np.array_equal(exit_accuracy(out), exit_accuracy(ds))
        # extreme temperatures may saturate to the closed interval ends
        assert np.all(out.z >= 0) and np.all(out.z <= 1)


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(np.random.default_rng(5), default_spec(), 64,
                                with_logits=True)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert np.array_equal(back.z, ds.z)
        assert np.array_equal(back.correct, ds.correct)
        assert np.allclose(back.logits, ds.logits)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("with_logits", [True, False])
    def test_bytes_match_per_element_writer(self, tmp_path, with_logits):
        ds = generate_synthetic(np.random.default_rng(7), default_spec(), 32,
                                with_logits=with_logits)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        lines = []
        for i in range(len(ds)):
            row = {"z": [float(v) for v in ds.z[i]],
                   "correct": [int(v) for v in ds.correct[i]]}
            if with_logits:
                row["logits"] = [[float(v) for v in vec] for vec in ds.logits[i]]
                row["label"] = int(ds.labels[i])
            lines.append(json.dumps(row) + "\n")
        assert path.read_text() == "".join(lines)

    def test_roundtrip_without_logits(self, tmp_path):
        ds = generate_synthetic(np.random.default_rng(6), default_spec(), 16)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert np.array_equal(back.z, ds.z)
        assert back.logits is None

    @pytest.mark.parametrize("field", ["logits", "label"])
    def test_partial_logits_or_labels_rejected(self, tmp_path, field):
        ds = generate_synthetic(np.random.default_rng(5), default_spec(), 8,
                                with_logits=True)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[3])
        del row[field]
        lines[3] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=field):
            load_jsonl(path)
