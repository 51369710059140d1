import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehinfer import confidence
from ehinfer.confidence import (JSONL_BLOCK, ConfidenceDataset, EmptyDataset, MissingLogits,
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

    @pytest.mark.parametrize("labels,match", [
        ([0.0, 1.0], "integers"), ([True, False], "integers"),
        (np.array([1, 2 ** 70], dtype=object), "integers"),
        ([0, 3], "lie in"), ([-1, 0], "lie in"),
    ])
    def test_labels_must_be_class_indices(self, labels, match):
        with pytest.raises(ValueError, match=match):
            ConfidenceDataset(np.full((2, 2), 0.5), np.zeros((2, 2)), np.zeros((2, 1, 3)), labels)

    def test_labels_without_logits_need_only_be_non_negative(self):
        ds = ConfidenceDataset(np.full((2, 2), 0.5), np.zeros((2, 2)), None, [0, 2 ** 40])
        assert ds.labels.dtype == np.int64
        with pytest.raises(ValueError, match="lie in"):
            ConfidenceDataset(np.full((2, 2), 0.5), np.zeros((2, 2)), None, [0, -3])

    def test_labels_above_the_int64_maximum_rejected(self):
        # an int64 cast would wrap 2**63 + 1 to -(2**63 - 1)
        top = np.iinfo(np.int64).max
        z, correct = np.full((2, 2), 0.5), np.zeros((2, 2))
        with pytest.raises(ValueError, match="lie in"):
            ConfidenceDataset(z, correct, None, np.array([0, top + 2], dtype=np.uint64))
        ds = ConfidenceDataset(z, correct, None, np.array([0, top], dtype=np.uint64))
        assert ds.labels.tolist() == [0, top]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad):
        logits = np.zeros((2, 1, 3))
        logits[1, 0, 2] = bad
        with pytest.raises(ValueError, match="logits must be finite"):
            ConfidenceDataset(np.full((2, 2), 0.5), np.zeros((2, 2)), logits)

    def test_arrays_read_only(self, big_dataset):
        with pytest.raises(ValueError):
            big_dataset.z[0, 0] = 0.5


@contextmanager
def _traced_peak():
    """Yields a one-item list that holds, on exit, the tracemalloc peak in bytes
    above what was allocated on entry."""
    peak = [None]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield peak
        peak[0] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# planted temperatures inside the bracket, and past both of its ends
_PLANTED = [
    (default_spec(), 21, 1.0),
    (default_spec(), 22, 0.5),
    (default_spec(), 23, 2.0),
    (default_spec(), 24, 30.0),     # tau clamps at 20
    (default_spec(), 25, 0.01),     # tau clamps at 0.05
    (SyntheticSpec(accuracies=(0.1, 0.6, 0.8), n_classes=10), 26, 1.5),
]


def _planted(spec, seed, scale):
    ds = generate_synthetic(np.random.default_rng(seed), spec, 1000, with_logits=True)
    return ConfidenceDataset(ds.z, ds.correct, ds.logits * scale, ds.labels)


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

    @pytest.mark.parametrize("spec,seed,scale", _PLANTED)
    def test_newton_matches_golden_section(self, spec, seed, scale):
        ds = _planted(spec, seed, scale)
        tau, rescaled = temperature_scale(ds)
        ref = _golden_section_tau(ds)
        assert abs(tau - ref) <= 1e-6
        assert _pooled_nll(ds, tau) <= _pooled_nll(ds, ref) + 1e-12
        at_tau = ConfidenceDataset(ds.z, ds.correct, ds.logits / tau, ds.labels)
        assert np.allclose(rescaled.z, _softmax_conf(at_tau), rtol=0, atol=1e-12)
        assert np.array_equal(rescaled.z[:, 0], ds.z[:, 0])
        assert np.array_equal(rescaled.correct, ds.correct)

    def test_flat_nll_keeps_tau_one(self):
        # constant logit rows give every temperature the same NLL
        logits = np.broadcast_to(np.arange(6.0)[:, None, None], (6, 2, 5))
        ds = ConfidenceDataset(np.full((6, 3), 0.2), np.zeros((6, 3)), logits, np.arange(6) % 5)
        with np.errstate(all="raise"):
            tau, rescaled = temperature_scale(ds)
        assert tau == 1.0
        assert np.allclose(rescaled.z[:, 1:], 0.2, rtol=0, atol=1e-15)

    # one record per block up to the whole array in one block: every bit equal
    @pytest.mark.parametrize("block", [1, 100, JSONL_BLOCK, 10 ** 9])
    @pytest.mark.parametrize("spec,seed,scale", _PLANTED)
    def test_blocks_match_the_whole_array_fit(self, spec, seed, scale, block):
        ds = _planted(spec, seed, scale)
        ref_tau, ref = _whole_array_fit(ds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(confidence, "JSONL_BLOCK", block)
            tau, rescaled = temperature_scale(ds)
        assert tau == ref_tau
        assert np.array_equal(rescaled.z, ref.z)

    def test_fit_memory_is_a_few_floats_per_row(self):
        ds = generate_synthetic(np.random.default_rng(1), default_spec(), 1000,
                                with_logits=True)
        with _traced_peak() as peak:
            temperature_scale(ds)
        # the whole-array fit holds d and exp(beta*d): two 4.8 MB arrays
        assert peak[0] < 2 * 2 ** 20

    @pytest.mark.parametrize("seed", range(8))
    def test_one_record_gives_a_finite_tau_in_the_bracket(self, seed):
        ds = generate_synthetic(np.random.default_rng(seed), default_spec(), 1, with_logits=True)
        with np.errstate(all="raise"):
            taus = [temperature_scale(ds)[0] for _ in range(2)]
        assert taus[0] == taus[1]
        assert np.isfinite(taus[0]) and 0.05 <= taus[0] <= 20


def _softmax_conf(ds):
    z = ds.z.copy()
    for k in range(1, ds.n_exits):
        logits = ds.logits[:, k - 1]
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        z[:, k] = p.max(axis=1)
    return z


def _whole_array_fit(dataset):
    """temperature_scale with d and exp(beta*d) held for every logit at once: the
    slow reference for its record blocks, which must give the same bits."""
    (n, k, _), x = dataset.logits.shape, dataset.logits
    d = (x - x.max(axis=-1, keepdims=True)).reshape(n * k, -1)
    d_label = d[np.arange(n * k), np.repeat(dataset.labels, k)].mean()
    w = np.empty_like(d)
    ends, untried, beta = [0.05, 20.0], [True, True], 1.0
    while True:
        np.exp(np.multiply(d, beta, out=w), out=w)
        s0 = w.sum(axis=1)
        mean_d = np.einsum("ij,ij->i", w, d) / s0
        slope = mean_d.mean() - d_label
        curve = (np.einsum("ij,ij,ij->i", w, d, d) / s0 - mean_d * mean_d).mean()
        near = int(slope > 0)
        ends[near], untried[near] = beta, False
        far = ends[1 - near]
        step = (beta - slope / curve if abs(slope) < curve * abs(far - beta)
                else far if untried[1 - near] else 0.5 * sum(ends))
        if slope == 0 or abs(step - beta) <= 1e-12 * beta:
            break
        beta = step
    z = dataset.z.copy()
    z[:, 1:] = (1.0 / s0).reshape(n, k)
    return float(1.0 / beta), ConfidenceDataset(z, dataset.correct, dataset.logits, dataset.labels)


def _golden_section_tau(ds):
    """The temperature fit as a golden-section search on [0.05, 20] down to an
    interval of 1e-6: the slow reference for temperature_scale's Newton search."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.05, 20.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = _pooled_nll(ds, c), _pooled_nll(ds, d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _pooled_nll(ds, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _pooled_nll(ds, d)
    return 0.5 * (a + b)


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
        # tau = inf set every informed confidence to 1/2
        for tau in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                distort_calibration(big_dataset, tau)

    @given(tau=st.floats(0.25, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_accuracy_invariant(self, tau):
        ds = generate_synthetic(np.random.default_rng(7), default_spec(), 500)
        out = distort_calibration(ds, tau)
        assert np.array_equal(exit_accuracy(out), exit_accuracy(ds))
        # extreme temperatures may saturate to the closed interval ends
        assert np.all(out.z >= 0) and np.all(out.z <= 1)


# finite float64 values at the edges of their JSON text: signed zero,
# subnormals, where repr turns to exponent notation, and the largest
_EDGES = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
          1e-05, 9.999999999999999e-06, 0.0001, 1e16, 9999999999999998.0,
          1.7976931348623157e308, -1.7976931348623157e308, -5e-324, 1.0, 0.1]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES)
_UNIT = st.floats(0.0, 1.0) | st.sampled_from([e for e in _EDGES if 0 <= e <= 1])


def _reference_jsonl(ds):
    """The slow reference writer: json.dumps of each record, element by element."""
    lines = []
    for i in range(len(ds)):
        row = {"z": [float(v) for v in ds.z[i]],
               "correct": [int(v) for v in ds.correct[i]]}
        if ds.logits is not None:
            row["logits"] = [[float(v) for v in vec] for vec in ds.logits[i]]
        if ds.labels is not None:
            row["label"] = int(ds.labels[i])
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def _draw_dataset(data, min_exits):
    """A small dataset of any float64 values and a JSONL_BLOCK that splits it.

    A dataset with logits needs an informed exit to be read back.
    """
    k = data.draw(st.integers(min_exits, 5), label="exits")
    n_classes = data.draw(st.integers(1, 6), label="classes")
    with_logits = data.draw(st.booleans(), label="logits")
    with_labels = data.draw(st.booleans(), label="labels")
    # a small block, so that short datasets cross block boundaries
    block = data.draw(st.integers(1, 64), label="block")
    width = 2 * k + with_logits * (k - 1) * n_classes + with_labels
    per_block = max(1, block // width)
    n = data.draw(st.sampled_from([1, per_block - 1, per_block, per_block + 1,
                                   2 * per_block + 2]).filter(bool), label="records")
    # pools of 1 to 64 values: a block repeats a few of them or holds many
    zs = data.draw(st.lists(_UNIT, min_size=1, max_size=64), label="z values")
    ls = data.draw(st.lists(_FINITE, min_size=1, max_size=64), label="logit values")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    logits = rng.choice(ls, (n, k - 1, n_classes)) if with_logits else None
    labels = None
    if with_labels:
        high = n_classes if with_logits else data.draw(st.integers(1, 2 ** 62), label="high")
        labels = rng.integers(0, high, n)
    ds = ConfidenceDataset(rng.choice(zs, (n, k)), rng.integers(0, 2, (n, k)), logits, labels)
    return ds, block


def _assert_same(back, ds):
    """Every array of two datasets equal, bit for bit, in the same dtype."""
    for name in ("z", "correct", "logits", "labels"):
        a, b = getattr(back, name), getattr(ds, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype, name
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name


def _whole_file_load(path):
    """load_jsonl with every record held as Python lists until the end: the slow
    reference for its blocks. It lets numeric strings through."""
    def holds_bool(value):
        return type(value) is bool or (type(value) is list and any(map(holds_bool, value)))

    zs, cs, ls, ys = [], [], [], []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            row, end = json.JSONDecoder().raw_decode(line)
            if end != len(line):
                raise ValueError(f"line {i}: data after the record")
            for key in ("z", "correct", "logits", "label"):
                if holds_bool(row.get(key)):
                    raise ValueError(f"line {i}: {key} must hold numbers, not true or false")
            zs.append(row["z"])
            cs.append(row["correct"])
            if "logits" in row:
                ls.append(row["logits"])
            if "label" in row:
                ys.append(row["label"])
    if not zs:
        raise EmptyDataset(f"no records in {path}")
    for name, vals in (("logits", ls), ("label", ys)):
        if 0 < len(vals) < len(zs):
            raise ValueError(f"{len(vals)} of {len(zs)} records carry {name}; need all or none")
    logits = np.asarray(ls) if ls else None
    labels = np.asarray(ys) if ys else None
    return ConfidenceDataset(np.asarray(zs), np.asarray(cs), logits, labels)


def _faulty_file(tmp_path, edit, line):
    """Ten records of 13 numbers (3 exits, 3 classes) with edit applied to the
    record on the given line; a JSONL_BLOCK of 26 reads them two to a block."""
    spec = SyntheticSpec(accuracies=(1 / 3, 0.5, 0.7), n_classes=3)
    ds = generate_synthetic(np.random.default_rng(4), spec, 10, with_logits=True)
    lines = _reference_jsonl(ds).splitlines()
    row = json.loads(lines[line - 1])
    edit(row)
    lines[line - 1] = json.dumps(row)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


_FAULTS = {
    "ragged-z": lambda row: row["z"].pop(),
    "ragged-logits": lambda row: row["logits"][1].pop(),
    "float-label": lambda row: row.__setitem__("label", 1.0),
    "boolean": lambda row: row["correct"].__setitem__(1, True),
    "string": lambda row: row["z"].__setitem__(1, "0.5"),
    "partial-logits": lambda row: row.pop("logits"),
    "partial-label": lambda row: row.pop("label"),
}

_STRINGS = {
    "z": lambda row: row["z"].__setitem__(2, "0.5"),
    "correct": lambda row: row["correct"].__setitem__(1, "1"),
    "logits": lambda row: row["logits"][1].__setitem__(0, "-1.25"),
    "label": lambda row: row.__setitem__("label", "2"),
}


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(np.random.default_rng(5), default_spec(), 64,
                                with_logits=True)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        _assert_same(load_jsonl(path), ds)

    @pytest.mark.parametrize("with_logits", [True, False])
    def test_bytes_match_per_element_writer(self, tmp_path, with_logits):
        ds = generate_synthetic(np.random.default_rng(7), default_spec(), 32,
                                with_logits=with_logits)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        assert path.read_text() == _reference_jsonl(ds)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_per_element_writer_on_any_numbers(self, tmp_path_factory, data):
        ds, block = _draw_dataset(data, min_exits=1)
        path = tmp_path_factory.mktemp("jsonl") / "ds.jsonl"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(confidence, "JSONL_BLOCK", block)
            save_jsonl(ds, path)
        assert path.read_text() == _reference_jsonl(ds)

    # repr text of a float64 reads back to the same bits, across reader blocks
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_on_any_numbers(self, tmp_path_factory, data):
        ds, block = _draw_dataset(data, min_exits=2)
        path = tmp_path_factory.mktemp("jsonl") / "ds.jsonl"
        save_jsonl(ds, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(confidence, "JSONL_BLOCK", block)
            _assert_same(load_jsonl(path), ds)

    # the same file read whole and in blocks, with whole numbers in some records
    # written as JSON integers and blank lines between records
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_the_whole_file_reader(self, tmp_path_factory, data):
        ds, block = _draw_dataset(data, min_exits=2)
        lines = []
        for line in _reference_jsonl(ds).splitlines():
            if data.draw(st.booleans(), label="integers"):
                row = json.loads(line)
                row["z"] = [int(v) if v.is_integer() else v for v in row["z"]]
                line = json.dumps(row)
            lines += [""] * data.draw(st.integers(0, 1), label="blank") + [line]
        path = tmp_path_factory.mktemp("jsonl") / "ds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(confidence, "JSONL_BLOCK", block)
            _assert_same(load_jsonl(path), _whole_file_load(path))

    # a small block puts line 1 in the one-record first block and line 7 in a later one
    @pytest.mark.parametrize("line", [1, 7])
    @pytest.mark.parametrize("fault", _FAULTS)
    def test_malformed_file_is_refused_in_any_block(self, tmp_path, fault, line):
        path = _faulty_file(tmp_path, _FAULTS[fault], line)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(confidence, "JSONL_BLOCK", 26)
            with pytest.raises(ValueError):
                load_jsonl(path)
        if fault != "string":           # the whole-file reader converts numeric strings
            with pytest.raises(ValueError):
                _whole_file_load(path)

    # np.asarray turns ["0.5", 0.25] into text and ConfidenceDataset the text into floats
    @pytest.mark.parametrize("line,where", [(1, "line 1"), (7, "lines 6-7")])
    @pytest.mark.parametrize("field", _STRINGS)
    def test_json_strings_rejected(self, tmp_path, field, line, where):
        path = _faulty_file(tmp_path, _STRINGS[field], line)
        rule = "labels must be integers" if field == "label" else f"{field} must hold numbers"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(confidence, "JSONL_BLOCK", 26)
            with pytest.raises(ValueError, match=f"{where}: {rule}"):
                load_jsonl(path)

    # every third logit repeated, or nearly all distinct like a real network's
    @pytest.mark.parametrize("stride", [3, 1000])
    def test_record_wider_than_a_block(self, tmp_path, stride):
        rng = np.random.default_rng(8)
        n_classes = JSONL_BLOCK + 9
        logits = rng.normal(0.0, 7.0, (3, 2, n_classes))
        logits[:, :, ::stride] = -0.0
        logits[:, :, 1::stride] = 0.0
        ds = ConfidenceDataset(rng.random((3, 3)), rng.integers(0, 2, (3, 3)), logits,
                               [257, n_classes - 1, 4096])
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        assert path.read_text() == _reference_jsonl(ds)

    def test_writer_memory_is_one_block(self, tmp_path):
        ds = generate_synthetic(np.random.default_rng(1), default_spec(), 1000,
                                with_logits=True)
        with _traced_peak() as peak:
            save_jsonl(ds, tmp_path / "ds.jsonl")
        # a whole-file build holds every word of the 12 MB file at once
        assert peak[0] < 2 * 2 ** 20

    def test_reader_memory_is_the_arrays_and_one_block(self, tmp_path):
        ds = generate_synthetic(np.random.default_rng(1), default_spec(), 1000,
                                with_logits=True)
        save_jsonl(ds, tmp_path / "ds.jsonl")
        with _traced_peak() as peak:
            load_jsonl(tmp_path / "ds.jsonl")
        # the blocks and the joined arrays take 9.6 MB; the whole file as
        # Python lists takes about 25 MB
        assert peak[0] < 11 * 2 ** 20

    # a list or a string with a "u" or an "f" once reached row.get (AttributeError),
    # a number or null a subscript (TypeError)
    @pytest.mark.parametrize("line", ['["fu"]', '"fu"', "5", "null"])
    def test_line_that_is_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"z": [0.25, 0.5], "correct": [0, 1]}\n' + line + "\n")
        with pytest.raises(ValueError, match="line 2: a record must be a JSON object"):
            load_jsonl(path)

    def test_label_above_the_int64_maximum_rejected(self, tmp_path):
        # numpy reads it as uint64, which an int64 cast wrapped to -(2**63 - 1)
        path = tmp_path / "ds.jsonl"
        path.write_text('{"z": [0.25, 0.5], "correct": [0, 1], "label": 9223372036854775809}\n')
        with pytest.raises(ValueError, match="labels must lie in"):
            load_jsonl(path)

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

    # np.asarray turns [0.5, true] into floats and [1, true] into integers,
    # so a boolean inside a number list has to be caught while the rows are read
    @pytest.mark.parametrize("field,value", [
        ("z", True), ("correct", True), ("correct", False), ("logits", False), ("label", True),
    ])
    def test_json_booleans_rejected(self, tmp_path, field, value):
        ds = generate_synthetic(np.random.default_rng(5), default_spec(), 8,
                                with_logits=True)
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        if field == "label":
            row["label"] = value
        elif field == "logits":
            row["logits"][1][3] = value
        else:
            row[field][2] = value
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 3: {field} must hold numbers"):
            load_jsonl(path)
