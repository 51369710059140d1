"""Per-exit confidence data: synthetic generation, calibration, reliability.

A record holds, for one input, the model's confidence z at every exit of a
K-exit classifier together with a correctness bit per exit. Exit 0 is the
free random predictor: its confidence is pinned at 1/n_classes. Optional
per-exit logits support temperature scaling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, log_softmax, ndtr

from .env import json_number


class EmptyDataset(ValueError):
    """Operation requires at least one record."""


class MissingLogits(ValueError):
    """Operation requires per-exit logits, which this dataset lacks."""


class ConfidenceDataset:
    """Column-oriented store of confidence records.

    Arrays are read-only after construction; derived datasets (temperature
    scaled, distorted) are new objects.
    """

    def __init__(self, z, correct, logits=None, labels=None):
        z = np.ascontiguousarray(z, dtype=float)
        correct = np.asarray(correct)
        if z.ndim != 2 or z.shape != correct.shape:
            raise ValueError("z and correct must both be (n_records, K)")
        if z.shape[0] == 0:
            raise EmptyDataset("dataset has no records")
        if not np.all((z >= 0) & (z <= 1)):
            raise ValueError("confidences must be finite and lie in [0, 1]")
        if not np.all((correct == 0) | (correct == 1)):
            raise ValueError("correctness bits must be 0 or 1")
        correct = np.ascontiguousarray(correct, dtype=np.int8)
        if logits is not None:
            logits = np.ascontiguousarray(logits, dtype=float)
            if logits.shape[:2] != (z.shape[0], z.shape[1] - 1):
                raise ValueError("logits must be (n_records, K-1, n_classes)")
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (z.shape[0],):
                raise ValueError("labels must be (n_records,)")
        for arr in (z, correct, logits, labels):
            if arr is not None:
                arr.setflags(write=False)
        self.z = z
        self.correct = correct
        self.logits = logits
        self.labels = labels

    def __len__(self):
        return self.z.shape[0]

    @property
    def n_exits(self):
        return self.z.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic confidence generator.

    n_classes must be an integer >= 2. accuracies[k] is the target
    marginal accuracy of exit k; entry 0 must equal 1/n_classes.
    difficulty_correlation is the latent pairwise correlation across
    informed exits (hard inputs are hard everywhere), concentration the
    Beta precision of each confidence marginal.
    """

    accuracies: tuple
    n_classes: int = 200
    difficulty_correlation: float = 0.6
    concentration: float = 8.0

    def __post_init__(self):
        object.__setattr__(self, "accuracies",
                           tuple(float(json_number("each accuracy", a)) for a in self.accuracies))
        for name in ("difficulty_correlation", "concentration"):
            object.__setattr__(self, name, float(json_number(name, getattr(self, name))))
        # bool is a subclass of int, so the type is compared exactly
        if type(self.n_classes) is not int or self.n_classes < 2:
            raise ValueError(f"n_classes must be an integer >= 2, not {self.n_classes!r}")
        if len(self.accuracies) < 2:
            raise ValueError("need the free exit plus at least one informed exit")
        if abs(self.accuracies[0] - 1.0 / self.n_classes) > 1e-12:
            raise ValueError("accuracies[0] must equal 1/n_classes")
        if not all(0 < a < 1 for a in self.accuracies):
            raise ValueError("accuracies must lie in (0, 1)")
        if not 0 <= self.difficulty_correlation < 1:
            raise ValueError("difficulty_correlation must lie in [0, 1)")
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")

    @property
    def n_exits(self):
        return len(self.accuracies)


def default_spec():
    """Four-exit profile used throughout the reference experiments."""
    return SyntheticSpec(accuracies=(1.0 / SyntheticSpec.n_classes, 0.53, 0.69, 0.83))


def generate_synthetic(rng, spec, n_records, with_logits=False):
    """Sample a calibrated dataset from a one-factor Gaussian copula.

    Informed exits share a latent difficulty factor with pairwise
    correlation spec.difficulty_correlation; each exit's confidence has a
    Beta marginal with mean spec.accuracies[k], and correctness is
    Bernoulli(z) given the confidence, so the data are calibrated per exit
    by construction. Exit 0 is the constant 1/n_classes guess.

    with_logits additionally emits per-exit logit vectors whose softmax at
    temperature 1 reproduces z at the predicted class, for exercising
    temperature scaling.
    """
    if n_records < 1:
        raise EmptyDataset("n_records must be >= 1")
    k_inf = spec.n_exits - 1
    r = spec.difficulty_correlation
    shared = rng.standard_normal((n_records, 1))
    own = rng.standard_normal((n_records, k_inf))
    latent = np.sqrt(r) * shared + np.sqrt(1.0 - r) * own
    u = np.clip(ndtr(latent), 1e-12, 1.0 - 1e-12)
    z = np.empty((n_records, spec.n_exits))
    z[:, 0] = 1.0 / spec.n_classes
    nu = spec.concentration
    for k in range(1, spec.n_exits):
        a = spec.accuracies[k] * nu
        b = (1.0 - spec.accuracies[k]) * nu
        z[:, k] = betaincinv(a, b, u[:, k - 1])
    correct = (rng.random((n_records, spec.n_exits)) < z).astype(np.int8)

    logits = labels = None
    if with_logits:
        c = spec.n_classes
        labels = rng.integers(c, size=n_records)
        # peak class = label when correct, else a uniformly drawn other class
        offsets = rng.integers(1, c, size=(n_records, k_inf))
        peaks = np.where(
            correct[:, 1:] == 1,
            labels[:, None],
            (labels[:, None] + offsets) % c,
        )
        zi = np.clip(z[:, 1:], 1e-9, 1.0 - 1e-9)
        rest = np.log((1.0 - zi) / (c - 1))
        logits = np.broadcast_to(rest[:, :, None], (n_records, k_inf, c)).copy()
        rows = np.arange(n_records)[:, None]
        cols = np.arange(k_inf)[None, :]
        logits[rows, cols, peaks] = np.log(zi)
    return ConfidenceDataset(z, correct, logits, labels)


def exit_accuracy(dataset):
    """Empirical accuracy of each exit."""
    if len(dataset) == 0:
        raise EmptyDataset("dataset has no records")
    return dataset.correct.mean(axis=0)


def _pooled_nll(logits, labels, tau):
    # logits: (N, K-1, C); pooled mean NLL over records and informed exits
    lp = log_softmax(logits / tau, axis=-1)
    picked = lp[np.arange(len(labels)), :, labels]
    return -picked.mean()


def temperature_scale(dataset):
    """Fit a single softmax temperature by pooled NLL over informed exits.

    Golden-section search on [0.05, 20] down to an interval of 1e-6; the
    NLL is unimodal in the temperature for softmax families. Returns (tau,
    rescaled dataset) where the new confidences are the max softmax
    probability at tau.
    """
    if len(dataset) == 0:
        raise EmptyDataset("dataset has no records")
    if dataset.logits is None or dataset.labels is None:
        raise MissingLogits("temperature scaling needs logits and labels")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.05, 20.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _pooled_nll(dataset.logits, dataset.labels, c)
    fd = _pooled_nll(dataset.logits, dataset.labels, d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _pooled_nll(dataset.logits, dataset.labels, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _pooled_nll(dataset.logits, dataset.labels, d)
    tau = 0.5 * (a + b)
    probs = np.exp(log_softmax(dataset.logits / tau, axis=-1))
    z = dataset.z.copy()
    z[:, 1:] = probs.max(axis=-1)
    return tau, ConfidenceDataset(z, dataset.correct, dataset.logits, dataset.labels)


def distort_calibration(dataset, tau):
    """Reparameterize confidences of informed exits while keeping outcomes.

    Exit k gets a logit-temperature distortion at temperature tau**(K-k):
    z -> z**(1/t) / (z**(1/t) + (1-z)**(1/t)) with t = tau**(K-k), so the
    earliest exit is distorted the most and the deepest the least
    (shallow exits of multi-exit classifiers are the worst calibrated).
    tau < 1 pushes confidences toward the extremes (overconfidence above
    1/2) and also flips the cross-exit ordering on some records; tau > 1
    shrinks toward 1/2; tau = 1 is the identity. Correctness bits are
    untouched, so the distorted dataset is miscalibrated by construction.
    The free exit is left alone.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = dataset.z.copy()
    k_exits = dataset.n_exits
    for k in range(1, k_exits):
        t = tau ** (k_exits - k)
        zi = np.clip(z[:, k], 1e-12, 1.0 - 1e-12)
        p = zi ** (1.0 / t)
        q = (1.0 - zi) ** (1.0 / t)
        z[:, k] = p / (p + q)
    return ConfidenceDataset(z, dataset.correct, dataset.logits, dataset.labels)


def reliability_report(dataset):
    """Ten equal-width reliability bins and expected calibration error per exit.

    Returns (bins, ece) with bins of shape (K, 10, 3) holding mean
    confidence, empirical accuracy, and count per bin (NaN stats for empty
    bins), and ece of shape (K,).
    """
    if len(dataset) == 0:
        raise EmptyDataset("dataset has no records")
    n_bins = 10
    k_exits = dataset.n_exits
    bins = np.full((k_exits, n_bins, 3), np.nan)
    bins[:, :, 2] = 0.0
    ece = np.zeros(k_exits)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    n = len(dataset)
    for k in range(k_exits):
        which = np.clip(np.digitize(dataset.z[:, k], edges[1:-1]), 0, n_bins - 1)
        for j in range(n_bins):
            mask = which == j
            cnt = int(mask.sum())
            bins[k, j, 2] = cnt
            if cnt:
                conf = dataset.z[mask, k].mean()
                acc = dataset.correct[mask, k].mean()
                bins[k, j, 0] = conf
                bins[k, j, 1] = acc
                ece[k] += (cnt / n) * abs(acc - conf)
    return bins, ece


def save_jsonl(dataset, path):
    """Write one JSON object per record: z, correct, optional logits/label."""
    # row by row, so only one record's Python floats exist at a time
    with open(path, "w") as fh:
        for i in range(len(dataset)):
            row = {"z": dataset.z[i].tolist(), "correct": dataset.correct[i].tolist()}
            if dataset.logits is not None:
                row["logits"] = dataset.logits[i].tolist()
            if dataset.labels is not None:
                row["label"] = int(dataset.labels[i])
            fh.write(json.dumps(row) + "\n")


def load_jsonl(path):
    zs, cs, ls, ys = [], [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
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
            raise ValueError(f"{len(vals)} of {len(zs)} records carry {name}; "
                             "need all or none")
    logits = np.asarray(ls) if ls else None
    labels = np.asarray(ys) if ys else None
    return ConfidenceDataset(np.asarray(zs), np.asarray(cs), logits, labels)

