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

from .env import check_positive, json_number


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
            if logits.ndim != 3 or logits.shape[:2] != (z.shape[0], z.shape[1] - 1):
                raise ValueError("logits must be (n_records, K-1, n_classes)")
            if not np.isfinite(logits).all():
                raise ValueError("logits must be finite")
        if labels is not None:
            labels = np.asarray(labels)
            # before the cast: float, bool and object (huge int) labels would convert
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValueError(f"labels must be integers, not {labels.dtype}")
            if labels.shape != (z.shape[0],):
                raise ValueError("labels must be (n_records,)")
            # without logits the bound is the int64 maximum, so uint64 labels cannot wrap
            top = np.iinfo(np.int64).max if logits is None else logits.shape[2] - 1
            if not np.all((labels >= 0) & (labels <= top)):
                raise ValueError(f"labels must lie in [0, {top}]")
            labels = np.ascontiguousarray(labels, dtype=np.int64)
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
    # here, not at the top: scipy.special is the slowest import of the command line
    from scipy.special import betaincinv, ndtr

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
    return dataset.correct.mean(axis=0)


def temperature_scale(dataset):
    """Fit a single softmax temperature by pooled NLL over informed exits.

    Safeguarded Newton on beta = 1/tau, in which the NLL is convex, over tau in
    [0.05, 20] from tau = 1, until a step is within 1e-12*beta; a step past the
    bracket kept by the slope's sign bisects it, or stops at 0.05 or 20 if that
    end is untried. A flat NLL (constant logit rows) gives tau = 1. Returns
    (tau, rescaled dataset), the confidences the max softmax probability at tau.
    Each step walks the logits in blocks of whole records, about JSONL_BLOCK
    numbers each, and keeps a few floats per logit row.
    """
    if dataset.logits is None or dataset.labels is None:
        raise MissingLogits("temperature scaling needs logits and labels")
    n, k, c = dataset.logits.shape
    x = dataset.logits.reshape(n * k, c)
    top = x.max(axis=1)
    d_label = (x[np.arange(n * k), np.repeat(dataset.labels, k)] - top).mean()
    block = k * max(1, JSONL_BLOCK // max(1, k * c))    # rows of whole records
    d_buf, w_buf = np.empty((block, c)), np.empty((block, c))
    # per row, the sums over classes of w = exp(beta*d), w*d and w*d*d, d = x - max
    s0, s1, s2 = np.empty(n * k), np.empty(n * k), np.empty(n * k)
    ends, untried, beta = [0.05, 20.0], [True, True], 1.0
    while True:
        for lo in range(0, n * k, block):
            hi = min(lo + block, n * k)
            d, w = d_buf[:hi - lo], w_buf[:hi - lo]
            np.subtract(x[lo:hi], top[lo:hi, None], out=d)
            np.exp(np.multiply(d, beta, out=w), out=w)
            w.sum(axis=1, out=s0[lo:hi])
            np.einsum("ij,ij->i", w, d, out=s1[lo:hi])
            np.einsum("ij,ij,ij->i", w, d, d, out=s2[lo:hi])
        mean_d = s1 / s0
        slope = mean_d.mean() - d_label
        curve = (s2 / s0 - mean_d * mean_d).mean()
        near = int(slope > 0)           # a positive slope puts the minimum below beta
        ends[near], untried[near] = beta, False
        far = ends[1 - near]
        step = (beta - slope / curve if abs(slope) < curve * abs(far - beta)
                else far if untried[1 - near] else 0.5 * sum(ends))
        if slope == 0 or abs(step - beta) <= 1e-12 * beta:
            break
        beta = step
    z = dataset.z.copy()
    z[:, 1:] = (1.0 / s0).reshape(n, k)     # 1/S0 is the max softmax probability
    return float(1.0 / beta), ConfidenceDataset(z, dataset.correct, dataset.logits, dataset.labels)


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
    check_positive("tau", tau)
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


# numbers per block of save_jsonl, load_jsonl and temperature_scale: bounds
# the Python objects, or the scratch floats, held at once
JSONL_BLOCK = 8192
_DECODER = json.JSONDecoder()      # load_jsonl's, made once: json.loads adds a call per line
# what each field's block array must hold, and the rule it breaks otherwise: a
# string or a null would be converted later, or keep the blocks from joining
_FIELDS = {"z": (np.number, "z must hold numbers"),
           "correct": (np.number, "correct must hold numbers"),
           "logits": (np.number, "logits must hold numbers"),
           "label": (np.integer, "labels must be integers")}


def _words(values):
    """repr of each entry of a 1-D float64 or int64 array, formatting repeated ones once.

    Floats are told apart by their bits, so -0.0 and 0.0 keep their own
    words. repr is json's encoding of an int and of a finite float.
    """
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    # indexing the words back costs about what formatting one number in
    # twenty does, so nearly distinct values (a real network's logits) are
    # formatted where they stand
    if 10 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > 9 * len(bits):
        return list(map(repr, values.tolist()))
    keys, inverse = np.unique(bits, return_inverse=True)
    words = np.array(list(map(repr, keys.view(values.dtype).tolist())), dtype=object)
    return words[inverse].tolist()


def _lists(words, count):
    """The JSON list text of each of `count` equal runs of words, in order."""
    width = len(words) // count if count else 0
    return ["[" + ", ".join(words[i * width:(i + 1) * width]) + "]" for i in range(count)]


def save_jsonl(dataset, path):
    """Write one JSON object per record: z, correct, optional logits/label.

    The bytes are those of json.dumps on each record's dict, keys in that
    order. Records go out in blocks of about JSONL_BLOCK numbers, a record
    wider than that in a block of its own, and a number repeated within a
    block is formatted once; only one block's words exist at a time.
    """
    n, k = dataset.z.shape
    logits, labels = dataset.logits, dataset.labels
    keys = ['"z": ', '"correct": ']
    width = 2 * k
    if logits is not None:
        keys.append('"logits": ')
        width += logits[0].size
    if labels is not None:
        keys.append('"label": ')
        width += 1
    step = max(1, JSONL_BLOCK // width)
    with open(path, "w") as fh:
        for start in range(0, n, step):
            blk = slice(start, min(start + step, n))
            m = blk.stop - start
            fields = [_lists(_words(dataset.z[blk].ravel()), m),
                      _lists(_words(dataset.correct[blk].ravel().astype(np.int64)), m)]
            if logits is not None:
                rows = _lists(_words(logits[blk].ravel()), m * logits.shape[1])
                fields.append(_lists(rows, m))
            if labels is not None:
                fields.append(_words(labels[blk]))
            fh.write("".join(["{" + ", ".join(map(str.__add__, keys, record)) + "}\n"
                              for record in zip(*fields)]))


def _holds_bool(value):
    """Whether a JSON value is true or false, or is a list that nests one."""
    # bool is a subclass of int, so the type is compared exactly
    return type(value) is bool or (type(value) is list and any(map(_holds_bool, value)))


def _to_arrays(rows, blocks, first, last):
    """Move the rows of each field read from lines first to last into an array;
    returns how many numbers they hold."""
    numbers = 0
    for key, vals in rows.items():
        if vals:
            arr = np.asarray(vals)
            kind, rule = _FIELDS[key]
            if not np.issubdtype(arr.dtype, kind):
                lines = f"line {first}" if first == last else f"lines {first}-{last}"
                raise ValueError(f"{lines}: {rule}, not {arr.dtype}")
            blocks[key].append(arr)
            numbers += arr.size
            vals.clear()
    return numbers


def load_jsonl(path):
    """The dataset of a save_jsonl file; a line that is not exactly one JSON
    document, or a field holding anything but JSON numbers (integers for the
    label), is a ValueError.

    Records are read in blocks of about JSONL_BLOCK numbers, the first block
    one record, and each block becomes arrays before the next is read.
    """
    rows = {key: [] for key in _FIELDS}         # the block being read
    blocks = {key: [] for key in _FIELDS}       # the arrays of the blocks read
    step, first, i = 1, 1, 0
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            row, end = _DECODER.raw_decode(line)
            if end != len(line):
                raise ValueError(f"line {i}: data after the record")
            if type(row) is not dict:
                raise ValueError(f"line {i}: a record must be a JSON object")
            # records hold no strings and no key holds a "u" or an "f", so a line
            # without them holds no true or false; one letter is a fast search
            if "u" in line or "f" in line:
                for key in _FIELDS:
                    if _holds_bool(row.get(key)):
                        raise ValueError(f"line {i}: {key} must hold numbers, not true or false")
            rows["z"].append(row["z"])
            rows["correct"].append(row["correct"])
            if "logits" in row:
                rows["logits"].append(row["logits"])
            if "label" in row:
                rows["label"].append(row["label"])
            if len(rows["z"]) == step:
                numbers = _to_arrays(rows, blocks, first, i)
                if len(blocks["z"]) == 1:       # the one-record first block gives the width
                    step = max(1, JSONL_BLOCK // max(1, numbers))
                first = i + 1
    if rows["z"]:
        _to_arrays(rows, blocks, first, i)
    n = sum(map(len, blocks["z"]))
    if not n:
        raise EmptyDataset(f"no records in {path}")
    for name in ("logits", "label"):
        count = sum(map(len, blocks[name]))
        if 0 < count < n:
            raise ValueError(f"{count} of {n} records carry {name}; need all or none")
    return ConfidenceDataset(*(np.concatenate(blocks.pop(key)) if blocks[key] else None
                               for key in _FIELDS))
