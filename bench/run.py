"""End-to-end and per-layer benchmark of the ehinfer command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
`src/`. One process drives `ehinfer.cli.main(argv)` in-process, closed-loop
with one client: it repeats the workload's command sequence on inputs made
from the seed until `--seconds` is used up (at least two iterations, so
same-seed artifacts can be compared byte for byte), checks every output,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured with tracing off: the
first iteration warms up and sets the reference artifacts, and the time
metrics come from the iterations after it.
--trace 1 alternates untraced and traced iterations; the traced ones wrap
ehinfer's public functions in timing spans (see layers.py) and report the
per-layer metrics, the tracing overhead and the span coverage. Spans are
written to .bench_work/spans-<workload>-seed<n>.jsonl when the run ends.

Only own-process measurement is used: time.perf_counter and
resource.getrusage. Nothing traces the machine and no cache is dropped.
"""

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# BLAS runs on one thread, here and in the set-up interpreters. On a 2-vCPU
# VM whose vCPUs contend for the host's cores, two OpenBLAS threads made one
# `solve --kind inc-iag` take 2.5 to 12.8 s depending on what else ran, one
# thread 6.1 to 6.8 s; and a busy second vCPU slowed pure-Python work on the
# first by up to 2x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
MEASUREMENT = ("own process only: time.perf_counter and resource.getrusage; "
               "no machine-wide tracing, no cache dropping")


def _parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _import_package():
    """Import ehinfer from this checkout's src/, refusing any other copy."""
    if not (SRC / "ehinfer" / "cli.py").is_file():
        sys.exit(f"error: no ehinfer sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ehinfer
    if Path(ehinfer.__file__).resolve().parent != SRC / "ehinfer":
        sys.exit(f"error: imported ehinfer from {ehinfer.__file__}, not from {SRC}")


def _blas(np):
    info = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = None
    info["env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in map(ctypes.CDLL, libs):
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _git_commit():
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:             # no git program
        return "unavailable (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _metadata(args, np, scipy):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas(np), "git_commit": _git_commit(),
        "measurement": MEASUREMENT,
        "loop": "closed, one client, batch: ehinfer.cli.main in-process",
    }


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Bench:
    """One workload at one seed: runs iterations and counts operations."""

    def __init__(self, workload, seed, main):
        self.workload = workload
        self.seed = seed
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.first_digests = None
        self.first_accuracy = None

    def op(self, name, ok, detail=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def _cli(self, argv, span):
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                return self.main(list(argv))
        except Exception:
            traceback.print_exc()
            return None

    def iteration(self, tracer=None):
        """Run the command sequence once; returns wall and per-command times."""
        cmds = self.workload.commands(self.seed)
        times = []
        start = time.perf_counter()
        for cmd in cmds:
            span = tracer.span("cli." + cmd.label) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            rc = self._cli(cmd.argv, span)
            times.append(time.perf_counter() - t0)
            self.op(f"{cmd.label} exits 0", rc == 0, rc)
        wall = time.perf_counter() - start
        self._check(cmds)
        return wall, list(zip(cmds, times))

    def _check(self, cmds):
        try:
            checks = self.workload.check()
            accuracy = self.workload.accuracy()
        except (OSError, KeyError, ValueError) as ex:
            self.op("artifacts readable", False, repr(ex))
            return
        for name, ok, detail in checks:
            self.op(name, ok, detail)
        digests = {}
        for cmd in cmds:
            for out in cmd.outputs:
                digests[out] = _digest(out) if os.path.isfile(out) else None
        if self.first_digests is None:
            self.first_digests, self.first_accuracy = digests, accuracy
            return
        for out, digest in digests.items():
            self.op(f"{out} is byte-identical across same-seed iterations",
                    digest is not None and digest == self.first_digests.get(out))
        self.op("accuracy repeats", accuracy == self.first_accuracy,
                (accuracy, self.first_accuracy))


# The first BLAS/LAPACK calls of a process, where a one-off stall of the
# first solve occasionally lands; every setup pays them before timing starts.
_WARM_UP = "a = np.eye(256) * 256 + 1; np.linalg.solve(a, a[0]); a @ a"
# A fresh interpreter up to "ready": the imports plus the warm-up.
_READY = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import numpy as np, scipy, ehinfer.cli; " + _WARM_UP)


def _setup(workload, seed):
    """Start a fresh interpreter to readiness, then write the inputs.

    Returns the seconds taken. The interpreter is a child process so every
    repetition pays the imports and the BLAS start-up again.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _READY, str(SRC)], check=True)
    workload.prepare(seed)
    return time.perf_counter() - t0


def _measure(seconds, min_rounds, one_round):
    """Repeat one_round while the last round still fits in `seconds`."""
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        one_round()
        last = time.perf_counter() - t0
        rounds += 1


def _end_to_end(bench, seconds, setup_s):
    """Time whole iterations after one untimed warm-up iteration.

    The time metrics are totals over the run divided by the work done
    (mean iteration time, epochs per simulating second). A shared host's
    speed drifts by up to about 1.5x over seconds to minutes; a total weighs
    every second of the run alike, where a median of a few iterations jumps
    with the state most of them fell in.
    """
    start = time.perf_counter()
    bench.iteration()
    walls, timed = [], []

    def one_round():
        wall, cmd_times = bench.iteration()
        walls.append(wall)
        timed.extend(cmd_times)

    _measure(seconds - (time.perf_counter() - start), 1, one_round)

    def total(key):
        return sum(t for c, t in timed if key(c))

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls) / len(walls), "s"),
        "sim_epochs_per_s": (sum(c.epochs for c, _ in timed) / total(lambda c: c.epochs), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy": (bench.first_accuracy, "ratio"),
    }
    # solve_s and train_steps_per_s exist on one workload each, so they are
    # printed with the details rather than in the result line
    extra = {"iterations": (len(walls), "count"),
             "wall_s_median": (statistics.median(walls), "s")}
    solve_s = total(lambda c: c.label.startswith("solve."))
    if solve_s:
        extra["solve_s"] = (solve_s / len(walls), "s")
    train_s = total(lambda c: c.steps)
    if train_s:
        extra["train_steps_per_s"] = (sum(c.steps for c, _ in timed) / train_s, "1/s")
    return metrics, extra, {"wall_s": walls}


def _per_layer(bench, seconds, seed):
    from layers import LAYER_METRICS, install, layer_values
    from tracer import Patches, Tracer

    untraced, traced, values, coverage, spans = [], [], [], [], []

    def one_round():
        untraced.append(bench.iteration()[0])
        tracer = Tracer()
        with Patches() as patches:
            install(tracer, patches)
            with tracer.span("bench.prepare"):
                bench.workload.prepare(seed)
            wall, _ = bench.iteration(tracer)
        bench.op("every wrapped name is restored", patches.restored)
        traced.append(wall)
        values.append(layer_values(tracer))
        top = [st for name, st in tracer.stats.items() if name.startswith("cli.")]
        coverage.append((sum(st.total_s for st in top) / wall * 100,
                         sum(st.total_s - st.self_s for st in top) / wall * 100))
        spans.extend(tracer.records(iteration=len(traced)))

    _measure(seconds, 1, one_round)
    metrics = {name: (statistics.median(v[name] for v in values), unit)
               for name, unit, _, _ in LAYER_METRICS}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.coverage"] = (statistics.median(c[0] for c in coverage), "%")
    metrics["trace.layer_coverage"] = (statistics.median(c[1] for c in coverage), "%")
    extra = {"untraced_wall_s": (statistics.median(untraced), "s"),
             "traced_wall_s": (statistics.median(traced), "s")}
    return metrics, extra, spans


def _declared(section):
    """Metric names and units that BENCHMARK.json lists in `section`."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main():
    import workloads as wl_mod          # importable once src/ is on sys.path

    args = _parse_args(sorted(wl_mod.WORKLOADS))
    import numpy as np
    import scipy
    from ehinfer.cli import main as cli_main

    import_s = time.perf_counter() - _T0
    workload = wl_mod.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        exec(_WARM_UP, {"np": np})
        setup_reps = [_setup(workload, args.seed) for _ in range(SETUP_REPS)]
        setup_s = statistics.median(setup_reps)
        bench = Bench(workload, args.seed, cli_main)
        meta = _metadata(args, np, scipy)
        if args.trace:
            metrics, extra, spans = _per_layer(bench, args.seconds, args.seed)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w") as fh:
                fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")
            samples = {"spans": str(spans_path.relative_to(ROOT))}
        else:
            metrics, extra, samples = _end_to_end(bench, args.seconds, setup_s)
        samples.update(import_s=import_s, setup_reps_s=setup_reps)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    bench.op(f"metrics match the {section} list of BENCHMARK.json",
             _declared(section) == {name: unit for name, (_, unit) in metrics.items()})
    extra["fail_ratio"] = (bench.failed / bench.attempted, "ratio")
    print(json.dumps({"meta": meta, "detail": _as_json(extra), "samples": samples}))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": _as_json(metrics)}))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
