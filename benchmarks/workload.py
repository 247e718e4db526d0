"""The benchmark's workloads, run one per fresh process by ``run.py``.

    python3 benchmarks/workload.py --phase setup   --workload W --seed S
    python3 benchmarks/workload.py --phase measure --workload W --seed S --seconds T --trace 0|1

``--phase setup`` imports the package and builds the workload's inputs once
and prints the time that took. ``--phase measure --trace 0`` repeats the
workload's round for about ``--seconds``, each round between two runs of a
fixed calibration loop, and reports the median ratio of round time to
calibration time and the process's peak memory. ``--phase measure --trace 1`` runs one pass
untraced, one traced and one untraced again, checks that all three produce
bit-identical outputs, and reports per-layer metrics from the traced pass.
Every training run and CLI command is one checked operation, and so is each
comparison of outputs. The last line printed is one JSON object for
``run.py``.

Only the standard library is imported before the package: the package's
import (and with it numpy's) is part of the measured set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import MODULES, Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_ROUNDS = 3
ACCURACY_FLOOR = 0.90
CALIBRATION_ITERATIONS = 6000  # about 0.1 s on the reference machine

# (name, unit, better, bound): reported by every workload with --trace 0.
END_TO_END = (
    ("round_cal", "ratio", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Callables whose calls, median and tail time per call are reported.
TIMED_CALLABLES = (
    "online.forward_sample",
    "online.backward_sample",
    "online.forward_inference",
    "online.layer_scale_forward",
    "online.layer_scale_backward",
    "online.affine_forward",
    "online.affine_backward",
    "tensor.FeatureMap",
    "net.Mlp.forward_sample",
    "net.Mlp.backward_sample",
    "net.softmax_xent_forward",
    "net.softmax_xent_backward",
    "net.sgd_momentum_step",
    "net.evaluate_accuracy",
    "net.Mlp.forward_batch",
    "net.Mlp.backward_batch",
    "net.DenseLayer.forward",
    "net.DenseLayer.backward",
    "net.Conv2D.forward",
    "net.Conv2D.backward",
    "reference.BatchNorm.forward",
    "reference.BatchNorm.backward",
    "reference.LayerNorm.forward",
    "reference.LayerNorm.backward",
    "experiments.gradient_bias_experiment",
    "experiments.activation_growth_experiment",
    "experiments.equilibrium_experiment",
    "experiments.decay_sweep",
    "emulation.emulate_stream",
    "config.parse_config",
    "cli.main",
    "datasets.generate_dataset",
    "datasets.Dataset.split",
)
# Callables whose calls are also reported per training sample given to train().
PER_SAMPLE_CALLABLES = ("tensor.FeatureMap", "net.sgd_momentum_step")
# Operations of a round whose own time, from the untraced passes of a traced
# run, is reported as a per-layer breakdown of the round.
TRAINING_OPS = ("online_bs1", "online_bs32", "batch_bs32", "layer_bs32")
TIMED_COMMANDS = ("grad-bias", "equilibrium", "sweep")


def _per_layer_spec():
    spec = []
    for name in TIMED_CALLABLES:
        spec += [(f"{name}.calls", "count"), (f"{name}.us_p50", "us"), (f"{name}.us_tail", "us")]
    spec += [(f"{name}.per_sample", "calls/sample") for name in PER_SAMPLE_CALLABLES]
    spec += [(f"{module}.self_s", "s") for module in MODULES]
    spec += [("net.Conv2D.gflops", "GFLOP/s"), ("trace_overhead", "ratio")]
    spec += [(f"{op}_samples_per_s", "1/s") for op in TRAINING_OPS]
    spec += [(f"{op}_val_accuracy", "fraction") for op in TRAINING_OPS]
    spec += [(f"{cmd.replace('-', '_')}_s", "s") for cmd in TIMED_COMMANDS]
    return tuple(spec)


# (name, unit): reported by every workload with --trace 1.
PER_LAYER = _per_layer_spec()


class Ledger:
    """Counts checked operations and keeps the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op}: {problem}")

    def check(self, op: str, fn) -> None:
        """Run one operation; fn returns None or a problem, and an exception is a problem."""
        try:
            problem = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        self.record(op, problem)


@dataclasses.dataclass
class Round:
    """What one round did: seconds and outputs per operation, accuracy per training run."""

    seconds: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict)
    accuracy: dict = dataclasses.field(default_factory=dict)

    def timed(self, op: str, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.seconds[op] = time.perf_counter() - t0


# --------------------------------------------------------------------------
# Training workloads: one train() call per normalizer per round.


@dataclasses.dataclass(frozen=True)
class Training:
    normalizers: tuple[str, ...]
    batch_size: int
    hidden: int
    depth: int
    why: str

    # Criterion 11's data: 3 gaussian blobs in 8 dimensions, 5000 training
    # and 1000 validation samples; one epoch is the fixed sample budget.
    samples = 6000
    val_samples = 1000

    def setup(self, seed: int, scratch: Path):
        from onlinenorm import datasets, net

        spec = datasets.DatasetSpec(kind="gaussian-blobs", classes=3, samples=self.samples, dim=8)
        eta, momentum, _ = net.scale_hyperparams(0.1, 0.9, 1e-4, 32, self.batch_size)
        configs = [
            net.TrainConfig(
                eta=eta,
                momentum=momentum,
                l2=1e-4,
                batch_size=self.batch_size,
                epochs=1,
                seed=seed,
                normalizer=kind,
                alpha_f=0.999,
                alpha_b=0.99,
                hidden=self.hidden,
                depth=self.depth,
            )
            for kind in self.normalizers
        ]
        data = datasets.generate_dataset(spec, seed)
        train_set, val_set = data.split(self.val_samples / self.samples, seed)
        return configs, train_set, val_set

    def round(self, ctx, ledger: Ledger) -> Round:
        """One timed train() call per normalizer."""
        from onlinenorm import net

        configs, train_set, val_set = ctx
        result = Round()
        for cfg in configs:
            op = f"{cfg.normalizer}_bs{cfg.batch_size}"

            def run():
                records, _ = result.timed(op, lambda: net.train(dataclasses.replace(cfg), train_set, val_set))
                result.outputs[op] = repr([dataclasses.astuple(r) for r in records])
                acc = result.accuracy[op] = records[-1].accuracy
                return None if acc > ACCURACY_FLOOR else f"val accuracy {acc} <= {ACCURACY_FLOOR}"

            ledger.check(op, run)
        return result

    def train_samples(self) -> int:
        return (self.samples - self.val_samples) * len(self.normalizers)


# --------------------------------------------------------------------------
# Experiments workload: in-process CLI runs into a temporary --out.

GRAD_BIAS_SAMPLES = 1024
EQ_ETA, EQ_L2 = 0.1, 1e-3
SWEEP_AF, SWEEP_AB = ("0.99", "0.999"), ("0.9", "0.99")
SWEEP_SAMPLES, SWEEP_BATCH = 1000, 4


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_grad_bias(out: Path, stdout: str) -> str | None:
    angles = {int(r["batch_size"]): float(r["mean_angle_deg"]) for r in _read_csv(out / "grad_bias.csv")}
    full = angles[GRAD_BIAS_SAMPLES]
    if not full <= 1e-2:
        return f"full-batch angle {full} > 1e-2"
    if not angles[2] > angles[64]:
        return f"angle(2) {angles[2]} <= angle(64) {angles[64]}"
    return None


def _check_growth(out: Path, stdout: str) -> str | None:
    logs = [math.log(float(r["rms"])) for r in _read_csv(out / "growth.csv")]
    xs = range(len(logs))
    mx, my = statistics.fmean(xs), statistics.fmean(logs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, logs)) / sum((x - mx) ** 2 for x in xs)
    return None if slope > 0.01 else f"log-RMS slope {slope} <= 0.01"


def _check_equilibrium(out: Path, stdout: str) -> str | None:
    rows = _read_csv(out / "equilibrium.csv")
    q = len(rows) * 3 // 4
    wn = statistics.fmean(float(r["weight_norm"]) for r in rows[q:])
    gn = statistics.fmean(float(r["grad_norm"]) for r in rows[q:])
    ratio = wn / (math.sqrt(EQ_ETA / (2.0 * EQ_L2)) * gn)
    return None if 0.8 <= ratio <= 1.25 else f"final-quartile ratio {ratio} outside [0.8, 1.25]"


def _check_emulate(out: Path, stdout: str) -> str | None:
    deviation = float(stdout.strip().rsplit(" ", 1)[-1])
    return None if deviation <= 1e-10 else f"deviation {deviation} > 1e-10"


def _check_sweep(out: Path, stdout: str) -> str | None:
    rows = _read_csv(out / "sweep.csv")
    cells = len(SWEEP_AF) * len(SWEEP_AB)
    return None if len(rows) == cells else f"{len(rows)} sweep rows for {cells} grid cells"


@dataclasses.dataclass(frozen=True)
class Experiments:
    why: str

    def commands(self, seed: int, scratch: Path):
        """(name, argv without --out, output check) for one round."""
        seed_args = ["--seed", str(seed)]
        return (
            # Criterion 08's network and batch sizes, one repetition.
            ("grad-bias", ["grad-bias", "--samples", str(GRAD_BIAS_SAMPLES),
                           "--batch-sizes", "2,4,8,16,32,64", "--reps", "1", *seed_args], _check_grad_bias),
            # Criterion 09 without layer scaling.
            ("growth", ["growth", "--depth", "64", "--sigma-down", "0.05", *seed_args], _check_growth),
            # Criterion 10.
            ("equilibrium", ["equilibrium", "--eta", str(EQ_ETA), "--l2", str(EQ_L2),
                             "--steps", "20000", *seed_args], _check_equilibrium),
            ("emulate-check", ["emulate-check", "--n", "4", "--alpha", "0.99",
                               "--steps", "128", *seed_args], _check_emulate),
            ("sweep", ["sweep", "--config", str(scratch / "sweep.cfg"),
                       "--alpha-f-grid", ",".join(SWEEP_AF), "--alpha-b-grid", ",".join(SWEEP_AB),
                       *seed_args], _check_sweep),
        )

    def setup(self, seed: int, scratch: Path):
        import onlinenorm.cli  # noqa: F401  (importing every module the commands use is set-up)
        from onlinenorm import net

        eta, momentum, _ = net.scale_hyperparams(0.1, 0.9, 1e-4, 32, SWEEP_BATCH)
        (scratch / "sweep.cfg").write_text(
            f"samples = {SWEEP_SAMPLES}\nepochs = 1\nbatch_size = {SWEEP_BATCH}\n"
            f"hidden = 16\neta = {eta!r}\nmomentum = {momentum!r}\n",
            encoding="utf-8",
        )
        return scratch, self.commands(seed, scratch)

    def round(self, ctx, ledger: Ledger) -> Round:
        """One timed cli.main call per command."""
        from onlinenorm import cli

        scratch, commands = ctx
        out_root = Path(tempfile.mkdtemp(prefix="round-", dir=scratch))
        result = Round()
        try:
            for name, argv, check in commands:
                out = out_root / name
                stdout, stderr = io.StringIO(), io.StringIO()

                def run():
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = result.timed(name, lambda: cli.main([*argv, "--out", str(out)]))
                    if code != 0:
                        return f"exit code {code}: {stderr.getvalue().strip()}"
                    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
                    result.outputs[name] = (stdout.getvalue(), files)
                    return check(out, stdout.getvalue())

                ledger.check(name, run)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        return result

    def train_samples(self) -> int:
        return SWEEP_SAMPLES * len(SWEEP_AF) * len(SWEEP_AB)


WORKLOADS = {
    "stream-bs1": Training(
        ("online",), 1, 32, 1,
        "online MLP at batch size 1, the batch-free setting: per-call overhead of online, tensor and per-sample net",
    ),
    "minibatch-bs32": Training(
        ("online", "batch", "layer"), 32, 128, 3,
        "depth-3 width-128 MLP at batch 32 with online, batch, then layer norm: groupable online layer vs batched path",
    ),
    "experiments": Experiments(
        "CLI grad-bias, growth, equilibrium, emulate-check and sweep: conv, spatial BatchNorm, emulation, config",
    ),
}


# --------------------------------------------------------------------------
# Meters: work counted at the boundaries where it happens.


def _conv_forward_flops(args, kwargs) -> float:
    layer, x = args[0], args[1]
    oc, ic, kh, kw = layer.k.shape
    b, _, h, w = x.shape
    return 2.0 * b * oc * (h - kh + 1) * (w - kw + 1) * ic * kh * kw


def _conv_backward_flops(args, kwargs) -> float:
    layer, grad = args[0], args[1]
    oc, ic, kh, kw = layer.k.shape
    b, _, oh, ow = grad.shape
    kernel_grad = 2.0 * b * oc * oh * ow * ic * kh * kw
    input_grad = 2.0 * b * ic * (oh + kh - 1) * (ow + kw - 1) * oc * kh * kw
    return kernel_grad + input_grad


METERS = {
    "net.Conv2D.forward": _conv_forward_flops,
    "net.Conv2D.backward": _conv_backward_flops,
}


def per_layer_metrics(summary: dict, train_samples: int, overhead: float, untraced: list[Round]) -> dict:
    """Every PER_LAYER metric; a callable or operation the workload never ran reports 0."""
    calls = summary["callables"]
    zero = {"calls": 0, "us_p50": 0.0, "us_tail": 0.0, "total_s": 0.0}
    values = {}
    for name in TIMED_CALLABLES:
        st = calls.get(name, zero)
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.us_p50"] = st["us_p50"]
        values[f"{name}.us_tail"] = st["us_tail"]
    for name in PER_SAMPLE_CALLABLES:
        values[f"{name}.per_sample"] = calls.get(name, zero)["calls"] / train_samples
    for module in MODULES:
        values[f"{module}.self_s"] = summary["module_self_s"][module]
    conv_s = sum(calls.get(n, zero)["total_s"] for n in METERS)
    conv_flops = sum(summary["metered"].get(n, 0.0) for n in METERS)
    values["net.Conv2D.gflops"] = conv_flops / conv_s / 1e9 if conv_s > 0 else 0.0
    values["trace_overhead"] = overhead

    def mean_seconds(op):
        times = [r.seconds[op] for r in untraced if op in r.seconds]
        return statistics.fmean(times) if times else 0.0

    samples = Training.samples - Training.val_samples
    for op in TRAINING_OPS:
        s = mean_seconds(op)
        values[f"{op}_samples_per_s"] = samples / s if s > 0 else 0.0
        values[f"{op}_val_accuracy"] = untraced[0].accuracy.get(op, 0.0) if untraced else 0.0
    for cmd in TIMED_COMMANDS:
        values[f"{cmd.replace('-', '_')}_s"] = mean_seconds(cmd)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# --------------------------------------------------------------------------
# Phases.


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def machine_block(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def phase_setup(workload, seed: int, scratch: Path) -> dict:
    t0 = time.perf_counter()
    workload.setup(seed, scratch)
    return {"setup_s": time.perf_counter() - t0}


def calibration_s() -> float:
    """Wall time of a fixed loop of small and medium numpy operations.

    The loop shares no code with the package. On a shared host the speed a
    process gets drifts by tens of percent over minutes; timed between
    rounds, this loop follows that drift, and a round's time divided by the
    loop's times on either side of it does not.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(64, 32)), 0.1 * rng.normal(size=(32, 32))
    xb, wb = rng.normal(size=(32, 128)), 0.05 * rng.normal(size=(128, 128))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        h = x[i % 64] @ w
        h = np.maximum(h - h.mean(), 0.0)
        acc += float(np.sqrt((h * h).mean()))
        if i % 8 == 0:
            acc += float((np.maximum(xb @ wb, 0.0) @ wb.T).sum())
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return seconds


def phase_measure(workload, seed: int, seconds: float, scratch: Path) -> dict:
    """Rounds, each between two calibration loops, until the next would end after `seconds`."""
    ledger = Ledger()
    ctx = workload.setup(seed, scratch)
    rounds: list[Round] = []
    totals: list[float] = []
    cal = [calibration_s()]
    start = time.perf_counter()
    while True:
        r = workload.round(ctx, ledger)
        cal.append(calibration_s())
        if rounds:
            same = r.outputs == rounds[0].outputs
            ledger.record("repeat", None if same else "outputs differ from the first round")
        rounds.append(r)
        totals.append(sum(r.seconds.values()))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(totals) + cal[-1] > seconds:
            break
    ratios = [t / statistics.fmean(pair) for t, pair in zip(totals, zip(cal, cal[1:]))]
    ops = {op: statistics.median(r.seconds[op] for r in rounds if op in r.seconds) for op in rounds[0].seconds}
    return {
        "ledger": ledger,
        "metrics": {"round_cal": statistics.median(ratios), "peak_rss_mb": _peak_rss_mb()},
        "detail": {
            "rounds": len(totals),
            "round_s": totals,
            "median_round_s": statistics.median(totals),
            "calibration_s": cal,
            "median_op_s": ops,
            "val_accuracy": rounds[0].accuracy,
        },
    }


def phase_trace(workload, seed: int, scratch: Path) -> dict:
    ledger = Ledger()
    workload.setup(seed, scratch)

    def timed_pass():
        """Set-up plus one round: (start, end, wall time over the calibration loops around it, round)."""
        c0 = calibration_s()
        lo = time.perf_counter()
        r = workload.round(workload.setup(seed, scratch), ledger)
        hi = time.perf_counter()
        return lo, hi, (hi - lo) / statistics.fmean((c0, calibration_s())), r

    b_lo, b_hi, before_cal, before = timed_pass()
    tracer = Tracer(METERS)
    with tracer:
        patched = tracer.patched
        lo, hi, traced_cal, traced = timed_pass()
    a_lo, a_hi, after_cal, after = timed_pass()
    same = bool(traced.outputs) and traced.outputs == before.outputs == after.outputs
    ledger.record("trace-identical", None if same else "traced outputs differ from untraced outputs")

    summary = summarize(tracer, lo, hi)
    accounted = sum(summary["module_self_s"].values()) + summary["untraced_s"]
    gap = abs(accounted - summary["wall_s"])
    ledger.record(
        "trace-accounting",
        None if gap <= 1e-6 * summary["wall_s"] else f"self times + untraced miss wall time by {gap} s",
    )
    overhead = traced_cal / statistics.fmean((before_cal, after_cal))
    metrics = per_layer_metrics(summary, workload.train_samples(), overhead, [before, after])
    tails = {n: s["tail_percentile"] for n, s in summary["callables"].items() if n in TIMED_CALLABLES}
    return {
        "ledger": ledger,
        "metrics": metrics,
        "detail": {
            "patched_bindings": patched,
            "spans": summary["spans"],
            "traced_wall_s": summary["wall_s"],
            "untraced_in_traced_s": summary["untraced_s"],
            "untraced_pass_s": [b_hi - b_lo, a_hi - a_lo],
            "tail_percentiles": tails,
            "conv_flops_computed_from_shapes": sum(summary["metered"].values()),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.phase == "setup":
            print(json.dumps(phase_setup(workload, args.seed, scratch)))
            return 0
        if args.trace:
            result = phase_trace(workload, args.seed, scratch)
        else:
            result = phase_measure(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it
    ledger = result["ledger"]
    print(
        json.dumps(
            {
                "attempted": ledger.attempted,
                "failures": ledger.failures,
                "metrics": result["metrics"],
                "detail": result["detail"],
                "machine": machine_block(args.seed),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
