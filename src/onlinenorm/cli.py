"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime
failure (including divergence). All files land inside the directory given
by --out; nothing else is written. Commands run with numpy's floating-point
warnings off: each reports a non-finite outcome through its exit code or
its output instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import selftest
from .config import ConfigError, parse_config
from .datasets import DatasetSpec, generate_dataset
from .experiments import (
    activation_growth_experiment,
    decay_sweep,
    equilibrium_experiment,
    gradient_bias_experiment,
)
from .net import DivergenceError, MetricsRecord, TrainConfig, train
from .tensor import make_rng

USAGE_EXIT, CONFIG_EXIT, RUNTIME_EXIT = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="onlinenorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=0):
        p.add_argument("--out", default="out", help="output directory for CSV files")
        p.add_argument("--seed", type=int, default=seed, help="seed override")

    p = sub.add_parser("train", help="train an MLP per a config file")
    p.add_argument("--config", default=None, help="flat key = value config file")
    common(p, seed=None)

    p = sub.add_parser("grad-bias", help="gradient bias versus batch size")
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--batch-sizes", default="2,4,8,16,32,64")
    p.add_argument("--reps", type=int, default=10)
    common(p)

    p = sub.add_parser("growth", help="activation growth under perturbed statistics")
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--sigma-down", type=float, default=0.05)
    p.add_argument("--layer-scaling", action="store_true")
    common(p)

    p = sub.add_parser("equilibrium", help="weight-norm equilibrium of one normalized unit")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=20000)
    common(p)

    p = sub.add_parser("sweep", help="decay-factor grid sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--alpha-f-grid", default="0.9,0.99,0.999,0.9999")
    p.add_argument("--alpha-b-grid", default="0.9,0.99,0.999,0.9999")
    common(p, seed=None)

    p = sub.add_parser("emulate-check", help="grouped kernel vs single-sample steps deviation")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=128)
    common(p)

    sub.add_parser("selftest", help="run the invariant suite")
    return parser


def _load_config(path: str | None, seed: int | None) -> tuple[TrainConfig, DatasetSpec]:
    if path is None:
        cfg, spec = TrainConfig(), DatasetSpec()
    else:
        cfg, spec = parse_config(Path(path).read_text(encoding="utf-8"))
    if seed is not None:
        cfg.seed = seed
    return cfg, spec


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one line per row: the repr of each value, comma-separated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _list(text: str, flag: str, kind=float) -> list:
    """Comma-separated values of a list flag; a malformed one is a configuration error."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list {text!r}: {exc}") from None


def _cmd_train(args) -> int:
    cfg, spec = _load_config(args.config, args.seed)
    data = generate_dataset(spec, cfg.seed)
    train_set, val_set = data.split(0.2, cfg.seed)
    records, _ = train(cfg, train_set, val_set)
    out = _outdir(args)
    header = ",".join(f.name for f in dataclasses.fields(MetricsRecord))
    write_csv(out / "metrics.csv", header, map(dataclasses.astuple, records))
    last = records[-1]
    print(f"trained {cfg.epochs} epochs: loss {last.loss:.4f} accuracy {last.accuracy:.4f}")
    return 0


def _cmd_grad_bias(args) -> int:
    sizes = _list(args.batch_sizes, "--batch-sizes", int)
    report = gradient_bias_experiment(
        args.seed, dataset_size=args.samples, batch_sizes=sizes, repetitions=args.reps
    )
    out = _outdir(args)
    write_csv(out / "grad_bias.csv", "batch_size,mean_angle_deg,std_angle_deg", report.as_rows())
    for b, m, s in report.as_rows():
        print(f"batch {b:5d}: angle {m:7.3f} deg (std {s:.3f})")
    return 0


def _cmd_growth(args) -> int:
    profile = activation_growth_experiment(
        depth=args.depth,
        width=args.width,
        noise=args.noise,
        sigma_down=args.sigma_down,
        layer_scaling=args.layer_scaling,
        seed=args.seed,
    )
    out = _outdir(args)
    write_csv(out / "growth.csv", "layer,rms", enumerate(map(float, profile.rms)))
    print(
        f"depth {args.depth}: log-RMS slope {profile.log_rms_slope():.4f}, "
        f"max/min RMS {profile.rms.max() / profile.rms.min():.3f}"
    )
    return 0


def _cmd_equilibrium(args) -> int:
    result = equilibrium_experiment(args.eta, args.l2, args.steps, args.seed)
    out = _outdir(args)
    write_csv(out / "equilibrium.csv", "step,weight_norm,grad_norm,ratio", result.rows())
    print(f"final-quartile ratio {result.final_quartile_ratio():.4f}")
    return 0


def _cmd_sweep(args) -> int:
    af, ab = _list(args.alpha_f_grid, "--alpha-f-grid"), _list(args.alpha_b_grid, "--alpha-b-grid")
    cfg, spec = _load_config(args.config, args.seed)
    data = generate_dataset(spec, cfg.seed)
    result = decay_sweep(af, ab, cfg, data)
    out = _outdir(args)
    write_csv(out / "sweep.csv", "alpha_f,alpha_b,final_loss,diverged", result.as_rows())
    finite = result.final_loss[~result.diverged]
    best = f"best loss {finite.min():.4f}" if finite.size else "no finite cell, every cell diverged"
    print(f"{result.final_loss.size} cells, {best}")
    return 0


def _cmd_emulate_check(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"--alpha must be in (0, 1), got {args.alpha}")
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    rng = make_rng(args.seed)
    x, g = rng.uniform(-1.0, 1.0, size=(2, args.steps, 1, 1))
    worst = selftest.group_deviation(x, g, args.n, args.alpha, args.alpha)
    print(f"max streaming/batched deviation over {args.steps} steps: {worst:.3e}")
    return 0 if worst <= 1e-10 else RUNTIME_EXIT


def _cmd_selftest(_args) -> int:
    results = selftest.run_selftest()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        failed += not ok
    return 0 if failed == 0 else RUNTIME_EXIT


_DISPATCH = {
    "train": _cmd_train,
    "grad-bias": _cmd_grad_bias,
    "growth": _cmd_growth,
    "equilibrium": _cmd_equilibrium,
    "sweep": _cmd_sweep,
    "emulate-check": _cmd_emulate_check,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        with np.errstate(all="ignore"):
            return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except (DivergenceError, ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
