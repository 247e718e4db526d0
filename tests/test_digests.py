"""Output digests: the bits of what training and the CLI commands produce.

digests.json, beside this module, maps each output's name to the sha256 of
its bytes: the records, final parameters and momentum of train() for each
normalizer kind at three batch sizes with a validation set and at one
without (online and none also at batch size 1 without), the exit code,
standard output and CSV of the train, grad-bias, growth (with and without
layer scaling), equilibrium, sweep and emulate-check commands, each on two
seeds at reduced sizes, and the standard output of selftest. A change
meant to keep every output byte-identical must leave them all as they are.
The manifest also records the numpy and BLAS versions it was written with,
since another stack may round differently.

Rewrite the manifest, after a change that moves outputs on purpose, with

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from onlinenorm.cli import main
from onlinenorm.datasets import DatasetSpec, generate_dataset
from onlinenorm.net import TrainConfig, train

MANIFEST = Path(__file__).with_name("digests.json")
SEEDS = (1, 2)
# (kind, batch size, with a validation set); exact-population trains on the whole set at once.
TRAIN_RUNS = [
    (kind, b, True)
    for kind in ("online", "batch", "layer", "none")
    for b in (1, 7, 32)
    if (kind, b) != ("batch", 1)  # BatchNorm needs two samples
] + [(kind, 7, False) for kind in ("online", "batch", "layer", "none", "exact-population")]
# Without a validation set train() counts training hits on every step.
TRAIN_RUNS += [(kind, 1, False) for kind in ("online", "none")]
# The config files of the commands that read one.
CONFIGS = {
    "train": "samples = 240\nepochs = 2\nhidden = 16\nbatch_size = 8\neval_interval = 10\n",
    "sweep": "samples = 160\nepochs = 1\nhidden = 8\nbatch_size = 16\n",
}
GROWTH = ["growth", "--depth", "8", "--width", "16", "--noise", "0.1"]
COMMANDS = {
    "train": (["train"], "metrics.csv"),
    "grad-bias": (["grad-bias", "--samples", "256", "--batch-sizes", "4,32", "--reps", "2"], "grad_bias.csv"),
    "growth": (GROWTH, "growth.csv"),
    "growth-scaled": (GROWTH + ["--layer-scaling"], "growth.csv"),
    "equilibrium": (["equilibrium", "--steps", "2000"], "equilibrium.csv"),
    "sweep": (["sweep", "--alpha-f-grid", "0.9,0.999", "--alpha-b-grid", "0.9,0.99"], "sweep.csv"),
    "emulate-check": (["emulate-check", "--n", "4", "--steps", "128"], None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stack() -> dict:
    """The numpy and BLAS versions that produced the digests."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def train_digests(kind: str, batch_size: int, validated: bool, seed: int) -> dict:
    data = generate_dataset(DatasetSpec(samples=400, dim=8), seed)
    train_set, val_set = data.split(0.2, seed)
    cfg = TrainConfig(normalizer=kind, batch_size=batch_size, epochs=3, hidden=32, depth=2, seed=seed)
    records, net = train(cfg, train_set, val_set if validated else None)
    name = f"train/{kind}/bs{batch_size}{'' if validated else '-noval'}/seed{seed}"
    rows = "\n".join(repr(dataclasses.astuple(r)) for r in records)
    return {
        f"{name}/records": _sha(rows.encode()),
        f"{name}/p": _sha(net.params.p.tobytes()),
        f"{name}/v": _sha(net.params.v.tobytes()),
    }


def run(name: str, argv: list) -> dict:
    """Digests of one CLI run's exit code and standard output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return {f"{name}/exit": str(code), f"{name}/stdout": _sha(stdout.getvalue().encode())}


def command_digests(command: str, seed: int, out: Path) -> dict:
    argv, csv = COMMANDS[command]
    argv = argv + ["--seed", str(seed), "--out", str(out)]
    if command in CONFIGS:
        config = out / f"{command}.conf"
        config.write_text(CONFIGS[command], encoding="utf-8")
        argv += ["--config", str(config)]
    found = run(f"{command}/seed{seed}", argv)
    if csv is not None:
        found[f"{command}/seed{seed}/csv"] = _sha((out / csv).read_bytes())
    return found


def all_digests(workdir: Path) -> dict:
    found = run("selftest", ["selftest"])
    for seed in SEEDS:
        for kind, b, validated in TRAIN_RUNS:
            found.update(train_digests(kind, b, validated, seed))
        for command in COMMANDS:
            out = workdir / f"{command}-{seed}"
            out.mkdir()
            found.update(command_digests(command, seed, out))
    return found


def test_outputs_match_their_recorded_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    found = all_digests(tmp_path)
    want = manifest["digests"]
    moved = sorted(k for k in want.keys() | found.keys() if want.get(k) != found.get(k))
    if moved:
        note = ""
        if stack() != manifest["stack"]:
            note = f"\nthe stack differs from the recorded one: {stack()} vs {manifest['stack']}"
        raise AssertionError(f"{len(moved)} of {len(want)} digests moved:\n" + "\n".join(moved) + note)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    MANIFEST.write_text(json.dumps({"stack": stack(), "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
