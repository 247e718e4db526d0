import csv
import os
import struct

import numpy as np
import pytest

from onlinenorm import cli, selftest
from onlinenorm.cli import main
from onlinenorm.idx import IMAGES_MAGIC

from helpers import write_idx_images, write_idx_labels


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_prints_usage_and_exits_one(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in (out + err).lower()


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1


SELFTEST_CHECKS = [
    "forward mean control/estimator equivalence",
    "backward control/estimator equivalence",
    "layer scaling pins mean square at one",
    "layer scaling gradient vs finite differences",
    "exact backward orthogonal to 1 and y",
    "batch-two output exactly +-1 with zero gradient",
    "backward accumulators stay bounded",
    "state serialization round-trips",
    "dense Jacobian consistent with backward",
    "grouped kernel matches single-sample calls",
]


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert [l.split(" (")[0] for l in lines] == [f"PASS {name}" for name in SELFTEST_CHECKS]


def test_selftest_failing_check_exits_three(monkeypatch, capsys):
    failing = ("always fails", lambda: {"gap": 1.0}, lambda f: f["gap"] < 1e-10)
    monkeypatch.setattr(selftest, "CHECKS", (failing, selftest.CHECKS[0]))
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "FAIL always fails (gap 1)"
    assert lines[1].startswith("PASS ")


def test_emulate_check_reports_deviation(capsys):
    code, out, _ = run_cli(["emulate-check", "--n", "4", "--steps", "64"], capsys)
    assert code == 0
    assert "deviation" in out


def test_emulate_check_deviation_above_tolerance_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "group_deviation", lambda x, g, block, alpha_f, alpha_b: 2e-10)
    code, out, _ = run_cli(["emulate-check", "--n", "4", "--steps", "64"], capsys)
    assert code == 3
    assert "deviation over 64 steps: 2.000e-10" in out


def test_emulate_check_reports_a_diverged_stream_as_divergence(capsys):
    # At alpha = 1e-300 both runs leave the finite range, the streamed one
    # (eps_y) from sample 34 at seed 0: no deviation figure is printed.
    code, out, err = run_cli(["emulate-check", "--alpha", "1e-300", "--seed", "0"], capsys)
    assert code == 3 and out == ""
    assert "diverged at sample 34 of the streamed run" in err


def test_emulate_check_names_a_divergence_of_the_grouped_run_alone(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "group_deviation", lambda x, g, block, alpha_f, alpha_b: float("nan"))
    code, out, err = run_cli(["emulate-check", "--n", "4", "--steps", "64"], capsys)
    assert code == 3 and out == ""
    assert "diverged in blocks of 4 only" in err


@pytest.mark.parametrize("n, steps", [(200, 128), (3, 10)])
def test_emulate_check_runs_steps_that_are_not_a_multiple_of_n(n, steps, capsys):
    # The last block may be short; a group size above --steps gives one block.
    code, out, _ = run_cli(["emulate-check", "--n", str(n), "--steps", str(steps)], capsys)
    assert code == 0
    assert f"deviation over {steps} steps: " in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["emulate-check", "--n", "0"], "--n"),
        (["emulate-check", "--steps", "0"], "--steps"),
        (["emulate-check", "--steps", "-1"], "--steps"),
        (["growth", "--width", "0"], "width"),
        (["equilibrium", "--steps", "0"], "steps"),
        (["grad-bias", "--samples", "32", "--batch-sizes", "4", "--reps", "0"], "--reps"),
        (["growth", "--sigma-down", "1"], "--sigma-down"),
        (["growth", "--sigma-down", "nan"], "--sigma-down"),
        (["growth", "--noise", "nan"], "--noise"),
        (["growth", "--depth", "1"], "--depth"),
        (["equilibrium", "--eta", "nan"], "--eta"),
        (["equilibrium", "--l2", "nan"], "--l2"),
        (["grad-bias", "--samples", "0", "--batch-sizes", "2"], "--samples"),
        (["grad-bias", "--samples", "1", "--batch-sizes", ","], "--samples"),
        (["grad-bias", "--samples", "32", "--batch-sizes", "4,1"], "--batch-sizes"),
        (["grad-bias", "--samples", "30", "--batch-sizes", "4"], "--batch-sizes"),
        (["emulate-check", "--alpha", "0"], "--alpha"),
        (["emulate-check", "--alpha", "1"], "--alpha"),
        (["emulate-check", "--alpha", "nan"], "--alpha"),
        (["equilibrium", "--steps", "0"], "--steps"),
        (["sweep", "--alpha-f-grid", "0.9,1.5"], "--alpha-f-grid"),
        (["sweep", "--alpha-b-grid", "nan"], "--alpha-b-grid"),
        (["sweep", "--alpha-b-grid", ","], "--alpha-b-grid"),
        (["train", "--seed", "-1"], "--seed"),
        (["growth", "--seed", "-1"], "--seed"),
        (["growth", "--depth", "4", "--noise", "inf"], "--noise"),
        (["equilibrium", "--eta", "inf"], "--eta"),
        (["equilibrium", "--l2", "inf"], "--l2"),
        (["grad-bias", "--batch-sizes", ","], "--batch-sizes"),
        (["equilibrium", "--l2", "1e-320"], "--l2"),
    ],
)
def test_out_of_range_flag_values_exit_three_naming_the_flag(argv, flag, tmp_path, capsys):
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert err.startswith("runtime error: ") and flag in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["grad-bias", "--batch-sizes", "2,x"], "--batch-sizes"),
        (["grad-bias", "--batch-sizes", "2.5"], "--batch-sizes"),
        (["sweep", "--alpha-f-grid", "abc"], "--alpha-f-grid"),
        (["sweep", "--alpha-b-grid", "0.9,,x"], "--alpha-b-grid"),
    ],
)
def test_malformed_list_flag_exits_two_naming_the_flag(argv, flag, tmp_path, capsys):
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("config error: ") and flag in err


def test_train_writes_metrics_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "eta = 0.05\nepochs = 1\nbatch_size = 16\nnormalizer = batch\n"
        "hidden = 8\nsamples = 200\ndim = 4\nclasses = 3\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, stdout, _ = run_cli(["train", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "epoch", "loss", "accuracy", "weight_norm_l2", "eps_y_max", "eps_1_max"]
    assert len(rows) >= 2
    for cell in rows[1]:
        float(cell)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("normalizer", ["online", "layer", "none"])
def test_train_with_empty_validation_set_reports_nan_accuracy(normalizer, tmp_path, capsys):
    # Two samples leave the 20% validation split empty.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        f"samples = 2\nepochs = 1\nbatch_size = 1\nnormalizer = {normalizer}\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    code, stdout, err = run_cli(["train", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0, err
    assert "accuracy nan" in stdout
    with open(out / "metrics.csv", newline="") as fh:
        assert [row["accuracy"] for row in csv.DictReader(fh)] == ["nan"]


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha_f = 1.5\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "line 1" in err


def test_missing_config_file_exits_two(tmp_path, capsys):
    code, _, _ = run_cli(
        ["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")], capsys
    )
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_config_file_exits_two_naming_it(kind, tmp_path, capsys):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "latin-1.cfg"
        path.write_bytes("epochs = 1  # caf\xe9\n".encode("latin-1"))
    code, _, err = run_cli(["train", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("config error: ") and str(path) in err


@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_a_directory_exits_two_naming_out(below, tmp_path, capsys):
    # --out names an existing file, or a path beneath one.
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "sub" if below else blocker
    code, _, err = run_cli(["growth", "--depth", "2", "--width", "2", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("config error: --out ") and str(out) in err
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_divergent_training_exits_three(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(
        "eta = 100000.0\nmomentum = 0.0\nl2 = 0.0\nepochs = 3\nbatch_size = 8\n"
        "normalizer = none\nhidden = 8\nsamples = 200\ndim = 4\ndivergence_limit = 1000.0\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert "diverged" in err


# Each run reaches a non-finite value. Every command reports it through its
# exit code, or records it as a divergent sweep cell, and prints no numpy
# warning: pyproject's filterwarnings turns one into an error.
NON_FINITE_RUNS = {
    "train-class-scale": (["train"], "samples = 20\nepochs = 1\nclass_scale = 1e300\n", 3, None),
    "train-eta": (["train"], "samples = 20\nepochs = 1\neta = 1e300\n", 3, None),
    "growth-noise": (["growth", "--depth", "3", "--noise", "1e300"], None, 3, None),
    "growth-sigma-down": (["growth", "--depth", "64", "--sigma-down", "0.999999"], None, 3, None),
    "growth-zero-rms": (["growth", "--depth", "3", "--width", "1", "--noise", "200", "--seed", "0"], None, 3, None),
    "equilibrium-1-step": (["equilibrium", "--eta", "1e300", "--steps", "1"], None, 3, None),
    "equilibrium-10-steps": (["equilibrium", "--eta", "1e300", "--steps", "10"], None, 3, None),
    "emulate-check-alpha": (["emulate-check", "--alpha", "1e-300"], None, 3, None),
    "sweep-divergent-cell": (
        ["sweep", "--alpha-f-grid", "0.9,0.999", "--alpha-b-grid", "0.5,0.99", "--seed", "1"],
        "samples = 200\nepochs = 1\nhidden = 8\nbatch_size = 16\n", 0, "0.999,0.5,inf,1",
    ),
}


@pytest.mark.parametrize("argv, config, code, sweep_row", NON_FINITE_RUNS.values(), ids=NON_FINITE_RUNS)
def test_non_finite_runs_exit_by_their_code_without_warnings(argv, config, code, sweep_row, tmp_path, capsys):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "o"
    got, _, err = run_cli([*argv, "--out", str(out)], capsys)
    assert got == code, err
    if sweep_row is not None:
        assert sweep_row in (out / "sweep.csv").read_text().splitlines()


def test_growth_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run_cli(
        ["growth", "--depth", "8", "--sigma-down", "0.05", "--out", str(out)], capsys
    )
    assert code == 0
    assert (out / "growth.csv").exists()
    assert "slope" in stdout


def test_equilibrium_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "e"
    code, stdout, _ = run_cli(["equilibrium", "--steps", "500", "--out", str(out)], capsys)
    assert code == 0
    assert (out / "equilibrium.csv").exists()
    assert "ratio" in stdout


def test_grad_bias_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "b"
    code, stdout, _ = run_cli(
        ["grad-bias", "--samples", "32", "--batch-sizes", "4", "--reps", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "grad_bias.csv").exists()


def test_sweep_subcommand_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "eta = 0.003\nepochs = 1\nbatch_size = 1\nnormalizer = online\nhidden = 8\n"
        "samples = 120\ndim = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "s"
    code, _, _ = run_cli(
        ["sweep", "--config", str(cfg), "--alpha-f-grid", "0.99,0.999",
         "--alpha-b-grid", "0.99", "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_f", "alpha_b", "final_loss", "diverged"]
    assert len(rows) == 3


def test_sweep_with_every_cell_divergent_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "eta = 1.0\nmomentum = 0.0\nepochs = 1\nbatch_size = 4\nnormalizer = online\n"
        "hidden = 8\nsamples = 120\ndim = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "s"
    code, stdout, _ = run_cli(
        ["sweep", "--config", str(cfg), "--alpha-f-grid", "0.9,0.99",
         "--alpha-b-grid", "0.5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "no finite cell" in stdout
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[3] for row in rows[1:]] == ["1", "1"]


def test_seed_override_changes_run(tmp_path, capsys):
    out_a, out_b, out_c = (tmp_path / n for n in "abc")
    for out, seed in ((out_a, "1"), (out_b, "1"), (out_c, "2")):
        code, _, _ = run_cli(
            ["equilibrium", "--steps", "300", "--seed", seed, "--out", str(out)], capsys
        )
        assert code == 0
    a = (out_a / "equilibrium.csv").read_text()
    assert a == (out_b / "equilibrium.csv").read_text()
    assert a != (out_c / "equilibrium.csv").read_text()


def test_cli_only_writes_inside_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    code, _, _ = run_cli(["growth", "--depth", "4", "--out", str(tmp_path / "only")], capsys)
    assert code == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only"}


def test_idx_header_larger_than_any_buffer_exits_three(tmp_path, capsys):
    # 0xFFFFFFFF images of 0xFFFFFFFF x 0xFFFFFFFF pixels in a 16-byte file:
    # the promised payload is rejected before any read is sized from it.
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    images.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF))
    write_idx_labels(labels, np.zeros(2, dtype=np.uint8))
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(f"dataset = idx-file\nimages_path = {images}\nlabels_path = {labels}\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert "truncated IDX file" in err


@pytest.mark.parametrize("which", ["images_path", "labels_path"])
def test_idx_path_naming_a_directory_exits_two_naming_it(which, tmp_path, capsys):
    paths = {"images_path": tmp_path / "img.idx", "labels_path": tmp_path / "lab.idx"}
    write_idx_images(paths["images_path"], np.zeros((4, 2, 2), dtype=np.uint8))
    write_idx_labels(paths["labels_path"], np.zeros(4, dtype=np.uint8))
    paths[which] = tmp_path / "dir"
    paths[which].mkdir()
    cfg = tmp_path / "idx.cfg"
    cfg.write_text("dataset = idx-file\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()), encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert err.startswith("config error: cannot read IDX file") and str(paths[which]) in err
    assert not (tmp_path / "o").exists()


def test_idx_pair_without_samples_exits_three(tmp_path, capsys):
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(images, np.zeros((0, 2, 2), dtype=np.uint8))
    write_idx_labels(labels, np.zeros(0, dtype=np.uint8))
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(f"dataset = idx-file\nimages_path = {images}\nlabels_path = {labels}\n", encoding="utf-8")
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert err == "runtime error: training set is empty\n"


@pytest.mark.parametrize(
    "command, rows, cols", [("train", 0, 3), ("train", 3, 0), ("sweep", 0, 3)], ids=["train-rows", "train-cols", "sweep"]
)
def test_idx_pair_of_images_without_pixels_exits_three(command, rows, cols, tmp_path, capsys):
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(images, np.zeros((10, rows, cols), dtype=np.uint8))
    write_idx_labels(labels, np.arange(10) % 2)
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(f"dataset = idx-file\nimages_path = {images}\nlabels_path = {labels}\n", encoding="utf-8")
    code, _, err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert err == "runtime error: training set has no features\n"


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB for an array"),
     (MemoryError(), "MemoryError")],
    ids=["numpy", "bare"],
)
def test_memory_error_exits_three(exc, message, monkeypatch, tmp_path, capsys):
    # The experiment's binding raises at once: no test asks the host for the memory.
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "equilibrium_experiment", refuse)
    code, _, err = run_cli(["equilibrium", "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert err == f"runtime error: {message}\n"
