import math
import re
import struct
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlinenorm.config import ConfigError, parse_config, serialize_config
from onlinenorm.datasets import DatasetSpec, generate_dataset, make_blobs
from onlinenorm.idx import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    IdxCountMismatchError,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    read_idx,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)
from onlinenorm.net import NORMALIZER_KINDS, TrainConfig


# ------------------------------------------------------------------- config


def test_empty_config_gives_defaults():
    cfg, spec = parse_config("")
    assert cfg.alpha_f == 0.999
    assert cfg.alpha_b == 0.99
    assert cfg.normalizer == "online"
    assert spec.kind == "gaussian-blobs"


def test_out_of_range_value_reports_line():
    text = "eta = 0.1\nalpha_f = 1.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 2
    assert "alpha_f" in str(err.value) or "decay" in str(err.value)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("# comment\n\nbogus_key = 3\n")
    assert err.value.line == 3
    assert "bogus_key" in str(err.value)


def test_bad_value_type_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = three")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 1.5", "line 1: value '1.5' for seed is not an int"),
        ("eta = 0.1\neta = fast", "line 2: value 'fast' for eta is not a float"),
    ],
)
def test_bad_value_type_names_its_type(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("eta 0.1")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "line",
    [
        "dataset = cifar",
        "classes = 0",
        "samples = 0",
        "dim = 0",
        "image_side = 0",
        "class_scale = nan",
        "dataset_noise = nan",
        "brightness = nan",
    ],
)
def test_out_of_range_dataset_key_reports_line(line):
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = 2\n" + line + "\nhidden = 4\n")
    assert err.value.line == 2


def test_cross_key_check_carries_no_line():
    with pytest.raises(ConfigError) as err:
        parse_config("dataset = idx-file\nimages_path = a.idx\n")
    assert err.value.line is None
    assert "labels_path" in str(err.value)


def test_comments_and_blanks_ignored():
    cfg, _ = parse_config("# full line comment\n\neta = 0.25  # trailing comment\n")
    assert cfg.eta == 0.25


def test_round_trip_reparses_to_equal_config():
    text = (
        "eta = 0.03\nmomentum = 0.8\nl2 = 2e-4\nbatch_size = 16\nepochs = 3\n"
        "seed = 11\nnormalizer = batch\nalpha_f = 0.997\nalpha_b = 0.95\n"
        "hidden = 24\ndataset = synthetic-images\nclasses = 5\nsamples = 128\n"
        "image_side = 6\nbrightness = 1.5\n"
    )
    cfg, spec = parse_config(text)
    cfg2, spec2 = parse_config(serialize_config(cfg, spec))
    assert cfg == cfg2
    assert spec == spec2


def test_serialize_refuses_values_it_cannot_write_back():
    cfg, spec = parse_config("")
    for path in ("/tmp/a#b", "/tmp/a\nb", " /tmp/a", "/tmp/a\t"):
        with pytest.raises(ConfigError):
            serialize_config(cfg, replace(spec, images_path=path))


@pytest.mark.parametrize(
    "line",
    ["eta = nan", "l2 = nan", "divergence_limit = nan", "divergence_limit = -1", "seed = -1", "eta = inf", "l2 = inf",
     "eval_interval = -1"],
)
def test_nan_and_nonpositive_limits_rejected(line):
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = 2\n" + line + "\n")
    assert err.value.line == 2


@pytest.mark.parametrize("line", ["class_scale = nan", "dataset_noise = nan", "brightness = nan"])
def test_nan_dataset_fields_rejected(line):
    with pytest.raises(ConfigError, match="NaN"):
        parse_config(line + "\n")


# A valid config, then at most one field set to an arbitrary value of its type.
train_values = st.fixed_dictionaries({
    "eta": st.floats(0.0, 10.0),
    "momentum": st.floats(0.0, 0.999),
    "l2": st.floats(0.0, 1.0),
    "batch_size": st.integers(1, 512),
    "epochs": st.integers(1, 50),
    "seed": st.integers(0, 2**63),
    "normalizer": st.sampled_from(NORMALIZER_KINDS),
    "alpha_f": st.floats(0.001, 0.999),
    "alpha_b": st.floats(0.001, 0.999),
    "hidden": st.integers(1, 1024),
    "depth": st.integers(1, 8),
    "eval_interval": st.integers(0, 100),
    "divergence_limit": st.floats(1e-3, 1e12),
})
any_of_type = {float: st.floats(), int: st.integers(), str: st.text()}
# Writable text: no `#`, no line break, no surrounding whitespace.
PLAIN = r"[\w/.-]+"


@settings(max_examples=300)
@given(
    values=train_values,
    damage=st.one_of(st.none(), st.sampled_from(fields(TrainConfig)).flatmap(
        lambda f: st.tuples(st.just(f.name), any_of_type[type(f.default)]))),
    spec_ints=st.lists(st.integers(1, 10**6), min_size=4, max_size=4),
    spec_floats=st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
    paths=st.lists(st.one_of(st.from_regex(PLAIN, fullmatch=True), st.text()), min_size=2, max_size=2),
)
def test_config_round_trip_or_config_error(values, damage, spec_ints, spec_floats, paths):
    # parse_config(serialize_config(cfg, spec)) gives back (cfg, spec) or
    # raises ConfigError, and it raises only for an out-of-range value or
    # text the format cannot hold.
    if damage is not None:
        values = {**values, damage[0]: damage[1]}
    cfg = TrainConfig(**values)
    spec = DatasetSpec("gaussian-blobs", *spec_ints, *spec_floats, *paths)
    try:
        got = parse_config(serialize_config(cfg, spec))
    except ConfigError:
        if all(re.fullmatch(PLAIN, v) for v in (cfg.normalizer, *paths)):
            with pytest.raises(ValueError):
                cfg.validate()
        return
    assert got == (cfg, spec)


def test_unknown_normalizer_rejected():
    with pytest.raises(ConfigError):
        parse_config("normalizer = groupnorm")


def test_unknown_dataset_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config("dataset = cifar")


# ---------------------------------------------------------------------- idx


def test_idx_fixture_round_trips_exact_pixels(tmp_path):
    images = np.array(
        [[[0, 51], [102, 255]], [[255, 0], [10, 20]]], dtype=np.uint8
    )
    labels = np.array([1, 0], dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    got = read_idx_images(ip)
    assert got.shape == (2, 2, 2)
    assert np.array_equal(got, images.astype(np.float64) / 255.0)
    assert got.min() >= 0.0 and got.max() <= 1.0
    assert np.array_equal(read_idx_labels(lp), np.array([1, 0]))
    data = read_idx(ip, lp)
    assert data.n == 2 and data.dim == 4 and data.n_classes == 2


def test_idx_pair_without_samples_reads_as_empty_dataset(tmp_path):
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(ip, np.zeros((0, 3, 2), dtype=np.uint8))
    write_idx_labels(lp, np.zeros(0, dtype=np.uint8))
    data = read_idx(ip, lp)
    assert data.x.shape == (0, 6) and data.labels.shape == (0,)
    assert data.n == 0 and data.dim == 6 and data.n_classes == 0


def test_idx_count_mismatch_errors(tmp_path):
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
    with pytest.raises(IdxCountMismatchError):
        read_idx(ip, lp)


def test_idx_bad_magic_errors(tmp_path):
    ip = tmp_path / "img.idx"
    write_idx_images(ip, np.zeros((1, 2, 2), dtype=np.uint8))
    blob = bytearray(ip.read_bytes())
    blob[0:4] = blob[3::-1]  # byte-reversed magic
    ip.write_bytes(bytes(blob))
    with pytest.raises(IdxMagicError):
        read_idx_images(ip)
    lp = tmp_path / "lab.idx"
    write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
    with pytest.raises(IdxMagicError):
        read_idx_images(lp)  # label magic is not an image magic


def test_idx_truncated_errors(tmp_path):
    ip = tmp_path / "img.idx"
    write_idx_images(ip, np.zeros((2, 3, 3), dtype=np.uint8))
    blob = ip.read_bytes()
    ip.write_bytes(blob[:-5])
    with pytest.raises(IdxTruncatedError):
        read_idx_images(ip)
    ip.write_bytes(blob[:10])
    with pytest.raises(IdxTruncatedError):
        read_idx_images(ip)
    # Headers promising more than the file holds are rejected before any
    # read is sized from them: a payload too large for any buffer, and a
    # representable one far larger than the file.
    for dims in ((0xFFFFFFFF,) * 3, (1000, 1000, 1000)):
        ip.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, *dims) + bytes(16))
        with pytest.raises(IdxTruncatedError):
            read_idx_images(ip)
    lp = tmp_path / "lab.idx"
    lp.write_bytes(struct.pack(">II", LABELS_MAGIC, 0xFFFFFFFF) + bytes(3))
    with pytest.raises(IdxTruncatedError):
        read_idx_labels(lp)


magics = st.one_of(st.sampled_from([IMAGES_MAGIC, LABELS_MAGIC]), st.integers(0, 2**32 - 1))
dims = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(
    magic=magics,
    shape=st.lists(dims, min_size=1, max_size=3),
    payload=st.binary(max_size=256),
    cut=st.one_of(st.none(), st.integers(0, 300)),
)
# An empty image set whose float64 array numpy refuses to size.
@example(magic=IMAGES_MAGIC, shape=[0, 2**30, 2**30], payload=b"", cut=None)
def test_idx_reader_on_truncated_or_fuzzed_headers(magic, shape, payload, cut):
    # Either the reader returns exactly the header's shape and payload bytes,
    # or it raises the IdxError (sub)class the bytes call for. numpy sizes an
    # array, even an empty one, by the product of its nonzero dimensions, so
    # the reader refuses images whose float64 size exceeds the index range.
    blob = struct.pack(f">{1 + len(shape)}I", magic, *shape) + payload
    blob = blob[:cut]
    reader, want_magic, ndim = (
        (read_idx_images, IMAGES_MAGIC, 3) if len(shape) == 3 else (read_idx_labels, LABELS_MAGIC, 1)
    )
    head = 4 * (1 + ndim)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.idx"
        path.write_bytes(blob)
        if len(blob) < 4:
            expected = IdxTruncatedError
        elif struct.unpack(">I", blob[:4])[0] != want_magic:
            expected = IdxMagicError
        elif len(blob) < head:
            expected = IdxTruncatedError
        else:
            dims_read = struct.unpack(f">{ndim}I", blob[4:head])
            size = int(np.prod(dims_read, dtype=object))
            too_big = 8 * math.prod(d for d in dims_read if d) > np.iinfo(np.intp).max
            if head + size > len(blob):
                expected = IdxTruncatedError
            elif ndim == 3 and too_big:
                expected = IdxError
            else:
                expected = None
        if expected is not None:
            with pytest.raises(expected) as raised:
                reader(path)
            assert raised.type is expected
            return
        got = reader(path)
    raw = np.frombuffer(blob[head : head + size], dtype=np.uint8)
    if ndim == 3:
        assert got.shape == dims_read
        assert np.array_equal(got.ravel(), raw / 255.0)
    else:
        assert np.array_equal(got, raw.astype(np.int64))


# ----------------------------------------------------------------- datasets


def test_generation_is_deterministic():
    spec = DatasetSpec(kind="gaussian-blobs", classes=4, samples=100, dim=5)
    a = generate_dataset(spec, 9)
    b = generate_dataset(spec, 9)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)
    c = generate_dataset(spec, 10)
    assert not np.array_equal(a.x, c.x)


def test_zero_variance_blobs_solved_by_nearest_mean():
    spec = DatasetSpec(kind="gaussian-blobs", classes=3, samples=60, dim=4, noise=0.0)
    data = generate_dataset(spec, 0)
    means = np.stack([data.x[data.labels == c].mean(axis=0) for c in range(3)])
    pred = np.argmin(((data.x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == data.labels).mean() == 1.0


def test_default_blobs_solved_by_logistic_oracle():
    from helpers import logistic_oracle

    data = make_blobs(DatasetSpec(kind="gaussian-blobs"), seed=3)
    assert logistic_oracle(data) > 0.95


def test_synthetic_images_shapes_and_determinism():
    spec = DatasetSpec(kind="synthetic-images", classes=10, samples=32, image_side=8)
    a = generate_dataset(spec, 1)
    assert a.x.shape == (32, 64)
    assert a.n_classes == 10
    assert np.array_equal(a.x, generate_dataset(spec, 1).x)


def test_degenerate_spec_errors():
    with pytest.raises(ValueError):
        generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=0), 0)
    with pytest.raises(ValueError):
        generate_dataset(DatasetSpec(kind="gaussian-blobs", samples=0), 0)
    with pytest.raises(ValueError):
        generate_dataset(DatasetSpec(kind="idx-file"), 0)


def test_split_partitions_all_samples():
    data = generate_dataset(DatasetSpec(samples=100), 2)
    tr, val = data.split(0.25, 0)
    assert tr.n == 75 and val.n == 25
    joined = np.vstack([tr.x, val.x])
    assert joined.shape == data.x.shape
