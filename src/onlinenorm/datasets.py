"""Synthetic dataset generation and the dataset container.

Generated datasets are pure functions of (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import make_rng

DATASET_KINDS = ("gaussian-blobs", "synthetic-images", "idx-file")


@dataclass
class Dataset:
    """Flat feature matrix plus integer class labels."""

    x: np.ndarray
    labels: np.ndarray
    n_classes: int

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def split(self, val_fraction: float, seed: int) -> tuple["Dataset", "Dataset"]:
        rng = make_rng(seed)
        order = rng.permutation(self.n)
        n_val = int(round(self.n * val_fraction))
        val, tr = order[:n_val], order[n_val:]
        return (
            Dataset(self.x[tr], self.labels[tr], self.n_classes),
            Dataset(self.x[val], self.labels[val], self.n_classes),
        )


@dataclass
class DatasetSpec:
    kind: str = "gaussian-blobs"
    classes: int = 3
    samples: int = 6000
    dim: int = 8
    image_side: int = 8
    class_scale: float = 3.0
    noise: float = 1.0
    brightness: float = 0.0
    images_path: str = ""
    labels_path: str = ""

    def validate(self) -> None:
        for f in fields(self):
            check_spec_field(f.name, getattr(self, f.name))
        if self.kind == "idx-file" and not (self.images_path and self.labels_path):
            raise ValueError("idx-file dataset needs images_path and labels_path")


def check_spec_field(name: str, value) -> None:
    """Range check of one DatasetSpec field on its own: a known kind, counts
    of at least 1, and scales that are not NaN. Raises ValueError."""
    if name == "kind" and value not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {value!r}")
    if name in ("classes", "samples", "dim", "image_side") and not value >= 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if name in ("class_scale", "noise", "brightness") and np.isnan(value):
        raise ValueError(f"{name} must not be NaN")


def _simplex_means(classes: int, dim: int, scale: float) -> np.ndarray:
    """Class means on a scaled simplex, so classes are linearly separable."""
    if dim >= classes:
        means = np.zeros((classes, dim))
        means[np.arange(classes), np.arange(classes)] = 1.0
    else:
        # Fall back to deterministic spread directions when dim < classes.
        means = np.zeros((classes, dim))
        for c in range(classes):
            means[c, c % dim] = 1.0 + c // dim
    means -= means.mean(axis=0, keepdims=True)
    return scale * means


def make_blobs(spec: DatasetSpec, seed: int) -> Dataset:
    """Gaussian blobs around simplex-vertex class means."""
    rng = make_rng(seed)
    means = _simplex_means(spec.classes, spec.dim, spec.class_scale)
    labels = rng.integers(0, spec.classes, size=spec.samples)
    x = means[labels] + spec.noise * rng.normal(size=(spec.samples, spec.dim))
    return Dataset(x, labels.astype(np.int64), spec.classes)


def make_synthetic_images(spec: DatasetSpec, seed: int) -> Dataset:
    """Gaussian-textured single-channel images with per-class mean patterns.

    brightness adds a per-image Gaussian DC component, a fully spatially
    correlated part that makes small-batch statistics genuinely noisy the
    way natural-image content does. Rows are flattened side*side images;
    reshape to (1, side, side) for convolutional input.
    """
    rng = make_rng(seed)
    side = spec.image_side
    patterns = spec.class_scale * rng.normal(size=(spec.classes, side * side))
    labels = rng.integers(0, spec.classes, size=spec.samples)
    x = patterns[labels] + spec.noise * rng.normal(size=(spec.samples, side * side))
    if spec.brightness:
        x = x + spec.brightness * rng.normal(size=(spec.samples, 1))
    return Dataset(x, labels.astype(np.int64), spec.classes)


def generate_dataset(spec: DatasetSpec, seed: int) -> Dataset:
    """Deterministic dataset for the given spec and seed."""
    spec.validate()
    if spec.kind == "gaussian-blobs":
        return make_blobs(spec, seed)
    if spec.kind == "synthetic-images":
        return make_synthetic_images(spec, seed)
    from .idx import read_idx

    return read_idx(spec.images_path, spec.labels_path)
