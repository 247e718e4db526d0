"""Reader and writer for the big-endian IDX container used by MNIST-family data.

Layout: 4-byte big-endian magic (0x00000803 for 3-D uint8 images,
0x00000801 for 1-D uint8 labels), one big-endian uint32 size per dimension,
then the row-major uint8 payload.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .datasets import Dataset

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base error for malformed IDX files."""


class IdxMagicError(IdxError):
    """File does not start with the expected magic number."""


class IdxTruncatedError(IdxError):
    """File is shorter than its header promises."""


class IdxCountMismatchError(IdxError):
    """Image file and label file disagree on the sample count."""


def _read_exact(fh, count: int, what: str) -> bytes:
    """Read count bytes, checking first that the file still holds them.

    The check comes before the read, so a header promising more bytes than
    the file holds never sizes a read buffer.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise IdxTruncatedError(f"truncated IDX file: {what} needs {count} bytes, {left} left")
    return fh.read(count)


def read_idx_images(path) -> np.ndarray:
    """Load a 3-D uint8 image file as float64 pixels scaled to [0, 1]."""
    with open(path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, "magic"))
        if magic != IMAGES_MAGIC:
            raise IdxMagicError(f"bad image magic 0x{magic:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(fh, 12, "dimensions"))
        raw = _read_exact(fh, count * rows * cols, "pixels")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(np.float64) / 255.0


def read_idx_labels(path) -> np.ndarray:
    """Load a 1-D uint8 label file as int64 class indices."""
    with open(path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, "magic"))
        if magic != LABELS_MAGIC:
            raise IdxMagicError(f"bad label magic 0x{magic:08x}")
        (count,) = struct.unpack(">I", _read_exact(fh, 4, "count"))
        raw = _read_exact(fh, count, "labels")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def read_idx(images_path, labels_path) -> Dataset:
    """Load an image/label pair into a flat-feature Dataset."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels"
        )
    n_classes = int(labels.max()) + 1 if labels.size else 0
    count, rows, cols = images.shape
    return Dataset(images.reshape(count, rows * cols), labels, n_classes)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images of shape (count, rows, cols); test-fixture helper."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.size))
        fh.write(labels.tobytes())
