"""Shared oracles for the test suite."""

import struct
import tracemalloc

import numpy as np

from onlinenorm.idx import IMAGES_MAGIC, LABELS_MAGIC
from onlinenorm.net import softmax_xent_backward, softmax_xent_forward
from onlinenorm.tensor import make_rng


def logistic_oracle(data, epochs=30, eta=0.05):
    """Multinomial logistic regression by plain SGD; independent baseline."""
    rng = make_rng(99)
    w = np.zeros((data.n_classes, data.dim))
    b = np.zeros(data.n_classes)
    for _ in range(epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, 32):
            sel = order[start : start + 32]
            logits = data.x[sel] @ w.T + b
            _, probs = softmax_xent_forward(logits, data.labels[sel])
            g = softmax_xent_backward(probs, data.labels[sel])
            w -= eta * (g.T @ data.x[sel])
            b -= eta * g.sum(axis=0)
    logits = data.x @ w.T + b
    return float((np.argmax(logits, axis=1) == data.labels).mean())


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images of shape (count, rows, cols) as an IDX image file."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write uint8 labels as an IDX label file."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.size))
        fh.write(labels.tobytes())
