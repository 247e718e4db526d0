"""Shared oracles for the test suite."""

import tracemalloc

import numpy as np

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
