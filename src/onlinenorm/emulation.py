"""Closed-form group emulation of the streaming forward estimators.

A decayed running mean mu_t = a*mu_{t-1} + (1-a)*x_t, processed in groups
of n samples, advances a whole group at once by the decay-power
convolution: at position l of the group,

    mu[l]  = a^{l+1} * mu_last + (1-a) * sum_{j<=l} a^{l-j} * x[j]

where mu_last is the previous group's final mean. The running variance
obeys var_t = a*var_{t-1} + v_t with the per-step input
v_t = a*(1-a)*(x_t - mu_{t-1})^2, so once the group's means are known

    var[l] = a^{l+1} * var_last + sum_{j<=l} a^{l-j} * v[j].

Both sums are one lower-triangular (n x n) matrix L[l, j] = a^{l-j}
applied to the group. Seeds match the streaming initialization mu = 0,
var = 1, so the trajectory equals the streaming one up to rounding.

Training does not run this form: the kernel in `online` runs a group's
recurrences, eps_y's time-varying coefficient included, as a log-depth
scan with O(n) memory, where this form
needs an (n x n) matrix per layer. The closed form is kept as an
independent check of that kernel, written without it.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError


def emulate_stream(
    xs: np.ndarray, n: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Run a scalar stream through the closed form, n samples at a time.

    Stream length must be a multiple of n. Returns the per-step (mean,
    variance) trajectories, concatenated across groups.
    """
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"decay must be in (0,1), got {alpha}")
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    if xs.size % n != 0:
        raise ShapeError(f"stream length {xs.size} not a multiple of group size {n}")
    steps = np.arange(n)
    # a^|l-j| with the upper triangle zeroed: a^(l-j) for j <= l.
    lower = np.tril(alpha ** np.abs(np.subtract.outer(steps, steps)))
    carry = alpha ** (steps + 1)
    mus = np.empty(xs.size)
    vars_ = np.empty(xs.size)
    mu_last, var_last = 0.0, 1.0
    for start in range(0, xs.size, n):
        x = xs[start : start + n]
        mu = carry * mu_last + (1.0 - alpha) * (lower @ x)
        delta = x - np.concatenate(([mu_last], mu[:-1]))
        var = carry * var_last + lower @ (alpha * (1.0 - alpha) * delta * delta)
        mus[start : start + n] = mu
        vars_[start : start + n] = var
        mu_last, var_last = mu[-1], var[-1]
    return mus, vars_
