"""Reference computations the tests check the package against: central
finite-difference gradients and the scalar 64-bit line delta; and the
package's LSTM forward on a single cell, in the form the cell oracles take."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


def one_cell_forward(x, h_prev, c_prev, W, b):
    """`lstm_forward` of one layer on a one-step window of the (B, D) input
    `x`. Returns (h, c, (xh, i, f, g, o, c_prev)): the [x | h_prev] operand
    and gate activations are read from its caches."""
    from prefetchlab.lstm import lstm_forward

    B, D = x.shape
    buf = np.empty((2, B, D + h_prev.shape[1]), dtype=W.dtype)
    buf[0, :, :D] = x
    _, ((h, c),), (buf, cs, acts) = lstm_forward(buf, [(h_prev, c_prev)], [W], [b])
    return h, c, (buf[0], *np.split(acts[0], 4, axis=-1), cs[0, 0])


def signed_delta(line_a: int, line_b: int) -> int:
    """64-bit two's-complement difference ``line_b - line_a``."""
    d = (line_b - line_a) & _MASK64
    return d - (1 << 64) if d >= (1 << 63) else d


def finite_difference_grads(
    loss_fn: Callable[[], float], params: dict, eps: float = 1e-5, names: Sequence[str] | None = None
) -> dict:
    """Central-difference gradients of loss_fn wrt every entry of params.

    loss_fn must read the arrays in `params` by reference; entries are
    perturbed in place and restored. Use float64 params.
    """
    out = {}
    for name in names if names is not None else params:
        p = params[name]
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_fn()
            flat[j] = orig - eps
            lm = loss_fn()
            flat[j] = orig
            gflat[j] = (lp - lm) / (2 * eps)
        out[name] = g
    return out


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-ratio error with a small-norm guard for near-zero tensors."""
    num = float(np.linalg.norm(analytic - numeric))
    den = max(float(np.linalg.norm(analytic)) + float(np.linalg.norm(numeric)), 1e-8)
    return num / den
