"""Test helpers for the autodiff engine: a scalar reduction to start
backward from, and the finite-difference gradient oracle."""

import numpy as np

from annembed.tensor import Node, backward


def sum_all(a: Node) -> Node:
    """The 1x1 sum of every entry of a, with its backward."""
    def _backward(g):
        a.accumulate(np.broadcast_to(g, a.value.shape))

    return Node([[a.value.sum()]], (a,), backward=_backward)


def finite_difference_check(f, params, eps: float = 1e-5, max_coords: int = 8,
                            rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of f() against central finite differences.

    f must rebuild its graph on every call and be deterministic (dropout
    off). params maps names to leaf Nodes. Returns the max over sampled
    coordinates of |analytic - numeric| / (|analytic| + 1e-8).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    backward(f())
    analytic = {name: np.zeros_like(node.value) if node.grad is None else node.grad.copy()
                for name, node in params.items()}
    worst = 0.0
    for name, node in params.items():
        flat = node.value.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            up = f().value[0, 0]
            flat[c] = orig - eps
            down = f().value[0, 0]
            flat[c] = orig
            numeric = (up - down) / (2.0 * eps)
            ana = analytic[name].reshape(-1)[c]
            err = abs(ana - numeric) / (abs(ana) + 1e-8)
            worst = max(worst, err)
    return worst
