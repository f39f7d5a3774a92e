"""Dense float64 matrices with reverse-mode differentiation.

Every value is a 2-D row-major float64 array wrapped in a Node. Operations
record a backward closure; backward() runs the closures in reverse
topological order, accumulating gradients additively across fan-out.
Randomness (dropout) always comes from an explicitly passed numpy PCG64
generator so a 64-bit seed reproduces runs exactly on any platform.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-12


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"expected at most 2 dimensions, got {arr.ndim}")
    return np.ascontiguousarray(arr)


class Node:
    __slots__ = ("value", "grad", "parents", "requires_grad", "_backward")

    def __init__(self, value, parents=(), requires_grad=False, backward=None):
        self.value = _as_matrix(value)
        self.grad = np.zeros_like(self.value)
        self.parents = tuple(parents)
        self.requires_grad = bool(requires_grad)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value) -> Node:
    return Node(value)


def parameter(value) -> Node:
    return Node(value, requires_grad=True)


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.value.shape} x {b.value.shape}")
    out = Node(a.value @ b.value, (a, b))

    def _backward():
        a.grad += out.grad @ b.value.T
        b.grad += a.value.T @ out.grad

    out._backward = _backward
    return out


def add(a: Node, b: Node) -> Node:
    """Elementwise add; a 1-row right operand broadcasts over the rows of a."""
    if a.value.shape == b.value.shape:
        out = Node(a.value + b.value, (a, b))

        def _backward():
            a.grad += out.grad
            b.grad += out.grad

    elif b.value.shape == (1, a.value.shape[1]):
        out = Node(a.value + b.value, (a, b))

        def _backward():
            a.grad += out.grad
            b.grad += out.grad.sum(axis=0, keepdims=True)

    else:
        raise ValueError(f"add shape mismatch {a.value.shape} + {b.value.shape}")
    out._backward = _backward
    return out


def scalar_scale(a: Node, c: float) -> Node:
    """Multiply by a plain Python constant."""
    c = float(c)
    out = Node(a.value * c, (a,))

    def _backward():
        a.grad += out.grad * c

    out._backward = _backward
    return out


def scalar_mul(s: Node, a: Node) -> Node:
    """Multiply a matrix by a differentiable 1x1 scalar node."""
    if s.value.shape != (1, 1):
        raise ValueError(f"scalar operand must be 1x1, got {s.value.shape}")
    out = Node(s.value[0, 0] * a.value, (s, a))

    def _backward():
        s.grad += np.array([[np.sum(out.grad * a.value)]])
        a.grad += out.grad * s.value[0, 0]

    out._backward = _backward
    return out


def row_mean(a: Node) -> Node:
    """Column-wise mean over all rows, yielding a single row."""
    rows = a.value.shape[0]
    if rows == 0:
        raise ValueError("row_mean of an empty matrix")
    out = Node(a.value.mean(axis=0, keepdims=True), (a,))

    def _backward():
        a.grad += np.repeat(out.grad / rows, rows, axis=0)

    out._backward = _backward
    return out


def sum_all(a: Node) -> Node:
    out = Node([[a.value.sum()]], (a,))

    def _backward():
        a.grad += out.grad[0, 0]

    out._backward = _backward
    return out


def gather_rows(a: Node, indices) -> Node:
    """Fetch rows by index; repeated indices accumulate gradient on backward."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise ValueError("gather_rows index out of range")
    out = Node(a.value[idx], (a,))

    def _backward():
        np.add.at(a.grad, idx, out.grad)

    out._backward = _backward
    return out


def scatter_add(base: Node, indices, rows: Node) -> Node:
    """Add rows into a copy of base at the given row indices."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size != rows.value.shape[0]:
        raise ValueError("scatter_add needs one index per row")
    if idx.size and (idx.min() < 0 or idx.max() >= base.value.shape[0]):
        raise ValueError("scatter_add index out of range")
    if base.value.shape[1] != rows.value.shape[1]:
        raise ValueError("scatter_add column mismatch")
    value = base.value.copy()
    np.add.at(value, idx, rows.value)
    out = Node(value, (base, rows))

    def _backward():
        base.grad += out.grad
        rows.grad += out.grad[idx]

    out._backward = _backward
    return out


def transpose(a: Node) -> Node:
    out = Node(a.value.T, (a,))

    def _backward():
        a.grad += out.grad.T

    out._backward = _backward
    return out


def concat_rows(*nodes: Node) -> Node:
    cols = {n.value.shape[1] for n in nodes}
    if len(cols) != 1:
        raise ValueError("concat_rows needs equal column counts")
    out = Node(np.concatenate([n.value for n in nodes], axis=0), nodes)

    def _backward():
        offset = 0
        for n in nodes:
            rows = n.value.shape[0]
            n.grad += out.grad[offset:offset + rows]
            offset += rows

    out._backward = _backward
    return out


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float = LAYER_NORM_EPS) -> Node:
    """Per-row normalization to mean 0 / variance 1, then affine gamma, beta."""
    if gamma.value.shape != (1, x.value.shape[1]) or beta.value.shape != (1, x.value.shape[1]):
        raise ValueError("layer_norm affine shapes must be 1 x cols")
    mu = x.value.mean(axis=1, keepdims=True)
    var = x.value.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    norm = (x.value - mu) * inv
    out = Node(norm * gamma.value + beta.value, (x, gamma, beta))

    def _backward():
        g = out.grad * gamma.value
        # d/dx of (x - mu) * inv with mu, var per row
        m1 = g.mean(axis=1, keepdims=True)
        m2 = (g * norm).mean(axis=1, keepdims=True)
        x.grad += (g - m1 - norm * m2) * inv
        gamma.grad += (out.grad * norm).sum(axis=0, keepdims=True)
        beta.grad += out.grad.sum(axis=0, keepdims=True)

    out._backward = _backward
    return out


def dropout(x: Node, p: float, rng: np.random.Generator, training: bool) -> Node:
    """Inverted dropout: surviving entries scaled by 1/(1-p); identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    if not training or p == 0.0:
        out = Node(x.value, (x,))

        def _backward():
            x.grad += out.grad

        out._backward = _backward
        return out
    mask = (rng.random(x.value.shape) >= p) / (1.0 - p)
    out = Node(x.value * mask, (x,))

    def _backward():
        x.grad += out.grad * mask

    out._backward = _backward
    return out


def gelu(x: Node) -> Node:
    v = x.value
    cdf = 0.5 * (1.0 + erf(v / np.sqrt(2.0)))
    out = Node(v * cdf, (x,))

    def _backward():
        pdf = np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)
        x.grad += out.grad * (cdf + v * pdf)

    out._backward = _backward
    return out


def row_softmax(x: Node) -> Node:
    z = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    out = Node(probs, (x,))

    def _backward():
        dot = (out.grad * probs).sum(axis=1, keepdims=True)
        x.grad += probs * (out.grad - dot)

    out._backward = _backward
    return out


def softmax_cross_entropy(logits: Node, target: int) -> Node:
    """Cross-entropy of a single-row logits matrix against a gold class index."""
    if logits.value.shape[0] != 1:
        raise ValueError("softmax_cross_entropy expects a single row of logits")
    n_classes = logits.value.shape[1]
    if not 0 <= target < n_classes:
        raise ValueError(f"target {target} out of range for {n_classes} classes")
    row = logits.value[0]
    lse = np.logaddexp.reduce(row)
    if not np.isfinite(lse):
        raise FloatingPointError("non-finite logits in cross-entropy")
    probs = np.exp(row - lse)
    out = Node([[lse - row[target]]], (logits,))

    def _backward():
        d = probs.copy()
        d[target] -= 1.0
        logits.grad += out.grad[0, 0] * d.reshape(1, -1)

    out._backward = _backward
    return out


def _topo_order(root: Node) -> list[Node]:
    # iterative postorder; graphs can exceed the recursion limit
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Backpropagate from a scalar loss.

    Gradients are zeroed across the whole graph first, then accumulated in
    reverse topological order. Returns {leaf: gradient} for every
    requires_grad leaf reached from the loss.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"loss must be 1x1, got {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = np.zeros_like(node.value)
    loss.grad = np.ones_like(loss.value)
    grads = {}
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
        if node.requires_grad and not node.parents:
            grads[node] = node.grad
    return grads


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
    analytic = {name: node.grad.copy() for name, node in params.items()}
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
