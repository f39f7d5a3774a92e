"""Dense float64 matrices with reverse-mode differentiation.

Every value is a 2-D row-major float64 array wrapped in a Node. Each
operation gives its output node a backward closure of one argument, the
gradient arriving at that node; backward() calls the closures in reverse
topological order, accumulating gradients additively across fan-out. A
closure refers to the node's parents and never to the node itself, so a
graph holds no reference cycle and is freed by refcounting as soon as the
last reference to its output is dropped. That is why training and every CLI
command run under gc_paused(): the cyclic collector would only rescan the
live graphs of a minibatch and find nothing to free.
Gradients are demand-driven: a node needs one only if it is a parameter or
depends on one, and its buffer is created when the first contribution
arrives, so forward-only passes allocate no gradient memory. backward()
releases an interior node's gradient as soon as its closure has passed it
on; only the parameters (leaves) keep theirs. A training step holds one
graph, its own, from its forward to its optimizer update, and drops it
before the next step's forward begins.
Randomness (dropout) always comes from an explicitly passed numpy PCG64
generator, so a 64-bit seed reproduces a run exactly on the same machine
with the same numpy and BLAS build.
gelu reads the normal CDF from a 238 KiB table of degree-5 Taylor
coefficients at -8.5 + i / 256, built on first use and within 2**-53 of the
exact value; numpy is the only library a run depends on.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math

import numpy as np

LAYER_NORM_EPS = 1e-12
_CDF_LIMIT, _CDF_STEPS = 8.5, 256   # the CDF table spans [-8.5, 8.5], 256 points per unit
_PDF_LIMIT = 40.0   # the density is clipped to [-40, 40]: exp(-800) is already 0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@contextlib.contextmanager
def gc_paused():
    """Disable the cyclic garbage collector for the block (or the decorated
    call) and restore the caller's setting on the way out, even on error.
    Refcounting still frees every acyclic graph; only cycles wait."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _as_matrix(data) -> np.ndarray:
    if (type(data) is np.ndarray and data.ndim == 2 and data.dtype == np.float64
            and data.flags.c_contiguous):
        return data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"expected at most 2 dimensions, got {arr.ndim}")
    return np.ascontiguousarray(arr)


class Node:
    """A value, its parents, and (after backward) its gradient.

    backward, if given, is a function of the gradient arriving at this node
    that passes contributions on to the parents; it must not refer to the
    node it belongs to. grad is None until backward delivers a contribution.
    needs_grad is fixed at construction: true for a parameter (requires_grad)
    and for anything computed from one, false for constants and everything
    built only from constants.
    """

    __slots__ = ("value", "grad", "parents", "needs_grad", "_backward")

    def __init__(self, value, parents=(), requires_grad=False, backward=None):
        self.value = _as_matrix(value)
        self.grad = None
        self.parents = tuple(parents)
        self.needs_grad = bool(requires_grad)
        for parent in self.parents:   # a plain loop: any() costs a generator per node
            if parent.needs_grad:
                self.needs_grad = True
                break
        self._backward = backward

    def accumulate(self, g: np.ndarray) -> None:
        """Add a value-shaped contribution g to grad.

        The first contribution is stored as a private C-ordered copy, since
        callers may pass a view of, or the very buffer of, another node's
        gradient; later ones are added in place.
        """
        if not self.needs_grad:
            return
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self):
        return f"Node(shape={self.value.shape}, needs_grad={self.needs_grad})"


def constant(value) -> Node:
    return Node(value)


def parameter(value) -> Node:
    return Node(value, requires_grad=True)


def matmul(a: Node, b: Node) -> Node:
    try:
        value = a.value @ b.value
    except ValueError:
        raise ValueError(f"matmul shape mismatch {a.value.shape} x {b.value.shape}") from None

    def _backward(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return Node(value, (a, b), backward=_backward)


def add(a: Node, b: Node) -> Node:
    """Elementwise add; a 1-row right operand broadcasts over the rows of a."""
    if a.value.shape == b.value.shape:
        def _backward(g):
            a.accumulate(g)
            b.accumulate(g)

    elif b.value.shape == (1, a.value.shape[1]):
        def _backward(g):
            a.accumulate(g)
            b.accumulate(g.sum(axis=0, keepdims=True))

    else:
        raise ValueError(f"add shape mismatch {a.value.shape} + {b.value.shape}")
    return Node(a.value + b.value, (a, b), backward=_backward)


def scalar_scale(a: Node, c: float) -> Node:
    """Multiply by a plain Python constant."""
    c = float(c)

    def _backward(g):
        a.accumulate(g * c)

    return Node(a.value * c, (a,), backward=_backward)


def scalar_mul(s: Node, a: Node) -> Node:
    """Multiply a matrix by a differentiable 1x1 scalar node."""
    if s.value.shape != (1, 1):
        raise ValueError(f"scalar operand must be 1x1, got {s.value.shape}")

    def _backward(g):
        s.accumulate(np.array([[np.sum(g * a.value)]]))
        a.accumulate(g * s.value[0, 0])

    return Node(s.value[0, 0] * a.value, (s, a), backward=_backward)


def row_mean(a: Node) -> Node:
    """Column-wise mean over all rows, yielding a single row."""
    rows = a.value.shape[0]
    if rows == 0:
        raise ValueError("row_mean of an empty matrix")

    def _backward(g):
        a.accumulate(np.repeat(g / rows, rows, axis=0))

    return Node(a.value.sum(axis=0, keepdims=True) / rows, (a,), backward=_backward)


def gather_rows(a: Node, indices) -> Node:
    """Fetch rows by index; repeated indices accumulate gradient on backward."""
    idx = np.asarray(indices).reshape(-1)
    # np.asarray([2, True]) is an int array, so a list or tuple is checked for bools
    if (idx.size and idx.dtype.kind not in "iu"
            or isinstance(indices, (list, tuple)) and bool in map(type, indices)):
        raise ValueError(f"gather_rows indices must be integers, got {indices!r}")
    flat = idx.tolist()   # Python min/max over a short list beat two numpy reductions
    if flat and (min(flat) < 0 or max(flat) >= a.value.shape[0]):
        raise ValueError("gather_rows index out of range")
    idx = idx.astype(np.intp, copy=False)   # np.asarray([]) is float64

    def _backward(g):
        # add.at straight into the buffer: summing into a temporary first and
        # adding that would reorder the additions and move the last bits
        if a.needs_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.value)
            np.add.at(a.grad, idx, g)

    return Node(a.value[idx], (a,), backward=_backward)


def transpose(a: Node) -> Node:
    def _backward(g):
        a.accumulate(g.T)

    return Node(a.value.T, (a,), backward=_backward)


def concat_rows(*nodes: Node) -> Node:
    cols = {n.value.shape[1] for n in nodes}
    if len(cols) != 1:
        raise ValueError("concat_rows needs equal column counts")

    def _backward(g):
        offset = 0
        for n in nodes:
            rows = n.value.shape[0]
            n.accumulate(g[offset:offset + rows])
            offset += rows

    return Node(np.concatenate([n.value for n in nodes], axis=0), nodes, backward=_backward)


def concat_cols(*nodes: Node) -> Node:
    rows = {n.value.shape[0] for n in nodes}
    if len(rows) != 1:
        raise ValueError("concat_cols needs equal row counts")

    def _backward(g):
        offset = 0
        for n in nodes:
            cols = n.value.shape[1]
            n.accumulate(g[:, offset:offset + cols])
            offset += cols

    return Node(np.concatenate([n.value for n in nodes], axis=1), nodes, backward=_backward)


def layer_norm(x: Node, gamma: Node, beta: Node) -> Node:
    """Per-row normalization to mean 0 / variance 1, then affine gamma, beta."""
    if gamma.value.shape != (1, x.value.shape[1]) or beta.value.shape != (1, x.value.shape[1]):
        raise ValueError("layer_norm affine shapes must be 1 x cols")
    # sum / cols is exactly what np.mean and np.var compute, minus their overhead
    cols = x.value.shape[1]
    centered = x.value - x.value.sum(axis=1, keepdims=True) / cols
    var = (centered * centered).sum(axis=1, keepdims=True) / cols
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    norm = centered * inv

    def _backward(g):
        # g stays the incoming gradient: gamma and beta need it unscaled
        g_norm = g * gamma.value
        # d/dx of (x - mu) * inv with mu, var per row
        m1 = g_norm.sum(axis=1, keepdims=True) / cols
        m2 = (g_norm * norm).sum(axis=1, keepdims=True) / cols
        x.accumulate((g_norm - m1 - norm * m2) * inv)
        gamma.accumulate((g * norm).sum(axis=0, keepdims=True))
        beta.accumulate(g.sum(axis=0, keepdims=True))

    return Node(norm * gamma.value + beta.value, (x, gamma, beta), backward=_backward)


def dropout(x: Node, p: float, rng: np.random.Generator, training: bool) -> Node:
    """Inverted dropout: surviving entries scaled by 1/(1-p); identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.value.shape) >= p) / (1.0 - p)

    def _backward(g):
        x.accumulate(g * mask)

    return Node(x.value * mask, (x,), backward=_backward)


@functools.cache
def _cdf_table() -> tuple:
    """Rows Phi^(k)(x_i) / k!, k = 5..0, then x_i = -8.5 + i / 256; Phi^(m+1) = (-1)^m He_m phi"""
    x = np.arange(2 * _CDF_LIMIT * _CDF_STEPS + 1) / _CDF_STEPS - _CDF_LIMIT
    rows = [np.array([0.5 * math.erfc(-xi / math.sqrt(2.0)) for xi in x.tolist()])]
    pdf = np.exp(-0.5 * x * x) / _SQRT_2PI
    he_prev, he = np.zeros_like(x), np.ones_like(x)
    for m in range(5):
        rows.append((-1) ** m * he * pdf / math.factorial(m + 1))
        he_prev, he = he, x * he - m * he_prev
    return (*rows[::-1], x)


def _normal_cdf(v: np.ndarray) -> np.ndarray:
    """Phi elementwise by the Taylor polynomial at the nearest grid point; 0
    below -8.5, 1 above 8.5, and finite at NaN, which callers carry in v."""
    *coefficients, grid = _cdf_table()
    t = np.fmin(np.fmax(v, -_CDF_LIMIT), _CDF_LIMIT)   # NaN goes to a bound, never to an index
    i = (t * _CDF_STEPS + (_CDF_LIMIT * _CDF_STEPS + 0.5)).astype(np.intp)
    t -= grid.take(i)   # exact: both are binary fractions within 2**-9
    cdf = coefficients[0].take(i)
    for row in coefficients[1:]:   # Horner, in place
        cdf *= t
        cdf += row.take(i)
    np.copyto(cdf, 0.0, where=v < -_CDF_LIMIT)
    return cdf


def gelu(x: Node) -> Node:
    """x * Phi(x), Phi the standard normal CDF (the exact GELU)."""
    v = x.value
    cdf = _normal_cdf(v)

    def _backward(g):
        r = np.minimum(np.maximum(v, -_PDF_LIMIT), _PDF_LIMIT)   # no overflow, no inf * 0
        pdf = np.exp(-0.5 * r * r) / _SQRT_2PI
        x.accumulate(g * (cdf + r * pdf))

    return Node(np.maximum(v, -_CDF_LIMIT) * cdf, (x,), backward=_backward)   # no -inf * 0


def row_softmax(x: Node) -> Node:
    z = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)

    def _backward(g):
        dot = (g * probs).sum(axis=1, keepdims=True)
        x.accumulate(probs * (g - dot))

    return Node(probs, (x,), backward=_backward)


def softmax_cross_entropy(logits: Node, target: int) -> Node:
    """Cross-entropy of a single-row logits matrix against a gold class index."""
    if logits.value.shape[0] != 1:
        raise ValueError("softmax_cross_entropy expects a single row of logits")
    if not (type(target) is int or isinstance(target, np.integer)):
        raise ValueError(f"target must be an integer class index, got {target!r}")
    n_classes = logits.value.shape[1]
    if not 0 <= target < n_classes:
        raise ValueError(f"target {target} out of range for {n_classes} classes")
    row = logits.value[0]
    lse = np.logaddexp.reduce(row)
    if not np.isfinite(lse):
        raise FloatingPointError("non-finite logits in cross-entropy")
    probs = np.exp(row - lse)

    def _backward(g):
        d = probs.copy()
        d[target] -= 1.0
        logits.accumulate(g[0, 0] * d.reshape(1, -1))

    return Node([[lse - row[target]]], (logits,), backward=_backward)


def _topo_order(root: Node) -> list[Node]:
    # iterative postorder over the nodes that need a gradient; graphs can
    # exceed the recursion limit. A node that needs no gradient has no
    # ancestor that does, so pruning it keeps the order of the rest.
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent.needs_grad and parent not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Backpropagate from a scalar loss.

    Gradients are cleared to None across the reached graph first, then
    accumulated in reverse topological order; a node whose gradient never
    arrived is skipped. An interior node's gradient is released (set back to
    None) as soon as its closure has passed it on, so only the gradients of
    the current frontier are alive at once. Returns {leaf: gradient} for
    every parameter reached from the loss; leaves keep theirs in grad.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"loss must be 1x1, got {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    grads = {}
    for node in reversed(order):
        if node.grad is None:
            continue
        if node._backward is not None:
            node._backward(node.grad)
        if node.parents:
            node.grad = None
        elif node.needs_grad:
            grads[node] = node.grad
    return grads
