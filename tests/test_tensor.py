import numpy as np
import pytest

from annembed import tensor
from annembed.tensor import (
    Node,
    backward,
    constant,
    finite_difference_check,
    parameter,
)


def test_row_mean_arithmetic():
    x = constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(tensor.row_mean(x).value, [[3.0, 4.0]])


def test_layer_norm_constant_row_gives_beta():
    x = constant([[5.0, 5.0, 5.0]])
    gamma = constant([[1.0, 1.0, 1.0]])
    beta = constant([[0.3, -0.1, 2.0]])
    out = tensor.layer_norm(x, gamma, beta)
    assert np.allclose(out.value, beta.value)


def test_layer_norm_row_statistics():
    rng = np.random.default_rng(0)
    x = constant(rng.normal(size=(5, 8)))
    gamma = constant(np.ones((1, 8)))
    beta = constant(np.zeros((1, 8)))
    out = tensor.layer_norm(x, gamma, beta).value
    assert np.all(np.abs(out.mean(axis=1)) < 1e-9)
    assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-9)


def test_softmax_cross_entropy_uniform():
    loss = tensor.softmax_cross_entropy(constant([[0.0, 0.0, 0.0]]), 1)
    assert loss.value[0, 0] == pytest.approx(np.log(3.0), abs=1e-12)


def test_softmax_cross_entropy_saturated():
    loss = tensor.softmax_cross_entropy(constant([[10.0, -10.0]]), 0)
    assert loss.value[0, 0] == pytest.approx(2.061e-9, rel=1e-3)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    probs = tensor.row_softmax(constant(rng.normal(size=(4, 7)) * 5)).value
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_backward_sum_gives_ones():
    x = parameter(np.arange(6.0).reshape(2, 3))
    backward(tensor.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_matmul_closed_form():
    # loss = sum(x @ W) with x fixed: dloss/dW = x^T @ ones
    x_val = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = parameter(np.array([[0.5, -1.0], [2.0, 0.1]]))
    backward(tensor.sum_all(tensor.matmul(constant(x_val), w)))
    assert np.allclose(w.grad, x_val.T @ np.ones((2, 2)))


def test_backward_fanout_accumulates():
    x = parameter([[2.0, -1.0]])
    y = tensor.add(x, x)
    backward(tensor.sum_all(y))
    assert np.array_equal(x.grad, np.full((1, 2), 2.0))


def test_backward_requires_scalar_loss():
    x = parameter([[1.0, 2.0]])
    with pytest.raises(ValueError):
        backward(x)


def test_backward_returns_leaf_map():
    x = parameter([[1.0, 2.0]])
    y = parameter([[3.0], [4.0]])
    grads = backward(tensor.sum_all(tensor.matmul(x, y)))
    assert set(grads) == {x, y}
    assert np.allclose(grads[x], y.value.T)


def test_gather_rows_repeats_accumulate():
    table = parameter(np.arange(8.0).reshape(4, 2))
    picked = tensor.gather_rows(table, [1, 1, 3])
    backward(tensor.sum_all(picked))
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_scatter_add_forward_and_backward():
    base = parameter(np.zeros((3, 2)))
    rows = parameter(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = tensor.scatter_add(base, [0, 2, 0], rows)
    assert np.array_equal(out.value, [[6.0, 8.0], [0.0, 0.0], [3.0, 4.0]])
    backward(tensor.sum_all(out))
    assert np.array_equal(base.grad, np.ones((3, 2)))
    assert np.array_equal(rows.grad, np.ones((3, 2)))


def test_dropout_eval_is_identity():
    x = constant(np.arange(6.0).reshape(2, 3))
    out = tensor.dropout(x, 0.5, np.random.default_rng(0), training=False)
    assert np.array_equal(out.value, x.value)


def test_dropout_probability_validated():
    x = constant([[1.0]])
    with pytest.raises(ValueError):
        tensor.dropout(x, 1.0, np.random.default_rng(0), training=True)


def test_dropout_preserves_expectation():
    # Monte-Carlo: the mean over many masks stays within 2% of the input
    rng = np.random.default_rng(7)
    x = constant(np.full((4, 25), 2.0))
    total = np.zeros((4, 25))
    n = 4000
    for _ in range(n):
        total += tensor.dropout(x, 0.3, rng, training=True).value
    assert abs(total.mean() / n - 2.0) / 2.0 < 0.02
    # surviving entries carry the 1/(1-p) scale
    sample = tensor.dropout(x, 0.3, rng, training=True).value
    kept = sample[sample != 0.0]
    assert np.allclose(kept, 2.0 / 0.7)


def test_concat_and_transpose_roundtrip():
    a = parameter([[1.0, 2.0]])
    b = parameter([[3.0, 4.0], [5.0, 6.0]])
    out = tensor.transpose(tensor.concat_rows(a, b))
    assert out.value.shape == (2, 3)
    backward(tensor.sum_all(out))
    assert np.array_equal(a.grad, np.ones((1, 2)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_scalar_mul_routes_gradient_to_both_sides():
    s = parameter([[3.0]])
    x = parameter([[1.0, 2.0]])
    backward(tensor.sum_all(tensor.scalar_mul(s, x)))
    assert s.grad[0, 0] == pytest.approx(3.0)
    assert np.allclose(x.grad, [[3.0, 3.0]])


def test_finite_difference_quadratic():
    theta = parameter(np.array([[0.7, -1.3, 0.4]]))

    def f():
        return tensor.matmul(theta, tensor.transpose(theta))

    err = finite_difference_check(f, {"theta": theta}, eps=1e-5)
    assert err < 1e-9


def test_finite_difference_mixed_graph():
    rng = np.random.default_rng(3)
    w = parameter(rng.normal(size=(4, 4)))
    gamma = parameter(np.ones((1, 4)))
    beta = parameter(np.zeros((1, 4)))
    x = constant(rng.normal(size=(3, 4)))

    def f():
        h = tensor.gelu(tensor.matmul(x, w))
        h = tensor.layer_norm(h, gamma, beta)
        return tensor.softmax_cross_entropy(tensor.row_mean(h), 2)

    err = finite_difference_check(f, {"w": w, "gamma": gamma, "beta": beta},
                                  rng=np.random.default_rng(0))
    assert err < 1e-6


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        tensor.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ValueError):
        tensor.add(constant(np.ones((2, 3))), constant(np.ones((3, 2))))


def test_node_value_shape_contract():
    node = Node(5.0)
    assert node.value.shape == (1, 1)
    assert node.grad.shape == node.value.shape
