import gc
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annembed import tensor
from annembed.tensor import (
    Node,
    backward,
    constant,
    parameter,
)

from gradcheck import finite_difference_check, sum_all


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
    backward(sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_matmul_closed_form():
    # loss = sum(x @ W) with x fixed: dloss/dW = x^T @ ones
    x_val = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = parameter(np.array([[0.5, -1.0], [2.0, 0.1]]))
    backward(sum_all(tensor.matmul(constant(x_val), w)))
    assert np.allclose(w.grad, x_val.T @ np.ones((2, 2)))


def test_backward_fanout_accumulates():
    x = parameter([[2.0, -1.0]])
    y = tensor.add(x, x)
    backward(sum_all(y))
    assert np.array_equal(x.grad, np.full((1, 2), 2.0))


def test_backward_requires_scalar_loss():
    x = parameter([[1.0, 2.0]])
    with pytest.raises(ValueError):
        backward(x)


def test_backward_returns_leaf_map():
    x = parameter([[1.0, 2.0]])
    y = parameter([[3.0], [4.0]])
    grads = backward(sum_all(tensor.matmul(x, y)))
    assert set(grads) == {x, y}
    assert np.allclose(grads[x], y.value.T)


def test_gather_rows_repeats_accumulate():
    table = parameter(np.arange(8.0).reshape(4, 2))
    picked = tensor.gather_rows(table, [1, 1, 3])
    backward(sum_all(picked))
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


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
    backward(sum_all(out))
    assert np.array_equal(a.grad, np.ones((1, 2)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_scalar_mul_routes_gradient_to_both_sides():
    s = parameter([[3.0]])
    x = parameter([[1.0, 2.0]])
    backward(sum_all(tensor.scalar_mul(s, x)))
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


@pytest.mark.parametrize("indices", [[1.7], [True], np.array([0.9]), np.array([True, False]),
                                     [2, True], (False, 3)],
                         ids=["float", "bool", "float_array", "bool_array", "int_then_bool",
                              "bool_then_int_tuple"])
def test_gather_rows_refuses_indices_that_are_not_integers(indices):
    table = parameter(np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError, match="indices must be integers") as err:
        tensor.gather_rows(table, indices)
    assert repr(indices) in str(err.value)


def test_gather_rows_takes_every_integer_kind_and_checks_the_range():
    table = constant(np.arange(8.0).reshape(4, 2))
    for indices in ([3, 0], np.array([3, 0], dtype=np.int32), np.array([3, 0], dtype=np.uint8),
                    (np.int64(3), 0), np.array([[3], [0]])):
        assert np.array_equal(tensor.gather_rows(table, indices).value, [[6.0, 7.0], [0.0, 1.0]])
    assert tensor.gather_rows(table, []).value.shape == (0, 2)
    for indices in ([4], [-1], np.array([0, 4])):
        with pytest.raises(ValueError, match="out of range"):
            tensor.gather_rows(table, indices)


@pytest.mark.parametrize("target", [1.0, True, np.float64(1.0), np.bool_(True), "1"],
                         ids=["float", "bool", "numpy_float", "numpy_bool", "str"])
def test_softmax_cross_entropy_refuses_a_target_that_is_not_an_integer(target):
    with pytest.raises(ValueError, match="target must be an integer") as err:
        tensor.softmax_cross_entropy(constant([[0.5, 1.0, -1.0]]), target)
    assert repr(target) in str(err.value)


def test_softmax_cross_entropy_takes_a_numpy_integer_target():
    logits = constant([[0.5, 1.0, -1.0]])
    assert (tensor.softmax_cross_entropy(logits, np.int64(1)).value
            == tensor.softmax_cross_entropy(logits, 1).value)


def _reference_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_normal_cdf_table_is_within_four_units_of_2_to_the_minus_53():
    x = np.linspace(-10.0, 10.0, 200_001)
    got = tensor._normal_cdf(x.reshape(1, -1))
    want = np.array([_reference_cdf(v) for v in x.tolist()])
    assert np.max(np.abs(got[0] - want)) <= 4 * 2.0 ** -53


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.floats(min_value=-12.0, max_value=12.0), st.floats(allow_nan=False)))
def test_normal_cdf_table_of_any_float(x):
    assert abs(tensor._normal_cdf(np.array([[x]]))[0, 0] - _reference_cdf(x)) <= 4 * 2.0 ** -53


def test_normal_cdf_is_0_below_and_1_above_the_table():
    below = np.array([[-8.5 - 2.0 ** -40, -9.0, -1e300, -np.inf]])
    above = np.array([[8.5 + 2.0 ** -40, 9.0, 1e300, np.inf]])
    assert np.array_equal(tensor._normal_cdf(below), np.zeros_like(below))
    assert np.array_equal(tensor._normal_cdf(above), np.ones_like(above))


def test_gelu_of_zeros_subnormals_infinities_and_nan_does_not_warn():
    tiny = 5e-324
    x = parameter([[0.0, -0.0, tiny, -tiny, 1e-310, np.inf, -np.inf, np.nan, 1e300, -1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tensor.gelu(x)
        backward(sum_all(out))
    value, slope = out.value[0], x.grad[0]
    assert value[0] == 0.0 and not np.signbit(value[0])
    assert value[1] == 0.0 and np.signbit(value[1])
    assert np.array_equal(value[2:5], [tiny * 0.5, -tiny * 0.5, 1e-310 * 0.5])
    assert value[5] == np.inf and value[6] == 0.0
    assert np.isnan(value[7])
    assert value[8] == 1e300 and value[9] == 0.0
    assert np.array_equal(slope[:5], [0.5] * 5)
    assert np.array_equal(slope[[5, 6, 8, 9]], [1.0, 0.0, 1.0, 0.0])
    assert np.isnan(slope[7])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        tensor.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ValueError):
        tensor.add(constant(np.ones((2, 3))), constant(np.ones((3, 2))))


def test_node_value_shape_contract():
    # gradients are lazy: none before backward, value-shaped after it
    node = Node(5.0, requires_grad=True)
    assert node.value.shape == (1, 1)
    assert node.grad is None
    backward(sum_all(node))
    assert np.array_equal(node.grad, np.ones(node.value.shape))


def test_constant_operand_gets_no_gradient():
    c = constant([[1.0, 2.0], [3.0, 4.0]])
    w = parameter([[0.5], [-1.0]])
    from_constants = tensor.add(c, c)
    assert not c.needs_grad and not from_constants.needs_grad
    grads = backward(sum_all(tensor.matmul(from_constants, w)))
    assert c.grad is None and from_constants.grad is None
    assert set(grads) == {w}
    assert np.array_equal(w.grad, from_constants.value.T @ np.ones((2, 1)))


def test_add_fanout_gradients_do_not_alias():
    # add hands the same gradient to both operands; each must own its copy
    a = parameter([[1.0, 2.0]])
    b = parameter([[3.0, 4.0]])
    backward(sum_all(tensor.add(a, b)))
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.array_equal(b.grad, np.ones((1, 2)))


def test_concat_cols_forward_and_backward():
    a = parameter([[1.0, 2.0], [3.0, 4.0]])
    b = parameter([[5.0], [6.0]])
    out = tensor.concat_cols(a, b)
    assert np.array_equal(out.value, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
    # the transpose / concat_rows / transpose route it replaces, bit for bit
    via_rows = tensor.transpose(tensor.concat_rows(tensor.transpose(a), tensor.transpose(b)))
    assert np.array_equal(out.value, via_rows.value)
    w = constant([[1.0], [10.0], [100.0]])
    backward(sum_all(tensor.matmul(out, w)))
    assert np.array_equal(a.grad, [[1.0, 10.0], [1.0, 10.0]])
    assert np.array_equal(b.grad, [[100.0], [100.0]])
    assert a.grad.flags.c_contiguous and b.grad.flags.c_contiguous
    with pytest.raises(ValueError):
        tensor.concat_cols(a, parameter([[1.0]]))


# A graph case per public function that builds a Node: each case gets its
# parameters from the test and returns the built node.
_GRAPH_CASES = {
    "constant": lambda x, w, s, rng: tensor.add(x, tensor.constant(np.ones((3, 4)))),
    "parameter": lambda x, w, s, rng: tensor.parameter(np.ones(x.value.shape)),
    "matmul": lambda x, w, s, rng: tensor.matmul(x, w),
    "add": lambda x, w, s, rng: tensor.add(x, tensor.gather_rows(w, [1])),
    "scalar_scale": lambda x, w, s, rng: tensor.scalar_scale(x, 0.5),
    "scalar_mul": lambda x, w, s, rng: tensor.scalar_mul(s, x),
    "row_mean": lambda x, w, s, rng: tensor.row_mean(x),
    "gather_rows": lambda x, w, s, rng: tensor.gather_rows(x, [2, 0, 2]),
    "transpose": lambda x, w, s, rng: tensor.transpose(x),
    "concat_rows": lambda x, w, s, rng: tensor.concat_rows(x, w),
    "concat_cols": lambda x, w, s, rng: tensor.concat_cols(x, x),
    "layer_norm": lambda x, w, s, rng: tensor.layer_norm(
        x, tensor.gather_rows(w, [0]), tensor.gather_rows(w, [1])),
    "dropout": lambda x, w, s, rng: tensor.dropout(x, 0.5, rng, training=True),
    "gelu": lambda x, w, s, rng: tensor.gelu(x),
    "row_softmax": lambda x, w, s, rng: tensor.row_softmax(x),
    "softmax_cross_entropy": lambda x, w, s, rng: tensor.softmax_cross_entropy(
        tensor.row_mean(x), 1),
}
# public tensor functions that build no Node
_NOT_GRAPH_BUILDERS = {"backward", "gc_paused"}


def _public_functions():
    return {name for name, fn in inspect.getmembers(tensor, inspect.isfunction)
            if fn.__module__ == tensor.__name__ and not name.startswith("_")}


def _node_builders():
    """Every public function of annembed.tensor annotated to return a Node."""
    return sorted(name for name in _public_functions()
                  if inspect.signature(getattr(tensor, name)).return_annotation
                  in ("Node", Node))


def test_every_public_tensor_function_is_classified():
    # a new primitive must either declare `-> Node`, and so need a graph case
    # below, or be listed as building none
    builders = set(_node_builders())
    assert builders == set(_GRAPH_CASES)
    assert _public_functions() == builders | _NOT_GRAPH_BUILDERS


def test_dropped_graph_needs_no_cyclic_gc():
    # no closure refers to its own node, so refcounting alone frees a graph
    rng = np.random.default_rng(0)
    x = parameter(rng.normal(size=(3, 4)))
    w = parameter(rng.normal(size=(4, 4)))
    s = parameter([[1.5]])
    gamma = parameter(np.ones((1, 4)))
    beta = parameter(np.zeros((1, 4)))
    head = parameter(rng.normal(size=(8, 3)))
    tensor.gelu(x)   # its first call builds the CDF table: keep that out of the checks
    gc.collect()
    gc.disable()
    try:
        h = tensor.gelu(tensor.layer_norm(tensor.matmul(x, w), gamma, beta))
        wide = tensor.concat_cols(h, tensor.gather_rows(x, [2, 0, 1]))
        stacked = tensor.concat_rows(wide, tensor.gather_rows(wide, [0]))
        loss = tensor.softmax_cross_entropy(tensor.matmul(tensor.row_mean(stacked), head), 1)
        backward(loss)
        del h, wide, stacked, loss
        assert gc.collect() == 0
        leaking = []
        for name in _node_builders():
            out = _GRAPH_CASES[name](x, w, s, rng)
            assert isinstance(out, Node)
            backward(sum_all(out))
            del out
            if gc.collect():
                leaking.append(name)
        assert leaking == []
    finally:
        gc.enable()


def _graph_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def test_backward_releases_interior_gradients_and_keeps_leaf_ones():
    # every primitive in one graph, with fan-out: x and w feed many cases
    rng = np.random.default_rng(3)
    x = parameter(rng.normal(size=(3, 4)))
    w = parameter(rng.normal(size=(4, 4)))
    s = parameter([[1.5]])
    loss = None
    for name in _node_builders():
        term = sum_all(_GRAPH_CASES[name](x, w, s, rng))
        loss = term if loss is None else tensor.add(loss, term)
    first = {leaf: g.copy() for leaf, g in backward(loss).items()}
    nodes = _graph_nodes(loss)
    interior = [node for node in nodes if node.parents]
    assert len(interior) > 30
    assert all(node.grad is None for node in interior)
    assert {x, w, s} <= set(first)
    assert set(first) == {node for node in nodes if node.needs_grad and not node.parents}
    for leaf, g in first.items():
        assert np.array_equal(leaf.grad, g)
    # a second backward over the same graph returns the same bits
    second = backward(loss)
    assert second.keys() == first.keys()
    for leaf, g in first.items():
        assert np.array_equal(second[leaf], g)
        assert second[leaf] is leaf.grad
    assert all(node.grad is None for node in interior)


# the parameters of a drawn program, adjacent views of one θ in this order
_THETA_SHAPES = {"x": (3, 4), "w": (4, 4), "s": (1, 1)}


def _theta_views(theta):
    views, offset = {}, 0
    for name, (rows, cols) in _THETA_SHAPES.items():
        views[name] = parameter(theta[offset:offset + rows * cols].reshape(rows, cols))
        offset += rows * cols
    return views


@st.composite
def _programs(draw):
    """2 to 8 operations over every public -> Node function, each as (name,
    whether it reads the previous output); one that does not, or whose
    predecessor's output is not 3 x 4, reads x. The first and one other
    operation read x, so x always feeds two operations."""
    names = draw(st.lists(st.sampled_from(_node_builders()), min_size=2, max_size=8))
    chained = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    chained[0] = chained[draw(st.integers(1, len(names) - 1))] = False
    return list(zip(names, chained))


def _program_loss(program, params, seed):
    """The program's graph: each output reduced by fixed random row and column
    weights, and the reductions added. Rebuilt the same for a seed, dropout
    masks included."""
    rng = np.random.default_rng(seed)
    weights = np.random.default_rng(seed + 1)
    x, w, s = params["x"], params["w"], params["s"]
    out, loss = x, None
    for name, chained in program:
        out = _GRAPH_CASES[name](out if chained and out.value.shape == (3, 4) else x, w, s, rng)
        rows, cols = out.value.shape
        term = tensor.matmul(tensor.matmul(constant(weights.uniform(0.5, 1.5, (1, rows))), out),
                             constant(weights.uniform(0.5, 1.5, (cols, 1))))
        loss = term if loss is None else tensor.add(loss, term)
    return loss


@settings(max_examples=60, deadline=None, derandomize=True)
@given(program=_programs(), seed=st.integers(0, 2 ** 16))
def test_random_programs_over_theta_views_match_finite_differences(program, seed):
    theta = np.random.default_rng(seed).normal(size=sum(r * c for r, c in _THETA_SHAPES.values()))
    before = theta.copy()
    params = _theta_views(theta)
    assert all(np.shares_memory(p.value, theta) for p in params.values())
    tensor.gelu(params["x"])   # its first call builds the CDF table: keep that out of gc
    gc.collect()
    gc.disable()
    try:
        loss = _program_loss(program, params, seed)
        grads = backward(loss)
        nodes = _graph_nodes(loss)
        assert all(node.grad is None for node in nodes if node.parents)
        leaves = {node for node in nodes if node.needs_grad and not node.parents}
        assert set(grads) == leaves and params["x"] in leaves
        for leaf, g in grads.items():
            assert leaf.grad is g
        del loss, grads, nodes, leaves
        assert gc.collect() == 0
    finally:
        gc.enable()
    err = finite_difference_check(lambda: _program_loss(program, params, seed), params)
    assert err < 1e-6, program
    assert theta.tobytes() == before.tobytes()
