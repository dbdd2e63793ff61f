"""Forward fixtures and gradient checks for the array engine."""

import weakref

import numpy as np
import pytest

from stormstack.errors import DimensionError, NumericError, UsageError
from stormstack.tensor import (
    Graph,
    Tensor,
    _emit,
    add,
    backward,
    bias_add,
    channel_affine,
    concat,
    conv1d,
    grad_check,
    matmul,
    mul,
    nll_loss,
    relu,
    scale,
    sigmoid,
    softmax,
    sum_all,
    swap_last_axes,
    tanh,
    time_mean,
    time_slice,
    time_stack,
)


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert list(t.values) == [1.0, 2.0, 3.0, 4.0]
    assert t.grad is None
    with pytest.raises(NumericError):
        Tensor([np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf])
    with pytest.raises(UsageError):
        t.item()
    assert Tensor(3.5).item() == 3.5


def test_tensor_values_are_frozen():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.array[0] = 9.0


def test_matmul_fixtures():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).array, m.array)
    got = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert got.array == np.array([[11.0]])
    with pytest.raises(DimensionError):
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))


def test_matmul_grad_of_product_sum():
    # d/dA sum(A B) = ones @ B^T, d/dB = A^T @ ones
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    with Graph() as g:
        loss = sum_all(matmul(a, b))
    backward(g, loss)
    ones = np.ones((2, 2))
    assert np.allclose(a.grad, ones @ b.array.T)
    assert np.allclose(b.grad, a.array.T @ ones)


def test_matmul_chain_associativity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        left = matmul(matmul(a, b), c).array
        right = matmul(a, matmul(b, c)).array
        assert np.abs(left - right).max() < 1e-9


def test_conv1d_fixture():
    x = Tensor([[[1.0], [2.0], [3.0]]])
    w = Tensor(np.ones((2, 1, 1)))
    b = Tensor([0.0])
    got = conv1d(x, w, b)
    assert got.shape == (1, 2, 1)
    assert list(got.values) == [3.0, 5.0]


def test_conv1d_zero_weights():
    x = Tensor(np.arange(12.0).reshape(1, 4, 3))
    w = Tensor(np.zeros((2, 3, 5)))
    b = Tensor(np.zeros(5))
    assert np.all(conv1d(x, w, b).array == 0.0)


def test_conv1d_same_padding_length():
    x = Tensor(np.ones((1, 6, 2)))
    w = Tensor(np.ones((3, 2, 4)))
    b = Tensor(np.zeros(4))
    assert conv1d(x, w, b, padding="same").shape == (1, 6, 4)
    assert conv1d(x, w, b, padding="valid").shape == (1, 4, 4)
    with pytest.raises(UsageError):
        conv1d(x, w, b, padding="full")


def test_conv1d_kernel_too_long():
    x = Tensor(np.ones((1, 2, 3)))
    w = Tensor(np.ones((4, 3, 1)))
    with pytest.raises(DimensionError):
        conv1d(x, w, Tensor([0.0]))


def test_conv1d_and_nll_loss_take_batches_only():
    with pytest.raises(DimensionError):
        conv1d(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2, 1))), Tensor([0.0]))
    with pytest.raises(DimensionError):
        nll_loss(Tensor([0.25, 0.75]), [1])


def test_relu_sigmoid_tanh_fixtures():
    x = Tensor([-1.0, 0.0, 2.0])
    assert list(relu(x).values) == [0.0, 0.0, 2.0]
    assert sigmoid(Tensor([0.0])).values[0] == 0.5
    # extreme logits must not overflow
    big = sigmoid(Tensor([800.0, -800.0])).array
    assert big[0] == 1.0 and big[1] == 0.0
    assert abs(tanh(Tensor([1.0])).values[0] - np.tanh(1.0)) < 1e-15


def _two_branch_sigmoid(z):
    # the masked form sigmoid used before its exp(-|z|) form: the oracle
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_match_the_two_branch_form():
    edges = np.array([0.0, -0.0, 1e-320, -1e-320, 745.2, -745.2, 800.0, -800.0,
                      np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0])
    blocks = [edges] + [
        scale_ * np.random.default_rng(70 + k).standard_normal((60, 64))
        for k, scale_ in enumerate((1.0, 10.0, 100.0, 800.0))
    ]
    for z in blocks:
        assert sigmoid(Tensor(z)).array.tobytes() == _two_branch_sigmoid(z).tobytes()


def test_zero_dim_elementwise_ops():
    # a NumPy elementwise op on a 0-d array returns a scalar, not an array
    x = Tensor(np.array(-2.0))
    for out in (relu(x), sigmoid(x), tanh(x), scale(x, 3.0), add(x, x), mul(x, x)):
        assert isinstance(out.array, np.ndarray) and out.shape == ()
        assert not out.array.flags.writeable
    assert scale(x, 3.0).item() == -6.0


def test_relu_grad_at_zero_is_zero():
    x = Tensor([0.0, -1.0, 3.0])
    with Graph() as g:
        loss = sum_all(relu(x))
    backward(g, loss)
    assert list(x.grad) == [0.0, 0.0, 1.0]


def test_add_mul_shape_checks():
    a = Tensor([1.0, 2.0])
    with pytest.raises(DimensionError):
        add(a, Tensor([[1.0, 2.0]]))
    with pytest.raises(DimensionError):
        mul(a, Tensor([1.0, 2.0, 3.0]))
    assert list(add(a, a).values) == [2.0, 4.0]
    assert list(mul(a, a).values) == [1.0, 4.0]


def test_concat_and_grads():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0]])
    out = concat([a, b])
    assert list(out.values) == [1.0, 2.0, 3.0]
    with Graph() as g:
        loss = sum_all(scale(concat([a, b]), 2.0))
    backward(g, loss)
    assert np.all(a.grad == 2.0) and np.all(b.grad == 2.0)
    with pytest.raises(UsageError):
        concat([])
    with pytest.raises(DimensionError):
        concat([a, Tensor([[1.0], [2.0]])])


def test_concat_backward_slices_the_output_grad():
    rng = np.random.default_rng(8)
    parts = [Tensor(rng.standard_normal((2, 3, n))) for n in (4, 1, 5)]
    with Graph() as g:
        out = concat(parts)
    g_out = rng.standard_normal(out.shape)
    kept = g_out.copy()
    _, _, bwd = g.ops[-1]
    pieces = bwd(g_out)
    want = np.split(kept, [4, 5], axis=-1)
    assert [p.tobytes() for p in pieces] == [w.tobytes() for w in want]
    # the same input twice: its first piece aliases out's grad, which
    # backward must not add the second piece into
    a, c = parts[0], Tensor(rng.standard_normal((2, 3, 8)))
    with Graph() as g:
        out = concat([a, a])
        loss = sum_all(mul(out, c))
    backward(g, loss)
    assert out.grad.tobytes() == c.array.tobytes()
    assert a.grad.tobytes() == (c.array[..., :4] + c.array[..., 4:]).tobytes()


def test_softmax_fixtures():
    assert list(softmax(Tensor([0.0, 0.0])).values) == [0.5, 0.5]
    same = softmax(Tensor([1000.0, 1000.0, 1000.0])).array
    assert np.abs(same - 1.0 / 3.0).max() < 1e-12
    skew = softmax(Tensor([0.0, np.log(3.0)])).array
    assert np.abs(skew - [0.25, 0.75]).max() < 1e-12
    rows = softmax(Tensor(np.random.default_rng(1).standard_normal((6, 4)))).array
    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-12


def test_backward_fixtures():
    x = Tensor([1.0, -2.0])
    with Graph() as g:
        loss = sum_all(mul(x, x))
    backward(g, loss)
    assert list(x.grad) == [2.0, -4.0]
    with Graph() as g:
        y = sum_all(x)
    backward(g, y)
    assert np.all(x.grad == 1.0)


def test_backward_rejects_vector_loss():
    x = Tensor([1.0, 2.0])
    with Graph() as g:
        y = mul(x, x)
    with pytest.raises(UsageError):
        backward(g, y)


def test_backward_accumulates_over_reuse():
    # x feeds the loss twice; grads must sum, not overwrite
    x = Tensor([3.0])
    with Graph() as g:
        loss = sum_all(add(x, x))
    backward(g, loss)
    assert list(x.grad) == [2.0]


def _out_of_place_grads(graph, loss):
    """backward's sums with every accumulation a new array: {id: grad}
    for each tensor still alive.  Tape entries hold weak references,
    keyed here as backward keys them."""
    grads = {weakref.ref(loss): np.ones_like(loss.array)}
    for out_ref, inputs, backward_fn in reversed(graph.ops):
        g = grads.get(out_ref)
        if g is None:
            continue
        for ref, piece in zip(inputs, backward_fn(g)):
            if piece is not None:
                have = grads.get(ref)
                grads[ref] = piece if have is None else have + piece
    return {id(t): g for ref, g in grads.items() if (t := ref()) is not None}


def test_backward_in_place_sums_match_out_of_place_bits():
    # a gets add(a, a)'s aliased pieces and concat([a, a])'s slices; v
    # gets a slice of out's grad first, then add's piece (the same slice
    # of out's grad, through s), then a product it is added into in place
    rng = np.random.default_rng(15)
    a, v, d = (Tensor(rng.standard_normal((2, 3, 4))) for _ in range(3))
    w = Tensor(rng.standard_normal((2, 3, 20)))
    with Graph() as g:
        m = mul(v, d)
        s = add(v, m)
        y = add(a, a)
        c = concat([a, a])
        out = concat([y, c, v, s])
        loss = sum_all(mul(out, w))
    want = _out_of_place_grads(g, loss)  # before backward spends g
    backward(g, loss)
    tensors = (a, v, d, w, m, s, y, c, out, loss)
    # the grads handed to each backward_fn (out's, y's, s's, ...) are unchanged
    assert [t.grad.tobytes() for t in tensors] == [want[id(t)].tobytes() for t in tensors]
    # a 0-d sum is a NumPy scalar, which a third piece cannot be added into
    x = Tensor(np.array(1.5))
    with Graph() as g:
        loss = add(mul(x, x), x)
    want = _out_of_place_grads(g, loss)
    backward(g, loss)
    assert np.asarray(x.grad).tobytes() == np.asarray(want[id(x)]).tobytes()


def test_backward_adds_into_a_new_piece_only_when_one_input_has_it():
    # a rule may hand one array it just made to two inputs: a's later piece
    # (from mul, recorded earlier) must go into a new sum, not into b's grad
    rng = np.random.default_rng(25)
    a, b, w, u = (Tensor(rng.standard_normal((2, 3))) for _ in range(4))

    def shared(g):
        piece = g * 2.0
        return piece, piece

    with Graph() as g:
        early = mul(a, w)
        twice = _emit(2.0 * (a.array + b.array), (a, b), shared)
        loss = sum_all(add(mul(twice, u), early))
    want = _out_of_place_grads(g, loss)
    backward(g, loss)
    assert [t.grad.tobytes() for t in (a, b, w, u)] == [want[id(t)].tobytes() for t in (a, b, w, u)]


def test_the_tape_frees_an_intermediate_the_program_drops():
    # m feeds only bias_add, whose rule reads nothing of it: once the
    # program drops m, the weak tape lets it and its array go before
    # backward, and the leaves still get the oracle's bits
    rng = np.random.default_rng(21)
    x, w, b = (Tensor(rng.standard_normal(shape)) for shape in ((4, 3), (3, 5), (5,)))
    with Graph() as g:
        m = matmul(x, w)
        dead = weakref.ref(m), weakref.ref(m.array)
        y = bias_add(m, b)
        del m
        loss = sum_all(sigmoid(y))
    assert [r() for r in dead] == [None, None]
    want = _out_of_place_grads(g, loss)
    backward(g, loss)
    live = (x, w, b, y, loss)
    assert [t.grad.tobytes() for t in live] == [want[id(t)].tobytes() for t in live]


def _recurrence(x, w, keep):
    """Forty steps of h = tanh(mul(h, w) + u) from h = x, u a new leaf
    holding x's values at each step, recorded on a new Graph: (graph,
    loss, every eighth h, ids of the op outputs, ids of the leaves u).
    keep, when a list, holds every tensor; otherwise each is dropped
    once used, so new tensors take the ids of freed ones."""
    kept, outs, leaves = [], [], []
    h = x
    with Graph() as g:
        for step in range(40):
            m = mul(h, w)
            u = Tensor(x.array)
            a = add(m, u)
            h = tanh(a)
            outs += (id(m), id(a), id(h))
            leaves.append(id(u))
            if keep is not None:
                keep += (m, u, a, h)
            if step % 8 == 0:
                kept.append(h)
        loss = sum_all(h)
    return g, loss, kept, outs, leaves


def test_backward_keys_tensors_whose_ids_are_reused():
    rng = np.random.default_rng(23)
    x, w = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((2, 3)))
    g, loss, kept, outs, leaves = _recurrence(x, w, [])
    assert len(set(outs + leaves)) == len(outs + leaves)
    backward(g, loss)
    strong = [t.grad.tobytes() for t in (x, w, *kept, loss)]
    # without the keep list a leaf takes the id of a freed op output, whose
    # grad an id-keyed backward would add into the leaf's
    g, loss, kept, outs, leaves = _recurrence(x, w, None)
    assert set(outs) & set(leaves)
    want = _out_of_place_grads(g, loss)
    backward(g, loss)
    live = (x, w, *kept, loss)
    assert [t.grad.tobytes() for t in live] == [want[id(t)].tobytes() for t in live] == strong


def test_backward_spends_its_graph():
    x = Tensor([1.0, -2.0])
    with Graph() as g:
        y = mul(x, x)
        loss = sum_all(y)
    backward(g, loss)
    assert g.ops is None
    # every tensor keeps its grad, the intermediate's included
    assert list(x.grad) == [2.0, -4.0] and list(y.grad) == [1.0, 1.0] and loss.grad == 1.0
    with pytest.raises(UsageError, match="spent"):
        backward(g, loss)
    assert list(x.grad) == [2.0, -4.0]


def test_no_graph_means_no_tape():
    x = Tensor([1.0])
    y = mul(x, x)   # outside any Graph
    with Graph() as g:
        z = sum_all(mul(x, x))
    backward(g, z)
    assert y.grad is None
    assert x.grad is not None


def test_bias_add_grad_sums_over_batch():
    x = Tensor(np.zeros((3, 4, 2)))
    b = Tensor([1.0, -1.0])
    with Graph() as g:
        loss = sum_all(bias_add(x, b))
    backward(g, loss)
    assert np.all(b.grad == 12.0)
    assert np.all(x.grad == 1.0)


def test_channel_affine():
    x = Tensor([[2.0, 10.0], [4.0, 20.0]])
    out = channel_affine(x, [2.0, 10.0], [2.0, 10.0])
    assert np.allclose(out.array, [[0.0, 0.0], [1.0, 1.0]])
    with Graph() as g:
        loss = sum_all(channel_affine(x, [0.0, 0.0], [2.0, 4.0]))
    backward(g, loss)
    assert np.allclose(x.grad, [[0.5, 0.25], [0.5, 0.25]])
    with pytest.raises(UsageError):
        channel_affine(x, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DimensionError):
        channel_affine(x, [0.0], [1.0])


def test_time_ops():
    x = Tensor(np.arange(12.0).reshape(1, 3, 4))
    assert list(time_slice(x, 1).values) == [4.0, 5.0, 6.0, 7.0]
    with pytest.raises(UsageError):
        time_slice(x, 3)
    mean = time_mean(x)
    assert np.allclose(mean.array, [[4.0, 5.0, 6.0, 7.0]])
    parts = [time_slice(x, t) for t in range(3)]
    assert np.array_equal(time_stack(parts).array, x.array)
    swapped = swap_last_axes(x)
    assert swapped.shape == (1, 4, 3)
    assert np.array_equal(swapped.array, np.swapaxes(x.array, -1, -2))


def test_nll_loss_fixture():
    probs = Tensor([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
    loss = nll_loss(probs, [1, 0])
    want = (-np.log(0.75) - np.log(1.0)) / 2.0
    assert abs(loss.item() - want) < 1e-15
    with pytest.raises(UsageError):
        nll_loss(probs, [1, 3])


def test_nll_loss_clamps_zero_probability():
    probs = Tensor([[0.0, 1.0, 0.0]])
    loss = nll_loss(probs, [0])
    assert abs(loss.item() + np.log(1e-12)) < 1e-9
    with Graph() as g:
        out = nll_loss(probs, [0])
    backward(g, out)
    # clamped coordinate gets no gradient
    assert np.all(probs.grad == 0.0)


def test_grad_check_sum_is_exact():
    # every quantity is a small multiple of 0.5, so the finite
    # differences are exact and the reported error is exactly zero
    point = Tensor([1.0, 2.0, -0.5, 4.0])
    assert grad_check(lambda x: sum_all(x), point, 0.5) == 0.0


def test_grad_check_sigmoid_tight():
    point = Tensor([[0.3, -1.2], [0.7, 0.1]])
    err = grad_check(lambda x: sum_all(sigmoid(x)), point, 1e-5)
    assert err < 1e-7


def test_grad_check_skips_relu_kink():
    # the coordinate sitting exactly on the kink is excluded, the
    # smooth coordinate still gets checked
    point = Tensor([0.0, 1.0])
    err = grad_check(lambda x: sum_all(relu(x)), point, 1e-4)
    assert err < 1e-9


def test_grad_check_rejects_bad_input():
    with pytest.raises(UsageError):
        grad_check(lambda x: sum_all(x), Tensor([1.0]), 0.0)
    with pytest.raises(UsageError):
        grad_check(lambda x: mul(x, x), Tensor([1.0, 2.0]), 1e-4)
    with pytest.raises(UsageError):
        grad_check(lambda x: sum_all(Tensor([1.0])), Tensor([1.0]), 1e-4)


def _random_tensor(rng, shape):
    return Tensor(rng.standard_normal(shape))


def test_grad_check_each_op():
    # 20 seeded trials per operation, modest shapes, uniform tolerance
    step = 1e-5
    tol = 1e-5
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        w = _random_tensor(rng, (4, 3))
        x = _random_tensor(rng, (5, 4))
        assert grad_check(lambda t: sum_all(matmul(t, w)), x, step) < tol
        assert grad_check(lambda t: sum_all(matmul(x, t)), w, step) < tol

        cw = _random_tensor(rng, (3, 2, 4))
        cb = _random_tensor(rng, (4,))
        cx = _random_tensor(rng, (1, 7, 2))
        assert grad_check(lambda t: sum_all(conv1d(t, cw, cb)), cx, step) < tol
        assert grad_check(lambda t: sum_all(conv1d(cx, t, cb)), cw, step) < tol
        assert grad_check(lambda t: sum_all(conv1d(cx, cw, t)), cb, step) < tol
        assert grad_check(lambda t: sum_all(conv1d(t, cw, cb, padding="same")), cx, step) < tol

        p = _random_tensor(rng, (6,))
        assert grad_check(lambda t: sum_all(relu(t)), p, step) < tol
        assert grad_check(lambda t: sum_all(sigmoid(t)), p, step) < tol
        assert grad_check(lambda t: sum_all(tanh(t)), p, step) < tol
        assert grad_check(lambda t: sum_all(mul(t, t)), p, step) < tol
        assert grad_check(lambda t: sum_all(add(mul(t, t), t)), p, step) < tol

        s = _random_tensor(rng, (2, 5))
        other = _random_tensor(rng, (2, 3))
        assert grad_check(lambda t: sum_all(concat([t, other])), s, step) < tol
        assert grad_check(lambda t: sum_all(softmax(mul(t, t))), s, step) < tol
        assert grad_check(lambda t: sum_all(bias_add(s, t)), _random_tensor(rng, (5,)), step) < tol
        assert grad_check(lambda t: sum_all(scale(t, -1.7)), s, step) < tol
        shift = rng.standard_normal(5)
        sc = rng.standard_normal(5) + 3.0
        assert grad_check(lambda t: sum_all(channel_affine(t, shift, sc)), s, step) < tol

        seq = _random_tensor(rng, (2, 4, 3))
        assert grad_check(lambda t: sum_all(time_mean(t)), seq, step) < tol
        assert grad_check(lambda t: sum_all(time_slice(t, 2)), seq, step) < tol
        assert grad_check(lambda t: sum_all(swap_last_axes(t)), seq, step) < tol

        logits = _random_tensor(rng, (3, 4))
        labels = [int(v) for v in rng.integers(0, 4, size=3)]
        assert grad_check(lambda t: nll_loss(softmax(t), labels), logits, step) < tol


def test_forward_is_deterministic():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((4, 4)))
    w = Tensor(rng.standard_normal((4, 4)))
    first = softmax(matmul(x, w)).array
    second = softmax(matmul(x, w)).array
    assert np.array_equal(first, second)
