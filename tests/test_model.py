"""Architecture tests: config checks, layer fixtures, gradient checks,
and the nearest-neighbour baseline."""

import math

import numpy as np
import pytest

from stormstack.errors import DimensionError, NumericError, UsageError, ValidationError
from stormstack.features import SequenceSet
from stormstack.model import (
    CHUNK,
    RECURRENT_KINDS,
    KNNClassifier,
    ModelConfig,
    bilstm_forward,
    expected_param_shapes,
    forward,
    forward_batch,
    init_params,
    lstm_cell,
    lstm_forward,
    multi_head_attention,
    predict_class,
    recurrent_width,
    rnn_forward,
    scaled_dot_attention,
    standardize_inputs,
)
from stormstack.tensor import Graph, RowInvariant, Tensor, backward, grad_check, matmul, nll_loss, sum_all


def _tiny_config(**overrides):
    settings = dict(steps=6, input_channels=3, conv_layers=((4, 3),),
                    lstm_hidden=4, attention_heads=2, attention_dim=4, seed=0)
    settings.update(overrides)
    return ModelConfig(**settings)


def test_config_validation():
    cfg = _tiny_config()
    assert cfg.feature_width == 8
    assert cfg.conv_steps() == 4
    with pytest.raises(ValidationError):
        _tiny_config(attention_dim=3)       # 2 * 3 != 8
    with pytest.raises(ValidationError):
        _tiny_config(recurrent="gru")
    with pytest.raises(ValidationError):
        _tiny_config(classes=2)
    with pytest.raises(ValidationError):
        _tiny_config(conv_padding="reflect")
    with pytest.raises(DimensionError):
        _tiny_config(steps=2)               # kernel 3 cannot fit
    with pytest.raises(ValidationError):
        _tiny_config(input_shift=(1.0,), input_scale=(1.0, 1.0))
    with pytest.raises(ValidationError):
        _tiny_config(input_shift=(0.0,) * 3, input_scale=(1.0, 0.0, 1.0))
    # same padding keeps any kernel legal
    _tiny_config(steps=2, conv_padding="same")


def test_param_inventory():
    cfg = _tiny_config()
    shapes = expected_param_shapes(cfg)
    assert shapes["conv0_w"] == (3, 3, 4)
    assert shapes["conv0_b"] == (4,)
    for d in ("fwd", "bwd"):
        for g in "fico":
            assert shapes[f"lstm_{d}_w{g}"] == (8, 4)
            assert shapes[f"lstm_{d}_b{g}"] == (4,)
    for j in range(2):
        for part in ("wq", "wk", "wv"):
            assert shapes[f"attn_h{j}_{part}"] == (8, 4)
    assert shapes["attn_wo"] == (8, 8)
    assert shapes["out_w"] == (8, 3)
    assert shapes["out_b"] == (3,)

    rnn = expected_param_shapes(_tiny_config(recurrent="rnn", attention=False))
    assert set(rnn) == {"conv0_w", "conv0_b", "rnn_w", "rnn_b", "out_w", "out_b"}
    assert rnn["rnn_w"] == (8, 4)
    lstm = expected_param_shapes(_tiny_config(recurrent="lstm", attention_dim=2))
    assert "lstm_bwd_wf" not in lstm
    assert lstm["out_w"] == (4, 3)


def test_init_params():
    cfg = _tiny_config()
    params = init_params(cfg)
    assert set(params) == set(expected_param_shapes(cfg))
    again = init_params(cfg)
    for name in params:
        assert np.array_equal(params[name].array, again[name].array)
    other = init_params(_tiny_config(seed=1))
    assert not np.array_equal(params["conv0_w"].array, other["conv0_w"].array)
    # biases start at zero except the forget gates at one
    assert np.all(params["conv0_b"].array == 0.0)
    assert np.all(params["out_b"].array == 0.0)
    assert np.all(params["lstm_fwd_bf"].array == 1.0)
    assert np.all(params["lstm_fwd_bi"].array == 0.0)
    for name, shape in expected_param_shapes(cfg).items():
        assert params[name].shape == shape
    limit = math.sqrt(6.0 / (8 + 4))
    assert np.abs(params["lstm_fwd_wf"].array).max() <= limit


def _zero_gates(hidden, inputs):
    return {f"{kind}{g}": Tensor(np.zeros((hidden + inputs, hidden)) if kind == "w"
                                 else np.zeros(hidden))
            for kind in ("w", "b") for g in "fico"}


def test_lstm_cell_zero_weights():
    gates = _zero_gates(1, 1)
    h, c = lstm_cell(Tensor([[5.0]]), Tensor([[0.0]]), Tensor([[0.0]]), gates)
    assert c.array[0, 0] == 0.0
    assert h.array[0, 0] == 0.0
    # gates all sit at sigmoid(0) = 1/2, so the cell halves c_prev
    h, c = lstm_cell(Tensor([[5.0]]), Tensor([[0.0]]), Tensor([[2.0]]), gates)
    assert c.array[0, 0] == 1.0
    assert abs(h.array[0, 0] - 0.5 * math.tanh(1.0)) < 1e-15
    assert abs(h.array[0, 0] - 0.38079707797788245) < 1e-15


def test_lstm_cell_grad():
    rng = np.random.default_rng(3)
    hidden, inputs = 3, 2
    gates = {f"{kind}{g}": Tensor(rng.standard_normal((hidden + inputs, hidden)) if kind == "w"
                                  else rng.standard_normal(hidden))
             for kind in ("w", "b") for g in "fico"}
    h_prev = Tensor(rng.standard_normal((1, hidden)))
    c_prev = Tensor(rng.standard_normal((1, hidden)))

    def f(x):
        h, c = lstm_cell(x, h_prev, c_prev, gates)
        return sum_all(h)

    assert grad_check(f, Tensor(rng.standard_normal((1, inputs))), 1e-5) < 1e-5


def _lstm_params(rng, hidden, inputs, directions=("fwd", "bwd")):
    params = {}
    for d in directions:
        for g in "fico":
            params[f"lstm_{d}_w{g}"] = Tensor(rng.standard_normal((hidden + inputs, hidden)) * 0.4)
            params[f"lstm_{d}_b{g}"] = Tensor(rng.standard_normal(hidden) * 0.1)
    return params


def test_lstm_forward_shape_and_zero_steps():
    rng = np.random.default_rng(4)
    params = _lstm_params(rng, 5, 2, directions=("fwd",))
    out = lstm_forward(Tensor(rng.standard_normal((3, 7, 2))), params)
    assert out.shape == (3, 7, 5)
    with pytest.raises(UsageError):
        lstm_forward(Tensor(np.zeros((1, 0, 2))), params)
    with pytest.raises(UsageError):
        rnn_forward(Tensor(np.zeros((1, 0, 2))),
                    {"rnn_w": Tensor(np.zeros((7, 5))), "rnn_b": Tensor(np.zeros(5))})


def test_bilstm_concatenates_directions():
    rng = np.random.default_rng(5)
    params = _lstm_params(rng, 4, 3)
    x = Tensor(rng.standard_normal((2, 6, 3)))
    out = bilstm_forward(x, params).array
    assert out.shape == (2, 6, 8)
    # forward half is exactly the unidirectional run
    fwd = lstm_forward(x, params).array
    assert np.array_equal(out[..., :4], fwd)
    # backward half equals a forward run over the reversed sequence,
    # reversed back, using the bwd weights
    renamed = {k.replace("_bwd_", "_fwd_"): v for k, v in params.items() if "_bwd_" in k}
    rev = lstm_forward(Tensor(x.array[:, ::-1, :].copy()), renamed).array
    assert np.array_equal(out[..., 4:], rev[:, ::-1, :])


def test_bilstm_palindrome_symmetry():
    # with shared direction weights and a palindromic input, reversing
    # time just swaps the two halves of every row
    rng = np.random.default_rng(6)
    params = _lstm_params(rng, 3, 2, directions=("fwd",))
    params.update({k.replace("_fwd_", "_bwd_"): v for k, v in list(params.items())})
    half = rng.standard_normal((1, 3, 2))
    x = np.concatenate([half, half[:, ::-1, :]], axis=1)   # palindrome, T=6
    out = bilstm_forward(Tensor(x), params).array
    assert np.array_equal(out[:, ::-1, 3:], out[..., :3])


def test_attention_single_step_returns_value():
    v = Tensor([[2.5, -1.0, 0.5]])
    out = scaled_dot_attention(Tensor([[1.5, -2.0]]), Tensor([[0.3, 0.9]]), v)
    assert np.array_equal(out.array, v.array)


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(7)
    k = Tensor(np.ones((5, 3)))
    v = Tensor(rng.standard_normal((5, 4)))
    q = Tensor(rng.standard_normal((2, 3)))
    out = scaled_dot_attention(q, k, v).array
    want = v.array.mean(axis=0)
    assert np.abs(out - want).max() < 1e-12


def test_attention_dim_checks():
    with pytest.raises(DimensionError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                             Tensor(np.ones((2, 4))))
    with pytest.raises(DimensionError):
        scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                             Tensor(np.ones((4, 5))))


def test_attention_scale_factor():
    # doubling the key width with duplicated content must leave the
    # scores unchanged thanks to the 1/sqrt(d_k) factor
    rng = np.random.default_rng(8)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 3))
    narrow = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).array
    # duplicating q and k doubles every dot product while sqrt(d_k)
    # only grows by sqrt(2); damping one side by 1/sqrt(2) rebalances
    wide = scaled_dot_attention(Tensor(np.hstack([q, q]) / math.sqrt(2.0)),
                                Tensor(np.hstack([k, k])), Tensor(v)).array
    assert np.abs(narrow - wide).max() < 1e-12


def test_multi_head_identity():
    eye = Tensor(np.eye(2))
    params = {"attn_h0_wq": eye, "attn_h0_wk": eye, "attn_h0_wv": eye,
              "attn_wo": eye}
    x = Tensor([[[0.7, -1.3]]])
    out = multi_head_attention(x, params, heads=1)
    assert np.array_equal(out.array, x.array)
    zero = dict(params, attn_wo=Tensor(np.zeros((2, 2))))
    assert np.all(multi_head_attention(x, zero, heads=1).array == 0.0)
    with pytest.raises(UsageError):
        multi_head_attention(x, params, heads=0)


def test_multi_head_grad():
    rng = np.random.default_rng(9)
    params = {}
    for j in range(2):
        for part in ("wq", "wk", "wv"):
            params[f"attn_h{j}_{part}"] = Tensor(rng.standard_normal((8, 4)) * 0.5)
    params["attn_wo"] = Tensor(rng.standard_normal((8, 8)) * 0.5)
    x = Tensor(rng.standard_normal((1, 4, 8)))
    assert grad_check(lambda t: sum_all(multi_head_attention(t, params, 2)), x, 1e-5) < 1e-5
    fixed_x = x

    def wrt_weight(t):
        p = dict(params, attn_h1_wk=t)
        return sum_all(multi_head_attention(fixed_x, p, 2))

    assert grad_check(wrt_weight, params["attn_h1_wk"], 1e-5) < 1e-5


def test_forward_uniform_when_head_is_zero():
    cfg = _tiny_config()
    params = init_params(cfg)
    params["out_w"] = Tensor(np.zeros((8, 3)))
    probs = forward(np.random.default_rng(10).standard_normal((1, 6, 3)), params, cfg)
    assert probs.shape == (1, 3)
    assert np.abs(probs - 1.0 / 3.0).max() < 1e-15


def test_forward_is_a_distribution():
    cfg = _tiny_config()
    params = init_params(cfg)
    rng = np.random.default_rng(11)
    probs = forward(rng.standard_normal((20, 6, 3)) * 5.0, params, cfg)
    assert probs.shape == (20, 3)
    assert probs.min() >= 0.0
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_checks_sample_shape():
    cfg = _tiny_config()
    params = init_params(cfg)
    data = np.random.default_rng(12).standard_normal((6, 3))
    sample = SequenceSet(["s"], [1], [data])
    assert np.array_equal(forward(sample.data, params, cfg), forward(data[None], params, cfg))
    # the config pins (steps, channels); "valid" convs would run on 7 steps
    for shape in ((1, 7, 3), (1, 6, 4)):
        with pytest.raises(DimensionError) as err:
            forward(np.zeros(shape), params, cfg)
        assert "model expects (6, 3)" in str(err.value)
    # a lone (steps, channels) matrix, or a stack of stacks, is refused too
    for shape in ((6, 3), (2, 1, 6, 3)):
        with pytest.raises(DimensionError) as err:
            forward(np.zeros(shape), params, cfg)
        assert "(samples, steps, channels)" in str(err.value)
    assert forward(np.zeros((0, 6, 3)), params, cfg).shape == (0, 3)


def test_forward_batch_validation():
    cfg = _tiny_config()
    params = init_params(cfg)
    with pytest.raises(DimensionError):
        forward_batch(Tensor(np.zeros((6, 3))), params, cfg)
    with pytest.raises(DimensionError):
        forward_batch(Tensor(np.zeros((1, 6, 4))), params, cfg)
    with pytest.raises(DimensionError) as err:
        forward_batch(Tensor(np.zeros((1, 2, 3))), params, cfg)
    assert "conv layer 0" in str(err.value)


def test_forward_variants():
    for recurrent, attention in (("lstm", False), ("rnn", False), ("bilstm", False)):
        cfg = _tiny_config(recurrent=recurrent, attention=attention)
        params = init_params(cfg)
        probs = forward_batch(Tensor(np.zeros((2, 6, 3))), params, cfg).array
        assert probs.shape == (2, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    cfg = _tiny_config(recurrent="lstm", attention_dim=2)
    probs = forward_batch(Tensor(np.zeros((1, 6, 3))), init_params(cfg), cfg).array
    assert abs(probs.sum() - 1.0) < 1e-12


def _invariance_configs():
    # widths large enough that a plain GEMM's rounding depends on its row count
    for recurrent in RECURRENT_KINDS:
        for attention in (True, False):
            yield _tiny_config(conv_layers=((16, 3),), lstm_hidden=16, recurrent=recurrent,
                               attention=attention, attention_dim=recurrent_width(recurrent, 16) // 2)
    yield _tiny_config(conv_layers=((16, 3),), lstm_hidden=16, attention_dim=16, conv_padding="same")
    yield _tiny_config(conv_layers=((16, 3),), lstm_hidden=16, attention_dim=16,
                       input_shift=(1.0, -2.0, 0.5), input_scale=(2.0, 4.0, 1.0))


@pytest.mark.parametrize("cfg", list(_invariance_configs()),
                         ids=lambda c: f"{c.recurrent}-attn{int(c.attention)}-{c.conv_padding}"
                                       f"{'-std' if c.input_shift else ''}")
def test_forward_is_batch_invariant(cfg):
    # a row's probabilities do not depend on the rows scored with it
    params = init_params(cfg)
    data = np.random.default_rng(19).standard_normal((CHUNK + 1, 6, 3)) * 3.0
    single = np.concatenate([forward(row[None], params, cfg) for row in data])
    for n in (1, 7, CHUNK + 1):
        assert np.array_equal(forward(data[:n], params, cfg), single[:n]), n


def test_untaped_forward_batch_keeps_the_plain_gemm():
    # the trainer's validation pass runs forward_batch untaped and outside
    # RowInvariant: its bits must match the taped forward it logs against
    cfg = next(_invariance_configs())
    params = init_params(cfg)
    x = Tensor(np.random.default_rng(20).standard_normal((CHUNK + 1, 6, 3)) * 3.0)
    with Graph():
        taped = forward_batch(x, params, cfg).array
    assert np.array_equal(forward_batch(x, params, cfg).array, taped)


def test_row_invariant_scope_closes_on_error():
    cfg = _tiny_config()
    params = dict(init_params(cfg), conv0_w=Tensor(np.full((3, 3, 4), 1e308)))
    with pytest.raises(NumericError):
        forward(np.ones((2, 6, 3)), params, cfg)
    assert RowInvariant._open == []
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((CHUNK, 48)), rng.standard_normal((48, 32))
    assert np.array_equal(matmul(Tensor(a), Tensor(b)).array, np.matmul(a, b))
    with RowInvariant():
        stacked = matmul(Tensor(a), Tensor(b)).array
    assert np.array_equal(stacked, np.stack([np.matmul(row[None], b)[0] for row in a]))


def test_standardize_inputs():
    cfg = _tiny_config()
    rng = np.random.default_rng(13)
    samples = SequenceSet([f"s{i}" for i in range(8)], [i % 3 for i in range(8)],
                          [rng.standard_normal((6, 3)) * [1.0, 100.0, 0.01] + [0.0, 50.0, 0.0]
                           for i in range(8)])
    fitted = standardize_inputs(cfg, samples)
    stacked = np.concatenate(samples.data)
    assert np.allclose(fitted.input_shift, stacked.mean(axis=0))
    assert np.allclose(fitted.input_scale, stacked.std(axis=0))
    # already-standardized configs pass through untouched
    assert standardize_inputs(fitted, samples) is fitted
    # constant channels get unit scale instead of zero
    const = SequenceSet(["c"], [0], np.ones((1, 6, 3)))
    assert standardize_inputs(cfg, const).input_scale == (1.0, 1.0, 1.0)


def test_standardized_forward_shifts_inputs():
    cfg = _tiny_config()
    rng = np.random.default_rng(14)
    data = rng.standard_normal((6, 3))
    shifted = ModelConfig(**{**cfg.__dict__, "input_shift": (1.0, -2.0, 0.5),
                             "input_scale": (2.0, 4.0, 1.0)})
    params = init_params(cfg)
    manual = forward(((data - [1.0, -2.0, 0.5]) / [2.0, 4.0, 1.0])[None], params, cfg)
    auto = forward(data[None], params, shifted)
    assert np.abs(manual - auto).max() < 1e-15


def test_full_model_grad():
    cfg = ModelConfig(steps=5, input_channels=2, conv_layers=((3, 2),),
                      lstm_hidden=2, attention_heads=2, attention_dim=2, seed=7)
    params = init_params(cfg)
    x = Tensor(np.random.default_rng(15).standard_normal((2, 5, 2)))
    labels = [0, 2]

    def wrt_input(t):
        return nll_loss(forward_batch(t, params, cfg), labels)

    assert grad_check(wrt_input, x, 1e-5) < 1e-4
    for name in ("conv0_w", "lstm_fwd_wi", "attn_h0_wq", "out_w"):
        def wrt_param(t, name=name):
            p = dict(params, **{name: t})
            return nll_loss(forward_batch(x, p, cfg), labels)
        assert grad_check(wrt_param, params[name], 1e-5) < 1e-4


def test_no_dead_parameters():
    cfg = _tiny_config()
    params = init_params(cfg)
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((4, 6, 3)))
    with Graph() as g:
        loss = nll_loss(forward_batch(x, params, cfg), [0, 1, 2, 0])
    backward(g, loss)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.abs(p.grad).max() > 0.0, name


def test_predict_class():
    rows = [[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3]]
    assert predict_class(rows).tolist() == [1, 0, 0]
    assert predict_class(np.zeros((0, 3))).shape == (0,)
    for bad in ([[0.5, 0.5]], [0.2, 0.5, 0.3], [[np.nan, 0.5, 0.5]]):
        with pytest.raises(UsageError):
            predict_class(bad)
    # argmax only cares about order, not calibration
    logits = np.array([0.1, 2.0, -1.0])
    e = np.exp(logits)
    assert predict_class([e / e.sum()]).tolist() == [int(np.argmax(logits))]


def _knn_set(labels, points):
    # one single-step sample per (label, point)
    return SequenceSet([f"k{i}" for i in range(len(labels))], labels,
                       [[list(point)] for point in points])


def test_knn_exact_match_and_ties():
    train = _knn_set([0, 1, 2], [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
    knn = KNNClassifier(k=1).fit(train)
    assert knn.predict([[(0.0, 0.0)], [(10.0, 0.1)]]).tolist() == [0, 1]
    # equidistant neighbours with one vote each: the smallest label wins
    assert KNNClassifier(k=3).fit(train).predict([[(3.3, 3.3)]]).tolist() == [0]


def test_knn_validation():
    train = _knn_set([i % 3 for i in range(4)], [(float(i), 0.0) for i in range(4)])
    with pytest.raises(UsageError):
        KNNClassifier(k=0)
    with pytest.raises(UsageError):
        KNNClassifier(k=5).fit(train)
    with pytest.raises(UsageError):
        KNNClassifier(k=1).predict(train.data)
    knn = KNNClassifier(k=1).fit(train)
    with pytest.raises(DimensionError):
        knn.predict([[(1.0, 2.0, 3.0)]])
    with pytest.raises(DimensionError):
        knn.predict(train.data[0])
    with pytest.raises(UsageError):
        KNNClassifier(k=1).fit(train.take([]))


def test_knn_separated_clusters():
    rng = np.random.default_rng(17)
    centers = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 10.0)}
    labels = list(range(3)) * 30
    train = _knn_set(labels, [rng.normal(centers[label], 0.1) for label in labels])
    labels = list(range(3)) * 10
    queries = _knn_set(labels, [rng.normal(centers[label], 0.1) for label in labels])
    knn = KNNClassifier(k=3).fit(train)
    assert np.array_equal(knn.predict(queries.data), queries.labels)


def test_knn_block_matches_query_by_query():
    # duplicated training points and grid queries force distance ties,
    # which resolve toward the earlier training sample either way
    rng = np.random.default_rng(22)
    points = np.repeat(rng.integers(0, 3, size=(10, 2)).astype(float), 2, axis=0)
    labels = [int(v) for v in rng.integers(0, 3, size=20)]
    train = _knn_set(labels, points)
    queries = rng.integers(0, 3, size=(25, 1, 2)).astype(float)
    knn = KNNClassifier(k=3).fit(train)
    x = (train.data.reshape(20, -1) - knn._mean) / knn._scale
    expected = []
    for query in queries:
        q = (query.ravel() - knn._mean) / knn._scale
        nearest = np.argsort(np.sqrt(((x - q) ** 2).sum(axis=1)), kind="stable")[:3]
        expected.append(int(np.argmax(np.bincount(train.labels[nearest], minlength=3))))
    got = knn.predict(queries)
    assert got.dtype == np.int64
    assert got.tolist() == expected
    assert [int(knn.predict(q[None])[0]) for q in queries] == expected
    assert knn.predict(queries[:0]).shape == (0,)


def test_knn_is_scale_invariant_per_column():
    # fit() standardizes each flattened column, so inflating one
    # feature's unit must not change any prediction
    rng = np.random.default_rng(18)
    points = rng.standard_normal((30, 2))
    labels = [int(v) for v in rng.integers(0, 3, size=30)]
    train = _knn_set(labels, points)
    scaled = _knn_set(labels, [(p[0] * 1000.0, p[1]) for p in points])
    plain = KNNClassifier(k=5).fit(train)
    inflated = KNNClassifier(k=5).fit(scaled)
    queries = rng.standard_normal((20, 1, 2))
    assert np.array_equal(plain.predict(queries), inflated.predict(queries * [1000.0, 1.0]))
