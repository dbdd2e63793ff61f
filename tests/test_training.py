"""Optimizer and training-loop behavior."""

import tracemalloc

import numpy as np
import pytest

from stormstack.config import RunConfig
from stormstack.errors import DimensionError, UsageError, ValidationError
from stormstack.features import SequenceSet
from stormstack.model import ModelConfig, forward_batch, init_params
from stormstack.tensor import Graph, Tensor, backward, nll_loss
from stormstack.training import AdamState, TrainConfig, adam_step, train

CONFIG = ModelConfig(steps=6, input_channels=3, conv_layers=((4, 3),),
                     lstm_hidden=4, attention_heads=2, attention_dim=4, seed=0)


def test_train_config_validation():
    TrainConfig(max_epochs=0, patience=10)     # patience is moot with no epochs
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(patience=0)
    with pytest.raises(ValidationError):
        TrainConfig(max_epochs=5, patience=6)
    with pytest.raises(ValidationError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(beta2=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(epsilon=0.0)


def test_adam_zero_gradient_is_inert():
    params = {"w": Tensor([[1.5, -2.0]])}
    state = AdamState()
    out = adam_step(params, {"w": np.zeros((1, 2))}, state, TrainConfig())
    assert np.array_equal(out["w"].array, params["w"].array)
    assert state.step == 1


def test_adam_first_step_size():
    # bias correction makes the very first step lr * g/|g| up to epsilon
    config = TrainConfig(learning_rate=1e-3)
    out = adam_step({"w": Tensor([2.0])}, {"w": np.array([0.5])}, AdamState(), config)
    assert abs(out["w"].array[0] - (2.0 - 1e-3)) < 1e-6
    out = adam_step({"w": Tensor([2.0])}, {"w": np.array([-0.5])}, AdamState(), config)
    assert abs(out["w"].array[0] - (2.0 + 1e-3)) < 1e-6


def test_adam_is_deterministic():
    def run():
        params = {"w": Tensor([[1.0, -1.0], [0.5, 2.0]])}
        state = AdamState()
        rng = np.random.default_rng(55)
        for _ in range(5):
            grads = {"w": rng.standard_normal((2, 2))}
            params = adam_step(params, grads, state, TrainConfig())
        return params["w"].array

    assert np.array_equal(run(), run())


def test_adam_matches_the_out_of_place_formula_bit_for_bit():
    config = TrainConfig(learning_rate=1e-2)
    rng = np.random.default_rng(56)
    params = {"w": Tensor(rng.standard_normal((3, 4))), "b": Tensor(rng.standard_normal(4))}
    state = AdamState()
    want = {name: p.array for name, p in params.items()}
    m = {name: np.zeros(p.shape) for name, p in params.items()}
    v = {name: np.zeros(p.shape) for name, p in params.items()}
    for t in range(1, 7):
        grads = {name: rng.standard_normal(p.shape) * 10.0 ** (t - 3) for name, p in params.items()}
        params = adam_step(params, grads, state, config)
        if t == 1:
            moments = (state.m["w"], state.v["w"])
        for name, g in grads.items():
            m[name] = config.beta1 * m[name] + (1.0 - config.beta1) * g
            v[name] = config.beta2 * v[name] + (1.0 - config.beta2) * g * g
            step_dir = ((m[name] / (1.0 - config.beta1 ** t))
                        / (np.sqrt(v[name] / (1.0 - config.beta2 ** t)) + config.epsilon))
            want[name] = want[name] - config.learning_rate * step_dir
            assert params[name].array.tobytes() == want[name].tobytes()
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()
    # the moments are updated in place: the arrays of the first step are still the state's
    assert state.m["w"] is moments[0] and state.v["w"] is moments[1]


def test_adam_missing_or_misshapen_grads():
    params = {"w": Tensor([1.0]), "b": Tensor([0.0])}
    with pytest.raises(UsageError) as err:
        adam_step(params, {"w": np.array([0.1])}, AdamState(), TrainConfig())
    assert "b" in str(err.value)
    with pytest.raises(UsageError):
        adam_step(params, {"w": np.array([0.1]), "b": None}, AdamState(), TrainConfig())
    with pytest.raises(DimensionError):
        adam_step(params, {"w": np.array([0.1, 0.2]), "b": np.array([0.0])},
                  AdamState(), TrainConfig())


def _toy_dataset(count, seed, flip=False):
    # three well-separated channel profiles, one per class
    rng = np.random.default_rng(seed)
    data, shown = [], []
    for i in range(count):
        label = i % 3
        data.append(rng.standard_normal((6, 3)) * 0.3 + label * 2.0)
        shown.append((label + 1) % 3 if flip else label)
    return SequenceSet([f"t{seed}_{i}" for i in range(count)], shown, data)


def test_train_zero_epochs_returns_initialization():
    params, log = train(_toy_dataset(6, 0), _toy_dataset(3, 1), CONFIG,
                        TrainConfig(max_epochs=0))
    assert log == []
    fresh = init_params(CONFIG)
    for name in fresh:
        assert np.array_equal(params[name].array, fresh[name].array)


def test_train_zero_learning_rate_keeps_parameters():
    params, log = train(_toy_dataset(6, 0), _toy_dataset(3, 1), CONFIG,
                        TrainConfig(learning_rate=0.0, max_epochs=2, patience=2))
    assert len(log) == 2
    fresh = init_params(CONFIG)
    for name in fresh:
        assert np.array_equal(params[name].array, fresh[name].array)


def test_train_loss_decreases_on_separable_data():
    params, log = train(_toy_dataset(12, 2), _toy_dataset(6, 3), CONFIG,
                        TrainConfig(learning_rate=3e-3, batch_size=4,
                                    max_epochs=3, patience=3))
    losses = [row[1] for row in log]
    assert len(losses) == 3
    assert losses[0] > losses[1] > losses[2]
    assert log[-1][3] >= log[0][3]    # validation accuracy does not regress


def test_train_is_deterministic():
    def run():
        return train(_toy_dataset(12, 4), _toy_dataset(6, 5), CONFIG,
                     TrainConfig(learning_rate=1e-3, batch_size=4,
                                 max_epochs=3, patience=3))

    params_a, log_a = run()
    params_b, log_b = run()
    assert log_a == log_b
    for name in params_a:
        assert np.array_equal(params_a[name].array, params_b[name].array)


def test_train_returns_best_validation_params():
    # validation labels are rotated, so fitting the training set drives
    # the validation loss up; early stopping must fire and the returned
    # parameters must reproduce the smallest logged validation loss
    train_set = _toy_dataset(12, 6)
    val_set = _toy_dataset(6, 7, flip=True)
    config = TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=40, patience=3)
    params, log = train(train_set, val_set, CONFIG, config)
    assert 0 < len(log) < 40
    best = min(row[2] for row in log)
    x, y = val_set.data, val_set.labels
    probs = forward_batch(Tensor(x), params, CONFIG).array
    loss = float(-np.log(np.maximum(probs[np.arange(len(y)), y], 1e-12)).mean())
    assert abs(loss - best) < 1e-12


def test_train_returns_parameters_without_gradients():
    # the best epoch's parameters are stepped on by the next epoch, whose
    # backward sets their gradients; train clears them once Adam has read them
    config = TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=40, patience=3)
    params, log = train(_toy_dataset(12, 6), _toy_dataset(6, 7, flip=True), CONFIG, config)
    losses = [row[2] for row in log]
    assert losses.index(min(losses)) < len(losses) - 1
    assert [name for name, p in params.items() if p.grad is not None] == []


def test_backward_adds_little_to_a_default_step():
    # one batch-32 step of the shipped architecture on 12 steps of 16
    # features: backward drops each tape entry's activations as it runs
    # its rule, so its traced peak grows by a small part of what the
    # forward pass put on the tape (about 8%; keeping the tape, about 85%)
    config = RunConfig().model_config(12, 16)
    params = init_params(config)
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((32, 12, 16)))
    y = np.arange(32) % 3
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Graph() as graph:
            loss = nll_loss(forward_batch(x, params, config), y)
        taped = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(graph, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    assert peak - taped < (taped - start) / 4, (peak - taped, taped - start)


def test_train_validation_errors():
    good = _toy_dataset(6, 8)
    with pytest.raises(UsageError):
        train(good.take([]), good, CONFIG, TrainConfig(max_epochs=1, patience=1))
    with pytest.raises(UsageError):
        train(good, good.take([]), CONFIG, TrainConfig(max_epochs=1, patience=1))
    short = SequenceSet(["bad"], [0], np.zeros((1, 5, 3)))
    with pytest.raises(DimensionError):
        train(good, short, CONFIG, TrainConfig(max_epochs=1, patience=1))
    with pytest.raises(DimensionError):
        mixed = SequenceSet(good.ids + short.ids, [*good.labels, 0], [*good.data, *short.data])
        train(mixed, good, CONFIG, TrainConfig(max_epochs=1, patience=1))
    wrong = ModelConfig(steps=7, input_channels=3, conv_layers=((4, 3),),
                        lstm_hidden=4, attention_heads=2, attention_dim=4)
    with pytest.raises(DimensionError):
        train(good, good, wrong, TrainConfig(max_epochs=1, patience=1))
