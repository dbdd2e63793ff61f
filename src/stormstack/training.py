"""Training loop: minibatch cross-entropy, Adam updates, and early
stopping on validation loss."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UsageError, ValidationError
from .model import ModelConfig, forward_batch, init_params
from .rng import SplitMix64
from .tensor import Graph, Tensor, backward, nll_loss


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ValidationError(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if self.patience < 1:
            raise ValidationError(f"patience must be positive, got {self.patience}")
        if self.max_epochs >= 1 and self.patience > self.max_epochs:
            raise ValidationError(
                f"patience {self.patience} exceeds max_epochs {self.max_epochs}"
            )
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class AdamState:
    """First and second moment estimates plus the update count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """One Adam update.

    params maps names to tensors, grads maps the same names to
    gradient arrays.  Moments use the standard bias correction; the
    update is p - lr * m_hat / (sqrt(v_hat) + epsilon).  Returns the
    new parameter dict; moments are updated in place.
    """
    missing = [name for name in params if grads.get(name) is None]
    if missing:
        raise UsageError(f"adam_step is missing gradients for {missing}")
    state.step += 1
    t = state.step
    scale1 = 1.0 - config.beta1 ** t
    scale2 = 1.0 - config.beta2 ** t
    updated = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise DimensionError(f"gradient for {name} has shape {g.shape}, expected {p.shape}")
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(p.shape), np.zeros(p.shape)
        m, v = state.m[name], state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += ((1.0 - config.beta2) * g) * g
        step_dir = (m / scale1) / (np.sqrt(v / scale2) + config.epsilon)
        updated[name] = Tensor(p.array - config.learning_rate * step_dir)
    return updated


def _dataset_loss_acc(x, y, params, config):
    probs = forward_batch(Tensor(x), params, config)
    acc = float((probs.array.argmax(axis=1) == y).mean())
    return nll_loss(probs, y).item(), acc


def train(train_set, val_set, model_config: ModelConfig, train_config: TrainConfig):
    """Fit the model and return (best_params, log).

    Each epoch shuffles the training set with the seeded generator,
    walks it in minibatches (the last one may be short), and takes one
    Adam step per batch on the mean cross-entropy.  After each epoch
    the full validation set is scored; the parameters with the lowest
    validation loss so far are kept, and training stops once that loss
    has not improved for `patience` consecutive epochs.  The log holds
    one (epoch, train_loss, val_loss, val_accuracy) row per epoch.
    No returned parameter carries a gradient.
    """
    for part, what in ((train_set, "training"), (val_set, "validation")):
        if len(part) == 0:
            raise UsageError(f"train needs a nonempty {what} set")
        model_config.check_shape(part.data, f"the {what} set")
    x_train, y_train = train_set.data, train_set.labels
    params = init_params(model_config)
    best_params = params
    best_val = np.inf
    stale = 0
    state = AdamState()
    rng = SplitMix64(train_config.seed)
    order = list(range(len(train_set)))
    log = []
    n = len(order)
    for epoch in range(train_config.max_epochs):
        rng.shuffle(order)
        total = 0.0
        for start in range(0, n, train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            xb = Tensor(x_train[batch])
            yb = y_train[batch]
            with Graph() as graph:
                probs = forward_batch(xb, params, model_config)
                loss = nll_loss(probs, yb)
                backward(graph, loss)
            total += loss.item() * len(batch)
            grads = {name: p.grad for name, p in params.items()}
            for p in params.values():  # best_params may hold these tensors: keep no grad on them
                p.grad = None
            params = adam_step(params, grads, state, train_config)
            del grads  # nor alive through the next step
        train_loss = total / n
        val_loss, val_acc = _dataset_loss_acc(val_set.data, val_set.labels, params, model_config)
        log.append((epoch, train_loss, val_loss, val_acc))
        if val_loss < best_val:
            best_val = val_loss
            best_params = params
            stale = 0
        else:
            stale += 1
            if stale >= train_config.patience:
                break
    return best_params, log
