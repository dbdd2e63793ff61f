"""Sequence classifier: temporal convolutions, a recurrent encoder,
multi-head self-attention, and a dense softmax head.

The default configuration stacks two conv layers (ReLU), a
bidirectional LSTM, and four attention heads whose concatenated output
is mean-pooled over time before the classifier.  Ablated variants
(plain LSTM, plain tanh RNN, attention off) reuse the same forward
path.  A flattened k-nearest-neighbour classifier serves as the
non-sequential baseline.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NumericError, UsageError, ValidationError
from .rng import SplitMix64
from .tensor import (
    RowInvariant,
    Tensor,
    bias_add,
    channel_affine,
    concat,
    conv1d,
    matmul,
    mul,
    add,
    relu,
    scale,
    sigmoid,
    softmax,
    swap_last_axes,
    tanh,
    time_mean,
    time_slice,
    time_stack,
)

RECURRENT_KINDS = ("bilstm", "lstm", "rnn")
_GATES = ("f", "i", "c", "o")
# samples per forward_batch call when forward scores a stack; each row
# of a chunk holds about 40 KB of activations at the default shape, and
# 16 keeps peak memory level with scoring one sample per call
CHUNK = 16


def recurrent_width(recurrent, lstm_hidden):
    """Channel count coming out of the recurrent encoder: the
    bidirectional LSTM concatenates both directions."""
    return 2 * lstm_hidden if recurrent == "bilstm" else lstm_hidden


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings.

    steps and input_channels pin the sequence shape the model consumes;
    conv_layers is a tuple of (filters, kernel) pairs.  When attention
    is enabled, attention_heads * attention_dim must equal the
    recurrent feature width (2 * lstm_hidden for the bidirectional
    encoder, lstm_hidden otherwise).  input_shift/input_scale, when
    nonempty, standardize each input channel before the conv stack;
    see standardize_inputs.
    """

    steps: int
    input_channels: int
    conv_layers: tuple = ((32, 3), (32, 3))
    lstm_hidden: int = 64
    attention_heads: int = 4
    attention_dim: int = 32
    classes: int = 3
    conv_padding: str = "valid"
    recurrent: str = "bilstm"
    attention: bool = True
    input_shift: tuple = ()
    input_scale: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "conv_layers", tuple((int(f), int(k)) for f, k in self.conv_layers)
        )
        object.__setattr__(self, "input_shift", tuple(float(v) for v in self.input_shift))
        object.__setattr__(self, "input_scale", tuple(float(v) for v in self.input_scale))
        if len(self.input_shift) != len(self.input_scale):
            raise ValidationError("input_shift and input_scale must have equal length")
        if self.input_shift and len(self.input_shift) != self.input_channels:
            raise ValidationError(
                f"input standardization needs {self.input_channels} entries,"
                f" got {len(self.input_shift)}"
            )
        if any(v == 0.0 for v in self.input_scale):
            raise ValidationError("input_scale entries must be nonzero")
        if self.steps < 1:
            raise ValidationError(f"steps must be positive, got {self.steps}")
        if self.input_channels < 1:
            raise ValidationError(f"input_channels must be positive, got {self.input_channels}")
        if self.lstm_hidden < 1:
            raise ValidationError(f"lstm_hidden must be positive, got {self.lstm_hidden}")
        if self.classes != 3:
            raise ValidationError(f"the classifier is three-class, got classes={self.classes}")
        if self.conv_padding not in ("valid", "same"):
            raise ValidationError(f"conv_padding must be 'valid' or 'same', got {self.conv_padding!r}")
        if self.recurrent not in RECURRENT_KINDS:
            raise ValidationError(f"recurrent must be one of {RECURRENT_KINDS}, got {self.recurrent!r}")
        for i, (filters, kernel) in enumerate(self.conv_layers):
            if filters < 1 or kernel < 1:
                raise ValidationError(f"conv layer {i} needs positive filters and kernel, got {(filters, kernel)}")
        # walk the conv stack so an impossible kernel fails at construction
        self.conv_steps()
        if self.attention:
            if self.attention_heads < 1 or self.attention_dim < 1:
                raise ValidationError("attention_heads and attention_dim must be positive")
            width = self.feature_width
            if self.attention_heads * self.attention_dim != width:
                raise ValidationError(
                    f"attention_heads * attention_dim must equal the recurrent width"
                    f" ({self.attention_heads} * {self.attention_dim} != {width})"
                )

    @property
    def feature_width(self):
        return recurrent_width(self.recurrent, self.lstm_hidden)

    def check_shape(self, data, what):
        """Refuse a (samples, steps, channels) stack whose channels differ
        from the model's, or whose steps do when it holds samples (an
        empty stack read from a header-only file has 0 steps)."""
        want = (self.steps, self.input_channels)
        if data.shape[2] != want[1] or (len(data) and data.shape[1:] != want):
            raise DimensionError(f"{what} has shape {data.shape[1:]}, the model expects {want}")

    def conv_steps(self):
        """Time steps surviving the conv stack; raises if a kernel is too long."""
        t = self.steps
        for i, (_, kernel) in enumerate(self.conv_layers):
            if self.conv_padding == "valid":
                if kernel > t:
                    raise DimensionError(
                        f"conv layer {i} kernel {kernel} exceeds its {t} input steps"
                    )
                t = t - kernel + 1
        return t


def standardize_inputs(config: ModelConfig, samples) -> ModelConfig:
    """Bake per-channel standardization from a training set into the
    config.

    Channels spanning very different magnitudes (counts vs pressure)
    otherwise saturate the recurrent gates.  Shift is the channel mean
    over all samples and steps, scale its standard deviation (constant
    channels get scale 1); a channel whose mean or deviation overflows
    is a NumericError.  No-op when the config already standardizes.
    """
    if config.input_shift:
        return config
    if len(samples) == 0:
        raise UsageError("standardize_inputs needs a nonempty sample set")
    with np.errstate(all="ignore"):  # checked below
        mean = samples.data.mean(axis=(0, 1))
        std = samples.data.std(axis=(0, 1))
    for c in np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std))):  # the first such channel
        raise NumericError(f"input channel {c} overflows its standardization"
                           f" (mean {mean[c]:.6g}, std {std[c]:.6g})")
    std[std == 0.0] = 1.0
    return replace(config, input_shift=tuple(mean), input_scale=tuple(std))


def expected_param_shapes(config: ModelConfig):
    """Name -> shape map in initialization order."""
    shapes = {}
    d_in = config.input_channels
    for i, (filters, kernel) in enumerate(config.conv_layers):
        shapes[f"conv{i}_w"] = (kernel, d_in, filters)
        shapes[f"conv{i}_b"] = (filters,)
        d_in = filters
    hidden = config.lstm_hidden
    if config.recurrent == "rnn":
        shapes["rnn_w"] = (hidden + d_in, hidden)
        shapes["rnn_b"] = (hidden,)
    else:
        directions = ("fwd", "bwd") if config.recurrent == "bilstm" else ("fwd",)
        for d in directions:
            for g in _GATES:
                shapes[f"lstm_{d}_w{g}"] = (hidden + d_in, hidden)
            for g in _GATES:
                shapes[f"lstm_{d}_b{g}"] = (hidden,)
    width = config.feature_width
    if config.attention:
        for j in range(config.attention_heads):
            for part in ("wq", "wk", "wv"):
                shapes[f"attn_h{j}_{part}"] = (width, config.attention_dim)
        shapes["attn_wo"] = (config.attention_heads * config.attention_dim, width)
    shapes["out_w"] = (width, config.classes)
    shapes["out_b"] = (config.classes,)
    return shapes


def init_params(config: ModelConfig):
    """Fresh parameter dict keyed by name, in expected_param_shapes order.

    Weights are Glorot-uniform on [-a, a] with a = sqrt(6 / (fan_in +
    fan_out)), drawn from SplitMix64(config.seed) in initialization
    order, row-major within each tensor; a (kernel, in, out) conv weight
    has fans kernel * in and kernel * out.  Biases start at zero except
    the LSTM forget-gate bias, which starts at one.
    """
    rng = SplitMix64(config.seed)
    params = {}
    for name, shape in expected_param_shapes(config).items():
        if len(shape) == 1:
            params[name] = Tensor(np.ones(shape) if name.endswith("_bf") else np.zeros(shape))
            continue
        k = shape[0] if len(shape) == 3 else 1
        limit = math.sqrt(6.0 / (k * shape[-2] + k * shape[-1]))
        vals = (rng.uniform_block(int(np.prod(shape))) * 2.0 - 1.0) * limit
        params[name] = Tensor(vals.reshape(shape))
    return params


def lstm_cell(x_t, h_prev, c_prev, gates):
    """One LSTM step.

    gates maps {"wf","wi","wc","wo","bf","bi","bc","bo"} to tensors;
    each weight is ((hidden + input), hidden) applied to the
    concatenation [h_prev, x_t].  Returns (h, c).
    """
    z = concat([h_prev, x_t])
    f = sigmoid(bias_add(matmul(z, gates["wf"]), gates["bf"]))
    i = sigmoid(bias_add(matmul(z, gates["wi"]), gates["bi"]))
    g = tanh(bias_add(matmul(z, gates["wc"]), gates["bc"]))
    o = sigmoid(bias_add(matmul(z, gates["wo"]), gates["bo"]))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh(c))
    return h, c


def _scan(x, cell, state, reverse):
    """Run a recurrent cell over the steps of (B, T, D): state =
    cell(x_t, *state) at each step, right to left when reverse.
    Returns each step's state[0] in time order."""
    steps = x.shape[1]
    if steps == 0:
        raise UsageError("recurrent forward needs at least one time step")
    outputs = [None] * steps
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        state = cell(time_slice(x, t), *state)
        outputs[t] = state[0]
    return outputs


def _lstm_scan(x, params, direction, reverse):
    gates = {f"{kind}{g}": params[f"lstm_{direction}_{kind}{g}"] for kind in ("w", "b") for g in _GATES}
    zeros = np.zeros((x.shape[0], gates["wf"].shape[1]))
    # each step looks lstm_cell up, so a wrapper set on the module sees every call
    cell = lambda x_t, h, c: lstm_cell(x_t, h, c, gates)
    return _scan(x, cell, (Tensor(zeros), Tensor(zeros)), reverse)


def lstm_forward(x, params):
    """Unidirectional LSTM over (B, T, D); returns (B, T, hidden)."""
    return time_stack(_lstm_scan(x, params, "fwd", reverse=False))


def bilstm_forward(x, params):
    """Bidirectional LSTM over (B, T, D); returns (B, T, 2 * hidden).

    The backward pass reads the sequence right to left; its step-t
    output is concatenated after the forward step-t output, so row t
    summarizes both the prefix and the suffix around t.
    """
    fwd = _lstm_scan(x, params, "fwd", reverse=False)
    bwd = _lstm_scan(x, params, "bwd", reverse=True)
    return time_stack([concat([f, b]) for f, b in zip(fwd, bwd)])


def rnn_forward(x, params):
    """Plain tanh RNN over (B, T, D); returns (B, T, hidden)."""
    w, b = params["rnn_w"], params["rnn_b"]
    h0 = Tensor(np.zeros((x.shape[0], w.shape[1])))
    cell = lambda x_t, h: (tanh(bias_add(matmul(concat([h, x_t]), w), b)),)
    return time_stack(_scan(x, cell, (h0,), False))


def scaled_dot_attention(q, k, v):
    """softmax(q k^T / sqrt(d_k)) v over the time axis.

    q, k, v are (..., T, d); q and k must share their last dimension
    and k and v their time dimension.
    """
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"query width {q.shape[-1]} does not match key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key steps {k.shape[-2]} do not match value steps {v.shape[-2]}")
    scores = scale(matmul(q, swap_last_axes(k)), 1.0 / math.sqrt(q.shape[-1]))
    return matmul(softmax(scores), v)


def multi_head_attention(x, params, heads):
    """Multi-head self-attention on (B, T, M); returns (B, T, M).

    Head j projects x with its own query/key/value matrices; head
    outputs are concatenated and mixed by the shared output matrix.
    """
    if heads < 1:
        raise UsageError(f"heads must be positive, got {heads}")
    outs = []
    for j in range(heads):
        q = matmul(x, params[f"attn_h{j}_wq"])
        k = matmul(x, params[f"attn_h{j}_wk"])
        v = matmul(x, params[f"attn_h{j}_wv"])
        outs.append(scaled_dot_attention(q, k, v))
    return matmul(concat(outs), params["attn_wo"])


def forward_batch(x, params, config: ModelConfig):
    """Forward pass on a (B, T, D) tensor; returns (B, 3) probabilities.

    This is the graph-recording path the trainer differentiates;
    forward below feeds it fixed-size chunks.
    """
    if x.ndim != 3:
        raise DimensionError(f"forward_batch expects (batch, steps, channels), got {x.shape}")
    if x.shape[2] != config.input_channels:
        raise DimensionError(
            f"input has {x.shape[2]} channels, model expects {config.input_channels}"
        )
    h = x
    if config.input_shift:
        h = channel_affine(h, config.input_shift, config.input_scale)
    for i in range(len(config.conv_layers)):
        try:
            h = conv1d(h, params[f"conv{i}_w"], params[f"conv{i}_b"], padding=config.conv_padding)
        except DimensionError as exc:
            raise DimensionError(f"conv layer {i}: {exc}") from None
        h = relu(h)
    if config.recurrent == "bilstm":
        h = bilstm_forward(h, params)
    elif config.recurrent == "lstm":
        h = lstm_forward(h, params)
    else:
        h = rnn_forward(h, params)
    if config.attention:
        h = multi_head_attention(h, params, config.attention_heads)
    pooled = time_mean(h)
    logits = bias_add(matmul(pooled, params["out_w"]), params["out_b"])
    return softmax(logits)


def forward(data, params, config: ModelConfig):
    """Class probabilities (N, 3) for an (N, steps, channels) stack.

    The stack is scored CHUNK rows per forward_batch call inside
    RowInvariant, so each row's probabilities have the bits of that
    row scored alone, whatever else is in the stack.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise DimensionError(f"forward expects (samples, steps, channels), got {data.shape}")
    config.check_shape(data, "input")
    probs = np.empty((len(data), config.classes))
    with RowInvariant():
        for start in range(0, len(data), CHUNK):
            chunk = Tensor(data[start:start + CHUNK])
            probs[start:start + CHUNK] = forward_batch(chunk, params, config).array
    return probs


def predict_class(probs):
    """Per row of an (N, 3) probability block, the index of the largest
    probability as int64 (N,); ties go to the smallest index."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 3:
        raise UsageError(f"predict_class expects (samples, 3) probabilities, got shape {probs.shape}")
    if not np.isfinite(probs).all():
        raise UsageError("predict_class got non-finite probabilities")
    return np.argmax(probs, axis=1)


class KNNClassifier:
    """k-nearest-neighbour baseline on flattened, standardized sequences.

    fit() learns per-column mean and standard deviation from the
    training set (constant columns get scale 1); predict() votes among
    the k nearest training samples by Euclidean distance.  Distance
    ties resolve toward the earlier training sample, vote ties toward
    the smaller label.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise UsageError(f"k must be positive, got {k}")
        self.k = k
        self._x = None
        self._labels = None
        self._mean = None
        self._scale = None

    def fit(self, samples):
        if len(samples) == 0:
            raise UsageError("KNNClassifier.fit needs a nonempty training set")
        if self.k > len(samples):
            raise UsageError(f"k={self.k} exceeds the {len(samples)} training samples")
        x = samples.data.reshape(len(samples), -1)
        self._mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0.0] = 1.0
        self._scale = std
        self._x = (x - self._mean) / self._scale
        self._labels = samples.labels
        return self

    def predict(self, data):
        """Labels, int64 (N,), for an (N, steps, channels) block of
        queries, each scored against the training set on its own, its
        squared differences in one buffer per call (the bits of ** 2)."""
        if self._x is None:
            raise UsageError("KNNClassifier.predict called before fit")
        data = np.asarray(data, dtype=np.float64)
        features = self._x.shape[1]
        if data.ndim != 3 or data.shape[1] * data.shape[2] != features:
            raise DimensionError(
                f"queries have shape {data.shape}, training set has {features} features per sample"
            )
        labels = np.empty(len(data), dtype=np.int64)
        d = np.empty_like(self._x)
        for i, q in enumerate((data.reshape(len(data), features) - self._mean) / self._scale):
            dists = np.sqrt(np.square(np.subtract(self._x, q, out=d), out=d).sum(axis=1))
            nearest = np.argsort(dists, kind="stable")[: self.k]
            labels[i] = np.argmax(np.bincount(self._labels[nearest], minlength=3))
        return labels
