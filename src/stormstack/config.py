"""Run configuration: defaults, `key=value` config files, flag
overrides, and the value codecs that checkpoint headers share.

Keys are sectioned by prefix: `data.` for generation/featurization,
`kalman.` for smoothing, `model.` for the architecture, `train.` for
the optimizer.  The bare `seed` seeds everything (generation,
balancing, splitting, initialization, and batch shuffling).  The fully
resolved configuration is echoed to the run log so a run can be
reproduced from it alone.
"""

import math
from dataclasses import dataclass, fields, replace

from .errors import DimensionError, ParseError, UsageError, ValidationError, open_text
from .model import ModelConfig, recurrent_width
from .synthetic import SyntheticConfig
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out_dir: str = "runs"
    threshold: float = 45.0
    fractions: tuple = (0.8, 0.1, 0.1)
    samples_per_class: int = 500
    steps: int = 12
    grid: tuple = (8, 8, 4)
    cell: tuple = (3, 3, 2)
    base_dbz: tuple = (20.0, 18.0, 14.0)
    peak_dbz: tuple = (55.0, 48.0, 35.0)
    rho: float = 0.85
    sigma: float = 5.0
    kalman_q: float = 0.01
    kalman_r: float = 1.0
    conv_layers: tuple = ((32, 3), (32, 3))
    lstm_hidden: int = 64
    attention_heads: int = 4
    attention_dim: int = 0  # 0 = recurrent width / heads
    conv_padding: str = "valid"
    recurrent: str = "bilstm"
    attention: bool = True
    knn_k: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def _build(self, cls, **overrides):
        """cls built from every RunConfig field it declares under the
        same name; overrides win."""
        mine = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in mine}
        return cls(**{**shared, **overrides})

    def synthetic_config(self) -> SyntheticConfig:
        return self._build(SyntheticConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def model_config(self, steps, input_channels, recurrent=None, attention=None) -> ModelConfig:
        """Architecture for the given data shape.

        recurrent/attention override the configured values so baseline
        variants (plain lstm, rnn, attention off) reuse the rest of the
        settings.  attention_dim=0 derives the head width from the
        recurrent output so heads always tile it exactly.
        """
        recurrent = self.recurrent if recurrent is None else recurrent
        attention = self.attention if attention is None else attention
        head_dim = self.attention_dim
        # a nonpositive head count is left for ModelConfig to refuse
        if attention and head_dim == 0 and self.attention_heads > 0:
            width = recurrent_width(recurrent, self.lstm_hidden)
            if width % self.attention_heads != 0:
                raise UsageError(
                    f"model.heads={self.attention_heads} must divide the recurrent width {width}"
                    f" (model.hidden={self.lstm_hidden}, model.recurrent={recurrent})"
                )
            head_dim = width // self.attention_heads
        return self._build(ModelConfig, steps=steps, input_channels=input_channels,
                           attention_dim=head_dim, recurrent=recurrent, attention=attention)


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_floats(text):
    return tuple(_parse_float(p) for p in text.split(","))


def _parse_conv(text):
    pairs = (part.partition("x") for part in text.split(",")) if text else ()
    return tuple((int(f), int(k)) for f, _, k in pairs)


# (parse, render) pairs; parse raises ValueError on malformed text
_INT = (int, str)
_FLOAT = (_parse_float, repr)
_TEXT = (str, str)
_FLOATS = (_parse_floats, lambda values: ",".join(repr(v) for v in values))
_DIMS = (lambda text: tuple(int(p) for p in text.split("x")), lambda dims: "x".join(map(str, dims)))
_CONV = (_parse_conv, lambda layers: ",".join(f"{f}x{k}" for f, k in layers))
_BOOL = (_parse_bool, lambda v: "true" if v else "false")
# input standardization stays empty until standardize_inputs fills it
_OPTIONAL_FLOATS = (lambda text: _parse_floats(text) if text else (), _FLOATS[1])

# run config key -> (RunConfig field, codec)
_KEYS = {
    "seed": ("seed", _INT),
    "data.out_dir": ("out_dir", _TEXT),
    "data.threshold": ("threshold", _FLOAT),
    "data.fractions": ("fractions", _FLOATS),
    "data.samples_per_class": ("samples_per_class", _INT),
    "data.steps": ("steps", _INT),
    "data.grid": ("grid", _DIMS),
    "data.cell": ("cell", _DIMS),
    "data.base_dbz": ("base_dbz", _FLOATS),
    "data.peak_dbz": ("peak_dbz", _FLOATS),
    "data.rho": ("rho", _FLOAT),
    "data.sigma": ("sigma", _FLOAT),
    "kalman.q": ("kalman_q", _FLOAT),
    "kalman.r": ("kalman_r", _FLOAT),
    "model.conv": ("conv_layers", _CONV),
    "model.hidden": ("lstm_hidden", _INT),
    "model.heads": ("attention_heads", _INT),
    "model.head_dim": ("attention_dim", _INT),
    "model.padding": ("conv_padding", _TEXT),
    "model.recurrent": ("recurrent", _TEXT),
    "model.attention": ("attention", _BOOL),
    "model.knn_k": ("knn_k", _INT),
    "train.learning_rate": ("learning_rate", _FLOAT),
    "train.batch_size": ("batch_size", _INT),
    "train.max_epochs": ("max_epochs", _INT),
    "train.patience": ("patience", _INT),
    "train.beta1": ("beta1", _FLOAT),
    "train.beta2": ("beta2", _FLOAT),
    "train.epsilon": ("epsilon", _FLOAT),
}

# field -> codec; checkpoint headers write the ModelConfig fields that
# RunConfig shares exactly as run configs do
_CODECS = dict(_KEYS.values(), input_channels=_INT, classes=_INT,
               input_shift=_OPTIONAL_FLOATS, input_scale=_OPTIONAL_FLOATS)

_HEADER_FIELDS = tuple(f.name for f in fields(ModelConfig))


def _parse(key, field, text, where):
    try:
        return _CODECS[field][0](text)
    except ValueError as exc:
        raise ParseError(f"{where}: bad value for {key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Read `key=value` lines; `#` starts a comment, blanks are skipped.

    Returns {RunConfig field: parsed value}; unknown keys, repeated
    keys and malformed values fail loudly.
    """
    values, seen = {}, {}
    with open_text(path, UsageError, "config file") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ParseError(f"{path}:{lineno}: repeated config key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        field = _KEYS[key][0]
        values[field] = _parse(key, field, text.strip(), f"{path}:{lineno}")
    return values


def model_config_lines(config: ModelConfig):
    """The checkpoint header: one `field=value` line per ModelConfig
    field, in declaration order."""
    return [f"{name}={_CODECS[name][1](getattr(config, name))}" for name in _HEADER_FIELDS]


def parse_model_config(items, path) -> ModelConfig:
    """Inverse of model_config_lines; items maps each header key to
    its (line number, text)."""
    missing = [k for k in _HEADER_FIELDS if k not in items]
    if missing:
        raise ParseError(f"{path}: checkpoint config is missing {missing}")
    unknown = [k for k in items if k not in _HEADER_FIELDS]
    if unknown:
        raise ParseError(f"{path}: unknown checkpoint config keys {unknown}")
    try:
        return ModelConfig(**{
            k: _parse(k, k, text, f"{path}:{lineno}") for k, (lineno, text) in items.items()
        })
    except (ValidationError, DimensionError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def resolve(config_path=None, seed=None, out_dir=None) -> RunConfig:
    """Defaults, then the config file, then flag overrides."""
    cfg = RunConfig()
    if config_path is not None:
        cfg = replace(cfg, **parse_config_file(config_path))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg


def resolved_lines(cfg: RunConfig):
    """The full configuration as `key=value` lines, one per key, in a
    fixed order; parsing them back reproduces cfg exactly."""
    return [f"{key}={render(getattr(cfg, field))}" for key, (field, (_, render)) in _KEYS.items()]
