"""Run configuration: defaults, `key=value` config files, flag
overrides, the value codecs that checkpoint headers share, and the
number grammar of every input.

Keys are sectioned by prefix: `data.` for generation/featurization,
`kalman.` for smoothing, `model.` for the architecture, `train.` for
the optimizer.  The bare `seed` seeds everything (generation,
balancing, splitting, initialization, and batch shuffling).  The fully
resolved configuration is echoed to the run log so a run can be
reproduced from it alone.
"""

import math
import re
from dataclasses import dataclass, field, fields

from .errors import DimensionError, ParseError, UsageError, ValidationError, open_text
from .model import ModelConfig, recurrent_width
from .synthetic import SyntheticConfig
from .training import TrainConfig


# The number grammar of every input: config values, --seed, checkpoints
# and CSV cells.  An integer is ASCII digits with an optional sign; a
# float is what float() reads from plain text, as np.loadtxt does, and
# must be finite.  int() and float() alone also take `1_000` and
# non-ASCII digits, and int() takes padding; np.loadtxt and str.split()
# also strip the ASCII separators \x1c-\x1f, which float() refuses.
INTEGER = re.compile(r"[+-]?[0-9]+")


def plain(text):
    """ASCII text holding no `_` and no \\x1c-\\x1f: float() reads it as
    np.loadtxt does."""
    return text.isascii() and "_" not in text and not any(c in text for c in "\x1c\x1d\x1e\x1f")


def integer(text):
    if not INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def real(text):
    if not (plain(text) and math.isfinite(value := float(text))):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# the blanks around a key, a value and each `,`- or `x`-separated part
_LAYOUT = " \t\r\n"


def _parts(text, sep, parse):
    return tuple(parse(part.strip(_LAYOUT)) for part in text.split(sep))


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse_conv(text):
    pairs = (part.partition("x") for part in text.split(",")) if text else ()
    return tuple((integer(f.strip(_LAYOUT)), integer(k.strip(_LAYOUT))) for f, _, k in pairs)


# (parse, render) pairs; parse raises ValueError on malformed text
_INT = (integer, str)
_FLOAT = (real, repr)
_TEXT = (str, str)
_FLOATS = (lambda text: _parts(text, ",", real), lambda values: ",".join(repr(v) for v in values))
_DIMS = (lambda text: _parts(text, "x", integer), lambda dims: "x".join(map(str, dims)))
_CONV = (_parse_conv, lambda layers: ",".join(f"{f}x{k}" for f, k in layers))
_BOOL = (_parse_bool, lambda v: "true" if v else "false")
# input standardization stays empty until standardize_inputs fills it
_OPTIONAL_FLOATS = (lambda text: _FLOATS[0](text) if text else (), _FLOATS[1])


def _key(key, codec, default):
    """A RunConfig field: its config file key, its codec and its default."""
    return field(default=default, metadata={"key": key, "codec": codec})


@dataclass(frozen=True)
class RunConfig:
    seed: int = _key("seed", _INT, 42)
    out_dir: str = _key("data.out_dir", _TEXT, "runs")
    threshold: float = _key("data.threshold", _FLOAT, 45.0)
    fractions: tuple = _key("data.fractions", _FLOATS, (0.8, 0.1, 0.1))
    samples_per_class: int = _key("data.samples_per_class", _INT, 500)
    steps: int = _key("data.steps", _INT, 12)
    grid: tuple = _key("data.grid", _DIMS, (8, 8, 4))
    cell: tuple = _key("data.cell", _DIMS, (3, 3, 2))
    base_dbz: tuple = _key("data.base_dbz", _FLOATS, (20.0, 18.0, 14.0))
    peak_dbz: tuple = _key("data.peak_dbz", _FLOATS, (55.0, 48.0, 35.0))
    rho: float = _key("data.rho", _FLOAT, 0.85)
    sigma: float = _key("data.sigma", _FLOAT, 5.0)
    kalman_q: float = _key("kalman.q", _FLOAT, 0.01)
    kalman_r: float = _key("kalman.r", _FLOAT, 1.0)
    conv_layers: tuple = _key("model.conv", _CONV, ((32, 3), (32, 3)))
    lstm_hidden: int = _key("model.hidden", _INT, 64)
    attention_heads: int = _key("model.heads", _INT, 4)
    attention_dim: int = _key("model.head_dim", _INT, 0)  # 0 = recurrent width / heads
    conv_padding: str = _key("model.padding", _TEXT, "valid")
    recurrent: str = _key("model.recurrent", _TEXT, "bilstm")
    attention: bool = _key("model.attention", _BOOL, True)
    knn_k: int = _key("model.knn_k", _INT, 5)
    learning_rate: float = _key("train.learning_rate", _FLOAT, 1e-3)
    batch_size: int = _key("train.batch_size", _INT, 32)
    max_epochs: int = _key("train.max_epochs", _INT, 100)
    patience: int = _key("train.patience", _INT, 10)
    beta1: float = _key("train.beta1", _FLOAT, 0.9)
    beta2: float = _key("train.beta2", _FLOAT, 0.999)
    epsilon: float = _key("train.epsilon", _FLOAT, 1e-8)

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


# run config key -> (RunConfig field, codec)
_KEYS = {f.metadata["key"]: (f.name, f.metadata["codec"]) for f in fields(RunConfig)}

# field -> codec; checkpoint headers write the ModelConfig fields that
# RunConfig shares exactly as run configs do
_CODECS = dict(_KEYS.values(), input_channels=_INT, classes=_INT,
               input_shift=_OPTIONAL_FLOATS, input_scale=_OPTIONAL_FLOATS)

_HEADER_FIELDS = tuple(f.name for f in fields(ModelConfig))


def _parse(key, name, text, where):
    try:
        return _CODECS[name][0](text)
    except ValueError as exc:
        raise ParseError(f"{where}: bad value for {key}: {exc}") from None


def read_items(lines, path, noun, first=1):
    """Read `key=value` lines, numbered from first, into {key: (line,
    value text)}.  `#` starts a comment, blank lines are skipped and
    layout blanks around a key or value are dropped.  A line without `=`,
    or a key given twice, is a ParseError naming path:line; noun names
    what the keys configure."""
    items = {}
    for lineno, raw in enumerate(lines, start=first):
        line = raw.split("#", 1)[0].strip(_LAYOUT)
        if not line:
            continue
        key, eq, text = (part.strip(_LAYOUT) for part in line.partition("="))
        if not eq:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in items:
            raise ParseError(f"{path}:{lineno}: repeated {noun} key {key!r} (first on line {items[key][0]})")
        items[key] = (lineno, text)
    return items


def parse_config_file(path) -> dict:
    """{RunConfig field: parsed value} from a config file's `key=value`
    lines (see read_items); an unknown key or a malformed value fails."""
    with open_text(path, UsageError, "config file") as fh:
        lines = fh.readlines()
    values = {}
    for key, (lineno, text) in read_items(lines, path, "config").items():
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        name = _KEYS[key][0]
        values[name] = _parse(key, name, text, f"{path}:{lineno}")
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
    values = parse_config_file(config_path) if config_path is not None else {}
    flags = {"seed": seed, "out_dir": out_dir}
    return RunConfig(**{**values, **{k: v for k, v in flags.items() if v is not None}})


def resolved_lines(cfg: RunConfig):
    """The full configuration as `key=value` lines, one per key, in a
    fixed order; parsing them back reproduces cfg exactly."""
    return [f"{key}={render(getattr(cfg, name))}" for key, (name, (_, render)) in _KEYS.items()]
