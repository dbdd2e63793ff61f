"""stormstack: a severe-weather sequence-classification toolkit.

Pipeline pieces: a seeded synthetic storm generator, reflectivity
statistics with Kalman smoothing, a Conv-BiLSTM-attention classifier
on a small reverse-mode autodiff core, and one-vs-rest evaluation.
"""

from .config import RunConfig, parse_config_file, resolve, resolved_lines
from .dataio import (
    load_checkpoint,
    load_events,
    load_sequences,
    load_volumes,
    save_checkpoint,
    write_events,
    write_sequences,
    write_volumes,
)
from .errors import (
    DataError,
    DimensionError,
    NumericError,
    ParseError,
    StormError,
    UsageError,
    ValidationError,
)
from .features import (
    AUX_CHANNELS,
    DatasetSplit,
    EventRecord,
    ScanBlock,
    SequenceSet,
    balance,
    build_sample,
    class_counts,
    extract_shsr_stats,
    smooth_series,
    split,
)
from .metrics import (
    MetricsReport,
    confusion,
    evaluate,
    format_metrics_row,
    metrics,
    multiclass_accuracy,
    render_table,
)
from .model import (
    KNNClassifier,
    ModelConfig,
    bilstm_forward,
    forward,
    forward_batch,
    init_params,
    lstm_cell,
    multi_head_attention,
    predict_class,
    scaled_dot_attention,
    standardize_inputs,
)
from .rng import SplitMix64, subseed
from .synthetic import SyntheticConfig, generate_synthetic
from .tensor import Graph, Tensor, backward, grad_check
from .training import AdamState, TrainConfig, adam_step, train

__version__ = "0.1.0"
