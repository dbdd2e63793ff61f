"""Evaluation: confusion tallies, one-vs-rest metrics, and report
rendering.

Labels are 0 = tornado, 1 = hail, 2 = wind throughout.  Every ratio
follows the 0/0 -> 0 convention so degenerate tallies stay defined.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError

LABELS = (0, 1, 2)


@dataclass(frozen=True)
class MetricsReport:
    """One evaluated classifier: its one-vs-rest scores for the chosen
    positive class (a label), macro averages, and the raw confusion
    matrix (nonnegative counts)."""

    name: str
    positive_class: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray

    def __post_init__(self):
        if self.positive_class not in LABELS:
            raise ValidationError(f"positive class must be 0, 1, or 2, got {self.positive_class}")
        if (self.confusion < 0).any():
            raise ValidationError(f"confusion counts must be nonnegative, got {self.confusion.min()}")

    def row(self):
        return (self.precision, self.recall, self.f1, self.accuracy)


def confusion(predictions, truth):
    """3x3 tally; entry [i, j] counts truth i predicted as j."""
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth):
        raise UsageError(
            f"got {len(predictions)} predictions for {len(truth)} true labels"
        )
    if len(truth) == 0:
        raise UsageError("confusion needs at least one prediction")
    cm = np.zeros((3, 3), dtype=np.int64)
    for p, t in zip(predictions, truth):
        if p not in LABELS or t not in LABELS:
            raise ValidationError(f"labels must be 0, 1, or 2, got prediction {p}, truth {t}")
        cm[t, p] += 1
    return cm


def _ratio(num, den):
    # float() so numpy int inputs do not leak numpy scalars into reports.
    return float(num / den) if den > 0 else 0.0


def metrics(cm, positive: int):
    """(precision, recall, f1, accuracy) treating `positive` one-vs-rest.

    TP is cm[p, p], FP the rest of column p, FN the rest of row p, TN
    everything else; accuracy is (TP + TN) / total.  Undefined ratios
    evaluate to 0.
    """
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (3, 3):
        raise UsageError(f"confusion matrix must be 3x3, got {cm.shape}")
    if positive not in LABELS:
        raise UsageError(f"positive class must be 0, 1, or 2, got {positive}")
    tp = cm[positive, positive]
    fp = cm[:, positive].sum() - tp
    fn = cm[positive, :].sum() - tp
    tn = cm.sum() - tp - fp - fn
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    accuracy = _ratio(tp + tn, cm.sum())
    return (precision, recall, f1, accuracy)


def multiclass_accuracy(cm):
    """Trace over total: the fraction of exactly correct predictions."""
    cm = np.asarray(cm, dtype=np.int64)
    return _ratio(np.trace(cm), cm.sum())


def evaluate(classify, test_set, positive: int = 0, name: str = "model") -> MetricsReport:
    """Score a classifier on a SequenceSet.  classify maps the whole
    (N, steps, channels) stack to N labels in one call."""
    if len(test_set) == 0:
        raise UsageError("evaluate needs a nonempty test set")
    cm = confusion(np.asarray(classify(test_set.data)).tolist(), test_set.labels.tolist())
    precision, recall, f1, accuracy = metrics(cm, positive)
    per_class = [metrics(cm, c) for c in LABELS]
    return MetricsReport(
        name=name,
        positive_class=positive,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        macro_precision=sum(m[0] for m in per_class) / 3.0,
        macro_recall=sum(m[1] for m in per_class) / 3.0,
        macro_f1=sum(m[2] for m in per_class) / 3.0,
        confusion=cm,
    )


def format_metrics_row(name: str, report) -> str:
    """`name precision recall f1 accuracy` with four decimals and
    single spaces."""
    p, r, f1, a = report.row()
    return f"{name} {p:.4f} {r:.4f} {f1:.4f} {a:.4f}"


def render_table(reports) -> str:
    """Aligned text table of one row per report."""
    header = ("Model", "Precision", "Recall", "F1-Score", "Accuracy")
    rows = [header]
    for rep in reports:
        rows.append((rep.name,) + tuple(f"{v:.4f}" for v in rep.row()))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [r[i].rjust(widths[i]) for i in range(1, 5)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
