"""Confusion tallies, one-vs-rest scores, and report formats."""

import numpy as np
import pytest

from stormstack.dataio import read_report_csv, write_report_csv
from stormstack.errors import ParseError, UsageError, ValidationError
from stormstack.features import SequenceSet
from stormstack.metrics import (
    MetricsReport,
    confusion,
    evaluate,
    format_metrics_row,
    metrics,
    multiclass_accuracy,
    render_table,
)


def test_confusion_fixtures():
    cm = confusion([0, 1, 2], [0, 1, 2])
    assert np.array_equal(cm, np.eye(3, dtype=np.int64))
    cm = confusion([0, 1], [1, 0])
    assert cm[1, 0] == 1 and cm[0, 1] == 1 and cm.sum() == 2
    assert cm[0, 0] == 0


def test_confusion_validation():
    with pytest.raises(UsageError):
        confusion([0], [0, 1])
    with pytest.raises(UsageError):
        confusion([], [])
    with pytest.raises(ValidationError):
        confusion([3], [0])
    with pytest.raises(ValidationError):
        confusion([0], [-1])


def test_confusion_matches_tally():
    rng = np.random.default_rng(71)
    preds = [int(v) for v in rng.integers(0, 3, size=200)]
    truth = [int(v) for v in rng.integers(0, 3, size=200)]
    cm = confusion(preds, truth)
    for i in range(3):
        for j in range(3):
            assert cm[i, j] == sum(1 for p, t in zip(preds, truth) if t == i and p == j)


def test_metrics_fixture():
    # TP=7, FP=3, FN=7, TN=3 for the tornado column
    cm = [[7, 4, 3], [1, 2, 0], [2, 0, 1]]
    p, r, f1, a = metrics(cm, 0)
    assert p == 0.7
    assert r == 0.5
    assert abs(f1 - 7.0 / 12.0) < 1e-12
    assert a == 0.5


def test_metrics_perfect_and_degenerate():
    perfect = np.diag([5, 6, 7])
    assert metrics(perfect, 1) == (1.0, 1.0, 1.0, 1.0)
    # class 2 never occurs and is never predicted: ratios fall back to
    # zero while the accuracy stays meaningful
    quiet = np.diag([5, 5, 0])
    assert metrics(quiet, 2) == (0.0, 0.0, 0.0, 1.0)
    assert multiclass_accuracy(quiet) == 1.0


def test_metrics_match_reference_formulas():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = [int(v) for v in rng.integers(0, 3, size=n)]
        truth = [int(v) for v in rng.integers(0, 3, size=n)]
        cm = confusion(preds, truth)
        for positive in (0, 1, 2):
            tp = sum(1 for p, t in zip(preds, truth) if p == positive and t == positive)
            fp = sum(1 for p, t in zip(preds, truth) if p == positive and t != positive)
            fn = sum(1 for p, t in zip(preds, truth) if p != positive and t == positive)
            tn = n - tp - fp - fn
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            got = metrics(cm, positive)
            assert got == (prec, rec, f1, (tp + tn) / n)
            if prec + rec:
                assert min(prec, rec) - 1e-12 <= got[2] <= max(prec, rec) + 1e-12
        assert multiclass_accuracy(cm) == sum(1 for p, t in zip(preds, truth) if p == t) / n


def test_constant_predictor_on_balanced_labels():
    truth = [0, 1, 2] * 10
    cm = confusion([0] * 30, truth)
    p, r, f1, a = metrics(cm, 0)
    assert (p, r) == (1.0 / 3.0, 1.0)
    assert abs(a - 1.0 / 3.0) < 1e-12
    assert abs(multiclass_accuracy(cm) - 1.0 / 3.0) < 1e-12


def test_metrics_input_validation():
    with pytest.raises(UsageError):
        metrics(np.zeros((2, 2), dtype=np.int64), 0)
    with pytest.raises(UsageError):
        metrics(np.zeros((3, 3), dtype=np.int64), 3)


def _report(name="model", **overrides):
    fields = dict(name=name, positive_class=0, precision=0.2826, recall=0.0461,
                  f1=0.0792, accuracy=0.8247, macro_precision=0.3, macro_recall=0.25,
                  macro_f1=0.27, confusion=np.arange(9, dtype=np.int64).reshape(3, 3))
    fields.update(overrides)
    return MetricsReport(**fields)


def test_format_metrics_row():
    assert format_metrics_row("KNN", _report()) == "KNN 0.2826 0.0461 0.0792 0.8247"
    other = _report(precision=1.0, recall=0.5, f1=2.0 / 3.0, accuracy=0.75)
    assert format_metrics_row("m", other) == "m 1.0000 0.5000 0.6667 0.7500"


def test_evaluate():
    samples = SequenceSet([f"e{i}" for i in range(9)], [i % 3 for i in range(9)],
                          [[[float(i % 3)]] for i in range(9)])
    report = evaluate(lambda data: data[:, 0, 0].astype(np.int64), samples, positive=1, name="oracle")
    assert report.name == "oracle"
    assert report.positive_class == 1
    assert report.row() == (1.0, 1.0, 1.0, 1.0)
    assert np.array_equal(report.confusion, np.eye(3, dtype=np.int64) * 3)
    assert report.macro_f1 == 1.0
    constant = evaluate(lambda data: np.zeros(len(data), dtype=np.int64), samples)
    assert constant.recall == 1.0
    assert abs(constant.precision - 1.0 / 3.0) < 1e-12
    with pytest.raises(UsageError):
        evaluate(lambda data: np.zeros(len(data), dtype=np.int64), samples.take([]))


def test_render_table():
    table = render_table([_report("KNN"), _report("Kalman-Conv BiLSTM with Attention",
                                                  precision=1.0, accuracy=0.9)])
    lines = table.split("\n")
    assert table.endswith("\n")
    assert lines[0].startswith("Model")
    for column in ("Precision", "Recall", "F1-Score", "Accuracy"):
        assert column in lines[0]
    assert lines[1].startswith("KNN")
    assert "0.2826" in lines[1]
    assert lines[2].startswith("Kalman-Conv BiLSTM with Attention")
    assert "1.0000" in lines[2]
    # numbers line up column by column
    assert lines[1].index("0.2826") + 6 == lines[2].index("1.0000") + 6


def test_report_csv_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    sent = [_report("KNN"), _report("model", positive_class=2, precision=1 / 3)]
    write_report_csv(path, sent)
    got = read_report_csv(path)
    assert len(got) == 2
    for a, b in zip(sent, got):
        assert a.name == b.name
        assert a.positive_class == b.positive_class
        assert a.row() == b.row()
        assert (a.macro_precision, a.macro_recall, a.macro_f1) == \
               (b.macro_precision, b.macro_recall, b.macro_f1)
        assert np.array_equal(a.confusion, b.confusion)


def test_report_csv_rejects_tampering(tmp_path):
    path = tmp_path / "metrics.csv"
    write_report_csv(path, [_report()])
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\n1,2\n")
    with pytest.raises(ParseError):
        read_report_csv(bad)
    truncated = tmp_path / "short.csv"
    truncated.write_text(lines[0] + "\n" + ",".join(lines[1].split(",")[:5]) + "\n")
    with pytest.raises(ParseError):
        read_report_csv(truncated)
    fields = lines[1].split(",")
    for column, text in ((2, "nan"), (5, "inf"), (8, "-inf")):
        bad.write_text(lines[0] + "\n" + ",".join(fields[:column] + [text] + fields[column + 1:]) + "\n")
        with pytest.raises(ParseError) as err:
            read_report_csv(bad)
        assert f"{bad}:2: non-finite value {text} in column {lines[0].split(',')[column]}" in str(err.value)


def test_report_csv_rejects_impossible_records(tmp_path):
    path = tmp_path / "metrics.csv"
    write_report_csv(path, [_report()])
    header, row = path.read_text().splitlines()[:2]
    fields = row.split(",")
    for column, text, message in ((1, "3", "positive class must be 0, 1, or 2, got 3"),
                                  (1, "-1", "positive class must be 0, 1, or 2, got -1"),
                                  (13, "-4", "confusion counts must be nonnegative, got -4")):
        path.write_text(header + "\n" + ",".join(fields[:column] + [text] + fields[column + 1:]) + "\n")
        with pytest.raises(ValidationError) as err:
            read_report_csv(path)
        assert f"{path}:2: {message}" in str(err.value)
    with pytest.raises(ValidationError):
        _report(positive_class=5)
