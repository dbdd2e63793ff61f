"""End-to-end command-line tests plus config resolution units.

The pipeline fixture runs every subcommand once against a deliberately
tiny dataset so the whole module stays fast; individual tests then
assert on the artifacts it left behind.
"""

import csv
import errno
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stormstack import cli, dataio, features, model
from stormstack.config import RunConfig, parse_config_file, resolve, resolved_lines
from stormstack.errors import ParseError, UsageError
from stormstack.features import SequenceSet
from stormstack.model import init_params, standardize_inputs
from stormstack.synthetic import SyntheticConfig, generate_synthetic
from stormstack.tensor import Graph, Tensor, nll_loss

TINY_CONFIG = """\
# tiny end-to-end run
seed = 5
data.samples_per_class = 12
data.steps = 6
data.grid = 4x4x2
data.cell = 2x2x1
model.conv = 6x3
model.hidden = 8
model.heads = 4
model.knn_k = 3
train.max_epochs = 4
train.batch_size = 8
train.patience = 4
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG)
    out = root / "runs"
    for extra in (["generate"], ["featurize"], ["train"],
                  ["evaluate", "--baselines", "knn,rnn"], ["predict"], ["report"]):
        code = cli.main(extra + ["--config", str(config), "--out", str(out)])
        assert code == 0, f"{extra[0]} failed"
    return config, out


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_pipeline_leaves_every_artifact(pipeline):
    _, out = pipeline
    expected = [
        "events.csv", "volumes.csv", "train.csv", "val.csv", "test.csv",
        "model.ckpt", "train_log.csv", "metrics_model.csv", "metrics_model.txt",
        "metrics_knn.csv", "metrics_knn.txt", "metrics_rnn.csv", "metrics_rnn.txt",
        "report.txt", "predictions.csv", "run_config.txt",
    ]
    missing = [name for name in expected if not (out / name).exists()]
    assert missing == []


def test_split_files_hold_the_expected_samples(pipeline):
    # 12 per class, fractions 0.8/0.1/0.1 -> 9/1/2 per class, 6 rows each
    _, out = pipeline
    for name, samples in (("train.csv", 27), ("val.csv", 3), ("test.csv", 6)):
        rows = _rows(out / name)
        assert rows[0][:3] == ["sample_id", "t", "label"]
        assert len(rows) - 1 == samples * 6
        labels = [int(r[2]) for r in rows[1:]]
        counts = {c: labels.count(c) // 6 for c in (0, 1, 2)}
        assert counts == {c: samples // 3 for c in (0, 1, 2)}


def test_predictions_are_row_consistent(pipeline):
    _, out = pipeline
    rows = _rows(out / "predictions.csv")
    assert rows[0] == ["sample_id", "label", "p_tornado", "p_hail", "p_wind", "predicted"]
    assert len(rows) == 1 + 6
    for row in rows[1:]:
        probs = [float(v) for v in row[2:5]]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert int(row[5]) == probs.index(max(probs))


def test_train_log_parses_back(pipeline):
    _, out = pipeline
    rows = _rows(out / "train_log.csv")
    assert rows[0] == ["epoch", "train_loss", "val_loss", "val_accuracy"]
    assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
    for row in rows[1:]:
        float(row[1]), float(row[2]), float(row[3])


def test_report_orders_classifiers(pipeline):
    _, out = pipeline
    lines = (out / "report.txt").read_text().splitlines()
    assert lines[0].split() == ["Model", "Precision", "Recall", "F1-Score", "Accuracy"]
    names = [line.rsplit(None, 4)[0] for line in lines[1:]]
    assert names == ["KNN", "RNN", "Kalman-Conv BiLSTM with Attention"]


def test_metrics_text_row_shape(pipeline):
    _, out = pipeline
    line = (out / "metrics_knn.txt").read_text().strip()
    parts = line.split()
    assert parts[0] == "KNN"
    assert len(parts) == 5
    for value in parts[1:]:
        assert 0.0 <= float(value) <= 1.0


def test_run_config_echo_reproduces_the_run(pipeline):
    config, out = pipeline
    echoed = parse_config_file(out / "run_config.txt")
    resolved = resolve(str(config), None, str(out))
    assert RunConfig(**echoed) == resolved
    # and renders back to the same bytes
    assert "".join(line + "\n" for line in resolved_lines(RunConfig(**echoed))) == \
        (out / "run_config.txt").read_text()


def test_evaluate_and_predict_rerun_byte_identical(pipeline):
    config, out = pipeline
    before = (out / "metrics_model.csv").read_bytes(), (out / "predictions.csv").read_bytes()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
    assert cli.main(["predict", "--config", str(config), "--out", str(out)]) == 0
    after = (out / "metrics_model.csv").read_bytes(), (out / "predictions.csv").read_bytes()
    assert before == after


def test_predict_honours_checkpoint_and_input_flags(pipeline, tmp_path):
    _, out = pipeline
    fresh = tmp_path / "fresh"
    code = cli.main(["predict", "--out", str(fresh),
                     "--checkpoint", str(out / "model.ckpt"),
                     "--input", str(out / "val.csv")])
    assert code == 0
    rows = _rows(fresh / "predictions.csv")
    assert len(rows) == 1 + 3


def test_predictions_quote_sample_ids(pipeline, tmp_path):
    # an id holding the delimiter round-trips instead of adding a field
    _, out = pipeline
    rows = _rows(out / "test.csv")
    first = rows[1][0]
    for row in rows[1:]:
        if row[0] == first:
            row[0] = "ev00004,x"
    with open(tmp_path / "quoted.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    code = cli.main(["predict", "--out", str(tmp_path), "--checkpoint", str(out / "model.ckpt"),
                     "--input", str(tmp_path / "quoted.csv")])
    assert code == 0
    predictions = _rows(tmp_path / "predictions.csv")
    assert {len(row) for row in predictions} == {6}
    assert [row[0] for row in predictions[1:3]] == ["ev00004,x", rows[7][0]]
    assert predictions[1][1:] == _rows(out / "predictions.csv")[1][1:]


def test_carriage_return_in_a_sample_id_keeps_six_fields(pipeline, tmp_path):
    # the csv module leaves a bare \r unquoted under a \n line terminator,
    # which a reader splits into two rows of 1 and 6 fields
    _, out = pipeline
    lines = (out / "test.csv").read_text().splitlines()
    first = lines[1].split(",")[0]
    renamed = ['"a\rb"' + line[len(first):] if line.startswith(first + ",") else line for line in lines]
    (tmp_path / "cr.csv").write_bytes(("\n".join(renamed) + "\n").encode())
    code = cli.main(["predict", "--out", str(tmp_path), "--checkpoint", str(out / "model.ckpt"),
                     "--input", str(tmp_path / "cr.csv")])
    assert code == 0
    predictions = _rows(tmp_path / "predictions.csv")
    assert len(predictions) == 1 + 6
    assert {len(row) for row in predictions} == {6}
    assert predictions[1][0] == "a\rb"
    assert predictions[1][1:] == _rows(out / "predictions.csv")[1][1:]


def test_header_only_input_with_other_channels_is_data_error(pipeline, tmp_path, capsys):
    # no samples, but the columns already disagree with the 16-channel checkpoint
    _, out = pipeline
    (tmp_path / "empty.csv").write_text("sample_id,t,label,f_1,f_2\n")
    code = cli.main(["predict", "--out", str(tmp_path), "--checkpoint", str(out / "model.ckpt"),
                     "--input", str(tmp_path / "empty.csv")])
    assert code == 2
    _one_data_error(capsys, f"{tmp_path / 'empty.csv'} has shape (0, 2), the model expects (6, 16)")
    assert not (tmp_path / "predictions.csv").exists()


def test_header_only_input_scores_no_chunk(pipeline, tmp_path, monkeypatch):
    _, out = pipeline
    header = (out / "test.csv").read_text().splitlines()[0]
    (tmp_path / "empty.csv").write_text(header + "\n")
    calls = []
    real = model.forward_batch
    monkeypatch.setattr(model, "forward_batch", lambda *a: calls.append(a) or real(*a))
    code = cli.main(["predict", "--out", str(tmp_path), "--checkpoint", str(out / "model.ckpt"),
                     "--input", str(tmp_path / "empty.csv")])
    assert code == 0
    assert calls == []
    assert (tmp_path / "predictions.csv").read_text() == (
        "sample_id,label,p_tornado,p_hail,p_wind,predicted\n")


def test_unknown_baseline_is_usage_error(pipeline, capsys):
    config, out = pipeline
    code = cli.main(["evaluate", "--baselines", "svm",
                     "--config", str(config), "--out", str(out)])
    assert code == 1
    assert "unknown baselines" in capsys.readouterr().err


def _copy(out, dest, *names):
    dest.mkdir(exist_ok=True)
    for name in names:
        (dest / name).write_bytes((out / name).read_bytes())


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_unknown_baseline_changes_no_file(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "test.csv", "model.ckpt")
    for name in ("run_config.txt", "metrics_model.csv", "metrics_model.txt"):
        (tmp_path / name).write_text("untouched\n")
    before = _snapshot(tmp_path)
    code = cli.main(["evaluate", "--baselines", "knn,foo",
                     "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert "unknown baselines ['foo']" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_report_refuses_mixed_positive_classes(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "train.csv", "val.csv", "test.csv", "model.ckpt")
    run = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["evaluate", "--positive-class", "2", "--baselines", "knn"] + run) == 0
    assert cli.main(["evaluate"] + run) == 0
    capsys.readouterr()
    assert cli.main(["report"] + run) == 2
    _one_data_error(capsys, "mix positive classes [0, 2]")
    assert not (tmp_path / "report.txt").exists()
    # the flag was a no-op on report and is gone from it
    assert cli.main(["report", "--positive-class", "2"] + run) == 1
    assert "--positive-class" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["generate", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_positive_class_must_be_a_label(capsys):
    assert cli.main(["evaluate", "--positive-class", "3"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_checkpoint_is_data_error(tmp_path, capsys):
    assert cli.main(["predict", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "model.ckpt" in err
    assert "file not found" in err


def test_report_without_metrics_is_data_error(tmp_path, capsys):
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    assert "run evaluate first" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = cli.main(["generate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("data.rainbows = 7\n")
    assert cli.main(["generate", "--config", str(config)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_value_is_data_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    for line in ("train.max_epochs = soon", "data.sigma = nan", "data.rho = inf",
                 "data.base_dbz = 20.0,-inf,14.0", "data.fractions ="):
        config.write_text("seed = 3\n" + line + "\n")
        assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path)]) == 2, line
        err = capsys.readouterr().err
        assert f"{config}:2: bad value" in err
        assert err.count("\n") == 1


def test_refused_baseline_input_changes_no_file(pipeline, tmp_path, capsys):
    # a bad train.csv is found before run_config.txt or metrics_model.* is rewritten
    config, out = pipeline
    _copy(out, tmp_path, "test.csv", "val.csv", "model.ckpt", "run_config.txt",
          "metrics_model.csv", "metrics_model.txt")
    lines = (out / "train.csv").read_text().split("\n")
    lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
    (tmp_path / "train.csv").write_text("\n".join(lines))
    before = _snapshot(tmp_path)
    code = cli.main(["evaluate", "--baselines", "knn", "--config", str(config),
                     "--out", str(tmp_path)])
    assert code == 2
    _one_data_error(capsys, f"{tmp_path / 'train.csv'}:3: non-finite value nan")
    assert _snapshot(tmp_path) == before


def test_only_the_fitted_baselines_read_val_csv(pipeline, tmp_path, capsys):
    # knn needs no validation split: with val.csv gone it writes the same
    # metrics, and lstm is refused, naming val.csv, before any file is written
    config, out = pipeline
    _copy(out, tmp_path, "train.csv", "test.csv", "model.ckpt")
    run = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["evaluate", "--baselines", "knn"] + run) == 0
    for name in ("metrics_model.csv", "metrics_model.txt", "metrics_knn.csv", "metrics_knn.txt"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
    capsys.readouterr()
    (tmp_path / "run_config.txt").write_text("untouched\n")
    before = _snapshot(tmp_path)
    assert cli.main(["evaluate", "--baselines", "lstm"] + run) == 2
    _one_data_error(capsys, f"cannot read input {tmp_path / 'val.csv'}: file not found")
    assert _snapshot(tmp_path) == before


def test_evaluate_frees_the_checkpoint_before_knn_fits(pipeline, tmp_path, monkeypatch):
    # the model's parameters are dropped once its report is made, so the
    # training split and KNN's buffers can reuse their memory
    config, out = pipeline
    _copy(out, tmp_path, "train.csv", "test.csv", "model.ckpt")
    loaded, alive = [], []
    load, fit = dataio.load_checkpoint, model.KNNClassifier.fit

    def watched_load(path):
        params, model_config = load(path)
        loaded.extend(weakref.ref(tensor) for tensor in params.values())
        return params, model_config

    def watched_fit(self, samples):
        alive.extend(ref for ref in loaded if ref() is not None)
        return fit(self, samples)

    monkeypatch.setattr(dataio, "load_checkpoint", watched_load)
    monkeypatch.setattr(model.KNNClassifier, "fit", watched_fit)
    assert cli.main(["evaluate", "--baselines", "knn", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert loaded and not alive, f"{len(alive)} of {len(loaded)} parameters alive when KNN fits"


def _one_data_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


def test_non_utf8_input_is_data_error(pipeline, tmp_path, capsys):
    config, out = pipeline
    for name in ("model.ckpt", "test.csv", "metrics_model.csv"):
        (tmp_path / name).write_bytes((out / name).read_bytes() + b"\xff")
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
    scratch = str(tmp_path / "scratch")
    runs = (
        ["predict", "--checkpoint", str(tmp_path / "model.ckpt"), "--out", scratch],
        ["predict", "--checkpoint", str(out / "model.ckpt"), "--input", str(tmp_path / "test.csv"),
         "--out", scratch],
        ["report", "--out", str(tmp_path)],
        ["generate", "--config", str(bad_config), "--out", scratch],
    )
    for argv, name in zip(runs, ("model.ckpt", "test.csv", "metrics_model.csv", "bad.cfg")):
        assert cli.main(argv) == 2, argv[0]
        _one_data_error(capsys, name, "is not UTF-8 text")


def test_non_finite_input_is_data_error(pipeline, tmp_path, capsys):
    _, out = pipeline
    lines = (out / "test.csv").read_text().split("\n")
    lines[3] = ",".join(lines[3].split(",")[:-1] + ["nan"])
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(lines))
    assert cli.main(["predict", "--checkpoint", str(out / "model.ckpt"), "--input", str(bad),
                     "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{bad}:4: non-finite value nan")


# int() and float() read each rewrite of a number below as that number;
# every input refuses them all: config files, --seed, checkpoints and
# every CSV cell
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
NUMBER_FORMS = {
    "underscore": lambda text: re.sub(r"[0-9]", r"0_\g<0>", text, count=1),
    "arabic-indic": lambda text: text.translate(_ARABIC_INDIC),
    "fullwidth": lambda text: text.translate(_FULLWIDTH),
    "padded": lambda text: "\u00a0" + text,  # a no-break space is not layout
}
# np.loadtxt, but not float(), also takes a float padded with an ASCII
# separator; every CSV cell refuses these too
SEPARATORS = "\x1c\x1d\x1e\x1f"
DIGIT_FORMS = [rewrite("1000") for rewrite in NUMBER_FORMS.values()] + [c + "1000" for c in SEPARATORS]
DIGIT_IDS = list(NUMBER_FORMS) + [f"separator-{ord(c):x}" for c in SEPARATORS]


@pytest.mark.parametrize("digits", DIGIT_FORMS, ids=DIGIT_IDS)
def test_non_ascii_or_underscored_digits_in_volumes_are_data_error(pipeline, tmp_path, capsys, digits):
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().split("\n")
    fields = lines[3].split(",")
    fields[7] = digits
    lines[3] = ",".join(fields)
    (tmp_path / "volumes.csv").write_text("\n".join(lines), encoding="utf-8")
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    _one_data_error(capsys, f"{tmp_path / 'volumes.csv'}:4: ", repr(digits), "column v_2")
    assert not (tmp_path / "train.csv").exists()


@pytest.mark.parametrize("digits", DIGIT_FORMS, ids=DIGIT_IDS)
def test_non_ascii_or_underscored_digits_in_a_split_file_are_data_error(pipeline, tmp_path, capsys,
                                                                       digits):
    _, out = pipeline
    lines = (out / "test.csv").read_text().split("\n")
    lines[3] = ",".join(lines[3].split(",")[:-1] + [digits])
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(lines), encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(out / "model.ckpt"), "--input", str(bad),
                     "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{bad}:4: ", repr(digits), "column f_16")
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("digits", DIGIT_FORMS, ids=DIGIT_IDS)
def test_non_ascii_or_underscored_digits_in_events_are_data_error(pipeline, tmp_path, capsys, digits):
    # in an auxiliary channel, where float()'s 1000.0 would be in range
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "events.csv").read_text().split("\n")
    fields = lines[3].split(",")
    fields[5] = digits
    lines[3] = ",".join(fields)
    (tmp_path / "events.csv").write_text("\n".join(lines), encoding="utf-8")
    before = _snapshot(tmp_path)
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    column = lines[0].split(",")[5]
    _one_data_error(capsys, f"{tmp_path / 'events.csv'}:4: ", repr(digits), f"column {column}")
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("digits", DIGIT_FORMS, ids=DIGIT_IDS)
def test_non_ascii_or_underscored_digits_in_metrics_are_data_error(pipeline, tmp_path, capsys, digits):
    config, out = pipeline
    _copy(out, tmp_path, "metrics_model.csv", "report.txt")
    rows = (tmp_path / "metrics_model.csv").read_bytes().decode("utf-8").split("\r\n")
    fields = rows[1].split(",")
    fields[2] = digits
    rows[1] = ",".join(fields)
    (tmp_path / "metrics_model.csv").write_bytes("\r\n".join(rows).encode("utf-8"))
    before = _snapshot(tmp_path)
    assert cli.main(["report", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{tmp_path / 'metrics_model.csv'}:2: ", repr(digits), "column precision")
    assert _snapshot(tmp_path) == before


# int() takes these in an integer column, where they would read as 26999940, 4 and 10
@pytest.mark.parametrize("name, column, digits", [
    ("volumes.csv", 1, lambda cell: cell[:2] + "_" + cell[2:]),
    ("volumes.csv", 2, lambda cell: "٤"),
    ("events.csv", 1, lambda cell: "1_0"),
], ids=("underscored-timestamp", "arabic-indic-nx", "underscored-label"))
def test_non_ascii_or_underscored_integers_are_data_error(pipeline, tmp_path, capsys, name, column,
                                                         digits):
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / name).read_text().split("\n")
    fields = lines[3].split(",")
    fields[column] = digits(fields[column])
    lines[3] = ",".join(fields)
    (tmp_path / name).write_text("\n".join(lines), encoding="utf-8")
    before = _snapshot(tmp_path)
    assert cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)]) == 2
    header = lines[0].split(",")
    _one_data_error(capsys, f"{tmp_path / name}:4: ", repr(fields[column]), f"column {header[column]}")
    assert _snapshot(tmp_path) == before


BEYOND_INT64 = "123456789012345678901234567890"


def test_timestamp_beyond_int64_in_volumes_is_data_error(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().split("\n")
    fields = lines[3].split(",")
    fields[1] = BEYOND_INT64
    lines[3] = ",".join(fields)
    (tmp_path / "volumes.csv").write_text("\n".join(lines))
    before = _snapshot(tmp_path)
    assert cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{tmp_path / 'volumes.csv'}:4: ", BEYOND_INT64, "column timestamp")
    assert _snapshot(tmp_path) == before


def test_count_beyond_int64_in_metrics_is_data_error(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "metrics_model.csv", "report.txt")
    rows = (tmp_path / "metrics_model.csv").read_bytes().decode("utf-8").split("\r\n")
    fields = rows[1].split(",")
    fields[9] = "-" + BEYOND_INT64
    rows[1] = ",".join(fields)
    (tmp_path / "metrics_model.csv").write_bytes("\r\n".join(rows).encode("utf-8"))
    before = _snapshot(tmp_path)
    assert cli.main(["report", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{tmp_path / 'metrics_model.csv'}:2: ", "-" + BEYOND_INT64, "column cm00")
    assert _snapshot(tmp_path) == before


def test_ragged_input_is_data_error(pipeline, tmp_path, capsys):
    # drop the last step of the second sample: lines 8-12 hold t = 0..4
    _, out = pipeline
    lines = (out / "test.csv").read_text().split("\n")
    second = lines[7].split(",")[0]
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(lines[:12] + lines[13:]))
    assert cli.main(["predict", "--checkpoint", str(out / "model.ckpt"), "--input", str(bad),
                     "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{bad}:8: sample {second} has shape (5, 16)")


def test_repeated_event_id_is_data_error(pipeline, tmp_path, capsys):
    # a second row for one event would put its samples in train and test
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "events.csv").read_text().split("\n")
    (tmp_path / "events.csv").write_text("\n".join(lines[:3] + lines[1:2] + lines[3:]))
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    event_id = lines[1].split(",")[0]
    _one_data_error(capsys, f"{tmp_path / 'events.csv'}:4: repeated event_id '{event_id}'")
    assert not (tmp_path / "train.csv").exists()


def test_all_missing_scan_is_data_error(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().split("\n")
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:6] + [fields[5]] * (len(fields) - 6))
    (tmp_path / "volumes.csv").write_text("\n".join(lines))
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    # the fault is named at the line of the event's first row
    _one_data_error(capsys, f"{tmp_path / 'volumes.csv'}:2: event {fields[0]} scan at {fields[1]}:"
                            " volume has no non-missing cells")


def _featurize_refused(config, tmp_path, recwarn):
    # a refused featurize leaves older splits as they were and warns nothing
    for name in ("train.csv", "val.csv", "test.csv", "run_config.txt"):
        (tmp_path / name).write_text("untouched\n")
    before = _snapshot(tmp_path)
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert _snapshot(tmp_path) == before
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    return code


def test_overflowing_statistic_is_data_error(pipeline, tmp_path, capsys, recwarn):
    # the variance of a scan holding +-1e308 overflows to inf
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().split("\n")
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:6] + ["1e308", "-1e308"] + fields[8:])
    (tmp_path / "volumes.csv").write_text("\n".join(lines))
    assert _featurize_refused(config, tmp_path, recwarn) == 2
    _one_data_error(capsys, f"{tmp_path / 'volumes.csv'}:2: event {fields[0]} scan at {fields[1]}:"
                            " statistic 4 of 6 is not finite (inf)")


def test_overflowing_generate_is_numeric_error(tmp_path, capsys, recwarn):
    # a sigma this large makes the volumes infinite: generate writes nothing and warns nothing
    config = tmp_path / "run.cfg"
    config.write_text("data.samples_per_class = 2\ndata.sigma = 1e308\n")
    out = tmp_path / "out"
    out.mkdir()
    for name in ("events.csv", "volumes.csv", "run_config.txt"):
        (out / name).write_text("untouched\n")
    before = _snapshot(out)
    assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 3
    assert _snapshot(out) == before
    assert capsys.readouterr().err == ("numeric error: the volumes of event ev00000"
                                       " overflow its scan statistics\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_generate_refuses_finite_volumes_whose_statistics_overflow(tmp_path, capsys, recwarn):
    # cells near 1e200 are finite, but their variance is not: featurize would
    # refuse the volumes, so generate does, naming the event, and writes nothing
    config = tmp_path / "run.cfg"
    config.write_text("data.samples_per_class = 2\ndata.sigma = 1e200\n")
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == ("numeric error: the volumes of event ev00000"
                                       " overflow its scan statistics\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_train_refuses_features_whose_standardization_overflows(tmp_path, capsys):
    # sigma 1e150 gives finite features, but the variance channel's deviation
    # squares past 1e308: train refuses before it writes, in one line with no
    # NumPy warning, rather than write an input_scale of inf that evaluate refuses
    config = tmp_path / "run.cfg"
    config.write_text("data.samples_per_class = 10\ndata.sigma = 1e150\n"
                      "train.max_epochs = 1\ntrain.patience = 1\n")
    out = tmp_path / "out"
    for stage in ("generate", "featurize"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "model.ckpt").write_text("untouched\n")
    before = _snapshot(out)
    stage = _stage(["-m", "stormstack", "train", "--config", str(config), "--out", str(out)])
    _, err = stage.communicate(timeout=300)
    assert stage.returncode == 3
    assert err == ("numeric error: input channel 3 overflows its standardization"
                   " (mean 3.67579e+299, std inf)\n")
    assert _snapshot(out) == before


# the second event's six scans are lines 8-13; a fault in its timestamps
# is named at line 8
@pytest.mark.parametrize("index, stamp, message", [
    (12, lambda lines: str(2 ** 63 - 1), "volumes must fall in"),
    (8, lambda lines: str(int(lines[9].split(",")[1]) + 1), "volume timestamps must strictly increase"),
], ids=("beyond-the-window", "above-the-next-scan"))
def test_volume_timestamp_faults_name_the_events_first_line(pipeline, tmp_path, capsys, index, stamp,
                                                            message):
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().split("\n")
    event = lines[7].split(",")[0]
    assert {line.split(",")[0] for line in lines[7:13]} == {event} != {lines[13].split(",")[0]}
    fields = lines[index].split(",")
    fields[1] = stamp(lines)
    lines[index] = ",".join(fields)
    (tmp_path / "volumes.csv").write_text("\n".join(lines))
    before = _snapshot(tmp_path)
    assert cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{tmp_path / 'volumes.csv'}:8: event {event} {message}")
    assert _snapshot(tmp_path) == before


_FIVE_SCANS = "data.samples_per_class = 4\ndata.steps = 5\ndata.grid = 4x4x2\ndata.cell = 2x2x1\n"


def _five_scan_volumes(tmp_path, capsys):
    """Generate 12 events of 5 scans, lines 2-61 of volumes.csv; (config,
    volumes.csv, its lines)."""
    config = tmp_path / "run.cfg"
    config.write_text(_FIVE_SCANS)
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    volumes = tmp_path / "volumes.csv"
    lines = volumes.read_text().split("\n")
    assert len(lines) == 62 and lines[61] == ""
    return config, volumes, lines


def test_an_event_with_fewer_scans_is_named_at_its_first_line(tmp_path, capsys):
    # cut after line 60, the last event keeps 4 scans, from line 57
    config, volumes, lines = _five_scan_volumes(tmp_path, capsys)
    event = lines[56].split(",")[0]
    assert {line.split(",")[0] for line in lines[56:61]} == {event} != {lines[55].split(",")[0]}
    volumes.write_text("\n".join(lines[:60]) + "\n")
    before = _snapshot(tmp_path)
    assert cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{volumes}:57: sample {event} has shape (4, 16)")
    assert _snapshot(tmp_path) == before


def test_a_first_event_with_fewer_scans_is_named_at_line_2(tmp_path, capsys):
    # deleting line 3 leaves the first event 4 scans: the short event is
    # named, not the intact one after it
    config, volumes, lines = _five_scan_volumes(tmp_path, capsys)
    first, second = lines[1].split(",")[0], lines[6].split(",")[0]
    assert {line.split(",")[0] for line in lines[1:6]} == {first} != {second}
    volumes.write_text("\n".join(lines[:2] + lines[3:]))
    before = _snapshot(tmp_path)
    assert cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{volumes}:2: sample {first} has shape (4, 16), sample {second} has (5, 16)")
    assert _snapshot(tmp_path) == before


def test_no_events_is_data_error(tmp_path, capsys):
    (tmp_path / "events.csv").write_text("event_id,label,latitude,longitude,timestamp\n")
    (tmp_path / "volumes.csv").write_text("event_id,timestamp,nx,ny,nz,missing,v_1\n")
    assert cli.main(["featurize", "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, "data must be (samples, steps, channels), got (0,)")


def test_overflowing_smoothing_noise_is_usage_error(pipeline, tmp_path, capsys, recwarn):
    # q = r = 1e308 makes the first gain inf/inf
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    noisy = tmp_path / "noisy.cfg"
    noisy.write_text(config.read_text() + "kalman.q = 1e308\nkalman.r = 1e308\n")
    assert _featurize_refused(noisy, tmp_path, recwarn) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "kalman.q=1e+308, kalman.r=1e+308" in err


def test_repeated_baseline_is_scored_once(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "train.csv", "val.csv", "test.csv", "model.ckpt")
    capsys.readouterr()
    code = cli.main(["evaluate", "--baselines", "knn,knn",
                     "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["Kalman-Conv", "KNN"]


def test_absent_class_is_data_error(pipeline, tmp_path, capsys):
    # drop every label-2 event and its volumes: a data problem, not misuse
    config, out = pipeline
    events = (out / "events.csv").read_text().splitlines()
    wind = {line.split(",")[0] for line in events[1:] if line.split(",")[1] == "2"}
    volumes = (out / "volumes.csv").read_text().splitlines()
    for name, lines in (("events.csv", events), ("volumes.csv", volumes)):
        kept = [line for line in lines if line.split(",")[0] not in wind]
        (tmp_path / name).write_text("\n".join(kept) + "\n")
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    _one_data_error(capsys, "no samples of classes [2]")
    assert not (tmp_path / "train.csv").exists()


def test_volumes_for_unknown_events_are_data_error(pipeline, tmp_path, capsys):
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().splitlines()
    ghost = "ghost," + lines[1].split(",", 1)[1]
    (tmp_path / "volumes.csv").write_text("\n".join(lines + [ghost]) + "\n")
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    _one_data_error(capsys, "volumes for events not in events.csv ['ghost'] (of 1)")
    assert not (tmp_path / "train.csv").exists()


def test_volumes_with_disagreeing_grid_dims_are_data_error(pipeline, tmp_path, capsys):
    # 2x8x2 has the 32 cells of the run's 4x4x2 grid, so only the dims differ
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    lines = (tmp_path / "volumes.csv").read_text().split("\n")
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:2] + ["2", "8", "2"] + fields[5:])
    (tmp_path / "volumes.csv").write_text("\n".join(lines))
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    _one_data_error(capsys, f"{tmp_path / 'volumes.csv'}:3: grid dims (2, 8, 2)"
                    " differ from the first row's (4, 4, 2)")
    assert not (tmp_path / "train.csv").exists()


def test_repeated_header_column_is_data_error(pipeline, tmp_path, capsys):
    # a second `temperature` column would silently take humidity's values
    config, out = pipeline
    _copy(out, tmp_path, "events.csv", "volumes.csv")
    text = (tmp_path / "events.csv").read_text()
    (tmp_path / "events.csv").write_text(text.replace(",humidity,", ",temperature,", 1))
    code = cli.main(["featurize", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    _one_data_error(capsys, f"{tmp_path / 'events.csv'}: header repeats column 'temperature'")
    assert not (tmp_path / "train.csv").exists()


def test_refused_input_changes_no_file(pipeline, tmp_path, capsys):
    # samples one step short of the checkpoint's: refused before any write
    config, out = pipeline
    _copy(out, tmp_path, "model.ckpt", "predictions.csv", "run_config.txt",
          "metrics_model.csv", "metrics_model.txt")
    lines = (out / "test.csv").read_text().splitlines()
    short = [line for line in lines if line.split(",")[1] != "5"]
    (tmp_path / "test.csv").write_text("\n".join(short) + "\n")
    before = _snapshot(tmp_path)
    run = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["predict", "--input", str(tmp_path / "test.csv")] + run) == 2
    assert _snapshot(tmp_path) == before
    _one_data_error(capsys, f"{tmp_path / 'test.csv'} has shape (5, 16), the model expects (6, 16)")
    assert cli.main(["evaluate"] + run) == 2
    assert _snapshot(tmp_path) == before
    _one_data_error(capsys, f"{tmp_path / 'test.csv'} has shape (5, 16)")
    # an empty input file is still legal
    (tmp_path / "test.csv").write_text(lines[0] + "\n")
    assert cli.main(["predict"] + run) == 0
    assert (tmp_path / "predictions.csv").read_text() == (
        "sample_id,label,p_tornado,p_hail,p_wind,predicted\n")


def test_out_naming_a_file_is_one_line_error(pipeline, tmp_path, capsys):
    config, _ = pipeline
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory\n")
    assert cli.main(["generate", "--config", str(config), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert "File exists" in err and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_artifacts_are_utf8_under_an_ascii_locale(pipeline, tmp_path):
    # a non-ASCII sample id reads as UTF-8 and must be written back as UTF-8
    _, out = pipeline
    lines = (out / "test.csv").read_text().splitlines()
    first = lines[1].split(",")[0]
    renamed = [("é" + line) if line.startswith(first + ",") else line for line in lines]
    (tmp_path / "test.csv").write_text("\n".join(renamed) + "\n", encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "stormstack", "predict", "--checkpoint", str(out / "model.ckpt"),
         "--input", str(tmp_path / "test.csv"), "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "run" / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("é" + first + ",")


def test_repeated_config_key_is_data_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\ndata.sigma = 2.5\n  seed=9  # later\n")
    with pytest.raises(ParseError, match=f"{config}:3: repeated config key 'seed'"):
        parse_config_file(str(config))
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{config}:3: repeated config key 'seed' (first on line 1)")
    assert not (tmp_path / "events.csv").exists()


def test_heads_must_divide_the_recurrent_width(pipeline, tmp_path, capsys):
    # hidden 8 -> bidirectional width 16; no model.head_dim tiles it with 3 heads
    _, out = pipeline
    _copy(out, tmp_path, "train.csv", "val.csv")
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG.replace("model.heads = 4", "model.heads = 3"))
    run = ["train", "--config", str(config), "--out", str(tmp_path)]
    assert cli.main(run) == 1
    err = capsys.readouterr().err
    assert err == ("usage error: model.heads=3 must divide the recurrent width 16"
                   " (model.hidden=8, model.recurrent=bilstm)\n")
    # zero heads is refused like any other nonpositive count, without a traceback
    config.write_text(TINY_CONFIG.replace("model.heads = 4", "model.heads = 0"))
    assert cli.main(run) == 2
    _one_data_error(capsys, "attention_heads and attention_dim must be positive")
    assert not (tmp_path / "model.ckpt").exists()


def test_sub_configs_take_run_config_fields_by_name():
    # every field differs from its default, so each one that arrives shows
    run = RunConfig(
        seed=7, out_dir="elsewhere", threshold=40.0, fractions=(0.6, 0.2, 0.2),
        samples_per_class=20, steps=9, grid=(6, 6, 3), cell=(2, 2, 1),
        base_dbz=(21.0, 19.0, 15.0), peak_dbz=(56.0, 49.0, 36.0), rho=0.8, sigma=4.0,
        kalman_q=0.02, kalman_r=2.0, conv_layers=((8, 2),), lstm_hidden=6,
        attention_heads=3, attention_dim=2, conv_padding="same", recurrent="lstm",
        attention=False, knn_k=3, learning_rate=0.01, batch_size=16, max_epochs=50,
        patience=5, beta1=0.8, beta2=0.99, epsilon=1e-7,
    )
    default = RunConfig()
    assert [f.name for f in fields(RunConfig) if getattr(run, f.name) == getattr(default, f.name)] == []
    run_fields = {f.name for f in fields(RunConfig)}
    expected = {
        "synthetic": {"samples_per_class", "steps", "grid", "cell", "base_dbz", "peak_dbz",
                      "rho", "sigma", "seed"},
        "train": {"learning_rate", "batch_size", "max_epochs", "patience", "beta1", "beta2",
                  "epsilon", "seed"},
        "model": {"conv_layers", "lstm_hidden", "attention_heads", "attention_dim",
                  "conv_padding", "recurrent", "attention", "seed"},
    }
    subs = {"synthetic": run.synthetic_config(), "train": run.train_config(),
            "model": run.model_config(steps=10, input_channels=5)}
    for name, sub in subs.items():
        shared = {f.name for f in fields(sub)} & run_fields
        # the model's steps come from the data, not from data.steps
        overridden = {"steps"} if name == "model" else set()
        assert shared - overridden == expected[name], name
        arrived = {f for f in shared if getattr(sub, f) == getattr(run, f)}
        assert arrived == expected[name], name
    assert (subs["model"].steps, subs["model"].input_channels) == (10, 5)


def test_resolve_layers_defaults_file_then_flags(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 9\ndata.sigma = 2.5  # inline comment\n\n")
    cfg = resolve(str(config), None, None)
    assert cfg.seed == 9
    assert cfg.sigma == 2.5
    assert cfg.out_dir == "runs"
    cfg = resolve(str(config), 11, "elsewhere")
    assert cfg.seed == 11
    assert cfg.out_dir == "elsewhere"


def test_parse_config_file_reads_every_key_shape(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "data.grid = 6x6x3\n"
        "model.conv = 8x3,4x2\n"
        "data.fractions = 0.6,0.2,0.2\n"
        "model.attention = false\n"
    )
    values = parse_config_file(str(config))
    assert values == {
        "grid": (6, 6, 3),
        "conv_layers": ((8, 3), (4, 2)),
        "fractions": (0.6, 0.2, 0.2),
        "attention": False,
    }


def test_parse_config_file_rejects_bare_words(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("verbose\n")
    with pytest.raises(ParseError):
        parse_config_file(str(config))


def test_parse_config_file_missing_path():
    with pytest.raises(UsageError):
        parse_config_file("/nonexistent/run.cfg")


def test_resolved_lines_round_trip(tmp_path):
    cfg = resolve(None, 13, "someplace")
    lines = resolved_lines(cfg)
    assert "seed=13" in lines
    assert "data.out_dir=someplace" in lines
    assert "data.grid=8x8x4" in lines
    assert "model.conv=32x3,32x3" in lines
    echo = tmp_path / "echo.cfg"
    echo.write_text("\n".join(lines) + "\n")
    assert RunConfig(**parse_config_file(str(echo))) == cfg


def test_readme_config_table_holds_the_defaults(tmp_path):
    # the table is the README's copy of every default: parsed as a config
    # file it must give RunConfig() and name every key run_config.txt holds
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration reference\n", 1)[1].split("\n## ", 1)[0]
    items = []
    for keys, defaults in re.findall(r"^\| (`.+?`) \| (`.+?`) \|", section, re.M):
        keys, defaults = keys.split(" / "), defaults.split(" / ")
        assert len(keys) == len(defaults), keys
        items += [f"{key.strip('`')} = {value.strip('`')}" for key, value in zip(keys, defaults)]
    table = tmp_path / "table.cfg"
    table.write_text("\n".join(items) + "\n")
    assert RunConfig(**parse_config_file(str(table))) == RunConfig()
    written = [line.split("=", 1)[0] for line in resolved_lines(RunConfig())]
    assert sorted(item.split(" = ", 1)[0] for item in items) == sorted(written)


# ---------------------------------------------------------------------------
# the number grammar in config files, --seed and checkpoints

def _same_number(rewritten, text):
    parse = float if "." in text else int
    assert parse(rewritten) == parse(text), (rewritten, text)


@pytest.mark.parametrize("form", NUMBER_FORMS)
@pytest.mark.parametrize("key, before, number, after", [
    ("seed", "", "5", ""),
    ("data.rho", "", "0.85", ""),
    ("data.fractions", "0.5, ", "0.25", ", 0.25"),
    ("data.grid", "4 x ", "4", " x 2"),
    ("model.conv", "6 x ", "3", ""),
])
def test_config_numbers_take_one_grammar(tmp_path, capsys, form, key, before, number, after):
    config = tmp_path / "run.cfg"
    config.write_text(f"data.sigma = 2.5\n{key} = {before}{number}{after}\n")
    parse_config_file(str(config))  # layout blanks around each part are fine
    rewritten = NUMBER_FORMS[form](number)
    _same_number(rewritten, number)
    config.write_text(f"data.sigma = 2.5\n{key} = {before}{rewritten}{after}\n", encoding="utf-8")
    assert cli.main(["report", "--config", str(config), "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{config}:2: bad value for {key}: ")


@pytest.mark.parametrize("form", NUMBER_FORMS)
def test_seed_flag_takes_the_integer_grammar(tmp_path, capsys, form):
    assert cli.main(["report", "--seed", "+12", "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, "no metrics_*.csv files found")
    seed = NUMBER_FORMS[form]("12")
    _same_number(seed, "12")
    assert cli.main(["report", "--seed", seed, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"usage error: argument --seed: invalid integer value: {seed!r}\n"


# (line prefix, message) of each checkpoint site; the number is the first
# one after the prefix, and the value line is the one after "@out_b 3"
_CHECKPOINT_SITES = {
    "header integer": ("lstm_hidden=", "bad value for lstm_hidden: "),
    "header float": ("input_shift=", "bad value for input_shift: "),
    "dims": ("@out_b ", "bad dimensions in "),
    "value": ("", "could not convert string to float in "),
}


@pytest.mark.parametrize("form", NUMBER_FORMS)
@pytest.mark.parametrize("site", _CHECKPOINT_SITES)
def test_checkpoint_numbers_take_one_grammar(pipeline, tmp_path, capsys, form, site):
    _, out = pipeline
    prefix, message = _CHECKPOINT_SITES[site]
    lines = (out / "model.ckpt").read_text().split("\n")
    index = lines.index("@out_b 3") + 1 if site == "value" else next(
        i for i, line in enumerate(lines) if line.startswith(prefix))
    number = re.match(r"[^ ,]+", lines[index][len(prefix):])[0]
    rewritten = NUMBER_FORMS[form](number)
    _same_number(rewritten, number)
    lines[index] = prefix + rewritten + lines[index][len(prefix) + len(number):]
    bad = tmp_path / "model.ckpt"
    bad.write_text("\n".join(lines), encoding="utf-8")
    assert cli.main(["predict", "--checkpoint", str(bad), "--input", str(out / "test.csv"),
                     "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{bad}:{index + 1}: {message}")
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("separator", SEPARATORS, ids=[f"{ord(c):x}" for c in SEPARATORS])
def test_checkpoint_values_refuse_ascii_separators(pipeline, tmp_path, capsys, separator):
    # str.split() would strip the separator, and float() read the rest
    _, out = pipeline
    lines = (out / "model.ckpt").read_text().split("\n")
    index = lines.index("@out_b 3") + 1
    lines[index] = separator + lines[index]
    bad = tmp_path / "model.ckpt"
    bad.write_text("\n".join(lines))
    assert cli.main(["predict", "--checkpoint", str(bad), "--input", str(out / "test.csv"),
                     "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, f"{bad}:{index + 1}: could not convert string to float in ")


def test_pipeline_checkpoint_reads_back_to_the_same_bytes(pipeline, tmp_path):
    _, out = pipeline
    params, config = dataio.load_checkpoint(out / "model.ckpt")
    dataio.save_checkpoint(params, config, tmp_path / "model.ckpt")
    assert (tmp_path / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()


# ---------------------------------------------------------------------------
# stages run in their own process, and in a new session, so a signal sent
# to the stage's process group reaches nothing else

def _stage(args, **kwargs):
    env = dict(os.environ, **kwargs.pop("env", {}))
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True, **kwargs)


def test_bench_tracer_finds_every_traced_name(tmp_path):
    # bench/tracer.py wraps each traced name before the stage runs, so a
    # renamed one fails here, as an AttributeError, rather than in a
    # traced bench run; report on an empty directory is then a data error
    spans, run = tmp_path / "spans.json", tmp_path / "run"
    run.mkdir()
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    stage = _stage([str(tracer), str(spans), "report", "--out", str(run)])
    _, err = stage.communicate(timeout=300)
    assert (stage.returncode, err) == (2, f"data error: no metrics_*.csv files found in {run}; run evaluate first\n")
    assert json.loads(spans.read_text())["exit"] == 2


def test_bench_structural_gates_hold_in_process(monkeypatch):
    # the traced bench's gates, with counters set where bench/tracer.py sets
    # them: one extract_shsr_stats call per scan in build_sample, 357 tape
    # entries per standardized default-architecture batch-32 training step,
    # and 2 x conv steps lstm_cell calls per forward_batch call
    counts = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(features, "extract_shsr_stats")
    data = SyntheticConfig(samples_per_class=11)
    events, scans = generate_synthetic(data)
    samples = SequenceSet([e.event_id for e in events], [e.label for e in events],
                          [features.build_sample(e, s) for e, s in zip(events, scans)])
    assert counts["extract_shsr_stats"] == len(events) * data.steps
    config = standardize_inputs(RunConfig().model_config(data.steps, samples.data.shape[2]), samples)
    count(model, "lstm_cell")
    count(model, "forward_batch")
    with Graph() as graph:
        nll_loss(model.forward_batch(Tensor(samples.data[:32]), init_params(config), config),
                 samples.labels[:32])
    assert len(graph.ops) == 357
    model.forward(samples.data, init_params(config), config)
    assert counts["forward_batch"] == 4  # the taped step, then 33 samples in chunks of 16
    assert counts.get("lstm_cell", 0) == 2 * config.conv_steps() * counts["forward_batch"]


def _signal_stage(signum, args, ready):
    """Start a stage process with args and send signum to its process
    group once ready() holds; (exit status, stderr).  No process of the
    group is left."""
    stage = _stage(args)
    try:
        deadline = time.monotonic() + 120
        while not ready():
            assert stage.poll() is None, "the stage ended before it was ready"
            assert time.monotonic() < deadline, "the stage was never ready"
            time.sleep(0.002)
        os.killpg(stage.pid, signum)
        _, err = stage.communicate(timeout=60)
    finally:
        if stage.poll() is None:
            os.killpg(stage.pid, signal.SIGKILL)
            stage.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(stage.pid, 0)
    return stage.returncode, err


def _signal_generate(tmp_path, signum):
    """Send signum to the process group of a generate on the bench config
    (300 events) while it writes volumes.csv; (exit status, stderr)."""
    config = tmp_path / "run.cfg"
    config.write_text("data.samples_per_class = 100\ndata.fractions = 0.6,0.2,0.2\n")
    run = tmp_path / "run"
    result = _signal_stage(signum, ["-m", "stormstack", "generate", "--config", str(config), "--out", str(run)],
                           lambda: list(run.glob("volumes.csv.*.tmp")))
    # its workers and its temp file are gone
    assert list(run.glob("*.tmp")) == [] and not (run / "volumes.csv").exists()
    return result


def test_ctrl_c_is_one_line_and_exit_130(tmp_path):
    assert _signal_generate(tmp_path, signal.SIGINT) == (130, "interrupted\n")


def test_sigterm_is_one_line_and_exit_143(tmp_path):
    assert _signal_generate(tmp_path, signal.SIGTERM) == (143, "terminated\n")


def test_main_restores_the_sigterm_handler(tmp_path, capsys):
    before = signal.getsignal(signal.SIGTERM)
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    _one_data_error(capsys, "no metrics_*.csv files found")
    assert signal.getsignal(signal.SIGTERM) is before


def _out_of_memory(*args):
    # far beyond any address space, so NumPy refuses at once
    return np.empty((10 ** 6, 10 ** 6, 10 ** 3))


def _one_out_of_memory_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1, err


def test_out_of_memory_is_one_line_and_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_synthetic", _out_of_memory)
    assert cli.main(["generate", "--out", str(tmp_path / "run")]) == 1
    _one_out_of_memory_line(capsys)
    assert not (tmp_path / "run").exists()


def test_out_of_memory_in_a_volume_worker_is_one_line_and_exit_1(tmp_path, capsys, monkeypatch):
    # the forked workers inherit the patch and send the error back
    config = tmp_path / "run.cfg"
    config.write_text(_FIVE_SCANS)
    monkeypatch.setattr(dataio, "_volume_rows", _out_of_memory)
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    _one_out_of_memory_line(capsys)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["events.csv", "run_config.txt"]


# volumes.csv parses in three parts, events.csv in one; each part worker
# leaves a mark once it starts on its floats, then waits to be stopped
_FEATURIZE_IN_PARTS = """\
import os, sys, time
import numpy as np
from stormstack import cli, dataio
run = sys.argv[1]
dataio.PART_FLOOR = os.path.getsize(os.path.join(run, "events.csv")) + 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
parent, loadtxt = os.getpid(), np.loadtxt

def waiting(*args, **kwargs):
    if os.getpid() != parent:
        open(os.path.join(run, f"parsing.{os.getpid()}"), "w").close()
        time.sleep(60)
    return loadtxt(*args, **kwargs)

np.loadtxt = waiting
sys.exit(cli.main(["featurize", "--out", run]))
"""


def _five_scan_run(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(_FIVE_SCANS)
    run = tmp_path / "run"
    assert cli.main(["generate", "--config", str(config), "--out", str(run)]) == 0
    return run


@pytest.mark.parametrize("signum, code, line", [(signal.SIGINT, 130, "interrupted\n"),
                                                 (signal.SIGTERM, 143, "terminated\n")],
                         ids=["sigint", "sigterm"])
def test_a_stop_while_volumes_parse_in_parts_is_one_line(tmp_path, capsys, signum, code, line):
    run = _five_scan_run(tmp_path)
    capsys.readouterr()
    before = sorted(p.name for p in run.iterdir())
    result = _signal_stage(signum, ["-c", _FEATURIZE_IN_PARTS, str(run)],
                           lambda: len(list(run.glob("parsing.*"))) == 2)
    assert result == (code, line)
    assert sorted(p.name for p in run.iterdir() if not p.name.startswith("parsing.")) == before


def _in_three_parts(run, monkeypatch):
    # volumes.csv parses in three parts, events.csv in one
    monkeypatch.setattr(dataio, "PART_FLOOR", (run / "events.csv").stat().st_size + 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def _no_child_left():
    # every process this one forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fault, line", [(_out_of_memory, "error: out of memory: Unable to allocate"),
                                         (_killed, "error: a worker process ended early (exit code -9)\n")],
                         ids=["out_of_memory", "killed"])
def test_a_fault_in_a_part_worker_is_one_line_and_exit_1(tmp_path, capsys, monkeypatch, fault, line):
    run = _five_scan_run(tmp_path)
    capsys.readouterr()
    _in_three_parts(run, monkeypatch)
    parent, loadtxt = os.getpid(), np.loadtxt

    def faulty(*args, **kwargs):
        if os.getpid() != parent:  # in a part worker
            fault()
        return loadtxt(*args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", faulty)
    assert cli.main(["featurize", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1, err
    _no_child_left()
    assert sorted(p.name for p in run.iterdir()) == ["events.csv", "run_config.txt", "volumes.csv"]


def _worker_stage(tmp_path, monkeypatch, stage):
    """A stage that forks workers, on the five-scan config: generate, or
    featurize with volumes.csv in three parts; (its arguments, its out
    dir, what the out dir holds once the stage fails)."""
    if stage == "generate":
        config = tmp_path / "run.cfg"
        config.write_text(_FIVE_SCANS)
        run = tmp_path / "run"
        return ["generate", "--config", str(config), "--out", str(run)], run, ["events.csv", "run_config.txt"]
    run = _five_scan_run(tmp_path)
    _in_three_parts(run, monkeypatch)
    return ["featurize", "--out", str(run)], run, ["events.csv", "run_config.txt", "volumes.csv"]


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
@pytest.mark.parametrize("stage", ["generate", "featurize"])
def test_a_worker_that_cannot_start_is_one_line_and_exit_1(tmp_path, capsys, monkeypatch, stage, call, code):
    # at a pids limit os.fork raises BlockingIOError: not a fault in writing
    # output, and featurize writes none before it forks
    args, run, left = _worker_stage(tmp_path, monkeypatch, stage)
    capsys.readouterr()

    def failing():
        raise OSError(code, os.strerror(code))
    monkeypatch.setattr(os, call, failing)
    fds = len(os.listdir("/proc/self/fd"))
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: cannot start a worker process: [Errno {code}] {os.strerror(code)}\n"
    assert len(os.listdir("/proc/self/fd")) == fds  # both ends of the pipe are closed
    _no_child_left()
    assert sorted(p.name for p in run.iterdir()) == left


def _cut_short(item, out, protocol):
    # send the first half of the item's pickle, then die as the kernel kills a process
    data = pickle.dumps(item, protocol)
    out.write(data[:len(data) // 2])
    out.flush()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("stage", ["generate", "featurize"])
def test_a_worker_killed_mid_item_is_one_line_and_exit_1(tmp_path, capsys, monkeypatch, stage):
    # the read of a cut-off pickle raises UnpicklingError, not EOFError
    args, run, left = _worker_stage(tmp_path, monkeypatch, stage)
    capsys.readouterr()
    monkeypatch.setattr(pickle, "dump", _cut_short)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: a worker process ended early (exit code -9)\n"
    _no_child_left()
    assert sorted(p.name for p in run.iterdir()) == left


@pytest.mark.parametrize("stop, code, line", [(KeyboardInterrupt, 130, "interrupted\n"),
                                               (cli._Terminated, 143, "terminated\n")],
                         ids=["sigint", "sigterm"])
def test_a_stop_while_the_checkpoint_is_written_keeps_the_previous_one(
        pipeline, tmp_path, capsys, monkeypatch, stop, code, line):
    config, out = pipeline
    _copy(out, tmp_path, "train.csv", "val.csv")
    (tmp_path / "model.ckpt").write_text("previous checkpoint\n")
    (tmp_path / "train_log.csv").write_text("previous log\n")
    reprs, calls = dataio._reprs, []

    def stopping_reprs(*args):
        # the first calls format the first parameter rows of model.ckpt
        calls.append(list(tmp_path.glob("model.ckpt.*.tmp")))
        if len(calls) == 3:
            raise stop
        return reprs(*args)

    monkeypatch.setattr(dataio, "_reprs", stopping_reprs)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == line
    assert len(calls) == 3 and all(calls)  # each call came while the temp file was open
    assert (tmp_path / "model.ckpt").read_text() == "previous checkpoint\n"
    assert (tmp_path / "train_log.csv").read_text() == "previous log\n"
    assert list(tmp_path.glob("*.tmp")) == []


# the bench model (conv 32x3,32x3, hidden 64, 4 heads, batch 32) on 72 events
_PINNED_CONFIG = """\
seed = 7
data.samples_per_class = 24
data.fractions = 0.6,0.2,0.2
train.max_epochs = 2
train.patience = 2
"""
_TRAIN_AND_PREDICT = """\
import sys
from stormstack import cli
args = ["--config", sys.argv[1], "--out", sys.argv[2]]
sys.exit(cli.main(["train", *args]) or cli.main(["predict", *args]))
"""


def test_blas_threads_and_hash_seed_change_no_byte(tmp_path):
    """Training and scoring give the same bytes at 1 and 2 BLAS threads
    and under any hash seed.  At these shapes OpenBLAS does run some
    training products on its second thread (its worker thread gathers
    CPU time during `train`, though not during `predict`), so the pin
    guards real threaded work, and any later shape change."""
    config = tmp_path / "run.cfg"
    config.write_text(_PINNED_CONFIG)
    for stage in ("generate", "featurize"):
        assert cli.main([stage, "--config", str(config), "--out", str(tmp_path / "data")]) == 0
    artifacts = {}
    for threads, hash_seed in ((1, 0), (2, 1), (2, 0), (1, 1)):
        out = tmp_path / f"threads{threads}-hash{hash_seed}"
        _copy(tmp_path / "data", out, "train.csv", "val.csv", "test.csv")
        env = {"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
               "PYTHONHASHSEED": str(hash_seed)}
        stage = _stage(["-c", _TRAIN_AND_PREDICT, str(config), str(out)], env=env)
        _, err = stage.communicate(timeout=300)
        assert (stage.returncode, err) == (0, ""), out.name
        artifacts[out.name] = [(out / name).read_bytes()
                               for name in ("model.ckpt", "train_log.csv", "predictions.csv")]
    first = next(iter(artifacts.values()))
    assert [name for name, found in artifacts.items() if found != first] == []
