"""Round trips and failure modes for the text file formats."""

import csv
import io
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stormstack import dataio
from stormstack.config import RunConfig, integer, model_config_lines, real
from stormstack.dataio import (
    CHECKPOINT_HEADER,
    load_checkpoint,
    load_events,
    load_sequences,
    load_volumes,
    read_report_csv,
    save_checkpoint,
    write_events,
    write_lines,
    write_predictions,
    write_report_csv,
    write_sequences,
    write_volumes,
)
from stormstack.errors import (
    DataError,
    DimensionError,
    ParseError,
    UsageError,
    ValidationError,
)
from stormstack.features import AUX_CHANNELS, EventRecord, ScanBlock, SequenceSet
from stormstack.metrics import MetricsReport
from stormstack.model import ModelConfig, expected_param_shapes, forward, init_params
from stormstack.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent
TINY = ModelConfig(steps=4, input_channels=2, conv_layers=((3, 2),),
                   lstm_hidden=2, attention_heads=1, attention_dim=4, seed=3)


def test_sequences_empty_round_trip(tmp_path):
    path = tmp_path / "seq.csv"
    write_sequences(path, SequenceSet((), (), np.empty((0, 0, 0))))
    assert path.read_text() == "sample_id,t,label\n"
    assert len(load_sequences(path)) == 0


def test_sequences_single_sample(tmp_path):
    path = tmp_path / "seq.csv"
    write_sequences(path, SequenceSet(["s0"], [2], [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]]))
    text = path.read_text()
    assert text.splitlines()[0] == "sample_id,t,label,f_1,f_2,f_3"
    got = load_sequences(path)
    assert len(got) == 1
    assert got.ids == ("s0",)
    assert got.labels[0] == 2
    assert np.array_equal(got.data[0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_sequences_round_trip_is_exact(tmp_path):
    # repr() prints enough digits to reconstruct any double bit for bit
    rng = np.random.default_rng(91)
    values = rng.standard_normal((10, 25, 4))
    values *= 10.0 ** rng.integers(-30, 31, size=values.shape)
    samples = SequenceSet([f"s{i}" for i in range(10)], [i % 3 for i in range(10)], values)
    path = tmp_path / "seq.csv"
    write_sequences(path, samples)
    got = load_sequences(path)
    assert got.ids == samples.ids
    assert np.array_equal(got.labels, samples.labels)
    assert np.array_equal(got.data, samples.data)


def test_sequences_missing_file(tmp_path):
    with pytest.raises(DataError) as err:
        load_sequences(tmp_path / "absent.csv")
    assert "absent.csv" in str(err.value)


def test_sequences_malformed(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("who,what\n")
    with pytest.raises(ParseError):
        load_sequences(path)
    path.write_text("sample_id,t,label,f_1,f_9\n")
    with pytest.raises(ParseError):
        load_sequences(path)
    path.write_text("sample_id,t,label,f_1\na,0,1\n")
    with pytest.raises(ParseError) as err:
        load_sequences(path)
    assert ":2" in str(err.value)
    path.write_text("sample_id,t,label,f_1\na,0,1,notanumber\n")
    with pytest.raises(ParseError):
        load_sequences(path)


def test_sequences_reject_non_finite(tmp_path):
    path = tmp_path / "seq.csv"
    head = "sample_id,t,label,f_1,f_2\n"
    path.write_text(head + "a,0,1,1.0,2.0\na,1,1,nan,2.0\nb,0,1,1.0,2.0\n")
    with pytest.raises(ParseError) as err:
        load_sequences(path)
    assert f"{path}:3: non-finite value nan" in str(err.value)
    path.write_text(head + "a,0,1,1.0,2.0\nb,0,1,1.0,-inf\n")
    with pytest.raises(ParseError) as err:
        load_sequences(path)
    assert f"{path}:3:" in str(err.value)
    # record-level checks name the sample's first line too
    path.write_text(head + "a,0,1,1.0,2.0\nb,0,7,1.0,2.0\nb,1,7,1.0,2.0\n")
    with pytest.raises(ValidationError) as err:
        load_sequences(path)
    assert f"{path}:3: label must be" in str(err.value)


def test_sequences_structural_checks(tmp_path):
    path = tmp_path / "seq.csv"
    # interleaved ids
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\nb,0,1,1.0\na,1,1,1.0\n")
    with pytest.raises(ValidationError) as err:
        load_sequences(path)
    assert "contiguous" in str(err.value)
    # broken step counter
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\na,2,1,1.0\n")
    with pytest.raises(ValidationError):
        load_sequences(path)
    # label flips mid-sample
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\na,1,2,1.0\n")
    with pytest.raises(ValidationError):
        load_sequences(path)


def test_sequences_width_mismatch():
    # a set cannot hold samples of different widths, so writers never see one
    with pytest.raises(DimensionError) as err:
        SequenceSet(["s0", "s1"], [0, 0], [[[1.0, 2.0]], [[1.0]]])
    assert "sample s1 has shape (1, 1), sample s0 has (1, 2)" in str(err.value)
    assert err.value.sample == 1


def test_sequences_ragged_file_is_a_dimension_error(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\na,1,1,1.0\nb,0,2,1.0\nb,1,2,1.0\n"
                    "c,0,0,1.0\n")
    with pytest.raises(DimensionError) as err:
        load_sequences(path)
    assert f"{path}:6: sample c has shape (1, 1), sample a has (2, 1)" in str(err.value)


def test_a_short_first_sample_is_the_one_named(tmp_path):
    # the most common shape is the reference, so the short sample is named
    path = tmp_path / "seq.csv"
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\nb,0,2,1.0\nb,1,2,1.0\n"
                    "c,0,0,1.0\nc,1,0,1.0\n")
    with pytest.raises(DimensionError) as err:
        load_sequences(path)
    assert f"{path}:2: sample a has shape (1, 1), sample b has (2, 1)" in str(err.value)
    with pytest.raises(DimensionError) as err:
        SequenceSet(["s0", "s1", "s2"], [0, 0, 0], [[[1.0]], [[1.0, 2.0]], [[1.0, 2.0]]])
    assert str(err.value) == "sample s0 has shape (1, 1), sample s1 has (1, 2)"
    assert err.value.sample == 0


def test_load_sequences_holds_one_table(tmp_path):
    # the bench's sample shape; the data is a view of the parsed table, with
    # no copy per row or per sample
    data = np.random.default_rng(25).standard_normal((300, 12, 16))
    path = tmp_path / "seq.csv"
    write_sequences(path, SequenceSet([f"s{i}" for i in range(300)], np.arange(300) % 3, data))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_sequences(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(loaded.data) == _bits(data) and not loaded.data.flags.owndata
    assert peak - start < 1.5 * data.nbytes, (peak - start, data.nbytes)


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    params = init_params(TINY)
    save_checkpoint(params, TINY, path)
    got_params, got_config = load_checkpoint(path)
    assert got_config == TINY
    assert set(got_params) == set(params)
    for name in params:
        assert np.array_equal(got_params[name].array, params[name].array)


def test_checkpoint_header_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    assert path.read_text().split("@", 1)[0] == (
        "#stormstack-checkpoint v1\n"
        "steps=4\n"
        "input_channels=2\n"
        "conv_layers=3x2\n"
        "lstm_hidden=2\n"
        "attention_heads=1\n"
        "attention_dim=4\n"
        "classes=3\n"
        "conv_padding=valid\n"
        "recurrent=bilstm\n"
        "attention=true\n"
        "input_shift=\n"
        "input_scale=\n"
        "seed=3\n"
    )
    cfg = ModelConfig(**{**TINY.__dict__, "conv_layers": ((3, 2), (5, 1)), "recurrent": "lstm",
                         "attention": False, "input_shift": (0.1, -1.0 / 3.0),
                         "input_scale": (2.0, 1e-05)})
    save_checkpoint(init_params(cfg), cfg, path)
    assert path.read_text().split("@", 1)[0] == (
        "#stormstack-checkpoint v1\n"
        "steps=4\n"
        "input_channels=2\n"
        "conv_layers=3x2,5x1\n"
        "lstm_hidden=2\n"
        "attention_heads=1\n"
        "attention_dim=4\n"
        "classes=3\n"
        "conv_padding=valid\n"
        "recurrent=lstm\n"
        "attention=false\n"
        "input_shift=0.1,-0.3333333333333333\n"
        "input_scale=2.0,1e-05\n"
        "seed=3\n"
    )
    assert load_checkpoint(path)[1] == cfg


def test_checkpoint_config_lines_read_as_config_file_lines(tmp_path):
    # one key=value reader: layout blanks and comments as in a config file
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    text = path.read_text()
    path.write_text(text.replace("steps=4\n", "steps = 4\n")
                    .replace("conv_layers=3x2\n", "\tconv_layers = 3 x 2  # one layer\n"))
    assert load_checkpoint(path)[1] == TINY
    path.write_text(text.replace("steps=4\n", "steps=4\nsteps = 5\n"))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}:3: repeated checkpoint config key 'steps' (first on line 2)"


def test_checkpoint_keeps_standardization(tmp_path):
    cfg = ModelConfig(**{**TINY.__dict__, "input_shift": (1.5, -0.25),
                         "input_scale": (2.0, 0.5)})
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(cfg), cfg, path)
    _, got = load_checkpoint(path)
    assert got.input_shift == (1.5, -0.25)
    assert got.input_scale == (2.0, 0.5)


def test_checkpoint_predictions_survive_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    params = init_params(TINY)
    save_checkpoint(params, TINY, path)
    loaded_params, loaded_config = load_checkpoint(path)
    x = np.random.default_rng(92).standard_normal((5, 4, 2)) * 3.0
    assert np.array_equal(forward(x, params, TINY), forward(x, loaded_params, loaded_config))


def test_checkpoint_rejects_bad_header(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text("#stormstack-checkpoint v2\n")
    with pytest.raises(ParseError):
        load_checkpoint(path)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "none.ckpt")


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    lines = path.read_text().rstrip("\n").split("\n")
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises((ParseError, ValidationError)) as err:
        load_checkpoint(clipped)
    assert "incomplete" in str(err.value) or "missing" in str(err.value)


def test_checkpoint_block_count_errors_name_the_block_line(tmp_path):
    # out_b holds 3 values on one line; one more or one fewer is a data error at its @ line
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    lines = path.read_text().split("\n")
    at = lines.index("@out_b 3")
    for edit, message in ((lambda row: row + " 0.5", "block for out_b is too long: got 4 of 3 values"),
                          (lambda row: row.rsplit(" ", 1)[0], "incomplete block for out_b: got 2 of 3 values")):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines[:at + 1] + [edit(lines[at + 1])] + lines[at + 2:]))
        with pytest.raises(ParseError) as err:
            load_checkpoint(bad)
        assert str(err.value) == f"{bad}:{at + 1}: {message}"


# out_w holds 4 rows of 3 values, then comes out_b; each edit of the lines
# from out_w's @ line on, and the message it gets, at its line from there
@pytest.mark.parametrize("edit, at, message", [
    (lambda rows: rows[:3], 0, "incomplete block for out_w: got 6 of 12 values"),
    (lambda rows: rows[:3] + rows[5:], 0, "incomplete block for out_w: got 6 of 12 values"),
    (lambda rows: rows[:4] + [rows[4] + " 0.5"] + rows[5:], 0,
     "block for out_w is too long: got 13 of 12 values"),
    (lambda rows: rows[:5] + ["0.5"] + rows[5:], 5, "expected a @parameter block, got '0.5'"),
], ids=["cut by the end", "cut by an @ line", "over-long last line", "stray line after a block"])
def test_checkpoint_blocks_end_where_the_streamed_lines_say(tmp_path, edit, at, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    lines = path.read_text().split("\n")
    start = lines.index("@out_w 4 3")
    path.write_text("\n".join(lines[:start] + edit(lines[start:])))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}:{start + at + 1}: {message}"


def test_load_checkpoint_holds_little_beyond_its_parameters(tmp_path):
    # it streams the file: only the block being read is held besides the parameters
    config = RunConfig().model_config(12, 16)
    params = init_params(config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, config, path)
    size = sum(p.array.nbytes for p in params.values())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(loaded[name].array, params[name].array) for name in params)
    assert peak - start < 1.5 * size, (peak - start, size)


def test_checkpoint_rejects_unknown_parameter(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    text = path.read_text().replace("@out_b", "@mystery")
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_checkpoint_rejects_duplicate_parameter(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    lines = path.read_text().rstrip("\n").split("\n")
    start = lines.index("@out_b 3")
    dup = lines + lines[start:start + 2]
    path.write_text("\n".join(dup) + "\n")
    with pytest.raises(ValidationError) as err:
        load_checkpoint(path)
    assert "duplicate" in str(err.value)


def test_checkpoint_rejects_missing_parameter(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    lines = path.read_text().rstrip("\n").split("\n")
    start = lines.index("@out_b 3")
    path.write_text("\n".join(lines[:start] + lines[start + 2:]) + "\n")
    with pytest.raises(ValidationError) as err:
        load_checkpoint(path)
    assert "out_b" in str(err.value)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    path.write_text(path.read_text().replace("@out_b 3", "@out_b 4"))
    with pytest.raises(DimensionError):
        load_checkpoint(path)


def test_checkpoint_rejects_config_tampering(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    text = path.read_text()
    path.write_text(text.replace("recurrent=bilstm", "recurrent=tcn"))
    with pytest.raises((ParseError, ValidationError)) as err:
        load_checkpoint(path)
    assert f"{path}: recurrent must be one of" in str(err.value)
    path.write_text(text.replace("seed=3\n", ""))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert "seed" in str(err.value)
    # a repeated key is refused at its second line, whichever value comes first
    lines = text.split("\n")
    second = lines.index("seed=3") + 2
    path.write_text(text.replace("seed=3\n", "seed=9\nseed=3\n"))
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert f"{path}:{second}: repeated checkpoint config key 'seed'" in str(err.value)


def test_checkpoint_rejects_non_finite(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY), TINY, path)
    lines = path.read_text().split("\n")
    row = lines.index("@out_b 3") + 1
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(lines[:row] + ["0.0 inf 0.0"] + lines[row + 1:]))
    with pytest.raises(ParseError) as err:
        load_checkpoint(bad)
    assert f"{bad}:{row + 1}: non-finite value inf" in str(err.value)
    shift = lines.index("input_shift=")
    lines[shift:shift + 2] = ["input_shift=nan,0.0", "input_scale=1.0,1.0"]
    bad.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_checkpoint(bad)
    assert f"{bad}:{shift + 1}: bad value for input_shift" in str(err.value)


def test_save_checkpoint_validates_params(tmp_path):
    path = tmp_path / "model.ckpt"
    params = init_params(TINY)
    extra = dict(params, rogue=Tensor([1.0]))
    with pytest.raises(UsageError):
        save_checkpoint(extra, TINY, path)
    misshapen = dict(params, out_b=Tensor([0.0, 0.0]))
    with pytest.raises(DimensionError):
        save_checkpoint(misshapen, TINY, path)
    short = dict(params)
    del short["out_b"]
    with pytest.raises(UsageError):
        save_checkpoint(short, TINY, path)


def _events(n=3):
    out = []
    for i in range(n):
        aux = {c: float(10 * i + j) for j, c in enumerate(AUX_CHANNELS)}
        out.append(EventRecord(event_id=f"ev{i}", label=i % 3, latitude=30.0 + i,
                               longitude=-100.0 + i, timestamp=1000 + 100 * i,
                               auxiliary=aux))
    return out


def test_events_round_trip(tmp_path):
    path = tmp_path / "events.csv"
    sent = _events()
    write_events(path, sent, AUX_CHANNELS)
    got, channels = load_events(path)
    assert channels == tuple(AUX_CHANNELS)
    assert got == sent


def test_events_round_trip_without_auxiliary_channels(tmp_path):
    path = tmp_path / "events.csv"
    sent = [replace(e, auxiliary={}) for e in _events()]
    write_events(path, sent, ())
    assert path.read_text() == ("event_id,label,latitude,longitude,timestamp\n"
                                "ev0,0,30.0,-100.0,1000\nev1,1,31.0,-99.0,1100\nev2,2,32.0,-98.0,1200\n")
    got, channels = load_events(path)
    assert channels == ()
    assert got == sent


def test_events_malformed(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("event_id,label\n")
    with pytest.raises(ParseError):
        load_events(path)
    header = "event_id,label,latitude,longitude,timestamp,temperature"
    path.write_text(header + "\nev0,0,35.0\n")
    with pytest.raises(ParseError):
        load_events(path)
    path.write_text(header + "\nev0,zero,35.0,-97.0,100,20.0\n")
    with pytest.raises(ParseError):
        load_events(path)


def test_events_reject_non_finite(tmp_path):
    path = tmp_path / "events.csv"
    header = "event_id,label,latitude,longitude,timestamp,temperature\n"
    path.write_text(header + "ev0,0,35.0,-97.0,100,20.0\nev1,0,35.0,-97.0,100,inf\n")
    with pytest.raises(ParseError) as err:
        load_events(path)
    assert f"{path}:3: non-finite value inf" in str(err.value)
    path.write_text(header + "ev0,0,nan,-97.0,100,20.0\n")
    with pytest.raises(ParseError) as err:
        load_events(path)
    assert f"{path}:2:" in str(err.value)
    path.write_text(header + "ev0,0,95.0,-97.0,100,20.0\n")
    with pytest.raises(ValidationError) as err:
        load_events(path)
    assert f"{path}:2: latitude out of range" in str(err.value)


def test_events_reject_repeated_id(tmp_path):
    path = tmp_path / "events.csv"
    write_events(path, _events(3), AUX_CHANNELS)
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:4] + lines[2:3] + lines[4:]))
    with pytest.raises(ValidationError) as err:
        load_events(path)
    assert f"{path}:5: repeated event_id 'ev1'" in str(err.value)


def _scans(timestamps, *grids):
    # one (2, 1, 2) grid per timestamp
    return ScanBlock(timestamps, [-999.0] * len(timestamps),
                     np.reshape(grids, (len(timestamps), 2, 1, 2)))


def test_volumes_round_trip(tmp_path):
    path = tmp_path / "volumes.csv"
    events = _events(2)
    scans = [_scans([950, 960], [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]),
             _scans([1050], [0.5, -999.0, 1.5, 2.5])]
    write_volumes(path, events, scans)
    assert path.read_text().splitlines()[:2] == [
        "event_id,timestamp,nx,ny,nz,missing,v_1,v_2,v_3,v_4",
        "ev0,950,2,1,2,-999.0,1.0,2.0,3.0,4.0",
    ]
    got, first_lines = load_volumes(path)
    assert list(got) == ["ev0", "ev1"]
    assert first_lines == {"ev0": 2, "ev1": 4}
    assert got["ev0"].timestamps.tolist() == [950, 960]
    for sent, loaded in zip(scans, got.values()):
        assert loaded.grids.shape == sent.grids.shape
        assert np.array_equal(loaded.grids, sent.grids)
        assert np.array_equal(loaded.missing, sent.missing)
    assert got["ev1"].grids[0, 0, 0, 1] == -999.0


def test_volumes_of_one_event_need_not_be_adjacent(tmp_path):
    path = tmp_path / "volumes.csv"
    path.write_text("event_id,timestamp,nx,ny,nz,missing,v_1,v_2\n"
                    "ev1,950,2,1,1,-999.0,1.0,2.0\n"
                    "ev0,940,2,1,1,-1.0,3.0,4.0\n"
                    "ev1,960,2,1,1,-2.0,5.0,6.0\n")
    got, first_lines = load_volumes(path)
    assert list(got) == ["ev1", "ev0"]
    assert first_lines == {"ev1": 2, "ev0": 3}
    assert got["ev1"].timestamps.tolist() == [950, 960]
    assert got["ev1"].missing.tolist() == [-999.0, -2.0]
    assert got["ev1"].grids.tolist() == [[[[1.0]], [[2.0]]], [[[5.0]], [[6.0]]]]
    assert got["ev0"].grids.shape == (1, 2, 1, 1)


def test_volumes_validation(tmp_path):
    path = tmp_path / "volumes.csv"
    with pytest.raises(UsageError):
        write_volumes(path, _events(2), [_scans([950], [1, 2, 3, 4])])
    ragged = [_scans([950], [1, 2, 3, 4]), ScanBlock([950], [-999.0], np.zeros((1, 1, 1, 4)))]
    with pytest.raises(DimensionError):
        write_volumes(path, _events(2), ragged)
    path.write_text("event_id,timestamp\n")
    with pytest.raises(ParseError):
        load_volumes(path)
    path.write_text("event_id,timestamp,nx,ny,nz,missing,v_1,v_2\n"
                    "ev0,950,3,1,1,-999.0,1.0,2.0\n")
    with pytest.raises(DimensionError):
        load_volumes(path)


def test_volumes_reject_non_finite(tmp_path):
    path = tmp_path / "volumes.csv"
    header = "event_id,timestamp,nx,ny,nz,missing,v_1,v_2\n"
    path.write_text(header + "ev0,950,2,1,1,-999.0,1.0,2.0\nev0,960,2,1,1,-999.0,1.0,NaN\n")
    with pytest.raises(ParseError) as err:
        load_volumes(path)
    assert f"{path}:3: non-finite value nan" in str(err.value)
    path.write_text(header + "ev0,950,2,1,1,-inf,1.0,2.0\n")
    with pytest.raises(ParseError) as err:
        load_volumes(path)
    assert f"{path}:2:" in str(err.value)
    path.write_text(header + "ev0,950,2,1,0,-999.0,1.0,2.0\n")
    with pytest.raises(ValidationError) as err:
        load_volumes(path)
    assert f"{path}:2: dims must be" in str(err.value)


def test_csv_readers_name_the_line_of_an_oversized_field(tmp_path):
    # the csv module refuses a field above its size limit; that is a
    # malformed file like any other, not a crash
    huge = "1" * 200_000
    cases = (
        (load_sequences, "sample_id,t,label,f_1\na,0,1,1.0\n", "a,1,1," + huge),
        (load_events, "event_id,label,latitude,longitude,timestamp\nev0,0,1.0,2.0,3\n",
         "ev1,0,1.0,2.0," + huge),
        (load_volumes, "event_id,timestamp,nx,ny,nz,missing,v_1\nev0,950,1,1,1,-999.0,1.0\n",
         "ev0,960,1,1,1,-999.0," + huge),
    )
    for reader, head, row in cases:
        path = tmp_path / "file.csv"
        path.write_text(head + row + "\n")
        with pytest.raises(ParseError) as err:
            reader(path)
        assert f"{path}:3: field larger than field limit" in str(err.value)


def test_long_lines_with_no_oversized_field_skip_the_csv_module(tmp_path, monkeypatch):
    # a volumes row of a 32x32x8 grid is longer than the csv module's
    # field size limit, but only a field that long needs the csv module
    grids = np.random.default_rng(29).standard_normal((3, 32, 32, 8))
    path = tmp_path / "volumes.csv"
    path.write_text("event_id,timestamp,nx,ny,nz,missing," + ",".join(f"v_{j + 1}" for j in range(8192)) + "\n"
                    + "".join(f"ev0,{950 + t},32,32,8,-999.0,{','.join(map(repr, grid.ravel().tolist()))}\n"
                              for t, grid in enumerate(grids)))
    assert min(map(len, path.read_text().splitlines()[1:])) > csv.field_size_limit()
    reader, calls = csv.reader, []
    monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
    scans, _ = load_volumes(path)
    assert len(calls) == 1  # the header's
    assert _bits(scans["ev0"].grids) == _bits(grids) and scans["ev0"].timestamps.tolist() == [950, 951, 952]


# the faulty record is the fourth, on physical line 5, after a quoted id holding \n
_AFTER_A_QUOTED_NEWLINE = {
    "sequences": (load_sequences, "sample_id,t,label,f_1\n",
                  ("a,0,1,1.0\n", '"b\nc",0,1,2.0\n', "d,0,1,{cell}\n")),
    "events": (load_events, "event_id,label,latitude,longitude,timestamp\n",
               ("ev0,0,1.0,2.0,3\n", '"a\nb",0,1.0,2.0,3\n', "ev1,0,{cell},2.0,3\n")),
    "volumes": (load_volumes, "event_id,timestamp,nx,ny,nz,missing,v_1\n",
                ("ev0,950,1,1,1,-999.0,1.0\n", '"a\nb",950,1,1,1,-999.0,1.0\n',
                 "ev1,960,1,1,1,-999.0,{cell}\n")),
}


def _after_a_quoted_newline(tmp_path, kind):
    """A reader and a file template whose fourth record holds {cell} in a float column."""
    if kind != "metrics":
        reader, header, rows = _AFTER_A_QUOTED_NEWLINE[kind]
        return reader, header + "".join(rows)
    path = tmp_path / "metrics.csv"
    write_report_csv(path, [MetricsReport(name, 0, *FLOATS, 0.5, confusion=np.eye(3, dtype=np.int64))
                            for name in ("m0", "a\nb", "m2")])
    rows = path.read_bytes().decode("utf-8").split("\r\n")
    rows[3] = rows[3].replace(f",{FLOATS[0]!r},", ",{cell},", 1)
    return read_report_csv, "\r\n".join(rows)


@pytest.mark.parametrize("kind", ["events", "metrics", "sequences", "volumes"])
@pytest.mark.parametrize("cell, message", [("1" * 200_000, "field larger than field limit"),
                                           ("1.0x", "could not convert string '1.0x' to float64")],
                         ids=("oversized field", "bad float"))
def test_csv_readers_count_records_after_a_quoted_newline(tmp_path, kind, cell, message):
    # a csv-module error and a float error in one record name the same line
    reader, template = _after_a_quoted_newline(tmp_path, kind)
    path = tmp_path / "file.csv"
    path.write_bytes(template.replace("{cell}", cell).encode("utf-8"))
    with pytest.raises(ParseError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}:4: {message}")


def test_events_parse_faults_come_before_record_checks(tmp_path):
    # the whole file parses before load_events checks records, so a bad
    # latitude on line 5 is named over the repeated event_id on line 3
    path = tmp_path / "events.csv"
    write_events(path, _events(4), AUX_CHANNELS)
    lines = path.read_text().split("\n")
    lines[2] = lines[1]
    fields = lines[4].split(",")
    fields[2] = "x"
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_events(path)
    assert str(err.value) == f"{path}:5: could not convert string 'x' to float64 in column latitude"


def test_sequences_parse_faults_come_before_record_checks(tmp_path):
    # sample a resumes on line 4 (not contiguous), and line 5 holds a NaN
    path = tmp_path / "seq.csv"
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\nb,0,1,2.0\na,1,1,3.0\nc,0,1,nan\n")
    with pytest.raises(ParseError) as err:
        load_sequences(path)
    assert str(err.value) == f"{path}:5: non-finite value nan in column f_1"


# ---------------------------------------------------------------------------
# writer bytes: each writer against the csv module (or, for checkpoints,
# a per-value join) on ids that need quoting and floats at the edges of repr

IDS = ["", "a,b", 'q"t', "x\ny", "ünï"]
FLOATS = [-0.0, 1e-05, 1e+16, 5e-324, 0.1, 1 / 3]


def _csv_bytes(header, rows, lineterminator="\n"):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _edge_sequences():
    # each sample holds every edge float, in a different order per step
    data = [[np.roll(FLOATS, i + t) for t in range(3)] for i in range(len(IDS))]
    return SequenceSet(IDS, [i % 3 for i in range(len(IDS))], data)


def test_write_sequences_bytes_match_csv_module(tmp_path):
    path = tmp_path / "seq.csv"
    samples = _edge_sequences()
    write_sequences(path, samples)
    header = ["sample_id", "t", "label"] + [f"f_{j + 1}" for j in range(len(FLOATS))]
    rows = [[sid, t, label] + [repr(v) for v in row]
            for sid, label, matrix in zip(samples.ids, samples.labels.tolist(), samples.data)
            for t, row in enumerate(matrix.tolist())]
    assert path.read_bytes() == _csv_bytes(header, rows)
    got = load_sequences(path)
    assert got.ids == tuple(IDS)
    assert np.array_equal(got.labels, samples.labels)
    assert _bits(got.data) == _bits(samples.data)


def test_write_predictions_bytes_match_csv_module(tmp_path):
    path = tmp_path / "predictions.csv"
    samples = _edge_sequences()
    probs = np.array([np.roll(FLOATS, i)[:3] for i in range(len(IDS))])
    predicted = np.arange(len(IDS)) % 3
    write_predictions(path, samples, probs, predicted)
    header = ["sample_id", "label", "p_tornado", "p_hail", "p_wind", "predicted"]
    rows = [[sid, label, *map(repr, p), cls] for sid, label, p, cls
            in zip(samples.ids, samples.labels.tolist(), probs.tolist(), predicted.tolist())]
    assert path.read_bytes() == _csv_bytes(header, rows)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert [row[0] for row in got[1:]] == IDS
    assert _bits([[float(v) for v in row[2:5]] for row in got[1:]]) == _bits(probs)


def _edge_events():
    degrees = [v for v in FLOATS if abs(v) <= 90.0]
    return [EventRecord(event_id=eid, label=i % 3, latitude=degrees[i % len(degrees)],
                        longitude=-degrees[(i + 1) % len(degrees)], timestamp=1000 + i,
                        auxiliary={c: FLOATS[(i + j) % len(FLOATS)] for j, c in enumerate(AUX_CHANNELS)})
            for i, eid in enumerate(IDS)]


def test_write_events_bytes_match_csv_module(tmp_path):
    path = tmp_path / "events.csv"
    events = _edge_events()
    write_events(path, events, AUX_CHANNELS)
    header = ["event_id", "label", "latitude", "longitude", "timestamp"] + list(AUX_CHANNELS)
    rows = [[e.event_id, e.label, repr(float(e.latitude)), repr(float(e.longitude)), e.timestamp]
            + [repr(float(e.auxiliary[c])) for c in AUX_CHANNELS] for e in events]
    assert path.read_bytes() == _csv_bytes(header, rows)
    got, channels = load_events(path)
    assert channels == tuple(AUX_CHANNELS)
    assert [e.event_id for e in got] == IDS
    for sent, loaded in zip(events, got):
        assert _bits([loaded.latitude, loaded.longitude, *loaded.auxiliary.values()]) == \
            _bits([sent.latitude, sent.longitude, *sent.auxiliary.values()])


def _edge_scans(events):
    # two scans of a (1, 2, 3) grid per event, the second with the first's values reversed
    return [ScanBlock([950 + i, 960 + i], [-999.0, FLOATS[i]],
                      np.reshape([np.roll(FLOATS, i), np.roll(FLOATS, i)[::-1]], (2, 1, 2, 3)))
            for i in range(len(events))]


def _volumes_bytes(events, scans):
    header = ["event_id", "timestamp", "nx", "ny", "nz", "missing"] + [f"v_{j + 1}" for j in range(6)]
    rows = [[e.event_id, stamp, 1, 2, 3, repr(missing)] + [repr(x) for x in grid.ravel().tolist()]
            for e, block in zip(events, scans)
            for stamp, missing, grid in zip(block.timestamps, block.missing.tolist(), block.grids)]
    return _csv_bytes(header, rows)


def _no_child_left():
    # every process this one forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_volumes_bytes_match_csv_module(tmp_path):
    path = tmp_path / "volumes.csv"
    events = _edge_events()
    scans = _edge_scans(events)
    write_volumes(path, events, scans)
    _no_child_left()  # the workers are reaped
    assert path.read_bytes() == _volumes_bytes(events, scans)
    got, _ = load_volumes(path)
    assert list(got) == IDS
    for sent, loaded in zip(scans, got.values()):
        assert loaded.timestamps.tolist() == sent.timestamps.tolist()
        assert _bits(loaded.missing) == _bits(sent.missing)
        assert loaded.grids.shape == sent.grids.shape
        assert _bits(loaded.grids) == _bits(sent.grids)


def test_save_checkpoint_bytes_match_per_value_join(tmp_path):
    path = tmp_path / "model.ckpt"
    params = {}
    for k, (name, tensor) in enumerate(init_params(TINY).items()):
        flat = tensor.array.reshape(-1).copy()
        flat[:len(FLOATS)] = np.roll(FLOATS, k)[:flat.size]
        params[name] = Tensor(flat.reshape(tensor.shape))
    save_checkpoint(params, TINY, path)
    lines = [CHECKPOINT_HEADER] + model_config_lines(TINY)
    for name, shape in expected_param_shapes(TINY).items():
        lines.append("@" + name + " " + " ".join(str(d) for d in shape))
        array = params[name].array
        for row in array.reshape(-1, shape[-1] if array.ndim > 1 else array.size):
            lines.append(" ".join(repr(float(v)) for v in row))
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")
    got, config = load_checkpoint(path)
    assert config == TINY
    for name in params:
        assert _bits(got[name].array) == _bits(params[name].array)


def test_write_report_csv_bytes_match_csv_module(tmp_path):
    path = tmp_path / "metrics.csv"
    reports = [MetricsReport(name, i % 3, *(FLOATS * 2)[i:i + 7], confusion=np.arange(9).reshape(3, 3) * i)
               for i, name in enumerate(IDS)]
    write_report_csv(path, reports)
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    rows = [[r.name, r.positive_class]
            + [repr(v) for v in (*r.row(), r.macro_precision, r.macro_recall, r.macro_f1)]
            + [int(c) for c in r.confusion.ravel()] for r in reports]
    assert path.read_bytes() == _csv_bytes(header, rows, lineterminator="\r\n")
    got = read_report_csv(path)
    assert [r.name for r in got] == IDS
    for sent, loaded in zip(reports, got):
        assert _bits(loaded.row()) == _bits(sent.row())
        assert np.array_equal(loaded.confusion, sent.confusion)


def test_carriage_return_in_an_id_is_quoted(tmp_path):
    # the csv module leaves a bare \r unquoted under a \n line terminator
    # (Python 3.11), and a reader then splits the row in two
    ids = ["a\rb", "c\r", "plain"]
    samples = SequenceSet(ids, [0, 1, 2], np.ones((3, 2, 1)))
    write_sequences(tmp_path / "seq.csv", samples)
    assert (tmp_path / "seq.csv").read_bytes().split(b"\n")[1] == b'"a\rb",0,0,1.0'
    assert load_sequences(tmp_path / "seq.csv").ids == tuple(ids)
    events = [EventRecord(eid, i, 1.0, 2.0, 3, {"temperature": 4.0}) for i, eid in enumerate(ids)]
    write_events(tmp_path / "events.csv", events, ["temperature"])
    assert load_events(tmp_path / "events.csv")[0] == events
    block = ScanBlock([5], [-999.0], np.ones((1, 1, 1, 1)))
    write_volumes(tmp_path / "volumes.csv", events, [block] * 3)
    assert list(load_volumes(tmp_path / "volumes.csv")[0]) == ids


# ---------------------------------------------------------------------------
# replace on success: a writer that fails mid-file leaves the old artifact


def _fails_mid_file(tmp_path, name, write):
    (tmp_path / name).mkdir()
    path = tmp_path / name / name
    path.write_bytes(b"previous artifact\n")
    with pytest.raises(BaseException) as err:
        write(path)
    assert [p.name for p in path.parent.iterdir()] == [name]
    assert path.read_bytes() == b"previous artifact\n"
    return err.value


def test_failed_writes_keep_the_previous_artifact(tmp_path):
    # a misshapen last parameter is found after every other block is written
    params = dict(init_params(TINY), out_b=Tensor([0.0, 0.0]))
    exc = _fails_mid_file(tmp_path, "model.ckpt", lambda p: save_checkpoint(params, TINY, p))
    assert isinstance(exc, DimensionError)
    # the last event lacks a channel the earlier rows carried
    events = _events(3)
    events[-1] = EventRecord("ev9", 0, 1.0, 2.0, 3, {})
    exc = _fails_mid_file(tmp_path, "events.csv", lambda p: write_events(p, events, AUX_CHANNELS))
    assert isinstance(exc, KeyError)

    def interrupted():
        yield "first line"
        raise KeyboardInterrupt
    exc = _fails_mid_file(tmp_path, "run_config.txt", lambda p: write_lines(p, interrupted()))
    assert isinstance(exc, KeyboardInterrupt)


def test_failed_first_write_leaves_no_file(tmp_path):
    events = _events(2)
    events[-1] = EventRecord("ev9", 0, 1.0, 2.0, 3, {})
    with pytest.raises(KeyError):
        write_events(tmp_path / "events.csv", events, AUX_CHANNELS)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# volumes.csv is formatted by forked workers, which never outlive
# write_volumes


def _python(args, timeout=300, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, **kwargs)


# the subprocess pins itself to one CPU, so write_volumes starts one worker
_ONE_CPU = """\
import os, pickle, sys
from stormstack.dataio import write_volumes
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
with open(sys.argv[1], "rb") as fh:
    events, scans = pickle.load(fh)
write_volumes(sys.argv[2], events, scans)
print(len(os.sched_getaffinity(0)))
"""


def test_write_volumes_on_one_cpu_bytes_match_csv_module(tmp_path):
    events = _edge_events()
    scans = _edge_scans(events)
    with open(tmp_path / "blocks.pickle", "wb") as fh:
        pickle.dump((events, scans), fh)
    result = _python(["-c", _ONE_CPU, str(tmp_path / "blocks.pickle"), str(tmp_path / "volumes.csv")])
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")
    assert (tmp_path / "volumes.csv").read_bytes() == _volumes_bytes(events, scans)


def test_failed_volume_formatting_keeps_the_previous_artifact(tmp_path, monkeypatch):
    # the fourth of five events fails, in a worker, after earlier events are written
    reprs = dataio._reprs

    def failing(values, sep=","):
        if values[0] == -7.0:
            raise ValueError("cannot format")
        return reprs(values, sep)
    monkeypatch.setattr(dataio, "_reprs", failing)
    events = _edge_events()
    scans = _edge_scans(events)
    scans[3] = ScanBlock(scans[3].timestamps, [-999.0, -7.0], scans[3].grids)
    exc = _fails_mid_file(tmp_path, "volumes.csv", lambda p: write_volumes(p, events, scans))
    assert isinstance(exc, ValueError) and str(exc) == "cannot format"
    _no_child_left()


def test_volume_workers_ignore_sigint(tmp_path, monkeypatch):
    # Ctrl-C's SIGINT reaches the whole process group: the workers leave it
    # to the writing process, which stops them.  SIGTERM, which stops them,
    # kills them outright, and neither signal stays blocked in them
    rows = dataio._volume_rows

    def checked(event_id, block):
        if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
            raise ValueError("a worker takes SIGINT")
        if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
            raise ValueError("a worker handles SIGTERM")
        if signal.pthread_sigmask(signal.SIG_BLOCK, []) & {signal.SIGINT, signal.SIGTERM}:
            raise ValueError("a worker blocks SIGINT or SIGTERM")
        return rows(event_id, block)
    monkeypatch.setattr(dataio, "_volume_rows", checked)
    handlers = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
    events = _edge_events()
    write_volumes(tmp_path / "volumes.csv", events, _edge_scans(events))
    assert (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) == handlers


class _Stop(Exception):
    pass


def _stop(signum, frame):
    raise _Stop(signum)


def test_a_signal_during_a_worker_fork_is_raised_after_it():
    # write_volumes forks each worker inside _stops_held: the worker starts
    # with SIGINT and SIGTERM blocked, and a SIGTERM that reaches the
    # writing process meanwhile is raised once the block ends, when the
    # worker is on the list that the handler's cleanup stops
    stops = {signal.SIGINT, signal.SIGTERM}
    previous = signal.signal(signal.SIGTERM, _stop)
    ran = []
    try:
        with pytest.raises(_Stop):
            with dataio._stops_held():
                pid = os.fork()
                if pid == 0:
                    os._exit(0 if stops <= signal.pthread_sigmask(signal.SIG_BLOCK, []) else 1)
                os.kill(os.getpid(), signal.SIGTERM)
                for _ in range(1000):  # bytecodes at which a handler could run
                    pass
                ran.append("block")
        assert ran == ["block"]
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert signal.getsignal(signal.SIGTERM) is _stop
        assert not signal.pthread_sigmask(signal.SIG_BLOCK, []) & stops
    finally:
        signal.signal(signal.SIGTERM, previous)


# a worker sends Ctrl-C's SIGINT to the process group while it formats the
# third of 40 events; the rest are far more text than a pipe holds, so the
# workers are still busy when the writing process stops them, and it
# removes the temp file
_INTERRUPTED = """\
import os, signal, sys
import numpy as np
from stormstack import dataio
from stormstack.features import EventRecord, ScanBlock

reprs = dataio._reprs

def interrupting(values, sep=","):
    if values[0] == -7.0:
        os.killpg(0, signal.SIGINT)
    return reprs(values, sep)

dataio._reprs = interrupting
grids = np.random.default_rng(5).standard_normal((40, 1, 1, 1, 2000))
events = [EventRecord(f"ev{i}", 0, 1.0, 2.0, 3, {}) for i in range(40)]
scans = [ScanBlock([1], [-7.0 if i == 2 else -999.0], grids[i]) for i in range(40)]
try:
    dataio.write_volumes(sys.argv[1], events, scans)
except KeyboardInterrupt:
    try:
        os.waitpid(-1, os.WNOHANG)
        children = "a child is left"
    except ChildProcessError:
        children = "no child is left"
    print(os.listdir(os.path.dirname(sys.argv[1])), children)
"""


def test_interrupted_volume_write_stops_the_workers(tmp_path):
    path = tmp_path / "volumes.csv"
    path.write_bytes(b"previous artifact\n")
    # a worker left running would block on a full pipe, and the write with it
    result = _python(["-c", _INTERRUPTED, str(path)], timeout=60, start_new_session=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "['volumes.csv'] no child is left\n", "")
    assert path.read_bytes() == b"previous artifact\n"


def test_generate_writes_nothing_to_stderr(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("data.samples_per_class = 2\ndata.steps = 3\ndata.grid = 4x4x2\ndata.cell = 2x2x1\n")
    result = _python(["-m", "stormstack", "generate", "--config", str(config), "--out", str(tmp_path)])
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("generated 6 events")


# ---------------------------------------------------------------------------
# wide-table parity: every malformed record of volumes.csv and of a split
# file keeps its exception class and path:line, with line numbers counted
# in records (a quoted id holding \n spans two physical lines, one record)

_WIDE = {
    "volumes": (lambda path: load_volumes(path)[0],
                "event_id,timestamp,nx,ny,nz,missing,v_1,v_2,v_3,v_4\n",
                lambda i: f"ev{i},{950 + i},4,1,1,-999.0,{i}.5,2.0,-3e-05,1e+16\n"),
    "sequences": (load_sequences, "sample_id,t,label,f_1,f_2,f_3,f_4\n",
                  lambda i: f"s{i},0,{i % 3},{i}.5,2.0,-3e-05,1e+16\n"),
}


def _wide_file(tmp_path, kind, edit):
    reader, header, row = _WIDE[kind]
    rows = [row(i) for i in range(5)]
    edit(rows)
    path = tmp_path / f"{kind}.csv"
    path.write_text(header + "".join(rows))
    return reader, path


def _bad_float(index, value="1.0x"):
    def edit(rows):
        rows[index] = rows[index].replace(f",{index}.5,", f",{value},")
    return edit


def _quoted_newline_then_bad_float(rows):
    rows[1] = '"' + rows[1].replace(",", '\n",', 1)
    _bad_float(2)(rows)


_WIDE_FAULTS = {
    "blank line": (lambda rows: rows.insert(2, "\n"), ParseError, 4, "expected {width} fields, got 0"),
    "hash line": (lambda rows: rows.insert(2, "# a note\n"), ParseError, 4,
                  "expected {width} fields, got 1"),
    "short row": (lambda rows: rows.__setitem__(2, rows[2].rsplit(",", 1)[0] + "\n"), ParseError, 4,
                  "expected {width} fields, got {short}"),
    "long row": (lambda rows: rows.__setitem__(2, rows[2].rstrip("\n") + ",1.0\n"), ParseError, 4,
                 "expected {width} fields, got {long}"),
    "bad float, first row": (_bad_float(0), ParseError, 2, ""),
    "bad float, middle row": (_bad_float(2), ParseError, 4, ""),
    "bad float, last row": (_bad_float(4), ParseError, 6, ""),
    "bad float after a quoted id holding \\n": (_quoted_newline_then_bad_float, ParseError, 4, ""),
    "nan, last row": (_bad_float(4, "nan"), ParseError, 6, "non-finite value nan"),
}


@pytest.mark.parametrize("kind", sorted(_WIDE))
@pytest.mark.parametrize("fault", list(_WIDE_FAULTS))
def test_wide_readers_name_the_faulty_record(tmp_path, kind, fault):
    edit, cls, line, message = _WIDE_FAULTS[fault]
    reader, path = _wide_file(tmp_path, kind, edit)
    width = _WIDE[kind][1].count(",") + 1
    with pytest.raises(cls) as err:
        reader(path)
    assert type(err.value) is cls
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert message.format(width=width, short=width - 1, long=width + 1) in str(err.value)


def test_sequences_refuse_an_empty_only_float_cell(tmp_path):
    # with one float column an empty cell leaves an empty line of floats
    path = tmp_path / "seq.csv"
    path.write_text("sample_id,t,label,f_1\na,0,1,1.0\nb,0,1,\nc,0,1,2.0\n")
    with pytest.raises(ParseError) as err:
        load_sequences(path)
    assert str(err.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("kind, column", [("volumes", 2), ("sequences", 1)])
def test_wide_readers_refuse_a_float_in_an_integer_column(tmp_path, kind, column):
    # nx=4.0 in volumes.csv, t=0.0 in a split file: integer columns stay int()
    def edit(rows):
        fields = rows[2].split(",")
        fields[column] += ".0"
        rows[2] = ",".join(fields)
    reader, path = _wide_file(tmp_path, kind, edit)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}:4: ")
    assert ("4.0" if kind == "volumes" else "0.0") in str(err.value)


@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_wide_readers_take_ids_starting_with_a_hash(tmp_path, kind):
    reader, path = _wide_file(tmp_path, kind, lambda rows: rows.__setitem__(1, "#" + rows[1]))
    got = reader(path)
    ids = list(got) if kind == "volumes" else list(got.ids)
    assert ids[1] in ("#ev1", "#s1")
    assert len(ids) == 5


@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_wide_readers_keep_quoted_cells_bit_identical(tmp_path, kind):
    # quoted numbers and quoted ids holding , or " read as their plain forms
    def quote_id(row, text):
        return '"' + text + '"' + row[row.index(","):]

    def edit(rows):
        rows[0] = rows[0].replace(",0.5,", ',"0.5",').replace(",1e+16\n", ',"1e+16"\n')
        rows[1] = quote_id(rows[1], "a,b")
        rows[3] = quote_id(rows[3], 'q""t')
    (tmp_path / "plain").mkdir()
    reader, plain = _wide_file(tmp_path / "plain", kind, lambda rows: None)
    _, quoted = _wide_file(tmp_path, kind, edit)
    want, got = reader(plain), reader(quoted)
    if kind == "volumes":
        assert list(got) == ["ev0", "a,b", "ev2", 'q"t', "ev4"]
        for sent, loaded in zip(want.values(), got.values()):
            assert loaded.timestamps.tolist() == sent.timestamps.tolist()
            assert _bits(loaded.missing) == _bits(sent.missing)
            assert _bits(loaded.grids) == _bits(sent.grids)
    else:
        assert got.ids == ("s0", "a,b", "s2", 'q"t', "s4")
        assert np.array_equal(got.labels, want.labels)
        assert _bits(got.data) == _bits(want.data)


# ---------------------------------------------------------------------------
# a file of PART_FLOOR bytes or more that holds no `"` is parsed in parts,
# one per CPU: here the floor is 0 and three CPUs give three parts

def _in_parts(monkeypatch, cpus=3):
    monkeypatch.setattr(dataio, "PART_FLOOR", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _parts_of(path):
    """The line of the file that each part of its parse starts at."""
    data = path.read_bytes()
    with open(path) as fh:
        spans = dataio._spans(fh.fileno())
    return [data[:start].count(b"\n") + 1 for start, _ in spans]


@pytest.mark.parametrize("data, cpus, spans", [
    (b"abcd\nfgh\njk\n", 3, [(0, 5), (5, 9), (9, 12)]),  # the bytes at 4 and 8 are each a \n
    (b"ab\ncdefghij\n", 3, [(0, 12)]),  # the line at both cut points ends the file
    (b"a\nbcdefghijklmn\nop\n", 4, [(0, 16), (16, 19)]),  # two cut points in one line
    (b"abcd\nfghijkl", 3, [(0, 5), (5, 12)]),  # the last \n comes before the cut point at 8
    (b"abcd\nfgh\njkl", 3, [(0, 5), (5, 9), (9, 12)]),  # no final newline
], ids=("newline-at-the-cut", "one-line-to-the-end", "two-cuts-in-a-line", "no-newline-past-a-cut",
        "no-final-newline"))
def test_each_cut_is_just_after_the_first_newline_at_or_past_its_point(tmp_path, monkeypatch, data, cpus,
                                                                       spans):
    # cut k of n is searched from byte size * k // n, or from the cut before when that is later
    _in_parts(monkeypatch, cpus)
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with open(path) as fh:
        assert dataio._spans(fh.fileno()) == spans


def _volumes_in_parts(tmp_path, monkeypatch, edit, count=30):
    """A 30-row volumes file, edited, read in three parts; (path, the line each part starts at)."""
    _in_parts(monkeypatch)
    _, header, row = _WIDE["volumes"]
    rows = [row(i) for i in range(count)]
    edit(rows)
    path = tmp_path / "volumes.csv"
    path.write_text(header + "".join(rows))
    return path, _parts_of(path)


def _part(starts, line):
    return sum(start <= line for start in starts) - 1


def test_a_malformed_number_in_a_later_part_comes_before_a_nan(tmp_path, monkeypatch):
    # rows 14 and 25 are lines 16 and 27: a NaN in part 1, a bad float in part 2
    path, starts = _volumes_in_parts(tmp_path, monkeypatch, lambda rows: (_bad_float(14, "nan")(rows),
                                                                          _bad_float(25)(rows)))
    assert (len(starts), _part(starts, 16), _part(starts, 27)) == (3, 1, 2)
    with pytest.raises(ParseError) as err:
        load_volumes(path)
    assert str(err.value) == (f"{path}:27: could not convert string '1.0x' to float64"
                              " in column v_1")


def test_a_nan_in_a_later_part_names_its_line(tmp_path, monkeypatch):
    path, starts = _volumes_in_parts(tmp_path, monkeypatch, _bad_float(25, "-inf"))
    assert (len(starts), _part(starts, 27)) == (3, 2)
    with pytest.raises(ParseError) as err:
        load_volumes(path)
    assert str(err.value) == f"{path}:27: non-finite value -inf in column v_1"


def test_a_field_count_fault_in_a_later_part_names_its_line(tmp_path, monkeypatch):
    def edit(rows):
        rows[25] = rows[25].rsplit(",", 1)[0] + "\n"
    path, starts = _volumes_in_parts(tmp_path, monkeypatch, edit)
    assert (len(starts), _part(starts, 27)) == (3, 2)
    with pytest.raises(ParseError) as err:
        load_volumes(path)
    assert str(err.value) == f"{path}:27: expected 10 fields, got 9"


def test_a_record_fault_in_a_later_part_names_its_line(tmp_path, monkeypatch):
    path, starts = _volumes_in_parts(tmp_path, monkeypatch,
                                     lambda rows: rows.__setitem__(25, rows[25].replace(",4,1,1,", ",2,2,2,")))
    assert (len(starts), _part(starts, 27)) == (3, 2)
    with pytest.raises(DimensionError) as err:
        load_volumes(path)
    assert str(err.value) == f"{path}:27: volume has 4 cells, dims (2, 2, 2) require 8"


def test_sequences_read_in_parts_as_in_one(tmp_path, monkeypatch):
    # the parts' tables are joined into one; a ragged file, sample s7 one
    # row short in the last part, is refused as when it is one part
    data = np.random.default_rng(26).standard_normal((9, 4, 2))
    path, ragged = tmp_path / "seq.csv", tmp_path / "ragged.csv"
    write_sequences(path, SequenceSet([f"s{i}" for i in range(9)], np.arange(9) % 3, data))
    lines = path.read_text().split("\n")
    ragged.write_text("\n".join(lines[:1 + 4 * 7 + 3] + lines[1 + 4 * 8:]))
    whole = load_sequences(path)
    with pytest.raises(DimensionError) as err:
        load_sequences(ragged)
    _in_parts(monkeypatch)
    assert len(_parts_of(path)) == 3 and _parts_of(ragged)[-1] < 1 + 1 + 4 * 7
    parts = load_sequences(path)
    assert parts.ids == whole.ids and _bits(parts.labels) == _bits(whole.labels)
    assert _bits(parts.data) == _bits(data) and parts.data.shape == data.shape
    with pytest.raises(DimensionError) as in_parts:
        load_sequences(ragged)
    assert str(in_parts.value) == str(err.value) == (f"{ragged}:30: sample s7 has shape (3, 2),"
                                                     " sample s0 has (4, 2)")


def test_a_quoted_id_holding_a_newline_keeps_one_part(tmp_path, monkeypatch):
    def edit(rows):
        rows[12] = '"ev\n12"' + rows[12][rows[12].index(","):]
    path, starts = _volumes_in_parts(tmp_path, monkeypatch, edit)
    assert starts == [1]
    scans, first_lines = load_volumes(path)
    assert list(scans)[11:14] == ["ev11", "ev\n12", "ev13"]
    assert first_lines["ev13"] == 15  # a record, not a physical line, is a line
    assert _bits(scans["ev\n12"].grids.ravel()) == _bits([12.5, 2.0, -3e-05, 1e+16])


def test_parts_read_as_one_part_and_adjacent_scans_are_views(tmp_path, monkeypatch):
    # 12 events of 4 scans; ev3's rows are split apart, and the rows of the
    # event at the first cut straddle it
    rows = [f"ev{i // 4},{900 + i % 4},2,1,1,{-999.0 if i % 3 else 1.5},{i}.25,{-i}e-3\n" for i in range(48)]
    rows.append(rows.pop(13))
    path = tmp_path / "volumes.csv"
    path.write_text("event_id,timestamp,nx,ny,nz,missing,v_1,v_2\n" + "".join(rows))
    whole, whole_lines = load_volumes(path)
    _in_parts(monkeypatch)
    starts = _parts_of(path)
    straddling = rows[starts[1] - 2].split(",")[0]  # the event of part 1's first row
    assert len(starts) == 3 and rows[starts[1] - 3].startswith(straddling + ",")
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    parts, part_lines = load_volumes(path)
    assert len(forks) == 2  # this process parses part 0 itself
    assert part_lines == whole_lines and list(parts) == list(whole)
    for event_id, block in parts.items():
        for name in ("timestamps", "missing", "grids"):
            assert getattr(block, name).shape == getattr(whole[event_id], name).shape
            assert _bits(getattr(block, name)) == _bits(getattr(whole[event_id], name)), event_id
    views = [event_id for event_id, block in parts.items() if not block.grids.flags.owndata
             and np.shares_memory(block.grids, parts["ev0"].grids)]
    assert "ev0" in views and "ev3" not in views and straddling not in views
    assert parts["ev3"].timestamps.tolist() == [900, 902, 903, 901]


# three CPUs, so only the size floor keeps each file in one part
_SMALL_READS = """\
import os, sys
from stormstack import dataio

def fork():
    raise OSError("forked")

os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1, 2}
dataio.load_events(sys.argv[1])
dataio.load_volumes(sys.argv[2])
dataio.load_sequences(sys.argv[3])
print("read")
"""


def test_a_small_file_is_read_without_a_fork(tmp_path):
    # under PART_FLOOR bytes, no worker is forked
    events = _events(3)
    write_events(tmp_path / "events.csv", events, AUX_CHANNELS)
    (tmp_path / "volumes.csv").write_text(_WIDE["volumes"][1] + _WIDE["volumes"][2](0))
    write_sequences(tmp_path / "seq.csv", SequenceSet(["s0"], [1], [[[1.0, 2.0]]]))
    result = _python(["-c", _SMALL_READS] + [str(tmp_path / name) for name in ("events.csv", "volumes.csv",
                                                                                 "seq.csv")])
    assert (result.returncode, result.stdout, result.stderr) == (0, "read\n", "")


# ---------------------------------------------------------------------------
# the number grammar: an integer is ASCII digits with an optional sign, a
# float is what float() reads from ASCII text without `_`, and finite

def test_integer_is_ascii_digits_with_an_optional_sign():
    assert [integer(text) for text in ("0", "-12", "+7", "007")] == [0, -12, 7, 7]
    for text in ("1_000", "١٢", "１２", " 12", "12 ", "\u00a012", "1.0", "1e3", "", "+", "0x10"):
        with pytest.raises(ValueError):
            integer(text)


def test_real_reads_what_the_table_reader_reads(tmp_path):
    # np.loadtxt alone would also take a float padded with a no-break space
    # or with an ASCII separator \x1c-\x1f
    texts = ("1.5", "-0.0", "+.5", "5.", "1e-05", "1E+05", " 2.5", "2.5\t", "5e-324", "1e400", "nan",
             "-Infinity", "1_0", "\u0661", "\uff11", "\u00a01", "1\u3000", "0x10", "1d3", "", ".", "1e",
             "\x1c1.5", "\x1d1.5", "1.5\x1e", "\x1f1.5\x1f")
    path = tmp_path / "seq.csv"
    for text in texts:
        path.write_text(f"sample_id,t,label,f_1\na,0,1,{text}\n", encoding="utf-8")
        try:
            want = load_sequences(path).data[0, 0, 0]
        except ParseError:
            with pytest.raises(ValueError):
                real(text)
        else:
            assert _bits([real(text)]) == _bits([want]), repr(text)
