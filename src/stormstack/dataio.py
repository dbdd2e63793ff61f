"""File formats: sequence datasets, model checkpoints, and the raw
event/volume files the generator writes.

Everything is plain UTF-8 text with `\n` line endings; reals are
rendered with repr(), which round-trips every double exactly, and the
readers reject NaN and infinity.  Checkpoint headers use config codecs.
"""

import csv

import numpy as np

from .config import model_config_lines, parse_model_config
from .errors import DataError, DimensionError, ParseError, UsageError, ValidationError, open_text
from .features import EventRecord, SequenceSet, SHSRVolume
from .model import ModelConfig, expected_param_shapes
from .tensor import Tensor

CHECKPOINT_HEADER = "#stormstack-checkpoint v1"


def _require_finite(block, path, first_line):
    """Raise ParseError naming the line of the first NaN or infinity in
    block, whose rows (a 1-D block is one row) sit on consecutive lines
    from first_line."""
    ok = np.isfinite(block)
    if not ok.all():
        row = int(np.argmin(ok.all(axis=-1))) if ok.ndim > 1 else 0
        bad = float(np.asarray(block)[~ok][0])
        raise ParseError(f"{path}:{first_line + row}: non-finite value {bad!r}")


# ---------------------------------------------------------------------------
# sequence files


def write_sequences(path, samples):
    """Write a SequenceSet as CSV: sample_id,t,label,f_1..f_D.

    Rows for a sample are contiguous with t counting from 0.
    """
    channels = samples.data.shape[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "t", "label"] + [f"f_{j + 1}" for j in range(channels)])
        for sample_id, label, matrix in zip(samples.ids, samples.labels.tolist(), samples.data):
            for t, row in enumerate(matrix.tolist()):
                writer.writerow([sample_id, t, label] + [repr(v) for v in row])


def load_sequences(path):
    """Parse a sequence file back into a SequenceSet, in file order.

    Every sample must have the step count of the first one.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["sample_id", "t", "label"]:
            raise ParseError(f"{path}: header must start with sample_id,t,label")
        channels = len(header) - 3
        if header[3:] != [f"f_{j + 1}" for j in range(channels)]:
            raise ParseError(f"{path}: feature columns must be named f_1..f_{channels}")
        ids, labels, blocks, first_lines = [], [], [], {}
        rows = []

        def flush():
            if rows:
                data = np.array(rows)
                _require_finite(data, path, first_lines[ids[-1]])
                blocks.append(data)

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            sample_id = row[0]
            try:
                t = int(row[1])
                label = int(row[2])
                values = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not ids or sample_id != ids[-1]:
                if sample_id in first_lines:
                    raise ValidationError(f"{path}:{lineno}: rows for {sample_id} are not contiguous")
                flush()
                ids.append(sample_id)
                labels.append(label)
                first_lines[sample_id] = lineno
                rows = []
            if t != len(rows):
                raise ValidationError(f"{path}:{lineno}: expected t={len(rows)} for {sample_id}, got {t}")
            if label != labels[-1]:
                raise ValidationError(f"{path}:{lineno}: label changed within {sample_id}")
            rows.append(values)
        flush()
    try:
        return SequenceSet(ids, labels, blocks or np.empty((0, 0, channels)))
    except DataError as exc:
        raise type(exc)(f"{path}:{first_lines[ids[exc.sample]]}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params, config: ModelConfig, path):
    """Text checkpoint: version line, config echo, then one `@name dims`
    block per parameter with repr() values."""
    expected = expected_param_shapes(config)
    missing = [n for n in expected if n not in params]
    extra = [n for n in params if n not in expected]
    if missing or extra:
        raise UsageError(f"params do not match config (missing {missing}, unexpected {extra})")
    with open(path, "w", newline="") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        for line in model_config_lines(config):
            fh.write(line + "\n")
        for name in expected:
            tensor = params[name]
            if tensor.shape != expected[name]:
                raise DimensionError(
                    f"parameter {name} has shape {tensor.shape}, config requires {expected[name]}"
                )
            fh.write("@" + name + " " + " ".join(str(d) for d in tensor.shape) + "\n")
            flat = tensor.array.reshape(-1, tensor.shape[-1] if tensor.ndim > 1 else tensor.size)
            for row in flat:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_checkpoint(path):
    """Read a checkpoint back as (params, config)."""
    with open_text(path) as fh:
        lines = [line.rstrip("\r\n") for line in fh] or [""]
    if lines[0] != CHECKPOINT_HEADER:
        raise ParseError(f"{path}: expected header {CHECKPOINT_HEADER!r}, got {lines[0]!r}")
    pos = 1
    items = {}
    while pos < len(lines) and lines[pos] and not lines[pos].startswith("@"):
        line = lines[pos]
        if "=" not in line:
            raise ParseError(f"{path}:{pos + 1}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        if key in items:
            raise ParseError(f"{path}:{pos + 1}: repeated checkpoint config key {key!r}")
        items[key] = (pos + 1, value)
        pos += 1
    config = parse_model_config(items, path)
    expected = expected_param_shapes(config)
    params = {}
    while pos < len(lines):
        line = lines[pos]
        if not line:
            pos += 1
            continue
        if not line.startswith("@"):
            raise ParseError(f"{path}:{pos + 1}: expected a @parameter block, got {line!r}")
        name, *dims = line[1:].split() or [""]
        if name not in expected:
            raise ValidationError(f"{path}:{pos + 1}: unknown parameter {name!r}")
        if name in params:
            raise ValidationError(f"{path}:{pos + 1}: duplicate parameter {name!r}")
        try:
            shape = tuple(int(d) for d in dims)
        except ValueError:
            raise ParseError(f"{path}:{pos + 1}: bad dimensions in {line!r}") from None
        if shape != expected[name]:
            raise DimensionError(
                f"{path}:{pos + 1}: parameter {name} has shape {shape}, config requires {expected[name]}"
            )
        count = int(np.prod(shape))
        values = []
        pos += 1
        start = pos
        while len(values) < count and pos < len(lines) and not lines[pos].startswith("@"):
            chunk = lines[pos].split()
            try:
                values.extend(float(v) for v in chunk)
            except ValueError as exc:
                raise ParseError(f"{path}:{pos + 1}: {exc}") from None
            pos += 1
        if len(values) != count:
            raise ParseError(
                f"{path}: incomplete block for {name}: got {len(values)} of {count} values"
            )
        block = np.array(values)
        if not np.isfinite(block).all():
            for i in range(start, pos):  # find the line to name
                _require_finite([float(v) for v in lines[i].split()], path, i + 1)
        params[name] = Tensor(block.reshape(shape), _checked=True)
    missing = [n for n in expected if n not in params]
    if missing:
        raise ValidationError(f"{path}: checkpoint is missing parameters {missing}")
    return params, config


# ---------------------------------------------------------------------------
# raw event / volume files


def write_events(path, events, channels):
    """One CSV row per event; auxiliary channels become named columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["event_id", "label", "latitude", "longitude", "timestamp"] + list(channels))
        for e in events:
            writer.writerow(
                [e.event_id, e.label, repr(float(e.latitude)), repr(float(e.longitude)), e.timestamp]
                + [repr(float(e.auxiliary[c])) for c in channels]
            )


def load_events(path):
    """Returns (events, channels) with channels taken from the header."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        fixed = ["event_id", "label", "latitude", "longitude", "timestamp"]
        if header is None or header[:5] != fixed:
            raise ParseError(f"{path}: header must start with {','.join(fixed)}")
        channels = tuple(header[5:])
        events = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                numbers = [float(v) for v in row[2:4] + row[5:]]
                _require_finite(numbers, path, lineno)
                events.append(EventRecord(
                    event_id=row[0],
                    label=int(row[1]),
                    latitude=numbers[0],
                    longitude=numbers[1],
                    timestamp=int(row[4]),
                    auxiliary=dict(zip(channels, numbers[2:])),
                ))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return events, channels


def write_volumes(path, events, volumes):
    """One CSV row per volume scan, grouped by event in event order."""
    if len(events) != len(volumes):
        raise UsageError(f"got {len(events)} events but {len(volumes)} volume lists")
    dims = {v.dims for scans in volumes for v in scans}
    if len(dims) > 1:
        raise DimensionError(f"volumes disagree on grid dims: {sorted(dims)}")
    nx, ny, nz = dims.pop() if dims else (0, 0, 0)
    cells = nx * ny * nz
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["event_id", "timestamp", "nx", "ny", "nz", "missing"]
                        + [f"v_{j + 1}" for j in range(cells)])
        for e, scans in zip(events, volumes):
            for v in scans:
                writer.writerow([e.event_id, v.timestamp, nx, ny, nz, repr(float(v.missing))]
                                + [repr(float(x)) for x in v.values])


def load_volumes(path):
    """Returns {event_id: [SHSRVolume, ...]} preserving file order."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        fixed = ["event_id", "timestamp", "nx", "ny", "nz", "missing"]
        if header is None or header[:6] != fixed:
            raise ParseError(f"{path}: header must start with {','.join(fixed)}")
        cells = len(header) - 6
        volumes = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                dims = (int(row[2]), int(row[3]), int(row[4]))
                numbers = np.array([float(v) for v in row[5:]])
                _require_finite(numbers, path, lineno)
                volume = SHSRVolume(
                    dims=dims,
                    values=numbers[1:],
                    timestamp=int(row[1]),
                    missing=float(numbers[0]),
                )
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            except (ValidationError, DimensionError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
            if dims[0] * dims[1] * dims[2] != cells:
                raise DimensionError(f"{path}:{lineno}: dims {dims} do not match {cells} value columns")
            volumes.setdefault(row[0], []).append(volume)
    return volumes
