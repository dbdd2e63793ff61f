"""File formats: sequence datasets, model checkpoints, evaluation
reports, predictions, and the raw event/volume files the generator
writes.

Everything is plain UTF-8 text with `\n` line endings, except that
`metrics_*.csv` rows end in `\r\n` (the csv module's default, kept so
the files stay byte-identical).  Reals are rendered with repr(), which
round-trips every double exactly, and the readers reject NaN and
infinity.  Checkpoint headers use config codecs.  Every CSV file is
read through `_rows`, or, for the wide volume and sequence files,
`_table`, which parses their floats with one np.loadtxt call; both
check the header in `_csv`, so each file reports a malformed row the
same way.
Every file is written through `replacing`, a row at a time: text cells
go through `_cell` and floats through `_reprs`.
"""

import csv
import itertools
import math
import os
import re
from collections import Counter
from contextlib import contextmanager, suppress
from types import SimpleNamespace

import numpy as np

from .config import model_config_lines, parse_model_config
from .errors import DataError, DimensionError, ParseError, UsageError, ValidationError, open_text
from .features import EventRecord, ScanBlock, SequenceSet
from .metrics import LABELS, MetricsReport
from .model import ModelConfig, expected_param_shapes
from .tensor import Tensor

CHECKPOINT_HEADER = "#stormstack-checkpoint v1"


@contextmanager
def _csv(path, fixed):
    """Open the CSV file at path and read its header, which must start
    with fixed and name no column twice.

    Yields (header, fh, reader, at): fh and the csv reader over it stand
    after the header, and at.line is the line of the data row being
    handled, 0 before and after the rows.  A ValueError raised while
    at.line is set becomes a ParseError naming path:line; a
    ValidationError or DimensionError gains the same prefix and keeps
    its class.
    """
    at = SimpleNamespace(line=0)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or header[:len(fixed)] != list(fixed):
                raise ParseError(f"{path}: header must start with {','.join(fixed)}")
            repeated = [name for name, count in Counter(header).items() if count > 1]
            if repeated:
                raise ParseError(f"{path}: header repeats column {repeated[0]!r}")
            yield header, fh, reader, at
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        except (ValueError, ValidationError, DimensionError) as exc:
            # a UnicodeDecodeError is left to open_text, which names the byte
            if not at.line or isinstance(exc, UnicodeDecodeError):
                raise
            cls = ParseError if isinstance(exc, ValueError) else type(exc)
            raise cls(f"{path}:{at.line}: {exc}") from None


@contextmanager
def _rows(path, fixed):
    """Open the CSV file at path, whose header must start with fixed.

    Yields (header, rows); rows gives (lineno, fields) for each data
    row and refuses one whose field count differs from the header's.
    Errors raised while the caller handles a row name path:line (see
    _csv).
    """
    with _csv(path, fixed) as (header, _, reader, at):
        def rows():
            for at.line, fields in enumerate(reader, start=2):
                if len(fields) != len(header):
                    raise ParseError(f"{path}:{at.line}: expected {len(header)} fields, got {len(fields)}")
                yield at.line, fields
            at.line = 0

        yield header, rows()


class _Fault(Exception):
    """The error of a fault in data row `row` (from 0) of a table, found
    while parsing it."""

    def __init__(self, row, error):
        super().__init__(row, error)
        self.row, self.error = row, error


# loadtxt numbers rows from 0 and columns from 1
_LOADTXT_ERROR = re.compile(r"(could not convert string .* to float64) at row (\d+), column (\d+)\.", re.S)


@contextmanager
def _table(path, fixed, lead):
    """_rows for a wide file: a text id column, then lead - 1 integer
    columns, then float columns, all parsed together by one np.loadtxt
    call.

    Yields (header, rows); rows gives (lineno, [id, *ints], values) for
    each data row, values being the row's floats.  Records, line numbers
    and errors are those of _rows with int() and _floats.  A fault found
    while parsing (a field count, a number that does not parse, a NaN or
    infinity, a byte that is not UTF-8) is raised once rows has given
    the records before it, with values None, so a fault the caller finds
    in an earlier record is reported first.  Two differences: NaN and
    infinity are looked for once every float has parsed, so a later
    record that does not parse is reported before them; and unlike
    float(), loadtxt refuses `1_000` and non-ASCII digits.
    """
    with _csv(path, fixed) as (header, fh, reader, at):
        # every record's id and ints, one after another; each id string is
        # kept once, as a file repeats an id on many rows
        width, leads, ids = len(header), [], {}

        def fault(row, message, line=None):
            return _Fault(row, ParseError(f"{path}:{line or row + 2}: {message}"))

        def tails():
            # each record's float cells as one line of text, once its lead cells are read
            read = reader.line_num  # lines of fh consumed so far
            for line in fh:
                read += 1
                row = len(leads) // lead
                if '"' in line or len(line) > csv.field_size_limit():
                    # a quoted cell may hold , " \r or \n: the csv module
                    # reads the record, and the float cells are quoted again
                    record = csv.reader(itertools.chain([line], fh))
                    try:
                        fields = next(record)
                    except csv.Error as exc:
                        raise fault(row, exc, read - 1 + record.line_num) from None
                    read += record.line_num - 1
                    count, tail = len(fields), ",".join(map(_cell, fields[lead:]))
                else:
                    text = line.rstrip("\r\n")
                    count = text.count(",") + 1 if text else 0
                    fields = text.split(",", lead)
                    tail = fields[-1]
                if count != width:
                    raise fault(row, f"expected {width} fields, got {count}")
                try:
                    leads.extend([ids.setdefault(fields[0], fields[0]), *map(int, fields[1:lead])])
                except ValueError as exc:
                    raise fault(row, exc) from None
                if width > lead:
                    yield tail or '""'  # loadtxt skips an empty line; this fails to convert

        def parse():
            records = tails()
            try:
                first = next(records, None)
                if first is None:  # no rows or no float columns, which loadtxt refuses
                    return np.empty((len(leads) // lead, width - lead))
                table = np.loadtxt(itertools.chain([first], records), delimiter=",", quotechar='"',
                                   comments=None, dtype=np.float64, ndmin=2)
            except UnicodeDecodeError as exc:  # open_text names the byte
                raise _Fault(len(leads) // lead, exc) from None
            except ValueError as exc:
                found = _LOADTXT_ERROR.fullmatch(str(exc))
                if found is None:  # worded otherwise by this numpy: no line to name
                    raise _Fault(len(leads) // lead, ParseError(f"{path}: {exc}")) from None
                row = int(found[2])
                raise fault(row, f"{found[1]} in column {header[lead + int(found[3]) - 1]}") from None
            ok = np.isfinite(table)
            if not ok.all():
                row, column = divmod(int(np.argmin(ok)), table.shape[1])
                raise fault(row, f"non-finite value {float(table[row, column])!r}"
                                 f" in column {header[lead + column]}")
            return table

        def rows():
            try:
                table, error = parse(), None
            except _Fault as exc:
                table, error = itertools.repeat(None, exc.row), exc.error
            for row, values in enumerate(table):
                at.line = row + 2
                yield at.line, leads[row * lead:(row + 1) * lead], values
            at.line = 0
            if error:
                raise error from None

        yield header, rows()


def _floats(fields, names=None):
    """Parse text fields as float64 (the values float() gives); a NaN or
    infinity raises ValueError naming it and, given names, its column."""
    values = np.array(fields, dtype=np.float64)
    ok = np.isfinite(values)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"non-finite {names[i] if names else 'value'} {float(values[i])!r}")
    return values


@contextmanager
def replacing(path):
    """Open a temp file beside path for UTF-8 text writes and move it onto
    path when the block succeeds.  On any exception the temp file is
    removed and path keeps its previous bytes, or stays absent."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_lines(path, lines):
    """Write path as UTF-8 text, one newline-terminated line per item."""
    with replacing(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def _cell(text):
    """A text cell as one CSV field: quoted, with its quotes doubled, when
    it holds a comma, a quote, \r or \n, and bare otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reprs(values, sep=","):
    """The repr() of each float, joined by sep."""
    return sep.join(map(repr, values))


def _header(names, end="\n"):
    return ",".join(map(_cell, names)) + end


# ---------------------------------------------------------------------------
# sequence files


def write_sequences(path, samples):
    """Write a SequenceSet as CSV: sample_id,t,label,f_1..f_D.

    Rows for a sample are contiguous with t counting from 0.
    """
    channels = samples.data.shape[2]
    with replacing(path) as fh:
        fh.write(_header(["sample_id", "t", "label"] + [f"f_{j + 1}" for j in range(channels)]))
        for sample_id, label, matrix in zip(samples.ids, samples.labels.tolist(), samples.data):
            key = _cell(sample_id)
            fh.writelines(f"{key},{t},{label},{_reprs(row)}\n" for t, row in enumerate(matrix.tolist()))


def write_predictions(path, samples, probs, predicted):
    """Write predictions.csv: sample_id,label,p_tornado,p_hail,p_wind,predicted,
    one row per sample of the SequenceSet, from (N, 3) probabilities and
    (N,) predicted labels."""
    with replacing(path) as fh:
        fh.write(_header(["sample_id", "label", "p_tornado", "p_hail", "p_wind", "predicted"]))
        fh.writelines(f"{_cell(sample_id)},{label},{_reprs(p)},{cls}\n" for sample_id, label, p, cls
                      in zip(samples.ids, samples.labels.tolist(), probs.tolist(), predicted.tolist()))


def load_sequences(path):
    """Parse a sequence file back into a SequenceSet, in file order.

    Every sample must have the step count of the first one.
    """
    with _table(path, ("sample_id", "t", "label"), 3) as (header, rows):
        channels = len(header) - 3
        if header[3:] != [f"f_{j + 1}" for j in range(channels)]:
            raise ParseError(f"{path}: feature columns must be named f_1..f_{channels}")
        first_lines, labels, blocks, current = {}, [], [], None
        for lineno, (sample_id, t, label), values in rows:
            if sample_id != current:
                if sample_id in first_lines:
                    raise ValidationError(f"rows for {sample_id} are not contiguous")
                current = sample_id
                first_lines[sample_id] = lineno
                labels.append(label)
                blocks.append([])
            if t != len(blocks[-1]):
                raise ValidationError(f"expected t={len(blocks[-1])} for {sample_id}, got {t}")
            if label != labels[-1]:
                raise ValidationError(f"label changed within {sample_id}")
            blocks[-1].append(values)
    ids = list(first_lines)
    try:
        return SequenceSet(ids, labels, [np.array(b) for b in blocks] or np.empty((0, 0, channels)))
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
    with replacing(path) as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.writelines(line + "\n" for line in model_config_lines(config))
        for name in expected:
            tensor = params[name]
            if tensor.shape != expected[name]:
                raise DimensionError(
                    f"parameter {name} has shape {tensor.shape}, config requires {expected[name]}"
                )
            fh.write("@" + name + " " + " ".join(str(d) for d in tensor.shape) + "\n")
            flat = tensor.array.reshape(-1, tensor.shape[-1] if tensor.ndim > 1 else tensor.size)
            fh.writelines(_reprs(row.tolist(), " ") + "\n" for row in flat)


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
        chunks, got = [], 0
        pos += 1
        while got < count and pos < len(lines) and not lines[pos].startswith("@"):
            try:
                chunks.append(_floats(lines[pos].split()))
            except ValueError as exc:
                raise ParseError(f"{path}:{pos + 1}: {exc}") from None
            got += chunks[-1].size
            pos += 1
        if got != count:
            raise ParseError(f"{path}: incomplete block for {name}: got {got} of {count} values")
        params[name] = Tensor(np.concatenate(chunks).reshape(shape), _checked=True)
    missing = [n for n in expected if n not in params]
    if missing:
        raise ValidationError(f"{path}: checkpoint is missing parameters {missing}")
    return params, config


# ---------------------------------------------------------------------------
# raw event / volume files


def write_events(path, events, channels):
    """One CSV row per event; auxiliary channels become named columns."""
    with replacing(path) as fh:
        fh.write(_header(["event_id", "label", "latitude", "longitude", "timestamp", *channels]))
        fh.writelines(
            ",".join([_cell(e.event_id), str(e.label), repr(float(e.latitude)),
                      repr(float(e.longitude)), str(e.timestamp)]
                     + [repr(float(e.auxiliary[c])) for c in channels]) + "\n"
            for e in events
        )


def load_events(path):
    """Returns (events, channels) with channels taken from the header.

    An event_id may appear only once.
    """
    with _rows(path, ("event_id", "label", "latitude", "longitude", "timestamp")) as (header, rows):
        channels = tuple(header[5:])
        events, seen = [], set()
        for _, fields in rows:
            if fields[0] in seen:
                raise ValidationError(f"repeated event_id {fields[0]!r}")
            seen.add(fields[0])
            numbers = _floats(fields[2:4] + fields[5:]).tolist()
            events.append(EventRecord(
                event_id=fields[0],
                label=int(fields[1]),
                latitude=numbers[0],
                longitude=numbers[1],
                timestamp=int(fields[4]),
                auxiliary=dict(zip(channels, numbers[2:])),
            ))
    return events, channels


def write_volumes(path, events, scans):
    """One CSV row per scan, in event order; scans[i] is the ScanBlock of events[i]."""
    if len(events) != len(scans):
        raise UsageError(f"got {len(events)} events but {len(scans)} scan blocks")
    dims = {block.grids.shape[1:] for block in scans}
    if len(dims) > 1:
        raise DimensionError(f"scan blocks disagree on grid dims: {sorted(dims)}")
    nx, ny, nz = dims.pop() if dims else (0, 0, 0)
    with replacing(path) as fh:
        fh.write(_header(["event_id", "timestamp", "nx", "ny", "nz", "missing"]
                         + [f"v_{j + 1}" for j in range(nx * ny * nz)]))
        for e, block in zip(events, scans):
            key = _cell(e.event_id)
            # one row per scan: the missing marker, then the flattened grid
            table = np.column_stack((block.missing, block.grids.reshape(len(block.grids), nx * ny * nz)))
            fh.writelines(f"{key},{stamp},{nx},{ny},{nz},{_reprs(row)}\n"
                          for stamp, row in zip(block.timestamps.tolist(), table.tolist()))


def load_volumes(path):
    """Returns {event_id: ScanBlock} in order of first appearance; the
    rows of one event need not be adjacent and stack in file order.
    Every row must carry the first row's grid dims."""
    with _table(path, ("event_id", "timestamp", "nx", "ny", "nz", "missing"), 5) as (header, rows):
        cells, dims, scans = len(header) - 6, None, {}
        for _, (event_id, stamp, *shape), numbers in rows:
            shape = tuple(shape)
            if shape != dims:
                if min(shape) < 1:
                    raise ValidationError(f"dims must be three positive ints, got {shape}")
                if math.prod(shape) != cells:
                    raise DimensionError(f"volume has {cells} cells, dims {shape} require {math.prod(shape)}")
                if dims:
                    raise DimensionError(f"grid dims {shape} differ from the first row's {dims}")
                dims = shape
            scans.setdefault(event_id, []).append((stamp, numbers))
    for event_id, entries in scans.items():
        stamps, numbers = zip(*entries)
        table = np.array(numbers)
        scans[event_id] = ScanBlock(stamps, table[:, 0], table[:, 1:].reshape(-1, *dims))
    return scans


# ---------------------------------------------------------------------------
# evaluation reports

_REPORT_FIELDS = (
    "model", "positive_class", "precision", "recall", "f1", "accuracy",
    "macro_precision", "macro_recall", "macro_f1",
) + tuple(f"cm{i}{j}" for i in LABELS for j in LABELS)


def write_report_csv(path, reports):
    """Machine-readable report: full-precision scores plus the flattened
    confusion matrix, one row per classifier."""
    with replacing(path) as fh:
        fh.write(_header(_REPORT_FIELDS, "\r\n"))
        for rep in reports:
            scores = (rep.precision, rep.recall, rep.f1, rep.accuracy,
                      rep.macro_precision, rep.macro_recall, rep.macro_f1)
            counts = ",".join(str(int(rep.confusion[i, j])) for i in LABELS for j in LABELS)
            fh.write(f"{_cell(rep.name)},{rep.positive_class},{_reprs(scores)},{counts}\r\n")


def read_report_csv(path):
    """Inverse of write_report_csv."""
    reports = []
    with _rows(path, _REPORT_FIELDS) as (header, rows):
        if len(header) != len(_REPORT_FIELDS):
            raise ParseError(f"{path}: header must be {','.join(_REPORT_FIELDS)}")
        for _, fields in rows:
            scores = _floats(fields[2:9], _REPORT_FIELDS[2:9]).tolist()
            cm = np.array([int(v) for v in fields[9:]], dtype=np.int64).reshape(3, 3)
            reports.append(MetricsReport(fields[0], int(fields[1]), *scores, confusion=cm))
    return reports
