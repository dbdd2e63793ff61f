"""File formats: sequence datasets, model checkpoints, evaluation
reports, predictions, and the raw event/volume files the generator
writes.

Everything is plain UTF-8 text with `\n` line endings, except that
`metrics_*.csv` rows end in `\r\n` (the csv module's default, kept so
the files stay byte-identical).  Reals are rendered with repr(), which
round-trips every double exactly, and the readers reject NaN and
infinity.  Checkpoint headers use config codecs.  Every CSV file is
read through `_table`, which takes the id and integer cells of each
record with str.split and the config integer form, and parses its
floats with np.loadtxt, so every CSV file has the same number grammar
and reports a malformed record the same way, at path:line.  Every file
is read the same way: a file of PART_FLOOR bytes or more that holds no
`"` is cut just after a \n into one part per CPU the process may run
on, and this process parses the first part while one forked worker
parses each other part, each with one np.loadtxt call on its own byte
range.  A smaller file, or one holding a `"` (a quoted record may hold
a \n), is one part, so it is read with no worker.
Every file is written through `replacing`, a row at a time (volumes.csv
an event at a time, formatted on every available CPU): text cells go
through `_cell` and floats through `_reprs`.  `_workers` forks, stops
and reaps the workers of both with os.fork and os.waitpid, and each
worker pickles what it sends back onto its own os.pipe.
"""

import csv
import io
import itertools
import math
import os
import pickle
import re
import signal
from collections import Counter
from contextlib import contextmanager, suppress

import numpy as np

from .config import INTEGER, integer, model_config_lines, parse_model_config, plain, read_items
from .errors import DataError, DimensionError, ParseError, StormError, UsageError, ValidationError, open_text
from .features import EventRecord, ScanBlock, SequenceSet
from .metrics import LABELS, MetricsReport
from .model import ModelConfig, expected_param_shapes
from .tensor import Tensor

CHECKPOINT_HEADER = "#stormstack-checkpoint v1"


# A file of at least this many bytes is parsed in parts, one per CPU the
# process may run on; below it, forking and sending a part back cost more
# than the split saves (CHANGES.md has the measurement).
PART_FLOOR = 4 << 20

# loadtxt numbers rows from 0 and columns from 1
_LOADTXT_ERROR = re.compile(r"(could not convert string .* to float64) at row (\d+), column (\d+)\.", re.S)


class _Fault(Exception):
    """A faulty record: (its row among the records of its part, message)."""


class _Span(io.RawIOBase):
    """Bytes start to end of the file open at fd, read with os.preadv, which
    leaves the file's own offset alone."""

    def __init__(self, fd, start, end):
        self._fd, self._at, self._end = fd, start, end

    def readable(self):
        return True

    def readinto(self, buffer):
        got = os.preadv(self._fd, [memoryview(buffer)[:self._end - self._at]], self._at)
        self._at += got
        return got


def _spans(fd):
    """The (start, end) byte spans of the file open at fd that _table
    parses apart: one per CPU this process may run on, each but the last
    ending just after a \\n; or the whole file, when it is under
    PART_FLOOR bytes or holds a `"` (a quoted record may hold a \\n)."""
    size = os.fstat(fd).st_size
    n = len(os.sched_getaffinity(0))
    if n < 2 or size < PART_FLOOR or any(b'"' in os.pread(fd, 1 << 20, at) for at in range(0, size, 1 << 20)):
        return [(0, size)]
    cuts = [0]
    for k in range(1, n):
        # just after the first \n at or past the k-th n-th of the file and the last cut
        at = max(cuts[-1], size * k // n)
        cut = at + len(io.BufferedReader(_Span(fd, at, size)).readline())
        if cut < size:
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [size]))


@contextmanager
def _table(path, fixed, ints):
    """Open the CSV file at path and read it as a table: column 0 is a
    text id, the columns numbered in ints are integers (ASCII digits with
    an optional sign) and every other column is a float, each part's
    floats parsed by one np.loadtxt call.  The header must start with
    fixed and name no column twice.

    Yields (header, rows); rows gives (line, [id, *ints], table, i) for
    each data record, its floats being row i of table, in column order.
    Lines count records, so a quoted id holding \\n is one line.  The
    whole file is parsed as the caller starts on rows, and its first
    fault (a field count, a number that does not parse, an integer beyond
    int64, a NaN or infinity) is raised as a ParseError naming
    path:line and, for a number, its column; a byte that is not UTF-8 is
    left to open_text.  Only then does the caller check records: a
    ValidationError or DimensionError it raises while handling one gains
    the record's path:line and keeps its class.  NaN and infinity are
    looked for once every float has parsed.  Numbers take the grammar
    of config.py: it refuses `1_000` and non-ASCII digits, which int()
    and float() take, and padding that is non-ASCII or \\x1c-\\x1f,
    which np.loadtxt strips.

    Every file is read the same way, in the parts _spans gives: this
    process parses the first, with the header, through the span reader,
    while one forked worker parses each other part from its own byte
    span and sends back its records and table.  A file of one part (one
    under PART_FLOOR bytes, or holding a `"`) is read with no worker.
    The faults and their order are those of one part, save which of two
    faults a byte that is not UTF-8 comes before.
    """
    lead = max(ints) + 1  # each record is split after its last integer cell
    line = 0  # the line of the record the caller is handling
    with open_text(path) as fh:
        spans = _spans(fh.fileno())

        def stream(start, end):  # one span, read as open_text reads the file
            return io.TextIOWrapper(io.BufferedReader(_Span(fh.fileno(), start, end)),
                                    encoding="utf-8", newline="")

        first = stream(*spans[0])
        reader = csv.reader(first)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        if header is None or header[:len(fixed)] != list(fixed):
            raise ParseError(f"{path}: header must start with {','.join(fixed)}")
        repeated = [name for name, count in Counter(header).items() if count > 1]
        if repeated:
            raise ParseError(f"{path}: header repeats column {repeated[0]!r}")
        width = len(header)
        floats = [c for c in range(1, width) if c not in ints]
        # the cells of a split record that hold floats: those among the
        # split-off cells, then the unsplit rest
        pick = [c for c in floats if c < lead] + ([lead] if width > lead else [])

        def parse(lines):
            """(records, table) of the records in lines; a fault raises _Fault."""
            records, ids = [], {}  # each id string is kept once, as a file repeats ids

            def tails():
                # each record's float cells as one line of text, once its id and ints are read
                for text in lines:
                    row = len(records)
                    quoted = '"' in text or len(text) > csv.field_size_limit()
                    if quoted:
                        # a quoted cell may hold , " \r or \n: the csv module
                        # reads the record, and the float cells are quoted again
                        record = csv.reader(itertools.chain([text], lines))
                        try:
                            fields = next(record)
                        except csv.Error as exc:
                            raise _Fault(row, str(exc)) from None
                        count = len(fields)
                    else:
                        text = text.rstrip("\r\n")
                        count = text.count(",") + 1 if text else 0
                        fields = text.split(",", lead)
                    if count != width:
                        raise _Fault(row, f"expected {width} fields, got {count}")
                    bad = next((c for c in ints if not INTEGER.fullmatch(fields[c])), None)
                    if bad is not None:
                        raise _Fault(row, f"invalid integer {fields[bad]!r} in column {header[bad]}")
                    numbers = [int(fields[c]) for c in ints]
                    if min(numbers) < -2 ** 63 or max(numbers) >= 2 ** 63:
                        c = next(c for c, n in zip(ints, numbers) if not -2 ** 63 <= n < 2 ** 63)
                        raise _Fault(row, f"integer {fields[c]} is beyond int64 in column {header[c]}")
                    records.append([ids.setdefault(fields[0], fields[0]), *numbers])
                    if floats:
                        tail = (",".join(_cell(fields[c]) for c in floats) if quoted
                                else ",".join([fields[c] for c in pick]))
                        if not plain(tail):  # loadtxt would take padding with \x1c-\x1f or a non-ASCII blank
                            cells = fields if quoted else text.split(",")
                            c = next(c for c in floats if not plain(cells[c]))
                            raise _Fault(row, f"could not convert string {cells[c]!r} to float64"
                                              f" in column {header[c]}")
                        yield tail or '""'  # loadtxt skips an empty line; this fails to convert

            tail = tails()
            head = next(tail, None)
            if head is None:  # no rows or no float columns, which loadtxt refuses
                return records, np.empty((len(records), len(floats)))
            try:
                table = np.loadtxt(itertools.chain([head], tail), delimiter=",", quotechar='"',
                                   comments=None, dtype=np.float64, ndmin=2)
            except UnicodeDecodeError:  # open_text names the byte
                raise
            except ValueError as exc:
                found = _LOADTXT_ERROR.fullmatch(str(exc))
                if found is None:  # worded otherwise by this numpy: no line to name
                    raise ParseError(f"{path}: {exc}") from None
                column = header[floats[int(found[3]) - 1]]
                raise _Fault(int(found[2]), f"{found[1]} in column {column}") from None
            return records, table

        def rows():
            nonlocal line
            parts = []  # (records, table) of each part parsed, in file order
            try:  # each worker sends its records and table as one item
                with _workers(lambda start, end: [parse(stream(start, end))], spans[1:]) as receive:
                    parts.append(parse(first))
                    parts.extend(receive(k) for k in range(len(spans) - 1))
            except _Fault as exc:
                row, message = exc.args
                raise ParseError(f"{path}:{sum(len(t) for _, t in parts) + row + 2}: {message}") from None
            row = 0  # the row of the file that each part's first record is
            for _, table in parts:
                ok = np.isfinite(table)
                if not ok.all():
                    i, column = divmod(int(np.argmin(ok)), table.shape[1])
                    raise ParseError(f"{path}:{row + i + 2}: non-finite value {float(table[i, column])!r}"
                                     f" in column {header[floats[column]]}")
                row += len(table)
            numbered = ((record, table, i) for records, table in parts for i, record in enumerate(records))
            for line, (record, table, i) in enumerate(numbered, 2):
                yield line, record, table, i
            line = 0

        try:
            yield header, rows()
        except (ValidationError, DimensionError) as exc:
            if not line:
                raise
            raise type(exc)(f"{path}:{line}: {exc}") from None


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

    Every sample must have the most common step count.
    """
    with _table(path, ("sample_id", "t", "label"), (1, 2)) as (header, rows):
        channels = len(header) - 3
        if header[3:] != [f"f_{j + 1}" for j in range(channels)]:
            raise ParseError(f"{path}: feature columns must be named f_1..f_{channels}")
        first_lines, labels, blocks, current = {}, [], [], None
        for lineno, (sample_id, t, label), table, i in rows:
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
            blocks[-1].append(table[i])
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
    # the config lines run to the first blank or @ line
    pos = next((i for i in range(1, len(lines)) if lines[i][:1] in ("", "@")), len(lines))
    config = parse_model_config(read_items(lines[1:pos], path, "checkpoint config", 2), path)
    expected = expected_param_shapes(config)
    params = {}
    while pos < len(lines):
        line, pos = lines[pos], pos + 1  # pos is now the line number of line
        if not line:
            continue
        if not line.startswith("@"):
            raise ParseError(f"{path}:{pos}: expected a @parameter block, got {line!r}")
        name, *dims = line[1:].split(" ")
        if name not in expected:
            raise ValidationError(f"{path}:{pos}: unknown parameter {name!r}")
        if name in params:
            raise ValidationError(f"{path}:{pos}: duplicate parameter {name!r}")
        try:
            shape = tuple(map(integer, dims))
        except ValueError:
            raise ParseError(f"{path}:{pos}: bad dimensions in {line!r}") from None
        if shape != expected[name]:
            raise DimensionError(f"{path}:{pos}: parameter {name} has shape {shape},"
                                 f" config requires {expected[name]}")
        count, start, chunks, got = int(np.prod(shape)), pos, [], 0
        while got < count and pos < len(lines) and not lines[pos].startswith("@"):
            line, pos = lines[pos], pos + 1
            try:  # one call parses the line, and plain text reads as float() does
                if not plain(line):
                    raise ValueError(f"could not convert string to float in {line!r}")
                values = np.array(line.split(), dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{pos}: {exc}") from None
            ok = np.isfinite(values)
            if not ok.all():
                raise ParseError(f"{path}:{pos}: non-finite value {float(values[np.argmin(ok)])!r}")
            chunks.append(values)
            got += values.size
        if got != count:
            state = f"incomplete block for {name}" if got < count else f"block for {name} is too long"
            raise ParseError(f"{path}:{start}: {state}: got {got} of {count} values")
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
    fixed = ("event_id", "label", "latitude", "longitude", "timestamp")
    with _table(path, fixed, (1, 4)) as (header, rows):
        channels = tuple(header[5:])
        events, seen = [], set()
        for _, (event_id, label, timestamp), table, i in rows:
            if event_id in seen:
                raise ValidationError(f"repeated event_id {event_id!r}")
            seen.add(event_id)
            latitude, longitude, *auxiliary = table[i].tolist()
            events.append(EventRecord(event_id, label, latitude, longitude, timestamp,
                                      dict(zip(channels, auxiliary))))
    return events, channels


def _volume_rows(event_id, block):
    """The volumes.csv rows of one event's ScanBlock, as one string."""
    key = _cell(event_id)
    _, nx, ny, nz = block.grids.shape
    # one row per scan: the missing marker, then the flattened grid
    table = np.column_stack((block.missing, block.grids.reshape(len(block.grids), nx * ny * nz)))
    return "".join(f"{key},{stamp},{nx},{ny},{nz},{_reprs(row)}\n"
                   for stamp, row in zip(block.timestamps.tolist(), table.tolist()))


_STOPS = (signal.SIGINT, signal.SIGTERM)


@contextmanager
def _stops_held():
    """Hold SIGINT and SIGTERM off for the block.  A process forked in it
    starts with both blocked; one that reaches this process meanwhile is
    raised again once the block ends, so its handler never runs between a
    fork and the bookkeeping that lets the handler's cleanup find the child."""
    caught = []
    handlers = {s: signal.signal(s, lambda signum, frame: caught.append(signum)) for s in _STOPS}
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOPS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for s, handler in handlers.items():
            signal.signal(s, handler)
        for s in caught:
            signal.raise_signal(s)


def _serve(readers, writer, work, share):
    """A forked worker: pickle each item of work(*share) onto the pipe end
    writer, in order, or the exception that stopped it.  It leaves by
    os._exit alone, so it never unwinds into the forking process's stack
    or its cleanup, nor flushes a buffer it inherited."""
    code = 1
    try:
        # a Ctrl-C reaches the whole process group; the forking process
        # alone handles it, and stops the workers.  SIGTERM, which it stops
        # them with, kills a worker outright: the forking process's handler
        # is not run here.  Both stay blocked until then (see _stops_held)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOPS)
        # with no read end left here, a write fails once the forking process is gone
        for reader in readers:
            reader.close()
        with open(writer, "wb") as out:
            try:  # protocol 5 writes a float64 array straight from its buffer
                for item in work(*share):
                    pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def _workers(work, shares):
    """Fork one worker per share; worker k runs work(*shares[k]), which
    gives the items it sends back, in order, pickled through its own pipe
    (see _serve).  Yields receive, where receive(k) is worker k's next
    item, an exception it sent being raised.  A pipe or fork that fails
    raises a StormError.  On any exception in the block the workers are
    sent SIGTERM; all are reaped before the block is left, so none
    outlives it."""
    workers = []  # (pid, the read end of its pipe), in share order
    codes = {}  # the exit code of each worker reaped, by pid

    def reap(pid):
        if pid not in codes:
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return codes[pid]

    def receive(k):
        pid, reader = workers[k]
        try:
            item = pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):  # cut off, maybe mid-item: killed, say out of memory
            raise StormError(f"a worker process ended early (exit code {reap(pid)})") from None
        if isinstance(item, BaseException):
            raise item
        return item

    try:
        for share in shares:
            try:
                reader, writer = os.pipe()
            except OSError as exc:
                raise StormError(f"cannot start a worker process: {exc}") from None
            reader = open(reader, "rb")
            try:
                with _stops_held():
                    pid = os.fork()
                    if pid == 0:  # forked, so work and share are inherited, not pickled
                        _serve([r for _, r in workers] + [reader], writer, work, share)
                    workers.append((pid, reader))
            except OSError as exc:
                reader.close()
                raise StormError(f"cannot start a worker process: {exc}") from None
            finally:
                os.close(writer)  # the worker holds the one write end, so its exit reads as EOF
        yield receive
    except BaseException:
        for pid, _ in workers:
            if pid not in codes:  # a reaped pid may be another process's by now
                os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, reader in workers:
            reap(pid)
            reader.close()


def write_volumes(path, events, scans):
    """One CSV row per scan, in event order; scans[i] is the ScanBlock of events[i].

    The rows are formatted by one forked worker per CPU this process may
    run on (see _workers): worker k of n takes events k, k + n, ... and
    sends each event's rows, and they are written in event order as they
    arrive.  The workers end before the file replaces path.
    """
    if len(events) != len(scans):
        raise UsageError(f"got {len(events)} events but {len(scans)} scan blocks")
    dims = {block.grids.shape[1:] for block in scans}
    if len(dims) > 1:
        raise DimensionError(f"scan blocks disagree on grid dims: {sorted(dims)}")
    nx, ny, nz = dims.pop() if dims else (0, 0, 0)
    n = len(os.sched_getaffinity(0))
    with replacing(path) as fh:
        fh.write(_header(["event_id", "timestamp", "nx", "ny", "nz", "missing"]
                         + [f"v_{j + 1}" for j in range(nx * ny * nz)]))
        ids = [e.event_id for e in events]
        with _workers(lambda ids, blocks: map(_volume_rows, ids, blocks),
                      [(ids[k::n], scans[k::n]) for k in range(n)]) as receive:
            for i in range(len(events)):
                fh.write(receive(i % n))


def load_volumes(path):
    """Returns ({event_id: ScanBlock}, {event_id: line of its first row}),
    in order of first appearance; the rows of one event need not be
    adjacent and stack in file order.  Every row must carry the first
    row's grid dims.  An event whose rows are adjacent in one part of the
    parse (see _table) gets views of that part's table, any other event
    a copy."""
    fixed = ("event_id", "timestamp", "nx", "ny", "nz", "missing")
    with _table(path, fixed, (1, 2, 3, 4)) as (header, rows):
        cells, dims, scans, first_lines = len(header) - 6, None, {}, {}
        for line, (event_id, stamp, *shape), table, i in rows:
            shape = tuple(shape)
            if shape != dims:
                if min(shape) < 1:
                    raise ValidationError(f"dims must be three positive ints, got {shape}")
                if math.prod(shape) != cells:
                    raise DimensionError(f"volume has {cells} cells, dims {shape} require {math.prod(shape)}")
                if dims:
                    raise DimensionError(f"grid dims {shape} differ from the first row's {dims}")
                dims = shape
            first_lines.setdefault(event_id, line)
            scans.setdefault(event_id, []).append((stamp, table, i))
    for event_id, entries in scans.items():
        stamps, tables, index = zip(*entries)
        if index[-1] - index[0] == len(index) - 1 and all(t is tables[0] for t in tables):
            block = tables[0][index[0]:index[-1] + 1]
        else:
            block = np.array([t[i] for t, i in zip(tables, index)])
        scans[event_id] = ScanBlock(stamps, block[:, 0], block[:, 1:].reshape(-1, *dims))
    return scans, first_lines


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
    with _table(path, _REPORT_FIELDS, (1, *range(9, 18))) as (header, rows):
        if len(header) != len(_REPORT_FIELDS):
            raise ParseError(f"{path}: header must be {','.join(_REPORT_FIELDS)}")
        for _, (name, positive_class, *counts), table, i in rows:
            cm = np.array(counts, dtype=np.int64).reshape(3, 3)
            reports.append(MetricsReport(name, positive_class, *table[i].tolist(), confusion=cm))
    return reports
