"""Mutation fuzzing of the readers through the CLI.

Valid copies of `volumes.csv` and `events.csv` (read by `featurize`), of
a split file (read by `predict --input`), of `metrics_model.csv` (read
by `report`), of `model.ckpt` (read by `predict`) and of the run config
(read by `report`, the cheapest stage that reads one) are mutated by
byte flips, truncations, field swaps and duplicated lines, drawn from
a seeded SplitMix64 stream.  Every mutant must exit 0 or 2 with at most
one stderr line (a data error on exit 2), and raise no exception and no
warning; no CSV mutant may exit 3.  A checkpoint mutant may also exit 3
with one numeric error line, as a weight mutated to a huge value makes
the forward pass overflow.  A config mutant may also exit 1 with one
usage error line, for an unknown key or a file that is not UTF-8.

The Tier-1 run is a fixed-seed subset of a few seconds.  Set LONG_RUN
to True for the long run.
"""

import re
import shutil
import warnings

import pytest

from stormstack import cli
from stormstack.rng import SplitMix64

LONG_RUN = False
MUTANTS = 1000 if LONG_RUN else 48  # per target

TINY_CONFIG = """\
seed = 11
data.samples_per_class = 4
data.fractions = 0.5,0.25,0.25
data.steps = 5
data.grid = 4x4x2
data.cell = 2x2x1
model.conv = 4x3
model.hidden = 4
model.heads = 2
train.max_epochs = 1
train.batch_size = 4
train.patience = 1
"""


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG)
    for stage in ("generate", "featurize", "train", "evaluate"):
        assert cli.main([stage, "--config", str(config), "--out", str(root / "run")]) == 0
    return config, root / "run"


def _flip(data, rng):
    at = rng.randbelow(len(data))
    return data[:at] + bytes([data[at] ^ (1 << rng.randbelow(8))]) + data[at + 1:]


def _truncate(data, rng):
    return data[:rng.randbelow(len(data))]


def _swap_fields(data, rng):
    lines = data.split(b"\n")
    i = rng.randbelow(len(lines))
    fields = lines[i].split(b",")
    a, b = rng.randbelow(len(fields)), rng.randbelow(len(fields))
    fields[a], fields[b] = fields[b], fields[a]
    lines[i] = b",".join(fields)
    return b"\n".join(lines)


def _duplicate_line(data, rng):
    lines = data.split(b"\n")
    lines.insert(rng.randbelow(len(lines) + 1), lines[rng.randbelow(len(lines))])
    return b"\n".join(lines)


MUTATIONS = (_flip, _truncate, _swap_fields, _duplicate_line)


def _mutants(data, seed):
    """MUTANTS mutated copies of data, each from one to three mutations."""
    rng = SplitMix64(seed)
    for _ in range(MUTANTS):
        mutant, names = data, []
        for _ in range(1 + rng.randbelow(3)):
            mutation = MUTATIONS[rng.randbelow(len(MUTATIONS))]
            mutant = mutation(mutant, rng) if mutant else mutant
            names.append(mutation.__name__)
        yield mutant, names


ERROR_LINES = {1: "usage error: ", 2: "data error: ", 3: "numeric error: "}


def _check_exit(argv, capsys, what, codes=(0, 2)):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in codes, f"{what}: exit {code}: {err}"
    assert [str(w.message) for w in caught] == [], what
    if code == 0:
        assert err == "", what
    else:
        assert err.startswith(ERROR_LINES[code]) and err.count("\n") == 1, f"{what}: {err!r}"
    return code, err


def _last_changed_line(original, mutant):
    """The number of the last line of mutant that differs from original;
    the lines after it are original's last lines.  Lines end as the
    readers end them, at \\n, \\r or \\r\\n."""
    old, new = original.splitlines(), mutant.splitlines()
    same = 0
    while same < min(len(old), len(new)) and old[-1 - same] == new[-1 - same]:
        same += 1
    return len(new) - same


# volumes.csv faults that name no line: those of the whole file
VOLUMES_FILE_FAULTS = (": byte ", ": header ", "no volumes for events ",
                       "volumes for events not in events.csv ")


def test_mutated_volumes_exit_0_or_2(run, tmp_path, capsys):
    # a fault found in a record, while the file is parsed or after, names
    # that record's line or an earlier one (an event's scans are named at
    # the event's first row)
    config, source = run
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(source / "events.csv", out)
    original = (source / "volumes.csv").read_bytes()
    named = re.compile(re.escape(str(out / "volumes.csv")) + r":(\d+): ")
    for k, (mutant, names) in enumerate(_mutants(original, 1201)):
        (out / "volumes.csv").write_bytes(mutant)
        what = f"volumes mutant {k} ({', '.join(names)})"
        code, err = _check_exit(["featurize", "--config", str(config), "--out", str(out)], capsys, what)
        line = named.search(err)
        if code == 2 and line:
            assert int(line[1]) <= _last_changed_line(original, mutant), f"{what}: {err!r}"
        elif code == 2:
            assert any(fault in err for fault in VOLUMES_FILE_FAULTS), f"{what}: {err!r}"


def test_mutated_split_file_exits_0_or_2(run, tmp_path, capsys):
    config, source = run
    mutated = tmp_path / "input.csv"
    argv = ["predict", "--config", str(config), "--out", str(tmp_path / "run"),
            "--checkpoint", str(source / "model.ckpt"), "--input", str(mutated)]
    for k, (mutant, names) in enumerate(_mutants((source / "test.csv").read_bytes(), 1202)):
        mutated.write_bytes(mutant)
        _check_exit(argv, capsys, f"split mutant {k} ({', '.join(names)})")


def test_mutated_events_exit_0_or_2(run, tmp_path, capsys):
    config, source = run
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(source / "volumes.csv", out)
    for k, (mutant, names) in enumerate(_mutants((source / "events.csv").read_bytes(), 1203)):
        (out / "events.csv").write_bytes(mutant)
        _check_exit(["featurize", "--config", str(config), "--out", str(out)], capsys,
                    f"events mutant {k} ({', '.join(names)})")


def test_mutated_metrics_exit_0_or_2(run, tmp_path, capsys):
    config, source = run
    for k, (mutant, names) in enumerate(_mutants((source / "metrics_model.csv").read_bytes(), 1204)):
        (tmp_path / "metrics_model.csv").write_bytes(mutant)
        _check_exit(["report", "--config", str(config), "--out", str(tmp_path)], capsys,
                    f"metrics mutant {k} ({', '.join(names)})")


def test_mutated_checkpoint_exits_0_2_or_3(run, tmp_path, capsys):
    config, source = run
    mutated = tmp_path / "model.ckpt"
    argv = ["predict", "--config", str(config), "--out", str(tmp_path / "run"),
            "--checkpoint", str(mutated), "--input", str(source / "test.csv")]
    for k, (mutant, names) in enumerate(_mutants((source / "model.ckpt").read_bytes(), 1205)):
        mutated.write_bytes(mutant)
        _check_exit(argv, capsys, f"checkpoint mutant {k} ({', '.join(names)})", (0, 2, 3))


def test_mutated_config_exits_0_1_or_2(run, tmp_path, capsys):
    config, source = run
    shutil.copy(source / "metrics_model.csv", tmp_path)
    mutated = tmp_path / "run.cfg"
    argv = ["report", "--config", str(mutated), "--out", str(tmp_path)]
    for k, (mutant, names) in enumerate(_mutants(config.read_bytes(), 1206)):
        mutated.write_bytes(mutant)
        _check_exit(argv, capsys, f"config mutant {k} ({', '.join(names)})", (0, 1, 2))
