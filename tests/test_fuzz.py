"""Mutation fuzzing of the two wide-table readers through the CLI.

Valid copies of `volumes.csv` (read by `featurize`) and of a split file
(read by `predict --input`) are mutated by byte flips, truncations,
field swaps and duplicated lines, drawn from a seeded SplitMix64
stream.  Every mutant must exit 0 or 2 with at most one stderr line (a
data error on exit 2), and raise no exception and no warning; in
particular no mutant may exit 3.

The Tier-1 run is a fixed-seed subset of a few seconds.  Set LONG_RUN
to True for the long run.
"""

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
    for stage in ("generate", "featurize", "train"):
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


def _check_exit(argv, capsys, what):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), f"{what}: exit {code}: {err}"
    assert [str(w.message) for w in caught] == [], what
    if code == 0:
        assert err == "", what
    else:
        assert err.startswith("data error: ") and err.count("\n") == 1, f"{what}: {err!r}"


def test_mutated_volumes_exit_0_or_2(run, tmp_path, capsys):
    config, source = run
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(source / "events.csv", out)
    for k, (mutant, names) in enumerate(_mutants((source / "volumes.csv").read_bytes(), 1201)):
        (out / "volumes.csv").write_bytes(mutant)
        _check_exit(["featurize", "--config", str(config), "--out", str(out)], capsys,
                    f"volumes mutant {k} ({', '.join(names)})")


def test_mutated_split_file_exits_0_or_2(run, tmp_path, capsys):
    config, source = run
    mutated = tmp_path / "input.csv"
    argv = ["predict", "--config", str(config), "--out", str(tmp_path / "run"),
            "--checkpoint", str(source / "model.ckpt"), "--input", str(mutated)]
    for k, (mutant, names) in enumerate(_mutants((source / "test.csv").read_bytes(), 1202)):
        mutated.write_bytes(mutant)
        _check_exit(argv, capsys, f"split mutant {k} ({', '.join(names)})")
