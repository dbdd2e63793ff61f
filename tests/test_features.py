"""Feature extraction, sample assembly, balancing, and splitting."""

import numpy as np
import pytest

from stormstack.errors import DimensionError, UsageError, ValidationError
from stormstack.features import (
    AUX_CHANNELS,
    DEFAULT_THRESHOLD,
    MISSING,
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


def _scans(timestamps, *grids):
    # one (1, 1, cells) grid per timestamp, all cells present
    grids = np.asarray(grids, dtype=np.float64).reshape(len(timestamps), 1, 1, -1)
    return ScanBlock(timestamps, [MISSING] * len(timestamps), grids)


def _aux(value=1.0):
    return {c: float(value) for c in AUX_CHANNELS}


def _event(label=0, timestamp=100, aux=None):
    return EventRecord(event_id="ev0", label=label, latitude=35.0, longitude=-97.0,
                       timestamp=timestamp, auxiliary=_aux() if aux is None else aux)


def test_volume_validation():
    # a ScanBlock converts its three arrays and refuses mismatched lengths
    block = ScanBlock([40, 70], [MISSING, -1.0], np.zeros((2, 3, 2, 1)))
    assert block.timestamps.dtype == np.int64 and block.timestamps.tolist() == [40, 70]
    assert block.missing.dtype == np.float64 and block.missing.tolist() == [MISSING, -1.0]
    assert block.grids.dtype == np.float64 and block.grids.shape[1:] == (3, 2, 1)
    for timestamps, missing, grids in (
        ([40], [MISSING, MISSING], np.zeros((2, 1, 1, 1))),
        ([40, 70], [MISSING], np.zeros((2, 1, 1, 1))),
        ([40, 70], [MISSING, MISSING], np.zeros((3, 1, 1, 1))),
        ([40], [MISSING], np.zeros((1, 4))),
    ):
        with pytest.raises(DimensionError):
            ScanBlock(timestamps, missing, grids)


def test_event_validation():
    with pytest.raises(ValidationError):
        _event(label=3)
    with pytest.raises(ValidationError):
        EventRecord(event_id="e", label=0, latitude=91.0, longitude=0.0,
                    timestamp=0, auxiliary={})
    with pytest.raises(ValidationError):
        EventRecord(event_id="e", label=0, latitude=0.0, longitude=-181.0,
                    timestamp=0, auxiliary={})


def test_stats_fixture():
    got = extract_shsr_stats([0.0, 0.0, 50.0, 10.0])
    assert got == (0.0, 50.0, 15.0, 425.0, 2.0, 1.0)


def test_stats_constant_volume():
    got = extract_shsr_stats([7.0] * 6)
    assert got == (7.0, 7.0, 7.0, 0.0, 6.0, 0.0)
    zeros = extract_shsr_stats([0.0] * 4)
    assert zeros == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_stats_thresholds_are_strict():
    # exactly 45 is not above the threshold; exactly 0 is not nonzero;
    # negative values do count as nonzero
    got = extract_shsr_stats([45.0, 45.0000001, -3.0, 0.0])
    assert got[5] == 1.0
    assert got[4] == 3.0


def test_stats_ignore_missing_cells():
    plain = extract_shsr_stats([1.0, 2.0, 30.0])
    holed = extract_shsr_stats([1.0, MISSING, 2.0, MISSING, 30.0])
    assert plain == holed
    with pytest.raises(ValidationError):
        extract_shsr_stats([MISSING, MISSING])


def test_stats_custom_missing_marker():
    got = extract_shsr_stats([5.0, -1.0, 9.0], missing=-1.0)
    assert got[0] == 5.0 and got[4] == 2.0


def test_stats_match_brute_force():
    rng = np.random.default_rng(201)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        values = rng.uniform(-10.0, 60.0, size=n)
        values[rng.uniform(size=n) < 0.2] = MISSING
        if (values == MISSING).all():
            values[0] = 12.0
        thr = float(rng.uniform(20.0, 50.0))
        got = extract_shsr_stats(values, thr)
        valid = [v for v in values if v != MISSING]
        mean = sum(valid) / len(valid)
        var = sum((v - mean) ** 2 for v in valid) / len(valid)
        want = (min(valid), max(valid), mean, var,
                sum(1 for v in valid if abs(v) > 0), sum(1 for v in valid if v > thr))
        assert np.abs(np.array(got) - np.array(want)).max() < 1e-12
        assert got[0] <= got[2] <= got[1]
        assert got[3] >= 0.0


def test_build_sample_shape_and_order():
    vols = _scans([40, 70], [0.0, 0.0, 50.0, 10.0], [5.0, 5.0, 5.0, 5.0])
    sample = build_sample(_event(label=1), vols)
    assert sample.shape == (2, 6 + len(AUX_CHANNELS))
    assert tuple(sample[0, :6]) == (0.0, 50.0, 15.0, 425.0, 2.0, 1.0)
    assert tuple(sample[1, :6]) == (5.0, 5.0, 5.0, 0.0, 4.0, 0.0)
    #  aux columns repeat down the rows in AUX_CHANNELS order
    assert np.all(sample[:, 6:] == 1.0)
    event = _event(aux={c: float(i) for i, c in enumerate(AUX_CHANNELS)})
    sample = build_sample(event, vols)
    assert list(sample[0, 6:]) == [float(i) for i in range(len(AUX_CHANNELS))]


def test_build_sample_window_edges():
    # first scan may sit exactly at t-60; the event minute itself is out
    build_sample(_event(timestamp=100), _scans([40, 99], [1.0], [1.0]))
    with pytest.raises(ValidationError):
        build_sample(_event(timestamp=100), _scans([100], [1.0]))
    with pytest.raises(ValidationError):
        build_sample(_event(timestamp=100), _scans([39], [1.0]))


def test_build_sample_rejects_bad_volume_order():
    with pytest.raises(ValidationError):
        build_sample(_event(), _scans([50, 50], [1.0], [1.0]))
    with pytest.raises(ValidationError):
        build_sample(_event(), _scans([60, 50], [1.0], [1.0]))
    with pytest.raises(ValidationError):
        build_sample(_event(), ScanBlock([], [], np.zeros((0, 1, 1, 1))))


def test_build_sample_rejects_channel_mismatch():
    aux = _aux()
    del aux["pressure"]
    with pytest.raises(ValidationError):
        build_sample(_event(aux=aux), _scans([50], [1.0]))
    aux = _aux()
    aux["sunshine"] = 1.0
    with pytest.raises(ValidationError):
        build_sample(_event(aux=aux), _scans([50], [1.0]))


def test_build_sample_smooths_only_stats():
    rng = np.random.default_rng(8)
    vols = _scans(range(40, 52), *rng.uniform(0, 60, size=(12, 8)))
    raw = build_sample(_event(), vols)
    smoothed = build_sample(_event(), vols, kalman_q=0.01, kalman_r=1.0)
    want = smooth_series(raw[:, :6], 0.01, 1.0)
    assert np.array_equal(smoothed[:, :6], want)
    assert np.array_equal(smoothed[:, 6:], raw[:, 6:])
    # identical scans are a fixed point of the smoother
    same = _scans(range(40, 45), *[[3.0, 9.0]] * 5)
    assert np.array_equal(build_sample(_event(), same, kalman_q=0.5),
                          build_sample(_event(), same))


def test_build_sample_refuses_non_finite_values(recwarn):
    # the variance of +-1e308 overflows; the scan is named and no warning leaks
    with pytest.raises(ValidationError,
                       match=r"event ev0 scan at 41: statistic 4 of 6 is not finite \(inf\)"):
        build_sample(_event(), _scans([40, 41], [1.0, 2.0], [1e308, -1e308]))
    # finite statistics (one cell per scan) whose smoothed innovation overflows
    with pytest.raises(ValidationError,
                       match=r"scan at 41: smoothed statistic 1 of 6 is not finite \(-inf\)"):
        build_sample(_event(), _scans([40, 41], [1.7e308], [-1.7e308]), kalman_q=0.01)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _numpy_stats(grid, threshold=DEFAULT_THRESHOLD, missing=MISSING):
    # the statistics as NumPy's own min, max, mean and var give them
    valid = grid[grid != missing]
    return (valid.min(), valid.max(), valid.mean(), valid.var(),
            np.count_nonzero(np.abs(valid) > 0.0), np.count_nonzero(valid > threshold))


_EDGE_GRIDS = {
    "one valid cell": [MISSING, 7.25, MISSING, MISSING],
    "all cells equal": [0.1] * 37,
    "signed zeros": [0.0, -0.0, -0.0, 0.0, MISSING],
    "negative zeros": [-0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 2.5e-308, 1e-310, 0.0],
    "near 1e308": [1e308, 1.5e308, 1.7e308, MISSING],
    "near -1e308": [-1e308, -1.7e308, 1.0],
    "wide": np.random.default_rng(3).standard_normal(1001) * 1e3,
}


@pytest.mark.parametrize("name", list(_EDGE_GRIDS))
def test_stats_keep_numpys_bits(name, recwarn):
    grid = np.array(_EDGE_GRIDS[name], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        got = extract_shsr_stats(grid)
        want = _numpy_stats(grid)
    assert np.array(got).tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert not recwarn.list


def test_an_overflowing_mean_is_a_non_finite_statistic(recwarn):
    # the sum of cells near 1e308 overflows, so the mean is the first
    # statistic that is not finite
    with pytest.raises(ValidationError,
                       match=r"event ev0 scan at 41: statistic 3 of 6 is not finite \(inf\)"):
        build_sample(_event(), _scans([40, 41], [1.0, 2.0], [1.5e308, 1.7e308]))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _mini(labels):
    # one single-step sample s{i} per label
    return SequenceSet([f"s{i}" for i in range(len(labels))], labels,
                       [[[float(i), 0.0]] for i in range(len(labels))])


def _ids(samples):
    return list(samples.ids)


def test_sequence_set_stacks_and_takes():
    samples = _mini([2, 0, 1])
    assert len(samples) == 3
    assert samples.ids == ("s0", "s1", "s2")
    assert samples.labels.dtype == np.int64 and samples.data.shape == (3, 1, 2)
    picked = samples.take([2, 0])
    assert picked.ids == ("s2", "s0")
    assert picked.labels.tolist() == [1, 2]
    assert picked.data[:, 0, 0].tolist() == [2.0, 0.0]
    assert len(samples.take([])) == 0 and samples.take([]).data.shape == (0, 1, 2)


def test_sequence_set_checks_labels_and_lengths():
    with pytest.raises(ValidationError) as err:
        _mini([0, 3])
    assert "label must be 0, 1, or 2, got 3" in str(err.value)
    assert err.value.sample == 1
    with pytest.raises(DimensionError):
        SequenceSet(["a", "b"], [0], np.zeros((2, 1, 1)))
    with pytest.raises(DimensionError):
        SequenceSet(["a"], [0], np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        SequenceSet(["a"], [0], np.zeros((1, 1, 0)))


def test_class_counts():
    samples = _mini([0, 1, 1, 2, 2, 2])
    assert class_counts(samples) == {0: 1, 1: 2, 2: 3}


def test_balance_small_fixture():
    labels = [0, 1, 1, 2, 1, 2, 0, 1, 2, 1, 0, 2]   # 3 / 5 / 4
    samples = _mini(labels)
    out = balance(samples, seed=0)
    counts = class_counts(out)
    assert counts == {0: 3, 1: 3, 2: 3}
    # the minority class survives untouched, survivors keep input order
    assert [i for i, l in zip(out.ids, out.labels) if l == 0] == ["s0", "s6", "s10"]
    positions = {s: i for i, s in enumerate(samples.ids)}
    assert [positions[s] for s in out.ids] == sorted(positions[s] for s in out.ids)


def test_balance_noop_when_already_balanced():
    samples = _mini([i % 3 for i in range(9)])
    out = balance(samples, seed=123)
    assert _ids(out) == _ids(samples)


def test_balance_large_counts():
    samples = _mini([0] * 1364 + [1] * 5000 + [2] * 8000)
    out = balance(samples, seed=42)
    assert len(out) == 3 * 1364
    assert class_counts(out) == {0: 1364, 1: 1364, 2: 1364}
    again = balance(samples, seed=42)
    assert _ids(out) == _ids(again)
    assert _ids(out) != _ids(balance(samples, seed=43))


def test_balance_requires_all_classes():
    samples = _mini([0, 0, 1])
    with pytest.raises(ValidationError) as err:
        balance(samples, seed=0)
    assert "counts" in str(err.value)


def test_split_small_fixture():
    samples = _mini([i % 3 for i in range(30)])   # 10 per class
    parts = split(samples, (0.8, 0.1, 0.1), seed=0)
    assert parts.sizes() == (24, 3, 3)
    for part in (parts.train, parts.validation, parts.test):
        counts = class_counts(part)
        assert counts[0] == counts[1] == counts[2]


def test_split_large_fixture():
    samples = _mini([i % 3 for i in range(3 * 1364)])
    parts = split(samples, (0.8, 0.1, 0.1), seed=42)
    # floor(0.8 * 1364) = 1091 and floor(0.1 * 1364) = 136 per class;
    # the leftover 137 land in test
    assert parts.sizes() == (3273, 408, 411)


def test_split_is_a_disjoint_partition():
    samples = _mini([i % 3 for i in range(47)])
    parts = split(samples, (0.6, 0.2, 0.2), seed=9)
    ids = _ids(parts.train) + _ids(parts.validation) + _ids(parts.test)
    assert len(ids) == len(samples)
    assert set(ids) == set(_ids(samples))


def test_split_determinism():
    samples = _mini([i % 3 for i in range(60)])
    a = split(samples, (0.8, 0.1, 0.1), seed=7)
    b = split(samples, (0.8, 0.1, 0.1), seed=7)
    assert _ids(a.train) == _ids(b.train)
    assert _ids(a.validation) == _ids(b.validation)
    assert _ids(a.test) == _ids(b.test)
    c = split(samples, (0.8, 0.1, 0.1), seed=8)
    assert _ids(a.train) != _ids(c.train)


def test_split_assignment_is_positional():
    # renaming ids must not move any position between parts
    samples = _mini([i % 3 for i in range(30)])
    renamed = SequenceSet([f"x{i}" for i in range(30)], samples.labels, samples.data)
    a = split(samples, (0.8, 0.1, 0.1), seed=4)
    b = split(renamed, (0.8, 0.1, 0.1), seed=4)
    pos_a = {s: i for i, s in enumerate(samples.ids)}
    pos_b = {s: i for i, s in enumerate(renamed.ids)}
    assert [pos_a[s] for s in a.train.ids] == [pos_b[s] for s in b.train.ids]
    assert [pos_a[s] for s in a.test.ids] == [pos_b[s] for s in b.test.ids]


def test_split_validation():
    samples = _mini([i % 3 for i in range(6)])
    with pytest.raises(UsageError):
        split(samples.take([]), (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(UsageError):
        split(samples, (0.8, 0.2), seed=0)
    with pytest.raises(UsageError):
        split(samples, (0.8, 0.3, -0.1), seed=0)
    with pytest.raises(UsageError):
        split(samples, (0.7, 0.2, 0.2), seed=0)
    # a sum within 1e-9 of one is accepted
    split(samples, (0.8, 0.1, 0.1 + 1e-12), seed=0)
