"""Tests for the seeded synthetic storm generator."""

import numpy as np
import pytest

from stormstack.errors import ValidationError
from stormstack.features import AUX_CHANNELS, MISSING, SequenceSet, build_sample, split
from stormstack.model import KNNClassifier
from stormstack.rng import SplitMix64, subseed
from stormstack.synthetic import SyntheticConfig, generate_synthetic


def _tiny(**overrides):
    base = dict(samples_per_class=2, steps=4, grid=(4, 4, 2), cell=(2, 2, 1), seed=9)
    base.update(overrides)
    return SyntheticConfig(**base)


def test_shapes_and_class_major_order():
    cfg = _tiny(samples_per_class=4)
    events, volumes = generate_synthetic(cfg)
    assert len(events) == 12
    assert len(volumes) == 12
    assert [e.label for e in events] == [0] * 4 + [1] * 4 + [2] * 4
    assert [e.event_id for e in events] == [f"ev{i:05d}" for i in range(12)]
    for scans in volumes:
        assert scans.timestamps.shape == (cfg.steps,)
        assert scans.grids.shape == (cfg.steps,) + cfg.grid
        assert np.all(scans.missing == MISSING)


def test_timestamps_day_apart_with_hourly_scan_window():
    cfg = _tiny(steps=5)
    events, volumes = generate_synthetic(cfg)
    stamps = [e.timestamp for e in events]
    assert all(b - a == 1440 for a, b in zip(stamps, stamps[1:]))
    cadence = 60 // cfg.steps
    for e, scans in zip(events, volumes):
        assert scans.timestamps.tolist() == [e.timestamp - 60 + cadence * t
                                             for t in range(cfg.steps)]
        # every scan falls inside the (ts - 60, ts] hour the feature
        # builder windows on
        assert all(e.timestamp - 60 <= stamp < e.timestamp for stamp in scans.timestamps)


def test_same_seed_is_bit_identical():
    events_a, volumes_a = generate_synthetic(_tiny())
    events_b, volumes_b = generate_synthetic(_tiny())
    assert events_a == events_b
    for scans_a, scans_b in zip(volumes_a, volumes_b):
        assert np.array_equal(scans_a.timestamps, scans_b.timestamps)
        assert np.array_equal(scans_a.grids, scans_b.grids)


def test_different_seeds_differ():
    events_a, _ = generate_synthetic(_tiny(seed=0))
    events_b, _ = generate_synthetic(_tiny(seed=1))
    assert any(a.latitude != b.latitude for a, b in zip(events_a, events_b))


def test_events_at_shared_indices_survive_sample_count_changes():
    # Per-event sub-seeded streams: growing the dataset must not
    # perturb events already generated at the same index and label.
    small_events, small_volumes = generate_synthetic(_tiny(samples_per_class=2))
    large_events, large_volumes = generate_synthetic(_tiny(samples_per_class=3))
    for i in (0, 1):
        assert small_events[i] == large_events[i]
        assert np.array_equal(small_volumes[i].timestamps, large_volumes[i].timestamps)
        assert np.array_equal(small_volumes[i].grids, large_volumes[i].grids)


def test_generator_replays_from_documented_draw_order():
    # Re-derive one full event from the raw stream: path noise, corner,
    # drift, background, then location.  Everything before the aux
    # draws must reproduce bit for bit.
    cfg = _tiny(samples_per_class=1, steps=5, sigma=2.0, rho=0.5)
    events, volumes = generate_synthetic(cfg)
    nx, ny, nz = cfg.grid
    ex, ey, ez = cfg.cell
    cells = nx * ny * nz
    for index, (event, scans) in enumerate(zip(events, volumes)):
        label = event.label
        rng = SplitMix64(subseed(cfg.seed, index))
        noise = rng.normal_block(cfg.steps)
        corner = (rng.randbelow(nx - ex + 1),
                  rng.randbelow(ny - ey + 1),
                  rng.randbelow(nz - ez + 1))
        drift = (rng.randbelow(3) - 1, rng.randbelow(3) - 1, rng.randbelow(3) - 1)
        background = rng.normal_block(cfg.steps * cells)
        assert event.latitude == 30.0 + 15.0 * rng.uniform()
        assert event.longitude == -105.0 + 20.0 * rng.uniform()

        mean = cfg.peak_dbz[label]
        path = np.empty(cfg.steps)
        path[0] = mean + cfg.sigma * noise[0]
        innovation = cfg.sigma * np.sqrt(1.0 - cfg.rho * cfg.rho)
        for t in range(1, cfg.steps):
            path[t] = mean + cfg.rho * (path[t - 1] - mean) + innovation * noise[t]

        base = cfg.base_dbz[label]
        for t, grid in enumerate(scans.grids):
            field = base + cfg.sigma * background[t * cells:(t + 1) * cells].reshape(nx, ny, nz)
            np.clip(field, 0.0, None, out=field)
            x0 = min(max(corner[0] + t * drift[0], 0), nx - ex)
            y0 = min(max(corner[1] + t * drift[1], 0), ny - ey)
            z0 = min(max(corner[2] + t * drift[2], 0), nz - ez)
            field[x0:x0 + ex, y0:y0 + ey, z0:z0 + ez] += max(0.0, path[t] - base)
            assert np.array_equal(grid, field)


def test_zero_sigma_low_peak_gives_constant_fields():
    cfg = _tiny(samples_per_class=1, steps=3, sigma=0.0, peak_dbz=(10.0, 10.0, 10.0))
    events, volumes = generate_synthetic(cfg)
    for event, scans in zip(events, volumes):
        base = cfg.base_dbz[event.label]
        assert np.all(scans.grids == base)


def test_zero_sigma_puts_exact_cell_block_over_threshold():
    # With no noise the field is two-valued: base everywhere and the
    # class peak on the 3x3x2 storm block, so the strict > 45 count is
    # exactly the block size for the hot classes and zero for wind.
    cfg = SyntheticConfig(samples_per_class=1, steps=3, sigma=0.0, seed=5)
    events, volumes = generate_synthetic(cfg)
    block = 3 * 3 * 2
    for event, scans in zip(events, volumes):
        base = cfg.base_dbz[event.label]
        peak = cfg.peak_dbz[event.label]
        for grid in scans.grids:
            assert set(np.unique(grid)) == {base, peak}
            assert np.sum(grid == peak) == block
            expected_above = block if peak > 45.0 else 0
            assert np.sum(grid > 45.0) == expected_above


def test_above_threshold_fraction_orders_the_classes():
    cfg = SyntheticConfig(samples_per_class=8, steps=6, seed=7)
    events, volumes = generate_synthetic(cfg)
    fracs = {0: [], 1: [], 2: []}
    for event, scans in zip(events, volumes):
        for grid in scans.grids:
            fracs[event.label].append(np.mean(grid > 45.0))
    tornado, hail, wind = (np.mean(fracs[c]) for c in (0, 1, 2))
    assert tornado > hail > wind


def test_auxiliary_channels_cover_declared_ranges():
    cfg = _tiny(samples_per_class=5, steps=2)
    events, _ = generate_synthetic(cfg)
    for e in events:
        assert set(e.auxiliary) == set(AUX_CHANNELS)
        assert e.auxiliary["precip_type"] in {0.0, 1.0, 2.0, 3.0}
        assert 0.0 <= e.auxiliary["wind_direction"] < 360.0
        assert 30.0 <= e.latitude < 45.0
        assert -105.0 <= e.longitude < -85.0


def test_wind_speed_means_order_by_class():
    # wind events blow hardest, hail least; wide margins at this size
    cfg = _tiny(samples_per_class=150, steps=1, grid=(2, 2, 1), cell=(1, 1, 1))
    events, _ = generate_synthetic(cfg)
    means = {c: np.mean([e.auxiliary["wind_speed"] for e in events if e.label == c])
             for c in (0, 1, 2)}
    assert means[2] > means[0] > means[1]


def test_knn_learns_the_generated_classes():
    cfg = SyntheticConfig(samples_per_class=120, steps=12, seed=3)
    events, volumes = generate_synthetic(cfg)
    samples = SequenceSet([e.event_id for e in events], [e.label for e in events],
                          [build_sample(e, scans) for e, scans in zip(events, volumes)])
    parts = split(samples, (0.8, 0.1, 0.1), seed=3)
    knn = KNNClassifier(k=5).fit(parts.train)
    held_out = (parts.validation, parts.test)
    acc = np.mean(np.concatenate([knn.predict(part.data) == part.labels for part in held_out]))
    assert acc > 0.85


def test_samples_feed_the_feature_builder():
    cfg = _tiny(samples_per_class=1, steps=7)
    events, volumes = generate_synthetic(cfg)
    for event, scans in zip(events, volumes):
        sample = build_sample(event, scans)
        assert sample.shape == (7, 6 + len(AUX_CHANNELS))
        assert np.all(np.isfinite(sample))


def test_config_validation():
    bad = [
        dict(samples_per_class=0),
        dict(steps=0),
        dict(steps=61),
        dict(grid=(8, 8)),
        dict(grid=(0, 8, 4)),
        dict(cell=(9, 8, 4)),
        dict(cell=(3, 3)),
        dict(base_dbz=(20.0, 18.0)),
        dict(peak_dbz=(55.0,)),
        dict(rho=1.0),
        dict(rho=-0.1),
        dict(sigma=-1.0),
    ]
    for overrides in bad:
        with pytest.raises(ValidationError):
            SyntheticConfig(**overrides)
    # boundary values stay legal
    SyntheticConfig(steps=1)
    SyntheticConfig(steps=60)
    SyntheticConfig(rho=0.0)
    SyntheticConfig(sigma=0.0)
