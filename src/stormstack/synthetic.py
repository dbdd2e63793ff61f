"""Seeded synthetic storm-event generator.

Stands in for real radar archives: every event gets one hour of volume
scans in which a moving storm cell rides on clipped Gaussian background
noise.  The cell's peak reflectivity follows an AR(1) path around a
class-dependent mean, so the above-threshold count (and the other
volume statistics) carry the class signal.  All randomness flows from
SplitMix64; each event uses its own sub-seeded stream, so generation
order cannot perturb the output and per-event work could run in
parallel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .features import AUX_CHANNELS, MISSING, EventRecord, ScanBlock
from .rng import SplitMix64, subseed

# minutes since epoch, spring 2021-ish; events land a day apart
_BASE_TIMESTAMP = 27_000_000

# channel -> (per-class means, spread); drawn in AUX_CHANNELS order.
# wind_speed and pressure carry a mild class signal, the rest are
# weather-plausible noise.
_AUX_GAUSSIANS = {
    "temperature": ((18.0, 18.0, 18.0), 7.0),
    "humidity": ((65.0, 65.0, 65.0), 15.0),
    "dew_point": ((12.0, 12.0, 12.0), 6.0),
    "precip_amount": ((8.0, 8.0, 8.0), 5.0),
    "wind_speed": ((16.0, 12.0, 22.0), 8.0),
    "pressure": ((995.0, 1002.0, 1000.0), 9.0),
    "cloud_cover": ((70.0, 70.0, 70.0), 20.0),
    "visibility": ((9.0, 9.0, 9.0), 4.0),
}


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings.

    base_dbz and peak_dbz give per-class background level and mean cell
    peak; the default peaks (55, 48, 35) straddle the 45 dBZ threshold
    so the above-threshold count separates the classes.  sigma drives
    both the background noise and the stationary spread of the AR(1)
    peak path; rho is the path's temporal coefficient.
    """

    samples_per_class: int = 500
    steps: int = 12
    grid: tuple = (8, 8, 4)
    cell: tuple = (3, 3, 2)
    base_dbz: tuple = (20.0, 18.0, 14.0)
    peak_dbz: tuple = (55.0, 48.0, 35.0)
    rho: float = 0.85
    sigma: float = 5.0
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(int(d) for d in self.grid))
        object.__setattr__(self, "cell", tuple(int(d) for d in self.cell))
        object.__setattr__(self, "base_dbz", tuple(float(v) for v in self.base_dbz))
        object.__setattr__(self, "peak_dbz", tuple(float(v) for v in self.peak_dbz))
        if self.samples_per_class < 1:
            raise ValidationError(f"samples_per_class must be positive, got {self.samples_per_class}")
        if not 1 <= self.steps <= 60:
            raise ValidationError(f"steps must lie in 1..60 to fit the event hour, got {self.steps}")
        if len(self.grid) != 3 or min(self.grid) < 1:
            raise ValidationError(f"grid must be three positive extents, got {self.grid}")
        if len(self.cell) != 3 or any(c < 1 or c > g for c, g in zip(self.cell, self.grid)):
            raise ValidationError(f"cell {self.cell} must fit inside grid {self.grid}")
        if len(self.base_dbz) != 3 or len(self.peak_dbz) != 3:
            raise ValidationError("base_dbz and peak_dbz need one value per class")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError(f"rho must lie in [0, 1), got {self.rho}")
        if self.sigma < 0.0:
            raise ValidationError(f"sigma must be nonnegative, got {self.sigma}")


def _peak_path(cfg, label, noise):
    """AR(1) around the class mean peak with stationary spread sigma."""
    mean = cfg.peak_dbz[label]
    path = np.empty(cfg.steps)
    path[0] = mean + cfg.sigma * noise[0]
    innovation = cfg.sigma * np.sqrt(1.0 - cfg.rho * cfg.rho)
    for t in range(1, cfg.steps):
        path[t] = mean + cfg.rho * (path[t - 1] - mean) + innovation * noise[t]
    return path


@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(cfg: SyntheticConfig):
    """Build (events, scans) where the ScanBlock scans[i] holds the
    cfg.steps volume scans of events[i].

    Events are emitted class-major (all tornado samples, then hail,
    then wind).  Each event consumes its own SplitMix64 stream seeded
    by subseed(cfg.seed, event index), drawing in a fixed order: peak
    path noise, cell corner and drift, background noise, location, then
    the auxiliary channels in AUX_CHANNELS order.  An event whose
    volumes overflow (a huge sigma, say) raises a NumericError naming
    it; the peak path reaches the volumes only through max(0.0, ...).
    """
    nx, ny, nz = cfg.grid
    ex, ey, ez = cfg.cell
    cadence = 60 // cfg.steps
    events = []
    scans = []
    for index in range(3 * cfg.samples_per_class):
        label = index // cfg.samples_per_class
        rng = SplitMix64(subseed(cfg.seed, index))
        path = _peak_path(cfg, label, rng.normal_block(cfg.steps))
        corner = (
            rng.randbelow(nx - ex + 1),
            rng.randbelow(ny - ey + 1),
            rng.randbelow(nz - ez + 1),
        )
        drift = (rng.randbelow(3) - 1, rng.randbelow(3) - 1, rng.randbelow(3) - 1)
        background = rng.normal_block(cfg.steps * nx * ny * nz)
        latitude = 30.0 + 15.0 * rng.uniform()
        longitude = -105.0 + 20.0 * rng.uniform()
        aux = {}
        for channel in AUX_CHANNELS:
            if channel == "precip_type":
                aux[channel] = float(rng.randbelow(4))
            elif channel == "wind_direction":
                aux[channel] = 360.0 * rng.uniform()
            else:
                means, spread = _AUX_GAUSSIANS[channel]
                aux[channel] = means[label] + spread * rng.normal()
        timestamp = _BASE_TIMESTAMP + index * 1440
        base = cfg.base_dbz[label]
        grids = base + cfg.sigma * background.reshape(cfg.steps, nx, ny, nz)
        np.clip(grids, 0.0, None, out=grids)
        # the cell's corner drifts one step per scan, clamped inside the grid
        corners = np.outer(np.arange(cfg.steps), drift) + corner
        corners = np.clip(corners, 0, (nx - ex, ny - ey, nz - ez))
        for t, (x0, y0, z0) in enumerate(corners.tolist()):
            grids[t, x0:x0 + ex, y0:y0 + ey, z0:z0 + ez] += max(0.0, path[t] - base)
        event_id = f"ev{index:05d}"
        if not np.isfinite(grids).all():
            raise NumericError(f"the volumes of event {event_id} are not finite")
        scans.append(ScanBlock(timestamp - 60 + cadence * np.arange(cfg.steps),
                               np.full(cfg.steps, MISSING), grids))
        events.append(EventRecord(
            event_id=event_id,
            label=label,
            latitude=latitude,
            longitude=longitude,
            timestamp=timestamp,
            auxiliary=aux,
        ))
    return events, scans
