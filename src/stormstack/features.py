"""Feature engineering: reflectivity statistics, Kalman smoothing,
sample assembly, class balancing, and stratified splitting.

Each storm event contributes one sequence sample.  A sample row holds
six reflectivity statistics for one volume scan followed by the event's
auxiliary scalar channels, so the channel count is 6 + len(aux).
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError, ValidationError
from .rng import SplitMix64

MISSING = -999.0
DEFAULT_THRESHOLD = 45.0
CLASS_NAMES = ("tornado", "hail", "wind")

AUX_CHANNELS = (
    "temperature",
    "humidity",
    "dew_point",
    "precip_amount",
    "precip_type",
    "wind_speed",
    "wind_direction",
    "pressure",
    "cloud_cover",
    "visibility",
)


@dataclass(frozen=True)
class ScanBlock:
    """One event's volume scans stacked: int64 timestamps (T,), float64
    missing-value markers (T,) and float64 grids (T, nx, ny, nz)."""

    timestamps: np.ndarray
    missing: np.ndarray
    grids: np.ndarray

    def __post_init__(self):
        for name, dtype in (("timestamps", np.int64), ("missing", float), ("grids", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shapes = (self.timestamps.shape, self.missing.shape, self.grids.shape)
        if self.grids.ndim != 4 or not shapes[0] == shapes[1] == shapes[2][:1]:
            raise DimensionError(f"scan block shapes {shapes} are not (T,), (T,), (T, nx, ny, nz)")


@dataclass(frozen=True)
class EventRecord:
    """One storm event: identity, class label, location, and auxiliary
    scalar observations keyed by channel name."""

    event_id: str
    label: int
    latitude: float
    longitude: float
    timestamp: int
    auxiliary: dict

    def __post_init__(self):
        if self.label not in (0, 1, 2):
            raise ValidationError(f"label must be 0, 1, or 2, got {self.label}")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValidationError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValidationError(f"longitude out of range: {self.longitude}")


@dataclass(frozen=True)
class SequenceSet:
    """N samples stacked: ids, int64 labels (N,) and float64 data
    (N, steps, channels).

    data may also be given as a sequence of (steps, channels) matrices;
    every sample must share one shape (a sample off the most common one
    is named beside one on it) and carry a label in {0, 1, 2}.
    A DataError about one sample has that sample's index in `.sample`.
    """

    ids: tuple
    labels: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        labels = np.asarray(self.labels, dtype=np.int64)
        shapes = [np.shape(m) for m in self.data]
        if labels.shape != (len(ids),) or len(shapes) != len(ids):
            raise DimensionError(
                f"got {len(ids)} ids, {labels.size} labels and {len(shapes)} samples"
            )
        bad = np.flatnonzero((labels < 0) | (labels > 2))
        if bad.size:
            raise _sample_error(ValidationError, int(bad[0]),
                                f"label must be 0, 1, or 2, got {labels[bad[0]]}")
        common = Counter(shapes).most_common(1)[0][0] if shapes else None  # a tie keeps sample 0's
        for i, shape in enumerate(shapes):
            if shape != common:
                raise _sample_error(DimensionError, i, f"sample {ids[i]} has shape {shape},"
                                    f" sample {ids[shapes.index(common)]} has {common}")
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise DimensionError(f"data must be (samples, steps, channels), got {data.shape}")
        if ids and 0 in data.shape[1:]:
            raise _sample_error(ValidationError, 0, "feature sequence must be nonempty")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "data", data)

    def __len__(self):
        return len(self.ids)

    def take(self, index):
        """The samples at the given positions, in that order."""
        index = np.asarray(index, dtype=np.int64)
        return SequenceSet(tuple(self.ids[i] for i in index), self.labels[index], self.data[index])


def _sample_error(cls, index, message):
    exc = cls(message)
    exc.sample = index
    return exc


@dataclass(frozen=True)
class DatasetSplit:
    """Train/validation/test partition of a SequenceSet."""

    train: SequenceSet
    validation: SequenceSet
    test: SequenceSet

    def sizes(self):
        return (len(self.train), len(self.validation), len(self.test))


def extract_shsr_stats(grid, threshold: float = DEFAULT_THRESHOLD, missing: float = MISSING):
    """Six statistics over the cells of one scan's grid that are not `missing`.

    Returns (min, max, mean, variance, nonzero count, above-threshold
    count).  Variance is the population variance; the nonzero count
    uses |v| > 0 and the threshold count v > threshold, both strict.
    The reductions are those NumPy's min, max, mean and var make, in the
    same order, so the bits are theirs; the mean is taken once.
    """
    grid = np.asarray(grid, dtype=np.float64)
    valid = grid[grid != missing]
    count = valid.size
    if count == 0:
        raise ValidationError("volume has no non-missing cells")
    mean = np.add.reduce(valid) / count
    spread = valid - mean
    return (
        float(np.minimum.reduce(valid)),
        float(np.maximum.reduce(valid)),
        float(mean),
        float(np.add.reduce(np.multiply(spread, spread, out=spread)) / count),
        float(np.count_nonzero(np.abs(valid) > 0.0)),
        float(np.count_nonzero(valid > threshold)),
    )


def build_sample(
    event: EventRecord,
    scans: ScanBlock,
    threshold: float = DEFAULT_THRESHOLD,
    channels=AUX_CHANNELS,
    kalman_q: float = None,
    kalman_r: float = 1.0,
):
    """Assemble the (T, 6 + len(channels)) feature matrix for one event.

    Row t holds the statistics of scan t followed by the event's
    auxiliary channels in the configured order (auxiliary values repeat
    across rows).  Scans must be in strictly increasing timestamp order
    and fall inside the hour before the event.  When kalman_q is given,
    the six statistic channels are smoothed with the scalar random-walk
    filter; auxiliary channels are constant and pass through unchanged.
    """
    stamps = scans.timestamps.tolist()
    if not stamps:
        raise ValidationError(f"event {event.event_id} has no volumes")
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise ValidationError(f"event {event.event_id} volume timestamps must strictly increase")
    lo, hi = event.timestamp - 60, event.timestamp
    if stamps[0] < lo or stamps[-1] >= hi:
        raise ValidationError(
            f"event {event.event_id} volumes must fall in [{lo}, {hi}), got [{stamps[0]}, {stamps[-1]}]"
        )
    missing = [c for c in channels if c not in event.auxiliary]
    extra = [c for c in event.auxiliary if c not in channels]
    if missing or extra:
        raise ValidationError(
            f"event {event.event_id} auxiliary channels do not match configuration"
            f" (missing {missing}, unexpected {extra})"
        )
    stats = []
    # overflow shows up as a non-finite value, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for stamp, marker, grid in zip(stamps, scans.missing, scans.grids):
            try:
                stats.append(extract_shsr_stats(grid, threshold, marker))
            except ValidationError as exc:
                raise ValidationError(f"event {event.event_id} scan at {stamp}: {exc}") from None
        stats = np.array(stats)
        _check_finite(event, stamps, stats, "statistic")
        if kalman_q is not None:
            stats = smooth_series(stats, kalman_q, kalman_r)
            _check_finite(event, stamps, stats, "smoothed statistic")
    aux = np.array([float(event.auxiliary[c]) for c in channels])
    return np.hstack([stats, np.tile(aux, (stats.shape[0], 1))])


def _check_finite(event, stamps, stats, what):
    finite = np.isfinite(stats)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValidationError(f"event {event.event_id} scan at {stamps[row]}: {what} {col + 1}"
                              f" of {stats.shape[1]} is not finite ({stats[row, col]})")


def smooth_series(series, q: float, r: float) -> np.ndarray:
    """Smooth every channel of a (T, D) series with a scalar random-walk
    Kalman filter (F=1, H=1, B=0, Q=q, R=r).

    The state starts at the channel's first observation with P0 = r, so
    short sequences carry no burn-in transient.  Row t of the output is
    the posterior estimate after consuming observation t.  The gain
    schedule depends only on q and r, so all channels share it.  Every
    covariance the recursion forms is at most q + 2r, so that sum must
    be finite.
    """
    series = np.atleast_2d(np.asarray(series, dtype=np.float64))
    if series.size == 0:
        raise UsageError("smooth_series needs a nonempty series")
    if q < 0:
        raise UsageError(f"process noise q must be nonnegative, got {q}")
    if r <= 0:
        raise UsageError(f"measurement noise r must be positive, got {r}")
    if not np.isfinite(q + 2 * r):
        raise UsageError(f"smoothing noise overflows: kalman.q + 2 * kalman.r must be finite,"
                         f" got kalman.q={q}, kalman.r={r}")
    steps = series.shape[0]
    out = np.empty_like(series)
    x = series[0].copy()
    out[0] = x
    cov = r
    for t in range(1, steps):
        cov = cov + q
        gain = cov / (cov + r)
        x = x + gain * (series[t] - x)
        cov = (1.0 - gain) * cov
        out[t] = x
    return out


def class_counts(samples):
    """Per-class sample counts as a {label: count} dict over 0, 1, 2."""
    return dict(enumerate(np.bincount(samples.labels, minlength=3).tolist()))


def balance(samples, seed: int):
    """Downsample every class to the size of the smallest one.

    Classes are visited in ascending label order; the kept subset of
    each oversized class is chosen by seeded draws without replacement,
    and survivors keep their relative order from the input.  The
    minority class is kept whole.
    """
    counts = class_counts(samples)
    absent = [label for label, n in counts.items() if n == 0]
    if absent:
        raise ValidationError(f"balance needs all three classes present; no samples of"
                              f" classes {absent} (counts {counts})")
    target = min(counts.values())
    rng = SplitMix64(seed)
    keep = []
    for label in (0, 1, 2):
        positions = np.flatnonzero(samples.labels == label)
        if len(positions) > target:
            positions = positions[rng.choose_indices(len(positions), target)]
        keep.append(positions)
    return samples.take(np.sort(np.concatenate(keep)))


def split(samples, fractions, seed: int) -> DatasetSplit:
    """Stratified split into train/validation/test parts.

    Each class is shuffled with the seeded generator, then the first
    floor(f_train * n) go to train, the next floor(f_val * n) to
    validation, and the remainder to test.  Fractions must be three
    nonnegative numbers summing to 1.
    """
    if len(samples) == 0:
        raise UsageError("split needs a nonempty sample list")
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or min(fractions) < 0:
        raise UsageError(f"fractions must be three nonnegative numbers, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise UsageError(f"fractions must sum to 1, got {fractions}")
    rng = SplitMix64(seed)
    train, validation, test = [], [], []
    for label in (0, 1, 2):
        members = np.flatnonzero(samples.labels == label).tolist()
        rng.shuffle(members)
        n = len(members)
        n_train = int(fractions[0] * n)
        n_val = int(fractions[1] * n)
        train.extend(members[:n_train])
        validation.extend(members[n_train:n_train + n_val])
        test.extend(members[n_train + n_val:])
    return DatasetSplit(*(samples.take(part) for part in (train, validation, test)))
