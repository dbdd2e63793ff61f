"""From raw volume scans to a balanced, split, model-ready dataset.

Each scan collapses to six statistics (min, max, mean, variance,
nonzero count, above-threshold count) over its non-missing cells; a
sample is those statistics per scan plus the event's auxiliary
channels, optionally Kalman-smoothed along time.
"""

import numpy as np

from stormstack.features import (
    SequenceSet, balance, build_sample, class_counts, extract_shsr_stats, split,
)
from stormstack.synthetic import SyntheticConfig, generate_synthetic

print("== one volume, six numbers ==")
values = np.array([0.0, 0.0, 50.0, 10.0, -999.0, 30.0])
stats = extract_shsr_stats(values.reshape(3, 2, 1), threshold=45.0)
print("cells:", values, " (the -999 marker is excluded)")
for name, value in zip(("min", "max", "mean", "variance", "nonzero", "above 45"), stats):
    print(f"  {name:<9s} {value:g}")

print()
print("== sequences, with and without smoothing ==")
cfg = SyntheticConfig(samples_per_class=12, steps=6, seed=13)
events, volumes = generate_synthetic(cfg)
raw = build_sample(events[0], volumes[0])
smoothed = build_sample(events[0], volumes[0], kalman_q=0.01)
print(f"sample {events[0].event_id}: shape {raw.shape}"
      " (6 statistics + 10 auxiliary channels)")
print("max-reflectivity channel, raw:     ",
      np.round(raw[:, 1], 2))
print("max-reflectivity channel, smoothed:",
      np.round(smoothed[:, 1], 2))
print("auxiliary channels repeat per row and bypass the smoother:",
      bool(np.array_equal(raw[:, 6:], smoothed[:, 6:])))

print()
print("== balance, then split ==")
samples = SequenceSet([e.event_id for e in events], [e.label for e in events],
                      [build_sample(e, v, kalman_q=0.01) for e, v in zip(events, volumes)])
print("stacked dataset: data", samples.data.shape, "labels", samples.labels.shape)
# drop a few wind samples to fake an imbalanced archive
lopsided = samples.take([i for i, (sample_id, label) in enumerate(zip(samples.ids, samples.labels))
                         if not (label == 2 and sample_id >= "ev00034")])
print("class counts before:", class_counts(lopsided))
balanced = balance(lopsided, seed=5)
print("class counts after: ", class_counts(balanced))
parts = split(balanced, (0.8, 0.1, 0.1), seed=5)
print("train/val/test sizes:", parts.sizes())
print("every part stays stratified:",
      class_counts(parts.train), class_counts(parts.validation), class_counts(parts.test))
