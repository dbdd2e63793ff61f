"""Scalar Kalman smoothing as the feature pipeline uses it.

The per-channel smoother is a random-walk filter: state x, F = H = 1,
process noise q, measurement noise r.  Its gain schedule depends only
on q/r, which makes the two knobs easy to reason about: q = 0 trusts
the past completely (the output becomes the running mean), large q
trusts each new observation.
"""

import numpy as np

from stormstack.features import smooth_series

rng = np.random.default_rng(11)
truth = 30.0 + 8.0 * np.sin(np.linspace(0.0, 2.5, 12))
noisy = truth + rng.standard_normal(12) * 3.0

print("t   truth   noisy   q=0 (running mean)   q=0.05   q=5")
columns = [smooth_series(noisy.reshape(-1, 1), q, 1.0)[:, 0] for q in (0.0, 0.05, 5.0)]
for t in range(12):
    print(f"{t:<3d} {truth[t]:6.2f}  {noisy[t]:6.2f}  {columns[0][t]:12.2f}"
          f"       {columns[1][t]:7.2f} {columns[2][t]:6.2f}")

running_mean = np.cumsum(noisy) / np.arange(1, 13)
print()
print("q=0 vs running mean, max difference:",
      float(np.abs(columns[0] - running_mean).max()))

