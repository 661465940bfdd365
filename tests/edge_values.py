"""Test inputs at the edges of the encoders' sign and rounding rules.

Each kind fills one scale group (a weight row group, or an activation
column) with values that are exact in the requested dtype:

- ``ties``: entries (k + 0.5) * s for the group's own scale s, so x / s
  lands exactly on a rounding tie, with one entry at the group maximum
  (float64: a float32 maximum; float32: -qmax * s for a power-of-two s);
- ``zero`` and ``neg_zero``: +0.0 and -0.0 throughout;
- ``subnormal``: float32-subnormal magnitudes whose scale does not
  underflow, but keeps so few bits that x / s can pass qmax + 0.5;
- ``normal``: wide-range normal values with some -0.0 entries.
"""

import numpy as np

KINDS = ("normal", "ties", "zero", "neg_zero", "subnormal")


def edge_values(rng, kind, m, qmax, dtype):
    """One scale group of ``m`` values of the given kind, as float64 values
    that are exact in ``dtype``."""
    sign = rng.choice([-1.0, 1.0], m)
    if kind == "zero":
        return np.zeros(m)
    if kind == "neg_zero":
        return np.full(m, -0.0)
    if kind == "subnormal":
        return rng.integers(127, 4000, m) * sign * 2.0**-149
    if kind == "ties" and dtype == np.float64:
        # Any float32 scale s: (k + 0.5) * s is exact in float64, so
        # x / s lands exactly on the tie.
        top = float(np.float32(rng.uniform(0.01, 100.0)))
        s = float(np.float32(top) / np.float32(qmax))
        group = (rng.integers(0, qmax, m) + 0.5) * s * sign
        group[rng.integers(m)] = top
        return group
    if kind == "ties":
        # A power-of-two scale keeps the ties exact in float32 too.
        s = 2.0 ** int(rng.integers(-30, 30))
        group = (rng.integers(0, qmax, m) + 0.5) * s * sign
        group[rng.integers(m)] = -qmax * s
        return group
    group = rng.normal(0, 1, m) * 10.0 ** rng.uniform(-3, 3)
    group[rng.random(m) < 0.2] = -0.0
    return group


def edge_weight(rng, kinds, n, m, g, qmax, dtype):
    """An n x m weight whose row groups of ``g`` columns each take the next
    kind of ``kinds`` in turn, so each group's ties are exact under
    per-group(g) scales (under per-channel, when g == m)."""
    groups = [edge_values(rng, kinds[i % len(kinds)], g, qmax, dtype)
              for i in range(n * (m // g))]
    return np.concatenate(groups).reshape(n, m).astype(dtype)
