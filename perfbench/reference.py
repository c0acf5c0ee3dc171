"""The reference kernel that the benchmark's times are measured against.

The host lends the benchmark a share of shared cores, and that share
changes from one second to the next and from one run to the next: the same
operation on the same inputs has taken anything from 1× to 2× its fastest
time. The runner therefore measures this fixed kernel between the timed
pieces of every operation and reports each piece's time as a multiple of the
kernel's time next to it. A host that runs everything 30% slower for a while
slows both, and the multiple stays.

The kernel mixes the kinds of work the workloads do, none of it in BLAS:

- small two-dimensional elementwise numpy expressions, as in the shrinkage
  quadrature (16² to 64² nodes);
- elementwise numpy over 130 000 values, as in the Monte Carlo
  estimator and the chains' vector updates;
- a Python loop over scalars and small arrays, as in the spike-and-slab
  coordinate sweep;
- formatting and parsing floats as text, as in the draw files.

It calls nothing in ``shrinksel`` and no BLAS routine, so no change to the
package, and no change to the BLAS thread count, changes its time. It uses
one thread.
"""

from __future__ import annotations

import math

import numpy as np

_rng = np.random.default_rng(20150314)
_LARGE = _rng.uniform(0.01, 0.99, 1 << 17)
_VEC = _rng.standard_normal(64)
_TEXT = ",".join("%.17g" % v for v in _rng.standard_normal(256))
_AXES = {order: np.sin(np.linspace(0.05, 1.5, order)) ** 2
         for order in (16, 32, 64)}


def _quadrature_like() -> float:
    total = 0.0
    for _ in range(12):
        for k in _AXES.values():
            k1, k2 = k[:, None], k[None, :]
            d = 1.0 - (1.0 - k1) * (1.0 - k2) * 0.81
            f1 = (0.81 - 1.0 - 0.81 * k2) * k1 / d
            f2 = (0.81 - 1.0 - 0.81 * k1) * k2 / d
            log_e = (f1 * 4.0 + f2 * 1.0) * 0.5
            base = d ** -0.5 / (1.0 - 0.99 * k1) * np.exp(log_e - log_e.max())
            total += float(base.sum()) + float((f1 * base).sum())
    return total


def _streaming() -> float:
    lam = np.tan(_LARGE * (math.pi / 2.0))
    kappa = 1.0 / (1.0 + (0.3 * lam) ** 2)
    return float((np.sqrt(kappa) * np.exp(-kappa)).sum())


def _scalar_loop() -> float:
    total = 0.0
    resid = _VEC.copy()
    for j in range(800):
        x = _VEC[j % 64]
        total += math.log1p(abs(float(x))) + float(resid[:16].sum())
        resid[j % 64] -= 1e-3 * x
    return total


def _text() -> float:
    total = 0.0
    for _ in range(6):
        values = [float(cell) for cell in _TEXT.split(",")]
        total += len(",".join("%.17g" % v for v in values))
    return total


def kernel() -> float:
    """One pass of the reference work (about 15 ms on a 2-core Xeon VM)."""
    return _quadrature_like() + _streaming() + _scalar_loop() + _text()
