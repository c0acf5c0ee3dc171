"""Bivariate shrinkage analysis for correlated predictors.

Considers two standardized predictors whose Gram matrix G has unit
diagonal and off-diagonal ``rho``, with MLE pair ``(x1, x2)``. Each
estimate is Tweedie's mle + G^-1 grad log m, the gradient of the log
marginal m being a ratio of integrals over the two local shrinkage
weights, composed with the signed MLEs by :func:`_compose`; the ratio
``A = |x1/x2| >= 1`` only classifies a point as reverse-shrinkage
(shrunk ratio |b1/b2| >= A) or not. Under a zero-mean normal prior with
variance scale ``tau**2`` a same-sign pair's shrunk ratio always falls
strictly below A: a global-only prior never widens the separation
between a signal and its confounder. For the horseshoe the integrals go
by tensor Gauss-Legendre quadrature (after a sin^2 substitution that
removes the endpoint singularity). A plain Monte Carlo integrator over
half-Cauchy scale draws cross-checks them; each block of 2^15 samples
draws one (2, b) array of uniforms, so its memory does not depend on the
sample count.

Everything here is a pure function. The quadrature runs in the calling
thread, one batch per (rho, order): the grid evaluates every (tau, A)
point of one rho together, at about 35 µs a point on the default grid
(75 µs alone; 2-core VM), too little for worker processes or threads to
pay. The exponents and sums are stacked matrix products whose slices go
to the BLAS gemv a lone point uses, so each point keeps its bits in any
batch, and the node-grid array is cut into chunks under 1 MiB. The Monte
Carlo check splits its blocks into one contiguous run per usable CPU,
the calling thread doing the first and a worker thread each of the
others. It draws from PCG64DXSM, which fills uniforms faster than the
Philox the chains keep for byte stability; each run skips ahead to its
first sample, one 64-bit draw per uniform, and the runs' block sums are
added in block order: the result has the same bits at any CPU count.
The quadrature caches what does not depend on the point: each order's
nodes and weights, and, per (rho, order), one read-only set of four
node-grid tables: the integrand's rho part (f1, f2, f3) and the tensor
weights times d^-1/2. The table cache keeps at most six (rho, order) sets
(the worst case, six rho values at order 512, is about 50 MB), and the
default grid, which converges by order 64, keeps about 0.3 MB.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import PCG64DXSM

from .core import (InvariantError, _COUNT, _Config, _GRID_A, _GRID_RHO,
                   _NON_ZERO_REAL, _POSITIVE_REAL, _REAL_PAIR, _checked, _rng,
                   atomic_write_lines)

#: Default classification grids (two MLE levels mirror the two panels).
DEFAULT_RHO_GRID = tuple(np.round(np.arange(0.94, 0.9951, 0.01), 2))
DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.05, 0.9501, 0.05), 2))
DEFAULT_A_GRID = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
DEFAULT_X2_VALUES = (1.0, 1.5)

_QUAD_ORDERS = (16, 32, 64, 128, 256, 512)
_TOL = 1e-6  # relative change between orders at which quadrature stops
_MC_BLOCK = 1 << 15  # samples per cache-sized slice of the MC pipeline


class QuadratureError(RuntimeError):
    """Quadrature failed to reach its relative error target."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class TwoVarProblem(_Config):
    """One two-predictor shrinkage problem.

    ``rho`` is the Gram-matrix off-diagonal in [0, 1); ``tau`` the prior
    scale (standard-deviation scale, so the shrinkage weight under the
    normal prior is 1/(1+tau^2)); ``mle`` the MLE pair with
    ``|mle[0]| >= |mle[1]| > 0`` and any signs. Estimates use the signed
    MLEs; :attr:`a` only classifies reverse shrinkage. The error variance
    is fixed at 1: the ratios are free of a common scale.
    """

    rho: float
    tau: float
    mle: tuple[float, float]

    _KINDS = {"rho": _GRID_RHO, "tau": _POSITIVE_REAL, "mle": _REAL_PAIR}

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.mle[0]) >= abs(self.mle[1]) > 0:
            raise InvariantError("need |mle[0]| >= |mle[1]| > 0")

    @property
    def a(self) -> float:
        """MLE magnitude ratio |mle1/mle2| >= 1: the reverse-shrinkage bar."""
        return abs(self.mle[0] / self.mle[1])


@dataclass(frozen=True)
class ShrinkFactors:
    """Closed-form normal-prior shrinkage quantities for one problem.

    ``kappa = 1/(1+tau^2)`` is the scalar shrinkage weight; f1 = f2 and f3
    are the quadratic-form coefficients of the marginal data density;
    r1/r2 and s1/s2 are the intermediate and final per-coordinate
    shrinkage factors, with the estimate being (1 - s_j) * mle_j.
    """

    f1: float
    f2: float
    f3: float
    r1: float
    r2: float
    s1: float
    s2: float
    kappa: float
    estimate: tuple[float, float]


@dataclass(frozen=True)
class HsEstimate:
    """Horseshoe estimator at one problem, with quadrature metadata."""

    estimate: tuple[float, float]
    r1: float
    r2: float
    s1: float
    s2: float
    quad_error: float
    order: int


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo cross-check of the horseshoe estimator."""

    estimate: tuple[float, float]
    se: tuple[float, float]
    r1: float
    r2: float
    n_samples: int


@dataclass(frozen=True)
class ShrinkGridPoint:
    """One classified grid point: reverse iff shrunk ratio >= MLE ratio.

    ``a`` is the requested grid value; ``ratio_mle`` is ``problem.a``,
    recomputed from the MLE pair, so it can differ in the last digit.
    """

    problem: TwoVarProblem
    a: float
    ratio_mle: float
    ratio_shrunk: float
    reverse: bool
    quad_error: float
    error: Optional[str] = None


def _f_coeffs(k1, k2, rho, f=None, inv_d=None):
    """The quadratic-form coefficients (f1, f2, f3) as rows, and ``1/d``.

    With d = 1 - (1 - k1)(1 - k2) rho^2: f1 = (rho^2 - 1 - rho^2 k2) k1 / d,
    f2 = (rho^2 - 1 - rho^2 k1) k2 / d and f3 = -rho k1 k2 / d. Takes
    weights (k1, k2) as scalars or as arrays of one shape, and writes in
    place into ``f`` (shape ``(3, *shape)``) and ``inv_d``, or into new
    arrays when neither is given.
    """
    if f is None:
        f, inv_d = np.empty((3, *np.shape(k1))), np.empty(np.shape(k1))
    f1, f2, f3 = (f[j, ...] for j in range(3))  # views, also at shape ()
    r2 = rho * rho
    np.subtract(1.0, k1, out=inv_d)
    inv_d *= np.subtract(1.0, k2, out=f3)  # f3 as scratch
    inv_d *= r2
    np.divide(1.0, np.subtract(1.0, inv_d, out=inv_d), out=inv_d)
    for fj, kj, ki in ((f1, k1, k2), (f2, k2, k1)):
        np.subtract(r2 - 1.0, np.multiply(r2, ki, out=fj), out=fj)
        fj *= kj
    np.multiply(-rho, k1, out=f3)
    f3 *= k2
    f *= inv_d
    return f, inv_d


def _point_part(problem: TwoVarProblem) -> np.ndarray:
    """Point part of the horseshoe integrand as a matrix on (f1, f2, f3).

    Its rows are the two numerator linear forms ``lin1 = x1 f1 + x2 f3``
    and ``lin2 = x2 f2 + x1 f3`` and the exponent of the data factor E,
    ``log E = (x1 lin1 + x2 lin2) / 2``. Every evaluation path applies it
    to the f-coefficients and multiplies E by its own prior weight.
    """
    x1, x2 = problem.mle
    lin1, lin2 = (x1, 0.0, x2), (0.0, x2, x1)
    return np.array([lin1, lin2, [(x1 * a + x2 * b) / 2.0
                                  for a, b in zip(lin1, lin2)]])


def _compose(problem: TwoVarProblem, num1, num2, den):
    """(r1, r2, s1, s2, estimate) from one problem's integrand sums.

    ``num / den`` is the gradient of the log marginal at the MLE, so the
    estimate is Tweedie's ``mle + G^-1 num / den``, written as (1 - s_j)
    x_j with r_j = -num_j / (x_j den). The ratio x1/x2 is signed: -A for
    a pair of opposite signs, A to the bit for a same-sign pair.
    """
    x1, x2 = problem.mle
    r1, r2 = -num1 / (x1 * den), -num2 / (x2 * den)
    rho, ratio = problem.rho, x1 / x2
    denom = 1.0 - rho * rho
    s1 = (r1 - rho * r2 / ratio) / denom
    s2 = (r2 - rho * r1 * ratio) / denom
    return r1, r2, s1, s2, ((1.0 - s1) * x1, (1.0 - s2) * x2)


def normal_shrink_factors(problem: TwoVarProblem) -> ShrinkFactors:
    """Closed-form shrinkage factors under the global-only normal prior:
    a point mass at k1 = k2 = kappa, so the sums are one point's values."""
    kappa = 1.0 / (1.0 + problem.tau ** 2)
    f, _ = _f_coeffs(kappa, kappa, problem.rho)
    num1, num2 = (_point_part(problem)[:2] @ f).tolist()
    r1, r2, s1, s2, est = _compose(problem, num1, num2, 1.0)
    f1, f2, f3 = f.tolist()
    return ShrinkFactors(f1=f1, f2=f2, f3=f3, r1=r1, r2=r2, s1=s1, s2=s2,
                         kappa=kappa, estimate=est)


def normal_estimator(problem: TwoVarProblem) -> tuple[float, float]:
    """Posterior mean under the global-only normal prior."""
    return normal_shrink_factors(problem).estimate


def normal_ratio_contracts(problem: TwoVarProblem) -> bool:
    """True iff the normal-prior estimator strictly contracts the MLE ratio.

    Defined for a same-sign MLE pair, 0 < rho < 1 and A > 1, where it holds
    for every tau: sweeps verify with it that a global-only prior never
    reverses shrinkage. An opposite-sign pair can widen the ratio.
    """
    if problem.a <= 1.0:
        raise InvariantError("ratio contraction is defined for A > 1")
    if problem.mle[0] * problem.mle[1] < 0:
        raise InvariantError("ratio contraction is defined for same-sign MLEs")
    if not 0.0 < problem.rho < 1.0:
        raise InvariantError("ratio contraction is defined for rho in (0, 1)")
    b1, b2 = normal_estimator(problem)
    return abs(b1 / b2) < problem.a


@lru_cache(maxsize=len(_QUAD_ORDERS))
def _quad_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes k and tensor weights of one order, built on first use.

    Substituting k = sin^2(theta) turns the (1-k)^{-1/2} endpoint factor
    into 2*sin(theta), so the integrand is smooth on [0, pi/2]^2.
    """
    nodes, weights = leggauss(order)
    sin_t = np.sin((nodes + 1.0) * (math.pi / 4.0))
    axis_w = weights * (math.pi / 4.0) * 2.0 * sin_t
    k, w2 = sin_t * sin_t, axis_w[:, None] * axis_w[None, :]
    k.flags.writeable = w2.flags.writeable = False
    return k, w2


@lru_cache(maxsize=len(_QUAD_ORDERS))
def _rho_tables(rho: float, order: int) -> np.ndarray:
    """Read-only rows ``(f1, f2, f3, w2 * d**-0.5)`` on one order's node grid.

    These depend on rho and the order only, so a grid, which visits rho
    outermost, builds them once per (rho, order) rather than once per
    point. The cache holds every order one rho can need, and lone points
    of one rho, such as spot checks, hit it. A grid asks for each set
    once and gets no hits: the default grid at both x2 asks 36 times for
    18 sets (orders 16 to 64, about 1 MB), 2-4 ms of a 40 ms pass on a
    2-core VM. Six sets bound the cache at 50 MB; 18 at order 512 would
    hold 150 MB.
    """
    k, w2 = _quad_rule(order)
    f, inv_d = _f_coeffs(*np.meshgrid(k, k, indexing="ij"), rho)
    tables = np.concatenate([f, [w2 * np.sqrt(inv_d)]])
    tables.flags.writeable = False
    return tables


def _quad_batch(problems: Sequence[TwoVarProblem], order: int,
                points: Optional[np.ndarray] = None) -> list[tuple]:
    """:func:`_compose` of each problem by tensor Gauss-Legendre at a fixed
    order: (r1, r2, s1, s2, estimate).

    The problems share rho, whose part of the integrand and weights come
    from the cached :func:`_rho_tables`; only the terms in each problem's
    MLE pair and tau are evaluated here, in chunks whose ``(m, order**2)``
    array, allocated once per call, stays under 2^17 doubles (1 MiB). The
    exponent is shifted by its maximum over the node grid, which cancels
    between numerator and denominator. The exponent, the three sums and
    the two numerators are stacked matrix products whose slices numpy
    hands one by one to the BLAS gemv a lone problem uses; OpenBLAS splits
    a gemv by output element, so no result depends on its thread count or
    its batch. ``points`` stacks each problem's :func:`_point_part`.
    """
    if points is None:
        points = np.array([_point_part(pr) for pr in problems])
    k, _ = _quad_rule(order)
    tables = _rho_tables(problems[0].rho, order)
    f, wd = tables[:3].reshape(3, -1), tables[3].reshape(-1)
    g = 1.0 / (1.0 - np.array([[1.0 - pr.tau ** 2] for pr in problems]) * k)
    step = min(len(problems), max(1, ((1 << 17) - 1) // wd.size))
    chunk, composed = np.empty((step, wd.size)), []
    for lo in range(0, len(problems), step):
        part, rows = points[lo:lo + step], chunk[:len(problems) - lo]
        np.matmul(part[:, 2:], f, out=rows[:, None])
        rows -= rows.max(axis=1, keepdims=True)
        np.exp(rows, out=rows)
        rows *= wd
        grid = rows.reshape(-1, order, order)
        grid *= g[lo:lo + step, :, None]
        grid *= g[lo:lo + step, None, :]
        nums = part[:, :2] @ (f @ rows[..., None])
        composed += map(_compose, problems[lo:lo + step],
                        *nums[..., 0].T.tolist(), rows.sum(axis=1).tolist())
    return composed


def _hs_row(problems: Sequence[TwoVarProblem]) -> list:
    """:func:`hs_shrinkage` of problems that share rho: the problems not yet
    converged go through one :func:`_quad_batch` per order, each problem's
    point part built once. Returns, per problem, its :class:`HsEstimate`
    or the :class:`QuadratureError` it fails with."""
    points = np.array([_point_part(pr) for pr in problems])
    out, prev = [None] * len(problems), [None] * len(problems)
    err = [math.inf] * len(problems)
    for order in _QUAD_ORDERS:
        active = [i for i, res in enumerate(out) if res is None]
        if not active:
            break
        batch = _quad_batch([problems[i] for i in active], order,
                            points.take(active, axis=0))
        for i, (r1, r2, s1, s2, est) in zip(active, batch):
            if prev[i] is not None:
                scale = max(abs(r1), abs(r2), 1e-300)
                err[i] = max(abs(r1 - prev[i][0]),
                             abs(r2 - prev[i][1])) / scale
                if err[i] < _TOL:
                    out[i] = HsEstimate(estimate=est, r1=r1, r2=r2, s1=s1,
                                        s2=s2, quad_error=err[i], order=order)
            prev[i] = (r1, r2)
    return [res or QuadratureError(
        f"quadrature did not converge to relative {_TOL:g} by order "
        f"{_QUAD_ORDERS[-1]} (achieved {e:g})", achieved=e)
        for res, e in zip(out, err)]


def hs_shrinkage(problem: TwoVarProblem) -> HsEstimate:
    """Horseshoe posterior mean with adaptive quadrature-order refinement.

    The order doubles until the intermediate factors change by less than
    ``_TOL`` relative; on failure a :class:`QuadratureError` carries their
    relative change between the last two orders as ``achieved``.
    """
    (res,) = _hs_row([problem])
    if isinstance(res, QuadratureError):
        raise res
    return res


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mc_run(problem: TwoVarProblem, point: np.ndarray, rng, lo: int,
            hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per block of samples ``lo`` to ``hi`` of ``rng``'s stream, the sums
    of (lin1 phi, lin2 phi, phi) and the matrix of their cross-products.

    ``rng`` is a fresh PCG64DXSM generator and ``lo`` a multiple of
    ``_MC_BLOCK``. The run moves ``rng`` to sample ``lo``: a sample takes
    two uniforms and a uniform one 64-bit draw, so ``advance(2 * lo)``
    skips exactly the uniforms of the samples before it. Each block draws
    one ``(2, b)`` array of uniforms (row 0 for k1, row 1 for k2) and
    writes only into buffers allocated once per run: the uniforms, the f
    rows, the prior weight, and the rows of one matrix product, (lin1,
    lin2, log E), which become (lin1 phi, lin2 phi, phi).
    """
    tau = problem.tau
    rng.bit_generator.advance(2 * lo)
    rows, f_rows = np.empty((3, _MC_BLOCK)), np.empty((3, _MC_BLOCK))
    weights, u = np.empty(_MC_BLOCK), np.empty(2 * _MC_BLOCK)
    parts = []
    for start in range(lo, hi, _MC_BLOCK):
        b = min(_MC_BLOCK, hi - start)
        block = rows[:, :b]
        k = block[:2]  # the weights (k1, k2), until the matmul below
        np.multiply(rng.random(out=u[:2 * b].reshape(2, b)), math.pi / 2.0,
                    out=k)
        np.tan(k, out=k)  # k = 1 / (1 + (tau tan(u pi / 2))^2)
        k *= tau
        np.square(k, out=k)
        k += 1.0
        np.reciprocal(k, out=k)
        f, weight = _f_coeffs(k[0], k[1], problem.rho, f_rows[:, :b],
                              weights[:b])
        weight *= k[0]
        weight *= k[1]
        np.sqrt(weight, out=weight)  # sqrt(k1 k2 / d): the prior weight
        np.matmul(point, f, out=block)
        # The quadratic form is negative definite, so E <= 1.
        phi = np.exp(block[2], out=block[2])
        phi *= weight
        block[:2] *= phi
        # Row by row: OpenBLAS takes block @ block.T three times as long.
        parts.append((block.sum(axis=1),
                      np.array([block @ block[j] for j in range(3)])))
    return parts


def hs_estimator_mc(problem: TwoVarProblem, n_samples: int = 10_000_000,
                    seed: int = 0) -> McEstimate:
    """Monte Carlo evaluation of the horseshoe estimator.

    Independent of the quadrature path: samples the two local scales from
    the standard half-Cauchy, averages the integrands, and propagates the
    sampling covariance of the three means through the estimator by the
    delta method. The returned standard errors are for the two estimate
    components.

    The samples go in blocks of ``_MC_BLOCK``, and the blocks in contiguous
    runs, one per usable CPU and never more than there are blocks. The
    calling thread does the first run and one worker thread each of the
    others; a single run starts no thread. Each run gets a PCG64DXSM
    generator of the seed (it fills uniforms faster than the Philox the
    chains keep for byte stability), made before any thread starts, skips
    ahead to its first sample by one 64-bit draw per uniform (see
    :func:`_mc_run`) and owns about 2.4 MB of buffers, so no array grows
    with ``n_samples``. A run hands back 12 floats per block,
    its three sums and nine cross-products, which are held until they are
    added here in block order. Every estimate and standard error
    therefore keeps its bits at any CPU count.
    """
    n_samples = _checked(n_samples, "n_samples", _COUNT)
    x1, x2 = problem.mle
    point = _point_part(problem)
    n_blocks = -(-n_samples // _MC_BLOCK)
    n_runs = min(_usable_cpus(), n_blocks)
    edges = [min(n_blocks * i // n_runs * _MC_BLOCK, n_samples)
             for i in range(n_runs + 1)]
    runs = [(_rng(seed, bits=PCG64DXSM), lo, hi)
            for lo, hi in zip(edges, edges[1:])]
    import concurrent.futures
    with concurrent.futures.ThreadPoolExecutor(max(n_runs - 1, 1)) as pool:
        later = [pool.submit(_mc_run, problem, point, *run)
                 for run in runs[1:]]
        parts = _mc_run(problem, point, *runs[0])
        for run in later:
            parts += run.result()
    sums, prods = np.zeros(3), np.zeros((3, 3))
    for block_sums, block_prods in parts:
        sums += block_sums
        prods += block_prods

    means = sums / n_samples
    cov_samples = prods / n_samples - np.outer(means, means)
    cov_means = cov_samples / n_samples
    m1, m2, mb = means
    r1, r2, _, _, est = _compose(problem, m1, m2, mb)
    jac = np.array([
        [-1.0 / (x1 * mb), 0.0, m1 / (x1 * mb * mb)],
        [0.0, -1.0 / (x2 * mb), m2 / (x2 * mb * mb)],
    ])
    cov_r = jac @ cov_means @ jac.T
    # The estimate is affine in (r1, r2): a unit step in each factor, made
    # by the sums (-x1 u, -x2 v) at den 1, gives a column of its Jacobian.
    est0, est1, est2 = (np.array(_compose(problem, -x1 * u, -x2 * v, 1.0)[4])
                        for u, v in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    lin = np.column_stack([est1 - est0, est2 - est0])
    cov_b = lin @ cov_r @ lin.T
    se = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov_b), 0.0)))
    return McEstimate(estimate=est, se=se, r1=r1, r2=r2, n_samples=n_samples)


def reverse_shrinkage_grid(rho_grid: Sequence[float] = DEFAULT_RHO_GRID,
                           tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
                           a_grid: Sequence[float] = DEFAULT_A_GRID,
                           x2: float = 1.0) -> list[ShrinkGridPoint]:
    """Classify every (rho, tau, A) combination at a fixed smaller MLE.

    Points are returned in grid order (rho outermost, then tau, then A),
    so each rho's quadrature tables are built once. The (tau, A) points of
    one rho are one batch per (rho, order), in chunks under 1 MiB, with
    the bits :func:`hs_shrinkage` gives each alone. Quadrature failures
    are recorded on the point rather than raised. Each grid value is
    checked before any point is evaluated, and kept as a float.
    """
    rho_grid = [_checked(v, "rho", _GRID_RHO) for v in rho_grid]
    tau_grid = [_checked(v, "tau", _POSITIVE_REAL) for v in tau_grid]
    a_grid = [_checked(v, "a", _GRID_A) for v in a_grid]
    x2 = _checked(x2, "x2", _NON_ZERO_REAL)
    points = []
    for rho in rho_grid:
        block = [TwoVarProblem(rho, tau, (a * x2, x2))
                 for tau in tau_grid for a in a_grid]
        for a, pr, res in zip(a_grid * len(tau_grid), block, _hs_row(block)):
            if isinstance(res, QuadratureError):  # nan: not reverse
                ratio, quad_error, error = math.nan, res.achieved, str(res)
            else:
                b1, b2 = res.estimate
                ratio = math.inf if b2 == 0 else abs(b1 / b2)
                quad_error, error = res.quad_error, None
            points.append(ShrinkGridPoint(
                problem=pr, a=a, ratio_mle=pr.a, ratio_shrunk=ratio,
                reverse=ratio >= pr.a, quad_error=quad_error, error=error))
    return points


def write_grid_csv(points: Sequence[ShrinkGridPoint], path: str) -> None:
    """Grid CSV: rho, tau, a, x2, ratio_mle, ratio_shrunk, reverse,
    quad_error_estimate; a failed point has nan, 0 and its achieved error."""
    lines = ["rho,tau,a,x2,ratio_mle,ratio_shrunk,reverse,quad_error_estimate"]
    for pt in points:
        pr = pt.problem
        lines.append(
            f"{pr.rho:.17g},{pr.tau:.17g},{pt.a:.17g},"
            f"{pr.mle[1]:.17g},{pt.ratio_mle:.17g},{pt.ratio_shrunk:.17g},"
            f"{int(pt.reverse)},{pt.quad_error:.6g}")
    atomic_write_lines(path, lines)
