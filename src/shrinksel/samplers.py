"""Gibbs samplers for the horseshoe and point-mass spike-and-slab priors.

:func:`fit` runs either chain. Both target the Gaussian linear model
y = X beta + eps with eps ~ N(0, sigma2 I).

The horseshoe places beta_j ~ N(0, lam_j tau sigma2) where sqrt(lam_j) and
sqrt(tau) are standard half-Cauchy; writing each half-Cauchy scale as a
scale mixture with one auxiliary inverse-gamma variable (nu_j, xi) makes
every full conditional a standard distribution, so the chain needs no
tuning. A sweep draws beta from its exact multivariate-normal conditional,
through an n x n Cholesky solve when p > n (Bhattacharya, Chakraborty &
Mallick, 2016) and a p x p one otherwise, then sigma2, lam, nu, tau (kept
at or below ``tau_upper`` when that bound is set) and xi. Each chain owns
its work arrays and binds LAPACK ``dposv`` of numpy's bundled OpenBLAS to
them once (:func:`_spd_solver`); without ``dposv`` the draws fall back to
``np.linalg.solve``, whose rounding differs. A sweep's n + p normal draws
are one call, and its shape-1 gamma draws (lam, nu, xi) are taken as the
standard exponentials numpy draws them as: the same stream either way.

The spike-and-slab mixes a point mass at zero with a N(0, sigma2 sigma_j2)
slab. A sweep updates (z_j, beta_j) jointly per coordinate with beta_j
integrated out of the inclusion odds, which avoids trans-dimensional
moves, then the slab variances, the inclusion weight and the error
variance. Excluded coordinates have beta_j exactly 0, and their slab
variance is refreshed from its prior. At p <= n the sweep carries X'r,
moved by the cached Gram column X'x_j (at most p <= n, of length p) when
beta_j changes: the covariance updates of Friedman, Hastie & Tibshirani
(2010). At p > n it carries the residual.

Randomness: each chain owns a ``numpy.random.Generator`` backed by the
counter-based Philox bit generator seeded through ``SeedSequence(seed)``,
so distinct seeds give independent streams and a repeated seed reproduces
the draws bit for bit. One chain runs on one thread, BLAS included: the
chain pins numpy's bundled OpenBLAS to one thread while it runs, so its
draws do not depend on the thread count, and restores the caller's count
afterwards. Concurrent chains must use distinct seeds.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator

from .core import (Dataset, HORSESHOE, InvariantError, PosteriorDraws,
                   PriorSpec, _COUNT, _COUNT_0, _Config, _LATENTS, _SEED, _rng)

_TINY = 1e-300
_TAU_REJECTION_TRIES = 100


class NonFiniteStateError(RuntimeError):
    """A chain reached a non-finite beta or sigma2: the likelihood is
    numerically degenerate for the dataset."""


@dataclass(frozen=True)
class McmcConfig(_Config):
    """Run schedule: total iterations, burn-in to discard, thinning, seed."""

    iterations: int = 5000
    burn_in: int = 2000
    seed: int = 0
    thin: int = 1

    _KINDS = {"iterations": _COUNT, "burn_in": _COUNT_0, "seed": _SEED,
              "thin": _COUNT}

    def __post_init__(self):
        super().__post_init__()
        if not self.burn_in < self.iterations:
            raise InvariantError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.retained < 1:
            raise InvariantError("iterations - burn_in < thin: no draws retained")

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainState:
    """Mutable working state of one chain (private to that chain's thread).

    Horseshoe chains use ``lam``/``tau`` plus the auxiliary ``nu``/``xi``;
    spike-and-slab chains use ``z``/``pi``/``sigma_j2``.
    """

    beta: np.ndarray
    sigma2: float
    lam: Optional[np.ndarray] = None
    tau: Optional[float] = None
    nu: Optional[np.ndarray] = None
    xi: Optional[float] = None
    z: Optional[np.ndarray] = None
    pi: Optional[float] = None
    sigma_j2: Optional[np.ndarray] = None


def _inv_gamma(rng: Generator, shape, scale):
    """Inverse-gamma draw(s): scale / Gamma(shape, 1), floored away from 0."""
    if isinstance(scale, float):  # one draw, on Python floats
        return max(scale / max(rng.standard_gamma(shape), _TINY), _TINY)
    g = rng.standard_gamma(shape, size=np.shape(scale))
    return np.maximum(scale / np.maximum(g, _TINY), _TINY)


def _draw_truncated_inv_gamma(rng, shape, scale, upper):
    """Rejection draw of InvGamma(shape, scale) on (0, upper], upper <= inf.

    Bounded retries, then the draw is clamped to the bound.
    """
    for _ in range(_TAU_REJECTION_TRIES):
        draw = _inv_gamma(rng, shape, scale)
        if draw <= upper:
            return draw
    return upper


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, loaded once, or None for another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        with contextlib.suppress(OSError):
            return ctypes.CDLL(path)
    return None


def _openblas_call(name, argtypes, restype):
    """Function ``name`` of :func:`_openblas` with its C signature, or None."""
    fn = getattr(_openblas(), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


@functools.cache
def _blas_thread_calls():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when numpy ships another BLAS or the symbols are missing."""
    calls = (_openblas_call("scipy_openblas_get_num_threads64_", [],
                            ctypes.c_int),
             _openblas_call("scipy_openblas_set_num_threads64_",
                            [ctypes.c_int], None))
    return calls if all(calls) else None


@functools.cache
def _dposv():
    """LAPACK ``dposv`` (64-bit integers) of numpy's OpenBLAS, or None."""
    i64 = ctypes.POINTER(ctypes.c_int64)
    # uplo, n, nrhs, a, lda, b, ldb, info, then uplo's hidden Fortran length.
    return _openblas_call("scipy_dposv_64_",
                          [ctypes.c_char_p, i64, i64, ctypes.c_void_p, i64,
                           ctypes.c_void_p, i64, i64, ctypes.c_size_t], None)


def _spd_solver(a, b):
    """``solve()``: x of a x = b, ``a`` symmetric positive definite, by
    LAPACK ``dposv`` bound once to these buffers, in place: a Cholesky
    factor of a's row-major upper triangle overwrites ``a``, and x (NaN
    where ``a`` is not positive definite) overwrites ``b``. Without numpy's
    bundled OpenBLAS it is ``np.linalg.solve`` on all of ``a``, which
    rounds differently, and NaN where ``a`` is singular."""
    dposv = _dposv()
    if dposv is None:
        def solve_lu():
            try:
                return np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                return np.full_like(b, np.nan)
        return solve_lu
    k = len(b)
    if not (a.shape == (k, k) and b.shape == (k,) and a.flags.c_contiguous
            and b.flags.c_contiguous and a.dtype == b.dtype == np.float64):
        raise ValueError("dposv needs C-contiguous float64 a (k x k), b (k)")
    k, one, info = ctypes.c_int64(k), ctypes.c_int64(1), ctypes.c_int64()
    # a is symmetric: its row-major buffer is its column-major one too.
    args = (b"L", k, one, a.ctypes.data_as(ctypes.c_void_p), k,
            b.ctypes.data_as(ctypes.c_void_p), k, info, 1)

    def solve():
        dposv(*args)
        if info.value < 0:
            raise RuntimeError(f"dposv refused its argument {-info.value}")
        if info.value:  # not positive definite, e.g. a non-finite entry
            b.fill(np.nan)
        return b
    return solve


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with BLAS on one thread, then restore the caller's count.

    A p x p solve is too small to gain from BLAS threads: they cost CPU,
    oversubscribe the cores under a worker pool, and make the rounding of
    the result depend on the thread count. The count is process-wide, so
    chains that overlap in threads of one process share one pin: the first
    saves the count and the last restores it. Does nothing when
    :func:`_blas_thread_calls` finds no OpenBLAS.
    """
    global _pin_depth, _pin_saved
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def _run_chain(data: Dataset, mcmc: McmcConfig, state: ChainState,
               sweeps, *args) -> PosteriorDraws:
    """Run the schedule of ``mcmc`` and return the retained draws.

    ``sweeps(rng, x, y, state, *args)`` is a generator: its set-up, then
    one Gibbs sweep of ``state``, in place, per ``next``. Every
    :class:`PosteriorDraws` field that ``state`` carries is retained.
    The set-up and the sweeps run on one BLAS thread.
    """
    if data.n < 2:
        raise InvariantError("need at least two observations")
    zero = np.nonzero(~np.any(data.x != 0.0, axis=0))[0]
    if zero.size:
        warnings.warn(
            f"design has all-zero column(s) {[int(j) + 1 for j in zero]}; "
            f"their coefficients are determined by the prior alone",
            stacklevel=3)  # past fit, at fit's caller
    x = np.ascontiguousarray(data.x)
    y = np.ascontiguousarray(data.y)
    t, p = mcmc.retained, data.p
    out = {lat.field: np.empty((t, p) if lat.per_coef else t, lat.dtype)
           for lat in _LATENTS if getattr(state, lat.field) is not None}
    steps = sweeps(_rng(mcmc.seed), x, y, state, *args)
    kept = 0
    with _one_blas_thread():
        for it in range(1, mcmc.iterations + 1):
            next(steps)
            if not (math.isfinite(state.sigma2)
                    and np.isfinite(state.beta).all()):
                raise NonFiniteStateError(
                    f"sampler produced a non-finite state at iteration {it}; "
                    f"the likelihood is numerically degenerate for this "
                    f"dataset")
            if it > mcmc.burn_in and (it - mcmc.burn_in) % mcmc.thin == 0:
                for name, arr in out.items():
                    arr[kept] = getattr(state, name)
                kept += 1
    return PosteriorDraws(**out)


def _horseshoe_sweeps(rng, x, y, state, prior, use_woodbury):
    n, p = x.shape
    # Each beta draw solves one k x k system a z = rhs (k = n on the
    # Woodbury path, p on the dense one) in this chain's own buffers.
    k = n if use_woodbury else p
    a, rhs = np.empty((k, k)), np.empty(k)
    diag, solve = a.reshape(-1)[::k + 1], _spd_solver(a, rhs)
    if use_woodbury:
        xs, u, v = np.empty((n, p)), np.empty(p), np.empty(n)
    else:
        gram, xty = x.T @ x, x.T @ y
    e, g, resid = np.empty(n + p), np.empty(2 * p), np.empty(n)
    d, sd, b2, scaled_b2 = (np.empty(p) for _ in range(4))
    tau_upper = prior.tau_upper or math.inf  # unset: the first draw is kept
    sigma2_shape, tau_shape = prior.ig_shape + 0.5 * (n + p), 0.5 * (p + 1)
    while True:
        lam, nu = state.lam, state.nu  # updated in place
        np.multiply(lam, state.tau, out=d)
        np.sqrt(d, out=sd)
        sigma = math.sqrt(state.sigma2)
        rng.standard_normal(out=e)
        # beta ~ N(A^-1 X'y, sigma2 A^-1), A = X'X + diag(d)^-1, exactly.
        if use_woodbury:  # an n x n solve in place of the p x p one
            np.multiply(sd, e[:p], out=u)
            np.add(np.matmul(x, u, out=v), e[p:], out=v)
            np.multiply(x, sd, out=xs)
            np.matmul(xs, xs.T, out=a)  # a BLAS syrk: half the flops
            diag += 1.0
            np.subtract(np.divide(y, sigma, out=rhs), v, out=rhs)
            beta = x.T @ solve()
            beta *= d
            beta += u
            beta *= sigma
        else:
            # w = X'e1 + d^-1/2 e2 has covariance A, so A^-1 (X'y + sigma w)
            # has mean A^-1 X'y and covariance sigma2 A^-1.
            np.copyto(a, gram)
            diag += 1.0 / d
            w = x.T @ e[:n] + e[n:] / sd
            np.add(xty, np.multiply(w, sigma, out=w), out=rhs)
            beta = solve().copy()
        state.beta = beta
        np.multiply(beta, beta, out=b2)

        np.subtract(y, np.matmul(x, beta, out=resid), out=resid)
        state.sigma2 = _inv_gamma(
            rng, sigma2_shape,
            prior.ig_scale + 0.5 * float(resid @ resid) + 0.5 * float(
                np.divide(b2, lam, out=scaled_b2).sum()) / state.tau)

        # The Gamma(1) draws of lam, nu and (below) xi, as the exponentials
        # they are: the stream of standard_gamma(1.0) calls.
        np.maximum(rng.standard_exponential(out=g), _TINY, out=g)
        np.add(np.divide(1.0, nu, out=lam), np.divide(
            b2, 2.0 * state.sigma2 * state.tau, out=scaled_b2), out=lam)
        np.maximum(np.divide(lam, g[:p], out=lam), _TINY, out=lam)
        np.add(1.0, np.divide(1.0, lam, out=nu), out=nu)
        np.maximum(np.divide(nu, g[p:], out=nu), _TINY, out=nu)

        tau_scale = 1.0 / state.xi + 0.5 * float(
            np.divide(b2, lam, out=scaled_b2).sum()) / state.sigma2
        state.tau = _draw_truncated_inv_gamma(
            rng, tau_shape, tau_scale, tau_upper)
        state.xi = max((1.0 + 1.0 / state.tau)
                       / max(rng.standard_exponential(), _TINY), _TINY)
        yield


def _spike_slab_sweeps(rng, x, y, state, prior):
    x = np.asfortranarray(x)  # contiguous columns for the coordinate loop
    n, p = x.shape
    col_norm2 = np.sum(x * x, axis=0)
    a_beta, b_beta = prior.ss_beta_a, prior.ss_beta_b
    beta = state.beta
    z = state.z
    resid = y - x @ beta
    rdot = resid.dot  # resid is only updated in place from here on
    cols = [x[:, j] for j in range(p)]
    norm2 = col_norm2.tolist()
    gram = {} if p <= n else None  # X'x_j by j, filled on first use
    while True:
        sigma2 = state.sigma2
        sj2 = state.sigma_j2
        q = col_norm2 + 1.0 / sj2
        # Per-sweep vectors, so the loop below does scalar math on Python
        # floats only. Including j when u_j < logistic(log odds) is the
        # same event as logit(u_j) < log odds.
        u = rng.random(p)
        logit_u = (np.log(u) - np.log1p(-u)).tolist()
        log_odds0 = (math.log1p(-state.pi) - math.log(state.pi)
                     - 0.5 * np.log1p(sj2 * col_norm2)).tolist()
        half_prec = (0.5 / (sigma2 * q)).tolist()
        slab_noise = (np.sqrt(sigma2 / q) * rng.standard_normal(p)).tolist()
        q = q.tolist()
        b = beta.tolist()
        zs = z.tolist()
        g = None if gram is None else x.T @ resid
        for j in range(p):
            xj, old = cols[j], b[j]
            # Partial residual statistic with coordinate j removed.
            tj = (float(rdot(xj)) if g is None else g.item(j)) + norm2[j] * old
            if logit_u[j] < log_odds0[j] + tj * tj * half_prec[j]:
                zs[j] = 1
                new = tj / q[j] + slab_noise[j]
            else:
                zs[j] = 0
                new = 0.0
            if new != old:
                if g is None:
                    resid += xj * (old - new)
                else:
                    if j not in gram:
                        gram[j] = x.T @ xj
                    g -= (new - old) * gram[j]
                b[j] = new
        beta[:] = b
        z[:] = zs

        # Slab variances: conjugate update where included, prior elsewhere
        # (beta_j = 0 there, so one vectorized expression covers both).
        state.sigma_j2 = _inv_gamma(
            rng, prior.ig_shape + 0.5 * z,
            prior.ig_scale + 0.5 * beta ** 2 / sigma2)

        k = int(z.sum())
        include_w = rng.beta(a_beta + k, b_beta + p - k)
        state.pi = min(max(1.0 - include_w, 1e-12), 1.0 - 1e-12)

        resid[:] = y - x @ beta
        slab_term = float(np.sum(beta ** 2 / state.sigma_j2))
        state.sigma2 = float(_inv_gamma(
            rng, prior.ig_shape + 0.5 * (n + k),
            prior.ig_scale + 0.5 * (resid @ resid) + 0.5 * slab_term))
        yield


def fit(data: Dataset, prior: PriorSpec, mcmc: McmcConfig) -> PosteriorDraws:
    """Run the Gibbs chain of ``prior.family`` and return the retained draws.

    Every chain starts from the same deterministic state: beta = 0 and
    sigma2 = 1; for the horseshoe lam = nu = xi = 1 and
    tau = min(1, tau_upper); for the spike-and-slab z = 0, pi = b/(a+b)
    and sigma_j2 = 1. The sweeps are those of the module docstring. Identical
    inputs (including the seed) reproduce the output bit for bit on one
    numpy build.
    """
    p = data.p
    if prior.family == HORSESHOE:
        state = ChainState(beta=np.zeros(p), sigma2=1.0, lam=np.ones(p),
                           tau=min(1.0, prior.tau_upper or math.inf),
                           nu=np.ones(p), xi=1.0)
        return _run_chain(data, mcmc, state, _horseshoe_sweeps, prior,
                          p > data.n)
    a_beta, b_beta = prior.ss_beta_a, prior.ss_beta_b
    state = ChainState(beta=np.zeros(p), sigma2=1.0,
                       z=np.zeros(p, dtype=np.int64),
                       pi=b_beta / (a_beta + b_beta), sigma_j2=np.ones(p))
    return _run_chain(data, mcmc, state, _spike_slab_sweeps, prior)
