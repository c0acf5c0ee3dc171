"""Gibbs samplers for the horseshoe and point-mass spike-and-slab priors.

Both samplers target the Gaussian linear model y = X beta + eps with
eps ~ N(0, sigma2 I). The horseshoe places beta_j ~ N(0, lam_j tau sigma2)
where sqrt(lam_j) and sqrt(tau) are standard half-Cauchy; writing each
half-Cauchy scale as a scale mixture with one auxiliary inverse-gamma
variable makes every full conditional a standard distribution, so the
chain needs no tuning. The spike-and-slab mixes a point mass at zero with
a N(0, sigma2 sigma_j2) slab; the inclusion indicator z_j is updated
one at a time with beta_j integrated out, which avoids trans-dimensional
moves.

Randomness: each chain owns a ``numpy.random.Generator`` backed by the
counter-based Philox bit generator seeded through ``SeedSequence(seed)``,
so distinct seeds give independent streams and a repeated seed reproduces
the draws bit for bit. One chain runs on one thread; concurrent chains
must use distinct seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .core import (Dataset, HORSESHOE, InvariantError, PosteriorDraws,
                   PriorSpec, SPIKE_SLAB, atomic_write_text)

_TINY = 1e-300
_TAU_REJECTION_TRIES = 100


@dataclass(frozen=True)
class McmcConfig:
    """Run schedule: total iterations, burn-in to discard, thinning, seed."""

    iterations: int = 5000
    burn_in: int = 2000
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise InvariantError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise InvariantError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise InvariantError("thin must be positive")
        if self.retained < 1:
            raise InvariantError("no draws retained; enlarge iterations")
        if not 0 <= self.seed < 2 ** 64:
            raise InvariantError("seed must be a 64-bit unsigned integer")

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


def _rng(seed: int) -> Generator:
    return Generator(Philox(SeedSequence(seed)))


def _inv_gamma(rng: Generator, shape, scale):
    """Inverse-gamma draw(s): scale / Gamma(shape, 1), floored away from 0."""
    size = np.shape(scale) if np.ndim(scale) else None
    g = rng.standard_gamma(shape, size=size)
    return np.maximum(np.asarray(scale) / np.maximum(g, _TINY), _TINY)


def _warn_degenerate_columns(x: np.ndarray) -> None:
    zero = np.nonzero(~np.any(x != 0.0, axis=0))[0]
    if zero.size:
        warnings.warn(
            f"design has all-zero column(s) {[int(j) + 1 for j in zero]}; "
            f"their coefficients are determined by the prior alone",
            stacklevel=3)


def _check_finite_state(state: ChainState, iteration: int) -> None:
    ok = np.all(np.isfinite(state.beta)) and np.isfinite(state.sigma2)
    if not ok:
        raise RuntimeError(
            f"sampler produced a non-finite state at iteration {iteration}; "
            f"the likelihood is numerically degenerate for this dataset")


def _draw_beta_woodbury(rng, x, y, d, sigma):
    """Exact draw of beta ~ N(A^-1 X'y, sigma2 A^-1), A = X'X + diag(d)^-1.

    Reduces the p x p solve to one n x n solve, which wins when p > n.
    """
    n, p = x.shape
    u = np.sqrt(d) * rng.standard_normal(p)
    delta = rng.standard_normal(n)
    v = x @ u + delta
    xd = x * d
    m = xd @ x.T
    m[np.diag_indices_from(m)] += 1.0
    w = np.linalg.solve(m, y / sigma - v)
    return sigma * (u + d * (x.T @ w))


def _draw_beta_dense(rng, x, gram, xty, d, sigma):
    """Exact draw with one p x p solve (p <= n path).

    w = X'e1 + d^-1/2 e2 has covariance A, so A^-1 (X'y + sigma w) has
    mean A^-1 X'y and covariance sigma2 A^-1 without a Cholesky factor.
    """
    n, p = x.shape
    e = rng.standard_normal(n + p)
    a = gram.copy()
    a[np.diag_indices_from(a)] += 1.0 / d
    w = x.T @ e[:n] + e[n:] / np.sqrt(d)
    return np.linalg.solve(a, xty + sigma * w)


def _draw_truncated_inv_gamma(rng, shape, scale, upper):
    """Rejection draw of InvGamma(shape, scale) on (0, upper].

    Bounded retries, then the draw is clamped to the bound.
    """
    for _ in range(_TAU_REJECTION_TRIES):
        draw = float(_inv_gamma(rng, shape, scale))
        if draw <= upper:
            return draw
    return upper


def fit_horseshoe(data: Dataset, prior: PriorSpec, mcmc: McmcConfig,
                  init_state: Optional[ChainState] = None,
                  beta_update: str = "auto") -> PosteriorDraws:
    """Run the horseshoe Gibbs chain and return the retained draws.

    ``beta`` is drawn from its exact multivariate-normal conditional,
    through an n x n solve when p > n and a p x p solve otherwise
    (``beta_update`` in {"auto", "dense", "woodbury"} forces a path, used
    for cross-validation of the two). The global variance scale is kept
    at or below ``prior.tau_upper`` when that bound is set. Identical
    inputs (including the seed) reproduce the output bit for bit.

    ``init_state`` overrides the default deterministic initialization
    (beta = 0, all scales = 1); it exists for dispersed-start diagnostics.
    """
    if prior.family != HORSESHOE:
        raise InvariantError(f"fit_horseshoe needs family={HORSESHOE!r}")
    if data.n < 2:
        raise InvariantError("need at least two observations")
    if beta_update not in ("auto", "dense", "woodbury"):
        raise InvariantError("beta_update must be auto, dense or woodbury")
    _warn_degenerate_columns(data.x)

    x = np.ascontiguousarray(data.x)
    y = np.ascontiguousarray(data.y)
    n, p = x.shape
    use_woodbury = p > n if beta_update == "auto" else beta_update == "woodbury"
    gram = xty = None
    if not use_woodbury:
        gram = x.T @ x
        xty = x.T @ y

    rng = _rng(mcmc.seed)
    tau_upper = prior.tau_upper
    if init_state is None:
        tau0 = 1.0 if tau_upper is None else min(1.0, tau_upper)
        state = ChainState(beta=np.zeros(p), sigma2=1.0, lam=np.ones(p),
                           tau=tau0, nu=np.ones(p), xi=1.0)
    else:
        state = ChainState(
            beta=np.array(init_state.beta, dtype=float),
            sigma2=float(init_state.sigma2),
            lam=np.array(init_state.lam, dtype=float),
            tau=float(init_state.tau),
            nu=np.array(init_state.nu if init_state.nu is not None else np.ones(p)),
            xi=float(init_state.xi if init_state.xi is not None else 1.0),
        )

    t = mcmc.retained
    out_beta = np.empty((t, p))
    out_sigma2 = np.empty(t)
    out_lam = np.empty((t, p))
    out_tau = np.empty(t)

    kept = 0
    for it in range(1, mcmc.iterations + 1):
        d = state.tau * state.lam
        sigma = np.sqrt(state.sigma2)
        if use_woodbury:
            state.beta = _draw_beta_woodbury(rng, x, y, d, sigma)
        else:
            state.beta = _draw_beta_dense(rng, x, gram, xty, d, sigma)

        resid = y - x @ state.beta
        scaled_b2 = state.beta ** 2 / state.lam
        state.sigma2 = float(_inv_gamma(
            rng, prior.ig_shape + 0.5 * (n + p),
            prior.ig_scale + 0.5 * (resid @ resid)
            + 0.5 * scaled_b2.sum() / state.tau))

        lam_scale = 1.0 / state.nu + state.beta ** 2 / (2.0 * state.sigma2 * state.tau)
        state.lam = _inv_gamma(rng, 1.0, lam_scale)
        state.nu = _inv_gamma(rng, 1.0, 1.0 + 1.0 / state.lam)

        tau_shape = 0.5 * (p + 1)
        tau_scale = 1.0 / state.xi + \
            0.5 * (state.beta ** 2 / state.lam).sum() / state.sigma2
        if tau_upper is None:
            state.tau = float(_inv_gamma(rng, tau_shape, tau_scale))
        else:
            state.tau = _draw_truncated_inv_gamma(
                rng, tau_shape, tau_scale, tau_upper)
        state.xi = float(_inv_gamma(rng, 1.0, 1.0 + 1.0 / state.tau))

        _check_finite_state(state, it)
        if it > mcmc.burn_in and (it - mcmc.burn_in) % mcmc.thin == 0:
            out_beta[kept] = state.beta
            out_sigma2[kept] = state.sigma2
            out_lam[kept] = state.lam
            out_tau[kept] = state.tau
            kept += 1

    return PosteriorDraws(beta=out_beta, sigma2=out_sigma2,
                          lam=out_lam, tau=out_tau)


def fit_spike_slab(data: Dataset, prior: PriorSpec, mcmc: McmcConfig,
                   init_state: Optional[ChainState] = None) -> PosteriorDraws:
    """Run the point-mass spike-and-slab Gibbs chain.

    Each sweep updates (z_j, beta_j) jointly per coordinate with beta_j
    integrated out of the inclusion odds, then the slab variances, the
    inclusion weight and the error variance. Excluded coordinates have
    beta_j exactly 0, and their slab variance is refreshed from its prior.
    Deterministic per seed.
    """
    if prior.family != SPIKE_SLAB:
        raise InvariantError(f"fit_spike_slab needs family={SPIKE_SLAB!r}")
    if data.n < 2:
        raise InvariantError("need at least two observations")
    _warn_degenerate_columns(data.x)

    x = np.asfortranarray(data.x)
    y = np.ascontiguousarray(data.y)
    n, p = x.shape
    col_norm2 = np.sum(x * x, axis=0)
    a_beta, b_beta = prior.ss_beta_a, prior.ss_beta_b

    rng = _rng(mcmc.seed)
    if init_state is None:
        state = ChainState(beta=np.zeros(p), sigma2=1.0,
                           z=np.zeros(p, dtype=np.int64),
                           pi=b_beta / (a_beta + b_beta),
                           sigma_j2=np.ones(p))
    else:
        state = ChainState(
            beta=np.array(init_state.beta, dtype=float),
            sigma2=float(init_state.sigma2),
            z=np.array(init_state.z, dtype=np.int64),
            pi=float(init_state.pi),
            sigma_j2=np.array(init_state.sigma_j2, dtype=float),
        )

    t = mcmc.retained
    out_beta = np.empty((t, p))
    out_sigma2 = np.empty(t)
    out_z = np.empty((t, p), dtype=np.int64)
    out_pi = np.empty(t)

    beta = state.beta
    z = state.z
    resid = y - x @ beta
    rdot = resid.dot  # resid is only updated in place from here on
    cols = [x[:, j] for j in range(p)]
    norm2 = col_norm2.tolist()

    kept = 0
    for it in range(1, mcmc.iterations + 1):
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
        for j in range(p):
            xj, old = cols[j], b[j]
            # Partial residual statistic with coordinate j removed.
            tj = float(rdot(xj)) + norm2[j] * old
            if logit_u[j] < log_odds0[j] + tj * tj * half_prec[j]:
                zs[j] = 1
                new = tj / q[j] + slab_noise[j]
            else:
                zs[j] = 0
                new = 0.0
            if new != old:
                resid += xj * (old - new)
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

        _check_finite_state(state, it)
        if it > mcmc.burn_in and (it - mcmc.burn_in) % mcmc.thin == 0:
            out_beta[kept] = beta
            out_sigma2[kept] = state.sigma2
            out_z[kept] = z
            out_pi[kept] = state.pi
            kept += 1

    return PosteriorDraws(beta=out_beta, sigma2=out_sigma2,
                          z=out_z, pi=out_pi)


def fit(data: Dataset, prior: PriorSpec, mcmc: McmcConfig) -> PosteriorDraws:
    """Dispatch on the prior family."""
    if prior.family == HORSESHOE:
        return fit_horseshoe(data, prior, mcmc)
    return fit_spike_slab(data, prior, mcmc)


def write_run_manifest(path: str, data: Dataset, prior: PriorSpec,
                       mcmc: McmcConfig, wall_time_s: float) -> None:
    """Record what produced a draw file: prior, schedule, seed, wall time."""
    lines = [
        f"family: {prior.family}",
        f"n: {data.n}",
        f"p: {data.p}",
        f"tau_upper: {prior.tau_upper}",
        f"ig_shape: {prior.ig_shape:g}",
        f"ig_scale: {prior.ig_scale:g}",
        f"ss_beta_a: {prior.ss_beta_a:g}",
        f"ss_beta_b: {prior.ss_beta_b:g}",
        f"iterations: {mcmc.iterations}",
        f"burn_in: {mcmc.burn_in}",
        f"thin: {mcmc.thin}",
        f"retained: {mcmc.retained}",
        f"seed: {mcmc.seed}",
        f"rng: philox (counter-based), seeded via SeedSequence(seed)",
        f"wall_time_s: {wall_time_s:.3f}",
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")
