"""Sampler contracts: determinism, invariants, and posterior correctness."""

import copy
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import batch_means_se, exact_two_var_inclusion, orthonormal_design
from shrinksel import samplers
from shrinksel.core import Dataset, InvariantError, PriorSpec, load_draws, save_draws
from shrinksel.samplers import (ChainState, McmcConfig, NonFiniteStateError,
                                _rng, fit)
from shrinksel.shrinkage import TwoVarProblem, hs_shrinkage


def _horseshoe_from(data, prior, mcmc, init, use_woodbury):
    """The horseshoe chain from a copy of ``init`` on a forced beta path;
    the chain updates the state's arrays in place."""
    return samplers._run_chain(data, mcmc, copy.deepcopy(init),
                               samplers._horseshoe_sweeps, prior, use_woodbury)


def _spike_slab_from(data, prior, mcmc, init):
    """The spike-and-slab chain from a copy of ``init``."""
    return samplers._run_chain(data, mcmc, copy.deepcopy(init),
                               samplers._spike_slab_sweeps, prior)


def _horseshoe_start(p):
    """The horseshoe chain's default start at ``tau_upper >= 1``."""
    return ChainState(beta=np.zeros(p), sigma2=1.0, lam=np.ones(p), tau=1.0,
                      nu=np.ones(p), xi=1.0)


def _beta_draws(x, y, d, sigma2, t, seed, use_woodbury):
    """``t`` beta draws of the horseshoe sweep on a forced path, each from
    d = tau * lam and sigma2 set to the given values before its sweep."""
    state = _horseshoe_start(x.shape[1])
    steps = samplers._horseshoe_sweeps(_rng(seed), x, y, state,
                                       PriorSpec.horseshoe(), use_woodbury)
    draws = np.empty((t, x.shape[1]))
    for i in range(t):
        state.lam, state.tau, state.sigma2 = d.copy(), 1.0, sigma2
        next(steps)
        draws[i] = state.beta
    return draws


@pytest.fixture(scope="module")
def signal_data():
    """n=200, orthonormal two-column design, beta_T = (6, 0), sigma = 1."""
    x = orthonormal_design(200, 2, seed=3)
    rng = np.random.default_rng(30)
    y = x @ np.array([6.0, 0.0]) + rng.standard_normal(200)
    return Dataset(y=y, x=x)


class TestMcmcConfig:
    def test_retained(self):
        assert McmcConfig(iterations=5000, burn_in=2000).retained == 3000
        assert McmcConfig(iterations=10, burn_in=4, thin=3).retained == 2

    def test_rejects_bad_schedules(self):
        with pytest.raises(InvariantError):
            McmcConfig(iterations=10, burn_in=10)
        with pytest.raises(InvariantError):
            McmcConfig(iterations=10, burn_in=0, thin=11)
        with pytest.raises(InvariantError):
            McmcConfig(iterations=10, burn_in=2, seed=-1)

    @pytest.mark.parametrize("fields", [
        {"thin": 1.5}, {"iterations": 100.5, "burn_in": 10},
        {"burn_in": 10.5}, {"seed": 1.5}, {"seed": True}, {"thin": True},
        {"iterations": True, "burn_in": 0}, {"burn_in": np.False_},
        {"seed": math.nan}, {"iterations": math.inf}, {"thin": None},
    ], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
    def test_refuses_fractional_or_bool_fields(self, fields):
        # These used to be accepted, and fit then raised a raw TypeError
        # (or ran a bool as 1).
        with pytest.raises(InvariantError, match="is not an integer"):
            McmcConfig(**fields)

    def test_whole_numbers_are_kept_as_ints(self, signal_data):
        mcmc = McmcConfig(iterations=20.0, burn_in=np.int64(10), thin=2.0,
                          seed=0.0)
        fields = (mcmc.iterations, mcmc.burn_in, mcmc.thin, mcmc.seed)
        assert fields == (20, 10, 2, 0)
        assert all(type(v) is int for v in fields)
        assert fit(signal_data, PriorSpec.horseshoe(), mcmc).t == 5


class TestHorseshoe:
    def test_recovers_strong_signal(self, signal_data):
        mc = McmcConfig(iterations=4000, burn_in=1000, seed=11)
        draws = fit(signal_data, PriorSpec.horseshoe(), mc)
        mean = draws.beta.mean(axis=0)
        ols = signal_data.x.T @ signal_data.y
        assert abs(mean[0] - 6.0) < 0.5
        assert abs(mean[1]) < 0.5
        # the strong coordinate is barely shrunk relative to least squares
        assert abs(mean[0] - ols[0]) < 0.5
        assert abs(mean[1]) <= abs(ols[1]) + 0.1

    def test_null_data_centered_at_zero(self):
        x = orthonormal_design(100, 2, seed=5)
        data = Dataset(y=np.zeros(100), x=x)
        mc = McmcConfig(iterations=3000, burn_in=500, seed=2)
        draws = fit(data, PriorSpec.horseshoe(), mc)
        assert np.all(np.abs(draws.beta.mean(axis=0)) < 0.2)

    def test_deterministic_per_seed_including_files(self, signal_data, tmp_path):
        mc = McmcConfig(iterations=300, burn_in=100, seed=99)
        d1 = fit(signal_data, PriorSpec.horseshoe(), mc)
        d2 = fit(signal_data, PriorSpec.horseshoe(), mc)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_draws(d1, str(p1))
        save_draws(d2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        d3 = fit(signal_data, PriorSpec.horseshoe(),
                 McmcConfig(iterations=300, burn_in=100, seed=100))
        assert not np.array_equal(d1.beta, d3.beta)

    def test_retained_latents_positive_and_bounded(self, signal_data):
        mc = McmcConfig(iterations=800, burn_in=200, seed=4)
        draws = fit(signal_data, PriorSpec.horseshoe(tau_upper=0.5), mc)
        assert np.all(draws.lam > 0)
        assert np.all(draws.sigma2 > 0)
        assert np.all(draws.tau > 0)
        assert np.all(draws.tau <= 0.5)

    def test_unbounded_tau_allowed(self, signal_data):
        mc = McmcConfig(iterations=400, burn_in=100, seed=4)
        draws = fit(signal_data, PriorSpec.horseshoe(tau_upper=None), mc)
        assert np.all(draws.tau > 0)

    def test_dense_and_woodbury_paths_agree(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 10))
        beta_t = np.zeros(10)
        beta_t[:2] = (4.0, -3.0)
        y = x @ beta_t + rng.standard_normal(60)
        data = Dataset(y=y, x=x)
        prior = PriorSpec.horseshoe()
        mc = McmcConfig(iterations=6000, burn_in=1000, seed=13)
        dense = _horseshoe_from(data, prior, mc, _horseshoe_start(10), False)
        wood = _horseshoe_from(data, prior, mc, _horseshoe_start(10), True)
        for j in range(10):
            se = np.hypot(batch_means_se(dense.beta[:, j]),
                          batch_means_se(wood.beta[:, j]))
            diff = abs(dense.beta[:, j].mean() - wood.beta[:, j].mean())
            assert diff < 4 * max(se, 1e-3), f"coordinate {j}"

    def test_dispersed_start_agrees_with_default(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((60, 6))
        beta_t = np.array([3.0, 0, 0, 0, 0, 0])
        y = x @ beta_t + rng.standard_normal(60)
        data = Dataset(y=y, x=x)
        prior = PriorSpec.horseshoe()
        cold = fit(data, prior,
                   McmcConfig(iterations=6000, burn_in=1000, seed=5))
        init = _horseshoe_start(6)
        init.beta = beta_t
        warm = _horseshoe_from(
            data, prior, McmcConfig(iterations=6000, burn_in=1000, seed=6),
            init, False)
        for j in range(6):
            se = np.hypot(batch_means_se(cold.beta[:, j]),
                          batch_means_se(warm.beta[:, j]))
            diff = abs(cold.beta[:, j].mean() - warm.beta[:, j].mean())
            assert diff < 3 * max(se, 1e-3), f"coordinate {j}"

    def test_zero_column_warns_not_errors(self):
        x = np.ones((10, 2))
        x[:, 1] = 0.0
        data = Dataset(y=np.ones(10), x=x)
        with pytest.warns(UserWarning, match="all-zero") as record:
            fit(data, PriorSpec.horseshoe(),
                McmcConfig(iterations=50, burn_in=10, seed=1))
        # The warning points at the caller of fit, not into the package.
        assert record[0].filename == __file__

    def test_size_precondition(self):
        tiny = Dataset(y=np.ones(1), x=np.ones((1, 1)))
        with pytest.raises(InvariantError, match="two observations"):
            fit(tiny, PriorSpec.horseshoe(),
                McmcConfig(iterations=10, burn_in=1, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_likelihood_aborts_with_iteration(self):
        # Response magnitudes near the float ceiling overflow the residual
        # sum of squares; the chain must stop with a diagnostic instead of
        # emitting NaN draws.
        rng = np.random.default_rng(1)
        data = Dataset(y=np.full(5, 1e200), x=rng.standard_normal((5, 2)))
        with pytest.raises(NonFiniteStateError, match="iteration"):
            fit(data, PriorSpec.horseshoe(),
                McmcConfig(iterations=20, burn_in=5, seed=0))


class TestBetaDrawOneStep:
    """One conditional draw of beta against N(A^-1 X'y, sigma2 A^-1)."""

    @pytest.mark.parametrize("path", ["dense", "woodbury"])
    @pytest.mark.parametrize("n,p", [(7, 3), (3, 5)])
    def test_moments_match_closed_form(self, path, n, p):
        gen = np.random.default_rng(n * 10 + p)
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        d = gen.uniform(0.2, 3.0, p)
        sigma2 = 0.49
        a_inv = np.linalg.inv(x.T @ x + np.diag(1.0 / d))
        mean = a_inv @ (x.T @ y)
        cov = sigma2 * a_inv
        t = 20000
        draws = _beta_draws(x, y, d, sigma2, t, 42, path == "woodbury")
        mean_se = np.sqrt(np.diag(cov) / t)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * mean_se)
        # Gaussian sampling error of a covariance entry:
        # var(S_ij) = (C_ii C_jj + C_ij^2) / t.
        var = np.diag(cov)
        cov_se = np.sqrt((np.outer(var, var) + cov ** 2) / t)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 5 * cov_se)


class TestChainAgainstQuadrature:
    """The Gibbs chain's posterior mean at p = 2 against the quadrature.

    With tau and sigma2 held, the chain targets the posterior of
    ``TwoVarProblem``: Gram matrix G = [[1, rho], [rho, 1]], error variance
    1, and beta_j ~ N(0, lam_j tau^2) with sqrt(lam_j) standard
    half-Cauchy; the sampler's ``tau`` is the variance scale tau^2. So the
    chain's mean of beta must reach ``hs_shrinkage(problem).estimate``, and
    the reverse-shrinkage flag that ``shrinkmap`` reads from it. Points near
    the flag's boundary, or whose posterior puts the signal on either
    coordinate (rho 0.99, tau 0.05, A 10), are left out.
    """

    SWEEPS = 20_000

    @pytest.mark.parametrize("path", ["dense", "woodbury"])
    @pytest.mark.parametrize("rho,tau,a,x2,reverse", [
        (0.94, 0.1, 10.0, 1.5, True),  # strong: shrunk ratio 258
        (0.97, 0.5, 2.0, 1.0, False),  # shrunk ratio 1.08
        (0.0, 0.3, 3.0, 1.0, True)])  # shrunk ratio 9.8
    def test_posterior_mean_and_flag(self, path, rho, tau, a, x2, reverse):
        pr = TwoVarProblem(rho=rho, tau=tau, mle=(a * x2, x2))
        quad = np.array(hs_shrinkage(pr).estimate)
        # X'X = G and the least-squares fit of y = X mle is mle.
        x = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]])).T.copy()
        y = x @ np.array(pr.mle)
        # An inverse-gamma(1e12, 1e12) prior holds sigma2 within about 1e-6
        # of 1; tau is set before each sweep, whose beta and lam draws read
        # it before the sweep redraws it.
        prior = PriorSpec.horseshoe(ig_shape=1e12, ig_scale=1e12,
                                    tau_upper=None)
        state = _horseshoe_start(2)
        steps = samplers._horseshoe_sweeps(_rng(11), x, y, state, prior,
                                           path == "woodbury")
        draws = np.empty((self.SWEEPS, 2))
        for i in range(self.SWEEPS):
            state.tau = tau * tau
            next(steps)
            draws[i] = state.beta
        kept = draws[self.SWEEPS // 10:]
        mean = kept.mean(axis=0)
        se = np.array([batch_means_se(kept[:, j], 50) for j in range(2)])
        assert np.all(np.abs(mean - quad) < 4.0 * se), (mean, quad, se)
        assert (abs(quad[0] / quad[1]) >= a) == reverse
        assert (abs(mean[0] / mean[1]) >= a) == reverse


class TestSpdSolve:
    """The Cholesky solve of both beta draws against ``np.linalg.solve``."""

    @staticmethod
    def _matches_lu(a, b):
        want = np.linalg.solve(a, b)
        got = samplers._spd_solver(a.copy(), b.copy())()
        assert got == pytest.approx(want, rel=1e-12)

    def test_woodbury_matrix(self):
        """I + X D X' at n=50, p=301."""
        gen = np.random.default_rng(11)
        d = gen.uniform(0.2, 3.0, 301)
        xs = gen.standard_normal((50, 301)) * np.sqrt(d)
        m = xs @ xs.T
        m.flat[::51] += 1.0
        self._matches_lu(m, gen.standard_normal(50))

    @pytest.mark.parametrize("low,high", [(0.2, 3.0), (1e-6, 1e3)])
    def test_dense_matrix(self, low, high):
        """X'X + D^-1 at n=200, p=101, d log-uniform on [low, high]."""
        gen = np.random.default_rng(12)
        x = gen.standard_normal((200, 101))
        d = np.exp(gen.uniform(math.log(low), math.log(high), 101))
        a = x.T @ x
        a.flat[::102] += 1.0 / d
        self._matches_lu(a, gen.standard_normal(101))

    @pytest.fixture
    def lapack(self):
        if samplers._dposv() is None:
            pytest.skip("numpy's bundled OpenBLAS lacks dposv")

    def test_not_positive_definite_is_non_finite(self, lapack):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert not np.any(np.isfinite(samplers._spd_solver(a, np.ones(2))()))

    def test_without_openblas_singular_is_non_finite(self, monkeypatch):
        # As dposv's info > 0, so that the chain stops at its finite-state
        # check instead of raising LinAlgError.
        monkeypatch.setattr(samplers, "_dposv", lambda: None)
        got = samplers._spd_solver(np.zeros((2, 2)), np.ones(2))()
        assert np.isnan(got).all()

    @pytest.mark.parametrize("a,b", [
        (np.eye(3, dtype=np.float32), np.ones(3)),   # not float64
        (np.eye(4)[::2, ::2], np.ones(2)),           # not contiguous
        (np.eye(3), np.ones((3, 1))),                # b not a vector
        (np.eye(3), np.ones(2)),                     # sizes differ
    ])
    def test_unfit_buffers_refused(self, lapack, a, b):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            samplers._spd_solver(a, b)()

    def test_refused_argument_raises(self, lapack):
        # An empty system has lda = 0, below LAPACK's minimum of 1.
        with pytest.raises(RuntimeError, match="argument 5"):
            samplers._spd_solver(np.empty((0, 0)), np.empty(0))()

    @pytest.mark.parametrize("path", ["dense", "woodbury"])
    def test_without_openblas_draws_by_lu_solve(self, path, monkeypatch):
        monkeypatch.setattr(samplers, "_dposv", lambda: None)
        gen = np.random.default_rng(13)
        n, p = (40, 10) if path == "dense" else (10, 40)
        x, y = gen.standard_normal((n, p)), gen.standard_normal(n)
        d, sigma2 = gen.uniform(0.2, 3.0, p), 0.49
        sigma = math.sqrt(sigma2)
        got = _beta_draws(x, y, d, sigma2, 1, 5, path == "woodbury")[0]
        if path == "dense":
            e = _rng(5).standard_normal(n + p)
            w = x.T @ e[:n] + e[n:] / np.sqrt(d)
            want = np.linalg.solve(x.T @ x + np.diag(1.0 / d),
                                   x.T @ y + sigma * w)
        else:
            ref = _rng(5)
            u = np.sqrt(d) * ref.standard_normal(p)
            v = x @ u + ref.standard_normal(n)
            xs = x * np.sqrt(d)
            w = np.linalg.solve(xs @ xs.T + np.eye(n), y / sigma - v)
            want = sigma * (u + d * (x.T @ w))
        assert np.array_equal(got, want)


class TestBoundCalls:
    """The chain's bound ``dposv`` and work arrays against sharing."""

    @pytest.mark.parametrize("path,shapes", [
        ("woodbury", [(12, 30), (15, 40)]), ("dense", [(30, 8), (40, 12)])])
    def test_interleaved_chains_reproduce_solo_draws(self, path, shapes):
        """Two chains of different shapes, stepped alternately in one
        thread, share no bound pointer or buffer."""
        gen = np.random.default_rng(23)
        problems = [(gen.standard_normal(s), gen.standard_normal(s[0]))
                    for s in shapes]
        woodbury = path == "woodbury"

        def chain(i):
            """Chain i's sweeps; each step returns its state's latents."""
            (x, y), state = problems[i], _horseshoe_start(shapes[i][1])
            steps = samplers._horseshoe_sweeps(_rng(i), x, y, state,
                                               PriorSpec.horseshoe(), woodbury)
            while True:
                next(steps)
                yield np.concatenate([state.beta, state.lam,
                                      [state.sigma2, state.tau]])

        with samplers._one_blas_thread():
            solo = [[next(c) for _ in range(20)] for c in map(chain, (0, 1))]
            mixed = [[], []]
            chains = [chain(0), chain(1)]
            for _ in range(20):
                for i in (0, 1):
                    mixed[i].append(next(chains[i]))
        for got, want in zip(mixed, solo):
            assert np.array_equal(np.array(got), np.array(want))


class TestSpikeSlab:
    def test_inclusion_matches_exact_enumeration(self, signal_data):
        prior = PriorSpec.spike_slab()
        mc = McmcConfig(iterations=12000, burn_in=2000, seed=11)
        draws = fit(signal_data, prior, mc)
        freq = draws.z.mean(axis=0)
        p1, p2 = exact_two_var_inclusion(signal_data.y, signal_data.x, prior)
        assert freq[0] > 0.9 and p1 > 0.9
        assert freq[1] < 0.5 and p2 < 0.5
        assert abs(freq[0] - p1) < 0.05
        assert abs(freq[1] - p2) < 0.05

    def test_support_consistency(self, signal_data):
        mc = McmcConfig(iterations=1500, burn_in=300, seed=9)
        draws = fit(signal_data, PriorSpec.spike_slab(), mc)
        assert np.all(draws.beta[draws.z == 0] == 0.0)
        assert np.all(draws.beta[draws.z == 1] != 0.0)

    def test_null_data_keeps_inclusion_below_prior_mean(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal((120, 12))
        y = rng.standard_normal(120)
        data = Dataset(y=y, x=x)
        mc = McmcConfig(iterations=4000, burn_in=1000, seed=21)
        draws = fit(data, PriorSpec.spike_slab(), mc)
        # prior mean of the inclusion weight is 1/16
        assert (1.0 - draws.pi).mean() < 1.0 / 16.0 + 0.05

    def test_deterministic_per_seed(self, signal_data):
        mc = McmcConfig(iterations=400, burn_in=100, seed=123)
        d1 = fit(signal_data, PriorSpec.spike_slab(), mc)
        d2 = fit(signal_data, PriorSpec.spike_slab(), mc)
        assert np.array_equal(d1.beta, d2.beta)
        assert np.array_equal(d1.z, d2.z)
        assert np.array_equal(d1.pi, d2.pi)

    def test_dispersed_start_agrees_with_default(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((80, 5))
        beta_t = np.array([4.0, 0, 0, 0, 0])
        y = x @ beta_t + rng.standard_normal(80)
        data = Dataset(y=y, x=x)
        prior = PriorSpec.spike_slab()
        cold = fit(data, prior,
                   McmcConfig(iterations=8000, burn_in=2000, seed=1))
        init = ChainState(beta=beta_t, sigma2=1.0,
                          z=(beta_t != 0).astype(np.int64), pi=15.0 / 16.0,
                          sigma_j2=np.ones(5))
        warm = _spike_slab_from(
            data, prior, McmcConfig(iterations=8000, burn_in=2000, seed=2),
            init)
        for j in range(5):
            se = np.hypot(batch_means_se(cold.beta[:, j]),
                          batch_means_se(warm.beta[:, j]))
            diff = abs(cold.beta[:, j].mean() - warm.beta[:, j].mean())
            assert diff < 3 * max(se, 1e-3), f"coordinate {j}"


class TestRoundTripThroughSampler:
    def test_draw_file_loads_back(self, signal_data, tmp_path):
        mc = McmcConfig(iterations=200, burn_in=50, seed=3)
        draws = fit(signal_data, PriorSpec.horseshoe(), mc)
        path = tmp_path / "draws.csv"
        save_draws(draws, str(path))
        back = load_draws(str(path))
        assert np.array_equal(back.beta, draws.beta)
        assert np.array_equal(back.lam, draws.lam)
        assert np.array_equal(back.tau, draws.tau)


def _plain_inv_gamma(rng, shape, scale):
    size = np.shape(scale) if np.ndim(scale) else None
    g = rng.standard_gamma(shape, size=size)
    return np.maximum(np.asarray(scale) / np.maximum(g, 1e-300), 1e-300)


def _plain_truncated_inv_gamma(rng, shape, scale, upper):
    for _ in range(100):
        draw = float(_plain_inv_gamma(rng, shape, scale))
        if draw <= upper:
            return draw
    return upper


def _reference_horseshoe(data, prior, mcmc, init, path):
    """The horseshoe loop as first written, one Gibbs update at a time.

    Its changes: the Woodbury matrix is formed as xs @ xs.T with
    xs = x * sqrt(d) instead of (x * d) @ x.T, and both beta draws solve
    with one call of a fresh ``_spd_solver(a, b)``, the Cholesky solve the
    sweep binds once per chain (checked against ``np.linalg.solve`` in
    ``TestSpdSolve``), instead of an LU solve.
    """
    x, y = data.x, data.y
    n, p = x.shape
    gram, xty = x.T @ x, x.T @ y
    rng = _rng(mcmc.seed)
    beta, sigma2 = np.array(init.beta, dtype=float), float(init.sigma2)
    lam, tau = np.array(init.lam, dtype=float), float(init.tau)
    nu, xi = np.array(init.nu, dtype=float), float(init.xi)
    kept = {"beta": [], "sigma2": [], "lam": [], "tau": []}
    for it in range(1, mcmc.iterations + 1):
        d = tau * lam
        sigma = np.sqrt(sigma2)
        if path == "woodbury":
            u = np.sqrt(d) * rng.standard_normal(p)
            delta = rng.standard_normal(n)
            v = x @ u + delta
            xs = x * np.sqrt(d)
            m = xs @ xs.T
            m[np.diag_indices_from(m)] += 1.0
            w = samplers._spd_solver(m, y / sigma - v)()
            beta = sigma * (u + d * (x.T @ w))
        else:
            e = rng.standard_normal(n + p)
            a = gram.copy()
            a[np.diag_indices_from(a)] += 1.0 / d
            w = x.T @ e[:n] + e[n:] / np.sqrt(d)
            beta = samplers._spd_solver(a, xty + sigma * w)()
        resid = y - x @ beta
        scaled_b2 = beta ** 2 / lam
        sigma2 = float(_plain_inv_gamma(
            rng, prior.ig_shape + 0.5 * (n + p),
            prior.ig_scale + 0.5 * (resid @ resid)
            + 0.5 * scaled_b2.sum() / tau))
        lam = _plain_inv_gamma(
            rng, 1.0, 1.0 / nu + beta ** 2 / (2.0 * sigma2 * tau))
        nu = _plain_inv_gamma(rng, 1.0, 1.0 + 1.0 / lam)
        tau_scale = 1.0 / xi + 0.5 * (beta ** 2 / lam).sum() / sigma2
        if prior.tau_upper is None:
            tau = float(_plain_inv_gamma(rng, 0.5 * (p + 1), tau_scale))
        else:
            tau = _plain_truncated_inv_gamma(
                rng, 0.5 * (p + 1), tau_scale, prior.tau_upper)
        xi = float(_plain_inv_gamma(rng, 1.0, 1.0 + 1.0 / tau))
        if it > mcmc.burn_in and (it - mcmc.burn_in) % mcmc.thin == 0:
            for name, value in (("beta", beta), ("sigma2", sigma2),
                                ("lam", lam), ("tau", tau)):
                kept[name].append(value)
    return {name: np.array(v) for name, v in kept.items()}


class TestStreamIdentities:
    """The equalities of numpy's Philox streams that let the horseshoe sweep
    draw what the reference loop draws with fewer, cheaper calls. A numpy
    release that breaks one fails here by name."""

    def test_standard_exponential_is_the_shape_one_gamma(self):
        a, b = _rng(4), _rng(4)
        assert np.array_equal(a.standard_exponential(size=257),
                              b.standard_gamma(1.0, size=257))
        out = np.empty(64)
        a.standard_exponential(out=out)
        assert np.array_equal(out, b.standard_gamma(1.0, size=64))
        for _ in range(50):
            assert a.standard_exponential() == b.standard_gamma(1.0)
        assert np.array_equal(a.bit_generator.random_raw(4),
                              b.bit_generator.random_raw(4))

    def test_one_normal_call_is_two_in_a_row(self):
        a, b = _rng(5), _rng(5)
        e = np.empty(351)
        a.standard_normal(out=e)
        assert np.array_equal(e, np.concatenate([b.standard_normal(301),
                                                 b.standard_normal(50)]))
        assert np.array_equal(a.bit_generator.random_raw(4),
                              b.bit_generator.random_raw(4))


class TestHorseshoeAgainstReferenceLoop:
    """The horseshoe chain reproduces the plain Gibbs loop bit for bit."""

    @pytest.mark.parametrize("tau_upper", [1.0, None])
    @pytest.mark.parametrize("path,n,p", [("woodbury", 30, 70),
                                          ("dense", 60, 12)])
    def test_bit_identical(self, path, n, p, tau_upper):
        gen = np.random.default_rng(n + p)
        x = gen.standard_normal((n, p))
        beta_t = np.zeros(p)
        beta_t[:3] = (5.0, -4.0, 3.0)
        data = Dataset(y=x @ beta_t + gen.standard_normal(n), x=x)
        prior = PriorSpec.horseshoe(tau_upper=tau_upper)
        mcmc = McmcConfig(iterations=300, burn_in=100, thin=2, seed=17)
        init = ChainState(beta=beta_t, sigma2=2.0,
                          lam=gen.uniform(0.5, 2.0, p), tau=0.3,
                          nu=gen.uniform(0.5, 2.0, p), xi=1.5)
        got = _horseshoe_from(data, prior, mcmc, init, path == "woodbury")
        ref = _reference_horseshoe(data, prior, mcmc, init, path)
        for name in ("beta", "sigma2", "lam", "tau"):
            assert np.array_equal(getattr(got, name), ref[name]), name


_THREAD_CHILD = """
import hashlib
import numpy as np
from shrinksel.core import Dataset, PriorSpec
from shrinksel.samplers import McmcConfig, fit
gen = np.random.default_rng(5)
x = gen.standard_normal((50, 300))
beta = np.zeros(300)
beta[:5] = 4.0
data = Dataset(y=x @ beta + gen.standard_normal(50), x=x)
draws = fit(data, PriorSpec.horseshoe(),
            McmcConfig(iterations=400, burn_in=100, seed=9))
print(hashlib.sha256(draws.beta.tobytes() + draws.tau.tobytes()).hexdigest())
"""


def test_woodbury_draws_independent_of_blas_threads():
    """A seeded p > n chain gives the same bytes on one and two BLAS threads."""
    import shrinksel
    src = os.path.dirname(os.path.dirname(os.path.abspath(shrinksel.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _THREAD_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


_DENSE_THREAD_CHILD = """
import hashlib
import numpy as np
from shrinksel.core import Dataset, PriorSpec
from shrinksel.samplers import McmcConfig, fit
gen = np.random.default_rng(5)
x = gen.standard_normal((200, 101))
beta = np.zeros(101)
beta[:5] = 4.0
data = Dataset(y=x @ beta + gen.standard_normal(200), x=x)
draws = fit(data, PriorSpec.horseshoe(),
            McmcConfig(iterations=400, burn_in=100, seed=9))
print(hashlib.sha256(draws.beta.tobytes() + draws.tau.tobytes()).hexdigest())
"""


def test_dense_draws_independent_of_blas_threads():
    """A seeded p < n chain gives the same bytes on one and two BLAS threads:
    the p x p solve runs inside the chain's one-thread pin."""
    import shrinksel
    src = os.path.dirname(os.path.dirname(os.path.abspath(shrinksel.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _DENSE_THREAD_CHILD],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


class TestBlasPin:
    """``_run_chain`` runs on one BLAS thread and restores the caller's
    count, also when the chain raises."""

    @pytest.fixture
    def blas_two_threads(self):
        calls = samplers._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's OpenBLAS thread-count symbols are missing")
        get, set_ = calls
        before = get()
        set_(2)
        try:
            yield get
        finally:
            set_(before)

    @staticmethod
    def _data():
        gen = np.random.default_rng(2)
        x = gen.standard_normal((20, 4))
        return Dataset(y=gen.standard_normal(20), x=x)

    def test_chain_on_one_thread_then_restored(self, blas_two_threads):
        seen = []

        def sweeps(rng, x, y, state):
            seen.append(blas_two_threads())  # the set-up
            while True:
                state.beta = rng.standard_normal(x.shape[1])
                seen.append(blas_two_threads())
                yield

        state = ChainState(beta=np.zeros(4), sigma2=1.0)
        draws = samplers._run_chain(self._data(),
                                    McmcConfig(iterations=6, burn_in=2),
                                    state, sweeps)
        assert draws.t == 4
        assert seen == [1] * 7
        assert blas_two_threads() == 2

    def test_restored_after_non_finite_state(self, blas_two_threads):
        def sweeps(rng, x, y, state):
            while True:
                state.beta = np.full(x.shape[1], np.nan)
                yield

        with pytest.raises(RuntimeError, match="non-finite"):
            samplers._run_chain(self._data(),
                                McmcConfig(iterations=6, burn_in=2),
                                ChainState(beta=np.zeros(4), sigma2=1.0),
                                sweeps)
        assert blas_two_threads() == 2

    def test_overlapping_pins_restore_once(self, blas_two_threads):
        """Chain A pins, chain B pins, A leaves, B leaves: B keeps one
        thread after A has left, and the count is restored once B leaves."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = []

        def chain_a():
            with samplers._one_blas_thread():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def chain_b():
            a_in.wait(10)
            with samplers._one_blas_thread():
                b_in.set()
                a_out.wait(10)
                seen.append(blas_two_threads())

        threads = [threading.Thread(target=f) for f in (chain_a, chain_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert a_out.is_set() and seen == [1]
        assert blas_two_threads() == 2

    def test_without_openblas_same_woodbury_draws(self, monkeypatch):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((15, 30))
        data = Dataset(y=x[:, 0] * 3.0 + gen.standard_normal(15), x=x)
        mcmc = McmcConfig(iterations=60, burn_in=20, seed=3)
        pinned = fit(data, PriorSpec.horseshoe(), mcmc)
        monkeypatch.setattr(samplers, "_blas_thread_calls", lambda: None)
        plain = fit(data, PriorSpec.horseshoe(), mcmc)
        assert np.array_equal(pinned.beta, plain.beta)
        assert np.array_equal(pinned.tau, plain.tau)


def _reference_spike_slab(data, prior, mcmc, init, direct_dot=None):
    """The spike-and-slab sweep as a plain loop, one update at a time.

    With ``direct_dot`` the loop carries the residual and takes one
    length-n dot per coordinate. Without it, each sweep starts from
    g = X'r and reads the partial residual statistic of coordinate j as
    g_j + ||x_j||^2 beta_j; when beta_j changes, g moves by the Gram column
    X'x_j, computed afresh every time: the same chain up to rounding.
    ``direct_dot`` defaults to p > n, the sampler's choice.

    The design is copied to column-major order, as the sampler does, so
    the products run the same BLAS kernels.
    """
    x, y = np.asfortranarray(data.x), data.y
    n, p = x.shape
    if direct_dot is None:
        direct_dot = p > n
    col_norm2 = np.sum(x * x, axis=0)
    a_beta, b_beta = prior.ss_beta_a, prior.ss_beta_b
    rng = _rng(mcmc.seed)
    if init is None:
        beta, sigma2, z = np.zeros(p), 1.0, np.zeros(p, dtype=np.int64)
        pi, sj2 = b_beta / (a_beta + b_beta), np.ones(p)
    else:
        beta, sigma2 = np.array(init.beta, dtype=float), float(init.sigma2)
        z, pi = np.array(init.z, dtype=np.int64), float(init.pi)
        sj2 = np.array(init.sigma_j2, dtype=float)
    resid = y - x @ beta
    kept = {"beta": [], "sigma2": [], "z": [], "pi": []}
    for it in range(1, mcmc.iterations + 1):
        q = col_norm2 + 1.0 / sj2
        u = rng.random(p)
        logit_u = np.log(u) - np.log1p(-u)
        log_odds0 = (math.log1p(-pi) - math.log(pi)
                     - 0.5 * np.log1p(sj2 * col_norm2))
        half_prec = 0.5 / (sigma2 * q)
        slab_noise = np.sqrt(sigma2 / q) * rng.standard_normal(p)
        g = x.T @ resid
        for j in range(p):
            old = float(beta[j])
            xtr = float(resid @ x[:, j]) if direct_dot else float(g[j])
            tj = xtr + float(col_norm2[j]) * old
            if logit_u[j] < log_odds0[j] + tj * tj * half_prec[j]:
                z[j] = 1
                new = tj / float(q[j]) + float(slab_noise[j])
            else:
                z[j] = 0
                new = 0.0
            if new != old:
                if direct_dot:
                    resid += x[:, j] * (old - new)
                else:
                    g -= (new - old) * (x.T @ x[:, j])
                beta[j] = new
        sj2 = _plain_inv_gamma(rng, prior.ig_shape + 0.5 * z,
                               prior.ig_scale + 0.5 * beta ** 2 / sigma2)
        k = int(z.sum())
        pi = 1.0 - rng.beta(a_beta + k, b_beta + p - k)
        pi = min(max(pi, 1e-12), 1.0 - 1e-12)
        resid = y - x @ beta
        sigma2 = float(_plain_inv_gamma(
            rng, prior.ig_shape + 0.5 * (n + k),
            prior.ig_scale + 0.5 * float(resid @ resid)
            + 0.5 * float(np.sum(beta ** 2 / sj2))))
        if it > mcmc.burn_in and (it - mcmc.burn_in) % mcmc.thin == 0:
            for name, value in (("beta", beta), ("sigma2", sigma2),
                                ("z", z), ("pi", pi)):
                kept[name].append(np.copy(value))
    return {name: np.array(v) for name, v in kept.items()}


class TestSpikeSlabAgainstReferenceLoop:
    """The spike-and-slab chain reproduces the plain Gibbs loop bit for bit,
    and at p <= n the direct-dot loop up to the rounding of X'r. Without a
    chosen start it runs through ``fit``, so its default start is checked
    too."""

    def _case(self, n, p, with_init):
        gen = np.random.default_rng(n * p)
        x = gen.standard_normal((n, p))
        beta_t = np.zeros(p)
        beta_t[:3] = (5.0, -4.0, 3.0)
        data = Dataset(y=x @ beta_t + gen.standard_normal(n), x=x)
        # A short burn-in: chains on one stream can coalesce, so late draws
        # need not show the start.
        mcmc = McmcConfig(iterations=200, burn_in=1, thin=2, seed=23)
        init = None
        if with_init:
            init = ChainState(beta=beta_t, sigma2=2.0,
                              z=(beta_t != 0).astype(np.int64), pi=0.8,
                              sigma_j2=gen.uniform(0.5, 2.0, p))
        return data, PriorSpec.spike_slab(), mcmc, init

    @staticmethod
    def _chain(data, prior, mcmc, init):
        return (fit(data, prior, mcmc) if init is None
                else _spike_slab_from(data, prior, mcmc, init))

    @pytest.mark.parametrize("with_init", [False, True])
    @pytest.mark.parametrize("n,p", [(60, 12), (30, 70)])
    def test_bit_identical(self, n, p, with_init):
        data, prior, mcmc, init = self._case(n, p, with_init)
        got = self._chain(data, prior, mcmc, init)
        ref = _reference_spike_slab(data, prior, mcmc, init)
        for name in ("beta", "sigma2", "z", "pi"):
            assert np.array_equal(getattr(got, name), ref[name]), name

    @pytest.mark.parametrize("with_init", [False, True])
    def test_matches_direct_dot_loop(self, with_init):
        data, prior, mcmc, init = self._case(60, 12, with_init)
        got = self._chain(data, prior, mcmc, init)
        ref = _reference_spike_slab(data, prior, mcmc, init, direct_dot=True)
        assert np.array_equal(got.z, ref["z"])
        assert np.array_equal(got.pi, ref["pi"])
        assert got.beta == pytest.approx(ref["beta"], rel=1e-12)
        assert got.sigma2 == pytest.approx(ref["sigma2"], rel=1e-12)
