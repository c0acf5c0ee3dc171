"""Sampler contracts: determinism, invariants, and posterior correctness."""

import numpy as np
import pytest

from conftest import batch_means_se, exact_two_var_inclusion, orthonormal_design
from shrinksel.core import Dataset, InvariantError, PriorSpec, load_draws, save_draws
from shrinksel.samplers import (ChainState, McmcConfig, _draw_beta_dense,
                                _draw_beta_woodbury, _rng, fit_horseshoe,
                                fit_spike_slab, write_run_manifest)


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


class TestHorseshoe:
    def test_recovers_strong_signal(self, signal_data):
        mc = McmcConfig(iterations=4000, burn_in=1000, seed=11)
        draws = fit_horseshoe(signal_data, PriorSpec.horseshoe(), mc)
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
        draws = fit_horseshoe(data, PriorSpec.horseshoe(), mc)
        assert np.all(np.abs(draws.beta.mean(axis=0)) < 0.2)

    def test_deterministic_per_seed_including_files(self, signal_data, tmp_path):
        mc = McmcConfig(iterations=300, burn_in=100, seed=99)
        d1 = fit_horseshoe(signal_data, PriorSpec.horseshoe(), mc)
        d2 = fit_horseshoe(signal_data, PriorSpec.horseshoe(), mc)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_draws(d1, str(p1))
        save_draws(d2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        d3 = fit_horseshoe(signal_data, PriorSpec.horseshoe(),
                           McmcConfig(iterations=300, burn_in=100, seed=100))
        assert not np.array_equal(d1.beta, d3.beta)

    def test_retained_latents_positive_and_bounded(self, signal_data):
        mc = McmcConfig(iterations=800, burn_in=200, seed=4)
        draws = fit_horseshoe(signal_data, PriorSpec.horseshoe(tau_upper=0.5), mc)
        assert np.all(draws.lam > 0)
        assert np.all(draws.sigma2 > 0)
        assert np.all(draws.tau > 0)
        assert np.all(draws.tau <= 0.5)

    def test_unbounded_tau_allowed(self, signal_data):
        mc = McmcConfig(iterations=400, burn_in=100, seed=4)
        draws = fit_horseshoe(signal_data, PriorSpec.horseshoe(tau_upper=None), mc)
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
        dense = fit_horseshoe(data, prior, mc, beta_update="dense")
        wood = fit_horseshoe(data, prior, mc, beta_update="woodbury")
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
        cold = fit_horseshoe(data, prior,
                             McmcConfig(iterations=6000, burn_in=1000, seed=5))
        init = ChainState(beta=beta_t.copy(), sigma2=1.0,
                          lam=np.ones(6), tau=1.0, nu=np.ones(6), xi=1.0)
        warm = fit_horseshoe(data, prior,
                             McmcConfig(iterations=6000, burn_in=1000, seed=6),
                             init_state=init)
        for j in range(6):
            se = np.hypot(batch_means_se(cold.beta[:, j]),
                          batch_means_se(warm.beta[:, j]))
            diff = abs(cold.beta[:, j].mean() - warm.beta[:, j].mean())
            assert diff < 3 * max(se, 1e-3), f"coordinate {j}"

    def test_zero_column_warns_not_errors(self):
        x = np.ones((10, 2))
        x[:, 1] = 0.0
        data = Dataset(y=np.ones(10), x=x)
        with pytest.warns(UserWarning, match="all-zero"):
            fit_horseshoe(data, PriorSpec.horseshoe(),
                          McmcConfig(iterations=50, burn_in=10, seed=1))

    def test_family_and_size_preconditions(self, signal_data):
        with pytest.raises(InvariantError):
            fit_horseshoe(signal_data, PriorSpec.spike_slab(),
                          McmcConfig(iterations=10, burn_in=1, seed=0))
        tiny = Dataset(y=np.ones(1), x=np.ones((1, 1)))
        with pytest.raises(InvariantError):
            fit_horseshoe(tiny, PriorSpec.horseshoe(),
                          McmcConfig(iterations=10, burn_in=1, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_likelihood_aborts_with_iteration(self):
        # Response magnitudes near the float ceiling overflow the residual
        # sum of squares; the chain must stop with a diagnostic instead of
        # emitting NaN draws.
        rng = np.random.default_rng(1)
        data = Dataset(y=np.full(5, 1e200), x=rng.standard_normal((5, 2)))
        with pytest.raises(RuntimeError, match="iteration"):
            fit_horseshoe(data, PriorSpec.horseshoe(),
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
        sigma = 0.7
        a_inv = np.linalg.inv(x.T @ x + np.diag(1.0 / d))
        mean = a_inv @ (x.T @ y)
        cov = sigma ** 2 * a_inv
        rng = _rng(42)
        t = 20000
        if path == "dense":
            gram, xty = x.T @ x, x.T @ y
            draws = np.array([_draw_beta_dense(rng, x, gram, xty, d, sigma)
                              for _ in range(t)])
        else:
            draws = np.array([_draw_beta_woodbury(rng, x, y, d, sigma)
                              for _ in range(t)])
        mean_se = np.sqrt(np.diag(cov) / t)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * mean_se)
        # Gaussian sampling error of a covariance entry:
        # var(S_ij) = (C_ii C_jj + C_ij^2) / t.
        var = np.diag(cov)
        cov_se = np.sqrt((np.outer(var, var) + cov ** 2) / t)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 5 * cov_se)


class TestSpikeSlab:
    def test_inclusion_matches_exact_enumeration(self, signal_data):
        prior = PriorSpec.spike_slab()
        mc = McmcConfig(iterations=12000, burn_in=2000, seed=11)
        draws = fit_spike_slab(signal_data, prior, mc)
        freq = draws.z.mean(axis=0)
        p1, p2 = exact_two_var_inclusion(signal_data.y, signal_data.x, prior)
        assert freq[0] > 0.9 and p1 > 0.9
        assert freq[1] < 0.5 and p2 < 0.5
        assert abs(freq[0] - p1) < 0.05
        assert abs(freq[1] - p2) < 0.05

    def test_support_consistency(self, signal_data):
        mc = McmcConfig(iterations=1500, burn_in=300, seed=9)
        draws = fit_spike_slab(signal_data, PriorSpec.spike_slab(), mc)
        assert np.all(draws.beta[draws.z == 0] == 0.0)
        assert np.all(draws.beta[draws.z == 1] != 0.0)

    def test_null_data_keeps_inclusion_below_prior_mean(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal((120, 12))
        y = rng.standard_normal(120)
        data = Dataset(y=y, x=x)
        mc = McmcConfig(iterations=4000, burn_in=1000, seed=21)
        draws = fit_spike_slab(data, PriorSpec.spike_slab(), mc)
        # prior mean of the inclusion weight is 1/16
        assert (1.0 - draws.pi).mean() < 1.0 / 16.0 + 0.05

    def test_deterministic_per_seed(self, signal_data):
        mc = McmcConfig(iterations=400, burn_in=100, seed=123)
        d1 = fit_spike_slab(signal_data, PriorSpec.spike_slab(), mc)
        d2 = fit_spike_slab(signal_data, PriorSpec.spike_slab(), mc)
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
        cold = fit_spike_slab(data, prior,
                              McmcConfig(iterations=8000, burn_in=2000, seed=1))
        init = ChainState(beta=beta_t.copy(), sigma2=1.0,
                          z=(beta_t != 0).astype(np.int64), pi=15.0 / 16.0,
                          sigma_j2=np.ones(5))
        warm = fit_spike_slab(data, prior,
                              McmcConfig(iterations=8000, burn_in=2000, seed=2),
                              init_state=init)
        for j in range(5):
            se = np.hypot(batch_means_se(cold.beta[:, j]),
                          batch_means_se(warm.beta[:, j]))
            diff = abs(cold.beta[:, j].mean() - warm.beta[:, j].mean())
            assert diff < 3 * max(se, 1e-3), f"coordinate {j}"

    def test_family_precondition(self, signal_data):
        with pytest.raises(InvariantError):
            fit_spike_slab(signal_data, PriorSpec.horseshoe(),
                           McmcConfig(iterations=10, burn_in=1, seed=0))


class TestManifest:
    def test_contents(self, signal_data, tmp_path):
        path = tmp_path / "manifest.txt"
        prior = PriorSpec.horseshoe()
        mc = McmcConfig(iterations=100, burn_in=20, seed=7)
        write_run_manifest(str(path), signal_data, prior, mc, 1.234)
        text = path.read_text()
        for needle in ("family: horseshoe", "seed: 7", "iterations: 100",
                       "wall_time_s: 1.234", "n: 200", "p: 2"):
            assert needle in text


class TestRoundTripThroughSampler:
    def test_draw_file_loads_back(self, signal_data, tmp_path):
        mc = McmcConfig(iterations=200, burn_in=50, seed=3)
        draws = fit_horseshoe(signal_data, PriorSpec.horseshoe(), mc)
        path = tmp_path / "draws.csv"
        save_draws(draws, str(path))
        back = load_draws(str(path))
        assert np.array_equal(back.beta, draws.beta)
        assert np.array_equal(back.lam, draws.lam)
        assert np.array_equal(back.tau, draws.tau)
