"""Selector behavior: clustering counts, aggregation, baselines, properties."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import brute_force_two_partition_ss, within_ss_of_split
from shrinksel import core, selection
from shrinksel.core import METHODS, InvariantError, PosteriorDraws
from shrinksel.selection import (S2mConfig, aggregate_mode, count_signals_2m,
                                 count_signals_s2m, kmeans2_1d,
                                 read_selection_report, resolve_b,
                                 run_selector, run_selectors, select_2m,
                                 select_credible,
                                 select_hppm, select_ht, select_mpm,
                                 select_s2m, write_selection_report)


def draws_from_beta(beta, sigma2=None, **kwargs) -> PosteriorDraws:
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if sigma2 is None:
        sigma2 = np.ones(beta.shape[0])
    return PosteriorDraws(beta=beta, sigma2=np.asarray(sigma2, float), **kwargs)


def table2_profile(rng=None):
    """Three strong signals, seven weak ones, 290 near-zero magnitudes."""
    rng = rng or np.random.default_rng(0)
    return np.concatenate([np.full(3, 15.0), np.full(7, 4.0),
                           rng.uniform(0.0, 0.1, 290)])


class TestKmeans1d:
    def test_separated_clusters(self):
        split = kmeans2_1d(np.array([0.0, 0.0, 0.0, 10.0, 10.0]))
        assert split.low_indices == frozenset({0, 1, 2})
        assert split.high_indices == frozenset({3, 4})
        assert split.m == 0.0 and split.M == 10.0

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.uniform(0.0, 1.0, int(rng.integers(2, 8)))
            split = kmeans2_1d(v)
            assert within_ss_of_split(v, split) == \
                brute_force_two_partition_ss(v)

    def test_strong_signals_form_their_own_cluster(self):
        v = table2_profile()
        split = kmeans2_1d(v)
        assert split.high_indices == frozenset({0, 1, 2})

    def test_partition_and_mean_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.exponential(1.0, int(rng.integers(2, 20)))
            split = kmeans2_1d(v)
            assert split.low_indices | split.high_indices == set(range(v.size))
            assert not split.low_indices & split.high_indices
            assert split.low_indices and split.high_indices
            assert split.m <= split.M

    def test_all_identical_values(self):
        split = kmeans2_1d(np.full(5, 2.5))
        assert len(split.high_indices) == 1
        assert split.m == split.M == 2.5

    def test_rejects_bad_input(self):
        with pytest.raises(InvariantError):
            kmeans2_1d(np.array([1.0]))
        with pytest.raises(InvariantError):
            kmeans2_1d(np.array([1.0, -0.5]))
        with pytest.raises(InvariantError):
            kmeans2_1d(np.array([1.0, np.inf]))


class TestCounts:
    def test_two_clear_signals(self):
        assert count_signals_2m(np.array([4, 4, 0.01, 0.02, 0.01])) == 2

    def test_exact_profile_counts(self):
        v = table2_profile()
        assert count_signals_2m(v) == 3
        assert count_signals_s2m(v, 2.0) == 10

    def test_recovered_truth_counts_r(self):
        beta = np.zeros(20)
        beta[[2, 5, 9]] = (3.0, 4.0, 5.0)
        assert count_signals_2m(np.abs(beta)) == 3

    def test_s2m_single_strength_matches_2m(self):
        v = np.array([4.0, 4.0] + [0.01] * 30)
        assert count_signals_s2m(v, 2.0) == count_signals_2m(v) == 2

    def test_s2m_first_gap_within_b_counts_everything(self):
        v = np.array([0.0, 0.2, 0.4, 0.6])
        assert count_signals_s2m(v, 10.0) == 4

    def test_s2m_singleton_noise_set(self):
        # First split isolates the two big values; the low "cluster" has
        # one element, too small to re-cluster.
        v = np.array([0.5, 30.0, 31.0])
        assert count_signals_s2m(v, 1.0) == 2

    def test_s2m_monotone_in_b_while_peeling(self):
        # Non-increasing in b among thresholds that trigger peeling; once b
        # swallows the first gap the literal rule jumps to p (noise set
        # never assigned), so that regime is excluded.
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(4, 40))
            v = np.abs(rng.standard_normal(p)) * rng.choice([0.05, 1.0, 10.0], p)
            b_lo, b_hi = np.sort(rng.uniform(0.01, 8.0, 2))
            h_lo = count_signals_s2m(v, b_lo)
            h_hi = count_signals_s2m(v, b_hi)
            if h_hi != v.size:
                assert h_lo >= h_hi

    def test_count_rejects_bad_b(self):
        with pytest.raises(InvariantError):
            count_signals_s2m(np.array([1.0, 2.0]), 0.0)

    @pytest.mark.parametrize("b", [True, np.True_, np.array([1.0, 2.0]),
                                   [1.0], None, np.nan])
    def test_bool_or_non_scalar_b_refused(self, b):
        # A bool used to count as b = 1.0, and an array raised numpy's
        # "truth value of an array is ambiguous" ValueError.
        with pytest.raises(InvariantError, match="finite number > 0"):
            count_signals_s2m(np.array([1.0, 2.0, 9.0]), b)
        with pytest.raises(InvariantError, match="finite number > 0"):
            S2mConfig(b=b)


class TestAggregateMode:
    def test_unique_mode(self):
        assert aggregate_mode([3, 3, 3, 4]) == 3

    def test_tie_goes_to_smaller(self):
        assert aggregate_mode([2, 2, 3, 3]) == 2

    def test_constant(self):
        assert aggregate_mode([5, 5, 5]) == 5

    def test_empty_rejected(self):
        with pytest.raises(InvariantError):
            aggregate_mode([])


class TestS2mSelection:
    def test_idealized_draws_recover_truth(self):
        beta_t = np.zeros(300)
        truth = frozenset(range(1, 11))
        beta_t[:10] = 4.0
        d = draws_from_beta(np.tile(beta_t, (25, 1)))
        for b in (0.5, 2.0, 3.9):
            res = select_s2m(d, S2mConfig(b=b))
            assert res.selected == truth
            assert res.h_mode == 10

    def test_two_sigma_hat_rule(self):
        d = draws_from_beta([[5.0, 0.1], [5.0, 0.1]],
                            sigma2=np.array([0.8, 1.2]))
        assert resolve_b(d, S2mConfig()) == 2.0
        res = select_s2m(d)
        assert res.selected == frozenset({1})

    def test_explicit_b_overrides(self):
        d = draws_from_beta([[5.0, 0.1]])
        assert resolve_b(d, S2mConfig(b=0.25)) == 0.25

    def test_warns_when_everything_selected(self):
        d = draws_from_beta([[0.1, 0.2, 0.3]])
        with pytest.warns(UserWarning, match="every variable"):
            res = select_s2m(d, S2mConfig(b=50.0))
        assert res.h_mode == 3

    @pytest.mark.parametrize("call", [
        select_s2m, lambda d: run_selectors(d, ["s2m"]),
        lambda d: run_selectors(d, ["s2m", "2m"]),
        lambda d: run_selector(d, "s2m")],
        ids=["select_s2m", "run_selectors-s2m", "run_selectors-s2m-2m",
             "run_selector-s2m"])
    def test_warning_points_at_the_caller(self, call):
        # run_selectors and run_selector used to report a line of
        # selection.py.
        d = draws_from_beta([[0.1, 0.2, 0.3]], sigma2=[100.0])
        with pytest.warns(UserWarning, match="every variable") as record:
            call(d)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.filterwarnings("ignore:s2m declared every variable")
    def test_h_counts_recorded(self):
        rng = np.random.default_rng(5)
        beta = rng.standard_normal((9, 12))
        res = select_s2m(draws_from_beta(beta), S2mConfig(b=1.0))
        assert res.h_counts.shape == (9,)
        assert len(res.selected) == res.h_mode


class TestTwoMSelection:
    def test_single_strength_recovery(self):
        beta_t = np.zeros(300)
        beta_t[:10] = 4.0
        d = draws_from_beta(np.tile(beta_t, (11, 1)))
        assert select_2m(d).selected == frozenset(range(1, 11))

    def test_constant_rows_give_h_one(self):
        d = draws_from_beta(np.full((4, 6), 1.7))
        res = select_2m(d)
        assert np.all(res.h_counts == 1) and res.h_mode == 1

    def test_single_draw(self):
        row = np.array([3.0, 3.0, 0.01, 0.02])
        d = draws_from_beta(row[None, :])
        res = select_2m(d)
        assert res.h_mode == count_signals_2m(np.abs(row)) == 2

    def test_no_b_resolved_and_no_warning_without_s2m(self, monkeypatch):
        # sigma2 puts b = 2 * median(sigma2) above every gap, so each s2m
        # count would be p and s2m would warn; 2m alone does neither.
        rng = np.random.default_rng(8)
        t, p = 12, 8
        d = draws_from_beta(rng.standard_normal((t, p)) * rng.uniform(
            0.1, 4.0, p), sigma2=np.full(t, 1e6))
        with pytest.warns(UserWarning, match="every variable"):
            assert np.all(select_s2m(d).h_counts == p)
        expected = [_oracle_2m_count(row) for row in np.abs(d.beta)]
        monkeypatch.setattr(selection, "resolve_b", None)  # never called
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = select_2m(d)
            outcomes = run_selectors(d, ["2m", "cs"])
        for res in (alone, outcomes["2m"]):
            assert res.h_counts.tolist() == expected
        assert outcomes["2m"].selected == alone.selected

    def test_masks_weak_signals_on_mixed_profile(self):
        profile = table2_profile()
        d = draws_from_beta(np.tile(profile, (7, 1)))
        res = select_2m(d)
        assert res.h_mode == 3 and res.selected == frozenset({1, 2, 3})
        s2m = select_s2m(d, S2mConfig(b=2.0))
        assert s2m.selected == frozenset(range(1, 11))


class TestBaselines:
    def test_hppm_frequency(self):
        z = np.array([[1, 0], [1, 0], [1, 1]])
        d = draws_from_beta(np.ones((3, 2)), z=z, pi=np.full(3, 0.5))
        assert select_hppm(d).selected == frozenset({1})

    def test_hppm_all_zero(self):
        d = draws_from_beta(np.zeros((2, 2)), z=np.zeros((2, 2)),
                            pi=np.full(2, 0.5))
        assert select_hppm(d).selected == frozenset()

    def test_hppm_tie_prefers_smaller_model(self):
        z = np.array([[1, 0, 0], [1, 1, 0]])
        d = draws_from_beta(np.ones((2, 3)), z=z, pi=np.full(2, 0.5))
        assert select_hppm(d).selected == frozenset({1})

    def test_hppm_tie_order_size_then_lexicographic(self):
        # The smaller model wins even when it is lexicographically larger;
        # equal sizes fall back to the lexicographically smallest pattern.
        for z, expected in [([[0, 1, 1], [1, 0, 0]], {1}),
                            ([[1, 0], [0, 1]], {2}),
                            ([[1, 1, 0], [0, 1, 1], [0, 1, 1], [1, 1, 0]],
                             {2, 3})]:
            z = np.array(z)
            d = draws_from_beta(np.ones(z.shape), z=z,
                                pi=np.full(z.shape[0], 0.5))
            assert select_hppm(d).selected == frozenset(expected)

    @pytest.mark.parametrize("block_bytes", [None, 8 * 13 * 3],
                             ids=["one-block", "3-row-blocks"])
    def test_hppm_equals_brute_force_count(self, monkeypatch, block_bytes):
        # Rows drawn from a few patterns with equal visit counts forced,
        # so every trial ends in a tie; p up to 13 spans two packed bytes.
        if block_bytes:
            monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = int(rng.integers(1, 14))
            pool = rng.integers(0, 2, (int(rng.integers(1, 6)), p))
            visits = np.full(len(pool), int(rng.integers(2, 5)))
            visits[rng.integers(0, len(pool))] -= rng.integers(0, 2)
            z = rng.permutation(np.repeat(pool, visits, axis=0))
            counts = {}
            for row in z.tolist():
                counts[tuple(row)] = counts.get(tuple(row), 0) + 1
            top = max(counts.values())
            best = min((sum(pat), pat) for pat, n in counts.items()
                       if n == top)[1]
            d = draws_from_beta(np.ones(z.shape), z=z,
                                pi=np.full(len(z), 0.5))
            expected = {j + 1 for j, v in enumerate(best) if v}
            assert select_hppm(d).selected == expected, z

    def test_hppm_requires_z(self):
        with pytest.raises(InvariantError):
            select_hppm(draws_from_beta(np.ones((2, 2))))

    def test_mpm_boundary_inclusive(self):
        z = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1]])
        d = draws_from_beta(np.ones((4, 3)), z=z, pi=np.full(4, 0.5))
        assert select_mpm(d).selected == frozenset({1, 2})

    def test_mpm_empty(self):
        z = np.array([[0, 0], [1, 0], [0, 0]])
        d = draws_from_beta(np.ones((3, 2)), z=z, pi=np.full(3, 0.5))
        assert select_mpm(d).selected == frozenset()

    def test_mpm_two_thirds(self):
        z = np.array([[1, 0], [1, 0], [0, 0]])
        d = draws_from_beta(np.ones((3, 2)), z=z, pi=np.full(3, 0.5))
        assert select_mpm(d).selected == frozenset({1})

    def test_credible_positive_interval(self):
        rng = np.random.default_rng(0)
        beta = np.column_stack([rng.uniform(3, 5, 100),
                                rng.normal(0, 1, 100)])
        res = select_credible(draws_from_beta(beta), 0.95)
        assert res.selected == frozenset({1})

    def test_credible_quantile_boundary(self):
        # 3% of the mass below zero: the 2.5% quantile is negative, so a
        # 95% equal-tailed interval covers zero and the variable is dropped.
        values = np.concatenate([np.linspace(-1.0, -0.1, 30),
                                 np.linspace(0.1, 1.0, 970)])
        res = select_credible(draws_from_beta(values[:, None]), 0.95)
        assert res.selected == frozenset()

    def test_ht_thresholding(self):
        lam = np.column_stack([np.full(4, 9.0), np.full(4, 1.0),
                               np.full(4, 1.0 / 9.0)])
        d = draws_from_beta(np.ones((4, 3)), lam=lam,
                            tau=np.full(4, 0.5))
        res = select_ht(d, 0.5)
        # kappa = 0.1, 0.5, 0.9; the boundary value is excluded (strict).
        assert res.selected == frozenset({1})

    def test_ht_ignores_tau_scale(self):
        # The weight 1/(1+lambda_j) has no tau in it: at tau = 1e-3 the
        # rule is still lambda_j > 1, although tau * lambda_j is tiny.
        lam = np.tile([1.5, 0.5, 40.0, 0.9], (6, 1))
        base = draws_from_beta(np.ones((6, 4)), lam=lam, tau=np.full(6, 0.8))
        assert select_ht(base).selected == frozenset({1, 3})
        for scale in (1e-3, 1e-6, 10.0):
            scaled = draws_from_beta(np.ones((6, 4)), lam=lam,
                                     tau=base.tau * scale)
            assert select_ht(scaled).selected == select_ht(base).selected

    def test_ht_requires_lambda(self):
        with pytest.raises(InvariantError):
            select_ht(draws_from_beta(np.ones((2, 2))))


class TestSelectorProperties:
    def _hs_draws(self, rng, t=40, p=8):
        return draws_from_beta(
            rng.standard_normal((t, p)) * rng.uniform(0.1, 4.0, p),
            sigma2=rng.uniform(0.5, 2.0, t),
            lam=rng.uniform(0.01, 9.0, (t, p)),
            tau=rng.uniform(0.05, 1.0, t))

    def _ss_draws(self, rng, t=40, p=8):
        # A dominant inclusion pattern keeps the hppm tie-free; its
        # lexicographic tie-break is label-dependent by construction, so
        # equivariance is only meaningful without ties.
        mode_pattern = rng.integers(0, 2, p)
        z = np.where(rng.random((t, p)) < 0.85, mode_pattern,
                     rng.integers(0, 2, (t, p)))
        z[: t // 2] = mode_pattern
        return draws_from_beta(rng.standard_normal((t, p)) * z,
                               z=z, pi=rng.uniform(0.1, 0.9, t))

    @pytest.mark.filterwarnings("ignore:s2m declared every variable")
    def test_permutation_equivariance_all_selectors(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            perm = rng.permutation(8)
            hs = self._hs_draws(rng)
            ssd = self._ss_draws(rng)
            for method, d in [("s2m", hs), ("2m", hs), ("cs", hs), ("ht", hs),
                              ("hppm", ssd), ("mpm", ssd)]:
                permuted = PosteriorDraws(
                    beta=d.beta[:, perm], sigma2=d.sigma2,
                    lam=d.lam[:, perm] if d.lam is not None else None,
                    tau=d.tau,
                    z=d.z[:, perm] if d.z is not None else None,
                    pi=d.pi)
                base = run_selector(d, method, S2mConfig(b=1.0))
                moved = run_selector(permuted, method, S2mConfig(b=1.0))
                # position j in the permuted draws holds original perm[j]
                expected = frozenset(
                    int(np.nonzero(perm == j - 1)[0][0]) + 1
                    for j in base.selected)
                assert moved.selected == expected, method

    def test_mpm_ignores_beta_magnitudes(self):
        rng = np.random.default_rng(2)
        d = self._ss_draws(rng)
        scaled = PosteriorDraws(beta=d.beta * 100.0, sigma2=d.sigma2,
                                z=d.z, pi=d.pi)
        assert select_mpm(d).selected == select_mpm(scaled).selected

    def test_ht_ignores_beta_entirely(self):
        rng = np.random.default_rng(4)
        d = self._hs_draws(rng)
        replaced = PosteriorDraws(beta=rng.standard_normal(d.beta.shape),
                                  sigma2=d.sigma2, lam=d.lam, tau=d.tau)
        assert select_ht(d).selected == select_ht(replaced).selected

    def test_exact_recovery_noise_free(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            p = int(rng.integers(4, 40))
            r = int(rng.integers(1, (p - 1) // 2 + 1))
            strengths = rng.uniform(0.5, 20.0, r)
            truth = frozenset(int(j) + 1
                              for j in rng.choice(p, r, replace=False))
            beta_t = np.zeros(p)
            for j, s in zip(sorted(truth), strengths):
                beta_t[j - 1] = s * rng.choice([-1.0, 1.0])
            d = draws_from_beta(np.tile(beta_t, (5, 1)))
            b = float(rng.uniform(0.0, strengths.min())) or strengths.min() / 2
            assert select_s2m(d, S2mConfig(b=b)).selected == truth
            # 2m additionally needs the signals to form one tight cluster.
            single = np.zeros(p)
            for j in sorted(truth):
                single[j - 1] = strengths.min()
            d1 = draws_from_beta(np.tile(single, (5, 1)))
            assert select_2m(d1).selected == truth

    def test_unknown_method(self):
        with pytest.raises(InvariantError):
            run_selector(draws_from_beta(np.ones((2, 2))), "lasso")

    def test_table_lists_every_method_in_order(self):
        assert tuple(selection._SELECTORS) == METHODS


class TestRunSelectors:
    def test_outcomes_in_call_order_with_refusals(self):
        # Draws without z or lam: hppm, mpm and ht refuse them.
        draws = draws_from_beta([[5.0, 0.1, -4.0, 0.2], [4.5, -0.2, -3.5, 0.1]])
        methods = ["ht", "s2m", "mpm", "cs", "hppm", "2m"]
        outcomes = run_selectors(draws, methods, S2mConfig(b=1.0))
        assert list(outcomes) == methods
        assert outcomes["hppm"] == "hppm needs z draws (spike-and-slab chains)"
        assert outcomes["mpm"] == "mpm needs z draws (spike-and-slab chains)"
        assert outcomes["ht"] == "ht needs lambda draws (horseshoe chains)"
        for m in ("s2m", "cs", "2m"):
            alone = run_selector(draws, m, S2mConfig(b=1.0))
            assert (outcomes[m].method, outcomes[m].selected,
                    outcomes[m].h_mode) == (m, alone.selected, alone.h_mode)

    @pytest.mark.parametrize("many_blocks", [False, True],
                             ids=["one-block", "many-blocks"])
    @pytest.mark.parametrize("family", ["horseshoe", "spike-slab"])
    def test_shared_clustering_pass_equals_single_selectors(
            self, monkeypatch, family, many_blocks):
        # run_selectors sorts each row block once for s2m and 2m together;
        # every result must be the one its selector gives alone. The draws
        # hold constant rows and rows whose first gap is within b.
        if many_blocks:
            monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 40 * 16)
        rng = np.random.default_rng(31)
        t, p = 300, 40
        beta = _awkward_draws(rng, t, p)
        beta[:5] = 0.7
        if family == "horseshoe":
            latents = {"lam": rng.exponential(size=(t, p)),
                       "tau": rng.uniform(0.1, 1.0, t)}
            methods = ["cs", "2m", "ht", "s2m"]
        else:
            latents = {"z": (rng.random((t, p)) < 0.2).astype(np.int64),
                       "pi": rng.uniform(0.5, 0.9, t)}
            methods = ["s2m", "hppm", "2m", "mpm", "cs"]
        d = draws_from_beta(beta, sigma2=rng.uniform(0.1, 3.0, t), **latents)
        for b in (0.05, 2.0, 30.0, S2mConfig().b):
            cfg = S2mConfig(b=b)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes = run_selectors(d, methods, cfg)
            assert [str(w.message).startswith("s2m declared every variable")
                    for w in caught] == [True]
            assert list(outcomes) == methods
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alone = {m: run_selector(d, m, cfg) for m in methods}
            for m in methods:
                assert outcomes[m].selected == alone[m].selected, (m, b)
                assert np.array_equal(outcomes[m].h_counts,
                                      alone[m].h_counts), (m, b)

    def test_shared_clustering_pass_refuses_as_each_selector(self):
        outcomes = run_selectors(draws_from_beta([[1.0], [2.0]]),
                                 ["2m", "cs", "s2m"])
        assert outcomes["2m"] == outcomes["s2m"] == (
            "need a vector of at least 2 values")
        assert outcomes["cs"].selected == frozenset({1})

    @pytest.mark.parametrize("methods,message", [
        (["s2m", "2m", "s2m"], r"\['s2m'\] given more than once"),
        (["hppm", "cs", "hppm"], r"\['hppm'\] given more than once"),
        ([], "valid methods: s2m, 2m"),
        (["s2m", "lasso"], r"\['lasso'\]; valid methods"),
    ], ids=["repeated-s2m", "repeated-hppm", "empty", "unknown"])
    def test_bad_method_list_refused(self, methods, message):
        with pytest.raises(InvariantError, match=message):
            run_selectors(draws_from_beta(np.ones((2, 3))), methods)


def _reference_split(v):
    """Exact 2-means of one ascending row; reference for the batched path.

    Returns (low-cluster size, low mean, high mean); ties go to the
    largest low cluster and a constant vector leaves one value high.
    """
    n = v.size
    if v[0] == v[-1]:
        return n - 1, float(v[0]), float(v[0])
    cs = np.cumsum(v)
    cq = np.cumsum(v * v)
    k = np.arange(1, n)
    s_lo = cs[:-1]
    ss_lo = cq[:-1] - s_lo * s_lo / k
    s_hi = cs[-1] - s_lo
    ss_hi = (cq[-1] - cq[:-1]) - s_hi * s_hi / (n - k)
    total = ss_lo + ss_hi
    i = total.size - 1 - int(np.argmin(total[::-1]))
    kbest = i + 1
    return kbest, float(s_lo[i] / kbest), float(s_hi[i] / (n - kbest))


def _oracle_2m_count(v):
    """The 2m count of one row by exhaustive search: the smaller side of
    the contiguous split whose cost is the least over all 2-partitions."""
    order = np.argsort(v, kind="stable")
    best = brute_force_two_partition_ss(v)
    sizes = {min(k, v.size - k) for k in range(1, v.size)
             if within_ss_of_split(v, SimpleNamespace(
                 low_indices=frozenset(order[:k].tolist()))) == best}
    assert len(sizes) == 1, v
    return sizes.pop()


def _reference_counts(abs_beta, b=None):
    """Row-at-a-time 2m counts (b None) or s2m peeling counts."""
    out = []
    for row in abs_beta:
        v = np.sort(row)
        k, m, big = _reference_split(v)
        if b is None:
            out.append(min(k, v.size - k))
            continue
        a_len = 0
        while big - m > b:
            a_len = k
            if a_len < 2:
                break
            k, m, big = _reference_split(v[:a_len])
        out.append(v.size - a_len)
    return np.array(out, dtype=np.int64)


def _awkward_draws(rng, t, p):
    """Draws whose split costs tie or round: repeated magnitudes, all-zero
    rows, constant rows at a value with no exact binary form, and evenly
    spaced rows (exact ties between mirrored splits)."""
    beta = rng.standard_normal((t, p)) * rng.choice([0.05, 1.0, 10.0], p)
    if rng.random() < 0.5:
        beta = np.round(beta, 1)
    kind = rng.integers(0, 4, t)
    beta[kind == 1] = 0.0
    beta[kind == 2] = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0], p)
    spaced = np.tile(np.arange(p, dtype=float), (int(np.sum(kind == 3)), 1))
    beta[kind == 3] = rng.permuted(spaced, axis=1)
    return beta


class TestReportRoundTrip:
    @pytest.mark.parametrize("method", METHODS)
    def test_hand_built_result_reads_back(self, tmp_path, method):
        # Every result writes a row the reader takes back: h is the number
        # of selected indices, whatever selector built it.
        csv_path = tmp_path / "selection.csv"
        write_selection_report(
            {method: core.SelectionResult(method, {2, 5})}, str(csv_path),
            str(tmp_path / "selection.txt"), S2mConfig(), 2.0)
        assert read_selection_report(str(csv_path)) == {
            method: frozenset({2, 5})}
        assert f"method={method} H=2 selected=[2 5]" in (
            tmp_path / "selection.txt").read_text()


class TestBatchedAgainstRowReference:
    def test_reference_split_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for trial in range(400):
            v = rng.uniform(0.0, 2.0, int(rng.integers(2, 9)))
            tied = trial % 2 == 1
            if tied:
                v = np.round(v, int(rng.integers(0, 2)))
            order = np.argsort(v, kind="stable")
            k, _, _ = _reference_split(v[order])
            split = SimpleNamespace(low_indices=frozenset(order[:k].tolist()))
            got = within_ss_of_split(v, split)
            best = brute_force_two_partition_ss(v)
            # With ties, distinct optimal partitions can evaluate to costs
            # one rounding apart; without them the optimum is unique.
            assert got == (pytest.approx(best, rel=1e-12, abs=1e-15)
                           if tied else best)

    @pytest.mark.filterwarnings("ignore:s2m declared every variable")
    def test_h_counts_equal_row_reference_across_row_blocks(self,
                                                            monkeypatch):
        # Small blocks put most shapes across several row blocks.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 40 * 16)
        self.test_h_counts_equal_row_reference()

    @pytest.mark.filterwarnings("ignore:s2m declared every variable")
    def test_h_counts_equal_row_reference(self):
        rng = np.random.default_rng(23)
        for t, p in [(1, 2), (7, 2), (40, 3), (129, 12), (300, 31),
                     (260, 2), (90, 60)]:
            d = draws_from_beta(_awkward_draws(rng, t, p),
                                sigma2=rng.uniform(0.1, 3.0, t))
            abs_beta = np.abs(d.beta)
            res = select_2m(d)
            assert np.array_equal(res.h_counts, _reference_counts(abs_beta))
            assert res.h_mode == aggregate_mode(res.h_counts)
            for b in (0.05, 0.5, 2.0, 30.0, S2mConfig().b):
                res = select_s2m(d, S2mConfig(b=b))
                expected = _reference_counts(abs_beta, resolve_b(d, S2mConfig(b=b)))
                assert np.array_equal(res.h_counts, expected), (t, p, b)
                assert res.h_mode == aggregate_mode(expected)

    def test_every_row_peeling_twice(self):
        # One to three strong values near 55, one to seven near 9 and
        # noise below 0.1: every row peels the strong values, then the
        # middle ones, so both re-splits run on every row's sums uncut.
        rng = np.random.default_rng(29)
        t, p = 60, 40
        beta = rng.uniform(-0.1, 0.1, (t, p))
        strong, middle = rng.integers(1, 4, t), rng.integers(1, 8, t)
        for row, s, m in zip(beta, strong, middle):
            cols = rng.permutation(p)
            row[cols[:s]] = rng.uniform(50.0, 60.0, s)
            row[cols[s:s + m]] = -rng.uniform(8.0, 10.0, m)
        res = select_s2m(draws_from_beta(beta), S2mConfig(b=1.0))
        assert np.array_equal(res.h_counts, strong + middle)
        assert np.array_equal(res.h_counts,
                              _reference_counts(np.abs(beta), 1.0))


class TestColumnBlocks:
    """Blocked reductions give the bits of the whole-matrix numpy calls."""

    @pytest.mark.parametrize("t", [1, 2, 7, 8])
    @pytest.mark.parametrize("p", [1, 2, 3, 10, 11])
    def test_blocked_equals_whole_matrix(self, monkeypatch, t, p):
        # Three columns per block: p = 10 ends in a 4-wide block (a lone
        # tenth column would be summed pairwise), p = 11 in a 2-wide one.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * t * 3)
        rng = np.random.default_rng(100 * t + p)
        a = rng.standard_normal((t, p)) * rng.choice([1e-3, 1.0, 1e3], p)
        lam = np.exp(3 * rng.standard_normal((t, p)))
        qs = (0.025, 0.975)
        for blocked, whole, x in (
                (selection._sorted_medians,
                 lambda b: np.median(np.abs(b), axis=0), a),
                (lambda b: selection._sorted_quantiles(b, qs),
                 lambda b: np.quantile(b, qs, axis=0), a),
                (selection._mean_weight, selection._mean_weight, lam)):
            got = selection._by_columns(blocked, x)
            assert got.tobytes() == whole(x).tobytes()

    def test_mean_weight_bits_over_many_rows(self, monkeypatch):
        # Long columns, where pairwise and row-by-row sums part ways.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 1001 * 2)
        lam = np.exp(3 * np.random.default_rng(3).standard_normal((1001, 9)))
        got = selection._by_columns(selection._mean_weight, lam)
        assert got.tobytes() == selection._mean_weight(lam).tobytes()
        assert [s.stop - s.start for s in core._blocks(9, 1001)] == [
            2, 2, 2, 3]

    def test_no_block_is_one_wide(self):
        for n in range(1, 40):
            for across in (1, 5, 50_000):
                widths = [s.stop - s.start for s in core._blocks(n, across)]
                assert sum(widths) == n
                assert min(widths) >= 2 or n == 1


class TestSortedOrderStatistics:
    """The medians and credible bounds read off one sort per column block
    have the bits of ``np.median`` and ``np.quantile`` on the whole matrix."""

    @staticmethod
    def order_statistics(beta, level):
        alpha = 1.0 - level
        qs = (alpha / 2, 1 - alpha / 2)
        got = (selection._by_columns(selection._sorted_medians, beta),
               selection._by_columns(
                   lambda b: selection._sorted_quantiles(b, qs), beta))
        want = (np.median(np.abs(beta), axis=0),
                np.quantile(beta, qs, axis=0))
        return got, want

    @staticmethod
    def awkward_columns(rng, t):
        """Continuous columns at three scales, then tied, constant and
        signed-zero ones; the last holds zeros of both signs."""
        beta = rng.standard_normal((t, 11)) * rng.choice([1e-3, 1.0, 1e3], 11)
        beta[:, 3] = np.round(beta[:, 3]) + 0.0  # no -0.0
        beta[:, 4] = 0.7
        beta[:, 5] = -2.5
        beta[:, 6] = -0.0
        beta[:, 7] = np.where(rng.random(t) < 0.5, -0.0, np.abs(beta[:, 7]))
        beta[:, 8] = np.where(rng.random(t) < 0.5, 0.0, -np.abs(beta[:, 8]))
        beta[:, 9] = rng.choice([-1.0, 1.0], t) * rng.integers(0, 3, t) + 0.0
        beta[:, 10] = rng.choice([-0.0, 0.0, 1.0, -1.0], t,
                                 p=[0.47, 0.47, 0.03, 0.03])
        return beta

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99,
                                       float(np.nextafter(1.0, 0.0))])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 750, 3000])
    def test_bits_of_whole_matrix_calls(self, monkeypatch, t, level):
        # Four columns per block: the eleven columns span three blocks.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * t * 4)
        beta = self.awkward_columns(np.random.default_rng(t), t)
        (medians, bounds), (want_medians, want_bounds) = \
            self.order_statistics(beta, level)
        assert medians.view(np.int64).tolist() == \
            want_medians.view(np.int64).tolist()
        same = bounds.view(np.int64) == want_bounds.view(np.int64)
        assert same[:, :10].all(), np.argwhere(~same)
        # numpy's partition leaves -0.0 and 0.0 in no defined order, so a
        # bound between zeros of both signs may differ from it in its sign
        # alone; the interval excludes zero in both or in neither.
        assert (same | (bounds == 0) & (want_bounds == 0)).all()

    def test_bits_over_real_sized_blocks(self):
        # At T = 3000 a block holds ten columns: 25 columns span three.
        rng = np.random.default_rng(31)
        beta = rng.standard_normal((3000, 25)) * rng.choice([1e-3, 1.0], 25)
        beta[:, :11] = self.awkward_columns(rng, 3000)
        beta[:, 10] = np.round(beta[:, 12], 1) + 0.0
        for level in (0.9, 0.95, 0.99):
            got, want = self.order_statistics(beta, level)
            for g, w in zip(got, want):
                assert g.view(np.int64).tolist() == w.view(np.int64).tolist()
