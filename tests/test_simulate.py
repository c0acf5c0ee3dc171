"""Design generation, scoring, and the benchmark harness."""

import warnings

import numpy as np
import pytest

from shrinksel import samplers, selection, simulate
from shrinksel.core import InvariantError, PriorSpec, _rng
from shrinksel.samplers import McmcConfig
from shrinksel.selection import S2mConfig
from shrinksel.simulate import (ErrorReport, SimConfig, _correlated_copy,
                                format_benchmark_table,
                                gen_design, gen_response, replicate_streams,
                                run_benchmark, score, write_benchmark_csv,
                                write_replicate_csv)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvariantError):
            SimConfig(n=10, p=5, r=6, strengths=(1.0,) * 6)
        with pytest.raises(InvariantError):
            SimConfig(n=10, p=5, r=3, strengths=(1.0, 2.0))
        with pytest.raises(InvariantError):
            SimConfig(n=10, p=5, r=4, strengths=(1.0,) * 4,
                      correlated=True, cor_pairs=2)  # only one noise column
        with pytest.raises(InvariantError):
            SimConfig(n=10, p=5, r=2, strengths=(1.0, 0.0))
        # At n <= 2 centred columns all lie on one line: no copy can sit
        # strictly between the target and 1.
        for n in (1, 2):
            with pytest.raises(InvariantError, match="n >= 3"):
                SimConfig(n=n, p=4, r=1, strengths=(3.0,), correlated=True,
                          cor_pairs=1)
            SimConfig(n=n, p=4, r=1, strengths=(3.0,))
        SimConfig(n=3, p=4, r=1, strengths=(3.0,), correlated=True,
                  cor_pairs=1)

    def test_constant_strength(self):
        # A single strength broadcasts to all r signals.
        cfg = SimConfig(n=5, p=8, r=3, strengths=(6,))
        assert cfg.strengths == (6.0, 6.0, 6.0)


class TestGenDesign:
    def test_shapes_truth_and_intercept(self):
        cfg = SimConfig(n=40, p=30, r=4, strengths=(2.0,), seed=5)
        x, truth = gen_design(cfg)
        assert x.shape == (40, 31)
        assert np.all(x[:, 30] == 1.0)
        assert len(truth) == 4 and all(1 <= j <= 30 for j in truth)
        cfg2 = SimConfig(n=40, p=30, r=4, strengths=(2.0,),
                         seed=5, intercept=False)
        x2, _ = gen_design(cfg2)
        assert x2.shape == (40, 30)

    def test_deterministic(self):
        cfg = SimConfig(n=20, p=10, r=2, strengths=(3.0,), seed=9)
        x1, t1 = gen_design(cfg)
        x2, t2 = gen_design(cfg)
        assert np.array_equal(x1, x2) and t1 == t2

    def test_independent_columns_have_modest_correlations(self):
        # At n=200 the maximum pairwise |correlation| of 50 independent
        # columns stays well below 0.5; at the paper-scale 50 x 300 design
        # extremes of ~0.6 are expected under independence, so only the
        # absence of constructed near-copies is asserted there.
        cfg = SimConfig(n=200, p=50, r=5, strengths=(2.0,),
                        seed=3, intercept=False)
        x, _ = gen_design(cfg)
        corr = np.corrcoef(x.T)
        np.fill_diagonal(corr, 0.0)
        assert np.abs(corr).max() < 0.5
        big = SimConfig(n=50, p=300, r=10, strengths=(2.0,),
                        seed=3, intercept=False)
        xb, _ = gen_design(big)
        corr_b = np.corrcoef(xb.T)
        np.fill_diagonal(corr_b, 0.0)
        assert np.abs(corr_b).max() < 0.9

    def test_correlated_pairs(self):
        cfg = SimConfig(n=50, p=60, r=6, strengths=(4.0,),
                        seed=13, correlated=True,
                        cor_pairs=2, cor_target=0.99,
                        intercept=False)
        x, truth = gen_design(cfg)
        corr = np.corrcoef(x.T)
        np.fill_diagonal(corr, 0.0)
        pairs = np.argwhere(corr > 0.99)
        assert len(pairs) == 4  # two pairs, both orientations
        seen = set()
        for i, j in pairs:
            if i < j:
                # each constructed pair couples one signal and one noise column
                assert ((i + 1 in truth) != (j + 1 in truth))
                seen.add((i, j))
        assert len(seen) == 2

    @pytest.mark.parametrize("n", [3, 5, 50, 200])
    @pytest.mark.parametrize("target", [0.5, 0.9, 0.99, 1 - 1e-6])
    def test_copy_hits_the_midpoint_correlation(self, n, target):
        # np.corrcoef is an oracle independent of the closed form. Each
        # copy draws its direction e from a stream seeded by its index, so
        # the sign of (copy - base)'e shows whether -e replaced e.
        bases = _rng(11).standard_normal((200 if n == 3 else 20, n))
        flipped = 0
        for i, base in enumerate(bases):
            copy = _correlated_copy(_rng(i), base, target)
            assert abs(np.corrcoef(base, copy)[0, 1]
                       - (1 + target) / 2) < 1e-12
            flipped += (copy - base) @ _rng(i).standard_normal(n) < 0
        if n == 3 and target == 0.5:
            # e lies within the target angle of b in about a quarter of
            # the draws here, so the -e branch must have run.
            assert 20 < flipped < 100


class TestGenResponse:
    def test_noise_free(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        y = gen_response(x, {2, 4}, (3.0, -1.5), 0.0, seed=1)
        beta = np.array([0.0, 3.0, 0.0, -1.5])
        assert np.allclose(y, x @ beta)

    def test_null_model_noise_variance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4000, 2))
        y = gen_response(x, set(), (), 2.0, seed=5)
        # sample variance close to noise_sd^2 (se of var ~ sd^2*sqrt(2/n))
        assert abs(y.var() - 4.0) < 3 * 4.0 * np.sqrt(2.0 / 4000)

    def test_large_standardized_configuration(self):
        cfg = SimConfig(n=60, p=2000, r=30, strengths=(4.0,),
                        seed=2, intercept=False)
        x, truth = gen_design(cfg)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = gen_response(x, truth, cfg.strengths, 1.0, seed=3)
        assert y.shape == (60,) and np.all(np.isfinite(y))

    def test_strength_count_mismatch(self):
        with pytest.raises(InvariantError):
            gen_response(np.ones((4, 3)), {1, 2}, (1.0,), 1.0, seed=0)

    @pytest.mark.parametrize("noise_sd", [np.nan, np.inf, -np.inf, -1.0])
    def test_noise_sd_must_be_finite_and_nonnegative(self, noise_sd):
        with pytest.raises(InvariantError, match="noise_sd"):
            gen_response(np.ones((4, 3)), {1}, (1.0,), noise_sd, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "3"])
    def test_strengths_must_be_finite(self, bad):
        with pytest.raises(InvariantError, match="strengths"):
            gen_response(np.ones((4, 3)), {1, 2}, (1.0, bad), 1.0, seed=0)

    def test_zero_strength_is_allowed(self):
        x = np.arange(12.0).reshape(4, 3)
        y = gen_response(x, {1, 3}, (0.0, 2.0), 0.0, seed=0)
        assert np.array_equal(y, 2.0 * x[:, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_design_must_be_finite(self, bad):
        # A non-finite entry off the truth columns would give a response
        # with a non-finite entry even at zero weight: nan * 0 is nan.
        x = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(InvariantError, match="x contains non-finite"):
            gen_response(x, {2}, (2.0,), 0.0, seed=0)

    def test_design_must_be_a_matrix(self):
        with pytest.raises(InvariantError, match=r"x must be a matrix, got "
                                                 r"shape \(3,\)"):
            gen_response(np.ones(3), {1}, (1.0,), 0.0, seed=0)


class TestScore:
    def test_basic(self):
        assert score({1, 2}, {1, 2}) == (0, 0)
        assert score(set(), set(range(1, 11))) == (10, 0)
        assert score(set(range(1, 10)) | {11}, set(range(1, 11))) == (1, 1)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = 20
            perm = {j + 1: int(v) + 1 for j, v in enumerate(rng.permutation(p))}
            sel = {int(j) + 1 for j in rng.choice(p, 5, replace=False)}
            tru = {int(j) + 1 for j in rng.choice(p, 7, replace=False)}
            assert score(sel, tru) == \
                score({perm[j] for j in sel}, {perm[j] for j in tru})

    def test_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            sel = {int(j) + 1 for j in rng.choice(30, 6, replace=False)}
            tru = {int(j) + 1 for j in rng.choice(30, 9, replace=False)}
            masking, swamping = score(sel, tru)
            inter = len(sel & tru)
            assert masking + inter == len(tru)
            assert swamping + inter == len(sel)


SMALL_MCMC = McmcConfig(iterations=600, burn_in=200, seed=0)


class TestRunBenchmark:
    def test_separable_limit_every_method_perfect(self):
        cfg = SimConfig(n=40, p=20, r=3, strengths=(50.0,),
                        seed=17, replicates=1, noise_sd=0.0)
        reports = run_benchmark(cfg, PriorSpec.horseshoe(),
                                ["s2m", "2m", "cs", "ht"], SMALL_MCMC)
        reports.update(run_benchmark(cfg, PriorSpec.spike_slab(),
                                     ["hppm", "mpm"], SMALL_MCMC))
        for method, rep in reports.items():
            assert (rep.masking, rep.swamping) == (0.0, 0.0), method

    def test_spike_slab_methods_and_selected_range(self):
        cfg = SimConfig(n=50, p=15, r=2, strengths=(8.0,),
                        seed=23, replicates=2)
        reports = run_benchmark(cfg, PriorSpec.spike_slab(),
                                ["s2m", "hppm", "mpm"], SMALL_MCMC)
        for rep in reports.values():
            assert len(rep.per_replicate) == 2
            assert all(m <= 2 for m, _ in rep.per_replicate)

    def test_reproducible_end_to_end(self):
        cfg = SimConfig(n=30, p=12, r=2, strengths=(6.0,),
                        seed=31, replicates=2)
        prior = PriorSpec.horseshoe()
        r1 = run_benchmark(cfg, prior, ["s2m", "cs"], SMALL_MCMC)
        r2 = run_benchmark(cfg, prior, ["s2m", "cs"], SMALL_MCMC)
        assert r1 == r2

    def test_parallel_matches_serial(self):
        cfg = SimConfig(n=30, p=12, r=2, strengths=(6.0,),
                        seed=37, replicates=2)
        prior = PriorSpec.horseshoe()
        serial = run_benchmark(cfg, prior, ["s2m"], SMALL_MCMC, jobs=1)
        parallel = run_benchmark(cfg, prior, ["s2m"], SMALL_MCMC, jobs=2)
        assert serial == parallel

    def test_fold_through_pool_matches_serial(self, tmp_path):
        # hppm fails on every horseshoe replicate; s2m succeeds on each.
        cfg = SimConfig(n=30, p=12, r=2, strengths=(6.0,),
                        seed=47, replicates=3)
        runs = []
        for jobs in (1, 2):
            with pytest.warns(UserWarning, match="hppm: 3 of 3"):
                reports = run_benchmark(cfg, PriorSpec.horseshoe(),
                                        ["s2m", "hppm"], SMALL_MCMC, jobs=jobs)
            path = tmp_path / f"replicates_{jobs}.csv"
            write_replicate_csv(reports, "uncor", str(path))
            runs.append(([(r.per_replicate, r.failures)
                          for r in reports.values()], path.read_bytes()))
        assert runs[0] == runs[1]
        (s2m_pairs, s2m_failures), (hppm_pairs, hppm_failures) = runs[0][0]
        assert len(s2m_pairs) == 3 and not s2m_failures
        assert not hppm_pairs and [i for i, _ in hppm_failures] == [0, 1, 2]

    def test_one_replicate_starts_no_pool(self, pool_sizes):
        cfg = SimConfig(n=20, p=5, r=1, strengths=(5.0,),
                        seed=3, replicates=1)
        run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m"], SMALL_MCMC, jobs=64)
        assert pool_sizes == []

    def test_method_prior_mismatch_recorded_not_fatal(self):
        cfg = SimConfig(n=30, p=10, r=2, strengths=(6.0,),
                        seed=41, replicates=2)
        with pytest.warns(UserWarning, match="excluded"):
            reports = run_benchmark(cfg, PriorSpec.spike_slab(),
                                    ["mpm", "ht"], SMALL_MCMC)
        assert len(reports["ht"].failures) == 2
        assert np.isnan(reports["ht"].masking)
        assert len(reports["mpm"].per_replicate) == 2

    def test_unknown_method_rejected(self):
        cfg = SimConfig(n=20, p=5, r=1, strengths=(3.0,),
                        seed=1, replicates=1)
        with pytest.raises(InvariantError):
            run_benchmark(cfg, PriorSpec.horseshoe(), ["lasso"], SMALL_MCMC)

    def test_selector_bug_propagates(self, monkeypatch):
        # Only a selector's refusal of the draws (InvariantError) is a
        # recorded failure. Any other error used to be recorded too: the
        # run warned "2m: 2 of 2 replicates failed" and returned NaN means.
        # s2m and 2m run together share one pass, which ends, as each
        # does alone, in the order of the columns' posterior medians.
        def broken(draws):
            raise ZeroDivisionError("integer division or modulo by zero")
        monkeypatch.setattr(selection, "_median_order", broken)
        cfg = SimConfig(n=20, p=5, r=1, strengths=(5.0,),
                        seed=3, replicates=2)
        with pytest.raises(ZeroDivisionError):
            run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m", "2m"],
                          SMALL_MCMC)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_chain_recorded_per_replicate(self, monkeypatch):
        # The degenerate likelihood of the sampler tests (a response of
        # 1e200 overflows the residual sum of squares) fails each chain.
        monkeypatch.setattr(simulate, "gen_response",
                            lambda x, *args: np.full(x.shape[0], 1e200))
        cfg = SimConfig(n=20, p=5, r=1, strengths=(5.0,),
                        seed=3, replicates=2)
        with pytest.warns(UserWarning, match="2 of 2 replicates failed"):
            reports = run_benchmark(cfg, PriorSpec.horseshoe(),
                                    ["s2m", "2m"], SMALL_MCMC)
        for rep in reports.values():
            assert not rep.per_replicate
            assert [i for i, _ in rep.failures] == [0, 1]
            for _, message in rep.failures:
                assert message.startswith(
                    "chain failed: sampler produced a non-finite state at "
                    "iteration 1;")

    def test_chain_bug_propagates(self, monkeypatch):
        # Only a chain's non-finite state is a recorded failure. Any other
        # error in the chain, such as a bad argument to a bound LAPACK
        # call, used to be recorded as "chain failed" too.
        def broken_solver(a, b):
            def solve():
                raise TypeError("wrong type")
            return solve
        monkeypatch.setattr(samplers, "_spd_solver", broken_solver)
        cfg = SimConfig(n=20, p=5, r=1, strengths=(5.0,),
                        seed=3, replicates=2)
        with pytest.raises(TypeError, match="wrong type"):
            run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m"], SMALL_MCMC)

    def test_repeated_method_rejected(self):
        # s2m used to run twice per replicate and fold into one row.
        cfg = SimConfig(n=20, p=5, r=1, strengths=(3.0,),
                        seed=1, replicates=1)
        with pytest.raises(InvariantError, match="'s2m'"):
            run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m", "s2m", "2m"],
                          SMALL_MCMC)

    def test_intercept_never_selected(self):
        # Signals live in columns 1..p; the all-ones intercept column is
        # fitted but removed from the draws before selection.
        cfg = SimConfig(n=40, p=10, r=2, strengths=(7.0,),
                        seed=43, replicates=1, intercept=True)
        reports = run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m"], SMALL_MCMC)
        assert reports["s2m"].per_replicate[0] == (0, 0)

    def test_replicate_streams_are_distinct(self):
        cfg = SimConfig(n=20, p=5, r=1, strengths=(3.0,),
                        seed=7, replicates=4)
        streams = replicate_streams(cfg)
        seeds = [s for _, s in streams]
        assert len(set(seeds)) == 4

    def test_outputs_csv(self, tmp_path):
        reports = {"s2m": ErrorReport(masking=0.5, swamping=0.0,
                                      per_replicate=((1, 0), (0, 0)))}
        bench = tmp_path / "benchmark.csv"
        detail = tmp_path / "replicates.csv"
        write_benchmark_csv(reports, "uncor", str(bench))
        write_replicate_csv(reports, "uncor", str(detail))
        assert "s2m,uncor,0.5,0" in bench.read_text()
        lines = detail.read_text().splitlines()
        assert lines[1] == "s2m,uncor,0,1,0,"
        table = format_benchmark_table(reports, "uncor")
        assert "(0.50, 0.00)" in table
