"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS`` line (visible with
``pytest -s`` or on failure) and enforces both the numeric tolerance and
the runtime budget of its criterion.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import brute_force_two_partition_ss, within_ss_of_split
from shrinksel.core import PosteriorDraws, PriorSpec
from shrinksel.samplers import McmcConfig
from shrinksel.selection import (S2mConfig, count_signals_2m,
                                 count_signals_s2m, kmeans2_1d, select_s2m)
from shrinksel.shrinkage import (TwoVarProblem, hs_estimator_mc, hs_shrinkage,
                                 normal_estimator, normal_ratio_contracts,
                                 normal_shrink_factors, reverse_shrinkage_grid)
from shrinksel.simulate import SimConfig, run_benchmark

BENCH_MCMC = McmcConfig(iterations=5000, burn_in=2000, seed=0)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          f"{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name}: {detail}"


def _sweep_problems(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        rho = rng.uniform(0.001, 0.999)
        tau = rng.uniform(0.01, 100.0)
        a = rng.uniform(1.0, 100.0)
        while a <= 1.0:
            a = rng.uniform(1.0, 100.0)
        yield TwoVarProblem(rho=rho, tau=tau, mle=(a, 1.0))


def test_global_only_ratio_contraction_sweep():
    """10^4 random problems: the normal-prior shrunk ratio < MLE ratio."""
    start = time.perf_counter()
    n = 10_000
    holds = 0
    min_margin = np.inf
    for problem in _sweep_problems(n, seed=2024):
        holds += normal_ratio_contracts(problem)
        b1, b2 = normal_estimator(problem)
        min_margin = min(min_margin, problem.a - abs(b1 / b2))
    elapsed = time.perf_counter() - start
    _report("ratio-contraction sweep",
            holds == n and min_margin > 0 and elapsed < 5.0,
            f"{holds}/{n} strict, min margin {min_margin:.3e}, "
            f"{elapsed:.2f}s < 5s")


def test_shrink_factor_bounds_sweep():
    """Same grid: f1 = f2 and the factor inequality chain, all cases."""
    start = time.perf_counter()
    n = 10_000
    ok = 0
    for problem in _sweep_problems(n, seed=512):
        fac = normal_shrink_factors(problem)
        ok += (abs(fac.f1 - fac.f2) <= 1e-12
               and -1.0 < fac.f1 < fac.f3 < 0.0
               and 0.0 < fac.s1 < 1.0
               and fac.s2 < 1.0)
    elapsed = time.perf_counter() - start
    _report("shrink-factor bounds sweep",
            ok == n and elapsed < 5.0,
            f"{ok}/{n}, {elapsed:.2f}s < 5s")


def test_two_means_brute_force_equivalence():
    """1000 random short vectors: split cost equals the brute-force minimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    exact = 0
    n = 1000
    for _ in range(n):
        length = int(rng.integers(2, 13))
        v = rng.uniform(0.0, 1.0, length)
        split = kmeans2_1d(v)
        exact += within_ss_of_split(v, split) == \
            brute_force_two_partition_ss(v)
    elapsed = time.perf_counter() - start
    _report("2-means oracle equivalence",
            exact == n and elapsed < 10.0,
            f"{exact}/{n} exact, {elapsed:.2f}s < 10s")


def test_sequential_peeling_hand_trace():
    """Deterministic mixed-strength profile: s2m counts 10, 2m counts 3."""
    rng = np.random.default_rng(0)
    profile = np.concatenate([np.full(3, 15.0), np.full(7, 4.0),
                              rng.uniform(0.0, 0.1, 290)])
    h_s2m = count_signals_s2m(profile, 2.0)
    h_2m = count_signals_2m(profile)
    _report("sequential peeling hand-trace",
            h_s2m == 10 and h_2m == 3,
            f"s2m={h_s2m} (want 10), 2m={h_2m} (want 3)")


def test_benchmark_single_strength_uncorrelated():
    """n=50, p=300, r=10, B=6, horseshoe + s2m, 5 replicates."""
    start = time.perf_counter()
    cfg = SimConfig(n=50, p=300, r=10, strengths=(6.0,),
                    seed=101, replicates=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m"],
                                BENCH_MCMC)
    elapsed = time.perf_counter() - start
    rep = reports["s2m"]
    _report("single-strength uncorrelated benchmark",
            rep.masking <= 0.2 and rep.swamping <= 0.2 and elapsed < 900,
            f"masking={rep.masking:.2f} swamping={rep.swamping:.2f}, "
            f"{elapsed:.0f}s < 900s")


def test_benchmark_mixed_strength_uncorrelated():
    """Three 15s and seven 4s: s2m near-perfect, 2m masks the weak seven."""
    start = time.perf_counter()
    cfg = SimConfig(n=50, p=300, r=10,
                    strengths=(15.0,) * 3 + (4.0,) * 7,
                    seed=202, replicates=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m", "2m"],
                                BENCH_MCMC)
    elapsed = time.perf_counter() - start
    s2m, twom = reports["s2m"], reports["2m"]
    ok = (s2m.masking <= 0.2 and s2m.swamping <= 0.2
          and 6.5 <= twom.masking <= 7.0 and twom.swamping <= 0.2
          and elapsed < 900)
    _report("mixed-strength uncorrelated benchmark", ok,
            f"s2m=({s2m.masking:.2f},{s2m.swamping:.2f}) "
            f"2m=({twom.masking:.2f},{twom.swamping:.2f}), "
            f"{elapsed:.0f}s < 900s")


def test_benchmark_correlated_qualitative():
    """Correlated pairs: s2m total error small, credible sets mask more."""
    start = time.perf_counter()
    cfg = SimConfig(n=50, p=300, r=10, strengths=(6.0,),
                    seed=404, replicates=5, correlated=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_benchmark(cfg, PriorSpec.horseshoe(), ["s2m", "cs"],
                                BENCH_MCMC)
    elapsed = time.perf_counter() - start
    s2m, cs = reports["s2m"], reports["cs"]
    ok = (s2m.masking + s2m.swamping <= 1.0
          and cs.masking > s2m.masking
          and elapsed < 1200)
    _report("correlated-design qualitative check", ok,
            f"s2m total={s2m.masking + s2m.swamping:.2f} <= 1.0, "
            f"cs masking {cs.masking:.2f} > s2m masking {s2m.masking:.2f}, "
            f"{elapsed:.0f}s < 1200s")


def test_classification_grid_qualitative():
    """Default grid at x2=1: per-slice monotone in tau; small tau bluer."""
    start = time.perf_counter()
    points = reverse_shrinkage_grid(x2=1.0)
    elapsed = time.perf_counter() - start
    slices = {}
    for pt in points:
        slices.setdefault((pt.problem.rho, pt.ratio_mle), []).append(
            (pt.problem.tau, pt.reverse))
    monotone = True
    for vals in slices.values():
        flags = [flag for _, flag in sorted(vals)]
        seen_red = False
        for flag in flags:
            if not flag:
                seen_red = True
            elif seen_red:
                monotone = False
    small = np.mean([p.reverse for p in points if p.problem.tau <= 0.2])
    large = np.mean([p.reverse for p in points if p.problem.tau >= 0.8])
    failures = sum(p.error is not None for p in points)
    ok = monotone and small > large and failures == 0 and elapsed < 600
    _report("classification grid qualitative", ok,
            f"monotone={monotone}, blue(tau<=0.2)={small:.3f} > "
            f"blue(tau>=0.8)={large:.3f}, {failures} failures, "
            f"{elapsed:.0f}s < 600s")


def test_quadrature_against_monte_carlo():
    """20 random grid points: quadrature within 3 MC standard errors."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    rho_grid = np.round(np.arange(0.94, 0.9951, 0.01), 2)
    tau_grid = np.round(np.arange(0.05, 0.9501, 0.05), 2)
    a_grid = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
    worst = 0.0
    all_ok = True
    for i in range(20):
        x2 = float(rng.choice([1.0, 1.5]))
        a = float(rng.choice(a_grid))
        problem = TwoVarProblem(rho=float(rng.choice(rho_grid)),
                                tau=float(rng.choice(tau_grid)),
                                mle=(a * x2, x2))
        quad = hs_shrinkage(problem)
        mc = hs_estimator_mc(problem, n_samples=10_000_000, seed=1000 + i)
        for q, m, se in zip(quad.estimate, mc.estimate, mc.se):
            pull = abs(q - m) / max(se, 1e-300)
            worst = max(worst, pull)
            if pull > 3.0:
                all_ok = False
    elapsed = time.perf_counter() - start
    _report("quadrature vs Monte Carlo oracle",
            all_ok and elapsed < 600,
            f"worst |quad-mc|/se = {worst:.2f} <= 3, {elapsed:.0f}s < 600s")


def test_exact_recovery_property():
    """Perfect draws, b below the weakest signal: s2m returns the truth."""
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    successes = 0
    n = 100
    for _ in range(n):
        p = int(rng.integers(4, 80))
        r = int(rng.integers(1, (p - 1) // 2 + 1))
        strengths = rng.uniform(0.3, 25.0, r)
        truth = frozenset(int(j) + 1 for j in rng.choice(p, r, replace=False))
        beta_t = np.zeros(p)
        for j, s in zip(sorted(truth), strengths):
            beta_t[j - 1] = s * rng.choice([-1.0, 1.0])
        t = int(rng.integers(1, 12))
        draws = PosteriorDraws(beta=np.tile(beta_t, (t, 1)),
                               sigma2=np.ones(t))
        b = float(rng.uniform(0.0, strengths.min()))
        if b == 0.0:
            b = strengths.min() / 2.0
        result = select_s2m(draws, S2mConfig(b=b))
        successes += result.selected == truth
    elapsed = time.perf_counter() - start
    _report("exact-recovery property",
            successes == n and elapsed < 10.0,
            f"{successes}/{n}, {elapsed:.2f}s < 10s")
