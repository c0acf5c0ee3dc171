"""Peak traced memory of the chain, the selectors and the draw file, against
the draws each step holds."""

import tracemalloc

import numpy as np
import pytest

from shrinksel import (Dataset, McmcConfig, PosteriorDraws, PriorSpec, fit,
                       load_draws, save_draws)
from shrinksel.selection import run_selectors
from shrinksel.shrinkage import (DEFAULT_A_GRID, DEFAULT_TAU_GRID,
                                 TwoVarProblem, _quad_batch)

MB = 2 ** 20


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it traced, in bytes.

    Call ``fn`` once untraced on a small input first: lazy one-time set-up
    (a module import, a bound LAPACK routine) is not a per-call cost.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def nbytes(draws: PosteriorDraws) -> int:
    return sum(a.nbytes for a in (draws.beta, draws.sigma2, draws.lam,
                                  draws.tau, draws.z, draws.pi)
               if a is not None)


def random_draws(t, p, family, seed=0) -> PosteriorDraws:
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal((t, p))
    beta[:, :10] += 6.0
    if family == "horseshoe":
        latents = {"lam": rng.exponential(size=(t, p)),
                   "tau": rng.uniform(0.1, 1.0, t)}
    else:
        latents = {"z": (rng.random((t, p)) < 0.1).astype(np.int64),
                   "pi": rng.uniform(0.5, 0.9, t)}
    return PosteriorDraws(beta=beta, sigma2=rng.uniform(0.5, 1.5, t),
                          **latents)


@pytest.mark.parametrize("n,p", [(40, 150), (150, 40)],
                         ids=["woodbury", "dense"])
def test_fit_holds_its_draws_once(n, p):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, p))
    data = Dataset(y=x[:, :3] @ np.full(3, 4.0) + rng.standard_normal(n),
                   x=x)
    fit(data, PriorSpec.horseshoe(), McmcConfig(iterations=20, burn_in=10))
    draws, peak = traced_peak(fit, data, PriorSpec.horseshoe(),
                              McmcConfig(iterations=2600, burn_in=100))
    assert draws.t == 2500
    assert peak <= 1.15 * nbytes(draws) + MB, (peak, nbytes(draws))


def test_dataset_holds_its_design_once():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((50, 20000)), rng.standard_normal(50)
    data, peak = traced_peak(Dataset, y, x)
    assert np.shares_memory(data.x, x)
    assert peak < 0.1 * x.nbytes, peak


@pytest.mark.filterwarnings("ignore:s2m declared every variable")
@pytest.mark.parametrize("family,methods", [
    ("horseshoe", ["s2m", "2m", "cs", "ht"]),
    ("spike-slab", ["s2m", "2m", "hppm", "mpm", "cs"]),
])
def test_selectors_hold_blocks_not_matrices(family, methods):
    run_selectors(random_draws(40, 300, family), methods)
    draws = random_draws(3000, 300, family)
    for method in methods:
        _, peak = traced_peak(run_selectors, draws, [method])
        assert peak <= 0.5 * draws.beta.nbytes, (method, peak)


@pytest.mark.parametrize("family", ["horseshoe", "spike-slab"])
def test_draw_file_save_and_load(tmp_path, family):
    path = str(tmp_path / "draws.csv")
    save_draws(random_draws(5, 3, family), path)
    load_draws(path)
    draws = random_draws(1500, 250, family)
    _, peak = traced_peak(save_draws, draws, path)
    assert peak <= 0.1 * nbytes(draws), peak
    loaded, peak = traced_peak(load_draws, path)
    assert peak <= 2.2 * nbytes(loaded), (peak, nbytes(loaded))


def test_quadrature_block_stays_under_one_and_a_half_mib():
    # The default grid's 114 points of rho 0.99 at order 64 (4096 nodes)
    # go in chunks of 31: one 0.97 MiB chunk array, reused by every chunk.
    block = [TwoVarProblem(rho=0.99, tau=tau, mle=(a, 1.0))
             for tau in DEFAULT_TAU_GRID for a in DEFAULT_A_GRID]
    _quad_batch(block[:1], 64)  # builds the rule and the rho tables
    _, peak = traced_peak(_quad_batch, block, 64)
    assert peak < 1.5 * MB, peak
