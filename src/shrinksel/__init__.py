"""Variable selection for shrinkage-prior Bayesian linear regression.

The package post-processes MCMC draws of regression coefficients into a
selected variable set (2-means and sequential-2-means selectors plus
inclusion-, interval- and shrinkage-weight-based baselines), ships Gibbs
samplers for the horseshoe and point-mass spike-and-slab priors to
produce such draws, and includes a numerical engine that maps where the
horseshoe widens the gap between a signal and a correlated confounder
while a global-only prior provably cannot.
"""

from .core import (Dataset, HORSESHOE, InvariantError, METHODS,
                   PosteriorDraws, PriorSpec, SPIKE_SLAB, SelectionResult,
                   TWO_SIGMA_HAT, load_draws, save_draws)
from .samplers import McmcConfig, fit
from .selection import (S2mConfig, TwoMeansSplit,
                        aggregate_mode, count_signals_2m, count_signals_s2m,
                        kmeans2_1d, run_selector, select_2m, select_credible,
                        select_hppm, select_ht, select_mpm, select_s2m)
from .shrinkage import (HsEstimate, McEstimate, QuadratureError,
                        ShrinkFactors, ShrinkGridPoint, TwoVarProblem,
                        hs_estimator_mc, hs_shrinkage, normal_estimator,
                        normal_ratio_contracts, normal_shrink_factors,
                        reverse_shrinkage_grid)
from .simulate import (ErrorReport, SimConfig, gen_design, gen_response,
                       run_benchmark, score)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "PriorSpec", "PosteriorDraws", "SelectionResult",
    "HORSESHOE", "SPIKE_SLAB", "METHODS", "InvariantError",
    "save_draws", "load_draws",
    "McmcConfig", "fit",
    "S2mConfig", "TWO_SIGMA_HAT", "TwoMeansSplit", "kmeans2_1d",
    "count_signals_2m", "count_signals_s2m", "aggregate_mode",
    "select_s2m", "select_2m", "select_hppm", "select_mpm",
    "select_credible", "select_ht", "run_selector",
    "TwoVarProblem", "ShrinkFactors", "ShrinkGridPoint", "HsEstimate",
    "McEstimate", "QuadratureError", "normal_shrink_factors",
    "normal_estimator", "normal_ratio_contracts", "hs_shrinkage",
    "hs_estimator_mc", "reverse_shrinkage_grid",
    "SimConfig", "ErrorReport", "gen_design", "gen_response", "score",
    "run_benchmark",
]
