"""Posterior post-processing variable selectors.

Every selector is a pure function of :class:`~shrinksel.core.PosteriorDraws`
and works regardless of which sampler produced the draws. The clustering
selectors (``2m``, ``s2m``) estimate the number of signals per retained
draw by exact 1-D 2-means on the absolute coefficients, aggregate the
counts by their mode, and pick that many variables off the posterior
median of ``|beta_j|``. The baselines select from inclusion indicators
(``hppm``, ``mpm``), credible intervals (``cs``), or shrinkage weights
(``ht``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import InvariantError, PosteriorDraws, SelectionResult, atomic_write_text

#: Symbolic tuning rule: b = 2 * posterior median of the sigma2 draws.
TWO_SIGMA_HAT = "2sigma2"


@dataclass(frozen=True)
class S2mConfig:
    """Tuning knobs shared by the selectors.

    ``b`` is the sequential-2-means gap threshold, either a positive number
    or the symbolic rule :data:`TWO_SIGMA_HAT`. ``credible_level`` is used
    by ``cs`` only, ``kappa_threshold`` by ``ht`` only.
    """

    b: Union[float, str] = TWO_SIGMA_HAT
    credible_level: float = 0.95
    kappa_threshold: float = 0.5

    def __post_init__(self):
        if isinstance(self.b, str):
            if self.b != TWO_SIGMA_HAT:
                raise InvariantError(
                    f"b must be a positive number or {TWO_SIGMA_HAT!r}")
        elif not (np.isfinite(self.b) and self.b > 0):
            raise InvariantError("numeric b must be strictly positive")
        if not 0 < self.credible_level < 1:
            raise InvariantError("credible_level must lie in (0, 1)")
        if not 0 < self.kappa_threshold < 1:
            raise InvariantError("kappa_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class TwoMeansSplit:
    """An exact two-cluster partition of a nonnegative vector.

    ``low_indices``/``high_indices`` are 0-based positions into the input
    vector; ``m`` and ``M`` are the cluster means with ``m <= M``.
    """

    low_indices: frozenset[int]
    high_indices: frozenset[int]
    m: float
    M: float


#: Rows of |beta| that the batched 2-means handles at once. It bounds the
#: extra memory to a few block x p float arrays; unblocked, a 3000 x 300
#: draw matrix would add tens of MB.
_BLOCK_ROWS = 128


def _checked_abs_values(values, minimum=2) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < minimum:
        raise InvariantError(f"need a vector of at least {minimum} values")
    if not np.all(np.isfinite(v)):
        raise InvariantError("values must be finite")
    if np.any(v < 0):
        raise InvariantError("values must be nonnegative magnitudes")
    return v


def _row_sums(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending-sorted rows plus their row-wise cumsums of v and v*v.

    ``np.cumsum`` adds sequentially, so the first a entries of a row's
    cumsum equal, bit for bit, the cumsum of the row's first a values:
    every ``s2m`` peel reuses these sums on a prefix.
    """
    v = np.sort(v, axis=1)
    return v, np.cumsum(v, axis=1), np.cumsum(v * v, axis=1)


def _best_splits(v, cs, cq, a):
    """Optimal contiguous split of each ascending prefix ``v[r, :a[r]]``.

    Returns arrays (low-cluster size k, low mean, high mean), one entry
    per row. Scans all contiguous splits; the optimum of 1-D 2-means is
    always one of them. Ties go to the largest k, i.e. the smaller high
    cluster; identical values are handled explicitly (prefix-sum rounding
    would otherwise break their exact tie) so a constant prefix ends up
    with one element alone in the high cluster and equal means.
    """
    rows = np.arange(v.shape[0])
    last = (rows, a - 1)
    k = np.arange(1, v.shape[1])
    n_hi = a[:, None] - k
    s_lo = cs[:, :-1]
    ss_lo = cq[:, :-1] - s_lo * s_lo / k
    s_hi = cs[last][:, None] - s_lo
    # Splits past a row's prefix get an infinite cost; the clamped
    # divisor only keeps them finite until then.
    ss_hi = ((cq[last][:, None] - cq[:, :-1])
             - s_hi * s_hi / np.maximum(n_hi, 1))
    total = np.where(n_hi > 0, ss_lo + ss_hi, np.inf)
    # np.argmin takes the first minimum; reversing yields the last, i.e.
    # the largest low cluster among ties.
    i = total.shape[1] - 1 - np.argmin(total[:, ::-1], axis=1)
    k_best = i + 1
    const = v[:, 0] == v[last]
    return (np.where(const, a - 1, k_best),
            np.where(const, v[:, 0], s_lo[rows, i] / k_best),
            np.where(const, v[:, 0], s_hi[rows, i] / (a - k_best)))


def _signal_counts(abs_beta: np.ndarray, b=None) -> np.ndarray:
    """Per-row signal counts: plain 2-means, or s2m peeling when b is set.

    Rows go through in blocks of :data:`_BLOCK_ROWS`; within a block every
    row is split at once, and each peel re-splits only the rows still
    peeling.
    """
    t, p = abs_beta.shape
    if p < 2:
        raise InvariantError("need a vector of at least 2 values")
    h = np.empty(t, dtype=np.int64)
    for start in range(0, t, _BLOCK_ROWS):
        v, cs, cq = _row_sums(abs_beta[start:start + _BLOCK_ROWS])
        rows = np.arange(v.shape[0])
        k, m, big = _best_splits(v, cs, cq, np.full(rows.size, p))
        if b is None:
            h[start:start + rows.size] = np.minimum(k, p - k)
            continue
        noise = np.zeros(rows.size, dtype=np.int64)
        while rows.size:
            gap = big - m > b
            rows, k = rows[gap], k[gap]
            noise[rows] = k
            rows, a = rows[k >= 2], k[k >= 2]
            k, m, big = _best_splits(v[rows], cs[rows], cq[rows], a)
        h[start:start + noise.size] = p - noise
    return h


def kmeans2_1d(values) -> TwoMeansSplit:
    """Globally optimal 2-means clustering of nonnegative scalars.

    Computed exactly by scanning the contiguous splits of the sorted
    values, so there is no initialization or iteration to tune. When all
    values are identical every split has zero cost and the tie rule puts a
    single element alone in the high cluster (m == M).
    """
    v = _checked_abs_values(values)
    order = np.argsort(v, kind="stable")
    (k,), (m,), (big,) = _best_splits(*_row_sums(v[None, order]),
                                      np.array([v.size]))
    return TwoMeansSplit(
        low_indices=frozenset(int(j) for j in order[:k]),
        high_indices=frozenset(int(j) for j in order[k:]),
        m=float(m),
        M=float(big),
    )


def count_signals_2m(abs_beta) -> int:
    """Signal count for one draw: the smaller of the two cluster sizes."""
    return int(_signal_counts(_checked_abs_values(abs_beta)[None, :])[0])


def count_signals_s2m(abs_beta, b: float) -> int:
    """Signal count for one draw by sequential 2-means peeling.

    Starting from a 2-means split of all magnitudes, while the gap between
    cluster means exceeds ``b`` the low cluster becomes the noise candidate
    set and is re-clustered. On exit the noise set's complement is counted.
    The noise set starts empty, so if even the first gap is within ``b``
    the count is p (all variables declared signals); the loop also stops
    once the noise set is too small to re-cluster.
    """
    if not (np.isfinite(b) and b > 0):
        raise InvariantError("b must be strictly positive")
    return int(_signal_counts(_checked_abs_values(abs_beta)[None, :], b)[0])


def aggregate_mode(h_counts) -> int:
    """Most frequent count; ties broken toward the smallest (parsimony)."""
    h = np.asarray(h_counts)
    if h.size < 1:
        raise InvariantError("h_counts must be nonempty")
    values, counts = np.unique(h, return_counts=True)
    return int(values[np.argmax(counts)])


def select_top_h(draws: PosteriorDraws, h: int) -> frozenset[int]:
    """1-based indices of the H largest posterior medians of ``|beta_j|``.

    Ties at the boundary go to the smaller index.
    """
    if not 0 <= h <= draws.p:
        raise InvariantError(f"H={h} outside 0..{draws.p}")
    med = np.median(np.abs(draws.beta), axis=0)
    order = np.argsort(-med, kind="stable")
    return frozenset(int(j) + 1 for j in order[:h])


def resolve_b(draws: PosteriorDraws, cfg: S2mConfig) -> float:
    """Numeric gap threshold: either cfg.b or 2 * median(sigma2 draws)."""
    if isinstance(cfg.b, str):
        return 2.0 * float(np.median(draws.sigma2))
    return float(cfg.b)


def select_s2m(draws: PosteriorDraws, cfg: S2mConfig = S2mConfig()) -> SelectionResult:
    """Sequential-2-means selection over all retained draws."""
    b = resolve_b(draws, cfg)
    h = _signal_counts(np.abs(draws.beta), b)
    degenerate = int(np.sum(h == draws.p))
    if degenerate:
        warnings.warn(
            f"s2m declared every variable a signal in {degenerate} of "
            f"{draws.t} draws (first cluster gap within b={b:g}); consider "
            f"a smaller b", stacklevel=2)
    mode = aggregate_mode(h)
    return SelectionResult(
        method="s2m", selected=select_top_h(draws, mode),
        h_counts=h, h_mode=mode)


def select_2m(draws: PosteriorDraws) -> SelectionResult:
    """Plain 2-means selection over all retained draws."""
    h = _signal_counts(np.abs(draws.beta))
    mode = aggregate_mode(h)
    return SelectionResult(
        method="2m", selected=select_top_h(draws, mode),
        h_counts=h, h_mode=mode)


def select_hppm(draws: PosteriorDraws) -> SelectionResult:
    """Most frequently visited inclusion pattern (needs ``z`` draws).

    Ties go to the pattern with fewer included variables, then to the
    lexicographically smallest pattern.
    """
    if draws.z is None:
        raise InvariantError("hppm needs z draws (spike-and-slab chains)")
    patterns, visits = np.unique(draws.z, axis=0, return_counts=True)
    # np.unique returns the patterns in lexicographic order and lexsort is
    # stable, so the first of the sorted keys breaks the last tie too.
    best = patterns[np.lexsort((patterns.sum(axis=1), -visits))[0]]
    selected = frozenset(int(j) + 1 for j in np.nonzero(best)[0])
    return SelectionResult(method="hppm", selected=selected,
                           h_mode=len(selected))


def select_mpm(draws: PosteriorDraws) -> SelectionResult:
    """Variables with posterior inclusion frequency >= 1/2 (needs ``z``)."""
    if draws.z is None:
        raise InvariantError("mpm needs z draws (spike-and-slab chains)")
    freq = draws.z.mean(axis=0)
    selected = frozenset(int(j) + 1 for j in np.nonzero(freq >= 0.5)[0])
    return SelectionResult(method="mpm", selected=selected,
                           h_mode=len(selected))


def select_credible(draws: PosteriorDraws, level: float = 0.95) -> SelectionResult:
    """Variables whose equal-tailed credible interval excludes zero."""
    if not 0 < level < 1:
        raise InvariantError("level must lie in (0, 1)")
    alpha = 1.0 - level
    lo = np.quantile(draws.beta, alpha / 2, axis=0)
    hi = np.quantile(draws.beta, 1 - alpha / 2, axis=0)
    keep = (lo > 0) | (hi < 0)
    selected = frozenset(int(j) + 1 for j in np.nonzero(keep)[0])
    return SelectionResult(method="cs", selected=selected,
                           h_mode=len(selected))


def select_ht(draws: PosteriorDraws, threshold: float = 0.5) -> SelectionResult:
    """Threshold the posterior mean shrinkage weight 1/(1+lambda_j).

    Small weight means weak shrinkage, i.e. a signal; selection is strict
    (a weight exactly at the threshold is not selected). Needs ``lam``.
    """
    if draws.lam is None:
        raise InvariantError("ht needs lambda draws (horseshoe chains)")
    if not 0 < threshold < 1:
        raise InvariantError("threshold must lie in (0, 1)")
    kappa = np.mean(1.0 / (1.0 + draws.lam), axis=0)
    selected = frozenset(int(j) + 1 for j in np.nonzero(kappa < threshold)[0])
    return SelectionResult(method="ht", selected=selected,
                           h_mode=len(selected))


def run_selector(draws: PosteriorDraws, method: str,
                 cfg: S2mConfig = S2mConfig()) -> SelectionResult:
    """Dispatch one selector by its tag."""
    if method == "s2m":
        return select_s2m(draws, cfg)
    if method == "2m":
        return select_2m(draws)
    if method == "hppm":
        return select_hppm(draws)
    if method == "mpm":
        return select_mpm(draws)
    if method == "cs":
        return select_credible(draws, cfg.credible_level)
    if method == "ht":
        return select_ht(draws, cfg.kappa_threshold)
    raise InvariantError(f"unknown method {method!r}")


def _result_params(result: SelectionResult, cfg: S2mConfig,
                   resolved_b: float) -> dict[str, str]:
    params = {"b": "", "level": "", "threshold": ""}
    if result.method == "s2m":
        params["b"] = "%.17g" % resolved_b
    elif result.method == "cs":
        params["level"] = "%.17g" % cfg.credible_level
    elif result.method == "ht":
        params["threshold"] = "%.17g" % cfg.kappa_threshold
    return params


def write_selection_report(results, csv_path: str, text_path: str,
                           cfg: S2mConfig = S2mConfig(),
                           resolved_b: float = float("nan"),
                           errors: dict[str, str] | None = None) -> None:
    """Serialize selection results to a machine CSV and a text report.

    ``errors`` maps method tags that failed to their diagnostic; they get a
    row with an empty selection so every requested method appears once.
    """
    errors = errors or {}
    rows = ["method,h,selected,b,level,threshold,error"]
    lines = []
    for r in results:
        params = _result_params(r, cfg, resolved_b)
        sel = " ".join(str(j) for j in sorted(r.selected))
        rows.append(f"{r.method},{r.h_mode},{sel},{params['b']},"
                    f"{params['level']},{params['threshold']},")
        lines.append(f"method={r.method} H={r.h_mode} selected=[{sel}]")
    for method, msg in errors.items():
        rows.append(f"{method},,,,,,{msg.replace(',', ';')}")
        lines.append(f"method={method} ERROR: {msg}")
    atomic_write_text(csv_path, "\n".join(rows) + "\n")
    atomic_write_text(text_path, "\n".join(lines) + "\n")
