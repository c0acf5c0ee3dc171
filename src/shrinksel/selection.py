"""Posterior post-processing variable selectors.

Every selector is a pure function of :class:`~shrinksel.core.PosteriorDraws`
and works regardless of which sampler produced the draws. The clustering
selectors (``2m``, ``s2m``) estimate the number of signals per retained
draw by exact 1-D 2-means on the absolute coefficients, aggregate the
counts by their mode, and pick that many variables off the posterior
median of ``|beta_j|``. The baselines select from inclusion indicators
(``hppm``, ``mpm``), credible intervals (``cs``), or shrinkage weights
(``ht``).

The selectors read the T x p draws in row or column blocks of about
``core._BLOCK_BYTES``, so their temporaries stay the size of a block
however many draws there are, and each blocked median, quantile or mean
has the same bits as the whole-matrix numpy call.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (InvariantError, PosteriorDraws, SelectionResult, _blocks,
                   _positive_int, _table_lines, atomic_write_lines)

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


def _checked_abs_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InvariantError("need a vector of at least 2 values")
    if not np.all(np.isfinite(v)):
        raise InvariantError("values must be finite")
    if np.any(v < 0):
        raise InvariantError("values must be nonnegative magnitudes")
    return v


def _row_sums(v: np.ndarray):
    """Rows of ``v`` sorted ascending in place, their row-wise cumsums of v
    and v*v, and ss_lo.

    ``np.cumsum`` adds sequentially, so the first a entries of a row's
    cumsum equal, bit for bit, the cumsum of the row's first a values:
    every ``s2m`` peel reuses these sums on a prefix. ``ss_lo[:, k-1]`` is
    the within-cluster SS of the k smallest values, which no peel changes.
    """
    v.sort(axis=1)
    cs, cq = np.cumsum(v, axis=1), np.cumsum(v * v, axis=1)
    s_lo = cs[:, :-1]
    return v, cs, cq, cq[:, :-1] - s_lo * s_lo / np.arange(1, v.shape[1])


def _best_splits(v, cs, cq, ss_lo, a):
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
    n_hi = a[:, None] - np.arange(1, v.shape[1])
    s_lo = cs[:, :-1]
    s_hi = cs[last][:, None] - s_lo
    # total = ss_lo + ss_hi, built in place. Splits past a row's prefix get
    # an infinite cost; the clamped divisor only keeps them finite until
    # then.
    total = cq[last][:, None] - cq[:, :-1]
    sq = s_hi * s_hi
    sq /= np.maximum(n_hi, 1)
    total -= sq
    total += ss_lo
    total[n_hi <= 0] = np.inf
    # np.argmin takes the first minimum; reversing yields the last, i.e.
    # the largest low cluster among ties.
    i = total.shape[1] - 1 - np.argmin(total[:, ::-1], axis=1)
    k_best = i + 1
    const = v[:, 0] == v[last]
    return (np.where(const, a - 1, k_best),
            np.where(const, v[:, 0], s_lo[rows, i] / k_best),
            np.where(const, v[:, 0], s_hi[rows, i] / (a - k_best)))


def _signal_counts(beta: np.ndarray, b=None) -> np.ndarray:
    """Per-row signal counts of ``|beta|``: plain 2-means, or s2m peeling
    when b is set.

    Rows go through in blocks of about ``core._BLOCK_BYTES`` of ``beta``,
    each taking its own ``|beta|``; within a block every row is split at
    once, and each peel re-splits only the rows still peeling, from sums
    cut down to those rows.
    """
    t, p = beta.shape
    if p < 2:
        raise InvariantError("need a vector of at least 2 values")
    h = np.empty(t, dtype=np.int64)
    for block in _blocks(t, p):
        sums = _row_sums(np.abs(beta[block]))
        rows = np.arange(len(sums[0]))
        k, m, big = _best_splits(*sums, np.full(rows.size, p))
        if b is None:
            h[block] = np.minimum(k, p - k)
            continue
        noise = np.zeros(rows.size, dtype=np.int64)
        while rows.size:
            gap = big - m > b
            rows, k = rows[gap], k[gap]
            noise[rows] = k
            again = k >= 2
            keep = np.flatnonzero(gap)[again]
            sums = [s[keep] for s in sums]
            rows, k, m, big = rows[again], *_best_splits(*sums, k[again])
        h[block] = p - noise
    return h


def _by_columns(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` applied to blocks of columns of ``a`` and joined on the last
    axis: for a per-column reduction ``fn``, the same bits as ``fn(a)``
    with temporaries the size of one block."""
    return np.concatenate([fn(a[:, cols]) for cols in _blocks(*a.shape[::-1])],
                          axis=-1)


def _abs_median(beta: np.ndarray) -> np.ndarray:
    """Posterior median of each ``|beta_j|``."""
    return np.median(np.abs(beta), axis=0)


def _mean_weight(lam: np.ndarray) -> np.ndarray:
    """Posterior mean of each shrinkage weight ``1/(1+lambda_j)``."""
    return np.mean(1.0 / (1.0 + lam), axis=0)


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
    med = _by_columns(_abs_median, draws.beta)
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
    h = _signal_counts(draws.beta, b)
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
    h = _signal_counts(draws.beta)
    mode = aggregate_mode(h)
    return SelectionResult(
        method="2m", selected=select_top_h(draws, mode),
        h_counts=h, h_mode=mode)


def _from_mask(method: str, mask) -> SelectionResult:
    """The variables where ``mask`` is true, by 1-based index."""
    selected = frozenset(int(j) + 1 for j in np.flatnonzero(mask))
    return SelectionResult(method, selected, h_mode=len(selected))


def select_hppm(draws: PosteriorDraws) -> SelectionResult:
    """Most frequently visited inclusion pattern (needs ``z`` draws).

    Ties go to the pattern with fewer included variables, then to the
    lexicographically smallest pattern.
    """
    if draws.z is None:
        raise InvariantError("hppm needs z draws (spike-and-slab chains)")
    visits = Counter()
    for rows in _blocks(draws.t, draws.p):
        visits.update(row.tobytes() for row in np.packbits(draws.z[rows],
                                                           axis=1))
    # Bits are packed first to last from each byte's high bit, so the
    # packed rows, all one length, sort as the patterns do.
    top = max(visits.values())
    best = min((key for key, n in visits.items() if n == top),
               key=lambda key: (int.from_bytes(key, "big").bit_count(), key))
    return _from_mask("hppm", np.unpackbits(
        np.frombuffer(best, dtype=np.uint8), count=draws.p))


def select_mpm(draws: PosteriorDraws) -> SelectionResult:
    """Variables with posterior inclusion frequency >= 1/2 (needs ``z``)."""
    if draws.z is None:
        raise InvariantError("mpm needs z draws (spike-and-slab chains)")
    return _from_mask("mpm", draws.z.mean(axis=0) >= 0.5)


def select_credible(draws: PosteriorDraws, level: float = 0.95) -> SelectionResult:
    """Variables whose equal-tailed credible interval excludes zero."""
    if not 0 < level < 1:
        raise InvariantError("level must lie in (0, 1)")
    alpha = 1.0 - level
    lo, hi = _by_columns(
        lambda blk: np.quantile(blk, [alpha / 2, 1 - alpha / 2], axis=0),
        draws.beta)
    return _from_mask("cs", (lo > 0) | (hi < 0))


def select_ht(draws: PosteriorDraws, threshold: float = 0.5) -> SelectionResult:
    """Threshold the posterior mean shrinkage weight 1/(1+lambda_j).

    Small weight means weak shrinkage, i.e. a signal; selection is strict
    (a weight exactly at the threshold is not selected). Needs ``lam``.
    """
    if draws.lam is None:
        raise InvariantError("ht needs lambda draws (horseshoe chains)")
    if not 0 < threshold < 1:
        raise InvariantError("threshold must lie in (0, 1)")
    kappa = _by_columns(_mean_weight, draws.lam)
    return _from_mask("ht", kappa < threshold)


#: Each selector tag, in :data:`~shrinksel.core.METHODS` order: its call
#: on (draws, cfg) and the report column that records its parameter.
_SELECTORS = {
    "s2m": (select_s2m, "b"),
    "2m": (lambda d, c: select_2m(d), None),
    "hppm": (lambda d, c: select_hppm(d), None),
    "mpm": (lambda d, c: select_mpm(d), None),
    "cs": (lambda d, c: select_credible(d, c.credible_level), "level"),
    "ht": (lambda d, c: select_ht(d, c.kappa_threshold), "threshold"),
}


def check_methods(methods) -> None:
    """Refuse an empty method list, an unknown tag or a repeated tag."""
    unknown = [m for m in methods if m not in _SELECTORS]
    if unknown or not methods:
        what = f"unknown method(s) {unknown}" if unknown else "no methods"
        raise InvariantError(f"{what}; valid methods: {', '.join(_SELECTORS)}")
    repeated = [m for m in _SELECTORS if methods.count(m) > 1]
    if repeated:
        raise InvariantError(f"method(s) {repeated} given more than once")


def run_selector(draws: PosteriorDraws, method: str,
                 cfg: S2mConfig = S2mConfig()) -> SelectionResult:
    """Dispatch one selector by its tag."""
    check_methods([method])
    return _SELECTORS[method][0](draws, cfg)


def run_selectors(draws: PosteriorDraws, methods, cfg: S2mConfig = S2mConfig()
                  ) -> dict[str, Union[SelectionResult, str]]:
    """Per method, in order: its result, or the message of the
    :class:`InvariantError` by which its selector refused the draws (``hppm``
    and ``mpm`` without ``z``, ``ht`` without ``lam``). Others propagate."""
    check_methods(methods)
    outcomes = {}
    for method in methods:
        try:
            outcomes[method] = _SELECTORS[method][0](draws, cfg)
        except InvariantError as exc:
            outcomes[method] = str(exc)
    return outcomes


#: The selection CSV header, written and required by the two functions below.
_REPORT_HEADER = "method,h,selected,b,level,threshold,error"


def write_selection_report(outcomes, csv_path: str, text_path: str,
                           cfg: S2mConfig, resolved_b: float) -> None:
    """Write :func:`run_selectors` outcomes to a CSV and a text report: the
    results in call order, then the refusals, each with its message."""
    params = {"b": resolved_b, "level": cfg.credible_level,
              "threshold": cfg.kappa_threshold}
    rows = [_REPORT_HEADER]
    lines = []
    for method, r in sorted(outcomes.items(),
                            key=lambda o: isinstance(o[1], str)):
        if isinstance(r, str):
            rows.append(f"{method},,,,,,{r.replace(',', ';')}")
            lines.append(f"method={method} ERROR: {r}")
            continue
        column = _SELECTORS[method][1]
        cells = ",".join("%.17g" % v if c == column else ""
                         for c, v in params.items())
        sel = " ".join(str(j) for j in sorted(r.selected))
        rows.append(f"{method},{r.h_mode},{sel},{cells},")
        lines.append(f"method={method} H={r.h_mode} selected=[{sel}]")
    atomic_write_lines(csv_path, rows)
    atomic_write_lines(text_path, lines)


def _report_selection(cells: list[str], where: str) -> frozenset[int]:
    """The indices of one report row, which :func:`write_selection_report`
    writes each once, as many as the row's ``h`` cell counts."""
    indices = [_positive_int(v, where) for v in cells[2].split()]
    repeated = sorted(j for j, n in Counter(indices).items() if n > 1)
    if repeated:
        raise InvariantError(f"{where}: index {repeated[0]} given more "
                             f"than once")
    if cells[1] != str(len(indices)):
        raise InvariantError(f"{where}: h is {cells[1]!r} but the row gives "
                             f"{len(indices)} indices")
    return frozenset(indices)


def read_selection_report(path: str) -> dict[str, Union[frozenset[int], str]]:
    """Per method, in file order, the selected indices or refusal message
    that a selection CSV records. The header must be :data:`_REPORT_HEADER`
    and each row as wide, with a known tag given once and distinct 1-based
    indices as many as its ``h``; anything else raises
    :class:`InvariantError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != _REPORT_HEADER:
            raise InvariantError(f"{path}: not a selection report (expected "
                                 f"the header {_REPORT_HEADER!r})")
        rows = list(_table_lines(fh, path, 2, _REPORT_HEADER.count(",") + 1))
    try:
        check_methods([cells[0] for _, cells in rows])
    except InvariantError as exc:
        raise InvariantError(f"{path}: {exc}") from None
    return {cells[0]: cells[-1] or _report_selection(cells,
                                                     f"{path}: line {lineno}")
            for lineno, cells in rows}
