"""Synthetic designs, masking/swamping scoring, and the benchmark harness.

Designs are i.i.d. standard normal; the correlated variant (n >= 3)
rewrites a few noise columns as near-copies of signal columns, so that
each constructed pair couples one signal with one noise predictor at
empirical correlation exactly (1 + target)/2, placed in closed form.
Benchmarks hold the design fixed and regenerate only the response noise
across replicates.

All randomness derives from one master seed through a documented
SeedSequence tree: root -> (design, replicates); replicate i ->
(response stream, chain seed). Replicates are independent given their
streams and may run in parallel; aggregation is a deterministic fold in
replicate order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence, Union

import numpy as np
from numpy.random import Generator, SeedSequence

from .core import (Dataset, InvariantError, PosteriorDraws, PriorSpec,
                   _map_jobs, _present, _rng, atomic_write_lines)
from .samplers import McmcConfig, NonFiniteStateError, fit
from .selection import S2mConfig, check_methods, run_selectors

@dataclass(frozen=True)
class SimConfig:
    """One synthetic-benchmark setting.

    ``strengths`` lists the nonzero coefficients (length ``r``; a single
    strength broadcasts to all ``r`` signals); signal positions are drawn
    uniformly among the covariate columns under the master ``seed``. With
    ``correlated`` (which needs ``n >= 3``), ``cor_pairs`` noise columns are
    rebuilt as near-copies of distinct signal columns, each at empirical
    correlation exactly (1 + ``cor_target``)/2. ``intercept`` appends an
    all-ones column after the ``p`` covariates; it is never in the truth.
    :func:`run_benchmark` fits it but leaves it out of selection and
    scoring; the draw-file workflow keeps it as variable p+1.
    """

    n: int
    p: int
    r: int
    strengths: tuple[float, ...]
    correlated: bool = False
    cor_pairs: int = 2
    cor_target: float = 0.99
    noise_sd: float = 1.0
    intercept: bool = True
    seed: int = 0
    replicates: int = 5

    def __post_init__(self):
        if min(self.n, self.p, self.r) < 1:
            raise InvariantError("n, p and r must be positive")
        if self.r > self.p:
            raise InvariantError(f"r={self.r} exceeds p={self.p}")
        strengths = tuple(float(s) for s in self.strengths)
        if len(strengths) == 1:
            strengths *= self.r
        if len(strengths) != self.r:
            raise InvariantError(
                f"{len(strengths)} strengths given for r={self.r} signals")
        if not all(np.isfinite(s) and s != 0 for s in strengths):
            raise InvariantError("strengths must be finite and nonzero")
        object.__setattr__(self, "strengths", strengths)
        if self.correlated:
            if not 1 <= self.cor_pairs <= self.r:
                raise InvariantError("cor_pairs must lie in 1..r")
            if self.cor_pairs > self.p - self.r:
                raise InvariantError(
                    "not enough noise columns for the requested pairs")
            if not 0 < self.cor_target < 1:
                raise InvariantError("cor_target must lie in (0, 1)")
            if self.n < 3:
                raise InvariantError("a correlated design needs n >= 3")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise InvariantError("noise_sd must be nonnegative")
        if self.replicates < 1:
            raise InvariantError("replicates must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise InvariantError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ErrorReport:
    """Masking/swamping means over replicates, plus per-replicate detail.

    ``per_replicate`` holds (masking, swamping) integer pairs for the
    replicates that completed; ``failures`` records (replicate, message)
    for those excluded.
    """

    masking: float
    swamping: float
    per_replicate: tuple[tuple[int, int], ...]
    failures: tuple[tuple[int, str], ...] = ()


def _seed_root(cfg: SimConfig) -> tuple[SeedSequence, SeedSequence]:
    design_seq, rep_root = SeedSequence(cfg.seed).spawn(2)
    return design_seq, rep_root


def replicate_streams(cfg: SimConfig) -> list[tuple[SeedSequence, int]]:
    """Per-replicate (response stream, chain seed) from the master seed."""
    _, rep_root = _seed_root(cfg)
    out = []
    for rep_seq in rep_root.spawn(cfg.replicates):
        resp_seq, chain_seq = rep_seq.spawn(2)
        chain_seed = int(chain_seq.generate_state(1, np.uint64)[0])
        out.append((resp_seq, chain_seed))
    return out


def _correlated_copy(rng: Generator, base: np.ndarray, target: float) -> np.ndarray:
    """``base + delta * e`` at empirical correlation (1 + target)/2 with base.

    For centred b and e, with B = b'b, C = b'e and P = |e - (C/B) b|^2 (the
    square of the part of e off b), the correlation is m at
    delta = sqrt(B(1 - m^2)) / (m sqrt(P) - C sqrt((1 - m^2)/B)). When that
    denominator is not positive, e lies within the target angle of b, and
    -e takes its place. Needs n >= 3, so that P > 0.
    """
    m = 0.5 * (1.0 + target)
    e = rng.standard_normal(base.shape[0])
    b, ec = base - base.mean(), e - e.mean()
    big_b, c = b @ b, b @ ec
    off = ec - c / big_b * b  # not e'e - C^2/B, which cancels when e ~ b
    k = np.sqrt((1.0 - m) * (1.0 + m) / big_b)
    m_root_p = m * np.sqrt(off @ off)
    if m_root_p <= c * k:
        e, c = -e, -c
    return base + big_b * k / (m_root_p - c * k) * e


def gen_design(cfg: SimConfig) -> tuple[np.ndarray, frozenset[int]]:
    """Design matrix and 1-based truth set for one benchmark setting.

    Deterministic in ``cfg.seed``. The intercept column, when configured,
    is the last column and never belongs to the truth set.
    """
    design_seq, _ = _seed_root(cfg)
    rng = _rng(design_seq)
    x = rng.standard_normal((cfg.n, cfg.p))
    signals = np.sort(rng.choice(cfg.p, size=cfg.r, replace=False))
    if cfg.correlated:
        paired_signals = rng.choice(signals, size=cfg.cor_pairs, replace=False)
        noise_cols = np.setdiff1d(np.arange(cfg.p), signals)
        paired_noise = rng.choice(noise_cols, size=cfg.cor_pairs, replace=False)
        for s_col, n_col in zip(paired_signals, paired_noise):
            x[:, n_col] = _correlated_copy(rng, x[:, s_col], cfg.cor_target)
    if cfg.intercept:
        x = np.hstack([x, np.ones((cfg.n, 1))])
    return x, frozenset(int(j) + 1 for j in signals)


def gen_response(x: np.ndarray, truth, strengths,
                 noise_sd: float,
                 seed: Union[int, SeedSequence]) -> np.ndarray:
    """y = X beta_T + noise, with the given strengths on the truth set.

    Strengths are assigned to the truth indices in ascending index order.
    ``noise_sd`` of 0 gives the noise-free response exactly.
    """
    x = np.asarray(x, dtype=float)
    truth_sorted = sorted(int(j) for j in truth)
    strengths = [float(s) for s in strengths]
    if len(strengths) != len(truth_sorted):
        raise InvariantError("one strength per truth index required")
    if truth_sorted and not 1 <= truth_sorted[0] <= truth_sorted[-1] <= x.shape[1]:
        raise InvariantError("truth indices outside design columns")
    if not all(np.isfinite(strengths)):
        raise InvariantError("strengths must be finite")
    if not (np.isfinite(noise_sd) and noise_sd >= 0):
        raise InvariantError("noise_sd must be finite and nonnegative")
    beta = np.zeros(x.shape[1])
    for j, s in zip(truth_sorted, strengths):
        beta[j - 1] = s
    return x @ beta + noise_sd * _rng(seed).standard_normal(x.shape[0])


def score(selected, truth) -> tuple[int, int]:
    """(masking, swamping) = (|truth - selected|, |selected - truth|)."""
    sel = {int(j) for j in selected}
    tru = {int(j) for j in truth}
    return len(tru - sel), len(sel - tru)


def _bench_replicate(stream, *, x, truth, cfg, prior, mcmc, methods,
                     s2m_cfg) -> list[Union[tuple[int, int], str]]:
    """Per method, one replicate's (masking, swamping) or error message.

    ``stream`` is the replicate's (response stream, chain seed).
    """
    resp_seq, chain_seed = stream
    y = gen_response(x, truth, cfg.strengths, cfg.noise_sd, resp_seq)
    try:
        draws = fit(Dataset(y=y, x=x, truth=truth), prior,
                    replace(mcmc, seed=chain_seed))
    except NonFiniteStateError as exc:  # recorded per replicate, not fatal
        return [f"chain failed: {exc}"] * len(methods)
    if cfg.intercept:  # fitted, but never selected or scored
        draws = PosteriorDraws(**{lat.field: a[:, :cfg.p] if lat.per_coef
                                  else a for lat, a in _present(draws)})
    return [r if isinstance(r, str) else score(r.selected, truth)
            for r in run_selectors(draws, methods, s2m_cfg).values()]


def run_benchmark(cfg: SimConfig, prior: PriorSpec,
                  methods: Sequence[str], mcmc: McmcConfig,
                  s2m_cfg: S2mConfig = S2mConfig(),
                  jobs: int = 1) -> dict[str, ErrorReport]:
    """One design, ``cfg.replicates`` responses, fit + select + score each.

    Returns one :class:`ErrorReport` per method, averaging the completed
    replicates. A chain that reaches a non-finite state
    (:class:`~shrinksel.samplers.NonFiniteStateError`) fails its replicate
    for every method, and a selector that refuses the prior's draws
    (``hppm``/``mpm`` on horseshoe, ``ht`` on spike-and-slab) for its own;
    both are excluded with a warning and listed on the report. Any other
    error propagates. Bit-reproducible for a fixed master seed regardless
    of ``jobs``: every chain seed derives from ``cfg.seed`` through the
    replicate tree, superseding ``mcmc.seed``.
    """
    check_methods(methods)
    x, truth = gen_design(cfg)
    replicate = partial(_bench_replicate, x=x, truth=truth, cfg=cfg,
                        prior=prior, mcmc=mcmc, methods=tuple(methods),
                        s2m_cfg=s2m_cfg)
    outcomes = _map_jobs(replicate, replicate_streams(cfg), jobs)

    reports = {}
    for method, results in zip(methods, zip(*outcomes)):
        failures = [(i, r) for i, r in enumerate(results) if isinstance(r, str)]
        pairs = [r for r in results if not isinstance(r, str)]
        if failures:
            warnings.warn(
                f"{method}: {len(failures)} of {cfg.replicates} replicates "
                f"failed and were excluded ({failures[0][1]})", stacklevel=2)
        means = np.mean(pairs, axis=0) if pairs else (np.nan, np.nan)
        reports[method] = ErrorReport(*map(float, means), tuple(pairs),
                                      tuple(failures))
    return reports


def format_benchmark_table(reports: dict[str, ErrorReport],
                           setting: str) -> str:
    """Per-method (masking, swamping) lines in the benchmark-table layout."""
    width = max(len(m) for m in reports)
    lines = [f"setting: {setting}"]
    for method, rep in reports.items():
        lines.append(
            f"{method:<{width}}  ({rep.masking:.2f}, {rep.swamping:.2f})")
    return "\n".join(lines)


def write_benchmark_csv(reports: dict[str, ErrorReport], setting: str,
                        path: str) -> None:
    lines = ["method,setting,masking,swamping"]
    for method, rep in reports.items():
        lines.append(f"{method},{setting},{rep.masking:.17g},{rep.swamping:.17g}")
    atomic_write_lines(path, lines)


def write_replicate_csv(reports: dict[str, ErrorReport], setting: str,
                        path: str) -> None:
    lines = ["method,setting,replicate,masking,swamping,error"]
    for method, rep in reports.items():
        # Completed replicates appear in fold order; failed ones carry
        # their diagnostic instead of scores.
        failed = dict(rep.failures)
        total = len(rep.per_replicate) + len(rep.failures)
        pair_iter = iter(rep.per_replicate)
        for i in range(total):
            if i in failed:
                msg = failed[i].replace(",", ";")
                lines.append(f"{method},{setting},{i},,,{msg}")
            else:
                m, s = next(pair_iter)
                lines.append(f"{method},{setting},{i},{m},{s},")
    atomic_write_lines(path, lines)
