"""Synthetic designs, masking/swamping scoring, and the benchmark harness.

Designs are i.i.d. standard normal; the correlated variant rewrites a few
noise columns as near-copies of signal columns so that each constructed
pair couples one signal with one noise predictor at an empirical
correlation above the configured target. Benchmarks hold the design fixed
and regenerate only the response noise across replicates.

All randomness derives from one master seed through a documented
SeedSequence tree: root -> (design, replicates); replicate i ->
(response stream, chain seed). Replicates are independent given their
streams and may run in parallel; aggregation is a deterministic fold in
replicate order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .core import (Dataset, HORSESHOE, InvariantError, METHODS,
                   PosteriorDraws, PriorSpec, atomic_write_text)
from .samplers import McmcConfig, fit_horseshoe, fit_spike_slab
from .selection import S2mConfig, run_selector

_COR_RETRIES = 20


@dataclass(frozen=True)
class SimConfig:
    """One synthetic-benchmark setting.

    ``strengths`` lists the nonzero coefficients (length ``r``); signal
    positions are drawn uniformly among the covariate columns under the
    master ``seed``. With ``correlated``, ``cor_pairs`` noise columns are
    rebuilt as near-copies of distinct signal columns with empirical
    correlation above ``cor_target``. ``intercept`` appends an all-ones
    column after the ``p`` covariates; it is fitted but excluded from
    selection, truth and scoring.
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
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise InvariantError("noise_sd must be nonnegative")
        if self.replicates < 1:
            raise InvariantError("replicates must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise InvariantError("seed must be a 64-bit unsigned integer")

    @classmethod
    def constant_strength(cls, n, p, r, strength, **kwargs) -> "SimConfig":
        return cls(n=n, p=p, r=r, strengths=(float(strength),) * r, **kwargs)


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
    """A noisy copy of ``base`` whose empirical correlation exceeds target.

    The perturbation size is found by bisection toward the midpoint of
    (target, 1); fresh perturbation directions are retried a bounded
    number of times before giving up.
    """
    mid = 0.5 * (1.0 + target)
    for _ in range(_COR_RETRIES):
        e = rng.standard_normal(base.shape[0])

        def corr(delta: float) -> float:
            return float(np.corrcoef(base, base + delta * e)[0, 1])

        hi = 1.0
        for _ in range(200):
            if corr(hi) < mid:
                break
            hi *= 2.0
        else:
            continue
        lo = 0.0
        for _ in range(80):
            cut = 0.5 * (lo + hi)
            if corr(cut) > mid:
                lo = cut
            else:
                hi = cut
        candidate = base + lo * e
        if float(np.corrcoef(base, candidate)[0, 1]) > target:
            return candidate
    raise RuntimeError(
        f"could not construct a pair with correlation above {target}")


def _gen_design_arrays(cfg: SimConfig,
                       seq: SeedSequence) -> tuple[np.ndarray, frozenset[int]]:
    rng = Generator(Philox(seq))
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


def gen_design(cfg: SimConfig) -> tuple[np.ndarray, frozenset[int]]:
    """Design matrix and 1-based truth set for one benchmark setting.

    Deterministic in ``cfg.seed``. The intercept column, when configured,
    is the last column and never belongs to the truth set.
    """
    design_seq, _ = _seed_root(cfg)
    return _gen_design_arrays(cfg, design_seq)


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
    if noise_sd < 0:
        raise InvariantError("noise_sd must be nonnegative")
    beta = np.zeros(x.shape[1])
    for j, s in zip(truth_sorted, strengths):
        beta[j - 1] = s
    seq = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    rng = Generator(Philox(seq))
    return x @ beta + noise_sd * rng.standard_normal(x.shape[0])


def score(selected, truth) -> tuple[int, int]:
    """(masking, swamping) = (|truth - selected|, |selected - truth|)."""
    sel = {int(j) for j in selected}
    tru = {int(j) for j in truth}
    return len(tru - sel), len(sel - tru)


def _strip_intercept(draws: PosteriorDraws, p: int) -> PosteriorDraws:
    return PosteriorDraws(
        beta=draws.beta[:, :p],
        sigma2=draws.sigma2,
        lam=draws.lam[:, :p] if draws.lam is not None else None,
        tau=draws.tau,
        z=draws.z[:, :p] if draws.z is not None else None,
        pi=draws.pi,
    )


def _bench_replicate(payload) -> dict[str, Union[tuple[int, int], str]]:
    (x, truth, strengths, noise_sd, resp_seq, chain_seed, intercept_p,
     prior, mcmc, methods, s2m_cfg) = payload
    y = gen_response(x, truth, strengths, noise_sd, resp_seq)
    data = Dataset(y=y, x=x, truth=truth)
    try:
        if prior.family == HORSESHOE:
            draws = fit_horseshoe(data, prior, replace(mcmc, seed=chain_seed))
        else:
            draws = fit_spike_slab(data, prior, replace(mcmc, seed=chain_seed))
    except Exception as exc:  # recorded per replicate, not fatal
        return {m: f"chain failed: {exc}" for m in methods}
    if intercept_p is not None:
        draws = _strip_intercept(draws, intercept_p)
    out: dict[str, Union[tuple[int, int], str]] = {}
    for method in methods:
        try:
            result = run_selector(draws, method, s2m_cfg)
            out[method] = score(result.selected, truth)
        except Exception as exc:
            out[method] = str(exc)
    return out


def run_benchmark(cfg: SimConfig, prior: PriorSpec,
                  methods: Sequence[str], mcmc: McmcConfig,
                  s2m_cfg: S2mConfig = S2mConfig(),
                  jobs: int = 1) -> dict[str, ErrorReport]:
    """One design, ``cfg.replicates`` responses, fit + select + score each.

    Returns one :class:`ErrorReport` per method, averaging the completed
    replicates. Replicate failures are excluded with a warning and listed
    on the report instead of being silently averaged over. Bit-reproducible
    for a fixed master seed regardless of ``jobs``: every chain seed derives
    from ``cfg.seed`` through the replicate tree, superseding ``mcmc.seed``.
    """
    for m in methods:
        if m not in METHODS:
            raise InvariantError(f"unknown method {m!r}")
    x, truth = gen_design(cfg)
    intercept_p = cfg.p if cfg.intercept else None
    payloads = [
        (x, truth, cfg.strengths, cfg.noise_sd, resp_seq, chain_seed,
         intercept_p, prior, mcmc, tuple(methods), s2m_cfg)
        for resp_seq, chain_seed in replicate_streams(cfg)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_bench_replicate, payloads))
    else:
        outcomes = [_bench_replicate(p) for p in payloads]

    reports = {}
    for method in methods:
        pairs = []
        failures = []
        for i, outcome in enumerate(outcomes):
            res = outcome[method]
            if isinstance(res, str):
                failures.append((i, res))
            else:
                pairs.append(res)
        if failures:
            warnings.warn(
                f"{method}: {len(failures)} of {cfg.replicates} replicates "
                f"failed and were excluded ({failures[0][1]})", stacklevel=2)
        if pairs:
            masking = float(np.mean([p[0] for p in pairs]))
            swamping = float(np.mean([p[1] for p in pairs]))
        else:
            masking = swamping = float("nan")
        reports[method] = ErrorReport(
            masking=masking, swamping=swamping,
            per_replicate=tuple(pairs), failures=tuple(failures))
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
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    atomic_write_text(path, "\n".join(lines) + "\n")
