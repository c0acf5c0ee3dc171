"""The shrinksel benchmark workloads, their correctness checks and traced replays.

Each workload has one untraced operation, timed for the end-to-end
metrics, and a traced replay of the same operation through the package's
public functions. The replay puts a span around every call into a layer
(``simulate``, ``samplers``, ``selection``, ``core``, ``shrinkage``) and
must reproduce the untraced outputs exactly. ``cli`` is argument and JSON
handling only and is not timed.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always measures the sources next to it.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "shrinksel" / "__init__.py").is_file():
    raise SystemExit(f"shrinksel sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from numpy.random import SeedSequence  # noqa: E402

from shrinksel import (HORSESHOE, Dataset, McmcConfig, PosteriorDraws,  # noqa: E402
                       PriorSpec, QuadratureError, SimConfig, TwoVarProblem,
                       fit, gen_design, gen_response, hs_estimator_mc,
                       hs_shrinkage, load_draws, reverse_shrinkage_grid,
                       run_benchmark, run_selector, save_draws, score)
from shrinksel.shrinkage import (DEFAULT_A_GRID, DEFAULT_RHO_GRID,  # noqa: E402
                                 DEFAULT_TAU_GRID, DEFAULT_X2_VALUES)
from shrinksel.simulate import replicate_streams  # noqa: E402

#: Scratch space for draw files; inside the checkout, ignored by git.
WORK_DIR = Path(__file__).resolve().parent / "out"

#: Three strong and seven weak signals: s2m has to peel past the strong
#: three to find the weak seven, which plain 2-means masks.
STRENGTHS = (15.0,) * 3 + (4.0,) * 7
HS_METHODS = ("s2m", "2m", "cs", "ht")
SS_METHODS = ("s2m", "2m", "hppm", "mpm", "cs")
#: Operations cycle through this many seeded input sets.
INPUT_SETS = 4
FAILED = "failed"

#: Monte Carlo cross-check points (rho, tau, A, x2), all on the default
#: grid. Their streams are fixed, so the 3-standard-error check is
#: deterministic rather than a test that fails in a known share of runs.
MC_POINTS = ((0.94, 0.05, 10.0, 1.0), (0.96, 0.2, 5.0, 1.5),
             (0.97, 0.5, 2.0, 1.0), (0.99, 0.95, 1.1, 1.5))
MC_SEED = 1000
#: hs_shrinkage doubles its quadrature order from this one.
FIRST_QUAD_ORDER = 16


@dataclass(frozen=True)
class Scale:
    """Problem sizes. The benchmark runs FULL; the self-test runs TINY."""

    sim_n: int = 50
    sim_p: int = 300
    replicates: int = 1
    tall_n: int = 200
    tall_p: int = 100
    mcmc: McmcConfig = McmcConfig(iterations=5000, burn_in=2000)
    #: A quarter of the default schedule, so that a run holds many
    #: operations; per-iteration and per-draw costs do not depend on it.
    tall_mcmc: McmcConfig = McmcConfig(iterations=1250, burn_in=500)
    rho_grid: tuple = DEFAULT_RHO_GRID
    tau_grid: tuple = DEFAULT_TAU_GRID
    a_grid: tuple = DEFAULT_A_GRID
    mc_samples: int = 1_000_000


SCALES = {
    "full": Scale(),
    "tiny": Scale(sim_n=20, sim_p=40, tall_n=40, tall_p=12,
                  mcmc=McmcConfig(iterations=40, burn_in=10),
                  tall_mcmc=McmcConfig(iterations=40, burn_in=10),
                  rho_grid=(0.95,), tau_grid=(0.1, 0.5), a_grid=(1.5, 3.0),
                  mc_samples=20_000),
}


class Tracer:
    """Spans kept in memory, plus counters recorded at the same calls.

    A span is a dict with ``id``, ``parent`` (the enclosing span's id or
    None), ``name``, ``start`` and ``end`` (``perf_counter`` seconds).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._open: list = [None]

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "parent": self._open[-1],
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def split(self) -> None:
        """A boundary between the pieces of an operation; see ``run.Meter``."""

    def total(self, name: str) -> tuple[float, int]:
        """Summed duration and number of the spans called ``name``."""
        done = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return float(sum(done)), len(done)


class NullTracer:
    """Tracing switched off: spans, counters and splits cost one call each."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: float) -> None:
        pass

    def split(self) -> None:
        pass


NULL = NullTracer()


def derived_seed(seed: int, k: int) -> int:
    """Master seed of input set ``k`` under the run's ``--seed``."""
    return int(SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def fit_span_name(data: Dataset, prior: PriorSpec) -> str:
    if prior.family == HORSESHOE:
        # fit_horseshoe takes the n x n Woodbury solve exactly when p > n.
        path = "woodbury" if data.p > data.n else "dense"
        return f"samplers.fit[horseshoe-{path}]"
    return "samplers.fit[spike-slab]"


def traced_fit(tracer, data: Dataset, prior: PriorSpec,
               mcmc: McmcConfig) -> PosteriorDraws:
    name = fit_span_name(data, prior)
    with tracer.span(name):
        draws = fit(data, prior, mcmc)
    tracer.count(name + ".iterations", mcmc.iterations)
    tracer.count(name + ".coordinates", mcmc.iterations * data.p)
    return draws


def traced_select(tracer, draws: PosteriorDraws, method: str):
    with tracer.span(f"selection.run_selector[{method}]"):
        result = run_selector(draws, method)
    tracer.count(f"selection.{method}.draws", draws.t)
    if method == "s2m":
        tracer.count("selection.s2m_degenerate_draws",
                     int(np.sum(result.h_counts == draws.p)))
    return result


def traced_score(tracer, selected, truth) -> tuple[int, int]:
    with tracer.span("simulate.score"):
        return score(selected, truth)


class SimWide:
    """``run_benchmark`` at p > n: Woodbury chain, then four selectors.

    Untraced, one operation is one ``run_benchmark`` call over
    ``scale.replicates`` replicates. The replay rebuilds it from
    ``gen_design``, ``replicate_streams``, ``gen_response``, ``fit``,
    ``run_selector`` and ``score``.
    """

    rate = "sim.replicates_per_s"

    def items(self, scale: Scale) -> int:
        return scale.replicates

    def build(self, seed: int, scale: Scale) -> list[SimConfig]:
        return [SimConfig(n=scale.sim_n, p=scale.sim_p, r=len(STRENGTHS),
                          strengths=STRENGTHS, seed=derived_seed(seed, k),
                          replicates=scale.replicates)
                for k in range(INPUT_SETS)]

    def run(self, inputs, k: int, scale: Scale, meter=NULL) -> dict:
        cfg = inputs[k % len(inputs)]
        reports = run_benchmark(cfg, PriorSpec.horseshoe(), HS_METHODS,
                                scale.mcmc)
        summary = {}
        for method, rep in reports.items():
            failed = dict(rep.failures)
            pairs = iter(rep.per_replicate)
            summary[method] = tuple(
                FAILED if i in failed else next(pairs)
                for i in range(cfg.replicates))
        return {"summary": summary}

    def replay(self, inputs, k: int, scale: Scale, tracer: Tracer) -> dict:
        cfg = inputs[k % len(inputs)]
        with tracer.span("simulate.gen_design"):
            x, truth = gen_design(cfg)
        with tracer.span("simulate.replicate_streams"):
            streams = replicate_streams(cfg)
        summary = {m: [] for m in HS_METHODS}
        for resp_seq, chain_seed in streams:
            with tracer.span("simulate.gen_response"):
                y = gen_response(x, truth, cfg.strengths, cfg.noise_sd,
                                 resp_seq)
            data = Dataset(y=y, x=x, truth=truth)
            try:
                draws = traced_fit(tracer, data, PriorSpec.horseshoe(),
                                   replace(scale.mcmc, seed=chain_seed))
            except Exception:  # run_benchmark records a failed chain too
                for m in HS_METHODS:
                    summary[m].append(FAILED)
                continue
            draws = PosteriorDraws(beta=draws.beta[:, :cfg.p],
                                   sigma2=draws.sigma2,
                                   lam=draws.lam[:, :cfg.p], tau=draws.tau)
            for m in HS_METHODS:
                try:
                    result = traced_select(tracer, draws, m)
                except Exception:
                    summary[m].append(FAILED)
                    continue
                summary[m].append(traced_score(tracer, result.selected, truth))
        return {"summary": {m: tuple(v) for m, v in summary.items()}}

    def check(self, inputs, k: int, scale: Scale, out: dict) -> tuple[int, int]:
        """Acceptance-suite bounds, per replicate.

        The suite allows s2m a mean of 0.2 masked and 0.2 swamped over
        five replicates, and 2m a mean masking of 6.5 to 7 (the weak
        seven) with 0.2 swamped; one replicate may therefore miss by one.
        """
        s = out["summary"]
        failed = 0
        for i in range(len(s["s2m"])):
            if any(s[m][i] == FAILED for m in HS_METHODS):
                failed += 1
                continue
            (s2m_mask, s2m_swamp), (twom_mask, twom_swamp) = s["s2m"][i], s["2m"][i]
            failed += not (s2m_mask <= 1 and s2m_swamp <= 1
                           and 6 <= twom_mask <= 7 and twom_swamp <= 1)
        return len(s["s2m"]), failed


class FilesTall:
    """The draw-file workflow at p < n: fit, save, load, select, score.

    Both priors are fitted in turn on one simulated dataset (the design
    keeps its intercept column, as ``shrinksel simulate`` writes it). The
    operation is a sequence of public calls, so the untraced run is the
    replay with tracing switched off.
    """

    rate = "files.chains_per_s"

    def items(self, scale: Scale) -> int:
        return 2

    def build(self, seed: int, scale: Scale) -> list:
        out = []
        for k in range(INPUT_SETS):
            cfg = SimConfig(n=scale.tall_n, p=scale.tall_p, r=len(STRENGTHS),
                            strengths=STRENGTHS, seed=derived_seed(seed, k),
                            replicates=1)
            x, truth = gen_design(cfg)
            resp_seq, chain_seed = replicate_streams(cfg)[0]
            y = gen_response(x, truth, cfg.strengths, cfg.noise_sd, resp_seq)
            out.append((Dataset(y=y, x=x), truth, chain_seed))
        return out

    def run(self, inputs, k: int, scale: Scale, meter=NULL) -> dict:
        return self.replay(inputs, k, scale, meter)

    def replay(self, inputs, k: int, scale: Scale, tracer) -> dict:
        data, truth, chain_seed = inputs[k % len(inputs)]
        mcmc = replace(scale.tall_mcmc, seed=chain_seed)
        summary, evidence = {}, {}
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            for i, (prior, methods) in enumerate(
                    ((PriorSpec.horseshoe(), HS_METHODS),
                     (PriorSpec.spike_slab(), SS_METHODS))):
                path = os.path.join(tmp, "draws.csv")
                if i:
                    tracer.split()
                try:
                    draws = traced_fit(tracer, data, prior, mcmc)
                    tracer.split()
                    with tracer.span("core.save_draws"):
                        save_draws(draws, path)
                    size = os.path.getsize(path)
                    tracer.count("core.save_draws.bytes", size)
                    with tracer.span("core.load_draws"):
                        loaded = load_draws(path)
                    tracer.count("core.load_draws.bytes", size)
                    picked = {}
                    for m in methods:
                        result = traced_select(tracer, loaded, m)
                        picked[m] = (tuple(sorted(result.selected)),
                                     result.h_mode,
                                     traced_score(tracer, result.selected, truth))
                except Exception:
                    summary[prior.family] = FAILED
                    continue
                summary[prior.family] = picked
                evidence[prior.family] = (draws, loaded)
        return {"summary": summary, "draws": evidence}

    def check(self, inputs, k: int, scale: Scale, out: dict) -> tuple[int, int]:
        """Bit-exact round trip; reloaded selections equal in-memory ones."""
        failed = 0
        for family, picked in out["summary"].items():
            if picked == FAILED:
                failed += 1
                continue
            draws, loaded = out["draws"][family]
            same = all(
                (a is None and b is None)
                or (a is not None and b is not None and np.array_equal(a, b))
                for a, b in ((draws.beta, loaded.beta),
                             (draws.sigma2, loaded.sigma2),
                             (draws.lam, loaded.lam), (draws.tau, loaded.tau),
                             (draws.z, loaded.z), (draws.pi, loaded.pi)))
            for m, (selected, h_mode, _) in picked.items():
                result = run_selector(draws, m)
                same = same and (tuple(sorted(result.selected)) == selected
                                 and result.h_mode == h_mode)
            failed += not same
        return len(out["summary"]), failed


class Shrinkmap:
    """The reverse-shrinkage grid at both MLE levels, plus MC spot checks.

    Untraced, one operation is ``reverse_shrinkage_grid`` at each x2 and
    ``hs_estimator_mc`` at :data:`MC_POINTS`. The replay evaluates
    ``hs_shrinkage`` per point in grid order. The inputs do not depend on
    the seed: the grid is the default one and the MC streams are fixed.
    """

    rate = "shrinkmap.points_per_s"

    def items(self, scale: Scale) -> int:
        return (len(DEFAULT_X2_VALUES) * len(scale.rho_grid)
                * len(scale.tau_grid) * len(scale.a_grid))

    def build(self, seed: int, scale: Scale) -> list[TwoVarProblem]:
        return [TwoVarProblem(rho=rho, tau=tau, mle=(a * x2, x2))
                for rho, tau, a, x2 in MC_POINTS]

    def run(self, inputs, k: int, scale: Scale, meter=NULL) -> dict:
        points = []
        for x2 in DEFAULT_X2_VALUES:
            points += reverse_shrinkage_grid(
                scale.rho_grid, scale.tau_grid, scale.a_grid, x2=x2)
            meter.split()
        mc = [hs_estimator_mc(problem, n_samples=scale.mc_samples,
                              seed=MC_SEED + i)
              for i, problem in enumerate(inputs)]
        rows = tuple((pt.ratio_shrunk, pt.reverse) if pt.error is None
                     else FAILED for pt in points)
        return {"summary": (rows, tuple(m.estimate for m in mc)), "mc": mc}

    def replay(self, inputs, k: int, scale: Scale, tracer: Tracer) -> dict:
        rows = []
        for x2 in DEFAULT_X2_VALUES:
            for rho in scale.rho_grid:
                for tau in scale.tau_grid:
                    for a in scale.a_grid:
                        x2f, af = float(x2), float(a)
                        problem = TwoVarProblem(rho=float(rho), tau=float(tau),
                                                mle=(af * x2f, x2f))
                        rows.append(self._classify(problem, tracer))
        mc = []
        for i, problem in enumerate(inputs):
            with tracer.span("shrinkage.hs_estimator_mc"):
                mc.append(hs_estimator_mc(problem, n_samples=scale.mc_samples,
                                          seed=MC_SEED + i))
            tracer.count("shrinkage.mc_samples", scale.mc_samples)
        return {"summary": (tuple(rows), tuple(m.estimate for m in mc)),
                "mc": mc}

    @staticmethod
    def _classify(problem: TwoVarProblem, tracer: Tracer):
        tracer.count("shrinkage.points", 1)
        try:
            with tracer.span("shrinkage.hs_shrinkage"):
                res = hs_shrinkage(problem)
        except QuadratureError:
            tracer.count("shrinkage.quad_failures", 1)
            return FAILED
        tracer.count("shrinkage.quad_order_sum", res.order)
        order, nodes = FIRST_QUAD_ORDER, 0
        while order <= res.order:
            nodes += order * order
            order *= 2
        tracer.count("shrinkage.quad_nodes_total", nodes)
        b1, b2 = res.estimate
        ratio = math.inf if b2 == 0 else abs(b1 / b2)
        return ratio, ratio >= problem.a

    def check(self, inputs, k: int, scale: Scale, out: dict) -> tuple[int, int]:
        """Every point converges; quadrature within 3 MC standard errors."""
        rows, _ = out["summary"]
        failed = sum(row == FAILED for row in rows)
        for problem, mc in zip(inputs, out["mc"]):
            quad = hs_shrinkage(problem).estimate
            failed += not all(abs(q - m) <= 3.0 * se
                              for q, m, se in zip(quad, mc.estimate, mc.se))
        return len(rows) + len(inputs), failed


WORKLOADS = {
    "sim-wide": SimWide(),
    "files-tall": FilesTall(),
    "shrinkmap": Shrinkmap(),
}
