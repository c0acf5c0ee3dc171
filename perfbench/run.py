"""shrinksel benchmark: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 40 --trace 0

The run repeats the workload's operation until ``--seconds`` have passed
(the last operation may overrun by half an operation) and checks every
operation's outputs. With ``--trace 0`` the run reports the end-to-end
metrics. Their times are multiples of the reference kernel's time
(``reference.py``), which is timed between the pieces of every operation:
the run's mean operation over its mean reference timing, each without its
lowest and highest tenth. Most of the host's changing speed cancels in
that ratio. ``setup_s`` is scaled the same way to the host's usual speed
(``REF_NOMINAL_S``). The raw seconds are printed in the table. With ``--trace 1``
the run follows every untraced operation with a traced replay of it,
requires the replay to reproduce the outputs exactly, reports the
per-layer metrics and writes the spans to ``perfbench/out/``.

Standard output carries the machine and environment record, a readable
table, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. NOTES.md says why each workload
and metric exists. BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
SETUP_TRIALS = 9
#: Reference kernel passes per reference timing: about 0.1 s.
REF_PASSES = 8
#: After a piece of an operation, one reference timing per started
#: this many seconds of the piece, so that reference timings sample the
#: run evenly in time.
REF_EVERY_S = 1.0
#: Share of the lowest and of the highest timings left out of a run's mean.
TRIM = 0.1
#: The reference timing's usual length on the 2-core Xeon VM the benchmark
#: was tuned on. ``setup_s`` is reported at that speed: the set-up trials'
#: median over the run's mean reference timing, times this.
REF_NOMINAL_S = 0.08
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "samplers.hs_woodbury_us_per_iter": "us",
    "samplers.hs_dense_us_per_iter": "us",
    "samplers.ss_us_per_coord": "us",
    "selection.s2m_us_per_draw": "us",
    "selection.2m_us_per_draw": "us",
    "selection.cs_s": "s",
    "selection.ht_s": "s",
    "selection.hppm_s": "s",
    "selection.mpm_s": "s",
    "selection.s2m_degenerate_draws": "count",
    "core.save_draws_s": "s",
    "core.load_draws_s": "s",
    "core.save_draws_mb_per_s": "MB/s",
    "core.load_draws_mb_per_s": "MB/s",
    "core.draws_csv_mb": "MB",
    "simulate.gen_response_s": "s",
    "simulate.score_s": "s",
    "simulate.cpu_s_per_replicate": "s",
    "shrinkage.grid_point_us": "us",
    "shrinkage.quad_order_mean": "count",
    "shrinkage.quad_nodes_total": "count",
    "shrinkage.quad_failures": "count",
    "shrinkage.mc_s_per_1e6": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Timing:
    wall: float
    cpu: float  # self plus reaped children, user + sys


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed(fn, *args):
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    out = fn(*args)
    wall1, cpu1 = time.perf_counter(), _cpu_seconds()
    return out, Timing(wall1 - wall0, cpu1 - cpu0)


class Meter(workloads.NullTracer):
    """Times operations, with the reference kernel between their pieces.

    The runner calls ``start()`` before an operation and ``finish()`` after
    it; the workload calls ``split()`` between the operation's pieces.
    ``split()`` and ``finish()`` time the reference kernel, once per
    started ``REF_EVERY_S`` of the piece just ended, so that its timings
    are spread through the run as the host's speed changes. ``finish()``
    returns the operation's time without them.
    """

    def __init__(self):
        self._reference()  # warm-up: the first passes allocate and fault in
        self.references: list[Timing] = []
        self.start()

    @staticmethod
    def _reference() -> Timing:
        def passes():
            for _ in range(REF_PASSES):
                reference.kernel()
        return timed(passes)[1]

    def start(self) -> None:
        self._pieces: list[Timing] = []
        self._mark = _now()

    def split(self) -> None:
        now = _now()
        piece = Timing(now.wall - self._mark.wall, now.cpu - self._mark.cpu)
        self._pieces.append(piece)
        for _ in range(1 + int(piece.wall / REF_EVERY_S)):
            self.references.append(self._reference())
        self._mark = _now()

    def finish(self) -> Timing:
        self.split()
        return Timing(sum(t.wall for t in self._pieces),
                      sum(t.cpu for t in self._pieces))


def _now() -> Timing:
    return Timing(time.perf_counter(), _cpu_seconds())


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest ``TRIM`` of the values."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def environment() -> dict:
    """Machine, interpreter and BLAS, with the thread variables as found."""
    import numpy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_trial(workload: str, seed: int, scale: str) -> float:
    """Wall time of a fresh process that imports and builds the inputs."""
    code = (f"import workloads as w; "
            f"w.WORKLOADS[{workload!r}].build({seed}, w.SCALES[{scale!r}])")
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)
    return time.perf_counter() - start


def layer_metrics(tracer: workloads.Tracer, first: dict, untraced, traced,
                  replicates: int) -> dict[str, float]:
    """Per-layer metrics from the spans; 0 where the workload skips a layer.

    Counts come from the first operation alone (``first``), so they repeat
    exactly for a seed however many operations the run fits in.
    """
    counters = tracer.counters

    def per_unit(span: str, counter: str) -> float:
        seconds, _ = tracer.total(span)
        units = counters.get(counter, 0)
        return seconds / units if units else 0.0

    def per_call(span: str) -> float:
        seconds, calls = tracer.total(span)
        return seconds / calls if calls else 0.0

    def mb_per_s(span: str) -> float:
        seconds, _ = tracer.total(span)
        return counters.get(span + ".bytes", 0) / 1e6 / seconds if seconds else 0.0

    wood = "samplers.fit[horseshoe-woodbury]"
    dense = "samplers.fit[horseshoe-dense]"
    ss = "samplers.fit[spike-slab]"
    points = first.get("shrinkage.points", 0)
    return {
        "samplers.hs_woodbury_us_per_iter": 1e6 * per_unit(wood, wood + ".iterations"),
        "samplers.hs_dense_us_per_iter": 1e6 * per_unit(dense, dense + ".iterations"),
        "samplers.ss_us_per_coord": 1e6 * per_unit(ss, ss + ".coordinates"),
        "selection.s2m_us_per_draw": 1e6 * per_unit(
            "selection.run_selector[s2m]", "selection.s2m.draws"),
        "selection.2m_us_per_draw": 1e6 * per_unit(
            "selection.run_selector[2m]", "selection.2m.draws"),
        "selection.cs_s": per_call("selection.run_selector[cs]"),
        "selection.ht_s": per_call("selection.run_selector[ht]"),
        "selection.hppm_s": per_call("selection.run_selector[hppm]"),
        "selection.mpm_s": per_call("selection.run_selector[mpm]"),
        "selection.s2m_degenerate_draws": first.get(
            "selection.s2m_degenerate_draws", 0),
        "core.save_draws_s": per_call("core.save_draws"),
        "core.load_draws_s": per_call("core.load_draws"),
        "core.save_draws_mb_per_s": mb_per_s("core.save_draws"),
        "core.load_draws_mb_per_s": mb_per_s("core.load_draws"),
        "core.draws_csv_mb": first.get("core.save_draws.bytes", 0) / 1e6,
        "simulate.gen_response_s": per_call("simulate.gen_response"),
        "simulate.score_s": per_call("simulate.score"),
        "simulate.cpu_s_per_replicate": (
            min(t.cpu for t in untraced) / replicates
            if replicates else 0.0),
        "shrinkage.grid_point_us": 1e6 * per_call("shrinkage.hs_shrinkage"),
        "shrinkage.quad_order_mean": (
            first.get("shrinkage.quad_order_sum", 0) / points if points else 0.0),
        "shrinkage.quad_nodes_total": first.get("shrinkage.quad_nodes_total", 0),
        "shrinkage.quad_failures": first.get("shrinkage.quad_failures", 0),
        "shrinkage.mc_s_per_1e6": 1e6 * per_unit(
            "shrinkage.hs_estimator_mc", "shrinkage.mc_samples"),
        "trace.overhead_s": (min(t.wall for t in traced)
                             - min(t.wall for t in untraced)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, scale: str = "full") -> int:
    args = parse_args(argv)
    warnings.simplefilter("ignore")  # s2m's degenerate-draw warning is counted instead
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SCALES[scale]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    inputs = workload.build(args.seed, sizes)

    meter = None if args.trace else Meter()
    # A set-up trial follows each of the first operations, so that the
    # trials spread over the run rather than over one moment of the host.
    setup = []
    tracer = workloads.Tracer()
    first: dict = {}
    untraced, traced, steps = [], [], []
    attempted = failed = 0
    while not steps or sum(steps) + statistics.median(steps) / 2 < args.seconds:
        k = len(steps)
        start = time.perf_counter()
        if args.trace:
            out, timing = timed(workload.run, inputs, k, sizes, workloads.NULL)
        else:
            meter.start()
            out = workload.run(inputs, k, sizes, meter)
            timing = meter.finish()
        untraced.append(timing)
        items, bad = workload.check(inputs, k, sizes, out)
        if args.trace:
            with tracer.span("op"):
                replayed, timing = timed(workload.replay, inputs, k, sizes, tracer)
            traced.append(timing)
            if k == 0:
                first = dict(tracer.counters)
            if replayed["summary"] != out["summary"]:
                print(f"operation {k}: traced replay differs from the "
                      f"untraced run", file=sys.stderr)
                bad = items
        attempted += items
        failed += bad
        if not args.trace and len(setup) < SETUP_TRIALS:
            setup.append(setup_trial(args.workload, args.seed, scale))
        steps.append(time.perf_counter() - start)
        # Free this operation's outputs before the next one, so peak RSS
        # is that of one operation, whatever the run's length.
        del out
        if args.trace:
            del replayed

    if args.trace:
        replicates = (sizes.replicates
                      if isinstance(workload, workloads.SimWide) else 0)
        values = layer_metrics(tracer, first, untraced, traced, replicates)
        units = PER_LAYER
        workloads.WORK_DIR.mkdir(exist_ok=True)
        trace_path = workloads.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"environment": env, "workload": args.workload, "seed": args.seed,
             "counters": tracer.counters, "spans": tracer.spans}))
    else:
        while len(setup) < SETUP_TRIALS:
            setup.append(setup_trial(args.workload, args.seed, scale))
        # Operations, set-up trials and reference timings alternate through
        # the run, so that all of them cover the same stretch of the host's
        # changes.
        ref_s = trimmed_mean(t.wall for t in meter.references)
        values = {
            "setup_s": statistics.median(setup) / ref_s * REF_NOMINAL_S,
            "wall_ref": trimmed_mean(t.wall for t in untraced) / ref_s,
            "cpu_ref": (trimmed_mean(t.cpu for t in untraced)
                        / trimmed_mean(t.cpu for t in meter.references)),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={len(steps)} items/operation={workload.items(sizes)}")
    print("  operation wall s: " + " ".join(f"{t.wall:.3f}" for t in untraced))
    if meter is not None:
        print("  reference wall s: "
              + " ".join(f"{t.wall:.4f}" for t in meter.references))
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    if not args.trace:
        # Raw seconds follow the host's speed, so they stay out of the
        # JSON result; the throughput is items per mean operation.
        wall_s = trimmed_mean(t.wall for t in untraced)
        cpu_s = trimmed_mean(t.cpu for t in untraced)
        print(f"  {'wall_s (operation)':<36} {wall_s:>14.6g} s")
        print(f"  {'cpu_s (operation)':<36} {cpu_s:>14.6g} s")
        print(f"  {'setup_s (raw median)':<36} "
              f"{statistics.median(setup):>14.6g} s")
        print(f"  {'reference_s':<36} {ref_s:>14.6g} s")
        print(f"  {workload.rate:<36} "
              f"{workload.items(sizes) / wall_s:>14.6g} 1/s")
    print(f"  {'fail_ratio':<36} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} checked)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
