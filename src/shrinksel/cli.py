"""Command-line entry point for reproducible batch runs.

Subcommands: simulate, fit, select, evaluate, bench, shrinkmap. simulate,
fit, select and bench read an optional JSON config file (``--config``)
with flag overrides. Every command writes its fully resolved configuration
beside its outputs and derives all randomness from one master seed. Output
files are written atomically. Exit codes: 0 on success, 1 on internal
failure, 2 on user/config errors.

A config file holds one section per config dataclass (``sim``, ``prior``,
``mcmc``, ``selection``) whose keys are exactly that dataclass's fields,
plus a top-level ``methods`` list. Each field has one flag, ``--field-name``
unless ``_FLAGS`` names another, typed by the field's kind. The dataclass
checks every value, so the CLI exits 2 on exactly what the library refuses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, fields

import numpy as np

from .core import (Dataset, HORSESHOE, InvariantError, METHODS, PriorSpec,
                   TWO_SIGMA_HAT, _number_list, _positive_int, _table_lines,
                   atomic_write_lines, load_draws, load_matrix_csv, save_draws,
                   save_matrix_csv)
from .samplers import McmcConfig, fit
from .selection import (S2mConfig, check_methods, read_selection_report,
                        resolve_b, run_selectors, write_selection_report)
from .shrinkage import (DEFAULT_A_GRID, DEFAULT_RHO_GRID, DEFAULT_TAU_GRID,
                        reverse_shrinkage_grid, write_grid_csv)
from .simulate import (SimConfig, format_benchmark_table, gen_design,
                       gen_response, replicate_streams, run_benchmark, score,
                       write_benchmark_csv, write_replicate_csv)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

#: Config-file sections and the dataclass each one builds.
_SECTIONS = {"sim": SimConfig, "prior": PriorSpec, "mcmc": McmcConfig,
             "selection": S2mConfig}
_TOP_LEVEL = (*_SECTIONS, "methods")
#: CLI defaults for fields the dataclasses leave without one.
_DEFAULTS = {"sim": {"n": 50, "p": 300, "r": 10},
             "prior": {"family": HORSESHOE}}
#: The flags that are not ``--field-name``, and the fields' help strings.
_FLAGS = {"n": ("-n", None), "p": ("-p", None), "r": ("-r", None),
          "family": ("--prior", None),
          "credible_level": ("--level", "credible level for cs"),
          "kappa_threshold": ("--threshold",
                              "shrinkage-weight threshold for ht"),
          "strengths": (None, "comma list (single value broadcasts)"),
          "tau_upper": (None, "global-scale bound (number or 'none')"),
          "b": (None, f"s2m gap threshold (number or {TWO_SIGMA_HAT!r})")}


class UsageError(Exception):
    """Bad flags or configuration supplied by the user."""


def _check_keys(obj: dict, valid, where: str) -> None:
    unknown = sorted(set(obj) - set(valid))
    if unknown:
        raise UsageError(f"{where}: unknown key(s) {unknown}; valid keys: "
                         f"{', '.join(valid)}")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    _check_keys(cfg, _TOP_LEVEL, f"config file {path}")
    for name, cls in _SECTIONS.items():
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise UsageError(
                f"{name}: expected a JSON object, got {section!r}")
        _check_keys(section, [f.name for f in fields(cls)], name)
    return cfg


def _build(section: str, config: dict, args):
    """A section's config dataclass from its JSON values and set flags."""
    cls = _SECTIONS[section]
    values = {**_DEFAULTS.get(section, {}), **config.get(section, {})}
    for f in fields(cls):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
        elif f.name not in values and f.default is MISSING:
            raise UsageError(f"{section}.{f.name} is required "
                             f"(flag or config)")
    try:
        return cls(**values)
    except InvariantError as exc:
        raise UsageError(f"{section}.{exc}") from None


def _check_out(out) -> None:
    """Refuse an ``--out`` that cannot become a directory because it, or
    its nearest existing parent, is not one."""
    path = out and os.path.normpath(out)
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise UsageError(f"--out {out}: {path!r} is not a directory")


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _float_list(text: str) -> list[float]:
    """argparse type for a non-empty comma list of numbers."""
    values = _number_list(text)
    if not values or any(isinstance(v, str) for v in values):
        raise argparse.ArgumentTypeError(f"malformed list {text!r}")
    return values


class _OneCommaList(argparse.Action):
    """Stores a flag's comma list; a second use of the flag exits 2."""

    def __call__(self, parser, namespace, values, option_string=None):
        # Until the flag's first use the attribute is the default itself.
        if getattr(namespace, self.dest) is not self.default:
            parser.error(f"{option_string} given more than once: pass its "
                         f"values as one comma list")
        setattr(namespace, self.dest, values)


def _methods_list(args, config, default) -> list[str]:
    raw = args.methods if args.methods is not None else \
        config.get("methods", default)
    if isinstance(raw, str):
        raw = raw.split(",")
    if not (isinstance(raw, list) and all(isinstance(m, str) for m in raw)):
        raise UsageError(f"methods: {raw!r} is not a list of method names")
    methods = [m.strip() for m in raw if m.strip()]
    check_methods(methods)
    return methods


def _write_resolved(out, command, payload) -> None:
    atomic_write_lines(os.path.join(out, f"{command}_resolved.json"),
                       [json.dumps(payload, indent=2, sort_keys=True)])


def cmd_simulate(args) -> int:
    cfg = _build("sim", _load_config(args.config), args)
    out = _out_dir(args)
    x, truth = gen_design(cfg)
    resp_seq, _ = replicate_streams(cfg)[0]
    y = gen_response(x, truth, cfg.strengths, cfg.noise_sd, resp_seq)
    save_matrix_csv(x, os.path.join(out, "design.csv"))
    save_matrix_csv(np.asarray(y)[:, None], os.path.join(out, "response.csv"))
    atomic_write_lines(os.path.join(out, "truth.txt"),
                       (str(j) for j in sorted(truth)))
    _write_resolved(out, "simulate", {"sim": asdict(cfg)})
    print(f"wrote design.csv ({x.shape[0]}x{x.shape[1]}), response.csv, "
          f"truth.txt to {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    prior = _build("prior", config, args)
    mcmc = _build("mcmc", config, args)
    x = load_matrix_csv(args.design)
    y = load_matrix_csv(args.response)
    if y.shape[1] != 1:
        raise UsageError(f"{args.response}: expected a single column")
    data = Dataset(y=y[:, 0], x=x)
    out = _out_dir(args)
    start = time.perf_counter()
    draws = fit(data, prior, mcmc)
    wall = time.perf_counter() - start
    draws_path = os.path.join(out, "draws.csv")
    save_draws(draws, draws_path)
    _write_resolved(out, "fit", {"prior": asdict(prior), "mcmc": asdict(mcmc),
                                 "design": args.design,
                                 "response": args.response,
                                 "wall_time_s": round(wall, 3)})
    print(f"wrote {draws.t} retained draws to {draws_path} "
          f"({wall:.1f}s)")
    return EXIT_OK


def cmd_select(args) -> int:
    config = _load_config(args.config)
    methods = _methods_list(args, config, default="s2m")
    cfg = _build("selection", config, args)
    draws = load_draws(args.draws)
    out = _out_dir(args)
    outcomes = run_selectors(draws, methods, cfg)
    resolved = resolve_b(draws, cfg)
    write_selection_report(outcomes, os.path.join(out, "selection.csv"),
                           os.path.join(out, "selection.txt"), cfg, resolved)
    _write_resolved(out, "select", {"selection": asdict(cfg),
                                    "methods": methods,
                                    "resolved_b": resolved,
                                    "draws": args.draws})
    for method, r in outcomes.items():
        if isinstance(r, str):
            print(f"select: method {method} failed: {r}", file=sys.stderr)
        else:
            print(f"{method}: H={r.h_mode} selected={sorted(r.selected)}")
    return EXIT_OK


def _read_truth_file(path) -> frozenset[int]:
    """The 1-based signal indices of a truth file, one per line."""
    with open(path, "r", encoding="utf-8") as fh:
        return frozenset(_positive_int(cells[0], f"{path}: line {lineno}")
                         for lineno, cells in _table_lines(fh, path, 1, 1))


def cmd_evaluate(args) -> int:
    truth = _read_truth_file(args.truth)
    outcomes = read_selection_report(args.selection)
    out = _out_dir(args)
    lines = ["method,masking,swamping"]
    for method, selected in outcomes.items():
        if isinstance(selected, str):
            print(f"{method}: skipped (selector failed: {selected})",
                  file=sys.stderr)
            continue
        masking, swamping = score(selected, truth)
        lines.append(f"{method},{masking},{swamping}")
        print(f"{method}: masking={masking} swamping={swamping}")
    atomic_write_lines(os.path.join(out, "evaluate.csv"), lines)
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    built = {name: _build(name, config, args) for name in _SECTIONS}
    cfg, prior, mcmc, s2m_cfg = built.values()
    default_methods = ("s2m,2m,cs,ht" if prior.family == HORSESHOE
                       else "s2m,2m,hppm,mpm")
    methods = _methods_list(args, config, default=default_methods)
    jobs = _positive_int(args.jobs, "--jobs")
    out = _out_dir(args)
    setting = "cor" if cfg.correlated else "uncor"
    start = time.perf_counter()
    reports = run_benchmark(cfg, prior, methods, mcmc, s2m_cfg, jobs=jobs)
    wall = time.perf_counter() - start
    write_benchmark_csv(reports, setting, os.path.join(out, "benchmark.csv"))
    write_replicate_csv(reports, setting, os.path.join(out, "replicates.csv"))
    resolved = {name: asdict(c) for name, c in built.items()}
    # run_benchmark derives every chain seed from sim.seed, so mcmc.seed
    # has no effect and is not recorded.
    del resolved["mcmc"]["seed"]
    _write_resolved(out, "bench", {**resolved, "methods": methods, "jobs": jobs})
    print(format_benchmark_table(reports, setting))
    print(f"done in {wall:.1f}s; table in {out}/benchmark.csv")
    return EXIT_OK


def cmd_shrinkmap(args) -> int:
    x2_values = args.x2 or [1.0]
    names = {}
    for x2 in x2_values:
        name = f"shrink_grid_x2_{x2:g}.csv"
        if name in names:
            raise UsageError(f"--x2 {names[name]!r} and --x2 {x2!r} both "
                             f"write {name}")
        names[name] = x2
    # Every grid, each value checked, before anything is written.
    grids = {name: (x2, reverse_shrinkage_grid(args.rho, args.tau, args.a,
                                               x2=x2))
             for name, x2 in names.items()}
    out = _out_dir(args)
    written = []
    for name, (x2, points) in grids.items():
        path = os.path.join(out, name)
        write_grid_csv(points, path)
        n_blue = sum(p.reverse for p in points)
        n_fail = sum(p.error is not None for p in points)
        written.append(path)
        print(f"x2={x2:g}: {len(points)} points, {n_blue} reverse-shrinkage, "
              f"{n_fail} quadrature failures -> {path}")
    _write_resolved(out, "shrinkmap", {
        "rho": list(args.rho), "tau": list(args.tau), "a": list(args.a),
        "x2": list(x2_values), "files": written,
    })
    return EXIT_OK


def _add_config_flags(parser, *sections, skip=()) -> None:
    """Add one flag per field of each section, its dest the field name and
    its type its kind's parse (a true/false field takes ``--x``/``--no-x``);
    ``skip`` holds ``section.field`` names left out."""
    for section in sections:
        for name, kind in _SECTIONS[section]._KINDS.items():
            if f"{section}.{name}" in skip:
                continue
            flag, help_text = _FLAGS.get(name, (None, None))
            how = ({"action": argparse.BooleanOptionalAction}
                   if kind.parse is None else {"type": kind.parse})
            parser.add_argument(flag or "--" + name.replace("_", "-"),
                                dest=name, help=help_text, **how)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinksel",
        description="Shrinkage-prior variable selection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups shared by several subcommands, attached as parents.
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", help="output directory (default: .)")
    config_flag = argparse.ArgumentParser(add_help=False)
    config_flag.add_argument("--config", help="JSON config file")
    methods = argparse.ArgumentParser(add_help=False)
    methods.add_argument("--methods",
                         help=f"comma list from {', '.join(METHODS)}")

    sp = sub.add_parser("simulate", help="generate a synthetic dataset",
                        parents=[out_flag, config_flag])
    _add_config_flags(sp, "sim")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="run a Gibbs chain on a dataset",
                        parents=[out_flag, config_flag])
    _add_config_flags(sp, "prior", "mcmc")
    sp.add_argument("--design", required=True,
                    help="design CSV (headerless numeric)")
    sp.add_argument("--response", required=True,
                    help="response CSV (single column)")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("select", help="apply selectors to a draw file",
                        parents=[out_flag, config_flag, methods])
    _add_config_flags(sp, "selection")
    sp.add_argument("--draws", required=True, help="draw CSV")
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("evaluate", help="score a selection against truth",
                        parents=[out_flag])
    sp.add_argument("--selection", required=True,
                    help="selection.csv from the select command")
    sp.add_argument("--truth", required=True,
                    help="truth file (one 1-based index per line)")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("bench", help="seeded replicate benchmark",
                        parents=[out_flag, config_flag, methods])
    _add_config_flags(sp, *_SECTIONS, skip=("mcmc.seed",))
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("shrinkmap", help="reverse-shrinkage classification grid",
                        parents=[out_flag])
    sp.add_argument("--x2", type=float, action="append",
                    help="smaller MLE value; repeat for several grids")
    sp.add_argument("--rho", type=_float_list, action=_OneCommaList,
                    default=DEFAULT_RHO_GRID,
                    help="comma list of correlation values")
    sp.add_argument("--tau", type=_float_list, action=_OneCommaList,
                    default=DEFAULT_TAU_GRID,
                    help="comma list of prior scales")
    sp.add_argument("--a", type=_float_list, action=_OneCommaList,
                    default=DEFAULT_A_GRID,
                    help="comma list of MLE ratios (>= 1)")
    sp.set_defaults(func=cmd_shrinkmap)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_out(args.out)
        return args.func(args)
    except (UsageError, InvariantError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
