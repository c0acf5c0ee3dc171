"""Config values: one rule per field kind, from a call or the CLI alike, and
the resolved-config record."""

import argparse
import json
from dataclasses import fields

import numpy as np
import pytest
from numpy.random import SeedSequence

from shrinksel import (InvariantError, McmcConfig, PriorSpec, S2mConfig,
                       SimConfig, TwoVarProblem, aggregate_mode, gen_response,
                       hs_estimator_mc, reverse_shrinkage_grid, run_benchmark)
from shrinksel.cli import _SECTIONS, _build_parser, main
from shrinksel.shrinkage import DEFAULT_RHO_GRID, DEFAULT_TAU_GRID

SIM_FLAGS = ("-n", "10", "-p", "4", "-r", "1", "--strengths", "3")


def run_simulate(tmp_path, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out"), *flags])


class TestStrictValues:
    @pytest.mark.parametrize("key, value", [
        ("n", "fifty"), ("strengths", ["x"]), ("strengths", "3"),
        ("noise_sd", "1"), ("noise_sd", True),
    ])
    def test_wrong_type_names_section_and_key(self, tmp_path, capsys, key,
                                              value):
        sim = {"n": 10, "p": 4, "r": 1, "strengths": [3.0], key: value}
        assert run_simulate(tmp_path, {"sim": sim}) == 2
        err = capsys.readouterr().err
        assert f"sim.{key}: {value!r}" in err and "internal error" not in err

    @pytest.mark.parametrize("section", ["sim", "prior", "mcmc", "selection"])
    @pytest.mark.parametrize("value", [[1, 2], None, "n=5", 3])
    def test_section_must_be_an_object(self, tmp_path, capsys, section, value):
        assert run_simulate(tmp_path, {section: value}, *SIM_FLAGS) == 2
        assert f"{section}: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_bool_takes_only_json_true_false(self, tmp_path, capsys, value):
        assert run_simulate(tmp_path, {"sim": {"correlated": value}},
                            *SIM_FLAGS) == 2
        assert "sim.correlated:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "design.csv").exists()

    @pytest.mark.parametrize("value", [False, True])
    def test_bool_true_false_accepted(self, tmp_path, value):
        config = {"sim": {"correlated": value, "cor_pairs": 1}}
        assert run_simulate(tmp_path, config, "-n", "10", "-p", "4", "-r", "2",
                            "--strengths", "3") == 0
        resolved = json.loads(
            (tmp_path / "out" / "simulate_resolved.json").read_text())
        assert resolved["sim"]["correlated"] is value

    def test_int_rejects_fraction(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mcmc": {"iterations": 5.7}}))
        design = tmp_path / "x.csv"
        design.write_text("1,2\n3,4\n5,7\n")
        response = tmp_path / "y.csv"
        response.write_text("1\n2\n3\n")
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--design", str(design), "--response", str(response),
                     "--burn-in", "1"]) == 2
        assert "mcmc.iterations: 5.7" in capsys.readouterr().err
        assert not (tmp_path / "o" / "draws.csv").exists()

    def test_unknown_section_key_lists_valid_keys(self, tmp_path, capsys):
        assert run_simulate(tmp_path, {"sim": {"seeed": 3}}, *SIM_FLAGS) == 2
        err = capsys.readouterr().err
        assert "'seeed'" in err
        assert "valid keys: n, p, r, strengths, correlated" in err

    def test_strength_alias_is_gone(self, tmp_path, capsys):
        assert run_simulate(tmp_path, {"sim": {"strength": 3.0}},
                            "-n", "10", "-p", "4", "-r", "1") == 2
        assert "'strength'" in capsys.readouterr().err

    def test_unknown_top_level_key_lists_valid_keys(self, tmp_path, capsys):
        assert run_simulate(tmp_path, {"seed": 3}, *SIM_FLAGS) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err
        assert "valid keys: sim, prior, mcmc, selection, methods" in err

    def test_unused_section_is_still_checked(self, tmp_path, capsys):
        assert run_simulate(tmp_path, {"mcmc": {"iters": 10}}, *SIM_FLAGS) == 2
        assert "mcmc: unknown key(s) ['iters']" in capsys.readouterr().err


#: Each config dataclass's section name in a config file.
SECTION_OF = {cls: name for name, cls in _SECTIONS.items()}
#: Values for each class's required fields, and a tiny bench config of them.
BASE = {SimConfig: {"n": 10, "p": 4, "r": 1, "strengths": [3.0],
                    "replicates": 1},
        PriorSpec: {"family": "horseshoe"},
        McmcConfig: {"iterations": 20, "burn_in": 5}, S2mConfig: {}}
TINY_BENCH = {"sim": BASE[SimConfig], "mcmc": BASE[McmcConfig],
              "methods": ["s2m"]}

#: (class, field, value) that the class refuses, from a call or a config
#: file alike. The values are JSON values: a list stands for a tuple.
REFUSED = [
    (SimConfig, "n", 20.5), (SimConfig, "seed", 1.5), (SimConfig, "r", True),
    (SimConfig, "replicates", 2.5), (SimConfig, "cor_pairs", 1.5),
    (SimConfig, "correlated", 1), (SimConfig, "intercept", "yes"),
    (SimConfig, "noise_sd", True), (SimConfig, "strengths", [True]),
    (SimConfig, "strengths", []), (SimConfig, "seed", 2 ** 64),
    (SimConfig, "cor_target", 1.0),
    (PriorSpec, "ig_shape", True), (PriorSpec, "ss_beta_b", True),
    (PriorSpec, "tau_upper", True), (PriorSpec, "ig_scale", "2"),
    (PriorSpec, "family", "lasso"),
    (McmcConfig, "thin", 1.5), (McmcConfig, "burn_in", "10"),
    (S2mConfig, "credible_level", "0.9"), (S2mConfig, "b", True),
    (S2mConfig, "b", "3sigma2"), (S2mConfig, "kappa_threshold", 0),
]
#: (class, field, value, the value kept, in type and value) that the class
#: accepts.
ACCEPTED = [
    (SimConfig, "seed", 2.0, 2), (McmcConfig, "iterations", 30.0, 30),
    (SimConfig, "replicates", np.int64(10), 10),
    (SimConfig, "noise_sd", 1, 1.0), (PriorSpec, "ig_shape", 2, 2.0),
    (S2mConfig, "b", 2, 2), (S2mConfig, "b", "2sigma2", "2sigma2"),
    (PriorSpec, "tau_upper", "none", None), (PriorSpec, "tau_upper", None, None),
    (SimConfig, "strengths", 5, (5.0,)),
]
JSON_ACCEPTED = [row for row in ACCEPTED if not isinstance(row[2], np.generic)]


def row_ids(rows) -> list[str]:
    return ["-".join([cls.__name__, key, str(value)])
            for cls, key, value, *_ in rows]


def bench_setting(tmp_path, cls, key, value):
    """The exit code and ``--out`` of a tiny bench run whose config file
    sets ``key`` of ``cls``'s section to ``value``."""
    section = SECTION_OF[cls]
    config = {**TINY_BENCH,
              section: {**TINY_BENCH.get(section, {}), key: value}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["bench", "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("cls, key, value", REFUSED, ids=row_ids(REFUSED))
def test_refused_at_construction(cls, key, value):
    with pytest.raises(InvariantError, match=f"^{key}: "):
        cls(**{**BASE[cls], key: value})


@pytest.mark.parametrize("cls, key, value", REFUSED, ids=row_ids(REFUSED))
def test_refused_through_a_config(tmp_path, capsys, cls, key, value):
    code, out = bench_setting(tmp_path, cls, key, value)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{SECTION_OF[cls]}.{key}: {value!r} is not" in err
    assert "internal error" not in err and not out.exists()


@pytest.mark.parametrize("cls, key, value, kept", ACCEPTED,
                         ids=row_ids(ACCEPTED))
def test_accepted_value_kept(cls, key, value, kept):
    stored = getattr(cls(**{**BASE[cls], key: value}), key)
    assert stored == kept and type(stored) is type(kept)


@pytest.mark.parametrize("cls, key, value, kept", JSON_ACCEPTED,
                         ids=row_ids(JSON_ACCEPTED))
def test_accepted_value_kept_through_a_config(tmp_path, cls, key, value,
                                              kept):
    code, out = bench_setting(tmp_path, cls, key, value)
    assert code == 0
    resolved = json.loads((out / "bench_resolved.json").read_text())
    kept = list(kept) if isinstance(kept, tuple) else kept
    stored = resolved[SECTION_OF[cls]][key]
    assert stored == kept and type(stored) is type(kept)


#: ``bench_resolved.json`` for PINNED_CONFIG plus PINNED_FLAGS, byte for
#: byte as the earlier hand-written config readers wrote it, less
#: ``mcmc.seed``, which a bench run does not use. It covers a single strength
#: broadcast to r, a null tau_upper, a JSON integer b kept as an integer,
#: integers in float fields written as floats, --seed setting the sim
#: seed, and flags beating config values.
PINNED_CONFIG = {
    "sim": {"n": 20, "p": 8, "r": 2, "strengths": [5], "correlated": True,
            "cor_pairs": 1, "cor_target": 0.9, "noise_sd": 1,
            "intercept": False, "seed": 1, "replicates": 3},
    "prior": {"family": "horseshoe", "tau_upper": None, "ig_shape": 2,
              "ig_scale": 1.5, "ss_beta_a": 1, "ss_beta_b": 15},
    "mcmc": {"iterations": 400, "burn_in": 100, "thin": 2, "seed": 99},
    "selection": {"b": 2, "credible_level": 0.9, "kappa_threshold": 0.5},
    "methods": ["s2m", "cs"],
}
PINNED_FLAGS = ("--seed", "7", "--iterations", "120", "--burn-in", "40",
                "--level", "0.85", "--replicates", "1", "--jobs", "1")
PINNED_RESOLVED = {
    "jobs": 1,
    "mcmc": {"burn_in": 40, "iterations": 120, "thin": 2},
    "methods": ["s2m", "cs"],
    "prior": {"family": "horseshoe", "ig_scale": 1.5, "ig_shape": 2.0,
              "ss_beta_a": 1.0, "ss_beta_b": 15.0, "tau_upper": None},
    "selection": {"b": 2, "credible_level": 0.85, "kappa_threshold": 0.5},
    "sim": {"cor_pairs": 1, "cor_target": 0.9, "correlated": True,
            "intercept": False, "n": 20, "noise_sd": 1.0, "p": 8, "r": 2,
            "replicates": 1, "seed": 7, "strengths": [5.0, 5.0]},
}


def test_bench_resolved_config_is_pinned(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(PINNED_CONFIG))
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(path), "--out", str(out),
                 *PINNED_FLAGS]) == 0
    text = (out / "bench_resolved.json").read_text()
    # Text, not dict, equality: 2 == 2.0 in Python, but not in the file.
    assert text == json.dumps(PINNED_RESOLVED, indent=2, sort_keys=True) + "\n"
    assert '"b": 2,' in text and '"noise_sd": 1.0,' in text


def test_bench_record_ignores_the_unused_chain_seed(tmp_path):
    # Every bench chain seed derives from sim.seed; configs that differ
    # only in mcmc.seed give the same replicates and the same record.
    outs = []
    for seed in (1, 2):
        config = {**PINNED_CONFIG, "mcmc": {**PINNED_CONFIG["mcmc"], "seed": seed}}
        path = tmp_path / f"bench{seed}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"bench{seed}"
        flags = PINNED_FLAGS[2:]  # without --seed, which sets mcmc.seed too
        assert flags[0] != "--seed"
        assert main(["bench", "--config", str(path), "--out", str(out), *flags]) == 0
        outs.append(out)
    for name in ("bench_resolved.json", "replicates.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


#: The config dataclasses each command builds.
COMMAND_CONFIGS = {
    "simulate": [SimConfig], "fit": [PriorSpec, McmcConfig],
    "select": [S2mConfig], "evaluate": [], "shrinkmap": [],
    "bench": [SimConfig, PriorSpec, McmcConfig, S2mConfig],
}


def test_every_field_has_exactly_one_flag():
    # simulate used to lack --replicates and bench --ig-shape and three more
    # prior fields; --correlated and --uncorrelated were two flags for one
    # field. bench's one --seed is sim.seed: it leaves mcmc.seed out.
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMAND_CONFIGS)
    for command, classes in COMMAND_CONFIGS.items():
        dests = [a.dest for a in subparsers.choices[command]._actions
                 if a.option_strings]
        for name in {f.name for cls in classes for f in fields(cls)}:
            assert dests.count(name) == 1, (command, name)


def test_no_flag_overrides_a_true_bool(tmp_path):
    config = {"sim": {"correlated": True, "cor_pairs": 1}}
    assert run_simulate(tmp_path, config, *SIM_FLAGS, "--no-correlated") == 0
    resolved = json.loads(
        (tmp_path / "out" / "simulate_resolved.json").read_text())
    assert resolved["sim"]["correlated"] is False


# The plain functions whose arguments follow the same kinds, each called
# with small valid arguments that a row below overrides by keyword.
def two_var(**kw):
    return TwoVarProblem(**{"rho": 0.5, "tau": 1.0, "mle": (2.0, 1.0), **kw})


def grid(**kw):
    return reverse_shrinkage_grid(**{"rho_grid": (0.5, 0.95),
                                     "tau_grid": (0.5,), "a_grid": (2.0,),
                                     "x2": 1.0, **kw})


def response(**kw):
    return gen_response(**{"x": np.arange(6.0).reshape(2, 3), "truth": {1},
                           "strengths": (2.0,), "noise_sd": 1.0, "seed": 0,
                           **kw})


def no_signal_response(**kw):
    return response(truth=set(), **kw)


def mc(**kw):
    return hs_estimator_mc(**{"problem": two_var(rho=0.95), "n_samples": 100,
                              "seed": 0, **kw})


def mode(**kw):
    return aggregate_mode(**{"h_counts": [1, 2, 2], **kw})


def bench(**kw):
    return run_benchmark(**{"cfg": SimConfig(**BASE[SimConfig]),
                            "prior": PriorSpec.horseshoe(),
                            "methods": ["s2m"],
                            "mcmc": McmcConfig(**BASE[McmcConfig]), **kw})


#: The name a refusal gives an argument, where it is not the keyword.
NAMED = {"rho_grid": "rho", "tau_grid": "tau", "a_grid": "a"}
#: (entry point, keyword, value) that the entry point refuses.
#: ``TwoVarProblem``'s fields and ``gen_response``'s strengths are in
#: ``TestTwoVarProblem.test_rejects_bad_inputs`` and
#: ``test_strengths_must_be_finite``.
REFUSED_ARGS = [
    (grid, "a_grid", ("2",)), (grid, "a_grid", (-2.0,)),
    (grid, "a_grid", (0.5,)), (grid, "rho_grid", ("0.5",)),
    (grid, "tau_grid", (True,)), (grid, "x2", "1"),
    (response, "seed", True), (response, "seed", -1), (response, "seed", 1.5),
    (mc, "seed", True), (mc, "seed", -1), (mc, "seed", 1.5),
    (mode, "h_counts", [2.7, 2.7, 1]), (mode, "h_counts", [-1, -1, 3]),
    (bench, "jobs", 0), (bench, "jobs", 1.5), (bench, "jobs", "2"),
    (bench, "jobs", True),
]
#: (entry point, keyword, value, plain value) where the value is accepted
#: and gives what the plain value gives, to the bit.
ACCEPTED_ARGS = [
    (grid, "rho_grid", DEFAULT_RHO_GRID[:2], (0.94, 0.95)),
    (grid, "tau_grid", DEFAULT_TAU_GRID[:2], (0.05, 0.1)),
    (response, "seed", np.int64(3), 3), (response, "seed", SeedSequence(3), 3),
    (mc, "seed", np.int64(3), 3), (mc, "seed", SeedSequence(3), 3),
    (mc, "n_samples", 2.0, 2), (mc, "n_samples", 1e5, 100_000),
    (two_var, "rho", 0, 0.0), (two_var, "tau", 2, 2.0),
    (two_var, "mle", (2, 1), (2.0, 1.0)),
    (no_signal_response, "strengths", (), []),
    (response, "strengths", (0,), (0.0,)),
    (mode, "h_counts", np.array([1.0, 2.0, 2.0]), [1, 2, 2]),
]


def arg_ids(rows) -> list[str]:
    return ["-".join([entry.__name__, key, repr(value)])
            for entry, key, value, *_ in rows]


@pytest.mark.parametrize("entry, key, value", REFUSED_ARGS,
                         ids=arg_ids(REFUSED_ARGS))
def test_argument_refused(entry, key, value):
    with pytest.raises(InvariantError, match=rf"^{NAMED.get(key, key)}\b"):
        entry(**{key: value})


@pytest.mark.parametrize("entry, key, value, plain", ACCEPTED_ARGS,
                         ids=arg_ids(ACCEPTED_ARGS))
def test_argument_accepted(entry, key, value, plain):
    got = entry(**{key: value})
    np.testing.assert_equal(got, entry(**{key: plain}))
    problems = ([got] if entry is two_var
                else [pt.problem for pt in got] if entry is grid else [])
    for pr in problems:  # numbers kept as Python floats, as the plain ones
        assert all(type(v) is float for v in (pr.rho, pr.tau, *pr.mle))
