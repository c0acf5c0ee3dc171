"""The CLI config layer: strict JSON values and the resolved-config record."""

import argparse
import json
from dataclasses import fields

import pytest

from shrinksel import McmcConfig, PriorSpec, S2mConfig, SimConfig
from shrinksel.cli import _build_parser, main

SIM_FLAGS = ("-n", "10", "-p", "4", "-r", "1", "--strengths", "3")


def run_simulate(tmp_path, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out"), *flags])


class TestStrictValues:
    @pytest.mark.parametrize("key, value", [
        ("n", "fifty"), ("strengths", ["x"]), ("strengths", "3"),
        ("seed", 2.0), ("noise_sd", "1"), ("noise_sd", True),
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
