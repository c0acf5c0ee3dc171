"""End-to-end CLI runs on small configurations."""

import json
import os

import numpy as np
import pytest

from shrinksel.cli import main
from shrinksel.core import PosteriorDraws, load_draws, save_draws


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run("simulate", "--out", str(out), "-n", "30", "-p", "12",
               "-r", "2", "--strengths", "8", "--seed", "5")
    assert code == 0
    return out


class TestSimulate:
    def test_files_and_shapes(self, sim_dir):
        design = (sim_dir / "design.csv").read_text().splitlines()
        assert len(design) == 30
        assert len(design[0].split(",")) == 13  # 12 covariates + intercept
        response = (sim_dir / "response.csv").read_text().splitlines()
        assert len(response) == 30
        truth = (sim_dir / "truth.txt").read_text().split()
        assert len(truth) == 2
        resolved = json.loads((sim_dir / "simulate_resolved.json").read_text())
        assert resolved["sim"]["n"] == 30 and resolved["sim"]["intercept"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--out", str(out), "-n", "10", "-p", "4",
                       "-r", "1", "--strengths", "3", "--seed", "9") == 0
        assert (a / "design.csv").read_bytes() == (b / "design.csv").read_bytes()
        assert (a / "response.csv").read_bytes() == (b / "response.csv").read_bytes()

    def test_paper_scale_dimensions(self, tmp_path):
        out = tmp_path / "big"
        assert run("simulate", "--out", str(out), "-n", "50", "-p", "300",
                   "-r", "10", "--strengths", "4", "--seed", "3") == 0
        design = (out / "design.csv").read_text().splitlines()
        assert len(design) == 50
        assert len(design[0].split(",")) == 301

    def test_r_exceeding_p_is_usage_error(self, tmp_path):
        out = tmp_path / "bad"
        code = run("simulate", "--out", str(out), "-n", "10", "-p", "4",
                   "-r", "5", "--strengths", "3", "--seed", "1")
        assert code == 2
        assert not (out / "design.csv").exists()

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_correlated_design_below_three_rows_writes_nothing(
            self, tmp_path, capsys, n):
        out = tmp_path / "bad"
        code = run("simulate", "--out", str(out), "-n", n, "-p", "4",
                   "-r", "1", "--strengths", "3", "--correlated",
                   "--cor-pairs", "1")
        assert code == 2
        assert "n >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_output_directory_environment_variable_is_ignored(
            self, tmp_path, monkeypatch):
        # SHRINKSEL_OUTDIR used to stand in for --out.
        monkeypatch.setenv("SHRINKSEL_OUTDIR", str(tmp_path / "env_out"))
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "-n", "8", "-p", "3", "-r", "1",
                   "--strengths", "2", "--seed", "1") == 0
        assert (tmp_path / "design.csv").exists()
        assert not (tmp_path / "env_out").exists()


class TestFit:
    def test_horseshoe_fit_writes_draws_and_manifest(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code = run("fit", "--out", str(out),
                   "--design", str(sim_dir / "design.csv"),
                   "--response", str(sim_dir / "response.csv"),
                   "--prior", "horseshoe", "--iterations", "400",
                   "--burn-in", "150", "--seed", "2")
        assert code == 0
        draws = load_draws(str(out / "draws.csv"))
        assert draws.t == 250 and draws.p == 13
        assert draws.lam is not None and draws.tau is not None
        resolved = json.loads((out / "fit_resolved.json").read_text())
        assert resolved["prior"]["family"] == "horseshoe"
        assert resolved["mcmc"]["seed"] == 2
        assert resolved["wall_time_s"] >= 0.0
        assert not (out / "manifest.txt").exists()

    def test_spike_slab_fit_has_z_columns(self, sim_dir, tmp_path):
        out = tmp_path / "fit_ss"
        code = run("fit", "--out", str(out),
                   "--design", str(sim_dir / "design.csv"),
                   "--response", str(sim_dir / "response.csv"),
                   "--prior", "spike-slab", "--iterations", "300",
                   "--burn-in", "100", "--seed", "3")
        assert code == 0
        header = (out / "draws.csv").read_text().splitlines()[0]
        assert "z_1" in header and "pi" in header

    def test_malformed_design_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0\n")
        resp = tmp_path / "resp.csv"
        resp.write_text("1.0\n2.0\n")
        code = run("fit", "--out", str(tmp_path / "out"),
                   "--design", str(bad), "--response", str(resp))
        assert code == 2
        assert "row 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_inputs(self, tmp_path):
        assert run("fit", "--out", str(tmp_path)) == 2


@pytest.fixture()
def hs_draws_file(sim_dir, tmp_path):
    out = tmp_path / "fitted"
    assert run("fit", "--out", str(out),
               "--design", str(sim_dir / "design.csv"),
               "--response", str(sim_dir / "response.csv"),
               "--prior", "horseshoe", "--iterations", "500",
               "--burn-in", "200", "--seed", "4") == 0
    return out / "draws.csv"


class TestSelect:
    def test_all_horseshoe_methods(self, hs_draws_file, tmp_path):
        out = tmp_path / "sel"
        code = run("select", "--out", str(out), "--draws", str(hs_draws_file),
                   "--methods", "s2m,2m,cs,ht")
        assert code == 0
        lines = (out / "selection.csv").read_text().splitlines()
        assert len(lines) == 5  # header + one row per method
        assert lines[0].startswith("method,h,selected,b,level,threshold")

    def test_mismatched_method_noted_others_run(self, hs_draws_file, tmp_path,
                                                capsys):
        out = tmp_path / "sel2"
        code = run("select", "--out", str(out), "--draws", str(hs_draws_file),
                   "--methods", "mpm,s2m")
        assert code == 0
        err = capsys.readouterr().err
        assert "mpm" in err
        text = (out / "selection.csv").read_text()
        assert "s2m," in text and "needs z draws" in text

    def test_explicit_b_overrides_rule(self, hs_draws_file, tmp_path):
        out = tmp_path / "sel3"
        assert run("select", "--out", str(out), "--draws", str(hs_draws_file),
                   "--methods", "s2m", "--b", "2.0") == 0
        row = (out / "selection.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "2"
        resolved = json.loads((out / "select_resolved.json").read_text())
        assert resolved["selection"]["b"] == 2.0

    def test_unknown_method_is_usage_error(self, hs_draws_file, tmp_path,
                                           capsys):
        code = run("select", "--out", str(tmp_path / "x"),
                   "--draws", str(hs_draws_file), "--methods", "s2m,bogus")
        assert code == 2
        assert "valid methods" in capsys.readouterr().err

    def test_repeated_method_is_usage_error(self, hs_draws_file, tmp_path,
                                            capsys):
        # This used to write two identical s2m rows but one hppm row.
        out = tmp_path / "rep"
        code = run("select", "--out", str(out), "--draws", str(hs_draws_file),
                   "--methods", "s2m,s2m,hppm,hppm")
        assert code == 2
        assert "['s2m', 'hppm']" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_draw_cell_makes_no_output_directory(self, tmp_path,
                                                             capsys):
        draws = tmp_path / "draws.csv"
        draws.write_text("beta_1,beta_2,sigma2\n0.5,1.0,0.3\n0.4,x,0.2\n")
        out = tmp_path / "sel"
        assert run("select", "--out", str(out), "--draws", str(draws)) == 2
        assert "non-numeric cell 'x' at row 3" in capsys.readouterr().err
        assert not out.exists()


# Fixed draws, not a chain, so the report bytes do not depend on the BLAS
# thread count. Column 4 is a borderline signal that each selector's knob
# moves in or out, so every parameter column is exercised.
_REPORT_BETA = [[4.0, 0.1, -3.0, 1.0, 0.0],
                [3.5, -0.2, -2.5, 0.8, 0.3],
                [4.2, 0.05, -3.1, 1.2, 0.1],
                [3.9, 0.3, -2.8, 0.9, -0.1],
                [4.1, -0.1, -0.2, -0.2, 0.2],
                [3.7, 0.2, -2.9, 1.1, 0.0]]
_REPORT_SIGMA2 = [0.25, 0.35, 0.3, 0.4, 0.2, 0.3]
_REPORT_LATENTS = {
    "horseshoe": {
        "lam": [[9.0, 0.2, 6.0, 1.2, 0.1], [8.0, 0.5, 5.0, 1.1, 0.2],
                [7.0, 0.3, 0.9, 1.3, 0.4], [9.5, 0.6, 4.0, 1.2, 0.1],
                [6.0, 0.4, 0.5, 1.25, 0.3], [8.5, 0.4, 7.0, 1.15, 0.2]],
        "tau": [0.5, 0.4, 0.6, 0.45, 0.55, 0.5]},
    "spike-slab": {
        "z": [[1, 0, 1, 0, 0], [1, 0, 1, 1, 0], [1, 0, 1, 0, 0],
              [1, 1, 1, 1, 0], [1, 0, 0, 1, 1], [1, 0, 1, 0, 0]],
        "pi": [0.7, 0.65, 0.8, 0.75, 0.7, 0.72]},
}
_TUNED = ("--b", "1.5", "--level", "0.9", "--threshold", "0.4")
_NEEDS_Z = ("hppm,,,,,,hppm needs z draws (spike-and-slab chains)\n"
            "mpm,,,,,,mpm needs z draws (spike-and-slab chains)\n")
_NEEDS_Z_TXT = ("method=hppm ERROR: hppm needs z draws (spike-and-slab chains)\n"
                "method=mpm ERROR: mpm needs z draws (spike-and-slab chains)\n")
_NEEDS_LAM = "ht,,,,,,ht needs lambda draws (horseshoe chains)\n"
_NEEDS_LAM_TXT = "method=ht ERROR: ht needs lambda draws (horseshoe chains)\n"
_HEADER = "method,h,selected,b,level,threshold,error\n"
_EXPECTED_REPORTS = {
    ("horseshoe", ()): (
        _HEADER + "s2m,3,1 3 4,0.59999999999999998,,,\n2m,2,1 3,,,,\n"
        "cs,2,1 3,,0.94999999999999996,,\nht,3,1 3 4,,,0.5,\n" + _NEEDS_Z,
        "method=s2m H=3 selected=[1 3 4]\nmethod=2m H=2 selected=[1 3]\n"
        "method=cs H=2 selected=[1 3]\nmethod=ht H=3 selected=[1 3 4]\n"
        + _NEEDS_Z_TXT),
    ("horseshoe", _TUNED): (
        _HEADER + "s2m,2,1 3,1.5,,,\n2m,2,1 3,,,,\n"
        "cs,3,1 3 4,,0.90000000000000002,,\n"
        "ht,2,1 3,,,0.40000000000000002,\n" + _NEEDS_Z,
        "method=s2m H=2 selected=[1 3]\nmethod=2m H=2 selected=[1 3]\n"
        "method=cs H=3 selected=[1 3 4]\nmethod=ht H=2 selected=[1 3]\n"
        + _NEEDS_Z_TXT),
    ("spike-slab", ()): (
        _HEADER + "s2m,3,1 3 4,0.59999999999999998,,,\n2m,2,1 3,,,,\n"
        "hppm,2,1 3,,,,\nmpm,3,1 3 4,,,,\n"
        "cs,2,1 3,,0.94999999999999996,,\n" + _NEEDS_LAM,
        "method=s2m H=3 selected=[1 3 4]\nmethod=2m H=2 selected=[1 3]\n"
        "method=hppm H=2 selected=[1 3]\nmethod=mpm H=3 selected=[1 3 4]\n"
        "method=cs H=2 selected=[1 3]\n" + _NEEDS_LAM_TXT),
    ("spike-slab", _TUNED): (
        _HEADER + "s2m,2,1 3,1.5,,,\n2m,2,1 3,,,,\n"
        "hppm,2,1 3,,,,\nmpm,3,1 3 4,,,,\n"
        "cs,3,1 3 4,,0.90000000000000002,,\n" + _NEEDS_LAM,
        "method=s2m H=2 selected=[1 3]\nmethod=2m H=2 selected=[1 3]\n"
        "method=hppm H=2 selected=[1 3]\nmethod=mpm H=3 selected=[1 3 4]\n"
        "method=cs H=3 selected=[1 3 4]\n" + _NEEDS_LAM_TXT),
}


class TestSelectionReport:
    @pytest.mark.parametrize("prior,tuning", list(_EXPECTED_REPORTS))
    def test_all_six_methods_pinned(self, tmp_path, prior, tuning):
        path = tmp_path / "draws.csv"
        save_draws(PosteriorDraws(beta=_REPORT_BETA, sigma2=_REPORT_SIGMA2,
                                  **_REPORT_LATENTS[prior]), str(path))
        out = tmp_path / "sel"
        assert run("select", "--out", str(out), "--draws", str(path),
                   "--methods", "s2m,2m,hppm,mpm,cs,ht", *tuning) == 0
        csv_text, txt_text = _EXPECTED_REPORTS[prior, tuning]
        assert (out / "selection.csv").read_text() == csv_text
        assert (out / "selection.txt").read_text() == txt_text


class TestEvaluate:
    def test_scores_against_truth(self, sim_dir, hs_draws_file, tmp_path,
                                  capsys):
        sel = tmp_path / "sel"
        assert run("select", "--out", str(sel), "--draws", str(hs_draws_file),
                   "--methods", "s2m") == 0
        out = tmp_path / "eval"
        code = run("evaluate", "--out", str(out),
                   "--selection", str(sel / "selection.csv"),
                   "--truth", str(sim_dir / "truth.txt"))
        assert code == 0
        text = (out / "evaluate.csv").read_text()
        assert text.splitlines()[0] == "method,masking,swamping"
        assert text.splitlines()[1].startswith("s2m,")

    @pytest.mark.parametrize("cell", ["1 x", "1.5", "1;2"])
    def test_non_integer_index_is_usage_error(self, sim_dir, tmp_path, capsys,
                                              cell):
        sel = tmp_path / "selection.csv"
        sel.write_text("method,h,selected,b,level,threshold,error\n"
                       "2m,1,3,,,,\n"
                       f"s2m,2,{cell},2,,,\n")
        code = run("evaluate", "--out", str(tmp_path / "eval"),
                   "--selection", str(sel),
                   "--truth", str(sim_dir / "truth.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sel}: line 3" in err and "internal error" not in err
        assert not (tmp_path / "eval").exists()

    def test_short_row_is_usage_error(self, sim_dir, tmp_path, capsys):
        sel = tmp_path / "selection.csv"
        sel.write_text("method,h,selected,b,level,threshold,error\n"
                       "2m,1,3,,,,\n"
                       "\n"
                       "s2m,2,1 x,,\n")
        code = run("evaluate", "--out", str(tmp_path / "eval"),
                   "--selection", str(sel),
                   "--truth", str(sim_dir / "truth.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sel}: row 4" in err and "internal error" not in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("body,lineno,cell", [
        ("0\n1\n-3\n", 1, "'0'"),
        ("1\n\n-3\n", 3, "'-3'"),
        ("2\n1.5\n", 2, "'1.5'"),
        ("x\n", 1, "'x'"),
    ], ids=["zero", "negative", "fraction", "word"])
    def test_truth_indices_must_be_positive_integers(self, tmp_path, capsys,
                                                     body, lineno, cell):
        # 0 and -3 used to be accepted and scored as masked signals.
        sel = tmp_path / "selection.csv"
        sel.write_text("method,h,selected,b,level,threshold,error\n"
                       "2m,1,1,,,,\n")
        truth = tmp_path / "truth.txt"
        truth.write_text(body)
        code = run("evaluate", "--out", str(tmp_path / "eval"),
                   "--selection", str(sel), "--truth", str(truth))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{truth}: line {lineno}" in err and cell in err
        assert not (tmp_path / "eval").exists()

    def test_selected_indices_must_be_positive_integers(self, tmp_path,
                                                         capsys):
        # 0 and -3 used to be scored as two swamped variables, with exit 0.
        sel = tmp_path / "selection.csv"
        sel.write_text("method,h,selected,b,level,threshold,error\n"
                       "2m,1,0 -3 7,,,,\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("7\n")
        code = run("evaluate", "--out", str(tmp_path / "eval"),
                   "--selection", str(sel), "--truth", str(truth))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sel}: line 2" in err and "'0'" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("body,message", [
        (_HEADER + ",1,3,,,,\n", "unknown method(s) ['']"),
        (_HEADER + "lasso,1,3,,,,\n", "unknown method(s) ['lasso']"),
        (_HEADER + "s2m,1,3,2,,,\n2m,1,3,,,,\ns2m,1,3,2,,,\n",
         "['s2m'] given more than once"),
        (_HEADER + "2m,1,3,,,,,,\n", "row 2 has 9 cells, expected 7"),
        (_HEADER.replace("\n", ",method\n") + "2m,1,3,,,,,2m\n",
         "not a selection report"),
        (_HEADER, "no methods"),
    ], ids=["empty-method", "unknown-method", "repeated-method", "long-row",
            "two-method-columns", "header-only"])
    def test_malformed_report_is_usage_error(self, sim_dir, tmp_path, capsys,
                                             body, message):
        # Each of these used to exit 0: the empty tag dropped, the unknown
        # and repeated tags scored, the extra cells and column ignored.
        sel = tmp_path / "selection.csv"
        sel.write_text(body)
        code = run("evaluate", "--out", str(tmp_path / "eval"),
                   "--selection", str(sel),
                   "--truth", str(sim_dir / "truth.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sel}: " in err and message in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("row,message", [
        ("2m,5,3 3,,,,", "index 3 given more than once"),
        ("2m,2,3 7 3,,,,", "index 3 given more than once"),
        ("2m,5,3,,,,", "h is '5' but the row gives 1 indices"),
        ("2m,,3,,,,", "h is '' but the row gives 1 indices"),
        ("2m,1,,,,,", "h is '1' but the row gives 0 indices"),
    ], ids=["repeated-h5", "repeated", "h-over", "h-empty", "h-no-indices"])
    def test_row_select_never_writes_is_usage_error(self, tmp_path, capsys,
                                                    row, message):
        # 2m,5,3 3 used to score as {3} with exit 0: the h cell was never
        # read and the repeated index merged.
        sel = tmp_path / "selection.csv"
        sel.write_text(_HEADER + "s2m,1,3,2,,,\n" + row + "\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("3\n")
        code = run("evaluate", "--out", str(tmp_path / "eval"),
                   "--selection", str(sel), "--truth", str(truth))
        assert code == 2
        assert capsys.readouterr().err == f"error: {sel}: line 3: {message}\n"
        assert not (tmp_path / "eval").exists()

    def test_refused_selectors_are_skipped(self, tmp_path, capsys):
        draws = tmp_path / "draws.csv"
        save_draws(PosteriorDraws(beta=_REPORT_BETA, sigma2=_REPORT_SIGMA2,
                                  **_REPORT_LATENTS["horseshoe"]), str(draws))
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n3\n5\n")
        assert run("select", "--out", str(tmp_path / "sel"),
                   "--draws", str(draws),
                   "--methods", "s2m,2m,hppm,mpm,cs,ht") == 0
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run("evaluate", "--out", str(out),
                   "--selection", str(tmp_path / "sel" / "selection.csv"),
                   "--truth", str(truth)) == 0
        assert (out / "evaluate.csv").read_text() == (
            "method,masking,swamping\ns2m,1,1\n2m,1,0\ncs,1,0\nht,1,1\n")
        assert capsys.readouterr().err == (
            "hppm: skipped (selector failed: hppm needs z draws "
            "(spike-and-slab chains))\n"
            "mpm: skipped (selector failed: mpm needs z draws "
            "(spike-and-slab chains))\n")

    def test_blank_lines_are_skipped(self, sim_dir, tmp_path):
        sel = tmp_path / "selection.csv"
        sel.write_text("method,h,selected,b,level,threshold,error\n"
                       "\n"
                       "2m,1,3,,,,\n"
                       "  \n")
        out = tmp_path / "eval"
        assert run("evaluate", "--out", str(out), "--selection", str(sel),
                   "--truth", str(sim_dir / "truth.txt")) == 0
        lines = (out / "evaluate.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("2m,")


#: A bench run of one replicate that takes well under a second.
TINY_BENCH = ("-n", "20", "-p", "6", "-r", "1", "--strengths", "4",
              "--replicates", "1", "--methods", "s2m", "--iterations", "50",
              "--burn-in", "10", "--seed", "1")


class TestBench:
    def test_config_file_run_and_composition(self, tmp_path):
        cfg = {
            "sim": {"n": 30, "p": 12, "r": 2, "strengths": [8.0],
                    "seed": 5, "replicates": 1},
            "prior": {"family": "horseshoe"},
            "mcmc": {"iterations": 500, "burn_in": 200},
            "methods": ["s2m", "cs"],
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "bench"
        assert run("bench", "--config", str(cfg_path), "--out", str(out)) == 0
        table = (out / "benchmark.csv").read_text().splitlines()
        assert table[0] == "method,setting,masking,swamping"
        rows = {line.split(",")[0]: line for line in table[1:]}
        assert set(rows) == {"s2m", "cs"}

        # composing simulate -> fit -> select -> evaluate with the derived
        # replicate seed gives the same s2m errors as the bench run
        from shrinksel.simulate import SimConfig, replicate_streams
        sim_cfg = SimConfig(n=30, p=12, r=2, strengths=(8.0, 8.0), seed=5,
                            replicates=1)
        chain_seed = replicate_streams(sim_cfg)[0][1]
        sim_out = tmp_path / "manual_sim"
        assert run("simulate", "--out", str(sim_out), "-n", "30", "-p", "12",
                   "-r", "2", "--strengths", "8", "--seed", "5") == 0
        fit_out = tmp_path / "manual_fit"
        assert run("fit", "--out", str(fit_out),
                   "--design", str(sim_out / "design.csv"),
                   "--response", str(sim_out / "response.csv"),
                   "--prior", "horseshoe", "--iterations", "500",
                   "--burn-in", "200", "--seed", str(chain_seed)) == 0
        # drop the intercept column like the bench harness does
        draws = load_draws(str(fit_out / "draws.csv"))
        from shrinksel.core import PosteriorDraws, save_draws
        trimmed = PosteriorDraws(beta=draws.beta[:, :12], sigma2=draws.sigma2,
                                 lam=draws.lam[:, :12], tau=draws.tau)
        trimmed_path = tmp_path / "trimmed.csv"
        save_draws(trimmed, str(trimmed_path))
        sel_out = tmp_path / "manual_sel"
        assert run("select", "--out", str(sel_out), "--draws",
                   str(trimmed_path), "--methods", "s2m") == 0
        eval_out = tmp_path / "manual_eval"
        assert run("evaluate", "--out", str(eval_out),
                   "--selection", str(sel_out / "selection.csv"),
                   "--truth", str(sim_out / "truth.txt")) == 0
        manual = (eval_out / "evaluate.csv").read_text().splitlines()[1]
        _, masking, swamping = manual.split(",")
        bench_row = rows["s2m"].split(",")
        assert float(bench_row[2]) == float(masking)
        assert float(bench_row[3]) == float(swamping)

    def test_unknown_method_usage_error(self, tmp_path, capsys):
        code = run("bench", "--out", str(tmp_path), "-n", "20", "-p", "6",
                   "-r", "1", "--strengths", "4", "--replicates", "1",
                   "--methods", "nope", "--iterations", "50",
                   "--burn-in", "10")
        assert code == 2
        assert "valid methods" in capsys.readouterr().err

    def test_repeated_method_usage_error(self, tmp_path, capsys):
        # This used to run s2m twice per replicate, fold it into one row
        # and record the repeated list in bench_resolved.json.
        out = tmp_path / "rep"
        code = run("bench", "--out", str(out), *TINY_BENCH,
                   "--methods", "s2m,s2m,2m")
        assert code == 2
        assert "['s2m']" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_environment_variable_is_ignored(self, tmp_path,
                                                  monkeypatch):
        # SHRINKSEL_JOBS used to set the worker count, and "many" exited 2.
        monkeypatch.setenv("SHRINKSEL_JOBS", "many")
        out = tmp_path / "b"
        assert run("bench", "--out", str(out), *TINY_BENCH) == 0
        resolved = json.loads((out / "bench_resolved.json").read_text())
        assert resolved["jobs"] == 1

    def test_every_prior_field_is_a_flag(self, tmp_path):
        # bench used to refuse --ig-shape and the other prior fields that
        # fit took.
        out = tmp_path / "b"
        assert run("bench", "--out", str(out), *TINY_BENCH,
                   "--ig-shape", "2", "--ss-beta-b", "9") == 0
        resolved = json.loads((out / "bench_resolved.json").read_text())
        assert resolved["prior"]["ig_shape"] == 2.0
        assert resolved["prior"]["ss_beta_b"] == 9.0

    @pytest.mark.parametrize("jobs", ["0", "-1"],
                             ids=["flag-zero", "flag-negative"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, capsys,
                                                   jobs):
        # These used to run one worker and record "jobs": 1.
        out = tmp_path / "b"
        assert run("bench", "--out", str(out), *TINY_BENCH, "--jobs", jobs) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "integer >= 1" in err
        assert not out.exists()


class TestShrinkmap:
    def test_two_panels(self, tmp_path):
        out = tmp_path / "grids"
        code = run("shrinkmap", "--out", str(out), "--rho", "0.95",
                   "--tau", "0.1,0.9", "--a", "2,10",
                   "--x2", "1", "--x2", "1.5")
        assert code == 0
        for x2 in ("1", "1.5"):
            lines = (out / f"shrink_grid_x2_{x2}.csv").read_text().splitlines()
            assert len(lines) == 5

    def test_single_zero_rho_point_is_reverse(self, tmp_path):
        out = tmp_path / "g0"
        assert run("shrinkmap", "--out", str(out), "--rho", "0",
                   "--tau", "0.5", "--a", "3", "--x2", "1") == 0
        row = (out / "shrink_grid_x2_1.csv").read_text().splitlines()[1]
        assert row.split(",")[6] == "1"

    def test_a_column_holds_the_requested_value(self, tmp_path):
        # The a column used to hold |a x2 / x2|, which printed
        # 1.3500000000000003 here.
        out = tmp_path / "ga"
        assert run("shrinkmap", "--out", str(out), "--rho", "0.95",
                   "--tau", "0.5", "--a", "1.35", "--x2", "1.5") == 0
        lines = (out / "shrink_grid_x2_1.5.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["a"]) == 1.35
        assert float(row["ratio_mle"]) == abs(1.35 * 1.5 / 1.5) != 1.35
        assert row["reverse"] == str(int(float(row["ratio_shrunk"])
                                         >= float(row["ratio_mle"])))

    def test_malformed_grid_is_usage_error(self, tmp_path, capsys):
        code = run("shrinkmap", "--out", str(tmp_path), "--rho", "0.9;0.95")
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, tmp_path):
        # The grid runs in one process; a point costs less than a fork.
        assert run("shrinkmap", "--out", str(tmp_path), "--rho", "0.95",
                   "--tau", "0.5", "--a", "2", "--jobs", "2") == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["0", "-0", "nan", "inf"])
    def test_zero_or_non_finite_x2_writes_nothing(self, tmp_path, capsys,
                                                  bad):
        # --x2 0 after a good value used to write that grid, then exit 2
        # with a message that did not name x2.
        out = tmp_path / "g"
        code = run("shrinkmap", "--out", str(out), "--rho", "0.95",
                   "--tau", "0.5", "--a", "2", "--x2", "1", f"--x2={bad}")
        assert code == 2
        err = capsys.readouterr().err
        assert "--x2" in err and bad.lstrip("-") in err
        assert not out.exists()

    def test_x2_values_with_one_file_name_write_nothing(self, tmp_path,
                                                        capsys):
        # Both values format as "1", so the second grid used to overwrite
        # the first, and "files" listed the same path twice.
        out = tmp_path / "g"
        code = run("shrinkmap", "--out", str(out), "--rho", "0.95",
                   "--tau", "0.5", "--a", "2", "--x2", "1",
                   "--x2", "1.0000001")
        assert code == 2
        err = capsys.readouterr().err
        assert "1.0000001" in err and "shrink_grid_x2_1.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (["--a", "0.5", "--x2", "1"], "--a 0.5"),
        (["--tau", "0.5,-1"], "--tau -1"),
        (["--rho", "1"], "--rho 1"),
    ], ids=["a-below-one", "negative-tau", "rho-one"])
    def test_grid_value_outside_its_domain_writes_nothing(self, tmp_path,
                                                          capsys, flags,
                                                          named):
        # Each used to fail inside the grid, after the output directory was
        # made, with a message that did not name the flag.
        out = tmp_path / "g"
        assert run("shrinkmap", "--out", str(out), *flags) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--rho", "--tau", "--a"])
    def test_repeated_grid_flag_writes_nothing(self, tmp_path, capsys, flag):
        # A second --rho used to replace the first silently, while --x2
        # appends: --rho 0 --rho 0.5 ran the rho 0.5 grid alone.
        out = tmp_path / "g"
        again = {"--rho": "0.5", "--tau": "0.9", "--a": "10"}[flag]
        assert run("shrinkmap", "--out", str(out), "--rho", "0", "--tau",
                   "0.1", "--a", "1.1", flag, again) == 2
        err = capsys.readouterr().err
        assert f"{flag} given more than once" in err
        assert "one comma list" in err
        assert not out.exists()

    def test_resolved_file_lists_each_grid_once(self, tmp_path):
        out = tmp_path / "g"
        assert run("shrinkmap", "--out", str(out), "--rho", "0.95",
                   "--tau", "0.5", "--a", "2", "--x2", "1", "--x2", "-1") == 0
        resolved = json.loads((out / "shrinkmap_resolved.json").read_text())
        assert resolved["x2"] == [1.0, -1.0]
        assert "jobs" not in resolved and "tol" not in resolved
        assert [os.path.basename(f) for f in resolved["files"]] == [
            "shrink_grid_x2_1.csv", "shrink_grid_x2_-1.csv"]


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_missing_config_file(self, tmp_path):
        assert run("bench", "--config", str(tmp_path / "nope.json")) == 2

    @pytest.mark.parametrize("argv", [
        ("shrinkmap", "--config", "x.json"),
        ("evaluate", "--selection", "s.csv", "--truth", "t.txt",
         "--config", "x.json"),
        ("shrinkmap", "--tol", "1e-6"),
    ], ids=["shrinkmap-config", "evaluate-config", "shrinkmap-tol"])
    def test_setting_no_run_changes_is_refused(self, tmp_path, monkeypatch,
                                                argv):
        # shrinkmap and evaluate never read a config file, and no caller
        # set the quadrature tolerance to anything but its default.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.json").write_text("{}")
        assert run(*argv, "--out", "o") == 2
        assert not (tmp_path / "o").exists()

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("bench", "--config", str(bad)) == 2

    @pytest.mark.parametrize("command", ["evaluate", "simulate", "fit",
                                         "select"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_naming_a_file_is_usage_error(self, sim_dir, tmp_path, capsys,
                                              command, below):
        # os.makedirs used to raise FileExistsError here: exit 1, "internal
        # error", after the command's work was done.
        existing = tmp_path / "afile"
        existing.write_text("keep me\n")
        out = existing / "sub" if below else existing
        argv = {
            "evaluate": ("--selection", "no.csv", "--truth", "no.txt"),
            "simulate": ("-n", "10", "-p", "4", "-r", "1", "--strengths", "3"),
            "fit": ("--design", str(sim_dir / "design.csv"),
                    "--response", str(sim_dir / "response.csv")),
            "select": ("--draws", "no.csv"),
        }[command]
        capsys.readouterr()
        assert run(command, "--out", str(out), *argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {out}: {str(existing)!r} is "
                                f"not a directory\n")
        assert captured.out == ""
        assert existing.read_text() == "keep me\n"
