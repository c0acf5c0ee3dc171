"""Domain-type validation and the draw CSV round trip."""

import numpy as np
import pytest

from shrinksel import core
from shrinksel.core import (Dataset, InvariantError, PosteriorDraws, PriorSpec,
                            SelectionResult, _map_jobs, atomic_write_lines,
                            load_draws, load_matrix_csv, save_draws,
                            save_matrix_csv)


def _random_draws(rng, t, p, with_hs=False, with_ss=False) -> PosteriorDraws:
    kwargs = {}
    if with_hs:
        kwargs["lam"] = rng.uniform(0.01, 5.0, (t, p))
        kwargs["tau"] = rng.uniform(0.01, 1.0, t)
    if with_ss:
        kwargs["z"] = rng.integers(0, 2, (t, p))
        kwargs["pi"] = rng.uniform(0.01, 0.99, t)
    return PosteriorDraws(beta=rng.standard_normal((t, p)),
                          sigma2=rng.uniform(0.1, 3.0, t), **kwargs)


class TestDataset:
    def test_valid(self):
        d = Dataset(y=np.zeros(4), x=np.ones((4, 2)), truth={1})
        assert d.n == 4 and d.p == 2 and d.truth == frozenset({1})

    def test_rejects_random_dimension_mismatches(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            p = int(rng.integers(1, 6))
            bad_n = n + int(rng.integers(1, 4))
            with pytest.raises(InvariantError):
                Dataset(y=np.zeros(bad_n), x=np.zeros((n, p)))

    def test_rejects_nonfinite(self):
        y = np.zeros(3)
        x = np.zeros((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(InvariantError):
            Dataset(y=y, x=x)

    def test_rejects_out_of_range_truth(self):
        with pytest.raises(InvariantError):
            Dataset(y=np.zeros(3), x=np.zeros((3, 2)), truth={3})

    def test_arrays_read_only(self):
        d = Dataset(y=np.zeros(3), x=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            d.x[0, 0] = 1.0


class TestPriorSpec:
    def test_defaults(self):
        p = PriorSpec.horseshoe()
        assert p.tau_upper == 1.0 and p.ig_shape == 1.5 and p.ss_beta_b == 15.0

    def test_untruncated(self):
        assert PriorSpec.horseshoe(tau_upper=None).tau_upper is None

    @pytest.mark.parametrize("field,value", [
        ("ig_shape", 0.0), ("ig_scale", -1.0), ("tau_upper", 0.0),
        ("ss_beta_a", 0.0), ("ss_beta_b", -2.0),
    ])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(InvariantError):
            PriorSpec.horseshoe(**{field: value})

    def test_rejects_unknown_family(self):
        with pytest.raises(InvariantError):
            PriorSpec(family="lasso")


class TestPosteriorDraws:
    def test_invariants(self):
        with pytest.raises(InvariantError):
            PosteriorDraws(beta=np.zeros((3, 2)), sigma2=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(InvariantError):
            PosteriorDraws(beta=np.zeros((3, 2)), sigma2=np.ones(3),
                           z=np.full((3, 2), 2))
        with pytest.raises(InvariantError):
            PosteriorDraws(beta=np.zeros((3, 2)), sigma2=np.ones(3),
                           pi=np.array([0.5, 1.0, 0.5]))
        with pytest.raises(InvariantError):
            PosteriorDraws(beta=np.zeros((3, 2)), sigma2=np.ones(2))

    def test_shapes(self):
        d = _random_draws(np.random.default_rng(1), 5, 3, with_hs=True)
        assert d.t == 5 and d.p == 3

    def test_z_stored_as_read_only_int64(self):
        d = PosteriorDraws(beta=np.zeros((2, 2)), sigma2=np.ones(2),
                           z=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert d.z.dtype == np.int64 and d.z.tolist() == [[1, 0], [0, 1]]
        assert not d.z.flags.writeable and not d.beta.flags.writeable

    def test_arrays_of_the_field_dtype_are_kept_not_copied(self):
        table = np.random.default_rng(2).uniform(0.5, 1.5, (4, 7))
        z = np.array([[0, 1], [1, 1], [0, 0], [1, 0]], dtype=np.int64)
        d = PosteriorDraws(beta=table[:, :2], sigma2=table[:, 2],
                           lam=table[:, 3:5], tau=table[:, 5], z=z,
                           pi=table[:, 6] / 2)
        for name, given in (("beta", table[:, :2]), ("sigma2", table[:, 2]),
                            ("lam", table[:, 3:5]), ("tau", table[:, 5]),
                            ("z", z)):
            assert np.shares_memory(getattr(d, name), given), name
        assert d.z is z and not z.flags.writeable
        # The views were made read-only in place; their base was not.
        assert not d.beta.flags.writeable and table.flags.writeable

    def test_other_inputs_are_converted_into_new_arrays(self):
        beta_list = [[1.0, 2.0], [3.0, 4.0]]
        beta_int = np.array([[1, 2], [3, 4]])
        z_float = np.array([[1.0, 0.0], [0.0, 1.0]])
        sigma2 = np.ones(2, dtype=np.float32)
        for beta in (beta_list, beta_int):
            d = PosteriorDraws(beta=beta, sigma2=sigma2, z=z_float,
                               pi=np.full(2, 0.5))
            assert d.beta.dtype == np.float64 and d.beta.tolist() == [
                [1.0, 2.0], [3.0, 4.0]]
            assert d.z.dtype == np.int64
            assert d.sigma2.dtype == np.float64
            for given, kept in ((beta, d.beta), (z_float, d.z),
                                (sigma2, d.sigma2)):
                assert not np.shares_memory(given, kept)
        # The caller's arrays of another dtype stay writable.
        assert beta_int.flags.writeable and z_float.flags.writeable

    @pytest.mark.parametrize("z", [[[0.5, 0.0]], [[1.0, np.nan]], [[2, 0]],
                                   [[-1, 0]]],
                             ids=["half", "nan", "two", "minus-one"])
    def test_z_outside_0_1_refused_not_truncated(self, z):
        with pytest.raises(InvariantError, match="^z "):
            PosteriorDraws(beta=np.zeros((1, 2)), sigma2=np.ones(1), z=z)

    @pytest.mark.parametrize("row", [0, 1, 38, 39])
    def test_values_checked_in_every_row_block(self, monkeypatch, row):
        # Blocks of 4 rows at p = 3: a bad value is found in any block,
        # and a non-finite one is reported first as before.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 3 * 4)
        lam = np.ones((40, 3))
        lam[row, 1] = -1.0
        with pytest.raises(InvariantError, match="lambda draws must be"):
            PosteriorDraws(beta=np.zeros((40, 3)), sigma2=np.ones(40),
                           lam=lam, tau=np.ones(40))
        lam[39 - row, 2] = np.inf
        with pytest.raises(InvariantError, match="lambda contains non-finite"):
            PosteriorDraws(beta=np.zeros((40, 3)), sigma2=np.ones(40),
                           lam=lam, tau=np.ones(40))


class TestSelectionResult:
    def test_count_consistency_for_clustering_methods(self):
        with pytest.raises(InvariantError):
            SelectionResult(method="s2m", selected=frozenset({1, 2}),
                            h_counts=np.array([2, 2]), h_mode=3)

    def test_other_methods_unconstrained(self):
        r = SelectionResult(method="cs", selected=frozenset({2}), h_mode=1)
        assert r.selected == frozenset({2})


class TestDrawCsv:
    def test_minimal_layout(self, tmp_path):
        draws = PosteriorDraws(beta=np.array([[1.0, 2.0], [3.0, 4.0]]),
                               sigma2=np.array([0.5, 0.7]))
        path = tmp_path / "d.csv"
        save_draws(draws, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "beta_1,beta_2,sigma2"
        assert len(path.read_text().splitlines()) == 3

    def test_round_trip_randomized(self, tmp_path):
        rng = np.random.default_rng(7)
        for i, (hs, ssl) in enumerate([(False, False), (True, False),
                                       (False, True), (True, True)]):
            t = int(rng.integers(1, 9))
            p = int(rng.integers(1, 7))
            draws = _random_draws(rng, t, p, with_hs=hs, with_ss=ssl)
            path = tmp_path / f"d{i}.csv"
            save_draws(draws, str(path))
            back = load_draws(str(path))
            assert np.array_equal(back.beta, draws.beta)
            assert np.array_equal(back.sigma2, draws.sigma2)
            for name in ("lam", "tau", "z", "pi"):
                a, b = getattr(draws, name), getattr(back, name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a, b)

    def test_invalid_draws_rejected_before_write(self, tmp_path):
        with pytest.raises(InvariantError):
            save_draws(PosteriorDraws(beta=np.ones((1, 1)),
                                      sigma2=np.array([0.0])),
                       str(tmp_path / "x.csv"))

    def test_missing_sigma2_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_1,beta_2\n1.0,2.0\n")
        with pytest.raises(InvariantError, match="sigma2"):
            load_draws(str(path))

    def test_external_file_with_betas_only(self, tmp_path):
        path = tmp_path / "ext.csv"
        rows = ["beta_%d" % k for k in range(1, 6)] + ["sigma2"]
        path.write_text(",".join(rows) + "\n" +
                        "0.1,0.2,0.3,0.4,0.5,1.25\n")
        d = load_draws(str(path))
        assert d.p == 5 and d.lam is None and d.z is None and d.tau is None
        assert d.sigma2[0] == 1.25

    def test_column_order_irrelevant(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("sigma2,beta_2,beta_1\n2.0,7.0,5.0\n")
        d = load_draws(str(path))
        assert d.beta[0, 0] == 5.0 and d.beta[0, 1] == 7.0

    def test_loaded_latents_view_one_table(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "d.csv"
        save_draws(_random_draws(rng, 6, 3, with_hs=True), str(path))
        d = load_draws(str(path))
        for name in ("sigma2", "lam", "tau"):
            assert np.shares_memory(d.beta.base, getattr(d, name)), name
        assert d.beta.base.shape == (6, 8)

    def test_out_of_order_block_is_copied_in_index_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("beta_2,beta_1,sigma2,lambda_1,lambda_2,tau\n"
                        "2,1,0.5,10,20,0.25\n4,3,0.5,30,40,0.25\n")
        d = load_draws(str(path))
        assert d.beta.tolist() == [[1, 2], [3, 4]]
        assert d.lam.tolist() == [[10, 20], [30, 40]]
        table = d.sigma2.base
        assert d.lam.base is table and d.tau.base is table
        assert not np.shares_memory(d.beta, table)

    def test_rows_across_parse_blocks(self, tmp_path, monkeypatch):
        # Blocks of 2 rows at width 3: 7 rows fill three and part of one.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 3 * 2)
        draws = PosteriorDraws(beta=np.arange(14.0).reshape(7, 2),
                               sigma2=np.arange(1.0, 8.0))
        path = tmp_path / "d.csv"
        save_draws(draws, str(path))
        back = load_draws(str(path))
        assert np.array_equal(back.beta, draws.beta)
        assert np.array_equal(back.sigma2, draws.sigma2)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_1,sigma2\n1.0,2.0\nx,1.0\n")
        with pytest.raises(InvariantError, match="row 3"):
            load_draws(str(path))

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_1,sigma2\n1.0,2.0,3.0\n")
        with pytest.raises(InvariantError, match="row 2"):
            load_draws(str(path))

    def test_gap_in_beta_block(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_1,beta_3,sigma2\n1.0,2.0,1.0\n")
        with pytest.raises(InvariantError):
            load_draws(str(path))


class TestDrawFileErrorsNameFile:
    """Every value error from a draw file names the file."""

    @pytest.mark.parametrize("text,match", [
        ("beta_1,sigma2,z_1,pi\n1.0,1.0,0.5,0.5\n", "z draws must be 0 or 1"),
        ("beta_1,sigma2,lambda_1,tau\n1.0,1.0,0.0,0.5\n",
         "lambda draws must be strictly positive"),
        ("beta_1,sigma2,lambda_1,tau\n1.0,1.0,-2.0,0.5\n",
         "lambda draws must be strictly positive"),
        ("beta_1,sigma2,lambda_1,tau\n1.0,1.0,1.0,0.0\n",
         "tau draws must be strictly positive"),
        ("beta_1,sigma2,z_1,pi\n1.0,1.0,1.0,1.0\n",
         r"pi draws must be strictly inside \(0, 1\)"),
        ("beta_1,beta_2,sigma2,lambda_1\n1.0,2.0,1.0,1.0\n",
         r"lambda has shape \(1, 1\), expected \(1, 2\)"),
        ("beta_1,sigma2,beta_1\n1.0,1.0,1.0\n", "duplicate column 'beta_1'"),
        ("beta_1,beta_x,sigma2\n1.0,1.0,1.0\n",
         "malformed column name 'beta_x'"),
        ("beta_1,beta_\u00b2,sigma2\n1.0,1.0,1.0\n",
         "malformed column name 'beta_\u00b2'"),
        ("beta_1,beta_01,sigma2\n1.0,2.0,1.0\n",
         "columns 'beta_1' and 'beta_01' both name beta_1"),
        ("beta_1,sigma2,lambda_2,lambda_1,lambda_002,tau\n"
         "1.0,1.0,1.0,1.0,1.0,0.5\n",
         "columns 'lambda_2' and 'lambda_002' both name lambda_2"),
        ("beta_1,sigma2,z_01,z_1,pi\n1.0,1.0,1.0,0.0,0.5\n",
         "columns 'z_01' and 'z_1' both name z_1"),
    ], ids=["z-half", "lambda-zero", "lambda-negative", "tau-zero", "pi-one",
            "lambda-short", "duplicate", "beta_x", "beta-superscript",
            "beta-same-index",
            "lambda-same-index", "z-same-index"])
    def test_message_names_file(self, tmp_path, text, match):
        path = tmp_path / "draws.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvariantError) as info:
            load_draws(str(path))
        assert str(info.value).startswith(f"{path}: ")
        assert info.match(match)


class TestCsvText:
    """Written files equal formatting each float64 scalar with %.17g."""

    @staticmethod
    def _scalar_lines(table) -> list[str]:
        return [",".join("%.17g" % v for v in row) for row in table]

    def test_draw_file_bytes(self, tmp_path):
        rng = np.random.default_rng(21)
        draws = _random_draws(rng, 9, 6, with_hs=True, with_ss=True)
        beta = draws.beta.copy()
        beta[0, :4] = (-0.0, 5e-324, -1.7976931348623157e308, 3.0)
        beta[1] *= 1e-12
        draws = PosteriorDraws(beta=beta, sigma2=draws.sigma2, lam=draws.lam,
                               tau=draws.tau, z=draws.z, pi=draws.pi)
        path = tmp_path / "d.csv"
        save_draws(draws, str(path))
        table = np.hstack([draws.beta, draws.sigma2[:, None], draws.lam,
                           draws.tau[:, None], draws.z.astype(float),
                           draws.pi[:, None]])
        header = path.read_text().splitlines()[0]
        expected = "\n".join([header] + self._scalar_lines(table)) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_matrix_file_bytes(self, tmp_path):
        arr = np.random.default_rng(22).standard_normal((5, 3)) * 1e5
        arr[2, 1] = -0.0
        path = tmp_path / "m.csv"
        save_matrix_csv(arr, str(path))
        expected = "\n".join(self._scalar_lines(arr)) + "\n"
        assert path.read_bytes() == expected.encode()
        save_matrix_csv(arr[0], str(path))  # a vector is one row
        assert path.read_bytes() == (self._scalar_lines(arr[:1])[0]
                                     + "\n").encode()


class TestAtomicWriteLines:
    def test_failing_line_source_leaves_target_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def lines():
            yield "first"
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            atomic_write_lines(str(path), lines())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_each_line_ends_with_newline(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_lines(str(path), (str(k) for k in range(3)))
        assert path.read_bytes() == b"0\n1\n2\n"


class TestMatrixCsv:
    def test_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InvariantError, match="row 2"):
            load_matrix_csv(str(path))

    def test_reads(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert load_matrix_csv(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestCsvRowsNameFileLines:
    """Both readers skip blank lines and report the line in the file."""

    def test_draws_non_numeric_after_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_1,sigma2\n1.0,2.0\n\n\nx,1.0\n")
        with pytest.raises(InvariantError,
                           match=r"'x' at row 5, column 'beta_1'"):
            load_draws(str(path))

    def test_draws_ragged_after_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta_1,sigma2\n\n1.0,2.0\n \n1.0\n")
        with pytest.raises(InvariantError, match="row 5 has 1 cells"):
            load_draws(str(path))

    def test_draws_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("beta_1,sigma2\n\n1.0,2.0\n\n3.0,4.0\n\n")
        d = load_draws(str(path))
        assert d.beta[:, 0].tolist() == [1.0, 3.0]

    def test_matrix_non_numeric_after_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n\n3.0,4.0\n5.0,y\n")
        with pytest.raises(InvariantError, match=r"'y' at row 5, column 2"):
            load_matrix_csv(str(path))

    def test_matrix_ragged_after_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1.0,2.0\n\n3.0\n")
        with pytest.raises(InvariantError, match="row 4 has 1 cells"):
            load_matrix_csv(str(path))

    def test_matrix_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1.0,2.0\n\n3.0,4.0\n\n")
        assert load_matrix_csv(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_first_bad_row_in_file_order_is_named(self, tmp_path):
        # Rows are converted as they are read, so a non-numeric row is
        # reported before a later ragged one, and its first bad cell.
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\nx,y\n3.0\n")
        with pytest.raises(InvariantError, match=r"'x' at row 2, column 1"):
            load_matrix_csv(str(path))


class TestMapJobs:
    @pytest.mark.parametrize("jobs,workers", [(2, 2), (8, 3)])
    def test_workers_never_outnumber_items(self, pool_sizes, jobs, workers):
        assert _map_jobs(abs, [-1, 2, -3], jobs) == [1, 2, 3]
        assert pool_sizes == [workers]

    @pytest.mark.parametrize("items,jobs", [([-4], 64), ([], 4), ([-4, 5], 1)])
    def test_serial_without_a_pool(self, pool_sizes, items, jobs):
        assert _map_jobs(abs, items, jobs) == [abs(i) for i in items]
        assert pool_sizes == []
