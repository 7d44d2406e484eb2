import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, unit_prior
from tbma.chain import (
    ChainConfig,
    ChainOutput,
    PosteriorSummary,
    diagnostics_series,
    inclusion_probabilities,
    posterior_summaries,
    run_chain,
)
from tbma.errors import EmptyChain, ParseError, SchemaError
from tbma.io import (
    INTERCEPT_NAME,
    DataSchema,
    load_csv,
    load_trace,
    parse_bool,
    read_config,
    read_tagged_csv,
    write_csv,
    write_dataset,
    write_diagnostics,
    write_summary,
    write_trace,
)
from tbma.oracle import SynthSpec, generate_synthetic


def basic_schema(**overrides):
    kwargs = dict(
        response="y",
        selection=("a", "b"),
        outcome=("b", "c"),
        censored="cens",
        add_intercept_selection=False,
        add_intercept_outcome=False,
    )
    kwargs.update(overrides)
    return DataSchema(**kwargs)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSchema:
    def test_needs_censor_source(self):
        with pytest.raises(SchemaError):
            DataSchema(response="y", selection=("a",), outcome=("b",))

    def test_empty_equation_rejected(self):
        with pytest.raises(SchemaError):
            DataSchema(
                response="y", selection=(), outcome=("b",), censored="c",
                add_intercept_selection=False,
            )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            basic_schema(selection=("a", "a"))

    @pytest.mark.parametrize("equation", ["selection", "outcome"])
    def test_column_named_like_the_added_intercept_names_equation_and_key(self, equation):
        with pytest.raises(
            SchemaError,
            match=rf"{equation} column '\(intercept\)' has the name of the intercept that add_intercept_{equation} "
                  rf"adds; rename the column or set add_intercept_{equation} = false",
        ):
            basic_schema(**{equation: (INTERCEPT_NAME, "a"), f"add_intercept_{equation}": True})

    def test_column_named_like_the_intercept_loads_when_none_is_added(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["y,cens,(intercept),a", "1.5,0,1,0.2", "0,1,1,0.4", "2.5,0,1,-0.1"])
        loaded = load_csv(path, basic_schema(selection=(INTERCEPT_NAME, "a"), outcome=("a",)))
        assert loaded.dataset.column_names_w == (INTERCEPT_NAME, "a")


class TestLoadCsv:
    def test_counts_and_censoring(self, tmp_path):
        path = write_lines(
            tmp_path / "d.csv",
            ["a,b,c,y,cens", "1,2,3,9,1", "4,5,6,7,0", "7,8,9,5,1"],
        )
        loaded = load_csv(path, basic_schema())
        ds = loaded.dataset
        assert ds.n == 3
        assert ds.n_o == 1
        assert np.array_equal(ds.censored, [True, False, True])
        # censored rows store 0 for the response
        assert ds.y.tolist() == [0.0, 7.0, 0.0]

    def test_shared_column_lands_in_both_designs(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,0"])
        ds = load_csv(path, basic_schema()).dataset
        assert ds.column_names_w == ("a", "b")
        assert ds.column_names_x == ("b", "c")
        assert ds.W[0, 1] == ds.X[0, 0] == 2.0

    def test_missing_column_names_schema_error(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,y,cens", "1,2,9,0"])
        with pytest.raises(SchemaError, match="'c'"):
            load_csv(path, basic_schema())

    def test_stray_text_cell_names_row(self, tmp_path):
        rows = ["a,b,c,y,cens"] + [f"{i},2,3,9,0" for i in range(1, 7)] + ["oops,2,3,9,0"]
        path = write_lines(tmp_path / "d.csv", rows)
        with pytest.raises(ParseError, match="row 7"):
            load_csv(path, basic_schema())

    def test_cell_and_flag_errors_name_the_file(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,0", "1,oops,3,9,0"])
        with pytest.raises(ParseError, match=rf"^{path}: non-numeric value 'oops' at row 2, column 'b'$"):
            load_csv(path, basic_schema())
        path = write_lines(tmp_path / "f.csv", ["a,b,c,y,cens", "1,2,3,9,0.5"])
        with pytest.raises(ParseError, match=rf"^{path}: censored flag must be 0 or 1, got '0.5' at row 1$"):
            load_csv(path, basic_schema())

    def test_hash_is_not_a_comment(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,0", "", "#1,2,3,9,0"])
        with pytest.raises(ParseError, match=rf"^{path}: non-numeric value '#1' at row 3, column 'a'$"):
            load_csv(path, basic_schema())

    def test_digit_group_underscores_rejected(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,0", "1,2,3,1_000,0"])
        with pytest.raises(ParseError, match=rf"^{path}: non-numeric value '1_000' at row 2, column 'y'$"):
            load_csv(path, basic_schema())

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e999", "-inf"])
    def test_non_finite_covariate_names_file_row_and_column(self, tmp_path, raw):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,0", "1,2,3,9,1", f"1,2,{raw},9,1"])
        with pytest.raises(ParseError, match=rf"^{path}: non-finite value '{raw}' at row 3, column 'c'$"):
            load_csv(path, basic_schema())

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e999"])
    def test_non_finite_response_names_its_uncensored_row(self, tmp_path, raw):
        # The censored row's response is ignored, so only row 3's is bad.
        lines = ["a,b,c,y,cens", "1,2,3,9,0", f"1,2,3,{raw},1", f"1,2,3,{raw},0"]
        path = write_lines(tmp_path / "d.csv", lines)
        with pytest.raises(ParseError, match=rf"^{path}: non-finite value '{raw}' at row 3, column 'y'$"):
            load_csv(path, basic_schema())
        path = write_lines(tmp_path / "z.csv", ["a,b,c,y", "1,2,3,0", f"1,2,3,{raw}"])
        with pytest.raises(ParseError, match=rf"^{path}: non-finite value '{raw}' at row 2, column 'y'$"):
            load_csv(path, basic_schema(censored=None, censor_on_zero=True))

    def test_non_finite_response_on_a_censored_row_loads(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,nan,1", "1,2,3,9,0"])
        ds = load_csv(path, basic_schema()).dataset
        assert ds.y.tolist() == [0.0, 9.0]

    def test_header_only_file_loads_empty_without_warning(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "", " , ,"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path, basic_schema()).dataset
        assert ds.n == 0
        assert ds.W.shape == (0, 2) and ds.X.shape == (0, 2)

    def test_short_row_names_row_and_lacking_column(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["y,censored,w1,x1", "1.0,1,0.3,0.2", "2.0,0,0.1"])
        schema = DataSchema(response="y", selection=("w1",), outcome=("x1",), censored="censored")
        with pytest.raises(ParseError, match=r"row 2 has 3 cells and lacks column 'x1'"):
            load_csv(path, schema)

    def test_row_lacking_only_unused_trailing_cells_loads(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens,note", "1,2,3,9,0,first", "4,5,6,7,1"])
        ds = load_csv(path, basic_schema()).dataset
        assert ds.W.tolist() == [[1.0, 2.0], [4.0, 5.0]]

    def test_bad_censor_flag(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,2"])
        with pytest.raises(ParseError, match="0 or 1"):
            load_csv(path, basic_schema())

    def test_censor_on_zero(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y", "1,2,3,0", "1,2,3,4"])
        schema = basic_schema(censored=None, censor_on_zero=True)
        ds = load_csv(path, schema).dataset
        assert np.array_equal(ds.censored, [True, False])

    def test_intercepts_prepended_and_forced(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", ["a,b,c,y,cens", "1,2,3,9,0", "2,1,0,3,1"])
        schema = basic_schema(add_intercept_selection=True, add_intercept_outcome=True)
        loaded = load_csv(path, schema)
        ds = loaded.dataset
        assert ds.column_names_w[0] == INTERCEPT_NAME
        assert np.all(ds.W[:, 0] == 1.0)
        assert loaded.model_template.forced[0]
        assert not loaded.model_template.forced[1]

    def test_standardize_records_transforms(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = ["a,b,c,y,cens"]
        for i in range(50):
            cens = i % 3 == 0
            rows.append(
                f"{10 + 2 * rng.standard_normal():.6f},{rng.standard_normal():.6f},"
                f"{5 * rng.standard_normal():.6f},{0.0 if cens else 3 + rng.standard_normal():.6f},{int(cens)}"
            )
        path = write_lines(tmp_path / "d.csv", rows)
        loaded = load_csv(path, basic_schema(standardize=True))
        ds = loaded.dataset
        tr = loaded.standardization
        assert tr is not None
        assert np.allclose(ds.W.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(ds.W.std(axis=0), 1.0, atol=1e-12)
        unc = ~ds.censored
        assert ds.y[unc].mean() == pytest.approx(0.0, abs=1e-12)
        # transforms invert the scaling on a fitted-coefficient vector
        theta_std = np.array([0.5, -1.0])
        theta_orig, _ = tr.unscale_psi(theta_std, np.array([0.2, 0.2]))
        assert np.allclose(theta_orig, theta_std / tr.w_scale)

    def test_unscale_with_intercepts_reproduces_fit(self, tmp_path):
        # A least-squares fit on standardized data maps back to the fit on
        # raw data once the recorded transforms are applied.
        rng = np.random.default_rng(3)
        n = 200
        a = 5 + 2 * rng.standard_normal(n)
        c = -1 + 0.5 * rng.standard_normal(n)
        y = 2.0 + 1.5 * a - 3.0 * c + 0.01 * rng.standard_normal(n)
        rows = ["a,b,c,y,cens"] + [
            "%.17g,%.17g,%.17g,%.17g,0" % (a[i], rng.standard_normal(), c[i], y[i])
            for i in range(n)
        ]
        path = write_lines(tmp_path / "d.csv", rows)
        schema = DataSchema(
            response="y", selection=("a",), outcome=("a", "c"), censored="cens",
            add_intercept_selection=True, add_intercept_outcome=True, standardize=True,
        )
        loaded = load_csv(path, schema)
        ds = loaded.dataset
        beta_std, *_ = np.linalg.lstsq(ds.X, ds.y, rcond=None)
        _, beta_orig = loaded.standardization.unscale_psi(np.zeros(2), beta_std)
        assert beta_orig == pytest.approx([2.0, 1.5, -3.0], abs=1e-2)


class TestDatasetRoundTrip:
    def test_load_write_load_is_exact(self, tmp_path):
        spec = SynthSpec(n=60, p=2, q=2, true_theta=[0.5, 0.0], true_beta=[1.0, -0.5],
                         gamma=0.4, phi=1.3, seed=5)
        dataset, _ = generate_synthetic(spec)
        first = tmp_path / "first.csv"
        write_dataset(dataset, first)
        schema = DataSchema(
            response="y", selection=("w1", "w2"), outcome=("x1", "x2"), censored="censored",
            add_intercept_selection=False, add_intercept_outcome=False,
        )
        loaded = load_csv(first, schema).dataset
        assert np.array_equal(loaded.W, dataset.W)
        assert np.array_equal(loaded.X, dataset.X)
        assert np.array_equal(loaded.y, dataset.y)
        second = tmp_path / "second.csv"
        write_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()


class TestLoadCsvMemory:
    @pytest.mark.parametrize("intercepts, standardize", [(False, False), (True, False), (True, True)])
    def test_peak_stays_near_the_final_arrays(self, tmp_path, intercepts, standardize):
        # The parsed table and the final W and X are alive at once, and
        # nothing else of that size.
        width = 12
        spec = SynthSpec(n=4000, p=width, q=width, true_theta=np.r_[0.5, np.zeros(width - 1)],
                         true_beta=np.r_[1.0, np.zeros(width - 1)], gamma=0.4, phi=1.0, seed=9)
        path = tmp_path / "d.csv"
        write_dataset(generate_synthetic(spec)[0], path)
        schema = DataSchema(
            response="y", censored="censored",
            selection=tuple(f"w{j}" for j in range(1, width + 1)),
            outcome=tuple(f"x{j}" for j in range(1, width + 1)),
            add_intercept_selection=intercepts, add_intercept_outcome=intercepts, standardize=standardize,
        )
        tracemalloc.start()
        try:
            ds = load_csv(path, schema).dataset
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        final = ds.W.nbytes + ds.X.nbytes + ds.y.nbytes + ds.censored.nbytes
        assert peak <= 2.25 * final, peak / final


class TestSummaryWriter:
    def rows(self):
        return [
            PosteriorSummary("a", "selection", 0.4, 0.2, 0.1, 0.5, 0.05),
            PosteriorSummary("b", "outcome", 1.0, 2.0, 1.0, 2.0, 1.0),
            PosteriorSummary("c", "outcome", 0.3, 0.1, 0.2, 1.0 / 3.0, 0.2),
            PosteriorSummary("d", "outcome", 0.0, 0.0, 0.0, None, None),
        ]

    def test_formatting_and_order(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary(self.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "covariate,equation,incl_prob,post_mean,post_sd,cond_mean,cond_sd"
        assert lines[1] == "b,outcome,1.000000,2.000000,1.000000,2.000000,1.000000"
        # outcome rows sorted by inclusion probability descending, then selection rows
        assert [l.split(",")[0] for l in lines[1:]] == ["b", "c", "d", "a"]
        # absent conditional moments stay empty
        assert lines[3].endswith(",,")

    def test_empty_summary_rejected(self, tmp_path):
        with pytest.raises(EmptyChain):
            write_summary([], tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_summary(self.rows(), a)
        write_summary(self.rows(), b)
        assert a.read_bytes() == b.read_bytes()


class TestTraceRoundTrip:
    def test_trace_survives_disk(self, tmp_path):
        ds = make_dataset(n=20, seed=9)
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=15, burn_in=5, seed=3, chains=1))
        path = tmp_path / "trace.csv"
        write_trace(out, path)
        back = load_trace(path)
        assert np.array_equal(back.sweeps, out.sweeps)
        assert np.array_equal(back.is_burnin, out.is_burnin)
        assert np.array_equal(back.models, out.models)
        assert np.array_equal(back.psis, out.psis)  # 17 significant digits round-trip doubles
        assert np.array_equal(back.gammas, out.gammas)
        assert back.column_names_w == out.column_names_w
        assert back.dataset_fingerprint == out.dataset_fingerprint
        assert back.chain_id == out.chain_id

    def test_non_numeric_cell_names_the_file(self, tmp_path):
        ds = make_dataset(n=20, seed=9)
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=5, burn_in=1, seed=3, chains=1))
        path = tmp_path / "trace.csv"
        write_trace(out, path)
        lines = path.read_bytes().split(b"\r\n")  # lines[0] holds the preamble and header
        cells = lines[2].split(b",")
        cells[3] = b"abc"
        lines[2] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError, match=rf"{path}: .*'abc'"):
            load_trace(path)

    @staticmethod
    def trace_bytes(tmp_path, sweeps=None):
        ds = make_dataset(n=20, seed=9)
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=6, burn_in=2, seed=3, chains=1))
        if sweeps is not None:
            out = dataclasses.replace(out, sweeps=np.asarray(sweeps, dtype=np.int64))
        write_trace(out, tmp_path / "trace.csv")
        return out, (tmp_path / "trace.csv").read_bytes()

    def test_huge_sweep_indices_round_trip_exactly(self, tmp_path):
        sweeps = [2**62 + 1, 2**63 - 1, -(2**63), 0, 7, 2**53 + 1]
        out, _ = self.trace_bytes(tmp_path, sweeps)
        back = load_trace(tmp_path / "trace.csv")
        assert back.sweeps.dtype == np.int64 and back.sweeps.tolist() == sweeps
        assert np.array_equal(back.psis, out.psis)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        out, raw = self.trace_bytes(tmp_path)
        head, body = raw.split(b"\r\n", 1)
        (tmp_path / "trace.csv").write_bytes(head + b"\r\n\r\n" + body.replace(b"\r\n", b"\r\n\n", 2))
        back = load_trace(tmp_path / "trace.csv")
        assert np.array_equal(back.psis, out.psis) and np.array_equal(back.sweeps, out.sweeps)

    @staticmethod
    def with_cells(tmp_path, *edits):
        """A trace whose data row ``row`` (from 1) holds ``cell`` in
        ``column``, for each ``(row, column, cell)`` of ``edits``."""
        _, raw = TestTraceRoundTrip.trace_bytes(tmp_path)
        lines = raw.split(b"\r\n")  # lines[0] holds the preamble and header
        header = lines[0].rsplit(b"\n", 1)[1].decode().split(",")
        for row, column, cell in edits:
            cells = lines[row].split(b",")
            cells[header.index(column)] = cell.encode()
            lines[row] = b",".join(cells)
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\r\n".join(lines))
        return path

    @pytest.mark.parametrize("column, cell", [("sweep", "1_000"), ("gamma", "1_0"), ("gamma", "\uff11")])
    def test_cells_numpy_does_not_parse_are_parse_errors(self, tmp_path, column, cell):
        """Digit-group underscores and non-ASCII digits are numbers to
        Python's ``int`` and ``float``, but not to ``np.loadtxt``, whose rule
        every file tbma reads follows."""
        path = self.with_cells(tmp_path, (1, column, cell))
        with pytest.raises(ParseError, match=rf"{path}: could not convert string '{cell}'"):
            load_trace(path)

    @pytest.mark.parametrize(
        "column, cell, domain",
        [
            ("burnin", "2", "0 or 1"),
            ("accepted", "7", "0 or 1"),
            ("in_out_x1", "2", "0 or 1"),
            ("gamma", "nan", "finite"),
            ("phi", "inf", "finite and positive"),
            ("phi", "-1", "finite and positive"),
            ("phi", "0", "finite and positive"),
            ("coef_sel_w0", "nan", "finite"),
            ("coef_out_x1", "-inf", "finite"),
        ],
    )
    def test_cell_outside_its_column_domain_names_file_row_and_column(self, tmp_path, column, cell, domain):
        path = self.with_cells(tmp_path, (3, column, cell))
        with pytest.raises(ParseError, match=rf"{path}: {cell} at data row 3, column '{column}', is not {domain}$"):
            load_trace(path)

    def test_first_cell_out_of_domain_in_row_order_is_named(self, tmp_path):
        path = self.with_cells(tmp_path, (2, "coef_out_x1", "nan"), (2, "in_sel_w1", "3"), (3, "burnin", "5"))
        with pytest.raises(ParseError, match=rf"{path}: 3 at data row 2, column 'in_sel_w1'"):
            load_trace(path)

    def test_ragged_row_names_file_and_line(self, tmp_path):
        _, raw = self.trace_bytes(tmp_path)
        lines = raw.split(b"\r\n")
        lines[3] = lines[3].rsplit(b",", 1)[0]
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\r\n".join(lines))
        # Six preamble lines, the header, then data rows: lines[3] is the file's tenth line.
        with pytest.raises(ParseError, match=rf"{path}:10: 12 cells where the header has 13"):
            load_trace(path)

    def test_file_cut_short_names_file_and_line(self, tmp_path):
        _, raw = self.trace_bytes(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_bytes(raw[:-2])
        with pytest.raises(ParseError, match=rf"{path}:13: last line has no line ending"):
            load_trace(path)

    def test_sweep_index_past_int64_is_a_parse_error(self, tmp_path):
        _, raw = self.trace_bytes(tmp_path)
        lines = raw.split(b"\r\n")
        lines[2] = b"9223372036854775808" + lines[2][lines[2].index(b","):]
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError, match=rf"{path}: "):
            load_trace(path)

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_non_integer_shape_names_the_file_and_key(self, tmp_path, key):
        _, raw = self.trace_bytes(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_bytes(raw.replace(f"# {key} = 2\n".encode(), f"# {key} = two\n".encode(), 1))
        with pytest.raises(ParseError, match=rf"{path}: trace metadata {key} = 'two' is not an integer"):
            load_trace(path)

    def test_header_only_trace_has_no_records(self, tmp_path):
        _, raw = self.trace_bytes(tmp_path)
        path = tmp_path / "trace.csv"
        path.write_bytes(raw.split(b"\r\n", 1)[0] + b"\r\n\r\n")
        with pytest.raises(ParseError, match=rf"{path} contains no sweep records"):
            load_trace(path)

    def test_diagnostics_writer(self, tmp_path):
        ds = make_dataset(n=20, seed=9)
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=10, burn_in=0, seed=3, chains=1))
        path = tmp_path / "diag.csv"
        write_diagnostics(diagnostics_series(out), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("sweep,running_size_selection")
        assert len(lines) == 11


class TestGoldenBytes:
    """The exact bytes of the three run outputs (C9 at unit level): ``# ``
    preamble lines end in ``\\n``, CSV rows in ``\\r\\n``; reals carry
    17 significant digits in traces and 6 decimals elsewhere."""

    TRACE = (
        b"# tbma-trace-v1\n# chain_id = 4\n# p = 2\n# q = 2\n"
        b"# dataset_fingerprint = abc123\n# config_fingerprint = def456\n"
        b'sweep,burnin,accepted,gamma,phi,in_sel_(intercept),in_sel_w 1,"in_out_x,1",in_out_x2,'
        b'coef_sel_(intercept),coef_sel_w 1,"coef_out_x,1",coef_out_x2\r\n'
        b"1,1,0,0,1,1,0,1,1,0.5,0,0.30000000000000004,-2\r\n"
        b"2,0,1,-0.10000000000000001,1.5,1,1,1,0,-1.25,0.33333333333333331,1e-300,0\r\n"
        b"3,0,0,0.20000000000000001,0.66666666666666663,1,1,0,0,0.75,25000000000,0,0\r\n"
    )
    DIAGNOSTICS = (
        b"sweep,running_size_selection,running_size_outcome,cumulative_jump_rate\r\n"
        b"1,1.000000,2.000000,0.000000\r\n"
        b"2,1.500000,1.500000,0.500000\r\n"
        b"3,1.666667,1.000000,0.333333\r\n"
    )
    SUMMARY = (
        b"covariate,equation,incl_prob,post_mean,post_sd,cond_mean,cond_sd\r\n"
        b'"x,1",outcome,0.500000,0.000000,0.000000,0.000000,0.000000\r\n'
        b"x2,outcome,0.000000,0.000000,0.000000,,\r\n"
        b"(intercept),selection,1.000000,-0.250000,1.414214,-0.250000,1.414214\r\n"
        b"w 1,selection,1.000000,12500000000.166666,17677669529.427986,"
        b"12500000000.166666,17677669529.427986\r\n"
    )

    @staticmethod
    def output():
        return ChainOutput(
            column_names_w=(INTERCEPT_NAME, "w 1"),
            column_names_x=("x,1", "x2"),
            sweeps=np.array([1, 2, 3]),
            is_burnin=np.array([True, False, False]),
            models=np.array([[1, 0, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0]], dtype=bool),
            psis=np.array([
                [0.5, 0.0, 0.1 + 0.2, -2.0],
                [-1.25, 1 / 3, 1e-300, 0.0],
                [0.75, 2.5e10, 0.0, 0.0],
            ]),
            gammas=np.array([0.0, -0.1, 0.2]),
            phis=np.array([1.0, 1.5, 2 / 3]),
            accepted=np.array([False, True, False]),
            chain_id=4,
            dataset_fingerprint="abc123",
            config_fingerprint="def456",
        )

    def test_writers_emit_pinned_bytes(self, tmp_path):
        out = self.output()
        write_trace(out, tmp_path / "trace.csv")
        write_diagnostics(diagnostics_series(out), tmp_path / "diagnostics.csv")
        write_summary(posterior_summaries(out), tmp_path / "summary.csv")
        assert (tmp_path / "trace.csv").read_bytes() == self.TRACE
        assert (tmp_path / "diagnostics.csv").read_bytes() == self.DIAGNOSTICS
        assert (tmp_path / "summary.csv").read_bytes() == self.SUMMARY


# Cells may hold the CSV delimiter, quotes, spaces, line breaks and the
# preamble's own marks; preamble text stays on one line.
_CELL = st.text(alphabet='ab z,"\'#=\n\r', max_size=6)
_KEY = st.text(alphabet="ab z#", max_size=5)
_VALUE = st.text(alphabet="ab z=#,", max_size=6)


@st.composite
def _tagged_tables(draw):
    # A header whose first name starts with '#' would read as a preamble line.
    header = draw(st.lists(_CELL, min_size=1, max_size=4).filter(lambda h: not h[0].startswith("#")))
    rows = draw(st.lists(st.lists(_CELL, min_size=len(header), max_size=len(header)), max_size=4))
    pairs = draw(st.lists(st.tuples(_KEY, _VALUE), max_size=3))
    tags = draw(st.lists(st.text(alphabet="ab z#-", max_size=6), max_size=2))
    preamble = draw(st.permutations(tags + [f"{key} = {value}" for key, value in pairs]))
    return header, rows, preamble


class TestTaggedCsv:
    @settings(max_examples=200, deadline=None)
    @given(table=_tagged_tables())
    def test_round_trip(self, tmp_path_factory, table):
        header, rows, preamble = table
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_csv(path, header, iter(rows), preamble)
        meta, header_back, rows_back = read_tagged_csv(path)
        expected = {}
        for entry in preamble:
            if "=" in entry:
                key, _, value = entry.partition("=")
                expected[key.strip()] = value.strip()
        assert meta == expected
        assert header_back == header
        assert rows_back == rows

    def test_ragged_row_names_file_and_line(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", ["# a = 1", "", "h1,h2", "1,2", "", "3", "4,5"])
        with pytest.raises(ParseError, match=rf"{path}:6: 1 cells where the header has 2"):
            read_tagged_csv(path)

    def test_file_cut_after_a_full_row_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"# a = 1\nh1,h2\r\n1,2\r\n3,4")
        with pytest.raises(ParseError, match=rf"{path}:4: last line has no line ending"):
            read_tagged_csv(path)

    def test_preamble_without_header_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", ["# a = 1", ""])
        with pytest.raises(ParseError, match="no header row"):
            read_tagged_csv(path)


class TestConfigFiles:
    def test_read_config(self, tmp_path):
        path = write_lines(
            tmp_path / "c.cfg",
            ["# comment", "", "iterations = 500", "init = full-model", "standardize = true"],
        )
        raw = read_config(path)
        assert raw == {"iterations": "500", "init": "full-model", "standardize": "true"}

    def test_entries_remember_their_lines(self, tmp_path):
        path = write_lines(tmp_path / "c.cfg", ["# comment", "iterations = 500", "", "init = full-model"])
        raw = read_config(path)
        assert raw.where("iterations") == f"{path}:2"
        assert raw.where("init") == f"{path}:4"

    def test_duplicate_key_names_file_line_and_key(self, tmp_path):
        path = write_lines(tmp_path / "c.cfg", ["iterations = 500", "seed = 1", "iterations = 900"])
        with pytest.raises(ParseError, match=rf"{path}:3: key 'iterations' repeats line 1"):
            read_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_lines(tmp_path / "c.cfg", ["iterations 500"])
        with pytest.raises(ParseError):
            read_config(path)

    def test_parse_bool(self):
        assert parse_bool("Yes") and parse_bool("1") and parse_bool("true")
        assert not parse_bool("off")
        with pytest.raises(ParseError):
            parse_bool("maybe")


class TestStandardizationInvariance:
    def test_inclusion_probabilities_insensitive_with_matched_priors(self, tmp_path):
        # Scaling covariates and response while rescaling the coefficient
        # priors accordingly must leave inclusion behavior essentially
        # unchanged (intercept cross-terms aside).
        spec = SynthSpec(n=600, p=3, q=3, true_theta=[0.8, -0.7, 0.0], true_beta=[1.0, 0.0, 0.6],
                         gamma=0.5, phi=1.0, seed=33)
        dataset, _ = generate_synthetic(spec)
        # Put the covariates on wildly different scales before writing.
        scales_w = np.array([10.0, 0.1, 2.0])
        scales_x = np.array([0.5, 4.0, 1.0])
        raw = np.column_stack([dataset.W * scales_w, dataset.X * scales_x, dataset.y, dataset.censored])
        lines = ["w1,w2,w3,x1,x2,x3,y,censored"]
        for row in raw:
            lines.append(",".join("%.17g" % v for v in row[:-1]) + f",{int(row[-1])}")
        path = write_lines(tmp_path / "scaled.csv", lines)

        base_schema = dict(
            response="y", selection=("w1", "w2", "w3"), outcome=("x1", "x2", "x3"),
            censored="censored", add_intercept_selection=True, add_intercept_outcome=True,
        )
        config = ChainConfig(iterations=4000, burn_in=800, seed=7, chains=1)

        loaded_raw = load_csv(path, DataSchema(**base_schema))
        prior_raw = unit_prior(4, 4, Theta0=np.diag([100.0] + (25.0 / scales_w**2).tolist()),
                               B0=np.diag([100.0] + (25.0 / scales_x**2).tolist()), G0=25.0, s0=5.0, S0=5.0)
        out_raw = run_chain(loaded_raw.dataset, prior_raw, config, model_template=loaded_raw.model_template)

        loaded_std = load_csv(path, DataSchema(**base_schema, standardize=True))
        y_scale = loaded_std.standardization.y_scale
        prior_std = unit_prior(
            4, 4,
            Theta0=np.diag([100.0, 25.0, 25.0, 25.0]),
            B0=np.diag([100.0] + [25.0 / y_scale**2] * 3),
            G0=25.0 / y_scale**2, s0=5.0, S0=5.0 / y_scale**2,
        )
        out_std = run_chain(loaded_std.dataset, prior_std, config, model_template=loaded_std.model_template)

        incl_raw = np.concatenate(inclusion_probabilities(out_raw))
        incl_std = np.concatenate(inclusion_probabilities(out_std))
        assert np.all(np.abs(incl_raw - incl_std) < 0.05), (incl_raw, incl_std)
