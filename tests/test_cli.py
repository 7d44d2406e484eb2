import csv
from importlib import resources

import numpy as np
import pytest

from tbma.cli import main
from tbma.io import DataSchema, load_csv, load_trace, read_config


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def schema_file(tmp_path):
    return write(
        tmp_path / "schema.cfg",
        [
            "response = y",
            "censored = censored",
            "selection = w1, w2",
            "outcome = x1, x2",
            "add_intercept_selection = false",
            "add_intercept_outcome = false",
        ],
    )


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSynthRunSummarize:
    def test_pipeline_round_trips(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        code = run_cli(
            "synth", "--n", 400, "--p", 2, "--q", 2,
            "--theta", "1.2,0.0", "--beta", "1.5,0.0",
            "--gamma", "0.5", "--phi", "1.0", "--seed", 5, "--out", data,
        )
        assert code == 0
        truth = read_config(data.with_suffix(".csv.truth"))
        assert float(truth["theta_w1"]) == 1.2

        out_dir = tmp_path / "run"
        code = run_cli(
            "run", "--data", data, "--schema", schema_file,
            "--iterations", 800, "--burn-in", 200, "--chains", 2, "--seed", 11,
            "--out-dir", out_dir,
        )
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "trace_chain0.csv").exists()
        assert (out_dir / "diagnostics_chain1.csv").exists()

        # The strong true predictors should dominate the summary already.
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        top = {}
        for line in rows:
            cells = line.split(",")
            top[(cells[0], cells[1])] = float(cells[2])
        assert top[("x1", "outcome")] > 0.9
        assert top[("w1", "selection")] > 0.9
        assert top[("x2", "outcome")] < 0.6

        sum_dir = tmp_path / "resummarized"
        code = run_cli(
            "summarize", "--traces", out_dir / "trace_chain0.csv", out_dir / "trace_chain1.csv",
            "--out-dir", sum_dir,
        )
        assert code == 0
        assert (sum_dir / "summary.csv").read_bytes() == (out_dir / "summary.csv").read_bytes()

    def test_trace_metadata_survives(self, tmp_path, schema_file):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 50, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        out_dir = tmp_path / "run"
        run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                "--burn-in", 5, "--chains", 1, "--seed", 2, "--out-dir", out_dir)
        out = load_trace(out_dir / "trace_chain0.csv")
        assert out.kept == 20
        assert int(out.official.sum()) == 15

    def test_trace_cut_mid_row_exits_2_naming_file_and_line(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 50, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        out_dir = tmp_path / "run"
        run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                "--burn-in", 5, "--chains", 1, "--seed", 2, "--out-dir", out_dir)
        trace = out_dir / "trace_chain0.csv"
        content = trace.read_bytes()
        # An interrupted run stops inside its last row, here before that row's last cells.
        cut = content.rindex(b",", 0, content.rindex(b",", 0, len(content) - 2))
        trace.write_bytes(content[:cut])
        line = content[:cut].count(b"\n") + 1
        code = run_cli("summarize", "--traces", trace, "--out-dir", tmp_path / "s")
        assert code == 2
        assert f"{trace}:{line}: 11 cells where the header has 13" in capsys.readouterr().err


    def test_trace_cell_outside_its_domain_exits_2_naming_file_row_and_column(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 50, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        out_dir = tmp_path / "run"
        run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                "--burn-in", 5, "--chains", 1, "--seed", 2, "--out-dir", out_dir)
        trace = out_dir / "trace_chain0.csv"
        lines = trace.read_bytes().split(b"\r\n")  # lines[0] holds the preamble and header
        cells = lines[4].split(b",")
        cells[2] = b"7"  # the acceptance flag
        lines[4] = b",".join(cells)
        trace.write_bytes(b"\r\n".join(lines))
        code = run_cli("summarize", "--traces", trace, "--out-dir", tmp_path / "s")
        assert code == 2
        assert f"{trace}: 7 at data row 4, column 'accepted', is not 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_non_integer_trace_shape_exits_2_naming_file_and_key(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 50, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        out_dir = tmp_path / "run"
        run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                "--burn-in", 5, "--chains", 1, "--seed", 2, "--out-dir", out_dir)
        trace = out_dir / "trace_chain0.csv"
        trace.write_bytes(trace.read_bytes().replace(b"# p = 2\n", b"# p = two\n", 1))
        code = run_cli("summarize", "--traces", trace, "--out-dir", tmp_path / "s")
        assert code == 2
        assert f"{trace}: trace metadata p = 'two' is not an integer" in capsys.readouterr().err

    @pytest.fixture
    def two_seed_runs(self, tmp_path, schema_file):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 50, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        traces = []
        for seed in (2, 4):
            out_dir = tmp_path / f"run{seed}"
            assert run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                           "--burn-in", 5, "--chains", 1, "--seed", seed, "--out-dir", out_dir) == 0
            traces.append(out_dir / "trace_chain0.csv")
        return traces

    def test_two_traces_of_one_chain_id_exit_2_naming_both(self, tmp_path, two_seed_runs, capsys):
        first, second = two_seed_runs
        code = run_cli("summarize", "--traces", first, second, "--out-dir", tmp_path / "s")
        assert code == 2
        assert f"{first} and {second} both hold chain 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_a_trace_given_twice_exits_2(self, tmp_path, two_seed_runs, capsys):
        trace = two_seed_runs[0]
        again = trace.parent / ".." / trace.parent.name / trace.name
        for repeated in (trace, again):
            code = run_cli("summarize", "--traces", trace, repeated, "--out-dir", tmp_path / "s")
            assert code == 2
            assert f"{trace} and {repeated} are the same trace" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestStandardization:
    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 80, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        return data

    def test_run_writes_the_loader_transforms(self, tmp_path, data):
        schema = write(tmp_path / "schema.cfg", [
            "response = y", "censored = censored", "selection = w1, w2", "outcome = x2",
            "standardize = true",
        ])
        out_dir = tmp_path / "run"
        assert run_cli("run", "--data", data, "--schema", schema, "--iterations", 10,
                       "--burn-in", 2, "--chains", 1, "--out-dir", out_dir) == 0
        with (out_dir / "standardization.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["equation", "column", "center", "scale"]
        tr = load_csv(data, DataSchema(
            response="y", censored="censored", selection=("w1", "w2"), outcome=("x2",), standardize=True,
        )).standardization
        assert [row[:2] for row in rows] == [
            ["selection", "(intercept)"], ["selection", "w1"], ["selection", "w2"],
            ["outcome", "(intercept)"], ["outcome", "x2"], ["response", "y"],
        ]
        values = np.array([[float(row[2]), float(row[3])] for row in rows])
        assert np.array_equal(values[:3], np.column_stack([tr.w_center, tr.w_scale]))
        assert np.array_equal(values[3:5], np.column_stack([tr.x_center, tr.x_scale]))
        assert np.array_equal(values[5], [tr.y_center, tr.y_scale])
        assert values[0].tolist() == values[3].tolist() == [0.0, 1.0]

    def test_run_without_standardize_writes_no_transforms(self, tmp_path, schema_file, data):
        out_dir = tmp_path / "run"
        assert run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 10,
                       "--burn-in", 2, "--chains", 1, "--out-dir", out_dir) == 0
        assert (out_dir / "summary.csv").exists()
        assert not (out_dir / "standardization.csv").exists()


@pytest.fixture
def readme_data(tmp_path):
    """The README example's data: n = 2000 rows, 6 + 6 columns."""
    data = tmp_path / "data.csv"
    run_cli("synth", "--n", 2000, "--p", 6, "--q", 6, "--theta", "0.8,-0.7,0.6,0,0,0",
            "--beta", "1.0,-0.8,0.5,0,0,0", "--gamma", 0.5, "--phi", 1.0, "--seed", 1, "--out", data)
    return data


def edited_copy(data, out, edit):
    """A copy of the CSV ``data`` at ``out``, after ``edit(header, rows)``
    changed its cells in place."""
    with data.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    edit(header, rows)
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return out


def scaled_copy(data, out, column, factor):
    """A copy of the CSV ``data`` at ``out`` with ``column`` multiplied by ``factor``."""
    def edit(header, rows):
        at = header.index(column)
        for row in rows:
            row[at] = repr(float(row[at]) * factor)
    return edited_copy(data, out, edit)


def run_short(tmp_path, data, schema, capsys, tag):
    """What a 10-sweep, one-chain ``tbma run`` printed; it must exit 0."""
    capsys.readouterr()
    code = run_cli("run", "--data", data, "--schema", schema, "--iterations", 10, "--burn-in", 2,
                   "--chains", 1, "--out-dir", tmp_path / tag)
    assert code == 0
    return capsys.readouterr()


def readme_schema(tmp_path, standardize=False, tag="readme"):
    return write(tmp_path / f"schema-{tag}.cfg", [
        "response = y", "censored = censored", "selection = " + ", ".join(f"w{j}" for j in range(1, 7)),
        "outcome = " + ", ".join(f"x{j}" for j in range(1, 7)), f"standardize = {str(standardize).lower()}",
    ])


class TestScaleWarning:
    """``tbma run`` on unstandardized data warns, on stderr only, about each
    covariate whose implied coefficient scale is far from its prior sd."""

    @staticmethod
    def run(tmp_path, data, capsys, standardize, tag):
        return run_short(tmp_path, data, readme_schema(tmp_path, standardize, tag), capsys, tag)

    def test_response_far_from_the_prior_scale_warns_naming_each_outcome_column(
        self, tmp_path, readme_data, capsys
    ):
        scaled = scaled_copy(readme_data, tmp_path / "scaled.csv", "y", 1e8)
        captured = self.run(tmp_path, scaled, capsys, False, "scaled")
        lines = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert [line.split("'")[1] for line in lines] == [f"x{j}" for j in range(1, 7)]
        for line in lines:
            assert line.startswith("warning: outcome covariate 'x")
            ratio = float(line.split("scale is ")[1].split(" times")[0])
            assert 1e6 < ratio < 1e8
        assert "warning" not in captured.out

    def test_readme_example_and_standardized_data_do_not_warn(self, tmp_path, readme_data, capsys):
        assert "warning" not in self.run(tmp_path, readme_data, capsys, False, "readme").err
        scaled = scaled_copy(readme_data, tmp_path / "scaled.csv", "y", 1e8)
        assert "warning" not in self.run(tmp_path, scaled, capsys, True, "standardized").err

    def test_selection_covariate_of_tiny_spread_warns(self, tmp_path, readme_data, capsys):
        data = scaled_copy(readme_data, tmp_path / "narrow.csv", "w2", 1e-5)
        err = self.run(tmp_path, data, capsys, False, "narrow").err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and warnings[0].startswith("warning: selection covariate 'w2': ")


class TestSeparationWarning:
    """``tbma run`` warns, on stderr only, about each selection column whose
    values on the censored rows all lie on one side of its values on the
    uncensored rows, and runs the chains all the same."""

    @staticmethod
    def run(tmp_path, data, schema, capsys, tag):
        captured = run_short(tmp_path, data, schema, capsys, tag)
        assert "separates" not in captured.out
        return [line for line in captured.err.splitlines() if "separates" in line]

    @staticmethod
    def separating(tied):
        """Rewrite w4 as s (0.5 + U), s = +1 on uncensored and -1 on censored
        rows; when ``tied``, the first censored row takes the smallest
        uncensored value instead."""
        def edit(header, rows):
            at, flag = header.index("w4"), header.index("censored")
            gen = np.random.default_rng(5)
            for row in rows:
                sign = -1.0 if row[flag] == "1" else 1.0
                row[at] = repr(sign * (0.5 + gen.random()))
            if tied:
                low = min((row[at] for row in rows if row[flag] == "0"), key=float)
                next(row for row in rows if row[flag] == "1")[at] = low
        return edit

    @pytest.mark.parametrize("tied", [False, True], ids=["complete", "quasi-complete"])
    def test_a_separating_selection_column_warns_naming_it(self, tmp_path, readme_data, capsys, tied):
        data = edited_copy(readme_data, tmp_path / "separated.csv", self.separating(tied))
        for standardize in (False, True):
            tag = f"run-{standardize}"
            lines = self.run(tmp_path, data, readme_schema(tmp_path, standardize, tag), capsys, tag)
            assert len(lines) == 1
            assert lines[0].startswith("warning: selection covariate 'w4' separates the censored")
            assert "drop or merge the column, or set a tighter Theta0_scale" in lines[0]

    def test_readme_and_paper_shape_data_do_not_warn(self, tmp_path, readme_data, capsys):
        assert "warning" not in run_short(tmp_path, readme_data, readme_schema(tmp_path), capsys, "readme").err
        data = tmp_path / "paper.csv"
        width = 56
        run_cli("synth", "--n", 14863, "--p", width, "--q", width,
                "--theta=" + ",".join(["-0.5", "0.5", "-0.5", "0.4"] + ["0"] * (width - 4)),
                "--beta=" + ",".join(["0.8", "-0.6", "0.5", "0.3"] + ["0"] * (width - 4)),
                "--gamma", 0.5, "--seed", 7, "--out", data)
        schema = write(tmp_path / "schema-paper.cfg", [
            "response = y", "censored = censored", "selection = " + ", ".join(f"w{j}" for j in range(1, width + 1)),
            "outcome = " + ", ".join(f"x{j}" for j in range(1, width + 1)),
        ])
        assert "warning" not in run_short(tmp_path, data, schema, capsys, "paper").err


class TestCollinearColumns:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_duplicated_columns_in_both_designs_run_to_finite_traces(self, tmp_path, readme_data, capsys):
        # Under the proper default prior the coefficient precision stays
        # positive definite although each design is rank deficient.
        def edit(header, rows):
            for copy, source in (("w2", "w1"), ("x2", "x1")):
                at, source_at = header.index(copy), header.index(source)
                for row in rows:
                    row[at] = row[source_at]

        data = edited_copy(readme_data, tmp_path / "collinear.csv", edit)
        out_dir = tmp_path / "run"
        code = run_cli("run", "--data", data, "--schema", readme_schema(tmp_path), "--iterations", 300,
                       "--burn-in", 100, "--chains", 2, "--inner-model-moves", 4, "--seed", 3, "--out-dir", out_dir)
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        for cid in range(2):
            trace = load_trace(out_dir / f"trace_chain{cid}.csv")
            assert trace.kept == 300
            for values in (trace.psis, trace.gammas, trace.phis):
                assert np.all(np.isfinite(values))
            assert np.all(trace.phis > 0.0)


class TestValidate:
    def test_packaged_fixtures_pass(self, capsys):
        assert run_cli("validate") == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("[PASS]")) == 10

    def test_empty_fixture_dir_fails(self, tmp_path):
        assert run_cli("validate", "--fixtures-dir", tmp_path) == 1

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("ragged row", "{path}:13: 6 cells where the header has 7"),
            ("cut short", "{path}:26: last line has no line ending; the file is cut short"),
            ("underscore cell", "{path}: '1_0' at data row 3, column 'w1', is not a number\n"),
            ("flag of 2", "{path}: 2 at data row 2, column 'censored', is not 0 or 1\n"),
            ("non-finite cell", "{path}: nan at data row 4, column 'z', is not finite\n"),
            ("missing key", "fixture {path} has no metadata entry 'model_a_w'"),
            ("non-numeric value", "fixture {path}: metadata gamma = 'abc' is not a number\n"),
        ],
    )
    def test_bad_fixture_exits_2_naming_the_file(self, tmp_path, capsys, fault, message):
        raw = (resources.files("tbma") / "fixtures" / "fixture_01.csv").read_bytes()
        lines = raw.split(b"\n")  # ten preamble lines, the header, then the data rows
        if fault == "ragged row":
            lines[12] = lines[12].rsplit(b",", 1)[0]
        elif fault == "underscore cell":
            lines[13] = b"1_0" + lines[13][lines[13].index(b","):]
        elif fault in ("flag of 2", "non-finite cell"):
            row, column, cell = (12, 5, b"2") if fault == "flag of 2" else (14, 6, b"nan")
            cells = lines[row].rstrip(b"\r").split(b",")
            cells[column] = cell
            lines[row] = b",".join(cells) + b"\r"
        elif fault == "missing key":
            lines.remove(b"# model_a_w = 10")
        elif fault == "non-numeric value":
            lines[lines.index(b"# gamma = 0.0")] = b"# gamma = abc"
        raw = b"\n".join(lines)
        if fault == "cut short":
            raw = raw[:-1]
        path = tmp_path / "fixture_01.csv"
        path.write_bytes(raw)
        assert run_cli("validate", "--fixtures-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path))


class TestErrorPaths:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli("run", "--bogus") == 2

    def test_unknown_command_exits_2(self):
        assert run_cli("transmogrify") == 2

    def test_burn_in_not_below_iterations_exits_2(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 30, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        code = run_cli(
            "run", "--data", data, "--schema", schema_file,
            "--iterations", 50, "--burn-in", 50, "--out-dir", tmp_path / "x",
        )
        assert code == 2
        assert "burn_in" in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path, schema_file):
        assert run_cli(
            "run", "--data", tmp_path / "nope.csv", "--schema", schema_file,
            "--iterations", 10, "--burn-in", 1, "--out-dir", tmp_path / "o",
        ) == 2

    @pytest.mark.parametrize(
        "flag, lines, message",
        [
            ("--config", ["iterations = 20", "burnin = 5000"], "typo.cfg:2: unknown key 'burnin'"),
            ("--config", ["seed = 1", "", "seed = 2"], "typo.cfg:3: key 'seed' repeats line 1"),
            ("--prior-config", ["G0 = 10", "model_prior = bernouli"],
             "typo.cfg:2: key 'model_prior': unknown model prior kind 'bernouli'"),
            ("--prior-config", ["bernoulli_p = 0.2"], "typo.cfg:1: unknown key 'bernoulli_p'"),
            ("--prior-config", ["G0 = 10", "theta0 = abc"],
             "typo.cfg:2: key 'theta0': could not convert string to float: 'abc'"),
            ("--prior-config", ["Theta0_scale = -1"],
             "typo.cfg:1: key 'Theta0_scale': Theta0 must be positive definite"),
        ],
    )
    def test_config_typo_exits_2_naming_file_line_and_key(
        self, tmp_path, schema_file, capsys, flag, lines, message
    ):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 30, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        config = write(tmp_path / "typo.cfg", lines)
        code = run_cli(
            "run", "--data", data, "--schema", schema_file, flag, config,
            "--iterations", 10, "--burn-in", 1, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejected_run_config_value_names_file_line_and_key(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 30, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        config = write(tmp_path / "run.cfg", ["seed = 4", "burn_in = 20000"])
        code = run_cli(
            "run", "--data", data, "--schema", schema_file, "--config", config,
            "--iterations", 10, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert f"{config}:2: key 'burn_in': burn_in must satisfy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_thin_storing_no_post_burn_in_sweep_exits_2_before_any_chain(self, tmp_path, schema_file, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 200, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        config = write(tmp_path / "run.cfg", ["iterations = 100", "burn_in = 90", "thin = 20", "chains = 2"])
        code = run_cli(
            "run", "--data", data, "--schema", schema_file, "--config", config, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert f"{config}:3: key 'thin': thin must be at most iterations - burn_in = 10" in capsys.readouterr().err
        assert not list(tmp_path.glob("o/trace_chain*.csv"))

    def test_short_data_row_exits_2_naming_row_and_column(self, tmp_path, capsys):
        data = write(tmp_path / "short.csv", ["y,censored,w1,x1", "1.5,1,0.3,0.2", "2.0,0,0.1"])
        schema = write(tmp_path / "schema.cfg", [
            "response = y", "censored = censored", "selection = w1", "outcome = x1",
        ])
        code = run_cli("run", "--data", data, "--schema", schema, "--iterations", 10,
                       "--burn-in", 1, "--out-dir", tmp_path / "o")
        assert code == 2
        assert f"{data}: row 2 has 3 cells and lacks column 'x1'" in capsys.readouterr().err

    def test_bad_data_cell_exits_2_naming_file_row_and_column(self, tmp_path, schema_file, capsys):
        data = write(tmp_path / "bad.csv", ["w1,w2,x1,x2,y,censored", "0.1,0.2,0.3,0.4,1.5,0", "0.1,n/a,0.3,0.4,1.5,0"])
        code = run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 10,
                       "--burn-in", 1, "--out-dir", tmp_path / "o")
        assert code == 2
        assert f"{data}: non-numeric value 'n/a' at row 2, column 'w2'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("column", ["w2", "y"])
    def test_non_finite_data_cell_exits_2_naming_file_row_and_column(self, tmp_path, schema_file, capsys, raw, column):
        header = ["w1", "w2", "x1", "x2", "y", "censored"]
        bad = ["0.1", "0.2", "0.3", "0.4", "1.5", "0"]
        bad[header.index(column)] = raw
        data = write(tmp_path / "bad.csv", [",".join(header), "0.1,0.2,0.3,0.4,1.5,0", "0.5,0.1,0.3,0.4,0,1",
                                            ",".join(bad)])
        code = run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 10,
                       "--burn-in", 1, "--out-dir", tmp_path / "o")
        assert code == 2
        assert f"{data}: non-finite value '{raw}' at row 3, column '{column}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_header_only_csv_exits_2_naming_the_file(self, tmp_path, schema_file, capsys):
        data = write(tmp_path / "empty.csv", ["w1,w2,x1,x2,y,censored"])
        code = run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 10,
                       "--burn-in", 1, "--out-dir", tmp_path / "o")
        assert code == 2
        assert f"{data} has no data rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_all_censored_csv_warns_on_stderr(self, tmp_path, schema_file, capsys):
        data = write(tmp_path / "censored.csv", [
            "w1,w2,x1,x2,y,censored",
            *(f"{0.1 * i},{-0.2 * i},{0.3 * i},{0.05 * i},0,1" for i in range(12)),
        ])
        code = run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                       "--burn-in", 5, "--chains", 1, "--out-dir", tmp_path / "o")
        assert code == 0
        err = capsys.readouterr().err
        assert f"warning: every row of {data} is censored" in err
        assert "only echo their priors" in err
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_all_censored_warning_names_the_forced_selection_column(self, tmp_path, capsys):
        schema = write(tmp_path / "schema.cfg", [
            "response = y", "censored = censored", "selection = w1, w2", "outcome = x1, x2",
        ])
        data = write(tmp_path / "censored.csv", [
            "w1,w2,x1,x2,y,censored",
            *(f"{0.1 * i},{-0.2 * i},{0.3 * i},{0.05 * i},0,1" for i in range(12)),
        ])
        code = run_cli("run", "--data", data, "--schema", schema, "--iterations", 20,
                       "--burn-in", 5, "--chains", 1, "--out-dir", tmp_path / "o")
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: every row of {data} is censored, so the outcome equation's inclusion probabilities "
            "and coefficients, gamma and phi only echo their priors; nothing in the data bounds the forced "
            "selection column '(intercept)' from below, so it drifts into its prior's lower tail"
        ]
        assert "warning:" not in captured.out

    def test_no_censored_row_warns_that_only_gamma_squared_plus_phi_is_identified(
        self, tmp_path, schema_file, capsys
    ):
        data = write(tmp_path / "selected.csv", [
            "w1,w2,x1,x2,y,censored",
            *(f"{0.1 * i},{-0.2 * i},{0.3 * i},{0.05 * i},{0.4 * i - 2},0" for i in range(12)),
        ])
        code = run_cli("run", "--data", data, "--schema", schema_file, "--iterations", 20,
                       "--burn-in", 5, "--chains", 1, "--out-dir", tmp_path / "o")
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: no row of {data} is censored, so only gamma^2 + phi is identified: the selection "
            "equation's coefficients and inclusion probabilities, and gamma and phi taken separately, "
            "only echo their priors"
        ]
        assert "warning:" not in captured.out
        assert (tmp_path / "o" / "summary.csv").exists()

    def test_schema_typo_exits_2(self, tmp_path, capsys):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 30, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        schema = write(tmp_path / "schema.cfg", [
            "response = y", "censored = censored", "selection = w1, w2", "outcome = x1, x2",
            "add_intercept_selction = false",
        ])
        code = run_cli("run", "--data", data, "--schema", schema, "--iterations", 10,
                       "--burn-in", 1, "--out-dir", tmp_path / "o")
        assert code == 2
        assert f"{schema}:5: unknown key 'add_intercept_selction'" in capsys.readouterr().err

    def test_column_named_like_the_added_intercept_exits_2(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", ["y,censored,(intercept),x", "1.5,0,1,0.2", "0,1,1,0.4", "2.5,0,1,-0.1"])
        schema = write(tmp_path / "schema.cfg", [
            "response = y", "censored = censored", "selection = (intercept), x", "outcome = x",
        ])
        code = run_cli("run", "--data", data, "--schema", schema, "--iterations", 10,
                       "--burn-in", 1, "--out-dir", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "selection column '(intercept)' has the name of the intercept that add_intercept_selection adds" in err
        assert "set add_intercept_selection = false" in err
        assert not (tmp_path / "o").exists()

    def test_wrong_theta_length_exits_2(self, tmp_path):
        assert run_cli(
            "synth", "--n", 10, "--p", 2, "--q", 1, "--theta", "1",
            "--beta", "1", "--out", tmp_path / "d.csv",
        ) == 2

    SYNTH_FAULTS = [
        ("--n", "0", "n must be at least 1, got 0"),
        ("--n", "-5", "n must be at least 1, got -5"),
        ("--p", "-1", "p must be at least 0, got -1"),
        ("--q", "-3", "q must be at least 0, got -3"),
        ("--phi", "nan", "phi must be positive and finite, got nan"),
        ("--phi", "inf", "phi must be positive and finite, got inf"),
        ("--gamma", "nan", "gamma must be finite, got nan"),
        ("--theta", "1,inf", "true_theta must be finite, got [1.0, inf]"),
        ("--beta", "nan,0", "true_beta must be finite, got [nan, 0.0]"),
        ("--beta", "1", "true_beta must hold q = 2 values, got 1"),
        ("--seed", "-1", "seed must fit in an unsigned 64-bit integer"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag,value,message", SYNTH_FAULTS, ids=[f"{f[2:]}={v}" for f, v, _ in SYNTH_FAULTS])
    def test_degenerate_synth_input_exits_2_naming_the_field(self, tmp_path, capsys, flag, value, message):
        given = {"--n": "10", "--p": "2", "--q": "2", "--theta": "1,0", "--beta": "1,0", flag: value}
        assert run_cli("synth", *[part for pair in given.items() for part in pair], "--out", tmp_path / "d.csv") == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


class TestSeedPrecedence:
    def test_env_seed_is_lowest_precedence(self, tmp_path, schema_file, monkeypatch):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 40, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)

        def run_with(seed_args, env=None, tag=""):
            if env is not None:
                monkeypatch.setenv("TBMA_SEED", env)
            else:
                monkeypatch.delenv("TBMA_SEED", raising=False)
            out_dir = tmp_path / f"out{tag}"
            assert run_cli(
                "run", "--data", data, "--schema", schema_file, "--iterations", 15,
                "--burn-in", 2, "--chains", 1, "--out-dir", out_dir, *seed_args,
            ) == 0
            return (out_dir / "trace_chain0.csv").read_bytes()

        from_env = run_with([], env="99", tag="a")
        from_flag = run_with(["--seed", "99"], env="123", tag="b")
        assert from_env == from_flag  # flag wins over env, same effective seed

        config = write(tmp_path / "run.cfg", ["seed = 99"])
        from_config = run_with(["--config", config], env="123", tag="c")
        assert from_config == from_flag  # config wins over env too

    @pytest.mark.parametrize("value", ["abc", "-1", str(2**64)])
    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_bad_env_seed_exits_2_naming_the_variable(self, tmp_path, schema_file, monkeypatch, capsys, command, value):
        data = tmp_path / "synth.csv"
        run_cli("synth", "--n", 40, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                "--seed", 3, "--out", data)
        monkeypatch.setenv("TBMA_SEED", value)
        if command == "run":
            argv = ["run", "--data", data, "--schema", schema_file, "--iterations", 15,
                    "--burn-in", 2, "--chains", 1, "--out-dir", tmp_path / "out"]
        else:
            argv = ["synth", "--n", 40, "--p", 2, "--q", 2, "--theta", "1,0", "--beta", "1,0",
                    "--out", tmp_path / "again.csv"]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert f"error: TBMA_SEED={value!r}: the seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "again.csv").exists()
