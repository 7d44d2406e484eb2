import pytest

from tbma.cli import main
from tbma.io import load_trace, read_config


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


class TestValidate:
    def test_packaged_fixtures_pass(self, capsys):
        assert run_cli("validate") == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("[PASS]")) == 10

    def test_empty_fixture_dir_fails(self, tmp_path):
        assert run_cli("validate", "--fixtures-dir", tmp_path) == 1


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

    def test_wrong_theta_length_exits_2(self, tmp_path):
        assert run_cli(
            "synth", "--n", 10, "--p", 2, "--q", 1, "--theta", "1",
            "--beta", "1", "--out", tmp_path / "d.csv",
        ) == 2


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
