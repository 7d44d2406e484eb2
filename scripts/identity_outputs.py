"""Write the outputs of nine fixed synthetic-data + ``tbma run`` setups and
one library-API chain, and of ``tbma summarize`` on each setup's traces, so
that two checkouts can be compared for byte-identical chains and for a trace
reader that rebuilds the same summaries:

    python3 scripts/identity_outputs.py OUTDIR

Run it once from each checkout (the package is imported from the ``src``
directory next to this script) and compare with ``diff -r OUTDIR_A OUTDIR_B``.
Every setup's files are the same at every BLAS thread count, so a run at
``OPENBLAS_NUM_THREADS=1`` and one at the default threads compare equal too.

Setups, one subdirectory each:

* ``readme``: the README example (n = 2000, 6 + 6 columns plus intercepts),
  3000 sweeps, 2 chains, 4 model moves per sweep;
* ``paper-null``: paper shape (n = 14 863, 55 + 55 columns plus intercepts,
  4 true effects per equation), null-model start, 300 sweeps;
* ``paper-full``: the same data, full-model start, 30 sweeps;
* ``paper-moves``: the same data, null-model start, 300 sweeps with 8 model
  moves each, so that thousands of toggles are scored at the paper's width;
* ``paper-large``: n = 16 000 rows of 56 + 56 columns whose first columns
  are intercepts, 12 180 of them uncensored, full-model start, 12 sweeps: past
  the sizes at which OpenBLAS threads a product;
* ``readme-prior``: the README data with forced intercepts, prior-draw start
  and a Bernoulli model prior with pi = 0.3, 2000 sweeps, 2 chains;
* ``readme-no-censoring`` and ``readme-all-censored``: the README data with
  its ``censored`` column rewritten to all 0 and to all 1, so that one row
  half of the latent draw is empty; 1000 sweeps, 2 chains, 2 model moves
  per sweep;
* ``readme-standardized``: the README data loaded with ``standardize =
  true``, so that ``standardization.csv`` is written too; 1000 sweeps,
  2 chains;
* ``dense-prior``: ``run_chain`` under prior blocks with off-diagonal
  entries, which no ``tbma run`` can build, so that the model move scores
  each toggled model whole (n = 200, 2 + 2 columns whose first columns are
  intercepts, the selection one forced in, and a Bernoulli model prior with
  pi = 0.3), 2000 sweeps with 2 model moves each; it writes its trace only.

Each setup's ``summarize/`` subdirectory holds the summary and diagnostics
that ``tbma summarize`` rebuilds from that setup's traces.

``validate/fixtures.csv`` holds the error figures that ``tbma validate``
prints for each committed fixture, as ``%.17g``, without its timings.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

README_DATA = ["--n", "2000", "--p", "6", "--q", "6", "--theta", "0.8,-0.7,0.6,0,0,0",
               "--beta", "1.0,-0.8,0.5,0,0,0", "--gamma", "0.5", "--phi", "1.0", "--seed", "1"]
PAPER_WIDTH = 55
PAPER_DATA = ["--n", "14863", "--p", str(PAPER_WIDTH), "--q", str(PAPER_WIDTH),
              "--theta=" + ",".join(["-0.5", "0.5", "-0.5", "0.4"] + ["0"] * (PAPER_WIDTH - 4)),
              "--beta=" + ",".join(["0.8", "-0.6", "0.5", "0.3"] + ["0"] * (PAPER_WIDTH - 4)),
              "--gamma", "0.5", "--seed", "7"]
# ``tbma synth`` draws no intercept, so it censors about half the rows; the
# paper-large data come from the generator with intercepts in the first
# columns, so that more rows are uncensored.
LARGE_WIDTH = 56
LARGE_SPEC = dict(n=16000, p=LARGE_WIDTH, q=LARGE_WIDTH,
                  true_theta=[1.0, -0.5, 0.5, -0.5, 0.4] + [0.0] * (LARGE_WIDTH - 5),
                  true_beta=[1.0, 0.8, -0.6, 0.5, 0.3] + [0.0] * (LARGE_WIDTH - 5),
                  gamma=0.5, phi=1.0, seed=7, intercepts=True)
DENSE_SPEC = dict(n=200, p=2, q=2, true_theta=[0.3, 0.8], true_beta=[0.5, 0.0], gamma=0.4, phi=1.0, seed=13,
                  intercepts=True)

# (name, data set, run flags, prior config lines or None)
SETUPS = (
    ("readme", "readme",
     ["--iterations", "3000", "--burn-in", "500", "--chains", "2", "--seed", "1", "--inner-model-moves", "4"], None),
    ("paper-null", "paper",
     ["--iterations", "300", "--burn-in", "100", "--chains", "1", "--seed", "3", "--init", "null-model"], None),
    ("paper-full", "paper",
     ["--iterations", "30", "--burn-in", "10", "--chains", "1", "--seed", "3", "--init", "full-model"], None),
    ("paper-moves", "paper",
     ["--iterations", "300", "--burn-in", "100", "--chains", "1", "--seed", "5", "--init", "null-model",
      "--inner-model-moves", "8"], None),
    ("paper-large", "large",
     ["--iterations", "12", "--burn-in", "2", "--chains", "1", "--seed", "3", "--init", "full-model"], None),
    ("readme-prior", "readme",
     ["--iterations", "2000", "--burn-in", "500", "--chains", "2", "--seed", "5", "--init", "prior-draw"],
     ["model_prior = bernoulli", "bernoulli_pi = 0.3"]),
    ("readme-no-censoring", "readme-flag-0",
     ["--iterations", "1000", "--burn-in", "200", "--chains", "2", "--seed", "7", "--inner-model-moves", "2"], None),
    ("readme-all-censored", "readme-flag-1",
     ["--iterations", "1000", "--burn-in", "200", "--chains", "2", "--seed", "7", "--inner-model-moves", "2"], None),
    ("readme-standardized", "readme-standardized",
     ["--iterations", "1000", "--burn-in", "200", "--chains", "2", "--seed", "11"], None),
)


def _schema(p: int, q: int, standardize: bool = False, intercepts: bool = True) -> str:
    return "\n".join([
        "response = y",
        "censored = censored",
        "selection = " + ", ".join(f"w{j}" for j in range(1, p + 1)),
        "outcome = " + ", ".join(f"x{j}" for j in range(1, q + 1)),
        f"add_intercept_selection = {str(intercepts).lower()}",
        f"add_intercept_outcome = {str(intercepts).lower()}",
    ] + ["standardize = true"] * standardize) + "\n"


def _with_flag(source: Path, target: Path, flag: str) -> None:
    """Copy the CSV ``source`` to ``target`` with every ``censored`` cell set to ``flag``."""
    with source.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    at = header.index("censored")
    for row in rows:
        row[at] = flag
    with target.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _cli(argv: list[str]) -> None:
    from tbma.cli import main

    code = main(argv)
    if code != 0:
        raise SystemExit(f"tbma {' '.join(argv)} exited with {code}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    # Relative paths keep OUTDIR's own name out of the files (the .truth header).
    os.chdir(out)
    from tbma.io import write_dataset
    from tbma.oracle import SynthSpec, generate_synthetic, run_fixture_suite

    data = {}
    for name, flags, width in (("readme", README_DATA, 6), ("paper", PAPER_DATA, PAPER_WIDTH)):
        folder = Path(f"data-{name}")
        folder.mkdir(exist_ok=True)
        _cli(["synth", *flags, "--out", str(folder / "data.csv")])
        (folder / "schema.cfg").write_text(_schema(width, width), encoding="utf-8")
        data[name] = folder
    for flag in ("0", "1"):
        folder = Path(f"data-readme-flag-{flag}")
        folder.mkdir(exist_ok=True)
        _with_flag(data["readme"] / "data.csv", folder / "data.csv", flag)
        (folder / "schema.cfg").write_text(_schema(6, 6), encoding="utf-8")
        data[f"readme-flag-{flag}"] = folder
    folder = Path("data-readme-standardized")
    folder.mkdir(exist_ok=True)
    shutil.copyfile(data["readme"] / "data.csv", folder / "data.csv")
    (folder / "schema.cfg").write_text(_schema(6, 6, standardize=True), encoding="utf-8")
    data["readme-standardized"] = folder
    folder = Path("data-large")
    folder.mkdir(exist_ok=True)
    write_dataset(generate_synthetic(SynthSpec(**LARGE_SPEC))[0], folder / "data.csv")
    (folder / "schema.cfg").write_text(_schema(LARGE_WIDTH, LARGE_WIDTH, intercepts=False), encoding="utf-8")
    data["large"] = folder

    for name, data_name, flags, prior_lines in SETUPS:
        folder = Path(name)
        folder.mkdir(exist_ok=True)
        argv_run = ["run", "--data", str(data[data_name] / "data.csv"),
                    "--schema", str(data[data_name] / "schema.cfg"), *flags, "--out-dir", str(folder)]
        if prior_lines is not None:
            prior = folder / "prior.cfg"
            prior.write_text("\n".join(prior_lines) + "\n", encoding="utf-8")
            argv_run += ["--prior-config", str(prior)]
        _cli(argv_run)
        traces = sorted(str(path) for path in folder.glob("trace_chain*.csv"))
        _cli(["summarize", "--traces", *traces, "--out-dir", str(folder / "summarize")])

    folder = Path("validate")
    folder.mkdir(exist_ok=True)
    lines = ["name,cbf_rel_err,rss_form_err"]
    lines += [f"{check.name},{check.cbf_rel_err:.17g},{check.rss_form_err:.17g}" for check in run_fixture_suite()]
    (folder / "fixtures.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _dense_prior_chain(Path("dense-prior"))
    return 0


def _dense_prior_chain(folder: Path) -> None:
    """The ``dense-prior`` setup: a chain under dense prior blocks (those of
    the ``moving-model`` case of the acceptance suite's Geweke check), run
    through the library and written as a trace."""
    from tbma.chain import ChainConfig, run_chain
    from tbma.core import ModelIndicator, ModelPrior, PriorSpec
    from tbma.io import write_trace
    from tbma.oracle import SynthSpec, generate_synthetic

    dataset = generate_synthetic(SynthSpec(**DENSE_SPEC))[0]
    prior = PriorSpec(
        theta0=np.array([0.4, -0.3]), Theta0=np.array([[0.5, 0.2], [0.2, 0.4]]),
        beta0=np.array([0.3, 0.5]), B0=np.array([[0.6, -0.25], [-0.25, 0.5]]),
        gamma0=0.2, G0=0.25, s0=12.0, S0=10.0, model_prior=ModelPrior("bernoulli", 0.3),
    )
    template = ModelIndicator.full_model(2, 2, np.array([True, False, False, False]))
    config = ChainConfig(iterations=2000, burn_in=500, seed=17, chains=1, inner_model_moves=2)
    folder.mkdir(exist_ok=True)
    write_trace(run_chain(dataset, prior, config, model_template=template), folder / "trace_chain0.csv")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
