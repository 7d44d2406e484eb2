"""The four workloads: seeded inputs written as files, the user job run on
them through the library calls the ``tbma`` command makes, and the checks
of that job's outputs.

Why each workload exists:

* ``paper-sparse``: the paper's shape (n = 14 863, 56 + 56 columns with
  forced intercepts), 3 true effects per equation besides the intercept and
  a null-model start.  Models stay near d = 8, so the latent draw and the
  O(n (p + q)) products carry the sweep.
* ``paper-dense``: the same shape with 40 of the 55 free covariates per
  equation carrying effects of 0.1-0.3, started at the full model.  The
  chain spends the run at d = 100-112 on its way down to about 82, so the
  model move's d x d factorisations carry the sweep.  The selection
  intercept of 0.5 keeps the uncensored row count near 9 200 for every
  seed, clear of the size (8 229 rows x 56 columns) at which this OpenBLAS
  build starts threading matrix-vector products; at 0.2 the count straddled
  it and the sweep cost jumped between seeds by a factor of 2.5.
* ``small-mc3x4``: the README example (n = 2 000, 6 + 6) with four model
  moves per sweep at d <= 12, so per-call overhead in the model move, not
  flops, carries the sweep.  Gamma mixes fast enough here for ESS per
  second to be steady run to run.
* ``summarize-wide``: the ``tbma summarize`` path plus re-emitting two
  paper-width traces.  Trace load and write carry the job and the sampler
  is idle; it is read-heavy where the others are write-heavy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tbma import chain as chain_mod
from tbma import io as io_mod
from tbma.chain import ChainConfig, ChainOutput
from tbma.oracle import SynthSpec, generate_synthetic

N_PAPER = 14_863
ERROR_GAMMA = 0.5
ERROR_PHI = 1.0
# Recovery: the conditional mean of every true effect lies this close to it.
TRUE_COEF_TOL = 0.15

# summarize-wide: two generated traces of SUMMARIZE_ROWS records at paper
# width, with SUMMARIZE_INCL_RATE of the free coefficients included.
SUMMARIZE = "summarize-wide"
SUMMARIZE_WIDTH = 56
SUMMARIZE_ROWS = 5_000
SUMMARIZE_BURN_IN = 500
SUMMARIZE_INCL_RATE = 0.75


@dataclass(frozen=True)
class SamplerWorkload:
    """A ``tbma run`` job with one chain on a generated CSV.

    ``width`` counts the generated columns of each design; with
    ``intercepts`` the first one is the constant that the loader re-adds as a
    forced-in column.
    The recovery thresholds apply to the post-burn-in sample pooled over
    every job of a run.
    """

    name: str
    n: int
    width: int
    intercepts: bool
    dense: bool
    iterations: int
    burn_in: int
    inner_model_moves: int
    init: str
    min_true_incl: float
    max_null_incl_mean: float
    null_coef_tol: float

    def truth(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        theta, beta = np.zeros(self.width), np.zeros(self.width)
        if self.dense:
            rng = np.random.default_rng([seed, 1])
            theta[0], beta[0] = 0.5, 0.5
            for coef in (theta, beta):
                picked = rng.choice(np.arange(1, coef.size), 40, replace=False)
                coef[picked] = rng.uniform(0.1, 0.3, 40) * rng.choice([-1.0, 1.0], 40)
        elif self.intercepts:
            theta[:4] = (-0.5, 0.5, -0.5, 0.4)
            beta[:4] = (0.8, -0.6, 0.5, 0.3)
        else:
            theta[:3] = (0.8, -0.7, 0.6)
            beta[:3] = (1.0, -0.8, 0.5)
        return theta, beta

    def config(self, chain_seed: int) -> ChainConfig:
        return ChainConfig(
            iterations=self.iterations,
            burn_in=self.burn_in,
            seed=chain_seed,
            chains=1,
            inner_model_moves=self.inner_model_moves,
            init=self.init,
        )


SAMPLER_WORKLOADS = {
    w.name: w
    for w in (
        SamplerWorkload(
            name="paper-sparse",
            n=N_PAPER, width=56, intercepts=True, dense=False,
            iterations=800, burn_in=400, inner_model_moves=1, init="null-model",
            min_true_incl=0.3, max_null_incl_mean=0.05, null_coef_tol=0.05,
        ),
        SamplerWorkload(
            name="paper-dense",
            n=N_PAPER, width=56, intercepts=True, dense=True,
            iterations=100, burn_in=50, inner_model_moves=1, init="full-model",
            min_true_incl=0.5, max_null_incl_mean=0.8, null_coef_tol=0.05,
        ),
        SamplerWorkload(
            name="small-mc3x4",
            n=2_000, width=6, intercepts=False, dense=False,
            iterations=1_500, burn_in=150, inner_model_moves=4, init="null-model",
            min_true_incl=0.9, max_null_incl_mean=0.2, null_coef_tol=0.15,
        ),
    )
}
WORKLOAD_NAMES = (*SAMPLER_WORKLOADS, SUMMARIZE)


# ---------------------------------------------------------------------------
# Inputs


@dataclass(frozen=True)
class SamplerInputs:
    csv_path: Path
    schema: io_mod.DataSchema
    truth_psi: np.ndarray  # stacked (theta, beta) in loaded column order


def make_sampler_inputs(workload: SamplerWorkload, seed: int, work: Path) -> SamplerInputs:
    theta, beta = workload.truth(seed)
    dataset, _ = generate_synthetic(
        SynthSpec(
            n=workload.n, p=workload.width, q=workload.width, true_theta=theta, true_beta=beta,
            gamma=ERROR_GAMMA, phi=ERROR_PHI, seed=seed, intercepts=workload.intercepts,
        )
    )
    csv_path = work / "data.csv"
    io_mod.write_dataset(dataset, csv_path)
    # The constant first columns are dropped from the schema; the loader adds
    # them back as forced-in intercepts in the same position.
    skip = 1 if workload.intercepts else 0
    schema = io_mod.DataSchema(
        response="y",
        censored="censored",
        selection=dataset.column_names_w[skip:],
        outcome=dataset.column_names_x[skip:],
        add_intercept_selection=workload.intercepts,
        add_intercept_outcome=workload.intercepts,
    )
    return SamplerInputs(csv_path, schema, np.concatenate([theta, beta]))


def make_summarize_inputs(seed: int, work: Path) -> list[tuple[Path, ChainOutput]]:
    """Two paper-width chains of synthetic records, written as traces."""
    rng = np.random.default_rng([seed, 2])
    names_w = (io_mod.INTERCEPT_NAME,) + tuple(f"w{j}" for j in range(2, SUMMARIZE_WIDTH + 1))
    names_x = (io_mod.INTERCEPT_NAME,) + tuple(f"x{j}" for j in range(2, SUMMARIZE_WIDTH + 1))
    pq = 2 * SUMMARIZE_WIDTH
    rows = SUMMARIZE_ROWS
    inputs = []
    for chain_id in range(2):
        models = rng.uniform(size=(rows, pq)) < SUMMARIZE_INCL_RATE
        models[:, [0, SUMMARIZE_WIDTH]] = True
        psis = np.where(models, rng.normal(0.0, 0.5, size=(rows, pq)), 0.0)
        sweeps = np.arange(rows, dtype=np.int64)
        output = ChainOutput(
            column_names_w=names_w,
            column_names_x=names_x,
            sweeps=sweeps,
            is_burnin=sweeps < SUMMARIZE_BURN_IN,
            models=models,
            psis=psis,
            gammas=ERROR_GAMMA * np.exp(0.05 * rng.standard_normal(rows)),
            phis=ERROR_PHI * np.exp(0.05 * rng.standard_normal(rows)),
            accepted=rng.uniform(size=rows) < 0.2,
            chain_id=chain_id,
            dataset_fingerprint=f"synthetic-{seed}",
            config_fingerprint=f"synthetic-{seed}",
        )
        path = work / f"input_trace_chain{chain_id}.csv"
        io_mod.write_trace(output, path)
        inputs.append((path, output))
    return inputs


# ---------------------------------------------------------------------------
# Jobs: each phase is a span on the caller's tracer, and the setup and output
# phases can be run again on their own to take more samples of them.


@dataclass
class JobResult:
    outputs: list[ChainOutput]
    series: list[np.ndarray]
    summaries: list
    out_dir: Path
    loaded_bytes: int = 0
    written_bytes: int = 0

    @property
    def trace_paths(self) -> list[Path]:
        return [self.out_dir / f"trace_chain{out.chain_id}.csv" for out in self.outputs]


def sampler_setup(inputs: SamplerInputs, tracer):
    with tracer.span("setup"):
        with tracer.span("io.load_csv"):
            loaded = io_mod.load_csv(inputs.csv_path, inputs.schema)
        with tracer.span("core.split"):
            loaded.dataset.split
            loaded.dataset.fingerprint
        prior = chain_mod.default_prior(loaded.dataset.p, loaded.dataset.q)
    return loaded, prior


def summarize_setup(inputs: list[tuple[Path, ChainOutput]], tracer) -> list[ChainOutput]:
    with tracer.span("setup"):
        outputs = []
        for path, _ in inputs:
            with tracer.span("io.load_trace"):
                outputs.append(io_mod.load_trace(path))
    return outputs


def summarise(outputs: list[ChainOutput], tracer):
    with tracer.span("chain.summaries"):
        series = [chain_mod.diagnostics_series(out) for out in outputs]
        summaries = chain_mod.posterior_summaries(chain_mod.pool_outputs(outputs))
        for out in outputs:
            chain_mod.jump_rate(out)
    return series, summaries


def write_outputs(result: JobResult, tracer) -> None:
    """Per chain a trace and a diagnostics file, then the pooled summary.

    Records the bytes of traces written on ``result``: later jobs overwrite
    the same files."""
    written = 0
    with tracer.span("output"):
        for out, rows, path in zip(result.outputs, result.series, result.trace_paths):
            with tracer.span("io.write_trace"):
                io_mod.write_trace(out, path)
            written += path.stat().st_size
            with tracer.span("io.write_diagnostics"):
                io_mod.write_diagnostics(rows, result.out_dir / f"diagnostics_chain{out.chain_id}.csv")
        with tracer.span("io.write_summary"):
            io_mod.write_summary(result.summaries, result.out_dir / "summary.csv")
    result.written_bytes = written


def sampler_job(workload: SamplerWorkload, inputs: SamplerInputs, chain_seed: int, out_dir: Path, tracer) -> JobResult:
    """``tbma run`` with one chain: load, sample, summarise, write."""
    with tracer.span("job"):
        loaded, prior = sampler_setup(inputs, tracer)
        with tracer.span("chain.run_chain"):
            out = chain_mod.run_chain(
                loaded.dataset, prior, workload.config(chain_seed), chain_id=0, model_template=loaded.model_template
            )
        result = JobResult([out], *summarise([out], tracer), out_dir)
        write_outputs(result, tracer)
    return result


def summarize_job(inputs: list[tuple[Path, ChainOutput]], out_dir: Path, tracer) -> JobResult:
    """``tbma summarize`` on the input traces, then re-emit each trace."""
    with tracer.span("job"):
        outputs = summarize_setup(inputs, tracer)
        result = JobResult(outputs, *summarise(outputs, tracer), out_dir)
        write_outputs(result, tracer)
    result.loaded_bytes = sum(path.stat().st_size for path, _ in inputs)
    return result


# ---------------------------------------------------------------------------
# Checks: each returns a list of failure descriptions, empty when all hold.


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def output_differences(a: ChainOutput, b: ChainOutput) -> list[str]:
    """Fields on which two chain outputs differ, comparing floats bit for bit."""
    diffs = []
    for field in ("psis", "gammas", "phis"):
        if np.shape(getattr(a, field)) != np.shape(getattr(b, field)) or _bits(getattr(a, field)) != _bits(getattr(b, field)):
            diffs.append(field)
    for field in ("sweeps", "is_burnin", "models", "accepted"):
        if not np.array_equal(getattr(a, field), getattr(b, field)):
            diffs.append(field)
    for field in ("column_names_w", "column_names_x", "chain_id", "dataset_fingerprint", "config_fingerprint"):
        if getattr(a, field) != getattr(b, field):
            diffs.append(field)
    return diffs


def check_job(result: JobResult, tracer, sampler: bool) -> list[str]:
    """Finite draws and phi > 0 (sampler jobs), then the trace round trip and
    the summary rebuilt from reloaded traces."""
    failures = []
    if sampler:
        for out in result.outputs:
            if not (np.all(np.isfinite(out.psis)) and np.all(np.isfinite(out.gammas)) and np.all(np.isfinite(out.phis))):
                failures.append("non-finite draws")
            if not np.all(out.phis > 0.0):
                failures.append("phi <= 0")
    with tracer.span("check"):
        reloaded = []
        for out, path in zip(result.outputs, result.trace_paths):
            with tracer.span("io.load_trace"):
                back = io_mod.load_trace(path)
            reloaded.append(back)
            diffs = output_differences(out, back)
            if diffs:
                failures.append(f"trace round trip differs in {diffs}")
        rebuilt = chain_mod.posterior_summaries(chain_mod.pool_outputs(reloaded))
        if rebuilt != result.summaries:
            failures.append("summary from reloaded traces differs from the in-memory one")
    return failures


def check_generated(result: JobResult, inputs: list[tuple[Path, ChainOutput]]) -> list[str]:
    """The loaded traces equal the generated chains bit for bit."""
    failures = []
    for loaded, (_, generated) in zip(result.outputs, inputs):
        diffs = output_differences(loaded, generated)
        if diffs:
            failures.append(f"loaded trace differs from the generated chain in {diffs}")
    return failures


def check_recovery(workload: SamplerWorkload, outputs: list[ChainOutput], truth_psi: np.ndarray) -> list[str]:
    """In the spirit of acceptance criterion C6, on the pooled sample: true
    effects included, null covariates rarely, estimates near the truth."""
    rows = chain_mod.posterior_summaries(chain_mod.pool_outputs(outputs))
    incl = np.array([r.incl_prob for r in rows])
    post_mean = np.array([r.post_mean for r in rows])
    cond_mean = np.array([np.nan if r.cond_mean is None else r.cond_mean for r in rows])
    true = truth_psi != 0.0
    failures = []
    if incl[true].min() < workload.min_true_incl:
        failures.append(f"true effect included with probability {incl[true].min():.3f}")
    if incl[~true].mean() > workload.max_null_incl_mean:
        failures.append(f"null covariates included on average {incl[~true].mean():.3f}")
    true_err = np.abs(cond_mean[true] - truth_psi[true])
    if not np.all(true_err <= TRUE_COEF_TOL):
        failures.append(f"true-effect estimate off by {np.nanmax(true_err):.3f}")
    if np.abs(post_mean[~true]).max() > workload.null_coef_tol:
        failures.append(f"null coefficient averaged to {np.abs(post_mean[~true]).max():.3f}")
    return failures


def with_iterations(workload: SamplerWorkload, iterations: int) -> SamplerWorkload:
    return dataclasses.replace(workload, iterations=iterations, burn_in=0)
