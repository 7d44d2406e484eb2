"""The sampling loop: the sweep, burn-in bookkeeping, storage and
posterior summaries.

``sweep`` owns the sweep order.  It takes a frozen ``ChainState`` (the
retained model, its coefficients, the covariance pair and the retained
model's row block of the design) and returns the next one.  Each sweep draws
the latent scores, then the covariance entry, then the conditional variance,
applies the model move(s), and finally draws the coefficients for the
retained model, in exactly that order.  The first three draws read the
fitted values of the sweep's starting coefficients, formed once at the top
of the sweep from the state's row block (``model_rows``): the state holds
only the retained model's d coefficients, so the products sum d terms per
data row.  The latent scores stay in their two row halves
(``LatentScores``, which owns their sign contract), and the uncensored
residual pair that the gamma and phi draws share is formed once.  A sweep
gathers the row block again only when its moves changed the retained
model.  Before the moves, the sweep builds the coefficient conditional's
data statistics once and scores its starting model once.  Each move scores
its toggle once and passes the retained model's posterior on to the next
move and to the coefficient draw (``tbma.search``).

``run_chain`` builds the initial state, loops over ``sweep`` with every
OpenBLAS pool on one thread (see ``tbma.blas``), and stores the records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import search
from .blas import blas_single_thread
from .conditionals import (
    ModelRows,
    draw_gamma,
    draw_phi,
    draw_psi,
    fitted_values,
    gamma_posterior_params,
    model_rows,
    phi_posterior_params,
    sample_latent,
    sweep_statistics,
)
from .core import ModelIndicator, ModelPrior, PriorSpec, SigmaParams, TobitDataset
from .errors import EmptyChain, InvalidParameter, NumericalError
from .search import mc3_step

__all__ = [
    "ChainConfig",
    "ChainOutput",
    "ChainState",
    "PosteriorSummary",
    "default_prior",
    "sweep",
    "run_chain",
    "run_chains",
    "pool_outputs",
    "inclusion_probabilities",
    "posterior_summaries",
    "running_model_size",
    "jump_rate",
    "diagnostics_series",
]

INIT_KINDS = ("prior-draw", "zero-coefficients", "full-model", "null-model")

SELECTION = "selection"
OUTCOME = "outcome"


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 100_000
    burn_in: int = 10_000
    seed: int = 0
    chains: int = 2
    thin: int = 1
    inner_model_moves: int = 1
    init: str = "null-model"

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidParameter("iterations must be at least 1")
        if not 0 <= self.burn_in < self.iterations:
            raise InvalidParameter("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise InvalidParameter("thin must be at least 1")
        if self.thin > self.iterations - self.burn_in:
            raise InvalidParameter(
                f"thin must be at most iterations - burn_in = {self.iterations - self.burn_in}, "
                "or no post-burn-in sweep is stored"
            )
        if self.chains < 1:
            raise InvalidParameter("chains must be at least 1")
        if self.inner_model_moves < 1:
            raise InvalidParameter("inner_model_moves must be at least 1")
        if self.init not in INIT_KINDS:
            raise InvalidParameter(f"init must be one of {INIT_KINDS}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameter("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """Columnar per-sweep records; burn-in rows are retained but flagged."""

    column_names_w: tuple[str, ...]
    column_names_x: tuple[str, ...]
    sweeps: np.ndarray
    is_burnin: np.ndarray
    models: np.ndarray  # (kept, p + q) inclusion bits
    psis: np.ndarray  # (kept, p + q) stacked coefficients
    gammas: np.ndarray
    phis: np.ndarray
    accepted: np.ndarray
    chain_id: int
    dataset_fingerprint: str
    config_fingerprint: str

    @property
    def p(self) -> int:
        return len(self.column_names_w)

    @property
    def q(self) -> int:
        return len(self.column_names_x)

    @property
    def kept(self) -> int:
        return self.sweeps.shape[0]

    @property
    def official(self) -> np.ndarray:
        """Row mask of the post-burn-in sample used for inference."""
        return ~self.is_burnin


@dataclass(frozen=True)
class PosteriorSummary:
    """One covariate in one equation: inclusion probability and moments.

    ``post_mean``/``post_sd`` average over every stored post-burn-in sweep,
    counting zero when the covariate is excluded; the conditional pair
    restricts to sweeps that include it and is None when there are none.
    """

    name: str
    equation: str
    incl_prob: float
    post_mean: float
    post_sd: float
    cond_mean: float | None
    cond_sd: float | None


def default_prior(p: int, q: int, model_prior: ModelPrior | None = None) -> PriorSpec:
    """Weakly informative proper prior; proper coefficient blocks keep the
    integrated likelihood well defined across models of different size."""
    return PriorSpec(
        theta0=np.zeros(p),
        Theta0=100.0 * np.eye(p),
        beta0=np.zeros(q),
        B0=100.0 * np.eye(q),
        gamma0=0.0,
        G0=100.0,
        s0=5.0,
        S0=5.0,
        model_prior=model_prior or ModelPrior(),
    )


def _config_fingerprint(config: ChainConfig, prior: PriorSpec) -> str:
    h = hashlib.sha256()
    h.update(repr(config).encode())
    h.update(prior.fingerprint.encode())
    return h.hexdigest()


def _random_model(template: ModelIndicator, rng: np.random.Generator) -> ModelIndicator:
    include = template.forced.copy()
    free = template.free_positions()
    include[free] = rng.uniform(size=free.size) < 0.5
    return ModelIndicator(include, template.forced, template.p)


@dataclass(frozen=True, eq=False)
class ChainState:
    """One point of a chain: the retained model, its d coefficients in
    ``model.active_positions`` order (every other coefficient is zero), the
    covariance pair, and the model's row block of the design
    (``model_rows``), which also carries the dataset.

    Build one with ``ChainState.start``, which gathers the row block itself.
    """

    model: ModelIndicator
    psi: np.ndarray
    sigma: SigmaParams
    rows: ModelRows

    def __post_init__(self):
        if self.rows.model is not self.model and self.rows.model != self.model:
            raise InvalidParameter("the row block was gathered for another model")
        if self.psi.shape != (self.model.d,):
            raise InvalidParameter(
                f"coefficients have shape {self.psi.shape}, the model has d = {self.model.d}"
            )

    @classmethod
    def start(
        cls, dataset: TobitDataset, model: ModelIndicator, psi: np.ndarray, sigma: SigmaParams
    ) -> "ChainState":
        """The state at (``model``, ``psi``, ``sigma``) on ``dataset``, with
        ``psi`` the model's d active coefficients, all finite; ``psi`` is
        copied."""
        if (model.p, model.q) != (dataset.p, dataset.q):
            raise InvalidParameter(
                f"model has (p, q) = ({model.p}, {model.q}), dataset ({dataset.p}, {dataset.q})"
            )
        psi = np.array(psi, dtype=np.float64)
        psi.setflags(write=False)
        state = cls(model, psi, sigma, model_rows(dataset, model))
        bad = np.flatnonzero(~np.isfinite(psi))
        if bad.size:
            position = int(model.active_positions[bad[0]])
            name = (dataset.column_names_w + dataset.column_names_x)[position]
            raise InvalidParameter(
                f"start coefficient of {name} (stacked position {position}) is not finite: {psi[bad[0]]}"
            )
        return state


def sweep(
    state: ChainState, prior: PriorSpec, inner_model_moves: int, rng: np.random.Generator
) -> tuple[ChainState, bool]:
    """One Gibbs sweep from ``state`` on the dataset of its row block: the
    latent scores, gamma, phi, ``inner_model_moves`` model moves, then the
    coefficients of the retained model.

    Returns the next state and whether any move was accepted; ``state`` is
    left unchanged.  The same state and generator state give the same next
    state bit for bit.
    """
    rows = state.rows
    dataset = rows.dataset
    if prior.p != dataset.p or prior.q != dataset.q:
        raise InvalidParameter("prior dimensions must match the dataset")
    if inner_model_moves < 0:
        raise InvalidParameter("inner_model_moves must be at least 0")
    fit = fitted_values(rows, state.psi)
    latent = sample_latent(dataset, fit, state.sigma, rng)
    # The uncensored rows' residual pair, which the gamma and phi conditionals share.
    e_z, e_y = latent.z_unc - fit.sel_unc, fit.resid_unc
    gamma = draw_gamma(gamma_posterior_params(e_z, e_y, state.sigma.phi, prior), rng)
    phi = draw_phi(phi_posterior_params(e_z, e_y, gamma, prior), rng)
    sigma = SigmaParams(gamma, phi)
    stats = sweep_statistics(rows, latent, sigma)
    # Looked up on ``search`` so that every scored model goes through one name.
    psi_post = search.conditional_log_marginal(stats, prior, state.model)
    model, accepted_any = state.model, False
    for _ in range(inner_model_moves):
        model, accepted, psi_post = mc3_step(stats, prior, psi_post, prior.model_prior, rng)
        accepted_any = accepted_any or accepted
    psi = draw_psi(psi_post, rng)
    if accepted_any and model != rows.model:
        rows = model_rows(dataset, model)
    return ChainState(model, psi, sigma, rows), accepted_any


def _initial_state(
    dataset: TobitDataset,
    prior: PriorSpec,
    config: ChainConfig,
    template: ModelIndicator,
    rng: np.random.Generator,
) -> ChainState:
    """The starting state for the configured init kind."""
    p, q = dataset.p, dataset.q
    if config.init == "null-model":
        model = ModelIndicator.null_model(p, q, template.forced)
    elif config.init == "full-model":
        model = ModelIndicator.full_model(p, q, template.forced)
    else:
        model = _random_model(template, rng)
    psi, sigma = np.zeros(model.d), SigmaParams(0.0, 1.0)
    if config.init == "prior-draw":
        # coefficients from the restricted prior, covariance from its prior
        psi0, Psi0 = prior.restrict(model)
        psi = psi0 + np.linalg.cholesky(Psi0) @ rng.standard_normal(model.d)
        gamma = prior.gamma0 + np.sqrt(prior.G0) * rng.standard_normal()
        phi = float((0.5 * prior.S0) / rng.gamma(0.5 * prior.s0))
        sigma = SigmaParams(float(gamma), phi)
    return ChainState.start(dataset, model, psi, sigma)


def run_chain(
    dataset: TobitDataset,
    prior: PriorSpec,
    config: ChainConfig,
    chain_id: int = 0,
    model_template: ModelIndicator | None = None,
) -> ChainOutput:
    """Run one chain; identical (inputs, seed, chain_id) reproduce bit-identical output.

    ``model_template`` carries the forced-in bits (e.g. intercepts); by
    default nothing is forced.
    """
    if prior.p != dataset.p or prior.q != dataset.q:
        raise InvalidParameter("prior dimensions must match the dataset")
    template = model_template or ModelIndicator.full_model(dataset.p, dataset.q)
    if (template.p, template.q) != (dataset.p, dataset.q):
        raise InvalidParameter(
            f"model template has (p, q) = ({template.p}, {template.q}), dataset ({dataset.p}, {dataset.q})"
        )
    # Block-end thinning keeps exactly floor((iterations - burn_in) / thin)
    # post-burn-in records; burn-in records are kept at the same cadence.
    keep_burn = np.arange(config.thin - 1, config.burn_in, config.thin)
    keep_official = np.arange(config.burn_in + config.thin - 1, config.iterations, config.thin)
    kept_sweeps = np.concatenate([keep_burn, keep_official])
    keep_mask = np.zeros(config.iterations, dtype=bool)
    keep_mask[kept_sweeps] = True
    row_of_sweep = np.cumsum(keep_mask) - 1

    kept = kept_sweeps.size
    pq = dataset.p + dataset.q
    models = np.zeros((kept, pq), dtype=bool)
    psis = np.zeros((kept, pq))
    gammas = np.zeros(kept)
    phis = np.zeros(kept)
    accepted_flags = np.zeros(kept, dtype=bool)

    # On one thread, the products sum in one order at any data size, so the
    # chain does not depend on the thread count (see ``tbma.blas``).
    with blas_single_thread():
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, int(chain_id)]))
        state = _initial_state(dataset, prior, config, template, rng)
        for index in range(config.iterations):
            try:
                state, accepted = sweep(state, prior, config.inner_model_moves, rng)
            except NumericalError as exc:
                raise NumericalError(f"chain {chain_id} aborted at sweep {index}: {exc}") from exc

            if keep_mask[index]:
                row = row_of_sweep[index]
                models[row] = state.model.include
                psis[row, state.model.active_positions] = state.psi
                gammas[row] = state.sigma.gamma
                phis[row] = state.sigma.phi
                accepted_flags[row] = accepted

    return ChainOutput(
        column_names_w=dataset.column_names_w,
        column_names_x=dataset.column_names_x,
        sweeps=kept_sweeps,
        is_burnin=kept_sweeps < config.burn_in,
        models=models,
        psis=psis,
        gammas=gammas,
        phis=phis,
        accepted=accepted_flags,
        chain_id=int(chain_id),
        dataset_fingerprint=dataset.fingerprint,
        config_fingerprint=_config_fingerprint(config, prior),
    )


def run_chains(
    dataset: TobitDataset,
    prior: PriorSpec,
    config: ChainConfig,
    model_template: ModelIndicator | None = None,
) -> list[ChainOutput]:
    """Independent chains indexed 0..chains-1 with rng streams split by id."""
    return [
        run_chain(dataset, prior, config, chain_id=cid, model_template=model_template)
        for cid in range(config.chains)
    ]


def pool_outputs(outputs: list[ChainOutput]) -> ChainOutput:
    """Merge the post-burn-in samples of several chains with equal weight."""
    if not outputs:
        raise EmptyChain("no chain outputs to pool")
    first = outputs[0]
    for other in outputs[1:]:
        if other.dataset_fingerprint != first.dataset_fingerprint:
            raise InvalidParameter("cannot pool chains run on different datasets")
        if other.column_names_w != first.column_names_w or other.column_names_x != first.column_names_x:
            raise InvalidParameter("cannot pool chains with different columns")
    keep = [out.official for out in outputs]
    return ChainOutput(
        column_names_w=first.column_names_w,
        column_names_x=first.column_names_x,
        sweeps=np.concatenate([out.sweeps[k] for out, k in zip(outputs, keep)]),
        is_burnin=np.zeros(sum(int(k.sum()) for k in keep), dtype=bool),
        models=np.concatenate([out.models[k] for out, k in zip(outputs, keep)]),
        psis=np.concatenate([out.psis[k] for out, k in zip(outputs, keep)]),
        gammas=np.concatenate([out.gammas[k] for out, k in zip(outputs, keep)]),
        phis=np.concatenate([out.phis[k] for out, k in zip(outputs, keep)]),
        accepted=np.concatenate([out.accepted[k] for out, k in zip(outputs, keep)]),
        chain_id=-1,
        dataset_fingerprint=first.dataset_fingerprint,
        config_fingerprint=first.config_fingerprint,
    )


def _official_rows(output: ChainOutput) -> np.ndarray:
    rows = np.flatnonzero(output.official)
    if rows.size == 0:
        raise EmptyChain("chain has no stored post-burn-in sweeps")
    return rows


def inclusion_probabilities(output: ChainOutput) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of post-burn-in sweeps including each covariate, per equation."""
    rows = _official_rows(output)
    freq = output.models[rows].mean(axis=0)
    return freq[: output.p], freq[output.p :]


def _summary_for(name, equation, included, draws) -> PosteriorSummary:
    count = int(included.sum())
    total = included.size
    values = np.where(included, draws, 0.0)
    post_mean = float(values.mean())
    post_sd = float(values.std(ddof=1)) if total > 1 else 0.0
    if count == 0:
        return PosteriorSummary(name, equation, 0.0, post_mean, post_sd, None, None)
    inc = draws[included]
    cond_mean = float(inc.mean())
    cond_sd = float(inc.std(ddof=1)) if count > 1 else 0.0
    return PosteriorSummary(name, equation, count / total, post_mean, post_sd, cond_mean, cond_sd)


def posterior_summaries(output: ChainOutput) -> list[PosteriorSummary]:
    """Model-averaged moments per covariate and equation over the stored sample."""
    rows = _official_rows(output)
    models = output.models[rows]
    psis = output.psis[rows]
    out = []
    for j, name in enumerate(output.column_names_w):
        out.append(_summary_for(name, SELECTION, models[:, j], psis[:, j]))
    for j, name in enumerate(output.column_names_x):
        col = output.p + j
        out.append(_summary_for(name, OUTCOME, models[:, col], psis[:, col]))
    return out


def running_model_size(output: ChainOutput, equation: str) -> np.ndarray:
    """Cumulative mean active-covariate count per sweep, full stored trace."""
    if output.kept == 0:
        raise EmptyChain("chain has no stored sweeps")
    if equation == SELECTION:
        sizes = output.models[:, : output.p].sum(axis=1)
    elif equation == OUTCOME:
        sizes = output.models[:, output.p :].sum(axis=1)
    else:
        raise InvalidParameter(f"equation must be {SELECTION!r} or {OUTCOME!r}")
    return np.cumsum(sizes) / np.arange(1, output.kept + 1)


def jump_rate(output: ChainOutput) -> float:
    """Fraction of post-burn-in sweeps whose model move was accepted."""
    rows = _official_rows(output)
    return float(output.accepted[rows].mean())


def diagnostics_series(output: ChainOutput) -> np.ndarray:
    """Columns (sweep, running selection size, running outcome size,
    cumulative jump rate) over the full stored trace."""
    if output.kept == 0:
        raise EmptyChain("chain has no stored sweeps")
    counts = np.arange(1, output.kept + 1)
    return np.column_stack(
        [
            output.sweeps,
            running_model_size(output, SELECTION),
            running_model_size(output, OUTCOME),
            np.cumsum(output.accepted) / counts,
        ]
    )
