"""The sampling loop: sweep ordering, burn-in bookkeeping, storage and
posterior summaries.

Each sweep draws the latent scores, then the covariance entry, then the
conditional variance, applies the model move(s), and finally draws the
coefficients for the retained model, in exactly that order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .conditionals import (
    draw_gamma,
    draw_phi,
    draw_psi,
    gamma_posterior_params,
    phi_posterior_params,
    sample_latent,
)
from .core import CoefVector, ModelIndicator, ModelPrior, PriorSpec, SigmaParams, TobitDataset
from .errors import EmptyChain, InvalidParameter, NumericalError
from .search import mc3_step

__all__ = [
    "ChainConfig",
    "ChainOutput",
    "PosteriorSummary",
    "default_prior",
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
    include = np.concatenate([template.forced_w, template.forced_x])
    free = template.free_positions()
    include[free] = rng.uniform(size=free.size) < 0.5
    p = template.p
    return ModelIndicator(include[:p], include[p:], template.forced_w, template.forced_x)


def _initial_state(
    dataset: TobitDataset,
    prior: PriorSpec,
    config: ChainConfig,
    template: ModelIndicator,
    rng: np.random.Generator,
) -> tuple[ModelIndicator, CoefVector, SigmaParams]:
    """Starting (model, coefficients, covariance) for the configured init kind."""
    p, q = dataset.p, dataset.q
    zeros = CoefVector.zeros(p, q)
    unit = SigmaParams(0.0, 1.0)
    if config.init == "null-model":
        return ModelIndicator.null_model(p, q, template.forced_w, template.forced_x), zeros, unit
    if config.init == "full-model":
        return ModelIndicator.full_model(p, q, template.forced_w, template.forced_x), zeros, unit
    model = _random_model(template, rng)
    if config.init == "zero-coefficients":
        return model, zeros, unit
    # prior-draw: coefficients from the restricted prior, covariance from its prior
    psi0, Psi0 = prior.restrict(model)
    full = np.zeros(p + q)
    if model.d:
        full[model.active_positions] = psi0 + np.linalg.cholesky(Psi0) @ rng.standard_normal(model.d)
    gamma = prior.gamma0 + np.sqrt(prior.G0) * rng.standard_normal()
    phi = float((0.5 * prior.S0) / rng.gamma(0.5 * prior.s0))
    return model, CoefVector.from_psi(full, p), SigmaParams(float(gamma), phi)


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
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, int(chain_id)]))
    model, psi, sigma = _initial_state(dataset, prior, config, template, rng)

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

    for sweep in range(config.iterations):
        try:
            z = sample_latent(dataset, psi, sigma, rng)
            gamma = draw_gamma(gamma_posterior_params(dataset, z, psi, sigma.phi, prior), rng)
            phi = draw_phi(phi_posterior_params(dataset, z, psi, gamma, prior), rng)
            sigma = SigmaParams(gamma, phi)
            accepted_any = False
            psi_post = None
            for _ in range(config.inner_model_moves):
                model, accepted, psi_post = mc3_step(
                    dataset, z, model, sigma, prior, prior.model_prior, rng
                )
                accepted_any = accepted_any or accepted
            psi = draw_psi(psi_post, rng)
        except NumericalError as exc:
            raise NumericalError(f"chain {chain_id} aborted at sweep {sweep}: {exc}") from exc

        if keep_mask[sweep]:
            row = row_of_sweep[sweep]
            models[row, : dataset.p] = model.include_w
            models[row, dataset.p :] = model.include_x
            psis[row] = psi.psi
            gammas[row] = sigma.gamma
            phis[row] = sigma.phi
            accepted_flags[row] = accepted_any

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
