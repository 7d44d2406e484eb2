"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The model-recovery chains are shared across criteria through module-scoped
fixtures, so the suite runs each expensive sampler exactly once.
"""

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy.stats import truncnorm

import tbma.search
from conftest import consistent_z, latent_scores, make_dataset, null_rows, truncated_normal_draws, unit_prior
from oracles import conjugate_regression_moments, enumerate_model_posterior
from tbma.chain import (
    ChainConfig,
    ChainState,
    inclusion_probabilities,
    jump_rate,
    posterior_summaries,
    run_chain,
    running_model_size,
    sweep,
)
from tbma.cli import main as cli_main
from tbma.conditionals import (
    conditional_log_marginal,
    draw_phi,
    draw_psi,
    fitted_values,
    model_rows,
    phi_posterior_params,
    sample_latent,
    sweep_statistics,
)
from tbma.core import ModelIndicator, ModelPrior, PriorSpec, SigmaParams, TobitDataset
from tbma.oracle import (
    CBF_RATIO_TOL,
    RSS_FORM_TOL,
    SynthSpec,
    generate_synthetic,
    run_fixture_suite,
)
from tbma.search import mc3_step

SEED = 20260810


def report(criterion, detail):
    print(f"[acceptance] {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# Shared expensive fixtures

BENCH_THETA = np.array([0.8, -0.7, 0.6, 0.0, 0.0, 0.0])
BENCH_BETA = np.array([1.0, -0.8, 0.5, 0.0, 0.0, 0.0])
TRUE_ACTIVE = np.abs(np.concatenate([BENCH_THETA, BENCH_BETA])) >= 0.5


@pytest.fixture(scope="module")
def bench_problem():
    spec = SynthSpec(
        n=2000, p=6, q=6, true_theta=BENCH_THETA, true_beta=BENCH_BETA,
        gamma=0.5, phi=1.0, seed=SEED,
    )
    dataset, truth = generate_synthetic(spec)
    assert 0.4 < truth.censored_fraction < 0.6  # the target regime
    return dataset, truth


@pytest.fixture(scope="module")
def bench_chain_20k(bench_problem):
    dataset, _ = bench_problem
    config = ChainConfig(iterations=20_000, burn_in=2_000, seed=SEED + 1, chains=1)
    start = time.perf_counter()
    out = run_chain(dataset, unit_prior(6, 6, Theta0=100.0 * np.eye(6), B0=100.0 * np.eye(6),
                                        G0=100.0, s0=5.0, S0=5.0), config)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def contrasting_chains_50k(bench_problem):
    dataset, _ = bench_problem
    prior = unit_prior(6, 6, Theta0=100.0 * np.eye(6), B0=100.0 * np.eye(6), G0=100.0, s0=5.0, S0=5.0)
    null_cfg = ChainConfig(iterations=50_000, burn_in=5_000, seed=SEED + 2, chains=1, init="null-model")
    full_cfg = ChainConfig(iterations=50_000, burn_in=5_000, seed=SEED + 2, chains=1, init="full-model")
    return (
        run_chain(dataset, prior, null_cfg, chain_id=0),
        run_chain(dataset, prior, full_cfg, chain_id=1),
    )


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_determinism")
    data = root / "data.csv"
    assert cli_main([
        "synth", "--n", "150", "--p", "3", "--q", "3",
        "--theta", "1.0,0.0,0.4", "--beta", "1.2,0.0,-0.6",
        "--gamma", "0.4", "--phi", "1.0", "--seed", str(SEED), "--out", str(data),
    ]) == 0
    schema = root / "schema.cfg"
    schema.write_text(
        "response = y\ncensored = censored\nselection = w1, w2, w3\n"
        "outcome = x1, x2, x3\nadd_intercept_selection = false\n"
        "add_intercept_outcome = false\n",
        encoding="utf-8",
    )
    dirs = []
    for tag in ("first", "second"):
        out_dir = root / tag
        assert cli_main([
            "run", "--data", str(data), "--schema", str(schema),
            "--iterations", "600", "--burn-in", "150", "--chains", "2",
            "--seed", str(SEED), "--out-dir", str(out_dir),
        ]) == 0
        dirs.append(out_dir)
    return dirs


# ---------------------------------------------------------------------------
# Criteria


def test_c1_cbf_matches_quadrature_oracle():
    start = time.perf_counter()
    checks = run_fixture_suite()
    elapsed = time.perf_counter() - start
    assert len(checks) == 10
    worst = max(c.cbf_rel_err for c in checks)
    assert worst <= CBF_RATIO_TOL, [(c.name, c.cbf_rel_err) for c in checks]
    assert elapsed < 10.0, f"fixture suite took {elapsed:.1f}s"
    report("C1 conditional-marginal vs quadrature", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c2_residual_rewrite_redundancy():
    checks = run_fixture_suite()
    worst = max(c.rss_form_err for c in checks)
    assert worst <= RSS_FORM_TOL, [(c.name, c.rss_form_err) for c in checks]
    report("C2 determinant form vs residual rewrite", f"worst abs err {worst:.2e}")


def test_c3_stationarity_against_exact_enumeration(memo_marginals):
    dataset = make_dataset(n=15, seed=6, p=2, q=1)
    z = consistent_z(dataset, seed=2)
    sp = SigmaParams(0.4, 1.0)
    prior = unit_prior(2, 1)
    flat = ModelPrior()
    exact = enumerate_model_posterior(dataset, z, sp, prior, flat)

    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    model = ModelIndicator.null_model(2, 1)
    counts = dict.fromkeys(exact, 0)
    steps = 1_000_000
    memo_marginals()
    stats = sweep_statistics(null_rows(dataset), latent_scores(dataset, z), sp)
    current = tbma.search.conditional_log_marginal(stats, prior, model)
    for _ in range(steps):
        model, _, current = mc3_step(stats, prior, current, flat, rng)
        counts[model.key()] += 1
    elapsed = time.perf_counter() - start

    worst = max(abs(counts[k] / steps - exact[k]) for k in exact)
    assert worst <= 0.02, {k: (counts[k] / steps, exact[k]) for k in exact}

    log_post = {k: np.log(v) for k, v in exact.items()}
    worst_db = 0.0
    for key in exact:
        include = np.array(key)
        current = ModelIndicator(include, np.zeros(3, bool), 2)
        for pos in range(3):
            neighbor = current.with_toggled(pos)
            delta = log_post[neighbor.key()] - log_post[current.key()]
            forward = log_post[current.key()] + min(0.0, delta)
            backward = log_post[neighbor.key()] + min(0.0, -delta)
            worst_db = max(worst_db, abs(forward - backward))
    assert worst_db <= 1e-12
    assert elapsed < 60.0, f"stationarity run took {elapsed:.1f}s"
    report(
        "C3 visit frequencies vs enumeration",
        f"worst freq err {worst:.4f}, detailed balance {worst_db:.1e}, {elapsed:.0f}s",
    )


def test_c4_conjugate_reduction_uncensored_decoupled():
    rng_data = np.random.default_rng(SEED + 4)
    n, p, q = 120, 2, 3
    W = rng_data.standard_normal((n, p))
    X = rng_data.standard_normal((n, q))
    beta_true = np.array([1.0, -0.5, 0.25])
    phi_true = 0.8
    y = X @ beta_true + np.sqrt(phi_true) * rng_data.standard_normal(n)
    dataset = TobitDataset(
        W=W, X=X, y=y, censored=np.zeros(n, bool),
        column_names_w=("w1", "w2"), column_names_x=("x1", "x2", "x3"),
    )
    prior = PriorSpec(
        theta0=np.zeros(p), Theta0=4.0 * np.eye(p),
        beta0=np.zeros(q), B0=4.0 * np.eye(q),
        gamma0=0.0, G0=1.0, s0=6.0, S0=6.0,
    )
    model = ModelIndicator.full_model(p, q)
    rows = model_rows(dataset, model)

    rng = np.random.default_rng(SEED + 5)
    sweeps, burn = 50_000, 1_000
    psi = np.zeros(p + q)  # the full model's coefficients, stacked
    phi = 1.0
    betas = np.empty((sweeps, q))
    for it in range(sweeps + burn):
        sp = SigmaParams(0.0, phi)
        fit = fitted_values(rows, psi)
        latent = sample_latent(dataset, fit, sp, rng)
        phi = draw_phi(phi_posterior_params(latent.z_unc - fit.sel_unc, fit.resid_unc, 0.0, prior), rng)
        stats = sweep_statistics(rows, latent, SigmaParams(0.0, phi))
        psi = draw_psi(conditional_log_marginal(stats, prior, model), rng)
        if it >= burn:
            betas[it - burn] = psi[p:]

    ref_mean, ref_cov = conjugate_regression_moments(y, X, prior.beta0, prior.B0, prior.s0, prior.S0)

    n_batches = 50
    batches = betas.reshape(n_batches, -1, q)
    batch_means = batches.mean(axis=1)
    mcse_mean = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    err_mean = np.abs(betas.mean(axis=0) - ref_mean)
    assert np.all(err_mean <= 3.0 * mcse_mean), (err_mean, 3.0 * mcse_mean)

    batch_vars = batches.var(axis=1, ddof=1)
    mcse_var = batch_vars.std(axis=0, ddof=1) / np.sqrt(n_batches)
    err_var = np.abs(betas.var(axis=0, ddof=1) - np.diag(ref_cov))
    assert np.all(err_var <= 3.0 * mcse_var), (err_var, 3.0 * mcse_var)
    report(
        "C4 conjugate reduction",
        f"mean err {err_mean.max():.2e} (3 mcse {3 * mcse_mean.max():.2e}), "
        f"var err {err_var.max():.2e}",
    )


def test_c5_truncated_normal_moments():
    rng = np.random.default_rng(SEED)
    n = 1_000_000
    worst = 0.0
    for cut in (-8.0, -2.0, 0.0, 2.0, 8.0):
        for negative in (False, True):
            mu = -cut
            draws = truncated_normal_draws(mu, n, negative, rng)
            if negative:
                assert np.all(draws < 0.0)
                ref = truncnorm(a=-np.inf, b=-mu, loc=mu, scale=1.0)
            else:
                assert np.all(draws >= 0.0)
                ref = truncnorm(a=-mu, b=np.inf, loc=mu, scale=1.0)
            mean_err = abs(draws.mean() - ref.mean()) / abs(ref.mean())
            var_err = abs(draws.var(ddof=1) - ref.var()) / ref.var()
            worst = max(worst, mean_err, var_err)
            assert mean_err <= 0.005, (cut, negative, mean_err)
            assert var_err <= 0.005, (cut, negative, var_err)
    report("C5 truncated-normal moments", f"worst rel err {worst:.2%}, no sign violations")


def test_c6_synthetic_recovery(bench_problem, bench_chain_20k):
    _, truth = bench_problem
    out, elapsed = bench_chain_20k
    incl = np.concatenate(inclusion_probabilities(out))
    assert np.all(incl[TRUE_ACTIVE] > 0.9), incl
    assert np.all(incl[~TRUE_ACTIVE] < 0.5), incl

    truth_psi = np.concatenate([truth.theta, truth.beta])
    estimates = np.array([row.post_mean for row in posterior_summaries(out)])
    err = np.abs(estimates - truth_psi)
    assert np.all(err <= 0.15), (estimates, truth_psi)
    assert elapsed < 300.0, f"20k sweeps took {elapsed:.0f}s"
    report(
        "C6 synthetic recovery",
        f"min active incl {incl[TRUE_ACTIVE].min():.3f}, max null incl "
        f"{incl[~TRUE_ACTIVE].max():.3f}, max coef err {err.max():.3f}, "
        f"jump rate {jump_rate(out):.3f}, {elapsed:.0f}s",
    )


def test_c7_running_size_agreement_across_starts(contrasting_chains_50k):
    chain_null, chain_full = contrasting_chains_50k
    gaps = []
    for equation in ("selection", "outcome"):
        a = running_model_size(chain_null, equation)[-1]
        b = running_model_size(chain_full, equation)[-1]
        gaps.append(abs(a - b))
        assert abs(a - b) <= 0.5, (equation, a, b)
    report("C7 running model size across starts", f"gaps {gaps[0]:.3f} / {gaps[1]:.3f} at sweep 50k")


def test_c8_throughput_extrapolation_to_paper_scale():
    # Direct micro-benchmark at the reported problem size (n = 14863,
    # 56 covariates per equation), extrapolated to a 100k-sweep chain.
    p = q = 56
    theta = np.zeros(p)
    theta[:4] = (-0.5, 0.5, -0.5, 0.4)
    beta = np.zeros(q)
    beta[:4] = (0.8, -0.6, 0.5, 0.3)
    spec = SynthSpec(n=14_863, p=p, q=q, true_theta=theta, true_beta=beta,
                     gamma=0.5, phi=1.0, seed=SEED, intercepts=True)
    dataset, truth = generate_synthetic(spec)
    prior = unit_prior(p, q, Theta0=100.0 * np.eye(p), B0=100.0 * np.eye(q), G0=100.0, s0=5.0, S0=5.0)

    warm = ChainConfig(iterations=3, burn_in=0, seed=1, chains=1)
    run_chain(dataset, prior, warm)
    measured = ChainConfig(iterations=30, burn_in=0, seed=2, chains=1)
    start = time.perf_counter()
    run_chain(dataset, prior, measured)
    per_sweep = (time.perf_counter() - start) / measured.iterations
    hours = per_sweep * 100_000 / 3600.0
    assert np.isfinite(hours) and hours > 0.0
    verdict = "within" if hours <= 2.0 else "ABOVE"
    report(
        "C8 throughput (recorded, not gated)",
        f"{per_sweep * 1e3:.1f} ms/sweep at n=14863, 112 covariates -> "
        f"{hours:.2f} h per 100k sweeps, {verdict} the 2 h reference",
    )


def test_c9_deterministic_outputs(cli_run):
    first, second = cli_run
    names = ["summary.csv", "trace_chain0.csv", "trace_chain1.csv",
             "diagnostics_chain0.csv", "diagnostics_chain1.csv"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    report("C9 determinism", f"{len(names)} files byte-identical across reruns")


def test_c10_estimator_identity_in_emitted_summary(cli_run):
    first, _ = cli_run
    lines = (first / "summary.csv").read_text().splitlines()[1:]
    assert lines
    checked = 0
    for line in lines:
        cells = line.split(",")
        incl, post_mean = float(cells[2]), float(cells[3])
        if cells[5] == "":
            assert post_mean == 0.0
            continue
        cond_mean = float(cells[5])
        # all three numbers are rounded to six decimals in the file
        assert abs(post_mean - incl * cond_mean) <= 2e-6 * max(1.0, abs(cond_mean)), line
        checked += 1
    assert checked > 0
    report("C10 estimator identity", f"{checked} summary rows satisfy mean = incl * cond_mean")


# ---------------------------------------------------------------------------
# C11: Geweke's successive-conditional simulator (J. Geweke, "Getting it
# right", JASA 99:799, 2004).  Starting from a prior draw of the state, each
# step draws a dataset from the likelihood at the current state and then runs
# the sampler's sweep(s) on it.  The data and the state then keep the joint
# prior-times-likelihood distribution, so every state is a prior draw.


@dataclass(frozen=True)
class GewekeCase:
    prior: PriorSpec
    forced: np.ndarray
    inner_model_moves: int
    sweeps_per_dataset: int
    steps: int
    seed: int
    z_scores: Callable  # (prior, forced, models, psis, gammas, phis) -> z of each checked moment


def inclusion_prior(prior):
    """Prior probability of each free bit; under the flat prior all models are alike."""
    return prior.model_prior.pi if prior.model_prior.kind == "bernoulli" else 0.5


def geweke_states(case: GewekeCase, n=20):
    """The state after each step: (models, psis, gammas, phis)."""
    prior, forced = case.prior, case.forced
    p, q = prior.p, prior.q
    rng = np.random.default_rng(case.seed)
    W = rng.standard_normal((n, p))
    X = rng.standard_normal((n, q))

    # The model's free bits, its coefficients and the covariance from the prior.
    include = forced.copy()
    free = np.flatnonzero(~forced)
    include[free] = rng.uniform(size=free.size) < inclusion_prior(prior)
    model = ModelIndicator(include, forced, p)
    psi0, Psi0 = prior.restrict(model)
    psi = psi0 + np.linalg.cholesky(Psi0) @ rng.standard_normal(model.d)
    gamma = prior.gamma0 + np.sqrt(prior.G0) * rng.standard_normal()
    sigma = SigmaParams(float(gamma), float((0.5 * prior.S0) / rng.gamma(0.5 * prior.s0)))

    models = np.empty((case.steps, p + q), dtype=bool)
    psis = np.zeros((case.steps, p + q))
    gammas, phis = np.empty(case.steps), np.empty(case.steps)
    names_w, names_x = tuple(f"w{j}" for j in range(p)), tuple(f"x{j}" for j in range(q))
    for step in range(case.steps):
        eps = rng.standard_normal(n)
        eta = sigma.gamma * eps + np.sqrt(sigma.phi) * rng.standard_normal(n)
        full = np.zeros(p + q)
        full[model.active_positions] = psi
        censored = W @ full[:p] + eps < 0
        dataset = TobitDataset(
            W=W, X=X, y=np.where(censored, 0.0, X @ full[p:] + eta), censored=censored,
            column_names_w=names_w, column_names_x=names_x,
        )
        # The first sweep on a dataset reads the rows gathered here, a later
        # one the row block the sweep before it left.
        state = ChainState.start(dataset, model, psi, sigma)
        for _ in range(case.sweeps_per_dataset):
            state, _ = sweep(state, prior, case.inner_model_moves, rng)
        model, psi, sigma = state.model, state.psi, state.sigma
        models[step], psis[step, model.active_positions] = model.include, psi
        gammas[step], phis[step] = sigma.gamma, sigma.phi
    return models, psis, gammas, phis


GEWEKE_BATCHES = 50


def batch_means_z(values, targets):
    """z of each column's mean against its target, the MCSE from batch means."""
    batches = values.reshape(GEWEKE_BATCHES, -1, values.shape[1])
    mcse = batches.mean(axis=1).std(axis=0, ddof=1) / np.sqrt(GEWEKE_BATCHES)
    return (values.mean(axis=0) - targets) / mcse


def cross_moments(prior, incl, psis):
    """I_i psi_i I_j psi_j for every pair i < j of coefficients, with their
    prior means P(I_i I_j) (psi0_i psi0_j + Psi0_ij).  A coefficient draw
    with the wrong covariance (L^{-1} eps in place of L^{-T} eps for the
    precision factor L) moves them most through the correlations."""
    i, j = np.triu_indices(psis.shape[1], k=1)
    psi0, Psi0 = prior.psi0, prior.Psi0
    return psis[:, i] * psis[:, j], incl[i] * incl[j] * (psi0[i] * psi0[j] + Psi0[i, j])


def fixed_model_z(prior, forced, models, psis, gammas, phis):
    """Means and variances of psi, gamma and phi against their prior values,
    and the cross moments of psi; the prior below gives psi and gamma
    N(0, 0.25) and phi mean 1, variance 0.25."""
    draws = np.column_stack([psis, gammas, phis])
    k = draws.shape[1]
    batch_vars = draws.reshape(GEWEKE_BATCHES, -1, k).var(axis=1, ddof=1)
    mcse_var = batch_vars.std(axis=0, ddof=1) / np.sqrt(GEWEKE_BATCHES)
    var_z = (draws.var(axis=0, ddof=1) - 0.25) / mcse_var
    cross, cross_targets = cross_moments(prior, np.ones(psis.shape[1]), psis)
    return np.concatenate([
        batch_means_z(draws, np.array([0.0] * (k - 1) + [1.0])), var_z, batch_means_z(cross, cross_targets),
    ])


def moving_model_z(prior, forced, models, psis, gammas, phis):
    """Each free inclusion bit I, I psi, I psi^2, the cross moments
    I_i psi_i I_j psi_j, gamma, gamma^2 and 1/phi against their prior means
    (1/phi is Gamma(s0 / 2, rate S0 / 2))."""
    incl = np.where(forced, 1.0, inclusion_prior(prior))
    psi0, var0 = prior.psi0, np.diag(prior.Psi0)
    cross, cross_targets = cross_moments(prior, incl, psis)
    values = np.column_stack([models[:, ~forced], psis, psis**2, cross, gammas, gammas**2, 1.0 / phis])
    targets = np.concatenate([
        incl[~forced], incl * psi0, incl * (psi0**2 + var0), cross_targets,
        [prior.gamma0, prior.gamma0**2 + prior.G0, prior.s0 / prior.S0],
    ])
    return batch_means_z(values, targets)


GEWEKE_CASES = {
    # The full model, all bits forced so that no move draws: the Gibbs
    # updates of z, gamma, phi and psi alone.
    "fixed-full-model": GewekeCase(
        prior=PriorSpec(
            theta0=np.zeros(2), Theta0=0.25 * np.eye(2), beta0=np.zeros(2), B0=0.25 * np.eye(2),
            gamma0=0.0, G0=0.25, s0=12.0, S0=10.0,
        ),
        forced=np.ones(4, dtype=bool), inner_model_moves=1, sweeps_per_dataset=1,
        steps=25_000, seed=314159, z_scores=fixed_model_z,
    ),
    # Every slip that a unit prior, a flat model prior or one sweep per
    # dataset would hide: nonzero means and dense blocks (a dropped log|Psi0|
    # or prior quadratic term), a forced bit, pi != 0.5, two moves per sweep,
    # and a second sweep that reads the row block the first one left.
    "moving-model": GewekeCase(
        prior=PriorSpec(
            theta0=np.array([0.4, -0.3]), Theta0=np.array([[0.5, 0.2], [0.2, 0.4]]),
            beta0=np.array([0.3, 0.5]), B0=np.array([[0.6, -0.25], [-0.25, 0.5]]),
            gamma0=0.2, G0=0.25, s0=12.0, S0=10.0, model_prior=ModelPrior("bernoulli", 0.3),
        ),
        forced=np.array([True, False, False, False]), inner_model_moves=2, sweeps_per_dataset=2,
        steps=40_000, seed=SEED, z_scores=moving_model_z,
    ),
    # The flat model prior and three moves per sweep, with no forced bit so
    # that the null model's empty coefficient draw comes up too; nonzero
    # means and dense blocks as above.
    "flat-prior-three-moves": GewekeCase(
        prior=PriorSpec(
            theta0=np.array([-0.3, 0.5]), Theta0=np.array([[0.4, -0.15], [-0.15, 0.6]]),
            beta0=np.array([0.6, -0.2]), B0=np.array([[0.5, 0.2], [0.2, 0.3]]),
            gamma0=-0.2, G0=0.25, s0=12.0, S0=10.0,
        ),
        forced=np.zeros(4, dtype=bool), inner_model_moves=3, sweeps_per_dataset=1,
        steps=40_000, seed=SEED + 11, z_scores=moving_model_z,
    ),
    # A diagonal prior, so that every move scores its toggle from the
    # current model's precision factor: unequal variances and nonzero means
    # (a slip in log v or m^2/v), a forced bit, pi != 0.5 and two moves per
    # sweep.  The cases above have dense blocks and score each toggled model.
    "diagonal-prior-moves": GewekeCase(
        prior=PriorSpec(
            theta0=np.array([0.4, -0.3]), Theta0=np.diag([0.5, 0.3]),
            beta0=np.array([0.3, 0.5]), B0=np.diag([0.6, 0.2]),
            gamma0=0.2, G0=0.25, s0=12.0, S0=10.0, model_prior=ModelPrior("bernoulli", 0.3),
        ),
        forced=np.array([True, False, False, False]), inner_model_moves=2, sweeps_per_dataset=1,
        steps=40_000, seed=SEED + 31, z_scores=moving_model_z,
    ),
    # Eight coefficients with strongly correlated prior blocks, all bits
    # forced: with a precision this far from diagonal, a coefficient draw of
    # the wrong covariance moves the variances and cross moments past the
    # bound, which at p = q = 2 it does not.
    "correlated-full-model": GewekeCase(
        prior=PriorSpec(
            theta0=np.array([0.3, -0.2, 0.1, 0.4]), Theta0=0.3 * (0.2 * np.eye(4) + 0.8),
            beta0=np.array([-0.1, 0.2, 0.3, -0.3]), B0=0.3 * (0.2 * np.eye(4) + 0.8),
            gamma0=0.1, G0=0.25, s0=12.0, S0=10.0,
        ),
        forced=np.ones(8, dtype=bool), inner_model_moves=1, sweeps_per_dataset=1,
        steps=40_000, seed=SEED + 23, z_scores=moving_model_z,
    ),
}


@pytest.mark.parametrize("name", list(GEWEKE_CASES))
def test_c11_sweep_keeps_the_prior_under_geweke_simulation(name):
    case = GEWEKE_CASES[name]
    start = time.perf_counter()
    states = geweke_states(case)
    elapsed = time.perf_counter() - start
    z = case.z_scores(case.prior, case.forced, *states)
    assert np.all(np.abs(z) <= 4.0), np.round(z, 2)
    assert elapsed < 60.0, f"{case.steps} steps took {elapsed:.1f}s"
    report(
        f"C11 Geweke prior check ({name})",
        f"worst |z| {np.abs(z).max():.2f} over {z.size} moments, {case.steps} steps, {elapsed:.0f}s",
    )
