import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp
from scipy.stats import kstest, truncnorm

from conftest import (
    consistent_z,
    full_fit,
    latent_rows,
    latent_scores,
    make_dataset,
    null_rows,
    truncated_normal_draws,
    uncensored_residuals,
    unit_prior,
)
from oracles import latent_conditional_params
from tbma.conditionals import (
    TAIL_SWITCH,
    PsiPosterior,
    SweepStatistics,
    conditional_log_marginal,
    draw_gamma,
    draw_phi,
    draw_psi,
    fitted_values,
    gamma_posterior_params,
    model_rows,
    phi_posterior_params,
    sample_latent,
    sweep_statistics,
    toggle_log_bayes_factor,
)
import tbma.conditionals
import tbma.core
from tbma.core import LatentScores, ModelIndicator, ModelPrior, PriorSpec, SigmaParams, TobitDataset
from tbma.errors import InvalidParameter, InvalidState, NumericalError


# Standardized cuts past ``TAIL_SWITCH``, the first one just past it.
TAIL_CUTS = [float(np.nextafter(TAIL_SWITCH, np.inf)), 8.0, 40.0, 1e3, 1e6]


def posterior_with_covariance(model, mean, cov):
    """A coefficient posterior N(mean, cov), stored as its precision factor."""
    chol = np.linalg.cholesky(np.linalg.inv(cov))
    return PsiPosterior(model=model, psi1=mean, log_conditional_marginal=0.0, chol=chol)


def posterior_covariance(post):
    """The covariance of ``post``, from the precision factor it stores."""
    return np.linalg.inv(post.chol @ post.chol.T)


class TestTruncatedNormal:
    """The latent draw's truncated normal, on one-column datasets whose rows
    share one mean (``truncated_normal_draws``)."""

    @pytest.mark.parametrize("mu", [-8.0, -1.0, 0.0, 1.0, 8.0])
    def test_sign_constraint_negative(self, mu, rng):
        draws = truncated_normal_draws(mu, 500, True, rng)
        assert np.all(draws < 0.0)

    @pytest.mark.parametrize("mu", [-8.0, 0.0, 8.0])
    def test_sign_constraint_nonnegative(self, mu, rng):
        # N(mu, 2.5) has the standardized cut of N(mu / sqrt(2.5), 1); at
        # mu = -8 it lies past the tail switch.
        draws = truncated_normal_draws(mu / np.sqrt(2.5), 500, False, rng)
        assert np.all(draws >= 0.0)

    def test_half_normal_mean(self):
        # Analytic mean of N(0,1) restricted to the negative axis is -sqrt(2/pi).
        rng = np.random.default_rng(2024)
        draws = truncated_normal_draws(0.0, 1_000_000, True, rng)
        assert abs(draws.mean() - (-np.sqrt(2.0 / np.pi))) < 0.003

    def test_negligible_truncation_regime(self):
        # Mass below zero for N(8, 1) is ~6e-16, so moments match the
        # untruncated normal.
        rng = np.random.default_rng(7)
        draws = truncated_normal_draws(8.0, 1_000_000, False, rng)
        assert abs(draws.mean() - 8.0) < 0.01

    @pytest.mark.parametrize("cut", [-2.0, 2.0])
    def test_moments_against_scipy(self, cut):
        rng = np.random.default_rng(99)
        n = 400_000
        draws = truncated_normal_draws(-cut, n, False, rng)
        ref = truncnorm(a=cut, b=np.inf, loc=-cut, scale=1.0)
        assert abs(draws.mean() - ref.mean()) < 4.0 * ref.std() / np.sqrt(n)
        assert abs(draws.var(ddof=1) - ref.var()) < 0.02 * ref.var()

    def test_deep_tail_log_space_quantile_matches_scipy_mean(self):
        # Cut 7 sd into the tail, past the switch to the log-space quantile;
        # compare the conditional mean with scipy.
        rng = np.random.default_rng(41)
        draws = truncated_normal_draws(-7.0, 200_000, False, rng)
        ref = truncnorm(a=7.0, b=np.inf, loc=-7.0, scale=1.0)
        assert np.all(draws >= 0.0)
        assert abs(draws.mean() - ref.mean()) < 5.0 * ref.std() / np.sqrt(draws.size)

    @pytest.mark.parametrize("cut", TAIL_CUTS)
    def test_tail_draws_follow_the_exact_truncated_cdf(self, cut):
        # At mean -cut the uncensored scores are z = u - cut for the
        # standardized draw u >= cut, exactly (u < 2 cut, so the difference
        # is exact), and u = z + cut.  The exact CDF of u is
        # 1 - P(u >= x) / P(u >= cut), formed in log space; scipy's truncnorm
        # is not the reference, as its mean is off at 1e6.
        assert cut > TAIL_SWITCH
        rng = np.random.default_rng(23)
        u = truncated_normal_draws(-cut, 4000, False, rng) + cut
        result = kstest(u, lambda x: -np.expm1(log_ndtr(-x) - log_ndtr(-cut)))
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize("cut", TAIL_CUTS[:-1])
    @pytest.mark.parametrize("negative", [True, False])
    def test_no_tail_draw_falls_below_its_cut(self, cut, negative):
        # With the cut as the mean of a censored row (or its negation as that
        # of an uncensored one), the score is cut - u (u - cut) exactly.  A
        # draw below its cut would leave the sign clamp's boundary value,
        # -tiny (0); a draw that rounds to the cut itself has probability
        # about cut * ulp(cut) per draw, below 1e-10 up to a cut of 1e3, so
        # the largest cut of ``TAIL_CUTS`` is left to the KS test.
        rng = np.random.default_rng(29)
        draws = truncated_normal_draws(cut if negative else -cut, 20_000, negative, rng)
        if negative:
            assert np.all(draws < -np.finfo(np.float64).tiny)
        else:
            assert np.all(draws > 0.0)


class TestLatentConditional:
    def test_censored_case(self):
        ds = make_dataset(n=10, seed=5)
        row = int(np.flatnonzero(ds.censored)[0])
        mu, var, side = latent_conditional_params(row, ds, np.zeros(4), SigmaParams(0.9, 2.0))
        assert (mu, var, side) == (0.0, 1.0, "negative")

    def test_uncensored_decoupled(self):
        ds = make_dataset(n=10, seed=5)
        row = int(np.flatnonzero(~ds.censored)[0])
        psi = np.array([0.5, -0.2, 0.3, 0.3])
        mu, var, side = latent_conditional_params(row, ds, psi, SigmaParams(0.0, 3.0))
        assert mu == pytest.approx(float(ds.W[row] @ psi[:2]))
        assert var == 1.0
        assert side == "nonnegative"

    def test_uncensored_substitution(self):
        ds = TobitDataset(
            W=np.array([[1.0]]), X=np.array([[1.0]]), y=np.array([2.0]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        mu, var, side = latent_conditional_params(0, ds, np.zeros(2), SigmaParams(1.0, 1.0))
        assert mu == pytest.approx(1.0)
        assert var == pytest.approx(0.5)
        assert side == "nonnegative"

    def test_variance_strictly_positive(self):
        ds = make_dataset(n=5, seed=1, censored_fraction=0.0)
        _, var, _ = latent_conditional_params(0, ds, np.zeros(4), SigmaParams(50.0, 1e-3))
        assert var > 0.0


def reference_latent(dataset, fit, sp, rng):
    """The latent draw in its per-row form: a mean and an sd for every row,
    mirrored by the censoring side, then one uniform per row in row order,
    turned into the inverse-CDF draw for cuts up to ``TAIL_SWITCH`` and into
    the same quantile in log space for the rest.  Takes the design products
    from ``fit``, as ``sample_latent`` does."""
    mu = np.empty(dataset.n)
    mu[dataset.censored] = fit.sel_cen
    sd = np.ones(dataset.n)
    unc = np.flatnonzero(~dataset.censored)
    mu[unc] = fit.sel_unc
    if unc.size:
        g, phi = sp.gamma, sp.phi
        denom = phi + g * g
        mu[unc] += (g / denom) * fit.resid_unc
        sd[unc] = np.sqrt(phi / denom)
    negative = dataset.censored
    a = np.where(negative, mu, -mu) / sd
    uniform = rng.uniform(size=dataset.n)
    u = np.empty_like(a)
    easy = a <= TAIL_SWITCH
    u[easy] = -ndtri((1.0 - uniform[easy]) * ndtr(-a[easy]))
    hard = ~easy
    u[hard] = -ndtri_exp(np.log1p(-uniform[hard]) + log_ndtr(-a[hard]))
    x = np.where(negative, mu - sd * u, mu + sd * u)
    tiny = np.finfo(np.float64).tiny
    return np.where(negative, np.minimum(x, -tiny), np.maximum(x, 0.0))


def latent_problem(seed, n, censoring, scale, gamma, phi):
    """A dataset and a coefficient vector whose selection means have spread
    ``scale``; at large spread some rows' cuts lie past ``TAIL_SWITCH``."""
    gen = np.random.default_rng(seed)
    if censoring == "none":
        censored = np.zeros(n, bool)
    elif censoring == "all":
        censored = np.ones(n, bool)
    else:
        censored = gen.uniform(size=n) < 0.5
    ds = TobitDataset(
        W=gen.standard_normal((n, 3)), X=gen.standard_normal((n, 2)),
        y=np.where(censored, 0.0, 2.0 * gen.standard_normal(n)), censored=censored,
        column_names_w=("w0", "w1", "w2"), column_names_x=("x0", "x1"),
    )
    psi = np.concatenate([scale * gen.standard_normal(3), gen.standard_normal(2)])
    return ds, psi, SigmaParams(gamma, phi)


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def assert_halves_equal(ds, latent, z):
    """``latent``'s halves hold the row-order ``z`` bit for bit."""
    assert np.array_equal(bits(latent.z_unc), bits(z[~ds.censored]))
    assert np.array_equal(bits(latent.z_cen), bits(z[ds.censored]))


class TestSampleLatent:
    def test_empty(self, rng):
        ds = TobitDataset(
            W=np.zeros((0, 1)), X=np.zeros((0, 1)), y=np.zeros(0),
            censored=np.zeros(0, bool), column_names_w=("w",), column_names_x=("x",),
        )
        state = rng.bit_generator.state
        latent = sample_latent(ds, full_fit(ds, np.zeros(2)), SigmaParams(0.0, 1.0), rng)
        assert latent.z_unc.shape == latent.z_cen.shape == (0,)
        assert rng.bit_generator.state == state

    def test_all_censored_mean(self):
        rng = np.random.default_rng(3)
        n = 200_000
        ds = TobitDataset(
            W=np.zeros((n, 1)), X=np.zeros((n, 1)), y=np.zeros(n),
            censored=np.ones(n, bool), column_names_w=("w",), column_names_x=("x",),
        )
        latent = sample_latent(ds, full_fit(ds, np.zeros(2)), SigmaParams(0.0, 1.0), rng)
        z = latent.z_cen
        assert latent.z_unc.size == 0 and z.size == n
        assert np.all(z < 0)
        assert abs(z.mean() + np.sqrt(2.0 / np.pi)) < 0.01

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_pattern_matches_censoring(self, seed):
        ds = make_dataset(n=200, seed=seed)
        rng = np.random.default_rng(seed + 10)
        psi = np.array([0.4, -0.8, 1.0, 0.2])
        latent = sample_latent(ds, full_fit(ds, psi), SigmaParams(0.7, 0.6), rng)
        assert np.array_equal(latent_rows(ds, latent) < 0, ds.censored)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        censoring=st.sampled_from(["mixed", "none", "all"]),
        scale=st.sampled_from([0.3, 2.0, 8.0]),
        gamma=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
        phi=st.floats(0.01, 10.0),
    )
    def test_matches_per_row_reference_bit_for_bit(self, seed, n, censoring, scale, gamma, phi):
        ds, psi, sp = latent_problem(seed, n, censoring, scale, gamma, phi)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fit = full_fit(ds, psi)
        latent = sample_latent(ds, fit, sp, rng)
        assert_halves_equal(ds, latent, reference_latent(ds, fit, sp, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("censoring", ["mixed", "none", "all"])
    def test_rows_past_tail_switch_match_reference(self, censoring):
        ds, psi, sp = latent_problem(5, 400, censoring, 8.0, 0.6, 0.8)
        mu = ds.W @ psi[:3]
        denom = sp.phi + sp.gamma**2
        mu_unc = mu[~ds.censored] + sp.gamma / denom * (ds.y - ds.X @ psi[3:])[~ds.censored]
        cuts = np.concatenate([mu[ds.censored], -mu_unc / np.sqrt(sp.phi / denom)])
        assert np.count_nonzero(cuts > TAIL_SWITCH) >= 10
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        fit = full_fit(ds, psi)
        latent = sample_latent(ds, fit, sp, rng)
        assert_halves_equal(ds, latent, reference_latent(ds, fit, sp, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # Tail rows take one uniform each, like every other row.
        alone = np.random.default_rng(3)
        alone.random(ds.n)
        assert rng.bit_generator.state == alone.bit_generator.state

    @staticmethod
    def fit_with_selection_value(ds, half, value):
        """Fitted values of ``ds`` at fixed coefficients, with one of
        ``half``'s selection products W theta set to ``value``."""
        fit = full_fit(ds, np.array([0.4, -0.3, 0.2, 0.1]))
        field = {"uncensored": "sel_unc", "censored": "sel_cen"}[half]
        sel = getattr(fit, field).copy()
        sel[1] = value
        return dataclasses.replace(fit, **{field: sel})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("half", ["uncensored", "censored"])
    def test_a_non_finite_cut_names_its_half(self, half, value):
        ds = make_dataset(n=30, seed=3)
        fit = self.fit_with_selection_value(ds, half, value)
        with pytest.raises(NumericalError, match=f"non-finite latent cut in the {half} rows"):
            sample_latent(ds, fit, SigmaParams(0.5, 1.0), np.random.default_rng(0))

    @pytest.mark.parametrize("half", ["uncensored", "censored"])
    def test_a_cut_too_deep_to_draw_names_its_half(self, half):
        # The cut is W theta on a censored row and -W theta on an uncensored
        # one at gamma = 0; past about 1e154, log_ndtr(-cut) overflows to -inf.
        ds = make_dataset(n=30, seed=3)
        fit = self.fit_with_selection_value(ds, half, 1e200 if half == "censored" else -1e200)
        with pytest.raises(NumericalError, match=rf"latent cut 1e\+200 in the {half} rows is too deep"):
            sample_latent(ds, fit, SigmaParams(0.0, 1.0), np.random.default_rng(0))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 80),
        censoring=st.sampled_from(["mixed", "none", "all"]),
        data=st.data(),
    )
    def test_fitted_halves_match_the_full_products(self, seed, n, censoring, data):
        ds, psi, _ = latent_problem(seed, n, censoring, 2.0, 0.0, 1.0)
        include = np.array(data.draw(st.lists(st.booleans(), min_size=5, max_size=5)))
        model = ModelIndicator(include, np.zeros(5, bool), 3)
        # The model's active coefficients; the stacked vector is zero elsewhere.
        fit = fitted_values(model_rows(ds, model), psi[include])
        psi = np.where(include, psi, 0.0)
        theta, beta = psi[:3], psi[3:]
        unc = ~ds.censored
        sel = ds.W @ theta
        sel_mag = np.abs(ds.W) @ np.abs(theta)
        resid = ds.y[unc] - ds.X[unc] @ beta
        resid_mag = np.abs(ds.y[unc]) + np.abs(ds.X[unc]) @ np.abs(beta)
        assert np.all(np.abs(fit.sel_unc - sel[unc]) <= 1e-12 * sel_mag[unc])
        assert np.all(np.abs(fit.sel_cen - sel[~unc]) <= 1e-12 * sel_mag[~unc])
        assert np.all(np.abs(fit.resid_unc - resid) <= 1e-12 * resid_mag)
        for values in (fit.sel_unc, fit.sel_cen, fit.resid_unc):
            assert not values.flags.writeable


def frozen(values):
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


class TestLatentScores:
    """The halves the sampler keeps and their sign contract."""

    def test_from_rows_gathers_read_only_halves(self):
        ds = make_dataset(n=30, seed=3)
        z = consistent_z(ds)
        latent = LatentScores.from_rows(ds, z)
        assert_halves_equal(ds, latent, z)
        assert not latent.z_unc.flags.writeable and not latent.z_cen.flags.writeable
        assert np.array_equal(latent_rows(ds, latent), z)

    @pytest.mark.parametrize(
        ("z_unc", "z_cen", "cause"),
        [
            ([0.0, -1.0], [-0.5], "an uncensored row's latent score is negative"),
            ([0.0, -np.finfo(np.float64).tiny], [-0.5], "an uncensored row's latent score is negative"),
            ([1.0], [-0.5, 0.0], "a censored row's latent score is not negative"),
            ([1.0], [-0.5, 2.0], "a censored row's latent score is not negative"),
            ([1.0], [np.nan], "a censored row's latent score is not negative"),
        ],
    )
    def test_a_score_on_the_wrong_side_is_rejected(self, z_unc, z_cen, cause):
        with pytest.raises(InvalidState, match=cause):
            LatentScores(frozen(z_unc), frozen(z_cen))

    def test_scores_at_the_boundary_are_accepted(self):
        latent = LatentScores(frozen([0.0, 2.0]), frozen([-np.finfo(np.float64).tiny, -3.0]))
        assert latent.z_unc.tolist() == [0.0, 2.0]

    def test_a_row_order_vector_of_the_wrong_sign_is_rejected(self):
        ds = make_dataset(n=30, seed=3)
        for row in (int(np.flatnonzero(ds.censored)[0]), int(np.flatnonzero(~ds.censored)[0])):
            z = consistent_z(ds)
            z[row] = -z[row]
            with pytest.raises(InvalidState):
                LatentScores.from_rows(ds, z)

    def test_writable_or_malformed_halves_are_rejected(self):
        good = frozen([1.0])
        with pytest.raises(InvalidParameter, match="z_unc must be read-only"):
            LatentScores(np.array([1.0]), frozen([-1.0]))
        with pytest.raises(InvalidParameter, match="z_cen must be read-only"):
            LatentScores(good, np.array([-1.0]))
        for bad in ([1.0], frozen([[1.0]]), np.ones(1, dtype=np.float32)):
            with pytest.raises(InvalidParameter, match="z_unc must be a 1-d float64 array"):
                LatentScores(bad, frozen([-1.0]))

    def test_wrong_lengths_are_rejected(self):
        ds = make_dataset(n=30, seed=3)
        z = consistent_z(ds)
        for short in (z[:-1], np.append(z, 1.0), z[None, :]):
            with pytest.raises(InvalidParameter, match="z must have length 30"):
                LatentScores.from_rows(ds, short)
        other = LatentScores.from_rows(make_dataset(n=31, seed=3), consistent_z(make_dataset(n=31, seed=3)))
        with pytest.raises(InvalidParameter, match="latent halves have"):
            sweep_statistics(null_rows(ds), other, SigmaParams(0.0, 1.0))


class TestPsiPosterior:
    def test_empty_dataset_returns_prior(self, rng):
        ds = TobitDataset(
            W=np.zeros((0, 2)), X=np.zeros((0, 2)), y=np.zeros(0),
            censored=np.zeros(0, bool), column_names_w=("a", "b"), column_names_x=("c", "d"),
        )
        prior = unit_prior(2, 2, Theta0=np.diag([2.0, 3.0]), B0=np.diag([4.0, 5.0]),
                           theta0=np.array([1.0, -1.0]), beta0=np.array([0.5, 0.0]))
        model = ModelIndicator(np.array([True, False, True, True]), np.zeros(4, bool), 2)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, np.zeros(0)), SigmaParams(0.2, 1.0))
        post = conditional_log_marginal(stats, prior, model)
        assert np.allclose(post.psi1, [1.0, 0.5, 0.0])
        assert np.allclose(posterior_covariance(post), np.diag([2.0, 4.0, 5.0]))

    def test_all_censored_leaves_outcome_block_at_prior(self):
        ds = make_dataset(n=20, seed=8, censored_fraction=1.1)  # every row censored
        assert ds.n_o == 0
        z = consistent_z(ds)
        prior = unit_prior(2, 2, B0=np.diag([3.0, 7.0]), beta0=np.array([2.0, -2.0]))
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, z), SigmaParams(0.5, 2.0))
        post = conditional_log_marginal(stats, prior, ModelIndicator.full_model(2, 2))
        assert np.allclose(post.psi1[2:], [2.0, -2.0])
        cov = posterior_covariance(post)
        assert np.allclose(cov[2:, 2:], np.diag([3.0, 7.0]))
        assert np.allclose(cov[:2, 2:], 0.0)

    def test_decoupled_conjugate_regression(self):
        # gamma = 0, nothing censored: each block is a textbook normal update.
        ds = make_dataset(n=60, seed=21, censored_fraction=0.0)
        rng = np.random.default_rng(2)
        z = np.abs(rng.standard_normal(ds.n))
        phi = 1.7
        prior = unit_prior(2, 2, Theta0=np.diag([2.0, 0.5]), B0=np.diag([1.5, 3.0]),
                           theta0=np.array([0.2, 0.0]), beta0=np.array([-0.1, 0.4]))
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, z), SigmaParams(0.0, phi))
        post = conditional_log_marginal(stats, prior, ModelIndicator.full_model(2, 2))

        prec_theta = np.linalg.inv(np.diag([2.0, 0.5])) + ds.W.T @ ds.W
        mean_theta = np.linalg.solve(
            prec_theta, np.linalg.inv(np.diag([2.0, 0.5])) @ prior.theta0 + ds.W.T @ z
        )
        prec_beta = np.linalg.inv(np.diag([1.5, 3.0])) + ds.X.T @ ds.X / phi
        mean_beta = np.linalg.solve(
            prec_beta, np.linalg.inv(np.diag([1.5, 3.0])) @ prior.beta0 + ds.X.T @ ds.y / phi
        )
        assert np.allclose(post.psi1[:2], mean_theta, rtol=1e-10)
        assert np.allclose(post.psi1[2:], mean_beta, rtol=1e-10)
        cov = posterior_covariance(post)
        assert np.allclose(cov[:2, :2], np.linalg.inv(prec_theta), rtol=1e-10)
        assert np.allclose(cov[2:, 2:], np.linalg.inv(prec_beta), rtol=1e-10)
        assert np.allclose(cov[:2, 2:], 0.0)


def dense_linear_term(ds, z, sp):
    """The linear term at every covariate from the full row-major design,
    W_u'(a11 z_u + a12 y_u) + W_c'z_c over X_u'(a12 z_u + a22 y_u), with the
    summed magnitude of the products it adds up."""
    g, phi = sp.gamma, sp.phi
    a11, a12, a22 = 1.0 + g * g / phi, -g / phi, 1.0 / phi
    unc, cen = ~ds.censored, ds.censored
    z_u, z_c, y_u = z[unc], z[cen], ds.y[unc]
    lin = np.concatenate([
        ds.W[unc].T @ (a11 * z_u + a12 * y_u) + ds.W[cen].T @ z_c,
        ds.X[unc].T @ (a12 * z_u + a22 * y_u),
    ])
    W_u, W_c, X_u = np.abs(ds.W[unc]), np.abs(ds.W[cen]), np.abs(ds.X[unc])
    mag = np.concatenate([
        W_u.T @ (abs(a11) * np.abs(z_u) + abs(a12) * np.abs(y_u)) + W_c.T @ np.abs(z_c),
        X_u.T @ (abs(a12) * np.abs(z_u) + a22 * np.abs(y_u)),
    ])
    return lin, mag


@st.composite
def scoring_problems(draw):
    """A dataset, latent scores and covariance, a retained model, and a call
    order over a few models that share one forced mask; models repeat in
    the order."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    ds = make_dataset(n=draw(st.integers(0, 40)), p=p, q=q, seed=seed,
                      censored_fraction=draw(st.sampled_from([0.0, 0.4, 1.1])))
    z = consistent_z(ds, seed=seed % 1000)
    sp = SigmaParams(float(gen.uniform(-2.0, 2.0)), float(gen.uniform(0.1, 3.0)))
    forced = np.array(draw(st.lists(st.booleans(), min_size=p + q, max_size=p + q)))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=p + q, max_size=p + q), min_size=1, max_size=4))
    models = [ModelIndicator(np.array(m) | forced, forced, p) for m in masks]
    order = draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=8))
    retained = models[draw(st.integers(0, len(models) - 1))]
    return ds, z, sp, retained, [models[i] for i in order]


class TestLinearTermOnDemand:
    """The linear term is formed at the retained model's covariates up front
    and at any other covariate the first time a scored model reads it, then
    kept for the rest of the sweep."""

    @settings(max_examples=150, deadline=None)
    @given(problem=scoring_problems())
    def test_every_entry_read_matches_the_dense_term(self, problem):
        ds, z, sp, retained, order = problem
        prior = unit_prior(ds.p, ds.q)
        stats = sweep_statistics(model_rows(ds, retained), latent_scores(ds, z), sp)
        lin, mag = dense_linear_term(ds, z, sp)
        for model in order:
            post = conditional_log_marginal(stats, prior, model)
            active = model.active_positions
            assert np.all(np.abs(stats.linear_term(active) - lin[active]) <= 1e-12 * mag[active])
            # The posterior mean solves the dense system on the active subspace.
            prec = np.eye(model.d) + stats.gram[np.ix_(active, active)]
            assert np.allclose(post.psi1, np.linalg.solve(prec, lin[active]), rtol=1e-9, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(problem=scoring_problems())
    def test_a_model_scored_again_is_bit_identical(self, problem):
        ds, z, sp, retained, order = problem
        prior = unit_prior(ds.p, ds.q)
        stats = sweep_statistics(model_rows(ds, retained), latent_scores(ds, z), sp)
        first = conditional_log_marginal(stats, prior, order[0])
        for model in order[1:]:
            conditional_log_marginal(stats, prior, model)
        again = conditional_log_marginal(stats, prior, order[0])
        assert np.array_equal(bits(again.psi1), bits(first.psi1))
        assert np.array_equal(bits(again.chol), bits(first.chol))
        assert bits(again.log_conditional_marginal) == bits(first.log_conditional_marginal)

    @settings(max_examples=100, deadline=None)
    @given(problem=scoring_problems())
    def test_entries_formed_up_front_equal_those_formed_on_read(self, problem):
        ds, z, sp, retained, _ = problem
        every = np.arange(ds.p + ds.q)
        latent = latent_scores(ds, z)
        up_front = sweep_statistics(model_rows(ds, retained), latent, sp).linear_term(every)
        on_read = sweep_statistics(null_rows(ds), latent, sp).linear_term(every)
        assert np.array_equal(bits(up_front), bits(on_read))


def reference_score(stats, prior, model):
    """``conditional_log_marginal`` with the restricted prior factored and
    inverted on every call, in the same LAPACK calls and order of sums."""
    psi0, Psi0 = prior.restrict(model)
    cho0, _ = dpotrf(Psi0, lower=1, clean=0)
    logdet0 = 2.0 * float(np.log(cho0.diagonal()).sum())
    lin, _ = dpotrs(cho0, psi0, lower=1)
    quad0 = float(psi0 @ lin)
    prec, _ = dpotrs(cho0, np.eye(model.d), lower=1)
    active = model.active_positions
    prec += stats.gram[active[:, None], active]
    lin += stats.linear_term(active)
    chol, _ = dpotrf(prec, lower=1, clean=1, overwrite_a=1)
    psi1, _ = dpotrs(chol, lin, lower=1)
    logdet_prec = 2.0 * float(np.log(chol.diagonal()).sum())
    return psi1, chol, 0.5 * (-logdet_prec - logdet0 - quad0 + float(psi1 @ lin))


def prior_kwargs(p, q, gen, diagonal):
    """PriorSpec arguments with random means and diagonal or dense SPD blocks."""
    def block(k):
        if diagonal:
            return np.diag(gen.uniform(0.2, 5.0, size=k))
        a = gen.standard_normal((k, k))
        return a @ a.T + k * np.eye(k)
    return dict(theta0=gen.standard_normal(p), Theta0=block(p), beta0=gen.standard_normal(q), B0=block(q),
                gamma0=0.0, G0=1.0, s0=4.0, S0=4.0)


@st.composite
def cached_scoring_problems(draw):
    """Sweep statistics, the arguments of a PriorSpec, and a sequence of
    nonempty models over one forced mask, some repeated."""
    ds, z, sp, retained, _ = draw(scoring_problems())
    pq = ds.p + ds.q
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kwargs = prior_kwargs(ds.p, ds.q, gen, draw(st.booleans()))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=pq, max_size=pq), min_size=1, max_size=60))
    models = [ModelIndicator(np.array(m) | retained.forced, retained.forced, ds.p) for m in masks]
    models = [m for m in models if m.d] or [ModelIndicator.full_model(ds.p, ds.q, retained.forced)]
    return sweep_statistics(model_rows(ds, retained), latent_scores(ds, z), sp), kwargs, models


class TestPriorTermCache:
    """Each model's restricted prior terms are formed once, kept in a bounded
    cache on the prior, and read without being changed."""

    @settings(max_examples=100, deadline=None)
    @given(problem=cached_scoring_problems())
    def test_cold_warm_and_fresh_scores_are_bit_identical(self, problem):
        stats, kwargs, models = problem
        prior = PriorSpec(**kwargs)
        cold = [conditional_log_marginal(stats, prior, model) for model in models]
        for model, first in zip(models, cold):
            warm = conditional_log_marginal(stats, prior, model)
            fresh = conditional_log_marginal(stats, PriorSpec(**kwargs), model)
            psi1, chol, value = reference_score(stats, PriorSpec(**kwargs), model)
            for post in (first, warm, fresh):
                assert np.array_equal(bits(post.psi1), bits(psi1))
                assert np.array_equal(bits(post.chol), bits(chol))
                assert bits(post.log_conditional_marginal) == bits(value)

    @settings(max_examples=100, deadline=None)
    @given(problem=cached_scoring_problems(), budget=st.integers(0, 2_000))
    def test_cache_stays_within_its_bound(self, problem, budget):
        # Reference: least recently used first, dropped while the kept
        # precisions (d^2 doubles each) pass the budget, the newest kept.
        stats, kwargs, models = problem
        prior = PriorSpec(**kwargs)
        expected = {}
        with mock.patch.object(tbma.core, "PRIOR_CACHE_BYTES", budget):
            for model in models:
                conditional_log_marginal(stats, prior, model)
                key = model.include.tobytes()
                expected[key] = expected.pop(key, 8 * model.d**2)
                while len(expected) > 1 and sum(expected.values()) > budget:
                    del expected[next(iter(expected))]
                assert list(prior._restricted) == list(expected)
                held = [entry.precision.nbytes for entry in prior._restricted.values()]
                assert held == list(expected.values())
                assert prior._restricted_nbytes == sum(held)

    @settings(max_examples=100, deadline=None)
    @given(problem=cached_scoring_problems())
    def test_cached_terms_are_read_only_and_unchanged_by_scoring(self, problem):
        stats, kwargs, models = problem
        prior = PriorSpec(**kwargs)
        for model in models:
            conditional_log_marginal(stats, prior, model)
        entries = list(prior._restricted.values())
        snapshot = [(e.precision.tobytes(), e.precision_mean.tobytes(), e.logdet, e.quad) for e in entries]
        for entry in entries:
            assert not entry.precision.flags.writeable
            assert not entry.precision_mean.flags.writeable
        for model in models:
            conditional_log_marginal(stats, prior, model)
        assert [(e.precision.tobytes(), e.precision_mean.tobytes(), e.logdet, e.quad) for e in entries] == snapshot

    def test_least_recently_used_model_is_dropped(self, monkeypatch):
        fills = []
        restrict = PriorSpec.restrict

        def counting(prior, model):
            fills.append(model.key())
            return restrict(prior, model)

        monkeypatch.setattr(PriorSpec, "restrict", counting)
        ds = make_dataset(n=20, p=3, q=3, seed=4)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, consistent_z(ds)), SigmaParams(0.3, 1.2))
        prior = unit_prior(3, 3)
        # The 20 models of 3 covariates each keep a 3 x 3 precision; 8 fit.
        bound = 8
        monkeypatch.setattr(tbma.core, "PRIOR_CACHE_BYTES", bound * 3 * 3 * 8)
        forced = np.zeros(6, bool)
        models = [ModelIndicator(np.array([(k >> b) & 1 for b in range(6)], bool), forced, 3) for k in range(1, 64)]
        models = [model for model in models if model.d == 3]
        kept, others = models[0], models[1 : bound + 1]
        conditional_log_marginal(stats, prior, kept)
        for model in others[:-1]:
            conditional_log_marginal(stats, prior, model)
        conditional_log_marginal(stats, prior, kept)  # a hit: now the most recently used
        conditional_log_marginal(stats, prior, others[-1])  # full: drops others[0]
        assert len(fills) == bound + 1
        conditional_log_marginal(stats, prior, kept)
        assert len(fills) == bound + 1
        conditional_log_marginal(stats, prior, others[0])
        assert fills[-1] == others[0].key() and len(fills) == bound + 2


def log_model_prior(model_prior, model):
    """log pr(model) up to a constant: each free bit is in with probability pi."""
    if model_prior.kind == "flat":
        return 0.0
    free = ~model.forced
    k = np.count_nonzero(model.include & free)
    return k * np.log(model_prior.pi) + (np.count_nonzero(free) - k) * np.log1p(-model_prior.pi)


def per_model_delta(stats, prior, current, position, model_prior=ModelPrior()):
    """A toggle's log posterior ratio from two ``conditional_log_marginal``
    scores and the model prior's mass of each model."""
    model, toggled = current.model, current.model.with_toggled(position)
    after = conditional_log_marginal(stats, prior, toggled).log_conditional_marginal
    return (after + log_model_prior(model_prior, toggled)) - (
        current.log_conditional_marginal + log_model_prior(model_prior, model))


class TestToggleLogBayesFactor:
    """The toggle's log conditional Bayes factor from the current model's
    precision factor equals the difference of the two models' scores."""

    @settings(max_examples=150, deadline=None)
    @given(problem=scoring_problems(), seed=st.integers(0, 2**32 - 1), pi=st.sampled_from([None, 0.3, 0.8]))
    def test_border_matches_the_per_model_difference(self, problem, seed, pi):
        # Random models over forced masks; every free bit of each is toggled,
        # so additions and deletions both come up.  Unequal prior variances,
        # nonzero means, and both model priors through the toggle's ratio.
        ds, z, sp, retained, order = problem
        model_prior = ModelPrior() if pi is None else ModelPrior("bernoulli", pi)
        prior = PriorSpec(**prior_kwargs(ds.p, ds.q, np.random.default_rng(seed), diagonal=True))
        assert prior.is_diagonal
        stats = sweep_statistics(model_rows(ds, retained), latent_scores(ds, z), sp)
        for model in order:
            current = conditional_log_marginal(stats, prior, model)
            for position in model.free_positions().tolist():
                adding = not model.include[position]
                delta = toggle_log_bayes_factor(stats, prior, current, position) + model_prior.toggle_log_ratio(adding)
                expected = per_model_delta(stats, prior, current, position, model_prior)
                assert abs(delta - expected) <= 1e-9, (model.key(), position, delta, expected)

    @pytest.mark.parametrize("n", [0, 25])
    def test_to_and_from_the_null_model(self, n):
        # d = 0 -> 1 reads an empty factor, 1 -> 0 strips a 1 x 1 one.
        ds = make_dataset(n=n, p=2, q=2, seed=5)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, consistent_z(ds, seed=3)), SigmaParams(0.4, 0.8))
        prior = PriorSpec(**prior_kwargs(2, 2, np.random.default_rng(17), diagonal=True))
        null = conditional_log_marginal(stats, prior, ModelIndicator.null_model(2, 2))
        for position in range(4):
            single = conditional_log_marginal(stats, prior, null.model.with_toggled(position))
            difference = single.log_conditional_marginal - null.log_conditional_marginal
            assert abs(toggle_log_bayes_factor(stats, prior, null, position) - difference) <= 1e-9
            assert abs(toggle_log_bayes_factor(stats, prior, single, position) + difference) <= 1e-9

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_only_a_dense_prior_scores_the_toggled_model(self, diagonal):
        ds = make_dataset(n=30, p=3, q=2, seed=8)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, consistent_z(ds)), SigmaParams(-0.5, 1.3))
        prior = PriorSpec(**prior_kwargs(3, 2, np.random.default_rng(4), diagonal))
        assert prior.is_diagonal == diagonal
        current = conditional_log_marginal(stats, prior, ModelIndicator(np.array([1, 0, 1, 1, 0], bool),
                                                                         np.zeros(5, bool), 3))
        real = tbma.conditionals.conditional_log_marginal
        for position in range(5):
            with mock.patch.object(tbma.conditionals, "conditional_log_marginal", wraps=real) as scored:
                delta = toggle_log_bayes_factor(stats, prior, current, position)
            expected = per_model_delta(stats, prior, current, position)
            if diagonal:
                assert scored.call_count == 0
                assert abs(delta - expected) <= 1e-9
            else:
                assert scored.call_count == 1
                assert delta == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["gram", "lin"])
    def test_non_finite_statistics_name_the_position(self, where, bad):
        stats = TestScoringErrors.statistics()
        prior = unit_prior(2, 2)
        current = conditional_log_marginal(stats, prior, ModelIndicator(np.array([1, 0, 1, 0], bool),
                                                                         np.zeros(4, bool), 2))
        if where == "gram":
            gram = stats.gram.copy()
            gram[0, 3] = gram[3, 0] = bad
            stats = dataclasses.replace(stats, gram=gram)
        else:
            z_unc = stats.z_unc.copy()
            z_unc[1] = bad
            stats = dataclasses.replace(stats, z_unc=z_unc)
        with pytest.raises(NumericalError, match="non-finite values in the precision bordered at position 3"):
            toggle_log_bayes_factor(stats, prior, current, 3)

    @pytest.mark.filterwarnings("error")
    def test_non_positive_pivots_name_the_position(self):
        stats = TestScoringErrors.statistics()
        prior = unit_prior(2, 2)
        current = conditional_log_marginal(stats, prior, ModelIndicator.null_model(2, 2))
        gram = stats.gram.copy()
        gram[1, 1] = -1e6
        with pytest.raises(NumericalError, match=r"precision bordered at position 1 is not positive definite"):
            toggle_log_bayes_factor(dataclasses.replace(stats, gram=gram), prior, current, 1)
        # A factor this close to singular puts an infinite variance on the
        # covariate a deletion drops.
        model = ModelIndicator.null_model(2, 2).with_toggled(2)
        tiny = PsiPosterior(model, np.zeros(1), 0.0, np.array([[1e-200]]))
        with pytest.raises(NumericalError, match="non-finite values in the precision stripped of position 2"):
            toggle_log_bayes_factor(stats, prior, tiny, 2)


class TestScoringErrors:
    """Faults of the coefficient conditional, from a sweep's statistics with
    one part replaced."""

    model = ModelIndicator.full_model(2, 2)

    @staticmethod
    def statistics():
        ds = make_dataset(n=20, seed=4)
        return sweep_statistics(null_rows(ds), latent_scores(ds, consistent_z(ds)), SigmaParams(0.3, 1.2))

    def test_large_negative_eigenvalue_is_not_positive_definite(self):
        v = np.array([0.5, -0.5, 0.5, 0.5])
        stats = dataclasses.replace(self.statistics(), gram=np.eye(4) - 1e6 * np.outer(v, v))
        with pytest.raises(NumericalError, match="coefficient precision matrix is not positive definite"):
            conditional_log_marginal(stats, unit_prior(2, 2), self.model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["lin", "gram"])
    def test_non_finite_statistics(self, where, bad):
        stats = self.statistics()
        if where == "lin":
            z_unc = stats.z_unc.copy()
            z_unc[1] = bad
            stats = dataclasses.replace(stats, z_unc=z_unc)
        else:
            gram = stats.gram.copy()
            gram[2, 3] = gram[3, 2] = bad
            stats = dataclasses.replace(stats, gram=gram)
        with pytest.raises(NumericalError, match="non-finite values in the coefficient precision system"):
            conditional_log_marginal(stats, unit_prior(2, 2), self.model)


class TestGammaPhiPosteriors:
    def test_gamma_no_uncensored_returns_prior(self):
        ds = make_dataset(n=10, seed=8, censored_fraction=1.1)
        z = consistent_z(ds)
        # G0 = 3 would expose any reciprocal round trip; the empty case must
        # hand back the prior exactly.
        prior = unit_prior(2, 2, gamma0=0.7, G0=3.0)
        post = gamma_posterior_params(*uncensored_residuals(ds, z, full_fit(ds, np.zeros(4))), 1.0, prior)
        assert (post.gamma1, post.G1) == (0.7, 3.0)

    def test_gamma_diffuse_single_row(self):
        # One uncensored row with residuals (1, 2) and a nearly flat prior.
        ds = TobitDataset(
            W=np.zeros((1, 1)), X=np.zeros((1, 1)), y=np.array([2.0]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        prior = unit_prior(1, 1, gamma0=0.0, G0=1e6)
        fit = full_fit(ds, np.zeros(2))
        post = gamma_posterior_params(*uncensored_residuals(ds, np.array([1.0]), fit), 1.0, prior)
        assert post.gamma1 == pytest.approx(2.0, rel=1e-3)
        assert post.G1 == pytest.approx(1.0, rel=1e-3)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 9999), phi=st.floats(0.05, 20.0))
    def test_gamma_precision_never_decreases(self, seed, phi):
        ds = make_dataset(n=20, seed=seed % 7)
        z = consistent_z(ds, seed=seed)
        prior = unit_prior(2, 2, G0=3.0)
        post = gamma_posterior_params(*uncensored_residuals(ds, z, full_fit(ds, np.zeros(4))), phi, prior)
        assert post.G1 <= prior.G0 + 1e-15

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 9999),
        coefs=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        gamma=st.floats(-5.0, 5.0),
        phi=st.floats(0.05, 20.0),
    )
    def test_gamma_and_phi_match_direct_residuals(self, seed, coefs, gamma, phi):
        ds = make_dataset(n=25, seed=seed % 7)
        z = consistent_z(ds, seed=seed)
        psi = np.array(coefs)
        prior = unit_prior(2, 2, gamma0=0.3, G0=2.0, s0=4.0, S0=3.0)
        unc = ~ds.censored
        e_z = z[unc] - ds.W[unc] @ psi[:2]
        e_y = ds.y[unc] - ds.X[unc] @ psi[2:]
        G1 = 1.0 / (1.0 / prior.G0 + float(e_z @ e_z) / phi)
        gamma1 = G1 * (prior.gamma0 / prior.G0 + float(e_z @ e_y) / phi)
        # gamma1 can cancel towards zero, so its tolerance also scales with
        # the magnitude of the terms it sums.
        terms = G1 * (abs(prior.gamma0 / prior.G0) + float(np.abs(e_z) @ np.abs(e_y)) / phi)
        resid = gamma * e_z - e_y

        residuals = uncensored_residuals(ds, z, full_fit(ds, psi))
        post_gamma = gamma_posterior_params(*residuals, phi, prior)
        post_phi = phi_posterior_params(*residuals, gamma, prior)
        assert post_gamma.G1 == pytest.approx(G1, rel=1e-12)
        assert post_gamma.gamma1 == pytest.approx(gamma1, rel=1e-12, abs=1e-12 * terms)
        assert post_phi.s1 == prior.s0 + ds.n_o
        assert post_phi.S1 == pytest.approx(prior.S0 + float(resid @ resid), rel=1e-12)

    def test_phi_no_uncensored_returns_prior(self):
        ds = make_dataset(n=10, seed=8, censored_fraction=1.1)
        z = consistent_z(ds)
        prior = unit_prior(2, 2, s0=3.0, S0=9.0)
        post = phi_posterior_params(*uncensored_residuals(ds, z, full_fit(ds, np.zeros(4))), 0.4, prior)
        assert (post.s1, post.S1) == (3.0, 9.0)

    def test_phi_gamma_zero_is_outcome_rss(self):
        ds = make_dataset(n=30, seed=2)
        z = consistent_z(ds)
        psi = np.array([0.1, 0.2, -0.3, 0.5])
        prior = unit_prior(2, 2, s0=5.0, S0=2.0)
        post = phi_posterior_params(*uncensored_residuals(ds, z, full_fit(ds, psi)), 0.0, prior)
        unc = ~ds.censored
        e_y = ds.y[unc] - ds.X[unc] @ psi[2:]
        assert post.s1 == 5.0 + ds.n_o
        assert post.S1 == pytest.approx(2.0 + float(e_y @ e_y), rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 9999), gamma=st.floats(-10.0, 10.0))
    def test_phi_scale_never_decreases(self, seed, gamma):
        ds = make_dataset(n=20, seed=seed % 5)
        z = consistent_z(ds, seed=seed)
        psi = np.array([0.3, -0.4, 0.9, 0.0])
        prior = unit_prior(2, 2, S0=1.0)
        post = phi_posterior_params(*uncensored_residuals(ds, z, full_fit(ds, psi)), gamma, prior)
        assert post.S1 >= prior.S0


class TestDraws:
    def test_inverse_gamma_mean(self):
        # Shape 2, scale 2 has mean scale / (shape - 1) = 2.
        rng = np.random.default_rng(515)
        from tbma.conditionals import PhiPosterior

        post = PhiPosterior(s1=4.0, S1=4.0)
        draws = np.array([draw_phi(post, rng) for _ in range(1_000_000)])
        assert np.all(draws > 0.0)
        assert abs(draws.mean() - 2.0) < 0.02

    def test_psi_draw_covariance(self):
        rng = np.random.default_rng(77)
        model = ModelIndicator.full_model(1, 1)
        Psi1 = np.array([[1.0, 0.6], [0.6, 2.0]])
        post = posterior_with_covariance(model, np.array([1.0, -1.0]), Psi1)
        draws = np.array([draw_psi(post, rng) for _ in range(1_000_000)])
        emp = np.cov(draws.T)
        assert np.all(np.abs(emp - Psi1) <= 0.01 * np.abs(Psi1))
        assert np.allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.01)

    def test_draw_is_the_mean_plus_one_triangular_solve(self):
        # psi1 + x with L' x = eps for the stored precision factor L: the
        # draw has covariance (L L')^{-1}.  A dense covariance tells L^{-T}
        # from L^{-1}.
        model = ModelIndicator(np.array([True, True, False, True, True]), np.zeros(5, bool), 3)
        cov = np.array([[1.0, 0.6, -0.3, 0.2], [0.6, 2.0, 0.4, -0.5], [-0.3, 0.4, 1.5, 0.3], [0.2, -0.5, 0.3, 0.8]])
        post = posterior_with_covariance(model, np.array([0.5, -1.0, 2.0, 0.25]), cov)
        rng = np.random.default_rng(5)
        for _ in range(20):
            copy = np.random.default_rng()
            copy.bit_generator.state = rng.bit_generator.state
            draw = draw_psi(post, rng)
            expected = post.psi1 + solve_triangular(post.chol, copy.standard_normal(4), trans="T", lower=True)
            np.testing.assert_allclose(draw, expected, rtol=1e-12, atol=1e-12)
            assert rng.bit_generator.state == copy.bit_generator.state

    def test_singular_factor_raises(self, rng):
        model = ModelIndicator.full_model(1, 1)
        post = PsiPosterior(model, np.zeros(2), 0.0, np.array([[1.0, 0.0], [0.5, 0.0]]))
        with pytest.raises(NumericalError, match="LAPACK info 2"):
            draw_psi(post, rng)

    def test_draw_has_one_entry_per_active_covariate(self, rng):
        model = ModelIndicator(np.array([True, False, False, True]), np.zeros(4, bool), 2)
        post = posterior_with_covariance(model, np.array([0.5, -0.5]), np.eye(2))
        draw = draw_psi(post, rng)
        assert draw.shape == (model.d,) and not draw.flags.writeable

    def test_empty_model_draw(self, rng):
        model = ModelIndicator.null_model(2, 2)
        post = posterior_with_covariance(model, np.zeros(0), np.zeros((0, 0)))
        state = rng.bit_generator.state
        assert draw_psi(post, rng).shape == (0,)
        assert rng.bit_generator.state == state

    def test_gamma_draw_moments(self):
        rng = np.random.default_rng(8)
        from tbma.conditionals import GammaPosterior

        post = GammaPosterior(gamma1=0.4, G1=0.09)
        draws = np.array([draw_gamma(post, rng) for _ in range(200_000)])
        assert abs(draws.mean() - 0.4) < 0.005
        assert abs(draws.var() - 0.09) < 0.002
