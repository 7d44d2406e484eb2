import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from conftest import consistent_z, make_dataset, unit_prior
from tbma.conditionals import (
    PsiPosterior,
    conditional_log_marginal,
    draw_gamma,
    draw_phi,
    draw_psi,
    gamma_posterior_params,
    latent_conditional_params,
    phi_posterior_params,
    sample_latent,
    sample_truncated_normal,
)
from tbma.core import CoefVector, ModelIndicator, PriorSpec, SigmaParams, TobitDataset
from tbma.errors import InvalidParameter


def posterior_with_covariance(model, mean, cov):
    """A coefficient posterior N(mean, cov), stored as its precision factor."""
    chol = np.linalg.cholesky(np.linalg.inv(cov))
    return PsiPosterior(model=model, psi1=mean, log_conditional_marginal=0.0, chol=chol)


class TestTruncatedNormal:
    def test_invalid_inputs(self, rng):
        with pytest.raises(InvalidParameter):
            sample_truncated_normal(0.0, 0.0, "negative", rng)
        with pytest.raises(InvalidParameter):
            sample_truncated_normal(0.0, 1.0, "both", rng)

    @pytest.mark.parametrize("mu", [-8.0, -1.0, 0.0, 1.0, 8.0])
    def test_sign_constraint_negative(self, mu, rng):
        draws = np.array([sample_truncated_normal(mu, 1.0, "negative", rng) for _ in range(500)])
        assert np.all(draws < 0.0)

    @pytest.mark.parametrize("mu", [-8.0, 0.0, 8.0])
    def test_sign_constraint_nonnegative(self, mu, rng):
        draws = np.array([sample_truncated_normal(mu, 2.5, "nonnegative", rng) for _ in range(500)])
        assert np.all(draws >= 0.0)

    def test_half_normal_mean(self):
        # Analytic mean of N(0,1) restricted to the negative axis is -sqrt(2/pi).
        rng = np.random.default_rng(2024)
        from tbma.conditionals import _truncated_draws

        draws = _truncated_draws(np.zeros(1_000_000), 1.0, True, rng)
        assert abs(draws.mean() - (-np.sqrt(2.0 / np.pi))) < 0.003

    def test_negligible_truncation_regime(self):
        # Mass below zero for N(8, 1) is ~6e-16, so moments match the
        # untruncated normal.
        rng = np.random.default_rng(7)
        from tbma.conditionals import _truncated_draws

        draws = _truncated_draws(np.full(1_000_000, 8.0), 1.0, False, rng)
        assert abs(draws.mean() - 8.0) < 0.01

    @pytest.mark.parametrize("cut", [-2.0, 2.0])
    def test_moments_against_scipy(self, cut):
        rng = np.random.default_rng(99)
        from tbma.conditionals import _truncated_draws

        n = 400_000
        draws = _truncated_draws(np.full(n, -cut), 1.0, False, rng)
        ref = truncnorm(a=cut, b=np.inf, loc=-cut, scale=1.0)
        assert abs(draws.mean() - ref.mean()) < 4.0 * ref.std() / np.sqrt(n)
        assert abs(draws.var(ddof=1) - ref.var()) < 0.02 * ref.var()

    def test_deep_tail_uses_rejection_correctly(self):
        # Cut 7 sd into the tail; compare the conditional mean with scipy.
        rng = np.random.default_rng(41)
        from tbma.conditionals import _truncated_draws

        draws = _truncated_draws(np.full(200_000, -7.0), 1.0, False, rng)
        ref = truncnorm(a=7.0, b=np.inf, loc=-7.0, scale=1.0)
        assert np.all(draws >= 0.0)
        assert abs(draws.mean() - ref.mean()) < 5.0 * ref.std() / np.sqrt(draws.size)


class TestLatentConditional:
    def test_censored_case(self):
        ds = make_dataset(n=10, seed=5)
        row = int(np.flatnonzero(ds.censored)[0])
        mu, var, side = latent_conditional_params(row, ds, CoefVector.zeros(2, 2), SigmaParams(0.9, 2.0))
        assert (mu, var, side) == (0.0, 1.0, "negative")

    def test_uncensored_decoupled(self):
        ds = make_dataset(n=10, seed=5)
        row = int(np.flatnonzero(~ds.censored)[0])
        psi = CoefVector(np.array([0.5, -0.2]), np.array([0.3, 0.3]))
        mu, var, side = latent_conditional_params(row, ds, psi, SigmaParams(0.0, 3.0))
        assert mu == pytest.approx(float(ds.W[row] @ psi.theta))
        assert var == 1.0
        assert side == "nonnegative"

    def test_uncensored_substitution(self):
        ds = TobitDataset(
            W=np.array([[1.0]]), X=np.array([[1.0]]), y=np.array([2.0]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        mu, var, side = latent_conditional_params(0, ds, CoefVector.zeros(1, 1), SigmaParams(1.0, 1.0))
        assert mu == pytest.approx(1.0)
        assert var == pytest.approx(0.5)
        assert side == "nonnegative"

    def test_variance_strictly_positive(self):
        ds = make_dataset(n=5, seed=1, censored_fraction=0.0)
        _, var, _ = latent_conditional_params(0, ds, CoefVector.zeros(2, 2), SigmaParams(50.0, 1e-3))
        assert var > 0.0


class TestSampleLatent:
    def test_empty(self, rng):
        ds = TobitDataset(
            W=np.zeros((0, 1)), X=np.zeros((0, 1)), y=np.zeros(0),
            censored=np.zeros(0, bool), column_names_w=("w",), column_names_x=("x",),
        )
        assert sample_latent(ds, CoefVector.zeros(1, 1), SigmaParams(0.0, 1.0), rng).size == 0

    def test_all_censored_mean(self):
        rng = np.random.default_rng(3)
        n = 200_000
        ds = TobitDataset(
            W=np.zeros((n, 1)), X=np.zeros((n, 1)), y=np.zeros(n),
            censored=np.ones(n, bool), column_names_w=("w",), column_names_x=("x",),
        )
        z = sample_latent(ds, CoefVector.zeros(1, 1), SigmaParams(0.0, 1.0), rng)
        assert np.all(z < 0)
        assert abs(z.mean() + np.sqrt(2.0 / np.pi)) < 0.01

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_pattern_matches_censoring(self, seed):
        ds = make_dataset(n=200, seed=seed)
        rng = np.random.default_rng(seed + 10)
        psi = CoefVector(np.array([0.4, -0.8]), np.array([1.0, 0.2]))
        z = sample_latent(ds, psi, SigmaParams(0.7, 0.6), rng)
        assert np.array_equal(z < 0, ds.censored)


class TestPsiPosterior:
    def test_empty_dataset_returns_prior(self, rng):
        ds = TobitDataset(
            W=np.zeros((0, 2)), X=np.zeros((0, 2)), y=np.zeros(0),
            censored=np.zeros(0, bool), column_names_w=("a", "b"), column_names_x=("c", "d"),
        )
        prior = unit_prior(2, 2, Theta0=np.diag([2.0, 3.0]), B0=np.diag([4.0, 5.0]),
                           theta0=np.array([1.0, -1.0]), beta0=np.array([0.5, 0.0]))
        model = ModelIndicator(
            include_w=np.array([True, False]), include_x=np.array([True, True]),
            forced_w=np.zeros(2, bool), forced_x=np.zeros(2, bool),
        )
        post = conditional_log_marginal(ds, np.zeros(0), model, SigmaParams(0.2, 1.0), prior)
        assert np.allclose(post.psi1, [1.0, 0.5, 0.0])
        assert np.allclose(post.Psi1, np.diag([2.0, 4.0, 5.0]))

    def test_all_censored_leaves_outcome_block_at_prior(self):
        ds = make_dataset(n=20, seed=8, censored_fraction=1.1)  # every row censored
        assert ds.n_o == 0
        z = consistent_z(ds)
        prior = unit_prior(2, 2, B0=np.diag([3.0, 7.0]), beta0=np.array([2.0, -2.0]))
        post = conditional_log_marginal(ds, z, ModelIndicator.full_model(2, 2), SigmaParams(0.5, 2.0), prior)
        assert np.allclose(post.psi1[2:], [2.0, -2.0])
        assert np.allclose(post.Psi1[2:, 2:], np.diag([3.0, 7.0]))
        assert np.allclose(post.Psi1[:2, 2:], 0.0)

    def test_decoupled_conjugate_regression(self):
        # gamma = 0, nothing censored: each block is a textbook normal update.
        ds = make_dataset(n=60, seed=21, censored_fraction=0.0)
        rng = np.random.default_rng(2)
        z = np.abs(rng.standard_normal(ds.n))
        phi = 1.7
        prior = unit_prior(2, 2, Theta0=np.diag([2.0, 0.5]), B0=np.diag([1.5, 3.0]),
                           theta0=np.array([0.2, 0.0]), beta0=np.array([-0.1, 0.4]))
        post = conditional_log_marginal(ds, z, ModelIndicator.full_model(2, 2), SigmaParams(0.0, phi), prior)

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
        assert np.allclose(post.Psi1[:2, :2], np.linalg.inv(prec_theta), rtol=1e-10)
        assert np.allclose(post.Psi1[2:, 2:], np.linalg.inv(prec_beta), rtol=1e-10)
        assert np.allclose(post.Psi1[:2, 2:], 0.0)

    def test_covariance_times_precision_is_identity(self):
        ds = make_dataset(n=40, seed=33)
        z = consistent_z(ds)
        prior = unit_prior(2, 2)
        sp = SigmaParams(0.8, 0.9)
        model = ModelIndicator.full_model(2, 2)
        post = conditional_log_marginal(ds, z, model, sp, prior)
        assert np.allclose(post.Psi1 @ (post.chol @ post.chol.T), np.eye(4), atol=1e-10)


class TestGammaPhiPosteriors:
    def test_gamma_no_uncensored_returns_prior(self):
        ds = make_dataset(n=10, seed=8, censored_fraction=1.1)
        z = consistent_z(ds)
        # G0 = 3 would expose any reciprocal round trip; the empty case must
        # hand back the prior exactly.
        prior = unit_prior(2, 2, gamma0=0.7, G0=3.0)
        post = gamma_posterior_params(ds, z, CoefVector.zeros(2, 2), 1.0, prior)
        assert (post.gamma1, post.G1) == (0.7, 3.0)

    def test_gamma_diffuse_single_row(self):
        # One uncensored row with residuals (1, 2) and a nearly flat prior.
        ds = TobitDataset(
            W=np.zeros((1, 1)), X=np.zeros((1, 1)), y=np.array([2.0]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        prior = unit_prior(1, 1, gamma0=0.0, G0=1e6)
        post = gamma_posterior_params(ds, np.array([1.0]), CoefVector.zeros(1, 1), 1.0, prior)
        assert post.gamma1 == pytest.approx(2.0, rel=1e-3)
        assert post.G1 == pytest.approx(1.0, rel=1e-3)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 9999), phi=st.floats(0.05, 20.0))
    def test_gamma_precision_never_decreases(self, seed, phi):
        ds = make_dataset(n=20, seed=seed % 7)
        z = consistent_z(ds, seed=seed)
        prior = unit_prior(2, 2, G0=3.0)
        post = gamma_posterior_params(ds, z, CoefVector.zeros(2, 2), phi, prior)
        assert post.G1 <= prior.G0 + 1e-15

    def test_phi_no_uncensored_returns_prior(self):
        ds = make_dataset(n=10, seed=8, censored_fraction=1.1)
        z = consistent_z(ds)
        prior = unit_prior(2, 2, s0=3.0, S0=9.0)
        post = phi_posterior_params(ds, z, CoefVector.zeros(2, 2), 0.4, prior)
        assert (post.s1, post.S1) == (3.0, 9.0)

    def test_phi_gamma_zero_is_outcome_rss(self):
        ds = make_dataset(n=30, seed=2)
        z = consistent_z(ds)
        psi = CoefVector(np.array([0.1, 0.2]), np.array([-0.3, 0.5]))
        prior = unit_prior(2, 2, s0=5.0, S0=2.0)
        post = phi_posterior_params(ds, z, psi, 0.0, prior)
        unc = ~ds.censored
        e_y = ds.y[unc] - ds.X[unc] @ psi.beta
        assert post.s1 == 5.0 + ds.n_o
        assert post.S1 == pytest.approx(2.0 + float(e_y @ e_y), rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 9999), gamma=st.floats(-10.0, 10.0))
    def test_phi_scale_never_decreases(self, seed, gamma):
        ds = make_dataset(n=20, seed=seed % 5)
        z = consistent_z(ds, seed=seed)
        psi = CoefVector(np.array([0.3, -0.4]), np.array([0.9, 0.0]))
        prior = unit_prior(2, 2, S0=1.0)
        post = phi_posterior_params(ds, z, psi, gamma, prior)
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
        draws = np.empty((1_000_000, 2))
        for i in range(draws.shape[0]):
            cv = draw_psi(post, rng)
            draws[i] = cv.psi
        emp = np.cov(draws.T)
        assert np.all(np.abs(emp - Psi1) <= 0.01 * np.abs(Psi1))
        assert np.allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.01)

    def test_inactive_coordinates_exactly_zero(self, rng):
        model = ModelIndicator(
            include_w=np.array([True, False]), include_x=np.array([False, True]),
            forced_w=np.zeros(2, bool), forced_x=np.zeros(2, bool),
        )
        post = posterior_with_covariance(model, np.array([0.5, -0.5]), np.eye(2))
        for _ in range(50):
            cv = draw_psi(post, rng)
            assert cv.theta[1] == 0.0
            assert cv.beta[0] == 0.0

    def test_empty_model_draw(self, rng):
        model = ModelIndicator.null_model(2, 2)
        post = posterior_with_covariance(model, np.zeros(0), np.zeros((0, 0)))
        cv = draw_psi(post, rng)
        assert np.array_equal(cv.psi, np.zeros(4))

    def test_gamma_draw_moments(self):
        rng = np.random.default_rng(8)
        from tbma.conditionals import GammaPosterior

        post = GammaPosterior(gamma1=0.4, G1=0.09)
        draws = np.array([draw_gamma(post, rng) for _ in range(200_000)])
        assert abs(draws.mean() - 0.4) < 0.005
        assert abs(draws.var() - 0.09) < 0.002


class TestJointDistributionConsistency:
    """Alternating prior draws with data regeneration must agree with the
    Gibbs transition kernel on the parameter moments (fixed full model)."""

    def test_geweke_style_moments(self):
        rng = np.random.default_rng(314159)
        n, p, q = 20, 2, 2
        W = rng.standard_normal((n, p))
        X = rng.standard_normal((n, q))
        prior = PriorSpec(
            theta0=np.zeros(p), Theta0=0.25 * np.eye(p),
            beta0=np.zeros(q), B0=0.25 * np.eye(q),
            gamma0=0.0, G0=0.25, s0=12.0, S0=10.0,
        )
        model = ModelIndicator.full_model(p, q)
        names_w, names_x = ("w1", "w2"), ("x1", "x2")

        def regenerate(psi, sp):
            eps = rng.standard_normal(n)
            eta = sp.gamma * eps + np.sqrt(sp.phi) * rng.standard_normal(n)
            z_new = W @ psi.theta + eps
            y_star = X @ psi.beta + eta
            cen = z_new < 0
            return TobitDataset(
                W=W, X=X, y=np.where(cen, 0.0, y_star), censored=cen,
                column_names_w=names_w, column_names_x=names_x,
            )

        def prior_draw():
            theta = 0.5 * rng.standard_normal(p)
            beta = 0.5 * rng.standard_normal(q)
            gamma = 0.5 * rng.standard_normal()
            phi = (0.5 * prior.S0) / rng.gamma(0.5 * prior.s0)
            return CoefVector(theta, beta), SigmaParams(float(gamma), float(phi))

        iters = 25_000
        psi, sp = prior_draw()
        samples = np.empty((iters, p + q + 2))
        for it in range(iters):
            ds = regenerate(psi, sp)
            z = sample_latent(ds, psi, sp, rng)
            gamma = draw_gamma(gamma_posterior_params(ds, z, psi, sp.phi, prior), rng)
            phi = draw_phi(phi_posterior_params(ds, z, psi, gamma, prior), rng)
            sp = SigmaParams(gamma, phi)
            psi = draw_psi(conditional_log_marginal(ds, z, model, sp, prior), rng)
            samples[it] = np.concatenate([psi.psi, [gamma, phi]])

        # Exact prior moments: psi and gamma are N(0, 0.25); phi has an
        # inverse-gamma prior with mean 1 and variance 0.25.
        target_mean = np.array([0.0] * (p + q) + [0.0, 1.0])
        target_var = np.array([0.25] * (p + q) + [0.25, 0.25])

        n_batches = 50
        batches = samples.reshape(n_batches, -1, p + q + 2)
        batch_means = batches.mean(axis=1)
        mcse_mean = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        assert np.all(np.abs(samples.mean(axis=0) - target_mean) <= 4.0 * mcse_mean), (
            samples.mean(axis=0), target_mean, mcse_mean)

        batch_vars = batches.var(axis=1, ddof=1)
        mcse_var = batch_vars.std(axis=0, ddof=1) / np.sqrt(n_batches)
        assert np.all(np.abs(samples.var(axis=0, ddof=1) - target_var) <= 4.0 * mcse_var), (
            samples.var(axis=0, ddof=1), target_var, mcse_var)
