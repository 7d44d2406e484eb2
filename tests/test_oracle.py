import dataclasses
from importlib import resources

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import consistent_z, latent_scores, make_dataset, null_rows, unit_prior
from oracles import complete_data_log_density, conjugate_regression_moments, enumerate_model_posterior
from tbma.core import ModelIndicator, ModelPrior, SigmaParams, TobitDataset
from tbma.errors import DimensionError, InvalidParameter, InvalidState
from tbma.io import read_tagged_csv
from tbma.oracle import (
    QuadratureSpec,
    batched_log_density,
    SynthSpec,
    conditional_log_marginal_rss,
    generate_synthetic,
    iter_fixtures,
    quadrature_conditional_marginal,
)
from tbma.conditionals import conditional_log_marginal, sweep_statistics


class TestQuadrature:
    def test_kernel_matches_reference_density(self):
        # The oracle's batched likelihood must agree with the row-wise
        # reference evaluation at arbitrary coefficient points.
        ds = make_dataset(n=14, seed=31)
        z = consistent_z(ds, seed=7)
        sp = SigmaParams(0.7, 0.8)
        model = ModelIndicator.full_model(2, 2)
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((20, 4))
        batched = batched_log_density(ds, z, sp, model, coords)
        for row, point in zip(batched, coords):
            assert row == pytest.approx(complete_data_log_density(ds, z, point, sp), rel=1e-12)

    def test_zero_dimensional_model_is_data_constant(self):
        ds = make_dataset(n=10, seed=2)
        z = consistent_z(ds)
        sp = SigmaParams(0.4, 1.2)
        model = ModelIndicator.null_model(2, 2)
        value = quadrature_conditional_marginal(ds, z, model, sp, unit_prior(2, 2))
        expected = complete_data_log_density(ds, z, np.zeros(4), sp)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_one_dimensional_conjugate_closed_form(self):
        # gamma = 0 and a single outcome covariate: the marginal over the
        # coefficient has the textbook Gaussian-evidence closed form.
        rng = np.random.default_rng(5)
        n = 12
        x = rng.standard_normal(n)
        beta_true = 0.8
        phi = 0.6
        y = beta_true * x + np.sqrt(phi) * rng.standard_normal(n)
        ds = TobitDataset(
            W=rng.standard_normal((n, 1)), X=x[:, None], y=y, censored=np.zeros(n, bool),
            column_names_w=("w1",), column_names_x=("x1",),
        )
        z = np.abs(rng.standard_normal(n))
        sp = SigmaParams(0.0, phi)
        prior = unit_prior(1, 1)
        model = ModelIndicator(np.array([False, True]), np.zeros(2, bool), 1)
        value = quadrature_conditional_marginal(ds, z, model, sp, prior)

        # Reference: z terms enter as constants; the Gaussian evidence of y
        # absorbs the coefficient integral.  2 pi factors match the kernel's
        # dropped-constant convention.
        evidence = multivariate_normal(
            mean=np.zeros(n), cov=phi * np.eye(n) + np.outer(x, x)
        ).logpdf(y)
        expected = (
            float(evidence)
            + 0.5 * n * np.log(2.0 * np.pi)
            - 0.5 * float(z @ z)
        )
        assert value == pytest.approx(expected, abs=1e-6)

    def test_dimension_guard(self):
        ds = make_dataset(n=8, seed=1)
        with pytest.raises(DimensionError):
            quadrature_conditional_marginal(
                ds, consistent_z(ds), ModelIndicator.full_model(2, 2),
                SigmaParams(0.0, 1.0), unit_prior(2, 2),
            )

    def test_stable_under_node_doubling_on_all_fixtures(self):
        for fx in iter_fixtures():
            prior = fx.prior
            for model in (fx.model_a, fx.model_b):
                base = quadrature_conditional_marginal(fx.dataset, fx.z, model, fx.sp, prior, fx.quadrature)
                doubled_spec = QuadratureSpec(
                    nodes_per_axis=2 * fx.quadrature.nodes_per_axis,
                    half_width=fx.quadrature.half_width,
                )
                doubled = quadrature_conditional_marginal(fx.dataset, fx.z, model, fx.sp, prior, doubled_spec)
                assert abs(np.expm1(doubled - base)) < 1e-4, fx.name


VALIDATE_ORACLES = {
    "batched_log_density": lambda ds, z, model, sp, prior: batched_log_density(
        ds, z, sp, model, np.zeros((1, model.d))
    ),
    "quadrature_conditional_marginal": lambda ds, z, model, sp, prior: quadrature_conditional_marginal(
        ds, z, model, sp, prior, QuadratureSpec(nodes_per_axis=5)
    ),
    "conditional_log_marginal_rss": conditional_log_marginal_rss,
}


class TestValidateOraclesReadRawRows:
    def test_values_ignore_the_sampler_row_split(self):
        """With the cached split's design and response rows permuted and its
        index arrays intact, only a reader of the split sees a change."""
        ds = make_dataset(n=14, seed=31)
        z = consistent_z(ds, seed=7)
        sp, prior = SigmaParams(0.7, 0.8), unit_prior(2, 2)
        model = ModelIndicator(np.array([True, False, True, True]), np.zeros(4, bool), 2)
        spec = QuadratureSpec(nodes_per_axis=15)

        def values():
            return (
                quadrature_conditional_marginal(ds, z, model, sp, prior, spec),
                conditional_log_marginal_rss(ds, z, model, sp, prior),
            )

        before = values()
        split = ds.split
        unc = np.roll(np.arange(split.uncensored_idx.size), 1)
        cen = np.roll(np.arange(split.censored_idx.size), 1)
        ds.__dict__["split"] = dataclasses.replace(
            split, WX_unc=split.WX_unc[:, unc], y_unc=split.y_unc[unc], W_cen=split.W_cen[:, cen]
        )
        assert values() == before


class TestValidateOraclesSignContract:
    """The oracles ``tbma validate`` runs take the latent sign contract from
    ``LatentScores.from_rows``."""

    @staticmethod
    def call(name, z, ds):
        model = ModelIndicator(np.array([True, False, False, True]), np.zeros(4, bool), 2)
        return VALIDATE_ORACLES[name](ds, z, model, SigmaParams(0.4, 1.2), unit_prior(2, 2))

    @pytest.mark.parametrize("fault", ["uncensored-negative", "censored-zero", "censored-nan"])
    @pytest.mark.parametrize("name", sorted(VALIDATE_ORACLES))
    def test_sign_break_raises_invalid_state(self, name, fault):
        ds = make_dataset(n=12, seed=6)
        z = consistent_z(ds)
        half = ~ds.censored if fault == "uncensored-negative" else ds.censored
        row = int(np.flatnonzero(half)[0])
        z[row] = {"uncensored-negative": -0.5, "censored-zero": 0.0, "censored-nan": np.nan}[fault]
        with pytest.raises(InvalidState):
            self.call(name, z, ds)

    @pytest.mark.parametrize("length", [11, 13])
    @pytest.mark.parametrize("name", sorted(VALIDATE_ORACLES))
    def test_wrong_length_raises_invalid_parameter(self, name, length):
        ds = make_dataset(n=12, seed=6)
        z = np.resize(consistent_z(ds), length)
        with pytest.raises(InvalidParameter, match="z must have length 12"):
            self.call(name, z, ds)


class TestEnumeration:
    def test_probabilities_sum_to_one(self):
        ds = make_dataset(n=12, seed=3, p=2, q=2)
        probs = enumerate_model_posterior(
            ds, consistent_z(ds), SigmaParams(0.2, 1.0), unit_prior(2, 2), ModelPrior()
        )
        assert len(probs) == 16
        assert abs(sum(probs.values()) - 1.0) < 1e-12

    def test_identical_columns_get_equal_mass(self):
        rng = np.random.default_rng(9)
        n = 15
        w = rng.standard_normal(n)
        ds = TobitDataset(
            W=np.column_stack([w, w]), X=rng.standard_normal((n, 1)),
            y=np.where(rng.uniform(size=n) < 0.4, 0.0, rng.standard_normal(n)),
            censored=rng.uniform(size=n) < 0.4,
            column_names_w=("twin_a", "twin_b"), column_names_x=("x1",),
        )
        ds = TobitDataset(
            W=ds.W, X=ds.X, y=np.where(ds.censored, 0.0, ds.y), censored=ds.censored,
            column_names_w=ds.column_names_w, column_names_x=ds.column_names_x,
        )
        probs = enumerate_model_posterior(
            ds, consistent_z(ds), SigmaParams(0.0, 1.0), unit_prior(2, 1), ModelPrior()
        )
        # Swapping the twin columns maps each model onto its mirror image.
        only_a = probs[(True, False, True)]
        only_b = probs[(False, True, True)]
        assert only_a == pytest.approx(only_b, rel=1e-9)

    def test_dimension_guard(self):
        ds = make_dataset(n=6, seed=0, p=7, q=6)
        with pytest.raises(DimensionError):
            enumerate_model_posterior(
                ds, consistent_z(ds), SigmaParams(0.0, 1.0), unit_prior(7, 6), ModelPrior()
            )

    def test_bernoulli_prior_tilts_smaller_models(self):
        ds = make_dataset(n=12, seed=3, p=2, q=1)
        z = consistent_z(ds)
        sp = SigmaParams(0.2, 1.0)
        prior = unit_prior(2, 1)
        flat = enumerate_model_posterior(ds, z, sp, prior, ModelPrior())
        sparse = enumerate_model_posterior(ds, z, sp, prior, ModelPrior(kind="bernoulli", pi=0.1))
        null_key = (False, False, False)
        assert sparse[null_key] > flat[null_key]


class TestGenerator:
    def test_intercept_forces_full_censoring(self):
        spec = SynthSpec(
            n=5000, p=2, q=1, true_theta=np.array([-10.0, 0.5]), true_beta=np.array([1.0]),
            gamma=0.0, phi=1.0, covariate_distribution="uniform", seed=4, intercepts=True,
        )
        dataset, truth = generate_synthetic(spec)
        assert truth.censored_fraction == 1.0
        assert dataset.n_o == 0

    def test_independent_errors_when_gamma_zero(self):
        spec = SynthSpec(
            n=10_000, p=2, q=2, true_theta=np.array([0.5, -0.5]), true_beta=np.array([1.0, 0.0]),
            gamma=0.0, phi=2.0, seed=11,
        )
        dataset, truth = generate_synthetic(spec)
        eps = truth.z - dataset.W @ truth.theta
        eta = truth.y_star - dataset.X @ truth.beta
        corr = np.corrcoef(eps, eta)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(spec.n)

    def test_outcome_error_variance(self):
        spec = SynthSpec(
            n=1_000_000, p=1, q=1, true_theta=np.array([0.3]), true_beta=np.array([0.7]),
            gamma=0.8, phi=2.0, seed=21,
        )
        dataset, truth = generate_synthetic(spec)
        eta = truth.y_star - dataset.X @ truth.beta
        assert abs(eta.var() - (truth.phi + truth.gamma**2)) < 0.01 * (truth.phi + truth.gamma**2)

    def test_censored_rows_store_zero(self):
        spec = SynthSpec(
            n=500, p=1, q=1, true_theta=np.array([0.4]), true_beta=np.array([0.4]),
            gamma=0.5, phi=1.0, seed=2,
        )
        dataset, truth = generate_synthetic(spec)
        assert np.all(dataset.y[dataset.censored] == 0.0)
        assert np.array_equal(dataset.censored, truth.z < 0)


class TestConjugateRegressionReference:
    def test_collapses_to_fixed_variance_conjugate(self):
        # A spiked inverse-gamma prior pins the noise variance, where the
        # posterior has an exact closed form.
        rng = np.random.default_rng(12)
        n, k = 40, 2
        X = rng.standard_normal((n, k))
        beta = np.array([0.5, -1.0])
        phi_star = 0.8
        y = X @ beta + np.sqrt(phi_star) * rng.standard_normal(n)
        B0 = np.diag([2.0, 0.5])
        beta0 = np.array([0.1, 0.1])
        big = 2e6
        mean, cov = conjugate_regression_moments(y, X, beta0, B0, s0=big, S0=big * phi_star)

        prec = np.linalg.inv(B0) + X.T @ X / phi_star
        exact_cov = np.linalg.inv(prec)
        exact_mean = exact_cov @ (np.linalg.inv(B0) @ beta0 + X.T @ y / phi_star)
        assert np.allclose(mean, exact_mean, atol=1e-4)
        assert np.allclose(cov, exact_cov, rtol=5e-3)

    def test_grid_refinement_stable(self):
        rng = np.random.default_rng(3)
        n, k = 30, 2
        X = rng.standard_normal((n, k))
        y = X @ np.array([1.0, 0.0]) + rng.standard_normal(n)
        B0 = np.eye(2)
        m1, c1 = conjugate_regression_moments(y, X, np.zeros(2), B0, s0=5.0, S0=5.0, n_nodes=801)
        m2, c2 = conjugate_regression_moments(y, X, np.zeros(2), B0, s0=5.0, S0=5.0, n_nodes=1601)
        assert np.allclose(m1, m2, atol=1e-9)
        assert np.allclose(c1, c2, atol=1e-9)


class TestFixtureFiles:
    def test_ten_fixtures_commit(self):
        fixtures = iter_fixtures()
        assert len(fixtures) == 10
        for fx in fixtures:
            assert fx.dataset.n == 15
            assert fx.model_a.d <= 3 and fx.model_b.d <= 3
            assert np.array_equal(fx.z < 0, fx.dataset.censored)

    def test_cells_load_as_python_float_reads_them(self):
        """Each packaged fixture's arrays hold, bit for bit, ``float()`` of its cells."""
        root = resources.files("tbma") / "fixtures"
        for fx in iter_fixtures():
            _, header, rows = read_tagged_csv(root / f"{fx.name}.csv")
            cells = np.array([[float(cell) for cell in row] for row in rows])
            column = {name: cells[:, [header.index(name)]] for name in header}
            W = np.hstack([column[name] for name in fx.dataset.column_names_w])
            X = np.hstack([column[name] for name in fx.dataset.column_names_x])
            for loaded, expected in ((fx.dataset.W, W), (fx.dataset.X, X), (fx.dataset.y, column["y"][:, 0]),
                                     (fx.z, column["z"][:, 0]), (fx.dataset.censored, column["censored"][:, 0] == 1)):
                assert loaded.tobytes() == expected.tobytes(), fx.name

    def test_all_censored_fixture_has_unit_bayes_factor_on_outcome_bit(self):
        # With no observed outcomes, toggling an outcome covariate cannot
        # change the integrated likelihood.
        fx = next(f for f in iter_fixtures() if f.dataset.n_o == 0)
        prior = fx.prior
        stats = sweep_statistics(null_rows(fx.dataset), latent_scores(fx.dataset, fx.z), fx.sp)
        la = conditional_log_marginal(stats, prior, fx.model_a).log_conditional_marginal
        lb = conditional_log_marginal(stats, prior, fx.model_b).log_conditional_marginal
        assert la == pytest.approx(lb, abs=1e-12)
