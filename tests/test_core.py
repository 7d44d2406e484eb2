import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from conftest import consistent_z, make_dataset
from oracles import augmented_design, complete_data_log_density
from tbma.core import (
    ModelIndicator,
    ModelPrior,
    PriorSpec,
    SigmaParams,
    TobitDataset,
)
from tbma.errors import InvalidParameter, InvalidState
from tbma.oracle import build_sigma

finite_gamma = st.floats(-5.0, 5.0, allow_nan=False)
positive_phi = st.floats(1e-3, 50.0, allow_nan=False)


@st.composite
def stacked_masks(draw):
    """(p, include, forced) for a random model with forced a subset of include."""
    p = draw(st.integers(0, 6))
    size = p + draw(st.integers(0, 6))
    bits = st.lists(st.booleans(), min_size=size, max_size=size)
    include = np.array(draw(bits), dtype=bool)
    forced = include & np.array(draw(bits), dtype=bool)
    return p, include, forced


class TestBuildSigma:
    def test_identity_case(self):
        assert np.array_equal(build_sigma(SigmaParams(0.0, 1.0)), np.eye(2))

    def test_unit_gamma_structure(self):
        # Lower-right entry is phi + gamma**2, not phi.
        assert np.array_equal(build_sigma(SigmaParams(1.0, 1.0)), [[1.0, 1.0], [1.0, 2.0]])

    def test_direct_substitution(self):
        assert np.array_equal(build_sigma(SigmaParams(2.0, 0.5)), [[1.0, 2.0], [2.0, 4.5]])

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(InvalidParameter):
            SigmaParams(0.0, 0.0)
        with pytest.raises(InvalidParameter):
            SigmaParams(1.0, -2.0)

    @given(gamma=finite_gamma, phi=positive_phi)
    def test_symmetric_unit_corner_det(self, gamma, phi):
        sigma = build_sigma(SigmaParams(gamma, phi))
        assert sigma[0, 1] == sigma[1, 0]
        assert sigma[0, 0] == 1.0
        assert np.isclose(np.linalg.det(sigma), phi, rtol=1e-9)


class TestTobitDataset:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameter):
            TobitDataset(
                W=np.ones((3, 1)), X=np.ones((2, 1)), y=np.zeros(3),
                censored=np.zeros(3, dtype=bool), column_names_w=("w",), column_names_x=("x",),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidParameter):
            TobitDataset(
                W=np.ones((2, 2)), X=np.ones((2, 1)), y=np.zeros(2),
                censored=np.zeros(2, dtype=bool), column_names_w=("a", "a"), column_names_x=("x",),
            )

    def test_nonfinite_covariate_rejected(self):
        W = np.ones((2, 1))
        W[0, 0] = np.nan
        with pytest.raises(InvalidParameter):
            TobitDataset(
                W=W, X=np.ones((2, 1)), y=np.zeros(2),
                censored=np.zeros(2, dtype=bool), column_names_w=("w",), column_names_x=("x",),
            )

    def test_censored_y_may_be_anything(self):
        # y is ignored where censored; the loader stores 0 but the type does not care.
        ds = TobitDataset(
            W=np.ones((2, 1)), X=np.ones((2, 1)), y=np.array([np.nan, 1.0]),
            censored=np.array([True, False]), column_names_w=("w",), column_names_x=("x",),
        )
        assert ds.n_o == 1

    def test_counts(self):
        ds = make_dataset(n=25, seed=3)
        assert ds.n == 25
        assert ds.n_o == int(np.count_nonzero(~ds.censored))

    def test_arrays_are_frozen(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.W[0, 0] = 1.0


class TestModelIndicator:
    def test_forced_subset_enforced(self):
        with pytest.raises(InvalidParameter):
            ModelIndicator(np.array([False, True]), np.array([True, False]), 1)

    def test_active_dimension(self):
        m = ModelIndicator(np.array([True, False, True, True]), np.zeros(4, bool), 2)
        assert m.d == 3
        assert m.active_positions.tolist() == [0, 2, 3]

    def test_toggle_forced_rejected(self):
        m = ModelIndicator.null_model(2, 1, forced=np.array([True, False, False]))
        with pytest.raises(InvalidParameter):
            m.with_toggled(0)

    def test_toggle_roundtrip(self):
        m = ModelIndicator.full_model(2, 2)
        assert m.with_toggled(3).with_toggled(3) == m

    @given(case=stacked_masks())
    def test_derived_views_match_numpy(self, case):
        p, include, forced = case
        m = ModelIndicator(include, forced, p)
        assert m.q == include.size - p
        assert m.key() == tuple(bool(b) for b in include)
        assert np.array_equal(m.active_positions, np.flatnonzero(include))
        assert np.array_equal(m.active_w, np.flatnonzero(include[:p]))
        assert np.array_equal(m.active_x, np.flatnonzero(include[p:]))
        assert m.d == np.count_nonzero(include)
        assert np.array_equal(m.free_positions(), np.flatnonzero(~forced))
        assert not m.free_positions().flags.writeable
        assert m.free_positions() is m.free_positions()

    @given(case=stacked_masks(), data=st.data())
    def test_toggle_flips_one_free_bit_and_shares_forced(self, case, data):
        p, include, forced = case
        m = ModelIndicator(include, forced, p)
        free = np.flatnonzero(~forced)
        assume(free.size > 0)
        pos = int(free[data.draw(st.integers(0, free.size - 1))])
        toggled = m.with_toggled(pos)
        assert np.flatnonzero(toggled.include != include).tolist() == [pos]
        assert toggled.forced is m.forced
        assert toggled.p == p
        for fixed in np.flatnonzero(forced):
            with pytest.raises(InvalidParameter):
                m.with_toggled(int(fixed))
        with pytest.raises(InvalidParameter):
            m.with_toggled(include.size)

    @given(case=stacked_masks(), data=st.data())
    def test_random_walk_of_toggles_matches_fresh_models(self, case, data):
        p, include, forced = case
        free = np.flatnonzero(~forced)
        assume(free.size > 0)
        m = ModelIndicator(include, forced, p)
        for pos in data.draw(st.lists(st.sampled_from(free.tolist()), min_size=1, max_size=20)):
            m = m.with_toggled(pos)
            fresh = ModelIndicator(m.include.copy(), forced.copy(), p)
            assert m == fresh
            assert np.array_equal(m.active_positions, fresh.active_positions)
            assert np.array_equal(m.free_positions(), fresh.free_positions())

    @given(case=stacked_masks())
    def test_constructor_rejects_malformed_masks(self, case):
        p, include, forced = case
        excluded = np.flatnonzero(~include)
        if excluded.size:
            not_subset = forced.copy()
            not_subset[excluded[0]] = True
            with pytest.raises(InvalidParameter):
                ModelIndicator(include, not_subset, p)
        with pytest.raises(InvalidParameter):
            ModelIndicator(include, np.append(forced, False), p)
        with pytest.raises(InvalidParameter):
            ModelIndicator(include[None, :], forced[None, :], p)
        for bad_p in (-1, include.size + 1):
            with pytest.raises(InvalidParameter):
                ModelIndicator(include, forced, bad_p)


class TestModelPrior:
    def test_flat_ratio_zero(self):
        mp = ModelPrior()
        assert mp.toggle_log_ratio(True) == 0.0
        assert mp.toggle_log_ratio(False) == 0.0

    def test_bernoulli_ratio(self):
        # Adding a free covariate multiplies the prior by pi / (1 - pi);
        # dropping one divides it, by the same float.
        mp = ModelPrior(kind="bernoulli", pi=0.25)
        assert np.isclose(mp.toggle_log_ratio(True), np.log(0.25 / 0.75))
        assert mp.toggle_log_ratio(False) == -mp.toggle_log_ratio(True)

    def test_bad_pi_rejected(self):
        with pytest.raises(InvalidParameter):
            ModelPrior(kind="bernoulli", pi=1.0)


class TestAugmentedDesign:
    def test_censored_outcome_row_zero(self):
        ds = make_dataset(n=10, seed=5)
        row = int(np.flatnonzero(ds.censored)[0])
        yt, xt = augmented_design(row, ds, ModelIndicator.full_model(2, 2))
        assert np.array_equal(xt[1], np.zeros(4))
        assert yt[1] == 0.0

    def test_uncensored_direct_substitution(self):
        ds = TobitDataset(
            W=np.array([[2.0]]), X=np.array([[3.0]]), y=np.array([1.5]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        yt, xt = augmented_design(0, ds, ModelIndicator.full_model(1, 1))
        assert np.array_equal(xt, [[2.0, 0.0], [0.0, 3.0]])
        assert yt[0] == 0.0  # placeholder slot for the latent value
        assert yt[1] == 1.5

    def test_restriction_drops_columns(self):
        ds = TobitDataset(
            W=np.array([[2.0]]), X=np.array([[3.0]]), y=np.array([1.5]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        model = ModelIndicator(np.array([True, False]), np.zeros(2, bool), 1)
        _, xt = augmented_design(0, ds, model)
        assert xt.shape == (2, 1)


class TestCompleteDataLogDensity:
    def test_empty_dataset(self):
        ds = TobitDataset(
            W=np.zeros((0, 1)), X=np.zeros((0, 1)), y=np.zeros(0),
            censored=np.zeros(0, bool), column_names_w=("w",), column_names_x=("x",),
        )
        value = complete_data_log_density(ds, np.zeros(0), np.zeros(2), SigmaParams(0.3, 2.0))
        assert value == 0.0

    def test_single_censored_row(self):
        ds = TobitDataset(
            W=np.zeros((1, 1)), X=np.zeros((1, 1)), y=np.zeros(1),
            censored=np.array([True]), column_names_w=("w",), column_names_x=("x",),
        )
        value = complete_data_log_density(ds, np.array([-1.0]), np.zeros(2), SigmaParams(0.0, 1.0))
        assert value == pytest.approx(-0.5)

    def test_single_uncensored_decoupled(self):
        ds = TobitDataset(
            W=np.zeros((1, 1)), X=np.zeros((1, 1)), y=np.array([2.0]),
            censored=np.array([False]), column_names_w=("w",), column_names_x=("x",),
        )
        value = complete_data_log_density(ds, np.array([1.0]), np.zeros(2), SigmaParams(0.0, 1.0))
        assert value == pytest.approx(-2.5)

    def test_sign_inconsistency_rejected(self):
        ds = make_dataset(n=6, seed=9)
        z = consistent_z(ds)
        z[0] = -z[0]
        with pytest.raises(InvalidState):
            complete_data_log_density(ds, z, np.zeros(4), SigmaParams(0.0, 1.0))

    @pytest.mark.parametrize("gamma,phi", [(0.0, 1.0), (0.7, 2.0), (-1.3, 0.4)])
    def test_matches_bivariate_normal_when_uncensored(self, gamma, phi):
        # With every row observed, the value equals the sum of row-wise
        # bivariate normal log densities plus n * log(2 pi).
        rng = np.random.default_rng(17)
        n = 12
        ds = TobitDataset(
            W=rng.standard_normal((n, 2)), X=rng.standard_normal((n, 2)),
            y=rng.standard_normal(n), censored=np.zeros(n, bool),
            column_names_w=("a", "b"), column_names_x=("c", "d"),
        )
        z = np.abs(rng.standard_normal(n))
        psi = rng.standard_normal(4)
        sp = SigmaParams(gamma, phi)
        value = complete_data_log_density(ds, z, psi, sp)

        mvn = multivariate_normal(mean=np.zeros(2), cov=build_sigma(sp))
        resid = np.column_stack([z - ds.W @ psi[:2], ds.y - ds.X @ psi[2:]])
        expected = float(np.sum(mvn.logpdf(resid))) + n * np.log(2.0 * np.pi)
        assert value == pytest.approx(expected, rel=1e-10)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_row_permutation_invariance(self, seed):
        ds = make_dataset(n=15, seed=4)
        z = consistent_z(ds)
        psi = np.array([0.3, -0.2, 0.5, 0.1])
        sp = SigmaParams(0.4, 1.3)
        perm = np.random.default_rng(seed).permutation(ds.n)
        shuffled = TobitDataset(
            W=ds.W[perm], X=ds.X[perm], y=ds.y[perm], censored=ds.censored[perm],
            column_names_w=ds.column_names_w, column_names_x=ds.column_names_x,
        )
        a = complete_data_log_density(ds, z, psi, sp)
        b = complete_data_log_density(shuffled, z[perm], psi, sp)
        assert a == pytest.approx(b, rel=1e-12)


class TestPriorSpec:
    def test_block_views(self):
        prior = PriorSpec(
            theta0=np.array([1.0, 2.0]), Theta0=2.0 * np.eye(2),
            beta0=np.array([3.0]), B0=np.array([[4.0]]),
            gamma0=0.0, G0=1.0, s0=2.0, S0=2.0,
        )
        assert prior.psi0.tolist() == [1.0, 2.0, 3.0]
        assert prior.Psi0[2, 2] == 4.0
        assert prior.Psi0[0, 2] == 0.0

    def test_restrict(self):
        prior = PriorSpec(
            theta0=np.array([1.0, 2.0]), Theta0=np.diag([2.0, 3.0]),
            beta0=np.array([4.0, 5.0]), B0=np.diag([6.0, 7.0]),
            gamma0=0.0, G0=1.0, s0=2.0, S0=2.0,
        )
        model = ModelIndicator(np.array([False, True, True, False]), np.zeros(4, bool), 2)
        mean, cov = prior.restrict(model)
        assert mean.tolist() == [2.0, 4.0]
        assert np.array_equal(cov, np.diag([3.0, 6.0]))

    def test_diagonal_and_its_variances_are_derived(self):
        kwargs = dict(theta0=np.zeros(2), beta0=np.zeros(1), B0=np.array([[4.0]]), gamma0=0.0, G0=1.0, s0=2.0, S0=2.0)
        diagonal = PriorSpec(Theta0=np.diag([2.0, 3.0]), **kwargs)
        assert diagonal.is_diagonal
        assert diagonal.variances.tolist() == [2.0, 3.0, 4.0]
        assert not diagonal.variances.flags.writeable
        dense = PriorSpec(Theta0=np.array([[2.0, 0.5], [0.5, 3.0]]), **kwargs)
        assert not dense.is_diagonal
        assert dense.variances.tolist() == [2.0, 3.0, 4.0]

    def test_non_spd_rejected(self):
        with pytest.raises(InvalidParameter):
            PriorSpec(
                theta0=np.zeros(2), Theta0=np.array([[1.0, 2.0], [2.0, 1.0]]),
                beta0=np.zeros(1), B0=np.eye(1), gamma0=0.0, G0=1.0, s0=1.0, S0=1.0,
            )
