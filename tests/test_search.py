import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import tbma.search
from conftest import consistent_z, latent_scores, make_dataset, null_rows, unit_prior
from oracles import enumerate_model_posterior
from tbma.conditionals import conditional_log_marginal, sweep_statistics
from tbma.core import ModelIndicator, ModelPrior, SigmaParams
from tbma.errors import NoMoveAvailable
from tbma.oracle import conditional_log_marginal_rss
from tbma.search import mc3_step, propose_position


def random_model(rng, p=3, q=3):
    include = rng.uniform(size=p + q) < 0.5
    return ModelIndicator(include, np.zeros(p + q, bool), p)


def record_scores(monkeypatch):
    """Record each model mc3_step scores and each toggle's (current posterior, position)."""
    scored, toggles = [], []
    real = tbma.search.conditional_log_marginal
    real_toggle = tbma.search.toggle_log_bayes_factor

    def recording(stats, prior, model):
        scored.append(real(stats, prior, model))
        return scored[-1]

    def recording_toggle(stats, prior, current, position):
        toggles.append((current, position))
        return real_toggle(stats, prior, current, position)

    monkeypatch.setattr(tbma.search, "conditional_log_marginal", recording)
    monkeypatch.setattr(tbma.search, "toggle_log_bayes_factor", recording_toggle)
    return scored, toggles


class TestProposeNeighbor:
    """The proposal: a uniform draw of the free position whose bit is toggled."""

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 99999))
    def test_hamming_distance_is_one(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        proposal = model.with_toggled(propose_position(model, rng))
        flips = np.count_nonzero(model.include != proposal.include)
        assert flips == 1

    def test_forced_bits_never_change(self, rng):
        forced = np.array([True, False, False, False, False])
        model = ModelIndicator.null_model(3, 2, forced=forced)
        for _ in range(200):
            position = propose_position(model, rng)
            assert isinstance(position, int) and 1 <= position < 5

    def test_all_forced_raises(self, rng):
        model = ModelIndicator.null_model(1, 1, forced=np.ones(2, bool))
        with pytest.raises(NoMoveAvailable):
            propose_position(model, rng)

    def test_uniform_over_free_bits(self):
        # 12 free bits: each flip frequency within 1/12 +- 0.01 and a
        # chi-square test that does not reject at p = 0.001.
        rng = np.random.default_rng(6021023)
        model = ModelIndicator.full_model(6, 6)
        trials = 100_000
        counts = np.zeros(12)
        for _ in range(trials):
            counts[propose_position(model, rng)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 1.0 / 12.0) < 0.01)
        assert chisquare(counts).pvalue > 0.001


class TestConditionalLogMarginal:
    def setup_method(self):
        self.ds = make_dataset(n=25, seed=14)
        self.z = consistent_z(self.ds, seed=4)
        self.sp = SigmaParams(0.6, 1.4)
        self.prior = unit_prior(2, 2)
        self.stats = sweep_statistics(null_rows(self.ds), latent_scores(self.ds, self.z), self.sp)

    def test_self_ratio_is_one(self):
        model = ModelIndicator.full_model(2, 2)
        val = conditional_log_marginal(self.stats, self.prior, model)
        assert np.exp(val.log_conditional_marginal - val.log_conditional_marginal) == 1.0

    def test_empty_model_is_finite_zero(self):
        model = ModelIndicator.null_model(2, 2)
        res = conditional_log_marginal(self.stats, self.prior, model)
        assert res.log_conditional_marginal == 0.0
        assert res.psi1.size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_rewrite_agrees(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_dataset(n=18, seed=seed, censored_fraction=0.5)
        z = consistent_z(ds, seed=seed + 1)
        sp = SigmaParams(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.2, 3.0)))
        model = random_model(rng, p=2, q=2)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, z), sp)
        closed = conditional_log_marginal(stats, self.prior, model).log_conditional_marginal
        rewrite = conditional_log_marginal_rss(ds, z, model, sp, self.prior)
        assert abs(closed - rewrite) < 1e-9


class TestMc3Step:
    def setup_method(self):
        self.ds = make_dataset(n=25, seed=14)
        self.z = consistent_z(self.ds, seed=4)
        self.sp = SigmaParams(0.3, 1.0)
        self.prior = unit_prior(2, 2)
        self.flat = ModelPrior()
        self.stats = sweep_statistics(null_rows(self.ds), latent_scores(self.ds, self.z), self.sp)

    def test_always_accepts_when_bayes_factor_at_least_one(self, rng, monkeypatch):
        # Every toggle's conditional Bayes factor is one: the acceptance
        # probability min(1, CBF) is then one, and each accepted toggle is
        # scored once, as the model the move retains.
        scored, _ = record_scores(monkeypatch)
        monkeypatch.setattr(tbma.search, "toggle_log_bayes_factor", lambda stats, prior, current, position: 0.0)
        current = conditional_log_marginal(self.stats, self.prior, ModelIndicator.null_model(2, 2))
        for step in range(200):
            retained, accepted, current = mc3_step(self.stats, self.prior, current, self.flat, rng)
            assert accepted
            assert len(scored) == step + 1
            assert current is scored[-1] and retained is current.model

    def test_no_move_available_returns_input(self, rng):
        model = ModelIndicator.null_model(1, 1, forced=np.ones(2, bool))
        ds = make_dataset(n=12, seed=3, p=1, q=1)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, consistent_z(ds)), self.sp)
        prior = unit_prior(1, 1)
        current = conditional_log_marginal(stats, prior, model)
        out, accepted, post = mc3_step(stats, prior, current, self.flat, rng)
        assert out == model
        assert not accepted
        assert post.psi1.shape == (2,)

    def test_bernoulli_half_matches_flat_decisions(self):
        post_a = post_b = conditional_log_marginal(self.stats, self.prior, ModelIndicator.null_model(2, 2))
        rng_a = np.random.default_rng(505)
        rng_b = np.random.default_rng(505)
        half = ModelPrior(kind="bernoulli", pi=0.5)
        for _ in range(400):
            model_a, acc_a, post_a = mc3_step(self.stats, self.prior, post_a, self.flat, rng_a)
            model_b, acc_b, post_b = mc3_step(self.stats, self.prior, post_b, half, rng_b)
            assert acc_a == acc_b
            assert model_a == model_b

    def test_acceptance_shift_invariant(self, monkeypatch):
        # A walk that scores each toggle as the difference of the two models'
        # marginals, both shifted by a constant, makes the decisions of the
        # walk that borders the current model's factor.
        def walk():
            rng = np.random.default_rng(99)
            current = conditional_log_marginal(self.stats, self.prior, ModelIndicator.null_model(2, 2))
            steps = []
            for _ in range(500):
                model, accepted, current = mc3_step(self.stats, self.prior, current, self.flat, rng)
                steps.append((model, accepted))
            return steps

        def shifted(stats, prior, current, position):
            toggled = conditional_log_marginal(stats, prior, current.model.with_toggled(position))
            return (toggled.log_conditional_marginal + 123.456) - (current.log_conditional_marginal + 123.456)

        base = walk()
        monkeypatch.setattr(tbma.search, "toggle_log_bayes_factor", shifted)
        per_model = walk()
        assert {accepted for _, accepted in base} == {True, False}
        for (model_a, acc_a), (model_b, acc_b) in zip(base, per_model):
            assert acc_a == acc_b
            assert model_a == model_b


class TestScoringContract:
    """Under a diagonal prior, mc3_step scores each toggle through
    tbma.search.toggle_log_bayes_factor and scores only an accepted toggle's
    model, through tbma.search.conditional_log_marginal; under any other
    prior it scores each toggled model once, through the latter.  It hands
    back the posterior of the model it retains."""

    def setup_method(self):
        self.ds = make_dataset(n=25, seed=14)
        self.z = consistent_z(self.ds, seed=4)
        self.sp = SigmaParams(0.3, 1.0)
        self.prior = unit_prior(2, 2)
        self.flat = ModelPrior()
        self.stats = sweep_statistics(null_rows(self.ds), latent_scores(self.ds, self.z), self.sp)

    def test_one_marginal_per_accepted_move(self, rng, monkeypatch):
        scored, toggles = record_scores(monkeypatch)
        current = conditional_log_marginal(self.stats, self.prior, ModelIndicator.null_model(2, 2))
        outcomes = set()
        for step in range(100):
            before = len(scored)
            retained, accepted, post = mc3_step(self.stats, self.prior, current, self.flat, rng)
            assert len(toggles) == step + 1 and toggles[-1][0] is current
            position = toggles[-1][1]
            assert len(scored) == before + accepted
            if accepted:
                assert post is scored[-1]
                assert post.model == current.model.with_toggled(position)
            else:
                assert post is current
            assert retained is post.model
            outcomes.add(accepted)
            current = post
        assert outcomes == {True, False}

    def test_a_dense_prior_scores_each_toggled_model_once(self, rng, monkeypatch):
        # No factor to border: every move scores its toggled model once,
        # accepted or not, and an accepted move keeps that posterior.
        prior = unit_prior(2, 2, Theta0=np.array([[1.0, 0.6], [0.6, 2.0]]), theta0=np.array([0.3, -0.2]))
        assert not prior.is_diagonal
        scored, toggles = record_scores(monkeypatch)
        current = conditional_log_marginal(self.stats, prior, ModelIndicator.null_model(2, 2))
        outcomes = set()
        for step in range(100):
            retained, accepted, post = mc3_step(self.stats, prior, current, self.flat, rng)
            assert len(scored) == step + 1 and toggles == []
            proposal = scored[-1]
            assert np.count_nonzero(proposal.model.include != current.model.include) == 1
            assert post is (proposal if accepted else current)
            assert retained is post.model
            outcomes.add(accepted)
            current = post
        assert outcomes == {True, False}

    def test_nothing_scored_when_no_bit_is_free(self, rng, monkeypatch):
        scored, toggles = record_scores(monkeypatch)
        model = ModelIndicator.null_model(1, 1, forced=np.ones(2, bool))
        ds = make_dataset(n=12, seed=3, p=1, q=1)
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, consistent_z(ds)), self.sp)
        prior = unit_prior(1, 1)
        current = conditional_log_marginal(stats, prior, model)
        out, accepted, post = mc3_step(stats, prior, current, self.flat, rng)
        assert scored == [] and toggles == []
        assert post is current
        assert out is model and not accepted

    def test_rescoring_the_retained_model_is_bit_identical(self, rng):
        current = conditional_log_marginal(self.stats, self.prior, ModelIndicator.null_model(2, 2))
        for _ in range(100):
            _, _, current = mc3_step(self.stats, self.prior, current, self.flat, rng)
            again = conditional_log_marginal(self.stats, self.prior, current.model)
            assert again.log_conditional_marginal == current.log_conditional_marginal
            assert np.array_equal(again.psi1, current.psi1)
            assert np.array_equal(again.chol, current.chol)


class TestAcceptanceUniform:
    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**63 + 5])
    def test_random_and_uniform_draw_the_same_double_and_state(self, seed):
        # mc3_step draws its acceptance uniform with random(); the chain's
        # bits rest on it matching uniform() exactly.
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            x, y = a.random(), b.uniform()
            assert type(x) is type(y) is float and x == y
            assert a.bit_generator.state == b.bit_generator.state


class TestDetailedBalance:
    def test_flow_balances_for_every_adjacent_pair(self):
        ds = make_dataset(n=15, seed=6, p=2, q=1)
        z = consistent_z(ds, seed=2)
        sp = SigmaParams(0.4, 1.0)
        prior = unit_prior(2, 1)
        flat = ModelPrior()
        posterior = enumerate_model_posterior(ds, z, sp, prior, flat)
        log_post = {k: np.log(v) for k, v in posterior.items()}

        for key in posterior:
            include = np.array(key)
            model = ModelIndicator(include, np.zeros(3, bool), 2)
            for pos in range(3):
                neighbor = model.with_toggled(pos)
                delta = log_post[neighbor.key()] - log_post[model.key()]
                forward = log_post[model.key()] + min(0.0, delta)
                backward = log_post[neighbor.key()] + min(0.0, -delta)
                assert abs(forward - backward) < 1e-12

    def test_short_chain_visits_match_enumeration_loosely(self, memo_marginals):
        # Smoke-scale version of the stationarity criterion; the full-length
        # run lives in the acceptance suite.
        ds = make_dataset(n=15, seed=6, p=2, q=1)
        z = consistent_z(ds, seed=2)
        sp = SigmaParams(0.4, 1.0)
        prior = unit_prior(2, 1)
        flat = ModelPrior()
        posterior = enumerate_model_posterior(ds, z, sp, prior, flat)

        rng = np.random.default_rng(887)
        model = ModelIndicator.null_model(2, 1)
        counts = {key: 0 for key in posterior}
        steps = 60_000
        memo_marginals()
        stats = sweep_statistics(null_rows(ds), latent_scores(ds, z), sp)
        current = tbma.search.conditional_log_marginal(stats, prior, model)
        for _ in range(steps):
            model, _, current = mc3_step(stats, prior, current, flat, rng)
            counts[model.key()] += 1
        for key, prob in posterior.items():
            assert abs(counts[key] / steps - prob) < 0.05
