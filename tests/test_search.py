from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import tbma.search
from conftest import consistent_z, make_dataset, unit_prior
from tbma.conditionals import conditional_log_marginal
from tbma.core import ModelIndicator, ModelPrior, SigmaParams
from tbma.errors import NoMoveAvailable
from tbma.oracle import conditional_log_marginal_rss, enumerate_model_posterior
from tbma.search import mc3_step, propose_neighbor


def random_model(rng, p=3, q=3):
    include = rng.uniform(size=p + q) < 0.5
    return ModelIndicator(include[:p], include[p:], np.zeros(p, bool), np.zeros(q, bool))


class TestProposeNeighbor:
    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 99999))
    def test_hamming_distance_is_one(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        proposal = propose_neighbor(model, rng)
        flips = np.count_nonzero(
            np.concatenate([model.include_w != proposal.include_w,
                            model.include_x != proposal.include_x])
        )
        assert flips == 1

    def test_forced_bits_never_change(self, rng):
        forced_w = np.array([True, False, False])
        model = ModelIndicator.null_model(3, 2, forced_w=forced_w)
        for _ in range(200):
            proposal = propose_neighbor(model, rng)
            assert proposal.include_w[0]

    def test_all_forced_raises(self, rng):
        model = ModelIndicator.null_model(1, 1, forced_w=np.ones(1, bool), forced_x=np.ones(1, bool))
        with pytest.raises(NoMoveAvailable):
            propose_neighbor(model, rng)

    def test_uniform_over_free_bits(self):
        # 12 free bits: each flip frequency within 1/12 +- 0.01 and a
        # chi-square test that does not reject at p = 0.001.
        rng = np.random.default_rng(6021023)
        model = ModelIndicator.full_model(6, 6)
        trials = 100_000
        counts = np.zeros(12)
        for _ in range(trials):
            proposal = propose_neighbor(model, rng)
            pos = np.flatnonzero(
                np.concatenate([model.include_w != proposal.include_w,
                                model.include_x != proposal.include_x])
            )[0]
            counts[pos] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 1.0 / 12.0) < 0.01)
        assert chisquare(counts).pvalue > 0.001


class TestConditionalLogMarginal:
    def setup_method(self):
        self.ds = make_dataset(n=25, seed=14)
        self.z = consistent_z(self.ds, seed=4)
        self.sp = SigmaParams(0.6, 1.4)
        self.prior = unit_prior(2, 2)

    def test_self_ratio_is_one(self):
        model = ModelIndicator.full_model(2, 2)
        val = conditional_log_marginal(self.ds, self.z, model, self.sp, self.prior)
        assert np.exp(val.log_conditional_marginal - val.log_conditional_marginal) == 1.0

    def test_empty_model_is_finite_zero(self):
        model = ModelIndicator.null_model(2, 2)
        res = conditional_log_marginal(self.ds, self.z, model, self.sp, self.prior)
        assert res.log_conditional_marginal == 0.0
        assert res.psi1.size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_rewrite_agrees(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_dataset(n=18, seed=seed, censored_fraction=0.5)
        z = consistent_z(ds, seed=seed + 1)
        sp = SigmaParams(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.2, 3.0)))
        model = random_model(rng, p=2, q=2)
        closed = conditional_log_marginal(ds, z, model, sp, self.prior).log_conditional_marginal
        rewrite = conditional_log_marginal_rss(ds, z, model, sp, self.prior)
        assert abs(closed - rewrite) < 1e-9


class TestMc3Step:
    def setup_method(self):
        self.ds = make_dataset(n=25, seed=14)
        self.z = consistent_z(self.ds, seed=4)
        self.sp = SigmaParams(0.3, 1.0)
        self.prior = unit_prior(2, 2)
        self.flat = ModelPrior()

    def test_always_accepts_when_bayes_factor_at_least_one(self, rng, memo_marginals):
        # Raise every neighbor's marginal above the current model's; the
        # acceptance probability min(1, CBF) must then be one.
        model = ModelIndicator.null_model(2, 2)
        cur = conditional_log_marginal(self.ds, self.z, model, self.sp, self.prior)

        def dominate(res):
            if res.model == model:
                return res
            return replace(res, log_conditional_marginal=cur.log_conditional_marginal + 3.0)

        memo_marginals(dominate)
        for _ in range(200):
            _, accepted, _ = mc3_step(self.ds, self.z, model, self.sp, self.prior, self.flat, rng)
            assert accepted

    def test_no_move_available_returns_input(self, rng):
        model = ModelIndicator.null_model(1, 1, forced_w=np.ones(1, bool), forced_x=np.ones(1, bool))
        ds = make_dataset(n=12, seed=3, p=1, q=1)
        z = consistent_z(ds)
        out, accepted, post = mc3_step(ds, z, model, self.sp, unit_prior(1, 1), self.flat, rng)
        assert out == model
        assert not accepted
        assert post.psi1.shape == (2,)

    def test_bernoulli_half_matches_flat_decisions(self):
        model_a = ModelIndicator.null_model(2, 2)
        model_b = ModelIndicator.null_model(2, 2)
        rng_a = np.random.default_rng(505)
        rng_b = np.random.default_rng(505)
        half = ModelPrior(kind="bernoulli", pi=0.5)
        for _ in range(400):
            model_a, acc_a, _ = mc3_step(self.ds, self.z, model_a, self.sp, self.prior, self.flat, rng_a)
            model_b, acc_b, _ = mc3_step(self.ds, self.z, model_b, self.sp, self.prior, half, rng_b)
            assert acc_a == acc_b
            assert model_a == model_b

    def test_acceptance_shift_invariant(self, memo_marginals):
        # Adding a constant to both marginals leaves every decision unchanged.
        def walk(adjust):
            memo_marginals(adjust)
            rng = np.random.default_rng(99)
            model = ModelIndicator.null_model(2, 2)
            steps = []
            for _ in range(500):
                model, accepted, _ = mc3_step(self.ds, self.z, model, self.sp, self.prior, self.flat, rng)
                steps.append((model, accepted))
            return steps

        base = walk(None)
        shifted = walk(lambda res: replace(res, log_conditional_marginal=res.log_conditional_marginal + 123.456))
        for (model_a, acc_a), (model_b, acc_b) in zip(base, shifted):
            assert acc_a == acc_b
            assert model_a == model_b


class TestScoringContract:
    """mc3_step scores models only through tbma.search.conditional_log_marginal."""

    def setup_method(self):
        self.ds = make_dataset(n=25, seed=14)
        self.z = consistent_z(self.ds, seed=4)
        self.sp = SigmaParams(0.3, 1.0)
        self.flat = ModelPrior()

    def record_scores(self, monkeypatch):
        scored = []
        real = tbma.search.conditional_log_marginal

        def recording(dataset, z, model, sp, prior):
            scored.append(real(dataset, z, model, sp, prior))
            return scored[-1]

        monkeypatch.setattr(tbma.search, "conditional_log_marginal", recording)
        return scored

    def test_two_marginals_per_move(self, rng, monkeypatch):
        scored = self.record_scores(monkeypatch)
        prior = unit_prior(2, 2)
        model = ModelIndicator.null_model(2, 2)
        for _ in range(100):
            before = len(scored)
            retained, accepted, post = mc3_step(self.ds, self.z, model, self.sp, prior, self.flat, rng)
            assert len(scored) == before + 2
            current, proposed = scored[before:]
            assert current.model is model
            assert proposed.model != model
            assert post is (proposed if accepted else current)
            assert retained is post.model
            model = retained

    def test_one_marginal_when_no_bit_is_free(self, rng, monkeypatch):
        scored = self.record_scores(monkeypatch)
        model = ModelIndicator.null_model(1, 1, forced_w=np.ones(1, bool), forced_x=np.ones(1, bool))
        ds = make_dataset(n=12, seed=3, p=1, q=1)
        out, accepted, post = mc3_step(ds, consistent_z(ds), model, self.sp, unit_prior(1, 1), self.flat, rng)
        assert len(scored) == 1
        assert post is scored[0]
        assert out is model and not accepted


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
            model = ModelIndicator(include[:2], include[2:], np.zeros(2, bool), np.zeros(1, bool))
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
        for _ in range(steps):
            model, _, _ = mc3_step(ds, z, model, sp, prior, flat, rng)
            counts[model.key()] += 1
        for key, prob in posterior.items():
            assert abs(counts[key] / steps - prob) < 0.05
