import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbma.chain as chain_mod
import tbma.search
from conftest import make_dataset, unit_prior
from perfbench.tracing import TRACED_NAMES, Tracer, instrumented
from tbma.chain import (
    ChainConfig,
    ChainOutput,
    ChainState,
    default_prior,
    diagnostics_series,
    inclusion_probabilities,
    jump_rate,
    pool_outputs,
    posterior_summaries,
    run_chain,
    run_chains,
    running_model_size,
    sweep,
)
from tbma.conditionals import model_rows
from tbma.core import ModelIndicator, PriorSpec, SigmaParams
from tbma.errors import EmptyChain, InvalidParameter, NumericalError


def toy_output(models, psis=None, accepted=None, burnin=None, names_w=("w0",), names_x=("x0",)):
    models = np.asarray(models, dtype=bool)
    kept = models.shape[0]
    return ChainOutput(
        column_names_w=names_w,
        column_names_x=names_x,
        sweeps=np.arange(kept),
        is_burnin=np.zeros(kept, dtype=bool) if burnin is None else np.asarray(burnin, dtype=bool),
        models=models,
        psis=np.zeros_like(models, dtype=float) if psis is None else np.asarray(psis, dtype=float),
        gammas=np.zeros(kept),
        phis=np.ones(kept),
        accepted=np.zeros(kept, dtype=bool) if accepted is None else np.asarray(accepted, dtype=bool),
        chain_id=0,
        dataset_fingerprint="ds",
        config_fingerprint="cfg",
    )


class TestChainConfig:
    def test_burn_in_must_be_below_iterations(self):
        with pytest.raises(InvalidParameter):
            ChainConfig(iterations=100, burn_in=100)

    def test_thin_and_chains_positive(self):
        with pytest.raises(InvalidParameter):
            ChainConfig(thin=0)
        with pytest.raises(InvalidParameter):
            ChainConfig(chains=0)

    def test_thin_must_store_a_post_burn_in_sweep(self):
        with pytest.raises(InvalidParameter, match="thin must be at most iterations - burn_in = 10"):
            ChainConfig(iterations=100, burn_in=90, thin=20)
        with pytest.raises(InvalidParameter, match="thin must be at most iterations - burn_in = 5"):
            ChainConfig(iterations=5, burn_in=0, thin=6)
        assert ChainConfig(iterations=100, burn_in=90, thin=10).thin == 10

    def test_unknown_init_rejected(self):
        with pytest.raises(InvalidParameter):
            ChainConfig(init="warm")

    def test_defaults_match_reporting_convention(self):
        config = ChainConfig()
        assert config.iterations == 100_000
        assert config.burn_in == 10_000


class TestRunChainBookkeeping:
    def setup_method(self):
        self.ds = make_dataset(n=30, seed=1)
        self.prior = unit_prior(2, 2, G0=0.5)

    def test_record_count_without_burn_in(self):
        out = run_chain(self.ds, self.prior, ChainConfig(iterations=10, burn_in=0, seed=5, chains=1))
        assert out.kept == 10
        assert int(out.official.sum()) == 10

    @pytest.mark.parametrize("iterations,burn_in,thin", [(23, 5, 3), (24, 5, 3), (50, 7, 4)])
    def test_official_count_with_thinning(self, iterations, burn_in, thin):
        config = ChainConfig(iterations=iterations, burn_in=burn_in, thin=thin, seed=5, chains=1)
        out = run_chain(self.ds, self.prior, config)
        assert int(out.official.sum()) == (iterations - burn_in) // thin
        assert np.all(out.sweeps[out.official] >= burn_in)
        assert np.all(np.diff(out.sweeps) > 0)

    def test_burn_in_records_retained_and_flagged(self):
        out = run_chain(self.ds, self.prior, ChainConfig(iterations=12, burn_in=4, seed=5, chains=1))
        assert int(out.is_burnin.sum()) == 4
        assert np.all(out.sweeps[out.is_burnin] < 4)

    def test_deterministic_given_seed(self):
        config = ChainConfig(iterations=40, burn_in=10, seed=77, chains=1)
        a = run_chain(self.ds, self.prior, config)
        b = run_chain(self.ds, self.prior, config)
        assert np.array_equal(a.psis, b.psis)
        assert np.array_equal(a.models, b.models)
        assert np.array_equal(a.gammas, b.gammas)
        assert a.config_fingerprint == b.config_fingerprint

    def test_chain_id_changes_stream(self):
        config = ChainConfig(iterations=40, burn_in=10, seed=77, chains=1)
        a = run_chain(self.ds, self.prior, config, chain_id=0)
        b = run_chain(self.ds, self.prior, config, chain_id=1)
        assert not np.array_equal(a.gammas, b.gammas)

    @pytest.mark.parametrize("init", ["prior-draw", "zero-coefficients", "full-model", "null-model"])
    def test_all_init_modes_run(self, init):
        config = ChainConfig(iterations=8, burn_in=2, seed=3, chains=1, init=init)
        out = run_chain(self.ds, self.prior, config)
        assert out.kept == 8
        assert np.all(out.phis > 0)

    def test_run_chains_count(self):
        config = ChainConfig(iterations=6, burn_in=2, seed=3, chains=3)
        outs = run_chains(self.ds, self.prior, config)
        assert [o.chain_id for o in outs] == [0, 1, 2]

    def test_prior_dimension_mismatch(self):
        with pytest.raises(InvalidParameter):
            run_chain(self.ds, unit_prior(3, 2), ChainConfig(iterations=4, burn_in=0, chains=1))

    @pytest.mark.parametrize("init", chain_mod.INIT_KINDS)
    def test_mis_sized_template_rejected(self, init):
        # Same stacked length p + q = 4 as the dataset, split differently.
        template = ModelIndicator.full_model(3, 1)
        config = ChainConfig(iterations=4, burn_in=0, chains=1, init=init)
        with pytest.raises(InvalidParameter, match=r"\(3, 1\).*\(2, 2\)"):
            run_chain(self.ds, self.prior, config, model_template=template)

    def test_numerical_failure_reports_sweep_index(self, monkeypatch):
        from tbma.errors import NumericalError

        calls = {"n": 0}
        real = chain_mod.mc3_step

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 4:  # one move per sweep, so call 4 lands in sweep 3
                raise NumericalError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(chain_mod, "mc3_step", flaky)
        with pytest.raises(NumericalError, match="sweep 3"):
            run_chain(self.ds, self.prior, ChainConfig(iterations=10, burn_in=0, seed=1, chains=1))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda stats: replace(stats, **{
                    name: np.full_like(getattr(stats, name), np.nan)
                    for name in ("z_unc", "z_cen")
                }),
                "non-finite values",
            ),
            (
                lambda stats: replace(stats, gram=stats.gram - 1e6 * np.eye(stats.gram.shape[0])),
                "not positive definite",
            ),
        ],
    )
    def test_scoring_fault_names_chain_sweep_and_cause(self, monkeypatch, corrupt, message):
        from tbma.errors import NumericalError

        real = chain_mod.sweep_statistics
        built = {"n": 0}

        def faulty(rows, latent, sigma):
            stats = real(rows, latent, sigma)
            built["n"] += 1
            if built["n"] < 3:
                return stats
            return corrupt(stats)

        monkeypatch.setattr(chain_mod, "sweep_statistics", faulty)
        config = ChainConfig(iterations=10, burn_in=0, seed=1, chains=1)
        with pytest.raises(NumericalError, match=rf"chain 1 aborted at sweep 2: .*{message}"):
            run_chain(self.ds, self.prior, config, chain_id=1)

    def test_toggle_fault_names_chain_sweep_and_position(self, monkeypatch):
        # NaN in the Gram rows of every covariate outside the sweep's
        # starting model: that model scores, and the first toggle that adds
        # a covariate fails.
        from tbma.errors import NumericalError

        real = chain_mod.sweep_statistics

        def poisoned(rows, latent, sigma):
            stats = real(rows, latent, sigma)
            gram = stats.gram.copy()
            outside = ~rows.model.include
            gram[outside, :] = gram[:, outside] = np.nan
            return replace(stats, gram=gram)

        monkeypatch.setattr(chain_mod, "sweep_statistics", poisoned)
        config = ChainConfig(iterations=10, burn_in=0, seed=1, chains=1)
        with pytest.raises(NumericalError, match=r"chain 1 aborted at sweep 0: non-finite values in the "
                                                 r"precision bordered at position \d"):
            run_chain(self.ds, self.prior, config, chain_id=1)


class TestSweepOrder:
    def test_one_sweep_is_z_gamma_phi_moves_psi(self, monkeypatch):
        events = []

        def wrap(name, fn):
            def inner(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return inner

        monkeypatch.setattr(chain_mod, "sample_latent", wrap("z", chain_mod.sample_latent))
        monkeypatch.setattr(chain_mod, "gamma_posterior_params", wrap("gamma", chain_mod.gamma_posterior_params))
        monkeypatch.setattr(chain_mod, "phi_posterior_params", wrap("phi", chain_mod.phi_posterior_params))
        monkeypatch.setattr(chain_mod, "mc3_step", wrap("move", chain_mod.mc3_step))
        monkeypatch.setattr(chain_mod, "draw_psi", wrap("psi", chain_mod.draw_psi))

        ds = make_dataset(n=10, seed=2)
        config = ChainConfig(iterations=3, burn_in=0, seed=1, chains=1, inner_model_moves=2)
        run_chain(ds, unit_prior(2, 2), config)
        per_sweep = ["z", "gamma", "phi", "move", "move", "psi"]
        assert events == per_sweep * 3

    def test_statistics_built_once_and_each_model_scored_once_per_sweep(self, monkeypatch):
        counts = {"fitted": 0, "statistics": 0, "scores": 0, "rows": 0, "prior_fills": 0}
        scored = set()
        accepted_moves = []

        def counting(name, fn):
            def inner(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return inner

        monkeypatch.setattr(chain_mod, "fitted_values", counting("fitted", chain_mod.fitted_values))
        monkeypatch.setattr(chain_mod, "sweep_statistics", counting("statistics", chain_mod.sweep_statistics))
        monkeypatch.setattr(chain_mod, "model_rows", counting("rows", chain_mod.model_rows))
        score = counting("scores", tbma.search.conditional_log_marginal)

        def recording(stats, prior, model):
            scored.add(model.key())
            return score(stats, prior, model)

        real_move = chain_mod.mc3_step

        def move(*args):
            result = real_move(*args)
            accepted_moves.append(result[1])
            return result

        monkeypatch.setattr(tbma.search, "conditional_log_marginal", recording)
        monkeypatch.setattr(chain_mod, "mc3_step", move)
        monkeypatch.setattr(PriorSpec, "restrict", counting("prior_fills", PriorSpec.restrict))
        ds = make_dataset(n=10, seed=2)
        config = ChainConfig(iterations=40, burn_in=0, seed=1, chains=1, inner_model_moves=3)
        out = run_chain(ds, unit_prior(2, 2), config)
        # The row block is gathered for the null-model start, then again after
        # each sweep that ends on another model than it started from.
        retained = np.vstack([np.zeros((1, 4), bool), out.models])
        changed = int(np.count_nonzero(np.any(retained[1:] != retained[:-1], axis=1)))
        assert 0 < changed < np.count_nonzero(out.accepted) < 40
        # The starting model is scored once per sweep, and each accepted
        # toggle once; a rejected toggle is scored from the retained model's
        # factor.  Prior terms are formed once per scored model with a
        # covariate; the cache's byte budget holds all 16 models' 4 x 4 or
        # smaller precisions.
        assert len(accepted_moves) == 40 * 3
        nonempty = sum(any(key) for key in scored)
        assert counts == {
            "fitted": 40, "statistics": 40, "scores": 40 + sum(accepted_moves), "rows": 1 + changed,
            "prior_fills": nonempty,
        }
        assert nonempty > 1


def stacked(state):
    """A state's coefficients as the stacked length-(p + q) vector that
    ``run_chain`` stores, zero off the model."""
    psi = np.zeros(state.model.include.size)
    psi[state.model.active_positions] = state.psi
    return psi


def state_bits(state):
    """Every array and number of a chain state, as bytes."""
    rows = state.rows
    return (
        state.model.include.tobytes(), state.model.forced.tobytes(), state.psi.tobytes(),
        np.array([state.sigma.gamma, state.sigma.phi]).tobytes(), rows.model.include.tobytes(),
        rows.dw, rows.wx_unc.tobytes(), rows.w_cen.tobytes(),
    )


class TestSweep:
    """``sweep`` as a function of explicit chain state, the ground a resumed
    chain stands on."""

    def setup_method(self):
        self.ds = make_dataset(n=30, seed=1)
        self.prior = unit_prior(2, 2, G0=0.5)

    def test_same_state_and_generator_state_give_the_same_next_state(self):
        forced = np.array([True, False, False, False])
        model = ModelIndicator(np.array([True, False, True, False]), forced, 2)
        state = ChainState.start(self.ds, model, [0.4, -0.3], SigmaParams(0.2, 1.3))
        rng = np.random.default_rng(11)
        models = set()
        for _ in range(30):
            before = state_bits(state)
            saved = rng.bit_generator.state
            nxt, accepted = sweep(state, self.prior, 2, rng)
            replay = np.random.default_rng()
            replay.bit_generator.state = saved
            again, accepted_again = sweep(state, self.prior, 2, replay)
            assert state_bits(state) == before
            assert state_bits(again) == state_bits(nxt) and accepted_again == accepted
            assert replay.bit_generator.state == rng.bit_generator.state
            assert nxt.rows.dataset is self.ds and nxt.rows.model == nxt.model
            models.add(nxt.model.key())
            state = nxt
        assert len(models) > 2

    @pytest.mark.parametrize("init", ["null-model", "full-model"])
    def test_sweeps_from_the_initial_state_reproduce_run_chain(self, init):
        iterations, k = 40, 15
        config = ChainConfig(
            iterations=iterations, burn_in=0, thin=1, seed=9, chains=1, inner_model_moves=2, init=init
        )
        out = run_chain(self.ds, self.prior, config, chain_id=1)
        start = ModelIndicator.null_model(2, 2) if init == "null-model" else ModelIndicator.full_model(2, 2)
        state = ChainState.start(self.ds, start, np.zeros(start.d), SigmaParams(0.0, 1.0))
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
        mine = []
        for _ in range(k):
            state, accepted = sweep(state, self.prior, config.inner_model_moves, rng)
            mine.append((state.model.include, stacked(state), state.sigma.gamma, state.sigma.phi, accepted))
        # Resume as from a checkpoint: the state rebuilt from its parts and a
        # new generator set to the saved bit-generator state.
        resumed = np.random.default_rng()
        resumed.bit_generator.state = rng.bit_generator.state
        state = ChainState.start(self.ds, state.model, state.psi, state.sigma)
        for _ in range(iterations - k):
            state, accepted = sweep(state, self.prior, config.inner_model_moves, resumed)
            mine.append((state.model.include, stacked(state), state.sigma.gamma, state.sigma.phi, accepted))
        stored = (out.models, out.psis, out.gammas, out.phis, out.accepted)
        for column, expected in zip(zip(*mine), stored):
            assert np.array(column).tobytes() == expected.tobytes()
        assert out.accepted.any() and len({m.tobytes() for m in out.models}) > 1

    def test_start_rejects_a_state_that_does_not_fit_the_dataset(self):
        model = ModelIndicator(np.array([True, False, True, False]), np.zeros(4, bool), 2)
        unit = SigmaParams(0.0, 1.0)
        # The coefficients are the model's d active ones: a stacked vector,
        # zeros off the model included, does not fit.
        for psi in ([0.4, 0.1, -0.3, 0.0], [0.4], [[0.4, -0.3]]):
            with pytest.raises(InvalidParameter, match=r"coefficients have shape .*d = 2"):
                ChainState.start(self.ds, model, psi, unit)
        with pytest.raises(InvalidParameter, match=r"\(3, 1\).*\(2, 2\)"):
            ChainState.start(self.ds, ModelIndicator.full_model(3, 1), np.zeros(4), unit)
        state = ChainState.start(self.ds, model, [0.4, -0.3], unit)
        assert not state.psi.flags.writeable
        with pytest.raises(InvalidParameter, match="another model"):
            ChainState(model.with_toggled(1), state.psi, unit, state.rows)
        with pytest.raises(InvalidParameter, match=r"coefficients have shape \(2,\), the model has d = 3"):
            ChainState(model.with_toggled(1), state.psi, unit, model_rows(self.ds, model.with_toggled(1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_start_rejects_a_non_finite_coefficient(self, value):
        model = ModelIndicator(np.array([True, False, True, False]), np.zeros(4, bool), 2)
        with pytest.raises(InvalidParameter, match=r"coefficient of x0 \(stacked position 2\) is not finite"):
            ChainState.start(self.ds, model, [0.4, value], SigmaParams(0.0, 1.0))

    @pytest.mark.parametrize(
        ("value", "cause"),
        [
            (np.nan, "non-finite latent cut in the (un)?censored rows"),
            (np.inf, "non-finite latent cut in the (un)?censored rows"),
            (1e308, "non-finite latent cut in the (un)?censored rows"),
            (1e200, r"latent cut .* in the (un)?censored rows is too deep in the tail to draw"),
        ],
        ids=["nan", "inf", "1e308", "1e200"],
    )
    def test_a_coefficient_that_overflows_the_cut_raises_in_the_latent_draw(self, value, cause):
        # Built without ``start``, which rejects a non-finite coefficient.
        full = ModelIndicator.full_model(2, 2)
        state = ChainState(full, np.array([value, 0.2, 0.3, 0.4]), SigmaParams(0.3, 1.0), model_rows(self.ds, full))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match=cause):
            sweep(state, self.prior, 1, np.random.default_rng(0))

    def test_run_chain_names_the_chain_and_sweep_of_a_non_finite_cut(self):
        # A prior-draw start at a selection prior mean of 1e308 overflows W theta.
        prior = unit_prior(2, 2, theta0=np.array([1e308, 0.0]))
        config = ChainConfig(iterations=5, burn_in=1, seed=1, chains=1, init="prior-draw")
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=r"chain 2 aborted at sweep 0: non-finite latent cut in the (un)?censored rows"
        ):
            run_chain(self.ds, prior, config, chain_id=2)

    @pytest.mark.parametrize(
        ("value", "error"),
        [
            ("nan", r"InvalidParameter: start coefficient of w0 \(stacked position 0\) is not finite: nan"),
            ("1e308", r"NumericalError: non-finite latent cut in the (un)?censored rows"),
        ],
        ids=["nan", "1e308"],
    )
    def test_a_non_finite_start_or_cut_fails_instead_of_hanging(self, value, error):
        # A NaN or overflowing cut once sent the tail sampler into a loop that
        # never ended, so the start and its sweep run in a child process
        # under a timeout.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from conftest import make_dataset, unit_prior\n"
            "from tbma.chain import ChainState, sweep\n"
            "from tbma.core import ModelIndicator, SigmaParams\n"
            "ds = make_dataset(n=30, seed=1)\n"
            "psi = [float(sys.argv[1]), 0.2, 0.3, 0.4]\n"
            "state = ChainState.start(ds, ModelIndicator.full_model(2, 2), psi, SigmaParams(0.3, 1.0))\n"
            "sweep(state, unit_prior(2, 2, G0=0.5), 1, np.random.default_rng(0))\n"
        )
        path = os.pathsep.join([str(Path(tbma.__file__).parent.parent), str(Path(__file__).parent)])
        done = subprocess.run(
            [sys.executable, "-c", script, value], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 1
        assert re.search(error, done.stderr.strip().splitlines()[-1]), done.stderr

    def test_sweep_rejects_a_prior_of_another_split_and_negative_moves(self):
        # A (3, 1) prior has the stacked length of the (2, 2) data, so only
        # the check tells its blocks apart.
        full = ModelIndicator.full_model(2, 2)
        state = ChainState.start(self.ds, full, np.zeros(4), SigmaParams(0.0, 1.0))
        with pytest.raises(InvalidParameter, match="prior dimensions"):
            sweep(state, unit_prior(3, 1), 1, np.random.default_rng(0))
        with pytest.raises(InvalidParameter, match="inner_model_moves"):
            sweep(state, self.prior, -1, np.random.default_rng(0))

    def test_benchmark_tracer_finds_every_sweep_phase(self):
        # perfbench times the sweep by rebinding the names ``sweep`` looks up
        # on tbma.chain and tbma.search; a renamed one would only show in a
        # benchmark run as an absent layer.
        tracer, sweeps = Tracer(), 3
        with instrumented(tracer) as absent:
            with tracer.span("chain.run_chain"):
                run_chain(self.ds, self.prior, ChainConfig(iterations=sweeps, burn_in=0, seed=1, chains=1))
        assert absent == []
        run = tracer.select("chain.run_chain")[0]
        for _, _, name, _ in TRACED_NAMES:
            spans = tracer.select(name)
            # One score of the sweep's starting model, one per accepted move.
            if name == "search.conditional_log_marginal":
                assert spans.size == sweeps + sum(tracer.observed["search.mc3_step"]), name
            else:
                assert spans.size == sweeps, name
        # chain.sweep_ms counts the latent draws directly under run_chain.
        assert [tracer.parents[i] for i in tracer.select("conditionals.sample_latent")] == [run] * sweeps


class TestSummaries:
    def test_inclusion_probability_direct_count(self):
        bits = np.zeros((10, 2), dtype=bool)
        bits[:4, 0] = True
        bits[:, 1] = True
        out = toy_output(bits)
        incl_w, incl_x = inclusion_probabilities(out)
        assert incl_w[0] == pytest.approx(0.4)
        assert incl_x[0] == 1.0

    def test_forced_bit_reports_one(self):
        ds = make_dataset(n=25, seed=4)
        template = ModelIndicator.full_model(2, 2, forced=np.array([True, False, False, False]))
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=30, burn_in=5, seed=2, chains=1),
                        model_template=template)
        incl_w, _ = inclusion_probabilities(out)
        assert incl_w[0] == 1.0

    def test_always_included_moments(self):
        bits = np.ones((3, 2), dtype=bool)
        psis = np.column_stack([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        rows = posterior_summaries(toy_output(bits, psis))
        sel = rows[0]
        assert sel.incl_prob == 1.0
        assert sel.post_mean == pytest.approx(2.0)
        assert sel.post_sd == pytest.approx(1.0)  # sample sd, divisor n - 1
        assert sel.cond_mean == pytest.approx(2.0)

    def test_never_included_flags_absent_conditionals(self):
        bits = np.zeros((5, 2), dtype=bool)
        rows = posterior_summaries(toy_output(bits))
        assert rows[0].post_mean == 0.0
        assert rows[0].post_sd == 0.0
        assert rows[0].cond_mean is None
        assert rows[0].cond_sd is None

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 99999))
    def test_unconditional_mean_identity(self, seed):
        rng = np.random.default_rng(seed)
        kept = int(rng.integers(2, 40))
        bits = rng.uniform(size=(kept, 2)) < 0.6
        psis = np.where(bits, rng.standard_normal((kept, 2)), 0.0)
        for row in posterior_summaries(toy_output(bits, psis)):
            if row.cond_mean is None:
                assert row.post_mean == 0.0
            else:
                assert row.post_mean == pytest.approx(row.incl_prob * row.cond_mean, rel=1e-12, abs=1e-15)

    def test_empty_official_sample_raises(self):
        out = toy_output(np.ones((4, 2), dtype=bool), burnin=[True] * 4)
        with pytest.raises(EmptyChain):
            inclusion_probabilities(out)
        with pytest.raises(EmptyChain):
            jump_rate(out)
        with pytest.raises(EmptyChain):
            posterior_summaries(out)


class TestDiagnostics:
    def test_constant_model_constant_series(self):
        bits = np.ones((6, 2), dtype=bool)
        series = running_model_size(toy_output(bits), "selection")
        assert np.allclose(series, 1.0)

    def test_alternating_sizes(self):
        # Selection sizes 2, 4, 2, 4 give running means 2, 3, 8/3, 3.
        bits = np.array(
            [[1, 1, 0, 0], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]], dtype=bool
        )[:, :]
        out = toy_output(bits[:, :2], names_w=("a", "b"), names_x=("c", "d"))
        out = ChainOutput(
            column_names_w=("a", "b"), column_names_x=("c", "d"),
            sweeps=np.arange(4), is_burnin=np.zeros(4, bool),
            models=np.array([[1, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]], bool),
            psis=np.zeros((4, 4)), gammas=np.zeros(4), phis=np.ones(4),
            accepted=np.zeros(4, bool), chain_id=0,
            dataset_fingerprint="ds", config_fingerprint="cfg",
        )
        series = running_model_size(out, "outcome")
        assert np.allclose(series, [1.0, 1.5, 5.0 / 3.0, 1.75])

    def test_jump_rate_fraction(self):
        accepted = np.zeros(100, dtype=bool)
        accepted[:7] = True
        out = toy_output(np.ones((100, 2), dtype=bool), accepted=accepted)
        assert jump_rate(out) == pytest.approx(0.07)

    def test_jump_rate_zero_without_moves(self):
        out = toy_output(np.ones((10, 2), dtype=bool))
        assert jump_rate(out) == 0.0

    def test_diagnostics_series_shape(self):
        out = toy_output(np.ones((8, 2), dtype=bool))
        series = diagnostics_series(out)
        assert series.shape == (8, 4)
        assert np.all(np.diff(series[:, 0]) > 0)


class TestPooling:
    def test_pool_concatenates_official_rows(self):
        ds = make_dataset(n=20, seed=6)
        prior = unit_prior(2, 2)
        config = ChainConfig(iterations=12, burn_in=4, seed=8, chains=2)
        outs = run_chains(ds, prior, config)
        pooled = pool_outputs(outs)
        assert pooled.kept == 2 * 8
        assert not pooled.is_burnin.any()
        assert pooled.chain_id == -1

    def test_pool_rejects_mixed_datasets(self):
        a = toy_output(np.ones((3, 2), dtype=bool))
        b = ChainOutput(
            column_names_w=("w0",), column_names_x=("x0",),
            sweeps=np.arange(3), is_burnin=np.zeros(3, bool),
            models=np.ones((3, 2), bool), psis=np.zeros((3, 2)),
            gammas=np.zeros(3), phis=np.ones(3), accepted=np.zeros(3, bool),
            chain_id=1, dataset_fingerprint="other", config_fingerprint="cfg",
        )
        with pytest.raises(InvalidParameter):
            pool_outputs([a, b])

    def test_default_prior_shape(self):
        prior = default_prior(3, 4)
        assert prior.Theta0.shape == (3, 3)
        assert prior.B0[0, 0] == 100.0
        assert prior.model_prior.kind == "flat"

    def test_stored_coefficients_zero_off_active_set(self):
        ds = make_dataset(n=50, seed=15)
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=200, burn_in=20, seed=9, chains=1))
        assert np.all(out.psis[~out.models] == 0.0)
        # and the included coordinates are almost surely nonzero
        assert np.all(out.psis[out.models] != 0.0)

    def test_degenerate_all_censored_chain_runs(self):
        # With no observed outcomes the outcome-side conditionals collapse to
        # their priors, but the chain must remain valid end to end.
        ds = make_dataset(n=40, seed=12, censored_fraction=1.1)
        assert ds.n_o == 0
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=60, burn_in=10, seed=6, chains=1))
        assert np.all(out.phis > 0)
        assert np.all(np.isfinite(out.psis))
        # outcome bits follow a unit Bayes factor, so moves there are coin flips
        _, incl_x = inclusion_probabilities(out)
        assert np.all((incl_x > 0.0) & (incl_x < 1.0))

    def test_no_censoring_chain_runs(self):
        ds = make_dataset(n=40, seed=13, censored_fraction=0.0)
        assert ds.n_o == ds.n
        out = run_chain(ds, unit_prior(2, 2), ChainConfig(iterations=40, burn_in=10, seed=6, chains=1))
        assert np.all(np.isfinite(out.gammas))

    def test_sparse_model_prior_shrinks_average_size(self):
        # Pure-noise data: a Bernoulli(0.05) prior over inclusion must visit
        # smaller models than the flat prior does.
        from tbma.core import ModelPrior
        from tbma.chain import running_model_size

        ds = make_dataset(n=60, seed=19, p=3, q=3)
        config = ChainConfig(iterations=1500, burn_in=300, seed=4, chains=1)
        flat = run_chain(ds, unit_prior(3, 3), config)
        sparse = run_chain(
            ds, unit_prior(3, 3, model_prior=ModelPrior(kind="bernoulli", pi=0.05)), config
        )
        for eq in ("selection", "outcome"):
            assert running_model_size(sparse, eq)[-1] < running_model_size(flat, eq)[-1]
