"""Per-layer metrics of the traced pass, read from the recorded spans.

Layers are the package modules: ``core``, ``conditionals``, ``search``,
``chain`` and ``io``.  Times per sweep divide a layer's total over every
traced job by the number of sweeps those jobs ran.  A layer whose function
is absent, or idle on the workload, reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench.ess import effective_sample_size
from tbma import chain as chain_mod


def _durations(tracers, name: str) -> np.ndarray:
    parts = [t.durations_ms()[t.select(name)] for t in tracers]
    return np.concatenate(parts) if parts else np.zeros(0)


def _self_total(tracers, name: str) -> float:
    return float(sum(t.self_ms()[t.select(name)].sum() for t in tracers))


def _observed(tracers, name: str) -> np.ndarray:
    return np.asarray([v for t in tracers for v in t.observed.get(name, [])], dtype=np.float64)


def median_s(tracers, name: str) -> float:
    return float(statistics.median(t.total_s(name) for t in tracers))


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _sweep_durations(tracers) -> np.ndarray:
    """One duration per sweep: from one latent draw's start to the next, the
    last sweep ending with ``run_chain``."""
    out = []
    for t in tracers:
        starts = np.asarray(t.starts, dtype=np.int64)
        parents = np.asarray(t.parents, dtype=np.int64)
        latent = t.select("conditionals.sample_latent")
        for run in t.select("chain.run_chain"):
            bounds = np.append(starts[latent[parents[latent] == run]], t.ends[run])
            out.append(np.diff(bounds) / 1e6)
    return np.concatenate(out) if out else np.zeros(0)


def _ess_per_chain(outputs, values) -> float:
    return effective_sample_size([values(out)[out.official] for out in outputs]) / len(outputs)


def ess_gamma_per_s(tracers, outputs) -> float:
    """ESS of gamma over every chain's post-burn-in sweeps per second of
    ``run_chain`` time, one chain per tracer."""
    chain_s = sum(t.total_s("chain.run_chain") for t in tracers)
    return _ess_per_chain(outputs, lambda o: o.gammas) * len(outputs) / chain_s


def layer_metrics(runner, plain, traced, results, blas1_sweep_ms: float, absent) -> dict:
    """Metrics named as in BENCHMARK.json ``per_layer``, as (value, unit)."""
    sweeps = runner.workload.iterations * len(traced) if runner.sampler else 0
    per_sweep = (lambda total_ms: total_ms / sweeps) if sweeps else (lambda total_ms: 0.0)

    latent = _durations(traced, "conditionals.sample_latent")
    gamma = _durations(traced, "conditionals.gamma_posterior_params").sum() + _durations(
        traced, "conditionals.draw_gamma").sum()
    phi = _durations(traced, "conditionals.phi_posterior_params").sum() + _durations(
        traced, "conditionals.draw_phi").sum()
    marginal = _durations(traced, "search.conditional_log_marginal")
    moves = _durations(traced, "search.mc3_step")
    accepted = _observed(traced, "search.mc3_step")
    dims = _observed(traced, "search.conditional_log_marginal")
    sweep_ms = _sweep_durations(traced)

    written_mb = [r.written_bytes / 1e6 for r in results]
    loaded_mb = [(r.loaded_bytes + r.written_bytes) / 1e6 for r in results]
    write_s = [t.total_s("io.write_trace") for t in traced]
    load_s = [t.total_s("io.load_trace") for t in traced]

    overhead_span = "chain.run_chain" if runner.sampler else "job"
    overhead = median_s(traced, overhead_span) / median_s(plain, overhead_span)
    # Mixing is a property of sampled chains; summarize-wide has none.
    outputs = [r.outputs[0] for r in results] if runner.sampler else []

    metrics = {
        "conditionals.sample_latent.ms_per_sweep": (per_sweep(latent.sum()), "ms"),
        "conditionals.sample_latent.p50_ms": (_pct(latent, 50), "ms"),
        "conditionals.sample_latent.p99_ms": (_pct(latent, 99), "ms"),
        "conditionals.gamma.ms_per_sweep": (per_sweep(gamma), "ms"),
        "conditionals.phi.ms_per_sweep": (per_sweep(phi), "ms"),
        "conditionals.draw_psi.ms_per_sweep": (per_sweep(_durations(traced, "conditionals.draw_psi").sum()), "ms"),
        "search.mc3_step.self_ms_per_sweep": (per_sweep(_self_total(traced, "search.mc3_step")), "ms"),
        "search.conditional_log_marginal.ms_per_call": (float(marginal.mean()) if marginal.size else 0.0, "ms"),
        "search.conditional_log_marginal.calls": (marginal.size / len(traced), "count"),
        "search.conditional_log_marginal.p99_ms": (_pct(marginal, 99), "ms"),
        "search.marginals_per_move": (marginal.size / moves.size if moves.size else 0.0, "count"),
        "search.accept_ratio": (float(accepted.mean()) if accepted.size else 0.0, "ratio"),
        "search.active_dim.mean": (float(dims.mean()) if dims.size else 0.0, "count"),
        "search.active_dim.p99": (_pct(dims, 99), "count"),
        "chain.loop_self.ms_per_sweep": (per_sweep(_self_total(traced, "chain.run_chain")), "ms"),
        "chain.sweep_ms.p50": (_pct(sweep_ms, 50), "ms"),
        "chain.sweep_ms.p99": (_pct(sweep_ms, 99), "ms"),
        "chain.summaries_s": (median_s(traced, "chain.summaries"), "s"),
        "chain.ess.gamma": (_ess_per_chain(outputs, lambda o: o.gammas) if outputs else 0.0, "count"),
        "chain.ess.phi": (_ess_per_chain(outputs, lambda o: o.phis) if outputs else 0.0, "count"),
        "chain.ess.model_size": (
            _ess_per_chain(outputs, lambda o: o.models.sum(axis=1)) if outputs else 0.0, "count"),
        "chain.ess_gamma_per_s": (ess_gamma_per_s(plain, outputs) if outputs else 0.0, "1/s"),
        "chain.jump_rate": (
            float(np.mean([chain_mod.jump_rate(o) for o in outputs])) if outputs else 0.0, "ratio"),
        "core.split_s": (median_s(traced, "core.split"), "s"),
        "io.load_csv_s": (median_s(traced, "io.load_csv"), "s"),
        "io.write_trace_s": (statistics.median(write_s), "s"),
        "io.load_trace_s": (statistics.median(load_s), "s"),
        "io.trace_mb": (statistics.median(written_mb) if written_mb else 0.0, "MB"),
        "io.write_trace_mb_per_s": (
            statistics.median(mb / s for mb, s in zip(written_mb, write_s)) if written_mb else 0.0, "MB/s"),
        "io.load_trace_mb_per_s": (
            statistics.median(mb / s for mb, s in zip(loaded_mb, load_s)) if loaded_mb else 0.0, "MB/s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.sweeps": (sweeps, "count"),
        "trace.absent_layers": (len(absent), "count"),
        "baseline.blas1.sweep_ms": (blas1_sweep_ms, "ms"),
    }
    return metrics
