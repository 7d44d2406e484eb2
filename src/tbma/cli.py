"""Command-line entry point: run chains on a CSV, generate synthetic data,
validate the oracle fixtures, or summarize existing trace files."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from . import io as io_mod
from .core import ModelPrior, PriorSpec
from .errors import InvalidParameter, ParseError, TbmaError
from .oracle import SynthSpec, generate_synthetic, run_fixture_suite

__all__ = ["main", "build_parser"]

_ENV_SEED = "TBMA_SEED"

_RUN_KEYS = frozenset(f.name for f in fields(chain_mod.ChainConfig))
_SCHEMA_KEYS = frozenset({
    "response", "censored", "selection", "outcome", "add_intercept_selection",
    "add_intercept_outcome", "standardize", "censor_on_zero",
})
_PRIOR_KEYS = frozenset({
    "theta0", "Theta0_scale", "beta0", "B0_scale", "gamma0", "G0", "s0", "S0",
    "model_prior", "bernoulli_pi",
})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tbma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the sampler on a CSV dataset")
    run.add_argument("--data", required=True, help="input CSV path")
    run.add_argument("--schema", required=True, help="schema config file")
    run.add_argument("--config", help="run config file (keys mirror the flags)")
    run.add_argument("--prior-config", help="prior hyperparameter config file")
    run.add_argument("--iterations", type=int)
    run.add_argument("--burn-in", type=int, dest="burn_in")
    run.add_argument("--chains", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--thin", type=int)
    run.add_argument("--inner-model-moves", type=int, dest="inner_model_moves")
    run.add_argument("--init", choices=chain_mod.INIT_KINDS)
    run.add_argument("--out-dir", required=True, dest="out_dir")

    synth = sub.add_parser("synth", help="draw a synthetic dataset from the model")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--p", type=int, required=True)
    synth.add_argument("--q", type=int, required=True)
    synth.add_argument("--theta", required=True, help="comma-separated true selection coefficients")
    synth.add_argument("--beta", required=True, help="comma-separated true outcome coefficients")
    synth.add_argument("--gamma", type=float, default=0.0)
    synth.add_argument("--phi", type=float, default=1.0)
    synth.add_argument("--covariates", choices=("normal", "uniform"), default="normal")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.add_argument("--truth-out", dest="truth_out", help="truth file path (default <out>.truth)")

    validate = sub.add_parser("validate", help="run the committed oracle fixture suite")
    validate.add_argument("--fixtures-dir", dest="fixtures_dir", help="override the packaged fixtures")

    summarize = sub.add_parser("summarize", help="summaries and diagnostics from trace files")
    summarize.add_argument("--traces", nargs="+", required=True, help="trace CSV files")
    summarize.add_argument("--out-dir", required=True, dest="out_dir")
    return parser


def _resolve(flag_value, config: dict[str, str], key: str, convert, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return convert(config[key])
    return default


def _seed_default() -> int:
    raw = os.environ.get(_ENV_SEED)
    return int(raw) if raw else 0


def _read_config(path, known: frozenset[str]) -> io_mod.ConfigFile:
    """Entries of one config file; a key outside ``known`` is an error."""
    raw = io_mod.read_config(path)
    for key in raw:
        if key not in known:
            raise ParseError(f"{raw.where(key)}: unknown key {key!r}")
    return raw


def _load_schema(path) -> io_mod.DataSchema:
    raw = _read_config(path, _SCHEMA_KEYS)
    def names(key):
        value = raw.get(key, "")
        return tuple(s.strip() for s in value.split(",") if s.strip())
    return io_mod.DataSchema(
        response=raw["response"],
        selection=names("selection"),
        outcome=names("outcome"),
        censored=raw.get("censored") or None,
        add_intercept_selection=io_mod.parse_bool(raw.get("add_intercept_selection", "true")),
        add_intercept_outcome=io_mod.parse_bool(raw.get("add_intercept_outcome", "true")),
        standardize=io_mod.parse_bool(raw.get("standardize", "false")),
        censor_on_zero=io_mod.parse_bool(raw.get("censor_on_zero", "false")),
    )


def _load_prior(path, p: int, q: int) -> PriorSpec:
    if path is None:
        return chain_mod.default_prior(p, q)
    raw = _read_config(path, _PRIOR_KEYS)
    kind = raw.get("model_prior", "flat")
    pi = float(raw.get("bernoulli_pi", "0.5")) if kind == "bernoulli" else None
    try:
        model_prior = ModelPrior(kind=kind, pi=pi)
    except InvalidParameter as exc:
        raise ParseError(f"{raw.where('model_prior')}: key 'model_prior': {exc}") from exc
    return PriorSpec(
        theta0=np.full(p, float(raw.get("theta0", "0"))),
        Theta0=float(raw.get("Theta0_scale", "100")) * np.eye(p),
        beta0=np.full(q, float(raw.get("beta0", "0"))),
        B0=float(raw.get("B0_scale", "100")) * np.eye(q),
        gamma0=float(raw.get("gamma0", "0")),
        G0=float(raw.get("G0", "100")),
        s0=float(raw.get("s0", "5")),
        S0=float(raw.get("S0", "5")),
        model_prior=model_prior,
    )


def _cmd_run(args) -> int:
    config_raw = _read_config(args.config, _RUN_KEYS) if args.config else {}
    config = chain_mod.ChainConfig(
        iterations=_resolve(args.iterations, config_raw, "iterations", int, 100_000),
        burn_in=_resolve(args.burn_in, config_raw, "burn_in", int, 10_000),
        seed=_resolve(args.seed, config_raw, "seed", int, _seed_default()),
        chains=_resolve(args.chains, config_raw, "chains", int, 2),
        thin=_resolve(args.thin, config_raw, "thin", int, 1),
        inner_model_moves=_resolve(args.inner_model_moves, config_raw, "inner_model_moves", int, 1),
        init=_resolve(args.init, config_raw, "init", str, "null-model"),
    )
    loaded = io_mod.load_csv(args.data, _load_schema(args.schema))
    dataset = loaded.dataset
    prior = _load_prior(args.prior_config, dataset.p, dataset.q)

    out_dir = Path(args.out_dir)
    outputs = []
    for cid in range(config.chains):
        out = chain_mod.run_chain(dataset, prior, config, chain_id=cid, model_template=loaded.model_template)
        outputs.append(out)
        io_mod.write_trace(out, out_dir / f"trace_chain{cid}.csv")
        io_mod.write_diagnostics(chain_mod.diagnostics_series(out), out_dir / f"diagnostics_chain{cid}.csv")
        print(f"chain {cid}: {config.iterations} sweeps, jump rate {chain_mod.jump_rate(out):.4f}")
    pooled = chain_mod.pool_outputs(outputs)
    io_mod.write_summary(chain_mod.posterior_summaries(pooled), out_dir / "summary.csv")
    print(f"wrote summary and {config.chains} trace/diagnostic pairs to {out_dir}")
    return 0


def _parse_coef(raw: str, length: int, label: str) -> np.ndarray:
    values = [float(s) for s in raw.split(",") if s.strip()]
    if len(values) != length:
        raise TbmaError(f"{label} needs {length} comma-separated values, got {len(values)}")
    return np.asarray(values)


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n=args.n,
        p=args.p,
        q=args.q,
        true_theta=_parse_coef(args.theta, args.p, "--theta"),
        true_beta=_parse_coef(args.beta, args.q, "--beta"),
        gamma=args.gamma,
        phi=args.phi,
        covariate_distribution=args.covariates,
        seed=args.seed if args.seed is not None else _seed_default(),
    )
    dataset, truth = generate_synthetic(spec)
    io_mod.write_dataset(dataset, args.out)
    truth_path = Path(args.truth_out) if args.truth_out else Path(str(args.out) + ".truth")
    lines = [f"# synthetic truth for {args.out}"]
    lines += [f"theta_{name} = {float(v)!r}" for name, v in zip(dataset.column_names_w, truth.theta)]
    lines += [f"beta_{name} = {float(v)!r}" for name, v in zip(dataset.column_names_x, truth.beta)]
    lines += [
        f"gamma = {float(truth.gamma)!r}",
        f"phi = {float(truth.phi)!r}",
        f"censored_fraction = {float(truth.censored_fraction)!r}",
        f"seed = {spec.seed}",
    ]
    truth_path.parent.mkdir(parents=True, exist_ok=True)
    truth_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {dataset.n} rows ({truth.censored_fraction:.1%} censored) to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    checks = run_fixture_suite(args.fixtures_dir)
    if not checks:
        print("no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        failures += not check.ok
        print(
            f"[{status}] {check.name}: cbf vs quadrature rel err {check.cbf_rel_err:.2e}, "
            f"residual-form err {check.rss_form_err:.2e} ({check.elapsed:.2f}s)"
        )
    print(f"{len(checks) - failures}/{len(checks)} fixtures passed")
    return 1 if failures else 0


def _cmd_summarize(args) -> int:
    outputs = [io_mod.load_trace(path) for path in args.traces]
    out_dir = Path(args.out_dir)
    pooled = chain_mod.pool_outputs(outputs)
    io_mod.write_summary(chain_mod.posterior_summaries(pooled), out_dir / "summary.csv")
    for out in outputs:
        io_mod.write_diagnostics(
            chain_mod.diagnostics_series(out), out_dir / f"diagnostics_chain{out.chain_id}.csv"
        )
        print(f"chain {out.chain_id}: jump rate {chain_mod.jump_rate(out):.4f}")
    print(f"wrote summary for {len(outputs)} trace(s) to {out_dir}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_summarize(args)
    except (TbmaError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
