"""Command-line entry point: run chains on a CSV, generate synthetic data,
validate the oracle fixtures, or summarize existing trace files."""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from . import io as io_mod
from .core import ModelPrior, PriorSpec, TobitDataset
from .errors import InvalidParameter, ParseError, SchemaError, TbmaError
from .oracle import SynthSpec, generate_synthetic, run_fixture_suite

__all__ = ["main", "build_parser"]

_ENV_SEED = "TBMA_SEED"

_RUN_DEFAULTS = {f.name: f.default for f in fields(chain_mod.ChainConfig)}
_RUN_KEYS = frozenset(_RUN_DEFAULTS)
_SCHEMA_KEYS = frozenset({
    "response", "censored", "selection", "outcome", "add_intercept_selection",
    "add_intercept_outcome", "standardize", "censor_on_zero",
})
# Prior config key of each field name that PriorSpec's and ModelPrior's
# errors mention.
_PRIOR_FIELD_KEYS = {
    "theta0": "theta0", "Theta0": "Theta0_scale", "beta0": "beta0", "B0": "B0_scale",
    "gamma0": "gamma0", "G0": "G0", "s0": "s0", "S0": "S0",
    "kind": "model_prior", "pi": "bernoulli_pi",
}
_PRIOR_KEYS = frozenset(_PRIOR_FIELD_KEYS.values())
# Ratios of a covariate's implied coefficient scale to its prior sd outside
# these bounds draw a warning from ``tbma run`` on unstandardized data.
_SCALE_RATIO_BOUNDS = (1e-3, 1e3)


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


def _value(config: io_mod.ConfigFile, key: str, convert, default):
    """``convert`` of the entry for ``key``, or ``default`` without one; a
    value that does not convert is an error naming its file, line and key."""
    if key not in config:
        return default
    try:
        return convert(config[key])
    except ValueError as exc:
        raise ParseError(f"{config.where(key)}: key {key!r}: {exc}") from exc


def _resolve(flag_value, config: io_mod.ConfigFile, key: str, convert, default):
    if flag_value is not None:
        return flag_value
    return _value(config, key, convert, default)


def _locate(config: io_mod.ConfigFile, exc: InvalidParameter, field_keys: dict[str, str]) -> None:
    """Raise ``exc`` again at the config entry of the first field its message
    names; ``field_keys`` maps field names to the keys ``config`` supplied.
    Returns when the message names none of them."""
    message = str(exc)
    named = [
        (match.start(), key)
        for field, key in field_keys.items()
        if (match := re.search(rf"\b{re.escape(field)}\b", message))
    ]
    if named:
        key = min(named)[1]
        raise ParseError(f"{config.where(key)}: key {key!r}: {message}") from exc


def _seed_default() -> int:
    """The seed ``TBMA_SEED`` sets; 0 when it is unset or empty."""
    raw = os.environ.get(_ENV_SEED)
    if not raw:
        return 0
    try:
        seed = int(raw)
        if not 0 <= seed < 2**64:
            raise ValueError
    except ValueError:
        raise ParseError(f"{_ENV_SEED}={raw!r}: the seed must be an integer in [0, 2**64)") from None
    return seed


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
        add_intercept_selection=_value(raw, "add_intercept_selection", io_mod.parse_bool, True),
        add_intercept_outcome=_value(raw, "add_intercept_outcome", io_mod.parse_bool, True),
        standardize=_value(raw, "standardize", io_mod.parse_bool, False),
        censor_on_zero=_value(raw, "censor_on_zero", io_mod.parse_bool, False),
    )


def _load_prior(path, p: int, q: int) -> PriorSpec:
    if path is None:
        return chain_mod.default_prior(p, q)
    raw = _read_config(path, _PRIOR_KEYS)
    kind = raw.get("model_prior", "flat")
    pi = _value(raw, "bernoulli_pi", float, 0.5) if kind == "bernoulli" else None
    try:
        return PriorSpec(
            theta0=np.full(p, _value(raw, "theta0", float, 0.0)),
            Theta0=_value(raw, "Theta0_scale", float, 100.0) * np.eye(p),
            beta0=np.full(q, _value(raw, "beta0", float, 0.0)),
            B0=_value(raw, "B0_scale", float, 100.0) * np.eye(q),
            gamma0=_value(raw, "gamma0", float, 0.0),
            G0=_value(raw, "G0", float, 100.0),
            s0=_value(raw, "s0", float, 5.0),
            S0=_value(raw, "S0", float, 5.0),
            model_prior=ModelPrior(kind=kind, pi=pi),
        )
    except InvalidParameter as exc:
        _locate(raw, exc, {field: key for field, key in _PRIOR_FIELD_KEYS.items() if key in raw})
        raise


def _scale_warnings(loaded: io_mod.LoadedData, prior: PriorSpec) -> list[str]:
    """One line per covariate whose scale is far from its prior's.

    A coefficient of size one response unit per covariate sd has scale
    1 / sd(w_j) in the selection equation (the latent score has unit
    variance) and sd(y) / sd(x_j) in the outcome equation, with sd(y) over
    the uncensored rows.  Intercepts (the forced-in columns) and constant
    columns carry no scale; without uncensored rows, or with a constant
    response, the outcome equation is skipped.
    """
    dataset, forced = loaded.dataset, loaded.model_template.forced
    y_unc = dataset.y[~dataset.censored]
    y_sd = float(y_unc.std()) if y_unc.size else 0.0
    low, high = _SCALE_RATIO_BOUNDS
    lines = []
    # (equation, design, column names, stacked position of its first column, coefficient unit)
    blocks = [("selection", dataset.W, dataset.column_names_w, 0, 1.0)]
    if y_sd > 0.0:
        blocks.append(("outcome", dataset.X, dataset.column_names_x, dataset.p, y_sd))
    for equation, design, names, start, unit in blocks:
        sds = design.std(axis=0)
        for j, name in enumerate(names):
            if forced[start + j] or sds[j] == 0.0:
                continue
            ratio = unit / sds[j] / np.sqrt(prior.variances[start + j])
            if not low <= ratio <= high:
                lines.append(
                    f"warning: {equation} covariate {name!r}: its implied coefficient scale is {ratio:.3g} "
                    "times the prior sd, so the prior, not the data, drives its inclusion; "
                    "set standardize = true or rescale the data"
                )
    return lines


def _separation_warnings(dataset: TobitDataset) -> list[str]:
    """One line per non-constant selection column that separates the
    censored from the uncensored rows by itself: its values on the censored
    rows all lie on one side of its values on the uncensored rows, ties
    allowed.  Data augmentation mixes very slowly on such data (no maximum
    likelihood estimate exists), and a run would otherwise say nothing.
    Skipped when either row half is empty.
    """
    split = dataset.split
    if not split.uncensored_idx.size or not split.censored_idx.size:
        return []
    unc, cen = split.WX_unc[: dataset.p], split.W_cen
    unc_low, unc_high = unc.min(axis=1), unc.max(axis=1)
    cen_low, cen_high = cen.min(axis=1), cen.max(axis=1)
    constant = np.minimum(unc_low, cen_low) == np.maximum(unc_high, cen_high)
    separating = ((cen_high <= unc_low) | (unc_high <= cen_low)) & ~constant
    return [
        f"warning: selection covariate {dataset.column_names_w[j]!r} separates the censored from the "
        "uncensored rows by itself, so the sampler mixes very slowly and its answer may not be trusted; "
        "drop or merge the column, or set a tighter Theta0_scale in the prior config"
        for j in np.flatnonzero(separating)
    ]


def _cmd_run(args) -> int:
    config_raw = _read_config(args.config, _RUN_KEYS) if args.config else {}
    defaults = dict(_RUN_DEFAULTS, seed=_seed_default())
    try:
        config = chain_mod.ChainConfig(**{
            key: _resolve(getattr(args, key), config_raw, key, type(default), default)
            for key, default in defaults.items()
        })
    except InvalidParameter as exc:
        # A flag overrides the file, so only keys no flag set can be at fault.
        _locate(config_raw, exc, {key: key for key in config_raw if getattr(args, key) is None})
        raise
    schema = _load_schema(args.schema)
    loaded = io_mod.load_csv(args.data, schema)
    dataset = loaded.dataset
    if dataset.n == 0:
        raise SchemaError(f"{args.data} has no data rows")
    if dataset.n_o == 0:
        print(
            f"warning: every row of {args.data} is censored, so the outcome equation's "
            "inclusion probabilities and coefficients, gamma and phi only echo their priors",
            file=sys.stderr,
        )
    prior = _load_prior(args.prior_config, dataset.p, dataset.q)
    if not schema.standardize:
        for line in _scale_warnings(loaded, prior):
            print(line, file=sys.stderr)
    for line in _separation_warnings(dataset):
        print(line, file=sys.stderr)

    out_dir = Path(args.out_dir)
    if loaded.standardization is not None:
        io_mod.write_standardization(loaded, schema.response, out_dir / "standardization.csv")
        print(f"coefficients are on the standardized scale; {out_dir / 'standardization.csv'} maps them back")
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


def _parse_coef(raw: str) -> np.ndarray:
    """The values of a comma-separated flag; ``SynthSpec`` checks their count."""
    return np.asarray([float(s) for s in raw.split(",") if s.strip()])


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n=args.n,
        p=args.p,
        q=args.q,
        true_theta=_parse_coef(args.theta),
        true_beta=_parse_coef(args.beta),
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
    # Each chain is pooled once and owns one diagnostics file, named by its id.
    paths = [Path(path) for path in args.traces]
    first_given = {}
    for path in paths:
        first = first_given.setdefault(path.resolve(), path)
        if first is not path:
            raise TbmaError(f"{first} and {path} are the same trace; give each chain's trace once")
    outputs, path_of_chain = [], {}
    for path in paths:
        out = io_mod.load_trace(path)
        if out.chain_id in path_of_chain:
            raise TbmaError(f"{path_of_chain[out.chain_id]} and {path} both hold chain {out.chain_id}")
        path_of_chain[out.chain_id] = path
        outputs.append(out)
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
