"""CSV ingestion, run configuration files, and emission of summary tables,
per-sweep traces and diagnostic series."""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import ChainOutput, PosteriorSummary
from .core import ModelIndicator, TobitDataset
from .errors import EmptyChain, IoError, ParseError, SchemaError

__all__ = [
    "INTERCEPT_NAME",
    "DataSchema",
    "Standardization",
    "LoadedData",
    "load_csv",
    "write_dataset",
    "write_summary",
    "write_trace",
    "load_trace",
    "write_diagnostics",
    "ConfigFile",
    "read_config",
    "parse_bool",
]

INTERCEPT_NAME = "(intercept)"

_SUMMARY_FMT = "%.6f"
_TRACE_FMT = "%.17g"


@dataclass(frozen=True)
class DataSchema:
    """Column roles for a CSV file; a column may serve both equations."""

    response: str
    selection: tuple[str, ...]
    outcome: tuple[str, ...]
    censored: str | None = None
    add_intercept_selection: bool = True
    add_intercept_outcome: bool = True
    standardize: bool = False
    censor_on_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "selection", tuple(self.selection))
        object.__setattr__(self, "outcome", tuple(self.outcome))
        if self.censored is None and not self.censor_on_zero:
            raise SchemaError("schema needs a censored column or censor_on_zero")
        if not self.selection and not self.add_intercept_selection:
            raise SchemaError("selection equation has no columns")
        if not self.outcome and not self.add_intercept_outcome:
            raise SchemaError("outcome equation has no columns")
        for names, label in ((self.selection, "selection"), (self.outcome, "outcome")):
            if len(set(names)) != len(names):
                raise SchemaError(f"duplicate column in {label} list")


@dataclass(frozen=True)
class Standardization:
    """Per-column centering/scaling applied by the loader.

    Covariates use moments over all rows; the response uses uncensored rows
    only.  Intercept columns keep center 0 and scale 1 and are flagged so the
    back-transformation can route the absorbed shifts to them.
    """

    w_center: np.ndarray
    w_scale: np.ndarray
    x_center: np.ndarray
    x_scale: np.ndarray
    y_center: float
    y_scale: float
    w_intercept: int | None = None
    x_intercept: int | None = None

    def unscale_psi(self, theta_std: np.ndarray, beta_std: np.ndarray):
        """Map standardized-data coefficients back to the original units."""
        theta = np.asarray(theta_std, dtype=np.float64) / self.w_scale
        beta = np.asarray(beta_std, dtype=np.float64) * self.y_scale / self.x_scale
        if self.w_intercept is not None:
            theta[self.w_intercept] -= float(np.sum(theta * self.w_center))
        if self.x_intercept is not None:
            beta[self.x_intercept] += self.y_center - float(np.sum(beta * self.x_center))
        return theta, beta


@dataclass(frozen=True)
class LoadedData:
    """Dataset plus the full-model template (forced intercept bits) and the
    recorded standardization transforms, when enabled."""

    dataset: TobitDataset
    model_template: ModelIndicator
    standardization: Standardization | None


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"non-numeric value {raw!r} at row {row}, column {column!r}") from None


def load_csv(path, schema: DataSchema) -> LoadedData:
    """Parse a UTF-8 CSV with a header row into the model's design matrices.

    Rows keep file order; censored rows store 0 for the response.  Data rows
    are numbered from 1 in error messages.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}

        needed = set(schema.selection) | set(schema.outcome) | {schema.response}
        if schema.censored is not None:
            needed.add(schema.censored)
        for name in sorted(needed):
            if name not in col:
                raise SchemaError(f"column {name!r} not found in {path}")

        w_rows, x_rows, ys, flags = [], [], [], []
        for row_num, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            y_val = _parse_cell(row[col[schema.response]].strip(), row_num, schema.response)
            if schema.censored is not None:
                raw_flag = row[col[schema.censored]].strip()
                flag_val = _parse_cell(raw_flag, row_num, schema.censored)
                if flag_val not in (0.0, 1.0):
                    raise ParseError(
                        f"censored flag must be 0 or 1, got {raw_flag!r} at row {row_num}"
                    )
                is_censored = bool(flag_val)
            else:
                is_censored = y_val == 0.0
            flags.append(is_censored)
            ys.append(0.0 if is_censored else y_val)
            w_rows.append([_parse_cell(row[col[c]].strip(), row_num, c) for c in schema.selection])
            x_rows.append([_parse_cell(row[col[c]].strip(), row_num, c) for c in schema.outcome])

    n = len(ys)
    W = np.array(w_rows, dtype=np.float64).reshape(n, len(schema.selection))
    X = np.array(x_rows, dtype=np.float64).reshape(n, len(schema.outcome))
    y = np.array(ys, dtype=np.float64)
    censored = np.array(flags, dtype=bool)
    names_w, names_x = list(schema.selection), list(schema.outcome)

    standardization = None
    if schema.standardize:
        if n == 0:
            raise SchemaError("cannot standardize an empty file")
        w_center, w_scale = _column_moments(W)
        x_center, x_scale = _column_moments(X)
        unc = ~censored
        if np.any(unc):
            y_center = float(y[unc].mean())
            y_scale = float(y[unc].std(ddof=0)) or 1.0
        else:
            y_center, y_scale = 0.0, 1.0
        W = (W - w_center) / w_scale
        X = (X - x_center) / x_scale
        y = np.where(unc, (y - y_center) / y_scale, 0.0)
        standardization = Standardization(
            w_center=w_center,
            w_scale=w_scale,
            x_center=x_center,
            x_scale=x_scale,
            y_center=y_center,
            y_scale=y_scale,
        )

    forced_w = np.zeros(len(names_w), dtype=bool)
    forced_x = np.zeros(len(names_x), dtype=bool)
    if schema.add_intercept_selection:
        W = np.column_stack([np.ones(n), W]) if n else np.ones((0, len(names_w) + 1))
        names_w = [INTERCEPT_NAME] + names_w
        forced_w = np.concatenate([[True], forced_w])
        if standardization is not None:
            standardization = dataclasses.replace(
                standardization,
                w_center=np.concatenate([[0.0], standardization.w_center]),
                w_scale=np.concatenate([[1.0], standardization.w_scale]),
                w_intercept=0,
            )
    if schema.add_intercept_outcome:
        X = np.column_stack([np.ones(n), X]) if n else np.ones((0, len(names_x) + 1))
        names_x = [INTERCEPT_NAME] + names_x
        forced_x = np.concatenate([[True], forced_x])
        if standardization is not None:
            standardization = dataclasses.replace(
                standardization,
                x_center=np.concatenate([[0.0], standardization.x_center]),
                x_scale=np.concatenate([[1.0], standardization.x_scale]),
                x_intercept=0,
            )

    dataset = TobitDataset(
        W=W, X=X, y=y, censored=censored,
        column_names_w=tuple(names_w), column_names_x=tuple(names_x),
    )
    template = ModelIndicator.full_model(dataset.p, dataset.q, forced_w, forced_x)
    return LoadedData(dataset=dataset, model_template=template, standardization=standardization)


def _column_moments(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = arr.mean(axis=0) if arr.size else np.zeros(arr.shape[1])
    scale = arr.std(axis=0, ddof=0) if arr.size else np.ones(arr.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    return center, scale


def _open_out(path) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path
    except OSError as exc:
        raise IoError(f"cannot prepare output path {path}: {exc}") from exc


def write_dataset(dataset: TobitDataset, path) -> None:
    """Emit a dataset as a CSV readable by the default loader schema.

    Reals carry 17 significant digits so a load/write cycle round-trips
    every double exactly.
    """
    path = _open_out(path)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(dataset.column_names_w) + list(dataset.column_names_x) + ["y", "censored"])
            for i in range(dataset.n):
                row = [_TRACE_FMT % v for v in dataset.W[i]]
                row += [_TRACE_FMT % v for v in dataset.X[i]]
                row.append(_TRACE_FMT % dataset.y[i])
                row.append("1" if dataset.censored[i] else "0")
                writer.writerow(row)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_summary(summaries: list[PosteriorSummary], path) -> None:
    """Summary CSV sorted by outcome-equation inclusion probability, descending.

    Selection rows follow outcome rows under the same ordering rule.  Absent
    conditional moments (never-included covariates) are left empty.
    """
    if not summaries:
        raise EmptyChain("refusing to write an empty summary")
    path = _open_out(path)
    outcome = sorted(
        (s for s in summaries if s.equation == "outcome"), key=lambda s: (-s.incl_prob, s.name)
    )
    selection = sorted(
        (s for s in summaries if s.equation == "selection"), key=lambda s: (-s.incl_prob, s.name)
    )
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["covariate", "equation", "incl_prob", "post_mean", "post_sd", "cond_mean", "cond_sd"]
            )
            for s in outcome + selection:
                writer.writerow(
                    [
                        s.name,
                        s.equation,
                        _SUMMARY_FMT % s.incl_prob,
                        _SUMMARY_FMT % s.post_mean,
                        _SUMMARY_FMT % s.post_sd,
                        "" if s.cond_mean is None else _SUMMARY_FMT % s.cond_mean,
                        "" if s.cond_sd is None else _SUMMARY_FMT % s.cond_sd,
                    ]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_trace(output: ChainOutput, path) -> None:
    """One row per stored sweep at full double precision, with run metadata
    carried in leading comment lines."""
    if output.kept == 0:
        raise EmptyChain("refusing to write an empty trace")
    path = _open_out(path)
    in_cols = [f"in_sel_{c}" for c in output.column_names_w] + [
        f"in_out_{c}" for c in output.column_names_x
    ]
    coef_cols = [f"coef_sel_{c}" for c in output.column_names_w] + [
        f"coef_out_{c}" for c in output.column_names_x
    ]
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write("# tbma-trace-v1\n")
            fh.write(f"# chain_id = {output.chain_id}\n")
            fh.write(f"# p = {output.p}\n")
            fh.write(f"# q = {output.q}\n")
            fh.write(f"# dataset_fingerprint = {output.dataset_fingerprint}\n")
            fh.write(f"# config_fingerprint = {output.config_fingerprint}\n")
            writer = csv.writer(fh)
            writer.writerow(["sweep", "burnin", "accepted", "gamma", "phi"] + in_cols + coef_cols)
            for i in range(output.kept):
                row = [
                    str(int(output.sweeps[i])),
                    "1" if output.is_burnin[i] else "0",
                    "1" if output.accepted[i] else "0",
                    _TRACE_FMT % output.gammas[i],
                    _TRACE_FMT % output.phis[i],
                ]
                row += ["1" if b else "0" for b in output.models[i]]
                row += [_TRACE_FMT % v for v in output.psis[i]]
                writer.writerow(row)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_trace(path) -> ChainOutput:
    """Rebuild a ChainOutput from a trace file written by write_trace."""
    path = Path(path)
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(cells)
    if header is None:
        raise ParseError(f"{path} contains no trace header")
    try:
        p, q = int(meta["p"]), int(meta["q"])
    except KeyError as exc:
        raise ParseError(f"{path} is missing trace metadata {exc}") from None
    names_w = tuple(c[len("in_sel_") :] for c in header[5 : 5 + p])
    names_x = tuple(c[len("in_out_") :] for c in header[5 + p : 5 + p + q])
    data = np.array(rows, dtype=object)
    if data.size == 0:
        raise ParseError(f"{path} contains no sweep records")
    as_float = data[:, 3 : 5 + 2 * (p + q)].astype(np.float64)
    return ChainOutput(
        column_names_w=names_w,
        column_names_x=names_x,
        sweeps=data[:, 0].astype(np.int64),
        is_burnin=data[:, 1].astype(np.int64).astype(bool),
        accepted=data[:, 2].astype(np.int64).astype(bool),
        gammas=as_float[:, 0],
        phis=as_float[:, 1],
        models=as_float[:, 2 : 2 + p + q].astype(bool),
        psis=as_float[:, 2 + p + q :],
        chain_id=int(meta.get("chain_id", "0")),
        dataset_fingerprint=meta.get("dataset_fingerprint", ""),
        config_fingerprint=meta.get("config_fingerprint", ""),
    )


def write_diagnostics(series: np.ndarray, path) -> None:
    """Diagnostic CSV of (sweep, running sizes per equation, cumulative jump rate)."""
    series = np.asarray(series)
    if series.size == 0:
        raise EmptyChain("refusing to write empty diagnostics")
    path = _open_out(path)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sweep", "running_size_selection", "running_size_outcome", "cumulative_jump_rate"]
            )
            for row in series:
                writer.writerow([str(int(row[0]))] + [_SUMMARY_FMT % v for v in row[1:]])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"expected a boolean, got {raw!r}")


class ConfigFile(dict):
    """Entries of one `key = value` config file, each with its line number."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path
        self.lines: dict[str, int] = {}

    def where(self, key: str) -> str:
        """`path:line` of the entry for ``key``, for error messages."""
        return f"{self.path}:{self.lines[key]}"


def read_config(path) -> ConfigFile:
    """Flat `key = value` file with `#` comments and blank lines; a repeated
    key is an error, not a silent override."""
    path = Path(path)
    out = ConfigFile(path)
    for line_num, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value' at {path}:{line_num}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ParseError(f"{path}:{line_num}: key {key!r} repeats line {out.lines[key]}")
        out[key] = value.strip()
        out.lines[key] = line_num
    return out
