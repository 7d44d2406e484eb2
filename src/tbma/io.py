"""CSV ingestion, run configuration files, and emission of summary tables,
per-sweep traces and diagnostic series."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

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
    "write_csv",
    "read_tagged_csv",
    "write_dataset",
    "write_standardization",
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


def _blank(cells: list[str]) -> bool:
    """A CSV row with no cells, or only empty or whitespace cells."""
    return all(not c.strip() for c in cells)


def _blank_line(line: str) -> bool:
    """Whether ``csv`` reads ``line`` as a blank row.  A line that starts with
    a cell's content is not one; a line with an odd count of quotes opens or
    closes a cell that spans lines, and is kept whole."""
    first = line[:1]
    if not (first.isspace() or first in ',"') or line.count('"') % 2:
        return False
    return _blank(next(csv.reader([line])))


def _number(raw: str) -> float | None:
    """A stripped cell as ``np.loadtxt`` reads it, or None: ``float()``
    without digit-group underscores or non-ASCII digits."""
    if "_" in raw or not raw.isascii():
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _raise_first_bad_cell(
    path: Path, schema: DataSchema, col: dict[str, int], used: list[tuple[int, str]], cause: str
) -> NoReturn:
    """Re-read the data rows after the numeric pass failed or met a bad
    censored flag, and raise the ParseError for the first bad cell in row
    order, and within a row in the order response, flag, selection columns,
    outcome columns.  ``cause`` is the error raised should no cell be bad."""
    order = [schema.response] + [schema.censored] * (schema.censored is not None)
    order += list(schema.selection) + list(schema.outcome)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_num, row in enumerate(reader, start=1):
            if _blank(row):
                continue
            if len(row) <= used[-1][0]:
                lacking = next(name for i, name in used if i >= len(row))
                raise ParseError(f"{path}: row {row_num} has {len(row)} cells and lacks column {lacking!r}")
            for name in order:
                raw = row[col[name]].strip()
                value = _number(raw)
                if value is None:
                    raise ParseError(f"{path}: non-numeric value {raw!r} at row {row_num}, column {name!r}")
                if name == schema.censored and value not in (0.0, 1.0):
                    raise ParseError(f"{path}: censored flag must be 0 or 1, got {raw!r} at row {row_num}")
    raise ParseError(f"{path}: {cause}")


def load_csv(path, schema: DataSchema) -> LoadedData:
    """Parse a UTF-8 CSV with a header row into the model's design matrices.

    The body is parsed in one ``np.loadtxt`` pass over the columns the schema
    reads.  Rows keep file order; blank rows are skipped; censored rows store 0
    for the response.  Data rows are numbered from 1 in error messages.
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
        # Columns the schema reads, in file order; a row may stop after the last.
        used = sorted((col[name], name) for name in needed)
        at = {name: k for k, (_, name) in enumerate(used)}

        # np.loadtxt skips empty lines but not whitespace or all-empty rows.
        lines = (line for line in fh if not _blank_line(line))
        first = next(lines, None)
        if first is None:  # np.loadtxt warns on a body without data
            table = np.empty((0, len(used)))
        else:
            try:
                table = np.loadtxt(
                    itertools.chain([first], lines), delimiter=",", quotechar='"', comments=None,
                    usecols=[i for i, _ in used], dtype=np.float64, ndmin=2,
                )
            except ValueError as exc:
                _raise_first_bad_cell(path, schema, col, used, str(exc))

    y = table[:, at[schema.response]]
    if schema.censored is not None:
        flag = table[:, at[schema.censored]]
        if not np.all((flag == 0.0) | (flag == 1.0)):
            _raise_first_bad_cell(path, schema, col, used, "a censored flag is not 0 or 1")
        censored = flag == 1.0
    else:
        censored = y == 0.0
    y = np.where(censored, 0.0, y)
    W = table.take([at[c] for c in schema.selection], axis=1)
    X = table.take([at[c] for c in schema.outcome], axis=1)
    n = len(y)
    names_w, names_x = list(schema.selection), list(schema.outcome)

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

    # An added intercept is the first column of its equation and always
    # included; the transforms give it center 0 and scale 1.
    add_w, add_x = schema.add_intercept_selection, schema.add_intercept_outcome
    if add_w:
        W = np.column_stack([np.ones(n), W])
        names_w = [INTERCEPT_NAME] + names_w
    if add_x:
        X = np.column_stack([np.ones(n), X])
        names_x = [INTERCEPT_NAME] + names_x
    standardization = None
    if schema.standardize:
        standardization = Standardization(
            w_center=np.concatenate([[0.0] * add_w, w_center]),
            w_scale=np.concatenate([[1.0] * add_w, w_scale]),
            x_center=np.concatenate([[0.0] * add_x, x_center]),
            x_scale=np.concatenate([[1.0] * add_x, x_scale]),
            y_center=y_center,
            y_scale=y_scale,
            w_intercept=0 if add_w else None,
            x_intercept=0 if add_x else None,
        )

    dataset = TobitDataset(
        W=W, X=X, y=y, censored=censored,
        column_names_w=tuple(names_w), column_names_x=tuple(names_x),
    )
    forced = np.zeros(dataset.p + dataset.q, dtype=bool)
    forced[0], forced[dataset.p] = add_w, add_x
    template = ModelIndicator.full_model(dataset.p, dataset.q, forced)
    return LoadedData(dataset=dataset, model_template=template, standardization=standardization)


def _column_moments(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = arr.mean(axis=0) if arr.size else np.zeros(arr.shape[1])
    scale = arr.std(axis=0, ddof=0) if arr.size else np.ones(arr.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    return center, scale


def write_csv(path, header, rows, preamble) -> None:
    """Write one ``# <entry>`` line per preamble entry, then the header and
    the rows through ``csv.writer``; ``rows`` may be any iterable and is
    consumed as it is written.  Parent directories are created."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            for entry in preamble:
                fh.write(f"# {entry}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_tagged_csv(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """The ``# key = value`` lines before the header, the header and the data
    rows of a file written by ``write_csv``; ``path`` may also be an
    ``importlib.resources`` traversable.  Other ``#`` lines and blank lines
    are skipped.  A row whose cell count differs from the header's, or a last
    line without a line ending (a file cut short), is a ParseError naming
    ``file:line``."""
    path = path if hasattr(path, "open") else Path(path)
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    last = ""  # the last physical line: its line ending shows the file is whole

    def lines(fh):
        nonlocal last
        for last in fh:
            yield last

    with path.open(newline="", encoding="utf-8") as fh:
        source = lines(fh)
        preamble = 0
        for line in source:
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif line.strip("\r\n"):
                break
            preamble += 1
        else:
            raise ParseError(f"{path} has no header row")
        reader = csv.reader(itertools.chain([line], source))
        header = next(reader)
        for cells in reader:
            if len(cells) == len(header):
                rows.append(cells)
            elif cells:
                raise ParseError(
                    f"{path}:{preamble + reader.line_num}: "
                    f"{len(cells)} cells where the header has {len(header)}"
                )
    if not last.endswith(("\n", "\r")):
        raise ParseError(
            f"{path}:{preamble + reader.line_num}: last line has no line ending; the file is cut short"
        )
    return meta, header, rows


def write_dataset(dataset: TobitDataset, path) -> None:
    """Emit a dataset as a CSV readable by the default loader schema.

    Reals carry 17 significant digits so a load/write cycle round-trips
    every double exactly.
    """
    def rows():
        for i in range(dataset.n):
            row = [_TRACE_FMT % v for v in dataset.W[i]]
            row += [_TRACE_FMT % v for v in dataset.X[i]]
            row.append(_TRACE_FMT % dataset.y[i])
            row.append("1" if dataset.censored[i] else "0")
            yield row

    header = list(dataset.column_names_w) + list(dataset.column_names_x) + ["y", "censored"]
    write_csv(path, header, rows(), ())


def write_standardization(loaded: LoadedData, response: str, path) -> None:
    """The loader's transforms of standardized data, one row per selection
    column, per outcome column and for the response: coefficients drawn on the
    standardized data map back to the original units through these centers
    and scales (see ``Standardization.unscale_psi``)."""
    tr, ds = loaded.standardization, loaded.dataset
    rows = [
        [equation, name, _TRACE_FMT % center, _TRACE_FMT % scale]
        for equation, names, centers, scales in (
            ("selection", ds.column_names_w, tr.w_center, tr.w_scale),
            ("outcome", ds.column_names_x, tr.x_center, tr.x_scale),
            ("response", (response,), (tr.y_center,), (tr.y_scale,)),
        )
        for name, center, scale in zip(names, centers, scales)
    ]
    write_csv(path, ["equation", "column", "center", "scale"], rows, ())


def write_summary(summaries: list[PosteriorSummary], path) -> None:
    """Summary CSV sorted by outcome-equation inclusion probability, descending.

    Selection rows follow outcome rows under the same ordering rule.  Absent
    conditional moments (never-included covariates) are left empty.
    """
    if not summaries:
        raise EmptyChain("refusing to write an empty summary")
    ordered = sorted(summaries, key=lambda s: (s.equation != "outcome", -s.incl_prob, s.name))

    def cells(s):
        moments = (s.incl_prob, s.post_mean, s.post_sd, s.cond_mean, s.cond_sd)
        return [s.name, s.equation] + ["" if v is None else _SUMMARY_FMT % v for v in moments]

    header = ["covariate", "equation", "incl_prob", "post_mean", "post_sd", "cond_mean", "cond_sd"]
    write_csv(path, header, map(cells, ordered), ())


def write_trace(output: ChainOutput, path) -> None:
    """One row per stored sweep at full double precision, with run metadata
    carried in leading comment lines."""
    if output.kept == 0:
        raise EmptyChain("refusing to write an empty trace")
    names = [f"sel_{c}" for c in output.column_names_w] + [f"out_{c}" for c in output.column_names_x]
    header = ["sweep", "burnin", "accepted", "gamma", "phi"]
    header += [f"in_{c}" for c in names] + [f"coef_{c}" for c in names]
    preamble = ["tbma-trace-v1", f"chain_id = {output.chain_id}", f"p = {output.p}", f"q = {output.q}",
                f"dataset_fingerprint = {output.dataset_fingerprint}",
                f"config_fingerprint = {output.config_fingerprint}"]

    def rows():
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
            yield row

    write_csv(path, header, rows(), preamble)


def load_trace(path) -> ChainOutput:
    """Rebuild a ChainOutput from a trace file written by write_trace."""
    meta, header, rows = read_tagged_csv(path)
    try:
        p, q = int(meta["p"]), int(meta["q"])
    except KeyError as exc:
        raise ParseError(f"{path} is missing trace metadata {exc}") from None
    if len(header) != 5 + 2 * (p + q):
        raise ParseError(f"{path}: {len(header)} columns where p = {p}, q = {q} need {5 + 2 * (p + q)}")
    if not rows:
        raise ParseError(f"{path} contains no sweep records")
    names_w = tuple(c[len("in_sel_") :] for c in header[5 : 5 + p])
    names_x = tuple(c[len("in_out_") :] for c in header[5 + p : 5 + p + q])
    data = np.array(rows, dtype=object)
    try:
        as_float = data[:, 3:].astype(np.float64)
        sweeps = data[:, 0].astype(np.int64)
        flags = data[:, 1:3].astype(np.int64).astype(bool)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return ChainOutput(
        column_names_w=names_w,
        column_names_x=names_x,
        sweeps=sweeps,
        is_burnin=flags[:, 0],
        accepted=flags[:, 1],
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
    header = ["sweep", "running_size_selection", "running_size_outcome", "cumulative_jump_rate"]
    rows = ([str(int(row[0]))] + [_SUMMARY_FMT % v for v in row[1:]] for row in series)
    write_csv(path, header, rows, ())


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
