"""CSV ingestion, run configuration files, and emission of summary tables,
per-sweep traces and diagnostic series.

Data files, traces and the oracle fixtures are parsed by one ``np.loadtxt``
pass, ``_parse_body``, so one rule decides which cells are numbers; a file
that pass rejects is read again only to name the fault."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .chain import ChainOutput, PosteriorSummary
from .core import ModelIndicator, TobitDataset
from .errors import EmptyChain, InvalidParameter, IoError, ParseError, SchemaError

__all__ = [
    "INTERCEPT_NAME",
    "WRITE_BLOCK_ROWS",
    "DataSchema",
    "Standardization",
    "LoadedData",
    "load_csv",
    "write_csv",
    "read_tagged_csv",
    "read_tagged_table",
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
# Rows of numbers formatted per write: memory for the Python objects of one
# block stays small at any trace length, and the per-block costs vanish.
WRITE_BLOCK_ROWS = 512


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
        for names, label, intercept in (
            (self.selection, "selection", self.add_intercept_selection),
            (self.outcome, "outcome", self.add_intercept_outcome),
        ):
            if len(set(names)) != len(names):
                raise SchemaError(f"duplicate column in {label} list")
            if intercept and INTERCEPT_NAME in names:
                raise SchemaError(
                    f"{label} column {INTERCEPT_NAME!r} has the name of the intercept that "
                    f"add_intercept_{label} adds; rename the column or set add_intercept_{label} = false"
                )


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


def _parse_body(path, lines, dtype: np.dtype, name_fault, usecols=None) -> np.ndarray:
    """The body ``lines`` of ``path`` as records of the structured ``dtype``,
    one per line, in the one ``np.loadtxt`` pass that decides which cells of
    any file tbma reads are numbers.  When it fails, ``name_fault(reason)``
    reads the file again to name the fault; should it return, the ParseError
    names the file and numpy's reason."""
    first = next(lines, None)
    if first is None:  # np.loadtxt warns on a body without data
        return np.empty(0, dtype)
    try:
        return np.loadtxt(
            itertools.chain([first], lines), delimiter=",", quotechar='"', comments=None,
            usecols=usecols, dtype=dtype, ndmin=1,
        )
    except ValueError as exc:
        name_fault(str(exc))
        raise ParseError(f"{path}: {exc}") from None


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
    """Re-read the data rows after the numeric pass failed, met a bad
    censored flag or gave a dataset with non-finite values, and raise the
    ParseError for the first bad cell in row order, and within a row in the
    order response, flag, selection columns, outcome columns.  A non-finite
    covariate is bad, and so is a non-finite response on a row whose flag
    is not 1.  ``cause`` is the error raised should no cell be bad."""
    order = [schema.response] + [schema.censored] * (schema.censored is not None)
    order += list(schema.selection) + list(schema.outcome)
    covariates = set(schema.selection) | set(schema.outcome)
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
                if not math.isfinite(value) and (name in covariates or not _censored_row(row, schema, col)):
                    raise ParseError(f"{path}: non-finite value {raw!r} at row {row_num}, column {name!r}")
    raise ParseError(f"{path}: {cause}")


def _censored_row(row: list[str], schema: DataSchema, col: dict[str, int]) -> bool:
    """Whether a data row's flag reads 1 (with ``censor_on_zero``, its
    response reads 0)."""
    name = schema.censored if schema.censored is not None else schema.response
    return _number(row[col[name]].strip()) == float(schema.censored is not None)


def load_csv(path, schema: DataSchema) -> LoadedData:
    """Parse a UTF-8 CSV with a header row into the model's design matrices.

    The body is parsed in one ``_parse_body`` pass over the columns the schema
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
        table = _parse_body(
            path, lines, np.dtype([("cells", np.float64, (len(used),))]),
            lambda cause: _raise_first_bad_cell(path, schema, col, used, cause), usecols=[i for i, _ in used],
        )["cells"]

    if schema.censored is not None:
        censored = table[:, at[schema.censored]] == 1.0
        if not np.all(censored | (table[:, at[schema.censored]] == 0.0)):
            _raise_first_bad_cell(path, schema, col, used, "a censored flag is not 0 or 1")
    else:
        censored = table[:, at[schema.response]] == 0.0
    y = np.where(censored, 0.0, table[:, at[schema.response]])
    # An added intercept is the first column of its equation and always
    # included; the transforms give it center 0 and scale 1.
    add_w, add_x = schema.add_intercept_selection, schema.add_intercept_outcome
    W = _design(table, [at[c] for c in schema.selection], add_w)
    X = _design(table, [at[c] for c in schema.outcome], add_x)
    del table
    n = len(y)
    names_w = [INTERCEPT_NAME] * add_w + list(schema.selection)
    names_x = [INTERCEPT_NAME] * add_x + list(schema.outcome)

    if schema.standardize:
        if n == 0:
            raise SchemaError("cannot standardize an empty file")
        w_center, w_scale = _column_moments(W[:, add_w:])
        x_center, x_scale = _column_moments(X[:, add_x:])
        unc = ~censored
        if np.any(unc):
            y_center = float(y[unc].mean())
            y_scale = float(y[unc].std(ddof=0)) or 1.0
        else:
            y_center, y_scale = 0.0, 1.0
        for mat, start, center, scale in ((W, add_w, w_center, w_scale), (X, add_x, x_center, x_scale)):
            mat[:, start:] -= center
            mat[:, start:] /= scale
        y = np.where(unc, (y - y_center) / y_scale, 0.0)

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

    # Frozen here, the arrays are the dataset's own, not copies.
    for values in (W, X, y, censored):
        values.setflags(write=False)
    try:
        dataset = TobitDataset(
            W=W, X=X, y=y, censored=censored,
            column_names_w=tuple(names_w), column_names_x=tuple(names_x),
        )
    except InvalidParameter as exc:
        _raise_first_bad_cell(path, schema, col, used, str(exc))
    forced = np.zeros(dataset.p + dataset.q, dtype=bool)
    forced[0], forced[dataset.p] = add_w, add_x
    template = ModelIndicator.full_model(dataset.p, dataset.q, forced)
    return LoadedData(dataset=dataset, model_template=template, standardization=standardization)


def _design(table: np.ndarray, columns: list[int], intercept: bool) -> np.ndarray:
    """A design matrix: a column of ones when ``intercept`` is set, then the
    ``columns`` of ``table``, gathered straight into the result in one pass."""
    out = np.empty((table.shape[0], intercept + len(columns)))
    # Into the whole result, contiguous, and with in-range indices, the gather
    # is not buffered: the intercept's slot takes table column 0 until the
    # ones overwrite it.  ("raise" would buffer the output.)
    np.take(table, [0] * intercept + columns, axis=1, out=out, mode="clip")
    if intercept:
        out[:, 0] = 1.0
    return out


def _column_moments(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center = arr.mean(axis=0) if arr.size else np.zeros(arr.shape[1])
    scale = arr.std(axis=0, ddof=0) if arr.size else np.ones(arr.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    return center, scale


@dataclass(frozen=True)
class _NumberRows:
    """A table of numbers for ``write_csv``: column groups side by side, each
    a ``%`` cell format and an array of one cell per row (1-d) or of several
    (2-d).  A boolean group takes ``%d``; numpy writes its 0 and 1 cells.
    Numbers need no CSV quoting, so the rows are formatted without ``csv``,
    ``WRITE_BLOCK_ROWS`` rows at a time, and end in CRLF as ``csv.writer``'s do."""

    groups: tuple[tuple[str, np.ndarray], ...]

    def blocks(self):
        """The formatted rows, one string per block of rows."""
        groups = [(fmt, values) for fmt, values in self.groups if values.ndim == 1 or values.shape[1]]
        for start in range(0, len(groups[0][1]), WRITE_BLOCK_ROWS):
            rows = slice(start, start + WRITE_BLOCK_ROWS)
            cells = [_row_cells(fmt, values[rows]) for fmt, values in groups]
            yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def _row_cells(fmt: str, values: np.ndarray) -> list[str]:
    """The cells of each row of one column group, joined by commas."""
    if values.dtype == bool:
        # '0' or '1' per cell, commas between cells and a newline after each
        # row: 20-50 times as fast as a '%d' row format over .tolist() rows.
        bits = values.reshape(len(values), -1)
        text = np.full((len(bits), 2 * bits.shape[1]), ord(","), dtype=np.uint8)
        text[:, 0::2] = bits + np.uint8(ord("0"))
        text[:, -1] = ord("\n")
        return text.tobytes().decode("ascii").split("\n")[:-1]
    if values.ndim == 1:
        return [fmt % v for v in values.tolist()]
    # Most coefficient cells of a sparse chain are +0.0 (not -0.0, which
    # prints its sign): when over 3 in 4 are, format only the others.  Per
    # block this overtakes the row format at about 2 in 3 zero cells and is
    # up to 1.3 times slower below; it writes a paper-width sparse trace
    # about 1.8 times as fast (2-vCPU host).
    zero = (values == 0.0) & ~np.signbit(values)
    if 4 * np.count_nonzero(zero) > 3 * zero.size:
        text = np.full(values.shape, fmt % 0.0, dtype=object)
        text[~zero] = [fmt % v for v in values[~zero].tolist()]
        return list(map(",".join, text.tolist()))
    row_format = ",".join([fmt] * values.shape[1])
    return [row_format % tuple(row) for row in values.tolist()]


def write_csv(path, header, rows, preamble) -> None:
    """Write one ``# <entry>`` line per preamble entry, ending in LF, then the
    header and the rows as CSV rows ending in CRLF.  ``rows`` is either an
    iterable of cell lists, quoted by ``csv.writer`` and consumed as it is
    written, or a ``_NumberRows`` table, formatted a block of rows at a time.
    Parent directories are created."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            for entry in preamble:
                fh.write(f"# {entry}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            if isinstance(rows, _NumberRows):
                fh.writelines(rows.blocks())
            else:
                writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


class _Lines:
    """The physical lines of an open file, remembering the last one read: its
    line ending shows whether the file is whole."""

    def __init__(self, fh):
        self._fh = fh
        self.last = ""

    def __iter__(self):
        return self

    def __next__(self) -> str:
        self.last = next(self._fh)
        return self.last


def _tagged_head(lines: _Lines, path):
    """The ``# key = value`` entries before the header, the header, the count
    of lines before it and the ``csv`` reader that read it; ``lines`` then
    stands at the line after the header.  Other ``#`` lines and blank lines
    are skipped."""
    meta: dict[str, str] = {}
    preamble = 0
    for line in lines:
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif line.strip("\r\n"):
            break
        preamble += 1
    else:
        raise ParseError(f"{path} has no header row")
    reader = csv.reader(itertools.chain([line], lines))
    return meta, next(reader), preamble, reader


def read_tagged_csv(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """The ``# key = value`` lines before the header, the header and the data
    rows of a file written by ``write_csv``; ``path`` may also be an
    ``importlib.resources`` traversable.  Other ``#`` lines and blank lines
    are skipped.  A row whose cell count differs from the header's, or a last
    line without a line ending (a file cut short), is a ParseError naming
    ``file:line``."""
    path = path if hasattr(path, "open") else Path(path)
    rows: list[list[str]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        lines = _Lines(fh)
        meta, header, preamble, reader = _tagged_head(lines, path)
        for cells in reader:
            if len(cells) == len(header):
                rows.append(cells)
            elif cells:
                raise ParseError(
                    f"{path}:{preamble + reader.line_num}: "
                    f"{len(cells)} cells where the header has {len(header)}"
                )
    if not lines.last.endswith(("\n", "\r")):
        raise ParseError(
            f"{path}:{preamble + reader.line_num}: last line has no line ending; the file is cut short"
        )
    return meta, header, rows


def read_tagged_table(path, dtype_for) -> tuple[dict[str, str], list[str], np.ndarray]:
    """``read_tagged_csv`` for a file of numbers: the data rows, empty lines
    skipped, are records of the dtype ``dtype_for(meta, header)`` parsed by
    ``_parse_body``.  A body that pass rejects or a last line without a line
    ending is read again by ``read_tagged_csv``, to name ``file:line`` of a
    ragged row or of a file cut short."""
    path = path if hasattr(path, "open") else Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        lines = _Lines(fh)
        meta, header, _, _ = _tagged_head(lines, path)
        body = (line for line in lines if line.strip("\r\n"))
        records = _parse_body(path, body, dtype_for(meta, header), lambda _: read_tagged_csv(path))
    if not lines.last.endswith(("\n", "\r")):
        read_tagged_csv(path)
    return meta, header, records


def write_dataset(dataset: TobitDataset, path) -> None:
    """Emit a dataset as a CSV readable by the default loader schema.

    Reals carry 17 significant digits so a load/write cycle round-trips
    every double exactly.
    """
    rows = _NumberRows((
        (_TRACE_FMT, dataset.W), (_TRACE_FMT, dataset.X), (_TRACE_FMT, dataset.y), ("%d", dataset.censored),
    ))
    header = list(dataset.column_names_w) + list(dataset.column_names_x) + ["y", "censored"]
    write_csv(path, header, rows, ())


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

    rows = _NumberRows((
        ("%d", output.sweeps), ("%d", output.is_burnin), ("%d", output.accepted), (_TRACE_FMT, output.gammas),
        (_TRACE_FMT, output.phis), ("%d", output.models), (_TRACE_FMT, output.psis),
    ))
    write_csv(path, header, rows, preamble)


def load_trace(path) -> ChainOutput:
    """Rebuild a ChainOutput from a trace file written by write_trace.

    The body is read by ``read_tagged_table``.  A ``burnin``, ``accepted`` or
    ``in_*`` cell other than 0 or 1, a non-finite ``gamma``, ``phi`` or
    ``coef_*`` cell, or a ``phi`` not above 0 is a ParseError naming the
    file, the data row (counted from 1) and the column."""
    path = Path(path)
    meta, header, table = read_tagged_table(path, lambda meta, header: _trace_dtype(path, meta, header))
    if not table.size:
        raise ParseError(f"{path} contains no sweep records")
    p, q = int(meta["p"]), int(meta["q"])
    flags, values = table["flags"], table["values"]
    _check_trace_cells(path, header, flags, values, p + q)
    return ChainOutput(
        column_names_w=tuple(c[len("in_sel_") :] for c in header[5 : 5 + p]),
        column_names_x=tuple(c[len("in_out_") :] for c in header[5 + p : 5 + p + q]),
        sweeps=table["sweep"],
        is_burnin=flags[:, 0].astype(bool),
        accepted=flags[:, 1].astype(bool),
        gammas=values[:, 0],
        phis=values[:, 1],
        models=values[:, 2 : 2 + p + q].astype(bool),
        psis=values[:, 2 + p + q :],
        chain_id=int(meta.get("chain_id", "0")),
        dataset_fingerprint=meta.get("dataset_fingerprint", ""),
        config_fingerprint=meta.get("config_fingerprint", ""),
    )


def _trace_dtype(path: Path, meta: dict[str, str], header: list[str]) -> np.dtype:
    """A trace row's record of sweep, (burnin, accepted) flags and (gamma, phi,
    inclusion bits, coefficients) values; p and q are checked on the header."""
    shape = []
    for key in ("p", "q"):
        try:
            shape.append(int(meta[key]))
        except KeyError:
            raise ParseError(f"{path} is missing trace metadata {key!r}") from None
        except ValueError:
            raise ParseError(f"{path}: trace metadata {key} = {meta[key]!r} is not an integer") from None
    p, q = shape
    if len(header) != 5 + 2 * (p + q):
        raise ParseError(f"{path}: {len(header)} columns where p = {p}, q = {q} need {5 + 2 * (p + q)}")
    return np.dtype([("sweep", np.int64), ("flags", np.int64, (2,)), ("values", np.float64, (2 + 2 * (p + q),))])


def _check_trace_cells(path: Path, header: list[str], flags: np.ndarray, values: np.ndarray, d: int) -> None:
    """Raise a ParseError for the first trace cell, in row order, outside its
    column's domain; ``d`` is the count of inclusion bits."""
    gamma, phi, bits, coefs = values[:, :1], values[:, 1:2], values[:, 2 : 2 + d], values[:, 2 + d :]
    # (header column of the block's first cell, cells, bad cells, domain)
    blocks = (
        (1, flags, (flags != 0) & (flags != 1), "0 or 1"),
        (3, gamma, ~np.isfinite(gamma), "finite"),
        (4, phi, ~(np.isfinite(phi) & (phi > 0.0)), "finite and positive"),
        (5, bits, (bits != 0) & (bits != 1), "0 or 1"),
        (5 + d, coefs, ~np.isfinite(coefs), "finite"),
    )
    faults = []
    for start, cells, bad, domain in blocks:
        rows, cols = np.nonzero(bad)
        if rows.size:
            faults.append((rows[0], start + cols[0], cells[rows[0], cols[0]], domain))
    if faults:
        row, col, value, domain = min(faults, key=lambda fault: fault[:2])
        raise ParseError(f"{path}: {_TRACE_FMT % value} at data row {row + 1}, column {header[col]!r}, is not {domain}")


def write_diagnostics(series: np.ndarray, path) -> None:
    """Diagnostic CSV of (sweep, running sizes per equation, cumulative jump rate)."""
    series = np.asarray(series)
    if series.size == 0:
        raise EmptyChain("refusing to write empty diagnostics")
    header = ["sweep", "running_size_selection", "running_size_outcome", "cumulative_jump_rate"]
    write_csv(path, header, _NumberRows((("%d", series[:, 0]), (_SUMMARY_FMT, series[:, 1:]))), ())


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
