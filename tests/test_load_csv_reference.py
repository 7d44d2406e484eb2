"""``tbma.io.load_csv`` against a copy of the per-cell loader it replaced.

``reference_load_csv`` parses every cell with ``float()`` in a Python loop.
The one-pass loader must give the same dataset bit for bit on every CSV the
reference accepts, and the same error for the first bad cell.  The one
intended difference: digit-group underscores (``1_000``), which ``float()``
accepts, are rejected.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbma.core import ModelIndicator, TobitDataset
from tbma.errors import ParseError, SchemaError, TbmaError
from tbma.io import INTERCEPT_NAME, DataSchema, LoadedData, Standardization, load_csv


def _reference_cell(raw, row, column):
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"non-numeric value {raw!r} at row {row}, column {column!r}") from None


def _reference_moments(arr):
    center = arr.mean(axis=0) if arr.size else np.zeros(arr.shape[1])
    scale = arr.std(axis=0, ddof=0) if arr.size else np.ones(arr.shape[1])
    scale = np.where(scale == 0.0, 1.0, scale)
    return center, scale


def _without_underscores(raw, row, column):
    """The reference's cell parse less digit-group underscores, which the
    one-pass loader rejects."""
    if "_" in raw:
        raise ParseError(f"non-numeric value {raw!r} at row {row}, column {column!r}")
    return _reference_cell(raw, row, column)


def reference_load_csv(path, schema: DataSchema, cell=_reference_cell) -> LoadedData:
    """The per-cell loader ``load_csv`` replaced, kept as the reference;
    ``cell`` parses one cell."""
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
        used = sorted((col[name], name) for name in needed)

        w_rows, x_rows, ys, flags = [], [], [], []
        for row_num, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= used[-1][0]:
                lacking = next(name for i, name in used if i >= len(row))
                raise ParseError(f"{path}: row {row_num} has {len(row)} cells and lacks column {lacking!r}")
            y_val = cell(row[col[schema.response]].strip(), row_num, schema.response)
            if schema.censored is not None:
                raw_flag = row[col[schema.censored]].strip()
                flag_val = cell(raw_flag, row_num, schema.censored)
                if flag_val not in (0.0, 1.0):
                    raise ParseError(f"censored flag must be 0 or 1, got {raw_flag!r} at row {row_num}")
                is_censored = bool(flag_val)
            else:
                is_censored = y_val == 0.0
            flags.append(is_censored)
            ys.append(0.0 if is_censored else y_val)
            w_rows.append([cell(row[col[c]].strip(), row_num, c) for c in schema.selection])
            x_rows.append([cell(row[col[c]].strip(), row_num, c) for c in schema.outcome])

    n = len(ys)
    W = np.array(w_rows, dtype=np.float64).reshape(n, len(schema.selection))
    X = np.array(x_rows, dtype=np.float64).reshape(n, len(schema.outcome))
    y = np.array(ys, dtype=np.float64)
    censored = np.array(flags, dtype=bool)
    names_w, names_x = list(schema.selection), list(schema.outcome)

    if schema.standardize:
        if n == 0:
            raise SchemaError("cannot standardize an empty file")
        w_center, w_scale = _reference_moments(W)
        x_center, x_scale = _reference_moments(X)
        unc = ~censored
        if np.any(unc):
            y_center = float(y[unc].mean())
            y_scale = float(y[unc].std(ddof=0)) or 1.0
        else:
            y_center, y_scale = 0.0, 1.0
        W = (W - w_center) / w_scale
        X = (X - x_center) / x_scale
        y = np.where(unc, (y - y_center) / y_scale, 0.0)

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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
    assert a.tobytes() == b.tobytes()


def assert_same_load(path, schema, cell=_reference_cell):
    """``load_csv`` and the reference agree bit for bit, or raise the same
    error; the reference's cell and flag errors lacked the file name."""
    try:
        ref = reference_load_csv(path, schema, cell)
    except TbmaError as exc:
        with pytest.raises(type(exc)) as got:
            load_csv(path, schema)
        message = str(exc)
        if message.startswith(("non-numeric value", "censored flag")):
            message = f"{path}: {message}"
        assert str(got.value) == message
        return
    new = load_csv(path, schema)
    ds, rd = new.dataset, ref.dataset
    for field in ("W", "X", "y", "censored"):
        _same_bits(getattr(ds, field), getattr(rd, field))
    assert (ds.column_names_w, ds.column_names_x) == (rd.column_names_w, rd.column_names_x)
    assert ds.fingerprint == rd.fingerprint
    _same_bits(new.model_template.include, ref.model_template.include)
    _same_bits(new.model_template.forced, ref.model_template.forced)
    if ref.standardization is None:
        assert new.standardization is None
    else:
        for field in ("w_center", "w_scale", "x_center", "x_scale", "y_center", "y_scale"):
            _same_bits(getattr(new.standardization, field), getattr(ref.standardization, field))
        assert new.standardization.w_intercept == ref.standardization.w_intercept
        assert new.standardization.x_intercept == ref.standardization.x_intercept


_NUMBER = st.one_of(
    # Bounded so that standardizing cannot overflow.
    st.floats(min_value=-1e150, max_value=1e150).map(lambda v: "%.17g" % v),
    st.floats(min_value=-1e6, max_value=1e6).map(repr),
    st.integers(-1000, 1000).map(str),
)
_PAD = st.sampled_from(["", " ", "\t", "  "])
# Text cells, one spanning two lines that a lone quote ends.
_TEXT = st.sampled_from(['"Korea, Rep."', '"Congo, Dem. Rep., ""DRC"""', "Chile", '""', '",,"', '"Chile\n"'])


@st.composite
def _cell(draw, value):
    """``value`` written as a CSV cell: padded, and perhaps quoted with the
    padding inside the quotes (csv reads a space before a quote as text)."""
    padded = draw(_PAD) + value + draw(_PAD)
    return f'"{padded}"' if draw(st.booleans()) else padded


@st.composite
def data_files(draw):
    """A schema and the lines of a CSV the reference loader accepts."""
    censor_on_zero = draw(st.booleans())
    selection = ("a", "b")[: draw(st.integers(1, 2))]
    outcome = draw(st.sampled_from([("b", "c"), ("c",), ("a", "c")]))
    names = ["y", "a", "b", "c"] + ([] if censor_on_zero else ["cens"])
    names = draw(st.permutations(names))
    # Unused columns: a quoted text column and, last, a trailing note.
    names.insert(draw(st.integers(0, len(names))), "country")
    trailing = draw(st.booleans())
    names += ["note"] * trailing
    schema = DataSchema(
        response="y", selection=selection, outcome=outcome,
        censored=None if censor_on_zero else "cens", censor_on_zero=censor_on_zero,
        add_intercept_selection=draw(st.booleans()), add_intercept_outcome=draw(st.booleans()),
        standardize=draw(st.booleans()),
    )
    lines = [",".join(names)]
    for _ in range(draw(st.integers(1, 6))):
        cells = []
        for name in names:
            if name == "country":
                cells.append(draw(_TEXT))
            elif name == "note":
                cells.append(draw(st.sampled_from(["first", "", '"x, y"'])))
            elif name == "cens":
                cells.append(draw(_cell(draw(st.sampled_from(["0", "1", "1.0", "0.0", "-0"])))))
            elif name == "y" and draw(st.booleans()):
                cells.append(draw(_cell(draw(st.sampled_from(["0", "0.0", "-0"])))))
            else:
                cells.append(draw(_cell(draw(_NUMBER))))
        if trailing and draw(st.booleans()):
            cells.pop()  # a row lacking only the unused trailing cell
        elif draw(st.booleans()):
            cells += draw(st.lists(st.sampled_from(["", "1", "extra"]), min_size=1, max_size=2))
        lines.append(",".join(cells))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", ",,,", " , ,", '"",""', ",\t", "\xa0,\u3000"])))
    return schema, lines


def _write(directory, lines, ending):
    path = Path(directory) / "data.csv"
    path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
    return path


@settings(max_examples=300, deadline=None)
@given(case=data_files(), ending=st.sampled_from(["\n", "\r\n"]))
def test_matches_reference_bit_for_bit(case, ending):
    schema, lines = case
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, lines, ending)
        reference_load_csv(path, schema)  # the generated file is valid
        assert_same_load(path, schema)


_BAD = ["oops", "#x", "", "2", "1_000", None]  # None: cut the row short


@settings(max_examples=300, deadline=None)
@given(case=data_files(), ending=st.sampled_from(["\n", "\r\n"]), data=st.data())
def test_first_bad_cell_matches_reference(case, ending, data):
    """One or two bad cells: the first in row order, and within a row in the
    order response, flag, selection, outcome, is the one named."""
    schema, lines = case
    header = next(csv.reader([lines[0]]))
    rows = [i for i, line in enumerate(lines) if i and line.strip(' \t,"')]
    used = sorted(header.index(c) for c in {schema.response, schema.censored, *schema.selection, *schema.outcome} if c)
    for _ in range(data.draw(st.integers(1, 2))):
        at, column, bad = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(used)), data.draw(st.sampled_from(_BAD))
        cells = next(csv.reader([lines[at]]), [])
        if bad is None:
            cells = cells[:column]
        elif column < len(cells):
            cells[column] = bad
        lines[at] = ",".join('"' + c.replace('"', '""') + '"' if set(c) & set(',"\n') else c for c in cells)
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, lines, ending)
        assert_same_load(path, schema, cell=_without_underscores)
        if any("1_000" in line for line in lines):
            # float() reads digit-group underscores; the one-pass loader does not.
            try:
                reference_load_csv(path, schema)
            except ParseError as exc:
                assert "non-numeric value '1_000'" not in str(exc)
