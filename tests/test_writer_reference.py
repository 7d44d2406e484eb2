"""The numeric writers against a per-cell reference.

``write_trace``, ``write_diagnostics`` and ``write_dataset`` format their
numbers a block of rows at a time, without ``csv``.  This file keeps the
earlier form of the same writers: every cell formatted on its own with
``%``, every row passed through ``csv.writer``.  Numbers never need CSV
quoting, so both forms must write the same bytes.
"""

import csv
import sys
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tbma.chain import ChainOutput
from tbma.core import TobitDataset
from tbma.io import WRITE_BLOCK_ROWS, write_dataset, write_diagnostics, write_trace

TRACE_FMT = "%.17g"
SUMMARY_FMT = "%.6f"


def reference_write_csv(path, header, rows, preamble):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for entry in preamble:
            fh.write(f"# {entry}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def reference_write_trace(output, path):
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
                TRACE_FMT % output.gammas[i],
                TRACE_FMT % output.phis[i],
            ]
            row += ["1" if b else "0" for b in output.models[i]]
            row += [TRACE_FMT % v for v in output.psis[i]]
            yield row

    reference_write_csv(path, header, rows(), preamble)


def reference_write_diagnostics(series, path):
    header = ["sweep", "running_size_selection", "running_size_outcome", "cumulative_jump_rate"]
    rows = ([str(int(row[0]))] + [SUMMARY_FMT % v for v in row[1:]] for row in series)
    reference_write_csv(path, header, rows, ())


def reference_write_dataset(dataset, path):
    def rows():
        for i in range(dataset.n):
            row = [TRACE_FMT % v for v in dataset.W[i]]
            row += [TRACE_FMT % v for v in dataset.X[i]]
            row.append(TRACE_FMT % dataset.y[i])
            row.append("1" if dataset.censored[i] else "0")
            yield row

    header = list(dataset.column_names_w) + list(dataset.column_names_x) + ["y", "censored"]
    reference_write_csv(path, header, rows(), ())


# Row counts on both sides of every block boundary, and a few others.
KEPT = st.sampled_from([1, 2, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 3])
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1 + 0.2, 1 / 3, 2.5e10]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# Names that need CSV quoting: delimiters, quotes, line breaks, spaces.
NAME = st.text(alphabet='ab ,"\n\r#=', min_size=1, max_size=5)


def names(draw, count):
    return tuple(draw(st.lists(NAME, min_size=count, max_size=count, unique=True)))


def array(draw, shape, elements, dtype=np.float64):
    """An array of ``shape``: one drawn pattern of values tiled, so that long
    tables are cheap to draw."""
    size = int(np.prod(shape))
    pattern = draw(st.lists(elements, min_size=1, max_size=max(1, min(size, 40))))
    return np.resize(np.array(pattern, dtype=dtype), shape)


@st.composite
def chain_outputs(draw):
    kept, p, q = draw(KEPT), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sweeps = array(draw, (kept,), st.integers(-(2**63), 2**63 - 1), dtype=np.int64)
    models = array(draw, (kept, p + q), st.booleans(), dtype=bool)
    return ChainOutput(
        column_names_w=names(draw, p),
        column_names_x=names(draw, q),
        sweeps=sweeps,
        is_burnin=array(draw, (kept,), st.booleans(), dtype=bool),
        models=models,
        # +0.0 off the model, as a chain stores it: mostly-zero blocks too.
        psis=np.where(models, array(draw, (kept, p + q), FLOATS), 0.0),
        gammas=array(draw, (kept,), FLOATS),
        phis=array(draw, (kept,), FLOATS),
        accepted=array(draw, (kept,), st.booleans(), dtype=bool),
        chain_id=draw(st.integers(0, 9)),
        dataset_fingerprint="fp-data",
        config_fingerprint="fp-config",
    )


@st.composite
def diagnostic_series(draw):
    kept = draw(KEPT)
    # Sweeps as diagnostics_series stores them, as floats; huge and
    # fractional ones print as int() reads them.
    sweep = array(draw, (kept, 1), st.one_of(st.integers(-(2**62), 2**62).map(float), FINITE))
    return np.hstack([sweep, array(draw, (kept, 3), FLOATS)])


@st.composite
def datasets(draw):
    # An equation may have no columns; its group then writes no cells.
    n, p, q = draw(KEPT), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    censored = array(draw, (n,), st.booleans(), dtype=bool)
    y = np.where(censored, array(draw, (n,), FLOATS), array(draw, (n,), FINITE))
    return TobitDataset(
        W=array(draw, (n, p), FINITE), X=array(draw, (n, q), FINITE), y=y, censored=censored,
        column_names_w=names(draw, p), column_names_x=names(draw, q),
    )


def same_bytes(tmp_path_factory, write, reference, value):
    folder = tmp_path_factory.mktemp("w")
    write(value, folder / "new.csv")
    reference(value, folder / "reference.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(output=chain_outputs())
def test_trace_bytes_match_the_reference(tmp_path_factory, output):
    same_bytes(tmp_path_factory, write_trace, reference_write_trace, output)


@settings(max_examples=60, deadline=None)
@given(series=diagnostic_series())
def test_diagnostics_bytes_match_the_reference(tmp_path_factory, series):
    same_bytes(tmp_path_factory, write_diagnostics, reference_write_diagnostics, series)


@settings(max_examples=60, deadline=None)
@given(dataset=datasets())
def test_dataset_bytes_match_the_reference(tmp_path_factory, dataset):
    same_bytes(tmp_path_factory, write_dataset, reference_write_dataset, dataset)


def test_dataset_without_rows_matches_the_reference(tmp_path_factory):
    empty = TobitDataset(W=np.empty((0, 2)), X=np.empty((0, 1)), y=np.empty(0), censored=np.empty(0, dtype=bool),
                         column_names_w=("a", "b"), column_names_x=("c",))
    same_bytes(tmp_path_factory, write_dataset, reference_write_dataset, empty)


def test_writing_a_long_trace_holds_one_block_at_a_time(tmp_path):
    """A 20 000 x 224 trace: the writer's peak stays far under what the
    whole table as Python objects, its ``.tolist()``, would take."""
    kept, pq = 20_000, 224
    rng = np.random.default_rng(5)
    models = rng.uniform(size=(kept, pq)) < 0.1
    output = ChainOutput(
        column_names_w=tuple(f"w{j}" for j in range(pq // 2)),
        column_names_x=tuple(f"x{j}" for j in range(pq // 2)),
        sweeps=np.arange(1, kept + 1),
        is_burnin=np.arange(kept) < 1000,
        models=models,
        psis=np.where(models, rng.standard_normal((kept, pq)), 0.0),
        gammas=rng.standard_normal(kept),
        phis=rng.uniform(size=kept),
        accepted=rng.uniform(size=kept) < 0.3,
        chain_id=0,
        dataset_fingerprint="fp-data",
        config_fingerprint="fp-config",
    )
    # Each cell of a .tolist() is a float object plus the list's pointer to it.
    tolist_bytes = kept * (5 + 2 * pq) * (sys.getsizeof(0.5) + 8)
    tracemalloc.start()
    try:
        write_trace(output, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tolist_bytes / 10, (peak, tolist_bytes)
    assert (tmp_path / "trace.csv").read_bytes().count(b"\r\n") == kept + 1
