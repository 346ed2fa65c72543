"""The columnar SweepTable and the chunked emit_csv against row-wise references.

The references below are the row-wise writer and the per-row tuple builders
that the columnar code replaced. The chunked writer must reproduce their
bytes exactly, and ``SweepTable.rows`` must reproduce their row tuples.
"""

import math
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadengine import sweeps
from gadengine.cli import _build_parser, _ergomap_spec
from gadengine.engine import (
    QUBIT_RECORD_FIELDS,
    qubit_record,
    qutrit_record,
    run_cyclic_qubit,
    run_noncyclic_qubit,
    run_qutrit,
)
from gadengine.sweeps import (
    MIXED_RECORD_FIELDS,
    SweepTable,
    emit_csv,
    preset,
    qubit_config_from_params,
    qutrit_config_from_params,
    run_sweep,
    with_points,
)
from gadengine.variants import qutrit_cold_heat_literal


# --- references: the row-wise writer and row builders ----------------------

def reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    return format(x, ".12g")


def reference_csv(columns, rows, preamble=()) -> bytes:
    lines = list(preamble)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(reference_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_rows(spec, paper_literal=False):
    """(columns, row tuples) of a spec, built one row tuple at a time."""
    target, fixed = spec.target, spec.fixed_params
    name, values = spec.swept.name, spec.swept.values()
    if target in ("work_vs_f", "work_vs_pg", "work_vs_f_noncyclic"):
        run = run_noncyclic_qubit if target == "work_vs_f_noncyclic" else run_cyclic_qubit
        series = ([{spec.series.name: v} for v in spec.series.values]
                  if spec.series else [{}])
        rows = []
        for extra in series:
            for v in values:
                cfg = qubit_config_from_params({**fixed, name: float(v), **extra})
                rec = qubit_record(cfg, run(cfg))
                rows.append(tuple(rec[c] for c in QUBIT_RECORD_FIELDS))
        return QUBIT_RECORD_FIELDS, rows
    if target == "heat_work_cyclic_vs_noncyclic":
        rows = []
        for run in (run_cyclic_qubit, run_noncyclic_qubit):
            for v in values:
                cfg = qubit_config_from_params({**fixed, name: float(v)})
                rec = qubit_record(cfg, run(cfg))
                rows.append(tuple(rec[c] for c in QUBIT_RECORD_FIELDS))
        return QUBIT_RECORD_FIELDS, rows
    if target in ("qutrit_vs_qubit_work", "efficiency"):
        qubit_run = run_cyclic_qubit if target == "qutrit_vs_qubit_work" else run_noncyclic_qubit
        columns = MIXED_RECORD_FIELDS + (("q_cold_literal",) if paper_literal else ())
        rows = []
        for system in ("qubit", "qutrit"):
            for v in values:
                params = {**fixed, "f": float(v)}
                row = dict.fromkeys(columns, "")
                if system == "qubit":
                    cfg = qubit_config_from_params(params)
                    row.update(qubit_record(cfg, qubit_run(cfg)))
                else:
                    cfg = qutrit_config_from_params(params)
                    row.update(qutrit_record(cfg, run_qutrit(cfg)))
                    row["f"] = cfg.f_prime
                    if paper_literal:
                        row["q_cold_literal"] = qutrit_cold_heat_literal(cfg)
                row["system"] = system
                rows.append(tuple(row[c] for c in columns))
        return columns, rows
    t_axis = np.linspace(0.0, fixed.get("tmax", 1.0),
                         int(fixed.get("tpoints", spec.swept.points)))
    if target == "ergotropy_map":
        build = sweeps._qubit_grid if int(fixed.get("dim", 2)) == 2 else sweeps._qutrit_grid
        grid = build(spec, t_axis)
        rows = [(grid.f_axis[i], grid.t_axis[j], grid.values[i, j])
                for i in range(grid.f_axis.size) for j in range(grid.t_axis.size)]
        return ("f", "t", "value"), rows
    qutrit, qubit = sweeps._qutrit_grid(spec, t_axis), sweeps._qubit_grid(spec, t_axis)
    rows = [(qutrit.f_axis[i], qutrit.t_axis[j], qutrit.values[i, j], qubit.values[i, j],
             qutrit.values[i, j] - qubit.values[i, j])
            for i in range(qutrit.f_axis.size) for j in range(qutrit.t_axis.size)]
    return ("f", "t", "w_qutrit", "w_qubit", "dw"), rows


# --- every preset and every ergomap system ----------------------------------

def _ergomap(system):
    args = _build_parser().parse_args(["ergomap", "--points", "41", "--set", f"system={system}"])
    return _ergomap_spec(args)


CASES = [(f"fig{i}", with_points(preset(f"fig{i}"), 21), False) for i in range(1, 8)]
CASES += [(f"fig{i}-literal", with_points(preset(f"fig{i}"), 21), True) for i in (5, 6)]
CASES += [(f"ergomap-{s}", _ergomap(s), False) for s in ("qubit", "qutrit", "diff")]


def _kinds(rows):
    """Cell kinds of a table, so True cannot stand in for 1.0 or '' for nan."""
    return [tuple(type(v) if isinstance(v, (bool, str)) else float for v in row)
            for row in rows]


@pytest.mark.parametrize("label, spec, literal", CASES, ids=[c[0] for c in CASES])
def test_table_matches_row_builder(tmp_path, label, spec, literal):
    columns, rows = reference_rows(spec, literal)
    table = run_sweep(spec, paper_literal=literal)
    assert table.columns == columns
    assert table.rows == rows
    assert _kinds(table.rows) == _kinds(rows)
    path = tmp_path / "out.csv"
    emit_csv(table, path)
    assert path.read_bytes() == reference_csv(columns, rows, table.preamble)


# --- random tables ----------------------------------------------------------

SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.225e-308, 1e-300, -1e-300, 1e300, -1e300,
    1e12, 1e15, 123456789012345.0, 2.0 ** 63, 1.0 / 3.0,
]

float_cells = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(10 ** 12, 10 ** 18).map(float),
)
other_cells = {
    "bool": st.booleans(),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    "empty": st.just(""),
    "int": st.integers(-10 ** 20, 10 ** 20),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(["float", "bool_array", *other_cells]),
                          min_size=1, max_size=6))
    n = draw(st.integers(0, 30))
    data = []
    for kind in kinds:
        if kind == "float":
            data.append(np.array(draw(st.lists(float_cells, min_size=n, max_size=n)),
                                 dtype=np.float64))
        elif kind == "bool_array":
            data.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                 dtype=bool))
        else:
            data.append(draw(st.lists(other_cells[kind], min_size=n, max_size=n)))
    return SweepTable(tuple(f"c{j}" for j in range(len(kinds))), data=data,
                      preamble=("# random",))


def _emitted(table) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        emit_csv(table, path)
        return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(tables())
def test_random_tables_match_reference(table):
    # a numpy bool column prints like a column of Python bools
    rows = list(zip(*(col.tolist() if isinstance(col, np.ndarray) and col.dtype == bool else col
                      for col in table.data)))
    assert _emitted(table) == reference_csv(table.columns, rows, table.preamble)


def _mixed_table(n):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::7] = np.nan
    floats[3::11] = -0.0
    return SweepTable(
        ("x", "flag", "label", "count"),
        data=(floats, [i % 3 == 0 for i in range(n)],
              ["" if i % 2 else f"r{i}" for i in range(n)], list(range(n))),
    )


CHUNK_ROWS = sweeps._CHUNK_CELLS // 4  # rows per chunk of the four-column table


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_chunk_boundaries(n):
    table = _mixed_table(n)
    assert _emitted(table) == reference_csv(table.columns, list(zip(*table.data)))


# --- repeated cells: each run of equal bit patterns formatted once ----------

# distinct bit patterns that print alike or nearly so: -0.0 apart from +0.0,
# NaN with the sign bit set and NaN with a payload, beside infinities, a
# subnormal and 1e+-300
POOL = np.concatenate([
    np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, 1e300, -1e300, 1e-300, 0.5]),
    np.array([0xFFF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64),
])
# +0.0 beside -0.0, then NaNs that differ in payload and sign bit: neighbouring
# runs of these print alike (every NaN as nan) or nearly so
ALIKE = np.concatenate([
    np.array([0.0, -0.0]),
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
              0xFFF0000000000001], dtype=np.uint64).view(np.float64),
])
REPEAT_ROWS = sweeps._CHUNK_CELLS // 4  # rows per chunk of the four-column table


def _runs(rng, values, rows, k):
    """rows cells in exactly k runs of equal bit patterns, cycling through values.

    values are at least two distinct bit patterns, so neighbouring runs differ.
    """
    cuts = np.sort(rng.choice(np.arange(1, rows), k - 1, replace=False))
    return np.repeat(np.resize(values, k), np.diff(cuts, prepend=0, append=rows))


def _distinct(rng, rows, k):
    """rows cells with exactly min(k, rows) distinct bit patterns, the pool among them."""
    values = np.concatenate([POOL, rng.standard_normal(k - POOL.size)])
    return rng.permutation(np.resize(values, rows))


def _per_chunk(n, make):
    return np.concatenate([make(chunk, min(REPEAT_ROWS, n - start))
                           for chunk, start in enumerate(range(0, n, REPEAT_ROWS))])


def _repeated_table(n, seed):
    rng = np.random.default_rng(seed)
    return SweepTable(("pool", "alike", "half", "switch"), data=(
        # long runs of the pool, which run across chunk boundaries: one cell per run
        _runs(rng, POOL, n, max(1, n // 5000)),
        # short runs of +0.0, -0.0 and the NaNs, each run beside another pattern
        _runs(rng, ALIKE, n, max(1, n // 3)),
        # exactly half as many runs as the rows of a full chunk: one cell per run
        _per_chunk(n, lambda chunk, rows: _runs(rng, POOL, rows, max(1, rows // 2))),
        # chunks cycle through one run more than half (every cell formatted),
        # all-distinct cells, and long runs of the pool
        _per_chunk(n, lambda chunk, rows: (
            _runs(rng, POOL, rows, min(rows, rows // 2 + 1)) if chunk % 3 == 0
            else _distinct(rng, rows, max(rows, POOL.size)) if chunk % 3 == 1
            else _runs(rng, POOL, rows, max(1, rows // 1000)))),
    ))


@pytest.mark.parametrize("n", [REPEAT_ROWS + 1, 2 * REPEAT_ROWS, 3 * REPEAT_ROWS - 1])
def test_repeated_cells_match_reference(n):
    table = _repeated_table(n, n)
    pool = table.data[0].view(np.int64)
    # a run of the pool column crosses every chunk boundary
    assert all(pool[start - 1] == pool[start] for start in range(REPEAT_ROWS, n, REPEAT_ROWS))
    assert _emitted(table) == reference_csv(table.columns, list(zip(*table.data)))


def test_repeated_cells_take_both_paths():
    # the per-run path repeats an object array of one string per run; the
    # other path formats every cell into a list
    part = _repeated_table(REPEAT_ROWS, 0).data
    cells = [sweeps._float_cells(col) for col in part]
    paths = ["run" if isinstance(c, np.ndarray) else "cell" for c in cells]
    assert paths == ["run", "run", "run", "cell"]
    runs = [np.count_nonzero(np.diff(col.view(np.int64))) + 1 for col in part[2:]]
    assert [2 * k for k in runs] == [REPEAT_ROWS, REPEAT_ROWS + 2]
    for col, text in zip(part, cells):
        assert list(text) == [reference_fmt(x) for x in col.tolist()]


# --- factored columns: each distinct cell formatted once per table ---------

MIXED_VALUES = np.array([math.nan, -math.nan, 0.0, -0.0, True, False, "qubit", "", 1.5, 1e300],
                        dtype=object)
FACTORED_ROWS = sweeps._CHUNK_CELLS // 3  # rows per chunk of the three-column table


@pytest.mark.parametrize("n", [0, 1, FACTORED_ROWS + 5])
def test_factored_columns_match_reference(n):
    rng = np.random.default_rng(n)
    table = SweepTable(("mixed", "float", "value"), data=(
        sweeps.Factored(MIXED_VALUES, rng.integers(0, MIXED_VALUES.size, n)),
        sweeps.Factored(POOL, np.arange(n) // 7 % POOL.size),
        rng.choice(POOL, n),
    ))
    assert len(table.rows) == n
    assert _emitted(table) == reference_csv(table.columns, list(zip(*table.data)))


@pytest.mark.parametrize("system", ["qubit", "diff"])
def test_landscape_axes_are_factored(system):
    spec = _ergomap(system)
    table = run_sweep(spec)
    f_axis, t_axis = spec.swept.values(), sweeps._t_axis(spec)
    assert all(isinstance(col, sweeps.Factored) for col in table.data[:2])
    assert table.rows == list(zip(np.repeat(f_axis, t_axis.size), np.tile(t_axis, f_axis.size),
                                  *table.data[2:]))


class _Counted:
    """A cell that counts how often it is converted to float."""

    def __init__(self, value):
        self.value, self.calls = value, 0

    def __float__(self):
        self.calls += 1
        return self.value


def test_factored_values_are_formatted_once_per_table():
    # two chunks of the two-column table: once per row or per chunk would show
    values = np.array([_Counted(x) for x in (0.25, -0.0, math.nan)], dtype=object)
    n = sweeps._CHUNK_CELLS // 2 + 3
    table = SweepTable(("x", "y"), data=(sweeps.Factored(values, np.arange(n) % 3), np.zeros(n)))
    text = _emitted(table)
    assert [cell.calls for cell in values] == [1, 1, 1]
    assert text.count(b"\n") == n + 1
    assert text.startswith(b"x,y\n0.25,0\n-0,0\nnan,0\n0.25,0\n")


# --- streamed output is atomic ----------------------------------------------

def test_failure_after_first_chunk_leaves_no_file(tmp_path):
    # one object column: the bad cell lands in the second chunk
    cells = [0.5] * sweeps._CHUNK_CELLS + [None]
    table = SweepTable(("x",), data=(cells,))
    dest = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        emit_csv(table, dest)
    assert list(tmp_path.iterdir()) == []
    dest.write_text("kept\n")
    with pytest.raises(TypeError):
        emit_csv(table, dest)
    assert dest.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [dest]


def test_overwrites_existing_file(tmp_path):
    dest = tmp_path / "out.csv"
    dest.write_text("a much longer old file body that must not survive\n")
    emit_csv(SweepTable(("a",), rows=((1.5,),)), dest)
    assert dest.read_text() == "a\n1.5\n"
    assert list(tmp_path.iterdir()) == [dest]


def test_writes_through_a_pipe(tmp_path):
    # a destination that is no regular file is written in place, not replaced
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        emit_csv(SweepTable(("a",), rows=((1.5,), (2.0,))), pipe)
        assert os.read(reader, 1 << 16) == b"a\n1.5\n2\n"
    finally:
        os.close(reader)
    assert list(tmp_path.iterdir()) == [pipe]
    assert stat.S_ISFIFO(pipe.stat().st_mode)


# --- the table itself -------------------------------------------------------

class TestSweepTable:
    def test_rows_view(self):
        table = SweepTable(("a", "b"), data=(np.array([1.0, 2.0, 3.0]), ["x", "y", "z"]))
        rows = table.rows
        assert len(rows) == 3
        assert rows[0] == (1.0, "x")
        assert rows[-1] == (3.0, "z")
        assert rows[1:] == ((2.0, "y"), (3.0, "z"))
        assert list(rows) == [(1.0, "x"), (2.0, "y"), (3.0, "z")]
        with pytest.raises(IndexError):
            rows[3]

    def test_rows_round_trip(self):
        rows = ((0.25, True, ""), (math.nan, False, "qubit"))
        table = SweepTable(("x", "flag", "label"), rows=rows)
        assert table.data[1] == (True, False)
        assert table.rows == rows

    def test_empty_table_has_empty_columns(self):
        table = SweepTable(("a", "b"), rows=())
        assert len(table.rows) == 0
        assert table.data == ((), ())

    def test_malformed_tables_rejected(self):
        with pytest.raises(ValueError):
            SweepTable(("a", "b"), rows=((1.0,),))
        with pytest.raises(ValueError):
            SweepTable(("a", "b"), data=([1.0], [1.0, 2.0]))
        with pytest.raises(ValueError):
            SweepTable(("a",), data=([1.0], [2.0]))
        with pytest.raises(TypeError):
            SweepTable(("a",))
        with pytest.raises(TypeError):
            SweepTable(("a",), rows=(), data=((),))

    def test_engine_columns_are_float_arrays(self):
        table = run_sweep(with_points(preset("fig1"), 5))
        data = dict(zip(table.columns, table.data))
        assert data["work"].dtype == np.float64
        assert data["cyclic"] == [True] * 25
