"""Parameter sweeps, figure-style presets, and deterministic CSV emission.

A :class:`SweepSpec` names a target quantity, a swept axis, an optional
series axis, and fixed parameters. ``run_sweep`` evaluates it into a
columnar table (series-major, sweep-minor row order); ``emit_csv`` streams
the table with 12 significant digits so repeated runs are byte-identical.
Engine targets build one column per parameter, check the columns with the
config predicates, and run the batched engine over blocks of rows.

Presets fig1..fig7 bundle the stock sweeps as the same flat key=value
mappings a spec file holds, and both become a spec through
``spec_from_mapping``. Constants that the preset family does not pin down
elsewhere default to: pg = 0.9, hot gap 1, cold gap 0.5, qutrit hot gaps
(1, 2) and cold gaps (0.5, 1), and a single damping value shared by every
damping parameter where one is implied. Every value used is recorded in the
emitted rows, so no output is ambiguous.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import variants
from .engine import (
    QUBIT_RECORD_FIELDS,
    QUTRIT_RECORD_FIELDS,
    QubitEngineConfig,
    QutritEngineConfig,
    qubit_cycles,
    qubit_record,
    qutrit_cycles,
    qutrit_record,
    run_cyclic_qubit,
    run_noncyclic_qubit,
    run_qutrit,
)
from .ergotropy import ergotropy_landscape, landscape_difference
from .errors import GadEngineError, OutOfRangeError, UnknownPresetError
from .states import (
    Hamiltonian,
    is_feasible,
    is_nonnegative,
    is_normalized,
    is_positive,
    is_spectrum,
    is_unit,
)


@dataclass(frozen=True)
class SweptAxis:
    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise OutOfRangeError(f"{self.name} needs at least 2 points, got {self.points}")
        # stop - start is non-finite for a NaN or infinite bound and for a span
        # that overflows, each of which np.linspace would turn into NaN values
        if not math.isfinite(self.stop - self.start):
            raise OutOfRangeError("sweep must have finite bounds and span, got "
                                  f"{self.name}:{self.start}:{self.stop}")
        if not self.stop > self.start:
            raise OutOfRangeError("swept axis must be strictly ascending")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SeriesAxis:
    name: str
    values: tuple


@dataclass(frozen=True)
class SweepSpec:
    target: str
    fixed_params: dict
    swept: SweptAxis
    series: SeriesAxis | None = None


def _same_cell(a, b) -> bool:
    return a == b or (a != a and b != b)


@dataclass(frozen=True, eq=False)
class Factored(Sequence):
    """A column of repeated cells: an array of the distinct cells and one index per row."""

    values: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        return self.values[self.codes[index]]


class _RowView(Sequence):
    """Read-only row-by-row view of a table's columns; each row is a tuple."""

    __slots__ = ("_data", "_length")

    def __init__(self, data: tuple, length: int):
        self._data = data
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(*(col[index] for col in self._data)))
        return tuple(col[index] for col in self._data)

    def __iter__(self):
        return zip(*self._data)

    def __eq__(self, other):
        """Row-by-row equality, in which a NaN cell equals a NaN cell."""
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            len(row) == len(theirs) and all(map(_same_cell, row, theirs))
            for row, theirs in zip(self, other)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False, init=False)
class SweepTable:
    """A CSV table stored column by column.

    ``columns`` holds the column names and ``data`` one sequence of cells
    per column, all of one length. A column is a float64 array, which
    ``emit_csv`` formats in bulk; a ``Factored``, whose distinct cells it
    formats once; or a list, whose cells go through ``_fmt`` one by one.
    Build a table from ``data``, or from ``rows`` for small tables, which are
    transposed once. ``rows`` is a read-only row view derived from the columns.
    """

    columns: tuple
    data: tuple
    preamble: tuple

    def __init__(self, columns, rows=None, preamble=(), *, data=None):
        columns = tuple(columns)
        if (rows is None) == (data is None):
            raise TypeError("SweepTable takes exactly one of rows and data")
        if data is None:
            rows = tuple(rows)
            if any(len(row) != len(columns) for row in rows):
                raise ValueError(f"every row needs {len(columns)} cells")
            data = tuple(zip(*rows)) if rows else ((),) * len(columns)
        data = tuple(data)
        if len(data) != len(columns):
            raise ValueError(f"{len(columns)} column names but {len(data)} columns")
        if len({len(col) for col in data}) > 1:
            raise ValueError("columns differ in length")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "preamble", tuple(preamble))

    @property
    def rows(self) -> _RowView:
        return _RowView(self.data, len(self.data[0]) if self.data else 0)


def qubit_config_from_params(params: dict) -> QubitEngineConfig:
    return QubitEngineConfig(
        initial_pg=params["pg"],
        f=params["f"],
        gamma=params["gamma"],
        k=params.get("k", 1.0),
        hot_gap=params["dh"],
        cold_gap=params["dc"],
    )


def qutrit_config_from_params(params: dict) -> QutritEngineConfig:
    return QutritEngineConfig(
        initial_p=(params["p0"], params["p1"], params["p2"]),
        f_prime=params["f"],
        lambda1=params["lam1"],
        lambda2=params["lam2"],
        k1=params["k1"],
        k2=params["k2"],
        hot_levels=Hamiltonian((0.0, params["dh10"], params["dh20"])),
        cold_levels=Hamiltonian((0.0, params["dc10"], params["dc20"])),
    )


# CSV column -> engine report field
_OUTPUTS = dict(q_hot="q_hot", q_cold="q_cold", work="work", efficiency="efficiency",
                deviation="deviation", delta_w="redistribution_work")

# engine rows per batched call; bounds the memory of the stroke-state stacks
_BLOCK_ROWS = 4096


def _levels(gap10, gap20) -> np.ndarray:
    return np.stack([np.zeros_like(gap10), gap10, gap20], axis=-1)


# (predicate, parameter keys) in the order in which the config built by
# *_config_from_params checks them, so the first check a row fails is the
# one its config raises for; together they name every input of a system
_QUBIT_CHECKS = (
    (is_unit, "pg"), (is_unit, "f"), (is_unit, "gamma"), (is_unit, "k"),
    (is_positive, "dh"), (is_positive, "dc"),
)
_QUTRIT_CHECKS = (
    (lambda a, b: is_spectrum(_levels(a, b)), "dh10", "dh20"),
    (lambda a, b: is_spectrum(_levels(a, b)), "dc10", "dc20"),
    (is_unit, "p0"), (is_unit, "p1"), (is_unit, "p2"),
    (lambda p0, p1, p2: is_normalized(p0 + p1 + p2), "p0", "p1", "p2"),
    (is_unit, "f"), (is_unit, "lam1"), (is_unit, "lam2"), (is_unit, "k1"), (is_unit, "k2"),
    (is_feasible, "lam1", "lam2"), (is_feasible, "k1", "k2"),
)


def _keys(checks) -> frozenset:
    return frozenset(key for _, *keys in checks for key in keys)


_QUBIT_KEYS, _QUTRIT_KEYS = _keys(_QUBIT_CHECKS), _keys(_QUTRIT_CHECKS)
# the same for the landscape inputs, in the order in which the grid builders
# check them (Hamiltonian first, then ergotropy_landscape); defaults stand in
# for keys a spec leaves out
_QUBIT_MAP_CHECKS = ((is_positive, "gap"), (is_unit, "pg"), (is_nonnegative, "rate"))
_QUTRIT_MAP_CHECKS = (
    (lambda a, b: is_spectrum(_levels(a, b)), "gap10", "gap20"),
    (is_unit, "p0"), (is_unit, "p1"), (is_unit, "p2"),
    (lambda p0, p1, p2: is_normalized(p0 + p1 + p2), "p0", "p1", "p2"),
    (is_nonnegative, "rate1"), (is_nonnegative, "rate2"),
)
_QUBIT_MAP_DEFAULTS = {"gap": 1.0, "rate": 1.0}
_QUTRIT_MAP_DEFAULTS = {"gap10": 1.0, "gap20": 2.0, "rate1": 1.0, "rate2": 1.0}
# the landscape keys of each medium by system_dim; a map of one dim takes its own only
MAP_KEYS_BY_DIM = {2: _keys(_QUBIT_MAP_CHECKS), 3: _keys(_QUTRIT_MAP_CHECKS)}
_MAP_KEYS = MAP_KEYS_BY_DIM[2] | MAP_KEYS_BY_DIM[3] | {"tmax", "tpoints"}

MIXED_RECORD_FIELDS = (
    "system", "f", "pg", "pe", "p0", "p1", "p2", "gamma", "lam1", "lam2",
    "k", "k1", "k2", "dh", "dc", "dh10", "dh20", "dc10", "dc20",
    "q_hot", "q_cold", "work", "efficiency", "deviation", "delta_w", "cyclic",
)


_SYSTEMS = {
    "qubit": (_QUBIT_KEYS, _QUBIT_CHECKS, qubit_config_from_params),
    "qutrit": (_QUTRIT_KEYS, _QUTRIT_CHECKS, qutrit_config_from_params),
}


def _parameter_columns(spec: SweepSpec, keys) -> tuple:
    """(columns by key, swept value of each row), series-major and sweep-minor.

    A key takes the series value, else the swept value, else its fixed value.
    """
    swept, series = spec.swept.name, spec.series
    values = spec.swept.values()
    points = np.tile(values, len(series.values) if series is not None else 1)
    fixed = {"k": 1.0, **spec.fixed_params}
    columns = {}
    for key in sorted(keys):
        if series is not None and key == series.name:
            columns[key] = np.repeat(np.asarray(series.values, dtype=float), values.size)
        elif key == swept:
            columns[key] = points
        elif key in fixed:
            columns[key] = np.full(points.size, float(fixed[key]))
        else:
            raise OutOfRangeError(f"parameter {key!r} is not set")
    return columns, points


def _check_rows(columns: dict, checks, build, swept=None, points=None) -> None:
    """Raise the config error of the first row that fails a check, if any.

    The error is annotated with the parameters of the failing check and,
    given a swept parameter, the row's swept value.
    """
    passed = [check(*(columns[key] for key in keys)) for check, *keys in checks]
    failed = ~np.logical_and.reduce(passed)
    if not failed.any():
        return
    row = int(np.argmax(failed))
    failing = next(keys for (_, *keys), ok in zip(checks, passed) if not ok[row])
    named = ", ".join(f"{key}={columns[key][row]:g}" for key in failing if key != swept)
    where = named
    if swept is not None:
        where = f"at {swept}={points[row]:g}" + (f" ({named})" if named else "")
    try:
        build({key: float(col[row]) for key, col in columns.items()})
    except GadEngineError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    raise OutOfRangeError(f"{where}: {', '.join(failing)} out of range")


def _checked(checks, params: dict, build):
    """build(params), once params pass the checks as the one row of _check_rows.

    Every key the checks name must be set.
    """
    columns = {}
    for _, *keys in checks:
        for key in keys:
            if key not in params:
                raise OutOfRangeError(f"parameter {key!r} is not set")
            columns[key] = np.array([float(params[key])])
    _check_rows(columns, checks, build)
    return build(params)


def _run_rows(system: str, cyclic: bool, columns: dict) -> dict:
    """Engine outputs of every row, evaluated _BLOCK_ROWS rows at a time."""
    n = len(columns["f"])
    out = {name: np.empty(n) for name in _OUTPUTS}
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        c = {key: col[rows] for key, col in columns.items()}
        if system == "qubit":
            report = qubit_cycles(c["pg"], c["f"], c["gamma"], c["k"], c["dh"], c["dc"],
                                  cyclic=cyclic)
        else:
            report = qutrit_cycles(
                np.stack([c["p0"], c["p1"], c["p2"]], axis=-1), c["f"], c["lam1"],
                c["lam2"], c["k1"], c["k2"], _levels(c["dh10"], c["dh20"]),
                _levels(c["dc10"], c["dc20"]),
            )
        for name, field in _OUTPUTS.items():
            out[name][rows] = getattr(report, field)
    return out


def _join(name: str, parts) -> Sequence:
    """One table column over the parts in order; '' in the rows of a part without it."""
    pieces = [part.get(name, [""] * n) for part, n in parts]
    if all(isinstance(piece, np.ndarray) for piece in pieces):
        return np.concatenate(pieces)
    return [cell for piece in pieces
            for cell in (piece.tolist() if isinstance(piece, np.ndarray) else piece)]


def _sweep_engine(spec: SweepSpec, parts, paper_literal: bool) -> SweepTable:
    """Engine rows of every part, one part after the other.

    parts are (system, cyclic) pairs; _validate_spec has checked that the
    spec's series and swept parameter apply to them.
    """
    mixed = any(system == "qutrit" for system, _ in parts)
    built = []
    for system, cyclic in parts:
        keys, checks, build = _SYSTEMS[system]
        cols, points = _parameter_columns(spec, keys)
        _check_rows(cols, checks, build, spec.swept.name, points)
        cols.update(_run_rows(system, cyclic, cols))
        cols["system"], cols["cyclic"] = [system] * points.size, [cyclic] * points.size
        if system == "qubit":
            cols["pe"] = 1.0 - cols["pg"]
        elif paper_literal:
            cols["q_cold_literal"] = variants.cold_heat_literal(
                (cols["p0"], cols["p1"], cols["p2"]), cols["f"], cols["lam1"], cols["lam2"],
                cols["k1"], cols["k2"], (0.0, cols["dc10"], cols["dc20"]),
            )
        built.append((cols, points.size))
    columns = MIXED_RECORD_FIELDS if mixed else QUBIT_RECORD_FIELDS
    if paper_literal:
        columns += ("q_cold_literal",)
    return SweepTable(columns, data=[_join(name, built) for name in columns])


_REPORT_ENGINES = {
    "cyclic": ("qubit", run_cyclic_qubit, qubit_record, QUBIT_RECORD_FIELDS),
    "noncyclic": ("qubit", run_noncyclic_qubit, qubit_record, QUBIT_RECORD_FIELDS),
    "qutrit": ("qutrit", run_qutrit, qutrit_record, QUTRIT_RECORD_FIELDS),
}
REPORT_ENGINES = tuple(sorted(_REPORT_ENGINES))


def run_report(engine: str, params: dict, *, paper_literal: bool = False) -> SweepTable:
    """One engine configuration as a one-row table in its sweep schema.

    paper_literal adds the literal cold heat column to qutrit reports.
    """
    system, run, record, columns = _REPORT_ENGINES[engine]
    keys, checks, config = _SYSTEMS[system]
    for key in params:
        if key not in keys:
            raise OutOfRangeError(f"parameter {key!r} does not apply to engine {engine!r}")
    params = {key: _number(key, value) for key, value in params.items()}
    cfg = _checked(checks, {"k": 1.0, **params}, config)
    rec = record(cfg, run(cfg))
    if paper_literal and engine == "qutrit":
        rec["q_cold_literal"] = variants.qutrit_cold_heat_literal(cfg)
        columns += ("q_cold_literal",)
    return SweepTable(columns, rows=(tuple(rec[name] for name in columns),))


def _grid_preamble(prefix: str, grid) -> tuple:
    return (
        f"# {prefix}system_dim={grid.system_dim}",
        f"# {prefix}rates={','.join(_fmt(r) for r in grid.rates)}",
        f"# {prefix}initial={','.join(_fmt(p) for p in grid.initial)}",
        f"# {prefix}levels={','.join(_fmt(e) for e in grid.levels)}",
    )


def _qubit_grid(spec: SweepSpec, t_axis):
    def build(p):
        h = Hamiltonian((-p["gap"] / 2.0, p["gap"] / 2.0))
        return ergotropy_landscape(
            (p["pg"], 1.0 - p["pg"]), h, spec.swept.values(), t_axis, (p["rate"],)
        )

    return _checked(_QUBIT_MAP_CHECKS, {**_QUBIT_MAP_DEFAULTS, **spec.fixed_params}, build)


def _qutrit_grid(spec: SweepSpec, t_axis):
    def build(p):
        h = Hamiltonian((0.0, p["gap10"], p["gap20"]))
        return ergotropy_landscape(
            (p["p0"], p["p1"], p["p2"]), h, spec.swept.values(), t_axis,
            (p["rate1"], p["rate2"]),
        )

    return _checked(_QUTRIT_MAP_CHECKS, {**_QUTRIT_MAP_DEFAULTS, **spec.fixed_params}, build)


def _t_axis(spec: SweepSpec) -> np.ndarray:
    tmax = spec.fixed_params.get("tmax", 1.0)
    if not math.isfinite(tmax):
        raise OutOfRangeError(f"tmax must be finite, got {tmax}")
    tpoints = spec.fixed_params.get("tpoints", spec.swept.points)
    if not float(tpoints).is_integer():
        raise OutOfRangeError(f"tpoints must be a finite integer, got {tpoints}")
    if tpoints < 2:
        raise OutOfRangeError(f"tpoints must be at least 2, got {tpoints:g}")
    return np.linspace(0.0, tmax, int(tpoints))


def _long_form(grid) -> tuple:
    """The f and t columns of a grid in long form, f-major and t-minor, factored by axis."""
    nf, nt = grid.values.shape
    return (Factored(grid.f_axis, np.repeat(np.arange(nf), nt)),
            Factored(grid.t_axis, np.tile(np.arange(nt), nf)))


def _sweep_ergotropy_map(spec: SweepSpec) -> SweepTable:
    dim = spec.fixed_params.get("dim", 2)
    if dim not in (2, 3):
        raise OutOfRangeError(f"dim must be 2 or 3, got {dim}")
    # 5 - dim is the dim of the other medium
    foreign = sorted(MAP_KEYS_BY_DIM[5 - dim].intersection(spec.fixed_params))
    if foreign:
        raise OutOfRangeError(f"parameter {foreign[0]!r} does not apply to a dim={dim:g} map")
    t_axis = _t_axis(spec)
    grid = _qubit_grid(spec, t_axis) if dim == 2 else _qutrit_grid(spec, t_axis)
    return SweepTable(
        columns=("f", "t", "value"),
        data=(*_long_form(grid), grid.values.ravel()),
        preamble=_grid_preamble("", grid),
    )


def _sweep_ergotropy_diff(spec: SweepSpec) -> SweepTable:
    t_axis = _t_axis(spec)
    qutrit = _qutrit_grid(spec, t_axis)
    qubit = _qubit_grid(spec, t_axis)
    diff = landscape_difference(qutrit, qubit)
    preamble = (
        _grid_preamble("qutrit_", qutrit)
        + _grid_preamble("qubit_", qubit)
        + (f"# qutrit_only_cells={diff.qutrit_only_cells}",)
    )
    return SweepTable(
        columns=("f", "t", "w_qutrit", "w_qubit", "dw"),
        data=(*_long_form(diff), qutrit.values.ravel(), qubit.values.ravel(),
              diff.values.ravel()),
        preamble=preamble,
    )


# literal: the target has a paper-literal variant (a q_cold_literal column);
# series: the target takes a series axis (only one-part engine targets do);
# swept: the one parameter the target can sweep, where it is fixed;
# parts: the (system, cyclic) row blocks of an engine target, in row order
_TARGETS = {
    "work_vs_f": dict(keys=_QUBIT_KEYS, literal=False, series=True, parts=(("qubit", True),)),
    "work_vs_pg": dict(keys=_QUBIT_KEYS, literal=False, series=True, parts=(("qubit", True),)),
    "work_vs_f_noncyclic": dict(
        keys=_QUBIT_KEYS, literal=False, series=True, parts=(("qubit", False),)),
    "heat_work_cyclic_vs_noncyclic": dict(
        keys=_QUBIT_KEYS, literal=False, parts=(("qubit", True), ("qubit", False))),
    "qutrit_vs_qubit_work": dict(
        keys=_QUBIT_KEYS | _QUTRIT_KEYS, literal=True, swept="f",
        parts=(("qubit", True), ("qutrit", False))),
    "efficiency": dict(
        keys=_QUBIT_KEYS | _QUTRIT_KEYS, literal=True, swept="f",
        parts=(("qubit", False), ("qutrit", False))),
    "ergotropy_map": dict(keys=_MAP_KEYS | {"dim", "f"}, literal=False, swept="f"),
    "ergotropy_diff": dict(keys=_MAP_KEYS | {"f"}, literal=False, swept="f"),
}


def _validate_spec(spec: SweepSpec) -> None:
    if spec.target not in _TARGETS:
        raise OutOfRangeError(f"unknown sweep target {spec.target!r}")
    target = _TARGETS[spec.target]
    allowed = target["keys"]
    for key in spec.fixed_params:
        if key not in allowed:
            raise OutOfRangeError(f"parameter {key!r} does not apply to target {spec.target!r}")
    swept = spec.swept.name
    if swept not in allowed or swept != target.get("swept", swept):
        raise OutOfRangeError(f"swept parameter {swept!r} does not apply to target {spec.target!r}")
    series = spec.series
    if series is not None and (series.name not in allowed or not target.get("series")):
        raise OutOfRangeError(
            f"series parameter {series.name!r} does not apply to target {spec.target!r}")


def run_sweep(spec: SweepSpec, *, paper_literal: bool = False) -> SweepTable:
    """Evaluate a sweep spec into a columnar table; see module docstring.

    paper_literal adds the literal qutrit cold heat to the mixed targets and
    is rejected on every other target, which has no literal variant.
    """
    _validate_spec(spec)
    target = _TARGETS[spec.target]
    if paper_literal and not target["literal"]:
        raise OutOfRangeError(f"--paper-literal has no variant for target {spec.target!r}")
    if "parts" in target:
        return _sweep_engine(spec, target["parts"], paper_literal)
    if spec.target == "ergotropy_map":
        return _sweep_ergotropy_map(spec)
    return _sweep_ergotropy_diff(spec)


_DEFAULT_POINTS = 201

# the presets, as the flat key=value mappings a spec file holds
PRESETS = {
    # cyclic work against emission probability, one curve per damping
    "fig1": dict(target="work_vs_f", sweep="f:0:1:201", series="gamma:0.1,0.2,0.5,0.7,1",
                 pg=0.9, dh=1.0, dc=0.5, k=1.0),
    # cyclic work against ground population, one curve per hot gap
    "fig2": dict(target="work_vs_pg", sweep="pg:0:1:201", series="dh:1,5,10,20,50",
                 f=0.5, gamma=0.5, dc=0.5, k=1.0),
    # cyclic work against emission probability, one curve per ground population
    "fig3": dict(target="work_vs_f", sweep="f:0:1:201", series="pg:0,0.4,0.5,0.9",
                 gamma=0.5, dh=1.0, dc=0.5, k=1.0),
    # heat rejected and work, cyclic rows then finite-time (non-cyclic) rows
    "fig4": dict(target="heat_work_cyclic_vs_noncyclic", sweep="f:0:1:201",
                 pg=0.9, gamma=0.5, k=0.5, dh=1.0, dc=0.5),
    # work against emission probability for matched media: both start in the
    # ground level, every damping is 0.4, and the qutrit gaps double the qubit's
    "fig5": dict(target="qutrit_vs_qubit_work", sweep="f:0:1:201",
                 pg=1.0, gamma=0.4, k=1.0, dh=1.0, dc=0.5, p0=1.0, p1=0.0, p2=0.0,
                 lam1=0.4, lam2=0.4, k1=0.4, k2=0.4, dh10=1.0, dh20=2.0, dc10=0.5, dc20=1.0),
    # efficiency against emission probability, non-cyclic qubit vs qutrit
    "fig6": dict(target="efficiency", sweep="f:0:1:201",
                 pg=0.9, gamma=0.4, k=0.4, dh=1.0, dc=0.5, p0=0.9, p1=0.1, p2=0.0,
                 lam1=0.4, lam2=0.4, k1=0.4, k2=0.4, dh10=1.0, dh20=2.0, dc10=0.5, dc20=1.0),
    # ergotropy landscapes over (f, t) and the qutrit-minus-qubit map, both media
    # from the ground level; t stops at 1.28, inside the cap near t = 1.289 where
    # lambda1(t) + lambda2(t) reaches 1 for rates (1, 0.25)
    "fig7": dict(target="ergotropy_diff", sweep="f:0:1:201",
                 pg=1.0, p0=1.0, p1=0.0, p2=0.0, rate=1.0, rate1=1.0, rate2=0.25,
                 gap=1.0, gap10=1.0, gap20=2.0, tmax=1.28, tpoints=201),
}
PRESET_NAMES = tuple(sorted(PRESETS))


def _number(key: str, value) -> float:
    """value as a float; a value that is no number is bad input naming its key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise OutOfRangeError(f"{key} must be a number, got {value!r}") from None


def _parse_swept(text: str) -> SweptAxis:
    name, *numbers = text.split(":")
    numbers = [_number("sweep", n) for n in numbers]
    if len(numbers) == 2:
        numbers.append(_DEFAULT_POINTS)
    if len(numbers) != 3 or not float(numbers[2]).is_integer():
        raise OutOfRangeError(f"sweep must be name:start:stop[:points], got {text!r}")
    start, stop, points = numbers
    return SweptAxis(name, start, stop, int(points))


def _parse_series(text: str) -> SeriesAxis:
    name, _, values = text.partition(":")
    if not values:
        raise OutOfRangeError(f"series must be name:v1,v2,..., got {text!r}")
    return SeriesAxis(name, tuple(_number("series", v) for v in values.split(",")))


def spec_from_mapping(data: dict) -> SweepSpec:
    """The spec of a flat key=value mapping: a preset, or the keys of a spec file.

    target and sweep (name:start:stop[:points]) are required, series
    (name:v1,v2,...) is optional, and every other key is a fixed parameter.
    """
    data = dict(data)
    try:
        target, swept = data.pop("target"), _parse_swept(data.pop("sweep"))
    except KeyError as exc:
        raise OutOfRangeError(f"missing required key {exc.args[0]!r}") from None
    series = _parse_series(data.pop("series")) if "series" in data else None
    fixed = {key: _number(key, value) for key, value in data.items()}
    return SweepSpec(target=target, fixed_params=fixed, swept=swept, series=series)


def preset(name: str) -> SweepSpec:
    """Return the named figure preset; raises UnknownPresetError otherwise."""
    if name not in PRESETS:
        raise UnknownPresetError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return spec_from_mapping(PRESETS[name])


def with_points(spec: SweepSpec, points: int) -> SweepSpec:
    """Copy of the spec at a different sweep resolution (t axis included)."""
    swept = replace(spec.swept, points=points)
    fixed = dict(spec.fixed_params)
    if "tpoints" in fixed:
        fixed["tpoints"] = points
    return replace(spec, swept=swept, fixed_params=fixed)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # every NaN, whatever its sign or payload, formats as "nan"
    return format(float(value), ".12g")


# cells per chunk of text; bounds the memory of one chunk
_CHUNK_CELLS = 1 << 16


def _float_cells(part: np.ndarray):
    """The strings of a float64 column chunk, with the bytes of _fmt.

    Runs of equal bit patterns (-0 apart from +0) are found in one pass, without a sort.
    With at most half as many runs as rows (a landscape's zeros), one cell per run is
    formatted and repeated; else every cell is, as repeating then costs what it saves.
    """
    bits = part.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * starts.size > part.size:
        return list(map(float.__format__, part.tolist(), repeat(".12g")))
    text = list(map(float.__format__, part[starts].tolist(), repeat(".12g")))
    return np.repeat(np.array(text, dtype=object), np.diff(starts, append=part.size))


def _write_table(stream, table: SweepTable) -> None:
    """Write preamble, header and data lines; the data about _CHUNK_CELLS cells at a time.

    Factored values are formatted by _fmt once per table and gathered by codes; float64
    columns go through _float_cells, other cells through _fmt. The strings fill the even
    columns of one reused block whose odd columns hold the separators: one join per chunk.
    """
    stream.write("".join(f"{line}\n" for line in (*table.preamble, ",".join(table.columns))))
    data = table.data
    if not data:
        return
    texts = [np.array([_fmt(value) for value in col.values], dtype=object)
             if isinstance(col, Factored) else None for col in data]
    step = max(1, _CHUNK_CELLS // len(data))
    total = len(data[0])
    block = np.full((min(step, total), 2 * len(data)), ",", dtype=object)
    block[:, -1] = "\n"
    for start in range(0, total, step):
        stop = min(start + step, total)
        for j, (col, text) in enumerate(zip(data, texts)):
            if text is not None:
                cells = text[col.codes[start:stop]]
            elif isinstance(col, np.ndarray) and col.dtype == np.float64:
                cells = _float_cells(col[start:stop])
            else:
                cells = [_fmt(cell) for cell in col[start:stop]]
            block[:stop - start, 2 * j] = cells
        stream.write("".join(block[:stop - start].ravel().tolist()))


def emit_csv(table: SweepTable, destination=None) -> None:
    """Stream preamble, header and rows, '\\n'-terminated, 12 significant digits.

    destination: path-like for a file, None or '-' for standard output. A
    file is written to a temporary file in its directory and renamed into
    place only once complete, so a failure leaves no truncated CSV behind.
    A destination that exists but is no regular file (a device, a pipe) is
    written directly.
    """
    if destination is None or destination == "-":
        _write_table(sys.stdout, table)
        return
    path = Path(os.path.realpath(destination))
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, table)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            _write_table(fh, table)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
