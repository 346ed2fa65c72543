"""The batched engine against the per-point engine it replaced.

The reference below is the per-point path that the batched engine replaced,
with the same two contacts: the Kraus operators built one matrix at a time, ``apply`` as a loop over operators,
``energy`` and ``hs_distance`` on single matrices, and ``run_cyclic_qubit``,
``run_noncyclic_qubit`` and ``run_qutrit`` on top of them. The batched
engine must give the same numbers and states bit for bit, row blocks must
neither drop nor move rows, and a sweep must report the error of its first
failing row, in row order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadengine import sweeps
from gadengine.engine import (
    CycleReport,
    QubitEngineConfig,
    QutritEngineConfig,
    cold_stroke_heat,
    cycle_work,
    hot_stroke_heat,
    noncyclic_deviation,
    qubit_cycles,
    qutrit_cycles,
    qutrit_hot_heat,
    redistribution_work,
    run_cyclic_qubit,
    run_noncyclic_qubit,
    run_qutrit,
)
from gadengine.errors import GadEngineError, OutOfRangeError
from gadengine.states import ATOL, DensityMatrix, Hamiltonian
from gadengine.sweeps import (
    SeriesAxis,
    SweepSpec,
    SweptAxis,
    preset,
    qubit_config_from_params,
    qutrit_config_from_params,
    run_sweep,
)


# --- reference: the per-point engine -----------------------------------------

def ref_gad_qubit(f, gamma):
    sf = math.sqrt(f)
    sg = math.sqrt(1.0 - f)
    c = math.sqrt(1.0 - gamma)
    s = math.sqrt(gamma)
    a0 = sf * np.array([[1.0, 0.0], [0.0, c]], dtype=complex)
    a1 = sf * np.array([[0.0, s], [0.0, 0.0]], dtype=complex)
    a2 = sg * np.array([[c, 0.0], [0.0, 1.0]], dtype=complex)
    a3 = sg * np.array([[0.0, 0.0], [s, 0.0]], dtype=complex)
    return (a0, a1, a2, a3)


def ref_gad_qutrit(f_prime, lambda1, lambda2):
    residual = 1.0 - lambda1 - lambda2
    sf = math.sqrt(f_prime)
    sg = math.sqrt(1.0 - f_prime)
    s1 = math.sqrt(lambda1)
    s2 = math.sqrt(lambda2)
    ground = math.sqrt(max(residual, 0.0))
    f0 = sf * np.diag([1.0, math.sqrt(1.0 - lambda1), math.sqrt(1.0 - lambda2)]).astype(complex)
    f1 = np.zeros((3, 3), dtype=complex)
    f1[0, 1] = sf * s1
    f2 = np.zeros((3, 3), dtype=complex)
    f2[0, 2] = sf * s2
    f3 = sg * np.diag([ground, 1.0, 1.0]).astype(complex)
    f4 = np.zeros((3, 3), dtype=complex)
    f4[1, 0] = sg * s1
    f5 = np.zeros((3, 3), dtype=complex)
    f5[2, 0] = sg * s2
    return (f0, f1, f2, f3, f4, f5)


def ref_apply(operators, state):
    out = np.zeros_like(state.matrix)
    for op in operators:
        out = out + op @ state.matrix @ op.conj().T
    return DensityMatrix(out)


def ref_make_diagonal_state(populations):
    return DensityMatrix(np.diag(np.asarray([float(p) for p in populations], dtype=complex)))


def ref_energy(state, h):
    return float(np.sum(state.populations * h.as_array()))


def ref_hs_distance(a, b):
    return float(np.linalg.norm(a.matrix - b.matrix))


def ref_efficiency_or_nan(work, q_hot):
    return work / q_hot if q_hot > ATOL else math.nan


def ref_run_cyclic_qubit(cfg):
    h_hot = cfg.hot_hamiltonian
    h_cold = cfg.cold_hamiltonian
    rho0 = ref_make_diagonal_state([cfg.initial_pg, cfg.initial_pe])
    rho_hot = ref_apply(ref_gad_qubit(cfg.f, cfg.gamma), rho0)
    rho_end = ref_make_diagonal_state([cfg.initial_pg, cfg.initial_pe])
    q_hot = ref_energy(rho_hot, h_hot) - ref_energy(rho0, h_hot)
    q_cold = ref_energy(rho_end, h_cold) - ref_energy(rho_hot, h_cold)
    work = q_hot + q_cold
    return CycleReport(
        states=(rho0, rho_hot, rho_end),
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        efficiency=ref_efficiency_or_nan(work, q_hot),
        deviation=ref_hs_distance(rho0, rho_end),
        redistribution_work=0.0,
        cyclic=True,
    )


def ref_run_noncyclic_qubit(cfg):
    h_hot = cfg.hot_hamiltonian
    h_cold = cfg.cold_hamiltonian
    rho0 = ref_make_diagonal_state([cfg.initial_pg, cfg.initial_pe])
    rho_hot = ref_apply(ref_gad_qubit(cfg.f, cfg.gamma), rho0)
    rho_end = ref_apply(ref_gad_qubit(1.0, cfg.k), rho_hot)
    q_hot = ref_energy(rho_hot, h_hot) - ref_energy(rho0, h_hot)
    reset_cold = ref_energy(rho0, h_cold) - ref_energy(rho_hot, h_cold)
    delta_w = ref_energy(rho0, h_hot) - ref_energy(rho_end, h_hot)
    q_cold = reset_cold - delta_w
    work = q_hot + q_cold
    return CycleReport(
        states=(rho0, rho_hot, rho_end),
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        efficiency=ref_efficiency_or_nan(work, q_hot),
        deviation=ref_hs_distance(rho0, rho_end),
        redistribution_work=delta_w,
        cyclic=False,
    )


def ref_run_qutrit(cfg):
    h_hot = cfg.hot_levels
    h_cold = cfg.cold_levels
    tau0 = ref_make_diagonal_state(cfg.initial_p)
    tau_hot = ref_apply(ref_gad_qutrit(cfg.f_prime, cfg.lambda1, cfg.lambda2), tau0)
    tau_end = ref_apply(ref_gad_qutrit(1.0, cfg.k1, cfg.k2), tau_hot)
    q_hot = ref_energy(tau_hot, h_hot) - ref_energy(tau0, h_hot)
    q_cold = ref_energy(tau_end, h_cold) - ref_energy(tau_hot, h_cold)
    work = q_hot + q_cold
    return CycleReport(
        states=(tau0, tau_hot, tau_end),
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        efficiency=ref_efficiency_or_nan(work, q_hot),
        deviation=ref_hs_distance(tau0, tau_end),
        redistribution_work=ref_energy(tau0, h_hot) - ref_energy(tau_end, h_hot),
        cyclic=False,
    )


NUMBERS = ("q_hot", "q_cold", "work", "efficiency", "deviation", "redistribution_work")


def assert_same_report(batch, i, ref):
    """Row i of a batched report equals a per-point report bit for bit."""
    for name in NUMBERS:
        np.testing.assert_array_equal(getattr(batch, name)[i], getattr(ref, name), err_msg=name)
    for stack, state in zip(batch.states, ref.states):
        row = stack[i] if stack.ndim == 3 else stack
        np.testing.assert_array_equal(row, state.matrix)
    assert batch.cyclic is ref.cyclic


def assert_same_single(report, ref):
    """An N = 1 run_* report equals a per-point report bit for bit."""
    for name in NUMBERS:
        np.testing.assert_array_equal(getattr(report, name), getattr(ref, name), err_msg=name)
        assert type(getattr(report, name)) is float
    for state, ref_state in zip(report.states, ref.states):
        assert isinstance(state, DensityMatrix)
        np.testing.assert_array_equal(state.matrix, ref_state.matrix)
    assert report.cyclic is ref.cyclic


# --- random configurations ------------------------------------------------------

unit = st.floats(0.0, 1.0)
gap = st.floats(0.01, 50.0)


@st.composite
def qubit_configs(draw):
    return QubitEngineConfig(
        initial_pg=draw(unit), f=draw(unit), gamma=draw(unit), k=draw(unit),
        hot_gap=draw(gap), cold_gap=draw(gap),
    )


@st.composite
def qutrit_configs(draw):
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda p: sum(p) > 0))
    p0, p1 = p[0] / sum(p), p[1] / sum(p)
    lam1 = draw(unit)
    k1 = draw(unit)
    levels = st.tuples(st.floats(-5.0, 5.0), gap, gap).map(
        lambda t: Hamiltonian((t[0], t[0] + t[1], t[0] + t[1] + t[2])))
    return QutritEngineConfig(
        initial_p=(p0, p1, max(0.0, 1.0 - p0 - p1)), f_prime=draw(unit), lambda1=lam1, lambda2=draw(st.floats(0.0, 1.0 - lam1)),
        k1=k1, k2=draw(st.floats(0.0, 1.0 - k1)),
        hot_levels=draw(levels), cold_levels=draw(levels),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(qubit_configs(), min_size=1, max_size=8), st.booleans())
def test_qubit_batch_matches_per_point_and_closed_forms(cfgs, cyclic):
    batch = qubit_cycles(
        *(np.array([getattr(c, name) for c in cfgs])
          for name in ("initial_pg", "f", "gamma", "k", "hot_gap", "cold_gap")),
        cyclic=cyclic,
    )
    ref_run = ref_run_cyclic_qubit if cyclic else ref_run_noncyclic_qubit
    run = run_cyclic_qubit if cyclic else run_noncyclic_qubit
    for i, cfg in enumerate(cfgs):
        assert_same_report(batch, i, ref_run(cfg))
        assert_same_single(run(cfg), ref_run(cfg))
        assert batch.q_hot[i] == pytest.approx(hot_stroke_heat(cfg), abs=ATOL)
        if cyclic:
            assert batch.q_cold[i] == pytest.approx(cold_stroke_heat(cfg), abs=ATOL)
            assert batch.work[i] == pytest.approx(cycle_work(cfg), abs=ATOL)
        else:
            assert batch.deviation[i] == pytest.approx(noncyclic_deviation(cfg), abs=ATOL)
            assert batch.redistribution_work[i] == pytest.approx(
                redistribution_work(cfg), abs=ATOL)


@settings(max_examples=60, deadline=None)
@given(st.lists(qutrit_configs(), min_size=1, max_size=8))
def test_qutrit_batch_matches_per_point_and_closed_forms(cfgs):
    batch = qutrit_cycles(
        np.array([c.initial_p for c in cfgs]),
        *(np.array([getattr(c, name) for c in cfgs])
          for name in ("f_prime", "lambda1", "lambda2", "k1", "k2")),
        np.array([c.hot_levels.levels for c in cfgs]),
        np.array([c.cold_levels.levels for c in cfgs]),
    )
    for i, cfg in enumerate(cfgs):
        assert_same_report(batch, i, ref_run_qutrit(cfg))
        assert_same_single(run_qutrit(cfg), ref_run_qutrit(cfg))
        assert batch.q_hot[i] == pytest.approx(qutrit_hot_heat(cfg), abs=ATOL)


# --- row blocks -------------------------------------------------------------------

BLOCK = sweeps._BLOCK_ROWS


def _cfg(row):
    return qubit_config_from_params({"pg": row["pg"], "f": row["f"], "gamma": row["gamma"],
                                     "k": row["k"], "dh": row["dh"], "dc": row["dc"]})


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_row_blocks_keep_every_row(n):
    spec = SweepSpec(
        target="work_vs_f_noncyclic",
        fixed_params={"pg": 0.8, "gamma": 0.6, "k": 0.3, "dh": 1.5, "dc": 0.5},
        swept=SweptAxis("f", 0.0, 1.0, n),
    )
    table = run_sweep(spec)
    assert len(table.rows) == n
    data = dict(zip(table.columns, table.data))
    whole = qubit_cycles(0.8, spec.swept.values(), 0.6, 0.3, 1.5, 0.5, cyclic=False)
    for column, field in sweeps._OUTPUTS.items():
        np.testing.assert_array_equal(data[column], getattr(whole, field))
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    for i in {0, BLOCK - 2, BLOCK - 1, BLOCK, n - 1} & set(range(n)):
        ref = ref_run_noncyclic_qubit(_cfg(rows[i]))
        assert rows[i]["f"] == spec.swept.values()[i]
        np.testing.assert_array_equal(rows[i]["deviation"], ref.deviation)
        np.testing.assert_array_equal(rows[i]["work"], ref.work)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1])
def test_row_blocks_in_a_mixed_table(n):
    table = run_sweep(sweeps.with_points(preset("fig6"), n))
    assert len(table.rows) == 2 * n
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert [r["system"] for r in rows] == ["qubit"] * n + ["qutrit"] * n
    for i in {0, BLOCK - 2, BLOCK - 1, BLOCK, n - 1} & set(range(n)):
        params = {**preset("fig6").fixed_params, "f": rows[n + i]["f"]}
        ref = ref_run_qutrit(qutrit_config_from_params(params))
        np.testing.assert_array_equal(rows[n + i]["efficiency"], ref.efficiency)
        np.testing.assert_array_equal(rows[n + i]["deviation"], ref.deviation)
        ref = ref_run_noncyclic_qubit(_cfg(rows[i]))
        np.testing.assert_array_equal(rows[i]["efficiency"], ref.efficiency)


# --- the first failing row ----------------------------------------------------------

def first_row_error(spec, parts):
    """(swept value, exception) of the first row whose config fails, row by row."""
    mixed = any(system == "qutrit" for system, _ in parts)
    name = "f" if mixed else spec.swept.name
    for system, _ in parts:
        build = qutrit_config_from_params if system == "qutrit" else qubit_config_from_params
        for value in spec.swept.values():
            try:
                build({"k": 1.0, **spec.fixed_params, name: float(value)})
            except GadEngineError as exc:
                return value, exc
    return None


FIG4_PARTS = (("qubit", True), ("qubit", False))
FIG5_PARTS = (("qubit", True), ("qutrit", False))


def _fig5(**changes):
    return {**preset("fig5").fixed_params, **changes}


ERROR_CASES = [
    # fig4-shaped: the sweep runs past gamma = 1 part way through the cyclic rows
    (SweepSpec("heat_work_cyclic_vs_noncyclic", {**preset("fig4").fixed_params, "f": 0.3},
               SweptAxis("gamma", 0.0, 2.0, 9)), FIG4_PARTS),
    # fig4-shaped: an early row fails dc, a later one also fails pg; the row wins
    (SweepSpec("heat_work_cyclic_vs_noncyclic",
               {"f": 0.3, "gamma": 0.5, "k": 0.5, "dh": 1.0, "dc": -1.0},
               SweptAxis("pg", 0.0, 2.0, 9)), FIG4_PARTS),
    # fig5-shaped: every qubit row passes, every qutrit row fails
    (SweepSpec("qutrit_vs_qubit_work", _fig5(lam1=0.8, lam2=0.8),
               SweptAxis("f", 0.0, 1.0, 5)), FIG5_PARTS),
    # fig5-shaped: the qubit rows fail from f = 1.25 on, before any qutrit row
    (SweepSpec("qutrit_vs_qubit_work", _fig5(lam1=0.8, lam2=0.8),
               SweptAxis("f", 0.0, 2.0, 9)), FIG5_PARTS),
    # fig5-shaped: a qutrit level check fails first in its row
    (SweepSpec("qutrit_vs_qubit_work", _fig5(dh10=math.nan, p0=0.5),
               SweptAxis("f", 0.0, 1.0, 5)), FIG5_PARTS),
]


@pytest.mark.parametrize("spec, parts", ERROR_CASES)
def test_first_failing_row_gives_the_error(spec, parts):
    value, expected = first_row_error(spec, parts)
    name = "f" if parts == FIG5_PARTS else spec.swept.name
    with pytest.raises(GadEngineError) as err:
        run_sweep(spec)
    assert type(err.value) is type(expected)
    message = str(err.value)
    assert message.startswith(f"at {name}={value:g}")
    assert message.endswith(f": {expected}")


def test_series_rows_are_checked_in_row_order():
    spec = SweepSpec("work_vs_f", {"pg": 0.9, "dh": 1.0, "dc": 0.5},
                     SweptAxis("f", 0.0, 1.0, 5), SeriesAxis("gamma", (0.5, 1.5, 2.0)))
    with pytest.raises(OutOfRangeError, match=r"^at f=0 \(gamma=1\.5\): gamma must lie"):
        run_sweep(spec)
