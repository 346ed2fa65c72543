"""Self-check suite: channel soundness, closed-form/oracle agreement, signs.

``validate_all`` runs every cross-check the package's correctness rests on
and returns a summary with one named result per check. All randomness is
seeded, so two runs produce identical residuals. The grid checks evaluate
each grid as columns: the batched engine and Kraus maps run on stacks, and
the closed forms read the same parameters as columns of a config-shaped
namespace. With ``paper_literal=True``
the documented uncorrected variants are swapped in where they apply; those
checks are then expected to fail, and the summary reports them as failures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import variants
from .channels import (
    ad_qubit,
    apply,
    apply_operators,
    fixed_point,
    gad_qubit,
    gad_operators,
    gad_qubit_populations,
    gad_qutrit,
)
from .engine import (
    QutritEngineConfig,
    cold_stroke_heat,
    cycle_work,
    hot_stroke_heat,
    noncyclic_deviation,
    noncyclic_populations,
    qubit_cycles,
    qutrit_cold_heat,
    qutrit_cycles,
    qutrit_hot_heat,
    redistribution_work,
    run_qutrit,
)
from .ergotropy import ergotropy
from .states import (
    DensityMatrix,
    Hamiltonian,
    diagonal_states,
    energy,
    make_diagonal_state,
)

TOL = 1e-12
_SEED = 971203


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationSummary:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield f"{status} {c.name}: {c.detail}"


def _random_diagonal(rng, dim) -> DensityMatrix:
    pops = rng.dirichlet(np.ones(dim))
    return make_diagonal_state(pops)


def _grid(*axes) -> tuple:
    """Every combination of the axes' values as flat columns, first axis outermost."""
    return tuple(a.ravel() for a in np.meshgrid(*axes, indexing="ij"))


def _qubit_columns(pg, f, gamma, k=1.0, hot_gap=1.0, cold_gap=0.5) -> SimpleNamespace:
    """QubitEngineConfig's fields (and defaults) as columns, for the closed forms."""
    return SimpleNamespace(initial_pg=pg, initial_pe=1.0 - pg, f=f, gamma=gamma, k=k,
                           hot_gap=hot_gap, cold_gap=cold_gap)


def _qubit_states(pg) -> np.ndarray:
    return diagonal_states(np.stack([pg, 1.0 - pg], axis=-1))


def _populations(states) -> np.ndarray:
    return np.diagonal(states, axis1=-2, axis2=-1).real


def _check_qubit_completeness() -> CheckResult:
    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for f in grid:
        for g in grid:
            worst = max(worst, gad_qubit(f, g, check=False).completeness_defect())
    return CheckResult(
        "qubit_channel_completeness", worst < TOL, f"max residual {worst:.3e} on 11x11 grid"
    )


def _check_qutrit_completeness(paper_literal: bool) -> CheckResult:
    grid = np.linspace(0.0, 1.0, 6)
    build = variants.gad_qutrit_uncorrected if paper_literal else (
        lambda f, l1, l2: gad_qutrit(f, l1, l2, check=False)
    )
    worst = 0.0
    points = 0
    for f, l1, l2 in itertools.product(grid, repeat=3):
        if l1 + l2 > 1.0:
            continue
        points += 1
        worst = max(worst, build(f, l1, l2).completeness_defect())
    name = "qutrit_channel_completeness"
    if paper_literal:
        name += "_uncorrected_f3"
    return CheckResult(name, worst < TOL, f"max residual {worst:.3e} on {points} feasible points")


def _check_trace_psd_preservation() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst_trace = 0.0
    worst_eig = math.inf
    for ch in (gad_qubit(0.3, 0.6), ad_qubit(0.45), gad_qutrit(0.7, 0.35, 0.4)):
        # 100 random states a a^dag / Tr; drawn state by state, real part then imaginary
        parts = rng.normal(size=(100, 2, ch.dim, ch.dim))
        a = parts[:, 0] + 1j * parts[:, 1]
        m = a @ a.conj().swapaxes(-1, -2)
        states = m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]
        out = apply_operators(np.asarray(ch.operators), states)
        trace = np.trace(out, axis1=-2, axis2=-1)
        residual = np.abs(trace.real - 1.0) + np.abs(trace.imag)
        worst_trace = max(worst_trace, float(np.max(residual)))
        hermitian = (out + out.conj().swapaxes(-1, -2)) / 2.0
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(hermitian))))
    ok = worst_trace < TOL and worst_eig >= -TOL
    return CheckResult(
        "apply_preserves_trace_and_psd",
        ok,
        f"trace residual {worst_trace:.3e}, min eigenvalue {worst_eig:.3e} over 300 random states",
    )


def _check_evolved_populations() -> CheckResult:
    grid = np.linspace(0.0, 1.0, 11)
    f, g, pg = _grid(grid, grid, grid)
    out = _populations(apply_operators(gad_operators(f, (g,)), _qubit_states(pg)))
    closed = np.stack(gad_qubit_populations(pg, 1.0 - pg, f, g), axis=-1)
    worst = float(np.max(np.abs(out - closed)))
    return CheckResult(
        "evolved_populations_closed_form", worst < TOL, f"max entrywise gap {worst:.3e}"
    )


def _check_inversion_condition() -> CheckResult:
    # Strict classification on decided points; lattice points sitting exactly
    # on the threshold are rounding-ambiguous and only checked for agreement.
    axis = np.linspace(0.0, 1.0, 21)
    boundary_band = 1e-9
    f, g = _grid(axis, axis)
    denom = 1.0 - 2.0 * g * f
    kept = denom > 0.0
    # kept (f, gamma) pairs as rows and pe as columns: one Kraus set per pair, not per point
    f, g, denom = f[kept, None], g[kept, None], denom[kept, None]
    pg, pe = 1.0 - axis, axis
    states = diagonal_states(np.stack([pg, pe], axis=-1))
    out = _populations(apply_operators(gad_operators(f, (g,)), states))
    channel_margin = out[..., 1] - out[..., 0]
    printed_margin = pe * denom - pg * (1.0 + 2.0 * g * (f - 1.0))
    near_channel = np.abs(channel_margin) < boundary_band
    near_printed = np.abs(printed_margin) < boundary_band
    sure = ~(near_channel | near_printed)
    flipped = sure & ((channel_margin > 0.0) != (printed_margin > 0.0))
    mismatches = int(np.count_nonzero(near_channel != near_printed) + np.count_nonzero(flipped))
    decided = int(np.count_nonzero(sure))
    return CheckResult(
        "population_inversion_condition",
        mismatches == 0,
        f"{mismatches} misclassifications over {decided} decided scan points",
    )


def _check_composition_law() -> CheckResult:
    grid = np.linspace(0.0, 1.0, 6)
    f, g1, g2, pg = _grid(grid, grid, grid, np.array([0.0, 0.3, 0.8, 1.0]))
    state = _qubit_states(pg)
    two_step = apply_operators(gad_operators(f, (g2,)),
                               apply_operators(gad_operators(f, (g1,)), state))
    one_step = apply_operators(gad_operators(f, (g1 + g2 - g1 * g2,)), state)
    worst = float(np.max(np.abs(two_step - one_step)))
    return CheckResult("damping_composition_semigroup", worst < TOL, f"max gap {worst:.3e}")


def _qutrit_grid() -> tuple:
    """The qutrit engine on a grid of feasible hot strokes: its report and its columns."""
    fp, l1, l2 = _grid(*[np.linspace(0.0, 1.0, 5)] * 3)
    feasible = l1 + l2 <= 1.0
    fp, l1, l2 = fp[feasible], l1[feasible], l2[feasible]
    hot, cold = (0.0, 1.0, 2.5), (0.0, 0.5, 1.2)
    cfg = SimpleNamespace(initial_p=(0.5, 0.3, 0.2), f_prime=fp, lambda1=l1, lambda2=l2, k1=0.2,
                          k2=0.3, hot_levels=Hamiltonian(hot), cold_levels=Hamiltonian(cold))
    return qutrit_cycles(cfg.initial_p, fp, l1, l2, cfg.k1, cfg.k2, hot, cold), cfg


def _check_heat_work_closed_forms() -> CheckResult:
    f, g, pg = _grid(*[np.linspace(0.0, 1.0, 9)] * 3)
    cyc = qubit_cycles(pg, f, g, 0.35, 1.3, 0.4, cyclic=True)
    non = qubit_cycles(pg, f, g, 0.35, 1.3, 0.4, cyclic=False)
    cfg = _qubit_columns(pg, f, g, k=0.35, hot_gap=1.3, cold_gap=0.4)
    gaps = [
        cyc.q_hot - hot_stroke_heat(cfg),
        cyc.q_cold - cold_stroke_heat(cfg),
        cyc.work - cycle_work(cfg),
        non.deviation - noncyclic_deviation(cfg),
        non.redistribution_work - redistribution_work(cfg),
    ]
    qut, qut_cfg = _qutrit_grid()
    gaps.append(qut.q_hot - qutrit_hot_heat(qut_cfg))
    worst = max(float(np.max(np.abs(gap))) for gap in gaps)
    return CheckResult("heat_work_closed_forms", worst < TOL, f"max closed-form gap {worst:.3e}")


def _check_noncyclic_populations(paper_literal: bool) -> CheckResult:
    grid = np.linspace(0.0, 1.0, 7)
    f, g, k, pg = _grid(grid, grid, grid, np.array([0.0, 0.25, 0.6, 0.9, 1.0]))
    hot = apply_operators(gad_operators(f, (g,)), _qubit_states(pg))
    composed = _populations(apply_operators(gad_operators(1.0, (k,)), hot))
    cfg = _qubit_columns(pg, f, g, k)
    pg2, pe2 = noncyclic_populations(cfg)
    if paper_literal:
        pe2 = variants.noncyclic_pe_uncorrected(cfg)
    worst = float(np.max(np.abs(composed - np.stack([pg2, pe2], axis=-1))))
    name = "noncyclic_populations_composition"
    if paper_literal:
        name += "_uncorrected_pe"
    return CheckResult(name, worst < TOL, f"max gap to composed channels {worst:.3e}")


def _check_work_deficit_identity() -> CheckResult:
    f, k = _grid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9))
    deficit = (qubit_cycles(0.9, f, 0.5, k, 1.0, 0.5, cyclic=True).work
               - qubit_cycles(0.9, f, 0.5, k, 1.0, 0.5, cyclic=False).work)
    closed = redistribution_work(_qubit_columns(0.9, f, 0.5, k))
    worst = float(np.max(np.abs(deficit - closed)))
    return CheckResult("work_deficit_equals_redistribution", worst < TOL, f"max gap {worst:.3e}")


def _check_sign_theorem() -> CheckResult:
    grid = np.linspace(0.0, 1.0, 21)
    f, g, pg = _grid(grid, grid[1:], grid)  # gamma > 0
    w = cycle_work(_qubit_columns(pg, f, g))
    margin = (1.0 - f) * pg - f * (1.0 - pg)
    bad = int(np.count_nonzero(np.where(
        np.abs(margin) < 1e-15,
        np.abs(w) > TOL,
        ((w > 0.0) != (margin > 0.0)) & (w != 0.0),
    )))
    return CheckResult("positive_work_sign_theorem", bad == 0, f"{bad} sign violations")


def _check_ergotropy_oracle() -> CheckResult:
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    negatives = 0
    for _ in range(300):
        dim = int(rng.integers(2, 4))
        state = _random_diagonal(rng, dim)
        levels = np.sort(rng.uniform(-2.0, 3.0, size=dim))
        while np.any(np.diff(levels) <= 1e-9):
            levels = np.sort(rng.uniform(-2.0, 3.0, size=dim))
        h = Hamiltonian(tuple(levels))
        w = ergotropy(state, h)
        if w < 0.0:
            negatives += 1
        pops = state.populations
        best = min(
            float(np.sum(h.as_array() * pops[list(perm)]))
            for perm in itertools.permutations(range(dim))
        )
        worst = max(worst, abs(w - (energy(state, h) - best)))
    # qubit piecewise form
    for pg in np.linspace(0.0, 1.0, 101):
        state = make_diagonal_state([pg, 1.0 - pg])
        h = Hamiltonian((-0.5, 0.5))
        piecewise = max(0.0, (1.0 - pg) - pg)
        worst = max(worst, abs(ergotropy(state, h) - piecewise))
    ok = worst < TOL and negatives == 0
    return CheckResult(
        "ergotropy_permutation_oracle",
        ok,
        f"max oracle gap {worst:.3e}, {negatives} negative values",
    )


def _check_fixed_points() -> CheckResult:
    worst = 0.0
    fp = fixed_point(gad_qubit(0.7, 0.4))
    worst = max(worst, float(np.max(np.abs(fp.populations - np.array([0.7, 0.3])))))
    fp = fixed_point(gad_qutrit(1.0, 0.3, 0.3))
    worst = max(worst, float(np.max(np.abs(fp.populations - np.array([1.0, 0.0, 0.0])))))
    # a channel at full damping projects onto its stationary state in one step
    one_step = apply(gad_qubit(0.7, 1.0), make_diagonal_state([0.2, 0.8])).populations
    worst = max(worst, float(np.max(np.abs(one_step - np.array([0.7, 0.3])))))
    return CheckResult("channel_fixed_points", worst < 1e-11, f"max gap {worst:.3e}")


def _check_qutrit_cold_heat(paper_literal: bool) -> CheckResult:
    cfg = QutritEngineConfig(
        initial_p=(0.6, 0.3, 0.1), f_prime=0.4, lambda1=0.3, lambda2=0.25,
        k1=0.2, k2=0.35,
        hot_levels=Hamiltonian((0.0, 1.0, 2.0)),
        cold_levels=Hamiltonian((0.0, 0.5, 1.0)),
    )
    rep = run_qutrit(cfg)
    if paper_literal:
        gap = abs(rep.q_cold - variants.qutrit_cold_heat_literal(cfg))
        return CheckResult("qutrit_cold_heat_literal_form", gap < TOL,
                           f"literal form deviates from trace value by {gap:.3e}")
    grid, grid_cfg = _qutrit_grid()
    gaps = np.append(grid.q_cold - qutrit_cold_heat(grid_cfg), rep.q_cold - qutrit_cold_heat(cfg))
    worst = float(np.max(np.abs(gaps)))
    return CheckResult("qutrit_cold_heat_trace_based", worst < TOL,
                       f"max closed-form gap {worst:.3e} over {gaps.size} configs")


def validate_all(paper_literal: bool = False) -> ValidationSummary:
    """Run every cross-check; see module docstring for the literal mode."""
    checks = (
        _check_qubit_completeness(),
        _check_qutrit_completeness(paper_literal),
        _check_trace_psd_preservation(),
        _check_evolved_populations(),
        _check_inversion_condition(),
        _check_composition_law(),
        _check_heat_work_closed_forms(),
        _check_noncyclic_populations(paper_literal),
        _check_work_deficit_identity(),
        _check_sign_theorem(),
        _check_ergotropy_oracle(),
        _check_fixed_points(),
        _check_qutrit_cold_heat(paper_literal),
    )
    return ValidationSummary(checks=checks)
