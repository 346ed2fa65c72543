"""Two-contact heat-engine protocols for qubit and qutrit working media.

A cycle is a hot GAD contact on the hot spectrum, then a cold contact on
the cold spectrum; a report holds the initial state, the state after the
hot contact and the end state. The cyclic qubit engine resets populations
exactly to the initial state (asymptotic cold contact); the non-cyclic
variant applies a finite-time amplitude-damping stroke instead and
generally ends elsewhere.

Every quantity is produced trace-based from the actual stroke states; the
closed-form expressions below exist alongside so the two routes can be
cross-checked against each other. ``qubit_cycles`` and ``qutrit_cycles``
run whole columns of parameters at once on stacks of stroke states; the
``run_*`` functions are the same engine at a single configuration.

Sign conventions: heats are absorbed > 0, work is delivered work W = q_hot +
q_cold, and delta_w is the hot-gap energy needed to restore the initial
populations from the end state. The media keep different ledgers. The
qutrit books each contact's energy change, q_cold = E_c(rho_end) -
E_c(rho_hot), and reports delta_w without charging it. The non-cyclic
qubit pays delta_w out of its output, q_cold = (E_c(rho0) - E_c(rho_hot))
- delta_w, so its work is the cyclic work minus delta_w and, with pe the
excited population,
    work - (q_hot + E_c(rho_end) - E_c(rho_hot)) = (pe_end - pe0)(dh - dc).
Its efficiency can exceed 1, as on the rows of ``sweep fig4 --points 3
--set sweep=f:0:0.4:3 --set gamma=0.5 --set k=0.2``. The cyclic qubit ends
in rho0, where the two ledgers agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channels import apply_operators, gad_operators, gad_qutrit_populations
from .errors import (
    InfeasibleDampingError,
    NoHeatAbsorbedError,
    NonNormalizedError,
    OutOfRangeError,
)
from .states import (
    ATOL,
    DensityMatrix,
    Hamiltonian,
    diagonal_states,
    energies,
    hs_distances,
    is_feasible,
    is_normalized,
    require_positive,
    require_unit,
)

# The per-point helpers stay importable from this module, where
# e2ebench/tracer.py counts the calls made through them; the engine runs on
# the stacked forms above and makes none.
from .channels import ad_qubit, apply, gad_qubit, gad_qutrit  # noqa: E402,F401
from .states import energy, hs_distance, make_diagonal_state  # noqa: E402,F401


@dataclass(frozen=True)
class QubitEngineConfig:
    """Parameters of one qubit engine run.

    hot-stroke channel: gad_qubit(f, gamma); cold stroke: exact population
    reset (cyclic) or ad_qubit(k) (non-cyclic).
    """

    initial_pg: float
    f: float
    gamma: float
    k: float = 1.0
    hot_gap: float = 1.0
    cold_gap: float = 0.5

    def __post_init__(self):
        for name in ("initial_pg", "f", "gamma", "k"):
            object.__setattr__(self, name, require_unit(name, getattr(self, name)))
        for name in ("hot_gap", "cold_gap"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))

    @property
    def initial_pe(self) -> float:
        return 1.0 - self.initial_pg

    @property
    def hot_hamiltonian(self) -> Hamiltonian:
        return Hamiltonian((0.0, self.hot_gap))

    @property
    def cold_hamiltonian(self) -> Hamiltonian:
        return Hamiltonian((0.0, self.cold_gap))


@dataclass(frozen=True)
class QutritEngineConfig:
    """Parameters of one qutrit engine run.

    Hot stroke: gad_qutrit(f_prime, lambda1, lambda2) on hot_levels; cold
    stroke: gad_qutrit(1, k1, k2) on cold_levels (pure decay).
    """

    initial_p: tuple
    f_prime: float
    lambda1: float
    lambda2: float
    k1: float
    k2: float
    hot_levels: Hamiltonian
    cold_levels: Hamiltonian

    def __post_init__(self):
        pops = tuple(float(p) for p in self.initial_p)
        if len(pops) != 3:
            raise OutOfRangeError(f"initial_p needs 3 entries, got {len(pops)}")
        for p in pops:
            require_unit("initial population", p)
        if not is_normalized(sum(pops)):
            raise NonNormalizedError(f"initial populations sum to {sum(pops)}")
        object.__setattr__(self, "initial_p", pops)
        for name in ("f_prime", "lambda1", "lambda2", "k1", "k2"):
            object.__setattr__(self, name, require_unit(name, getattr(self, name)))
        if not is_feasible(self.lambda1, self.lambda2):
            raise InfeasibleDampingError(
                f"lambda1 + lambda2 = {self.lambda1 + self.lambda2} exceeds 1"
            )
        if not is_feasible(self.k1, self.k2):
            raise InfeasibleDampingError(f"k1 + k2 = {self.k1 + self.k2} exceeds 1")
        for name in ("hot_levels", "cold_levels"):
            h = getattr(self, name)
            if not isinstance(h, Hamiltonian):
                h = Hamiltonian(tuple(h))
                object.__setattr__(self, name, h)
            if h.dim != 3:
                raise OutOfRangeError(f"{name} must have 3 levels")


@dataclass(frozen=True)
class CycleReport:
    """Per-run record: stroke states plus all energy bookkeeping.

    efficiency is NaN when no heat was absorbed (q_hot <= 0); the
    :func:`efficiency` helper raises NoHeatAbsorbedError in that case.
    states are the initial state, the state after the hot contact and the end
    state. qubit_cycles and qutrit_cycles return one report for a whole column
    of runs: its numbers are then arrays and its states (..., d, d) stacks.
    """

    states: tuple
    q_hot: float
    q_cold: float
    work: float
    efficiency: float
    deviation: float
    redistribution_work: float
    cyclic: bool

    @property
    def heat_absorbed(self) -> bool:
        return self.q_hot > ATOL


class ReservoirBaseline(NamedTuple):
    p_cold: float
    p_hot: float
    work: float


class WorkThreshold(NamedTuple):
    ratio_bound: float
    is_positive: bool
    degenerate: bool


def reservoir_baseline(beta_c: float, beta_h: float, cold_gap: float, hot_gap: float) -> ReservoirBaseline:
    """Two-reservoir reference: occupations and per-cycle work.

    p_c = 1/(1 + exp(-beta_c * cold_gap)), p_h likewise on the hot side,
    W1 = (p_c - p_h)(cold_gap - hot_gap). beta = inf is accepted as the
    zero-temperature limit (occupation -> 1).
    """
    cold_gap = require_positive("cold_gap", cold_gap)
    hot_gap = require_positive("hot_gap", hot_gap)
    for name, beta in (("beta_c", beta_c), ("beta_h", beta_h)):
        if not beta >= 0.0:
            raise OutOfRangeError(f"{name} must be >= 0, got {beta}")
    p_cold = 1.0 / (1.0 + math.exp(-beta_c * cold_gap))
    p_hot = 1.0 / (1.0 + math.exp(-beta_h * hot_gap))
    return ReservoirBaseline(p_cold, p_hot, (p_cold - p_hot) * (cold_gap - hot_gap))


def hot_stroke_heat(cfg: QubitEngineConfig) -> float:
    """Closed-form heat absorbed in the hot GAD stroke.

    Q1 = [(1-f) * gamma * pg - f * gamma * pe] * hot_gap; equals the
    trace-based energy difference across the stroke.
    """
    return (
        (1.0 - cfg.f) * cfg.gamma * cfg.initial_pg - cfg.f * cfg.gamma * cfg.initial_pe
    ) * cfg.hot_gap


def cold_stroke_heat(cfg: QubitEngineConfig) -> float:
    """Closed-form heat of the cyclic cold stroke (population reset).

    Q2 = [(f-1) * gamma * pg + f * gamma * pe] * cold_gap; negative whenever
    the hot stroke absorbed, since the reset undoes the population shift on
    the smaller gap.
    """
    return (
        (cfg.f - 1.0) * cfg.gamma * cfg.initial_pg + cfg.f * cfg.gamma * cfg.initial_pe
    ) * cfg.cold_gap


def cycle_work(cfg: QubitEngineConfig) -> float:
    """Closed-form cyclic work: Q1 + Q2 collapsed onto the gap difference."""
    return (
        (1.0 - cfg.f) * cfg.gamma * cfg.initial_pg - cfg.f * cfg.gamma * cfg.initial_pe
    ) * (cfg.hot_gap - cfg.cold_gap)


def max_cycle_work(cfg: QubitEngineConfig) -> float:
    """Upper envelope pg * (hot_gap - cold_gap), reached as f -> 0, gamma -> 1."""
    return cfg.initial_pg * (cfg.hot_gap - cfg.cold_gap)


def positive_work_threshold(cfg: QubitEngineConfig) -> WorkThreshold:
    """Positivity condition W >= 0 iff (1-f)/f >= pe/pg.

    Degenerate inputs (f = 0 or pg = 0) make the ratio bound infinite or the
    condition vacuous; they are flagged, not raised. is_positive always
    reflects the sign of the work itself.
    """
    margin = (1.0 - cfg.f) * cfg.initial_pg - cfg.f * cfg.initial_pe
    degenerate = cfg.f == 0.0 or cfg.initial_pg == 0.0
    bound = math.inf if cfg.f == 0.0 else (1.0 - cfg.f) / cfg.f
    return WorkThreshold(bound, margin >= 0.0, degenerate)


def noncyclic_populations(cfg: QubitEngineConfig):
    """End-of-cycle populations after the finite-time AD cold stroke.

    Composition of gad_qubit(f, gamma) and ad_qubit(k):
        pg' = (k + f*gamma - k*f*gamma) * pe + (1 + (f-1)*(1-k)*gamma) * pg
        pe' = (1-k) * [(1 - f*gamma) * pe + (1-f)*gamma * pg]
    """
    f, g, k = cfg.f, cfg.gamma, cfg.k
    pg, pe = cfg.initial_pg, cfg.initial_pe
    pg2 = (k + f * g - k * f * g) * pe + (1.0 + (f - 1.0) * (1.0 - k) * g) * pg
    pe2 = (1.0 - k) * ((1.0 - f * g) * pe + (1.0 - f) * g * pg)
    return pg2, pe2


def noncyclic_deviation(cfg: QubitEngineConfig) -> float:
    """Hilbert-Schmidt distance of the end state from the initial state.

    sqrt(2) * |(1-f)(1-k)*gamma*pg - (f*gamma + k*(1 - f*gamma))*pe|; the
    absolute value keeps it a norm on both sides of the closure point.
    """
    f, g, k = cfg.f, cfg.gamma, cfg.k
    term = (1.0 - f) * (1.0 - k) * g * cfg.initial_pg - (
        f * g + k * (1.0 - f * g)
    ) * cfg.initial_pe
    return math.sqrt(2.0) * abs(term)


def redistribution_work(cfg: QubitEngineConfig) -> float:
    """Hot-gap cost of restoring the initial populations, (pg' - pg) * hot_gap."""
    f, g, k = cfg.f, cfg.gamma, cfg.k
    return (
        (f * g + k * (1.0 - f * g)) * cfg.initial_pe
        - (1.0 - f) * (1.0 - k) * g * cfg.initial_pg
    ) * cfg.hot_gap


def _cycle(states: tuple, q_hot, q_cold, delta_w, cyclic: bool) -> CycleReport:
    work = q_hot + q_cold
    # q_hot below the algebra tolerance is rounding noise, not absorbed heat;
    # a ratio against it would be meaningless
    eff = np.divide(work, q_hot, out=np.full(np.shape(work), math.nan), where=q_hot > ATOL)
    deviation = hs_distances(states[0], states[2])
    return CycleReport(states, q_hot, q_cold, work, eff, deviation, delta_w, cyclic)


def qubit_cycles(pg, f, gamma, k, hot_gap, cold_gap, *, cyclic: bool) -> CycleReport:
    """Qubit cycles on columns of parameters, broadcast against each other.

    The inputs must pass QubitEngineConfig's checks. cyclic=True closes each
    cycle with the exact population reset (k unused), cyclic=False with
    ad_qubit(k); run_cyclic_qubit and run_noncyclic_qubit give the bookkeeping.
    """
    pg = np.asarray(pg, dtype=float)
    h_hot = np.stack(np.broadcast_arrays(0.0, hot_gap), axis=-1)
    h_cold = np.stack(np.broadcast_arrays(0.0, cold_gap), axis=-1)
    rho0 = diagonal_states(np.stack([pg, 1.0 - pg], axis=-1))
    rho_hot = apply_operators(gad_operators(f, (gamma,)), rho0)
    q_hot = energies(rho_hot, h_hot) - energies(rho0, h_hot)
    if cyclic:
        q_cold = energies(rho0, h_cold) - energies(rho_hot, h_cold)
        return _cycle((rho0, rho_hot, rho0), q_hot, q_cold, np.zeros_like(q_hot), True)
    rho_end = apply_operators(gad_operators(1.0, (k,)), rho_hot)
    delta_w = energies(rho0, h_hot) - energies(rho_end, h_hot)
    q_cold = energies(rho0, h_cold) - energies(rho_hot, h_cold) - delta_w
    return _cycle((rho0, rho_hot, rho_end), q_hot, q_cold, delta_w, False)


def qutrit_cycles(initial_p, f_prime, lambda1, lambda2, k1, k2, hot_levels,
                  cold_levels) -> CycleReport:
    """Qutrit cycles on columns of parameters; see qubit_cycles and run_qutrit.

    initial_p, hot_levels and cold_levels carry the level axis last (..., 3).
    """
    tau0 = diagonal_states(initial_p)
    tau_hot = apply_operators(gad_operators(f_prime, (lambda1, lambda2)), tau0)
    tau_end = apply_operators(gad_operators(1.0, (k1, k2)), tau_hot)
    q_hot = energies(tau_hot, hot_levels) - energies(tau0, hot_levels)
    q_cold = energies(tau_end, cold_levels) - energies(tau_hot, cold_levels)
    delta_w = energies(tau0, hot_levels) - energies(tau_end, hot_levels)
    return _cycle((tau0, tau_hot, tau_end), q_hot, q_cold, delta_w, False)


_NUMBERS = ("q_hot", "q_cold", "work", "efficiency", "deviation", "redistribution_work")


def _single(report: CycleReport) -> CycleReport:
    """An unbatched engine report with float numbers and DensityMatrix states."""
    numbers = {name: float(getattr(report, name)) for name in _NUMBERS}
    return replace(report, states=tuple(map(DensityMatrix, report.states)), **numbers)


def _run_qubit(cfg: QubitEngineConfig, cyclic: bool) -> CycleReport:
    return _single(qubit_cycles(cfg.initial_pg, cfg.f, cfg.gamma, cfg.k, cfg.hot_gap,
                                cfg.cold_gap, cyclic=cyclic))


def run_cyclic_qubit(cfg: QubitEngineConfig) -> CycleReport:
    """Execute one ideal cycle: the cold contact resets populations exactly.

    The returned report satisfies work = q_hot + q_cold bitwise, deviation
    = 0, and efficiency = 1 - cold_gap/hot_gap whenever q_hot > 0.
    """
    return _run_qubit(cfg, cyclic=True)


def run_noncyclic_qubit(cfg: QubitEngineConfig) -> CycleReport:
    """Execute one finite-time cycle closed by ad_qubit(k).

    The end state generally differs from the initial one; the report's
    deviation measures that gap and redistribution_work is the hot-gap cost
    of closing it. Delivered work is the cyclic work minus that cost (see
    module docstring), so cyclic_work - work = redistribution_work exactly.
    """
    return _run_qubit(cfg, cyclic=False)


def qutrit_hot_heat(cfg: QutritEngineConfig) -> float:
    """Closed-form qutrit hot-stroke heat.

    (1-f') * p0 * [d10*lambda1 + d20*lambda2]
        - f' * [d10*lambda1*p1 + d20*lambda2*p2]
    with d10, d20 the hot gaps from the ground level. The decay term enters
    with a minus sign, exactly as in the qubit expression.
    """
    d10 = cfg.hot_levels.gap(0, 1)
    d20 = cfg.hot_levels.gap(0, 2)
    p0, p1, p2 = cfg.initial_p
    fp = cfg.f_prime
    return (1.0 - fp) * p0 * (d10 * cfg.lambda1 + d20 * cfg.lambda2) - fp * (
        d10 * cfg.lambda1 * p1 + d20 * cfg.lambda2 * p2
    )


def qutrit_cold_heat(cfg: QutritEngineConfig) -> float:
    """Closed-form qutrit cold heat -(k1*q1*dc10 + k2*q2*dc20), on a config or on columns.

    q1, q2 are the populations after the hot stroke, dc10, dc20 the cold gaps.
    """
    p0, p1, p2 = cfg.initial_p
    _, q1, q2 = gad_qutrit_populations(p0, p1, p2, cfg.f_prime, cfg.lambda1, cfg.lambda2)
    cold = cfg.cold_levels
    return -(cfg.k1 * q1 * cold.gap(0, 1) + cfg.k2 * q2 * cold.gap(0, 2))


def run_qutrit(cfg: QutritEngineConfig) -> CycleReport:
    """Execute one qutrit cycle; both contacts are finite-time GAD strokes.

    q_cold is trace-based; qutrit_cold_heat is its closed form, and
    variants.qutrit_cold_heat_literal the paper's comparison form. The final
    state generally differs from the initial state, so the run is reported
    as non-cyclic with the corresponding deviation.
    """
    return _single(qutrit_cycles(cfg.initial_p, cfg.f_prime, cfg.lambda1, cfg.lambda2, cfg.k1,
                                 cfg.k2, cfg.hot_levels.as_array(), cfg.cold_levels.as_array()))


def efficiency(report: CycleReport) -> float:
    """W / q_hot; raises NoHeatAbsorbedError when q_hot is not positive.

    Heat below the 1e-12 algebra tolerance counts as not absorbed: at that
    scale the trace-based q_hot is indistinguishable from rounding noise.
    """
    if report.q_hot <= ATOL:
        raise NoHeatAbsorbedError(f"q_hot = {report.q_hot} <= 0, efficiency undefined")
    return report.work / report.q_hot


#: Flat-record schema shared with the CSV writer.
QUBIT_RECORD_FIELDS = (
    "pg", "pe", "f", "gamma", "k", "dh", "dc",
    "q_hot", "q_cold", "work", "efficiency", "deviation", "delta_w", "cyclic",
)

QUTRIT_RECORD_FIELDS = (
    "p0", "p1", "p2", "fprime", "lam1", "lam2", "k1", "k2",
    "dh10", "dh20", "dc10", "dc20",
    "q_hot", "q_cold", "work", "efficiency", "deviation", "delta_w", "cyclic",
)


def _outcome(report: CycleReport) -> tuple:
    return (*(getattr(report, name) for name in _NUMBERS), report.cyclic)


def qubit_record(cfg: QubitEngineConfig, report: CycleReport) -> dict:
    return dict(zip(QUBIT_RECORD_FIELDS, (
        cfg.initial_pg, cfg.initial_pe, cfg.f, cfg.gamma, cfg.k, cfg.hot_gap, cfg.cold_gap,
        *_outcome(report),
    )))


def qutrit_record(cfg: QutritEngineConfig, report: CycleReport) -> dict:
    hot, cold = cfg.hot_levels, cfg.cold_levels
    return dict(zip(QUTRIT_RECORD_FIELDS, (
        *cfg.initial_p, cfg.f_prime, cfg.lambda1, cfg.lambda2, cfg.k1, cfg.k2,
        hot.gap(0, 1), hot.gap(0, 2), cold.gap(0, 1), cold.gap(0, 2), *_outcome(report),
    )))
