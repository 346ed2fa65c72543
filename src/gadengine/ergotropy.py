"""Passive states and extractable work under time-parameterized damping.

The passive state of a diagonal density matrix puts the largest population
on the lowest level; ergotropy is the energy released by that rearrangement,
the most work cyclic unitaries can extract. Under the GAD channels every
protocol state stays diagonal, so ergotropy reduces to a sort plus two dot
products per grid cell; the landscape fills run through the kernels in
:mod:`gadengine._kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channels import gad_qubit_populations, gad_qutrit_populations
from .errors import (
    AxisMismatchError,
    BadDimensionError,
    DimensionMismatchError,
    InfeasibleDampingError,
    OutOfRangeError,
)
from .states import (
    ATOL,
    DensityMatrix,
    Hamiltonian,
    energy,
    is_nonnegative,
    is_normalized,
    is_unit,
    require_unit,
)


@dataclass(frozen=True, eq=False)
class PassiveDecomposition:
    """A state, its passive rearrangement, and both energies."""

    original: DensityMatrix
    passive: DensityMatrix
    permutation: tuple
    energy_active: float
    energy_passive: float

    @property
    def extractable(self) -> float:
        return self.energy_active - self.energy_passive


def _spectrum(state: DensityMatrix) -> np.ndarray:
    # Diagonal states keep their level-ordered populations; anything else is
    # reduced to its eigenvalue spectrum first.
    if state.is_diagonal():
        return state.populations.copy()
    hermitian = (state.matrix + state.matrix.conj().T) / 2.0
    return np.linalg.eigvalsh(hermitian)


def passive_state(state: DensityMatrix, h: Hamiltonian) -> PassiveDecomposition:
    """Rearrange populations in non-increasing order onto ascending levels.

    Ties are broken by level index (stable sort); any tie permutation gives
    the same passive energy. The permutation maps target level -> source
    index in the spectrum.
    """
    if state.dim != h.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != spectrum dim {h.dim}")
    pops = _spectrum(state)
    order = np.argsort(-pops, kind="stable")
    sorted_pops = pops[order]
    passive = DensityMatrix(np.diag(sorted_pops.astype(complex)))
    levels = h.as_array()
    return PassiveDecomposition(
        original=state,
        passive=passive,
        permutation=tuple(int(i) for i in order),
        energy_active=energy(state, h),
        energy_passive=float(np.sum(sorted_pops * levels)),
    )


def ergotropy(state: DensityMatrix, h: Hamiltonian) -> float:
    """Maximum unitarily extractable work, E(rho) - E(rho_passive) >= 0."""
    return passive_state(state, h).extractable


def _checked_populations(initial) -> tuple:
    initial = tuple(float(p) for p in initial)
    if not (all(is_unit(p) for p in initial) and is_normalized(sum(initial))):
        raise OutOfRangeError(
            f"initial populations must lie in [0, 1] and sum to 1, got {initial}")
    return initial


def populations_at_time(initial, f: float, schedules) -> np.ndarray:
    """Evolve diagonal populations through the GAD channel at lambda(t).

    Qubits take one DampingSchedule, qutrits two (decay of levels 1 and 2
    toward the ground level). Matches the diagonal of the corresponding
    Kraus-map application. f and the initial populations must lie in [0, 1],
    and the populations must sum to 1.
    """
    pops = np.asarray(_checked_populations(initial))
    f = require_unit("f", f)
    schedules = list(schedules)
    if pops.size == 2:
        if len(schedules) != 1:
            raise BadDimensionError("qubit evolution takes exactly one schedule")
        lam = schedules[0].damping
        pg, pe = gad_qubit_populations(pops[0], pops[1], f, lam)
        return np.array([pg, pe])
    if pops.size == 3:
        if len(schedules) != 2:
            raise BadDimensionError("qutrit evolution takes exactly two schedules")
        lam1 = schedules[0].damping
        lam2 = schedules[1].damping
        if lam1 + lam2 > 1.0 + ATOL:
            raise InfeasibleDampingError(
                f"lambda1 + lambda2 = {lam1 + lam2} exceeds 1 at the requested time"
            )
        return np.array(gad_qutrit_populations(pops[0], pops[1], pops[2], f, lam1, lam2))
    raise BadDimensionError(f"need 2 or 3 populations, got {pops.size}")


@dataclass(frozen=True, eq=False)
class ErgotropyGrid:
    """Extractable work over an (f, t) grid, values[i, j] at (f_axis[i], t_axis[j])."""

    f_axis: np.ndarray
    t_axis: np.ndarray
    rates: tuple
    values: np.ndarray
    system_dim: int
    initial: tuple
    levels: tuple


@dataclass(frozen=True, eq=False)
class LandscapeDifference:
    """Signed qutrit-minus-qubit field on shared axes.

    qutrit_only_cells counts cells where the qubit landscape is exactly zero
    while the qutrit one is strictly positive: operating points that only the
    multilevel medium can exploit.
    """

    f_axis: np.ndarray
    t_axis: np.ndarray
    values: np.ndarray
    qutrit_only_cells: int


def _checked_axis(name: str, axis, lower=None, upper=None) -> np.ndarray:
    arr = np.asarray(axis, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise OutOfRangeError(f"{name} must be a nonempty 1-D axis")
    if not np.all(np.isfinite(arr)):
        raise OutOfRangeError(f"{name} must be finite")
    if np.any(np.diff(arr) <= 0.0) and arr.size > 1:
        raise OutOfRangeError(f"{name} must be strictly ascending")
    if lower is not None and arr[0] < lower:
        raise OutOfRangeError(f"{name} starts below {lower}")
    if upper is not None and arr[-1] > upper:
        raise OutOfRangeError(f"{name} ends above {upper}")
    return arr


def ergotropy_landscape(initial, h: Hamiltonian, f_axis, t_axis, rates) -> ErgotropyGrid:
    """Fill the (f, t) extractable-work grid for one working medium.

    initial holds populations in [0, 1] that sum to 1; rates holds one decay
    rate for qubits, two for qutrits. Qutrit grids are
    feasibility-checked first: every t with lambda1(t) + lambda2(t) > 1 is
    collected and reported in the raised error, never clamped.
    """
    initial = _checked_populations(initial)
    dim = len(initial)
    if dim != h.dim:
        raise DimensionMismatchError(f"initial has {dim} entries, spectrum has {h.dim}")
    rates = tuple(float(r) for r in rates)
    for r in rates:
        if not is_nonnegative(r):
            raise OutOfRangeError(f"rates must be finite and >= 0, got {r}")
    f_arr = _checked_axis("f_axis", f_axis, lower=0.0, upper=1.0)
    t_arr = _checked_axis("t_axis", t_axis, lower=0.0)
    levels = h.as_array()

    if dim == 2:
        if len(rates) != 1:
            raise BadDimensionError("qubit landscape takes exactly one rate")
        lam = -np.expm1(-rates[0] * t_arr)
        values = _kernels.qubit_fill(initial[0], initial[1], f_arr, lam, levels[0], levels[1])
    elif dim == 3:
        if len(rates) != 2:
            raise BadDimensionError("qutrit landscape takes exactly two rates")
        lam1 = -np.expm1(-rates[0] * t_arr)
        lam2 = -np.expm1(-rates[1] * t_arr)
        bad = np.flatnonzero(lam1 + lam2 > 1.0 + ATOL)
        if bad.size:
            shown = ", ".join(f"{t_arr[j]:g}" for j in bad[:5])
            more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
            raise InfeasibleDampingError(
                f"lambda1(t) + lambda2(t) > 1 at {bad.size} grid times: {shown}{more}"
            )
        values = _kernels.qutrit_fill(
            initial[0], initial[1], initial[2], f_arr, lam1, lam2,
            levels[0], levels[1], levels[2],
        )
    else:
        raise BadDimensionError(f"need 2 or 3 initial populations, got {dim}")

    values.setflags(write=False)
    f_arr.setflags(write=False)
    t_arr.setflags(write=False)
    return ErgotropyGrid(
        f_axis=f_arr,
        t_axis=t_arr,
        rates=rates,
        values=values,
        system_dim=dim,
        initial=initial,
        levels=tuple(levels),
    )


def landscape_difference(qutrit: ErgotropyGrid, qubit: ErgotropyGrid) -> LandscapeDifference:
    """Pointwise qutrit - qubit ergotropy on identical axes."""
    if qutrit.system_dim != 3 or qubit.system_dim != 2:
        raise AxisMismatchError("expected a qutrit grid and a qubit grid, in that order")
    if qutrit.f_axis.shape != qubit.f_axis.shape or qutrit.t_axis.shape != qubit.t_axis.shape:
        raise AxisMismatchError("grids have different axis lengths")
    if not (np.array_equal(qutrit.f_axis, qubit.f_axis) and np.array_equal(qutrit.t_axis, qubit.t_axis)):
        raise AxisMismatchError("grid axes differ")
    diff = qutrit.values - qubit.values
    diff.setflags(write=False)
    only = int(np.count_nonzero((qubit.values == 0.0) & (qutrit.values > 0.0)))
    return LandscapeDifference(
        f_axis=qutrit.f_axis,
        t_axis=qutrit.t_axis,
        values=diff,
        qutrit_only_cells=only,
    )
