"""Density matrices and diagonal Hamiltonians for two- and three-level media.

Everything works in units with hbar = k_B = 1: Hamiltonians carry raw real
energies and only energy gaps ever enter physical results. All values are
immutable after construction and every function is pure. The plural state
functions take stacks of states, with any leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    NonNormalizedError,
    OutOfRangeError,
)

#: Absolute tolerance for algebraic identities; at d <= 3 all residuals are
#: pure double-precision rounding noise.
ATOL = 1e-12

_SUPPORTED_DIMS = (2, 3)


# Parameter predicates, the package's one set of input checks. Each takes a
# scalar or an array, so a config check and a whole-column check agree by
# construction; NaN and infinities fail every one of them.
def is_unit(x):
    return (x >= 0.0) & (x <= 1.0)


def is_positive(x):
    return (x > 0.0) & (x < np.inf)


def is_nonnegative(x):
    return (x >= 0.0) & (x < np.inf)


def is_feasible(a, b):
    """Two transition probabilities whose sum does not exceed 1."""
    return a + b <= 1.0 + ATOL


def is_normalized(total):
    return abs(total - 1.0) <= ATOL


def is_spectrum(levels):
    """Finite, strictly increasing energies along the last axis."""
    levels = np.asarray(levels, dtype=float)
    return np.isfinite(levels).all(axis=-1) & (np.diff(levels, axis=-1) > 0.0).all(axis=-1)


def require_unit(name: str, value) -> float:
    value = float(value)
    if not is_unit(value):
        raise OutOfRangeError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_positive(name: str, value) -> float:
    value = float(value)
    if not is_positive(value):
        raise OutOfRangeError(f"{name} must be finite and > 0, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A d x d complex matrix treated as the working-medium state.

    Construction fixes only shape and dtype. Physical invariants (unit trace,
    Hermiticity, positivity) are checked by :func:`validate`, which reports
    residuals instead of raising so defective candidates can be inspected.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadDimensionError(f"state must be a square matrix, got shape {m.shape}")
        if m.shape[0] not in _SUPPORTED_DIMS:
            raise BadDimensionError(f"dimension must be 2 or 3, got {m.shape[0]}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Real parts of the diagonal, in level order."""
        return np.real(np.diagonal(self.matrix))

    def is_diagonal(self) -> bool:
        """No off-diagonal entry exceeds ATOL in magnitude."""
        off = self.matrix - np.diag(np.diagonal(self.matrix))
        return bool(np.max(np.abs(off)) <= ATOL)


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal energy spectrum with strictly increasing levels."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(float(e) for e in self.levels)
        if len(levels) not in _SUPPORTED_DIMS:
            raise BadDimensionError(f"need 2 or 3 levels, got {len(levels)}")
        if not is_spectrum(levels):
            raise OutOfRangeError(f"levels must be finite and strictly increasing, got {levels}")
        object.__setattr__(self, "levels", levels)

    @property
    def dim(self) -> int:
        return len(self.levels)

    def gap(self, i: int, j: int) -> float:
        """Energy difference levels[j] - levels[i]; positive for j > i."""
        return self.levels[j] - self.levels[i]

    def shifted(self, offset: float) -> "Hamiltonian":
        """Same spectrum displaced by a constant; gaps are unchanged."""
        return Hamiltonian(tuple(e + offset for e in self.levels))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


def make_diagonal_state(populations) -> DensityMatrix:
    """Build a diagonal state from populations on ascending energy levels.

    Raises OutOfRangeError for entries outside [0, 1], NonNormalizedError if
    the sum deviates from 1 by more than 1e-12, BadDimensionError for lengths
    other than 2 or 3.
    """
    pops = [float(p) for p in populations]
    if len(pops) not in _SUPPORTED_DIMS:
        raise BadDimensionError(f"need 2 or 3 populations, got {len(pops)}")
    for p in pops:
        if p < -ATOL or p > 1.0 + ATOL:
            raise OutOfRangeError(f"population {p} outside [0, 1]")
    total = sum(pops)
    if not is_normalized(total):
        raise NonNormalizedError(f"populations sum to {total}, expected 1")
    return DensityMatrix(diagonal_states(pops))


def diagonal_states(populations) -> np.ndarray:
    """Complex diagonal matrices (..., d, d) from populations (..., d)."""
    pops = np.asarray(populations, dtype=float)
    return pops[..., None, :] * np.eye(pops.shape[-1], dtype=complex)


def energies(states: np.ndarray, levels) -> np.ndarray:
    """Tr[rho H] of each state (..., d, d) for diagonal levels broadcast as (..., d)."""
    return np.sum(np.real(np.diagonal(states, axis1=-2, axis2=-1)) * levels, axis=-1)


def hs_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt distance of each pair of states, summed as np.linalg.norm does.

    That is two dot products over the flattened entries, real then imaginary parts.
    """
    diff = a - b
    flat = diff.reshape(diff.shape[:-2] + (1, -1))
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def energy(state: DensityMatrix, h: Hamiltonian) -> float:
    """Energy expectation Tr[rho H] for a diagonal Hamiltonian."""
    if state.dim != h.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != spectrum dim {h.dim}")
    return float(energies(state.matrix, h.as_array()))


def hs_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Hilbert-Schmidt (Frobenius) distance sqrt(sum |a_ij - b_ij|^2)."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim} differ")
    return float(hs_distances(a.matrix, b.matrix))


@dataclass(frozen=True)
class StateValidation:
    """Per-invariant residuals for a density-matrix candidate."""

    trace_residual: float
    hermiticity_residual: float
    min_eigenvalue: float

    @property
    def trace_ok(self) -> bool:
        return self.trace_residual <= ATOL

    @property
    def hermitian_ok(self) -> bool:
        return self.hermiticity_residual <= ATOL

    @property
    def psd_ok(self) -> bool:
        return self.min_eigenvalue >= -ATOL

    @property
    def ok(self) -> bool:
        return self.trace_ok and self.hermitian_ok and self.psd_ok


def validate(state: DensityMatrix) -> StateValidation:
    """Report trace, Hermiticity, and positivity residuals; never raises."""
    m = state.matrix
    trace_residual = abs(float(np.real(np.trace(m))) - 1.0) + abs(float(np.imag(np.trace(m))))
    hermiticity_residual = float(np.max(np.abs(m - m.conj().T)))
    hermitian_part = (m + m.conj().T) / 2.0
    min_eigenvalue = float(np.min(np.linalg.eigvalsh(hermitian_part)))
    return StateValidation(trace_residual, hermiticity_residual, min_eigenvalue)
