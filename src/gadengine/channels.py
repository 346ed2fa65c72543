"""Kraus-operator channels: qubit GAD/AD and the three-level GAD family.

Each constructor returns an immutable :class:`KrausSet` whose operators sum
to the identity under sum(A_k^dag A_k), verified at construction unless the
caller opts out (``check=False``). ``apply`` realizes the CPTP map
rho -> sum_k A_k rho A_k^dag.

Both media share one formula, ``gad_operators``, which stacks the Kraus
operators of many parameter rows as an (..., K, d, d) array;
``apply_operators`` applies such a stack to a matching stack of states.
The KrausSet constructors and ``apply`` are those at a single row, and
``fixed_point`` reads a set's stationary state off its operators alone.

Basis convention: index 0 is the ground level. The emission weight f (f' for
qutrits) multiplies the decay operators; 1 - f multiplies the excitation
operators pumping population out of the ground level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GadEngineError,
    InfeasibleDampingError,
    NoUniqueFixedPointError,
    OutOfRangeError,
)
from .states import ATOL, DensityMatrix, is_nonnegative, require_unit


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered Kraus operators of one channel instance; all else is computed from them."""

    dim: int
    operators: tuple

    def completeness_defect(self) -> float:
        """Max-abs entry of sum(A^dag A) - I; zero for a CPTP channel."""
        return float(np.max(np.abs(_residual(self))))


def _residual(kset: KrausSet) -> np.ndarray:
    acc = np.zeros((kset.dim, kset.dim), dtype=complex)
    for op in kset.operators:
        acc += op.conj().T @ op
    return acc - np.eye(kset.dim)


def _require_complete(kset: KrausSet) -> None:
    # Frobenius >= operator norm: a set that passes has no singular value > sqrt(1 + ATOL)
    defect = float(np.linalg.norm(_residual(kset)))
    if defect > ATOL:
        raise GadEngineError(f"Kraus completeness violated, residual {defect:.3e}")


def _build(dim: int, ops, check: bool) -> KrausSet:
    ops = np.array(ops, dtype=complex)
    ops.setflags(write=False)
    kset = KrausSet(dim=dim, operators=tuple(ops))
    if check:
        _require_complete(kset)
    return kset


def gad_operators(f, lambdas) -> np.ndarray:
    """GAD Kraus operators (..., 2d, d, d) with emission weight f, d = len(lambdas) + 1.

    lambdas are the |j> -> |0> probabilities (the qubit's is (gamma,)). In order:
        A0      = sqrt(f)   * diag(1, sqrt(1 - lambda_j) ...)
        A_j     = sqrt(f)   * sqrt(lambda_j) |0><j|      (decays)
        A_d     = sqrt(1-f) * diag(sqrt(1 - lambda_1 - ...), 1 ...)
        A_{d+j} = sqrt(1-f) * sqrt(lambda_j) |j><0|      (excitations)
    A_d's ground entry subtracts the lambdas from 1 left to right and is
    clamped at 0 against rounding; rows whose lambdas sum above 1 are the
    caller's to reject.
    """
    f, *lambdas = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (f, *lambdas)))
    d = len(lambdas) + 1
    sf = np.sqrt(f)
    sg = np.sqrt(1.0 - f)
    ground = 1.0
    ops = np.zeros(f.shape + (2 * d, d, d), dtype=complex)
    ops[..., 0, 0, 0] = sf
    for j, lam in enumerate(lambdas, start=1):
        ground = ground - lam
        ops[..., 0, j, j] = sf * np.sqrt(1.0 - lam)
        ops[..., j, 0, j] = sf * np.sqrt(lam)
        ops[..., d, j, j] = sg
        ops[..., d + j, j, 0] = sg * np.sqrt(lam)
    ops[..., d, 0, 0] = sg * np.sqrt(np.maximum(ground, 0.0))
    return ops


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast (..., d, d) stacks, one entry at a time.

    Each entry is the sum over j of a[..., i, j] * b[..., j, k] as elementwise
    array products, added in index order. At d = 2 and 3 this is several
    times faster than numpy's stacked matmul, which pays a high cost per
    matrix. On monomial operands (at most one nonzero entry per row and
    column, as every GAD Kraus operator) each entry has a single nonzero
    product, so it equals the matmul's bits up to the sign of an exact zero;
    on dense operands the two differ by rounding.
    """
    d = a.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(d):
        for k in range(d):
            acc = a[..., i, 0] * b[..., 0, k]
            for j in range(1, d):
                acc += a[..., i, j] * b[..., j, k]
            out[..., i, k] = acc
    return out


def apply_operators(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k^dag for Kraus stacks (..., K, d, d) and states (..., d, d).

    The terms are added to a zero start one operator at a time, in order.
    """
    out = 0.0
    for op in np.moveaxis(ops, -3, 0):
        out = out + _matmul(_matmul(op, states), op.conj().swapaxes(-1, -2))
    return out


def gad_qubit(f: float, gamma: float, *, check: bool = True) -> KrausSet:
    """Qubit generalized amplitude damping with emission weight f; see gad_operators."""
    f = require_unit("f", f)
    gamma = require_unit("gamma", gamma)
    return _build(2, gad_operators(f, (gamma,)), check)


def ad_qubit(k: float, *, check: bool = True) -> KrausSet:
    """Amplitude damping with decay probability k; equals gad_qubit(1, k)."""
    return gad_qubit(1.0, require_unit("k", k), check=check)


def gad_qutrit(f_prime: float, lambda1: float, lambda2: float, *, check: bool = True) -> KrausSet:
    """Three-level generalized amplitude damping; see gad_operators.

    lambda1 and lambda2 are the |1> -> |0> and |2> -> |0> transition
    probabilities, and their sum may not exceed 1. The excitation group F3..F5
    carries sqrt(1 - f'), the unique weighting under which sum(F^dag F) = I.
    """
    f_prime = require_unit("f_prime", f_prime)
    lambda1 = require_unit("lambda1", lambda1)
    lambda2 = require_unit("lambda2", lambda2)
    if 1.0 - lambda1 - lambda2 < -ATOL:
        raise InfeasibleDampingError(
            f"lambda1 + lambda2 = {lambda1 + lambda2} exceeds 1; no valid channel"
        )
    return _build(3, gad_operators(f_prime, (lambda1, lambda2)), check)


def apply(channel: KrausSet, state: DensityMatrix) -> DensityMatrix:
    """CPTP map: returns sum_k A_k rho A_k^dag as a new state."""
    if channel.dim != state.dim:
        raise DimensionMismatchError(f"channel dim {channel.dim} != state dim {state.dim}")
    return DensityMatrix(apply_operators(np.asarray(channel.operators), state.matrix))


@dataclass(frozen=True)
class DampingSchedule:
    """Exponential contact schedule: damping = 1 - exp(-rate * time)."""

    rate: float
    time: float

    def __post_init__(self):
        for name, value in (("rate", self.rate), ("time", self.time)):
            if not is_nonnegative(value):
                raise OutOfRangeError(f"{name} must be finite and >= 0, got {value}")

    @property
    def damping(self) -> float:
        """Cumulative transition probability after the scheduled contact."""
        return -math.expm1(-self.rate * self.time)


def gad_qubit_populations(pg: float, pe: float, f: float, gamma: float):
    """Diagonal of the evolved qubit state in closed form.

    Identical to the diagonal of apply(gad_qubit(f, gamma), diag(pg, pe)):
        pg' = f*gamma*pe + (1 + (f-1)*gamma) * pg
        pe' = (1 - f*gamma)*pe - (f-1)*gamma * pg
    """
    pg2 = f * gamma * pe + (1.0 + (f - 1.0) * gamma) * pg
    pe2 = (1.0 - f * gamma) * pe - (f - 1.0) * gamma * pg
    return pg2, pe2


def gad_qutrit_populations(p0, p1, p2, f_prime, lambda1, lambda2):
    """Diagonal of the evolved qutrit state in closed form."""
    q0 = (1.0 - (1.0 - f_prime) * (lambda1 + lambda2)) * p0 + f_prime * (
        lambda1 * p1 + lambda2 * p2
    )
    q1 = (1.0 - f_prime * lambda1) * p1 + (1.0 - f_prime) * lambda1 * p0
    q2 = (1.0 - f_prime * lambda2) * p2 + (1.0 - f_prime) * lambda2 * p0
    return q0, q1, q2


def fixed_point(channel: KrausSet) -> DensityMatrix:
    """Unique stationary state: the kernel of L - I, L = sum_k kron(A_k, conj(A_k)).

    L is the map rho -> sum_k A_k rho A_k^dag on row-major vec(rho). One SVD of L - I
    finds the kernel; the state is the last right-singular vector, conjugated, reshaped
    row-major and divided by its trace. Raises GadEngineError if the operators are not
    trace preserving (completeness residual above ATOL), and NoUniqueFixedPointError
    unless exactly one singular value is <= ATOL (identity channel, a vanishing lambda,
    f' = 0 on the qutrit, or damping as weak as gamma = 1e-14). Accuracy is about 1e-16
    over the second-smallest singular value: 1e-13 at gamma = 1e-3, 6e-6 at 1e-11.
    """
    _require_complete(channel)
    d = channel.dim
    liouville = sum(np.kron(op, op.conj()) for op in channel.operators) - np.eye(d * d)
    _, sigma, vh = np.linalg.svd(liouville)
    found = int(np.count_nonzero(sigma <= ATOL))
    if found != 1:
        raise NoUniqueFixedPointError(f"{found} singular values <= ATOL, need exactly 1")
    rho = vh[-1].conj().reshape(d, d)
    return DensityMatrix(rho / np.trace(rho))
