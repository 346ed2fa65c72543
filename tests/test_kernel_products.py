"""The elementwise stroke products against numpy's stacked matmul, and the
one GAD Kraus formula against the two it replaced.

``apply_operators`` writes each entry of a matrix product as an elementwise
sum in index order, through ``_matmul``. On monomial operators (at most one
nonzero entry per row and column: every GAD Kraus operator and every
diagonal phase) each entry has a single nonzero product, so the result must
carry the matmul's bits, up to the sign of an exact zero. ``apply_operators``
adds its terms to a zero start, which makes every zero positive, so it must
match bit for bit; a bare ``_matmul`` product compares with zeros made
positive. Dense operators agree to rounding. ``gad_operators`` must carry
the bits of the qubit and qutrit formulas it merged, kept below verbatim.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gadengine.channels import _matmul, apply_operators, gad_operators


def reference_apply(ops, states):
    """The matmul form the elementwise kernel replaced, kept verbatim."""
    out = 0.0
    for op in np.moveaxis(ops, -3, 0):
        out = out + op @ states @ op.conj().swapaxes(-1, -2)
    return out


def gad_qubit_operators(f, gamma) -> np.ndarray:
    """Qubit GAD Kraus operators (..., 4, 2, 2) with emission weight f.

    Operators:
        A0 = sqrt(f)   * diag(1, sqrt(1-gamma))
        A1 = sqrt(f)   * sqrt(gamma) |0><1|      (decay)
        A2 = sqrt(1-f) * diag(sqrt(1-gamma), 1)
        A3 = sqrt(1-f) * sqrt(gamma) |1><0|      (excitation)
    """
    f, gamma = np.broadcast_arrays(np.asarray(f, dtype=float), np.asarray(gamma, dtype=float))
    sf = np.sqrt(f)
    sg = np.sqrt(1.0 - f)
    c = np.sqrt(1.0 - gamma)
    ops = np.zeros(f.shape + (4, 2, 2), dtype=complex)
    ops[..., 0, 0, 0] = sf
    ops[..., 0, 1, 1] = sf * c
    ops[..., 1, 0, 1] = sf * np.sqrt(gamma)
    ops[..., 2, 0, 0] = sg * c
    ops[..., 2, 1, 1] = sg
    ops[..., 3, 1, 0] = sg * np.sqrt(gamma)
    return ops


def gad_qutrit_operators(f_prime, lambda1, lambda2) -> np.ndarray:
    """Three-level GAD Kraus operators (..., 6, 3, 3).

    F3 carries sqrt(1 - lambda1 - lambda2) on the ground level, clamped at 0
    against rounding; rows whose lambdas sum above 1 are the caller's to
    reject.
    """
    f_prime, lambda1, lambda2 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (f_prime, lambda1, lambda2))
    )
    sf = np.sqrt(f_prime)
    sg = np.sqrt(1.0 - f_prime)
    ops = np.zeros(f_prime.shape + (6, 3, 3), dtype=complex)
    ops[..., 0, 0, 0] = sf
    ops[..., 0, 1, 1] = sf * np.sqrt(1.0 - lambda1)
    ops[..., 0, 2, 2] = sf * np.sqrt(1.0 - lambda2)
    ops[..., 1, 0, 1] = sf * np.sqrt(lambda1)
    ops[..., 2, 0, 2] = sf * np.sqrt(lambda2)
    ops[..., 3, 0, 0] = sg * np.sqrt(np.maximum(1.0 - lambda1 - lambda2, 0.0))
    ops[..., 3, 1, 1] = sg
    ops[..., 3, 2, 2] = sg
    ops[..., 4, 1, 0] = sg * np.sqrt(lambda1)
    ops[..., 5, 2, 0] = sg * np.sqrt(lambda2)
    return ops


def reference_stroke(u, states):
    return u @ states @ u.conj().swapaxes(-1, -2)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(bits(got), bits(want))


def assert_same_bits_up_to_zero_sign(got, want):
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value unchanged
    assert_same_bits(got + 0.0, want + 0.0)


# --- strategies -----------------------------------------------------------------

unit = st.floats(0.0, 1.0)
# Magnitudes stay at or below 1e300, so no sum of products overflows.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, 1e300, -1e300]
entry = st.one_of(st.sampled_from(EDGES), st.floats(-1e300, 1e300))
rows = st.integers(1, 6)
dims = st.sampled_from((2, 3))
seeds = st.integers(0, 2**32 - 1)


def exact_complex(re, im):
    """re + i im without arithmetic, so signed zeros survive."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def states(n, d, elements=entry):
    parts = arrays(np.float64, (2, n, d, d), elements=elements)
    return parts.map(lambda p: exact_complex(p[0], p[1]))


@st.composite
def qubit_kraus(draw, n):
    f = draw(arrays(np.float64, n, elements=unit))
    gamma = draw(arrays(np.float64, n, elements=unit))
    return gad_operators(f, (gamma,))


@st.composite
def qutrit_kraus(draw, n):
    f = draw(arrays(np.float64, n, elements=unit))
    lam1 = draw(arrays(np.float64, n, elements=unit))
    share = draw(arrays(np.float64, n, elements=unit))
    return gad_operators(f, (lam1, share * (1.0 - lam1)))


def gad_kraus(n, d):
    return qubit_kraus(n) if d == 2 else qutrit_kraus(n)


def phases(shape):
    """Diagonal-phase unitaries of shape (..., d, d): monomial and complex."""
    *lead, d, _ = shape
    angles = arrays(np.float64, (*lead, d), elements=st.floats(-math.pi, math.pi))
    return angles.map(lambda a: np.exp(1j * a)[..., None] * np.eye(d))


def qr_unitaries(seed, shape):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return np.linalg.qr(z)[0]


def dense_kraus(seed, n, k, d):
    """k dense complex Kraus operators per row, cut from a (k d, d) isometry."""
    v = qr_unitaries(seed, (n, k * d, d))
    return v.reshape(n, k, d, d)


# --- bit identity on monomial operators -------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gad_strokes_carry_the_matmul_bits(data):
    d, n = data.draw(dims), data.draw(rows)
    ops = data.draw(gad_kraus(n, d))
    rho = data.draw(states(n, d))
    assert_same_bits(apply_operators(ops, rho), reference_apply(ops, rho))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_gad_channel_on_a_stack_of_states(data):
    d, n = data.draw(dims), data.draw(rows)
    ops = data.draw(gad_kraus(1, d))[0]
    rho = data.draw(states(n, d))
    assert_same_bits(apply_operators(ops, rho), reference_apply(ops, rho))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_phased_gad_operators_carry_the_matmul_bits(data):
    """A_k U is a complex monomial Kraus set; without the conjugate it fails."""
    d, n = data.draw(dims), data.draw(rows)
    ops = data.draw(gad_kraus(n, d)) @ data.draw(phases((n, 1, d, d)))
    rho = data.draw(states(n, d))
    assert_same_bits(apply_operators(ops, rho), reference_apply(ops, rho))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_phase_strokes_carry_the_matmul_bits(data):
    d, n = data.draw(dims), data.draw(rows)
    shape = data.draw(st.sampled_from([(d, d), (n, d, d)]))
    u = data.draw(phases(shape))
    rho = data.draw(states(n, d))
    u_dag = u.conj().swapaxes(-1, -2)
    assert_same_bits_up_to_zero_sign(_matmul(_matmul(u, rho), u_dag), reference_stroke(u, rho))


# --- one GAD formula for both media ---------------------------------------------

PARAM_EDGES = [0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1.0]
param = st.one_of(st.sampled_from(PARAM_EDGES), unit)


@st.composite
def lambda_pairs(draw):
    """lambda1 in [0, 1] and lambda2 <= 1 - lambda1, the edge lambda2 = 1 - lambda1 included."""
    lam1 = draw(param)
    room = 1.0 - lam1
    edges = [e for e in PARAM_EDGES if e <= room] + [room]
    return lam1, draw(st.one_of(st.sampled_from(edges), st.floats(0.0, room)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_gad_operators_carry_both_formulas_bits(data):
    n = data.draw(st.one_of(st.none(), rows))
    count = 1 if n is None else n
    f, gamma = (np.array(data.draw(st.lists(param, min_size=count, max_size=count)))
                for _ in range(2))
    lam1, lam2 = np.array(data.draw(st.lists(lambda_pairs(), min_size=count,
                                             max_size=count))).T
    if n is None:
        f, gamma, lam1, lam2 = (float(x[0]) for x in (f, gamma, lam1, lam2))
    elif data.draw(st.booleans()):
        f = float(f[0])  # one emission weight broadcast over the rows
    assert_same_bits(gad_operators(f, (gamma,)), gad_qubit_operators(f, gamma))
    assert_same_bits(gad_operators(f, (lam1, lam2)), gad_qutrit_operators(f, lam1, lam2))


# --- dense operators agree to rounding ----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data(), seeds)
def test_dense_unitaries_agree_to_rounding(data, seed):
    d, n = data.draw(dims), data.draw(rows)
    shape = data.draw(st.sampled_from([(d, d), (n, d, d)]))
    u = qr_unitaries(seed, shape)
    rho = data.draw(states(n, d, elements=st.floats(-1.0, 1.0)))
    got = _matmul(_matmul(u, rho), u.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(got, reference_stroke(u, rho), rtol=0.0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.data(), seeds)
def test_dense_kraus_operators_agree_to_rounding(data, seed):
    d, n = data.draw(dims), data.draw(rows)
    ops = dense_kraus(seed, n, data.draw(st.integers(1, 6)), d)
    rho = data.draw(states(n, d, elements=st.floats(-1.0, 1.0)))
    np.testing.assert_allclose(apply_operators(ops, rho), reference_apply(ops, rho),
                               rtol=0.0, atol=1e-14)


def test_single_matrices_match_the_matmul():
    """The per-point form: one (d, d) operator stack and one (d, d) state."""
    ops = gad_operators(0.3, (0.2, 0.5))
    rho = qr_unitaries(7, (3, 3))
    assert_same_bits(apply_operators(ops, rho), reference_apply(ops, rho))
    for op in ops:
        assert_same_bits_up_to_zero_sign(_matmul(op, rho), op @ rho)
