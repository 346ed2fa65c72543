"""The elementwise stroke products against numpy's stacked matmul.

``apply_operators`` and the unitary strokes write each entry of a matrix
product as an elementwise sum in index order. On monomial operators (at most
one nonzero entry per row and column: every GAD Kraus operator and every
diagonal phase) each entry has a single nonzero product, so the result must
carry the matmul's bits, up to the sign of an exact zero. ``apply_operators``
adds its terms to a zero start, which makes every zero positive, so it must
match bit for bit; a bare product such as the unitary stroke compares with
zeros made positive. Dense operators agree to rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gadengine.channels import (
    _matmul,
    apply_operators,
    gad_qubit_operators,
    gad_qutrit_operators,
)
from gadengine.engine import _unitary_stroke


def reference_apply(ops, states):
    """The matmul form the elementwise kernel replaced, kept verbatim."""
    out = 0.0
    for op in np.moveaxis(ops, -3, 0):
        out = out + op @ states @ op.conj().swapaxes(-1, -2)
    return out


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
    return gad_qubit_operators(f, gamma)


@st.composite
def qutrit_kraus(draw, n):
    f = draw(arrays(np.float64, n, elements=unit))
    lam1 = draw(arrays(np.float64, n, elements=unit))
    share = draw(arrays(np.float64, n, elements=unit))
    return gad_qutrit_operators(f, lam1, share * (1.0 - lam1))


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unitary_stroke_carries_the_matmul_bits(data):
    """The engine's stroke, checks included, on states it accepts."""
    d, n = data.draw(dims), data.draw(rows)
    shape = data.draw(st.sampled_from([(d, d), (n, d, d)]))
    u = data.draw(phases(shape))
    rho = data.draw(states(n, d, elements=st.floats(-1.0, 1.0)))
    assert_same_bits_up_to_zero_sign(_unitary_stroke(rho, u), reference_stroke(u, rho))


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
    ops = gad_qutrit_operators(0.3, 0.2, 0.5)
    rho = qr_unitaries(7, (3, 3))
    assert_same_bits(apply_operators(ops, rho), reference_apply(ops, rho))
    for op in ops:
        assert_same_bits_up_to_zero_sign(_matmul(op, rho), op @ rho)
