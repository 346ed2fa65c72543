"""The numpy landscape fills against scalar loops written out by hand."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadengine import _kernels

F_AXIS = np.linspace(0.0, 1.0, 57)
LAM = -np.expm1(-1.0 * np.linspace(0.0, 2.5, 43))
LAM1 = -np.expm1(-1.0 * np.linspace(0.0, 0.69, 43))
LAM2 = -np.expm1(-0.25 * np.linspace(0.0, 0.69, 43))


def test_numpy_qubit_against_scalar_loop():
    ref = _kernels.qubit_fill(0.9, 0.1, F_AXIS, LAM, -0.5, 0.5)
    for i, f in enumerate(F_AXIS):
        for j, l in enumerate(LAM):
            pe = 0.1 * (1.0 - f * l) + 0.9 * (1.0 - f) * l
            expected = max(0.0, (pe - (1.0 - pe)))
            assert ref[i, j] == pytest.approx(expected, abs=1e-15)


def test_numpy_qutrit_against_scalar_loop():
    ref = _kernels.qutrit_fill(1.0, 0.0, 0.0, F_AXIS, LAM1, LAM2, 0.0, 1.0, 2.0)
    for i, f in enumerate(F_AXIS):
        for j in range(LAM1.size):
            q1 = (1.0 - f) * LAM1[j]
            q2 = (1.0 - f) * LAM2[j]
            q0 = 1.0 - q1 - q2
            active = q1 + 2.0 * q2
            hi, mid, lo = sorted((q0, q1, q2), reverse=True)
            passive = mid + 2.0 * lo
            assert ref[i, j] == pytest.approx(active - passive, abs=1e-14)


def test_values_are_nonnegative():
    vals = _kernels.qubit_fill(1.0, 0.0, F_AXIS, LAM, -0.5, 0.5)
    assert np.all(vals >= 0.0)
    vals = _kernels.qutrit_fill(1.0, 0.0, 0.0, F_AXIS, LAM1, LAM2, 0.0, 1.0, 2.0)
    assert np.all(vals >= 0.0)


def sorted_qutrit_fill(p0, p1, p2, f_axis, lam1, lam2, e0, e1, e2):
    """The qutrit fill as it was before the sorting network: np.sort on a stacked axis."""
    f = f_axis[:, None]
    l1 = lam1[None, :]
    l2 = lam2[None, :]
    q1 = (1.0 - f * l1) * p1 + (1.0 - f) * l1 * p0
    q2 = (1.0 - f * l2) * p2 + (1.0 - f) * l2 * p0
    q0 = 1.0 - q1 - q2
    active = e0 * q0 + e1 * q1 + e2 * q2
    srt = np.sort(np.stack((q0, q1, q2), axis=-1), axis=-1)
    passive = e0 * srt[..., 2] + e1 * srt[..., 1] + e2 * srt[..., 0]
    return active - passive


unit = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
axis = st.lists(unit, min_size=1, max_size=12).map(lambda v: np.array(v))


@st.composite
def qutrit_inputs(draw):
    weights = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) for _ in range(3)]
    total = sum(weights)
    pops = [w / total for w in weights] if total > 0.0 else [1.0, 0.0, 0.0]
    lam1 = draw(axis)
    # lambda2 <= 1 - lambda1 keeps every grid time feasible
    lam2 = (1.0 - lam1) * np.array(draw(st.lists(unit, min_size=lam1.size,
                                                 max_size=lam1.size)))
    e0 = draw(st.floats(-50.0, 50.0))
    e1 = e0 + draw(st.floats(1e-6, 50.0))
    e2 = e1 + draw(st.floats(1e-6, 50.0))
    return (*pops, draw(axis), lam1, lam2, e0, e1, e2)


@settings(max_examples=300, deadline=None)
@given(qutrit_inputs())
def test_qutrit_sorting_network_matches_sort_bitwise(args):
    got = _kernels.qutrit_fill(*args)
    expected = sorted_qutrit_fill(*args)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
