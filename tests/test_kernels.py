"""The numpy landscape fills against scalar loops written out by hand."""

import numpy as np
import pytest

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
