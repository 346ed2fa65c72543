"""The engine's two energy ledgers and the identity between them.

The non-cyclic qubit charges delta_w, the hot-gap cost of re-preparing its
initial populations, to its cold heat; the qutrit books the cold contact's
own energy change. On a qubit run the two differ by
(pe_end - pe0)(dh - dc). A qutrit with nothing in its top level runs the
qubit's strokes bit for bit and books them on the second ledger.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gadengine.engine import qubit_cycles, qutrit_cycles
from gadengine.states import energies

EPS = np.finfo(float).eps
unit = st.floats(0.0, 1.0)
gap = st.floats(0.01, 50.0)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(bits(got), bits(want))


@st.composite
def qubit_columns(draw):
    """pg, f, gamma, k, dh, dc as columns of one length."""
    n = draw(st.integers(1, 16))
    return tuple(draw(arrays(np.float64, n, elements=e)) for e in [unit] * 4 + [gap] * 2)


def balance(report, dc):
    """q_hot + (E_c(rho_end) - E_c(rho_hot)): the qutrit's ledger applied to a qubit run."""
    _, rho_hot, rho_end = report.states
    h_cold = np.stack(np.broadcast_arrays(0.0, dc), axis=-1)
    return report.q_hot + (energies(rho_end, h_cold) - energies(rho_hot, h_cold))


def populations(states):
    return np.diagonal(states, axis1=-2, axis2=-1).real


@settings(max_examples=25, deadline=None)
@given(qubit_columns())
def test_noncyclic_qubit_ledgers_differ_by_the_identity(columns):
    pg, f, gamma, k, dh, dc = columns
    rep = qubit_cycles(pg, f, gamma, k, dh, dc, cyclic=False)
    pe0 = populations(rep.states[0])[..., 1]
    pe_end = populations(rep.states[2])[..., 1]
    residual = rep.work - balance(rep, dc) - (pe_end - pe0) * (dh - dc)
    assert np.all(np.abs(residual) <= 4 * EPS * (dh + dc))


@settings(max_examples=25, deadline=None)
@given(qubit_columns(), st.data())
def test_qutrit_with_an_empty_top_level_runs_the_qubit(columns, data):
    pg, f, gamma, k, dh, dc = columns
    zeros = np.zeros_like(pg)
    top_hot, top_cold = (data.draw(arrays(np.float64, pg.size, elements=gap)) for _ in range(2))
    qubit = qubit_cycles(pg, f, gamma, k, dh, dc, cyclic=False)
    qutrit = qutrit_cycles(np.stack([pg, 1.0 - pg, zeros], axis=-1), f, gamma, zeros, k, zeros,
                           np.stack([zeros, dh, dh + top_hot], axis=-1),
                           np.stack([zeros, dc, dc + top_cold], axis=-1))
    for name in ("q_hot", "redistribution_work", "deviation"):
        assert_same_bits(getattr(qutrit, name), getattr(qubit, name))
    end = populations(qutrit.states[2])
    assert_same_bits(end[..., :2], populations(qubit.states[2]))
    assert not np.any(end[..., 2])
    assert_same_bits(qutrit.work, balance(qubit, dc))
