"""Grid-fill kernels behind the ergotropy landscapes.

One extractable-work evaluation per (f, t) cell, vectorized with numpy over
the whole grid. Inputs are the initial populations, the f axis, precomputed
damping arrays lambda(t) and the energy levels. The CSV digests pin the
bits these fills produce, so their arithmetic and its order are fixed.
"""

from __future__ import annotations

import numpy as np


def qubit_fill(pg0, pe0, f_axis, lam, e0, e1):
    """Qubit extractable work on the (f_axis, lam) grid."""
    f = f_axis[:, None]
    l = lam[None, :]
    pe = pe0 * (1.0 - f * l) + pg0 * (1.0 - f) * l
    pg = 1.0 - pe
    d = pe - pg
    return np.where(d > 0.0, (e1 - e0) * d, 0.0)


def qutrit_fill(p0, p1, p2, f_axis, lam1, lam2, e0, e1, e2):
    """Qutrit extractable work on the (f_axis, lam1/lam2) grid."""
    f = f_axis[:, None]
    l1 = lam1[None, :]
    l2 = lam2[None, :]
    q1 = (1.0 - f * l1) * p1 + (1.0 - f) * l1 * p0
    q2 = (1.0 - f * l2) * p2 + (1.0 - f) * l2 * p0
    q0 = 1.0 - q1 - q2
    active = e0 * q0 + e1 * q1 + e2 * q2
    # a three-input sorting network: the same values as a sort along a
    # stacked axis, without the two (..., 3) copies
    lo, hi = np.minimum(q0, q1), np.maximum(q0, q1)
    mid, hi = np.minimum(hi, q2), np.maximum(hi, q2)
    lo, mid = np.minimum(lo, mid), np.maximum(lo, mid)
    passive = e0 * hi + e1 * mid + e2 * lo
    return active - passive
