"""Uncorrected closed-form variants kept for the --paper-literal mode.

Each function here reproduces a formula variant that disagrees with the
channel algebra the rest of the package is built on. They exist so that
``gadengine validate --paper-literal`` can demonstrate the defect each one
carries; nothing else imports them.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import KrausSet, _build, gad_qutrit
from .engine import QubitEngineConfig, QutritEngineConfig


def gad_qutrit_uncorrected(f_prime: float, lambda1: float, lambda2: float) -> KrausSet:
    """Qutrit GAD with sqrt(f') on the F3 excitation-group diagonal.

    With this prefactor sum(F^dag F) = I fails for every f' != 1/2, so the
    set is not trace preserving. Construction skips the completeness check
    on purpose; compare against channels.gad_qutrit.
    """
    ops = np.array(gad_qutrit(f_prime, lambda1, lambda2, check=False).operators)
    sf = math.sqrt(f_prime)
    ops[3] = np.diag([sf * math.sqrt(max(1.0 - lambda1 - lambda2, 0.0)), sf, sf])
    return _build(3, ops, check=False)


def noncyclic_pe_uncorrected(cfg: QubitEngineConfig) -> float:
    """End-of-cycle excited population with the sign-flipped pg term.

    (1-k) * [(1 - f*gamma)*pe + (f-1)*gamma*pg]: together with the matching
    pg' expression the populations no longer sum to one, so this variant
    cannot come from any trace-preserving channel composition.
    """
    f, g, k = cfg.f, cfg.gamma, cfg.k
    return (1.0 - k) * ((1.0 - f * g) * cfg.initial_pe + (f - 1.0) * g * cfg.initial_pg)


def qutrit_cold_heat_literal(cfg: QutritEngineConfig) -> float:
    """Cold-stroke heat with the mixed-index gap convention left as is.

    (1-f')*p0*[dc01*lam1*k1 + dc12*lam2*k2]
        + k1*p1*(1 - f'*lam1)*dc01 + k2*p2*(1 - f'*lam2)*dc02
    with d_ij = levels[i] - levels[j]. The index pattern is not internally
    consistent (dc12 next to dc01, then dc02), so this generally disagrees
    with the trace-based cold heat of engine.run_qutrit.
    """
    return cold_heat_literal(cfg.initial_p, cfg.f_prime, cfg.lambda1, cfg.lambda2,
                             cfg.k1, cfg.k2, cfg.cold_levels.levels)


def cold_heat_literal(initial_p, fp, lambda1, lambda2, k1, k2, levels):
    """qutrit_cold_heat_literal on scalars or on columns of parameters.

    initial_p and levels are 3-sequences whose entries may be columns.
    """
    dc01 = levels[0] - levels[1]
    dc12 = levels[1] - levels[2]
    dc02 = levels[0] - levels[2]
    p0, p1, p2 = initial_p
    return (
        (1.0 - fp) * p0 * (dc01 * lambda1 * k1 + dc12 * lambda2 * k2)
        + k1 * p1 * (1.0 - fp * lambda1) * dc01
        + k2 * p2 * (1.0 - fp * lambda2) * dc02
    )
