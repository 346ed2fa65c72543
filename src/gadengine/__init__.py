"""Qubit and qutrit heat engines driven by generalized-amplitude-damping channels.

Exact Kraus-map simulation of the four-stroke protocol, closed-form
cross-checks for every heat/work quantity, passive-state ergotropy, and
deterministic sweep/CSV tooling behind the ``gadengine`` CLI.
"""

from .channels import (
    DampingSchedule,
    KrausSet,
    ad_qubit,
    apply,
    fixed_point,
    gad_qubit,
    gad_qubit_populations,
    gad_qutrit,
    gad_qutrit_populations,
)
from .engine import (
    CycleReport,
    QubitEngineConfig,
    QutritEngineConfig,
    ReservoirBaseline,
    WorkThreshold,
    cold_stroke_heat,
    cycle_work,
    efficiency,
    hot_stroke_heat,
    max_cycle_work,
    noncyclic_deviation,
    noncyclic_populations,
    positive_work_threshold,
    qutrit_hot_heat,
    redistribution_work,
    reservoir_baseline,
    run_cyclic_qubit,
    run_noncyclic_qubit,
    run_qutrit,
)
from .ergotropy import (
    ErgotropyGrid,
    LandscapeDifference,
    PassiveDecomposition,
    ergotropy,
    ergotropy_landscape,
    landscape_difference,
    passive_state,
    populations_at_time,
)
from .errors import (
    AxisMismatchError,
    BadDimensionError,
    DimensionMismatchError,
    GadEngineError,
    InfeasibleDampingError,
    NoHeatAbsorbedError,
    NonNormalizedError,
    NoUniqueFixedPointError,
    OutOfRangeError,
    UnknownPresetError,
)
from .states import (
    DensityMatrix,
    Hamiltonian,
    StateValidation,
    energy,
    hs_distance,
    make_diagonal_state,
    validate,
)
from .sweeps import (
    SeriesAxis,
    SweepSpec,
    SweepTable,
    SweptAxis,
    emit_csv,
    preset,
    run_sweep,
)
from .validation import validate_all

__version__ = "0.1.0"
