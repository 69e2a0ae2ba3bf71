"""Average-gate-infidelity scalings of noisy qudits and qubit ensembles."""

from .analytic import (
    c_general,
    c_heterogeneous,
    c_qubits_dephasing,
    c_qudit_dephasing,
    c_qudits_dephasing,
    critical_ratio,
    max_advantageous_dimension,
    naive_ratio,
)
from .channels import KrausSet, kraus_first_order, kraus_multi, perturbative_expansion
from .fidelity import (
    HaarSampler,
    agi_dephasing,
    agi_exact,
    agi_kraus,
    agi_monte_carlo,
    collapse_variance,
    haar_unitary,
    haar_variance_monte_carlo,
    process_fidelity,
    process_from_average,
    state_fidelity,
)
from .fitting import DeviationStats, FitResult, deviation_stats, fit_slope, relative_deviation
from .lindblad import (
    DensityMatrix,
    SuperOperator,
    apply_channel,
    choi_matrix,
    dephasing_exponents,
    liouvillian,
    propagate,
    rk4_propagate,
    unitary_superoperator,
)
from .operators import NoiseModel, Operator, embed_site, identity, spin_plus, spin_xy, spin_z
from .pulses import (
    ControlBasis,
    GrapeResult,
    PulseSchedule,
    gate_infidelity,
    grape_optimize,
    schedule_to_propagator,
    schedule_unitary,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
