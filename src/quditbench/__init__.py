"""Average-gate-infidelity scalings of noisy qudits and qubit ensembles."""

from types import ModuleType as _ModuleType

from .analytic import (
    c_general,
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
    agi_curve,
    agi_exact,
    agi_first_order,
    agi_kraus,
    agi_monte_carlo,
    collapse_variance,
    haar_variance_monte_carlo,
    process_fidelity,
)
from .fitting import FitResult, deviation_stats, fit_slope, relative_deviation
from .lindblad import (
    DensityMatrix,
    SuperOperator,
    apply_channel,
    dissipator_spectrum,
    liouvillian,
    propagate,
    unitary_superoperator,
)
from .operators import NoiseModel, Operator, identity, spin_plus, spin_xy, spin_z
from .pulses import (
    GrapeResult,
    PulseSchedule,
    grape_optimize,
    grape_optimize_many,
    ladder_controls,
    schedule_to_propagator,
)

# the imports above also bind their submodules, which are not part of the API
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))

__version__ = "0.1.0"
