"""quditphase: phase-space methods for qudits.

Dense Heisenberg-Weyl and Clifford operators, the Hermitian O_{l,m}
operator basis with its exact Z_{2d} Clifford covariance, magic measures
built on quasiprobability coefficients, GKP lattice-coefficient norms,
a quasiprobability Monte-Carlo Born estimator, and a weak homodyne
simulator for GKP codewords under Gaussian circuits.
"""

from .core import (
    DEFAULT_DIM_CAP,
    DIM_CAP_ENV_VAR,
    SAMPLE_CAP,
    DenseOperator,
    DensityState,
    DimensionCapError,
    GateKind,
    InvariantError,
    QuditError,
    QuditSystem,
    ValidationError,
    clifford_generator,
    computational_state,
    conjugate_by,
    embed_generator,
    maximally_mixed,
    plus_state,
    pure_density,
    t_state,
)
from .basis import (
    Domain,
    EvenDimensionError,
    PhasePoint,
    SymplecticAffineMap,
    clifford_coordinate_action,
    o_operator,
    o_trace,
    reduce_full_point,
)
from .measures import (
    QuasiDistribution,
    characteristic_fn,
    discrete_wigner,
    haar_random_state,
    is_hyperpolyhedral,
    lp_norm,
    magic_negativity,
    stabilizer_renyi,
    x_distribution,
)
from .stabilizer import (
    StabilizerGroup,
    enumerate_single_qudit_groups,
    enumerate_single_qudit_stabilizers,
    format_generator_lines,
    parse_generator_lines,
    stabilizer_state,
    stabilizer_x_sparse,
)
from .gkp import (
    GkpKind,
    GkpLatticeCoefficients,
    cell_lp_norm,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    renyi_from_cell_norms,
    stabilizer_cell_norm,
    verify_theorem1,
    verify_theorem2,
)
from .sampling import (
    CircuitDescription,
    EstimateReport,
    MeasurementEffect,
    MeasurementKind,
    estimate_born,
    estimate_born_char,
    forward_norm,
    sample_count,
)
from .homodyne import (
    GaussianCircuit,
    HomodyneBatch,
    HomodyneSample,
    logical_clifford_symplectic,
    pseudo_probability_report,
    simulate_homodyne_batch,
)

__version__ = "0.1.0"
