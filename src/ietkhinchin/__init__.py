"""Exact interval exchange dynamics, Rauzy diagram combinatorics, and
Monte Carlo experiments for homogeneous approximation of connections."""

__version__ = "0.1.0"

from .combinat import (
    Arrow,
    Path,
    Permutation,
    RauzyClass,
    all_classes,
    find_standard,
    is_admissible,
    is_complete,
    is_neat,
    is_positive,
    parse_permutation,
    path_from_types,
    rauzy_class,
    rauzy_op,
)
from .errors import (
    AlgorithmStopped,
    ConstructionFailed,
    NotDetected,
    PrecisionExhausted,
    StepBudgetExhausted,
)
from .iet import (
    EXACT,
    FLOAT,
    IET,
    Triple,
    has_connection_up_to,
    iet_type,
    is_reduced_triple,
    sample_iet,
    singularities,
    w_vectors,
)
from .induction import InductionState, iterate, normalized_step, path_of, zorich_step
from .matrices import (
    arrow_matrix,
    conditional_probability,
    path_matrix,
    q_vector,
    simplex_volume,
)
