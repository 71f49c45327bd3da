"""Joint realizability of monotone Boolean functions in switching networks."""

from .boolean_core import (
    ACTIVATING,
    CEILING,
    FLOOR,
    REPRESSING,
    Corner,
    MbfFunction,
    OrderedTuple,
    beta_normalize,
    enumerate_chains,
    enumerate_mbf_positive,
    enumerate_ordered_pairs,
    eta,
    eta_inverse,
    implies,
    is_monotone_positive,
    restrict_and_collapse,
)
from .interaction import (
    KCLASS,
    PISIGMA,
    SIGMA,
    SIGMAPISIGMA,
    InteractionStructure,
    PhiAssignment,
    enumerate_structures,
    parse_structure,
    sum_structure,
)
from .ksystem import (
    Edge,
    KCollection,
    WeightedRegulatoryNetwork,
    build_stg,
    gamma_normalize,
    k_to_mbfs,
    mbfs_to_k,
    phi_k,
    validate_k,
)
from .paramgraph import build_factor, build_parameter_graph
from .realizability import (
    KWitness,
    Verdict,
    Witness,
    check_class,
    check_sigma,
    realize_k,
    search_witness,
    verify_k_witness,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
