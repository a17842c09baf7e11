"""isingexact: cross-validated exact solutions of the Ising model.

Every closed-form method (1D chain formulas, finite-torus spectral
products, Pfaffian/dimer machinery, thermodynamic-limit integrals,
star-triangle/elliptic correlations) is implemented independently and
checked against a shared brute-force enumeration oracle.
"""

from .core import (
    K_CRIT,
    CapacityError,
    DomainError,
    LatticeSpec,
    MatchingWeights,
    MethodResult,
    ReducedCouplings,
    SelfCheckError,
    dual_coupling,
)
from .oracle import (
    WeightedGraph,
    build_lattice_graph,
    count_matchings,
    count_matchings_dp,
    enumerate_partition_graph,
)
from .chain1d import ChainParams, induction_closed, recursive_open, transfer_closed
from .transfer2d import build_transfer, log_z_torus, partition_torus_transfer
from .spectral import (
    GridParity,
    dimer_count_free,
    gamma_spectrum,
    kacward_log_z,
    kacward_products,
    kaufman_partition,
    triangular_log_z_per_site,
)
from .pfaffian import (
    build_dimer_matrix,
    dimer_count_torus,
    ising_pfaffian_torus,
    pfaffian,
    pfaffian_value,
)
from .thermo import (
    QuadratureSpec,
    critical_point_square,
    dirac_free_energy,
    fermionic_free_energy,
    internal_energy,
    onsager_free_energy,
    specific_heat,
    triangular_free_energy,
)
from .startriangle import (
    EllipticPair,
    StarTriangleMap,
    ab_coefficients,
    complete_elliptic,
    correlation_f,
    modulus_k,
    square_lattice_energy,
    star_to_triangle,
)

__all__ = [
    "K_CRIT", "CapacityError", "DomainError", "LatticeSpec", "MethodResult",
    "ReducedCouplings", "SelfCheckError", "dual_coupling",
    "MatchingWeights", "WeightedGraph", "build_lattice_graph",
    "count_matchings", "count_matchings_dp", "enumerate_partition_graph",
    "ChainParams", "induction_closed", "recursive_open", "transfer_closed",
    "build_transfer", "log_z_torus", "partition_torus_transfer",
    "GridParity", "dimer_count_free", "gamma_spectrum",
    "kacward_log_z", "kacward_products", "kaufman_partition",
    "triangular_log_z_per_site",
    "build_dimer_matrix", "dimer_count_torus", "ising_pfaffian_torus",
    "pfaffian", "pfaffian_value",
    "QuadratureSpec", "critical_point_square", "dirac_free_energy",
    "fermionic_free_energy", "internal_energy", "onsager_free_energy",
    "specific_heat", "triangular_free_energy",
    "EllipticPair", "StarTriangleMap", "ab_coefficients", "complete_elliptic",
    "correlation_f", "modulus_k", "square_lattice_energy", "star_to_triangle",
]

__version__ = "0.1.0"
