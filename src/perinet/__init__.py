"""Lattice-periodic networks of fixed degree.

Models n-periodic networks as shift-labeled quotient graphs, builds the
known minimizers exactly, minimizes the length quotient L^n/V
numerically, and verifies the sharp lower bounds together with their
equality configurations.
"""

from .netcore import (
    DIRECTION_TOL,
    Lattice,
    PeriodicNetwork,
    QuotientGraph,
    ValidityReport,
    edge_vector,
    edge_vectors,
    edge_lengths,
    length,
    length_quotient,
    scaled,
    validate,
    volume,
    with_positions,
)
from .balance import (
    ForceResult,
    force,
    force_all,
    geometric_median,
    is_balanced,
    lifted_neighbours,
    rebalance_vertex,
)
from .topology import (
    TopologyClass,
    build_abstract,
    classify,
    min_vertex_count,
)
from .construct import (
    CATALOG_NAMES,
    CatalogEntry,
    catalog,
    construct_bouquet,
    construct_even_two_vertex,
    construct_odd,
    regular_simplex_vertices,
)
from .bounds import (
    BoundReport,
    PyramidInstance,
    bound_dipole,
    bound_degree3d,
    bound_even,
    check_pyramid,
    check_simplex,
    dipole5_coefficients,
    monotonicity_table,
    stress_bound,
    verify,
)
from .optimize import (
    OptimizeConfig,
    OptimizeResult,
    minimize_fixed_shifts,
    minimize_topology,
    objective_and_gradient,
    random_network,
)
from .io import export_obj, network_from_json, network_to_json, read_network, write_network

__version__ = "0.1.0"
