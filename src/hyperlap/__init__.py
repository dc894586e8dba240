"""Laplacian spectra and spectral bounds for non-uniform hypergraphs.

A hypergraph on [0, n) is represented through its weighted clique
expansion; the Laplacian is L = diag(delta) - A.  The package computes the
spectrum with a self-contained Jacobi solver, evaluates the classical
eigenvalue bounds and the cut sandwich bounds, and can batch-verify all of
them on generated families and seeded random instances.
"""

from ._kernels import backend, warm_up
from .analysis import Analysis, analyze
from .bounds import (
    BoundReport,
    EdgeDegreeSumCheck,
    NeighborhoodProfile,
    all_bounds,
    bound_delta_pair_sum,
    bound_twice_max_delta,
    bound_zhu_nonuniform,
    bound_zhu_uniform,
    check_edge_degree_sum,
    neighborhood_profile,
    zhu_generic_bound,
)
from .core import (
    DegreeProfile,
    Hypergraph,
    adjacency_matrix,
    connected_components,
    degree_profile,
)
from .cuts import (
    ConnectivitySummary,
    CutReport,
    boundary_quadratic,
    boundary_sandwich,
    connectivity_summary,
    edge_boundary,
    edge_contribution,
    edge_density_bounds,
    fiedler_sweep,
    isoperimetric,
    max_cut,
)
from .errors import (
    BadParametersError,
    BadWeightFunctionError,
    ConvergenceFailureError,
    DegenerateSubsetError,
    DisconnectedError,
    DuplicateEdgeError,
    DuplicateVertexError,
    HgParseError,
    HyperlapError,
    InvalidHypergraphError,
    NoEdgesError,
    NotUniformError,
    SingletonEdgeError,
    TooLargeError,
    TooSmallError,
    UnsatisfiableError,
    VertexOutOfRangeError,
)
from .generators import (
    AnalyticSpectrum,
    SplitMix64,
    complete_kgraph,
    complete_kgraph_spectrum,
    complete_kpartite,
    complete_kpartite_spectrum,
    random_hypergraph,
    star_eigenvector_basis,
    star_kgraph,
    star_kgraph_spectrum,
)
from .hgio import dump, dumps, load, loads
from .spectral import (
    Spectrum,
    eigendecompose,
    fiedler_vector,
    lambda2,
    lambda_n,
    spectral_component_count,
)
from .verify import (
    CheckResult,
    RecordedClaim,
    VerifyReport,
    random_battery,
    varied_battery,
    verify_instances,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
