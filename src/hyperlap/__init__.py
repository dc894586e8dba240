"""Laplacian spectra and spectral bounds for non-uniform hypergraphs.

A hypergraph on [0, n) is represented through its weighted clique
expansion; the Laplacian is L = diag(delta) - A.  The package computes the
spectrum with a self-contained solver (eigenvalues by Sturm multisection,
eigenvectors on demand), evaluates the classical eigenvalue bounds and the
cut sandwich bounds, and can batch-verify all of them on generated
families and seeded random instances.
"""

from ._kernels import backend, warm_up
from .analysis import Analysis, analyze, analyze_stream
from .bounds import (
    BoundReport,
    EdgeDegreeSumCheck,
    check_edge_degree_sum,
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
    boundary_sandwich,
    connectivity_summary,
    edge_boundary,
    fiedler_sweep,
    isoperimetric,
    max_cut,
)
from .errors import (
    BadParametersError,
    ConvergenceFailureError,
    DisconnectedError,
    DuplicateEdgeError,
    DuplicateVertexError,
    HgParseError,
    HyperlapError,
    InvalidHypergraphError,
    NoEdgesError,
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
from .spectral import Spectrum, eigendecompose, eigendecompose_stack
from .verify import (
    CheckResult,
    RecordedClaim,
    VerifyReport,
    random_battery,
    varied_battery,
    verify_instances,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AnalyticSpectrum",
    "BadParametersError",
    "BoundReport",
    "CheckResult",
    "ConnectivitySummary",
    "ConvergenceFailureError",
    "CutReport",
    "DegreeProfile",
    "DisconnectedError",
    "DuplicateEdgeError",
    "DuplicateVertexError",
    "EdgeDegreeSumCheck",
    "HgParseError",
    "Hypergraph",
    "HyperlapError",
    "InvalidHypergraphError",
    "NoEdgesError",
    "RecordedClaim",
    "SingletonEdgeError",
    "Spectrum",
    "SplitMix64",
    "TooLargeError",
    "TooSmallError",
    "UnsatisfiableError",
    "VerifyReport",
    "VertexOutOfRangeError",
    "adjacency_matrix",
    "analyze",
    "analyze_stream",
    "backend",
    "boundary_sandwich",
    "check_edge_degree_sum",
    "complete_kgraph",
    "complete_kgraph_spectrum",
    "complete_kpartite",
    "complete_kpartite_spectrum",
    "connected_components",
    "connectivity_summary",
    "degree_profile",
    "dump",
    "dumps",
    "edge_boundary",
    "eigendecompose",
    "eigendecompose_stack",
    "fiedler_sweep",
    "isoperimetric",
    "load",
    "loads",
    "max_cut",
    "random_battery",
    "random_hypergraph",
    "star_eigenvector_basis",
    "star_kgraph",
    "star_kgraph_spectrum",
    "varied_battery",
    "verify_instances",
    "warm_up",
]
