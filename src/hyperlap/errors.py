"""Exception hierarchy for hyperlap.

Validation and parameter errors subclass ValueError so callers that do not
care about the finer distinctions can catch the usual built-in.
"""


class HyperlapError(Exception):
    """Base class for all hyperlap errors."""


class InvalidHypergraphError(HyperlapError, ValueError):
    """Input edge data violates a hypergraph invariant."""


class SingletonEdgeError(InvalidHypergraphError):
    """An edge has fewer than two vertices."""


class DuplicateEdgeError(InvalidHypergraphError):
    """Two input edges are equal as vertex sets."""


class VertexOutOfRangeError(InvalidHypergraphError):
    """A vertex is not an integer index, or falls outside [0, n)."""


class DuplicateVertexError(InvalidHypergraphError):
    """An edge lists the same vertex more than once."""


class BadParametersError(HyperlapError, ValueError):
    """Generator parameters outside their valid domain."""


class UnsatisfiableError(HyperlapError, ValueError):
    """Requested more distinct random edges than exist."""


class ConvergenceFailureError(HyperlapError, RuntimeError):
    """Eigensolver failed to reduce the off-diagonal within the sweep cap."""


class TooSmallError(HyperlapError, ValueError):
    """Operation requires at least two vertices."""


class NoEdgesError(HyperlapError, ValueError):
    """Operation requires at least one edge."""


class TooLargeError(HyperlapError, ValueError):
    """An input whose predicted bytes for a stage (its n-by-n matrices or
    its subset scan) exceed the budget ``core.MAX_DENSE_BYTES``."""


class DisconnectedError(HyperlapError, ValueError):
    """Operation requires a connected hypergraph."""


class HgParseError(HyperlapError, ValueError):
    """Malformed .hg input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
