"""Exception hierarchy for the trisurf package.

Every failure mode that corresponds to a violated combinatorial
precondition gets its own class so callers (and the CLI) can name the
reason precisely instead of pattern-matching message strings.
"""

from __future__ import annotations


class TriangulationError(ValueError):
    """Base class for all combinatorial errors raised by trisurf."""


class ParseError(TriangulationError):
    """A face-list file could not be tokenised (bad line syntax)."""


class InvalidFace(TriangulationError):
    """A face does not consist of three distinct vertices."""


class EmptyComplex(TriangulationError):
    """A triangulation needs at least one face."""


class DuplicateFace(TriangulationError):
    """The same vertex triple occurs more than once."""


class NonSurfaceEdge(TriangulationError):
    """An edge is shared by three or more faces."""


class PinchedVertex(TriangulationError):
    """A vertex whose link is not a single path or a single cycle."""


class Disconnected(TriangulationError):
    """The complex has more than one connected component."""


class NotBordered(TriangulationError):
    """Operation requires exactly one boundary cycle."""


class NotClosed(TriangulationError):
    """Operation requires a closed complex (no boundary)."""


class ResultNotSurface(TriangulationError):
    """A star removal would leave a complex violating the invariants."""


class NotACorner(TriangulationError):
    """The given vertices do not form a corner of the triangulation."""


class AmbiguousArc(TriangulationError):
    """Corner with coinciding cut edges; the two arcs are undefined."""


class NotBoundaryVertex(TriangulationError):
    """Truncated splitting requires a boundary vertex."""


class UnknownEdge(TriangulationError):
    """The given vertex pair is not an edge of the triangulation."""


class RodEdge(TriangulationError):
    """Refusal to shrink an unshrinkable edge.

    The ``impediments`` attribute records which shrinkability conditions
    blocked the move.
    """

    def __init__(self, edge, impediments):
        self.edge = tuple(edge)
        self.impediments = frozenset(impediments)
        names = ", ".join(sorted(i.value for i in self.impediments))
        super().__init__(f"edge {self.edge[0]}-{self.edge[1]} is a rod ({names})")


class NotIrreducible(TriangulationError):
    """Operation is only defined for irreducible triangulations."""


class MixedSurfaceKinds(TriangulationError):
    """Seed triangulations must all live on the same surface."""


class CeilingExceeded(TriangulationError):
    """Requested exhaustive enumeration order is above the ceiling."""


class IncomparableCatalogs(TriangulationError):
    """Catalogs differ in surface kind or order range."""


class IncompleteCatalog(TriangulationError):
    """The pipeline needs a complete catalog for the requested orders."""
