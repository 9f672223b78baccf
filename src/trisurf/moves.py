"""Splitting and shrinking moves and the edge shrinkability classification.

An edge is *shrinkable* (a cable) when collapsing it to a vertex leaves a
triangulation of the same surface, and *unshrinkable* (a rod) otherwise.
Four impediments characterise the rods:

* ``NONFACIAL_TRIANGLE`` - the edge lies in a 3-cycle of the graph that
  does not bound a face (collapsing would create a multiple edge);
* ``CHORD`` - both endpoints are boundary vertices but the edge is not a
  boundary edge (collapsing would pinch the boundary);
* ``BOUNDARY_TRIANGLE`` - the edge is a boundary edge and its boundary
  cycle is a 3-cycle (collapsing would squash the boundary to a digon);
* ``MINIMAL`` - the complex is closed on 4 vertices, the tetrahedron
  (collapsing would fold both faces of the edge onto the opposite one).

Each impediment is one edge set cached on the ``Triangulation`` value:
``nonfacial_edges``, ``chords``, ``boundary_triangle_edges`` and
``minimal_edges``.  The cables are the edges outside all four
(``tri.cables``), and
:func:`classify_edge` reports an edge's membership in each.  Edge ``uv``
lies in a nonfacial 3-cycle exactly when ``u`` and ``v`` have more common
neighbours than ``uv`` has faces, since each face ``uvw`` accounts for
exactly one common neighbour ``w``; on a closed complex this is the link
condition for edge contraction (Dey, Edelsbrunner, Guha & Nekhayev,
1999).

Splitting is the inverse construction: a corner split cuts the star of a
vertex open along two edges and closes the slit with two new faces; a
truncated split cuts along one edge of a boundary vertex, letting the cut
escape through the boundary, and inserts a single new face.  The fresh
edge created by a split is always a cable and shrinking it restores the
original triangulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .complex_core import Edge, Triangulation, build
from .errors import (
    AmbiguousArc,
    Disconnected,
    DuplicateFace,
    EmptyComplex,
    NonSurfaceEdge,
    NotACorner,
    NotBoundaryVertex,
    ParseError,
    PinchedVertex,
    ResultNotSurface,
    RodEdge,
    UnknownEdge,
)


class Impediment(enum.Enum):
    """Reasons an edge cannot be shrunk."""

    NONFACIAL_TRIANGLE = "nonfacial-triangle"
    CHORD = "chord"
    BOUNDARY_TRIANGLE = "boundary-triangle"
    MINIMAL = "minimal"


@dataclass(frozen=True)
class EdgeClassification:
    edge: Edge
    impediments: frozenset[Impediment]

    @property
    def is_cable(self) -> bool:
        return not self.impediments

    @property
    def verdict(self) -> str:
        return "cable" if self.is_cable else "rod"


@dataclass(frozen=True)
class Corner:
    """Unordered pair of distinct edges ``vu``, ``vw`` at vertex ``v``."""

    v: int
    u: int
    w: int

    def descriptor(self) -> str:
        return f"sp {self.v} {self.u} {self.w} a"


@dataclass(frozen=True)
class TruncatedCorner:
    """Edge ``vu`` at a boundary vertex ``v``; the cut runs out through ``v``."""

    v: int
    u: int

    def descriptor(self) -> str:
        return f"spt {self.v} {self.u}"


def classify_edge(tri: Triangulation, edge: Edge) -> EdgeClassification:
    """The impediments that make one edge a rod (none for a cable).

    Each impediment is a membership test on an edge set cached on the
    value (``tri.nonfacial_edges``, ``tri.chords``,
    ``tri.boundary_triangle_edges``, ``tri.minimal_edges``);
    ``tri.cables`` is the edges outside all four, so this and the cables
    never disagree.
    """
    e = (min(edge), max(edge))
    if e not in tri.edge_faces:
        raise UnknownEdge(f"{e[0]}-{e[1]} is not an edge")
    rods = (
        (Impediment.NONFACIAL_TRIANGLE, tri.nonfacial_edges),
        (Impediment.CHORD, tri.chords),
        (Impediment.BOUNDARY_TRIANGLE, tri.boundary_triangle_edges),
        (Impediment.MINIMAL, tri.minimal_edges),
    )
    return EdgeClassification(
        edge=e,
        impediments=frozenset(imp for imp, edges in rods if e in edges),
    )


def cable_subgraph(tri: Triangulation) -> frozenset[Edge]:
    """The set of shrinkable edges, cached on the value as ``tri.cables``."""
    return tri.cables


def is_irreducible(tri: Triangulation) -> bool:
    """True iff the triangulation is free of cables."""
    return not cable_subgraph(tri)


def corners(tri: Triangulation) -> list[Corner]:
    """All corners, ordered by (v, u, w)."""
    result = []
    for v in range(tri.order):
        nbrs = tri.neighbors[v]
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                result.append(Corner(v=v, u=u, w=w))
    return result


def truncated_corners(tri: Triangulation) -> list[TruncatedCorner]:
    """All truncated corners (boundary vertex, incident edge)."""
    result = []
    for v in sorted(tri.boundary_vertices):
        for u in tri.neighbors[v]:
            result.append(TruncatedCorner(v=v, u=u))
    return result


def _star_positions(tri: Triangulation, v: int, x: int) -> int:
    link = tri.links[v]
    try:
        return link.sequence.index(x)
    except ValueError:
        raise NotACorner(f"{x} is not adjacent to {v}") from None


def split_corner(tri: Triangulation, corner: Corner) -> Triangulation:
    """Cut the star of ``v`` open along ``vu`` and ``vw``; close with two faces.

    The faces on the arc from ``u`` to ``w`` (walking the stored link
    orientation; for a boundary vertex, from the smaller link position to
    the larger) move to the fresh vertex, the remaining faces keep ``v``,
    and the faces ``{v, v', u}`` and ``{v, v', w}`` fill the slit.  The
    choice of arc only renames the two copies of ``v``, so the result is
    well defined up to isomorphism.
    """
    v, u, w = corner.v, corner.u, corner.w
    if u == w:
        raise AmbiguousArc("corner needs two distinct edges")
    if not (0 <= v < tri.order):
        raise NotACorner(f"vertex {v} does not exist")
    iu = _star_positions(tri, v, u)
    iw = _star_positions(tri, v, w)
    link = tri.links[v]
    arcs = link.face_arcs()
    fresh = tri.order

    if link.is_cycle:
        d = len(arcs)
        moved = {i % d for i in range(iu, iu + (iw - iu) % d)}
    else:
        lo, hi = min(iu, iw), max(iu, iw)
        moved = set(range(lo, hi))

    new_faces = []
    for face in tri.faces:
        if v not in face:
            new_faces.append(face)
    for i, (x, y) in enumerate(arcs):
        center = fresh if i in moved else v
        new_faces.append((center, x, y))
    new_faces.append((v, fresh, u))
    new_faces.append((v, fresh, w))
    return build(new_faces)


def split_truncated(tri: Triangulation, corner: TruncatedCorner) -> Triangulation:
    """Cut along ``vu`` at boundary vertex ``v``; insert one face ``{u, v, v'}``.

    The faces on the far side of the smaller link-path endpoint move to
    the fresh vertex; the new edge between the two copies of ``v`` is a
    boundary edge, so the boundary cycle grows by one.
    """
    v, u = corner.v, corner.u
    if not (0 <= v < tri.order) or v not in tri.boundary_vertices:
        raise NotBoundaryVertex(f"vertex {v} is not a boundary vertex")
    if not tri.has_edge(v, u):
        raise UnknownEdge(f"{v}-{u} is not an edge")
    link = tri.links[v]
    arcs = link.face_arcs()
    cut = link.sequence.index(u)
    fresh = tri.order
    new_faces = []
    for face in tri.faces:
        if v not in face:
            new_faces.append(face)
    for i, (x, y) in enumerate(arcs):
        center = v if i < cut else fresh
        new_faces.append((center, x, y))
    new_faces.append((u, v, fresh))
    return build(new_faces)


def shrink_edge(tri: Triangulation, edge: Edge) -> Triangulation:
    """Collapse a cable to a single vertex (the smaller endpoint id).

    The one or two faces incident with the edge collapse to edges.
    Raises :class:`RodEdge` with the blocking impediments when the edge
    is unshrinkable, and :class:`ResultNotSurface` when the collapse is
    not a surface complex.
    """
    verdict = classify_edge(tri, edge)
    if not verdict.is_cable:
        raise RodEdge(verdict.edge, verdict.impediments)
    a, b = verdict.edge
    new_faces = []
    for face in tri.faces:
        if a in face and b in face:
            continue
        new_faces.append(tuple(a if x == b else x for x in face))
    try:
        return build(new_faces)
    except (
        DuplicateFace, EmptyComplex, PinchedVertex, Disconnected, NonSurfaceEdge
    ) as exc:
        raise ResultNotSurface(f"shrinking {a}-{b}: {exc}") from exc


def all_splits(
    tri: Triangulation,
) -> list[tuple[Corner | TruncatedCorner, Triangulation]]:
    """Every splitting of the triangulation, with its descriptor.

    One result per corner, plus one per truncated corner when the complex
    is bordered; deterministic order (corners first, then truncated, each
    sorted by vertex ids).
    """
    results: list[tuple[Corner | TruncatedCorner, Triangulation]] = []
    for corner in corners(tri):
        results.append((corner, split_corner(tri, corner)))
    for tcorner in truncated_corners(tri):
        results.append((tcorner, split_truncated(tri, tcorner)))
    return results


def parse_descriptor(text: str) -> Corner | TruncatedCorner | Edge:
    """Parse a provenance descriptor (``sp v u w a`` / ``spt v u`` / ``sh a b``)."""
    tokens = text.split()
    try:
        if tokens[0] == "sp" and len(tokens) == 5 and tokens[4] == "a":
            return Corner(v=int(tokens[1]), u=int(tokens[2]), w=int(tokens[3]))
        if tokens[0] == "spt" and len(tokens) == 3:
            return TruncatedCorner(v=int(tokens[1]), u=int(tokens[2]))
        if tokens[0] == "sh" and len(tokens) == 3:
            return (int(tokens[1]), int(tokens[2]))
    except (IndexError, ValueError):
        pass
    raise ParseError(f"bad operation descriptor: {text!r}")


def apply_descriptor(tri: Triangulation, descriptor: str) -> Triangulation:
    """Replay a serialised operation descriptor against a triangulation."""
    op = parse_descriptor(descriptor)
    if isinstance(op, Corner):
        return split_corner(tri, op)
    if isinstance(op, TruncatedCorner):
        return split_truncated(tri, op)
    return shrink_edge(tri, op)
