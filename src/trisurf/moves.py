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

Splitting is the inverse construction.  Both kinds move the faces on one
arc of a vertex's star (one run of consecutive positions in its link) to
a fresh vertex and close the cut with a face per cut edge: a corner split
cuts the star open along two edges and closes the slit with two new
faces; a truncated split cuts along one edge of a boundary vertex,
letting the cut escape through the boundary, and inserts a single new
face.  The fresh edge created by a split is always a cable and shrinking
it restores the original triangulation.

A vertex permutation ``p`` maps a split descriptor to its *image*: the
corner ``(v, u, w)`` to the one at ``p[v]`` between ``p[u]`` and ``p[w]``,
the truncated corner ``(v, u)`` to the one at ``p[v]`` along the edge to
``p[u]``.  :func:`all_splits` writes each image as a plain tuple:
``(p[v], min(p[u], p[w]), max(p[u], p[w]))`` for a corner, ``(p[v], p[u])``
for a truncated corner.  Under an automorphism of the complex the image's
split is isomorphic to the original's: the automorphism carries the cut
star onto the cut star at the image, and either arc of a corner, or
either side of a truncated cut, gives the same child up to swapping the
two copies of the vertex.  So the descriptors of one orbit of the
automorphism group have isomorphic children, and :func:`all_splits`
builds one child per orbit, the orbit step of McKay's isomorph rejection
(McKay 1998).
"""

from __future__ import annotations

import enum
from collections.abc import Collection
from dataclasses import dataclass

from .canon import automorphisms
from .complex_core import Edge, Face, Triangulation, build
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


def classify_edge(tri: Triangulation, edge: Edge) -> frozenset[Impediment]:
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
    return frozenset(imp for imp, edges in rods if e in edges)


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


def _split_star(
    tri: Triangulation, v: int, moved: Collection[int], ends: tuple[int, ...]
) -> list[Face]:
    """The faces after giving a fresh vertex the faces of the star of ``v``
    at the link positions ``moved`` and closing the cut with a face
    ``{v, v', x}`` for each ``x`` in ``ends``.

    Position ``i`` is the face of ``v`` on link entries ``i`` and ``i + 1``,
    wrapping around when the link is a cycle.  Faces that avoid ``v`` are
    copied.
    """
    link = tri.links[v]
    after = link[1:] if v in tri.boundary_vertices else link[1:] + link[:1]
    fresh = tri.order
    new_faces = [face for face in tri.faces if v not in face]
    new_faces += [
        (fresh if i in moved else v, x, y) for i, (x, y) in enumerate(zip(link, after))
    ]
    new_faces += [(v, fresh, x) for x in ends]
    return new_faces


def split_corner(tri: Triangulation, corner: Corner) -> Triangulation:
    """Cut the star of ``v`` open along ``vu`` and ``vw``; close with two faces.

    The faces on the arc from ``u`` to ``w`` (walking the stored link
    orientation; for a boundary vertex, from the smaller link position to
    the larger) move to the fresh vertex, the remaining faces keep ``v``,
    and the faces ``{v, v', u}`` and ``{v, v', w}`` fill the slit.  The
    choice of arc only renames the two copies of ``v``, so the result is
    well defined up to isomorphism.
    """
    return build(_corner_faces(tri, corner))


def _corner_faces(tri: Triangulation, corner: Corner) -> list[Face]:
    v, u, w = corner.v, corner.u, corner.w
    if u == w:
        raise AmbiguousArc("corner needs two distinct edges")
    if not (0 <= v < tri.order):
        raise NotACorner(f"vertex {v} does not exist")
    link = tri.links[v]
    for x in (u, w):
        if x not in link:
            raise NotACorner(f"{x} is not adjacent to {v}")
    iu, iw = link.index(u), link.index(w)
    if v in tri.boundary_vertices:
        moved: Collection[int] = range(min(iu, iw), max(iu, iw))
    else:
        d = len(link)
        moved = {i % d for i in range(iu, iu + (iw - iu) % d)}
    return _split_star(tri, v, moved, (u, w))


def split_truncated(tri: Triangulation, corner: TruncatedCorner) -> Triangulation:
    """Cut along ``vu`` at boundary vertex ``v``; insert one face ``{u, v, v'}``.

    The faces from ``u`` to the end of the link path move to the fresh
    vertex; the new edge between the two copies of ``v`` is a boundary
    edge, so the boundary cycle grows by one.
    """
    return build(_truncated_faces(tri, corner))


def _truncated_faces(tri: Triangulation, corner: TruncatedCorner) -> list[Face]:
    v, u = corner.v, corner.u
    if not (0 <= v < tri.order) or v not in tri.boundary_vertices:
        raise NotBoundaryVertex(f"vertex {v} is not a boundary vertex")
    if not tri.has_edge(v, u):
        raise UnknownEdge(f"{v}-{u} is not an edge")
    link = tri.links[v]
    return _split_star(tri, v, range(link.index(u), len(link) - 1), (u,))


def shrink_edge(tri: Triangulation, edge: Edge) -> Triangulation:
    """Collapse a cable to a single vertex (the smaller endpoint id).

    The one or two faces incident with the edge collapse to edges.
    Raises :class:`RodEdge` with the blocking impediments when the edge
    is unshrinkable, and :class:`ResultNotSurface` when the collapse is
    not a surface complex.
    """
    a, b = min(edge), max(edge)
    impediments = classify_edge(tri, (a, b))
    if impediments:
        raise RodEdge((a, b), impediments)
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
) -> list[tuple[tuple[Corner | TruncatedCorner, ...], Triangulation]]:
    """One split per automorphism orbit of the split descriptors.

    Each result holds the descriptors of one orbit, in the order
    :func:`corners` then :func:`truncated_corners` lists them, and the child
    of the first; the orbits come in the order of their first descriptors.
    Every child of an orbit is isomorphic to that one (module docstring),
    and shrinking the edge from the first descriptor's ``v`` to the fresh
    vertex ``tri.order`` restores ``tri``.  Orbits whose children have
    equal face lists share one child value: the three corners that
    subdivide one face give the same list, so each distinct child is built
    and validated once.
    """
    # Two descriptors lie in one orbit exactly when their least images
    # under the group are equal.
    elements = automorphisms(tri)
    orbits: dict[tuple[int, ...], list[Corner | TruncatedCorner]] = {}
    for corner in corners(tri):
        v, u, w = corner.v, corner.u, corner.w
        least = min(
            (p[v], p[u], p[w]) if p[u] < p[w] else (p[v], p[w], p[u]) for p in elements
        )
        orbits.setdefault(least, []).append(corner)
    for truncated in truncated_corners(tri):
        v, u = truncated.v, truncated.u
        least = min((p[v], p[u]) for p in elements)
        orbits.setdefault(least, []).append(truncated)
    # The key is exact: ``build`` sorts each face and the face list, so two
    # lists with one face set give equal values, and neither list can hold
    # a duplicate that the set would hide (``build`` would refuse it).
    # ``_split_star`` never emits a face twice: the copied faces avoid v and
    # the fresh vertex, each star face holds one of them and a distinct
    # link pair, and each closing face holds both and a distinct end.
    children: dict[frozenset[frozenset[int]], Triangulation] = {}
    results: list[tuple[tuple[Corner | TruncatedCorner, ...], Triangulation]] = []
    for orbit in orbits.values():
        first = orbit[0]
        if isinstance(first, Corner):
            faces = _corner_faces(tri, first)
        else:
            faces = _truncated_faces(tri, first)
        key = frozenset(map(frozenset, faces))
        child = children.get(key)
        if child is None:
            child = children[key] = build(faces)
        results.append((tuple(orbit), child))
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
