"""Face-set model of surface triangulations.

A triangulation is stored as nothing but its set of triangular faces
and its vertex count; edges, vertex links, boundary cycles and the
topological type of the underlying surface are all derived from the
faces.  Construction always validates the surface conditions, so every
``Triangulation`` instance in circulation is a genuine triangulation of
a (possibly bordered) surface:

* every edge lies in one face (boundary) or two faces (interior),
* the link of every vertex is a single cycle or a single simple path,
* the complex is connected.

:func:`build` checks all three in a single sweep over the faces, which
also yields the edges, their faces, the sorted neighbour lists, the
degrees and the boundary vertices that most callers read next.  Vertex
links are built on first use, since only complexes that are split further
need them; ``links[v]`` is the tuple of the neighbours of ``v`` in star
order, a cycle for an interior vertex and a path between its two boundary
neighbours for a boundary vertex.

Instances are immutable and hashable; all operations return new values.
Derived data, the canonical code and the cables included, is cached on
the instance on first use, so it lives exactly as long as the value.
A catalog stores each class's value bare, as ``Triangulation(faces,
order)`` with its code in the catalog entry: once a class is coded (and,
in the splitting closure, split) no engine reads its derived data again,
and the closure's top order, most of the classes, is never split.  A
later reader recomputes what it reads through the same properties.

The cables of a value are set algebra on its edges: the edges minus the
four impediment sets ``nonfacial_edges``, ``chords``,
``boundary_triangle_edges`` and ``minimal_edges``, each at most one pass
over the edges (see :mod:`trisurf.moves` for the rule).
Vertex ids are always the dense range ``0..order-1``: :func:`build`
remaps arbitrary input labels to it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    Disconnected,
    DuplicateFace,
    EmptyComplex,
    InvalidFace,
    NonSurfaceEdge,
    NotBordered,
    NotClosed,
    ParseError,
    PinchedVertex,
    ResultNotSurface,
)

Face = tuple[int, int, int]
Edge = tuple[int, int]


class SurfaceKind(NamedTuple):
    """Topological type of the surface underlying a triangulation."""

    euler_characteristic: int
    orientable: bool
    boundary_components: int

    @property
    def name(self) -> str:
        return _KIND_NAMES.get(self, "chi={} {} boundary={}".format(
            self.euler_characteristic,
            "orientable" if self.orientable else "non-orientable",
            self.boundary_components,
        ))

    def __str__(self) -> str:
        return self.name


SPHERE = SurfaceKind(2, True, 0)
PROJECTIVE_PLANE = SurfaceKind(1, False, 0)
DISK = SurfaceKind(1, True, 1)
MOEBIUS_BAND = SurfaceKind(0, False, 1)

_KIND_NAMES = {
    SPHERE: "sphere",
    PROJECTIVE_PLANE: "projective-plane",
    DISK: "disk",
    MOEBIUS_BAND: "moebius-band",
}

SURFACE_BY_NAME = {
    **{name: kind for kind, name in _KIND_NAMES.items()},
    "projective": PROJECTIVE_PLANE,
    "moebius": MOEBIUS_BAND,
}


def _normalise_face(face: Sequence[int]) -> Face:
    values = tuple(face)
    if len(values) != 3 or len(set(values)) != 3:
        raise InvalidFace(f"face {values!r} must have 3 distinct vertices")
    a, b, c = sorted(values)
    return (a, b, c)


_set_field = object.__setattr__


class Triangulation:
    """An immutable, validated face-set complex.

    The constructor takes a face tuple that is already validated, dense
    (its vertices are exactly ``0..order-1``) and sorted, each face sorted
    too, and its order, and checks none of this.  Any other face list goes
    through :func:`build`, which validates the surface conditions and
    remaps vertex labels to that range.  The order is the vertex count and
    takes no part in equality or hashing: equal faces make equal values.

    Assignment is refused; derived data is written straight to the
    instance ``__dict__``, by ``cached_property`` and by :func:`build`.
    """

    faces: tuple[Face, ...]
    order: int

    def __init__(self, faces: tuple[Face, ...], order: int) -> None:
        _set_field(self, "faces", faces)
        _set_field(self, "order", order)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.faces == other.faces
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.faces,))

    @property
    def vertices(self) -> range:
        return range(self.order)

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[Face, ...]]:
        mapping: dict[Edge, list[Face]] = {}
        for face in self.faces:
            a, b, c = face
            for edge in ((a, b), (a, c), (b, c)):
                mapping.setdefault(edge, []).append(face)
        return {edge: tuple(incident) for edge, incident in sorted(mapping.items())}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.edge_faces)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adjacency: list[set[int]] = [set() for _ in range(self.order)]
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adjacency)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.neighbors)

    @cached_property
    def nonfacial_triangles(self) -> frozenset[Face]:
        """All 3-cliques of the graph that are not faces.

        The definition itself, off every hot path; the tests check
        ``nonfacial_edges`` against it.
        """
        cliques = {
            tuple(sorted((u, v, w)))
            for u, v in self.edges
            for w in set(self.neighbors[u]).intersection(self.neighbors[v])
        }
        return frozenset(cliques.difference(self.faces))

    @cached_property
    def nonfacial_edges(self) -> frozenset[Edge]:
        """The edges that lie in a nonfacial 3-cycle.

        Edge ``uv`` lies in one exactly when ``u`` and ``v`` have more
        common neighbours than ``uv`` has faces: each face ``uvw`` gives
        one common neighbour ``w``, and a common neighbour ``w`` closes a
        facial 3-cycle exactly when ``uvw`` is one of those faces.
        Neighbourhoods are bit sets, so a count is one popcount.
        """
        bits = [0] * self.order
        for u, v in self.edge_faces:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return frozenset(
            (u, v) for (u, v), inc in self.edge_faces.items()
            if (bits[u] & bits[v]).bit_count() > len(inc)
        )

    @cached_property
    def chords(self) -> frozenset[Edge]:
        """Interior edges with both ends on the boundary."""
        ends = self.boundary_vertices
        return frozenset(
            (u, v) for (u, v), inc in self.edge_faces.items()
            if len(inc) == 2 and u in ends and v in ends
        )

    @cached_property
    def boundary_triangle_edges(self) -> frozenset[Edge]:
        """The edges of every boundary cycle of length 3."""
        found: list[Edge] = []
        for cycle in self.boundary_cycles:
            if len(cycle) == 3:
                a, b, c = sorted(cycle)
                found += ((a, b), (a, c), (b, c))
        return frozenset(found)

    @cached_property
    def minimal_edges(self) -> frozenset[Edge]:
        """Every edge of a closed complex on 4 vertices, the tetrahedron:
        no closed surface has fewer, so no collapse of it is one."""
        if self.order == 4 and self.is_closed:
            return frozenset(self.edge_faces)
        return frozenset()

    @cached_property
    def _canonical(self) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
        # The code and every labelling realising it, the canonical one
        # first.  A local import: canon imports this module.
        from .canon import _canonical_form

        return _canonical_form(self)

    @cached_property
    def cables(self) -> frozenset[Edge]:
        """The shrinkable edges: those in none of the four impediment
        sets."""
        return frozenset(self.edge_faces).difference(
            self.nonfacial_edges, self.chords, self.boundary_triangle_edges,
            self.minimal_edges,
        )

    @cached_property
    def boundary_edges(self) -> frozenset[Edge]:
        return frozenset(e for e, inc in self.edge_faces.items() if len(inc) == 1)

    @cached_property
    def boundary_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.boundary_edges for v in e)

    @property
    def is_closed(self) -> bool:
        return not self.boundary_vertices

    @cached_property
    def links(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in star order: a cycle for an interior
        vertex, a path between its two boundary neighbours for a boundary
        vertex.  Consecutive entries span the faces of the star."""
        # Built on first use: build checks the links without them.
        stars: list[list[Face]] = [[] for _ in range(self.order)]
        for face in self.faces:
            for v in face:
                stars[v].append(face)
        return tuple(_vertex_link(v, star) for v, star in enumerate(stars))

    @cached_property
    def boundary_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Boundary cycles, each rotated/oriented to a deterministic form."""
        succ: dict[int, list[int]] = {}
        for u, v in self.boundary_edges:
            succ.setdefault(u, []).append(v)
            succ.setdefault(v, []).append(u)
        cycles = []
        seen: set[int] = set()
        for start in sorted(succ):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            current = min(succ[start])
            while current != start:
                cycle.append(current)
                seen.add(current)
                a, b = succ[current]
                nxt = b if a == cycle[-2] else a
                current = nxt
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def euler_characteristic(self) -> int:
        return self.order - len(self.edges) + len(self.faces)

    @cached_property
    def surface_kind(self) -> SurfaceKind:
        return SurfaceKind(
            self.euler_characteristic,
            _is_orientable(self),
            len(self.boundary_cycles),
        )

    @cached_property
    def boundary_degrees(self) -> tuple[int, ...]:
        """Sorted degree multiset of the boundary vertices."""
        return tuple(sorted(self.degrees[v] for v in self.boundary_vertices))

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_faces

    def __repr__(self) -> str:
        return f"Triangulation(order={self.order}, faces={len(self.faces)})"


def build(faces: Iterable[Sequence[int]]) -> Triangulation:
    """Validate a face list and return the triangulation it spans.

    Input labels may be any non-negative integers; they are remapped to
    ``0..order-1`` in increasing label order.  Labels that already are the
    ints ``0..order-1`` are kept as they are.

    Validation takes one sweep over the faces.  It files every face under
    its three edges and, per vertex, joins the face's link edge to the
    partial link paths seen so far, counting the cycles it closes.  Then
    every edge must lie in at most two faces, every link must be one piece
    (a single path or cycle), and the graph, whose sorted neighbour lists
    come from the sorted edges, must be connected.  Edges, edge faces, neighbours,
    degrees and boundary vertices (those whose link is a path) stay cached
    on the result; vertex links are built on first use.

    Raises :class:`InvalidFace`, :class:`EmptyComplex`,
    :class:`DuplicateFace`, :class:`NonSurfaceEdge` (on the smallest bad
    edge), :class:`PinchedVertex` (on the lowest bad vertex) or
    :class:`Disconnected`, checked in that order, when the input is not a
    surface complex.
    """
    normalised = []
    append = normalised.append
    for face in faces:
        # A face that is already three sorted ints is kept as it is.
        if type(face) is tuple and len(face) == 3:
            a, b, c = face
            if type(a) is type(b) is type(c) is int and a < b < c:
                append(face)
                continue
        append(_normalise_face(face))
    if not normalised:
        raise EmptyComplex("a triangulation needs at least one face")
    unique = set(normalised)
    if len(unique) != len(normalised):
        counts: dict[Face, int] = {}
        for face in normalised:
            counts[face] = counts.get(face, 0) + 1
        dup = sorted(f for f, k in counts.items() if k > 1)[0]
        raise DuplicateFace(f"face {dup} occurs more than once")

    labels = set(chain.from_iterable(unique))
    n = len(labels)
    # Exact ints only: True == 1 and 1.0 == 1, but neither may be stored.
    if (
        set(map(type, chain.from_iterable(normalised))) == {int}
        and min(labels) == 0
        and max(labels) == n - 1
    ):
        dense = tuple(sorted(unique))
    else:
        index = {label: i for i, label in enumerate(sorted(labels))}
        # The remap preserves order, so each remapped face stays sorted.
        dense = tuple(sorted((index[a], index[b], index[c]) for a, b, c in unique))

    # Each face is filed under its three edges and gives each of its
    # vertices one link edge.  ``ends[v]`` maps each end of an open path
    # piece of v's partial link to the path's other end; a link vertex not
    # yet seen is a path with both ends on itself.  A link edge joins two
    # pieces into one unless it closes a path into a cycle.  (A vertex that
    # has had both its link edges is no end; a third would put an edge in
    # three faces, which is reported first.)
    edge_map: dict[Edge, tuple[Face, ...]] = {}
    get = edge_map.get
    ends: list[dict[int, int]] = [{} for _ in range(n)]
    cycles = 0
    for face in dense:
        a, b, c = face
        edge_map[a, b] = get((a, b), ()) + (face,)
        edge_map[a, c] = get((a, c), ()) + (face,)
        edge_map[b, c] = get((b, c), ()) + (face,)
        link = ends[a]
        x = link.pop(b, b)
        y = link.pop(c, c)
        if x == c:
            cycles += 1
        else:
            link[x], link[y] = y, x
        link = ends[b]
        x = link.pop(a, a)
        y = link.pop(c, c)
        if x == c:
            cycles += 1
        else:
            link[x], link[y] = y, x
        link = ends[c]
        x = link.pop(a, a)
        y = link.pop(b, b)
        if x == b:
            cycles += 1
        else:
            link[x], link[y] = y, x

    if max(map(len, edge_map.values())) > 2:
        u, v = min(e for e, inc in edge_map.items() if len(inc) > 2)
        raise NonSurfaceEdge(f"edge {u}-{v} lies in {len(edge_map[u, v])} faces")
    # A vertex's link starts as one piece per link vertex, its degree, and
    # each of its link edges, one per face at the vertex, joins two pieces
    # unless it closes a cycle: over all links, 2E - 3F + cycles pieces.
    # No link is empty, so every link is one piece exactly when that is n.
    if 2 * len(edge_map) - 3 * len(dense) + cycles != n:
        # The lowest vertex whose link is not one piece raises.
        for v in range(n):
            _vertex_link(v, [face for face in dense if v in face])
        raise AssertionError("a vertex link is in more than one piece")

    # Sorting on the edge alone keeps the comparisons off the face tuples.
    edge_faces = dict(sorted(edge_map.items(), key=itemgetter(0)))
    edges = tuple(edge_faces)
    # Edges are sorted, so each list gets its smaller neighbours in order,
    # then its larger ones: sorted without a sort.
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    reached = bytearray(n)
    reached[0] = 1
    stack = [0]
    count = 1
    while stack:
        for w in adjacency[stack.pop()]:
            if not reached[w]:
                reached[w] = 1
                count += 1
                stack.append(w)
    if count != n:
        raise Disconnected(f"complex has {n - count} unreachable vertices")

    tri = Triangulation(dense, n)
    # Seed the cached properties with what validation already computed.
    cache = tri.__dict__
    cache["edge_faces"] = edge_faces
    cache["edges"] = edges
    cache["neighbors"] = tuple(map(tuple, adjacency))
    cache["degrees"] = tuple(map(len, adjacency))
    # A link with open ends left after the sweep is a path: its vertex is
    # on the boundary.
    cache["boundary_vertices"] = frozenset(compress(range(n), ends))
    return tri


def _vertex_link(v: int, star: list[Face]) -> tuple[int, ...]:
    """Assemble the link of ``v`` from the faces of its star and verify it
    is one path or one cycle; return its vertices in walking order.

    A path starts at its smaller end; a cycle starts at its smallest vertex
    and continues to the smaller of that vertex's two neighbours.

    ``star`` is non-empty (every label comes from a face) and no link
    vertex has a third neighbour (that edge would lie in three faces,
    which :func:`build` rejects before any link is checked).
    """
    # A link vertex's first and second neighbour.
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for a, b, c in star:
        x, y = (b, c) if a == v else (a, c) if b == v else (a, b)
        for p, q in ((x, y), (y, x)):
            (second if p in first else first)[p] = q

    endpoints = sorted(x for x in first if x not in second)
    if endpoints:
        if len(endpoints) != 2:
            raise PinchedVertex(f"link of vertex {v} has {len(endpoints)} loose ends")
        start = endpoints[0]
        current = first[start]
    else:
        # Both neighbours of a cycle's start are open; take the smaller
        # one so the stored orientation is deterministic.
        start = min(first)
        current = min(first[start], second[start])

    sequence = [start]
    previous = start
    while current is not None and current != start:
        sequence.append(current)
        nxt = first[current]
        previous, current = current, second.get(current) if nxt == previous else nxt
    if len(sequence) != len(first):
        raise PinchedVertex(f"link of vertex {v} is not a single path or cycle")
    return tuple(sequence)


def _is_orientable(tri: Triangulation) -> bool:
    """Propagate a sign per face index across interior edges; true iff
    consistent.

    Sign 1 runs a sorted face ``(a, b, c)`` as a -> b -> c -> a: every edge
    forward (smaller end first) except ``(a, c)``.  Two faces that share an
    edge must run it in opposite directions.
    """
    index = {face: i for i, face in enumerate(tri.faces)}
    # Per face, (neighbour, r): the neighbour's sign must be r times ours.
    across: list[list[tuple[int, int]]] = [[] for _ in tri.faces]
    for (u, v), incident in tri.edge_faces.items():
        if len(incident) == 2:
            f, g = incident
            i, j = index[f], index[g]
            # A face runs the edge backward iff it is its (a, c) edge.
            r = -1 if (f[0] == u and f[2] == v) == (g[0] == u and g[2] == v) else 1
            across[i].append((j, r))
            across[j].append((i, r))
    sign = [0] * len(tri.faces)
    sign[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        s = sign[i]
        for j, r in across[i]:
            if not sign[j]:
                sign[j] = r * s
                stack.append(j)
            elif sign[j] != r * s:
                return False
    return True


def cone_boundary(tri: Triangulation) -> Triangulation:
    """Close the unique boundary cycle with a fan of faces from a new vertex.

    Returns the closed complex obtained by joining the fresh vertex
    ``tri.order`` to every boundary vertex.
    """
    if len(tri.boundary_cycles) != 1:
        raise NotBordered(
            f"expected exactly 1 boundary cycle, found {len(tri.boundary_cycles)}"
        )
    apex = tri.order
    cycle = tri.boundary_cycles[0]
    new_faces = [
        (apex, cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    ]
    return build(list(tri.faces) + new_faces)


def remove_vertex_star(tri: Triangulation, v: int) -> Triangulation:
    """Delete a vertex with its incident edges and faces (patch removal).

    The link cycle of ``v`` becomes the boundary of the result; this is
    the inverse of :func:`cone_boundary`.  Only defined on closed
    complexes.  Refuses (rather than repairs) removals whose result would
    violate the surface conditions.
    """
    if not tri.is_closed:
        raise NotClosed("star removal is only defined on closed complexes")
    if v not in range(tri.order):
        raise ResultNotSurface(f"vertex {v} does not exist")
    remaining = [face for face in tri.faces if v not in face]
    try:
        return build(remaining)
    except (EmptyComplex, PinchedVertex, Disconnected, NonSurfaceEdge) as exc:
        raise ResultNotSurface(f"removing vertex {v}: {exc}") from exc


def parse_face_lines(text: str) -> list[tuple[int, int, int]]:
    """Parse the plain-text face-list format.

    One face per line: three whitespace-separated non-negative integers.
    ``#`` starts a comment, blank lines are ignored.  Duplicate faces and
    malformed lines are reported with their line number.
    """
    faces: list[tuple[int, int, int]] = []
    seen: dict[tuple[int, int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"line {lineno}: expected 3 vertex labels, got {len(tokens)}")
        try:
            values = tuple(int(t) for t in tokens)
        except ValueError:
            raise ParseError(f"line {lineno}: labels must be integers") from None
        if any(v < 0 for v in values):
            raise ParseError(f"line {lineno}: labels must be non-negative")
        if len(set(values)) != 3:
            raise InvalidFace(f"line {lineno}: face must have 3 distinct vertices")
        key = tuple(sorted(values))
        if key in seen:
            raise DuplicateFace(
                f"line {lineno}: face repeats line {seen[key]}"
            )
        seen[key] = lineno
        faces.append(values)
    return faces


def loads(text: str) -> Triangulation:
    """Build a triangulation from face-list text."""
    faces = parse_face_lines(text)
    if not faces:
        raise EmptyComplex("no faces in input")
    return build(faces)


def dumps(tri: Triangulation) -> str:
    """Serialise to face-list text (dense labels, sorted faces)."""
    return "".join(f"{a} {b} {c}\n" for a, b, c in tri.faces)
