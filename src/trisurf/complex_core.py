"""Face-set model of surface triangulations.

A triangulation is stored as nothing but its set of triangular faces;
edges, vertex links, boundary cycles and the topological type of the
underlying surface are all derived from the faces.  Construction always
validates the surface conditions, so every ``Triangulation`` instance in
circulation is a genuine triangulation of a (possibly bordered) surface:

* every edge lies in one face (boundary) or two faces (interior),
* the link of every vertex is a single cycle or a single simple path,
* the complex is connected.

Instances are immutable and hashable; all operations return new values.
Vertex ids are always the dense range ``0..order-1``: arbitrary input
labels are remapped by :func:`build` and the original labels are kept in
``source_labels`` for reporting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

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
    VertexClash,
)

Face = tuple[int, int, int]
Edge = tuple[int, int]


@dataclass(frozen=True)
class SurfaceKind:
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
    "sphere": SPHERE,
    "projective-plane": PROJECTIVE_PLANE,
    "projective": PROJECTIVE_PLANE,
    "disk": DISK,
    "moebius-band": MOEBIUS_BAND,
    "moebius": MOEBIUS_BAND,
}


@dataclass(frozen=True)
class VertexLink:
    """Neighbours of a vertex in star order.

    ``sequence`` walks the link once: for an interior vertex it is a
    cyclic sequence (the successor of the last entry is the first), for a
    boundary vertex a simple path whose endpoints are the two neighbours
    joined to the centre by boundary edges.
    """

    center: int
    sequence: tuple[int, ...]
    is_cycle: bool

    @property
    def degree(self) -> int:
        return len(self.sequence)

    def face_arcs(self) -> tuple[tuple[int, int], ...]:
        """Consecutive neighbour pairs, one per face incident to the centre."""
        seq = self.sequence
        if self.is_cycle:
            return tuple((seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))
        return tuple((seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def _normalise_face(face: Sequence[int]) -> Face:
    values = tuple(face)
    if len(values) != 3 or len(set(values)) != 3:
        raise InvalidFace(f"face {values!r} must have 3 distinct vertices")
    a, b, c = sorted(values)
    return (a, b, c)


@dataclass(frozen=True)
class Triangulation:
    """An immutable, validated face-set complex.

    Do not call the constructor directly: use :func:`build`, which
    validates the surface conditions and remaps vertex labels to the
    dense range ``0..order-1``.
    """

    faces: tuple[Face, ...]
    source_labels: tuple[int, ...] = field(compare=False, default=())

    @property
    def order(self) -> int:
        return len(self.source_labels)

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
    def boundary_edges(self) -> frozenset[Edge]:
        return frozenset(e for e, inc in self.edge_faces.items() if len(inc) == 1)

    @cached_property
    def boundary_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.boundary_edges for v in e)

    @property
    def is_closed(self) -> bool:
        return not self.boundary_edges

    @cached_property
    def links(self) -> tuple[VertexLink, ...]:
        stars: list[list[Face]] = [[] for _ in range(self.order)]
        for face in self.faces:
            for v in face:
                stars[v].append(face)
        return tuple(_vertex_link(v, star) for v, star in enumerate(stars))

    def link(self, v: int) -> VertexLink:
        return self.links[v]

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
    ``0..order-1`` (in increasing label order) and the original labels are
    retained in ``source_labels``.

    Raises :class:`InvalidFace`, :class:`DuplicateFace`,
    :class:`NonSurfaceEdge`, :class:`PinchedVertex` or
    :class:`Disconnected` when the input is not a surface complex.
    """
    normalised = [_normalise_face(face) for face in faces]
    if not normalised:
        raise EmptyComplex("a triangulation needs at least one face")
    unique = set(normalised)
    if len(unique) != len(normalised):
        counts: dict[Face, int] = {}
        for face in normalised:
            counts[face] = counts.get(face, 0) + 1
        dup = sorted(f for f, k in counts.items() if k > 1)[0]
        raise DuplicateFace(f"face {dup} occurs more than once")

    labels = sorted({v for face in unique for v in face})
    index = {label: i for i, label in enumerate(labels)}
    dense = tuple(sorted(
        tuple(sorted((index[a], index[b], index[c]))) for a, b, c in unique
    ))
    tri = Triangulation(faces=dense, source_labels=tuple(labels))
    _validate(tri)
    return tri


def _validate(tri: Triangulation) -> None:
    for edge, incident in tri.edge_faces.items():
        if len(incident) > 2:
            raise NonSurfaceEdge(
                f"edge {edge[0]}-{edge[1]} lies in {len(incident)} faces"
            )
    # Computing every link performs the pinched-vertex check.
    _ = tri.links
    reached = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in tri.neighbors[v]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != tri.order:
        raise Disconnected(
            f"complex has {tri.order - len(reached)} unreachable vertices"
        )


def _vertex_link(v: int, star: list[Face]) -> VertexLink:
    """Assemble the link of ``v`` from the faces of its star and verify it
    is one path or one cycle."""
    # A link vertex's first and second neighbour; a third one is a branch.
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for a, b, c in star:
        x, y = (b, c) if a == v else (a, c) if b == v else (a, b)
        for p, q in ((x, y), (y, x)):
            if p in second:
                raise PinchedVertex(f"link of vertex {v} branches")
            (second if p in first else first)[p] = q
    if not first:
        raise PinchedVertex(f"vertex {v} has no incident faces")

    endpoints = sorted(x for x in first if x not in second)
    if endpoints:
        if len(endpoints) != 2:
            raise PinchedVertex(f"link of vertex {v} has {len(endpoints)} loose ends")
        start, is_cycle = endpoints[0], False
        current = first[start]
    else:
        # Both neighbours of a cycle's start are open; take the smaller
        # one so the stored orientation is deterministic.
        start, is_cycle = min(first), True
        current = min(first[start], second[start])

    sequence = [start]
    previous = start
    while current is not None and current != start:
        sequence.append(current)
        nxt = first[current]
        previous, current = current, second.get(current) if nxt == previous else nxt
    if len(sequence) != len(first):
        raise PinchedVertex(f"link of vertex {v} is not a single path or cycle")
    return VertexLink(center=v, sequence=tuple(sequence), is_cycle=is_cycle)


def _is_orientable(tri: Triangulation) -> bool:
    """Propagate face orientations across interior edges; true iff consistent."""
    face_index = {face: i for i, face in enumerate(tri.faces)}
    orientation: dict[int, int] = {0: 1}
    queue = deque([0])

    def directed_edges(face: Face, sign: int):
        a, b, c = face
        if sign > 0:
            return ((a, b), (b, c), (c, a))
        return ((b, a), (c, b), (a, c))

    while queue:
        i = queue.popleft()
        face = tri.faces[i]
        for u, v in directed_edges(face, orientation[i]):
            incident = tri.edge_faces[(min(u, v), max(u, v))]
            if len(incident) == 1:
                continue
            other = incident[0] if incident[1] == face else incident[1]
            j = face_index[other]
            # The neighbour is consistent iff it traverses the shared
            # edge in the opposite direction, i.e. contains (v, u).
            forward = (v, u) in directed_edges(other, 1)
            required = 1 if forward else -1
            if j not in orientation:
                orientation[j] = required
                queue.append(j)
            elif orientation[j] != required:
                return False
    return True


def cone_boundary(tri: Triangulation, apex: int | None = None) -> Triangulation:
    """Close the unique boundary cycle with a fan of faces from a new vertex.

    Returns the closed complex obtained by joining ``apex`` to every
    boundary vertex.  ``apex`` defaults to the smallest unused id.
    """
    if len(tri.boundary_cycles) != 1:
        raise NotBordered(
            f"expected exactly 1 boundary cycle, found {len(tri.boundary_cycles)}"
        )
    if apex is None:
        apex = tri.order
    elif 0 <= apex < tri.order:
        raise VertexClash(f"vertex {apex} already exists")
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
    if not 0 <= v < tri.order:
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
