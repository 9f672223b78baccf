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

:func:`build` works in two steps.  It first normalises its input: each
face and the face list sorted, malformed and repeated faces refused, the
labels remapped to ``0..order-1``.  Then ``_validate`` checks all three
conditions in a single sweep over the faces, which also yields the face
adjacency that most callers read next.  It seeds four fields: the cross
map ``_cross``, which keys each interior edge ``u-v`` (``u < v``) by the
int ``u * order + v`` and maps it to (apex, face index) of both its
faces; ``_boundary``, which maps each boundary edge's key to (apex, face
index) of its one face; the degrees; and the boundary vertices.
``_validate`` is the only validator and the only code that finds edge
incidences.  The edges, their faces and the sorted neighbour lists are
plain derivations of the two key maps, computed on first read, so a
split child or search leaf that is only validated and coded never builds
them.  The cable sets, ``has_edge`` and the face sweep read the key maps
themselves, and no other module reads them.  The sweep, ``_traverse``,
walks the faces breadth first from a flag over the cross map, entering
the unseen face of each edge's pair with the shared edge reversed; the
canonical form (:mod:`trisurf.canon`) runs it from each candidate flag,
orientability once.  The splitting moves (:mod:`trisurf.moves`) call
``_validate`` directly: they write a child's faces already in normalised
form, so normalising them again would check nothing, while the surface
conditions are still checked on every child.  Vertex links are built on
first use, since only complexes that are split further need them;
``links[v]`` is the tuple of the neighbours of ``v`` in star order, a
cycle for an interior vertex and a path between its two boundary
neighbours for a boundary vertex.  One walk over the key maps, ``_link``,
builds them and names the lowest vertex whose link is not one piece.

Instances are immutable and hashable; all operations return new values.
Derived data, the canonical code and the cables included, is cached on
the instance on first use, so it lives exactly as long as the value.
A catalog stores each class's value bare, as ``Triangulation(faces,
order)`` with its code in the catalog entry: once a class is coded (and,
in the splitting closure, split) no engine reads its derived data again,
and the closure's top order, most of the classes, is never split.  A
later reader's first read of a seeded field, directly or through a
derivation, re-runs ``_validate`` on the stored faces, and the other
derived data is recomputed on first use.

The first read of any of the four rod rules' edge sets (see
:mod:`trisurf.moves`) or ``cables`` runs one sweep over the key maps,
``_classify_edges``, that files every edge and stores all five sets.
Vertex ids are always the dense range ``0..order-1``: :func:`build`
remaps arbitrary input labels to it.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations, compress, repeat
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
    def invariants(self) -> str:
        """``chi=<Euler characteristic> orientable|non-orientable
        boundary=<components>``, the name of a kind without one of its own."""
        return "chi={} {} boundary={}".format(
            self.euler_characteristic,
            "orientable" if self.orientable else "non-orientable",
            self.boundary_components,
        )

    @property
    def name(self) -> str:
        return _KIND_NAMES.get(self) or self.invariants

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

# The derived fields that ``_validate`` alone computes, seeded on its values.
_SEEDED = frozenset(("_cross", "_boundary", "degrees", "boundary_vertices"))
# The edge sets that ``_classify_edges`` alone computes, in its result order.
_CLASSIFIED = ("nonfacial_edges", "chords", "boundary_triangle_edges", "minimal_edges", "cables")


class Triangulation:
    """An immutable, validated face-set complex.

    The constructor takes a face tuple that is already validated, dense
    (its vertices are exactly ``0..order-1``) and sorted, each face sorted
    too, and its order, and checks none of this.  Any other face list goes
    through :func:`build`, which validates the surface conditions and
    remaps vertex labels to that range.  The order is the vertex count and
    takes no part in equality or hashing: equal faces make equal values.

    Assignment is refused; derived data is written straight to the
    instance ``__dict__``.  The two edge key maps ``_cross`` and
    ``_boundary``, the degrees and the boundary vertices come from
    ``_validate`` alone: it seeds them on every value it returns, and a
    bare value re-runs it on the first read of any of them.  Likewise the
    four rod rules' edge sets and the cables come from ``_classify_edges``
    alone, all five stored on the first read of one.
    The rest is ``cached_property``; the edges, the edge faces and the
    neighbour lists are derived from the key maps.
    """

    faces: tuple[Face, ...]
    order: int
    _cross: dict[int, tuple[int, int, int, int]]
    _boundary: dict[int, tuple[int, int]]
    degrees: tuple[int, ...]
    boundary_vertices: frozenset[int]
    nonfacial_edges: frozenset[Edge]
    chords: frozenset[Edge]
    boundary_triangle_edges: frozenset[Edge]
    minimal_edges: frozenset[Edge]
    cables: frozenset[Edge]

    def __init__(self, faces: tuple[Face, ...], order: int) -> None:
        _set_field(self, "faces", faces)
        _set_field(self, "order", order)

    def __getattr__(self, name: str) -> object:
        # Reached only when the instance ``__dict__`` misses.  A bare
        # value's faces came from a validated value, so ``_validate`` cannot
        # raise; its value holds these faces and order and the seeded fields.
        cache = self.__dict__
        if name in _SEEDED:
            cache.update(_validate(self.faces, self.order).__dict__)
        elif name in _CLASSIFIED:
            cache.update(zip(_CLASSIFIED, _classify_edges(self)))
        else:
            raise AttributeError(f"'Triangulation' object has no attribute {name!r}")
        return cache[name]

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
    def edges(self) -> tuple[Edge, ...]:
        """The edges, sorted."""
        return tuple(map(divmod, sorted(chain(self._cross, self._boundary)), repeat(self.order)))

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[Face, ...]]:
        """Each edge, in sorted order, with its one or two faces."""
        faces = self.faces
        incident = {k: (faces[i],) for k, (_, i) in self._boundary.items()}
        for k, (_, i, _, j) in self._cross.items():
            incident[k] = (faces[i], faces[j])
        return {divmod(k, self.order): incident[k] for k in sorted(incident)}

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, sorted."""
        # Edges are sorted, so each list gets its smaller neighbours in
        # order, then its larger ones: sorted without a sort.
        adjacency: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        return tuple(map(tuple, adjacency))

    @cached_property
    def _canonical(self) -> tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        # The code, the canonical labelling, and generators of the
        # automorphism group, as permutations.  A local import: canon
        # imports this module.
        from .canon import _canonical_form

        return _canonical_form(self)

    @cached_property
    def boundary_edges(self) -> frozenset[Edge]:
        return frozenset(map(divmod, self._boundary, repeat(self.order)))

    @property
    def is_closed(self) -> bool:
        return not self.boundary_vertices

    @cached_property
    def links(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in star order: for a boundary vertex a
        path from its smaller boundary neighbour, for an interior vertex a
        cycle from its least neighbour, the second entry being the apex of
        the first edge's face (the smaller apex of two).  Consecutive entries
        span the faces of the star.  The splits cut stars by position in
        this order, so split children and catalog bytes depend on it."""
        # Built on first use: build checks the links without them.
        n, cross, boundary = self.order, self._cross, self._boundary
        return tuple(
            _link(v, nbrs, n, cross, boundary) for v, nbrs in enumerate(self.neighbors)
        )

    @cached_property
    def boundary_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Boundary cycles, each rotated/oriented to a deterministic form."""
        succ: dict[int, list[int]] = {}
        for u, v in map(divmod, self._boundary, repeat(self.order)):
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
                current = b if a == cycle[-2] else a
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def euler_characteristic(self) -> int:
        return self.order - len(self._cross) - len(self._boundary) + len(self.faces)

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
        u, v = min(u, v), max(u, v)
        # Both ends must be vertices: an out-of-range label could give the
        # key of another edge.
        n = self.order
        if u not in range(n) or v not in range(n):
            return False
        k = u * n + v
        return k in self._cross or k in self._boundary

    def __repr__(self) -> str:
        return f"Triangulation(order={self.order}, faces={len(self.faces)})"


def build(faces: Iterable[Sequence[int]]) -> Triangulation:
    """Validate a face list and return the triangulation it spans.

    Two steps: the input is normalised, then :func:`_validate` checks the
    surface conditions.  Normalisation sorts each face and the face list,
    refuses a face that is not three distinct values and a face given
    twice, and remaps the labels, which may be any non-negative integers,
    to ``0..order-1`` in increasing label order.  Labels that already are
    the ints ``0..order-1`` are kept as they are.

    Validation takes one sweep over the faces.  It files every face under
    its three edges and, per vertex, joins the face's link edge to the
    partial link paths seen so far, counting the cycles it closes.  Then
    every edge must lie in at most two faces, every link must be one piece
    (a single path or cycle), and the graph must be connected.  The cross
    map of the interior edges, the boundary edges, the degrees and the
    boundary vertices (those whose link is a path) stay cached on the
    result; edges, edge faces, neighbours and vertex links are derived on
    first use.

    Raises :class:`InvalidFace`, :class:`EmptyComplex`,
    :class:`DuplicateFace`, :class:`NonSurfaceEdge` (on the smallest bad
    edge), :class:`PinchedVertex` (on the lowest vertex whose link walk,
    ``_link``, finds loose ends or misses a neighbour) or
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
    return _validate(dense, n)


def _validate(faces: tuple[Face, ...], order: int) -> Triangulation:
    """The validation sweep of :func:`build`, on a face tuple in the form
    :func:`build` normalises its input to.

    ``faces`` must be distinct sorted int triples, themselves sorted, whose
    vertices are exactly ``0..order-1``; none of this is checked here.  The
    surface conditions are all checked, raising :class:`NonSurfaceEdge`,
    :class:`PinchedVertex` or :class:`Disconnected` as :func:`build`
    documents, and the ``_SEEDED`` fields are stored on the result.
    """
    # Each face is filed under its three edges, the edge u-v (u < v) keyed
    # by the int ``u * order + v``: an edge seen once sits in ``boundary``
    # with (apex, face index) of its face, and its second face moves it to
    # ``cross`` with (apex, face index) of both.  The first sighting of an
    # edge also joins its ends in ``adjacency``.  Each face also gives each
    # of its vertices one link edge.  ``ends[v]`` maps each end of an open
    # path piece of v's partial link to the path's other end; a link vertex
    # not yet seen is a path with both ends on itself.  A link edge joins
    # two pieces into one unless it closes a path into a cycle.  (A vertex
    # that has had both its link edges is no end; a third would put an edge
    # in three faces, which is reported first.)
    n = order
    boundary: dict[int, tuple[int, int]] = {}
    cross: dict[int, tuple[int, int, int, int]] = {}
    pop = boundary.pop
    adjacency: list[list[int]] = [[] for _ in range(n)]
    ends: list[dict[int, int]] = [{} for _ in range(n)]
    cycles = 0
    for i, face in enumerate(faces):
        a, b, c = face
        k = a * n + b
        seen = pop(k, None)
        if seen is None:
            boundary[k] = (c, i)
            adjacency[a].append(b)
            adjacency[b].append(a)
        else:
            cross[k] = seen + (c, i)
        k = a * n + c
        seen = pop(k, None)
        if seen is None:
            boundary[k] = (b, i)
            adjacency[a].append(c)
            adjacency[c].append(a)
        else:
            cross[k] = seen + (b, i)
        k = b * n + c
        seen = pop(k, None)
        if seen is None:
            boundary[k] = (a, i)
            adjacency[b].append(c)
            adjacency[c].append(b)
        else:
            cross[k] = seen + (a, i)
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

    # An edge on k faces alternates between the two maps: it ends in
    # ``boundary`` when k is odd and in ``cross`` when k >= 2, so it counts
    # 1, 2, 3, 2, 3, ... towards the 3F faces' edges.  Every edge lies in at
    # most two faces exactly when the counts add up to 3F (no edge on four
    # or more) and no edge is in both maps (none on three).
    if (len(boundary) + 2 * len(cross) != 3 * len(faces)
            or not boundary.keys().isdisjoint(cross)):
        counts = Counter(edge for face in faces for edge in combinations(face, 2))
        u, v = min(e for e, k in counts.items() if k > 2)
        raise NonSurfaceEdge(f"edge {u}-{v} lies in {counts[u, v]} faces")
    # A vertex's link starts as one piece per link vertex, its degree, and
    # each of its link edges, one per face at the vertex, joins two pieces
    # unless it closes a cycle: over all links, 2E - 3F + cycles pieces.
    # No link is empty, so every link is one piece exactly when that count
    # is the order.
    if 2 * (len(boundary) + len(cross)) - 3 * len(faces) + cycles != order:
        # The lowest vertex whose link is not one piece raises.
        for v in range(order):
            _link(v, sorted(adjacency[v]), n, cross, boundary)
        raise AssertionError("a vertex link is in more than one piece")

    reached = bytearray(order)
    reached[0] = 1
    stack = [0]
    for x in stack:
        for w in adjacency[x]:
            if not reached[w]:
                reached[w] = 1
                stack.append(w)
    if len(stack) != order:
        raise Disconnected(f"complex has {order - len(stack)} unreachable vertices")

    tri = Triangulation(faces, order)
    # Seed the ``_SEEDED`` fields with what validation already computed.
    cache = tri.__dict__
    cache["_cross"] = cross
    cache["_boundary"] = boundary
    cache["degrees"] = tuple(map(len, adjacency))
    # A link with open ends left after the sweep is a path: its vertex is
    # on the boundary.
    cache["boundary_vertices"] = frozenset(compress(range(order), ends))
    return tri


def _classify_edges(tri: Triangulation) -> tuple[frozenset[Edge], ...]:
    """The edge sets of the four rod rules and the cables of ``tri``, in
    the order of ``_CLASSIFIED``, from one sweep over its edge key maps.

    Edge ``uv`` lies in a nonfacial 3-cycle exactly when ``u`` and ``v``
    have more common neighbours than ``uv`` has faces: each face ``uvw``
    gives one common neighbour ``w``, and a common neighbour ``w`` closes a
    facial 3-cycle exactly when ``uvw`` is one of those faces.
    Neighbourhoods are bit sets, so a count is one popcount.  A chord is an
    interior edge with both ends on the boundary.  Each boundary vertex has
    two boundary neighbours, so a boundary edge lies on a boundary 3-cycle
    exactly when its ends share one.  Every edge of the tetrahedron is a
    rod: no closed surface has fewer vertices.  A cable is in no rod set.
    """
    n = tri.order
    bits = [0] * n
    for a, b, c in tri.faces:
        bits[a] |= (1 << b) | (1 << c)
        bits[b] |= (1 << a) | (1 << c)
        bits[c] |= (1 << a) | (1 << b)
    rim = [0] * n
    for u, v in map(divmod, tri._boundary, repeat(n)):
        rim[u] |= 1 << v
        rim[v] |= 1 << u
    ends = tri.boundary_vertices
    tetrahedron = n == 4 and not tri._boundary
    nonfacial, chords, triangles, cables = [], [], [], []
    # Each key map with the number of faces on each of its edges.
    for keys, faces in ((tri._cross, 2), (tri._boundary, 1)):
        for k in keys:
            u, v = e = divmod(k, n)
            rod = tetrahedron
            if (bits[u] & bits[v]).bit_count() > faces:
                nonfacial.append(e)
                rod = True
            if faces == 1:
                if rim[u] & rim[v]:
                    triangles.append(e)
                    rod = True
            elif u in ends and v in ends:
                chords.append(e)
                rod = True
            if not rod:
                cables.append(e)
    minimal = map(divmod, tri._cross, repeat(n)) if tetrahedron else ()
    return (frozenset(nonfacial), frozenset(chords), frozenset(triangles),
            frozenset(minimal), frozenset(cables))


def _link(v: int, nbrs: Sequence[int], n: int, cross: dict[int, tuple[int, int, int, int]],
          boundary: dict[int, tuple[int, int]]) -> tuple[int, ...]:
    """The link of ``v``, ordered as ``links`` documents, walked over the
    key maps of a complex on ``n`` vertices with no edge on three faces;
    ``nbrs`` are ``v``'s neighbours, sorted.  Each step crosses edge
    ``v-y`` into its other face, whose apex is next.  Raises
    :class:`PinchedVertex` when ``v`` has other than 0 or 2 boundary
    edges (its link's loose ends) or the walk misses a neighbour."""
    key = {y: v * n + y if v < y else y * n + v for y in nbrs}
    ends = [y for y in nbrs if key[y] in boundary]
    if len(ends) not in (0, 2):
        raise PinchedVertex(f"link of vertex {v} has {len(ends)} loose ends")
    if ends:
        start = ends[0]
        current = boundary[key[start]][0]
    else:
        start = nbrs[0]
        p, _, q, _ = cross[key[start]]
        current = min(p, q)
    link = [start]
    previous = start
    while current != start:
        link.append(current)
        faces = cross.get(key[current])
        if faces is None:
            # A path's other end.
            break
        p, _, q, _ = faces
        previous, current = current, q if p == previous else p
    if len(link) != len(nbrs):
        raise PinchedVertex(f"link of vertex {v} is not a single path or cycle")
    return tuple(link)


def _traverse(tri: Triangulation, flag: Face, start: int):
    """Sweep the faces breadth-first from ``flag`` (in face ``start``); return
    them as oriented triples in sweep order, and the old->new labeling."""
    n = tri.order
    get = tri._cross.get
    label = [-1] * n
    a, b, c = flag
    label[a], label[b], label[c] = 0, 1, 2
    next_label = 3
    seen = bytearray(len(tri.faces))
    seen[start] = 1
    queue = [flag]
    for u, v, w in queue:
        for x, y in ((u, v), (v, w), (w, u)):
            across = get(x * n + y if x < y else y * n + x)
            if across is None:
                continue
            # The face the sweep stands in is seen, so the unseen face of
            # the pair, if any, is the one across the edge.
            p, i, q, j = across
            if not seen[i]:
                t = p
                seen[i] = 1
            elif not seen[j]:
                t = q
                seen[j] = 1
            else:
                continue
            if label[t] < 0:
                label[t] = next_label
                next_label += 1
            # Enter the neighbour with the shared edge reversed so the
            # traversal keeps a consistent local orientation.
            queue.append((y, x, t))
    return queue, label


def _is_orientable(tri: Triangulation) -> bool:
    """Whether the faces orient consistently: the sweep from face 0 enters
    each face across an edge it runs the other way and, a valid value being
    face-connected, orients every face, running no directed edge twice iff
    the orientation is consistent."""
    queue, _ = _traverse(tri, tri.faces[0], 0)
    n = tri.order
    runs = set(chain.from_iterable((u * n + v, v * n + w, w * n + u) for u, v, w in queue))
    return len(runs) == 3 * len(queue)


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
