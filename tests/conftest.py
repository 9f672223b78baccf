"""Shared fixtures, the brute-force isomorphism oracle, the reference
build, the reference nonfacial 3-cycles, the reference canonical form
and canonical faces, the reference vertex orbits, the reference
orientability test, and the torus grids with their relabelling.

The heavyweight catalogs, the certificates and the split scans are
session-scoped.  The package caches no search, so tests that only read a
search's values share each query through the ``search`` fixture: the
session catalogs and certificates of the Moebius band are built through
it, and a test that builds its own certificate from altered inputs sends
its searches through it with ``shared_search``.
"""

from __future__ import annotations

import contextlib
import functools
import struct
from collections import deque
from itertools import chain

import pytest

import trisurf as ts
from trisurf import Triangulation, enumeration
from trisurf.complex_core import Face
from trisurf.errors import (
    Disconnected,
    DuplicateFace,
    EmptyComplex,
    InvalidFace,
    NonSurfaceEdge,
    PinchedVertex,
)

# A standard combinatorial icosahedron: apex 0, upper ring 1..5, lower
# ring 6..10, apex 11.
ICOSAHEDRON_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 6), (2, 3, 7), (3, 4, 8), (4, 5, 9), (5, 1, 10),
    (2, 6, 7), (3, 7, 8), (4, 8, 9), (5, 9, 10), (1, 10, 6),
    (6, 7, 11), (7, 8, 11), (8, 9, 11), (9, 10, 11), (10, 6, 11),
]

# The antipodal involution of that icosahedron; verified as a
# fixed-point-free face-preserving automorphism in test_complex_core.
ANTIPODAL = {0: 11, 11: 0, 1: 8, 8: 1, 2: 9, 9: 2, 3: 10, 10: 3, 4: 6, 6: 4, 5: 7, 7: 5}

TETRAHEDRON_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

ANNULUS_FACES = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (2, 0, 5), (0, 5, 3)]

OCTAHEDRON_FACES = [
    (0, 1, 2), (0, 2, 4), (0, 4, 3), (0, 3, 1),
    (5, 1, 2), (5, 2, 4), (5, 4, 3), (5, 3, 1),
]


def brute_force_isomorphic(t1: Triangulation, t2: Triangulation) -> bool:
    """Independent isomorphism oracle: backtracking over vertex bijections.

    Used by the test suite to validate the canonical code; deliberately
    shares no machinery with the flag traversal.
    """
    if t1.order != t2.order or len(t1.faces) != len(t2.faces):
        return False
    if t1.degree_sequence != t2.degree_sequence:
        return False
    n = t1.order
    faces2 = set(t2.faces)

    def key(tri: Triangulation, v: int) -> tuple[int, bool]:
        return (tri.degrees[v], v in tri.boundary_vertices)

    candidates = [
        [w for w in range(n) if key(t2, w) == key(t1, v)] for v in range(n)
    ]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(v: int) -> bool:
        if v == n:
            return all(
                tuple(sorted((assignment[a], assignment[b], assignment[c]))) in faces2
                for a, b, c in t1.faces
            )
        for w in candidates[v]:
            if w in used:
                continue
            consistent = all(
                t1.has_edge(v, u) == t2.has_edge(w, assignment[u])
                for u in range(v)
            )
            if not consistent:
                continue
            assignment[v] = w
            used.add(w)
            if extend(v + 1):
                return True
            used.discard(w)
            del assignment[v]
        return False

    return extend(0)


def group_orbits(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Reference for :func:`trisurf.vertex_orbits`: the orbit of each vertex
    read off the listed automorphism group, one orbit per distinct set."""
    elements = ts.automorphisms(tri)
    # The elements form a group, so the images of v are its orbit.
    return tuple(sorted({
        tuple(sorted({perm[v] for perm in elements})) for v in range(tri.order)
    }))


def _reference_normalise_face(face) -> Face:
    values = tuple(face)
    if len(values) != 3 or len(set(values)) != 3:
        raise InvalidFace(f"face {values!r} must have 3 distinct vertices")
    a, b, c = sorted(values)
    return (a, b, c)


def reference_build(faces) -> Triangulation:
    """Independent oracle for :func:`trisurf.build`: the staged pipeline.

    It normalises every face, always remaps the labels, derives the fields
    that ``build``'s sweep stores, each by its own definition, and then
    validates through them, one after another: edge faces, every vertex
    link (built eagerly from its star of faces by
    :func:`reference_vertex_link`, and stored as ``links``) and a
    breadth-first connectivity sweep over the neighbours.  ``build`` must
    agree with it on every field and on every error type and message.
    """
    normalised = [_reference_normalise_face(face) for face in faces]
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
    tri = Triangulation(dense, len(labels))
    # Stored on the value before any read, so that no read re-runs the
    # validation sweep that this oracle checks.
    mapping: dict[tuple[int, int], list[Face]] = {}
    for face in dense:
        a, b, c = face
        for edge in ((a, b), (a, c), (b, c)):
            mapping.setdefault(edge, []).append(face)
    edge_faces = {edge: tuple(incident) for edge, incident in sorted(mapping.items())}
    adjacency: list[set[int]] = [set() for _ in labels]
    for u, v in edge_faces:
        adjacency[u].add(v)
        adjacency[v].add(u)
    neighbors = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
    vars(tri).update(
        _cross=_reference_key_map(tri, edge_faces, 2),
        _boundary=_reference_key_map(tri, edge_faces, 1),
        edge_faces=edge_faces,
        edges=tuple(edge_faces),
        neighbors=neighbors,
        degrees=tuple(map(len, neighbors)),
        boundary_vertices=frozenset(
            v for e, incident in edge_faces.items() if len(incident) == 1 for v in e
        ),
    )
    for edge, incident in tri.edge_faces.items():
        if len(incident) > 2:
            raise NonSurfaceEdge(
                f"edge {edge[0]}-{edge[1]} lies in {len(incident)} faces"
            )
    stars: list[list[Face]] = [[] for _ in labels]
    for face in dense:
        for v in face:
            stars[v].append(face)
    # Building every link performs the pinched-vertex check.
    vars(tri)["links"] = tuple(
        reference_vertex_link(v, star) for v, star in enumerate(stars)
    )
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
    return tri


def reference_nonfacial_triangles(reference: Triangulation) -> frozenset[Face]:
    """Independent oracle for the nonfacial 3-cycles of a value that
    :func:`reference_build` returned: every 3-clique of the graph of its
    ``edge_faces`` that is not a face, each as a sorted triple."""
    edges = reference.edge_faces
    cliques = {
        (a, b, c)
        for a, b in edges
        for c in range(b + 1, reference.order)
        if (a, c) in edges and (b, c) in edges
    }
    return frozenset(cliques.difference(reference.faces))


def reference_vertex_link(v: int, star: list[Face]) -> tuple[int, ...]:
    """Independent oracle for a vertex link: assemble the link of ``v``
    from the faces of its star and verify it is one path or one cycle;
    return its vertices in walking order.

    A path starts at its smaller end; a cycle starts at its smallest vertex
    and continues to the smaller of that vertex's two neighbours.

    ``star`` is non-empty (every label comes from a face) and no link
    vertex has a third neighbour (that edge would lie in three faces,
    which is rejected before any link is checked).
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


def _reference_key_map(tri: Triangulation, edge_faces, count: int) -> dict[int, tuple[int, ...]]:
    """The edges on ``count`` faces, edge u-v keyed ``u * order + v``, each
    mapped to (apex, face index) of its faces in face order: with
    ``count`` 2 the seeded ``_cross``, with ``count`` 1 ``_boundary``."""
    index = {face: i for i, face in enumerate(tri.faces)}
    return {
        u * tri.order + v: tuple(chain.from_iterable(
            (sum(face) - u - v, index[face]) for face in sorted(incident, key=index.get)
        ))
        for (u, v), incident in edge_faces.items()
        if len(incident) == count
    }


def _reference_cross_map(tri: Triangulation) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Map (x, y, z), an edge x-y in either direction of a face with apex z,
    to (apex, index) of the face across that edge; boundary edges are absent."""
    index = {face: i for i, face in enumerate(tri.faces)}
    cross = {}
    for (u, v), incident in tri.edge_faces.items():
        if len(incident) == 2:
            (p, i), (q, j) = ((sum(face) - u - v, index[face]) for face in incident)
            cross[(u, v, p)] = cross[(v, u, p)] = (q, j)
            cross[(u, v, q)] = cross[(v, u, q)] = (p, i)
    return cross


def _reference_sweep(tri: Triangulation, cross, flag, start):
    """The breadth-first face sweep from ``flag`` (in face ``start``): the
    faces as oriented triples in sweep order, and the old->new labelling."""
    label = [-1] * tri.order
    a, b, c = flag
    label[a], label[b], label[c] = 0, 1, 2
    next_label = 3
    seen = {start}
    queue = [flag]
    for u, v, w in queue:
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            across = cross.get((x, y, z))
            if across is None or across[1] in seen:
                continue
            t, j = across
            seen.add(j)
            if label[t] < 0:
                label[t] = next_label
                next_label += 1
            queue.append((y, x, t))
    return queue, label


def _reference_candidate_flags(tri: Triangulation):
    """(face index, flag) for the flags whose vertices have the minimal
    (degree, on-boundary) keys, in face order, the keys counted from the
    edge faces."""
    degree = [0] * tri.order
    boundary = set()
    for edge, incident in tri.edge_faces.items():
        for v in edge:
            degree[v] += 1
        if len(incident) == 1:
            boundary.update(edge)
    key = [2 * d + (v in boundary) for v, d in enumerate(degree)]
    best, found = None, []
    for i, (a, b, c) in enumerate(tri.faces):
        face_key = sorted((key[a], key[b], key[c]))
        if best is None or face_key < best:
            best, found = face_key, []
        if face_key == best:
            flags = ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))
            found.extend((i, f) for f in flags if key[f[0]] <= key[f[1]] <= key[f[2]])
    return found


def reference_canonical_form(
    tri: Triangulation,
) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """Oracle for ``tri._canonical``: the flag loop without pruning, on its
    own tuple-keyed cross map, sweep and candidate rule.

    Every candidate flag is swept, and each tying flag's labelling comes
    from its own sweep.  Returns the code and every tying labelling in
    candidate-flag order: the pruned form's code and canonical labelling
    must equal the code and the first, and its group the automorphisms
    that the labellings give.
    """
    cross = _reference_cross_map(tri)
    best = None
    for start, flag in _reference_candidate_flags(tri):
        queue, label = _reference_sweep(tri, cross, flag, start)
        faces = sorted(tuple(sorted((label[u], label[v], label[w]))) for u, v, w in queue)
        if faces == best:
            labellings.append(tuple(label))
        elif best is None or faces < best:
            best, labellings = faces, [tuple(label)]
    values = (tri.order, len(tri.faces), len(tri.boundary_edges), *chain.from_iterable(best))
    if max(values[:3]) < 256:
        return bytes(values), tuple(labellings)
    return b"\0" + struct.pack(f">{len(values)}H", *values), tuple(labellings)


def reference_canonical_faces(tri: Triangulation) -> tuple[Face, ...]:
    """Oracle for :func:`trisurf.canonical_faces`: every face relabelled by
    the canonical labelling and sorted, then the face list sorted."""
    label = ts.canonical_labeling(tri)
    return tuple(sorted(
        tuple(sorted((label[a], label[b], label[c]))) for a, b, c in tri.faces
    ))


def reference_is_orientable(tri: Triangulation) -> bool:
    """Oracle for ``complex_core._is_orientable``: breadth-first over the
    faces, each given as directed edges, a neighbour consistent iff it
    runs the shared edge the other way."""
    face_index = {face: i for i, face in enumerate(tri.faces)}
    orientation = {0: 1}
    queue = deque([0])

    def directed_edges(face, sign):
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
            required = 1 if (v, u) in directed_edges(other, 1) else -1
            if j not in orientation:
                orientation[j] = required
                queue.append(j)
            elif orientation[j] != required:
                return False
    return True


def _shuffled(tri: Triangulation, rng) -> Triangulation:
    """``tri`` under a vertex permutation drawn from ``rng``."""
    perm = list(tri.vertices)
    rng.shuffle(perm)
    return ts.relabel(tri, tuple(perm))


def _torus_grid(k: int) -> Triangulation:
    """The k x k grid on the torus, each square cut by the same diagonal."""
    def v(i, j):
        return (i % k) * k + j % k

    return ts.build([
        face
        for i in range(k)
        for j in range(k)
        for face in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                     (v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    ])


def split_children(
    tri: Triangulation,
) -> list[tuple[ts.Corner | ts.TruncatedCorner, Triangulation]]:
    """Every split descriptor of ``tri`` with its own child, corners then
    truncated corners, each replayed from its descriptor string.

    ``all_splits`` gives one child per automorphism orbit; tests that check
    every descriptor's child read this list instead.
    """
    return [
        (d, ts.apply_descriptor(tri, d.descriptor()))
        for d in [*ts.corners(tri), *ts.truncated_corners(tri)]
    ]


def antipodal_quotient() -> ts.Triangulation:
    """Identify antipodal vertex pairs of the icosahedron."""
    rep = {v: min(v, ANTIPODAL[v]) for v in range(12)}
    return ts.build({
        tuple(sorted((rep[a], rep[b], rep[c]))) for a, b, c in ICOSAHEDRON_FACES
    })


@pytest.fixture(scope="session")
def triangle():
    return ts.build([(0, 1, 2)])


@pytest.fixture(scope="session")
def tetrahedron():
    return ts.build(TETRAHEDRON_FACES)


@pytest.fixture(scope="session")
def annulus():
    """A 6-vertex annulus whose two boundary cycles are both 3-cycles
    (the complex of ``demos/data/annulus_6.tri``)."""
    return ts.build(ANNULUS_FACES)


@pytest.fixture(scope="session")
def octahedron():
    return ts.build(OCTAHEDRON_FACES)


@pytest.fixture(scope="session")
def icosahedron():
    return ts.build(ICOSAHEDRON_FACES)


@pytest.fixture(scope="session")
def proj_plane(icosahedron):
    """The 6-vertex projective-plane triangulation (icosahedron quotient)."""
    return antipodal_quotient()


@pytest.fixture(scope="session")
def k5_moebius(proj_plane):
    """The 5-vertex Moebius-band triangulation: quotient minus one star."""
    return ts.remove_vertex_star(proj_plane, 0)


@pytest.fixture(scope="session")
def projective_catalog():
    """Exhaustive projective-plane catalog, orders 6..8."""
    return ts.enumerate_exhaustive_range(ts.PROJECTIVE_PLANE, 6, 8)


@pytest.fixture(scope="session")
def moebius_catalog_5_7(search):
    with _searching_through(search):
        return ts.enumerate_exhaustive_range(ts.MOEBIUS_BAND, 5, 7)


@pytest.fixture(scope="session")
def moebius_catalog_5_8(search):
    with _searching_through(search):
        return ts.enumerate_exhaustive_range(ts.MOEBIUS_BAND, 5, 8)


@pytest.fixture(scope="session")
def sphere_catalog_4_6():
    return ts.enumerate_exhaustive_range(ts.SPHERE, 4, 6)


@pytest.fixture(scope="session")
def disk_catalog_3_5():
    return ts.enumerate_exhaustive_range(ts.DISK, 3, 5)


@pytest.fixture(scope="session")
def pylonicity_destroyed(projective_catalog):
    return ts.check_pylonicity_destroyed(projective_catalog)


@pytest.fixture(scope="session")
def no_pylonic_creation(projective_catalog):
    return ts.check_no_pylonic_creation(projective_catalog)


@pytest.fixture(scope="session")
def certificate(projective_catalog, search):
    with _searching_through(search):
        return ts.build_certificate(projective_catalog=projective_catalog)


@pytest.fixture(scope="session")
def certificate_7(projective_catalog, search):
    """The certificate with its cross-check at order 7, for the tests that
    only read it."""
    with _searching_through(search):
        return ts.build_certificate(
            max_cross_check_order=7, projective_catalog=projective_catalog
        )


@pytest.fixture()
def no_search(monkeypatch):
    """Make any exhaustive search fail, to prove a path never enters one."""
    def refuse(*args):
        raise AssertionError("the exhaustive search was entered")

    monkeypatch.setattr(enumeration, "_search", refuse)


@pytest.fixture(scope="session")
def search():
    """``enumeration._search``, each query run once for the session."""
    return functools.cache(enumeration._search)


@contextlib.contextmanager
def _searching_through(search):
    """Send every exhaustive search made in the block through ``search``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_search", search)
        yield


@pytest.fixture()
def shared_search(search):
    """Send the test's exhaustive searches through ``search``, for tests
    that only read the values searched."""
    with _searching_through(search):
        yield
