"""Splitting and shrinking moves and the shrinkability classification."""

from __future__ import annotations

import hashlib
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import trisurf as ts
from trisurf import complex_core, errors, moves
from trisurf.complex_core import _CLASSIFIED, _validate
from trisurf.moves import Corner, TruncatedCorner
from tests.conftest import reference_build, reference_nonfacial_triangles, split_children


class TestNonfacialTriangles:
    def test_triangle_has_none(self, triangle):
        assert reference_nonfacial_triangles(reference_build(triangle.faces)) == frozenset()
        assert triangle.nonfacial_edges == frozenset()

    def test_octahedron_has_none(self, octahedron):
        assert reference_nonfacial_triangles(reference_build(octahedron.faces)) == frozenset()
        assert octahedron.nonfacial_edges == frozenset()

    def test_quotient_has_ten(self, proj_plane):
        # K6 carries C(6,3) = 20 triangles and the complex uses 10 as faces;
        # each of its 15 edges lies in one of the other 10.
        nonfacial = reference_nonfacial_triangles(reference_build(proj_plane.faces))
        assert len(nonfacial) == 10
        assert proj_plane.nonfacial_edges == {
            e for t in nonfacial for e in combinations(t, 2)
        } == set(proj_plane.edges)


class TestClassifyEdge:
    def test_triangle_edges_blocked_by_boundary_triangle(self, triangle):
        for edge in triangle.edges:
            impediments = ts.classify_edge(triangle, edge)
            assert impediments == frozenset({ts.Impediment.BOUNDARY_TRIANGLE})

    def test_quotient_edges_blocked_by_nonfacial_triangles(self, proj_plane):
        for edge in proj_plane.edges:
            impediments = ts.classify_edge(proj_plane, edge)
            assert impediments == frozenset({ts.Impediment.NONFACIAL_TRIANGLE})

    def test_k5_moebius_chords_and_rim(self, k5_moebius):
        rim = k5_moebius.boundary_edges
        for edge in k5_moebius.edges:
            impediments = ts.classify_edge(k5_moebius, edge)
            assert impediments
            if edge not in rim:
                assert ts.Impediment.CHORD in impediments
            else:
                assert ts.Impediment.CHORD not in impediments

    def test_tetrahedron_edges_are_minimal_rods(self, tetrahedron):
        _assert_cable_rule_holds(tetrahedron)
        for edge in tetrahedron.edges:
            impediments = ts.classify_edge(tetrahedron, edge)
            assert impediments == frozenset({ts.Impediment.MINIMAL})
        assert ts.is_irreducible(tetrahedron)

    def test_unknown_edge(self, k5_moebius):
        with pytest.raises(errors.UnknownEdge):
            ts.classify_edge(k5_moebius, (0, 7))

    def test_a_label_outside_the_vertices_names_no_edge(self, k5_moebius, octahedron, annulus):
        # Out of range, (a - 1, b + order) has the key of edge a-b.
        for tri in (k5_moebius, octahedron, annulus):
            edges = reference_build(tri.faces).edge_faces
            labels = range(-2, tri.order + 3)
            for u in labels:
                for v in labels:
                    assert tri.has_edge(u, v) == ((min(u, v), max(u, v)) in edges), (u, v)
            assert not tri.has_edge(0, tri.order)
            with pytest.raises(errors.UnknownEdge):
                ts.classify_edge(tri, (0, tri.order + 2))

    def test_chord_only_on_bordered(self, projective_catalog):
        for entry in projective_catalog.of_order(7):
            for edge in entry.triangulation.edges:
                impediments = ts.classify_edge(entry.triangulation, edge)
                assert ts.Impediment.CHORD not in impediments
                assert ts.Impediment.BOUNDARY_TRIANGLE not in impediments


def _reference_impediments(tri):
    """Each edge's impediments, from the definitions: a nonfacial 3-cycle
    from the clique scan, a chord from the boundary vertices, a boundary
    triangle from the boundary cycle through the edge, and every edge of
    a closed complex on 4 vertices."""
    nonfacial = {e for t in reference_nonfacial_triangles(tri) for e in combinations(t, 2)}
    result = {}
    for a, b in tri.edges:
        found = set()
        if (a, b) in nonfacial:
            found.add(ts.Impediment.NONFACIAL_TRIANGLE)
        if (a, b) in tri.boundary_edges:
            cycle = next(c for c in tri.boundary_cycles if a in c and b in c)
            if len(cycle) == 3:
                found.add(ts.Impediment.BOUNDARY_TRIANGLE)
        elif a in tri.boundary_vertices and b in tri.boundary_vertices:
            found.add(ts.Impediment.CHORD)
        if tri.is_closed and tri.order == 4:
            found.add(ts.Impediment.MINIMAL)
        result[a, b] = frozenset(found)
    return result


def _assert_cable_rule_holds(tri):
    # On fresh values, as the certificate's split scans meet split
    # children, each of the five classified sets is read first in turn.
    # Whichever comes first, the one sweep runs once and fills all five,
    # derives no edge list and no boundary cycle, and the sets equal the
    # definitions on the reference pipeline's own fields.
    reference = reference_build(tri.faces)
    impediments = _reference_impediments(reference)
    incident = reference.edge_faces
    ends = reference.boundary_vertices
    expected = {
        "nonfacial_edges": {
            e for e, rods in impediments.items() if ts.Impediment.NONFACIAL_TRIANGLE in rods
        },
        "chords": {
            e for e, faces in incident.items() if len(faces) == 2 and ends.issuperset(e)
        },
        "boundary_triangle_edges": {
            e for e, rods in impediments.items() if ts.Impediment.BOUNDARY_TRIANGLE in rods
        },
        "minimal_edges": {
            e for e, rods in impediments.items() if ts.Impediment.MINIMAL in rods
        },
        "cables": {e for e, rods in impediments.items() if not rods},
    }
    swept, sweep = [], complex_core._classify_edges

    def counted(value):
        swept.append(value)
        return sweep(value)

    fresh_values = []
    with mock.patch.object(complex_core, "_classify_edges", counted):
        for first in _CLASSIFIED:
            fresh = _validate(tri.faces, tri.order)
            fresh_values.append(fresh)
            getattr(fresh, first)
            assert set(_CLASSIFIED) <= set(vars(fresh))
            assert not {"boundary_cycles", "edge_faces", "edges", "neighbors"} & set(vars(fresh))
            assert {name: getattr(fresh, name) for name in _CLASSIFIED} == expected
    assert list(map(id, swept)) == list(map(id, fresh_values))
    assert tri.boundary_edges == {e for e, faces in incident.items() if len(faces) == 1}
    for edge, rods in impediments.items():
        assert ts.classify_edge(tri, edge) == rods, edge
    assert tri.cables == {e for e in tri.edges if not ts.classify_edge(tri, e)}


class TestCableRule:
    """The impediment edge sets on the value against the rule stated edge
    by edge, over the catalog members and every split child of each."""

    @pytest.fixture(scope="class")
    def catalogs(self, projective_catalog, moebius_catalog_5_7):
        return {
            "projective-6..8": projective_catalog,
            "moebius-5..7": moebius_catalog_5_7,
            "disk-3..6": ts.enumerate_exhaustive_range(ts.DISK, 3, 6),
        }

    @pytest.mark.parametrize("name", ["projective-6..8", "moebius-5..7", "disk-3..6"])
    def test_members_and_split_children(self, catalogs, name):
        checked = 0
        for entry in catalogs[name].entries:
            _assert_cable_rule_holds(entry.triangulation)
            for _, child in split_children(entry.triangulation):
                _assert_cable_rule_holds(child)
                checked += 1
        assert checked > 100

    def test_both_three_cycle_holes_of_the_annulus(self, annulus):
        # Every rim edge bounds a 3-cycle hole; the six spokes are chords.
        assert annulus.boundary_triangle_edges == annulus.boundary_edges
        assert annulus.chords == set(annulus.edges) - annulus.boundary_edges
        assert len(annulus.chords) == 6
        _assert_cable_rule_holds(annulus)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_split_chains(self, triangle, tetrahedron, annulus, data):
        current = data.draw(st.sampled_from([triangle, tetrahedron, annulus]))
        _assert_cable_rule_holds(current)
        for _ in range(data.draw(st.integers(1, 5))):
            _, current = data.draw(st.sampled_from(split_children(current)))
            _assert_cable_rule_holds(current)


class TestIrreducibility:
    def test_triangle_is_irreducible(self, triangle):
        assert ts.is_irreducible(triangle)

    def test_quotient_is_irreducible(self, proj_plane):
        assert ts.is_irreducible(proj_plane)

    def test_k5_moebius_is_irreducible(self, k5_moebius):
        assert ts.is_irreducible(k5_moebius)

    def test_cable_subgraph_of_irreducible_is_empty(self, proj_plane):
        assert ts.cable_subgraph(proj_plane) == frozenset()

    def test_all_order_8_members_are_reducible(self, projective_catalog):
        for entry in projective_catalog.of_order(8):
            assert ts.cable_subgraph(entry.triangulation)


class TestSplitCorner:
    def test_corner_counts(self, proj_plane, tetrahedron):
        # One corner per unordered pair of edges at a vertex.
        assert len(ts.corners(proj_plane)) == 6 * 10  # six vertices of degree 5
        assert len(ts.corners(tetrahedron)) == 4 * 3

    def test_tetrahedron_splits_agree(self, tetrahedron):
        results = [ts.split_corner(tetrahedron, c) for c in ts.corners(tetrahedron)]
        codes = {ts.canonical_code(r) for r in results}
        assert len(codes) == 1
        bipyramid = results[0]
        assert bipyramid.order == 5
        assert bipyramid.surface_kind == ts.SPHERE

    def test_every_quotient_split_lands_in_order_7_catalog(self, proj_plane, projective_catalog):
        order7 = set(e.code for e in projective_catalog.of_order(7))
        for corner in ts.corners(proj_plane):
            child = ts.split_corner(proj_plane, corner)
            assert child.order == 7
            assert ts.canonical_code(child) in order7

    def test_fresh_edge_is_a_cable(self, proj_plane):
        corner = ts.corners(proj_plane)[0]
        child = ts.split_corner(proj_plane, corner)
        fresh = (corner.v, proj_plane.order)
        assert fresh in ts.cable_subgraph(child)

    def test_split_preserves_surface_kind(self, proj_plane, k5_moebius):
        for tri in (proj_plane, k5_moebius):
            for corner in ts.corners(tri)[:10]:
                assert ts.split_corner(tri, corner).surface_kind == tri.surface_kind

    def test_not_a_corner(self, k5_moebius):
        with pytest.raises(errors.AmbiguousArc):
            ts.split_corner(k5_moebius, Corner(v=0, u=1, w=1))
        with pytest.raises(errors.NotACorner):
            ts.split_corner(k5_moebius, Corner(v=0, u=1, w=9))
        for v in (5, -1, 1.5):
            with pytest.raises(errors.NotACorner, match=f"vertex {v} does not exist"):
                ts.split_corner(k5_moebius, Corner(v=v, u=0, w=2))


class TestSplitTruncated:
    def test_triangle_truncated_split_is_the_two_face_disk(self, triangle):
        child = ts.split_truncated(triangle, TruncatedCorner(v=0, u=1))
        assert child.order == 4
        assert len(child.faces) == 2
        assert child.surface_kind == ts.DISK

    def test_triangle_all_splits(self, triangle, disk_catalog_3_5):
        # 3 corners plus 6 truncated corners, one orbit of each under the
        # six symmetries; their classes are exactly the two disk
        # triangulations of order 4.
        splits = ts.all_splits(triangle)
        assert [len(descriptors) for descriptors, _ in splits] == [3, 6]
        assert all(isinstance(d, TruncatedCorner) for d in splits[1][0])
        codes = {ts.canonical_code(child) for _, child in splits}
        assert codes == {e.code for e in disk_catalog_3_5.of_order(4)}

    def test_boundary_grows_by_one(self, k5_moebius):
        for tcorner in ts.truncated_corners(k5_moebius)[:6]:
            child = ts.split_truncated(k5_moebius, tcorner)
            assert child.surface_kind == ts.MOEBIUS_BAND
            assert len(child.boundary_cycles[0]) == len(k5_moebius.boundary_cycles[0]) + 1

    def test_truncated_split_result_has_a_cable(self, k5_moebius):
        tcorner = ts.truncated_corners(k5_moebius)[0]
        child = ts.split_truncated(k5_moebius, tcorner)
        fresh = (tcorner.v, k5_moebius.order)
        assert fresh in ts.cable_subgraph(child)
        assert ts.isomorphic(ts.shrink_edge(child, fresh), k5_moebius)

    def test_closed_complex_has_no_truncated_corners(self, proj_plane):
        assert ts.truncated_corners(proj_plane) == []
        with pytest.raises(errors.NotBoundaryVertex):
            ts.split_truncated(proj_plane, TruncatedCorner(v=0, u=1))


# sha256 of every split child, descriptor and face list, of the members of
# these splitting closures in catalog order.  A split that moves the
# complementary arc gives an isomorphic child with other labels, which
# neither the canonical codes nor the catalogs can see.
SPLIT_CHILD_RANGES = [
    (ts.SPHERE, 4, 7), (ts.PROJECTIVE_PLANE, 6, 7), (ts.DISK, 3, 5),
    (ts.MOEBIUS_BAND, 5, 6),
]
SPLIT_CHILDREN = (
    1491, "e0fd59917eb75f08f06e57970d8fa432b9682dc7683c1246e21a3a965896aa80"
)


def test_split_children_are_pinned():
    lines = [
        f"{d.descriptor()} {child.faces}"
        for kind, lo, hi in SPLIT_CHILD_RANGES
        for entry in ts.enumerate_splitting_range(kind, lo, hi).entries
        for d, child in split_children(entry.triangulation)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == SPLIT_CHILDREN


def test_each_split_child_is_isomorphic_to_the_first_of_its_orbit():
    # The closure codes one child per ``all_splits`` entry and the split
    # scans test one per entry.  An entry that merged two orbits would hide
    # a class from neither catalog, since the closure reaches each class
    # many times, but it fails here.
    parents = splits = later = 0
    for kind, lo, hi in SPLIT_CHILD_RANGES:
        for entry in ts.enumerate_splitting_range(kind, lo, hi).entries:
            parent = entry.triangulation
            entries = ts.all_splits(parent)
            # Every corner and truncated corner once, in listing order
            # within an orbit, the orbits in the order of their first.
            every = [*ts.corners(parent), *ts.truncated_corners(parent)]
            at = [[every.index(d) for d in descriptors] for descriptors, _ in entries]
            assert sorted(i for orbit in at for i in orbit) == list(range(len(every)))
            assert all(orbit == sorted(orbit) for orbit in at)
            assert [orbit[0] for orbit in at] == sorted(orbit[0] for orbit in at)
            for descriptors, child in entries:
                first = descriptors[0]
                assert ts.shrink_edge(child, (first.v, parent.order)).faces == parent.faces
                for descriptor in descriptors[1:]:
                    own = ts.apply_descriptor(parent, descriptor.descriptor())
                    assert ts.canonical_code(own) == ts.canonical_code(child), descriptor
                    later += 1
                splits += len(descriptors)
            parents += 1
    assert (parents, splits, later) == (30, 1491, 1039)


# Closures whose every split is checked against ``build``.
NORMAL_FORM_RANGES = [
    (ts.SPHERE, 4, 7), (ts.PROJECTIVE_PLANE, 6, 7), (ts.DISK, 3, 6),
    (ts.MOEBIUS_BAND, 5, 7),
]


@pytest.mark.parametrize(
    "kind, lo, hi", NORMAL_FORM_RANGES,
    ids=[f"{kind}-{lo}..{hi}" for kind, lo, hi in NORMAL_FORM_RANGES],
)
def test_split_faces_are_normalised_and_validate_as_build_does(kind, lo, hi):
    # A split child skips build's normalisation and goes straight to the
    # validation sweep, so its faces must already be in build's form, and
    # the child must be the value build makes of them.
    checked = 0
    for entry in ts.enumerate_splitting_range(kind, lo, hi).entries:
        parent = entry.triangulation
        order = parent.order + 1
        for d in [*ts.corners(parent), *ts.truncated_corners(parent)]:
            if isinstance(d, Corner):
                faces = moves._corner_faces(parent, d)
                child = ts.split_corner(parent, d)
            else:
                faces = moves._truncated_faces(parent, d)
                child = ts.split_truncated(parent, d)
            assert type(faces) is tuple
            for face in faces:
                assert type(face) is tuple and len(face) == 3, face
                assert all(type(x) is int for x in face), face
                assert face[0] < face[1] < face[2], face
            assert all(f < g for f, g in zip(faces, faces[1:])), d
            assert {x for face in faces for x in face} == set(range(order))
            rebuilt = ts.build(faces)
            assert child.faces == faces and child.order == order
            assert rebuilt == child and rebuilt.order == child.order
            for name in (
                "edge_faces", "edges", "neighbors", "degrees", "boundary_vertices"
            ):
                assert getattr(child, name) == getattr(rebuilt, name), (d, name)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("v, u, w", [(0, 1.0, 2), (0, True, 2), (True, 0, 2)])
def test_corner_fields_of_another_type_store_int_labels(tetrahedron, v, u, w):
    child = ts.split_corner(tetrahedron, Corner(v, u, w))
    assert child == ts.split_corner(tetrahedron, Corner(int(v), int(u), w))
    assert {type(x) for face in child.faces for x in face} == {int}


@pytest.mark.parametrize("v, u", [(0, 1.0), (0, True), (True, 0)])
def test_truncated_fields_of_another_type_store_int_labels(triangle, v, u):
    child = ts.split_truncated(triangle, TruncatedCorner(v, u))
    assert child == ts.split_truncated(triangle, TruncatedCorner(int(v), int(u)))
    assert {type(x) for face in child.faces for x in face} == {int}


def test_equal_split_children_share_one_value(proj_plane, k5_moebius, tetrahedron):
    for tri in (proj_plane, k5_moebius, tetrahedron):
        by_faces = {}
        for _, child in ts.all_splits(tri):
            assert by_faces.setdefault(child.faces, child) is child


class TestShrinkEdge:
    def test_rod_refusal_reports_impediments(self, proj_plane):
        with pytest.raises(errors.RodEdge) as excinfo:
            ts.shrink_edge(proj_plane, (0, 1))
        assert excinfo.value.impediments == frozenset({ts.Impediment.NONFACIAL_TRIANGLE})

    def test_split_then_shrink_is_identity(self, proj_plane, k5_moebius, tetrahedron):
        for tri in (proj_plane, k5_moebius, tetrahedron):
            for descriptor, child in split_children(tri)[:15]:
                fresh = (descriptor.v, tri.order)
                assert ts.shrink_edge(child, fresh).faces == tri.faces

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_shrinking_fresh_edges_in_reverse_undoes_splits(
        self, proj_plane, k5_moebius, tetrahedron, data
    ):
        tri = data.draw(st.sampled_from([proj_plane, k5_moebius, tetrahedron]))
        current = tri
        fresh = []
        for _ in range(data.draw(st.integers(1, 3))):
            descriptor, child = data.draw(st.sampled_from(split_children(current)))
            fresh.append((descriptor.v, current.order))
            current = child
        for edge in reversed(fresh):
            current = ts.shrink_edge(current, edge)
        assert current.faces == tri.faces

    def test_collapse_that_is_no_surface_is_refused(self, tetrahedron):
        # Collapsing an edge of the 4-vertex sphere would fold its two
        # faces onto the opposite one, so every edge is a rod.
        with pytest.raises(errors.RodEdge) as excinfo:
            ts.shrink_edge(tetrahedron, (0, 1))
        assert excinfo.value.impediments == {ts.Impediment.MINIMAL}

    def test_shrink_preserves_surface_kind(self, projective_catalog):
        entry = projective_catalog.of_order(8)[0]
        tri = entry.triangulation
        for edge in ts.cable_subgraph(tri):
            assert ts.shrink_edge(tri, edge).surface_kind == tri.surface_kind


class TestDescriptors:
    def test_descriptor_round_trip(self, proj_plane, k5_moebius):
        corner = ts.corners(proj_plane)[5]
        replayed = ts.apply_descriptor(proj_plane, corner.descriptor())
        assert replayed.faces == ts.split_corner(proj_plane, corner).faces

        tcorner = ts.truncated_corners(k5_moebius)[2]
        replayed = ts.apply_descriptor(k5_moebius, tcorner.descriptor())
        assert replayed.faces == ts.split_truncated(k5_moebius, tcorner).faces

    def test_shrink_descriptor(self, proj_plane):
        corner = ts.corners(proj_plane)[0]
        child = ts.split_corner(proj_plane, corner)
        shrunk = ts.apply_descriptor(child, f"sh {corner.v} {proj_plane.order}")
        assert shrunk.faces == proj_plane.faces

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            ts.parse_descriptor("flip 0 1")

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_descriptor(self, text):
        with pytest.raises(errors.ParseError):
            ts.parse_descriptor(text)


class TestBoundaryTriangleSubsumption:
    def test_rim_edges_of_short_boundaries_hit_nonfacial_cycles_after_coning(
        self, proj_plane, moebius_catalog_5_7
    ):
        # For a bordered complex with a 3-cycle boundary whose cone is not
        # a sphere, each rim edge lies in a nonfacial 3-cycle of the cone.
        corpus = [
            e.triangulation
            for e in moebius_catalog_5_7.entries
            if len(e.triangulation.boundary_cycles[0]) == 3
        ]
        corpus.append(ts.build(proj_plane.faces[1:]))  # quotient minus a face
        assert corpus
        for tri in corpus:
            coned = ts.cone_boundary(tri)
            assert coned.surface_kind != ts.SPHERE
            nonfacial = reference_nonfacial_triangles(reference_build(coned.faces))
            for edge in tri.boundary_edges:
                assert any(
                    edge[0] in triple and edge[1] in triple for triple in nonfacial
                )
