"""Splitting and shrinking moves and the shrinkability classification."""

from __future__ import annotations

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import trisurf as ts
from trisurf import errors
from trisurf.moves import Corner, TruncatedCorner


def _clique_triangles(tri):
    """Independent 3-clique scan used as the oracle for nonfacial counts."""
    return {
        (a, b, c)
        for a, b, c in combinations(range(tri.order), 3)
        if tri.has_edge(a, b) and tri.has_edge(a, c) and tri.has_edge(b, c)
    }


class TestNonfacialTriangles:
    def test_triangle_has_none(self, triangle):
        assert triangle.nonfacial_triangles == frozenset()

    def test_octahedron_has_none(self, octahedron):
        expected = _clique_triangles(octahedron) - set(octahedron.faces)
        assert expected == set()
        assert octahedron.nonfacial_triangles == frozenset()

    def test_quotient_has_ten(self, proj_plane):
        # K6 carries C(6,3) = 20 triangles and the complex uses 10 as faces.
        expected = _clique_triangles(proj_plane) - set(proj_plane.faces)
        assert len(expected) == 10
        assert proj_plane.nonfacial_triangles == frozenset(expected)


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
    nonfacial = {e for t in tri.nonfacial_triangles for e in combinations(t, 2)}
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
    reference = _reference_impediments(tri)
    for edge, impediments in reference.items():
        assert ts.classify_edge(tri, edge) == impediments, edge
    assert tri.cables == {e for e in tri.edges if not ts.classify_edge(tri, e)}
    assert tri.cables == {e for e, found in reference.items() if not found}
    assert tri.nonfacial_edges == {
        e for t in tri.nonfacial_triangles for e in combinations(t, 2)
    }


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
            for _, child in ts.all_splits(entry.triangulation):
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
            _, current = data.draw(st.sampled_from(ts.all_splits(current)))
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


class TestSplitTruncated:
    def test_triangle_truncated_split_is_the_two_face_disk(self, triangle):
        child = ts.split_truncated(triangle, TruncatedCorner(v=0, u=1))
        assert child.order == 4
        assert len(child.faces) == 2
        assert child.surface_kind == ts.DISK

    def test_triangle_all_splits(self, triangle, disk_catalog_3_5):
        # 3 corners plus 6 truncated corners; their classes are exactly the
        # two disk triangulations of order 4.
        splits = ts.all_splits(triangle)
        assert len(splits) == 9
        assert sum(1 for d, _ in splits if isinstance(d, TruncatedCorner)) == 6
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
        for d, child in ts.all_splits(entry.triangulation)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == SPLIT_CHILDREN


class TestShrinkEdge:
    def test_rod_refusal_reports_impediments(self, proj_plane):
        with pytest.raises(errors.RodEdge) as excinfo:
            ts.shrink_edge(proj_plane, (0, 1))
        assert excinfo.value.impediments == frozenset({ts.Impediment.NONFACIAL_TRIANGLE})

    def test_split_then_shrink_is_identity(self, proj_plane, k5_moebius, tetrahedron):
        for tri in (proj_plane, k5_moebius, tetrahedron):
            for descriptor, child in ts.all_splits(tri)[:15]:
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
            descriptor, child = data.draw(st.sampled_from(ts.all_splits(current)))
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
            nonfacial = coned.nonfacial_triangles
            for edge in tri.boundary_edges:
                assert any(
                    edge[0] in triple and edge[1] in triple for triple in nonfacial
                )
