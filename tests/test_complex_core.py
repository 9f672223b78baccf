"""Construction, validation, surface recognition and patch operations."""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import trisurf as ts
from trisurf import errors
from trisurf.complex_core import _is_orientable
from trisurf.enumeration import BASES
from tests.conftest import (
    ANTIPODAL,
    ICOSAHEDRON_FACES,
    reference_build,
    reference_is_orientable,
    split_children,
)

# Face soups over a small label range: random triples, short lists of
# label lists of any length, and subsets of a sphere and of a projective
# plane, which also give disks, Moebius bands, pinched vertices and
# disconnected complexes.
LABELS = st.integers(0, 6)
FACE_SOUPS = st.one_of(
    st.lists(st.lists(LABELS, min_size=3, max_size=3, unique=True), max_size=12),
    st.lists(st.lists(LABELS, max_size=4), max_size=3),
    *(
        st.lists(st.sampled_from(faces), max_size=len(faces), unique=True)
        for faces in (ICOSAHEDRON_FACES, BASES[ts.PROJECTIVE_PLANE][0])
    ),
)

# Every split child of every stored basis member, as dense face lists.
SPLIT_CHILDREN = [
    child.faces
    for bases in BASES.values()
    for faces in bases
    for _, child in split_children(ts.build(faces))
]


@st.composite
def relabelled_children(draw):
    """A split child with shuffled faces and corners under an injective
    relabelling, the identity included."""
    faces = draw(st.sampled_from(SPLIT_CHILDREN))
    order = 1 + max(face[2] for face in faces)
    labels = draw(st.one_of(
        st.just(list(range(order))),
        st.permutations(range(order)),
        st.lists(st.integers(0, 3 * order), min_size=order, max_size=order, unique=True),
    ))
    return [
        tuple(labels[v] for v in draw(st.permutations(face)))
        for face in draw(st.permutations(faces))
    ]


@st.composite
def mixed_label_soups(draw):
    """A face soup or relabelled child in which labels may become floats,
    and 0 and 1 may become booleans (equal, but not the same labels); each
    face is a list or a tuple."""
    soup = draw(st.one_of(FACE_SOUPS, relabelled_children()))
    convert = {
        "int": lambda v: v,
        "float": float,
        "bool": lambda v: bool(v) if v in (0, 1) else v,
    }
    return [
        draw(st.sampled_from((list, tuple)))(
            convert[draw(st.sampled_from(sorted(convert)))](v) for v in face
        )
        for face in soup
    ]


def _outcome(build, soup) -> str:
    """Every field build stores or derives, or the error, with types shown."""
    try:
        tri = build(soup)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((
        tri.faces, tri.order, tri.edges, tri.neighbors, tri.degrees,
        sorted(tri.boundary_vertices), tri.links, tri.surface_kind,
    ))


class TestBuild:
    def test_single_triangle(self, triangle):
        assert triangle.order == 3
        assert len(triangle.faces) == 1
        assert len(triangle.edges) == 3
        assert triangle.boundary_cycles == ((0, 1, 2),)
        assert triangle.surface_kind == ts.DISK

    def test_labels_are_remapped_densely(self):
        tri = ts.build([(10, 20, 7)])
        assert tri.faces == ((0, 1, 2),)
        assert tri.order == 3

    def test_value_is_its_faces_and_order(self, proj_plane):
        # The order is a field with no default: a value built without it
        # is refused, not given 0 vertices.
        assert ts.Triangulation(proj_plane.faces, proj_plane.order) == proj_plane
        with pytest.raises(TypeError):
            ts.Triangulation(proj_plane.faces)

    def test_empty_input_rejected(self):
        with pytest.raises(errors.EmptyComplex):
            ts.build([])

    def test_degenerate_face_rejected(self):
        with pytest.raises(errors.InvalidFace):
            ts.build([(0, 1, 1)])

    def test_duplicate_face_rejected(self):
        with pytest.raises(errors.DuplicateFace):
            ts.build([(0, 1, 2), (2, 1, 0)])

    def test_edge_in_three_faces_rejected(self):
        with pytest.raises(errors.NonSurfaceEdge):
            ts.build([(0, 1, 2), (0, 1, 3), (0, 1, 4)])

    def test_pinched_vertex_rejected(self):
        # Two triangles joined at a single vertex (bowtie).
        with pytest.raises(errors.PinchedVertex):
            ts.build([(0, 1, 2), (0, 3, 4)])

    def test_disconnected_rejected(self):
        with pytest.raises(errors.Disconnected):
            ts.build([(0, 1, 2), (3, 4, 5)])

    def test_face_counting_relation(self, tetrahedron, proj_plane, k5_moebius, triangle):
        # 3F = 2 * interior edges + boundary edges.
        for tri in (tetrahedron, proj_plane, k5_moebius, triangle):
            interior = len(tri.edges) - len(tri.boundary_edges)
            assert 3 * len(tri.faces) == 2 * interior + len(tri.boundary_edges)


def _assert_link_walks_the_star(tri, v):
    """The link of ``v`` has one entry per neighbour, and ``v`` with each
    consecutive pair gives exactly the faces of its star, wrapping around
    exactly when ``v`` is interior."""
    link = tri.links[v]
    assert len(link) == tri.degrees[v]
    pairs = list(zip(link, link[1:]))
    if v not in tri.boundary_vertices:
        pairs.append((link[-1], link[0]))
    walked = sorted(tuple(sorted((v, x, y))) for x, y in pairs)
    assert walked == [face for face in tri.faces if v in face]


class TestVertexLinks:
    def test_interior_link_is_cycle(self, tetrahedron):
        assert sorted(tetrahedron.links[0]) == [1, 2, 3]
        _assert_link_walks_the_star(tetrahedron, 0)

    def test_boundary_link_is_path(self, triangle):
        assert triangle.links[0] == (1, 2)
        _assert_link_walks_the_star(triangle, 0)

    def test_link_degree_matches_graph_degree(self, proj_plane, k5_moebius, annulus):
        for tri in (proj_plane, k5_moebius, annulus):
            for v in tri.vertices:
                _assert_link_walks_the_star(tri, v)


class TestSurfaceKind:
    def test_known_kinds(self, triangle, tetrahedron, octahedron):
        assert triangle.surface_kind == ts.DISK
        assert tetrahedron.surface_kind == ts.SPHERE
        assert octahedron.surface_kind == ts.SPHERE

    def test_icosahedron(self, icosahedron):
        assert icosahedron.order == 12
        assert len(icosahedron.edges) == 30
        assert len(icosahedron.faces) == 20
        assert icosahedron.surface_kind == ts.SPHERE

    def test_annulus_has_two_boundary_cycles(self, annulus):
        kind = annulus.surface_kind
        assert kind == ts.SurfaceKind(0, True, 2)
        assert len(annulus.boundary_cycles) == 2

    def test_kind_invariant_under_relabeling(self, proj_plane, k5_moebius):
        rng = random.Random(7)
        for tri in (proj_plane, k5_moebius):
            for _ in range(20):
                perm = list(tri.vertices)
                rng.shuffle(perm)
                assert ts.relabel(tri, tuple(perm)).surface_kind == tri.surface_kind


class TestAntipodalQuotient:
    def test_involution_is_a_face_preserving_antipodal_map(self, icosahedron):
        faces = {tuple(sorted(f)) for f in ICOSAHEDRON_FACES}
        for v, w in ANTIPODAL.items():
            assert ANTIPODAL[w] == v
            assert v != w
            assert not icosahedron.has_edge(v, w)
        for a, b, c in faces:
            image = tuple(sorted((ANTIPODAL[a], ANTIPODAL[b], ANTIPODAL[c])))
            assert image in faces

    def test_quotient_is_the_minimal_projective_plane(self, proj_plane):
        assert proj_plane.order == 6
        assert len(proj_plane.faces) == 10
        # Complete graph on six vertices.
        assert len(proj_plane.edges) == 15
        assert proj_plane.degree_sequence == (5,) * 6
        assert proj_plane.surface_kind == ts.PROJECTIVE_PLANE


class TestConeAndRemove:
    def test_cone_triangle_gives_tetrahedron(self, triangle, tetrahedron):
        assert ts.isomorphic(ts.cone_boundary(triangle), tetrahedron)

    def test_cone_raises_on_closed(self, tetrahedron):
        with pytest.raises(errors.NotBordered):
            ts.cone_boundary(tetrahedron)

    def test_cone_raises_on_two_boundary_cycles(self, annulus):
        with pytest.raises(errors.NotBordered):
            ts.cone_boundary(annulus)

    def test_cone_increments_euler_characteristic(self, k5_moebius):
        coned = ts.cone_boundary(k5_moebius)
        assert coned.euler_characteristic == k5_moebius.euler_characteristic + 1

    def test_remove_any_tetrahedron_vertex_gives_triangle(self, tetrahedron, triangle):
        for v in tetrahedron.vertices:
            assert ts.remove_vertex_star(tetrahedron, v).faces == triangle.faces

    def test_remove_requires_closed(self, triangle):
        with pytest.raises(errors.NotClosed):
            ts.remove_vertex_star(triangle, 0)

    def test_quotient_minus_any_vertex_is_the_k5_moebius_band(self, proj_plane, k5_moebius):
        for v in proj_plane.vertices:
            removed = ts.remove_vertex_star(proj_plane, v)
            assert removed.order == 5
            assert removed.surface_kind == ts.MOEBIUS_BAND
            assert ts.isomorphic(removed, k5_moebius)

    def test_cone_and_remove_are_mutually_inverse(self, proj_plane, k5_moebius):
        coned = ts.cone_boundary(k5_moebius)
        assert ts.isomorphic(coned, proj_plane)
        assert ts.isomorphic(ts.remove_vertex_star(coned, 5), k5_moebius)

    @pytest.mark.parametrize("v", [4, -1, 1.5])
    def test_remove_missing_vertex_is_not_a_surface(self, tetrahedron, v):
        with pytest.raises(errors.ResultNotSurface, match=f"vertex {v} does not exist"):
            ts.remove_vertex_star(tetrahedron, v)


class TestDerivedDataLifetime:
    def test_value_with_computed_data_is_freed(self, proj_plane):
        # Derived data is cached on the value itself; no module-level cache
        # may keep a short-lived complex alive.
        child = ts.split_corner(proj_plane, ts.corners(proj_plane)[0])
        ts.canonical_code(child)
        ts.cable_subgraph(child)
        ts.classify_edge(child, child.edges[0])
        ts.is_irreducible(child)
        ts.vertex_orbits(child)
        ts.pylonic_vertices(child)
        ref = weakref.ref(child)
        del child
        gc.collect()
        assert ref() is None

    def test_no_module_binds_a_cache(self):
        # Derived data lives on the value it derives from, so no module
        # holds a cache that would outlive or share it.
        for info in pkgutil.iter_modules(ts.__path__, "trisurf."):
            module = importlib.import_module(info.name)
            cached = [
                name for name, value in vars(module).items()
                if isinstance(value, functools._lru_cache_wrapper)
            ]
            assert not cached, (info.name, cached)

    def test_cables_are_computed_once_per_value(self, proj_plane):
        child = ts.split_corner(proj_plane, ts.corners(proj_plane)[0])
        assert child.cables
        assert ts.cable_subgraph(child) is ts.cable_subgraph(child)

    def test_child_with_unread_links_is_freed(self, proj_plane):
        child = ts.split_corner(proj_plane, ts.corners(proj_plane)[0])
        ts.canonical_code(child)
        assert "links" not in vars(child)
        ref = weakref.ref(child)
        del child
        gc.collect()
        assert ref() is None

    def test_coding_a_split_child_reads_neither_boundary_edges_nor_links(self, proj_plane):
        # The code's header counts the boundary edges as 2E - 3F and the
        # candidate flags read the degrees and boundary vertices build stored.
        for _, child in split_children(proj_plane):
            ts.canonical_code(child)
            assert "boundary_edges" not in vars(child)
            assert "links" not in vars(child)

    def test_links_read_after_build_match_the_reference(self, proj_plane):
        children = [child for _, child in split_children(proj_plane)]
        assert not any("links" in vars(child) for child in children)
        for child in children:
            assert child.links == reference_build(child.faces).links


class TestFaceSoupProperty:
    @settings(max_examples=300, deadline=None)
    @given(soup=FACE_SOUPS)
    def test_build_gives_a_surface_or_a_named_error(self, soup):
        try:
            tri = ts.build(soup)
        except errors.TriangulationError:
            return
        assert all(len(faces) <= 2 for faces in tri.edge_faces.values())
        for v in tri.vertices:
            _assert_link_walks_the_star(tri, v)
        assert tri.surface_kind.euler_characteristic == tri.euler_characteristic


class TestReferenceBuild:
    @settings(max_examples=400, deadline=None)
    @given(soup=st.one_of(FACE_SOUPS, relabelled_children(), mixed_label_soups()))
    def test_build_matches_the_reference_pipeline(self, soup):
        assert _outcome(ts.build, soup) == _outcome(reference_build, soup)

    @pytest.mark.parametrize("soup", [
        [(0, 1, 2), (True, 2, 3)],
        [(1, 0.0, 2), (1, 2, 3)],
        [(0, 1, 2), (1, 2.0, 3)],
        [(0, 1, 2), (1, 2, 3), (1, 2, 4)],
        # Vertex 0's link: two cycles, then a cycle and a path.
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5), (0, 5, 6), (0, 6, 4)],
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 4, 5)],
        [(0, 1, 2), (3, 4, 5)],
    ])
    def test_named_corner_cases(self, soup):
        assert _outcome(ts.build, soup) == _outcome(reference_build, soup)


@pytest.fixture(scope="module")
def closure_members():
    """Every member of the sphere 4..8, projective-plane 6..8 and Moebius
    band 5..8 splitting closures."""
    return [
        entry.triangulation
        for kind, low, high in (
            (ts.SPHERE, 4, 8), (ts.PROJECTIVE_PLANE, 6, 8), (ts.MOEBIUS_BAND, 5, 8)
        )
        for entry in ts.enumerate_splitting_range(kind, low, high).entries
    ]


class TestReferenceOrientability:
    @settings(max_examples=400, deadline=None)
    @given(soup=st.one_of(FACE_SOUPS, relabelled_children()))
    def test_signs_match_the_directed_edge_search(self, soup):
        try:
            tri = ts.build(soup)
        except errors.TriangulationError:
            return
        assert _is_orientable(tri) == reference_is_orientable(tri)

    def test_closure_members_match_the_directed_edge_search(self, closure_members):
        answers = [_is_orientable(tri) for tri in closure_members]
        assert answers == [reference_is_orientable(tri) for tri in closure_members]
        assert set(answers) == {True, False}


class TestFaceListFormat:
    def test_round_trip(self, proj_plane):
        text = ts.dumps(proj_plane)
        again = ts.loads(text)
        assert again.faces == proj_plane.faces
        assert ts.dumps(again) == text

    def test_comments_and_blank_lines(self):
        tri = ts.loads("# a triangle\n\n0 1 2   # inline comment\n")
        assert tri.faces == ((0, 1, 2),)

    def test_parse_error_reports_line_number(self):
        with pytest.raises(errors.ParseError, match="line 2"):
            ts.loads("0 1 2\n3 4\n")
        with pytest.raises(errors.ParseError, match="line 1"):
            ts.loads("a b c\n")

    def test_duplicate_face_reports_line_number(self):
        with pytest.raises(errors.DuplicateFace, match="line 3"):
            ts.loads("0 1 2\n1 2 3\n2 1 0\n")

    def test_negative_label_rejected(self):
        with pytest.raises(errors.ParseError):
            ts.loads("0 1 -2\n")
