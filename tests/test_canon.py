"""Canonical codes, isomorphism witnesses, automorphisms and orbits."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import trisurf as ts

from conftest import brute_force_isomorphic


def _shuffled(tri, rng):
    perm = list(tri.vertices)
    rng.shuffle(perm)
    return ts.relabel(tri, tuple(perm))


def _torus_grid(k):
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


@pytest.fixture(scope="module")
def closures():
    """Splitting closures of the sphere 4..8, projective plane 6..8 and
    Moebius band 5..7."""
    return {
        str(kind): ts.enumerate_splitting_range(kind, low, top)
        for kind, low, top in (
            (ts.SPHERE, 4, 8), (ts.PROJECTIVE_PLANE, 6, 8), (ts.MOEBIUS_BAND, 5, 7)
        )
    }


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestCanonicalCode:
    def test_relabel_invariance_on_catalog(self, projective_catalog):
        rng = random.Random(2024)
        for entry in projective_catalog.entries:
            for _ in range(25):
                assert ts.canonical_code(_shuffled(entry.triangulation, rng)) == entry.code

    def test_relabel_invariance_on_bordered(self, k5_moebius, triangle):
        rng = random.Random(5)
        for tri in (k5_moebius, triangle):
            code = ts.canonical_code(tri)
            for _ in range(50):
                assert ts.canonical_code(_shuffled(tri, rng)) == code

    def test_catalog_codes_are_distinct(self, projective_catalog):
        codes = projective_catalog.codes()
        assert len(set(codes)) == len(codes) == 20

    def test_code_determines_invariants(self, moebius_catalog_5_7):
        # Equal codes force equal degree data; distinct members must differ
        # somewhere even when degree data ties.
        by_code = {}
        for entry in moebius_catalog_5_7.entries:
            tri = entry.triangulation
            by_code[entry.code] = (
                tri.degree_sequence, tri.boundary_degrees, tri.surface_kind
            )
        assert len(by_code) == len(moebius_catalog_5_7)

    def test_canonical_faces_rebuild_to_same_class(self, proj_plane):
        rebuilt = ts.build(ts.canonical_faces(proj_plane))
        assert ts.canonical_code(rebuilt) == ts.canonical_code(proj_plane)

    def test_codes_separate_sphere_from_projective(self, tetrahedron, proj_plane):
        assert ts.canonical_code(tetrahedron) != ts.canonical_code(proj_plane)

    def test_relabeling_preserves_all_code_invariants(self, moebius_catalog_5_7):
        # Equal codes force equal degree sequence, boundary degrees and
        # surface kind; exercised through relabelled copies.
        rng = random.Random(41)
        for entry in moebius_catalog_5_7.entries[:25]:
            tri = entry.triangulation
            other = _shuffled(tri, rng)
            assert ts.canonical_code(other) == entry.code
            assert other.degree_sequence == tri.degree_sequence
            assert other.boundary_degrees == tri.boundary_degrees
            assert other.surface_kind == tri.surface_kind


class TestIsomorphism:
    def test_witness_maps_faces_to_faces(self, proj_plane, k5_moebius):
        rng = random.Random(11)
        for tri in (proj_plane, k5_moebius):
            other = _shuffled(tri, rng)
            witness = ts.isomorphism(tri, other)
            assert witness is not None
            mapped = {
                tuple(sorted((witness[a], witness[b], witness[c])))
                for a, b, c in tri.faces
            }
            assert mapped == set(other.faces)

    def test_non_isomorphic_returns_none(self, tetrahedron, proj_plane):
        assert ts.isomorphism(tetrahedron, proj_plane) is None

    def test_different_orders_are_not_isomorphic(self, proj_plane, k5_moebius):
        assert not ts.isomorphic(proj_plane, k5_moebius)


class TestAutomorphisms:
    def test_triangle_group_is_all_permutations(self, triangle):
        group = ts.automorphisms(triangle)
        assert group.size == 6
        assert group.orbits == ((0, 1, 2),)

    def test_tetrahedron_group(self, tetrahedron):
        assert ts.automorphisms(tetrahedron).size == 24

    def test_quotient_group_is_transitive_with_order_multiple_of_six(self, proj_plane):
        group = ts.automorphisms(proj_plane)
        assert group.size % 6 == 0
        assert group.orbits == ((0, 1, 2, 3, 4, 5),)

    def test_group_axioms(self, proj_plane, k5_moebius):
        for tri in (proj_plane, k5_moebius):
            group = ts.automorphisms(tri)
            elements = set(group.elements)
            identity = tuple(tri.vertices)
            assert identity in elements
            for p in group.elements:
                inverse = tuple(sorted(range(len(p)), key=lambda i: p[i]))
                assert inverse in elements
            sample = list(group.elements)[:8]
            for p in sample:
                for q in sample:
                    composed = tuple(p[q[i]] for i in range(len(p)))
                    assert composed in elements

    def test_every_element_preserves_faces(self, proj_plane):
        faces = set(proj_plane.faces)
        for perm in ts.automorphisms(proj_plane).elements:
            assert {
                tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in faces
            } == faces

    def test_group_order_divides_flag_count(self, projective_catalog):
        for entry in projective_catalog.entries:
            flags = 6 * len(entry.triangulation.faces)
            assert flags % ts.automorphisms(entry.triangulation).size == 0

    def test_orbit_sizes_sum_to_order(self, projective_catalog):
        for entry in projective_catalog.entries:
            orbits = ts.vertex_orbits(entry.triangulation)
            assert sum(len(o) for o in orbits) == entry.order

    def test_order_seven_irreducible_member_has_orbits_4_and_3(self, projective_catalog):
        irreducible = [
            e for e in projective_catalog.of_order(7)
            if ts.is_irreducible(e.triangulation)
        ]
        assert len(irreducible) == 1
        orbits = ts.vertex_orbits(irreducible[0].triangulation)
        assert sorted(len(o) for o in orbits) == [3, 4]


class TestBruteForceOracle:
    def test_accepts_relabelings(self, proj_plane):
        rng = random.Random(3)
        assert brute_force_isomorphic(proj_plane, _shuffled(proj_plane, rng))

    def test_rejects_distinct_members(self, projective_catalog):
        order7 = projective_catalog.of_order(7)
        for a, b in combinations(order7, 2):
            assert not brute_force_isomorphic(a.triangulation, b.triangulation)

    def test_agrees_with_codes_on_order_seven(self, projective_catalog):
        rng = random.Random(17)
        members = [e.triangulation for e in projective_catalog.of_order(7)]
        for a in members:
            for b in members:
                expected = ts.canonical_code(a) == ts.canonical_code(b)
                assert brute_force_isomorphic(a, _shuffled(b, rng)) == expected


class TestWideCode:
    def test_torus_grid_with_288_faces_codes_equal_under_relabelling(self):
        # 144 vertices and 288 faces: beyond a one-byte header field.
        tri = _torus_grid(12)
        code = ts.canonical_code(tri)
        assert ts.canonical_code(_shuffled(tri, random.Random(12))) == code
        assert code[0] == 0
        assert code[1:7] == bytes((0, 144, 1, 32, 0, 0))
        assert len(code) == 1 + 2 * (3 + 3 * 288)


# sha256 of the code list and of the canonical labelings of each closure.
# Codes live in catalogs and certificates, so any faster traversal must
# reproduce every byte and the tie-break between minimal flags.
PINNED = {
    "sphere": (
        "afc13bbdf443ad4bc7cae018b42abd306dc2ce146630beb998cb645eff1e64ab",
        "7e44b0f6d6b16693970fdd9731d99e096cad8841f574bca877af0b7832d8c14e",
    ),
    "projective-plane": (
        "a7a977184c933cf2003ead4c0d759c1e31a8676a6996ce4eccf6daa4421a140f",
        "ed1cfb14547641eda8c701c3e12a1662e30a8437ed72a1e20bfb9cffb541b508",
    ),
    "moebius-band": (
        "b02ed096ed2d0fec105983019f532bd082f0983fad3c9a611b09848579f33bd2",
        "f3b48403f275f4405596ebf9dc6bd418849c1db7ab7cf1d480d24e43c876d6d2",
    ),
}


class TestByteIdentity:
    @pytest.mark.parametrize("surface", sorted(PINNED))
    def test_closure_codes_and_labelings_are_pinned(self, closures, surface):
        catalog = closures[surface]
        codes = [e.code.hex() for e in catalog.entries]
        labelings = [
            ",".join(map(str, ts.canonical_labeling(e.triangulation)))
            for e in catalog.entries
        ]
        assert (_sha256(codes), _sha256(labelings)) == PINNED[surface]

    def test_automorphisms_match_brute_force_up_to_order_seven(
        self, closures, disk_catalog_3_5
    ):
        catalogs = [*closures.values(), disk_catalog_3_5]
        checked = 0
        for catalog in catalogs:
            for entry in catalog.entries:
                tri = entry.triangulation
                if tri.order > 7:
                    continue
                faces = set(tri.faces)
                expected = tuple(
                    perm for perm in permutations(tri.vertices)
                    if all(
                        tuple(sorted((perm[a], perm[b], perm[c]))) in faces
                        for a, b, c in tri.faces
                    )
                )
                assert ts.automorphisms(tri).elements == expected
                checked += 1
        assert checked == 9 + 4 + 93 + len(disk_catalog_3_5)


class TestRelabellingProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relabelling_keeps_code_and_group_size(self, closures, data):
        pool = [e.triangulation for c in closures.values() for e in c.entries]
        tri = data.draw(st.sampled_from(pool))
        other = ts.relabel(tri, tuple(data.draw(st.permutations(list(tri.vertices)))))
        assert ts.canonical_code(other) == ts.canonical_code(tri)
        assert ts.automorphisms(other).size == ts.automorphisms(tri).size
