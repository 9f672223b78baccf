"""Canonical codes, isomorphism witnesses, automorphisms and orbits."""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import trisurf as ts
from trisurf import canon, enumeration, moves

from conftest import brute_force_isomorphic, group_orbits, reference_canonical_form


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


def _count_sweeps(monkeypatch):
    """Count ``_traverse`` calls from now on; returns the live list of calls."""
    sweeps = []
    real = canon._traverse
    monkeypatch.setattr(
        canon, "_traverse", lambda *args: sweeps.append(args) or real(*args)
    )
    return sweeps


@pytest.fixture(scope="module")
def counted_closures():
    """Splitting closures of the sphere 4..8, projective plane 6..8 and
    Moebius band 5..7, and the (``build`` calls, canonical forms) each took.

    Each closure builds its seeds afresh, so no value it codes was coded
    before and the counts do not depend on which tests ran first.
    """
    calls = {"build": 0, "form": 0}

    def counting(name, real):
        def wrapper(arg):
            calls[name] += 1
            return real(arg)
        return wrapper

    catalogs, work = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        counting_build = counting("build", moves.build)
        mp.setattr(moves, "build", counting_build)
        mp.setattr(enumeration, "build", counting_build)
        mp.setattr(canon, "_canonical_form", counting("form", canon._canonical_form))
        for kind, low, top in (
            (ts.SPHERE, 4, 8), (ts.PROJECTIVE_PLANE, 6, 8), (ts.MOEBIUS_BAND, 5, 7)
        ):
            calls.update(build=0, form=0)
            catalogs[str(kind)] = ts.enumerate_splitting_range(kind, low, top)
            work[str(kind)] = (calls["build"], calls["form"])
    return catalogs, work


@pytest.fixture(scope="module")
def closures(counted_closures):
    return counted_closures[0]


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
        assert len(ts.automorphisms(triangle)) == 6
        assert group_orbits(triangle) == ((0, 1, 2),)

    def test_tetrahedron_group(self, tetrahedron):
        assert len(ts.automorphisms(tetrahedron)) == 24

    def test_quotient_group_is_transitive_with_order_multiple_of_six(self, proj_plane):
        assert len(ts.automorphisms(proj_plane)) % 6 == 0
        assert group_orbits(proj_plane) == ((0, 1, 2, 3, 4, 5),)

    def test_group_axioms(self, proj_plane, k5_moebius):
        for tri in (proj_plane, k5_moebius):
            group = ts.automorphisms(tri)
            elements = set(group)
            identity = tuple(tri.vertices)
            assert identity in elements
            for p in group:
                inverse = tuple(sorted(range(len(p)), key=lambda i: p[i]))
                assert inverse in elements
            sample = group[:8]
            for p in sample:
                for q in sample:
                    composed = tuple(p[q[i]] for i in range(len(p)))
                    assert composed in elements

    def test_every_element_preserves_faces(self, proj_plane):
        faces = set(proj_plane.faces)
        for perm in ts.automorphisms(proj_plane):
            assert {
                tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in faces
            } == faces

    def test_group_order_divides_flag_count(self, projective_catalog):
        for entry in projective_catalog.entries:
            flags = 6 * len(entry.triangulation.faces)
            assert flags % len(ts.automorphisms(entry.triangulation)) == 0

    def test_orbit_sizes_sum_to_order(self, projective_catalog):
        for entry in projective_catalog.entries:
            orbits = ts.vertex_orbits(entry.triangulation)
            assert sum(len(o) for o in orbits) == entry.order

    @pytest.mark.parametrize("k", range(3, 9))
    def test_torus_grid_group_is_flag_transitive(self, k):
        # The regular map {3,6}_(k,0): every one of the 12k^2 flags ties,
        # and each is the image of the first under one automorphism.
        tri = _torus_grid(k)
        assert len(ts.automorphisms(tri)) == 12 * k * k
        assert group_orbits(tri) == (tuple(range(k * k)),)

    def test_group_is_read_off_the_canonical_form(self, monkeypatch, projective_catalog):
        # Once the code is known, neither the group nor the orbits sweep a flag.
        tris = [e.triangulation for e in projective_catalog.entries]
        for tri in tris:
            ts.canonical_code(tri)
        sweeps = _count_sweeps(monkeypatch)
        for tri in tris:
            ts.automorphisms(tri)
            ts.vertex_orbits(tri)
        assert sweeps == []

    @pytest.mark.parametrize("k", range(3, 9))
    def test_vertex_orbits_equal_the_group_orbits_on_torus_grids(self, k):
        tri = _shuffled(_torus_grid(k), random.Random(k))
        assert ts.vertex_orbits(tri) == group_orbits(tri)

    def test_vertex_orbits_equal_the_group_orbits_on_closure_members(self, closures):
        for catalog in closures.values():
            for entry in catalog.entries:
                tri = entry.triangulation
                assert ts.vertex_orbits(tri) == group_orbits(tri)

    def test_order_seven_irreducible_member_has_orbits_4_and_3(self, projective_catalog):
        irreducible = [
            e for e in projective_catalog.of_order(7)
            if ts.is_irreducible(e.triangulation)
        ]
        assert len(irreducible) == 1
        orbits = ts.vertex_orbits(irreducible[0].triangulation)
        assert sorted(len(o) for o in orbits) == [3, 4]


@pytest.fixture(scope="module")
def oracle_pool(closures):
    """Relabelled torus grids k = 3..8, each also with one vertex star
    removed (a symmetric bordered complex), and every closure member."""
    rng = random.Random(8)
    tori = [_shuffled(_torus_grid(k), rng) for k in range(3, 9)]
    punctured = [ts.remove_vertex_star(tri, 0) for tri in tori]
    members = [e.triangulation for c in closures.values() for e in c.entries]
    return [*tori, *punctured, *members]


# Sweeps taken to code fresh copies of every member of each closure.  The
# sweep-every-flag loop takes 218 / 183 / 298.
MEMBER_SWEEPS = {"sphere": 66, "projective-plane": 85, "moebius-band": 266}


class TestAutomorphismPruning:
    def test_pruned_form_equals_every_flag_sweep(self, oracle_pool):
        for tri in oracle_pool:
            assert tri._canonical == reference_canonical_form(tri)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pruned_form_equals_every_flag_sweep_under_relabelling(self, oracle_pool, data):
        tri = data.draw(st.sampled_from(oracle_pool))
        perm = tuple(data.draw(st.permutations(list(tri.vertices))))
        other = ts.relabel(tri, perm)
        assert other._canonical == reference_canonical_form(other)

    @pytest.mark.parametrize("k", [4, 5, 7, 12])
    def test_torus_grid_sweeps_about_log2_of_its_group(self, monkeypatch, k):
        # Every flag ties; each swept tie at least doubles the group found.
        tri = _shuffled(_torus_grid(k), random.Random(k))
        sweeps = _count_sweeps(monkeypatch)
        ts.canonical_code(tri)
        assert len(sweeps) <= 1 + math.log2(12 * k * k)
        assert len(tri._canonical[1]) == 12 * k * k

    @pytest.mark.parametrize("surface", sorted(MEMBER_SWEEPS))
    def test_closure_member_sweeps_are_pinned(self, monkeypatch, closures, surface):
        copies = [ts.build(e.triangulation.faces) for e in closures[surface].entries]
        sweeps = _count_sweeps(monkeypatch)
        for tri in copies:
            ts.canonical_code(tri)
        assert len(sweeps) == MEMBER_SWEEPS[surface]


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
        assert len(ts.automorphisms(tri)) == 1728

    def test_torus_grid_with_256_vertices_needs_the_wide_order_field(self):
        tri = _torus_grid(16)
        code = ts.canonical_code(tri)
        assert ts.canonical_code(_shuffled(tri, random.Random(16))) == code
        assert code[0] == 0
        assert code[1:7] == bytes((1, 0, 2, 0, 0, 0))
        assert len(code) == 1 + 2 * (3 + 3 * 512)
        assert len(ts.automorphisms(tri)) == 3072


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


# sha256 of each closure's whole catalog text: face lists, provenance
# (parent code and split descriptor) and header included.
CATALOG_BYTES = {
    "sphere": "aadb84f6cb35b462648f16f4dd4815f15840d4e26393c8ccf9aa244753fa299d",
    "projective-plane": "7fe0da16d87b0ab34ecc44261d9d371b9249c47c314e4cd39b8787c86846390a",
    "moebius-band": "32896d0b73ff5baa557156d2c594a56a4a957e079b575d32a196cbcc165f176f",
}

# (build calls, canonical forms computed) by each closure.  ``all_splits``
# builds one child per automorphism orbit of a parent's split descriptors
# and the closure codes each, so every value built is coded once; building
# a child nobody codes, or coding one twice, shows here though no catalog
# byte changes.
CLOSURE_WORK = {
    "sphere": (82, 82),
    "projective-plane": (44, 44),
    "moebius-band": (202, 202),
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

    @pytest.mark.parametrize("surface", sorted(CATALOG_BYTES))
    def test_closure_catalog_bytes_are_pinned(self, closures, surface):
        text = ts.serialize_catalog(closures[surface])
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_BYTES[surface]

    @pytest.mark.parametrize("surface", sorted(CLOSURE_WORK))
    def test_closure_work_is_pinned(self, counted_closures, surface):
        assert counted_closures[1][surface] == CLOSURE_WORK[surface]

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
                assert ts.automorphisms(tri) == expected
                checked += 1
        assert checked == 9 + 4 + 93 + len(disk_catalog_3_5)


class TestRelabellingProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relabelling_keeps_code_and_group_size(self, closures, data):
        pool = [e.triangulation for c in closures.values() for e in c.entries]
        tri = data.draw(st.sampled_from(pool))
        perm = tuple(data.draw(st.permutations(list(tri.vertices))))
        other = ts.relabel(tri, perm)
        assert ts.canonical_code(other) == ts.canonical_code(tri)
        # g is an automorphism of tri exactly when perm g perm^-1 is one
        # of the relabelled copy.
        inverse = sorted(range(tri.order), key=perm.__getitem__)
        conjugates = sorted(
            tuple(perm[g[inverse[v]]] for v in range(tri.order))
            for g in ts.automorphisms(tri)
        )
        assert ts.automorphisms(other) == tuple(conjugates)
