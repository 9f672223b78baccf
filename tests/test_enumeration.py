"""Catalog engines: splitting closure, exhaustive search, diffing, files."""

from __future__ import annotations

import pytest

import trisurf as ts
from trisurf import errors
from trisurf.enumeration import BASES, Catalog

from conftest import brute_force_isomorphic


class TestExhaustive:
    def test_sphere_counts(self):
        # Classical census of sphere triangulations by order.
        for order, expected in ((4, 1), (5, 1), (6, 2), (7, 5)):
            assert len(ts.enumerate_exhaustive(ts.SPHERE, order)) == expected

    def test_tetrahedron_is_the_unique_order_4_sphere(self, tetrahedron):
        catalog = ts.enumerate_exhaustive(ts.SPHERE, 4)
        assert catalog.codes() == (ts.canonical_code(tetrahedron),)

    def test_disk_counts(self, disk_catalog_3_5):
        assert [len(disk_catalog_3_5.of_order(n)) for n in (3, 4, 5)] == [1, 2, 4]

    def test_projective_plane_counts(self, projective_catalog):
        assert [len(projective_catalog.of_order(n)) for n in (6, 7, 8)] == [1, 3, 16]

    def test_order_6_member_is_the_icosahedron_quotient(self, projective_catalog, proj_plane):
        assert projective_catalog.of_order(6)[0].code == ts.canonical_code(proj_plane)

    def test_no_moebius_band_below_order_5(self):
        assert len(ts.enumerate_exhaustive(ts.MOEBIUS_BAND, 4)) == 0

    def test_order_5_moebius_band_is_unique(self, k5_moebius):
        catalog = ts.enumerate_exhaustive(ts.MOEBIUS_BAND, 5)
        assert catalog.codes() == (ts.canonical_code(k5_moebius),)

    def test_ceiling(self):
        with pytest.raises(errors.CeilingExceeded):
            ts.enumerate_exhaustive(ts.SPHERE, 10)

    def test_order_beyond_the_search_limit_is_refused(self):
        with pytest.raises(errors.CeilingExceeded, match="limit 15"):
            ts.enumerate_exhaustive(ts.SPHERE, 16, ceiling=20)

    def test_range_merges_orders(self, sphere_catalog_4_6):
        assert len(sphere_catalog_4_6) == 4
        assert (sphere_catalog_4_6.min_order, sphere_catalog_4_6.max_order) == (4, 6)

    def test_parallel_run_is_identical(self, sphere_catalog_4_6):
        parallel = ts.enumerate_exhaustive_range(ts.SPHERE, 4, 6, jobs=2)
        assert parallel.codes() == sphere_catalog_4_6.codes()

    def test_unique_torus_triangulation_of_order_7(self):
        # Classical fact: the complete graph K7 triangulates the torus,
        # uniquely at order 7.
        torus = ts.SurfaceKind(0, True, 0)
        catalog = ts.enumerate_exhaustive(torus, 7)
        assert len(catalog) == 1
        member = catalog.entries[0].triangulation
        assert len(member.edges) == 21
        assert member.degree_sequence == (6,) * 7


class TestSplittingClosure:
    def test_sphere_closure_matches_exhaustive(self, tetrahedron, sphere_catalog_4_6):
        closure = ts.generate_by_splitting([tetrahedron], 6, ["tetrahedron"])
        assert ts.compare_catalogs(sphere_catalog_4_6, closure).is_empty

    def test_sphere_closure_matches_exhaustive_at_order_7(self, tetrahedron):
        exhaustive = ts.enumerate_exhaustive_range(ts.SPHERE, 4, 7)
        closure = ts.generate_by_splitting([tetrahedron], 7, ["tetrahedron"])
        assert len(closure) == len(exhaustive) == 9
        assert ts.compare_catalogs(exhaustive, closure).is_empty

    def test_disk_closure_matches_exhaustive(self, triangle, disk_catalog_3_5):
        closure = ts.generate_by_splitting([triangle], 5, ["triangle"])
        assert ts.compare_catalogs(disk_catalog_3_5, closure).is_empty

    def test_moebius_closure_matches_exhaustive(self, moebius_catalog_5_7):
        closure = ts.enumerate_splitting_range(ts.MOEBIUS_BAND, 5, 7)
        seeds = [e for e in closure.entries if e.provenance.startswith("seed:")]
        assert len(seeds) == 6
        assert ts.compare_catalogs(moebius_catalog_5_7, closure).is_empty

    def test_moebius_closure_matches_exhaustive_at_order_8(
        self, moebius_catalog_5_8, no_search
    ):
        # The strongest engine cross-check in the suite: both routes must
        # agree on all 1058 moebius-band classes up to order 8, and the
        # splitting route must get there without entering the search.
        closure = ts.enumerate_splitting_range(ts.MOEBIUS_BAND, 5, 8)
        assert len(closure) == len(moebius_catalog_5_8) == 1058
        assert ts.compare_catalogs(moebius_catalog_5_8, closure).is_empty

    def test_projective_counts_by_splitting_alone(self, no_search):
        # Sulanke & Lutz, Eur. J. Combin. 30 (2009).
        closure = ts.enumerate_splitting_range(ts.PROJECTIVE_PLANE, 6, 9)
        assert [len(closure.of_order(n)) for n in range(6, 10)] == [1, 3, 16, 134]

    def test_range_below_the_basis_is_empty(self, no_search):
        closure = ts.enumerate_splitting_range(ts.SPHERE, 3, 3)
        assert (closure.engine, closure.min_order, closure.max_order) == ("splitting", 3, 3)
        assert len(closure) == 0

    def test_surface_without_a_stored_basis_is_refused(self):
        with pytest.raises(ValueError, match="no stored splitting basis"):
            ts.enumerate_splitting_range(ts.SurfaceKind(0, True, 0), 7, 7)

    def test_seed_order_above_max_rejected(self, tetrahedron):
        with pytest.raises(ValueError):
            ts.generate_by_splitting([tetrahedron], 3)

    def test_mixed_kinds_rejected(self, tetrahedron, proj_plane):
        with pytest.raises(errors.MixedSurfaceKinds):
            ts.generate_by_splitting([tetrahedron, proj_plane], 8)

    def test_layers_grow_by_one(self, tetrahedron):
        closure = ts.generate_by_splitting([tetrahedron], 7, ["tetrahedron"])
        by_code = {e.code: e for e in closure.entries}
        for entry in closure.entries:
            if entry.provenance.startswith("seed:"):
                continue
            parent_hex, _ = entry.provenance.split(":", 1)
            parent = by_code[bytes.fromhex(parent_hex)]
            assert entry.order == parent.order + 1

    def test_provenance_replays(self, projective_catalog):
        seeds = [
            e.triangulation for e in projective_catalog.entries
            if ts.is_irreducible(e.triangulation)
        ]
        closure = ts.generate_by_splitting(seeds, 8)
        by_code = {e.code: e for e in closure.entries}
        replayed = 0
        for entry in closure.entries:
            if entry.provenance.startswith("seed:"):
                continue
            parent_hex, descriptor = entry.provenance.split(":", 1)
            parent = by_code[bytes.fromhex(parent_hex)]
            child = ts.apply_descriptor(parent.triangulation, descriptor)
            assert ts.canonical_code(child) == entry.code
            replayed += 1
        assert replayed == len(closure) - len(seeds)


class TestCompare:
    def test_dropping_one_entry_shows_in_diff(self, sphere_catalog_4_6):
        truncated = Catalog(
            sphere_catalog_4_6.kind,
            sphere_catalog_4_6.min_order,
            sphere_catalog_4_6.max_order,
            sphere_catalog_4_6.engine,
            sphere_catalog_4_6.entries[:-1],
        )
        diff = ts.compare_catalogs(sphere_catalog_4_6, truncated)
        assert len(diff.only_in_a) == 1
        assert not diff.only_in_b
        assert not diff.is_empty

    def test_incomparable_kind(self, sphere_catalog_4_6, disk_catalog_3_5):
        with pytest.raises(errors.IncomparableCatalogs):
            ts.compare_catalogs(sphere_catalog_4_6, disk_catalog_3_5)

    def test_incomparable_range(self, sphere_catalog_4_6):
        with pytest.raises(errors.IncomparableCatalogs):
            ts.compare_catalogs(
                sphere_catalog_4_6, sphere_catalog_4_6.restricted(4, 5)
            )


class TestCatalogFile:
    def test_round_trip(self, projective_catalog):
        text = ts.serialize_catalog(projective_catalog)
        again = ts.parse_catalog(text)
        assert again.kind == projective_catalog.kind
        assert again.codes() == projective_catalog.codes()
        assert [e.provenance for e in again.entries] == [
            e.provenance for e in projective_catalog.entries
        ]
        assert ts.serialize_catalog(again) == text

    def test_tampered_face_list_is_rejected(self, sphere_catalog_4_6):
        text = ts.serialize_catalog(sphere_catalog_4_6)
        lines = text.splitlines()
        # Swap the face list of the first record for a different complex.
        record = lines[7].split(" ", 3)
        record[2] = "0,1,2;0,1,3;0,2,4;0,3,4;1,2,4;1,3,4"
        lines[7] = " ".join(record)
        with pytest.raises(errors.ParseError, match="does not match"):
            ts.parse_catalog("\n".join(lines))

    def test_missing_separator_rejected(self):
        with pytest.raises(errors.ParseError):
            ts.parse_catalog("surface: sphere\n")

    def test_unsorted_records_are_a_parse_error(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        lines[7], lines[8] = lines[8], lines[7]
        with pytest.raises(errors.ParseError, match="must be sorted"):
            ts.parse_catalog("\n".join(lines))

    def test_duplicated_record_is_a_parse_error(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        lines.insert(8, lines[7])
        with pytest.raises(errors.ParseError, match="distinct codes"):
            ts.parse_catalog("\n".join(lines))

    def test_bad_order_range_header_is_a_parse_error(self):
        with pytest.raises(errors.ParseError, match="bad orders '4-6'"):
            ts.parse_catalog("surface: sphere\norders: 4-6\nengine: exhaustive\n---\n")

    def test_unknown_surface_is_a_parse_error(self):
        with pytest.raises(errors.ParseError, match="catalog header: unknown surface 'foo'"):
            ts.parse_catalog("surface: foo\norders: 4..6\nengine: exhaustive\n---\n")

    def test_missing_header_field_is_named(self):
        with pytest.raises(errors.ParseError, match="missing field: 'engine'"):
            ts.parse_catalog("surface: sphere\norders: 4..6\n---\n")

    def test_bad_code_hex_is_a_parse_error(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        lines[7] = "zz" + lines[7][2:]
        with pytest.raises(errors.ParseError, match="bad catalog record"):
            ts.parse_catalog("\n".join(lines))


class TestBasis:
    """Each stored basis is re-derived by exhaustive search: no order below
    its minimum has a member, and the irreducible members together with
    those of minimum order (irreducible by minimality; the tetrahedron's
    edges pass the impediment test) are exactly the stored members."""

    @staticmethod
    def _derive(kind, catalog):
        stored = [ts.build(faces) for faces in BASES[kind]]
        lowest = min(tri.order for tri in stored)
        for order in range(1, lowest):
            assert len(ts.enumerate_exhaustive(kind, order)) == 0
        assert catalog.min_order == lowest
        derived = [
            e.code for e in catalog.entries
            if e.order == lowest or ts.is_irreducible(e.triangulation)
        ]
        assert derived == [ts.canonical_code(tri) for tri in stored]
        return derived

    def test_sphere_basis_is_the_tetrahedron(self, tetrahedron):
        derived = self._derive(ts.SPHERE, ts.enumerate_exhaustive_range(ts.SPHERE, 4, 7))
        assert derived == [ts.canonical_code(tetrahedron)]

    def test_disk_basis_is_the_triangle(self, triangle):
        derived = self._derive(ts.DISK, ts.enumerate_exhaustive_range(ts.DISK, 3, 6))
        assert derived == [ts.canonical_code(triangle)]

    def test_projective_basis_has_two_members(self, projective_catalog):
        derived = self._derive(ts.PROJECTIVE_PLANE, projective_catalog)
        assert [projective_catalog.get(code).order for code in derived] == [6, 7]

    def test_moebius_basis_is_the_certified_six(self, moebius_catalog_5_8, certificate):
        derived = self._derive(ts.MOEBIUS_BAND, moebius_catalog_5_8)
        assert derived == [record.code for record in certificate.derivations]


class TestSubsetOracle:
    """Third correctness leg: enumerate tiny catalogs by brute force over
    all face subsets (shared with neither engine) and compare class counts
    via the permutation oracle."""

    @staticmethod
    def _classes_by_subsets(n, kind, face_counts):
        from collections import Counter
        from itertools import combinations

        triples = list(combinations(range(n), 3))
        representatives = []
        for size in face_counts:
            for subset in combinations(triples, size):
                counts = Counter(
                    e for f in subset for e in combinations(f, 2)
                )
                if any(c > 2 for c in counts.values()):
                    continue
                if len({v for f in subset for v in f}) != n:
                    continue
                try:
                    tri = ts.build(subset)
                except errors.TriangulationError:
                    continue
                if tri.surface_kind != kind:
                    continue
                if not any(
                    brute_force_isomorphic(tri, seen) for seen in representatives
                ):
                    representatives.append(tri)
        return representatives

    @pytest.mark.parametrize(
        "n,kind,face_counts",
        [
            (4, ts.DISK, (2, 3)),
            (5, ts.MOEBIUS_BAND, (5, 6, 7)),
            (5, ts.SPHERE, (6,)),
            (6, ts.SPHERE, (8,)),
            (6, ts.PROJECTIVE_PLANE, (10,)),
        ],
    )
    def test_engine_matches_subset_enumeration(self, n, kind, face_counts):
        subset_classes = self._classes_by_subsets(n, kind, face_counts)
        catalog = ts.enumerate_exhaustive(kind, n)
        assert len(subset_classes) == len(catalog)
        codes = {ts.canonical_code(tri) for tri in subset_classes}
        assert codes == set(catalog.codes())
