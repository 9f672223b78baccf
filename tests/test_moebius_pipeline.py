"""Pylonic analysis, patch-removal derivation and the certificate."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

import trisurf as ts
from trisurf import errors, moebius_pipeline
from trisurf.enumeration import BASES, Catalog, CatalogEntry
from trisurf.moebius_pipeline import MOEBIUS, Argument

# The same argument on the sphere: its only irreducible triangulation is
# the tetrahedron, none of order 7 or less is pylonic, and the tetrahedron
# less a vertex star is the triangle, the disk's only irreducible
# triangulation.
SPHERE_DISK = Argument(
    closed=ts.SPHERE,
    census={4: 1, 5: 1, 6: 2, 7: 5},
    basis_orders=(4,),
    orbit_sizes={4: (4,)},
    pylonic_orders=(),
    member_orders=(3,),
    degree_ties=(),
)


def _without(catalog, drop):
    """The catalog, same kind and order range, less the entries ``drop`` picks."""
    return Catalog(
        catalog.kind, catalog.min_order, catalog.max_order, catalog.engine,
        tuple(e for e in catalog.entries if not drop(e)),
    )


def _refuse(*args):
    raise AssertionError("a certificate step ran")


class TestPylonicAnalysis:
    def test_irreducible_member_is_not_pylonic(self, proj_plane):
        assert proj_plane.cables == frozenset()
        assert ts.pylonic_vertices(proj_plane) == frozenset()

    def test_requires_closed(self, k5_moebius):
        with pytest.raises(errors.NotClosed):
            ts.pylonic_vertices(k5_moebius)

    def test_scan_finds_three_pylonic_members(self, projective_catalog):
        pylonic = [
            entry for entry in projective_catalog.entries
            if ts.pylonic_vertices(entry.triangulation)
        ]
        assert sorted(e.order for e in pylonic) == [7, 7, 8]
        for entry in pylonic:
            # Observed on this catalog: every pylonic member has at least
            # two cables, hence a unique pylonic vertex.
            assert len(entry.triangulation.cables) >= 2
            assert len(ts.pylonic_vertices(entry.triangulation)) == 1

    def test_uniqueness_for_two_or_more_cables(self, projective_catalog):
        for entry in projective_catalog.entries:
            if len(entry.triangulation.cables) >= 2:
                assert len(ts.pylonic_vertices(entry.triangulation)) <= 1


class TestPatchConfinement:
    def test_k5_member_cones_to_the_quotient(self, k5_moebius, proj_plane):
        report = ts.verify_patch_confinement(k5_moebius)
        assert report.passed
        assert report.cable_count == 0
        assert report.coned_code == ts.canonical_code(proj_plane)

    def test_substantive_cases_have_apex_pylon(self, certificate):
        substantive = [r for r in certificate.confinement_reports if r.cable_count >= 2]
        assert len(substantive) == 3
        assert all(report.passed for report in substantive)

    def test_rejects_reducible_input(self, k5_moebius):
        corner = ts.corners(k5_moebius)[0]
        reducible = ts.split_corner(k5_moebius, corner)
        with pytest.raises(errors.NotIrreducible):
            ts.verify_patch_confinement(reducible)

    def test_rejects_closed_input(self, proj_plane):
        with pytest.raises(errors.NotBordered):
            ts.verify_patch_confinement(proj_plane)


class TestDerivation:
    def test_six_members_with_expected_orders(self, certificate):
        records = certificate.derivations
        assert len(records) == 6
        assert sorted(r.triangulation.order for r in records) == [5, 6, 6, 6, 6, 7]
        assert len({r.code for r in records}) == 6

    def test_reasons_split_three_three(self, certificate):
        reasons = Counter(r.reason for r in certificate.derivations)
        assert reasons == Counter({"irreducible-orbit": 3, "pylonic-vertex": 3})

    def test_members_are_irreducible_moebius_bands(self, certificate):
        for record in certificate.derivations:
            assert record.triangulation.surface_kind == ts.MOEBIUS_BAND
            assert ts.is_irreducible(record.triangulation)

    def test_first_member_is_the_k5_band(self, certificate, k5_moebius):
        assert certificate.derivations[0].code == ts.canonical_code(k5_moebius)

    def test_cone_restores_parent(self, certificate):
        for record in certificate.derivations:
            coned = ts.cone_boundary(record.triangulation)
            assert ts.canonical_code(coned) == record.parent_code

    def test_requires_projective_catalog(self, sphere_catalog_4_6):
        with pytest.raises(errors.IncompleteCatalog):
            ts.derive_irreducible_moebius(sphere_catalog_4_6)

    def test_requires_orders_six_to_eight(self, projective_catalog):
        with pytest.raises(errors.IncompleteCatalog):
            ts.derive_irreducible_moebius(projective_catalog.restricted(6, 7))

    def test_one_removal_per_orbit_suffices(self, projective_catalog):
        # Removing any two vertices of the same orbit yields isomorphic
        # punctured complexes, which justifies using one representative.
        irreducible = [
            e.triangulation for e in projective_catalog.entries
            if ts.is_irreducible(e.triangulation)
        ]
        for tri in irreducible:
            for orbit in ts.vertex_orbits(tri):
                codes = {
                    ts.canonical_code(ts.remove_vertex_star(tri, v)) for v in orbit
                }
                assert len(codes) == 1


class TestSplitScans:
    def test_pylonicity_destroyed(self, pylonicity_destroyed):
        report = pylonicity_destroyed
        assert report.passed
        assert len(report.checked) == 3
        assert report.split_count > 200

    def test_no_pylonic_creation_skips_and_counts(self, no_pylonic_creation):
        report = no_pylonic_creation
        assert report.passed
        assert len(report.checked) == 15
        reasons = Counter(reason for _, reason in report.skipped)
        assert reasons == Counter({"irreducible": 2, "pylonic": 3})

    def test_split_counts_match_corner_counts(
        self, projective_catalog, no_pylonic_creation
    ):
        report = no_pylonic_creation
        by_code = {e.code: e.triangulation for e in projective_catalog.entries}
        for code, count in report.checked:
            assert count == len(ts.corners(by_code[code]))

    def test_every_descriptor_of_a_pylonic_orbit_is_reported_once(
        self, projective_catalog, monkeypatch
    ):
        # Call every split child pylonic; members keep their true answer, so
        # the scan picks the same 15 members.  One entry of ``all_splits``
        # stands for a whole orbit, and each of its descriptors is a
        # violation of its own.
        members = {id(e.triangulation) for e in projective_catalog.entries}
        real = moebius_pipeline.pylonic_vertices
        monkeypatch.setattr(
            moebius_pipeline, "pylonic_vertices",
            lambda tri: real(tri) if id(tri) in members else frozenset({0}),
        )
        report = ts.check_no_pylonic_creation(projective_catalog)
        by_code = {e.code: e.triangulation for e in projective_catalog.entries}
        expected = [
            (code, corner.descriptor())
            for code, _ in report.checked
            for corner in ts.corners(by_code[code])
        ]
        assert len(report.checked) == 15
        assert sorted(report.violations) == sorted(expected)
        assert len(report.violations) == report.split_count


class TestCertificate:
    def test_all_clauses_pass(self, certificate):
        assert certificate.passed
        assert len(certificate.clauses) == 12
        assert certificate.failures == ()

    def test_render_is_stable(self, certificate):
        text = ts.render_certificate(certificate)
        assert text == ts.render_certificate(certificate)
        assert "result: PASS (12/12 clauses)" in text
        for clause in certificate.clauses:
            assert f"[{clause.ident}] PASS" in text

    def test_default_order_texts_are_pinned(self, certificate):
        # ``verify-moebius`` at its default order 8 writes these two texts.
        digests = [
            hashlib.sha256(render(certificate).encode()).hexdigest()
            for render in (ts.render_certificate, ts.render_members_report)
        ]
        assert digests == [
            "8a320378df0ce5ddb07f0980e195651c2dd2f671510bc6fcdf44762b565c8beb",
            "9cbd044b27db6258b0943c2a77a4249937bd081c0594576af24f322c75d7c740",
        ]

    def test_members_report_lists_six(self, certificate):
        report = ts.render_members_report(certificate)
        assert report.count("member M") == 6
        assert "boundary degrees" in report

    def test_corrupted_catalog_fails_localized(self, projective_catalog, shared_search):
        damaged = Catalog(
            projective_catalog.kind,
            projective_catalog.min_order,
            projective_catalog.max_order,
            projective_catalog.engine,
            projective_catalog.entries[:-1],
        )
        certificate = ts.build_certificate(
            max_cross_check_order=7, projective_catalog=damaged
        )
        assert not certificate.passed
        failed = {clause.ident for clause in certificate.failures}
        assert "census-counts" in failed
        assert "engine-agreement" in failed

    def test_ceiling_is_checked_before_any_step(self, no_search):
        with pytest.raises(errors.CeilingExceeded, match="^order 8 above ceiling 7$"):
            ts.build_certificate(max_cross_check_order=7, ceiling=7)

    def test_lower_cross_check_order_still_passes(self, certificate_7):
        assert certificate_7.passed

    @pytest.mark.parametrize("max_order, beyond", [
        (7, "order 8"), (8, "order 8"), (9, "orders 8..9"),
    ])
    def test_cross_check_statement_names_the_orders_beyond_the_members(
        self, monkeypatch, projective_catalog, certificate_7, shared_search,
        max_order, beyond,
    ):
        # The order-7 search stands in for the longer ones: no irreducible
        # member has order 8 or 9, so the clause sees the same code set.
        certificate = certificate_7
        if max_order > 7:
            real = moebius_pipeline.enumerate_exhaustive_range
            monkeypatch.setattr(
                moebius_pipeline, "enumerate_exhaustive_range",
                lambda kind, min_order, max_order, ceiling: real(
                    kind, min_order, 7, ceiling
                ),
            )
            certificate = ts.build_certificate(
                max_cross_check_order=max_order, projective_catalog=projective_catalog
            )
        (clause,) = [c for c in certificate.clauses if c.ident == "exhaustive-cross-check"]
        assert clause.passed
        assert clause.statement == (
            f"direct search over moebius-band triangulations of orders "
            f"5..{max_order} finds exactly the 6 derived members and none of {beyond}"
        )

    def test_extra_irreducible_member_fails_the_cross_check(
        self, monkeypatch, projective_catalog, proj_plane, shared_search
    ):
        real = moebius_pipeline.enumerate_exhaustive_range
        extra = CatalogEntry(ts.canonical_code(proj_plane), proj_plane, "injected")

        def with_extra(kind, min_order, max_order, ceiling):
            catalog = real(kind, min_order, max_order, ceiling)
            entries = sorted(
                catalog.entries + (extra,), key=lambda e: (e.order, e.code)
            )
            return Catalog(kind, min_order, max_order, catalog.engine, tuple(entries))

        monkeypatch.setattr(moebius_pipeline, "enumerate_exhaustive_range", with_extra)
        certificate = ts.build_certificate(
            max_cross_check_order=7, projective_catalog=projective_catalog
        )
        failed = {clause.ident for clause in certificate.failures}
        assert failed == {"exhaustive-cross-check"}


class TestArgument:
    """The certificate's clauses read every expectation from one record."""

    def test_moebius_record_names_both_surfaces(self):
        assert MOEBIUS.closed == ts.PROJECTIVE_PLANE
        assert MOEBIUS.bordered == ts.MOEBIUS_BAND
        assert (SPHERE_DISK.closed, SPHERE_DISK.bordered) == (ts.SPHERE, ts.DISK)

    def test_sphere_to_disk_passes_every_clause(self):
        certificate = ts.build_certificate(argument=SPHERE_DISK)
        assert certificate.failures == ()
        assert len(certificate.clauses) == 12
        assert certificate.max_cross_check_order == 7
        (record,) = certificate.derivations
        assert record.code == ts.canonical_code(ts.build(BASES[ts.DISK][0]))
        assert record.parent_code == ts.canonical_code(ts.build(BASES[ts.SPHERE][0]))
        text = ts.render_certificate(certificate)
        assert text.startswith("# trisurf disk completeness certificate\n")
        assert text.endswith("result: PASS (12/12 clauses)\n")
        assert ts.render_members_report(certificate).startswith(
            "# irreducible disk triangulations\n"
        )

    @pytest.mark.parametrize("field, wrong, clause", [
        ("census", {6: 1, 7: 3, 8: 15}, "census-counts"),
        ("basis_orders", (6, 8), "irreducible-basis"),
        ("orbit_sizes", {6: (6,), 7: (2, 5)}, "orbit-structure"),
        ("pylonic_orders", (7, 8), "pylonic-scan"),
        ("member_orders", (5, 6, 6, 6, 7, 7), "derivation"),
        ("degree_ties", (4,), "degree-evidence"),
    ])
    def test_each_expectation_feeds_one_clause(
        self, projective_catalog, shared_search, field, wrong, clause
    ):
        certificate = ts.build_certificate(
            max_cross_check_order=7,
            projective_catalog=projective_catalog,
            argument=MOEBIUS._replace(**{field: wrong}),
        )
        assert {c.ident for c in certificate.failures} == {clause}

    def test_another_closed_kind_is_refused_before_any_step(
        self, monkeypatch, projective_catalog
    ):
        monkeypatch.setattr(moebius_pipeline, "Clause", _refuse)
        with pytest.raises(errors.IncompleteCatalog, match="needs a sphere catalog"):
            ts.build_certificate(
                max_cross_check_order=7,
                projective_catalog=projective_catalog,
                argument=MOEBIUS._replace(closed=ts.SPHERE),
            )


class TestCertificateContract:
    """A catalog of the wrong kind or range is refused before any step; one
    of the right kind and range that lacks classes fails named clauses."""

    def test_sphere_catalog_is_refused_before_any_step(
        self, monkeypatch, sphere_catalog_4_6
    ):
        monkeypatch.setattr(moebius_pipeline, "Clause", _refuse)
        with pytest.raises(errors.IncompleteCatalog, match="needs a projective-plane"):
            ts.build_certificate(
                max_cross_check_order=7, projective_catalog=sphere_catalog_4_6
            )

    def test_missing_irreducible_members_fail_named_clauses(
        self, projective_catalog, shared_search
    ):
        damaged = _without(
            projective_catalog, lambda e: ts.is_irreducible(e.triangulation)
        )
        certificate = ts.build_certificate(
            max_cross_check_order=7, projective_catalog=damaged
        )
        assert {c.ident for c in certificate.failures} == {
            "census-counts", "irreducible-basis", "engine-agreement",
            "orbit-structure", "derivation", "degree-evidence",
            "exhaustive-cross-check",
        }

    def test_missing_order_six_member_fails_named_clauses(
        self, projective_catalog, shared_search
    ):
        damaged = _without(projective_catalog, lambda e: e.order == 6)
        certificate = ts.build_certificate(
            max_cross_check_order=7, projective_catalog=damaged
        )
        assert {c.ident for c in certificate.failures} == {
            "census-counts", "irreducible-basis", "engine-agreement",
            "orbit-structure", "derivation", "exhaustive-cross-check",
        }
