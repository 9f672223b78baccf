"""Acceptance suite: one test per criterion, exact assertions throughout.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion; each test also prints a summary line with the observed values.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import trisurf as ts

from conftest import brute_force_isomorphic


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_census_counts(projective_catalog):
    counts = [len(projective_catalog.of_order(n)) for n in (6, 7, 8)]
    _report(
        1,
        f"exhaustive projective-plane classes at orders 6/7/8 = {counts} "
        "(expected [1, 3, 16])",
        counts == [1, 3, 16],
    )


def test_criterion_02_engine_agreement(projective_catalog):
    seeds = [
        e.triangulation for e in projective_catalog.entries
        if ts.is_irreducible(e.triangulation)
    ]
    closure = ts.generate_by_splitting(seeds, 8)
    diff = ts.compare_catalogs(projective_catalog, closure)
    _report(
        2,
        f"splitting closure reproduces the catalog: {len(closure)} codes, "
        f"diff size {len(diff.only_in_a) + len(diff.only_in_b)}",
        diff.is_empty and len(closure) == 20,
    )


def test_criterion_03_two_irreducible_members(projective_catalog):
    orders = sorted(
        e.order for e in projective_catalog.entries
        if ts.is_irreducible(e.triangulation)
    )
    _report(
        3,
        f"irreducible projective-plane members have orders {orders} "
        "(expected [6, 7])",
        orders == [6, 7],
    )


def test_criterion_04_orbit_structure(projective_catalog):
    irreducible = [
        e for e in projective_catalog.entries if ts.is_irreducible(e.triangulation)
    ]
    sizes = {
        e.order: sorted(len(o) for o in ts.vertex_orbits(e.triangulation))
        for e in irreducible
    }
    _report(
        4,
        f"vertex orbit sizes {sizes} (expected order 6: [6]; order 7: [3, 4])",
        sizes == {6: [6], 7: [3, 4]},
    )


def test_criterion_05_pylonic_scan(projective_catalog):
    reducible = [
        e for e in projective_catalog.entries
        if not ts.is_irreducible(e.triangulation)
    ]
    pylonic = [e for e in reducible if ts.pylonic_vertices(e.triangulation)]
    orders = sorted(e.order for e in pylonic)
    unique = all(len(ts.pylonic_vertices(e.triangulation)) == 1 for e in pylonic)
    _report(
        5,
        f"pylonic members among {len(reducible)} reducible: orders {orders} "
        f"(expected [7, 7, 8]), unique pylonic vertex: {unique}",
        len(reducible) == 18 and orders == [7, 7, 8] and unique,
    )


def test_criterion_06_six_member_classification(certificate):
    records = certificate.derivations
    orders = sorted(r.triangulation.order for r in records)
    distinct = len({r.code for r in records})
    irreducible = all(ts.is_irreducible(r.triangulation) for r in records)
    moebius = all(
        r.triangulation.surface_kind == ts.MOEBIUS_BAND for r in records
    )
    _report(
        6,
        f"derivation yields {distinct} distinct irreducible moebius-band "
        f"members with orders {orders} (expected [5, 6, 6, 6, 6, 7])",
        distinct == 6 and orders == [5, 6, 6, 6, 6, 7] and irreducible and moebius,
    )


def test_criterion_07_degree_evidence(certificate):
    members = [r.triangulation for r in certificate.derivations]
    ties = [
        (a, b)
        for a, b in combinations(members, 2)
        if a.degree_sequence == b.degree_sequence
    ]
    ok = len(ties) == 1
    detail = "no tie"
    if ok:
        a, b = ties[0]
        all5 = [all(d == 5 for d in t.boundary_degrees) for t in (a, b)]
        ok = a.boundary_degrees != b.boundary_degrees and all5.count(True) == 1
        detail = (
            f"boundary degrees {list(a.boundary_degrees)} vs "
            f"{list(b.boundary_degrees)}"
        )
    _report(
        7,
        f"{len(ties)} degree-sequence tie(s); separated by boundary degrees "
        f"with one all-5 side ({detail})",
        ok,
    )


def test_criterion_08_exhaustive_cross_check(certificate, moebius_catalog_5_8):
    irreducible = [
        e for e in moebius_catalog_5_8.entries if ts.is_irreducible(e.triangulation)
    ]
    codes = {e.code for e in irreducible}
    derived = {r.code for r in certificate.derivations}
    none_at_8 = not any(e.order == 8 for e in irreducible)
    _report(
        8,
        f"direct search over orders 5..8 ({len(moebius_catalog_5_8)} "
        f"triangulations) finds {len(codes)} irreducible members, matching "
        f"the derivation; none of order 8: {none_at_8}",
        codes == derived and len(codes) == 6 and none_at_8,
    )


def _round_trip_corpus(projective_catalog, moebius_catalog_5_7, disk_catalog_3_5,
                       sphere_catalog_4_6):
    members = [e.triangulation for e in projective_catalog.entries]
    members += [
        e.triangulation for e in moebius_catalog_5_7.entries if e.order <= 6
    ]
    members += [e.triangulation for e in disk_catalog_3_5.entries if e.order <= 4]
    members += [e.triangulation for e in sphere_catalog_4_6.entries]
    return members


def test_criterion_09_property_suites(
    projective_catalog, moebius_catalog_5_7, disk_catalog_3_5, sphere_catalog_4_6
):
    failures = []

    # Suite A: split-then-shrink round trip, and surface-kind preservation
    # under splits, over every split of every corpus member.
    corpus = _round_trip_corpus(
        projective_catalog, moebius_catalog_5_7, disk_catalog_3_5,
        sphere_catalog_4_6,
    )
    round_trips = 0
    for tri in corpus:
        for descriptor, child in ts.all_splits(tri):
            round_trips += 1
            if child.surface_kind != tri.surface_kind:
                failures.append(f"kind changed by {descriptor.descriptor()}")
            if ts.shrink_edge(child, (descriptor.v, tri.order)).faces != tri.faces:
                failures.append(f"round trip failed for {descriptor.descriptor()}")

    # Suite B: surface-kind preservation under every cable shrink.
    shrinks = 0
    for tri in corpus:
        for edge in sorted(ts.cable_subgraph(tri)):
            shrinks += 1
            if ts.shrink_edge(tri, edge).surface_kind != tri.surface_kind:
                failures.append(f"cable shrink changed the kind of {edge}")

    # Suite C: on closed members, absence of a nonfacial 3-cycle through an
    # edge is equivalent to the classical link condition (the endpoint
    # links meet exactly in the two face apexes), checked independently.
    # The condition is stated for complexes other than the tetrahedron,
    # whose edges meet it yet do not contract to a surface.
    link_checks = 0
    for tri in corpus:
        if not tri.is_closed:
            continue
        for edge in tri.edges:
            link_checks += 1
            a, b = edge
            common = set(tri.neighbors[a]) & set(tri.neighbors[b])
            apexes = {
                next(x for x in face if x not in edge)
                for face in tri.edge_faces[edge]
            }
            link_condition = common == apexes and tri.order > 4
            cable_by_conditions = not ts.classify_edge(tri, edge)
            if link_condition != cable_by_conditions:
                failures.append(f"link condition mismatch at {edge}")

    # Suite D: canonical-code agreement with the brute-force isomorphism
    # oracle on every equal-order, equal-degree-sequence catalog pair,
    # plus relabelled positive pairs.  The order-7 moebius-band members
    # join this corpus; their degree sequences collide heavily.
    rng = random.Random(99)
    oracle_checks = 0
    groups: dict[tuple, list] = {}
    oracle_corpus = corpus + [
        e.triangulation for e in moebius_catalog_5_7.of_order(7)
    ]
    for tri in oracle_corpus:
        groups.setdefault((tri.order, tri.degree_sequence), []).append(tri)
    for group in groups.values():
        for a, b in combinations(group, 2):
            oracle_checks += 1
            expected = ts.canonical_code(a) == ts.canonical_code(b)
            if brute_force_isomorphic(a, b) != expected:
                failures.append("oracle disagreement on a catalog pair")
    for tri in oracle_corpus[: max(0, 220 - oracle_checks)]:
        perm = list(tri.vertices)
        rng.shuffle(perm)
        shuffled = ts.relabel(tri, tuple(perm))
        oracle_checks += 1
        if not (
            brute_force_isomorphic(tri, shuffled)
            and ts.canonical_code(shuffled) == ts.canonical_code(tri)
        ):
            failures.append("oracle rejected a relabelling")

    counts = (
        f"{round_trips} split round-trips, {shrinks} cable shrinks, "
        f"{link_checks} link-condition edges, {oracle_checks} oracle pairs"
    )
    enough = round_trips >= 200 and link_checks >= 200 and oracle_checks >= 200
    _report(
        9,
        f"property suites with zero failures ({counts}; "
        f"{len(failures)} failures)",
        not failures and enough and shrinks > 0,
    )


def test_criterion_10_proof_step_checks(
    pylonicity_destroyed, no_pylonic_creation, certificate
):
    destroyed = pylonicity_destroyed
    creation = no_pylonic_creation
    confinement_ok = all(report.passed for report in certificate.confinement_reports)
    skip_reasons = Counter(reason for _, reason in creation.skipped)
    ok = (
        destroyed.passed
        and len(destroyed.checked) == 3
        and creation.passed
        and len(creation.checked) == 15
        and skip_reasons == Counter({"irreducible": 2, "pylonic": 3})
        and confinement_ok
        and len(certificate.confinement_reports) == 6
    )
    _report(
        10,
        f"pylonicity destroyed over {destroyed.split_count} splits of 3 "
        f"members; no pylonic creation over {creation.split_count} splits of "
        f"15 members; patch-confinement checks pass for all 6 members",
        ok,
    )
