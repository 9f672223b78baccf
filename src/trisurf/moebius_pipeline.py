"""Pylonic-vertex analysis and the irreducible Moebius-band classification.

A vertex of a closed triangulation is *pylonic* when it is incident with
every cable; a triangulation with at least one cable and a pylonic vertex
is a *pylonic triangulation*.  Restoring the puncture of an irreducible
bordered triangulation by coning a fresh vertex over the boundary yields
a closed triangulation whose cables, if any, all run through the cone
apex, which is then its only pylonic vertex once there are at least two
cables.  Consequently every irreducible triangulation of the Moebius band
arises by removing a vertex star from a projective-plane triangulation of
order at most 8: from an irreducible one (any vertex, one per orbit), or
from a pylonic one (its pylonic vertex).

:func:`build_certificate` runs the whole argument mechanically - both
catalog engines, the pylonic scan, the two splitting arguments, the
derivation, the degree-sequence distinction and an independent exhaustive
search over Moebius-band triangulations - and records one pass/fail
clause per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._parallel import pmap
from .canon import canonical_code, vertex_orbits
from .complex_core import (
    MOEBIUS_BAND,
    PROJECTIVE_PLANE,
    Edge,
    Triangulation,
    cone_boundary,
    remove_vertex_star,
)
from .enumeration import (
    DEFAULT_CEILING,
    Catalog,
    CatalogEntry,
    compare_catalogs,
    enumerate_exhaustive_range,
    generate_by_splitting,
)
from .errors import IncompleteCatalog, NotBordered, NotClosed, NotIrreducible
from .moves import all_splits, cable_subgraph, classify_edge, is_irreducible


@dataclass(frozen=True)
class PylonicAnalysis:
    triangulation: Triangulation
    cables: frozenset[Edge]
    pylonic_vertices: frozenset[int]

    @property
    def is_pylonic(self) -> bool:
        return bool(self.cables) and bool(self.pylonic_vertices)


def pylonic_vertices(tri: Triangulation) -> frozenset[int]:
    """Vertices incident with every cable (empty when there are no cables)."""
    if not tri.is_closed:
        raise NotClosed("pylonic vertices are defined for closed complexes")
    cables = cable_subgraph(tri)
    if not cables:
        return frozenset()
    common = set(range(tri.order))
    for edge in cables:
        common.intersection_update(edge)
        if not common:
            break
    return frozenset(common)


def analyze_pylonic(tri: Triangulation) -> PylonicAnalysis:
    return PylonicAnalysis(
        triangulation=tri,
        cables=cable_subgraph(tri),
        pylonic_vertices=pylonic_vertices(tri),
    )


@dataclass(frozen=True)
class PatchConfinementReport:
    """Checks on the cone over an irreducible bordered triangulation."""

    bordered_code: bytes
    coned_code: bytes
    apex: int
    cable_count: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_patch_confinement(tri: Triangulation) -> PatchConfinementReport:
    """Cone the boundary and verify the patch confinement of the cables.

    Checks, on the coned complex: every cable is incident with the apex
    or joins two boundary vertices of the bordered input; no cable is a
    boundary edge of the input; every chord of the input is a rod; and
    when there are at least two cables the apex is the unique pylonic
    vertex.
    """
    if len(tri.boundary_cycles) != 1:
        raise NotBordered("expected exactly one boundary cycle")
    if not is_irreducible(tri):
        raise NotIrreducible("the bordered triangulation must be irreducible")
    apex = tri.order
    coned = cone_boundary(tri, apex)
    cables = cable_subgraph(coned)
    boundary = tri.boundary_vertices
    boundary_edge_set = tri.boundary_edges

    in_patch = all(
        apex in edge or (edge[0] in boundary and edge[1] in boundary)
        for edge in cables
    )
    not_on_rim = all(edge not in boundary_edge_set for edge in cables)
    chords = [
        edge
        for edge in tri.edges
        if edge[0] in boundary and edge[1] in boundary
        and edge not in boundary_edge_set
    ]
    chords_are_rods = all(not classify_edge(coned, e).is_cable for e in chords)
    if len(cables) >= 2:
        unique_pylon = pylonic_vertices(coned) == {apex}
    else:
        unique_pylon = True
    return PatchConfinementReport(
        bordered_code=canonical_code(tri),
        coned_code=canonical_code(coned),
        apex=apex,
        cable_count=len(cables),
        checks=(
            ("cables-confined-to-patch", in_patch),
            ("no-cable-on-old-boundary", not_on_rim),
            ("chords-are-rods", chords_are_rods),
            ("unique-pylonic-apex", unique_pylon),
        ),
    )


@dataclass(frozen=True)
class DerivationRecord:
    parent_code: bytes
    parent_order: int
    removed_vertex: int
    reason: str
    code: bytes
    triangulation: Triangulation


def derive_irreducible_moebius(catalog: Catalog) -> list[DerivationRecord]:
    """Patch-removal derivation of the irreducible Moebius-band members.

    From every irreducible projective-plane member, remove one vertex per
    automorphism orbit; from every pylonic member, remove its pylonic
    vertex.  Candidates that are not irreducible are dropped; the result
    is deduplicated by canonical code.
    """
    if catalog.kind != PROJECTIVE_PLANE:
        raise IncompleteCatalog("the derivation needs a projective-plane catalog")
    for order in (6, 7, 8):
        if not catalog.of_order(order):
            raise IncompleteCatalog(f"catalog has no members of order {order}")

    records: dict[bytes, DerivationRecord] = {}
    for entry in catalog.entries:
        analysis = analyze_pylonic(entry.triangulation)
        removals: list[tuple[int, str]] = []
        if not analysis.cables:
            for orbit in vertex_orbits(entry.triangulation):
                removals.append((min(orbit), "irreducible-orbit"))
        elif analysis.is_pylonic:
            for v in sorted(analysis.pylonic_vertices):
                removals.append((v, "pylonic-vertex"))
        for vertex, reason in removals:
            candidate = remove_vertex_star(entry.triangulation, vertex)
            if not is_irreducible(candidate):
                continue
            code = canonical_code(candidate)
            records.setdefault(code, DerivationRecord(
                parent_code=entry.code,
                parent_order=entry.order,
                removed_vertex=vertex,
                reason=reason,
                code=code,
                triangulation=candidate,
            ))
    return sorted(
        records.values(), key=lambda r: (r.triangulation.order, r.code)
    )


@dataclass(frozen=True)
class SplitScanReport:
    """Outcome of checking every split of a set of catalog members."""

    checked: tuple[tuple[bytes, int], ...]
    skipped: tuple[tuple[bytes, str], ...]
    violations: tuple[tuple[bytes, str], ...]

    @property
    def split_count(self) -> int:
        return sum(count for _, count in self.checked)

    @property
    def passed(self) -> bool:
        return not self.violations


def _pylonic_splits(tri: Triangulation) -> tuple[int, tuple[str, ...]]:
    """Count the splits of a closed member and list the pylonic results."""
    bad = []
    count = 0
    for descriptor, child in all_splits(tri):
        count += 1
        if analyze_pylonic(child).is_pylonic:
            bad.append(descriptor.descriptor())
    return count, tuple(bad)


def _scan_splits(
    members: list[CatalogEntry], skipped: list[tuple[bytes, str]], jobs: int
) -> SplitScanReport:
    """Check every split of the members for pylonic results."""
    results = pmap(_pylonic_splits, [e.triangulation for e in members], jobs)
    checked = []
    violations = []
    for entry, (count, bad) in zip(members, results):
        checked.append((entry.code, count))
        violations.extend((entry.code, descriptor) for descriptor in bad)
    return SplitScanReport(tuple(checked), tuple(skipped), tuple(violations))


def check_pylonicity_destroyed(catalog: Catalog, jobs: int = 1) -> SplitScanReport:
    """Every split of every pylonic member must yield a non-pylonic result."""
    members = [
        entry for entry in catalog.entries
        if analyze_pylonic(entry.triangulation).is_pylonic
    ]
    return _scan_splits(members, [], jobs)


def check_no_pylonic_creation(catalog: Catalog, jobs: int = 1) -> SplitScanReport:
    """No split of a >= 2-cable non-pylonic member may create a pylonic vertex."""
    members = []
    skipped = []
    for entry in catalog.entries:
        analysis = analyze_pylonic(entry.triangulation)
        if not analysis.cables:
            skipped.append((entry.code, "irreducible"))
        elif analysis.is_pylonic:
            skipped.append((entry.code, "pylonic"))
        elif len(analysis.cables) < 2:
            skipped.append((entry.code, "fewer than 2 cables"))
        else:
            members.append(entry)
    return _scan_splits(members, skipped, jobs)


# ---------------------------------------------------------------------------
# The completeness certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    ident: str
    statement: str
    passed: bool
    evidence: str


@dataclass(frozen=True)
class CompletenessCertificate:
    max_cross_check_order: int
    catalog: Catalog
    splitting_catalog: Catalog
    derivations: tuple[DerivationRecord, ...]
    confinement_reports: tuple[PatchConfinementReport, ...]
    cross_check_codes: tuple[bytes, ...]
    clauses: tuple[Clause, ...]

    @property
    def members(self) -> tuple[Triangulation, ...]:
        return tuple(record.triangulation for record in self.derivations)

    @property
    def passed(self) -> bool:
        return all(clause.passed for clause in self.clauses)

    @property
    def failures(self) -> tuple[Clause, ...]:
        return tuple(clause for clause in self.clauses if not clause.passed)


def build_certificate(
    max_cross_check_order: int = 8,
    projective_catalog: Catalog | None = None,
    ceiling: int = DEFAULT_CEILING,
    jobs: int = 1,
) -> CompletenessCertificate:
    """Run the full classification pipeline and record pass/fail clauses.

    ``projective_catalog`` may inject a prebuilt (or deliberately
    corrupted) order 6..8 exhaustive catalog; by default it is computed
    here.  The certificate is always returned; failed clauses are marked,
    never raised.
    """
    clauses: list[Clause] = []

    if projective_catalog is None:
        projective_catalog = enumerate_exhaustive_range(
            PROJECTIVE_PLANE, 6, 8, ceiling, jobs
        )
    catalog = projective_catalog

    counts = {order: len(catalog.of_order(order)) for order in (6, 7, 8)}
    clauses.append(Clause(
        "census-counts",
        "exhaustive search finds 1/3/16 projective-plane classes at orders 6/7/8",
        counts == {6: 1, 7: 3, 8: 16},
        f"found {counts[6]}/{counts[7]}/{counts[8]}",
    ))

    irreducible_entries = [
        entry for entry in catalog.entries if is_irreducible(entry.triangulation)
    ]
    irreducible_orders = sorted(entry.order for entry in irreducible_entries)
    clauses.append(Clause(
        "irreducible-basis",
        "exactly 2 irreducible projective-plane members, of orders 6 and 7",
        irreducible_orders == [6, 7],
        f"irreducible members have orders {irreducible_orders}: "
        + " ".join(entry.code.hex() for entry in irreducible_entries),
    ))

    if irreducible_entries:
        seeds = [entry.triangulation for entry in irreducible_entries]
        names = [f"irreducible-{entry.order}" for entry in irreducible_entries]
        splitting_catalog = generate_by_splitting(seeds, 8, names)
        diff = compare_catalogs(catalog, splitting_catalog)
        clauses.append(Clause(
            "engine-agreement",
            "splitting closure of the irreducible members reproduces the catalog",
            diff.is_empty and len(splitting_catalog) == len(catalog),
            f"splitting produced {len(splitting_catalog)} codes, "
            f"diff size {len(diff.only_in_a) + len(diff.only_in_b)}",
        ))
    else:
        splitting_catalog = Catalog(PROJECTIVE_PLANE, 6, 8, "splitting", ())
        clauses.append(Clause(
            "engine-agreement",
            "splitting closure of the irreducible members reproduces the catalog",
            False,
            "no irreducible seeds found",
        ))

    orbit_evidence = []
    orbit_ok = len(irreducible_entries) == 2
    expected_orbits = {6: [6], 7: [3, 4]}
    for entry in irreducible_entries:
        sizes = sorted(len(orbit) for orbit in vertex_orbits(entry.triangulation))
        orbit_evidence.append(f"order {entry.order}: orbit sizes {sizes}")
        if sizes != expected_orbits.get(entry.order):
            orbit_ok = False
    clauses.append(Clause(
        "orbit-structure",
        "vertex orbits: one of size 6 (order-6 member); sizes 3 and 4 (order-7 member)",
        orbit_ok,
        "; ".join(orbit_evidence) or "no irreducible members",
    ))

    analyses = {
        entry.code: analyze_pylonic(entry.triangulation)
        for entry in catalog.entries
    }
    pylonic_entries = [
        entry for entry in catalog.entries if analyses[entry.code].is_pylonic
    ]
    pylonic_orders = sorted(entry.order for entry in pylonic_entries)
    unique_pylons = all(
        len(analyses[entry.code].pylonic_vertices) == 1 for entry in pylonic_entries
    )
    multi_cable_unique = all(
        len(analysis.pylonic_vertices) <= 1
        for analysis in analyses.values()
        if len(analysis.cables) >= 2
    )
    clauses.append(Clause(
        "pylonic-scan",
        "exactly 3 reducible members are pylonic (orders 7, 7, 8), each with "
        "a unique pylonic vertex",
        pylonic_orders == [7, 7, 8] and unique_pylons and multi_cable_unique,
        f"pylonic member orders {pylonic_orders}; unique pylonic vertex: "
        f"{unique_pylons}; uniqueness holds for all >=2-cable members: "
        f"{multi_cable_unique}; members: "
        + " ".join(entry.code.hex() for entry in pylonic_entries),
    ))

    destroyed = check_pylonicity_destroyed(catalog, jobs)
    clauses.append(Clause(
        "pylonicity-destroyed",
        "every split of each pylonic member is non-pylonic",
        destroyed.passed and len(destroyed.checked) == 3,
        f"checked {destroyed.split_count} splits of {len(destroyed.checked)} "
        f"members; violations: {len(destroyed.violations)}",
    ))

    creation = check_no_pylonic_creation(catalog, jobs)
    clauses.append(Clause(
        "no-pylonic-creation",
        "no split of a >=2-cable non-pylonic member creates a pylonic vertex",
        creation.passed,
        f"checked {creation.split_count} splits of {len(creation.checked)} "
        f"members ({len(creation.skipped)} skipped); violations: "
        f"{len(creation.violations)}",
    ))

    derivations = tuple(derive_irreducible_moebius(catalog))
    orders = sorted(record.triangulation.order for record in derivations)
    codes = [record.code for record in derivations]
    clauses.append(Clause(
        "derivation",
        "patch removal yields exactly 6 pairwise non-isomorphic irreducible "
        "moebius-band members with orders {5,6,6,6,6,7}",
        len(derivations) == 6
        and len(set(codes)) == 6
        and orders == [5, 6, 6, 6, 6, 7]
        and all(
            record.triangulation.surface_kind == MOEBIUS_BAND
            for record in derivations
        ),
        f"derived {len(derivations)} members with orders {orders}",
    ))

    round_trip = all(
        canonical_code(cone_boundary(record.triangulation)) == record.parent_code
        for record in derivations
    )
    clauses.append(Clause(
        "cone-round-trip",
        "coning each derived member restores its catalog parent",
        round_trip,
        f"verified {len(derivations)} cone round trips",
    ))

    confinement_reports = tuple(
        verify_patch_confinement(record.triangulation) for record in derivations
    )
    confinement_ok = all(report.passed for report in confinement_reports)
    substantive = sum(1 for report in confinement_reports if report.cable_count >= 2)
    clauses.append(Clause(
        "patch-confinement",
        "each coned member confines its cables to the patch, keeps chords "
        "as rods, and has the apex as unique pylonic vertex when >=2 cables",
        confinement_ok,
        f"{len(confinement_reports)} reports, {substantive} with >=2 cables",
    ))

    degree_sequences = [record.triangulation.degree_sequence for record in derivations]
    ties = [
        (i, j)
        for i in range(len(derivations))
        for j in range(i + 1, len(derivations))
        if degree_sequences[i] == degree_sequences[j]
    ]
    degree_ok = len(ties) == 1
    tie_evidence = "no degree-sequence tie"
    if len(ties) == 1:
        i, j = ties[0]
        bd_i = derivations[i].triangulation.boundary_degrees
        bd_j = derivations[j].triangulation.boundary_degrees
        all5_i = all(d == 5 for d in bd_i)
        all5_j = all(d == 5 for d in bd_j)
        degree_ok = bd_i != bd_j and (all5_i != all5_j)
        tie_evidence = (
            f"tie between members {i + 1} and {j + 1}; boundary degrees "
            f"{list(bd_i)} vs {list(bd_j)}"
        )
    clauses.append(Clause(
        "degree-evidence",
        "exactly one pair shares a degree sequence and is separated by "
        "boundary degrees, one side having all boundary degrees 5",
        degree_ok,
        tie_evidence,
    ))

    cross = enumerate_exhaustive_range(
        MOEBIUS_BAND, 5, max_cross_check_order, ceiling, jobs
    )
    cross_irreducible = [
        entry for entry in cross.entries if is_irreducible(entry.triangulation)
    ]
    cross_codes = tuple(entry.code for entry in cross_irreducible)
    cross_ok = set(cross_codes) == set(codes)
    if max_cross_check_order >= 8:
        cross_ok = cross_ok and not any(
            entry.order == 8 for entry in cross_irreducible
        )
    clauses.append(Clause(
        "exhaustive-cross-check",
        f"direct search over moebius-band triangulations of orders "
        f"5..{max_cross_check_order} finds exactly the 6 derived members "
        f"and none of order 8",
        cross_ok,
        f"search found {len(cross_codes)} irreducible members among "
        f"{len(cross)} triangulations",
    ))

    return CompletenessCertificate(
        max_cross_check_order=max_cross_check_order,
        catalog=catalog,
        splitting_catalog=splitting_catalog,
        derivations=derivations,
        confinement_reports=confinement_reports,
        cross_check_codes=cross_codes,
        clauses=tuple(clauses),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def render_certificate(certificate: CompletenessCertificate) -> str:
    """Stable text form of the certificate (clause id, verdict, evidence)."""
    from . import __version__

    lines = [
        "# trisurf moebius-band completeness certificate",
        f"version: {__version__}",
        f"cross-check max order: {certificate.max_cross_check_order}",
        f"clauses: {len(certificate.clauses)}",
        "---",
    ]
    for clause in certificate.clauses:
        verdict = "PASS" if clause.passed else "FAIL"
        lines.append(f"[{clause.ident}] {verdict} {clause.statement}")
        lines.append(f"    evidence: {clause.evidence}")
    lines.append("---")
    lines.append("catalog members (code order irreducible cables pylonic-vertices):")
    for entry in certificate.catalog.entries:
        analysis = analyze_pylonic(entry.triangulation)
        lines.append(
            f"  {entry.code.hex()} {entry.order} "
            f"{'yes' if not analysis.cables else 'no'} "
            f"{len(analysis.cables)} "
            f"{sorted(analysis.pylonic_vertices) if analysis.is_pylonic else '-'}"
        )
    lines.append("derivations (parent vertex reason -> member):")
    for record in certificate.derivations:
        lines.append(
            f"  {record.parent_code.hex()} (order {record.parent_order}) "
            f"minus vertex {record.removed_vertex} [{record.reason}] "
            f"-> {record.code.hex()} (order {record.triangulation.order})"
        )
    passed = sum(1 for clause in certificate.clauses if clause.passed)
    verdict = "PASS" if certificate.passed else "FAIL"
    lines.append(f"result: {verdict} ({passed}/{len(certificate.clauses)} clauses)")
    return "\n".join(lines) + "\n"


def render_members_report(certificate: CompletenessCertificate) -> str:
    """Human-readable listing of the six members with their degree data."""
    lines = ["# irreducible moebius-band triangulations", ""]
    for i, record in enumerate(certificate.derivations, start=1):
        tri = record.triangulation
        lines.append(f"member M{i}: order {tri.order}, code {record.code.hex()}")
        lines.append(f"  degrees: {list(tri.degree_sequence)}")
        lines.append(f"  boundary degrees: {list(tri.boundary_degrees)}")
        lines.append(f"  boundary length: {len(tri.boundary_cycles[0])}")
        lines.append(
            f"  derived from {record.parent_code.hex()} (order "
            f"{record.parent_order}) by removing vertex "
            f"{record.removed_vertex} ({record.reason})"
        )
        lines.append("  faces: " + " ".join(
            ",".join(str(v) for v in face) for face in tri.faces
        ))
        lines.append("")
    return "\n".join(lines)
