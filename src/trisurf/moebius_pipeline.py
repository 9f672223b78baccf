"""Pylonic-vertex analysis and the irreducible Moebius-band classification.

A vertex of a closed triangulation is *pylonic* when it is incident with
every cable; a triangulation with at least one cable and a pylonic vertex
is a *pylonic triangulation*.  So a complex is pylonic exactly when
:func:`pylonic_vertices` is non-empty: with no cables that set is empty.
The cables themselves are derived data cached on the ``Triangulation``
value, so each complex's cables are computed once.

Restoring the puncture of an irreducible bordered triangulation by coning
a fresh vertex over the boundary yields a closed triangulation whose
cables, if any, all run through the cone apex, which is then its only
pylonic vertex once there are at least two cables.  Consequently every
irreducible triangulation of the Moebius band arises by removing a vertex
star from a projective-plane triangulation of order at most 8: from an
irreducible one (any vertex, one per orbit), or from a pylonic one (its
pylonic vertex).

The argument holds for any closed surface and its once-punctured
counterpart.  Its expectations for one such pair live in one
:class:`Argument` record; ``MOEBIUS`` is the paper's.
:func:`build_certificate` runs the whole argument mechanically - both
catalog engines, the pylonic scan, the two splitting arguments, the
derivation, the degree-sequence distinction and an independent exhaustive
search over the bordered surface - and records one pass/fail clause per
step.  The tests run the same clauses on a sphere -> disk record.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .canon import canonical_code, vertex_orbits
from .complex_core import (
    PROJECTIVE_PLANE,
    SurfaceKind,
    Triangulation,
    cone_boundary,
    remove_vertex_star,
)
from .enumeration import (
    DEFAULT_CEILING,
    Catalog,
    CatalogEntry,
    _check_ceiling,
    compare_catalogs,
    enumerate_exhaustive_range,
    generate_by_splitting,
)
from .errors import IncompleteCatalog, NotBordered, NotClosed, NotIrreducible
from .moves import all_splits, cable_subgraph, is_irreducible


class Argument(NamedTuple):
    """What the argument expects of a closed surface and of ``bordered``,
    the same surface less one vertex star (chi one lower, one boundary
    cycle); one certificate clause checks each expectation.

    ``census`` maps each closed order, from the smallest to the largest
    irreducible or pylonic member, to its class count.  ``orbit_sizes``
    maps each irreducible member's order to its sorted vertex orbit sizes.
    ``degree_ties`` has one entry per pair of bordered members sharing a
    degree sequence: the boundary degree of every boundary vertex of
    exactly one side.
    """

    closed: SurfaceKind
    census: dict[int, int]
    basis_orders: tuple[int, ...]
    orbit_sizes: dict[int, tuple[int, ...]]
    pylonic_orders: tuple[int, ...]
    member_orders: tuple[int, ...]
    degree_ties: tuple[int, ...]

    @property
    def bordered(self) -> SurfaceKind:
        kind = self.closed
        return SurfaceKind(kind.euler_characteristic - 1, kind.orientable, 1)


MOEBIUS = Argument(
    closed=PROJECTIVE_PLANE,
    census={6: 1, 7: 3, 8: 16},
    basis_orders=(6, 7),
    orbit_sizes={6: (6,), 7: (3, 4)},
    pylonic_orders=(7, 7, 8),
    member_orders=(5, 6, 6, 6, 6, 7),
    degree_ties=(5,),
)


def pylonic_vertices(tri: Triangulation) -> frozenset[int]:
    """Vertices incident with every cable (empty when there are no cables)."""
    if not tri.is_closed:
        raise NotClosed("pylonic vertices are defined for closed complexes")
    cables = cable_subgraph(tri)
    common = set(range(tri.order)).intersection(*cables) if cables else ()
    return frozenset(common)


class PatchConfinementReport(NamedTuple):
    """Checks on the cone over an irreducible bordered triangulation."""

    coned_code: bytes
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
    coned = cone_boundary(tri)
    cables = cable_subgraph(coned)
    boundary = tri.boundary_vertices
    in_patch = all(apex in edge or boundary.issuperset(edge) for edge in cables)
    return PatchConfinementReport(
        coned_code=canonical_code(coned),
        cable_count=len(cables),
        checks=(
            ("cables-confined-to-patch", in_patch),
            ("no-cable-on-old-boundary", tri.boundary_edges.isdisjoint(cables)),
            ("chords-are-rods", tri.chords.isdisjoint(cables)),
            ("unique-pylonic-apex",
             len(cables) < 2 or pylonic_vertices(coned) == {apex}),
        ),
    )


class DerivationRecord(NamedTuple):
    parent_code: bytes
    parent_order: int
    removed_vertex: int
    reason: str
    code: bytes
    triangulation: Triangulation


def _require_catalog(catalog: Catalog, argument: Argument) -> None:
    """Refuse a closed catalog not of the argument's kind and census orders."""
    lo, top = min(argument.census), max(argument.census)
    if (catalog.kind, catalog.min_order, catalog.max_order) != (argument.closed, lo, top):
        raise IncompleteCatalog(
            f"the derivation needs a {argument.closed} catalog of orders {lo}..{top}, "
            f"not a {catalog.kind} one of orders {catalog.min_order}..{catalog.max_order}"
        )


def derive_irreducible_moebius(
    catalog: Catalog, argument: Argument = MOEBIUS
) -> list[DerivationRecord]:
    """Patch-removal derivation of the irreducible bordered members.

    The catalog must be the argument's closed kind over its census orders.
    From every irreducible member, remove one vertex per automorphism
    orbit; from every pylonic member, remove its pylonic vertex.
    Candidates that are not irreducible are dropped; the result is
    deduplicated by canonical code.
    """
    _require_catalog(catalog, argument)
    records: dict[bytes, DerivationRecord] = {}
    for entry in catalog.entries:
        tri = entry.triangulation
        if is_irreducible(tri):
            removals = [(min(orbit), "irreducible-orbit") for orbit in vertex_orbits(tri)]
        else:
            removals = [(v, "pylonic-vertex") for v in sorted(pylonic_vertices(tri))]
        for vertex, reason in removals:
            candidate = remove_vertex_star(tri, vertex)
            if is_irreducible(candidate):
                code = canonical_code(candidate)
                records.setdefault(code, DerivationRecord(
                    entry.code, entry.order, vertex, reason, code, candidate
                ))
    return sorted(records.values(), key=lambda r: (r.triangulation.order, r.code))


class SplitScanReport(NamedTuple):
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


def _scan_splits(
    members: list[CatalogEntry], skipped: list[tuple[bytes, str]]
) -> SplitScanReport:
    """Check every split of the members for pylonic results.

    Pylonicity is an isomorphism invariant, and ``all_splits`` gives one
    child per automorphism orbit of a member's split descriptors, all of
    whose children are isomorphic, so each orbit is tested once; every
    descriptor of the orbit still counts and, when its child is pylonic,
    is reported.
    """
    checked, violations = [], []
    for entry in members:
        count = 0
        for descriptors, child in all_splits(entry.triangulation):
            count += len(descriptors)
            if pylonic_vertices(child):
                violations.extend((entry.code, d.descriptor()) for d in descriptors)
        checked.append((entry.code, count))
    return SplitScanReport(tuple(checked), tuple(skipped), tuple(violations))


def check_pylonicity_destroyed(catalog: Catalog) -> SplitScanReport:
    """Every split of every pylonic member must yield a non-pylonic result."""
    members = [e for e in catalog.entries if pylonic_vertices(e.triangulation)]
    return _scan_splits(members, [])


def check_no_pylonic_creation(catalog: Catalog) -> SplitScanReport:
    """No split of a >= 2-cable non-pylonic member may create a pylonic vertex."""
    members, skipped = [], []
    for entry in catalog.entries:
        cables = cable_subgraph(entry.triangulation)
        if not cables:
            skipped.append((entry.code, "irreducible"))
        elif pylonic_vertices(entry.triangulation):
            skipped.append((entry.code, "pylonic"))
        elif len(cables) < 2:
            skipped.append((entry.code, "fewer than 2 cables"))
        else:
            members.append(entry)
    return _scan_splits(members, skipped)


# ---------------------------------------------------------------------------
# The completeness certificate
# ---------------------------------------------------------------------------


class Clause(NamedTuple):
    ident: str
    statement: str
    passed: bool
    evidence: str


class CompletenessCertificate(NamedTuple):
    argument: Argument
    max_cross_check_order: int
    catalog: Catalog
    derivations: tuple[DerivationRecord, ...]
    confinement_reports: tuple[PatchConfinementReport, ...]
    clauses: tuple[Clause, ...]

    @property
    def passed(self) -> bool:
        return all(clause.passed for clause in self.clauses)

    @property
    def failures(self) -> tuple[Clause, ...]:
        return tuple(clause for clause in self.clauses if not clause.passed)


def _listed(values) -> str:
    """``3, 4 and 5`` for (3, 4, 5); ``4`` for (4,)."""
    *head, last = map(str, values)
    return f"{', '.join(head)} and {last}" if head else last


def build_certificate(
    max_cross_check_order: int | None = None,
    projective_catalog: Catalog | None = None,
    ceiling: int = DEFAULT_CEILING,
    # Ignored (see below); it stays because bench/workloads.py passes jobs=1.
    jobs: int = 1,
    argument: Argument = MOEBIUS,
) -> CompletenessCertificate:
    """Run the argument mechanically and record one pass/fail clause per step.

    ``projective_catalog`` may inject a prebuilt (or deliberately corrupted)
    catalog of the closed surface, and the cross-check defaults to the
    census's top order.  A catalog of another kind or order range raises
    :class:`IncompleteCatalog`, an order above ``ceiling`` :class:`CeilingExceeded`,
    both before any step; failed clauses are marked, never raised.  ``jobs``
    is ignored: the pipeline runs in one process.
    """
    a = argument
    lo, top = min(a.census), max(a.census)
    if max_cross_check_order is None:
        max_cross_check_order = top
    # A bordered member cones to a closed one an order up, so the smallest
    # has order lo - 1.  The census search checks its ceiling before it runs.
    _check_ceiling(lo - 1, max_cross_check_order, ceiling)
    catalog = projective_catalog
    if catalog is None:
        catalog = enumerate_exhaustive_range(a.closed, lo, top, ceiling)
    _require_catalog(catalog, a)
    clauses: list[Clause] = []

    counts = {order: len(catalog.of_order(order)) for order in a.census}
    clauses.append(Clause(
        "census-counts",
        f"exhaustive search finds {'/'.join(map(str, a.census.values()))} "
        f"{a.closed} classes at orders {'/'.join(map(str, a.census))}",
        counts == a.census,
        f"found {'/'.join(map(str, counts.values()))}",
    ))

    irreducible = [e for e in catalog.entries if is_irreducible(e.triangulation)]
    plural = "s" if len(a.basis_orders) != 1 else ""
    clauses.append(Clause(
        "irreducible-basis",
        f"exactly {len(a.basis_orders)} irreducible {a.closed} member{plural}, "
        f"of order{plural} {_listed(a.basis_orders)}",
        [e.order for e in irreducible] == sorted(a.basis_orders),
        f"irreducible members have orders {[e.order for e in irreducible]}: "
        + " ".join(e.code.hex() for e in irreducible),
    ))

    agreement, evidence = False, "no irreducible seeds found"
    if irreducible:
        seeds = [e.triangulation for e in irreducible]
        names = [f"irreducible-{e.order}" for e in irreducible]
        closure = generate_by_splitting(seeds, top, names).restricted(lo, top)
        diff = compare_catalogs(catalog, closure)
        agreement = diff.is_empty and len(closure) == len(catalog)
        evidence = (f"splitting produced {len(closure)} codes, "
                    f"diff size {len(diff.only_in_a) + len(diff.only_in_b)}")
    clauses.append(Clause(
        "engine-agreement",
        "splitting closure of the irreducible members reproduces the catalog",
        agreement, evidence,
    ))

    orbits = [
        (e.order, tuple(sorted(map(len, vertex_orbits(e.triangulation)))))
        for e in irreducible
    ]
    clauses.append(Clause(
        "orbit-structure",
        "vertex orbits: " + "; ".join(
            f"{'one of size' if len(sizes) == 1 else 'sizes'} {_listed(sizes)} "
            f"(order-{order} member)" for order, sizes in a.orbit_sizes.items()
        ),
        orbits == list(a.orbit_sizes.items()),
        "; ".join(f"order {order}: orbit sizes {list(sizes)}" for order, sizes in orbits)
        or "no irreducible members",
    ))

    pylonic = [e for e in catalog.entries if pylonic_vertices(e.triangulation)]
    unique_pylons = all(len(pylonic_vertices(e.triangulation)) == 1 for e in pylonic)
    multi_cable_unique = all(
        len(pylonic_vertices(e.triangulation)) <= 1
        for e in catalog.entries if len(cable_subgraph(e.triangulation)) >= 2
    )
    pylonic_orders = [e.order for e in pylonic]
    clauses.append(Clause(
        "pylonic-scan",
        f"exactly {len(a.pylonic_orders)} reducible members are pylonic (orders "
        f"{', '.join(map(str, a.pylonic_orders))}), each with a unique pylonic vertex"
        if a.pylonic_orders else "no reducible member is pylonic",
        pylonic_orders == sorted(a.pylonic_orders)
        and unique_pylons and multi_cable_unique,
        f"pylonic member orders {pylonic_orders}; unique pylonic vertex: "
        f"{unique_pylons}; uniqueness holds for all >=2-cable members: "
        f"{multi_cable_unique}; members: " + " ".join(e.code.hex() for e in pylonic),
    ))

    # The split scan must reach every pylonic member the catalog has.
    destroyed = check_pylonicity_destroyed(catalog)
    clauses.append(Clause(
        "pylonicity-destroyed",
        "every split of each pylonic member is non-pylonic",
        destroyed.passed and len(destroyed.checked) == len(pylonic),
        f"checked {destroyed.split_count} splits of {len(destroyed.checked)} "
        f"members; violations: {len(destroyed.violations)}",
    ))

    creation = check_no_pylonic_creation(catalog)
    clauses.append(Clause(
        "no-pylonic-creation",
        "no split of a >=2-cable non-pylonic member creates a pylonic vertex",
        creation.passed,
        f"checked {creation.split_count} splits of {len(creation.checked)} "
        f"members ({len(creation.skipped)} skipped); violations: "
        f"{len(creation.violations)}",
    ))

    derivations = tuple(derive_irreducible_moebius(catalog, a))
    tris = [record.triangulation for record in derivations]
    orders = sorted(tri.order for tri in tris)
    codes = {record.code for record in derivations}
    members = len(a.member_orders)
    clauses.append(Clause(
        "derivation",
        f"patch removal yields exactly {members} pairwise non-isomorphic irreducible "
        f"{a.bordered} members with orders {{{','.join(map(str, a.member_orders))}}}",
        len(derivations) == len(codes) == members
        and orders == sorted(a.member_orders)
        and all(tri.surface_kind == a.bordered for tri in tris),
        f"derived {len(derivations)} members with orders {orders}",
    ))

    # One coning per member serves both the round trip and the confinement.
    reports = tuple(verify_patch_confinement(tri) for tri in tris)
    clauses.append(Clause(
        "cone-round-trip",
        "coning each derived member restores its catalog parent",
        all(r.coned_code == d.parent_code for r, d in zip(reports, derivations)),
        f"verified {len(derivations)} cone round trips",
    ))
    clauses.append(Clause(
        "patch-confinement",
        "each coned member confines its cables to the patch, keeps chords "
        "as rods, and has the apex as unique pylonic vertex when >=2 cables",
        all(report.passed for report in reports),
        f"{len(reports)} reports, "
        f"{sum(report.cable_count >= 2 for report in reports)} with >=2 cables",
    ))

    ties = [
        (i, j) for i, j in combinations(range(len(tris)), 2)
        if tris[i].degree_sequence == tris[j].degree_sequence
    ]
    sides = [(tris[i].boundary_degrees, tris[j].boundary_degrees) for i, j in ties]
    n = len(a.degree_ties)
    clauses.append(Clause(
        "degree-evidence",
        f"exactly {'one pair shares' if n == 1 else f'{n} pairs share'} a degree "
        f"sequence and {'is' if n == 1 else 'are each'} separated by boundary "
        f"degrees, one side having all boundary degrees {_listed(a.degree_ties)}"
        if n else "no two members share a degree sequence",
        len(ties) == n and all(
            left != right and (set(left) == {d}) != (set(right) == {d})
            for (left, right), d in zip(sides, a.degree_ties)
        ),
        "; ".join(
            f"tie between members {i + 1} and {j + 1}; boundary degrees "
            f"{list(left)} vs {list(right)}"
            for (i, j), (left, right) in zip(ties, sides)
        ) or "no degree-sequence tie",
    ))

    cross = enumerate_exhaustive_range(a.bordered, lo - 1, max_cross_check_order, ceiling)
    cross_codes = [e.code for e in cross.entries if is_irreducible(e.triangulation)]
    # Equal code sets leave no irreducible member of the census's top order or
    # more; the statement names that order even where the search stops below.
    beyond = (f"order {top}" if max_cross_check_order <= top
              else f"orders {top}..{max_cross_check_order}")
    clauses.append(Clause(
        "exhaustive-cross-check",
        f"direct search over {a.bordered} triangulations of orders "
        f"{lo - 1}..{max_cross_check_order} finds exactly the {members} derived "
        f"members and none of {beyond}",
        set(cross_codes) == codes,
        f"search found {len(cross_codes)} irreducible members among "
        f"{len(cross)} triangulations",
    ))

    return CompletenessCertificate(
        a, max_cross_check_order, catalog, derivations, reports, tuple(clauses)
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def render_certificate(certificate: CompletenessCertificate) -> str:
    """Stable text form of the certificate (clause id, verdict, evidence)."""
    from . import __version__

    lines = [
        f"# trisurf {certificate.argument.bordered} completeness certificate",
        f"version: {__version__}",
        f"cross-check max order: {certificate.max_cross_check_order}",
        f"clauses: {len(certificate.clauses)}",
        "---",
    ]
    for clause in certificate.clauses:
        verdict = "PASS" if clause.passed else "FAIL"
        lines.append(f"[{clause.ident}] {verdict} {clause.statement}")
        lines.append(f"    evidence: {clause.evidence}")
    lines += ["---", "catalog members (code order irreducible cables pylonic-vertices):"]
    for entry in certificate.catalog.entries:
        cables = cable_subgraph(entry.triangulation)
        pylons = pylonic_vertices(entry.triangulation)
        lines.append(f"  {entry.code.hex()} {entry.order} {'no' if cables else 'yes'} "
                     f"{len(cables)} {sorted(pylons) if pylons else '-'}")
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
    """Human-readable listing of the derived members with their degree data."""
    lines = [f"# irreducible {certificate.argument.bordered} triangulations", ""]
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
        faces = " ".join(",".join(map(str, face)) for face in tri.faces)
        lines.append(f"  faces: {faces}")
        lines.append("")
    return "\n".join(lines)
