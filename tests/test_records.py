"""The value types: what importing them costs, and how they compare, hash
and refuse assignment."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import trisurf as ts
from trisurf.moebius_pipeline import MOEBIUS, Argument

SRC = Path(__file__).resolve().parent.parent / "src"

# Each type with the fields its equality and hash read, in order.  A
# triangulation's order takes no part: equal faces make equal values.
COMPARED = {
    ts.SurfaceKind: ("euler_characteristic", "orientable", "boundary_components"),
    ts.Triangulation: ("faces",),
    ts.Corner: ("v", "u", "w"),
    ts.TruncatedCorner: ("v", "u"),
    ts.CatalogEntry: ("code", "triangulation", "provenance"),
    ts.Catalog: ("kind", "min_order", "max_order", "engine", "entries"),
    ts.CatalogDiff: ("only_in_a", "only_in_b"),
    Argument: (
        "closed", "census", "basis_orders", "orbit_sizes", "pylonic_orders",
        "member_orders", "degree_ties",
    ),
    ts.PatchConfinementReport: ("coned_code", "cable_count", "checks"),
    ts.DerivationRecord: (
        "parent_code", "parent_order", "removed_vertex", "reason", "code",
        "triangulation",
    ),
    ts.SplitScanReport: ("checked", "skipped", "violations"),
    ts.Clause: ("ident", "statement", "passed", "evidence"),
    ts.CompletenessCertificate: (
        "argument", "max_cross_check_order", "catalog", "derivations",
        "confinement_reports", "clauses",
    ),
}

# These hold dicts, so hashing them raises.
UNHASHABLE = (Argument, ts.CompletenessCertificate)


@pytest.fixture(scope="module")
def records(certificate, pylonicity_destroyed):
    """One instance of each value type."""
    catalog = certificate.catalog
    return [
        catalog.kind,
        catalog.entries[0].triangulation,
        ts.Corner(0, 1, 2),
        ts.TruncatedCorner(0, 1),
        catalog.entries[0],
        catalog,
        ts.compare_catalogs(catalog, catalog),
        certificate.argument,
        certificate.confinement_reports[0],
        certificate.derivations[0],
        pylonicity_destroyed,
        certificate.clauses[0],
        certificate,
    ]


def test_import_loads_neither_dataclasses_nor_inspect():
    # Without site, nothing but trisurf's own imports can load them.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import trisurf; "
        "print(sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_every_type_hashes_on_its_compared_fields(records):
    assert {type(x) for x in records} == set(COMPARED)
    for x in records:
        key = tuple(getattr(x, name) for name in COMPARED[type(x)])
        if isinstance(x, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(key), type(x).__name__


def test_every_type_refuses_assignment(records):
    for x in records:
        for name in (COMPARED[type(x)][0], "unknown"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_triangulation_equality_ignores_the_order(proj_plane):
    faces, n = proj_plane.faces, proj_plane.order
    assert ts.Triangulation(faces, 99) == ts.Triangulation(faces, n)
    assert hash(ts.Triangulation(faces, 99)) == hash((faces,))
    assert ts.Triangulation(faces[1:], n) != proj_plane
    # Equal only to its own type, not to its faces.
    assert proj_plane != faces and proj_plane != (faces,)


def test_catalog_equality_and_hash_read_its_five_fields(certificate):
    catalog = certificate.catalog
    copy = ts.Catalog(*(getattr(catalog, f) for f in COMPARED[ts.Catalog]))
    assert copy == catalog and hash(copy) == hash(catalog)
    assert catalog.restricted(catalog.min_order, catalog.min_order) != catalog
    # The constructor still checks its entries.
    with pytest.raises(ValueError, match="sorted"):
        ts.Catalog(*(getattr(catalog, f) for f in COMPARED[ts.Catalog][:4]),
                   catalog.entries[::-1])


def test_reprs_keep_their_text():
    assert repr(ts.Clause("pylonic-scan", "s", True, "e")) == (
        "Clause(ident='pylonic-scan', statement='s', passed=True, evidence='e')"
    )
    assert repr(ts.MOEBIUS_BAND) == (
        "SurfaceKind(euler_characteristic=0, orientable=False, boundary_components=1)"
    )
    assert str(ts.MOEBIUS_BAND) == "moebius-band"
    assert repr(MOEBIUS).startswith(
        "Argument(closed=SurfaceKind(euler_characteristic=1, orientable=False, "
        "boundary_components=0), census={6: 1, 7: 3, 8: 16}, "
    )
