"""Shared fixtures and the brute-force isomorphism oracle.

The heavyweight catalogs are session-scoped: the exhaustive searches are
cached per process, so the Moebius order-8 run happens exactly once for
the whole suite.
"""

from __future__ import annotations

import pytest

import trisurf as ts
from trisurf import Triangulation, enumeration

# A standard combinatorial icosahedron: apex 0, upper ring 1..5, lower
# ring 6..10, apex 11.
ICOSAHEDRON_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 6), (2, 3, 7), (3, 4, 8), (4, 5, 9), (5, 1, 10),
    (2, 6, 7), (3, 7, 8), (4, 8, 9), (5, 9, 10), (1, 10, 6),
    (6, 7, 11), (7, 8, 11), (8, 9, 11), (9, 10, 11), (10, 6, 11),
]

# The antipodal involution of that icosahedron; verified as a
# fixed-point-free face-preserving automorphism in test_complex_core.
ANTIPODAL = {0: 11, 11: 0, 1: 8, 8: 1, 2: 9, 9: 2, 3: 10, 10: 3, 4: 6, 6: 4, 5: 7, 7: 5}

TETRAHEDRON_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

OCTAHEDRON_FACES = [
    (0, 1, 2), (0, 2, 4), (0, 4, 3), (0, 3, 1),
    (5, 1, 2), (5, 2, 4), (5, 4, 3), (5, 3, 1),
]


def brute_force_isomorphic(t1: Triangulation, t2: Triangulation) -> bool:
    """Independent isomorphism oracle: backtracking over vertex bijections.

    Used by the test suite to validate the canonical code; deliberately
    shares no machinery with the flag traversal.
    """
    if t1.order != t2.order or len(t1.faces) != len(t2.faces):
        return False
    if t1.degree_sequence != t2.degree_sequence:
        return False
    n = t1.order
    faces2 = set(t2.faces)

    def key(tri: Triangulation, v: int) -> tuple[int, bool]:
        return (tri.degrees[v], v in tri.boundary_vertices)

    candidates = [
        [w for w in range(n) if key(t2, w) == key(t1, v)] for v in range(n)
    ]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(v: int) -> bool:
        if v == n:
            return all(
                tuple(sorted((assignment[a], assignment[b], assignment[c]))) in faces2
                for a, b, c in t1.faces
            )
        for w in candidates[v]:
            if w in used:
                continue
            consistent = all(
                t1.has_edge(v, u) == t2.has_edge(w, assignment[u])
                for u in range(v)
            )
            if not consistent:
                continue
            assignment[v] = w
            used.add(w)
            if extend(v + 1):
                return True
            used.discard(w)
            del assignment[v]
        return False

    return extend(0)


def antipodal_quotient() -> ts.Triangulation:
    """Identify antipodal vertex pairs of the icosahedron."""
    rep = {v: min(v, ANTIPODAL[v]) for v in range(12)}
    return ts.build({
        tuple(sorted((rep[a], rep[b], rep[c]))) for a, b, c in ICOSAHEDRON_FACES
    })


@pytest.fixture(scope="session")
def triangle():
    return ts.build([(0, 1, 2)])


@pytest.fixture(scope="session")
def tetrahedron():
    return ts.build(TETRAHEDRON_FACES)


@pytest.fixture(scope="session")
def octahedron():
    return ts.build(OCTAHEDRON_FACES)


@pytest.fixture(scope="session")
def icosahedron():
    return ts.build(ICOSAHEDRON_FACES)


@pytest.fixture(scope="session")
def proj_plane(icosahedron):
    """The 6-vertex projective-plane triangulation (icosahedron quotient)."""
    return antipodal_quotient()


@pytest.fixture(scope="session")
def k5_moebius(proj_plane):
    """The 5-vertex Moebius-band triangulation: quotient minus one star."""
    return ts.remove_vertex_star(proj_plane, 0)


@pytest.fixture(scope="session")
def projective_catalog():
    """Exhaustive projective-plane catalog, orders 6..8."""
    return ts.enumerate_exhaustive_range(ts.PROJECTIVE_PLANE, 6, 8)


@pytest.fixture(scope="session")
def moebius_catalog_5_7():
    return ts.enumerate_exhaustive_range(ts.MOEBIUS_BAND, 5, 7)


@pytest.fixture(scope="session")
def moebius_catalog_5_8():
    return ts.enumerate_exhaustive_range(ts.MOEBIUS_BAND, 5, 8)


@pytest.fixture(scope="session")
def sphere_catalog_4_6():
    return ts.enumerate_exhaustive_range(ts.SPHERE, 4, 6)


@pytest.fixture(scope="session")
def disk_catalog_3_5():
    return ts.enumerate_exhaustive_range(ts.DISK, 3, 5)


@pytest.fixture(scope="session")
def certificate(projective_catalog):
    return ts.build_certificate(projective_catalog=projective_catalog)


@pytest.fixture()
def no_search(monkeypatch):
    """Make any exhaustive search fail, to prove a path never enters one."""
    def refuse(*args):
        raise AssertionError("the exhaustive search was entered")

    monkeypatch.setattr(enumeration, "_search_cached", refuse)
    monkeypatch.setattr(enumeration, "_search", refuse)
