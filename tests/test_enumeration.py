"""Catalog engines: splitting closure, exhaustive search, diffing, files."""

from __future__ import annotations

import hashlib
import sys
import threading
import types

import pytest
from hypothesis import given, settings, strategies as st

import trisurf as ts
from trisurf import enumeration, errors
from trisurf.enumeration import BASES, Catalog

from conftest import brute_force_isomorphic, reference_build
from test_complex_core import _outcome


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

    def test_more_than_one_boundary_cycle_is_refused(self):
        with pytest.raises(ValueError, match="at most one boundary cycle"):
            ts.enumerate_exhaustive(ts.SurfaceKind(0, True, 2), 6)

    def test_order_beyond_the_search_limit_is_refused(self):
        with pytest.raises(errors.CeilingExceeded, match="limit 15"):
            ts.enumerate_exhaustive(ts.SPHERE, 16, ceiling=20)
        # Every public path stops at _check_ceiling first; the search's own
        # guard keeps its 256-slot edge and link tables in range.
        with pytest.raises(errors.CeilingExceeded, match="limit 15$"):
            enumeration._search(16, ts.SPHERE)

    @pytest.mark.parametrize("min_order, max_order, ceiling, message", [
        (4, 12, 9, "order 10 above ceiling 9"),
        (11, 12, 9, "order 11 above ceiling 9"),
        (10, 16, 15, "order 16 above ceiling 15"),
        (4, 17, 20, "order 16 above the exhaustive search limit 15"),
    ])
    def test_range_is_refused_before_any_search(
        self, no_search, min_order, max_order, ceiling, message
    ):
        with pytest.raises(errors.CeilingExceeded, match=f"^{message}$"):
            ts.enumerate_exhaustive_range(ts.SPHERE, min_order, max_order, ceiling)

    def test_range_merges_orders(self, sphere_catalog_4_6):
        assert len(sphere_catalog_4_6) == 4
        assert (sphere_catalog_4_6.min_order, sphere_catalog_4_6.max_order) == (4, 6)

    def test_unique_torus_triangulation_of_order_7(self):
        # Classical fact: the complete graph K7 triangulates the torus,
        # uniquely at order 7.
        torus = ts.SurfaceKind(0, True, 0)
        catalog = ts.enumerate_exhaustive(torus, 7)
        assert len(catalog) == 1
        member = catalog.entries[0].triangulation
        assert len(member.edges) == 21
        assert member.degree_sequence == (6,) * 7


EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"  # of []
TORUS, KLEIN_BOTTLE = ts.SurfaceKind(0, True, 0), ts.SurfaceKind(0, False, 0)

# (order, surface, rec calls, link_commit calls, build calls, classes,
# sha256 of the representatives' face lists) for the query of each
# surface.  The rec calls count the nodes of the search tree, so a cut that
# stops cutting shows here; the builds count the leaves that reach
# ``build``.  link_commit runs three times per face committed and once per
# boundary edge declared.  The degree-sum exit before link_ok cuts no node
# that the test after the commit would not, so only that count shows it:
# without it Moebius 7 makes 14,237 calls.  The torus query builds fewer
# leaves than the Klein bottle query of its order: the orientation cut
# removes the non-orientable ones before ``build``.
SEARCH_PINS = [
    (4, ts.PROJECTIVE_PLANE, 4, 12, 0, 0, EMPTY),
    (5, ts.PROJECTIVE_PLANE, 9, 33, 0, 0, EMPTY),
    (6, ts.PROJECTIVE_PLANE, 29, 108, 1, 1, "8f6ff8e9c1716f6b90740b685ec7b4b64a34423faa6d1a0e491d110bd7448547"),
    (7, ts.PROJECTIVE_PLANE, 113, 396, 3, 3, "061f1ca223daab37827e419808834ad14951fa37804e2e94ad5ea90c5147e714"),
    (8, ts.PROJECTIVE_PLANE, 787, 2586, 23, 16, "0385f5ef602f98ed0ce6d6b8b52a85fb47c63d18652a0cad5b43f0b40cd17260"),
    (3, ts.MOEBIUS_BAND, 4, 6, 0, 0, EMPTY),
    (4, ts.MOEBIUS_BAND, 17, 37, 0, 0, EMPTY),
    (5, ts.MOEBIUS_BAND, 80, 194, 3, 1, "74a06a91e40e6f3d675452270f8c9b2be916ce447b629c33759513a500496a9f"),
    (6, ts.MOEBIUS_BAND, 514, 1357, 15, 9, "00a9baa72b8338f960929f23e2b91ad15728c1ee1eb78d45d1854e4473842e44"),
    (7, ts.MOEBIUS_BAND, 4484, 11639, 109, 83, "3806ac1f124dac0e69387a5856b553a8f295136dfbeb529b68eecd7801e9bc87"),
    (4, ts.SPHERE, 4, 12, 1, 1, "4f013a0695f091151527e221de763947cb2cc3157f8aa1970ce36b6cac893858"),
    (5, ts.SPHERE, 7, 24, 1, 1, "035ae4b3c1971d9b2fd1520ec58c562f59302462e8513e6e2e213f761cf00b6f"),
    (6, ts.SPHERE, 22, 72, 2, 2, "3e87516a3096039c0d3caaf81d275dd8fe73e2412e36610c8aa8eb637a16e594"),
    (7, ts.SPHERE, 71, 228, 5, 5, "4ebb7ba4352d04adf2f40c83847d9bc92ac37d235fa7bfc5f30e2564e1be705a"),
    (8, ts.SPHERE, 323, 1014, 14, 14, "fb5cea67b342dfd00f68a08d617a96398c25b72577bbbd7c36b7cf7783ac235f"),
    (3, ts.DISK, 4, 6, 1, 1, "637b73f7960358d303965c1dd410efea2cd6b7173c50bf8965ce82d34fad6640"),
    (4, ts.DISK, 17, 37, 2, 2, "c2e6ff8412fe68bf69f5bdc2feb2596c129fd41400e34ea2bd745619efea34aa"),
    (5, ts.DISK, 51, 121, 4, 4, "c18e7859d895de9d6b0710fbaf8c288afcc145f843d535e9ea0e3b1edd8b018d"),
    (6, ts.DISK, 251, 619, 16, 16, "740dfc75a681dd44ed44cc9d8a9001c0927c1aae58c7433875b6cf8ccf1cdf1b"),
    (7, ts.DISK, 1356, 3446, 66, 63, "f7ac15a376c7b96bd139c88fa86c2b6dce24b118044fc80998d842f81842704f"),
    (7, TORUS, 113, 411, 2, 1, "5627ba84f03c802fb1d422eee055af0424c8a76f00990ea7a9776aa37be113a7"),
    (8, TORUS, 724, 2436, 15, 7, "0b7dac3a2b7d3472642ae7912a927262eddcb681c9264406f9414dda2a5e0b75"),
    (9, TORUS, 8858, 28209, 232, 112, "e886eaa95b9bded09def74ae176029e32cadaf47433c1eedefc6cbd2a0031c27"),
    (7, KLEIN_BOTTLE, 166, 630, 2, 0, EMPTY),
    (8, KLEIN_BOTTLE, 1682, 5931, 27, 6, "a3a1bef4db8bca8e08929f6d071a5a9cc415fb255b37926f8c340f91a25a72d3"),
]
NAMED_KINDS = (ts.SPHERE, ts.PROJECTIVE_PLANE, ts.DISK, ts.MOEBIUS_BAND)


def _pin_id(n: int, kind) -> str:
    # Boundary and order, plus chi where it is not the projective-plane or
    # Moebius-band one, plus orientability where chi + boundary <= 0 (from
    # the torus and the Klein bottle on), where chi leaves it open; stable
    # ids let test reports follow a row over time.
    bordered = kind.boundary_components == 1
    name = f"{'bordered' if bordered else 'closed'}-{n}"
    chi = kind.euler_characteristic
    if chi != 1 - bordered:
        name = f"{name}-chi{chi}"
    if chi + bordered <= 0:
        name += "-orientable" if kind.orientable else "-nonorientable"
    return name


# sha256 of the Moebius bands, disks and spheres of each order, sorted by
# canonical code, as the search found them under the face cap 2n - 3 that
# the Euler budget replaced: no budget or leaf rule may change which copy
# of a class comes first.
BORDERED_CAP_DIGESTS = {
    6: "1091eb3a924cd3ea5d276f470ce2b4a025269cd70d97b846f0abf963eac7a948",
    7: "5f87cf9dba50668d890af4e7f019f606836f39b381bf6104fddfffa107169aaa",
    8: "820acb0b10120913e925159bbe641e1d5a168a893026a63d626a54c3118aed97",
}


def _digest(faces_lists) -> str:
    return hashlib.sha256(repr(list(faces_lists)).encode()).hexdigest()


class TestSearchContract:
    """The search keeps the first labelled copy it reaches of each class of
    the asked surface, and catalogs, ``BASES`` and the certificate store
    those copies.  A cut inside the tree may remove only leaves that the
    leaf filter rejects: then both the representatives and the number of
    leaves that pass the filter (one ``build`` each) stay as pinned, and
    the node count shows whether each cut still cuts."""

    @pytest.mark.parametrize(
        "n, kind, nodes, commits, builds, classes, digest",
        [pytest.param(*pin, id=_pin_id(*pin[:2])) for pin in SEARCH_PINS],
    )
    def test_search_output_and_leaf_count_are_pinned(
        self, monkeypatch, n, kind, nodes, commits, builds, classes, digest
    ):
        calls = []
        real_build = enumeration.build

        def counting_build(faces):
            calls.append(None)
            return real_build(faces)

        counts = {"rec": 0, "link_commit": 0}
        search_file = enumeration.__file__

        def count_calls(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_name in counts
                    and code.co_filename == search_file):
                counts[code.co_name] += 1

        def counted_search():
            # The hook fires on every call the search makes, and it costs
            # less on a thread's short stack than at pytest's depth.
            sys.setprofile(count_calls)
            try:
                found.extend(enumeration._search(n, kind))
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(enumeration, "build", counting_build)
        found = []
        thread = threading.Thread(target=counted_search)
        thread.start()
        thread.join()
        assert (counts["rec"], counts["link_commit"], len(calls), len(found)) == (
            nodes, commits, builds, classes
        )
        assert _digest(e.triangulation.faces for e in found) == digest

    @pytest.mark.parametrize(
        "n, kind", [pytest.param(*pin[:2], id=_pin_id(*pin[:2])) for pin in SEARCH_PINS]
    )
    def test_representatives_meet_the_degree_sum_premises(self, search, n, kind):
        # The degree-sum cut assumes of every leaf it may keep: vertex 0 has
        # the least degree, sum deg = 2E = 3 * 2(n - chi) - 2b, and a
        # boundary has at least 3 edges.  Read from build's own values.
        budget = 2 * (n - kind.euler_characteristic)
        for entry in search(n, kind):
            tri = entry.triangulation
            degrees, b = tri.degrees, len(tri.boundary_edges)
            assert degrees[0] == min(degrees)
            assert sum(degrees) == 3 * budget - 2 * b
            assert b >= 3 if kind.boundary_components else b == 0

    @pytest.mark.parametrize(
        "n", sorted({pin[0] for pin in SEARCH_PINS if pin[1] in NAMED_KINDS})
    )
    def test_search_returns_only_the_asked_surface(self, search, n):
        for kind in (*NAMED_KINDS, TORUS, KLEIN_BOTTLE):
            found = search(n, kind)
            assert {e.triangulation.surface_kind for e in found} <= {kind}

    @pytest.mark.parametrize("n", sorted(BORDERED_CAP_DIGESTS))
    def test_face_cap_representatives_are_kept(self, search, n):
        found = sorted(
            (entry for kind in (ts.MOEBIUS_BAND, ts.DISK, ts.SPHERE)
             for entry in search(n, kind)),
            key=lambda entry: entry.code,
        )
        assert _digest(e.triangulation.faces for e in found) == BORDERED_CAP_DIGESTS[n]

    def test_order_8_bordered_representatives_are_pinned(self, search):
        # Counting this query's nodes as the pins do would run it again.
        found = search(8, ts.MOEBIUS_BAND)
        assert len(found) == 965
        assert _digest(e.triangulation.faces for e in found) == (
            "48e255eab6ece6d0c9a372525cd3bb55c4e6f46083c94f8913503169716ea9e9"
        )

    def test_torus_and_klein_bottle_are_told_apart(self):
        # The one pair that (chi, boundary) does not tell apart: the search
        # itself keeps only the asked orientability.
        assert len(ts.enumerate_exhaustive(TORUS, 8)) == 7
        assert len(ts.enumerate_exhaustive(KLEIN_BOTTLE, 8)) == 6


def test_each_query_searches_its_own_surface(monkeypatch):
    # The query is the asked surface itself, so no query searches a surface
    # that it then drops.
    queries = []

    def record(*query):
        queries.append(query)
        return ()

    monkeypatch.setattr(enumeration, "_search", record)
    for kind in NAMED_KINDS:
        assert len(ts.enumerate_exhaustive(kind, 6)) == 0
    assert queries == [(6, kind) for kind in NAMED_KINDS]


def test_exhaustive_search_shares_no_symmetry_or_split_code():
    # The certificate rests on the two engines being independent: the
    # search names no automorphism group, split or cable code, and this
    # module binds no automorphism group at all.
    assert not hasattr(enumeration, "automorphisms")
    names, todo = set(), [enumeration._search.__code__]
    while todo:
        code = todo.pop()
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    assert "canonical_code" in names  # read only by the nested leaf()
    assert names.isdisjoint(
        {"automorphisms", "all_splits", "vertex_orbits", "cable_subgraph"}
    )


def test_catalog_values_are_stored_bare():
    # Both engines and the parser store each class bare: the value holds
    # its fields alone, derived data read later equals the oracle's, and
    # recoding the value gives the entry's code.
    closure = ts.generate_by_splitting(
        [ts.build(faces) for faces in BASES[ts.MOEBIUS_BAND]], 8
    )
    catalogs = (
        closure,
        ts.parse_catalog(ts.serialize_catalog(closure)),
        ts.enumerate_exhaustive(ts.MOEBIUS_BAND, 7),
    )
    assert ts.CatalogEntry._fields == ("code", "triangulation", "provenance")
    fields = {"faces", "order"}
    entries = [entry for catalog in catalogs for entry in catalog.entries]
    assert len(entries) == 2 * 1058 + 83
    for entry in entries:
        assert set(vars(entry.triangulation)) == fields, entry.provenance
        assert entry.order == len(set().union(*entry.triangulation.faces))
    for entry in entries:
        tri = entry.triangulation
        assert _outcome(lambda _: tri, None) == _outcome(reference_build, tri.faces)
        assert ts.canonical_code(tri) == entry.code


def test_each_search_hands_out_its_own_values():
    # No query is cached, so what one caller reads on its values stays off
    # the values of the next caller, which get them bare.
    first = ts.enumerate_exhaustive(ts.MOEBIUS_BAND, 7)
    second = ts.enumerate_exhaustive(ts.MOEBIUS_BAND, 7)
    assert first == second
    pairs = list(zip(first.entries, second.entries))
    assert all(a.triangulation is not b.triangulation for a, b in pairs)
    for entry in first.entries:
        ts.is_irreducible(entry.triangulation)
        ts.vertex_orbits(entry.triangulation)
    for entry in second.entries:
        assert vars(entry.triangulation).keys() == {"faces", "order"}


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

    @pytest.mark.parametrize(
        "kind, min_order, counts",
        [
            # OEIS A000109; Sulanke & Lutz, Eur. J. Combin. 30 (2009).
            pytest.param(ts.SPHERE, 4, [1, 1, 2, 5, 14, 50], id="sphere"),
            pytest.param(ts.PROJECTIVE_PLANE, 6, [1, 3, 16, 134], id="projective"),
        ],
    )
    def test_engines_agree_through_order_9(self, kind, min_order, counts):
        exhaustive = ts.enumerate_exhaustive_range(kind, min_order, 9)
        splitting = ts.enumerate_splitting_range(kind, min_order, 9)
        assert [len(exhaustive.of_order(n)) for n in range(min_order, 10)] == counts
        assert ts.compare_catalogs(exhaustive, splitting).is_empty

    def test_range_below_the_basis_is_empty(self, no_search):
        closure = ts.enumerate_splitting_range(ts.SPHERE, 3, 3)
        assert (closure.engine, closure.min_order, closure.max_order) == ("splitting", 3, 3)
        assert len(closure) == 0

    @pytest.mark.parametrize(
        "enumerate_range",
        [ts.enumerate_splitting_range, ts.enumerate_exhaustive_range],
        ids=["splitting", "exhaustive"],
    )
    def test_reversed_range_is_refused(self, enumerate_range):
        with pytest.raises(ValueError, match="9..4 runs backwards"):
            enumerate_range(ts.SPHERE, 9, 4)

    def test_reversed_range_is_refused_before_the_closure(self, monkeypatch):
        def no_closure(*args, **kwargs):
            raise AssertionError("the closure ran")

        monkeypatch.setattr(enumeration, "generate_by_splitting", no_closure)
        message = r"^catalog order range 9\.\.8 runs backwards$"
        with pytest.raises(ValueError, match=message):
            ts.enumerate_splitting_range(ts.SPHERE, 9, 8)

    def test_surface_without_a_stored_basis_is_refused(self):
        with pytest.raises(ValueError, match="no stored splitting basis"):
            ts.enumerate_splitting_range(ts.SurfaceKind(0, True, 0), 7, 7)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            ts.generate_by_splitting([], 5)

    def test_seed_order_above_max_rejected(self, tetrahedron):
        with pytest.raises(ValueError):
            ts.generate_by_splitting([tetrahedron], 3)

    def test_mixed_kinds_rejected(self, tetrahedron, proj_plane):
        with pytest.raises(errors.MixedSurfaceKinds):
            ts.generate_by_splitting([tetrahedron, proj_plane], 8)

    def test_seed_names_must_match_the_seeds(self):
        # zip would silently drop the seeds without a name.
        seeds = [ts.build(faces) for faces in BASES[ts.PROJECTIVE_PLANE]]
        with pytest.raises(ValueError, match="1 seed names for 2 seeds"):
            ts.generate_by_splitting(seeds, 8, ["only-one"])

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


# Small splitting catalogs: a surface and an order range from one below its
# basis up to a cheap closure, so empty catalogs occur too.
SMALL_RANGES = {
    ts.SPHERE: (3, 7), ts.PROJECTIVE_PLANE: (5, 7),
    ts.DISK: (2, 6), ts.MOEBIUS_BAND: (4, 6),
}


@st.composite
def splitting_catalogs(draw):
    kind = draw(st.sampled_from(list(SMALL_RANGES)))
    low, high = SMALL_RANGES[kind]
    max_order = draw(st.integers(low, high))
    min_order = draw(st.integers(low, max_order))
    return ts.enumerate_splitting_range(kind, min_order, max_order)


# One character edit: cut 0 or 1 characters, insert 0 or 1; never a no-op.
CHARACTER_EDITS = st.tuples(
    st.integers(0, 1), st.sampled_from(["", *"0123456789abcdef,;:.- \n#x"])
).filter(lambda edit: edit[0] or edit[1])


@pytest.fixture(scope="module")
def small_catalog_texts():
    return [
        ts.serialize_catalog(ts.enumerate_splitting_range(kind, low + 1, high))
        for kind, (low, high) in SMALL_RANGES.items()
    ]


class TestCatalogFile:
    @settings(max_examples=40, deadline=None)
    @given(catalog=splitting_catalogs())
    def test_round_trip_property(self, catalog):
        assert ts.parse_catalog(ts.serialize_catalog(catalog)) == catalog

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_edited_catalog_parses_or_raises_a_named_error(
        self, small_catalog_texts, data
    ):
        text = data.draw(st.sampled_from(small_catalog_texts))
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(text)))
            cut, inserted = data.draw(CHARACTER_EDITS)
            text = text[:i] + inserted + text[i + cut:]
        try:
            ts.parse_catalog(text)
        except errors.TriangulationError:
            pass

    def test_round_trip(self, projective_catalog):
        text = ts.serialize_catalog(projective_catalog)
        again = ts.parse_catalog(text)
        assert again.kind == projective_catalog.kind
        assert again.codes() == projective_catalog.codes()
        assert [e.provenance for e in again.entries] == [
            e.provenance for e in projective_catalog.entries
        ]
        assert ts.serialize_catalog(again) == text

    def test_blank_lines_between_records_are_skipped(self, sphere_catalog_4_6):
        text = ts.serialize_catalog(sphere_catalog_4_6)
        spaced = text.replace("\n", "\n\n").replace("---\n\n", "---\n")
        assert ts.serialize_catalog(ts.parse_catalog(spaced)) == text

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

    def test_reversed_order_range_header_is_a_parse_error(self):
        with pytest.raises(errors.ParseError, match="line 2: orders '9..4' run backwards"):
            ts.parse_catalog("surface: sphere\norders: 9..4\nengine: exhaustive\n---\n")

    def test_catalog_refuses_a_reversed_range(self):
        with pytest.raises(ValueError, match="9..4 runs backwards"):
            Catalog(ts.SPHERE, 9, 4, "splitting", ())

    def test_get_of_an_absent_code_names_it(self, sphere_catalog_4_6):
        assert sphere_catalog_4_6.get(sphere_catalog_4_6.codes()[0]).order == 4
        with pytest.raises(KeyError, match="^'00'$"):
            sphere_catalog_4_6.get(b"\0")

    def test_unknown_engine_is_a_parse_error(self):
        with pytest.raises(errors.ParseError, match="line 3: unknown engine 'bogus'"):
            ts.parse_catalog("surface: sphere\norders: 4..6\nengine: bogus\n---\n")

    @pytest.mark.parametrize(
        "kind, order", [(TORUS, 7), (KLEIN_BOTTLE, 8)], ids=["torus-7", "klein-bottle-8"]
    )
    def test_round_trip_of_an_unnamed_surface(self, kind, order):
        # The header names the kind as SurfaceKind.name falls back to.
        catalog = ts.enumerate_exhaustive(kind, order)
        text = ts.serialize_catalog(catalog)
        assert text.splitlines()[1] == f"surface: {kind.name}"
        assert kind.name.startswith("chi=0 ")
        again = ts.parse_catalog(text)
        assert again == catalog
        assert ts.serialize_catalog(again) == text

    @pytest.mark.parametrize("surface", [
        "foo",
        "chi=x orientable boundary=0",
        "chi=0 orientable",
        "chi=0 orientable boundary=-1",
        "chi=00 orientable boundary=0",
        "chi=1 non-orientable boundary=0",  # printed as projective-plane
    ])
    def test_unknown_surface_is_a_parse_error(self, surface):
        with pytest.raises(
            errors.ParseError, match=f"catalog header: unknown surface '{surface}'"
        ):
            ts.parse_catalog(
                f"surface: {surface}\norders: 4..6\nengine: exhaustive\n---\n"
            )

    def test_missing_header_field_is_named(self):
        with pytest.raises(errors.ParseError, match="missing field: 'engine'"):
            ts.parse_catalog("surface: sphere\norders: 4..6\n---\n")

    def test_bad_code_hex_is_a_parse_error(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        lines[7] = "zz" + lines[7][2:]
        with pytest.raises(errors.ParseError, match="bad catalog record"):
            ts.parse_catalog("\n".join(lines))

    # A serialized sphere 4..6 catalog: header lines 1-7 ("orders" on line 3,
    # "entries: 4" on line 6), then records of orders 4, 5, 6, 6 on lines 8-11.

    def test_order_field_must_match_the_face_list(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        lines[2] = "orders: 4..7"
        code, _, rest = lines[10].split(" ", 2)
        lines[10] = f"{code} 7 {rest}"
        with pytest.raises(
            errors.ParseError, match="line 11: order 7 but the face list has 6 vertices"
        ):
            ts.parse_catalog("\n".join(lines))

    def test_order_must_lie_in_the_header_range(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        lines[2] = "orders: 4..5"
        with pytest.raises(
            errors.ParseError, match="line 10: order 6 outside the header's 4..5"
        ):
            ts.parse_catalog("\n".join(lines))

    def test_record_surface_must_match_the_header(
        self, sphere_catalog_4_6, projective_catalog
    ):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        spliced = ts.serialize_catalog(projective_catalog).splitlines()[7]
        assert spliced.split(" ")[1] == "6"
        records = sorted(
            lines[7:] + [spliced], key=lambda r: (int(r.split(" ")[1]), r)
        )
        lines[5] = "entries: 5"
        at = 8 + records.index(spliced)
        with pytest.raises(
            errors.ParseError,
            match=f"line {at}: face list triangulates the projective-plane, "
                  "header says sphere",
        ):
            ts.parse_catalog("\n".join(lines[:7] + records))

    def test_entries_count_must_match_the_records(self, sphere_catalog_4_6):
        lines = ts.serialize_catalog(sphere_catalog_4_6).splitlines()
        assert lines[5] == "entries: 4"
        lines[5] = "entries: 7"
        with pytest.raises(
            errors.ParseError, match="line 6: header says 7 entries, found 4 records"
        ):
            ts.parse_catalog("\n".join(lines))


class TestBasis:
    """Each stored basis is re-derived by exhaustive search: no order below
    its minimum has a member, and the irreducible members are exactly the
    stored members."""

    @staticmethod
    def _derive(kind, catalog):
        stored = [ts.build(faces) for faces in BASES[kind]]
        lowest = min(tri.order for tri in stored)
        for order in range(1, lowest):
            assert len(ts.enumerate_exhaustive(kind, order)) == 0
        assert catalog.min_order == lowest
        derived = [
            e.code for e in catalog.entries if ts.is_irreducible(e.triangulation)
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
