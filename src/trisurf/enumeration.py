"""Two independent generation engines for triangulation catalogs.

``generate_by_splitting`` computes the breadth-first closure of a set of
seed triangulations under all splitting moves, deduplicated by canonical
code.  Because the irreducible triangulations of a surface form a basis
under splitting (Barnette & Edelson 1989), seeding with them yields every
triangulation up to the requested order.  ``BASES`` stores that basis as
face lists for every named surface, and ``enumerate_splitting_range``
seeds the closure from it, so the splitting engine never runs a search.

Each parent's splits come from one ``all_splits`` call, which returns
one child per automorphism orbit of the parent's split descriptors, the
child of the orbit's first descriptor (the orbit step of McKay's
isomorph rejection, McKay 1998).  The closure codes each such child and
names the first descriptor in its provenance.  The children of one orbit
are isomorphic, so any class a later descriptor of an orbit reaches, the
first has already reached: the first producer of every class, and with it
every provenance string and stored labelling, is the one coding every
child would find.  The symmetry reasoning lives in ``moves``; this module
binds none of it, and the exhaustive search below reads no automorphism
group, so the two engines share no symmetry reasoning and their
agreement still checks it.

``enumerate_exhaustive`` is the anti-hallucination oracle: a backtracking
search over face triples that constructs every triangulation with the
requested vertex count from scratch, sharing nothing with the splitting
engine.  The search grows a complex one face at a time, always completing
the lexicographically smallest open edge (an edge on one face that has
not been declared boundary), so each labelled complex is reached along
exactly one path.  The boundary is the link of an apex: the extra vertex
``n`` that ``cone_boundary`` would add.  Declaring an edge boundary adds
it to the apex's link, and the edge counts that cone face as its second
face, so the boundary obeys the same partial-link rules as every vertex
link and closes only as the apex's one link piece.  Each partial link is
a set of paths with one slot per (vertex x, link vertex y): -1 while y is
not in the link of x, the path's other end while y is an end, and -2 once
y is inside a path or cycle, so the slot also reads y's link degree 0, 1
or 2.  With a count of open paths per vertex that is the whole link state:
a link with an edge and no open path is a closed cycle.  Partial-link
feasibility and edge multiplicities prune the tree; new vertices must
appear in discovery order, which cuts the labelled duplicates per
isomorphism class down to one per flag.  A final invariant filter keeps
only leaves whose identity labelling starts at a minimal flag, so only a
handful of labelled copies per class are ever validated and coded.

No face is committed twice, and no face set is kept to see to it.  A
repeat of (u, v, w) on the open edge u-v would close link edge v-w into a
cycle at u, and likewise at v and w, which the link rules allow only as
each link's one piece: a complex of one face.  Every later face is glued
onto an open edge, so that complex is the root, and its repeat of
(0, 1, 2) on edge 0-1 is the one candidate refused as a repeat.

That filter rejects every labelling in which some vertex has a smaller
(degree, on-boundary) key than vertex 0, and vertex 0's key only grows
along a branch.  So the search cuts a branch as soon as a vertex other
than 0 is finished (its link is a closed cycle, or one path whose two ends
lie on the boundary) with a key below vertex 0's: every leaf below would
fail the filter.  The cut removes only such leaves and subtrees that hold
no leaf at all, and it leaves the traversal order alone, so the first
copy reached of each class, and with it every catalog, ``BASES`` and the
certificate, stays the same.

A query is a surface kind and an order n.  Euler's formula
V - E + F = chi with 3F + b = 2E, where b counts the boundary edges,
gives F + b = B = 2(n - chi) for every surface, closed or bordered.  Each
face and each boundary declaration is one step, so a kept leaf has spent
exactly B steps and degrees summing to 2E = 3B - 2b.  At a node that has
spent s steps and has o open edges the degrees sum to 3s - 2b + o; the
leaf filter makes vertex 0's degree the least, and degrees only grow.  So
a branch holds a kept leaf only if

    sum_x max(deg x, deg 0) <= 3B - 2b',

where b' <= b counts the boundary edges declared, plus one for each open
piece of the apex link that must still be closed, and is at least 3 on a
bordered query.  With deficit = sum_x max(0, deg 0 - deg x), to which
each unused vertex adds deg 0 >= 2, the test reads

    3(B - s) >= o + deficit + 2(b' - b):

three units per remaining step pay for every open edge, every missing
degree and every boundary edge still owed.  It is the search's one Euler
bound.  A leaf passed it before it was entered, so a leaf that has spent
B steps has deficit 0, and so uses every vertex, and has b = b', which is
at least 3 on a bordered query and 0 on a closed one, which declares no
boundary edge.  So of its chi and its boundary a leaf checks only s = B.
The bound reads Euler's formula and the search's own bookkeeping, not the
moves, so the engines stay independent.

On an orientable query, each face after the root 0 -> 1 -> 2 is glued
across an open edge whose one face fixes its direction, since the complex
stays connected.  A face that would run a directed edge that another face
already runs makes every leaf below it non-orientable, of another kind,
so the torus query does not build the Klein bottles.  Neither cut reads a
move or an automorphism or reorders the traversal, and every copy of a
class shares its chi, boundary and orientability, so no class of the kind
loses a copy and the first copy reached of each class stays the same.

``compare_catalogs`` diffs the code sets of two catalogs; agreement of
the two engines over a surface and order range is the central correctness
check of the package.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import __version__
from .canon import canonical_code
from .complex_core import (
    DISK,
    MOEBIUS_BAND,
    PROJECTIVE_PLANE,
    SPHERE,
    SURFACE_BY_NAME,
    Face,
    SurfaceKind,
    Triangulation,
    build,
)
from .errors import (
    CeilingExceeded,
    IncomparableCatalogs,
    MixedSurfaceKinds,
    ParseError,
)
from .moves import all_splits

DEFAULT_CEILING = 9
MAX_SEARCH_ORDER = 15

# The irreducible triangulations of each named surface, a basis under
# splitting.  Each member is the exhaustive search's representative of its
# class, listed by (order, code), so seed names and catalog bytes do not
# depend on which engine found them; the tests re-derive every basis by
# search.
BASES: dict[SurfaceKind, tuple[tuple[Face, ...], ...]] = {
    SPHERE: (
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    ),
    PROJECTIVE_PLANE: (
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5),
         (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5), (1, 3, 6),
         (1, 4, 5), (1, 4, 6), (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5)),
    ),
    DISK: (
        ((0, 1, 2),),
    ),
    MOEBIUS_BAND: (
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4)),
        ((0, 1, 2), (0, 1, 3), (1, 2, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5),
         (2, 3, 5), (3, 4, 5)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 5), (1, 3, 4), (1, 4, 5),
         (2, 3, 4), (2, 3, 5)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5),
         (1, 3, 4), (1, 4, 5), (2, 3, 4)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5), (1, 3, 6),
         (1, 4, 5), (1, 4, 6), (2, 3, 5), (2, 3, 6), (2, 4, 6)),
    ),
}


class CatalogEntry(NamedTuple):
    """One class of a catalog: its canonical code, one labelled
    representative, whose order is the entry's, and how the engine
    reached it.

    The code is the entry's, not the value's: ``triangulation`` is stored
    bare (see :func:`_catalogued`), so derived data read from it, the
    canonical code included, is recomputed on first read.
    """

    code: bytes
    triangulation: Triangulation
    provenance: str

    @property
    def order(self) -> int:
        return self.triangulation.order


def _catalogued(code: bytes, tri: Triangulation, provenance: str) -> CatalogEntry:
    """The entry for ``tri``, its value stored bare.

    This is the one catalog rule: every value a catalog holds, from either
    engine or from catalog text, is stored through here, and holds only
    the faces and order; the code lives in the entry.  What
    ``build`` and ``canonical_code`` cached on ``tri`` is dropped because
    no engine reads it again: a search class and a parsed record are done
    once coded, and a closure class once its own children are expanded,
    which a class of the top order, most of the classes, never is.  A
    later reader recomputes what it reads through the same
    ``cached_property`` definitions.  A fresh value is built rather than
    keys deleted from ``tri.__dict__``, which measured slower in the
    closure loop.
    """
    return CatalogEntry(code, Triangulation(tri.faces, tri.order), provenance)


class Catalog:
    """The classes of one surface kind over an order range, from one
    engine, sorted by (order, code).

    The constructor refuses a range that runs backwards, repeated codes
    and unsorted entries.  Values compare and hash on their five fields and
    refuse assignment.
    """

    kind: SurfaceKind
    min_order: int
    max_order: int
    engine: str
    entries: tuple[CatalogEntry, ...]

    def __init__(
        self,
        kind: SurfaceKind,
        min_order: int,
        max_order: int,
        engine: str,
        entries: tuple[CatalogEntry, ...],
    ) -> None:
        if min_order > max_order:
            raise ValueError(
                f"catalog order range {min_order}..{max_order} runs backwards"
            )
        codes = [entry.code for entry in entries]
        if len(set(codes)) != len(codes):
            raise ValueError("catalog entries must have distinct codes")
        if list(entries) != sorted(entries, key=lambda e: (e.order, e.code)):
            raise ValueError("catalog entries must be sorted by (order, code)")
        set_field = object.__setattr__
        set_field(self, "kind", kind)
        set_field(self, "min_order", min_order)
        set_field(self, "max_order", max_order)
        set_field(self, "engine", engine)
        set_field(self, "entries", entries)

    def _key(self) -> tuple:
        return (self.kind, self.min_order, self.max_order, self.engine, self.entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Catalog(kind={self.kind!r}, min_order={self.min_order!r}, "
            f"max_order={self.max_order!r}, engine={self.engine!r}, "
            f"entries={self.entries!r})"
        )

    def codes(self) -> tuple[bytes, ...]:
        return tuple(entry.code for entry in self.entries)

    def of_order(self, order: int) -> tuple[CatalogEntry, ...]:
        return tuple(entry for entry in self.entries if entry.order == order)

    def get(self, code: bytes) -> CatalogEntry:
        for entry in self.entries:
            if entry.code == code:
                return entry
        raise KeyError(code.hex())

    def restricted(self, min_order: int, max_order: int) -> "Catalog":
        kept = tuple(
            e for e in self.entries if min_order <= e.order <= max_order
        )
        return Catalog(self.kind, min_order, max_order, self.engine, kept)

    def __len__(self) -> int:
        return len(self.entries)


class CatalogDiff(NamedTuple):
    only_in_a: tuple[CatalogEntry, ...]
    only_in_b: tuple[CatalogEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.only_in_a and not self.only_in_b


def compare_catalogs(a: Catalog, b: Catalog) -> CatalogDiff:
    """Symmetric difference of the code sets; empty means agreement."""
    if a.kind != b.kind:
        raise IncomparableCatalogs(f"kinds differ: {a.kind} vs {b.kind}")
    if (a.min_order, a.max_order) != (b.min_order, b.max_order):
        raise IncomparableCatalogs(
            f"order ranges differ: {a.min_order}..{a.max_order} "
            f"vs {b.min_order}..{b.max_order}"
        )
    codes_a = set(a.codes())
    codes_b = set(b.codes())
    return CatalogDiff(
        only_in_a=tuple(e for e in a.entries if e.code not in codes_b),
        only_in_b=tuple(e for e in b.entries if e.code not in codes_a),
    )


def generate_by_splitting(
    seeds: list[Triangulation],
    max_order: int,
    seed_names: list[str] | None = None,
) -> Catalog:
    """Breadth-first closure of the seeds under all splits, up to max_order."""
    if not seeds:
        raise ValueError("at least one seed triangulation is required")
    kinds = {seed.surface_kind for seed in seeds}
    if len(kinds) != 1:
        raise MixedSurfaceKinds(
            "seeds live on different surfaces: "
            + ", ".join(sorted(str(k) for k in kinds))
        )
    kind = kinds.pop()
    if max_order < max(seed.order for seed in seeds):
        raise ValueError("max_order must cover every seed")
    if seed_names is None:
        seed_names = [f"seed-{i}" for i in range(len(seeds))]
    elif len(seed_names) != len(seeds):
        raise ValueError(f"{len(seed_names)} seed names for {len(seeds)} seeds")

    def entered(code: bytes, tri: Triangulation, provenance: str) -> CatalogEntry:
        # A class below the top keeps its links and labellings until its
        # own children are expanded.
        if tri.order < max_order:
            return CatalogEntry(code, tri, provenance)
        return _catalogued(code, tri, provenance)

    entries: dict[bytes, CatalogEntry] = {}
    for name, seed in sorted(
        zip(seed_names, seeds),
        key=lambda item: (item[1].order, canonical_code(item[1])),
    ):
        code = canonical_code(seed)
        entries.setdefault(code, entered(code, seed, f"seed:{name}"))

    min_seed_order = min(seed.order for seed in seeds)
    for order in range(min_seed_order, max_order):
        layer = sorted(
            (e for e in entries.values() if e.order == order),
            key=lambda e: e.code,
        )
        for entry in layer:
            for descriptors, child in all_splits(entry.triangulation):
                child_code = canonical_code(child)
                if child_code not in entries:
                    entries[child_code] = entered(
                        child_code,
                        child,
                        f"{entry.code.hex()}:{descriptors[0].descriptor()}",
                    )
            entries[entry.code] = _catalogued(
                entry.code, entry.triangulation, entry.provenance
            )
    ordered = tuple(sorted(entries.values(), key=lambda e: (e.order, e.code)))
    return Catalog(kind, min_seed_order, max_order, "splitting", ordered)


def enumerate_splitting_range(
    kind: SurfaceKind, min_order: int, max_order: int
) -> Catalog:
    """Splitting closure of the stored basis of ``kind`` over an order range.

    The counterpart of :func:`enumerate_exhaustive_range`; it never runs
    the exhaustive search.  The catalog is empty when no basis member has
    order at most ``max_order``; a range with ``min_order > max_order`` is
    a ``ValueError``, raised before the closure runs.
    """
    if kind not in BASES:
        raise ValueError(f"no stored splitting basis for {kind}")
    empty = Catalog(kind, min_order, max_order, "splitting", ())  # range check
    seeds = [seed for seed in map(build, BASES[kind]) if seed.order <= max_order]
    if not seeds:
        return empty
    return generate_by_splitting(seeds, max_order).restricted(min_order, max_order)


# ---------------------------------------------------------------------------
# Exhaustive backtracking enumeration
# ---------------------------------------------------------------------------


def _search(n: int, kind: SurfaceKind) -> tuple[CatalogEntry, ...]:
    """All triangulations of ``kind`` on exactly ``n`` vertices, one entry
    per class, in code order; ``kind`` has at most one boundary cycle.  The
    degree-sum and orientation cuts are stated in the module docstring.
    """
    if n > MAX_SEARCH_ORDER:
        raise CeilingExceeded(
            f"order {n} above the exhaustive search limit {MAX_SEARCH_ORDER}"
        )
    if n < 3:
        return ()

    # Vertex n is the apex of the cone over the boundary, the vertex
    # ``cone_boundary`` adds: declaring edge u-v boundary adds link edge u-v
    # at n, so the boundary is the link of n, and the cone face counts as
    # the edge's second face.  A vertex's boundary degree is its link degree
    # at n.  Edge keys are (u << 4) | v with u < v, and link keys (x << 4) | y
    # hold the slots of the module docstring.  At n = MAX_SEARCH_ORDER = 15
    # the apex is 15 and no link holds it, so y <= 14 and every key is at
    # most (15 << 4) | 14 = 254: both tables fit in 256 slots.
    ecount = bytearray(256)        # edge key -> faces, the cone face included
    lend = [-1] * 256              # link key -> -1, opposite end, or -2
    lcomp = [0] * (n + 1)          # open link-path components per vertex
    vdeg = [0] * n
    apex = n << 4                  # link keys of the apex
    faces: list[tuple[int, int, int]] = []
    open_set: set[int] = set()
    found: dict[bytes, CatalogEntry] = {}
    bordered = kind.boundary_components == 1
    budget = 2 * (n - kind.euler_characteristic)
    oriented = kind.orientable
    arc = bytearray(256)           # directed edge (x << 4) | y -> run by a face

    used = 3

    def link_ok(x: int, p: int, q: int) -> bool:
        """May link edge p-q be added at the open link of x?  (Pure check,
        no mutation; the caller refuses a closed link.)"""
        ep = lend[(x << 4) | p]
        if ep == -2 or lend[(x << 4) | q] == -2:
            return False
        if ep == q:
            # Would close a cycle: legal only as the link's one piece.  The
            # link of a boundary vertex never closes: its boundary edges are
            # full, so no face offers a link edge at their ends.
            return lcomp[x] == 1
        return True

    def link_commit(x: int, p: int, q: int) -> tuple[int, int]:
        """Add link edge p-q at x; return the slots of p and q before, for
        :func:`link_undo`.  The link of x was open (``link_ok``)."""
        kp = (x << 4) | p
        kq = (x << 4) | q
        ep, eq = lend[kp], lend[kq]
        if ep == -1 and eq == -1:
            lend[kp] = q
            lend[kq] = p
            lcomp[x] += 1
        elif ep == -1:
            lend[(x << 4) | eq] = p
            lend[kp] = eq
            lend[kq] = -2
        elif eq == -1:
            lend[(x << 4) | ep] = q
            lend[kq] = ep
            lend[kp] = -2
        else:
            # Two ends: join two paths, or close the one path p ... q.
            if ep != q:
                lend[(x << 4) | ep] = eq
                lend[(x << 4) | eq] = ep
            lend[kp] = lend[kq] = -2
            lcomp[x] -= 1
        return ep, eq

    def link_undo(x: int, p: int, q: int, ends: tuple[int, int]) -> None:
        ep, eq = ends
        lend[(x << 4) | p] = ep
        lend[(x << 4) | q] = eq
        if ep == -1 and eq == -1:
            lcomp[x] -= 1
        elif ep >= 0 and eq >= 0:
            lcomp[x] += 1
        # Endpoints always point back at each other, so the far ends can
        # be restored from the recorded opposite endpoints alone.
        if ep >= 0 and ep != q:
            lend[(x << 4) | ep] = p
        if eq >= 0 and eq != p:
            lend[(x << 4) | eq] = q

    def beats_root(x: int) -> bool:
        """Is the key of ``x`` final and smaller than vertex 0's?

        ``x`` is on a face, so its link is not empty.  A vertex is
        finished when its link is a closed cycle (no open piece), or when
        it is one path with both ends on the boundary (link degree 2 at
        the apex): a further face at such a vertex starts a second link
        piece, which can neither close nor end on the boundary, so no leaf
        lies below it.  Vertex 0's key never shrinks, so then ``leaf``
        rejects every leaf below this node.  For ``x == 0`` the answer is
        always False.
        """
        b = lend[apex | x]
        pieces = lcomp[x]
        if not pieces or (b == -2 and pieces == 1):
            d, d0 = vdeg[x], vdeg[0]
            return d < d0 or (d == d0 and b == -1 and lend[apex] != -1)
        return False

    def leaf(spent: int) -> None:
        # The degree-sum test this leaf passed leaves only spent to check.
        if spent != budget:
            return
        key = [(vdeg[x], lend[apex | x] != -1) for x in range(n)]
        identity = [key[0], key[1], key[2]]
        # Of a face's six key orders the sorted one is the smallest.
        for a, b, c in faces:
            if sorted((key[a], key[b], key[c])) < identity:
                return
        tri = build(faces)
        code = canonical_code(tri)
        # (chi, boundary) leaves only the torus and the Klein bottle to tell
        # apart, and the orientation cut already drops the Klein bottles
        # from a torus query.
        if code not in found and tri.surface_kind == kind:
            found[code] = _catalogued(code, tri, "exhaustive")

    def degree_sum() -> int:
        d0 = vdeg[0]
        return sum(d if d > d0 else d0 for d in vdeg)

    def degree_cap(spent: int) -> int:
        """3B - 2b', the bound on the degree sum below this node."""
        # spent - len(faces) boundary edges are declared, and closing the
        # lcomp[n] open pieces of the apex link into one cycle takes at
        # least lcomp[n] more.
        b = spent - len(faces) + lcomp[n]
        return 3 * budget - 2 * max(b, 3 * bordered)

    def rec(spent: int, dsum: int) -> None:
        nonlocal used
        if not open_set:
            leaf(spent)
            return
        e = min(open_set)
        u, v = e >> 4, e & 15
        # dsum = sum_x max(vdeg[x], vdeg[0]); faces leave b' alone.
        cap = degree_cap(spent)
        d0 = vdeg[0]
        # Orientation: the one face on e runs it one way (u -> v if
        # arc[e]), so on an orientable surface the new face runs it the
        # other way, and no directed edge is run by two faces.
        if oriented:
            forward = arc[e]
            back = ((v << 4) | u) if forward else e

        top = used + 1 if used < n else used
        for w in range(top):
            # The root's repeat is refused here (module docstring).
            if w == u or w == v or (spent == 1 and w == 2):
                continue
            ew = ((u << 4) | w) if u < w else ((w << 4) | u)
            ev = ((v << 4) | w) if v < w else ((w << 4) | v)
            cw, cv = ecount[ew], ecount[ev]
            if cw == 2 or cv == 2:
                continue
            # Each new edge adds 1 to dsum per end x of degree >= d0, counted
            # in commit order.  That is exact unless vertex 0 is an end, and
            # a lower bound then, since its growth also lifts the smaller
            # degrees; dsum is recounted after the commit.  The test after
            # the commit cuts every node this one does: this one only skips
            # link_ok, the commit and the undo of the candidates it cuts.
            grow = 0
            if not cw:
                grow = (vdeg[u] >= d0) + (vdeg[w] >= d0)
            if not cv:
                grow += (vdeg[v] >= d0) + (vdeg[w] + (not cw) >= d0)
            if dsum + grow > cap:
                continue
            if oriented:
                if forward:
                    a1, a2 = (u << 4) | w, (w << 4) | v
                else:
                    a1, a2 = (v << 4) | w, (w << 4) | u
                if arc[a1] or arc[a2]:
                    continue
            # The open edge e keeps the links of u and v open; a used w
            # with no open link piece has a closed one.
            if vdeg[w] and not lcomp[w]:
                continue
            if not (link_ok(u, v, w) and link_ok(v, u, w) and link_ok(w, u, v)):
                continue

            ends_u = link_commit(u, v, w)
            ends_v = link_commit(v, u, w)
            ends_w = link_commit(w, u, v)
            # e had one face; ew and ev get their first or second.
            ecount[e] = 2
            open_set.discard(e)
            for ek in (ew, ev):
                if ecount[ek]:
                    ecount[ek] = 2
                    open_set.discard(ek)
                else:
                    ecount[ek] = 1
                    open_set.add(ek)
                    vdeg[ek >> 4] += 1
                    vdeg[ek & 15] += 1
            grew = w == used
            if grew:
                used += 1
            # Unsorted: leaf()'s filter sorts the keys and build()
            # normalises.
            faces.append((u, v, w))
            if oriented:
                arc[back] = arc[a1] = arc[a2] = 1
            child = dsum + grow
            if vdeg[0] != d0:
                child = degree_sum()

            if child <= cap and not (beats_root(u) or beats_root(v) or beats_root(w)):
                rec(spent + 1, child)

            if oriented:
                arc[back] = arc[a1] = arc[a2] = 0
            faces.pop()
            if grew:
                used -= 1
            # An edge now on two faces had one before the commit.
            for ek in (ew, ev):
                if ecount[ek] == 2:
                    ecount[ek] = 1
                    open_set.add(ek)
                else:
                    ecount[ek] = 0
                    open_set.discard(ek)
                    vdeg[ek >> 4] -= 1
                    vdeg[ek & 15] -= 1
            ecount[e] = 1
            open_set.add(e)
            link_undo(w, u, v, ends_w)
            link_undo(v, u, w, ends_v)
            link_undo(u, v, w, ends_u)

        # Or declare e boundary: the cone face (u, v, n) is its second face.
        # The apex link is closed once it has an edge (spent - len(faces)
        # are declared) and no open piece.
        if bordered and (lcomp[n] or spent == len(faces)) and link_ok(n, u, v):
            ends = link_commit(n, u, v)
            ecount[e] = 2
            open_set.discard(e)
            if dsum <= degree_cap(spent + 1) and not (beats_root(u) or beats_root(v)):
                rec(spent + 1, dsum)
            ecount[e] = 1
            open_set.add(e)
            link_undo(n, u, v, ends)

    # Root: every triangulation has a labelling in which (0, 1, 2) is a
    # face, so it is fixed as the first face.
    faces.append((0, 1, 2))
    for x, p, q in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        link_commit(x, p, q)
        ecount[(p << 4) | q] = 1  # the edge opposite x
        open_set.add((p << 4) | q)
        vdeg[x] = 2
    arc[(0 << 4) | 1] = arc[(1 << 4) | 2] = arc[(2 << 4) | 0] = 1
    rec(1, degree_sum())
    return tuple(found[c] for c in sorted(found))


def enumerate_exhaustive(
    kind: SurfaceKind,
    order: int,
    ceiling: int = DEFAULT_CEILING,
) -> Catalog:
    """Every isomorphism class of the given kind and order, exactly once."""
    _check_ceiling(order, order, ceiling)
    if kind.boundary_components > 1:
        raise ValueError("exhaustive enumeration supports at most one boundary cycle")
    return Catalog(kind, order, order, "exhaustive", _search(order, kind))


def _check_ceiling(min_order: int, max_order: int, ceiling: int) -> None:
    """Raise :class:`CeilingExceeded` if the search would refuse an order of
    the range, naming the first order it would refuse, before any search."""
    first = max(min_order, min(ceiling, MAX_SEARCH_ORDER) + 1)
    if first > max_order:
        return
    if first > ceiling:
        raise CeilingExceeded(f"order {first} above ceiling {ceiling}")
    raise CeilingExceeded(
        f"order {first} above the exhaustive search limit {MAX_SEARCH_ORDER}"
    )


def enumerate_exhaustive_range(
    kind: SurfaceKind,
    min_order: int,
    max_order: int,
    ceiling: int = DEFAULT_CEILING,
) -> Catalog:
    """Union of :func:`enumerate_exhaustive` over an order range.

    An order above the ceiling is refused before any order is searched.
    """
    _check_ceiling(min_order, max_order, ceiling)
    entries = tuple(
        entry
        for order in range(min_order, max_order + 1)
        for entry in enumerate_exhaustive(kind, order, ceiling).entries
    )
    return Catalog(kind, min_order, max_order, "exhaustive", entries)


# ---------------------------------------------------------------------------
# Catalog text format
# ---------------------------------------------------------------------------


def serialize_catalog(catalog: Catalog) -> str:
    lines = [
        "# trisurf catalog",
        f"surface: {catalog.kind}",
        f"orders: {catalog.min_order}..{catalog.max_order}",
        f"engine: {catalog.engine}",
        f"version: {__version__}",
        f"entries: {len(catalog.entries)}",
        "---",
    ]
    for entry in catalog.entries:
        face_text = ";".join(
            ",".join(str(v) for v in face) for face in entry.triangulation.faces
        )
        lines.append(
            f"{entry.code.hex()} {entry.order} {face_text} {entry.provenance}"
        )
    return "\n".join(lines) + "\n"


def _parse_kind(surface: str) -> SurfaceKind:
    """The kind a catalog header names: a name of ``SURFACE_BY_NAME``, or
    an unnamed kind exactly as ``SurfaceKind.name`` prints it."""
    if surface in SURFACE_BY_NAME:
        return SURFACE_BY_NAME[surface]
    fields = re.fullmatch(r"chi=(-?\d+) (\S+) boundary=(\d+)", surface)
    if fields:
        kind = SurfaceKind(int(fields[1]), fields[2] == "orientable", int(fields[3]))
        if kind.name == surface:
            return kind
    raise ParseError(f"catalog header: unknown surface {surface!r}")


def parse_catalog(text: str) -> Catalog:
    """Read a catalog written by :func:`serialize_catalog`.

    Every record is rebuilt and checked against its stored code, order and
    the header's surface and order range, and the header's ``entries``
    count (when present) against the records; any mismatch is a
    :class:`ParseError` naming the line.
    """
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    lines = text.splitlines()
    body_start = None
    for i, line in enumerate(lines):
        if line.strip() == "---":
            body_start = i + 1
            break
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition(":")
        header[key.strip()] = value.strip()
        header_line[key.strip()] = i + 1
    if body_start is None:
        raise ParseError("catalog has no '---' separator")
    try:
        surface, orders, engine = header["surface"], header["orders"], header["engine"]
    except KeyError as exc:
        raise ParseError(f"catalog header missing field: {exc}") from None
    kind = _parse_kind(surface)
    try:
        lo, hi = (int(bound) for bound in orders.split(".."))
    except ValueError:
        raise ParseError(f"catalog header: bad orders {orders!r}") from None
    if lo > hi:
        raise ParseError(
            f"line {header_line['orders']}: orders {orders!r} run backwards"
        )
    if engine not in ("splitting", "exhaustive"):
        raise ParseError(f"line {header_line['engine']}: unknown engine {engine!r}")

    entries = []
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line.strip():
            continue
        try:
            code_hex, order_text, face_text, provenance = line.split(" ", 3)
            code, order = bytes.fromhex(code_hex), int(order_text)
            parsed = [
                tuple(int(value) for value in face.split(","))
                for face in face_text.split(";")
            ]
        except ValueError:
            raise ParseError(f"line {lineno}: bad catalog record") from None
        tri = build(parsed)
        if canonical_code(tri) != code:
            raise ParseError(
                f"line {lineno}: stored code does not match the face list"
            )
        if order != tri.order:
            raise ParseError(
                f"line {lineno}: order {order} but the face list has "
                f"{tri.order} vertices"
            )
        if not lo <= order <= hi:
            raise ParseError(
                f"line {lineno}: order {order} outside the header's {lo}..{hi}"
            )
        if tri.surface_kind != kind:
            raise ParseError(
                f"line {lineno}: face list triangulates the "
                f"{tri.surface_kind}, header says {kind}"
            )
        entries.append(_catalogued(code, tri, provenance))
    try:
        catalog = Catalog(kind, lo, hi, engine, tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if "entries" in header and header["entries"] != str(len(entries)):
        raise ParseError(
            f"line {header_line['entries']}: header says {header['entries']} "
            f"entries, found {len(entries)} records"
        )
    return catalog
