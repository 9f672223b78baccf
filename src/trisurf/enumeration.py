"""Two independent generation engines for triangulation catalogs.

``generate_by_splitting`` computes the breadth-first closure of a set of
seed triangulations under all splitting moves, deduplicated by canonical
code.  Because the irreducible triangulations of a surface form a basis
under splitting (Barnette & Edelson 1989), seeding with them yields every
triangulation up to the requested order.  ``BASES`` stores that basis as
face lists for every named surface, and ``enumerate_splitting_range``
seeds the closure from it, so the splitting engine never runs a search.

``enumerate_exhaustive`` is the anti-hallucination oracle: a backtracking
search over face triples that constructs every triangulation with the
requested vertex count from scratch, sharing nothing with the splitting
engine.  The search grows a complex one face at a time, always completing
the lexicographically smallest open edge (an edge on one face that has
not been committed to the boundary), so each labelled complex is reached
along exactly one path.  Partial-link feasibility, edge multiplicities
and a single-boundary-cycle discipline prune the tree; new vertices must
appear in discovery order, which cuts the labelled duplicates per
isomorphism class down to one per flag.  A final invariant filter keeps
only leaves whose identity labelling starts at a minimal flag, so only a
handful of labelled copies per class are ever validated and coded.

``compare_catalogs`` diffs the code sets of two catalogs; agreement of
the two engines over a surface and order range is the central correctness
check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class CatalogEntry:
    code: bytes
    order: int
    triangulation: Triangulation
    provenance: str


@dataclass(frozen=True)
class Catalog:
    kind: SurfaceKind
    min_order: int
    max_order: int
    engine: str
    entries: tuple[CatalogEntry, ...]

    def __post_init__(self) -> None:
        codes = [entry.code for entry in self.entries]
        if len(set(codes)) != len(codes):
            raise ValueError("catalog entries must have distinct codes")
        if list(self.entries) != sorted(self.entries, key=lambda e: (e.order, e.code)):
            raise ValueError("catalog entries must be sorted by (order, code)")

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


@dataclass(frozen=True)
class CatalogDiff:
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

    entries: dict[bytes, CatalogEntry] = {}
    for name, seed in sorted(
        zip(seed_names, seeds),
        key=lambda item: (item[1].order, canonical_code(item[1])),
    ):
        code = canonical_code(seed)
        entries.setdefault(
            code, CatalogEntry(code, seed.order, seed, f"seed:{name}")
        )

    min_seed_order = min(seed.order for seed in seeds)
    for order in range(min_seed_order, max_order):
        layer = sorted(
            (e for e in entries.values() if e.order == order),
            key=lambda e: e.code,
        )
        for entry in layer:
            for descriptor, child in all_splits(entry.triangulation):
                child_code = canonical_code(child)
                if child_code not in entries:
                    entries[child_code] = CatalogEntry(
                        child_code,
                        child.order,
                        child,
                        f"{entry.code.hex()}:{descriptor.descriptor()}",
                    )
    ordered = tuple(sorted(entries.values(), key=lambda e: (e.order, e.code)))
    return Catalog(kind, min_seed_order, max_order, "splitting", ordered)


def enumerate_splitting_range(
    kind: SurfaceKind, min_order: int, max_order: int
) -> Catalog:
    """Splitting closure of the stored basis of ``kind`` over an order range.

    The counterpart of :func:`enumerate_exhaustive_range`; it never runs
    the exhaustive search.  The catalog is empty when no basis member has
    order at most ``max_order``.
    """
    if kind not in BASES:
        raise ValueError(f"no stored splitting basis for {kind}")
    seeds = [seed for seed in map(build, BASES[kind]) if seed.order <= max_order]
    if not seeds:
        return Catalog(kind, min_order, max_order, "splitting", ())
    return generate_by_splitting(seeds, max_order).restricted(min_order, max_order)


# ---------------------------------------------------------------------------
# Exhaustive backtracking enumeration
# ---------------------------------------------------------------------------


def _face_id(u: int, v: int, w: int) -> int:
    a, b, c = sorted((u, v, w))
    return (a << 8) | (b << 4) | c


def _search(n: int, allow_boundary: bool, face_cap: int) -> list[Triangulation]:
    """All triangulations on exactly ``n`` vertices (closed, or with at
    most one boundary cycle when ``allow_boundary``), one per class."""
    if n > MAX_SEARCH_ORDER:
        raise CeilingExceeded(
            f"order {n} above the exhaustive search limit {MAX_SEARCH_ORDER}"
        )
    if n < 3:
        return []

    # Edge keys are (u << 4) | v with u < v; link keys (x << 8) | ((u<<4)|y)
    # would overflow nothing at n <= 15.
    ecount = bytearray(256)        # edge key -> number of incident faces
    declared = bytearray(256)      # edge key -> committed to the boundary
    ldeg = bytearray(4096)         # (x << 8) | y -> link degree of y at x
    lend = [-1] * 4096             # path endpoint -> opposite endpoint
    lcomp = [0] * n                # open link-path components per vertex
    lclosed = bytearray(n)         # link already a full cycle
    vdeg = [0] * n
    bdeg = [0] * n                 # declared boundary edges per vertex
    bend = [-1] * n                # boundary path endpoint -> opposite end
    faces: list[tuple[int, int, int]] = []
    face_set: set[int] = set()
    open_set: set[int] = set()
    found: dict[bytes, Triangulation] = {}

    used = 3
    boundary_closed = False

    def link_ok(x: int, p: int, q: int) -> bool:
        """May link edge p-q be added at x?  (Pure check, no mutation.)"""
        if lclosed[x]:
            return False
        kp = (x << 8) | p
        kq = (x << 8) | q
        dp = ldeg[kp]
        dq = ldeg[kq]
        if dp == 2 or dq == 2:
            return False
        if dp == 1 and dq == 1 and lend[kp] == q:
            # Would close a cycle: legal only if it completes the link of
            # an interior vertex.
            return lcomp[x] == 1 and bdeg[x] == 0
        return True

    def link_commit(x: int, p: int, q: int, trail: list) -> None:
        kp = (x << 8) | p
        kq = (x << 8) | q
        ep, eq = lend[kp], lend[kq]
        trail.append((x, p, q, ep, eq, lclosed[x]))
        dp, dq = ldeg[kp], ldeg[kq]
        ldeg[kp] = dp + 1
        ldeg[kq] = dq + 1
        if dp == 0 and dq == 0:
            lend[kp] = q
            lend[kq] = p
            lcomp[x] += 1
        elif dp == 1 and dq == 1:
            if ep == q:
                lclosed[x] = 1
                lend[kp] = -1
                lend[kq] = -1
            else:
                lend[(x << 8) | ep] = eq
                lend[(x << 8) | eq] = ep
                lend[kp] = -1
                lend[kq] = -1
            lcomp[x] -= 1
        elif dp == 1:
            lend[(x << 8) | ep] = q
            lend[kq] = ep
            lend[kp] = -1
        else:
            lend[(x << 8) | eq] = p
            lend[kp] = eq
            lend[kq] = -1

    def link_undo(entry: tuple) -> None:
        x, p, q, ep, eq, closed = entry
        kp = (x << 8) | p
        kq = (x << 8) | q
        dp = ldeg[kp] - 1
        dq = ldeg[kq] - 1
        ldeg[kp] = dp
        ldeg[kq] = dq
        lclosed[x] = closed
        lend[kp] = ep
        lend[kq] = eq
        if dp == 0 and dq == 0:
            lcomp[x] -= 1
        elif dp == 1 and dq == 1:
            lcomp[x] += 1
        # Endpoints always point back at each other, so the far ends can
        # be restored from the recorded opposite endpoints alone.
        if ep >= 0 and ep != q:
            lend[(x << 8) | ep] = p
        if eq >= 0 and eq != p:
            lend[(x << 8) | eq] = q

    def leaf() -> None:
        if used != n:
            return
        key = [(vdeg[x], 1 if bdeg[x] else 0) for x in range(n)]
        identity = (key[0], key[1], key[2])
        for a, b, c in faces:
            ka, kb, kc = key[a], key[b], key[c]
            if (
                (ka, kb, kc) < identity or (ka, kc, kb) < identity
                or (kb, ka, kc) < identity or (kb, kc, ka) < identity
                or (kc, ka, kb) < identity or (kc, kb, ka) < identity
            ):
                return
        tri = build(faces)
        code = canonical_code(tri)
        if code not in found:
            found[code] = tri

    def rec() -> None:
        nonlocal used, boundary_closed
        if not open_set:
            leaf()
            return
        if n - used > face_cap - len(faces):
            return
        e = min(open_set)
        u, v = e >> 4, e & 15

        if len(faces) < face_cap:
            top = used + 1 if used < n else used
            for w in range(top):
                if w == u or w == v:
                    continue
                fid = _face_id(u, v, w)
                if fid in face_set:
                    continue
                ew = ((u << 4) | w) if u < w else ((w << 4) | u)
                ev = ((v << 4) | w) if v < w else ((w << 4) | v)
                if ecount[ew] == 2 or declared[ew]:
                    continue
                if ecount[ev] == 2 or declared[ev]:
                    continue
                if not (link_ok(u, v, w) and link_ok(v, u, w) and link_ok(w, u, v)):
                    continue

                trail: list = []
                link_commit(u, v, w, trail)
                link_commit(v, u, w, trail)
                link_commit(w, u, v, trail)
                touched = []
                for ek in (e, ew, ev):
                    ecount[ek] += 1
                    if ecount[ek] == 1:
                        open_set.add(ek)
                        vdeg[ek >> 4] += 1
                        vdeg[ek & 15] += 1
                        touched.append((ek, True))
                    else:
                        open_set.discard(ek)
                        touched.append((ek, False))
                grew = w == used
                if grew:
                    used += 1
                faces.append(tuple(sorted((u, v, w))))
                face_set.add(fid)

                rec()

                face_set.discard(fid)
                faces.pop()
                if grew:
                    used -= 1
                for ek, was_new in reversed(touched):
                    ecount[ek] -= 1
                    if was_new:
                        open_set.discard(ek)
                        vdeg[ek >> 4] -= 1
                        vdeg[ek & 15] -= 1
                    else:
                        open_set.add(ek)
                for entry in reversed(trail):
                    link_undo(entry)

        if (
            allow_boundary
            and not boundary_closed
            and not lclosed[u]
            and not lclosed[v]
            and bdeg[u] < 2
            and bdeg[v] < 2
        ):
            closing = bdeg[u] == 1 and bdeg[v] == 1 and bend[u] == v
            saved_u, saved_v = bend[u], bend[v]
            declared[e] = 1
            open_set.discard(e)
            bdeg[u] += 1
            bdeg[v] += 1
            if closing:
                boundary_closed = True
                bend[u] = -1
                bend[v] = -1
            elif saved_u >= 0 and saved_v >= 0:
                # Two paths merge; their far ends become the new endpoints.
                bend[saved_u] = saved_v
                bend[saved_v] = saved_u
                bend[u] = -1
                bend[v] = -1
            elif saved_u >= 0:
                bend[saved_u] = v
                bend[v] = saved_u
                bend[u] = -1
            elif saved_v >= 0:
                bend[saved_v] = u
                bend[u] = saved_v
                bend[v] = -1
            else:
                bend[u] = v
                bend[v] = u

            rec()

            if closing:
                boundary_closed = False
            bdeg[u] -= 1
            bdeg[v] -= 1
            bend[u], bend[v] = saved_u, saved_v
            if saved_u >= 0 and saved_u != v:
                bend[saved_u] = u
            if saved_v >= 0 and saved_v != u:
                bend[saved_v] = v
            declared[e] = 0
            open_set.add(e)

    # Root: every triangulation has a labelling in which (0, 1, 2) is a
    # face, so it is fixed as the first face.
    faces.append((0, 1, 2))
    face_set.add(_face_id(0, 1, 2))
    root_trail: list = []
    link_commit(0, 1, 2, root_trail)
    link_commit(1, 0, 2, root_trail)
    link_commit(2, 0, 1, root_trail)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ek = (a << 4) | b
        ecount[ek] = 1
        open_set.add(ek)
        vdeg[a] += 1
        vdeg[b] += 1
    rec()
    return [found[code] for code in sorted(found)]


@lru_cache(maxsize=64)
def _search_cached(
    n: int, allow_boundary: bool, face_cap: int
) -> tuple[Triangulation, ...]:
    return tuple(_search(n, allow_boundary, face_cap))


def _face_cap(kind: SurfaceKind, order: int) -> int:
    chi = kind.euler_characteristic
    if kind.boundary_components == 0:
        # Caps for chi <= 1 coincide so that sphere and projective-plane
        # queries share one search run.
        return 2 * (order - min(chi, 1))
    # A bordered complex with boundary length b has 2*order - 2*chi - b
    # faces and b >= 3.  Sharing the chi <= 0 cap lets disk queries reuse
    # the moebius run.
    return 2 * order - 2 * min(chi, 0) - 3


def enumerate_exhaustive(
    kind: SurfaceKind,
    order: int,
    ceiling: int = DEFAULT_CEILING,
) -> Catalog:
    """Every isomorphism class of the given kind and order, exactly once."""
    if order > ceiling:
        raise CeilingExceeded(f"order {order} above ceiling {ceiling}")
    if kind.boundary_components > 1:
        raise ValueError("exhaustive enumeration supports at most one boundary cycle")
    bordered = kind.boundary_components == 1
    raw = _search_cached(order, bordered, _face_cap(kind, order))
    entries = tuple(
        CatalogEntry(canonical_code(tri), order, tri, "exhaustive")
        for tri in raw
        if tri.surface_kind == kind
    )
    return Catalog(kind, order, order, "exhaustive", entries)


def enumerate_exhaustive_range(
    kind: SurfaceKind,
    min_order: int,
    max_order: int,
    ceiling: int = DEFAULT_CEILING,
    jobs: int = 1,
) -> Catalog:
    """Union of :func:`enumerate_exhaustive` over an order range."""
    from ._parallel import pmap

    tasks = [(kind, order, ceiling) for order in range(min_order, max_order + 1)]
    catalogs = pmap(_exhaustive_task, tasks, jobs)
    entries = tuple(entry for catalog in catalogs for entry in catalog.entries)
    return Catalog(kind, min_order, max_order, "exhaustive", entries)


def _exhaustive_task(args: tuple[SurfaceKind, int, int]) -> Catalog:
    kind, order, ceiling = args
    return enumerate_exhaustive(kind, order, ceiling)


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


def parse_catalog(text: str) -> Catalog:
    header: dict[str, str] = {}
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
    if body_start is None:
        raise ParseError("catalog has no '---' separator")
    try:
        surface, orders, engine = header["surface"], header["orders"], header["engine"]
    except KeyError as exc:
        raise ParseError(f"catalog header missing field: {exc}") from None
    if surface not in SURFACE_BY_NAME:
        raise ParseError(f"catalog header: unknown surface {surface!r}")
    kind = SURFACE_BY_NAME[surface]
    try:
        lo, hi = (int(bound) for bound in orders.split(".."))
    except ValueError:
        raise ParseError(f"catalog header: bad orders {orders!r}") from None

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
        entries.append(CatalogEntry(code, order, tri, provenance))
    try:
        return Catalog(kind, lo, hi, engine, tuple(entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
