"""Canonical forms, isomorphism testing and automorphism groups.

The canonical code of a triangulation is computed by flag traversal: a
flag is an incident (vertex, edge, face) triple with a side, encoded here
as an ordered face triple ``(a, b, c)``.  Starting from a flag, a
breadth-first sweep over the faces relabels the vertices in discovery
order; the sorted, relabelled face list depends only on the starting flag
and the isomorphism class.  A key prefilter keeps only the flags whose
vertices have the smallest (degree, on-boundary) keys, computed once per
vertex.  The code is the lexicographic minimum over those flags, which
makes it a complete isomorphism invariant.  The automorphism group comes
from comparing each candidate flag's sweep with a reference flag's, face
by face, abandoning the sweep at the first face that differs.

Boundary participates automatically: boundary edges are exactly the
edges on one face, so the face list determines them.  The code header
records order, face count and boundary length in one byte each; at 256 or
more of any of them the code is wide: a 0 byte, then the header and the
labels as 2-byte big-endian numbers.

All functions are pure; codes and labelings are cached per value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .complex_core import Triangulation

CanonicalCode = bytes
Flag = tuple[int, int, int]


@dataclass(frozen=True)
class AutomorphismGroup:
    """All face-preserving vertex permutations of a triangulation.

    ``elements`` maps vertex ``v`` to ``perm[v]``; the identity is always
    present and the list is closed under composition and inverse.
    """

    order: int
    elements: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        parent = list(range(self.order))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for perm in self.elements:
            for v, w in enumerate(perm):
                parent[find(v)] = find(w)
        groups: dict[int, list[int]] = {}
        for v in range(self.order):
            groups.setdefault(find(v), []).append(v)
        return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def _cross_map(tri: Triangulation) -> dict[Flag, tuple[int, int]]:
    """Map (x, y, z), an edge x-y in either direction of a face with apex z,
    to (apex, index) of the face across that edge; boundary edges are absent."""
    index = {face: i for i, face in enumerate(tri.faces)}
    cross: dict[Flag, tuple[int, int]] = {}
    for (u, v), incident in tri.edge_faces.items():
        if len(incident) == 2:
            (p, i), (q, j) = ((sum(face) - u - v, index[face]) for face in incident)
            cross[(u, v, p)] = cross[(v, u, p)] = (q, j)
            cross[(u, v, q)] = cross[(v, u, q)] = (p, i)
    return cross


def _traverse(tri: Triangulation, cross: dict[Flag, tuple[int, int]], flag: Flag,
              start: int, ref: list[Flag] | None = None):
    """Sweep the faces breadth-first from ``flag`` (in face ``start``); return
    them as oriented triples in sweep order, and the old->new labeling.
    Given ``ref``, another sweep's relabelled faces, stop with None at the
    first face that differs."""
    label = [-1] * tri.order
    a, b, c = flag
    label[a], label[b], label[c] = 0, 1, 2
    next_label = 3
    seen = bytearray(len(tri.faces))
    seen[start] = 1
    queue = [flag]
    for k, (u, v, w) in enumerate(queue):
        if ref is not None and ref[k] != (label[u], label[v], label[w]):
            return None
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            across = cross.get((x, y, z))
            if across is None or seen[across[1]]:
                continue
            t, j = across
            seen[j] = 1
            if label[t] < 0:
                label[t] = next_label
                next_label += 1
            # Enter the neighbour with the shared edge reversed so the
            # traversal keeps a consistent local orientation.
            queue.append((y, x, t))
    return queue, label


def _candidate_flags(tri: Triangulation) -> list[tuple[int, Flag]]:
    """(face index, flag) for the flags with the minimal key, in face order.

    A flag's key lists its vertices' (degree, on-boundary) keys, which are
    computed once per vertex.  The canonical code is the minimum over
    exactly these flags, and automorphisms map them onto one another.
    """
    boundary = tri.boundary_vertices
    key = [2 * d + (v in boundary) for v, d in enumerate(tri.degrees)]
    best: list[int] | None = None
    found: list[tuple[int, Flag]] = []
    for i, (a, b, c) in enumerate(tri.faces):
        face_key = sorted((key[a], key[b], key[c]))
        if best is None or face_key < best:
            best, found = face_key, []
        if face_key == best:
            flags = ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))
            found.extend((i, f) for f in flags if key[f[0]] <= key[f[1]] <= key[f[2]])
    return found


@lru_cache(maxsize=65536)
def _canonical(tri: Triangulation) -> tuple[bytes, tuple[int, ...]]:
    # The relabelled face lists share a fixed-width byte encoding, so the
    # list order is the code order; the first minimal flag wins ties.
    cross = _cross_map(tri)
    best = None
    for start, flag in _candidate_flags(tri):
        queue, label = _traverse(tri, cross, flag, start)
        faces = sorted(tuple(sorted((label[u], label[v], label[w]))) for u, v, w in queue)
        if best is None or faces < best[0]:
            best = faces, label
    faces, label = best
    values = (tri.order, len(tri.faces), len(tri.boundary_edges), *chain.from_iterable(faces))
    if max(values[:3]) < 256:
        return bytes(values), tuple(label)
    # Wide code: a 0 byte (no narrow code starts with one), then 2-byte
    # big-endian header fields and labels.
    return b"\0" + struct.pack(f">{len(values)}H", *values), tuple(label)


def canonical_code(tri: Triangulation) -> CanonicalCode:
    """Byte key uniquely identifying the isomorphism class."""
    return _canonical(tri)[0]


def canonical_labeling(tri: Triangulation) -> tuple[int, ...]:
    """A vertex relabelling realising the canonical code."""
    return _canonical(tri)[1]


def canonical_faces(tri: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """The face list of the canonical representative."""
    label = canonical_labeling(tri)
    return tuple(sorted(
        tuple(sorted((label[a], label[b], label[c]))) for a, b, c in tri.faces
    ))


def isomorphic(t1: Triangulation, t2: Triangulation) -> bool:
    return canonical_code(t1) == canonical_code(t2)


def isomorphism(t1: Triangulation, t2: Triangulation) -> dict[int, int] | None:
    """A witness vertex bijection if the two are isomorphic, else None."""
    if not isomorphic(t1, t2):
        return None
    label1 = canonical_labeling(t1)
    label2 = canonical_labeling(t2)
    inverse2 = {new: old for old, new in enumerate(label2)}
    return {v: inverse2[label1[v]] for v in range(t1.order)}


def automorphisms(tri: Triangulation) -> AutomorphismGroup:
    """Exhaustive face-preserving vertex permutations via flag traversal.

    Each flag-to-flag map induces at most one automorphism, and does so
    exactly when the two sweeps relabel every face alike.  The first
    candidate flag is swept once as the reference.  Only flags with the
    same vertex keys can be its images, and each of their sweeps stops at
    the first face that relabels differently.
    """
    cross = _cross_map(tri)
    candidates = _candidate_flags(tri)
    ref_start, ref_flag = candidates[0]
    ref_queue, ref_label = _traverse(tri, cross, ref_flag, ref_start)
    ref = [(ref_label[u], ref_label[v], ref_label[w]) for u, v, w in ref_queue]
    elements = []
    for start, flag in candidates:
        swept = _traverse(tri, cross, flag, start, ref)
        if swept is not None:
            inverse = sorted(range(tri.order), key=swept[1].__getitem__)
            elements.append(tuple(inverse[ref_label[v]] for v in range(tri.order)))
    return AutomorphismGroup(order=tri.order, elements=tuple(sorted(elements)))


def vertex_orbits(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the vertices under the automorphism group."""
    return automorphisms(tri).orbits


def relabel(tri: Triangulation, perm: dict[int, int] | tuple[int, ...]) -> Triangulation:
    """Apply a vertex permutation and rebuild (test helper and witness checker)."""
    from .complex_core import build

    mapping = perm if isinstance(perm, dict) else {i: p for i, p in enumerate(perm)}
    return build([(mapping[a], mapping[b], mapping[c]) for a, b, c in tri.faces])
