"""Canonical forms, isomorphism testing and automorphism groups.

The canonical code of a triangulation is computed by flag traversal: a
flag is an incident (vertex, edge, face) triple with a side, encoded here
as an ordered face triple ``(a, b, c)``.  Starting from a flag, a
breadth-first sweep over the faces relabels the vertices in discovery
order; the sorted, relabelled face list depends only on the starting flag
and the isomorphism class.  A key prefilter keeps only the flags whose
vertices have the smallest (degree, on-boundary) keys, computed once per
vertex.  The code is the lexicographic minimum over those flags, which
makes it a complete isomorphism invariant.

The same sweep gives the automorphism group.  Two flags f and g whose
sweeps give the same face list differ by exactly one automorphism,
sigma = L_g^-1 o L_f, where L_f is the labelling of f's sweep, and an
automorphism maps each candidate flag onto another (the keys are
invariant), so the group is read off the labellings of the tying flags.

The flag loop is pruned by the automorphisms it finds (McKay's
automorphism pruning, 1981).  Each tie with the best flag adds a
generator; every candidate flag in the best flag's orbit under the
generators found so far is labelled without a sweep, and when a new best
appears its orbit is closed under the same generators, which are still
automorphisms.  The result is the sweep-every-flag result, labelling for
labelling: the sweep depends only on its flag and the cross map, so it is
equivariant, L_sigma(f)[sigma[x]] = L_f[x], and a flag in the orbit gives
the minimal face list exactly as its sweep would.  A tie is swept only
outside the orbit of the group found so far, so its generator at least
doubles that group: at most log2 |Aut| ties are swept, not |Aut| - 1,
and a torus grid, where every flag ties, costs about 1 + log2 |Aut|
sweeps.

The sweep reads one cross map: each interior edge ``x-y`` is keyed by the
int ``x * order + y`` in both directions and maps to (apex, face index) of
both its faces.  The face the sweep stands in is always seen, so it enters
whichever face of the pair is unseen, and skips the edge when both are.

Boundary participates automatically: boundary edges are exactly the
edges on one face, so the face list determines them.  The code header
records order, face count and boundary length (counted as 2E - 3F) in
one byte each; at 256 or more of any of them the code is wide: a 0 byte,
then the header and the labels as 2-byte big-endian numbers.

All functions are pure; the code and the tying labellings are cached on
the value.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from itertools import chain

from .complex_core import Triangulation, build

CanonicalCode = bytes
Flag = tuple[int, int, int]


def _cross_map(tri: Triangulation) -> dict[int, tuple[int, int, int, int]]:
    """Map each interior edge x-y, keyed ``x * order + y`` in both
    directions, to (apex, index) of both its faces; boundary edges are
    absent."""
    n = tri.order
    index = {face: i for i, face in enumerate(tri.faces)}
    cross: dict[int, tuple[int, int, int, int]] = {}
    for (u, v), incident in tri.edge_faces.items():
        if len(incident) == 2:
            f, g = incident
            cross[u * n + v] = cross[v * n + u] = (
                f[0] + f[1] + f[2] - u - v, index[f], g[0] + g[1] + g[2] - u - v, index[g]
            )
    return cross


def _traverse(tri: Triangulation, cross: dict[int, tuple[int, int, int, int]],
              flag: Flag, start: int):
    """Sweep the faces breadth-first from ``flag`` (in face ``start``); return
    them as oriented triples in sweep order, and the old->new labeling."""
    n = tri.order
    label = [-1] * n
    a, b, c = flag
    label[a], label[b], label[c] = 0, 1, 2
    next_label = 3
    seen = bytearray(len(tri.faces))
    seen[start] = 1
    queue = [flag]
    for u, v, w in queue:
        for x, y in ((u, v), (v, w), (w, u)):
            across = cross.get(x * n + y)
            if across is None:
                continue
            # The face the sweep stands in is seen, so the unseen face of
            # the pair, if any, is the one across the edge.
            p, i, q, j = across
            if not seen[i]:
                t = p
                seen[i] = 1
            elif not seen[j]:
                t = q
                seen[j] = 1
            else:
                continue
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


def _inverse(label: Sequence[int]) -> list[int]:
    """The new->old map of an old->new labelling."""
    back = [0] * len(label)
    for old, new in enumerate(label):
        back[new] = old
    return back


def _automorphism(source: list[int], target: list[int]) -> tuple[list[int], list[int]]:
    """The automorphism sigma that maps the flag with labelling ``source``
    onto the flag with labelling ``target`` (``target[sigma[x]] == source[x]``),
    and its inverse."""
    back_source, back_target = _inverse(source), _inverse(target)
    return list(map(back_target.__getitem__, source)), list(map(back_source.__getitem__, target))


def _close(orbit: dict[Flag, tuple[int, ...]],
           generators: list[tuple[list[int], list[int]]]) -> None:
    """Extend ``orbit`` (flag -> labelling) to its closure under the
    generators, each image sigma(f) labelled by ``label_f`` after sigma^-1."""
    queue = list(orbit)
    for flag in queue:
        label = orbit[flag]
        a, b, c = flag
        for perm, inverse in generators:
            image = (perm[a], perm[b], perm[c])
            if image not in orbit:
                orbit[image] = tuple(map(label.__getitem__, inverse))
                queue.append(image)


def _canonical_form(tri: Triangulation) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """The code, and the labelling of every flag whose sweep gives it, the
    first minimal flag's first."""
    # The relabelled face lists share a fixed-width byte encoding, so the
    # list order is the code order; the first minimal flag wins ties.
    cross = _cross_map(tri)
    candidates = _candidate_flags(tri)
    best = orbit = None
    for start, flag in candidates:
        if orbit is not None and flag in orbit:
            continue
        queue, label = _traverse(tri, cross, flag, start)
        faces = sorted(tuple(sorted((label[u], label[v], label[w]))) for u, v, w in queue)
        if faces == best:
            # A tie is a new automorphism: the best flag's orbit under all
            # found so far is labelled without a sweep.
            if orbit is None:
                generators, orbit = [], {first: tuple(first_label)}
            generators.append(_automorphism(first_label, label))
            _close(orbit, generators)
        elif best is None or faces < best:
            best, first, first_label = faces, flag, label
            if orbit is not None:
                orbit = {flag: tuple(label)}
                _close(orbit, generators)
    if orbit is None:
        labellings = (tuple(first_label),)
    else:
        labellings = tuple(orbit[flag] for _, flag in candidates if flag in orbit)
    # Each interior edge lies on two faces and each boundary edge on one,
    # so 3F = 2E - B.
    boundary = 2 * len(tri.edges) - 3 * len(tri.faces)
    values = (tri.order, len(tri.faces), boundary, *chain.from_iterable(best))
    if max(values[:3]) < 256:
        return bytes(values), labellings
    # Wide code: a 0 byte (no narrow code starts with one), then 2-byte
    # big-endian header fields and labels.
    return b"\0" + struct.pack(f">{len(values)}H", *values), labellings


def canonical_code(tri: Triangulation) -> CanonicalCode:
    """Byte key uniquely identifying the isomorphism class."""
    return tri._canonical[0]


def canonical_labeling(tri: Triangulation) -> tuple[int, ...]:
    """A vertex relabelling realising the canonical code."""
    return tri._canonical[1][0]


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


def automorphisms(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Every face-preserving vertex permutation, read off the canonical form.

    Each permutation ``perm`` maps vertex ``v`` to ``perm[v]``; the tuple
    is sorted, so the identity comes first.

    Each labelling realising the canonical code sends the complex onto the
    same face list, so any labelling followed by the inverse of the first
    is an automorphism, and every automorphism arises once this way.  (These
    are the inverses of the first followed by the inverse of each; the set,
    and so the sorted tuple, is the same.)
    """
    labellings = tri._canonical[1]
    inverse = _inverse(labellings[0])
    return tuple(sorted(tuple(map(inverse.__getitem__, label)) for label in labellings))


def vertex_orbits(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the vertices under the automorphism group, read
    off the tying labellings as :func:`automorphisms` reads the group.

    The orbit of ``v`` is its image under every element.  Each vertex not
    yet placed is the least of a new orbit, so the orbits come out sorted,
    and no group is listed or sorted.
    """
    labellings = tri._canonical[1]
    inverse = _inverse(labellings[0])
    placed = bytearray(tri.order)
    orbits = []
    for v in range(tri.order):
        if not placed[v]:
            orbit = sorted({inverse[label[v]] for label in labellings})
            for w in orbit:
                placed[w] = 1
            orbits.append(tuple(orbit))
    return tuple(orbits)


def relabel(tri: Triangulation, perm: dict[int, int] | tuple[int, ...]) -> Triangulation:
    """Apply a vertex permutation and rebuild (test helper and witness checker)."""
    mapping = perm if isinstance(perm, dict) else {i: p for i, p in enumerate(perm)}
    return build([(mapping[a], mapping[b], mapping[c]) for a, b, c in tri.faces])
