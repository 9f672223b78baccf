"""Canonical forms, isomorphism testing and automorphism groups.

The canonical code of a triangulation is computed by flag traversal: a
flag is an incident (vertex, edge, face) triple with a side, encoded here
as an ordered face triple ``(a, b, c)``.  Starting from a flag, a
breadth-first sweep over the faces relabels the vertices in discovery
order; the sorted, relabelled face list depends only on the starting flag
and the isomorphism class.  A key prefilter keeps only the flags whose
vertices have the smallest (degree, on-boundary) keys, computed once per
vertex; each face's vertices are ordered by key with three
compare-and-swaps, so only its ascending flags are formed.  The code is
the lexicographic minimum over those flags, which makes it a complete
isomorphism invariant.

The same sweep gives the automorphism group.  Two flags f and g whose
sweeps give the same face list differ by exactly one automorphism,
sigma = L_g^-1 o L_f, where L_f is the labelling of f's sweep, and an
automorphism maps each candidate flag onto another (the keys are
invariant), so the automorphisms that map the first minimal flag onto
the tying flags are the whole group.

The flag loop is pruned by the automorphisms it finds (McKay's
automorphism pruning, 1981).  Each swept tie with the best flag adds its
automorphism as a generator, and the best flag's orbit under the
generators found so far, a set of flags, is skipped without a sweep.
The orbit is closed incrementally: a new generator acts on every flag
already in it, and every generator acts on the flags that adds; when a
new best appears its orbit is closed afresh under the same generators,
which are still automorphisms.  The code and the canonical labelling are
the sweep-every-flag result: the sweep depends only on its flag and the
cross map, so it is equivariant, L_sigma(f)[sigma[x]] = L_f[x], and a
flag in the orbit gives the minimal face list exactly as its sweep
would.  A tie is swept only outside the orbit of the group found so far,
so its generator at least doubles that group: at most log2 |Aut| ties
are swept and kept as generators, not |Aut| - 1, and a torus grid, where
every flag ties, costs about 1 + log2 |Aut| sweeps.  The group and the
vertex orbits are generated from the generators, which is how nauty
returns a group (McKay & Piperno, 2014).

The sweep is ``complex_core._traverse``; besides it this module reads a
value's public fields only, not the edge key maps.  Each swept face is
relabelled and sorted by three compare-and-swaps, with no sort call.

Boundary participates automatically: boundary edges are exactly the
edges on one face, so the face list determines them.  The code header
records order, face count and boundary length (the number of boundary
vertices, which on a surface is the number of boundary edges) in one
byte each; at 256 or more of any of them the code is wide: a 0 byte,
then the header and the labels as 2-byte big-endian numbers.  The labels after the header are the canonical
faces, sorted, so ``canonical_faces`` decodes them and relabels nothing.

All functions are pure; the code, the canonical labelling and the
generators are cached on the value.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from itertools import chain

from .complex_core import Triangulation, _traverse, build

CanonicalCode = bytes
Flag = tuple[int, int, int]
Permutation = tuple[int, ...]


def _candidate_flags(tri: Triangulation) -> list[tuple[int, Flag]]:
    """(face index, flag) for the flags with the minimal key, in face order.

    A flag's key lists its vertices' (degree, on-boundary) keys, which are
    computed once per vertex.  The canonical code is the minimum over
    exactly these flags, and automorphisms map them onto one another.
    Each face's vertices are ordered by key, stably, by three
    compare-and-swaps; its ascending flags are that order with each tie
    permuted, listed as the face's six permutations would list them.
    """
    boundary = tri.boundary_vertices
    key = [2 * d + (v in boundary) for v, d in enumerate(tri.degrees)]
    # The least face key starts with the least vertex key, so only faces
    # at a vertex of that key can hold it.
    least = min(key)
    best: tuple[int, int, int] | None = None
    found: list[tuple[int, Flag]] = []
    for i, (a, b, c) in enumerate(tri.faces):
        ka, kb, kc = key[a], key[b], key[c]
        if ka != least and kb != least and kc != least:
            continue
        if ka > kb:
            a, b, ka, kb = b, a, kb, ka
        if kb > kc:
            b, c, kb, kc = c, b, kc, kb
            if ka > kb:
                a, b, ka, kb = b, a, kb, ka
        face_key = (ka, kb, kc)
        if best is None or face_key < best:
            best, found = face_key, []
        if face_key == best:
            if ka != kb:
                found.append((i, (a, b, c)))
                if kb == kc:
                    found.append((i, (a, c, b)))
            elif kb != kc:
                found += ((i, (a, b, c)), (i, (b, a, c)))
            else:
                found += ((i, (a, b, c)), (i, (a, c, b)), (i, (b, a, c)),
                          (i, (b, c, a)), (i, (c, a, b)), (i, (c, b, a)))
    return found


def _inverse(label: Sequence[int]) -> list[int]:
    """The new->old map of an old->new labelling."""
    back = [0] * len(label)
    for old, new in enumerate(label):
        back[new] = old
    return back


def _automorphism(source: list[int], target: list[int]) -> Permutation:
    """The automorphism sigma that maps the flag with labelling ``source``
    onto the flag with labelling ``target``: ``target[sigma[x]] == source[x]``."""
    back = _inverse(target)
    return tuple(map(back.__getitem__, source))


def _close(orbit: set[Flag], generators: list[Permutation],
           fresh: list[Permutation]) -> None:
    """Close ``orbit``, already closed under every generator not in
    ``fresh``: the fresh ones act on every flag in it, and all of them act
    on the flags they add."""
    added: list[Flag] = []
    for flags, acting in ((tuple(orbit), fresh), (added, generators)):
        for a, b, c in flags:
            for perm in acting:
                image = (perm[a], perm[b], perm[c])
                if image not in orbit:
                    orbit.add(image)
                    added.append(image)


def _canonical_form(
    tri: Triangulation,
) -> tuple[bytes, tuple[int, ...], tuple[Permutation, ...]]:
    """The code, the labelling of the first minimal flag, and the
    automorphisms that the swept ties gave, which generate the group."""
    # The relabelled face lists share a fixed-width byte encoding, so the
    # list order is the code order; the first minimal flag wins ties.
    best, orbit, generators = None, set(), []
    for start, flag in _candidate_flags(tri):
        if flag in orbit:
            continue
        queue, label = _traverse(tri, flag, start)
        faces = []
        append = faces.append
        for u, v, w in queue:
            # Each face's new labels, sorted by three compare-and-swaps.
            x, y, z = label[u], label[v], label[w]
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            append((x, y, z))
        faces.sort()
        if faces == best:
            # A tie is a new automorphism: the best flag's orbit under all
            # found so far is skipped without a sweep.
            generators.append(_automorphism(first_label, label))
            _close(orbit, generators, generators[-1:])
        elif best is None or faces < best:
            best, first_label, orbit = faces, label, {flag}
            _close(orbit, generators, generators)
    values = (tri.order, len(tri.faces), len(tri.boundary_vertices), *chain.from_iterable(best))
    if max(values[:3]) < 256:
        code = bytes(values)
    else:
        # Wide code: a 0 byte (no narrow code starts with one), then 2-byte
        # big-endian header fields and labels.
        code = b"\0" + struct.pack(f">{len(values)}H", *values)
    return code, tuple(first_label), tuple(generators)


def canonical_code(tri: Triangulation) -> CanonicalCode:
    """Byte key uniquely identifying the isomorphism class."""
    return tri._canonical[0]


def canonical_labeling(tri: Triangulation) -> tuple[int, ...]:
    """A vertex relabelling realising the canonical code."""
    return tri._canonical[1]


def canonical_faces(tri: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """The face list of the canonical representative, read off the code."""
    code = tri._canonical[0]
    labels = code[3:] if code[0] else struct.unpack(f">{len(code) // 2 - 3}H", code[7:])
    triples = iter(labels)
    return tuple(zip(triples, triples, triples))


def isomorphic(t1: Triangulation, t2: Triangulation) -> bool:
    return canonical_code(t1) == canonical_code(t2)


def isomorphism(t1: Triangulation, t2: Triangulation) -> dict[int, int] | None:
    """A witness vertex bijection if the two are isomorphic, else None."""
    if not isomorphic(t1, t2):
        return None
    label1 = canonical_labeling(t1)
    label2 = canonical_labeling(t2)
    inverse2 = _inverse(label2)
    return {v: inverse2[label1[v]] for v in range(t1.order)}


def automorphisms(tri: Triangulation) -> tuple[Permutation, ...]:
    """Every face-preserving vertex permutation, generated by the
    automorphisms that the canonical form keeps.

    Each permutation ``perm`` maps vertex ``v`` to ``perm[v]``; the tuple
    is sorted, so the identity comes first.  The group is listed breadth
    first from the identity, each element times each generator: at most
    |Aut| * log2 |Aut| products of length ``order``.
    """
    generators = tri._canonical[2]
    identity = tuple(range(tri.order))
    group = {identity}
    queue = [identity]
    for element in queue:
        for perm in generators:
            product = tuple(map(perm.__getitem__, element))
            if product not in group:
                group.add(product)
                queue.append(product)
    return tuple(sorted(group))


def vertex_orbits(tri: Triangulation) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the vertices under the automorphism group, each
    vertex closed under the generators that the canonical form keeps.

    Each vertex not yet placed is the least of a new orbit, so the orbits
    come out sorted, and no group is listed.
    """
    generators = tri._canonical[2]
    placed = bytearray(tri.order)
    orbits = []
    for v in range(tri.order):
        if not placed[v]:
            placed[v] = 1
            orbit = [v]
            for w in orbit:
                for perm in generators:
                    image = perm[w]
                    if not placed[image]:
                        placed[image] = 1
                        orbit.append(image)
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def relabel(tri: Triangulation, perm: dict[int, int] | tuple[int, ...]) -> Triangulation:
    """Apply a vertex permutation and rebuild (test helper and witness checker)."""
    mapping = perm if isinstance(perm, dict) else {i: p for i, p in enumerate(perm)}
    return build([(mapping[a], mapping[b], mapping[c]) for a, b, c in tri.faces])
