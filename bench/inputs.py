"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: it produces plain face
lists, and the program under test only ever sees those lists.  The same
seed always yields the same lists.
"""

from __future__ import annotations

import random

Face = tuple[int, int, int]

TETRAHEDRON: list[Face] = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
# The 6-vertex projective plane (hemi-icosahedron).
PROJECTIVE_6: list[Face] = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]

# Vertex counts of the random closed complexes (sphere 2n-4 faces,
# projective plane 2n-2).
CLOSED_ORDERS = (16, 20, 24, 28, 32, 36, 40, 44, 50)
# k x k torus grids have 2k^2 faces; every flag ties, so canon pays its
# O(F^2) worst case.
TORUS_SIDES = (4, 5, 6, 7)
# The defect probe: 12 x 12 = 144 vertices and 288 faces.
PROBE_TORUS_SIDE = 12


def _sorted_face(a: int, b: int, c: int) -> Face:
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


class _Surface:
    """Mutable face set supporting stellar subdivision and edge flips."""

    def __init__(self, faces: list[Face]) -> None:
        self.faces: set[Face] = set()
        self.apexes: dict[tuple[int, int], set[int]] = {}
        self.edge_list: list[tuple[int, int]] = []
        self.edge_pos: dict[tuple[int, int], int] = {}
        self.degree: dict[int, int] = {}
        for face in faces:
            self._add(_sorted_face(*face))

    @property
    def order(self) -> int:
        return len(self.degree)

    def _add_edge_apex(self, u: int, v: int, apex: int) -> None:
        edge = (u, v) if u < v else (v, u)
        if edge not in self.apexes:
            self.apexes[edge] = set()
            self.edge_pos[edge] = len(self.edge_list)
            self.edge_list.append(edge)
            self.degree[u] = self.degree.get(u, 0) + 1
            self.degree[v] = self.degree.get(v, 0) + 1
        self.apexes[edge].add(apex)

    def _drop_edge_apex(self, u: int, v: int, apex: int) -> None:
        edge = (u, v) if u < v else (v, u)
        self.apexes[edge].discard(apex)
        if not self.apexes[edge]:
            del self.apexes[edge]
            pos = self.edge_pos.pop(edge)
            last = self.edge_list.pop()
            if last != edge:
                self.edge_list[pos] = last
                self.edge_pos[last] = pos
            self.degree[u] -= 1
            self.degree[v] -= 1

    def _add(self, face: Face) -> None:
        a, b, c = face
        self.faces.add(face)
        self._add_edge_apex(a, b, c)
        self._add_edge_apex(a, c, b)
        self._add_edge_apex(b, c, a)

    def _remove(self, face: Face) -> None:
        a, b, c = face
        self.faces.remove(face)
        self._drop_edge_apex(a, b, c)
        self._drop_edge_apex(a, c, b)
        self._drop_edge_apex(b, c, a)

    def subdivide(self, rng: random.Random) -> None:
        """Stellar subdivision of a random face (one new vertex)."""
        a, b, c = rng.choice(sorted(self.faces))
        x = self.order
        self._remove((a, b, c))
        for face in ((a, b, x), (a, c, x), (b, c, x)):
            self._add(_sorted_face(*face))

    def flip(self, rng: random.Random) -> None:
        """Flip a random interior edge when the result stays simplicial."""
        u, v = self.edge_list[rng.randrange(len(self.edge_list))]
        apexes = self.apexes[(u, v)]
        if len(apexes) != 2 or self.degree[u] <= 3 or self.degree[v] <= 3:
            return
        c, d = sorted(apexes)
        if (c, d) in self.apexes:
            return
        self._remove(_sorted_face(u, v, c))
        self._remove(_sorted_face(u, v, d))
        self._add(_sorted_face(c, d, u))
        self._add(_sorted_face(c, d, v))


def random_closed(base: list[Face], order: int, rng: random.Random) -> list[Face]:
    """Subdivide ``base`` up to ``order`` vertices, then mix by edge flips."""
    surface = _Surface(base)
    while surface.order < order:
        surface.subdivide(rng)
    for _ in range(4 * len(surface.edge_list)):
        surface.flip(rng)
    return sorted(surface.faces)


def drop_vertex_star(faces: list[Face], rng: random.Random) -> list[Face]:
    """Remove the star of a random vertex and close the label gap."""
    order = 1 + max(v for face in faces for v in face)
    gone = rng.randrange(order)
    return [
        _sorted_face(*(x - (x > gone) for x in face))
        for face in faces
        if gone not in face
    ]


def torus_grid(k: int) -> list[Face]:
    """The vertex-transitive k x k grid triangulation of the torus."""

    def vid(i: int, j: int) -> int:
        return (i % k) * k + (j % k)

    faces = []
    for i in range(k):
        for j in range(k):
            faces.append(_sorted_face(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append(_sorted_face(vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return sorted(faces)


def relabelled(faces: list[Face], rng: random.Random) -> list[Face]:
    """The same complex under a random permutation of its labels."""
    order = 1 + max(v for face in faces for v in face)
    perm = list(range(order))
    rng.shuffle(perm)
    return sorted(_sorted_face(perm[a], perm[b], perm[c]) for a, b, c in faces)


def kernel_large_inputs(seed: int) -> list[tuple[str, list[Face]]]:
    """The named face lists of the ``kernel-large`` workload for ``seed``.

    Random spheres and projective planes at fixed orders, a bordered
    variant of each (one vertex star dropped: disks and Moebius bands),
    and the torus grids with randomly permuted labels.  Orders are fixed,
    so the seed changes the structure of the complexes, not their size.
    """
    rng = random.Random(f"kernel-large/{seed}")
    inputs = []
    for family, base in (("sphere", TETRAHEDRON), ("projective", PROJECTIVE_6)):
        for order in CLOSED_ORDERS:
            closed = random_closed(base, order, rng)
            inputs.append((f"{family}-{order}", closed))
            inputs.append((f"{family}-{order}-bordered", drop_vertex_star(closed, rng)))
    for k in TORUS_SIDES:
        inputs.append((f"torus-{k}x{k}", relabelled(torus_grid(k), rng)))
    return inputs
