"""Building and validating surface triangulations.

A triangulation is given by nothing but its triangular faces.  The
library derives everything else (edges, vertex links, boundary cycles,
Euler characteristic, orientability) and rejects face sets that do not
describe a surface.
"""

import trisurf as ts

# The smallest triangulation there is: one triangle, a disk.
triangle = ts.build([(0, 1, 2)])
print(f"triangle: {triangle}, surface = {triangle.surface_kind}")
print(f"  boundary cycle: {triangle.boundary_cycles[0]}")

# The boundary complex of the tetrahedron is the smallest closed surface.
tetrahedron = ts.build([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
print(f"tetrahedron: {tetrahedron}, surface = {tetrahedron.surface_kind}")

# Identifying antipodal vertex pairs of the icosahedron yields the
# 6-vertex triangulation of the projective plane: the complete graph K6
# drawn with 10 of its 20 triangles as faces.
icosahedron = ts.build([
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 6), (2, 3, 7), (3, 4, 8), (4, 5, 9), (5, 1, 10),
    (2, 6, 7), (3, 7, 8), (4, 8, 9), (5, 9, 10), (1, 10, 6),
    (6, 7, 11), (7, 8, 11), (8, 9, 11), (9, 10, 11), (10, 6, 11),
])
antipodal = {0: 11, 1: 8, 2: 9, 3: 10, 4: 6, 5: 7}
antipodal.update({w: v for v, w in antipodal.items()})
rep = {v: min(v, antipodal[v]) for v in range(12)}
projective = ts.build({
    tuple(sorted((rep[a], rep[b], rep[c]))) for a, b, c in icosahedron.faces
})
print(f"icosahedron quotient: {projective}, surface = {projective.surface_kind}")
print(f"  edges: {len(projective.edges)} (complete graph on 6 vertices)")

# Removing a vertex star punches a hole; for the projective plane the
# result is a Moebius band on the complete graph K5.
band = ts.remove_vertex_star(projective, 0)
print(f"quotient minus a vertex star: {band}, surface = {band.surface_kind}")
print(f"  boundary cycle: {band.boundary_cycles[0]}")

# Coning the boundary undoes the puncture.
restored = ts.cone_boundary(band)
print(f"coned band is the quotient again: {ts.isomorphic(restored, projective)}")

# Vertex links are how validation works: every link must be one cycle
# (interior vertex) or one path (boundary vertex), stored as the
# neighbours in star order.
print(f"link of vertex 0 in the band: {band.links[0]}, "
      f"boundary = {0 in band.boundary_vertices}")

# Invalid inputs are rejected with a named reason.
for faces, label in [
    ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], "an edge in three faces"),
    ([(0, 1, 2), (0, 3, 4)], "a pinched vertex"),
    ([(0, 1, 2), (3, 4, 5)], "a disconnected complex"),
]:
    try:
        ts.build(faces)
    except ts.errors.TriangulationError as exc:
        print(f"rejected {label}: {type(exc).__name__}: {exc}")
