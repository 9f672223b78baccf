"""The splitting and shrinking moves, and why some edges refuse to shrink.

Splitting a corner pulls a vertex apart into an edge and inserts two new
faces (one new face for the truncated variant at a boundary vertex).
Shrinking collapses an edge back to a vertex.  An edge is a *cable* when
it can be shrunk, a *rod* otherwise; the three impediments are membership
in a nonfacial 3-cycle, being a chord of the boundary, and being a
boundary edge of a 3-cycle boundary.
"""

from pathlib import Path

import trisurf as ts

data = Path(__file__).resolve().parent / "data"
projective = ts.loads((data / "projective_plane_6.tri").read_text())
band = ts.loads((data / "moebius_band_5.tri").read_text())

# Every unordered pair of edges at a vertex is a corner; the 6-vertex
# projective plane has 6 vertices of degree 5, so 6 * C(5,2) corners.
print(f"corners of the 6-vertex projective plane: {len(ts.corners(projective))}")

# Split one corner: the order grows by one, the surface stays the same.
corner = ts.corners(projective)[0]
child = ts.split_corner(projective, corner)
print(f"split {corner.descriptor()!r}: {projective.order} -> {child.order} "
      f"vertices, surface = {child.surface_kind}")

# The fresh edge joins the two copies of the split vertex and is always
# shrinkable; shrinking it restores the parent exactly.
fresh = (corner.v, projective.order)
print(f"fresh edge {fresh} is a cable: {fresh in ts.cable_subgraph(child)}")
restored = ts.shrink_edge(child, fresh)
print(f"shrinking it restores the parent: {restored.faces == projective.faces}")

# At a boundary vertex the truncated split inserts a single face and
# lengthens the boundary cycle by one.
tcorner = ts.truncated_corners(band)[0]
longer = ts.split_truncated(band, tcorner)
print(f"truncated split {tcorner.descriptor()!r}: boundary "
      f"{len(band.boundary_cycles[0])} -> {len(longer.boundary_cycles[0])}")

# The K5 band is irreducible: every edge is a rod.  Boundary edges sit in
# nonfacial 3-cycles, the pentagram diagonals are chords.
print("\nedge classification of the 5-vertex moebius band:")
for edge in band.edges:
    impediments = ts.classify_edge(band, edge)
    names = ", ".join(sorted(i.value for i in impediments))
    print(f"  {edge[0]}-{edge[1]}: {'rod' if impediments else 'cable'} ({names})")
print(f"irreducible: {ts.is_irreducible(band)}")

# Shrinking a rod is refused with the blocking impediments.
try:
    ts.shrink_edge(projective, (0, 1))
except ts.errors.RodEdge as exc:
    print(f"\nrefused: {exc}")
