"""Canonical codes, isomorphism testing and automorphism groups.

The canonical code is computed by relabelling the complex breadth-first
from every starting flag and keeping the lexicographically smallest
serialisation.  Equal codes mean isomorphic; the same traversal yields
the automorphism group and the vertex orbits.
"""

import random

import trisurf as ts

projective = ts.enumerate_exhaustive(ts.PROJECTIVE_PLANE, 6).entries[0].triangulation

# The code is invariant under relabelling.
code = ts.canonical_code(projective)
print(f"code of the 6-vertex projective plane: {code.hex()}")
rng = random.Random(1)
perm = list(projective.vertices)
rng.shuffle(perm)
shuffled = ts.relabel(projective, tuple(perm))
print(f"after shuffling the labels with {perm}: codes equal = "
      f"{ts.canonical_code(shuffled) == code}")

# An explicit witness bijection is available on demand.
witness = ts.isomorphism(projective, shuffled)
print(f"witness bijection: {witness}")

# Automorphisms: the quotient is flag-transitive, so its group has one
# element per flag (10 faces, each with 6 vertex orderings: 60) and a
# single vertex orbit.
group = ts.automorphisms(projective)
print(f"|Aut| = {group.size}, vertex orbits = {group.orbits}")

# The 7-vertex irreducible projective-plane member is less symmetric:
# the vertices fall into two orbits, of sizes 4 and 3.
catalog7 = ts.enumerate_exhaustive(ts.PROJECTIVE_PLANE, 7)
member = next(
    e.triangulation for e in catalog7.entries if ts.is_irreducible(e.triangulation)
)
print(f"\n7-vertex irreducible member: degrees {member.degree_sequence}")
print(f"orbits: {ts.vertex_orbits(member)}")

# Orbits matter for classification work: removing two vertices of the
# same orbit gives isomorphic punctured complexes.
orbit = ts.vertex_orbits(member)[0]
removed = [ts.remove_vertex_star(member, v) for v in orbit]
codes = {ts.canonical_code(r) for r in removed}
print(f"star removals across orbit {orbit} give {len(codes)} class(es)")
