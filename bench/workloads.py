"""The three benchmark workloads: set-up, one timed pass, and checks.

Each workload runs in a fresh process at ``jobs=1``.  The constructor
loads stored data and generates inputs from the seed; ``run`` is the
timed region, bounded by its first and last clock marks, and records each
operation as a range of clock marks; ``check`` compares every output
with stored ground truth and names each failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import inputs
from spans import Clock

DATA = Path(__file__).resolve().parent / "data"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def codes_digest(codes) -> str:
    return _sha256("\n".join(code.hex() for code in codes))


class Outcome:
    """Operations and checks attempted, and a name for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, name: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def raised(self, name: str, exc: BaseException) -> None:
        self.expect(False, f"{name} raised {type(exc).__name__}: {exc}")


class Workload:
    name = ""
    op_call: str | None = None  # the kernel call that opens an operation
    probes = 0  # untimed defect probes per pass

    def __init__(self, trisurf, seed: int) -> None:
        self.ts = trisurf
        self.seed = seed
        self.golden = json.loads((DATA / "golden.json").read_text())[self.name]
        self.outcome = Outcome()
        self.ops: list[tuple[int, int]] = []  # (first mark, last mark) per operation

    def run(self, clock: Clock) -> None:
        """The timed pass: the first and last marks bound it."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def probe(self) -> list[str]:
        """Known defects found by untimed probes (empty when fixed)."""
        return []


class Certificate(Workload):
    """``trisurf verify-moebius --max-order 7``: the certificate and both
    reports.

    The certificate takes no input, so the seed changes nothing here.
    """

    name = "certificate"
    MAX_ORDER = 7

    def run(self, clock: Clock) -> None:
        ts = self.ts
        self.texts = None
        start = clock.mark()
        try:
            certificate = ts.build_certificate(max_cross_check_order=self.MAX_ORDER, jobs=1)
            self.texts = (
                certificate,
                ts.render_certificate(certificate),
                ts.render_members_report(certificate),
            )
            self.outcome.attempted += 1
        except Exception as exc:
            self.outcome.raised("verify-moebius", exc)
        self.ops.append((start, clock.mark()))

    def check(self) -> None:
        out, golden = self.outcome, self.golden
        if self.texts is None:
            return
        certificate, text, members = self.texts
        out.expect(len(certificate.clauses) == golden["clauses"],
                   f"certificate has {len(certificate.clauses)} clauses")
        for clause in certificate.clauses:
            out.expect(clause.passed, f"clause [{clause.ident}] FAIL: {clause.evidence}")
        out.expect(_sha256(text) == golden["certificate_sha256"],
                   "certificate text differs from the stored sha256")
        out.expect(_sha256(members) == golden["members_sha256"],
                   "members report differs from the stored sha256")


class Closure(Workload):
    """The splitting engine alone, seeded from stored bases, plus the
    catalog write/read path.

    The seed relabels every base at random, so the closure keeps other
    labelled representatives; counts and codes must not change.
    """

    name = "closure"
    op_call = "moves.all_splits"
    TOP_ORDER = {"sphere": 8, "projective-plane": 8, "moebius-band": 8}

    def __init__(self, trisurf, seed: int) -> None:
        super().__init__(trisurf, seed)
        ts = trisurf
        rng = random.Random(f"closure/{seed}")
        stored = json.loads((DATA / "bases.json").read_text())
        self.bases = {}
        for surface in self.TOP_ORDER:
            seeds, names = [], []
            for base in stored[surface]:
                tri = ts.build(inputs.relabelled(base["faces"], rng))
                if str(tri.surface_kind) != surface:
                    raise ValueError(f"base {base['name']} is a {tri.surface_kind}")
                # is_irreducible misreports the tetrahedron; it belongs to
                # the sphere basis by minimal order.
                minimal = surface == "sphere" and tri.order == 4
                if not (minimal or ts.is_irreducible(tri)):
                    raise ValueError(f"base {base['name']} is not irreducible")
                seeds.append(tri)
                names.append(base["name"])
            self.bases[surface] = (seeds, names)

    def run(self, clock: Clock) -> None:
        ts = self.ts
        self.results = {}
        clock.mark()
        for surface, top in self.TOP_ORDER.items():
            seeds, names = self.bases[surface]
            first = len(clock.op_starts)
            began = clock.mark()
            try:
                catalog = ts.generate_by_splitting(seeds, top, names)
                closed = clock.mark()
                text = ts.serialize_catalog(catalog)
                back = ts.parse_catalog(text)
            except Exception as exc:
                self.outcome.raised(f"closure {surface}", exc)
                continue
            # One parent expansion runs from its all_splits call to the next
            # one (or to the end of the closure).
            starts = clock.op_starts[first:] or [began]
            self.ops.extend(zip(starts, [*starts[1:], closed]))
            self.outcome.attempted += len(starts)
            self.results[surface] = (catalog, text, back)
        clock.mark()

    def check(self) -> None:
        out, ts = self.outcome, self.ts
        for surface, (catalog, text, back) in self.results.items():
            golden = self.golden[surface]
            counts = {
                str(order): len(catalog.of_order(order))
                for order in range(catalog.min_order, catalog.max_order + 1)
            }
            out.expect(counts == golden["counts"],
                       f"closure {surface}: counts {counts} != {golden['counts']}")
            out.expect(codes_digest(catalog.codes()) == golden["codes_sha256"],
                       f"closure {surface}: code list differs from the stored sha256")
            out.expect(ts.serialize_catalog(back) == text,
                       f"closure {surface}: catalog bytes change in a parse round trip")


# Expected (Euler characteristic, orientable, boundary cycles) by family.
KINDS = {
    "sphere": (2, True, 0),
    "sphere-bordered": (1, True, 1),
    "projective": (1, False, 0),
    "projective-bordered": (0, False, 1),
    "torus": (0, True, 0),
}


def _family(name: str) -> str:
    parts = name.split("-")
    return parts[0] + ("-bordered" if parts[-1] == "bordered" else "")


class KernelLarge(Workload):
    """Per-file queries on large complexes, as ``trisurf validate``,
    ``classify`` and ``canon`` run them, plus isomorphism and orbits."""

    name = "kernel-large"
    probes = 1
    QUERIES = ("build", "cable_subgraph", "canonical_code", "isomorphism", "vertex_orbits")

    def __init__(self, trisurf, seed: int) -> None:
        super().__init__(trisurf, seed)
        # Each input set has a stored code-list digest, so the check below
        # runs for every seed.
        self.input_set = seed % len(self.golden["codes_sha256"])
        self.inputs = inputs.kernel_large_inputs(self.input_set)
        rng = random.Random(f"kernel-large-copy/{seed}")
        self.copies = [trisurf.build(inputs.relabelled(faces, rng)) for _, faces in self.inputs]

    def run(self, clock: Clock) -> None:
        ts, out = self.ts, self.outcome
        self.results = []
        clock.mark()
        for (name, faces), copy in zip(self.inputs, self.copies):
            tri = None
            answers = []
            for query in self.QUERIES:
                go = clock.mark()
                try:
                    if query == "build":
                        tri = answer = ts.build(faces)
                    elif query == "cable_subgraph":
                        answer = ts.cable_subgraph(tri)
                    elif query == "canonical_code":
                        answer = (ts.canonical_code(tri), ts.canonical_faces(tri))
                    elif query == "isomorphism":
                        answer = ts.isomorphism(tri, copy)
                    else:
                        answer = ts.vertex_orbits(tri)
                except Exception as exc:
                    out.raised(f"{name}: {query}", exc)
                    break
                self.ops.append((go, clock.mark()))
                out.attempted += 1
                answers.append(answer)
            else:
                self.results.append((name, copy, answers))
        clock.mark()

    def check(self) -> None:
        out, ts = self.outcome, self.ts
        codes = []
        for name, copy, (tri, cables, (code, faces), witness, orbits) in self.results:
            kind = tri.surface_kind
            out.expect(
                (kind.euler_characteristic, kind.orientable, kind.boundary_components)
                == KINDS[_family(name)], f"{name}: built as {kind}")
            out.expect(set(cables) <= set(tri.edges)
                       and (not name.startswith("torus") or len(cables) == len(tri.edges)),
                       f"{name}: cable subgraph")
            out.expect(code == ts.canonical_code(copy) and faces == ts.canonical_faces(copy),
                       f"{name}: relabelled copy has another code")
            mapped = witness is not None and {
                tuple(sorted(witness[v] for v in face)) for face in tri.faces
            } == set(copy.faces)
            out.expect(mapped, f"{name}: isomorphism witness does not map faces to faces")
            partition = sorted(v for orbit in orbits for v in orbit) == list(range(tri.order))
            out.expect(partition and (not name.startswith("torus") or len(orbits) == 1),
                       f"{name}: vertex orbits")
            codes.append(code)
        # Torus grids are the same classes under every seed.
        tori = [code for (name, *_), code in zip(self.results, codes) if name.startswith("torus")]
        out.expect(codes_digest(tori) == self.golden["torus_codes_sha256"],
                   "torus code list differs from the stored sha256")
        out.expect(codes_digest(codes) == self.golden["codes_sha256"][str(self.input_set)],
                   f"code list of input set {self.input_set} differs from the stored sha256")

    def probe(self) -> list[str]:
        """ROADMAP 5(a): canonical_code on >= 256 faces raises a bare ValueError."""
        k = inputs.PROBE_TORUS_SIDE
        tri = self.ts.build(inputs.torus_grid(k))
        try:
            self.ts.canonical_code(tri)
        except self.ts.errors.TriangulationError:
            return []
        except ValueError as exc:
            return [
                f"ROADMAP 5(a): canonical_code raised a bare ValueError ({exc}) "
                f"on the {k}x{k} torus grid ({tri.order} vertices, {len(tri.faces)} faces)"
            ]
        return []


WORKLOADS = {w.name: w for w in (Certificate, Closure, KernelLarge)}
