"""Command-line interface.

Subcommands::

    trisurf validate FILE            check a face list, print the surface data
    trisurf classify FILE            cable/rod table for every edge
    trisurf canon FILE               canonical code and canonical face list
    trisurf apply FILE DESC ...      replay split/shrink descriptors
    trisurf enumerate ...            build catalogs (splitting | exhaustive | compare)
    trisurf verify-moebius ...       run the full classification certificate

The splitting engine is seeded from the stored bases and never searches;
``--ceiling`` applies to the exhaustive engine (and to the certificate)
only.

Exit status: 0 on success, 1 when a verification fails (invalid complex,
non-empty catalog diff, failed certificate clause), 2 on usage or parse
errors.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .canon import canonical_code, canonical_faces
from .complex_core import SURFACE_BY_NAME, Triangulation, dumps, loads
from .enumeration import (
    DEFAULT_CEILING,
    compare_catalogs,
    enumerate_exhaustive_range,
    enumerate_splitting_range,
    serialize_catalog,
)
from .errors import CeilingExceeded, ParseError, TriangulationError
from .moebius_pipeline import (
    MOEBIUS,
    build_certificate,
    render_certificate,
    render_members_report,
)
from .moves import apply_descriptor, classify_edge

OK, VERIFY_FAILED, USAGE = 0, 1, 2


def _load(path: str) -> Triangulation:
    return loads(Path(path).read_text(encoding="utf-8"))


def _emit(out: Path | None, name: str, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
        print(f"wrote {out / name}")


def cmd_validate(args: argparse.Namespace) -> int:
    tri = _load(args.path)
    kind = tri.surface_kind
    print(f"vertices: {tri.order}")
    print(f"edges: {len(tri.edges)}")
    print(f"faces: {len(tri.faces)}")
    print(kind.invariants)
    print(f"surface: {kind}")
    return OK


def cmd_classify(args: argparse.Namespace) -> int:
    tri = _load(args.path)
    print("edge verdict impediments")
    for edge in tri.edges:
        impediments = classify_edge(tri, edge)
        names = ",".join(sorted(i.value for i in impediments)) or "-"
        print(f"{edge[0]}-{edge[1]} {'rod' if impediments else 'cable'} {names}")
    return OK


def cmd_apply(args: argparse.Namespace) -> int:
    tri = _load(args.path)
    for descriptor in args.descriptor:
        tri = apply_descriptor(tri, descriptor)
    sys.stdout.write(dumps(tri))
    return OK


def cmd_canon(args: argparse.Namespace) -> int:
    tri = _load(args.path)
    print(f"code: {canonical_code(tri).hex()}")
    print("canonical faces:")
    for a, b, c in canonical_faces(tri):
        print(f"{a} {b} {c}")
    return OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.min_order > args.max_order:
        print("error: --min-order exceeds --max-order", file=sys.stderr)
        return USAGE
    kind = SURFACE_BY_NAME[args.surface]
    out = Path(args.out) if args.out else None
    tag = str(kind).replace("-", "_")
    catalogs = {}
    if args.engine in ("exhaustive", "compare"):
        catalogs["exhaustive"] = enumerate_exhaustive_range(
            kind, args.min_order, args.max_order, args.ceiling
        )
    if args.engine in ("splitting", "compare"):
        catalogs["splitting"] = enumerate_splitting_range(
            kind, args.min_order, args.max_order
        )
    for engine, catalog in catalogs.items():
        _emit(out, f"{tag}_{engine}.catalog", serialize_catalog(catalog))
    if args.engine != "compare":
        return OK

    left, right = catalogs["exhaustive"], catalogs["splitting"]
    diff = compare_catalogs(left, right)
    lines = [
        "# trisurf catalog diff",
        f"surface: {kind}",
        f"orders: {args.min_order}..{args.max_order}",
        f"exhaustive entries: {len(left)}",
        f"splitting entries: {len(right)}",
        f"only-exhaustive: {' '.join(e.code.hex() for e in diff.only_in_a) or '-'}",
        f"only-splitting: {' '.join(e.code.hex() for e in diff.only_in_b) or '-'}",
        f"result: {'EMPTY' if diff.is_empty else 'NONEMPTY'}",
    ]
    _emit(out, f"{tag}_diff.txt", "\n".join(lines) + "\n")
    return OK if diff.is_empty else VERIFY_FAILED


def cmd_verify_moebius(args: argparse.Namespace) -> int:
    # The cross-check must reach every irreducible member to pass.
    top = max(MOEBIUS.member_orders)
    if args.max_order < top:
        print(
            f"error: --max-order {args.max_order} is below {top}, the largest "
            f"order of an irreducible {MOEBIUS.bordered} member",
            file=sys.stderr,
        )
        return USAGE
    certificate = build_certificate(
        max_cross_check_order=args.max_order,
        ceiling=args.ceiling,
    )
    out = Path(args.out) if args.out else None
    _emit(out, "moebius_certificate.txt", render_certificate(certificate))
    _emit(out, "moebius_members.txt", render_members_report(certificate))
    if certificate.passed:
        return OK
    for clause in certificate.failures:
        print(f"FAILED clause [{clause.ident}]: {clause.evidence}", file=sys.stderr)
    return VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisurf",
        description="surface-triangulation kernel, catalogs and certification",
    )
    parser.add_argument("--version", action="version", version=f"trisurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a face-list file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="cable/rod classification of every edge")
    p.add_argument("path")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("canon", help="canonical code and face list")
    p.add_argument("path")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser(
        "apply",
        help="apply splitting/shrinking descriptors to a face list",
        description='descriptors: "sp v u w a" (corner split), '
                    '"spt v u" (truncated split), "sh a b" (shrink)',
    )
    p.add_argument("path")
    p.add_argument("descriptor", nargs="+")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("enumerate", help="generate triangulation catalogs")
    p.add_argument("--surface", required=True, choices=sorted(SURFACE_BY_NAME))
    p.add_argument("--min-order", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument(
        "--engine", default="compare",
        choices=["splitting", "exhaustive", "compare"],
    )
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.add_argument("--out", default=None, help="output directory (default: stdout)")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser(
        "verify-moebius",
        help="build the irreducible moebius-band completeness certificate",
    )
    p.add_argument(
        "--max-order", type=int, default=8,
        help="top order for the exhaustive cross-check (default 8)",
    )
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_moebius)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except CeilingExceeded as exc:
        print(f"CeilingExceeded: {exc}", file=sys.stderr)
        return USAGE
    except TriangulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
