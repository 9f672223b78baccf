"""trisurf: a combinatorial kernel for surface triangulations.

The package models triangulations of closed and bordered surfaces as
pure face sets, implements the splitting/shrinking moves with the full
edge-shrinkability classification, computes canonical forms and
automorphism groups by flag traversal, and provides two independent
catalog engines (splitting closure and exhaustive backtracking search).
On top of the kernel, :mod:`trisurf.moebius_pipeline` mechanically
derives and certifies the complete list of six irreducible triangulations
of the Moebius band from the projective-plane catalog of order at most 8.
"""

__version__ = "0.1.0"

from .complex_core import (  # noqa: F401
    DISK,
    MOEBIUS_BAND,
    PROJECTIVE_PLANE,
    SPHERE,
    SURFACE_BY_NAME,
    SurfaceKind,
    Triangulation,
    build,
    cone_boundary,
    dumps,
    loads,
    parse_face_lines,
    remove_vertex_star,
)
from .canon import (  # noqa: F401
    CanonicalCode,
    automorphisms,
    canonical_code,
    canonical_faces,
    canonical_labeling,
    isomorphic,
    isomorphism,
    relabel,
    vertex_orbits,
)
from .moves import (  # noqa: F401
    Corner,
    Impediment,
    TruncatedCorner,
    all_splits,
    apply_descriptor,
    cable_subgraph,
    classify_edge,
    corners,
    is_irreducible,
    parse_descriptor,
    shrink_edge,
    split_corner,
    split_truncated,
    truncated_corners,
)
from .enumeration import (  # noqa: F401
    Catalog,
    CatalogDiff,
    CatalogEntry,
    DEFAULT_CEILING,
    compare_catalogs,
    enumerate_exhaustive,
    enumerate_exhaustive_range,
    enumerate_splitting_range,
    generate_by_splitting,
    parse_catalog,
    serialize_catalog,
)
from .moebius_pipeline import (  # noqa: F401
    Clause,
    CompletenessCertificate,
    DerivationRecord,
    PatchConfinementReport,
    SplitScanReport,
    build_certificate,
    check_no_pylonic_creation,
    check_pylonicity_destroyed,
    derive_irreducible_moebius,
    pylonic_vertices,
    render_certificate,
    render_members_report,
    verify_patch_confinement,
)
from . import errors  # noqa: F401
