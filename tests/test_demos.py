"""The demos run to completion against the current public API.

Demo 05 runs the full certificate, its order-8 Moebius-band search
included (about 1 s).
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# A line a demo must print, where it states a fact: the 6-vertex
# projective plane is flag-transitive, one automorphism per flag (10 faces
# times 6) and a single vertex orbit.
STATED = {
    "03_canonical_forms.py": "|Aut| = 60, vertex orbits = ((0, 1, 2, 3, 4, 5),)",
}


@pytest.mark.parametrize("name", [
    "01_build_and_validate.py",
    "02_splitting_and_shrinking.py",
    "03_canonical_forms.py",
    "04_projective_plane_census.py",
    "05_moebius_classification.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name in STATED:
        assert STATED[name] in out.splitlines()
