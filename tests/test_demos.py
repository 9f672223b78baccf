"""The demos run to completion against the current public API.

Demo 05 repeats the full certificate; its exhaustive searches hit the
per-process search cache once the session fixtures have run them.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_build_and_validate.py",
    "02_splitting_and_shrinking.py",
    "03_canonical_forms.py",
    "04_projective_plane_census.py",
    "05_moebius_classification.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
