"""The demos run to completion against the current public API.

Demo 05 repeats the full certificate, which the ``certificate`` fixture
already builds, so it is left out to keep the suite fast.
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
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
