"""Every benchmark workload still runs against the current API.

``bench/worker.py`` runs one pass of a workload and checks its outputs
against stored sha256 digests: the certificate texts (``certificate``),
the closure code lists (``closure``) and the ``kernel-large`` code list.
This catches API drift and output changes that would otherwise only show
in a benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certificate", "closure", "kernel-large"])
def test_workload_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", workload, "--seed", "0"],
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result_lines = [
        line for line in proc.stdout.splitlines() if line.startswith("RESULT ")
    ]
    assert len(result_lines) == 1, proc.stdout
    result = json.loads(result_lines[0][len("RESULT "):])
    assert result["failures"] == []
    assert result["known_defects"] == []
