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


def _run_worker(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", workload, "--seed", "0", *flags],
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result_lines = [
        line for line in proc.stdout.splitlines() if line.startswith("RESULT ")
    ]
    assert len(result_lines) == 1, proc.stdout
    return json.loads(result_lines[0][len("RESULT "):])


@pytest.mark.parametrize("workload", ["certificate", "closure", "kernel-large"])
def test_workload_passes(workload):
    result = _run_worker(workload)
    assert result["failures"] == []
    assert result["known_defects"] == []
    if workload == "closure":
        # One operation per parent, opened at its ``moves.all_splits`` call:
        # 9 sphere, 4 projective-plane and 93 Moebius-band parents.
        assert len(result["op_ms"]) == 9 + 4 + 93


def test_traced_certificate_sees_every_required_span():
    # The bench still traces the deleted ``_parallel.pmap``; this list
    # shrinks to empty when ROADMAP item 1 removes that span from the bench.
    # Any other entry means a traced layer is no longer reached, e.g. a
    # pipeline that stopped calling ``moves.cable_subgraph``.
    result = _run_worker("certificate", "--trace")
    assert result["untraced"] == [
        "_parallel.pmap (not found)", "_parallel.pmap (never called)",
    ]
