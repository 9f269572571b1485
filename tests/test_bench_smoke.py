"""The benchmark's traced run still works against the library.

The tracer wraps library attributes by name, so renaming one of them
breaks the traced run; this runs it on the benchmark's tiny instances.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    # the wrapped span attributes are still the ones the β scans go through,
    # and the D_k scans still report their nodes; Z3 has order 3, so its
    # scans take the identity path and canonicalise nothing (the
    # tracer's ``davenport._canonical_items`` wrapper is kept honest by
    # tests/test_davenport.py, which patches that name on symmetric groups)
    metrics = result["metrics"]
    for name in ("invariants.power_span_s", "presented.power_span_s",
                 "polynomials.insert_calls", "davenport.nodes", "invariants.basis_s"):
        assert metrics[name]["value"] > 0, name
