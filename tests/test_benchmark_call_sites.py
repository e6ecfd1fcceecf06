"""The benchmark's in-process workloads still run on the library as it is.

``perfbench/`` calls the library through fixed call sites (``scan_rows`` and
its rows, ``find_pure_longitudinal``, the reports).  This test only reads
``perfbench/``: it runs one checked pass of each in-process workload at its
minimal size, so a library change that breaks a call site fails here.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["catalog", "sphere_scan", "pure_search"])
def test_one_pass_has_no_failure(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    outcome = WORKLOADS[name](5, True, tmp_path, Tracer()).one_pass()
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.failures
