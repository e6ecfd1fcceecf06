"""The benchmark's workloads still run on the library as it is.

``perfbench/`` calls the library through fixed call sites (``scan_rows`` and
its rows, ``find_pure_longitudinal``, the reports) and runs the CLI as
``python -m cauchykit.cli``, comparing each ``--json`` file with the report it
builds in process.  This test only reads ``perfbench/``: it runs one checked
pass of each workload at its minimal size (four CLI processes for
``cli_cold``), so a library or CLI change that breaks a call site, an
invocation or the ``--json`` bytes fails here.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["catalog", "sphere_scan", "pure_search", "cli_cold"])
def test_one_pass_has_no_failure(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    outcome = WORKLOADS[name](5, True, tmp_path, Tracer()).one_pass()
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.failures
