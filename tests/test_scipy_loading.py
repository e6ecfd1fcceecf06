"""No library result uses scipy.

``acoustics.minimize`` and ``acoustics.cKDTree`` still resolve, importing
scipy on that read, because the benchmark's tracer wraps both names; nothing
in the library calls them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cauchykit
from cauchykit import acoustics
from cauchykit.acoustics import find_pure_longitudinal
from cauchykit.tensor_core import cubic_stiffness

SRC = str(Path(cauchykit.__file__).resolve().parent.parent)
W_JSON = str(Path(cauchykit.__file__).resolve().parent / "data" / "w.json")
TESTS = str(Path(__file__).resolve().parent)


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = run_python(
        "import sys, cauchykit, cauchykit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.strip() == "[]"


def test_import_builds_no_chart_tables():
    # every process that imports the CLI pays for a module-level array; the
    # resultant's tables are built on the first pure-mode search instead
    out = run_python(
        "import cauchykit.cli\n"
        "from cauchykit import tensor_eigen\n"
        "print(tensor_eigen._tables.cache_info().currsize)\n")
    assert out.strip() == "0"


def test_every_command_runs_with_scipy_blocked():
    commands = [
        ["decompose", W_JSON],
        ["classify", W_JSON],
        ["energy", W_JSON, "--strain", "0.001,0,0,0,0,0.0005"],
        ["acoustics", W_JSON, "--n", "1,1,0", "--density", "19.25", "--scan", "200"],
        ["acoustics", W_JSON, "--density", "19.25", "--pure-modes"],
    ]
    out = run_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        f"sys.path.insert(0, {TESTS!r})\n"
        "from conftest import run_cli\n"
        f"results = [run_cli(args) for args in {commands!r}]\n"
        "print(json.dumps([[r.exit_code, r.output] for r in results]))\n")
    results = json.loads(out)
    for args, (code, output) in zip(commands, results):
        assert code == 0, (args, output)
    assert "pure longitudinal directions: 13" in results[-1][1]


def test_scipy_names_resolve_on_the_module():
    import scipy.optimize
    import scipy.spatial

    assert acoustics.minimize is scipy.optimize.minimize
    assert acoustics.cKDTree is scipy.spatial.cKDTree
    with pytest.raises(AttributeError, match="no_such_name"):
        acoustics.no_such_name


def test_search_calls_neither_scipy_name(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pure-mode search called scipy")

    for name in ("minimize", "cKDTree"):
        monkeypatch.setattr(acoustics, name, forbidden)
    scan = find_pure_longitudinal(cubic_stiffness(5.224, 2.044, 1.608), 1.0, grid_n=500)
    assert len(scan.hits) == 13
    assert scan.certified is True
