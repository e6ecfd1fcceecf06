"""scipy is loaded by the pure-mode search alone.

``acoustics`` imports ``scipy.optimize.minimize`` and
``scipy.spatial.cKDTree`` on first use, yet both names still resolve as
module attributes, and a rebinding of either is what the search calls.
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


def test_commands_without_pure_modes_run_with_scipy_blocked():
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
        "from click.testing import CliRunner\n"
        "from cauchykit.cli import main\n"
        f"results = [CliRunner().invoke(main, args) for args in {commands!r}]\n"
        "print(json.dumps([[r.exit_code, isinstance(r.exception, ImportError), r.output]\n"
        "                  for r in results]))\n")
    results = json.loads(out)
    for args, (code, _, output) in zip(commands[:-1], results):
        assert code == 0, (args, output)
    # the control: the pure-mode search does need scipy
    assert results[-1][1]


def test_scipy_names_resolve_on_the_module():
    import scipy.optimize
    import scipy.spatial

    assert acoustics.minimize is scipy.optimize.minimize
    assert acoustics.cKDTree is scipy.spatial.cKDTree
    with pytest.raises(AttributeError, match="no_such_name"):
        acoustics.no_such_name


def test_search_calls_the_rebound_names(monkeypatch):
    calls = {"minimize": 0, "cKDTree": 0}

    def counting(name):
        original = getattr(acoustics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(acoustics, name, counting(name))
    scan = find_pure_longitudinal(cubic_stiffness(5.224, 2.044, 1.608), 1.0, grid_n=500)
    assert len(scan.hits) == 13
    assert calls["cKDTree"] == 1
    assert calls["minimize"] >= len(scan.hits)
