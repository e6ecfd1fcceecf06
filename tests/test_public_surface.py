"""The public surface: what the package exports, and what it no longer does.

Test-only oracles and fixtures live in ``conftest.py``; the library exports
only what the paper's results and the CLI use.
"""

import importlib
import inspect

import pytest

import cauchykit
from cauchykit import decomp, report, tensor_core

MODULES = ["cauchykit", "cauchykit.tensor_core", "cauchykit.decomp",
           "cauchykit.constitutive", "cauchykit.acoustics", "cauchykit.materials",
           "cauchykit.report", "cauchykit.tensor_eigen"]

# moved to conftest.py (oracles and fixtures) or deleted (delta_from_a)
GONE = ["delta_from_a", "mn_split", "general_relation_residual", "q_components_voigt",
        "validate_symmetries", "symmetrize_orbit", "rotation_from_quaternion",
        "random_rotation", "rotate2", "rotate4"]


@pytest.mark.parametrize("name", GONE)
def test_removed_names_are_not_exported(name):
    for module in (cauchykit, decomp, tensor_core):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("function", [report.energy_report, report.acoustics_report])
def test_reports_take_no_unread_tolerance(function):
    assert "tol" not in inspect.signature(function).parameters
