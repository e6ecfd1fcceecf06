"""The public surface: what the package exports, and what it no longer does.

Test-only oracles and fixtures live in ``conftest.py``; the library exports
only what the paper's results and the CLI use.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import cauchykit
from cauchykit import acoustics, constitutive, decomp, report, tensor_core

MODULES = ["cauchykit", "cauchykit.tensor_core", "cauchykit.decomp",
           "cauchykit.constitutive", "cauchykit.acoustics", "cauchykit.materials",
           "cauchykit.report", "cauchykit.tensor_eigen"]

# moved to conftest.py (oracles and fixtures), deleted (delta_from_a) or
# merged into TraceSplit (StrainSplit, StressSplit)
GONE = ["delta_from_a", "mn_split", "general_relation_residual", "q_components_voigt",
        "validate_symmetries", "symmetrize_orbit", "rotation_from_quaternion",
        "random_rotation", "rotate2", "rotate4", "StrainSplit", "StressSplit"]

# the types that cache derived values (identity equality) or validate on
# construction; every other result type is a NamedTuple, which, unlike a
# dataclass, generates no code when its module is imported
DATACLASSES = ["Density", "IrreducibleParts", "MaterialRecord", "SAParts"]
RESULT_TYPES = sorted({
    obj for module in map(importlib.import_module, MODULES) for name in module.__all__
    if inspect.isclass(obj := getattr(module, name))
    and not issubclass(obj, Exception) and name not in DATACLASSES},
    key=lambda cls: cls.__name__)


@pytest.mark.parametrize("name", GONE)
def test_removed_names_are_not_exported(name):
    for module in (cauchykit, constitutive, decomp, tensor_core):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_only_the_cached_and_validated_types_are_dataclasses():
    defined = [obj for module_name in MODULES
               for obj in vars(importlib.import_module(module_name)).values()
               if inspect.isclass(obj) and obj.__module__ == module_name]
    assert sorted(cls.__name__ for cls in defined
                  if dataclasses.is_dataclass(cls)) == DATACLASSES


@pytest.mark.parametrize("cls", RESULT_TYPES, ids=lambda cls: cls.__name__)
def test_every_other_result_type_is_a_named_tuple(cls):
    assert issubclass(cls, tuple) and hasattr(cls, "_fields")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("function", [report.energy_report, report.acoustics_report])
def test_reports_take_no_unread_tolerance(function):
    assert "tol" not in inspect.signature(function).parameters


# tolerances with one value in use are module constants, not parameters
@pytest.mark.parametrize("function", [
    tensor_core.voigt_to_full, tensor_core.unit_vector, tensor_core.degenerate_mask,
    tensor_core.degenerate_pairs, acoustics.find_pure_longitudinal])
def test_no_single_valued_tolerance_parameter(function):
    assert "tol" not in inspect.signature(function).parameters


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; an import line marked
    ``# noqa: F401`` is a deliberate re-export."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(
    p for p in Path(cauchykit.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_guard_flags_a_leftover():
    source = "from .tensor_core import (\n    EIGEN_PAIRS,\n    eig_sym3,\n)\neig_sym3(1)\n"
    assert _unused_imports(source) == ["EIGEN_PAIRS (line 2)"]
    assert _unused_imports(source.replace("EIGEN_PAIRS,", "EIGEN_PAIRS,  # noqa: F401")) == []


def test_runtime_dependencies_are_numpy_and_click():
    # scipy serves only the benchmark's tracer and two tests: the test extra
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(cauchykit.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    runtime = sorted(re.match(r"[\w.-]+", spec)[0] for spec in project["dependencies"])
    assert runtime == ["click", "numpy"]
    assert any(spec.startswith("scipy") for spec in project["optional-dependencies"]["test"])
