"""Material records: JSON ingestion, unit handling, bundled datasets.

Material file schema (version "1")::

    {
      "schema_version": "1",
      "name": "W",
      "crystal_system": "cubic",                  # optional
      "density": {"value": 19.25, "unit": "g/cm^3"},   # optional
      "stiffness": {
        "unit": "GPa",
        "voigt": [[...], ...]    # full 6x6, or a flat list of the 21
                                 # upper-triangle values in row order
      }
    }

Stiffness Voigt entries are tensor components (no engineering factors).  The
library itself is unit-agnostic; the CLI convention is stiffness in GPa and
density in g/cm^3, which makes velocities come out in km/s.

The bundled datasets are ten cubic crystals with published elastic constants
in Mbar (1 Mbar = 100 GPa).  No densities are bundled; acoustic work on these
materials needs an explicit density.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .decomp import IrreducibleParts, check_tolerance, decompose
from .tensor_core import SYMMETRY_TOL, voigt_to_full

__all__ = [
    "MaterialError",
    "Density",
    "MaterialRecord",
    "CRYSTAL_SYSTEMS",
    "STIFFNESS_UNITS_GPA",
    "DENSITY_UNITS_G_CM3",
    "material_from_dict",
    "load_material",
    "bundled_material",
    "list_bundled",
]

CRYSTAL_SYSTEMS = (
    "isotropic",
    "cubic",
    "hexagonal",
    "trigonal",
    "tetragonal",
    "orthorhombic",
    "monoclinic",
    "triclinic",
)

# conversion factors into the CLI working units
STIFFNESS_UNITS_GPA = {
    "GPa": 1.0,
    "Mbar": 100.0,
    "kbar": 0.1,
    "MPa": 1e-3,
    "Pa": 1e-9,
}
DENSITY_UNITS_G_CM3 = {
    "g/cm^3": 1.0,
    "kg/m^3": 1e-3,
}


class MaterialError(ValueError):
    """A material file parsed as JSON but failed validation."""


@dataclass(frozen=True)
class Density:
    """A density ``value`` in ``unit``.  A value that is not a finite positive
    real number, or a unit not in ``DENSITY_UNITS_G_CM3``, raises
    :class:`MaterialError` at construction, the value first; ``value`` is
    stored as a float."""

    value: float
    unit: str

    def __post_init__(self):
        value = self.value
        try:  # an integer beyond the float range does not convert
            finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and math.isfinite(value))
        except OverflowError:
            finite = False
        _require(finite and value > 0, "density value must be a finite positive number")
        _require(
            isinstance(self.unit, str) and self.unit in DENSITY_UNITS_G_CM3,
            f"unknown density unit {self.unit!r}; known: {sorted(DENSITY_UNITS_G_CM3)}",
        )
        object.__setattr__(self, "value", float(value))

    def in_g_cm3(self) -> float:
        return self.value * DENSITY_UNITS_G_CM3[self.unit]


@dataclass(frozen=True, eq=False)
class MaterialRecord:
    """Validated material: symmetric Voigt stiffness plus metadata.

    ``warnings`` collects non-fatal findings such as crystal-system
    inconsistencies.  An unknown ``stiffness_unit`` raises
    :class:`MaterialError` at construction.

    ``parts`` is the record's decomposition, made on first read and cached,
    so every report on one record shares one decomposition.  Its arrays are
    read-only; :meth:`stiffness` and :meth:`stiffness_gpa` still return a
    fresh writable tensor and do not decompose.  Equality and hashing are by
    identity: a record carries that cache, and its Voigt matrix is an array.
    """

    name: str
    voigt: np.ndarray
    stiffness_unit: str
    density: Density | None = None
    crystal_system: str | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        _check_stiffness_unit(self.stiffness_unit)
        v = np.array(self.voigt, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "voigt", v)

    @cached_property
    def parts(self) -> IrreducibleParts:
        """Two-level decomposition of the stiffness in the native unit."""
        return decompose(self.stiffness())

    def stiffness(self) -> np.ndarray:
        """Full rank-4 tensor in the record's native unit."""
        return voigt_to_full(self.voigt)

    def stiffness_gpa(self) -> np.ndarray:
        """Full rank-4 tensor converted to GPa."""
        return voigt_to_full(self.voigt) * STIFFNESS_UNITS_GPA[self.stiffness_unit]


def _require(condition: bool, message: str):
    if not condition:
        raise MaterialError(message)


def _check_stiffness_unit(unit) -> None:
    _require(
        isinstance(unit, str) and unit in STIFFNESS_UNITS_GPA,
        f"unknown stiffness unit {unit!r}; known: {sorted(STIFFNESS_UNITS_GPA)}",
    )


def _check_unknown_fields(obj: dict, allowed: set[str], where: str,
                          strict: bool, warnings: list[str]):
    unknown = sorted(set(obj) - allowed)
    if not unknown:
        return
    message = f"unknown field(s) in {where}: {', '.join(unknown)}"
    if strict:
        raise MaterialError(message)
    warnings.append(message)


# the 21 upper-triangle cells of a flat Voigt payload, in row order
_TRIU6 = np.triu_indices(6)


def _voigt_from_payload(payload, where: str) -> np.ndarray:
    flat = isinstance(payload, list) and len(payload) == 21 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in payload
    )
    try:
        m = np.array(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MaterialError(f"{where}: voigt entries must be numbers") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise MaterialError(f"{where}: voigt entries must be finite") from exc
    if flat:
        upper = m
        m = np.zeros((6, 6))
        m[_TRIU6] = upper
        m.T[_TRIU6] = upper
    _require(
        m.shape == (6, 6),
        f"{where}: expected a 6x6 matrix or 21 upper-triangle values, "
        f"got shape {m.shape}",
    )
    _require(bool(np.isfinite(m).all()), f"{where}: voigt entries must be finite")
    _require(bool(m.any()), f"{where}: voigt matrix must not be all zero")
    asym = np.abs(m - m.T)
    if asym.max() > 0:
        scale = float(np.abs(m).max())
        if asym.max() > SYMMETRY_TOL * scale:
            i, j = np.unravel_index(int(asym.argmax()), (6, 6))
            raise MaterialError(
                f"{where}: voigt matrix is asymmetric at ({i + 1}, {j + 1}): "
                f"{float(m[i, j])!r} vs {float(m[j, i])!r}"
            )
        m = 0.5 * (m + m.T)
    return m


# per-system structure: equality groups of Voigt cells (one-based, upper
# triangle), cells that must vanish, and linear relations (target, a, b) with
# C[target] = (C[a] - C[b]) / 2
_UPPER = [(i, j) for i in range(1, 7) for j in range(i, 7)]
_CUBIC_EQ = [[(1, 1), (2, 2), (3, 3)], [(1, 2), (1, 3), (2, 3)],
             [(4, 4), (5, 5), (6, 6)]]
_HEX_EQ = [[(1, 1), (2, 2)], [(1, 3), (2, 3)], [(4, 4), (5, 5)]]
_ORTHO_ZERO = [(i, j) for (i, j) in _UPPER if (i <= 3) != (j <= 3) or (i > 3 and i != j)]
_TETRA_ZERO = [cell for cell in _ORTHO_ZERO if cell not in {(1, 6), (2, 6)}]
_TRIG_ZERO = [cell for cell in _ORTHO_ZERO if cell not in {(1, 4), (2, 4), (5, 6)}]
_MONO_ZERO = [(1, 4), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)]

_SYSTEM_STRUCTURE: dict[str, tuple[list, list, list]] = {
    "isotropic": (_CUBIC_EQ, _ORTHO_ZERO, [((4, 4), (1, 1), (1, 2))]),
    "cubic": (_CUBIC_EQ, _ORTHO_ZERO, []),
    "hexagonal": (_HEX_EQ, _ORTHO_ZERO, [((6, 6), (1, 1), (1, 2))]),
    "trigonal": (_HEX_EQ + [[(1, 4), (5, 6)]], _TRIG_ZERO,
                 [((6, 6), (1, 1), (1, 2))]),
    "tetragonal": (_HEX_EQ, _TETRA_ZERO, []),
    "orthorhombic": ([], _ORTHO_ZERO, []),
    "monoclinic": ([], _MONO_ZERO, []),
    "triclinic": ([], [], []),
}


def check_crystal_system(voigt: np.ndarray, system: str, tol: float = 1e-6) -> list[str]:
    """Return human-readable inconsistencies between a Voigt matrix and the
    structural zeros/equalities of the declared crystal system."""
    equalities, zeros, relations = _SYSTEM_STRUCTURE[system]
    scale = float(np.abs(voigt).max())
    v = voigt.tolist()
    issues = []
    for group in equalities:
        values = [v[i - 1][j - 1] for i, j in group]
        if max(values) - min(values) > tol * scale:
            cells = ", ".join(f"C{i}{j}" for i, j in group)
            issues.append(f"{system} system expects {cells} equal; got {values}")
    for i, j in zeros:
        if abs(v[i - 1][j - 1]) > tol * scale:
            issues.append(f"{system} system expects C{i}{j} = 0; got {v[i - 1][j - 1]!r}")
    for (ti, tj), (ai, aj), (bi, bj) in relations:
        expected = 0.5 * (v[ai - 1][aj - 1] - v[bi - 1][bj - 1])
        actual = v[ti - 1][tj - 1]
        if abs(actual - expected) > tol * scale:
            issues.append(
                f"{system} system expects C{ti}{tj} = (C{ai}{aj} - C{bi}{bj})/2 "
                f"= {expected!r}; got {actual!r}"
            )
    return issues


def material_from_dict(doc: dict, strict: bool = False, tol: float = 1e-6) -> MaterialRecord:
    """Validate a parsed material document into a :class:`MaterialRecord`."""
    check_tolerance(tol)
    _require(isinstance(doc, dict), "material document must be a JSON object")
    warnings: list[str] = []
    _check_unknown_fields(
        doc,
        {"schema_version", "name", "crystal_system", "density", "stiffness"},
        "material document",
        strict,
        warnings,
    )
    version = doc.get("schema_version", "1")
    _require(version == "1", f"unsupported schema_version {version!r}")
    name = doc.get("name")
    _require(isinstance(name, str) and name != "", "field 'name' must be a non-empty string")

    system = doc.get("crystal_system")
    if system is not None:
        _require(
            system in CRYSTAL_SYSTEMS,
            f"field 'crystal_system' must be one of {CRYSTAL_SYSTEMS}, got {system!r}",
        )

    density = None
    if "density" in doc:
        d = doc["density"]
        _require(isinstance(d, dict), "field 'density' must be an object")
        _check_unknown_fields(d, {"value", "unit"}, "density", strict, warnings)
        density = Density(value=d.get("value"), unit=d.get("unit"))

    stiff = doc.get("stiffness")
    _require(isinstance(stiff, dict), "field 'stiffness' must be an object")
    _check_unknown_fields(stiff, {"unit", "voigt"}, "stiffness", strict, warnings)
    unit = stiff.get("unit")
    # checked here too, so a bad unit is reported before a bad 'voigt' entry
    _check_stiffness_unit(unit)
    _require("voigt" in stiff, "stiffness object needs a 'voigt' entry")
    voigt = _voigt_from_payload(stiff["voigt"], "stiffness")

    if system is not None:
        warnings.extend(check_crystal_system(voigt, system, tol=tol))

    return MaterialRecord(
        name=name,
        voigt=voigt,
        stiffness_unit=unit,
        density=density,
        crystal_system=system,
        warnings=tuple(warnings),
    )


def load_material(path, strict: bool = False, tol: float = 1e-6) -> MaterialRecord:
    """Load and validate a material JSON file.

    Raises ``OSError`` for I/O problems, ``json.JSONDecodeError`` (which
    carries line/column) for malformed JSON, and :class:`MaterialError` for
    semantic problems: schema violations, asymmetric Voigt input (reported
    with the offending one-based pair), an all-zero Voigt matrix, unknown unit
    strings, and (in strict mode) unknown fields; a bad ``tol`` raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return material_from_dict(doc, strict=strict, tol=tol)


def list_bundled() -> list[str]:
    """Names of the bundled material datasets."""
    root = resources.files("cauchykit").joinpath("data")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_material(name: str) -> MaterialRecord:
    """Load one of the bundled datasets by (case-insensitive) name."""
    key = name.lower()
    root = resources.files("cauchykit").joinpath("data")
    path = root.joinpath(f"{key}.json")
    if not path.is_file():
        raise KeyError(f"no bundled material {name!r}; available: {list_bundled()}")
    return material_from_dict(json.loads(path.read_text(encoding="utf-8")))
