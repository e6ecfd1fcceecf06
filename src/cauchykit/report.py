"""Machine-readable analysis reports.

Reports are plain dicts with a fixed key order, serialized as JSON with full
round-trip float precision (every float survives re-parsing bit-exactly, at
most 17 significant digits).  Identical inputs produce byte-identical report
files.  The decomposition block carries the complete generator set
(S, P, R, A, Q), so the stiffness tensor can be reassembled from a report
alone; :func:`reconstruct_stiffness` does exactly that, through the same
:func:`cauchykit.decomp.generator_tensors` the decomposition uses.  Reports
on one record share one decomposition: the decomposition, classification and
energy reports read the record's cached ``parts`` and build every block from
that one result, so a record is split once however many of them are made.
The acoustics report decomposes the GPa tensor once for itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import acoustics as ac
from . import constitutive as co
from . import decomp
from .materials import MaterialRecord
from .tensor_core import degenerate_pairs, full_to_voigt, voigt_to_full

__all__ = [
    "decomposition_report",
    "classification_report",
    "energy_report",
    "acoustics_report",
    "reconstruct_stiffness",
    "dump_json",
    "scan_rows",
    "write_scan_csv",
]

SCHEMA_VERSION = "1"


def _material_echo(record: MaterialRecord) -> dict:
    echo = {
        "name": record.name,
        "crystal_system": record.crystal_system,
        "stiffness_unit": record.stiffness_unit,
        "voigt": record.voigt.tolist(),
    }
    if record.density is not None:
        echo["density"] = {"value": record.density.value, "unit": record.density.unit}
    if record.warnings:
        echo["warnings"] = list(record.warnings)
    return echo


def _decomposition_block(parts: decomp.IrreducibleParts) -> dict:
    return {
        "scalar_s": parts.scalar_s,
        "scalar_a": parts.scalar_a,
        "dev_p": parts.dev_p.tolist(),
        "dev_q": parts.dev_q.tolist(),
        "harm_r_voigt": full_to_voigt(parts.harm_r).tolist(),
        "delta": parts.delta.tolist(),
        "norms": {
            "cauchy_part": parts.split.s_norm,
            "non_cauchy_part": parts.split.a_norm,
            "p_norm": parts.p_norm,
            "q_norm": parts.q_norm,
            "r_norm": parts.r_norm,
        },
        "cauchy_factor": parts.cauchy_factor,
    }


def _bounds_block(parts: decomp.IrreducibleParts) -> dict:
    # the Poisson fields are None, and left out, unless the input is isotropic
    return {k: v for k, v in co.stability_bounds(parts)._asdict().items() if v is not None}


def decomposition_report(record: MaterialRecord, tol: float = 1e-6) -> dict:
    """Full decomposition, classification and bounds report for a material."""
    parts = record.parts
    return {
        "schema_version": SCHEMA_VERSION,
        "material": _material_echo(record),
        "decomposition": _decomposition_block(parts),
        "classification": decomp.classify(parts, tol=tol)._asdict(),
        "bounds": _bounds_block(parts),
    }


def classification_report(record: MaterialRecord, tol: float = 1e-6) -> dict:
    parts = record.parts
    return {
        "schema_version": SCHEMA_VERSION,
        "material": _material_echo(record),
        "classification": decomp.classify(parts, tol=tol)._asdict(),
    }


def energy_report(record: MaterialRecord, eps: np.ndarray) -> dict:
    """Energy attribution report for a strain state (strain is dimensionless;
    energies carry the stiffness unit)."""
    parts = record.parts
    e = co.energy(parts, eps)
    return {
        "schema_version": SCHEMA_VERSION,
        "material": _material_echo(record),
        "strain": np.asarray(eps, dtype=float).tolist(),
        "energy": {
            "unit": record.stiffness_unit,
            "total": e.total,
            "compression": {
                "total": e.compression,
                "cauchy": e.compression_cauchy,
                "non_cauchy": e.compression_non_cauchy,
            },
            "mixed": {
                "total": e.mixed,
                "cauchy": e.mixed_cauchy,
                "non_cauchy": e.mixed_non_cauchy,
            },
            "shear": {
                "total": e.shear,
                "cauchy": e.shear_cauchy,
                "non_cauchy": e.shear_non_cauchy,
            },
        },
        "bounds": _bounds_block(parts),
    }


def _json_float(v) -> float | None:
    """``v`` as a float, or None (JSON has no NaN) for a non-causal mode."""
    return None if math.isnan(v) else float(v)


def _direction_entries(c_gpa: np.ndarray, parts, dirs: np.ndarray,
                       rho: float) -> list[dict]:
    bundle = ac.christoffel(c_gpa, dirs, rho)
    wave = ac.wave_solve(bundle)
    sums = ac.sum_squared_velocities(parts, dirs, rho)
    residuals = ac.pure_longitudinal_residual(bundle)
    return [
        {
            "n": dirs[i].tolist(),
            "velocities_km_s": [_json_float(v) for v in wave.velocities[i]],
            "squared_velocities": wave.eigenvalues[i].tolist(),
            "polarizations": wave.polarizations[i].T.tolist(),
            "longitudinal_purity": wave.longitudinal_purity[i].tolist(),
            "degenerate_pairs": [list(p) for p in degenerate_pairs(wave.degenerate_pairs[i])],
            "causal": bool(wave.causal[i]),
            "sum_squared_formula": float(sums[i]),
            "pure_longitudinal_residual": float(residuals[i]),
        }
        for i in range(len(dirs))
    ]


def acoustics_report(
    record: MaterialRecord,
    rho_g_cm3: float,
    directions: np.ndarray | list | None = None,
    scan: int | None = None,
    pure_modes: bool = False,
) -> tuple[dict, np.ndarray]:
    """Acoustic report plus the :func:`scan_rows` table, as ``(report, rows)``;
    ``rows`` has zero rows unless ``scan``.  Stiffness is converted to GPa and
    density is in g/cm^3, so velocities are km/s.  ``directions`` is an
    (N, 3) array-like of unit vectors; with zero rows there is no
    ``directions`` block.
    """
    rho_g_cm3 = ac.check_density(rho_g_cm3)
    dirs = np.asarray(() if directions is None else directions, dtype=float)
    if dirs.shape != (0,) and (dirs.ndim != 2 or dirs.shape[1] != 3):
        raise ValueError(f"directions must have shape (N, 3), got {dirs.shape}")
    c_gpa = record.stiffness_gpa()
    parts = decomp.decompose(c_gpa)
    report = {
        "schema_version": SCHEMA_VERSION,
        "material": _material_echo(record),
        "acoustics": {
            "density_g_cm3": float(rho_g_cm3),
            "velocity_unit": "km/s",
        },
    }
    block = report["acoustics"]

    if len(dirs):
        block["directions"] = _direction_entries(c_gpa, parts, dirs, rho_g_cm3)

    crit = ac.critical_directions(parts)
    block["critical_directions"] = {
        "eigenvalues": crit.eigenvalues.tolist(),
        "directions": crit.directions.T.tolist(),
        "fully_degenerate": crit.fully_degenerate,
        "degenerate_pairs": [list(p) for p in crit.degenerate_pairs],
    }

    rows = np.zeros(0, dtype=_SCAN_ROW)
    if scan:
        rows = scan_rows(c_gpa, rho_g_cm3, scan)
        block["scan"] = {
            # ints, not numpy integers, which json rejects
            "count": len(rows),
            "non_causal_count": int(np.count_nonzero(~rows["causal"])),
        }

    if pure_modes:
        result = ac.find_pure_longitudinal(c_gpa, rho_g_cm3)
        block["pure_longitudinal"] = {
            "all_directions_pure": result.all_directions_pure,
            "seeds": result.seeds,
            "morse": result.morse,
            "certified": result.certified,
            "axis": None if result.axis is None else result.axis.tolist(),
            "hits": [
                {
                    "direction": h.direction.tolist(),
                    "kind": h.kind,
                    "residual": float(h.residual),
                    "velocity_km_s": _json_float(h.velocity),
                }
                for h in result.hits
            ],
        }
    return report, rows


_SCAN_ROW = np.dtype([("n", float, 3), ("velocities", float, 3), ("purity_l", float),
                      ("degenerate", bool), ("causal", bool)])


def scan_rows(c_gpa: np.ndarray, rho: float, count: int) -> np.ndarray:
    """Evaluate the wave solution on a golden-angle lattice of ``count``
    directions from one batched solve: a structured array, one row per
    direction in lattice order, with the fields ``n`` (3,), ``velocities``
    (3,), ``purity_l``, ``degenerate`` and ``causal``."""
    dirs = ac.fibonacci_sphere(count)
    wave = ac.wave_solve(ac.christoffel(c_gpa, dirs, rho))
    rows = np.empty(len(dirs), dtype=_SCAN_ROW)
    rows["n"] = dirs
    rows["velocities"] = wave.velocities
    rows["purity_l"] = wave.longitudinal_purity[:, 0]
    rows["degenerate"] = wave.degenerate_pairs.any(axis=1)
    rows["causal"] = wave.causal
    return rows


_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


def write_scan_csv(rows: np.ndarray, path) -> None:
    """Write scan rows as CSV: '.' decimal separator, LF line endings, and a
    mandatory header ``nx,ny,nz,v1,v2,v3,purity_L,degenerate_flag``; floats
    carry 17 significant digits and a non-causal velocity reads ``nan``.
    ``rows`` are :func:`scan_rows` output."""
    # one % over the whole table; %d of the stacked 1.0/0.0 flag prints 1/0
    table = np.column_stack((rows["n"], rows["velocities"], rows["purity_l"],
                             rows["degenerate"]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("nx,ny,nz,v1,v2,v3,purity_L,degenerate_flag\n"
                 + _CSV_ROW * len(rows) % tuple(table.ravel().tolist()))


def _block_field(block: dict, name: str, shape: tuple):
    # block[name] as a finite float (shape ()) or a finite float array of shape
    try:
        value = float(block[name]) if shape == () else np.array(block[name], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"decomposition field {name!r} must hold numbers") from exc
    if shape and value.shape != shape:
        raise ValueError(f"decomposition field {name!r} must have shape {shape}, "
                         f"got {value.shape}")
    if not (np.isfinite(value).all() if shape else math.isfinite(value)):
        raise ValueError(f"decomposition field {name!r} has a non-finite entry")
    return value


def reconstruct_stiffness(decomposition_block: dict) -> np.ndarray:
    """Reassemble the full stiffness tensor from a report's decomposition
    block (the fixed point property: decomposing the result reproduces the
    block).  A generator that is missing, not finite or wrongly shaped
    (``scalar_s`` and ``scalar_a`` scalars, ``dev_p`` and ``dev_q`` 3x3,
    ``harm_r_voigt`` 6x6) raises ``KeyError`` or ``ValueError`` naming it."""
    s1, s2, a1, a2 = decomp.generator_tensors(
        _block_field(decomposition_block, "scalar_s", ()),
        _block_field(decomposition_block, "dev_p", (3, 3)),
        _block_field(decomposition_block, "scalar_a", ()),
        _block_field(decomposition_block, "dev_q", (3, 3)),
    )
    r = voigt_to_full(_block_field(decomposition_block, "harm_r_voigt", (6, 6)))
    return s1 + s2 + r + a1 + a2


def dump_json(report: dict, path) -> None:
    """Serialize a report deterministically (UTF-8, 2-space indent, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
