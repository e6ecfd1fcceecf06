"""Command-line interface.

Conventions: stiffness is converted to GPa and density is g/cm^3, so reported
velocities are km/s.  Exit codes: 0 on success, 2 on validation failures
(bad material data, bad flags), 3 on I/O or JSON parse failures.
"""

from __future__ import annotations

import json

import click
import numpy as np

from . import report as rp
from .acoustics import check_density
from .decomp import check_tolerance
from .materials import MaterialError, MaterialRecord, load_material

EXIT_VALIDATION = 2
EXIT_IO = 3


def _fail(ctx: click.Context, code: int, message: str):
    click.echo(f"error: {message}", err=True)
    ctx.exit(code)


def _load(ctx: click.Context, path: str) -> MaterialRecord:
    opts = ctx.obj
    try:
        record = load_material(path, strict=opts["strict"], tol=opts["tol"])
    except json.JSONDecodeError as exc:
        _fail(ctx, EXIT_IO, f"{path}: JSON parse error: {exc}")
    except OSError as exc:
        _fail(ctx, EXIT_IO, f"{path}: {exc}")
    except MaterialError as exc:
        _fail(ctx, EXIT_VALIDATION, f"{path}: {exc}")
    for w in record.warnings:
        click.echo(f"warning: {w}", err=True)
    return record


def _emit(ctx: click.Context, report: dict):
    path = ctx.obj["json_out"]
    if path:
        try:
            rp.dump_json(report, path)
        except OSError as exc:
            _fail(ctx, EXIT_IO, f"cannot write {path}: {exc}")
        click.echo(f"report written to {path}")


@click.group()
@click.option("--tol", type=float, default=1e-6, show_default=True,
              help="Relative tolerance for ingest checks and classification.")
@click.option("--json", "json_out", type=click.Path(dir_okay=False), default=None,
              help="Also write the full report as JSON to this path.")
@click.option("--strict", is_flag=True,
              help="Reject unknown fields in material files instead of warning.")
@click.pass_context
def main(ctx, tol, json_out, strict):
    """Analyze elastic stiffness tensors: irreducible decomposition,
    Cauchy-structure classification, constitutive response, and
    Christoffel-tensor acoustics."""
    try:
        check_tolerance(tol)
    except ValueError:
        _fail(ctx, EXIT_VALIDATION, "--tol must be finite and nonnegative")
    ctx.obj = {"tol": tol, "json_out": json_out, "strict": strict}


@main.command()
@click.argument("material_file", type=click.Path())
@click.pass_context
def decompose(ctx, material_file):
    """Decompose a material's stiffness tensor into its five invariant parts."""
    record = _load(ctx, material_file)
    report = rp.decomposition_report(record, tol=ctx.obj["tol"])
    d = report["decomposition"]
    cls = report["classification"]
    click.echo(f"material: {record.name} ({record.stiffness_unit})")
    click.echo(f"scalar S: {d['scalar_s']:.9g}")
    click.echo(f"scalar A: {d['scalar_a']:.9g}   sign class: {cls['a_sign']}")
    click.echo(f"|P|: {d['norms']['p_norm']:.9g}  |Q|: {d['norms']['q_norm']:.9g}"
               f"  |R|: {d['norms']['r_norm']:.9g}")
    click.echo(f"cauchy factor: {d['cauchy_factor']:.9g}")
    click.echo(f"full cauchy: {cls['full_cauchy']}   "
               f"partial cauchy: {cls['partial_cauchy']}")
    _emit(ctx, report)


@main.command()
@click.argument("material_file", type=click.Path())
@click.pass_context
def classify(ctx, material_file):
    """Classify a material by the sign and structure of its non-Cauchy part."""
    record = _load(ctx, material_file)
    report = rp.classification_report(record, tol=ctx.obj["tol"])
    cls = report["classification"]
    sign = {"positive": "A+", "negative": "A-"}.get(cls["a_sign"], "A~0")
    click.echo(f"{record.name}: {sign}  (A = {cls['scalar_a']:.9g}, "
               f"cauchy factor {cls['cauchy_factor']:.6f}, "
               f"full={cls['full_cauchy']}, partial={cls['partial_cauchy']})")
    _emit(ctx, report)


def _parse_floats(ctx, text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        _fail(ctx, EXIT_VALIDATION,
              f"{what} needs {count} comma-separated numbers, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError:
        _fail(ctx, EXIT_VALIDATION, f"{what}: not a number in {text!r}")
    if not np.isfinite(values).all():
        _fail(ctx, EXIT_VALIDATION, f"{what}: numbers must be finite, got {text!r}")
    return values


@main.command()
@click.argument("material_file", type=click.Path())
@click.option("--strain", required=True,
              help="Strain tensor components e11,e22,e33,e23,e31,e12 "
                   "(tensor values, applied symmetrically).")
@click.pass_context
def energy(ctx, material_file, strain):
    """Elastic energy of a strain state, split by channel and tensor origin."""
    record = _load(ctx, material_file)
    v = _parse_floats(ctx, strain, 6, "--strain")
    eps = np.array([
        [v[0], v[5], v[4]],
        [v[5], v[1], v[3]],
        [v[4], v[3], v[2]],
    ])
    report = rp.energy_report(record, eps)
    e = report["energy"]
    click.echo(f"material: {record.name}  (energy unit: {e['unit']})")
    click.echo(f"total: {e['total']:.9g}")
    for channel in ("compression", "mixed", "shear"):
        b = e[channel]
        click.echo(f"{channel:>11}: {b['total']:.9g}  "
                   f"(cauchy {b['cauchy']:.9g}, non-cauchy {b['non_cauchy']:.9g})")
    _emit(ctx, report)


@main.command()
@click.argument("material_file", type=click.Path())
@click.option("--n", "direction_specs", multiple=True,
              help="Propagation direction x,y,z (normalized; repeatable).")
@click.option("--scan", "scan_count", type=int, default=None,
              help="Scan this many lattice directions over the sphere.")
@click.option("--density", type=float, default=None,
              help="Density in g/cm^3 (required if the file has none).")
@click.option("--pure-modes", is_flag=True,
              help="Search for pure longitudinal-wave directions.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write the --scan table as CSV.")
@click.pass_context
def acoustics(ctx, material_file, direction_specs, scan_count, density,
              pure_modes, csv_path):
    """Phase velocities, polarizations and pure-mode analysis."""
    record = _load(ctx, material_file)

    if density is None:
        if record.density is None:
            _fail(ctx, EXIT_VALIDATION,
                  f"{record.name} has no bundled density; pass --density")
        rho = record.density.in_g_cm3()
    else:
        rho = density
    try:
        rho = check_density(rho)
    except ValueError as exc:
        _fail(ctx, EXIT_VALIDATION, str(exc))
    if scan_count is not None and scan_count < 100:
        _fail(ctx, EXIT_VALIDATION, "--scan must be at least 100")
    if csv_path and not scan_count:
        _fail(ctx, EXIT_VALIDATION, "--csv requires --scan")

    directions = []
    for spec in direction_specs:
        v = _parse_floats(ctx, spec, 3, "--n")
        size = float(np.abs(v).max())
        if size == 0:
            _fail(ctx, EXIT_VALIDATION, "--n must be a nonzero finite vector")
        if not 1e-150 < size < 1e150:  # keep |v|^2 in the normal float range
            v = v / size
        directions.append(v / float(np.linalg.norm(v)))
    if not directions and not scan_count and not pure_modes:
        _fail(ctx, EXIT_VALIDATION, "nothing to do: pass --n, --scan or --pure-modes")

    report, rows = rp.acoustics_report(
        record, rho, directions=directions, scan=scan_count, pure_modes=pure_modes,
    )

    click.echo(f"material: {record.name}  density: {rho:.6g} g/cm^3")
    for entry in report["acoustics"].get("directions", []):
        n = entry["n"]
        v = ["nan" if x is None else f"{x:.6f}" for x in entry["velocities_km_s"]]
        flag = "" if entry["causal"] else "  [non-causal]"
        click.echo(f"n = ({n[0]:+.6f}, {n[1]:+.6f}, {n[2]:+.6f})  "
                   f"v = {', '.join(v)} km/s{flag}")
    if scan_count:
        sc = report["acoustics"]["scan"]
        click.echo(f"scan: {sc['count']} directions, "
                   f"{sc['non_causal_count']} non-causal")
    if pure_modes:
        pm = report["acoustics"]["pure_longitudinal"]
        if pm["all_directions_pure"]:
            click.echo("pure longitudinal: all directions pure")
        else:
            m = pm["morse"]
            certified = {True: "certified", False: "NOT certified",
                         None: "certificate not applicable"}[pm["certified"]]
            click.echo(f"pure longitudinal directions: {len(pm['hits'])} "
                       f"({m['max']} max, {m['min']} min, {m['saddle']} saddle, "
                       f"{m['family']} family; {certified})")
            for h in pm["hits"]:
                d = h["direction"]
                v_l = h["velocity_km_s"]
                flag = "" if v_l is not None else "  [non-causal]"
                v_l = "nan" if v_l is None else f"{v_l:.6f}"
                click.echo(f"  ({d[0]:+.6f}, {d[1]:+.6f}, {d[2]:+.6f})  "
                           f"v_L = {v_l} km/s  "
                           f"residual {h['residual']:.2e}  {h['kind']}{flag}")

    if csv_path:
        try:
            rp.write_scan_csv(rows, csv_path)
        except OSError as exc:
            _fail(ctx, EXIT_IO, f"cannot write {csv_path}: {exc}")
        click.echo(f"scan table written to {csv_path}")
    _emit(ctx, report)


if __name__ == "__main__":
    main()
