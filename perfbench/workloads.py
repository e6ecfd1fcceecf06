"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload is a closed loop with one caller.  ``items`` is one pass of
operations built from the seed; ``run(item)`` is the timed operation and
``check(item, out)`` verifies its output afterwards, outside the timed region,
against oracles written here rather than taken from the library.  ``work``
counts the units an item stands for (materials, directions, searches or CLI
invocations), which is what the throughput metric counts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cauchykit import acoustics, decomp, materials, report
from tracing import Tracer, parse_importtime

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "cauchykit" / "data"

# Voigt index -> tensor index pair, and the published sign class of A for
# the bundled cubic crystals (positive: C12 > C44 by the margin of the table)
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (2, 0), (0, 1))
BUNDLED_SIGN = {
    "AlSb": "positive", "InP": "positive", "InAs": "positive", "W": "positive",
    "Mo": "positive", "C": "negative", "Si": "negative", "Ge": "negative",
    "Ir": "negative", "Cr": "negative",
}
DENSITY = {"W": 19.25, "Si": 2.329}
PURITY_TOL = 1e-8


class CheckFailed(Exception):
    """An operation's output disagreed with the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ input makers


def full_from_voigt(m) -> np.ndarray:
    """Rank-4 tensor from a symmetric 6x6 Voigt matrix, one entry at a time."""
    c = np.empty((3, 3, 3, 3))
    for (a, (i, j)), (b, (k, l)) in itertools.product(enumerate(VOIGT_PAIRS), repeat=2):
        for p, q, r, s in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k)):
            c[p, q, r, s] = m[a][b]
    return c


def voigt_a(m: np.ndarray) -> float:
    """Scalar A of the non-Cauchy part from Voigt constants (closed form)."""
    return 4.0 / 3.0 * ((m[0, 1] - m[3, 3]) + (m[0, 2] - m[4, 4]) + (m[1, 2] - m[5, 5]))


def bundled_voigt_gpa(name: str) -> np.ndarray:
    doc = json.loads((DATA / f"{name.lower()}.json").read_text(encoding="utf-8"))
    scale = {"Mbar": 100.0, "GPa": 1.0}[doc["stiffness"]["unit"]]
    return np.array(doc["stiffness"]["voigt"], dtype=float) * scale


def isotropic_voigt(rng) -> np.ndarray:
    mu = rng.uniform(20.0, 150.0)
    lam = mu * (rng.uniform(0.3, 0.8) if rng.random() < 0.5 else rng.uniform(1.3, 3.0))
    m = np.zeros((6, 6))
    m[:3, :3] = lam
    m[np.arange(3), np.arange(3)] = lam + 2.0 * mu
    m[np.arange(3, 6), np.arange(3, 6)] = mu
    return m


def hexagonal_voigt(rng, jitter: float = 0.3) -> np.ndarray:
    """Transversely isotropic about z (C66 = (C11 - C12) / 2)."""
    c11, c12, c13, c33, c44 = np.array([400.0, 140.0, 120.0, 350.0, 100.0]) * (
        1.0 + rng.uniform(-jitter, jitter, 5))
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = c11
    m[2, 2] = c33
    m[0, 1] = m[1, 0] = c12
    m[0, 2] = m[2, 0] = m[1, 2] = m[2, 1] = c13
    m[3, 3] = m[4, 4] = c44
    m[5, 5] = 0.5 * (c11 - c12)
    return m


def spd_triclinic_voigt(rng) -> np.ndarray:
    b = rng.uniform(-1.0, 1.0, (6, 6))
    return (b @ b.T + 0.05 * np.eye(6)) * rng.uniform(80.0, 200.0)


def non_spd_triclinic_voigt(rng) -> np.ndarray:
    """Symmetric, with directions whose Christoffel tensor is not positive."""
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    while True:
        b = rng.uniform(-1.0, 1.0, (6, 6))
        m = (0.5 * (b + b.T) + np.diag([1.5, 1.5, 1.5, 0.5, 0.5, 0.5])) * 100.0
        gamma = np.einsum("ijkl,nj,nk->nil", full_from_voigt(m), dirs, dirs)
        negative = (np.linalg.eigvalsh(gamma)[:, 0] <= 0).mean()
        if np.linalg.eigvalsh(m)[0] < 0 and 0.05 <= negative <= 0.5:
            return m


def signed(maker, rng) -> tuple[np.ndarray, str]:
    """Draw until A is clearly away from zero, so its sign class is defined."""
    while True:
        m = maker(rng)
        a = voigt_a(m)
        if abs(a) >= 1e-2 * np.linalg.norm(m):
            return m, "positive" if a > 0 else "negative"


def material_doc(name: str, m_gpa: np.ndarray, unit: str, flat: bool,
                 system: str | None = None, density: float | None = None) -> dict:
    m = m_gpa / {"GPa": 1.0, "Mbar": 100.0}[unit]
    voigt = [float(m[i, j]) for i in range(6) for j in range(i, 6)] if flat else m.tolist()
    doc = {"schema_version": "1", "name": name}
    if system:
        doc["crystal_system"] = system
    if density is not None:
        doc["density"] = {"value": density, "unit": "g/cm^3"}
    doc["stiffness"] = {"unit": unit, "voigt": voigt}
    return doc


# ------------------------------------------------------------------ loop


@dataclass
class Outcome:
    """What one measured stretch of operations produced."""

    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)
    work: int = 0
    failures: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.op_s += other.op_s
        self.work += other.work
        self.failures += other.failures


class Workload:
    """Base: subclasses set ``items`` in ``__init__`` and define run/check.

    Subclasses take ``(seed, small, workdir, tracer)``; ``small`` selects the
    minimal inputs the benchmark's own tests use.
    """

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.items: list = []
        self.bytes_out = 0

    def work(self, item) -> int:
        return 1

    def warm_up(self) -> None:
        self.one_pass()

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def one_pass(self, after_op=None) -> Outcome:
        """Run and check every item once; only ``run`` is timed or traced.

        ``after_op(seconds)``, if given, is called after each operation's
        check, outside the timed region, with the operation's time.
        """
        outcome = Outcome()
        tracing = self.tracer.enabled
        for item in self.items:
            outcome.attempted += 1
            self.tracer.next_op()
            t0 = perf_counter()
            try:
                out = self.run(item)
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            outcome.op_s.append(perf_counter() - t0)
            outcome.work += self.work(item)
            self.tracer.enabled = False
            if error is None:
                try:
                    self.check(item, out)
                except Exception as exc:  # a crashing check is a failed check
                    error = f"{type(exc).__name__}: {exc}"
            self.tracer.enabled = tracing
            if error is not None:
                outcome.failed += 1
                outcome.failures.append(f"{item.name}: {error}")
            if after_op is not None:
                after_op(outcome.op_s[-1])
        return outcome

    def reset_counters(self) -> None:
        self.bytes_out = 0

    def counters(self) -> dict:
        """Per-layer values counted from outputs since ``reset_counters``."""
        return {"report.bytes_out": self.bytes_out}

    def traced_pass(self):
        """One pass with spans on: ``(outcome, profile, counters)``."""
        self.reset_counters()
        self.tracer.enabled = True
        try:
            outcome = self.one_pass()
        finally:
            self.tracer.enabled = False
        return outcome, self.tracer.take(), self.counters()


# ---------------------------------------------------------------- catalog


@dataclass
class CatalogItem:
    name: str
    doc: dict
    strain: np.ndarray
    sign: str
    c_input: np.ndarray


class Catalog(Workload):
    """Ingest, decompose, classify, energy, serialize and reassemble."""

    name = "catalog"
    unit = "materials"

    def __init__(self, seed, small, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        rng = self.rng
        made = []
        for _block in range(1 if small else 10):
            for name in BUNDLED_SIGN:
                made.append((name, bundled_voigt_gpa(name), BUNDLED_SIGN[name], "cubic"))
            for maker, system, count in ((isotropic_voigt, "isotropic", 4),
                                         (hexagonal_voigt, "hexagonal", 4),
                                         (spd_triclinic_voigt, "triclinic", 4),
                                         (non_spd_triclinic_voigt, "triclinic", 2)):
                for k in range(count):
                    m, sign = signed(maker, rng)
                    made.append((f"{system}-{len(made)}", m, sign, system))
        order = rng.permutation(len(made))
        for pos, idx in enumerate(order):
            name, m, sign, system = made[idx]
            unit = ("GPa", "Mbar")[pos % 2]
            doc = material_doc(name, m, unit, flat=(pos // 2) % 2 == 1, system=system)
            eps = rng.uniform(-1e-3, 1e-3, (3, 3))
            m_native = m / {"GPa": 1.0, "Mbar": 100.0}[unit]
            self.items.append(CatalogItem(name, doc, 0.5 * (eps + eps.T), sign,
                                          full_from_voigt(m_native)))

    def run(self, item):
        record = materials.material_from_dict(item.doc)
        dec = report.decomposition_report(record)
        energy = report.energy_report(record, item.strain)
        with self.tracer.span("bench.serialize"):
            texts = [json.dumps(r, indent=2, allow_nan=False) + "\n" for r in (dec, energy)]
        with self.tracer.span("bench.parse"):
            block = json.loads(texts[0])["decomposition"]
        return dec, energy, texts, report.reconstruct_stiffness(block)

    def check(self, item, out):
        dec, energy, texts, c_back = out
        self.bytes_out += sum(len(t.encode("utf-8")) for t in texts)
        c = item.c_input
        err = float(np.linalg.norm(c_back - c) / np.linalg.norm(c))
        expect(err <= 1e-10, f"reassembled stiffness off by {err:.3e} relative")
        got = dec["classification"]["a_sign"]
        expect(got == item.sign, f"sign class {got}, expected {item.sign}")
        e = energy["energy"]
        total = e["compression"]["total"] + e["mixed"]["total"] + e["shear"]["total"]
        direct = 0.5 * float(np.einsum("ijkl,ij,kl->", c, item.strain, item.strain))
        expect(math.isclose(e["total"], direct, rel_tol=1e-9, abs_tol=1e-15 * np.abs(c).max())
               and math.isclose(total, direct, rel_tol=1e-9, abs_tol=1e-15 * np.abs(c).max()),
               f"energy {e['total']!r} / channel sum {total!r} vs direct {direct!r}")


# ------------------------------------------------------------ sphere_scan


@dataclass
class ScanItem:
    name: str
    c: np.ndarray
    rho: float


class SphereScan(Workload):
    """Per-direction Christoffel solves over a lattice, CSV out, critical axes."""

    name = "sphere_scan"
    unit = "directions"

    def __init__(self, seed, small, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        rng = self.rng
        self.count = 200 if small else 2000
        self.csv = workdir / "scan.csv"
        self.items = [
            ScanItem("W", full_from_voigt(bundled_voigt_gpa("W")), DENSITY["W"]),
            ScanItem("Si", full_from_voigt(bundled_voigt_gpa("Si")), DENSITY["Si"]),
            ScanItem("triclinic", full_from_voigt(spd_triclinic_voigt(rng)),
                     float(rng.uniform(2.5, 8.0))),
            ScanItem("non-spd", full_from_voigt(non_spd_triclinic_voigt(rng)),
                     float(rng.uniform(2.5, 8.0))),
        ]

    def work(self, item):
        return self.count

    def warm_up(self):
        for item in self.items:
            self.run(item, count=100)

    def run(self, item, count=None):
        rows = report.scan_rows(item.c, item.rho, count or self.count)
        report.write_scan_csv(rows, self.csv)
        parts = decomp.decompose(item.c)
        return rows, parts, acoustics.critical_directions(parts)

    def check(self, item, out):
        rows, parts, crit = out
        expect(len(rows) == self.count, f"{len(rows)} rows for {self.count} directions")
        dirs = np.array([r["n"] for r in rows])
        vel = np.array([r["velocities"] for r in rows])
        gamma = np.einsum("ijkl,nj,nk->nil", item.c, dirs, dirs) / item.rho
        eig = np.linalg.eigvalsh(gamma)[:, ::-1]
        scale = np.linalg.norm(gamma, axis=(1, 2))
        clear = np.abs(eig) > 1e-9 * scale[:, None]
        expect(np.array_equal(np.isnan(vel)[clear], (eig <= 0)[clear]),
               "NaN velocities do not match the non-positive eigenvalues")
        causal = ~np.isnan(vel)
        expect(np.allclose((vel ** 2)[causal], eig[causal], rtol=0,
                           atol=1e-9 * scale.max()),
               "squared velocities differ from the Christoffel eigenvalues")
        trace_sum = np.array([acoustics.sum_squared_velocities(parts, n, item.rho)
                              for n in dirs])
        all_causal = causal.all(axis=1)
        expect(np.allclose((vel ** 2).sum(axis=1)[all_causal], trace_sum[all_causal],
                           rtol=1e-10, atol=1e-10 * scale.max()),
               "sum of squared velocities breaks the trace identity")
        expect(np.allclose(eig.sum(axis=1), trace_sum, rtol=1e-10,
                           atol=1e-10 * scale.max()),
               "eigenvalue sum breaks the trace identity")
        finite = np.where(causal, vel, -np.inf)
        expect(bool(np.all(np.diff(finite, axis=1) <= 0)),
               "velocities not sorted descending with NaN last")

        lines = self.csv.read_text(encoding="utf-8").splitlines()
        self.bytes_out += self.csv.stat().st_size
        expect(lines[0] == "nx,ny,nz,v1,v2,v3,purity_L,degenerate_flag"
               and len(lines) == self.count + 1, "CSV header or row count wrong")
        table = np.array([[float(x) for x in line.split(",")[:6]] for line in lines[1:]])
        expect(np.array_equal(table[:, :3], dirs)
               and np.array_equal(table[:, 3:], vel, equal_nan=True),
               "CSV values differ from the scan rows")

        lmat = 2.0 * parts.dev_p + parts.dev_q
        resid = lmat @ crit.directions - crit.directions * crit.eigenvalues
        expect(float(np.abs(resid).max()) <= 1e-9 * max(np.linalg.norm(lmat), 1e-300)
               + 1e-12 * abs(parts.scalar_s), "critical directions are not eigenvectors")

        if item.name == "W":
            wave = acoustics.wave_solve(acoustics.christoffel(item.c, [0.0, 0.0, 1.0], item.rho))
            want = np.sqrt(np.array([item.c[2, 2, 2, 2], item.c[1, 2, 1, 2],
                                     item.c[1, 2, 1, 2]]) / item.rho)
            expect(np.allclose(wave.velocities, want, rtol=1e-12),
                   f"W along [0,0,1]: {wave.velocities} vs {want}")


# ------------------------------------------------------------ pure_search


@dataclass
class PureItem:
    name: str
    kind: str
    c: np.ndarray
    rho: float


class PureSearch(Workload):
    """Seeded sphere search for pure longitudinal directions."""

    name = "pure_search"
    unit = "searches"
    grid_n = 20000

    def __init__(self, seed, small, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        rng = self.rng
        self.items = [PureItem("W", "cubic", full_from_voigt(bundled_voigt_gpa("W")),
                               DENSITY["W"])]
        for k in range(1 if small else 6):
            self.items.append(PureItem(f"triclinic-{k}", "triclinic",
                                       full_from_voigt(spd_triclinic_voigt(rng)),
                                       float(rng.uniform(2.5, 8.0))))
        self.items.append(PureItem("hexagonal", "hexagonal",
                                   full_from_voigt(hexagonal_voigt(rng, jitter=0.0)), 4.0))
        self.items.append(PureItem("isotropic", "isotropic",
                                   full_from_voigt(isotropic_voigt(rng)), 4.0))
        self.hits = 0

    def warm_up(self):
        acoustics.find_pure_longitudinal(self.items[0].c, self.items[0].rho, grid_n=2000)

    def run(self, item):
        return acoustics.find_pure_longitudinal(item.c, item.rho, grid_n=self.grid_n)

    def check(self, item, scan):
        self.hits += len(scan.hits)
        if item.kind == "isotropic":
            expect(scan.all_directions_pure and not scan.hits, "isotropic not all pure")
            return
        expect(not scan.all_directions_pure, "anisotropic reported all pure")
        # the hit must be an eigenvector of the Cauchy part's Christoffel tensor
        s = sum(np.transpose(item.c, p) for p in itertools.permutations(range(4))) / 24.0
        for hit in scan.hits:
            n = hit.direction
            gs = np.einsum("ijkl,j,k->il", s, n, n)
            sn = gs @ n
            resid = float(np.linalg.norm(sn - (n @ sn) * n) / np.linalg.norm(gs))
            expect(hit.residual <= PURITY_TOL and resid <= 10 * PURITY_TOL,
                   f"hit {n} residual {hit.residual:.2e} (oracle {resid:.2e})")
        count = len(scan.hits)
        if item.kind == "cubic":
            expect(count == 13, f"W has {count} hits, expected 13")
        elif item.kind == "triclinic":
            expect(count % 2 == 1 and 3 <= count <= 13,
                   f"triclinic hit count {count} is not odd in [3, 13]")
        else:
            z = np.array([abs(h.direction[2]) for h in scan.hits])
            expect(bool((z < 1e-8).any()) and bool((np.abs(z - 1.0) < 1e-8).any()),
                   "hexagonal hits miss the basal ring or the axis")

    def reset_counters(self):
        super().reset_counters()
        self.hits = 0

    def counters(self):
        return {**super().counters(), "acoustics.pure_hits": self.hits}


# --------------------------------------------------------------- cli_cold


@dataclass
class CliItem:
    name: str
    args: list
    json_out: Path | None
    reference: bytes | None


class CliCold(Workload):
    """One fresh ``python -m cauchykit.cli`` process per operation."""

    name = "cli_cold"
    unit = "invocations"

    def __init__(self, seed, small, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        rng = self.rng
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.importtime = False  # run items under ``-X importtime``
        self.stderrs: dict[str, str] = {}  # their stderr by item name
        files = {}
        for name, m, unit, flat, system in (
                ("W", bundled_voigt_gpa("W"), "Mbar", False, "cubic"),
                ("Si", bundled_voigt_gpa("Si"), "GPa", True, "cubic"),
                ("hexagonal", hexagonal_voigt(rng), "GPa", False, "hexagonal"),
                ("triclinic", spd_triclinic_voigt(rng), "GPa", True, "triclinic")):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(material_doc(name, m, unit, flat, system)),
                            encoding="utf-8")
            files[name] = path

        def strain():
            return ",".join(repr(float(x)) for x in rng.uniform(-1e-3, 1e-3, 6))

        def direction_args():
            n = ",".join(repr(float(x)) for x in rng.normal(size=3))
            return ["--n", n, "--density", repr(float(rng.uniform(2.0, 20.0)))]

        plan = [
            ("W", False, ["decompose"]),
            ("Si", True, ["classify"]),
            ("hexagonal", False, ["energy", "--strain", strain()]),
            ("triclinic", True, ["acoustics", *direction_args()]),
            ("hexagonal", True, ["decompose"]),
            ("triclinic", False, ["classify"]),
            ("W", True, ["energy", "--strain", strain()]),
            ("Si", False, ["acoustics", *direction_args()]),
        ]
        for k, (material, with_json, command) in enumerate(plan[:4] if small else plan):
            json_out = workdir / f"out-{k}.json" if with_json else None
            args = (["--json", str(json_out)] if with_json else []) + [
                command[0], str(files[material]), *command[1:]]
            reference = self.reference(args, workdir / f"ref-{k}.json") if with_json else None
            self.items.append(CliItem(f"{command[0]} {material}"
                                      + (" --json" if with_json else ""),
                                      args, json_out, reference))

    @staticmethod
    def reference(args: list, path: Path) -> bytes:
        """The report the CLI should write, built in this process."""
        _json_out, command, material_file, *rest = args[1:]
        record = materials.load_material(material_file)
        if command == "decompose":
            rep = report.decomposition_report(record)
        elif command == "classify":
            rep = report.classification_report(record)
        elif command == "energy":
            v = [float(x) for x in rest[1].split(",")]
            eps = np.array([[v[0], v[5], v[4]], [v[5], v[1], v[3]], [v[4], v[3], v[2]]])
            rep = report.energy_report(record, eps)
        else:
            v = np.array([float(x) for x in rest[1].split(",")])
            rep, _rows = report.acoustics_report(
                record, float(rest[3]), directions=[v / float(np.linalg.norm(v))])
        report.dump_json(rep, path)
        return path.read_bytes()

    def command(self, args: list) -> list:
        return [sys.executable, *(["-X", "importtime"] if self.importtime else []),
                "-m", "cauchykit.cli", *args]

    def warm_up(self):
        subprocess.run(self.command(self.items[0].args), env=self.env, cwd=self.workdir,
                       capture_output=True, timeout=120, check=True)

    def run(self, item):
        if item.json_out is not None and item.json_out.exists():
            item.json_out.unlink()
        proc = subprocess.run(self.command(item.args), env=self.env,
                              cwd=self.workdir, capture_output=True, timeout=120)
        if self.importtime:
            self.stderrs[item.name] = proc.stderr.decode(errors="replace")
        return proc

    def check(self, item, proc):
        expect(proc.returncode == 0,
               f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        expect(bool(proc.stdout.strip()), "no output on stdout")
        if item.json_out is not None:
            got = item.json_out.read_bytes()
            self.bytes_out += len(got)
            expect(got == item.reference, "--json output differs from dump_json")

    def reset_counters(self):
        super().reset_counters()
        self.stderrs = {}

    def traced_pass(self):
        """Importtime-traced invocations, then the same calls traced in-process.

        The outcome and its timings are those of the ``-X importtime``
        invocations; the span profile comes from the in-process calls.
        """
        self.reset_counters()
        breakdown, outcome = self.import_breakdown()
        self.tracer.enabled = True
        try:
            self.in_process_pass()
        finally:
            self.tracer.enabled = False
        return outcome, self.tracer.take(), {**self.counters(), **breakdown}

    def import_breakdown(self) -> tuple[dict, Outcome]:
        """Interpreter, import and command seconds of the invocations.

        Times three bare ``python -c pass`` runs, then every item under
        ``-X importtime``; reports medians.  ``command_s`` is what remains of
        an invocation after the interpreter and the two imports.
        """
        bare = []
        for _ in range(3):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.workdir,
                           check=True, timeout=60)
            bare.append(perf_counter() - t0)
        interpreter = float(np.median(bare))
        self.importtime = True
        try:
            outcome = self.one_pass()
        finally:
            self.importtime = False
        fields = {"import_s": [], "import_scipy_s": [], "import_click_s": [], "command_s": []}
        for item, wall in zip(self.items, outcome.op_s):
            if item.name not in self.stderrs:
                continue  # the invocation raised; one_pass counted it as failed
            imports = parse_importtime(self.stderrs[item.name])
            fields["import_s"].append(imports["cauchykit"])
            fields["import_scipy_s"].append(imports["scipy"])
            fields["import_click_s"].append(imports["click"])
            fields["command_s"].append(
                wall - interpreter - imports["cauchykit"] - imports["click"])
        result = {f"cli.{k}": float(np.median(v)) for k, v in fields.items()}
        result["cli.interpreter_s"] = interpreter
        return result, outcome

    def in_process_pass(self) -> None:
        """The same invocations through ``cli.main`` in this process, traced."""
        from cauchykit import cli

        for item in self.items:
            self.tracer.next_op()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), self.tracer.span("cli.main"):
                cli.main.main(args=item.args, prog_name="cauchykit", standalone_mode=False)


WORKLOADS = {w.name: w for w in (Catalog, SphereScan, PureSearch, CliCold)}
