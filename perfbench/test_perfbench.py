"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

They run every workload at its minimal size, check that each metric named in
BENCHMARK.json is emitted with its unit, and check that a corrupted output is
caught and counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Tracer, parse_importtime
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAMED = {
    "catalog": {"catalog_materials_per_s", "catalog_material_ms_p50",
                "catalog_material_ms_p99"},
    "sphere_scan": {"scan_directions_per_s"},
    "pure_search": {"pure_search_s_p50", "pure_searches_per_s"},
    "cli_cold": {"cli_s_p50"},
}


def bench(workload: str, trace: int, root: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=root, timeout=170)


def result_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, result = result_lines(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    assert set(report["env"]) == {"python", "numpy", "scipy", "click", "nproc", "cpu", "seed"}
    assert report["env"]["seed"] == 3
    assert report["named"]["failed_frac"] == 0.0
    if trace:
        assert report["samples"]["counts_repeat"]
        assert report["span_edges"]
    else:
        assert NAMED[workload] | {"setup_s", "peak_rss_mb", "failed_frac"} == set(report["named"])
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0
        samples = report["samples"]
        assert samples["ref_samples"] >= 1
        assert result["metrics"]["items_per_ref_s"]["value"] == pytest.approx(
            samples["items_per_s"] * samples["ref_s"])


def test_traced_counts_repeat_and_show_redundant_splits():
    runs = [result_lines(bench("catalog", 1))[1]["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["report.decomposition_report.sa_split_per_material"]["value"] == 6
    assert runs[0]["report.decomposition_report.so3_refine_per_material"]["value"] == 3


def test_sphere_scan_splits_once_per_direction():
    _report, result = result_lines(bench("sphere_scan", 1))
    assert result["metrics"]["decomp.sa_split.calls_per_direction"]["value"] == 1


def _corrupt_catalog(out):
    dec, energy, texts, c_back = out
    dec["classification"]["a_sign"] = "zero-within-tol"
    return out


def _corrupt_scan(out):
    rows, parts, crit = out
    rows[7]["velocities"] = rows[7]["velocities"] * (1.0 + 1e-6)
    return out


def _corrupt_pure(scan):
    return type(scan)(hits=scan.hits[1:], all_directions_pure=scan.all_directions_pure,
                      seeds=scan.seeds)


@pytest.mark.parametrize("workload, corrupt", [
    ("catalog", _corrupt_catalog),
    ("sphere_scan", _corrupt_scan),
    ("pure_search", _corrupt_pure),
    ("cli_cold", None),
])
def test_corrupted_output_raises_failed_frac(workload, corrupt, tmp_path):
    wl = WORKLOADS[workload](5, True, tmp_path, Tracer())
    original = wl.run
    first = wl.items[0]
    if workload == "cli_cold":
        first = next(item for item in wl.items if item.json_out is not None)

        def corrupt(proc):
            first.json_out.write_bytes(first.json_out.read_bytes().replace(b"1", b"2", 1))
            return proc

    def run(item):
        out = original(item)
        return corrupt(out) if item is first else out

    assert wl.one_pass().failed == 0
    wl.run = run
    outcome = wl.one_pass()
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0
    assert first.name in outcome.failures[0]


def test_tracer_restores_every_binding():
    from cauchykit import acoustics, constitutive, decomp

    originals = (decomp.decompose, constitutive.decompose, acoustics.sa_split,
                 acoustics.minimize, acoustics.cKDTree)
    tracer = Tracer()
    tracer.install()
    assert constitutive.decompose is decomp.decompose is not originals[0]
    tracer.uninstall()
    assert (decomp.decompose, constitutive.decompose, acoustics.sa_split,
            acoustics.minimize, acoustics.cKDTree) == originals


def test_parse_importtime_counts_outermost_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:       200 |        300 |   cauchykit.tensor_core",
        "import time:       400 |        400 |       scipy.linalg",
        "import time:       500 |        900 |     scipy",
        "import time:       100 |       1000 |   cauchykit.acoustics",
        "import time:        50 |       1350 | cauchykit",
        "import time:        70 |         70 |   click.core",
        "import time:        30 |        100 | click",
        "import time:        40 |         40 | cauchykit.report",
    ])
    totals = parse_importtime(stderr)
    assert totals == pytest.approx({"cauchykit": 1390e-6, "scipy": 900e-6, "click": 100e-6})


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache"))
    proc = bench("catalog", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
