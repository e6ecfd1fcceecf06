"""One workload process: set up, say READY, measure, print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS pinned to one thread.  ``run.py`` times the span from starting this
interpreter to the READY line as the set-up time.  Without ``--trace`` the
workload loops over whole passes of its items until ``--seconds`` have
elapsed and reports end-to-end figures.  With ``--trace`` it alternates an
untraced and a traced pass and reports per-layer figures: medians over the
traced passes, whose counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


REF_UNITS = 50  # reference units in one reference second
REF_EVERY_S = 0.2  # operation seconds between host-speed samples


class HostSpeed:
    """How fast this core runs fixed reference work, sampled between operations.

    The host's speed drifts by tens of percent within seconds and between
    runs, and the reference work slows with it.  Operation time divided by
    the time the reference took in the same stretch cancels that drift.  The
    reference is benchmark code with the library's mix of work: an
    interpreter loop, small numpy calls and short-lived Python objects.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.matrix = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        self.units = 0
        self.seconds = 0.0
        self.owed_s = 0.0
        self.reference_unit()  # untimed: first calls pay lazy set-up

    def reference_unit(self) -> None:
        total = 0
        for i in range(80_000):
            total += i * i
        for _ in range(300):
            self.np.linalg.eigh(self.matrix)
            self.np.einsum("ij,j->i", self.matrix, self.matrix[0])
        for _ in range(30):
            json.dumps([{"i": i, "pair": [i, i + 1], "name": str(i)} for i in range(50)])

    def sample(self) -> None:
        t0 = perf_counter()
        self.reference_unit()
        self.seconds += perf_counter() - t0
        self.units += 1

    def after_op(self, op_s: float) -> None:
        self.owed_s += op_s
        if self.owed_s >= REF_EVERY_S:
            self.owed_s = 0.0
            self.sample()

    def ref_s(self) -> float:
        """Seconds one reference second took on this host during the run."""
        if not self.units:
            self.sample()
        return REF_UNITS * self.seconds / self.units


def percentile_ms(op_s, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(op_s), q)) * 1000.0


def peak_rss_mb(workload) -> float:
    # the CLI workload's process of interest is each fresh CLI process
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> dict:
    from workloads import Outcome

    outcome = Outcome()
    host = HostSpeed()
    start = perf_counter()
    while not outcome.attempted or perf_counter() - start < seconds:
        outcome.add(workload.one_pass(host.after_op))
    op_s = outcome.op_s
    items_per_s = outcome.work / sum(op_s)
    ref_s = host.ref_s()
    p50_ms = percentile_ms(op_s, 0.5)
    metrics = {"items_per_ref_s": items_per_s * ref_s, "peak_rss_mb": peak_rss_mb(workload)}
    named = {
        "catalog": {
            "catalog_materials_per_s": items_per_s,
            "catalog_material_ms_p50": p50_ms,
            "catalog_material_ms_p99": percentile_ms(op_s, 0.99),
        },
        "sphere_scan": {"scan_directions_per_s": items_per_s},
        "pure_search": {"pure_search_s_p50": p50_ms / 1000.0,
                        "pure_searches_per_s": items_per_s},
        "cli_cold": {"cli_s_p50": p50_ms / 1000.0},
    }[workload.name]
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["failed_frac"] = outcome.failed / outcome.attempted
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures[:5],
        "metrics": metrics,
        "named": named,
        "samples": {"ops": len(op_s), "work": outcome.work, "unit": workload.unit,
                    "items_per_s": items_per_s, "ref_s": ref_s,
                    "ref_samples": host.units,
                    "measured_s": perf_counter() - start},
    }


def layer_values(workload, profile, extras: dict) -> dict:
    """Per-layer figures of one traced pass, keyed as in BENCHMARK.json."""
    items = len(workload.items)
    directions = getattr(workload, "count", 0) * items if workload.name == "sphere_scan" else 0
    refines = profile.calls["acoustics.refine"]
    hits = extras.get("acoustics.pure_hits", 0)
    values = {
        "decomp.sa_split.calls_per_material": profile.calls["decomp.sa_split"] / items,
        "decomp.so3_refine.calls_per_material": profile.calls["decomp.so3_refine"] / items,
        "decomp.sa_split.calls_per_direction": (
            profile.within[("report.scan_rows", "decomp.sa_split")] / directions
            if directions else 0.0),
        "report.decomposition_report.sa_split_per_material": profile.within[
            ("report.decomposition_report", "decomp.sa_split")] / items,
        "report.decomposition_report.so3_refine_per_material": profile.within[
            ("report.decomposition_report", "decomp.so3_refine")] / items,
        "acoustics.neighbour_search_s": profile.self_s["acoustics.neighbour_search"],
        "acoustics.pure_hits": hits,
        "acoustics.pure_hit_yield": hits / refines if refines else 0.0,
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        "cli.import_scipy_s": 0.0,
        "cli.import_click_s": 0.0,
        "cli.command_s": 0.0,
    }
    values.update(extras)
    for name, count in profile.calls.items():
        values[f"{name}.calls"] = count
    for name, seconds in profile.self_s.items():
        values[f"{name}.self_s"] = seconds
    return values


def measure_traced(workload, tracer, seconds: float, names: list) -> dict:
    import numpy as np

    from workloads import Outcome

    tracer.install()
    outcome = Outcome()
    plain_s, traced_s, passes, edges = [], [], [], None
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        plain = workload.one_pass()
        traced, profile, extras = workload.traced_pass()
        outcome.add(plain)
        outcome.add(traced)
        plain_s.append(sum(plain.op_s))
        traced_s.append(sum(traced.op_s))
        passes.append(layer_values(workload, profile, extras))
        edges = edges or {f"{p} > {c}": n for (p, c), n in sorted(profile.edges.items())}
    tracer.uninstall()

    metrics = {}
    for name in names:
        if name == "trace_overhead_frac":
            metrics[name] = float(np.median(traced_s) / np.median(plain_s) - 1.0)
        elif name in passes[0] or name.endswith((".calls", ".self_s")):
            values = [p.get(name, 0) for p in passes]
            median = float(np.median(values))
            whole = all(isinstance(v, int) for v in values) and median.is_integer()
            metrics[name] = int(median) if whole else median
        else:
            raise KeyError(f"no per-layer value named {name}")
    count_names = [k for k in passes[0] if k.endswith(".calls")]
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures[:5],
        "metrics": metrics,
        "named": {"failed_frac": outcome.failed / outcome.attempted},
        "samples": {"traced_passes": len(passes), "items_per_pass": len(workload.items),
                    "counts_repeat": all(p.get(k) == passes[0][k]
                                         for p in passes for k in count_names),
                    "measured_s": perf_counter() - start},
        "span_edges": edges,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # SystemExit unwinds subprocess.run, which kills and reaps its CLI process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import cauchykit

    source = Path(cauchykit.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: cauchykit imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.small, args.workdir, tracer)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = measure_traced(workload, tracer, args.seconds,
                                [m["name"] for m in spec["per_layer"]])
    else:
        result = measure(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
