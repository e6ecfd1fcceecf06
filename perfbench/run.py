"""Benchmark entry point for cauchykit.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src`` directory and nowhere else.  Every workload process is
single-threaded: OpenBLAS, OpenMP and MKL are pinned to one thread.

Without tracing, set-up is done several times in fresh interpreters and
``setup_s`` is their median; the last of them goes on to measure.  With
``--trace 1`` one process sets up and reports per-layer figures.

The last line of standard output is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
are those listed in ``BENCHMARK.json``.  The line before it records the
environment, the seed, the per-workload metrics under their workload-specific
names, ``failed_frac`` and the first failures, if any.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3  # fresh-interpreter set-ups per untraced run; setup_s is their median
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workdir: Path, setup_only: bool) -> tuple[float, dict | None]:
    """Start a workload process; return its set-up seconds and its result."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--small"] if args.small else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(SETUP_TIMEOUT_S) and proc.stdout.readline()
        setup_s = perf_counter() - t0
        if ready != b"READY\n":
            raise BenchError(f"{args.workload} set-up did not finish")
        out, _ = proc.communicate(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.terminate()  # the worker stops its own CLI processes on SIGTERM
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} worker printed no result")
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cauchykit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run the clean-up below

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; known: {workloads}")
        if not (ROOT / "src" / "cauchykit" / "__init__.py").is_file():
            raise BenchError(f"no cauchykit source under {ROOT / 'src'}")
        scratch = BENCH / "_work"
        scratch.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
        try:
            setups = [run_worker(args, workdir / f"setup-{k}", setup_only=True)[0]
                      for k in range(0 if args.trace else SETUPS - 1)]
            setup_s, result = run_worker(args, workdir / "measure", setup_only=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                scratch.rmdir()
            except OSError:
                pass  # another run is using it
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append(setup_s)
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    named = {"setup_s": values["setup_s"], **result["named"]}
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "named": named,
        "setups_s": setups,
        "samples": result["samples"],
        "failures": result["failures"],
        **({"span_edges": result["span_edges"]} if args.trace else {}),
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
