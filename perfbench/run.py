"""Benchmark of infoeff: one seeded workload, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. The inputs are generated here, then
each workload runs in fresh child processes (worker.py) that import infoeff
from ./src and call `infoeff.cli.main` in-process, one operation at a time
(a closed loop with one client).

--trace 0 measures the end-to-end metrics with no wrappers installed.
On a shared 2-vCPU VM the CPU speed swung by up to 2x within seconds, so
every time is rescaled to a reference speed: a measured time t is reported
as t * REFERENCE_KERNEL_S[kernel] / k, where k is the median time of a
fixed kernel (worker.KERNELS) sampled by the same process while t was
measured. Pass times use the kernel the workload's spec names, whose kind
of work slows like the workload's own; setup times use the interpreted
kernel. wall_s and cpu_s are medians over passes of the rescaled pass
times. setup_s is the median, over SETUP_PROBES short-lived children plus
the workload child, of the rescaled time from starting a child until it has
imported infoeff and run its warm-up. The measured times are printed beside
them.

--trace 1 runs the workload untraced and then traced (tracer.py), reports
per-layer metrics (medians over passes, in measured seconds) plus the
tracing overhead, and fails the run's correctness if the two runs' output
digests differ.

The metric names and units are those of BENCHMARK.json. The last stdout line
is a JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it and .perfbench/results/ hold the details: the workload's own
throughput name, failed_ratio, percentiles with their sample counts, output
digests and machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
# Each kernel's time at the reference speed: round figures. On the 2-vCPU
# Xeon VM the benchmark was tuned on, the kernels took 0.6 to 1.1 ms and
# 0.3 to 0.7 ms.
REFERENCE_KERNEL_S = {"interpreted": 1e-3, "numpy": 5e-4}
# How long a child may run beyond the spec's seconds.
CHILD_TIMEOUT_S = 150.0
# Child-only environment: one BLAS/OpenMP thread, fixed hashing.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    """A workload child did not start, did not finish, or wrote no result."""


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def run_child(workdir: Path, tag: str, setup_only: bool, timeout: float) -> tuple[float, dict]:
    """Start worker.py on workdir/spec.json; return (setup seconds, its result)."""
    result_path = workdir / f"result-{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "spec.json", result_path.name]
    if setup_only:
        argv.append("--setup-only")
    log_path = workdir / f"worker-{tag}.log"
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env={**os.environ, **CHILD_ENV},
                                stdout=subprocess.PIPE, stderr=log)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else b""
            setup_s = perf_counter() - start
            proc.wait(timeout=max(1.0, timeout - setup_s))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line != b"ready\n" or proc.returncode != 0:
        log_tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise WorkerError(f"worker {tag} failed (exit {proc.returncode}):\n{log_tail}")
    return setup_s, json.loads(result_path.read_text(encoding="utf-8"))


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 else values[0]


def latency_note(name: str, seconds: list[float]) -> str:
    """Median latency, plus the p95 when at least ten samples lie beyond it."""
    note = f"{name}_p50_us = {percentile(seconds, 50) * 1e6:.6g} us"
    if len(seconds) >= 200:
        note += f", {name}_p95_us = {percentile(seconds, 95) * 1e6:.6g} us"
    return note + f" (over {len(seconds)} operations)"


def count(passes: list[dict]) -> tuple[int, int, list[str]]:
    failures = [f for p in passes for f in p["failures"]]
    return sum(p["attempted"] for p in passes), len(failures), failures


def rescaled(seconds: float, kernel_s: float, kernel: str = "interpreted") -> float:
    """A time measured while `kernel` took kernel_s, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S[kernel] / kernel_s


def end_to_end(spec: dict, result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    passes = result["passes"]
    kernel = spec["speed_kernel"]
    wall = statistics.median(rescaled(p["wall_s"], p["kernel_s"], kernel) for p in passes)
    ops = [t for p in passes for t in p["op_s"]]
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(rescaled(p["cpu_s"], p["kernel_s"], kernel) for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(rescaled(*setup) for setup in setups),
        "items_per_s": spec["items"] / wall,
    }
    attempted, failed, _ = count(passes)
    notes = [
        f"{spec['item_name']}_per_s = {values['items_per_s']:.6g} 1/s "
        f"({spec['items']} {spec['item_name']} per pass, {len(passes)} passes)",
        f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)",
        latency_note(spec["op_name"], ops),
        f"setup_s over {len(setups)} child starts",
        f"measured wall_s = {statistics.median(p['wall_s'] for p in passes):.6g} s, "
        f"setup_s = {statistics.median(s for s, _ in setups):.6g} s; {kernel} kernel at "
        f"{statistics.median(p['kernel_s'] for p in passes) / REFERENCE_KERNEL_S[kernel]:.4g}x "
        "its reference time",
    ]
    digests = {p["digest"] for p in passes}
    notes.append(f"digest sha256 {passes[0]['digest']}"
                 + ("" if len(digests) == 1 else f" (passes disagree: {len(digests)} digests)"))
    return values, notes


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    passes = traced["passes"]
    names = passes[0]["layers"]
    values = {name: statistics.median(p["layers"][name] for p in passes) for name in names}
    values.update(traced["alloc"])
    values["cli.output_bytes"] = statistics.median(p["output_bytes"] for p in passes)
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    base_wall = statistics.median(p["wall_s"] for p in untraced["passes"])
    values["trace.overhead_s"] = traced_wall - base_wall
    notes = [f"per-layer values are medians over {len(passes)} traced passes; "
             f"traced wall {traced_wall:.6g} s vs untraced {base_wall:.6g} s"]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "infoeff" / "__init__.py").is_file():
        sys.stderr.write(f"error: no infoeff package under {src}; run from a checkout root\n")
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    facts = machine_facts()
    bench_dir = root / ".perfbench"
    results_dir = bench_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=bench_dir))
    try:
        spec = workloads.build(args.workload, args.seed, workdir)
        # Write the inputs back to disk now, not while a workload is timed.
        for path in workdir.iterdir():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        spec.update(src=str(src), spans_path=str(results_dir / f"{stem}-spans.json"))

        def child(tag: str, setup_only: bool = False, **changes) -> tuple[float, dict]:
            spec.update(changes)
            (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
            return run_child(workdir, tag, setup_only, spec["seconds"] + CHILD_TIMEOUT_S)

        if args.trace:
            # Each of the two runs gets half the time, so a traced run
            # takes about as long as an untraced one.
            _, untraced = child("untraced", seconds=args.seconds / 2, trace=False)
            _, traced = child("traced", trace=True)
            all_passes = untraced["passes"] + traced["passes"] + [traced["alloc_pass"]]
            values, notes = per_layer(untraced, traced)
            section = "per_layer"
        else:
            children = [child(f"probe{i}", True, seconds=args.seconds, trace=False)
                        for i in range(SETUP_PROBES)]
            children.append(child("timed"))
            result = children[-1][1]
            setups = [(setup_s, res["setup_kernel_s"]) for setup_s, res in children]
            all_passes = result["passes"]
            values, notes = end_to_end(spec, result, setups)
            section = "end_to_end"
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failures = count(all_passes)
    digests = sorted({p["digest"] for p in all_passes})
    correct = failed == 0
    if args.trace and len(digests) != 1:
        correct = False
        notes.append(f"traced and untraced outputs differ: {len(digests)} distinct digests")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in benchmark[section]}
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "metrics": metrics, "digests": digests,
        "notes": notes, "failures": failures[:50],
        "pass_wall_s": [p["wall_s"] for p in all_passes],
        "pass_cpu_s": [p["cpu_s"] for p in all_passes],
        "pass_kernel_s": [p.get("kernel_s") for p in all_passes],
        "setups": None if args.trace else setups,
    }, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:<16.6g} {metric['unit']}")
    for line in notes + failures[:10]:
        print(f"  {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
