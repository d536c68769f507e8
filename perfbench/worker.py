"""One workload process: import infoeff, warm up, then run timed passes.

Usage: worker.py SPEC RESULT [--setup-only]

Run with the workload's directory as the working directory. The process
prints "ready" once `infoeff` is imported and the warm-up operations have
run. It then times the interpreted kernel, which gauges the host's speed; with
--setup-only it writes that to RESULT and exits. Otherwise it runs passes
over the spec's operations until the spec's seconds have elapsed (and at
least MIN_PASSES have run), checks every operation's output, and writes the
timings, the kernel times, failures, output digests and peak RSS to RESULT
as JSON. Untraced passes run with a SpeedProbe; the time its handler takes
is left out of the operations' times.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import workloads

MIN_PASSES = 3
# The host's speed is sampled by timing fixed work: every PROBE_EVERY_S
# while passes run, with the kernel the workload's spec names, and
# SETUP_KERNEL_RUNS times after setup, with the interpreted kernel.
PROBE_EVERY_S = 0.05
SETUP_KERNEL_RUNS = 10
INTERPRETED_LOOP = 10_000
INTERPRETED_KEYS = 750
_NUMPY_ARRAY = np.arange(1.0, 50_001.0)


def interpreted_kernel() -> float:
    """Seconds taken by a fixed loop of integer additions, then a fixed loop
    of string formatting and dict updates (allocation and hashing)."""
    start = perf_counter()
    total = 0
    for k in range(INTERPRETED_LOOP):
        total += k
    counts: dict[str, int] = {}
    for k in range(INTERPRETED_KEYS):
        key = f"y{k % 32},x{k % 16}"
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - start


def numpy_kernel() -> float:
    """Seconds taken by fixed whole-array numpy work: log2, then cumsum."""
    start = perf_counter()
    np.cumsum(np.log2(_NUMPY_ARRAY))
    return perf_counter() - start


KERNELS = {"interpreted": interpreted_kernel, "numpy": numpy_kernel}


class SpeedProbe:
    """Times a kernel every PROBE_EVERY_S from a SIGALRM handler.

    The handler runs between bytecodes of whatever the process is doing, so
    the samples follow the host's speed during an operation, not only
    between operations. The time the handler takes is kept, so that
    callers can subtract it from what they time.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _handler(self, signum, frame) -> None:
        wall, cpu = perf_counter(), process_time()
        self.samples.append(self.kernel())
        self.spent_cpu += process_time() - cpu
        self.spent_wall += perf_counter() - wall

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def run_op(op: dict, mods: dict, probe: SpeedProbe | None = None) -> tuple[int, str, tuple | None, float, float]:
    """Run one operation: (exit code, stdout, in-process results, wall s, cpu s)."""
    stdout = io.StringIO()
    spent = (probe.spent_wall, probe.spent_cpu) if probe else (0.0, 0.0)
    wall, cpu = perf_counter(), process_time()
    with contextlib.redirect_stdout(stdout):
        code = mods["cli"].main(op["argv"])
    extra = None
    if op["kind"] == "point" and code == 0:
        coin, kelly = mods["coin"], mods["kelly"]
        prior, channel, quotes = coin.coin_components(coin.CoinGameParams(*op["params"]))
        market = kelly.MarketParams(prior, channel, quotes)
        strategy = kelly.kelly_strategy(prior, channel)
        _, grid_growth = kelly.grid_search_optimal(market, workloads.GRID_RESOLUTION)
        extra = (kelly.expected_log2_growth(market, strategy), grid_growth)
    wall, cpu = perf_counter() - wall, process_time() - cpu
    if probe:
        wall -= probe.spent_wall - spent[0]
        cpu -= probe.spent_cpu - spent[1]
    return code, stdout.getvalue(), extra, wall, cpu


def run_pass(ops: list[dict], mods: dict, probe: SpeedProbe | None = None) -> dict:
    digest = hashlib.sha256()
    walls, cpu, failures, output_bytes = [], 0.0, [], 0
    for op in ops:
        try:
            code, stdout, extra, op_wall, op_cpu = run_op(op, mods, probe)
        except Exception as exc:  # an operation that raises counts as failed
            failures.append(f"{op['argv'][0]}: {type(exc).__name__}: {exc}")
            continue
        walls.append(op_wall)
        cpu += op_cpu
        files = {name: Path(name).read_bytes() for name in op.get("files", ())}
        output_bytes += len(stdout.encode("utf-8")) + sum(map(len, files.values()))
        digest.update(stdout.encode("utf-8"))
        for name, data in files.items():
            digest.update(name.encode("utf-8") + b"\0" + data)
        if extra is not None:
            digest.update(repr(extra).encode("ascii"))
        if code != 0:
            failures.append(f"{op['argv'][0]}: exit code {code}")
            continue
        try:
            workloads.check(op, stdout, files, extra)
        except workloads.CheckFailed as exc:
            failures.append(f"{' '.join(op['argv'])}: {exc}")
    return {
        "wall_s": sum(walls),
        "cpu_s": cpu,
        "op_s": walls,
        "attempted": len(ops),
        "failures": failures,
        "digest": digest.hexdigest(),
        "output_bytes": output_bytes,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    mods = {name: importlib.import_module(f"infoeff.{name}") for name in ("cli", "coin", "kelly")}
    if not mods["cli"].__file__.startswith(spec["src"]):
        raise ImportError(f"infoeff imported from {mods['cli'].__file__}, not {spec['src']}")
    for op in spec["warmup"]:
        run_op(op, mods)
    print("ready", flush=True)
    result = {"setup_kernel_s": statistics.median(interpreted_kernel() for _ in range(SETUP_KERNEL_RUNS))}
    if "--setup-only" in argv:
        Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import ALLOCATING, Tracer

        tracer = Tracer()
        tracer.install()
    probe = None if tracer else SpeedProbe(KERNELS[spec["speed_kernel"]])
    if probe:
        probe.start()
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < spec["seconds"]:
        first = len(tracer.spans) if tracer else len(probe.samples)
        passes.append(run_pass(spec["ops"], mods, probe))
        if tracer:
            passes[-1]["layers"] = tracer.pass_metrics(first, len(tracer.spans))
        else:
            passes[-1]["kernel_s"] = statistics.median(probe.samples[first:] or [probe.kernel()])
    if probe:
        probe.stop()
    result["passes"] = passes
    if tracer:
        # tracemalloc slows allocation, so peaks come from one extra pass
        # whose timings are not used.
        first = len(tracer.spans)
        tracer.track_alloc = True
        result["alloc_pass"] = run_pass(spec["ops"], mods)
        peaks = tracer.pass_metrics(first, len(tracer.spans))
        result["alloc"] = {metric: peaks[metric] for metric in ALLOCATING.values()}
        tracer.dump(spec["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
