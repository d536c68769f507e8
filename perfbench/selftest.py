"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced on the same seed. It
prints each run's report and asserts that every operation passed its check.
It also asserts that the traced run's output digest equals the untraced
run's, so tracing never changes an output byte. Last, it asserts that run.py
fails, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEED = "1"
SECONDS = "1"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(HERE.name) / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    root = Path.cwd()
    for workload in workloads.WORKLOADS:
        digests = []
        for trace in ("0", "1"):
            proc = run(root, "--workload", workload, "--seed", SEED,
                       "--seconds", SECONDS, "--trace", trace)
            sys.stdout.write(proc.stdout)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, f"{workload} trace {trace} failed"
            stem = f"{workload}-seed{SEED}-trace{trace}"
            report = json.loads((root / ".perfbench" / "results" / f"{stem}.json").read_text())
            digests.append(report["digests"])
        assert digests[0] == digests[1], f"{workload}: traced outputs differ from untraced"

    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", workloads.WORKLOADS[0], "--seed", SEED, "--seconds", SECONDS)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "run.py succeeded without infoeff"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
