"""Mutation check of the numeric core: which operator swaps does tier-1 miss?

Usage: python tools/mutate.py [-h | --help]

The checkout is copied, without `.git`, to a temporary directory, and only
that copy is ever rewritten. Tier-1 first runs there on the target modules
as `ast.unparse` writes them, unmutated, and must pass. Then each mutant
swaps one operator in one target function (+ and -, * and /, < and <=,
> and >=, == and !=, `and` and `or`, augmented assignments included) and
tier-1 runs on it with `-x --hypothesis-seed=0`. A run that fails, errors,
or outlasts ten times the unmutated run (at least 60 s) kills its mutant.
Each run starts without a Hypothesis example database or bytecode cache, so
a run depends on its own mutant only. Tier-1 took 36 s unmutated on a
shared 2-vCPU machine, and one full check of 97 mutants 923 s (about 15
minutes); its summary line gives the mutant count and the total wall time.

Each run's verdict is printed as it ends, with its wall time, and the total
wall time at the end. Every survivor is then printed, marked `equivalent`
when it is recorded below.
The exit status is 0 when every survivor is recorded, 1 when one is not,
and 2 when the unmutated tree fails or an argument other than -h or --help
is given. Before any run the check stops with status 1 when a function named
in TARGETS is gone, or when no mutant carries a recorded equivalent, naming
it. SIGTERM stops the check with status 143 as an exception would: the
running tier-1, in a session of its own, is killed with its process group,
and the temporary copy is removed.

Needs nothing beyond the standard library, pytest and hypothesis.

Recorded equivalents, each keyed as printed, with why no input tells the
mutant from the code:

- measures.py:_quotes: abs(total - 1.0) <= SUM_TOL [<= -> <]
- probability.py:_check_prob_vector: abs(total - 1.0) <= SUM_TOL [<= -> <]
- probability.py:normalize: abs(s - 1.0) <= NORMALIZED_TOL [<= -> <]
  Near 1 a float sum minus 1 is exact and a multiple of 2^-53, and neither
  1e-9 nor 1e-13 is one (1e-9 * 2^53 = 9007199.25..., 1e-13 * 2^53 =
  900.72...), so no input lands on either boundary.
- kelly.py:simulate: edge <= u [<= -> <]
- kelly.py:simulate: edge <= head [<= -> <]
  The two differ only when a uniform double lands exactly on a cell edge.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "infoeff"
# Module -> the functions mutated in it; None mutates every function.
TARGETS = {
    "measures.py": None,
    "efficiency.py": None,
    "estimation.py": (
        "_smoothed_joint", "estimate_joint", "_bootstrap", "_percentile_ci", "estimate_efficiency",
    ),
    "kelly.py": (
        "simulate", "_drawn", "_log2_wealth", "expected_log2_growth", "grid_search_optimal",
        "_log2_payout_matrix",
    ),
    "probability.py": (
        "_check_prob_vector", "_bayes_rows", "normalize", "joint_from_prior_channel",
        "compose_channels",
    ),
}
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or",
}
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
         "--continue-on-collection-errors"]
EQUIVALENT = {line[2:] for line in __doc__.splitlines() if line.startswith("- ")}


def _sites(tree: ast.Module, names) -> list[tuple[str, ast.AST, int | None]]:
    """(function, node, index into a comparison's ops or None) per swappable operator, in order."""
    sites = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or (names is not None and func.name not in names):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                if type(node.op) in SWAPS:
                    sites.append((func.name, node, None))
            elif isinstance(node, ast.Compare):
                sites += [(func.name, node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
    return sites


def _swap(node: ast.AST, k: int | None) -> tuple[str, str]:
    """Swap the operator of `node` (its k-th comparison when k is set); return (old, new)."""
    if k is None:
        old = type(node.op)
        node.op = SWAPS[old]()
    else:
        old = type(node.ops[k])
        node.ops[k] = SWAPS[old]()
    return SYMBOLS[old], SYMBOLS[SWAPS[old]]


def mutants() -> list[tuple[str, str, str]]:
    """(module, key, mutated source) for every mutant, keys as EQUIVALENT holds them."""
    found = []
    for module, names in TARGETS.items():
        source = (ROOT / PACKAGE / module).read_text(encoding="utf-8")
        parsed = ast.parse(source)
        defined = {f.name for f in ast.walk(parsed) if isinstance(f, ast.FunctionDef)}
        if missing := sorted(set(names or ()) - defined):
            sys.exit(f"{module} defines no function {', '.join(missing)}: update TARGETS")
        for i in range(len(_sites(parsed, names))):
            tree = ast.parse(source)  # a fresh tree per mutant, walked in the same order
            func, node, k = _sites(tree, names)[i]
            text = ast.unparse(node)
            old, new = _swap(node, k)
            found.append((module, f"{module}:{func}: {text} [{old} -> {new}]", ast.unparse(tree)))
    if stale := sorted(EQUIVALENT - {key for _, key, _ in found}):
        sys.exit(f"no mutant carries the recorded equivalent {'; '.join(stale)}: update the list")
    return found


def tier1(tree: Path, timeout: float) -> str:
    """Run tier-1 in `tree` and return "passed", "failed" or "timeout"."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, *TIER1], cwd=tree, env=env, start_new_session=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as child:
        try:
            return "passed" if child.wait(timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            return "timeout"
        finally:  # whatever the way out, nothing the run started outlives it
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)


def main() -> int:
    argparse.ArgumentParser(prog="python tools/mutate.py", description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    # SystemExit unwinds the `with` blocks: the run's process group and the copy go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    found = mutants()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "*.egg-info"))
        unmutated = {m: ast.unparse(ast.parse((ROOT / PACKAGE / m).read_text(encoding="utf-8")))
                     for m in TARGETS}
        for module, text in unmutated.items():
            (tree / PACKAGE / module).write_text(text, encoding="utf-8")
        start = time.monotonic()
        if tier1(tree, None) != "passed":
            print("the unmutated tree fails tier-1", file=sys.stderr)
            return 2
        unmutated_s = time.monotonic() - start
        print(f"unmutated: passed in {unmutated_s:.1f} s", flush=True)
        timeout = max(60.0, 10 * unmutated_s)
        survivors = []
        for i, (module, key, text) in enumerate(found, start=1):
            path = tree / PACKAGE / module
            path.write_text(text, encoding="utf-8")
            began = time.monotonic()
            outcome = tier1(tree, timeout)
            path.write_text(unmutated[module], encoding="utf-8")
            print(f"[{i}/{len(found)}] {'survived' if outcome == 'passed' else outcome} in "
                  f"{time.monotonic() - began:.1f} s: {key}", flush=True)
            if outcome == "passed":
                survivors.append(key)
    print(f"\n{len(found) - len(survivors)} of {len(found)} mutants killed in "
          f"{time.monotonic() - start:.0f} s in all; survivors:")
    for key in survivors:
        print(f"  {key}{'  (equivalent)' if key in EQUIVALENT else ''}")
    return 0 if set(survivors) <= EQUIVALENT else 1


if __name__ == "__main__":
    sys.exit(main())
