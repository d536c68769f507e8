import importlib.util
import sys
from pathlib import Path

import pytest


def load_mutate():
    path = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
    spec = importlib.util.spec_from_file_location("mutate", path)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return mutate


def test_mutate_stops_when_its_records_go_stale(monkeypatch):
    mutate = load_mutate()
    # This tree is checked without the recorded equivalents: under the tool
    # itself, a mutant at a recorded site changes that site's key, and this
    # test would then kill it by reading the mutated source.
    monkeypatch.setattr(mutate, "EQUIVALENT", set())
    keys = {key for _, key, _ in mutate.mutants()}
    assert keys and all(key.split(":")[0] in mutate.TARGETS for key in keys)

    monkeypatch.setattr(mutate, "EQUIVALENT", {min(keys), "kelly.py:gone: a + b [+ -> -]"})
    with pytest.raises(SystemExit, match=r"equivalent kelly\.py:gone: a \+ b \[\+ -> -\]:"):
        mutate.mutants()

    monkeypatch.setattr(mutate, "TARGETS", {**mutate.TARGETS, "kelly.py": ("simulate", "gone")})
    with pytest.raises(SystemExit, match="kelly.py defines no function gone: update TARGETS"):
        mutate.mutants()


@pytest.mark.parametrize("arg, code", [("--help", 0), ("-h", 0), ("--dry-run", 2), ("x", 2)])
def test_mutate_reads_its_command_line_before_any_run(monkeypatch, capsys, arg, code):
    mutate = load_mutate()

    def no_run():
        raise AssertionError("a mutation run started")

    monkeypatch.setattr(mutate, "mutants", no_run)
    monkeypatch.setattr(sys, "argv", ["tools/mutate.py", arg])
    with pytest.raises(SystemExit) as stop:
        mutate.main()
    assert stop.value.code == code
    out, err = capsys.readouterr()
    # Help prints the whole docstring; a refusal prints the usage line and the error.
    assert (out, err)[code != 0].startswith("usage: python tools/mutate.py [-h]\n")
    assert (mutate.__doc__ in out) == (code == 0)
