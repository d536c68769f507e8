import importlib.util
from pathlib import Path

import pytest


def test_mutate_stops_when_its_records_go_stale(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
    spec = importlib.util.spec_from_file_location("mutate", path)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
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
