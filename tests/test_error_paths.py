"""Library error paths that no CLI path reaches, with their exact messages.

Also the public surface: the names exported, the errors among them, the
names README's Layout table promises, the CLI options and parse errors its
inline code names, and README's library quickstart, run as written.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

import infoeff
from infoeff import (
    CoinGameParams,
    DomainViolation,
    EmptyAlphabet,
    MarketParams,
    cli,
    closed_form_entropy,
    coin_components,
    kelly_strategy,
    make_distribution,
    simulate,
)
from test_cli_cases import CASES


def _simulate(**kwargs):
    prior, channel, quotes = coin_components(CoinGameParams(0.5, 0.9, 0.5))
    return simulate(MarketParams(prior, channel, quotes), kelly_strategy(prior, channel),
                    rounds=10, **{"seed": 1, **kwargs})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: make_distribution(["a", ""], [0.5, 0.5]), EmptyAlphabet,
         "distribution alphabet contains an empty label"),
        (lambda: _simulate(seed=-1), DomainViolation,
         "seed and run_index must be nonnegative"),
        (lambda: _simulate(run_index=-1), DomainViolation,
         "seed and run_index must be nonnegative"),
        (lambda: closed_form_entropy(1.5), DomainViolation,
         "p_tail must be in [0, 1], got 1.5"),
    ],
    ids=["empty-label", "negative-seed", "negative-run-index", "p-tail-above-1"],
)
def test_library_error_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_public_names_resolve_sorted_and_unique():
    names = infoeff.__all__
    assert [name for name in names if not hasattr(infoeff, name)] == []
    assert names == sorted(set(names))


def test_every_error_is_exported():
    errors = {
        name for name, obj in vars(infoeff.errors).items()
        if isinstance(obj, type) and issubclass(obj, infoeff.InfoEffError)
    }
    assert errors - set(infoeff.__all__) == set()


def test_readme_layout_names_exist():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in layout.splitlines() if line.startswith("| `")]
    missing = []
    for module_cell, contents in rows:
        module = importlib.import_module(module_cell.strip().strip("`"))
        names = re.findall(r"`([^`]+)`", contents)
        missing += [f"{module.__name__}.{n}" for n in names if not hasattr(module, n)]
    assert len(rows) == 7
    assert missing == []


def test_readme_options_exist():
    # A deleted option must not linger in the prose; fenced examples are left out.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    named = {option for span in re.findall(r"`([^`]+)`", prose)
             for option in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {option for parser in subcommands.values()
               for action in parser._actions for option in action.option_strings}
    assert "--out" in named
    assert sorted(named - options) == []


def test_readme_parse_errors_are_cases():
    # Each `line N, column M: ...` README quotes is how some CLI case's stderr ends.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    quoted = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]
    messages = [span for span in quoted if re.match(r"line \d+, column \d+: ", span)]
    endings = [case.stderr.rstrip("\n") for case in CASES.values()]
    assert "line 3, column 1: signal 'z' not in declared alphabet" in messages
    assert [m for m in messages if not any(end.endswith(m) for end in endings)] == []


def test_readme_quickstart_gives_its_commented_values(tmp_path, monkeypatch):
    # Each statement runs in turn; an expression commented with a number must
    # equal it, or lie within 0.005 of it where the number reads `~`.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    block = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    rows = ["h,h"] * 45 + ["t,h"] * 5 + ["h,t"] * 5 + ["t,t"] * 45
    (tmp_path / "samples.csv").write_text("signal,outcome\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace, claims = {}, []
    for node in ast.parse(block).body:
        claim = re.search(r"#\s*(~?)(\d[\d.]*)", block.splitlines()[node.end_lineno - 1])
        if isinstance(node, ast.Expr) and claim:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            near, number = claim.groups()
            expected = pytest.approx(float(number), abs=0.005) if near else float(number)
            claims.append((value, expected))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert len(claims) == 3
    assert [value for value, _ in claims] == [expected for _, expected in claims]


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert [m for m in modules if m.split(".")[0] == "infoeff"] == []
