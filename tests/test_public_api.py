"""The public surface: every exported name exists, and the README's library
example runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import coulscat

MODULES = sorted(m.name for m in pkgutil.iter_modules(coulscat.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"coulscat.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert 0.0 <= namespace["p"] <= 1.0


def _readme_cli_flags():
    """{command: flags} from the README's CLI table, with the group names
    (scenario, model, output) expanded from the list above the table."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    groups = {m.group(1): set(re.findall(r"--[\w-]+", m.group(2)))
              for m in re.finditer(r"^- \*(\w+)\*: (.*(?:\n  .*)*)", section, re.M)}
    table = {}
    for command, cell in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, re.M):
        items = [item.strip() for item in cell.split(",")]
        table[command] = set().union(*(groups.get(item, set()) for item in items),
                                     re.findall(r"--[\w-]+", cell))
    return table


def test_readme_cli_table_matches_each_commands_help(capsys):
    from coulscat.cli import main

    assert main(["--help"]) == 0
    commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    readme = _readme_cli_flags()
    assert set(readme) <= set(commands)
    for command in commands:
        assert main([command, "--help"]) == 0
        shown = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert shown - {"--help"} == readme.get(command, set()), command
