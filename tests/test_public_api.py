"""The public surface: every exported name exists, the command line and
the tools reach the package through public names only, and the README
documents that surface and nothing private: its library example runs as
written, it names every public name, flag and exit code, and no private
name of the package."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import coulscat

MODULES = sorted(m.name for m in pkgutil.iter_modules(coulscat.__path__))
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"coulscat.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


PACKAGE_MODULES = {"coulscat"} | {f"coulscat.{name}" for name in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_of(node, modules: dict):
    """The coulscat module that the expression `node` names, or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        parent = _module_of(node.value, modules)
        if parent and f"{parent}.{node.attr}" in PACKAGE_MODULES:
            return f"{parent}.{node.attr}"
    return None


def _private_uses(path: Path) -> list:
    """Each `_`-prefixed name of a coulscat module that the file reads as an
    attribute or imports, as `module.name`.  Imports anywhere in the file
    bind their names for the whole file; a relative import is one inside
    the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in PACKAGE_MODULES and alias.asname:
                    modules[alias.asname] = alias.name
                elif alias.name in PACKAGE_MODULES:
                    # `import coulscat.scan` binds the name coulscat
                    modules["coulscat"] = "coulscat"
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["coulscat" if node.level else None,
                                          node.module]))
            if base not in PACKAGE_MODULES:
                continue
            for alias in node.names:
                name = f"{base}.{alias.name}"
                if _private(alias.name):
                    found.append(name)
                elif name in PACKAGE_MODULES:
                    modules[alias.asname or alias.name] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            module = _module_of(node.value, modules)
            if module:
                found.append(f"{module}.{node.attr}")
    return found


@pytest.mark.parametrize("path", [ROOT / "src" / "coulscat" / "cli.py",
                                  *sorted((ROOT / "tools").glob("*.py"))],
                         ids=lambda path: path.name)
def test_cli_and_tools_use_public_names_only(path):
    assert _private_uses(path) == []


def test_private_uses_are_found(tmp_path):
    path = tmp_path / "uses.py"
    path.write_text("import coulscat.scan as s\n"
                    "from . import observables\n"
                    "from coulscat import partialwave as pw, build_table\n"
                    "from coulscat.specfun import _row_at\n"
                    "def f():\n"
                    "    import coulscat\n"
                    "    return (observables._peaks, pw._check_budget, s._BATCH,\n"
                    "            coulscat.kinematics._positive_finite, coulscat.__version__,\n"
                    "            build_table._x, observables.delta_peaks)\n")
    assert sorted(_private_uses(path)) == [
        "coulscat.kinematics._positive_finite", "coulscat.observables._peaks",
        "coulscat.partialwave._check_budget", "coulscat.scan._BATCH",
        "coulscat.specfun._row_at"]


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


def _help_flags(capsys) -> dict:
    """{command: flags} as each command's `--help` shows them, without
    `--help` itself."""
    from coulscat.cli import main

    assert main(["--help"]) == 0
    commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    flags = {}
    for command in commands:
        assert main([command, "--help"]) == 0
        shown = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
        flags[command] = shown - {"--help"}
    return flags


def test_readme_cli_table_matches_each_commands_help(capsys):
    readme = _readme_cli_flags()
    shown = _help_flags(capsys)
    assert set(readme) <= set(shown)
    for command, flags in shown.items():
        assert flags == readme.get(command, set()), command


def _readme_code(text: str) -> str:
    """README's code: its fenced blocks and its inline code spans."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return "\n".join(blocks + re.findall(r"`([^`\n]+)`", prose))


def _public_names() -> set:
    """Every name in a module's `__all__`, and every name the package
    itself exports (the errors and the kinematics have no `__all__`)."""
    names = {name for name, value in vars(coulscat).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    for module in MODULES:
        names |= set(getattr(importlib.import_module(f"coulscat.{module}"), "__all__", ()))
    return names


def test_readme_names_no_private_attribute():
    words = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    private = {f"{module}.{name}" for module in MODULES
               for name in vars(importlib.import_module(f"coulscat.{module}"))
               if _private(name) and name in words}
    assert not private


def test_readme_names_every_public_name_and_flag(capsys):
    code = _readme_code(README.read_text(encoding="utf-8"))
    assert not _public_names() - set(re.findall(r"\w+", code))
    flags = set().union(*_help_flags(capsys).values())
    assert not flags - set(re.findall(r"--[\w-]+", code))


def test_readme_module_attributes_exist():
    code = _readme_code(README.read_text(encoding="utf-8"))
    named = re.findall(rf"\b({'|'.join(MODULES)})\.(\w+)", code)
    assert named
    # `<module>.py` is the module's file name
    missing = [f"{module}.{name}" for module, name in named
               if name != "py" and not hasattr(importlib.import_module(f"coulscat.{module}"), name)]
    assert not missing


def test_readme_states_every_exit_code():
    from coulscat import cli

    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1]
    stated = {int(code) for code in re.findall(r"^\| (\d+) \| ", section, re.M)}
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert stated == codes == {0, 2, 3, 4}
