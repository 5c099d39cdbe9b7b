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
