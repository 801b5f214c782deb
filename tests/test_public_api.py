import importlib
import re
import sys
from pathlib import Path

import pytest

import pafg

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_imports():
    namespace = {}
    exec("from pafg import *", namespace)  # a stale name in __all__ raises AttributeError
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pafg.__all__)


def test_one_pafg_record_is_exported():
    assert "Pafg" in pafg.__all__ and "CoordinatedPafg" not in pafg.__all__


def test_readme_python_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(example, {})
    assert "'sink_tokens': 4" in capsys.readouterr().out


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_installed_command_names_a_callable():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"pafg": "pafg.cli:main"}
    module, _, attr = scripts["pafg"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
