import re
from pathlib import Path

import pafg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_imports():
    namespace = {}
    exec("from pafg import *", namespace)  # a stale name in __all__ raises AttributeError
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pafg.__all__)


def test_readme_python_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(example, {})
    assert "'sink_tokens': 4" in capsys.readouterr().out
