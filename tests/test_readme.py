"""The README's Python API example runs as written, and its lists match the code."""

import re
from dataclasses import fields
from pathlib import Path

from charngram import RunConfig
from charngram.io import config_key

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, str(README), "exec"), {})
    cosine_line, shape_line = capsys.readouterr().out.splitlines()
    assert -1.0 <= float(cosine_line) <= 1.0
    assert shape_line == "(2, 50)"


def test_readme_config_keys_are_the_run_config_keys():
    bullet = README.read_text(encoding="utf-8").split("- **Config**:", 1)[1].split("\n- **", 1)[0]
    assert re.findall(r"`(\w+)`", bullet) == [config_key(f) for f in fields(RunConfig)]
