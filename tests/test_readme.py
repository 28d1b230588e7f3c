"""The library example in the README runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(printed["energy error"]) < 0.2
    assert abs(float(printed["trace at center"]) - 1.0) < 0.01
