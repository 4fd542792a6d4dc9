"""The README's library example runs as documented."""

import re
from pathlib import Path

from azw import CyclotomicForm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["form"] == CyclotomicForm(0, (), (4, 4))
    assert scope["value"] == scope["same"]
