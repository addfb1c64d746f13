"""docs/tutorial.md runs as written: every python block, in order."""

import functools
import re
from pathlib import Path

from repro.graph import datasets

TUTORIAL = Path(__file__).resolve().parent.parent / "docs" / "tutorial.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_tutorial_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks(TUTORIAL.read_text(encoding="utf-8"))
    assert len(blocks) >= 8
    # Relative paths in the tutorial (spill, checkpoint, trace) land in
    # tmp_path; the stand-in datasets load at their smallest profile.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(datasets, "load", functools.partial(datasets.load, profile="tiny"))
    namespace: dict[str, object] = {"__name__": "tutorial"}
    for number, block in enumerate(blocks, start=1):
        code = compile(block, f"{TUTORIAL.name}[block {number}]", "exec")
        exec(code, namespace)
    capsys.readouterr()
    assert (tmp_path / "trace.json").exists()
