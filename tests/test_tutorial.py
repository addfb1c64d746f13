"""docs/tutorial.md and README.md run as written: every python block of
each, in order."""

import functools
import re
from pathlib import Path

from repro.graph import datasets

ROOT = Path(__file__).resolve().parent.parent
TUTORIAL = ROOT / "docs" / "tutorial.md"
README = ROOT / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def _run_blocks(doc: Path, blocks: list[str], tmp_path, monkeypatch) -> None:
    """Exec ``blocks`` in one namespace, in order, from ``tmp_path`` (where
    relative paths — spill, checkpoint, trace — land), with the stand-in
    datasets loading at their smallest profile."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(datasets, "load", functools.partial(datasets.load, profile="tiny"))
    namespace: dict[str, object] = {"__name__": doc.stem}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"{doc.name}[block {number}]", "exec"), namespace)


def test_tutorial_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks(TUTORIAL.read_text(encoding="utf-8"))
    assert len(blocks) >= 8
    _run_blocks(TUTORIAL, blocks, tmp_path, monkeypatch)
    capsys.readouterr()
    assert (tmp_path / "trace.json").exists()


def test_readme_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2  # the quickstart and the out-of-core engine
    _run_blocks(README, blocks, tmp_path, monkeypatch)
    assert capsys.readouterr().out
