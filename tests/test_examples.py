"""The example programs run as ``__main__`` and produce sane output.

Each runs in-process inside a temporary directory (temp files too), with
``datasets.load`` forced to the ``tiny`` profile, as
``tests/test_tutorial.py`` runs ``docs/tutorial.md``.
"""

import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro import KaleidoEngine
from repro.graph import datasets

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.fixture
def run_example(tmp_path, monkeypatch, capsys):
    """``run(script, *args)``: the script's stdout."""
    load = datasets.load
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(datasets, "load", lambda name, profile="tiny": load(name, "tiny"))

    def run(script: str, *args: str) -> str:
        monkeypatch.setattr(sys, "argv", [str(EXAMPLES / script), *args])
        capsys.readouterr()
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
        return capsys.readouterr().out

    return run


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(run_example, script):
    assert run_example(script).strip()


def test_quickstart_tiny(run_example):
    out = run_example("quickstart.py", "citeseer", "tiny")
    assert "Triangles:" in out
    assert "3-motif census" in out
    assert "Frequent 2-edge patterns" in out


def test_fraud_cliques(run_example):
    out = run_example("fraud_cliques.py")
    assert "planted rings recovered: 3/3" in out


def test_pattern_query(run_example):
    out = run_example("pattern_query.py")
    assert "(1, 2, 5)" in out
    assert "(2, 3, 5)" in out


def test_custom_app_census():
    """The labelled 3-star census on tiny citeseer, in print order."""
    app = runpy.run_path(str(EXAMPLES / "custom_app.py"))["LabeledStarCensus"]()
    result = KaleidoEngine(datasets.load("citeseer", "tiny")).run(app)
    assert list(result.value.items()) == [
        ((0, 0), 3575), ((5, 0), 892), ((0, 2), 147), ((3, 0), 86), ((5, 2), 84),
        ((0, 1), 72), ((2, 0), 50), ((4, 0), 50), ((0, 3), 40), ((0, 4), 37),
        ((1, 0), 36), ((5, 1), 35), ((0, 5), 13), ((4, 1), 11), ((1, 2), 10),
        ((2, 2), 5), ((3, 4), 4), ((4, 2), 3), ((2, 1), 2), ((1, 4), 2),
        ((5, 3), 1), ((5, 4), 1), ((2, 4), 1),
    ]


def test_out_of_core_demo_tiny(run_example):
    assert "identical motif censuses" in run_example("out_of_core_demo.py")


@pytest.mark.slow
def test_out_of_core_demo():
    """The demo at its own (bench) dataset size, in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "out_of_core_demo.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "identical motif censuses" in result.stdout


def test_examples_exist_and_have_docstrings():
    assert len(SCRIPTS) >= 6
    for name in SCRIPTS:
        text = (EXAMPLES / name).read_text(encoding="utf-8")
        assert text.lstrip().startswith('"""'), name
        assert "def main" in text or "__main__" in text, name


def test_edge_labeled_fsm(run_example):
    out = run_example("edge_labeled_fsm.py")
    assert "card" in out and "typed structure" in out
