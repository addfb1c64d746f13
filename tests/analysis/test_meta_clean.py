"""The shipped source tree is violation-free — the acceptance gate.

If this test fails, either new code broke an engine contract (fix the
code) or the new code is a justified exception (add a
``# repro: ignore[RULE]`` with a rationale).
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths_report

SRC = Path(__file__).parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def report():
    """One whole-tree lint pass for both gates: its diagnostics are
    exactly ``lint_paths([SRC])``'s."""
    return lint_paths_report([SRC], report_unused_ignores=True)


def test_src_tree_is_violation_free(report):
    diagnostics = report.diagnostics
    assert diagnostics == [], "\n".join(diag.format() for diag in diagnostics)


def test_src_tree_has_no_unused_ignores(report):
    # Every '# repro: ignore[...]' in the tree must still be earning
    # its keep — stale suppressions hide future regressions.
    unused = report.unused_ignores
    assert unused == [], "\n".join(diag.format() for diag in unused)


def test_src_tree_has_expected_shape():
    # Guard against the meta-test silently linting nothing.
    files = list(SRC.rglob("*.py"))
    assert len(files) > 30
    assert (SRC / "core" / "engine.py").exists()
