"""The lint CLI: ``python -m repro.analysis``."""

from pathlib import Path

import pytest

import repro.analysis.__main__ as cli_module
from repro.analysis import lint_paths_report, rule_ids
from repro.analysis.__main__ import main as analysis_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parents[2] / "src" / "repro")


@pytest.fixture(scope="module")
def clean_tree_report():
    """One whole-tree lint pass, as the CLI runs it on ``SRC`` with no
    flags, shared by the clean-tree CLI tests."""
    return lint_paths_report([SRC], select=None, report_unused_ignores=False)


@pytest.fixture
def shared_clean_tree_lint(clean_tree_report, monkeypatch):
    """The CLI's lint call answered from the shared pass; the CLI still
    parses its arguments, formats the report and picks the exit code."""

    def lint(paths, select=None, report_unused_ignores=False):
        assert (paths, select, report_unused_ignores) == ([SRC], None, False)
        return clean_tree_report

    monkeypatch.setattr(cli_module, "lint_paths_report", lint)


@pytest.mark.usefixtures("shared_clean_tree_lint")
def test_module_cli_clean_tree_exits_zero(capsys):
    assert analysis_main([SRC]) == 0
    assert capsys.readouterr().out == ""


def test_module_cli_reports_violations(capsys):
    bad = str(FIXTURES / "r004_bad.py")
    assert analysis_main([bad, "--select", "R004"]) == 1
    out, err = capsys.readouterr()
    assert "R004" in out
    assert "r004_bad.py" in out
    assert "violations" in err


def test_module_cli_missing_path_exits_two(capsys):
    assert analysis_main(["does/not/exist.py"]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_cli_unknown_rule_exits_two(capsys):
    assert analysis_main([SRC, "--select", "R999"]) == 2
    assert "R999" in capsys.readouterr().err


def test_module_cli_list_rules(capsys):
    assert analysis_main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert tuple(line.split()[0] for line in lines) == rule_ids()


def test_module_cli_json_format(capsys):
    import json

    bad = str(FIXTURES / "r006_bad.py")
    assert analysis_main([bad, "--select", "R006", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"R006": 4}
    assert len(payload["diagnostics"]) == 4
    first = payload["diagnostics"][0]
    assert first["rule"] == "R006"
    assert first["path"].endswith("r006_bad.py")
    assert first["line"] > 0
    assert payload["unused_ignores"] == []


@pytest.mark.usefixtures("shared_clean_tree_lint")
def test_module_cli_json_clean_tree(capsys):
    import json

    assert analysis_main([SRC, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == []
    assert payload["counts"] == {}


def test_module_cli_github_format(capsys):
    bad = str(FIXTURES / "r005_bad.py")
    assert analysis_main([bad, "--select", "R005", "--format", "github"]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("::error file=")
        assert "title=R005" in line


def test_module_cli_reports_unused_ignores(tmp_path, capsys):
    target = tmp_path / "module.py"
    target.write_text("x = 1  # repro: ignore[R002]\n")
    assert analysis_main([str(target), "--report-unused-ignores"]) == 1
    out = capsys.readouterr().out
    assert "W100" in out
    assert "unused suppression" in out
    # Without the flag the stale comment passes silently.
    capsys.readouterr()
    assert analysis_main([str(target)]) == 0


def test_module_cli_used_ignore_not_reported(tmp_path, capsys):
    target = tmp_path / "module.py"
    target.write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: ignore[R002]\n"
    )
    assert analysis_main([str(target), "--select", "R002", "--report-unused-ignores"]) == 0
    assert "W100" not in capsys.readouterr().out

