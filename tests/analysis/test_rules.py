"""Each rule fires on its bad fixture and stays silent on its good one."""

from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_source, rule_ids

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> expected violation count in its bad fixture.
EXPECTED_BAD_HITS = {
    "R001": 7,
    "R002": 6,
    "R003": 4,
    "R004": 2,
    "R005": 3,
    "R006": 4,
    "R007": 3,
    "R008": 4,
}


@pytest.mark.parametrize("rule", sorted(EXPECTED_BAD_HITS))
def test_rule_fires_on_bad_fixture(rule):
    diagnostics = lint_file(FIXTURES / f"{rule.lower()}_bad.py", select=[rule])
    assert len(diagnostics) == EXPECTED_BAD_HITS[rule]
    assert {diag.rule for diag in diagnostics} == {rule}
    for diag in diagnostics:
        assert diag.line > 0
        assert rule in diag.format()


@pytest.mark.parametrize("rule", sorted(EXPECTED_BAD_HITS))
def test_rule_silent_on_good_fixture(rule):
    diagnostics = lint_file(FIXTURES / f"{rule.lower()}_good.py", select=[rule])
    assert diagnostics == []


#: service-flavoured fixtures for the rules whose scope covers service/.
EXPECTED_SERVICE_BAD_HITS = {
    "R002": 4,
    "R005": 3,
}


@pytest.mark.parametrize("rule", sorted(EXPECTED_SERVICE_BAD_HITS))
def test_rule_fires_on_service_bad_fixture(rule):
    diagnostics = lint_file(
        FIXTURES / f"{rule.lower()}_service_bad.py", select=[rule]
    )
    assert len(diagnostics) == EXPECTED_SERVICE_BAD_HITS[rule]
    assert {diag.rule for diag in diagnostics} == {rule}


@pytest.mark.parametrize("rule", sorted(EXPECTED_SERVICE_BAD_HITS))
def test_rule_silent_on_service_good_fixture(rule):
    diagnostics = lint_file(
        FIXTURES / f"{rule.lower()}_service_good.py", select=[rule]
    )
    assert diagnostics == []


def test_registry_lists_all_rules():
    assert rule_ids() == (
        "R001",
        "R002",
        "R003",
        "R004",
        "R005",
        "R006",
        "R007",
        "R008",
    )


def test_trailing_suppression_silences_own_line():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: ignore[R002]\n"
    )
    assert lint_source(source, select=["R002"]) == []


def test_standalone_suppression_silences_next_line():
    source = (
        "import time\n"
        "def f():\n"
        "    # repro: ignore[R002] -- test clock\n"
        "    return time.time()\n"
    )
    assert lint_source(source, select=["R002"]) == []


def test_suppression_is_rule_specific():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: ignore[R001]\n"
    )
    diagnostics = lint_source(source, select=["R002"])
    assert [diag.rule for diag in diagnostics] == ["R002"]


def test_multi_rule_suppression():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: ignore[R001, R002]\n"
    )
    assert lint_source(source, select=["R002"]) == []


def test_syntax_error_reports_parse_diagnostic():
    diagnostics = lint_source("def broken(:\n")
    assert len(diagnostics) == 1
    assert diagnostics[0].rule == "E999"


def test_unknown_select_raises():
    with pytest.raises(ValueError, match="R999"):
        lint_source("x = 1\n", select=["R999"])


def test_scoping_limits_rules_without_select():
    # R005 is scoped to storage/ and service/: the same code is clean
    # in core/.
    source = "try:\n    pass\nexcept Exception:\n    pass\n"
    storage = lint_source(source, path="src/repro/storage/thing.py")
    service = lint_source(source, path="src/repro/service/thing.py")
    core = lint_source(source, path="src/repro/core/thing.py")
    assert [diag.rule for diag in storage] == ["R005"]
    assert [diag.rule for diag in service] == ["R005"]
    assert core == []


def test_r002_scope_covers_service():
    source = "import time\ndef f():\n    return time.time()\n"
    service = lint_source(source, path="src/repro/service/thing.py")
    obs = lint_source(source, path="src/repro/obs/thing.py")
    assert [diag.rule for diag in service] == ["R002"]
    assert obs == []


def test_select_bypasses_module_scoping():
    # An explicit --select means "run this rule HERE": R005 is scoped
    # to storage/ and service/, but selecting it on a core-path module
    # still applies it.
    source = "try:\n    pass\nexcept Exception:\n    pass\n"
    out_of_scope = "src/repro/core/thing.py"
    assert lint_source(source, path=out_of_scope) == []  # scoping holds
    selected = lint_source(source, path=out_of_scope, select=["R005"])
    assert [diag.rule for diag in selected] == ["R005"]


def test_r006_annotation_does_not_bleed_to_next_line():
    # A trailing '# guarded-by:' comment annotates its own assignment,
    # not the assignment on the following line.
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._a = 0  # guarded-by: _lock\n"
        "        self._b = 0\n"
        "    def bump_b(self):\n"
        "        self._b += 1\n"
    )
    assert lint_source(source, select=["R006"]) == []


def test_r006_transitive_lock_context():
    # A helper whose every in-class call site holds the lock may mutate
    # guarded state; an externally callable helper may not.
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []  # guarded-by: _lock\n"
        "    def add(self, x):\n"
        "        with self._lock:\n"
        "            self._push(x)\n"
        "    def _push(self, x):\n"
        "        self._items.append(x)\n"
        "    def unsafe_push(self, x):\n"
        "        self._items.append(x)\n"
    )
    diagnostics = lint_source(source, select=["R006"])
    assert len(diagnostics) == 1
    assert "unsafe_push" in diagnostics[0].message
