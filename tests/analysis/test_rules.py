"""Each rule fires on its bad fixture, stays silent on its good one, and
catches the real bug it exists for (its ``Rent:`` line in rules.py).

The doc tables in ``docs/api.md`` and ``docs/architecture.md`` are
pinned to the registry too, so a rule's scope cannot drift in the docs.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_paths_report, lint_source, rule_ids
from repro.analysis import rules as rules_module
from repro.analysis.diagnostics import UNUSED_IGNORE_RULE
from repro.analysis.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parents[2]
SRC = ROOT / "src" / "repro"

#: rule id -> expected violation count in its bad fixture.
EXPECTED_BAD_HITS = {
    "R001": 6,
    "R002": 6,
    "R003": 4,
    "R004": 2,
    "R005": 3,
    "R006": 4,
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


# ----------------------------------------------------------------------
# Rent: each rule catches the bug it exists for, in the real source
# ----------------------------------------------------------------------
#: case id -> (module under src/repro, snippet, replacement).  Each
#: replacement re-applies the bug named on the rule's ``Rent:`` line; the
#: case id is the rule id, plus a suffix when a rule has several cases.
RENT_MUTATIONS = {
    # FSM's mapper records its per-iteration hashes on the shared app.
    "R001": (
        "apps/fsm.py",
        "            self.hash_every_embedding,\n        )\n",
        "            self.hash_every_embedding,\n        )\n"
        "        self._iter_hashes.append(mni_state(pmap).rows)\n",
    ),
    # The same race in vFSM, whose app base is imported from apps/fsm.py.
    "R001-vfsm": (
        "apps/fsm_vertex.py",
        "        fold_mni_block(ctx, block, pmap, encode, self._threshold)\n",
        "        fold_mni_block(ctx, block, pmap, encode, self._threshold)\n"
        "        self._iter_hashes.append(mni_state(pmap).rows)\n",
    ),
    # The restriction compiler walks an automorphism orbit in set hash order.
    "R002": (
        "core/restrictions.py",
        "        orbit = sorted({perm[p] for perm in group})\n",
        "        orbit = list({perm[p] for perm in group})\n",
    ),
    # The storage retry probe loses its tracer.enabled guard.
    "R003": (
        "storage/spill.py",
        "                    if self.tracer.enabled:\n"
        "                        self.tracer.instant(",
        "                    self.tracer.instant(",
    ),
    # Checkpoint restore narrows the saved ids to int32.
    "R004": (
        "storage/checkpoint.py",
        "InMemoryLevel(vert, off, dtype=vert.dtype)",
        "InMemoryLevel(vert, off, dtype=np.int32)",
    ),
    # The atomic part write (spill parts and checkpoints) swallows its failure.
    "R005": (
        "storage/spill.py",
        "                pass\n            raise\n        _fsync_dir(",
        "                pass\n        _fsync_dir(",
    ),
    # The result cache's put mutates the LRU map before taking its lock.
    "R006": (
        "service/cache.py",
        "        with self._lock:\n"
        "            self._entries.pop(key, None)\n"
        "            self._entries[key] = answer\n",
        "        self._entries.pop(key, None)\n"
        "        self._entries[key] = answer\n"
        "        with self._lock:\n",
    ),
    # A typo'd metric name that no dashboard reads.
    "R008": (
        "service/cache.py",
        '"service.cache.evictions"',
        '"service.cache.eviction"',
    ),
    # An R001 suppression left behind on code that no longer needs it.
    UNUSED_IGNORE_RULE: (
        "apps/fsm.py",
        "            self.hash_every_embedding,\n        )\n",
        "            self.hash_every_embedding,  # repro: ignore[R001] -- memo race\n        )\n",
    ),
}


#: case id -> the real modules a case is linted with, for rules that
#: resolve names across files (vFSM's app base lives in apps/fsm.py).
RENT_CONTEXT = {"R001-vfsm": ("apps/fsm.py",)}


def _rules_fired(case, rel, text, tmp_path):
    """Rule ids reported on ``text`` linted as ``src/repro/<rel>`` with
    every rule in its real scope (no ``select``)."""
    rule = case.split("-")[0]
    context = RENT_CONTEXT.get(case, ())
    if rule != UNUSED_IGNORE_RULE and not context:
        return {diag.rule for diag in lint_source(text, path=f"src/repro/{rel}")}
    package = tmp_path / "src" / "repro"
    target = package / rel
    target.parent.mkdir(parents=True)
    target.write_text(text, encoding="utf-8")
    for other in context:
        (package / other).write_text((SRC / other).read_text(encoding="utf-8"))
    report = lint_paths_report(
        [package], report_unused_ignores=rule == UNUSED_IGNORE_RULE
    )
    return {diag.rule for diag in report.all() if diag.path == str(target)}


@pytest.mark.parametrize("case", sorted(RENT_MUTATIONS))
def test_rule_catches_the_bug_it_exists_for(case, tmp_path):
    rule = case.split("-")[0]
    rel, snippet, replacement = RENT_MUTATIONS[case]
    source = (SRC / rel).read_text(encoding="utf-8")
    # A refactor that moves the snippet must re-anchor the mutation,
    # not silently stop exercising the rule.
    assert source.count(snippet) == 1, f"re-anchor {case}'s mutation of {rel}"
    assert rule not in _rules_fired(case, rel, source, tmp_path / "before")
    mutated = source.replace(snippet, replacement)
    assert rule in _rules_fired(case, rel, mutated, tmp_path / "after")


def _docstring_rows(doc):
    """Rule id -> its row of the rules.py docstring table."""
    parts = re.split(r"^([RW]\d{3})  ", doc, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def test_every_rule_pays_rent():
    expected = set(rule_ids()) | {UNUSED_IGNORE_RULE}
    assert {case.split("-")[0] for case in RENT_MUTATIONS} == expected
    rows = _docstring_rows(rules_module.__doc__)
    assert set(rows) == expected
    for rule, row in rows.items():
        assert "Rent:" in row, f"{rule} has no rent line"


def _doc_table_scopes(doc_path):
    """Rule id -> set of backticked paths in the rule table's scope column."""
    scopes = {}
    scope_col = None
    for line in doc_path.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0].lower() == "id" and "scope" in [c.lower() for c in cells]:
            scope_col = [c.lower() for c in cells].index("scope")
        elif scope_col is not None and re.fullmatch(r"[RW]\d{3}", cells[0]):
            paths = re.findall(r"`([\w./]+(?:/|\.py))`", cells[scope_col])
            scopes[cells[0]] = set(paths)
    return scopes


@pytest.mark.parametrize("doc", ["docs/api.md", "docs/architecture.md"])
def test_doc_rule_tables_match_registry(doc):
    expected = {rule.id: set(rule.scope) for rule in RULES}
    expected[UNUSED_IGNORE_RULE] = set()
    assert _doc_table_scopes(ROOT / doc) == expected
