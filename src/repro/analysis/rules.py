"""Project-specific static-analysis rules R001-R006 and R008.

Each rule encodes one engine contract that nothing else machine-checks,
and each pays rent: its ``Rent:`` line names the bug it exists for, and
``tests/analysis/test_rules.py`` re-applies that bug to the real module
and asserts the rule fires.

========  ==============================================================
R001      Part purity: ``MiningApplication`` subclasses must not write
          ``self.*`` inside per-part hot methods (``map_block``,
          ``map_embedding``, ``block_filter`` and anything they reach
          through ``self``).  Concurrent executors run parts on pool
          threads; per-part output goes in the part's pattern map and
          is absorbed serially in ``reduce``.  (``block_filter`` hands
          out the filter object every part calls: it builds from
          ``init``'s tables and stashes nothing on the app.)
          Subclasses are resolved across every module of the lint run,
          so an app whose base lives in another file is checked when
          that file is linted with it.
          Rent: FSM's mapper appended to ``self._iter_hashes``, so its
          prune was silently wrong under the threaded executor.
R002      Determinism: no wall-clock / entropy sources (``time.time``,
          the global ``random`` state, ``os.urandom``, ``uuid.uuid1/4``,
          ``datetime.now``) and no syntactic set-iteration-order hazards
          in ``core/``, ``apps/``, ``balance/`` and ``service/`` (the
          query tier caches on content identity and must replay
          byte-identically, so request ids come from a counter and
          sampling seeds from the request).  Clocks must be
          injected (as ``obs.trace.Tracer`` does) and randomness must go
          through a seeded generator.  ``time.perf_counter`` and
          ``time.monotonic`` stay legal: they measure work, they do not
          feed mined results.
          Rent: a set turned into a list (the restriction compiler's
          automorphism orbit) hands hash order to whatever consumes it.
R003      Tracer guard: in hot-path modules every ``tracer.begin`` /
          ``end`` / ``instant`` / ``complete`` call must be dominated by
          an ``if tracer.enabled`` check.  The NULL_TRACER no-op costs
          one attribute probe, but building the call's keyword arguments
          does not go away — an unguarded probe taxes every iteration.
          Rent: an unguarded storage probe pays for tracing when it is off.
R004      Dtype discipline: no hard-coded ``np.int32`` in the modules
          where the id dtype must be threaded (kernels, planner, sinks,
          spill and checkpoint storage).  A narrow literal is what
          truncates ids past the 2^31 boundary; ``np.int64`` literals
          stay legal because offsets/keys are always 64-bit and widening
          cannot corrupt an id.  The selection point itself
          (``id_dtype``) and ``np.iinfo`` boundary queries are exempt.
          Rent: checkpoint restore narrowed int64 ids back to int32.
R005      Error taxonomy: no bare ``except:`` and no swallowed
          ``except Exception/BaseException`` in ``storage/`` or
          ``service/``; catch-all handlers must re-raise (a typed class
          from ``repro.errors``), otherwise corruption, disk faults and
          tenant-facing failures turn into silently wrong results.
          Rent: a failed atomic write that is swallowed reads as saved.
R006      Lock discipline: classes in ``service/``, ``core/executor.py``
          and ``storage/`` that create a ``threading.Lock``/``RLock``/
          ``Condition`` declare their guarded fields — explicitly with a
          ``# guarded-by: _lock`` comment on the field's initialising
          assignment, or inferred when at least one mutation site sits
          under ``with self._lock:``.  Every mutation of a guarded field
          (assignment, augmented assignment, ``del``, or an in-place
          mutator call such as ``.append``) must then hold the lock,
          either lexically or transitively: a method whose every
          in-class call site holds the lock is itself lock-context
          (the same closure machinery as R001's hot-method set).
          ``__init__`` is exempt — the object is not yet shared.
          Rent: the service's shared result cache mutated off its lock.
R008      Tracer/metric schema: ``tracer.begin(name)`` and
          ``tracer.end(name)`` must pair up within one function (a span
          opened here must close here), and every metric name emitted
          through ``.counter/.gauge/.histogram`` in ``core/``,
          ``storage/``, ``service/`` or the obs bridge must appear in the
          bridge's ``METRIC_REGISTRY`` table — the registry the
          dashboards read.
          Rent: a typo'd or unregistered metric name is silent telemetry
          loss.
W100      Stale suppression (``--report-unused-ignores``, reported by
          :mod:`repro.analysis.linter`): every ``# repro: ignore[RULE]``
          must still silence a live diagnostic of a rule that ran.
          Rent: FSM's memo-race suppressions outlived the code they
          excused and would have hidden the next real write.
========  ==============================================================

Rules operate purely on the AST — nothing is imported or executed — and
report precise ``file:line:col`` diagnostics that the suppression
comments of :mod:`repro.analysis.diagnostics` can silence.  Each rule
receives the :class:`~repro.analysis.context.ModuleInfo` under check
plus the project-wide :class:`~repro.analysis.context.AnalysisContext`,
so cross-file lookups (R001's app bases, R008's registry) are index
hits rather than re-parses.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Iterable

from .context import AnalysisContext, ClassInfo, ModuleInfo
from .diagnostics import Diagnostic

__all__ = ["Rule", "RULES", "rule_ids"]


class Rule:
    """One invariant check over a parsed module."""

    id: str = ""
    title: str = ""
    #: Path prefixes (relative to the ``repro`` package root) the rule is
    #: scoped to; an empty tuple means every module.
    scope: tuple[str, ...] = ()

    def applies(self, rel_module: str | None) -> bool:
        """Whether the rule is in scope for ``rel_module``.

        ``None`` (a file outside the package, e.g. a fixture) applies
        every rule — explicit ``select`` lists drive those checks.
        """
        if rel_module is None or not self.scope:
            return True
        return any(
            rel_module == prefix or rel_module.startswith(prefix)
            for prefix in self.scope
        )

    def check(
        self, module: ModuleInfo, context: AnalysisContext
    ) -> list[Diagnostic]:  # pragma: no cover - protocol
        raise NotImplementedError

    def diagnostic(self, node: ast.AST, path: str, message: str) -> Diagnostic:
        return Diagnostic(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _terminal_name(node: ast.AST) -> str | None:
    """The last dotted component of a Name/Attribute expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _root_name(node: ast.AST) -> str | None:
    """The first dotted component of a Name/Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _self_rooted_targets(target: ast.AST) -> Iterable[ast.AST]:
    """Yield assignment targets whose chain starts at ``self``."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _self_rooted_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _self_rooted_targets(target.value)
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        if _root_name(target) == "self":
            yield target


def _first_self_attr(node: ast.AST) -> str:
    """Best-effort attribute name for a ``self``-rooted chain."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            if child.value.id == "self":
                return child.attr
    return "<attribute>"


def _contains_self_attribute(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.Attribute)
        and isinstance(child.value, ast.Name)
        and child.value.id == "self"
        for child in ast.walk(node)
    )


def _mentions_enabled(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.Attribute) and child.attr == "enabled"
        for child in ast.walk(node)
    )


def _ancestors(node: ast.AST, parents: dict[int, ast.AST]) -> Iterable[ast.AST]:
    current = parents.get(id(node))
    while current is not None:
        yield current
        current = parents.get(id(current))


def _shallow_walk(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# R001 — part purity
# ----------------------------------------------------------------------
class PartPurityRule(Rule):
    id = "R001"
    title = "no shared-state writes in per-part hot methods"
    scope = ()  # every MiningApplication subclass in the lint run

    #: Hot entry points: called per part, possibly on pool threads.
    HOT_ENTRY = ("map_block", "map_embedding", "block_filter")
    #: Method names that mutate their receiver in place.
    MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "clear",
            "add",
            "discard",
            "update",
            "setdefault",
            "sort",
            "reverse",
            "appendleft",
            "extendleft",
        }
    )

    def check(self, module, context):
        diagnostics: list[Diagnostic] = []
        app_names = self._app_names(context)
        for info in module.classes:
            if info.node.name in app_names:
                diagnostics.extend(self._check_class(info.node, module.path))
        return diagnostics

    @staticmethod
    @functools.lru_cache(maxsize=1)  # one lint run checks many modules
    def _app_names(context) -> frozenset[str]:
        """Names of the ``MiningApplication`` subclasses in the lint run,
        closed over bases defined in any of its modules (an app in one
        file may subclass an app base imported from another)."""
        classes = [info.node for info in context.classes()]
        app_names = {"MiningApplication"}
        changed = True
        while changed:
            changed = False
            for cls in classes:
                if cls.name in app_names:
                    continue
                bases = {_terminal_name(base) for base in cls.bases}
                if bases & app_names:
                    app_names.add(cls.name)
                    changed = True
        return frozenset(app_names - {"MiningApplication"})

    def _check_class(self, cls: ast.ClassDef, path: str) -> list[Diagnostic]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        hot = {name for name in self.HOT_ENTRY if name in methods}
        changed = True
        while changed:  # close over self-method calls from hot methods
            changed = False
            for name in tuple(hot):
                for node in ast.walk(methods[name]):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and node.func.attr in methods
                        and node.func.attr not in hot
                    ):
                        hot.add(node.func.attr)
                        changed = True
        diagnostics: list[Diagnostic] = []
        for name in sorted(hot):
            diagnostics.extend(self._check_method(cls, methods[name], path))
        return diagnostics

    def _check_method(
        self, cls: ast.ClassDef, method: ast.FunctionDef, path: str
    ) -> list[Diagnostic]:
        where = (
            f"in per-part hot method '{cls.name}.{method.name}'; per-part "
            f"output belongs in the part's pattern map, absorbed in reduce"
        )
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
                and _contains_self_attribute(node.func.value)
            ):
                diagnostics.append(
                    self.diagnostic(
                        node,
                        path,
                        f"'.{node.func.attr}(...)' mutates shared application "
                        f"state ('self.{_first_self_attr(node.func.value)}') "
                        + where,
                    )
                )
                continue
            else:
                continue
            for target in targets:
                for hit in _self_rooted_targets(target):
                    diagnostics.append(
                        self.diagnostic(
                            hit,
                            path,
                            f"writes shared application state "
                            f"('self.{_first_self_attr(hit)}') " + where,
                        )
                    )
        return diagnostics


# ----------------------------------------------------------------------
# R002 — determinism
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    id = "R002"
    title = "no wall clocks, global RNG or set-order hazards"
    scope = ("core/", "apps/", "balance/", "service/")

    #: module -> function names whose results depend on wall clock/entropy.
    BANNED_CALLS = {
        "time": {"time", "time_ns"},
        "os": {"urandom"},
        "uuid": {"uuid1", "uuid4"},
    }
    #: ``random.X(...)`` exemptions: explicitly seeded generator classes.
    RANDOM_ALLOWED = {"Random"}
    #: ``np.random.X(...)`` exemptions: seeded generator constructors.
    NP_RANDOM_ALLOWED = {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
    _SET_CONSUMERS = {"list", "tuple", "iter", "enumerate"}

    def check(self, module, context):
        tree, path = module.tree, module.path
        diagnostics: list[Diagnostic] = []
        module_aliases, from_banned = self._imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                diagnostics.extend(
                    self._check_call(node, module_aliases, from_banned, path)
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                diagnostics.extend(self._check_set_iter(node.iter, path))
            elif isinstance(node, ast.comprehension):
                diagnostics.extend(self._check_set_iter(node.iter, path))
        return diagnostics

    def _imports(self, tree):
        module_aliases: dict[str, str] = {}
        from_banned: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                banned = self.BANNED_CALLS.get(node.module, set())
                for alias in node.names:
                    if node.module == "random" and alias.name not in self.RANDOM_ALLOWED:
                        from_banned[alias.asname or alias.name] = (
                            "random",
                            alias.name,
                        )
                    elif alias.name in banned:
                        from_banned[alias.asname or alias.name] = (
                            node.module,
                            alias.name,
                        )
        return module_aliases, from_banned

    def _check_call(self, node, module_aliases, from_banned, path):
        func = node.func
        hint = "inject a clock or a seeded generator instead"
        if isinstance(func, ast.Name):
            if func.id in from_banned:
                module, original = from_banned[func.id]
                return [
                    self.diagnostic(
                        node,
                        path,
                        f"call to '{module}.{original}' in a deterministic "
                        f"module; {hint}",
                    )
                ]
            if func.id in self._SET_CONSUMERS and len(node.args) == 1:
                return self._check_set_iter(node.args[0], path)
            return []
        if not isinstance(func, ast.Attribute):
            return []
        receiver = func.value
        # np.random.X(...) — global numpy RNG state.
        if (
            isinstance(receiver, ast.Attribute)
            and receiver.attr == "random"
            and isinstance(receiver.value, ast.Name)
            and module_aliases.get(receiver.value.id) == "numpy"
            and func.attr not in self.NP_RANDOM_ALLOWED
        ):
            return [
                self.diagnostic(
                    node,
                    path,
                    f"'numpy.random.{func.attr}' uses the global RNG state; "
                    f"seed an explicit np.random.default_rng",
                )
            ]
        if not isinstance(receiver, ast.Name):
            return []
        module = module_aliases.get(receiver.id)
        if module == "random" and func.attr not in self.RANDOM_ALLOWED:
            return [
                self.diagnostic(
                    node,
                    path,
                    f"'random.{func.attr}' uses the global RNG state; "
                    f"seed an explicit random.Random",
                )
            ]
        if module in self.BANNED_CALLS and func.attr in self.BANNED_CALLS[module]:
            return [
                self.diagnostic(
                    node,
                    path,
                    f"wall-clock/entropy source '{module}.{func.attr}' in a "
                    f"deterministic module; {hint}",
                )
            ]
        if module == "datetime" or (
            isinstance(receiver, ast.Name) and receiver.id in ("datetime", "date")
        ):
            if func.attr in ("now", "utcnow", "today"):
                return [
                    self.diagnostic(
                        node,
                        path,
                        f"wall-clock source 'datetime.{func.attr}' in a "
                        f"deterministic module; {hint}",
                    )
                ]
        return []

    def _check_set_iter(self, expr: ast.AST, path: str) -> list[Diagnostic]:
        is_set = isinstance(expr, (ast.Set, ast.SetComp)) or (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        )
        if not is_set:
            return []
        return [
            self.diagnostic(
                expr,
                path,
                "iterating a set in hash order is not deterministic across "
                "processes; wrap it in sorted(...)",
            )
        ]


# ----------------------------------------------------------------------
# R003 — tracer guard
# ----------------------------------------------------------------------
class TracerGuardRule(Rule):
    id = "R003"
    title = "tracer probes in hot paths must check tracer.enabled"
    scope = ("core/kernels.py", "core/explore.py", "storage/")

    PROBES = frozenset({"begin", "end", "instant", "complete"})

    def check(self, module, context):
        tree, parents, path = module.tree, module.parents, module.path
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.PROBES
            ):
                continue
            receiver = _terminal_name(node.func.value)
            if receiver is None or not receiver.lower().endswith("tracer"):
                continue
            if self._guarded(node, parents):
                continue
            diagnostics.append(
                self.diagnostic(
                    node,
                    path,
                    f"'{receiver}.{node.func.attr}(...)' in a hot-path module "
                    f"without a dominating 'if {receiver}.enabled' guard "
                    f"(argument construction is paid even under NULL_TRACER)",
                )
            )
        return diagnostics

    def _guarded(self, node: ast.Call, parents: dict[int, ast.AST]) -> bool:
        enclosing_function: ast.AST | None = None
        child: ast.AST = node
        for ancestor in _ancestors(node, parents):
            if isinstance(ancestor, ast.If) and _mentions_enabled(ancestor.test):
                return True
            if (
                isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                and enclosing_function is None
            ):
                enclosing_function = ancestor
                if self._early_guard(ancestor, child):
                    return True
            if enclosing_function is None:
                child = ancestor
        return False

    @staticmethod
    def _early_guard(function: ast.AST, containing_stmt: ast.AST) -> bool:
        """An ``if not tracer.enabled: return`` before the call's statement."""
        body = getattr(function, "body", [])
        for stmt in body:
            if stmt is containing_stmt:
                return False
            if (
                isinstance(stmt, ast.If)
                and _mentions_enabled(stmt.test)
                and stmt.body
                and all(
                    isinstance(s, (ast.Return, ast.Raise, ast.Continue))
                    for s in stmt.body
                )
            ):
                return True
        return False


# ----------------------------------------------------------------------
# R004 — dtype discipline
# ----------------------------------------------------------------------
class DtypeDisciplineRule(Rule):
    id = "R004"
    title = "no hard-coded narrow id dtypes where id_dtype is threaded"
    scope = (
        "core/kernels.py",
        "core/plan.py",
        "core/explore.py",
        "core/restrictions.py",
        "storage/spill.py",
        "storage/hybrid.py",
        "storage/checkpoint.py",
    )

    def check(self, module, context):
        tree, parents, path = module.tree, module.parents, module.path
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr == "int32"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                continue
            if self._exempt(node, parents):
                continue
            diagnostics.append(
                self.diagnostic(
                    node,
                    path,
                    "hard-coded np.int32 in an id-carrying module truncates "
                    "ids past 2^31; thread the planner's id dtype "
                    "(kernels.id_dtype / DEFAULT_ID_DTYPE) instead",
                )
            )
        return diagnostics

    @staticmethod
    def _exempt(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        for ancestor in _ancestors(node, parents):
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Attribute)
                and ancestor.func.attr == "iinfo"
            ):
                return True  # boundary query, not an array dtype
            if (
                isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                and ancestor.name == "id_dtype"
            ):
                return True  # the selection point itself
        return False


# ----------------------------------------------------------------------
# R005 — error taxonomy
# ----------------------------------------------------------------------
class ErrorTaxonomyRule(Rule):
    id = "R005"
    title = "storage/service catch-alls must re-raise typed errors"
    scope = ("storage/", "service/")

    CATCH_ALLS = frozenset({"Exception", "BaseException"})

    def check(self, module, context):
        tree, path = module.tree, module.path
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                diagnostics.append(
                    self.diagnostic(
                        node,
                        path,
                        "bare 'except:' in a fault-handling module; catch a "
                        "specific error and re-raise a typed class from "
                        "repro.errors",
                    )
                )
                continue
            caught = self._catch_all_name(node.type)
            if caught is None:
                continue
            if any(isinstance(child, ast.Raise) for child in ast.walk(node)):
                continue
            diagnostics.append(
                self.diagnostic(
                    node,
                    path,
                    f"'except {caught}' swallows the error; fault handlers "
                    f"must re-raise a typed class from repro.errors",
                )
            )
        return diagnostics

    def _catch_all_name(self, type_node: ast.AST) -> str | None:
        if isinstance(type_node, ast.Tuple):
            for element in type_node.elts:
                name = self._catch_all_name(element)
                if name is not None:
                    return name
            return None
        name = _terminal_name(type_node)
        return name if name in self.CATCH_ALLS else None


# ----------------------------------------------------------------------
# R006 — lock discipline
# ----------------------------------------------------------------------
class LockDisciplineRule(Rule):
    id = "R006"
    title = "guarded fields must only be mutated under their lock"
    scope = ("service/", "core/executor.py", "storage/")

    #: Constructors whose result makes ``self.X`` a lock attribute.
    LOCK_FACTORIES = frozenset(
        {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
    )
    _GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

    def check(self, module, context):
        diagnostics: list[Diagnostic] = []
        for cls in module.classes:
            diagnostics.extend(self._check_class(cls, module))
        return diagnostics

    # -- discovery -----------------------------------------------------
    def _lock_attrs(self, cls: ClassInfo) -> set[str]:
        locks: set[str] = set()
        for method in cls.methods.values():
            for node in ast.walk(method):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                if _terminal_name(node.value.func) not in self.LOCK_FACTORIES:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        locks.add(target.attr)
        return locks

    def _annotations(
        self, cls: ClassInfo, module: ModuleInfo, locks: set[str]
    ) -> tuple[dict[str, str], list[Diagnostic]]:
        """``# guarded-by: _lock`` comments on field assignments."""
        guarded: dict[str, str] = {}
        diagnostics: list[Diagnostic] = []
        for method in cls.methods.values():
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                fields = [
                    target.attr
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ]
                if not fields:
                    continue
                match = self._GUARDED_BY_RE.search(module.line(node.lineno))
                if match is None:
                    # Standalone-comment form on the line above; a line
                    # that holds code of its own annotates only itself.
                    previous = module.line(node.lineno - 1)
                    if previous.lstrip().startswith("#"):
                        match = self._GUARDED_BY_RE.search(previous)
                if match is None:
                    continue
                lock = match.group(1)
                if lock not in locks:
                    diagnostics.append(
                        self.diagnostic(
                            node,
                            module.path,
                            f"'# guarded-by: {lock}' names no lock attribute "
                            f"of '{cls.node.name}' (known locks: "
                            f"{sorted(locks) or 'none'})",
                        )
                    )
                    continue
                for field in fields:
                    guarded[field] = lock
        return guarded, diagnostics

    def _mutation_sites(
        self, cls: ClassInfo, locks: set[str]
    ) -> dict[str, list[tuple[ast.AST, ast.FunctionDef]]]:
        """Field name -> mutation nodes outside ``__init__``."""
        sites: dict[str, list[tuple[ast.AST, ast.FunctionDef]]] = {}
        for name, method in cls.methods.items():
            if name == "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = node.targets
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in PartPurityRule.MUTATORS
                    and _contains_self_attribute(node.func.value)
                ):
                    field = _first_self_attr(node.func.value)
                    if field not in locks:
                        sites.setdefault(field, []).append((node, method))
                    continue
                else:
                    continue
                for target in targets:
                    for hit in _self_rooted_targets(target):
                        field = _first_self_attr(hit)
                        if field not in locks:
                            sites.setdefault(field, []).append((hit, method))
        return sites

    # -- lock-context reasoning ----------------------------------------
    def _with_lock_ancestor(
        self, node: ast.AST, lock: str, parents: dict[int, ast.AST]
    ) -> bool:
        for ancestor in _ancestors(node, parents):
            if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and expr.attr == lock
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    return True
        return False

    def _lock_context_methods(self, cls: ClassInfo, lock: str) -> set[str]:
        """Methods whose every in-class call site holds ``lock``.

        The closure mirrors R001's hot-method machinery: a method is
        lock-context if each ``self.m()`` site is lexically under
        ``with self.<lock>:``, inside ``__init__`` (pre-sharing), or
        inside a method already known to be lock-context.  Methods with
        no in-class call sites are externally callable and stay out.
        """
        parents = cls.module.parents
        sites = cls.self_call_sites()
        locked: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in cls.methods:
                if name in locked or name == "__init__":
                    continue
                calls = sites.get(name)
                if not calls:
                    continue
                def _held(call: ast.Call) -> bool:
                    if self._with_lock_ancestor(call, lock, parents):
                        return True
                    enclosing = cls.enclosing_method(call)
                    if enclosing is None:
                        return False
                    return enclosing.name == "__init__" or enclosing.name in locked
                if all(_held(call) for call in calls):
                    locked.add(name)
                    changed = True
        return locked

    def _effectively_locked(
        self,
        node: ast.AST,
        method: ast.FunctionDef,
        lock: str,
        cls: ClassInfo,
        locked_methods: set[str],
    ) -> bool:
        if method.name == "__init__" or method.name in locked_methods:
            return True
        return self._with_lock_ancestor(node, lock, cls.module.parents)

    # -- the check -----------------------------------------------------
    def _check_class(self, cls: ClassInfo, module: ModuleInfo) -> list[Diagnostic]:
        locks = self._lock_attrs(cls)
        if not locks:
            return []
        guarded, diagnostics = self._annotations(cls, module, locks)
        mutations = self._mutation_sites(cls, locks)
        locked_methods = {lock: self._lock_context_methods(cls, lock) for lock in locks}
        # Inference fallback: a field whose mutations are (at least
        # partly) lock-held is treated as guarded by that lock — the
        # unlocked remainder is then the diagnostic.
        for field, sites in mutations.items():
            if field in guarded:
                continue
            locks_seen = {
                lock
                for lock in locks
                for node, method in sites
                if self._effectively_locked(node, method, lock, cls, locked_methods[lock])
                and method.name != "__init__"
            }
            if len(locks_seen) == 1:
                guarded[field] = next(iter(locks_seen))
        for field in sorted(guarded):
            lock = guarded[field]
            for node, method in mutations.get(field, ()):
                if self._effectively_locked(node, method, lock, cls, locked_methods[lock]):
                    continue
                diagnostics.append(
                    self.diagnostic(
                        node,
                        module.path,
                        f"mutates 'self.{field}' (guarded by 'self.{lock}') "
                        f"outside 'with self.{lock}:' in "
                        f"'{cls.node.name}.{method.name}'; take the lock or "
                        f"reach this site only from lock-holding methods",
                    )
                )
        return diagnostics


# ----------------------------------------------------------------------
# R008 — tracer/metric schema
# ----------------------------------------------------------------------
class TracerMetricSchemaRule(Rule):
    id = "R008"
    title = "tracer spans pair per function; metric names must be registered"
    scope = ("core/", "storage/", "service/", "obs/bridge.py")

    METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
    #: Receivers that are tenant-scoped MetricsView objects; emitted
    #: names gain the ``tenant.<name>.`` prefix at runtime.
    VIEW_RECEIVERS = frozenset({"view", "tenant_view"})

    def check(self, module, context):
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                diagnostics.extend(self._check_span_pairing(node, module))
        registry: tuple[str, ...] | None = None
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.METRIC_METHODS
                and node.args
            ):
                continue
            name = self._resolve_metric_name(node, module)
            if name is None:
                continue
            if registry is None:
                registry = context.metric_registry(module)
            if not registry:
                continue  # no table anywhere: nothing to validate against
            if not any(self._matches(name, pattern) for pattern in registry):
                diagnostics.append(
                    self.diagnostic(
                        node,
                        module.path,
                        f"metric '{name}' is not in the obs bridge's "
                        f"METRIC_REGISTRY; register it (repro/obs/bridge.py) "
                        f"or dashboards will silently miss it",
                    )
                )
        return diagnostics

    # -- span pairing --------------------------------------------------
    def _check_span_pairing(
        self, func: ast.FunctionDef, module: ModuleInfo
    ) -> list[Diagnostic]:
        begins: dict[str, list[ast.Call]] = {}
        ends: dict[str, list[ast.Call]] = {}
        for node in _shallow_walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("begin", "end")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            receiver = _terminal_name(node.func.value)
            if receiver is None or not receiver.lower().endswith("tracer"):
                continue
            bucket = begins if node.func.attr == "begin" else ends
            bucket.setdefault(node.args[0].value, []).append(node)
        diagnostics: list[Diagnostic] = []
        for name in sorted(set(begins) | set(ends)):
            opened = len(begins.get(name, ()))
            closed = len(ends.get(name, ()))
            if opened > closed:
                anchor = begins[name][closed]
                diagnostics.append(
                    self.diagnostic(
                        anchor,
                        module.path,
                        f"tracer.begin({name!r}) has no matching "
                        f"tracer.end({name!r}) in '{func.name}'; pair spans "
                        f"within one function (try/finally) so they close on "
                        f"every path",
                    )
                )
            elif closed > opened:
                anchor = ends[name][opened]
                diagnostics.append(
                    self.diagnostic(
                        anchor,
                        module.path,
                        f"tracer.end({name!r}) has no matching "
                        f"tracer.begin({name!r}) in '{func.name}'; spans must "
                        f"open and close in the same function",
                    )
                )
        return diagnostics

    # -- metric names --------------------------------------------------
    def _resolve_metric_name(
        self, call: ast.Call, module: ModuleInfo
    ) -> str | None:
        arg = call.args[0]
        name: str | None = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        elif isinstance(arg, ast.JoinedStr):
            parts: list[str] = []
            for piece in arg.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                elif isinstance(piece, ast.FormattedValue):
                    resolved = self._resolve_placeholder(piece.value, call, module)
                    parts.append(resolved if resolved is not None else "*")
            name = "".join(parts)
        if name is None:
            return None
        receiver = call.func.value
        is_view = _terminal_name(receiver) in self.VIEW_RECEIVERS or (
            isinstance(receiver, ast.Call)
            and _terminal_name(receiver.func) == "view"
        )
        if is_view:
            name = f"tenant.*.{name}"
        return name

    def _resolve_placeholder(
        self, expr: ast.AST, call: ast.Call, module: ModuleInfo
    ) -> str | None:
        """A ``{prefix}`` placeholder resolves via the enclosing function's
        string default (the obs-bridge ``prefix="io"`` idiom)."""
        if not isinstance(expr, ast.Name):
            return None
        for ancestor in _ancestors(call, module.parents):
            if not isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = ancestor.args
            positional = args.posonlyargs + args.args
            defaults = args.defaults
            offset = len(positional) - len(defaults)
            for index, param in enumerate(positional):
                if param.arg != expr.id:
                    continue
                if index >= offset:
                    default = defaults[index - offset]
                    if isinstance(default, ast.Constant) and isinstance(
                        default.value, str
                    ):
                        return default.value
                return None
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if param.arg == expr.id:
                    if isinstance(default, ast.Constant) and isinstance(
                        default.value, str
                    ):
                        return default.value
                    return None
            return None
        return None

    @staticmethod
    def _matches(name: str, pattern: str) -> bool:
        """Segment-wise match; ``*`` on either side matches one segment."""
        got = name.split(".")
        want = pattern.split(".")
        if len(got) != len(want):
            return False
        return all(g == w or g == "*" or w == "*" for g, w in zip(got, want))


#: Registry, in rule-id order.
RULES: tuple[Rule, ...] = (
    PartPurityRule(),
    DeterminismRule(),
    TracerGuardRule(),
    DtypeDisciplineRule(),
    ErrorTaxonomyRule(),
    LockDisciplineRule(),
    TracerMetricSchemaRule(),
)


def rule_ids() -> tuple[str, ...]:
    return tuple(rule.id for rule in RULES)
