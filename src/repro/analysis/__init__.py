"""Invariant lint suite and runtime sanitizers.

Static side (``python -m repro.analysis``): AST rules R001-R006 and
R008 that machine-check the engine contracts — part purity,
determinism, tracer guarding, id-dtype discipline, the storage error
taxonomy, lock discipline over guarded fields and the tracer/metric
schema — plus the W100 stale-suppression audit.  Rules run against a
project-wide :class:`AnalysisContext` (module index + per-class call
graphs, built once per lint run).

Runtime side: :class:`PartPuritySanitizer`, a race detector for shared
application state that static analysis cannot see, and
:class:`LockOrderSanitizer`, which wraps the project's locks and
raises :class:`~repro.errors.LockOrderError` on ordering inversions
before they can deadlock (both enabled with the engine/service/CLI
``--sanitize`` flag).
"""

from __future__ import annotations

from .context import AnalysisContext, ClassInfo, ModuleInfo, build_context
from .diagnostics import Diagnostic, suppressed_lines
from .linter import LintReport, lint_file, lint_paths, lint_paths_report, lint_source
from .rules import RULES, Rule, rule_ids
from .sanitizer import (
    AttributeWrite,
    LockOrderSanitizer,
    PartPuritySanitizer,
    TrackedLock,
)

__all__ = [
    "AnalysisContext",
    "AttributeWrite",
    "ClassInfo",
    "Diagnostic",
    "LintReport",
    "LockOrderSanitizer",
    "ModuleInfo",
    "PartPuritySanitizer",
    "RULES",
    "Rule",
    "TrackedLock",
    "build_context",
    "lint_file",
    "lint_paths",
    "lint_paths_report",
    "lint_source",
    "rule_ids",
    "suppressed_lines",
]
