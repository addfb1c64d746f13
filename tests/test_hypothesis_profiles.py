"""The hypothesis profile chosen on the command line survives a second
import of the conftest (``from tests.conftest import ...`` runs it again
under another module name)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from hypothesis import settings


def test_reimported_conftest_keeps_the_chosen_profile():
    before = settings.get_current_profile_name()
    settings.load_profile("deep")
    try:
        spec = importlib.util.spec_from_file_location(
            "conftest_imported_again", Path(__file__).with_name("conftest.py")
        )
        assert spec is not None and spec.loader is not None
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
        assert settings.get_current_profile_name() == "deep"
        assert settings.default.max_examples == 2000
    finally:
        settings.load_profile(before)
