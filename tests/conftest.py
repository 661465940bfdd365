"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def _one_thread_unless_set(monkeypatch):
    """Every test starts on one thread, whatever QUANTKIT_THREADS the shell
    exports; a test that wants a pool sets the variable itself."""
    monkeypatch.delenv("QUANTKIT_THREADS", raising=False)
