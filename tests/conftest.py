"""Shared test fixtures.

The five 1000-case kernel property suites of ``_oracles`` are named tests
in ``test_ncexpr.py`` and, together, acceptance criterion 8; they run once
per pytest run and every one of those tests reads the shared outcome.
"""

import time

import pytest

import _oracles as oracles

class SuiteRun:
    """Outcome of one run of every suite: the cases each checked, or the
    exception it raised, and the wall time of the whole run."""

    def __init__(self):
        self._outcomes = {}
        t0 = time.monotonic()
        for name, suite in oracles.SUITES.items():
            try:
                self._outcomes[name] = suite(1000)
            except Exception as exc:  # noqa: BLE001 - re-raised by cases()
                self._outcomes[name] = exc
        self.elapsed = time.monotonic() - t0

    def cases(self, name: str) -> int:
        """Cases checked by suite ``name``; re-raises its failure."""
        outcome = self._outcomes[name]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture(scope="session")
def oracle_suites() -> SuiteRun:
    return SuiteRun()
