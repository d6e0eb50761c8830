"""Shared fixtures for the test suite."""

import pytest

from repro.sim.config import TINY_CONFIG
from repro.sim.machine import Machine


@pytest.fixture
def tiny_machine():
    """A 4-core machine with small caches and the All Near policy."""
    return Machine(TINY_CONFIG, "all-near")


@pytest.fixture
def make_machine():
    """Factory for machines with a chosen policy on the tiny config."""
    def _make(policy="all-near", config=TINY_CONFIG):
        return Machine(config, policy)
    return _make


@pytest.fixture
def tmp_executor(tmp_path):
    """An Executor caching into a temporary directory."""
    from repro.harness.executor import Executor, ResultStore
    return Executor(store=ResultStore(str(tmp_path)))
