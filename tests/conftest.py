"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if any path is simulated."""
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr("cmpplab.sim.simulate_batch", refuse)
    monkeypatch.setattr("cmpplab.verify.simulate_batch", refuse)
