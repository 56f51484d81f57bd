"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def solves(monkeypatch):
    """solves(call): the number of np.linalg.solve calls that call() makes."""
    solve, calls = np.linalg.solve, []

    def counting_solve(*args):
        calls.append(1)
        return solve(*args)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return count
