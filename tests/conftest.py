"""Shared fixtures."""

import numpy as np
import pytest

from yangkit import liealg


class FloatCastCounter:
    """Stand-in for liealg's numpy that counts float64 casts: the float
    route of ``liealg.safe_matmul`` reads ``np.float64`` twice per
    product, and no other liealg code reads it."""

    def __init__(self):
        self.casts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    @property
    def float64(self):
        self.casts += 1
        return np.float64


@pytest.fixture
def float_casts(monkeypatch):
    counter = FloatCastCounter()
    monkeypatch.setattr(liealg, "np", counter)
    return counter
