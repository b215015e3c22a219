"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import available_backends, default_backend_name
from repro.core.table import Table


def pytest_report_header(config) -> str:
    return (
        f"repro backend: {default_backend_name()} "
        f"(available: {', '.join(available_backends())})"
    )


@pytest.fixture
def hospital_table() -> Table:
    """The paper's introductory X-ray example (Section 1)."""
    return Table(
        [
            ("Harry", "Stone", 34, "Afr-Am"),
            ("John", "Reyser", 36, "Cauc"),
            ("Beatrice", "Stone", 47, "Afr-Am"),
            ("John", "Ramos", 22, "Hisp"),
        ],
        attributes=["first", "last", "age", "race"],
    )


@pytest.fixture
def tiny_binary_table() -> Table:
    """Four binary rows, the corners of a 2-cube, times one duplicate."""
    return Table([(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_table(rng: np.random.Generator, n: int, m: int, sigma: int) -> Table:
    data = rng.integers(0, sigma, size=(n, m))
    return Table([tuple(int(v) for v in row) for row in data])


def count_scalar_distance(backend) -> list[int]:
    """Route *backend*'s scalar ``distance`` through a call counter."""
    calls = [0]
    scalar = backend.distance

    def counting(i: int, j: int) -> int:
        calls[0] += 1
        return scalar(i, j)

    backend.distance = counting
    return calls
