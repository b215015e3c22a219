"""Shared helpers for the experiment harness.

Each ``bench_e*.py`` regenerates one experiment from DESIGN.md's index.
Timings come from pytest-benchmark; the experiment's *result rows*
(ratios, thresholds, costs) are printed straight to the terminal via the
``report`` fixture so they survive output capturing, and are also stored
in ``benchmark.extra_info`` for machine consumption.
"""

from __future__ import annotations

import os

import pytest


def quick_mode() -> bool:
    """True when REPRO_BENCH_QUICK is set — shrink workloads for CI."""
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def pytest_report_header(config) -> str | None:
    if quick_mode():
        return "repro bench mode: quick (REPRO_BENCH_QUICK)"
    return None


class Reporter:
    """Prints experiment tables past pytest's capture."""

    def __init__(self, capsys):
        self._capsys = capsys

    def table(self, title: str, header: list[str], rows: list[list]) -> None:
        with self._capsys.disabled():
            print(f"\n=== {title} ===")
            widths = [
                max(len(str(header[j])), *(len(str(r[j])) for r in rows))
                if rows else len(str(header[j]))
                for j in range(len(header))
            ]
            print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
            for row in rows:
                print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    def line(self, text: str) -> None:
        with self._capsys.disabled():
            print(text)


@pytest.fixture
def report(capsys) -> Reporter:
    return Reporter(capsys)


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"
