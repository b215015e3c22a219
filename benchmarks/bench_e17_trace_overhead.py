"""E17 — cost of observability: tracing and deadline overhead.

The instrumentation layer promises near-zero cost when off (one
timestamp pair and one branch per ``anonymize`` call) and small,
bounded cost when on (phase timers plus a counter-dict snapshot per
call).  This experiment quantifies both against the untraced baseline
on the workhorse algorithms, and asserts the tracing-on overhead stays
under 5% (median of repeated interleaved measurements, plus a small
absolute epsilon so sub-millisecond workloads don't trip on timer
noise).

Run with ``REPRO_BENCH_QUICK=1`` for the CI-sized version.  Every
solve names the python backend (:data:`ORACLE`), so the measured work
is the deterministic pure-Python metric path.
"""

from __future__ import annotations

import statistics
import time

from repro.algorithms.center_cover import CenterCoverAnonymizer
from repro.algorithms.chain import GreedyChainAnonymizer
from repro.algorithms.local_search import LocalSearchAnonymizer
from repro.core.backend import get_backend
from repro.workloads import uniform_table

from .conftest import fmt, quick_mode

#: the backend every timed solve runs on: the pure-Python reference
ORACLE = "python"

#: tolerated tracing-on slowdown: 5% relative plus 5 ms absolute slack
RELATIVE_LIMIT = 1.05
ABSOLUTE_EPSILON = 0.005


def _local_search() -> LocalSearchAnonymizer:
    """Local search whose base solve runs on the oracle as well."""
    return LocalSearchAnonymizer(
        CenterCoverAnonymizer(backend=ORACLE), max_rounds=5, backend=ORACLE
    )


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _measure(algorithm, table, k, repeats):
    """Interleaved off/on medians, warm cache, same instance."""
    get_backend(table, ORACLE).distance_matrix()  # warm the shared cache
    algorithm.anonymize(table, k)  # warm-up run outside the timing
    off = _median_seconds(
        lambda: algorithm.anonymize(table, k, trace=False), repeats
    )
    on = _median_seconds(
        lambda: algorithm.anonymize(table, k, trace=True), repeats
    )
    return off, on


def test_e17_trace_overhead_under_limit(benchmark, report):
    n = 120 if quick_mode() else 240
    repeats = 5 if quick_mode() else 9
    table = uniform_table(n, 6, alphabet_size=4, seed=0)
    algorithms = {
        "center_cover": CenterCoverAnonymizer(backend=ORACLE),
        "greedy_chain": GreedyChainAnonymizer(backend=ORACLE),
        "center_cover+local": _local_search(),
    }

    def measure_all():
        return {
            name: _measure(algorithm, table, 4, repeats)
            for name, algorithm in algorithms.items()
        }

    timings = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    rows = []
    for name, (off, on) in timings.items():
        overhead = (on / off - 1.0) if off > 0 else 0.0
        assert on <= off * RELATIVE_LIMIT + ABSOLUTE_EPSILON, (
            f"{name}: tracing costs {overhead:.1%} "
            f"({fmt(off, 4)}s off vs {fmt(on, 4)}s on)"
        )
        benchmark.extra_info[name] = {
            "off_seconds": off, "on_seconds": on, "overhead": overhead,
        }
        rows.append([name, fmt(off, 4), fmt(on, 4), f"{overhead:+.1%}"])
    benchmark.extra_info.update(n=n, k=4, repeats=repeats)
    report.table(
        f"E17 trace overhead (n={n}, k=4, median of {repeats})",
        ["algorithm", "trace_off_s", "trace_on_s", "overhead"],
        rows,
    )


def test_e17_deadline_check_overhead(benchmark, report):
    """An armed-but-generous budget must not slow the search loops."""
    n = 100 if quick_mode() else 200
    repeats = 5 if quick_mode() else 9
    table = uniform_table(n, 6, alphabet_size=4, seed=1)
    algorithm = _local_search()
    get_backend(table, ORACLE).distance_matrix()
    algorithm.anonymize(table, 4)

    def measure():
        plain = _median_seconds(
            lambda: algorithm.anonymize(table, 4), repeats
        )
        budgeted = _median_seconds(
            lambda: algorithm.anonymize(table, 4, timeout=3600.0), repeats
        )
        return plain, budgeted

    plain, budgeted = benchmark.pedantic(measure, rounds=1, iterations=1)
    # generous relative bound: the check is one monotonic read per
    # candidate scan, invisible next to the O(m) what-if queries
    assert budgeted <= plain * 1.25 + ABSOLUTE_EPSILON
    benchmark.extra_info.update(
        n=n, plain_seconds=plain, budgeted_seconds=budgeted
    )
    report.line(
        f"E17 deadline checks: {fmt(plain, 4)}s plain vs "
        f"{fmt(budgeted, 4)}s with an armed 1h budget"
    )
