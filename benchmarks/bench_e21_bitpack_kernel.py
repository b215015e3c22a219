"""E21 — the bit-packed Hamming kernel on wide binary tables.

The Theorem 3.2 hardness regime — many binary attributes, alphabet
Sigma = {0, 1} — is exactly where per-attribute compares are slowest and
where bit-packing shines: the numpy backend packs 64 binary columns per
uint64 lane and takes distances via XOR+popcount whenever that moves
fewer bytes than comparing codes.  This experiment measures

* the raw distance-matrix kernel (``NumpyBackend.matrix_array``) against
  an unpacked per-column reference fill kept in this file, **gating the
  backend >= 5x over the reference** whenever the table has >= 128
  binary attributes;
* the same ratio on the census n=1000 quasi-identifiers, which pack
  nothing, so it should read about 1.0x (reported, not gated);
* the end-to-end ``distance_matrix()`` build across both backends
  (the shared nested-list conversion dilutes the kernel win — see
  docs/performance.md);
* a full center/ball (Theorem 4.2) solve per backend, asserting the
  release is identical — the kernel never changes an output.

Run with ``REPRO_BENCH_QUICK=1`` for the CI-sized version.
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms.center_cover import CenterCoverAnonymizer
from repro.core.backend import available_backends, encode_table, make_backend
from repro.workloads import census_table, quasi_identifiers, uniform_table

from .conftest import fmt, quick_mode

needs_numpy = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available",
)

#: minimum kernel speedup on wide binary tables (>= 128 binary attrs)
KERNEL_GATE = 5.0

_SHAPES = [(200, 128)] if quick_mode() else [(200, 128), (400, 256)]


def _binary_table(n: int, m: int):
    return uniform_table(n, m, alphabet_size=2, seed=3)


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _unpacked_matrix(table):
    """The reference fill: one code compare per column, nothing packed.

    The numpy backend's fill before it learned to pack binary columns,
    over the same column-major codes and the same row blocks.
    """
    import numpy as np

    columns = encode_table(table).columns
    n = columns.shape[1]
    matrix = np.zeros((n, n), dtype=np.uint16)
    block = max(1, 4_000_000 // max(1, n))
    for start in range(0, n, block):
        rows = matrix[start:start + block]
        for col in columns:
            rows += col[start:start + block, None] != col
    return matrix


def _kernel_ratio(table) -> tuple[float, float]:
    """Best-of-3 seconds of the reference fill and of the backend's.

    Fresh backend instances per timing round so nothing is served from
    the lazy-matrix memo; the encoding and its kernel view are shared
    per table, as in a solve.
    """
    reference = _best_of(lambda: _unpacked_matrix(table))
    backend = _best_of(lambda: make_backend(table, "numpy").matrix_array())
    return reference, backend


def _assert_same_matrix(table) -> None:
    assert (
        make_backend(table, "numpy").matrix_array() == _unpacked_matrix(table)
    ).all(), "kernels disagree on the matrix"


@needs_numpy
@pytest.mark.parametrize("n,m", _SHAPES)
def test_e21_bitpack_kernel_speedup(benchmark, report, n, m):
    """XOR+popcount lanes vs the unpacked per-column compare."""
    table = _binary_table(n, m)
    ref_seconds, np_seconds = benchmark.pedantic(
        lambda: _kernel_ratio(table), rounds=1, iterations=1
    )
    speedup = ref_seconds / np_seconds if np_seconds > 0 else float("inf")
    _assert_same_matrix(table)
    if m >= 128:
        assert speedup >= KERNEL_GATE, (
            f"packed kernel only {speedup:.1f}x over the unpacked fill at "
            f"n={n}, m={m} (gate: {KERNEL_GATE}x)"
        )
    benchmark.extra_info.update(
        n=n, m=m, unpacked_seconds=ref_seconds, numpy_seconds=np_seconds,
        speedup=speedup,
    )
    report.line(
        f"E21 kernel n={n} m={m}: unpacked {fmt(ref_seconds)}s, "
        f"numpy {fmt(np_seconds)}s — {speedup:.1f}x "
        f"(gate {KERNEL_GATE:.0f}x at m>=128)"
    )


@needs_numpy
def test_e21_census_kernel_ratio(benchmark, report):
    """On census quasi-identifiers nothing packs: the backend runs the
    reference's loop, so the ratio reads about 1.0x (not gated)."""
    table = quasi_identifiers(census_table(1000, seed=0))
    assert len(encode_table(table).kernel()[0]) == 0, "census packed a lane"
    ref_seconds, np_seconds = benchmark.pedantic(
        lambda: _kernel_ratio(table), rounds=1, iterations=1
    )
    ratio = ref_seconds / np_seconds if np_seconds > 0 else float("inf")
    _assert_same_matrix(table)
    benchmark.extra_info.update(
        n=table.n_rows, m=table.degree, unpacked_seconds=ref_seconds,
        numpy_seconds=np_seconds, ratio=ratio,
    )
    report.line(
        f"E21 kernel census n={table.n_rows} m={table.degree}: unpacked "
        f"{fmt(ref_seconds)}s, numpy {fmt(np_seconds)}s — {ratio:.2f}x "
        f"(nothing packs; expect ~1.0x)"
    )


@needs_numpy
def test_e21_distance_matrix_end_to_end(benchmark, report):
    """Full ``distance_matrix()`` build per backend on the E21 table."""
    n, m = _SHAPES[0]
    table = _binary_table(n, m)

    def compare():
        timings = {}
        for name in available_backends():
            backend = make_backend(table, name)
            start = time.perf_counter()
            matrix = backend.distance_matrix()
            timings[name] = (time.perf_counter() - start, matrix)
        return timings

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    reference = timings["python"][1]
    rows = []
    for name, (seconds, matrix) in timings.items():
        assert matrix == reference, f"{name} disagrees with python"
        ratio = timings["python"][0] / seconds if seconds > 0 else float(
            "inf"
        )
        rows.append([name, fmt(seconds), f"{ratio:.1f}x"])
        benchmark.extra_info[f"{name}_seconds"] = seconds
    benchmark.extra_info.update(n=n, m=m)
    report.table(
        f"E21 distance_matrix (n={n}, m={m}, binary)",
        ["backend", "seconds", "vs python"],
        rows,
    )


@needs_numpy
def test_e21_center_ball_solve(benchmark, report):
    """Theorem 4.2 solve on the hardness-regime table, per backend.

    The kernel is a drop-in: every backend must release the identical
    table (same stars, same rows), whatever the speed.
    """
    n, m = (120, 128) if quick_mode() else (200, 192)
    table = _binary_table(n, m)
    k = 4

    def compare():
        timings = {}
        for name in available_backends():
            algorithm = CenterCoverAnonymizer(
                backend=make_backend(table, name)
            )
            start = time.perf_counter()
            result = algorithm.anonymize(table, k)
            timings[name] = (time.perf_counter() - start, result)
        return timings

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    reference = timings["python"][1]
    rows = []
    for name, (seconds, result) in timings.items():
        assert result.anonymized.rows == reference.anonymized.rows, (
            f"{name} released a different table"
        )
        assert result.stars == reference.stars
        rows.append([name, fmt(seconds), result.stars])
        benchmark.extra_info[f"{name}_seconds"] = seconds
    benchmark.extra_info.update(n=n, m=m, k=k, stars=reference.stars)
    report.table(
        f"E21 center/ball solve (n={n}, m={m}, k={k}, binary)",
        ["backend", "seconds", "stars"],
        rows,
    )
