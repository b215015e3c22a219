"""E3 — Theorem 4.1: the greedy-cover algorithm's approximation quality
and its exponential-in-k runtime.

Claims reproduced:
* measured ratio alg/OPT stays (far) below 3k(1 + ln 2k), on n=9 tables
  against the subset DP and on a narrow n=30 table against the FPT
  pattern DP's optimum;
* runtime grows with k like |V|^{Theta(k)} (the full collection C).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.algorithms.exact import optimal_anonymization
from repro.core.table import Table

from .conftest import fmt, quick_mode


def _random_table(seed: int, n: int, m: int, sigma: int) -> Table:
    rng = np.random.default_rng(seed)
    data = rng.integers(0, sigma, size=(n, m))
    return Table([tuple(int(v) for v in row) for row in data])


@pytest.mark.parametrize("k", [2, 3])
def test_e3_ratio_vs_bound(benchmark, report, k):
    """Measured approximation ratios over 20 random instances."""
    tables = [_random_table(seed, 9, 4, 3) for seed in range(20)]
    algorithm = registry.create("greedy_cover")

    def solve_all():
        return [algorithm.anonymize(t, k).stars for t in tables]

    costs = benchmark.pedantic(solve_all, rounds=1, iterations=1)
    rows = []
    ratios = []
    for seed, (table, cost) in enumerate(zip(tables, costs)):
        opt, _ = optimal_anonymization(table, k)
        ratio = 1.0 if opt == cost == 0 else cost / opt
        ratios.append(ratio)
        rows.append([seed, opt, cost, fmt(ratio, 2)])
    bound = registry.proven_bound(algorithm, k, 4)
    assert all(r <= bound for r in ratios)
    benchmark.extra_info.update(
        k=k, bound=bound, max_ratio=max(ratios),
        mean_ratio=sum(ratios) / len(ratios),
    )
    report.table(
        f"E3 greedy-cover ratios, k={k} "
        f"(bound 3k(1+ln 2k) = {fmt(bound, 1)})",
        ["seed", "OPT", "greedy", "ratio"],
        rows,
    )
    report.line(
        f"E3 summary k={k}: max ratio {fmt(max(ratios), 2)}, "
        f"mean {fmt(sum(ratios) / len(ratios), 2)}, bound {fmt(bound, 1)}"
    )


@pytest.mark.skipif(quick_mode(), reason="the exact optimum takes ~8 s")
def test_e3_ratio_on_a_narrow_table(benchmark, report):
    """n=30, k=3 on a narrow binary table (m=4, sigma=2), where the FPT
    pattern DP still proves the optimum: C has ~170k sets here."""
    table, k = _random_table(1, 30, 4, 2), 3
    greedy = registry.create("greedy_cover")
    result = benchmark.pedantic(greedy.anonymize, args=(table, k),
                                rounds=1, iterations=1)
    assert result.is_valid(table)
    opt = registry.create("fpt_suppression").anonymize(table, k).stars
    bound = registry.proven_bound(greedy, k, table.degree)
    ratio = 1.0 if opt == result.stars == 0 else result.stars / opt
    assert ratio <= bound
    benchmark.extra_info.update(k=k, n=table.n_rows, opt=opt,
                                greedy=result.stars, bound=bound)
    report.line(
        f"E3 narrow n=30 m=4 sigma=2 k=3: OPT {opt}, greedy "
        f"{result.stars}, ratio {fmt(ratio, 2)}, bound {fmt(bound, 1)}"
    )


@pytest.mark.parametrize("k", [2, 3])
def test_e3_runtime_exponential_in_k(benchmark, k):
    """Time one greedy-cover run; compare across k in the report table.

    The collection C has Theta(n^{2k-1}) sets, so the k=3 row should be
    orders of magnitude slower than k=2 at the same n.
    """
    table = _random_table(123, 12, 4, 3)
    algorithm = registry.create("greedy_cover")
    result = benchmark(algorithm.anonymize, table, k)
    assert result.is_valid(table)
    benchmark.extra_info.update(k=k, n=table.n_rows)


def test_e3_greedy_vs_exact_on_planted(benchmark, report):
    """On planted instances (known OPT = 0) greedy must find cost 0."""
    from repro.workloads import planted_groups_table

    algorithm = registry.create("greedy_cover")
    tables = [
        planted_groups_table(3, 3, 4, noise=0.0, seed=s) for s in range(5)
    ]

    def solve_all():
        return [algorithm.anonymize(t, 3).stars for t in tables]

    costs = benchmark.pedantic(solve_all, rounds=1, iterations=1)
    assert costs == [0] * 5
    report.line("E3 planted: greedy recovers all zero-cost groupings")
