"""E25 — the privacy tier: what k buys against a linkage adversary,
and what the ε-DP post-pass costs.

Two regression gates on the census workload:

* **re-identification drops ≥ 5x from k=1 to k=5** — the projection
  attack (full quasi-identifier auxiliary knowledge) uniquely pins most
  individuals in the raw release and almost none in the 5-anonymous
  one (k-anonymity guarantees match sets of at least k, so unique
  re-identification of released individuals is impossible by
  construction — the gate catches a broken attack harness or a broken
  release path, whichever regresses first);
* **the DP noisy-histogram post-pass stays under 10% of solve time** —
  noise is O(classes), solving is superlinear in n, and the service
  attaches the post-pass to every ε request, so it must stay
  negligible.  Both sides of the ratio are medians of
  ``repro.experiments.PRIVACY_TIMING_RUNS`` runs (the solve on a fresh
  table each time), so one cold ~0.1 ms post-pass no longer decides
  the gate.

Run with ``REPRO_BENCH_QUICK=1`` for the CI-sized version.
"""

from __future__ import annotations

from repro.experiments import privacy_experiment
from repro.privacy.dp import noisy_class_histogram
from repro.privacy.sensitive import split_sensitive
from repro.workloads import census_table

from .conftest import fmt, quick_mode

N_ROWS = 60 if quick_mode() else 120

EPSILON = 1.0

#: the attack gate: unique re-identification must fall at least this
#: much between the raw (k=1) and protected (k=5) releases
MIN_DROP = 5.0

#: the overhead gate: DP post-pass as a fraction of the k=5 solve
MAX_DP_OVERHEAD = 0.10


def test_e25_reidentification_drop(benchmark, report):
    exp = benchmark.pedantic(
        privacy_experiment,
        kwargs={"n": N_ROWS, "ks": (1, 5), "epsilon": EPSILON},
        rounds=1, iterations=1,
    )
    baseline, protected = exp.point(1), exp.point(5)
    assert baseline.stars == 0, "the k=1 baseline must be a no-op"
    assert baseline.fraction_unique > 0.5, (
        "the raw census release should re-identify most individuals"
    )
    assert protected.min_match >= 5 or protected.fraction_unique == 0.0
    drop = exp.reidentification_drop
    assert drop >= MIN_DROP, (
        f"unique re-identification fell only {drop:.1f}x from k=1 to "
        f"k=5 (gate: >= {MIN_DROP}x)"
    )
    benchmark.extra_info.update(
        n=N_ROWS,
        baseline_fraction_unique=baseline.fraction_unique,
        protected_fraction_unique=protected.fraction_unique,
        baseline_inference=baseline.inference_accuracy,
        protected_inference=protected.inference_accuracy,
    )
    report.table(
        f"E25 projection attack (census n={N_ROWS}, ε={EPSILON:g})",
        ["k", "stars", "unique re-id", "min match", "inference acc"],
        [
            [p.k, p.stars, f"{p.fraction_unique:.1%}", p.min_match,
             f"{p.inference_accuracy:.1%}"]
            for p in exp.points
        ],
    )


def test_e25_dp_overhead(benchmark, report):
    exp = privacy_experiment(n=N_ROWS, ks=(5,), epsilon=EPSILON)
    point = exp.point(5)
    assert point.dp_overhead < MAX_DP_OVERHEAD, (
        f"DP post-pass took {point.dp_overhead:.1%} of the k=5 solve "
        f"(gate: < {MAX_DP_OVERHEAD:.0%})"
    )
    # benchmark the post-pass itself so the baseline tracks its cost
    table = census_table(N_ROWS, seed=0)
    identifiers, _, _ = split_sensitive(table, -1)
    dp = benchmark(noisy_class_histogram, identifiers, EPSILON, seed=0)
    assert len(dp["classes"]) >= 1
    benchmark.extra_info.update(
        n=N_ROWS,
        solve_seconds=point.solve_seconds,
        dp_seconds=point.dp_seconds,
        dp_overhead=point.dp_overhead,
    )
    report.table(
        f"E25 ε-DP post-pass (census n={N_ROWS}, ε={EPSILON:g})",
        ["k", "solve s", "dp s", "overhead", "classes"],
        [[point.k, fmt(point.solve_seconds), fmt(point.dp_seconds),
          f"{point.dp_overhead:.1%}", point.classes]],
    )
