"""Tests for the programmatic experiment runners."""

import pytest

from repro.algorithms import CenterCoverAnonymizer, GreedyCoverAnonymizer
from repro.experiments import (
    RatioRow,
    comparison,
    k_sweep,
    privacy_experiment,
    ratio_experiment,
    threshold_experiment,
)
from repro.workloads import uniform_table


class TestRatioExperiment:
    def test_greedy_within_bound(self):
        exp = ratio_experiment(GreedyCoverAnonymizer(), k=2, n=8, trials=6)
        assert exp.within_bound
        assert exp.algorithm == "greedy_cover"
        assert len(exp.rows) == 6
        assert 1.0 <= exp.mean_ratio <= exp.max_ratio

    def test_center_within_bound(self):
        exp = ratio_experiment(CenterCoverAnonymizer(), k=2, n=8, trials=6)
        assert exp.within_bound
        assert exp.bound > 1

    def test_ratio_row_semantics(self):
        assert RatioRow(0, 4, 6).ratio == 1.5
        assert RatioRow(0, 0, 0).ratio == 1.0
        assert RatioRow(0, 0, 3).ratio == float("inf")

    def test_deterministic(self):
        a = ratio_experiment(CenterCoverAnonymizer(), k=2, n=7, trials=4)
        b = ratio_experiment(CenterCoverAnonymizer(), k=2, n=7, trials=4)
        assert a.rows == b.rows

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ratio_experiment(CenterCoverAnonymizer(), k=2, trials=0)

    def test_empty_rows_raise_clearly(self):
        from repro.experiments import RatioExperiment

        empty = RatioExperiment(algorithm="x", k=2, m=3, bound=5.0)
        with pytest.raises(ValueError, match="no rows"):
            empty.mean_ratio
        with pytest.raises(ValueError, match="no rows"):
            empty.max_ratio

    def test_trace_collection(self):
        exp = ratio_experiment(
            CenterCoverAnonymizer(), k=2, n=6, trials=2, trace=True
        )
        assert len(exp.traces) == 2
        assert all(t["algorithm"] == "center_cover" for t in exp.traces)

    def test_bounds_come_from_registry(self):
        """Regression: the bound used to fall through to Theorem 4.2 for
        every non-greedy algorithm, crediting heuristics with a
        guarantee they don't have."""
        from repro.algorithms import ExactAnonymizer, MondrianAnonymizer
        from repro.theory import theorem_4_1_ratio, theorem_4_2_ratio

        greedy = ratio_experiment(GreedyCoverAnonymizer(), k=2, n=6,
                                  trials=1)
        assert greedy.bound == theorem_4_1_ratio(2)
        center = ratio_experiment(CenterCoverAnonymizer(), k=2, n=6,
                                  trials=1)
        assert center.bound == theorem_4_2_ratio(2, center.m)
        exact = ratio_experiment(ExactAnonymizer(), k=2, n=6, trials=1)
        assert exact.bound == 1.0 and exact.within_bound

        heuristic = ratio_experiment(MondrianAnonymizer(), k=2, n=6,
                                     trials=1)
        assert heuristic.bound is None
        assert not heuristic.has_bound
        with pytest.raises(ValueError, match="no proven"):
            heuristic.within_bound


class TestThresholdExperiment:
    @pytest.mark.parametrize("kind", ["entries", "attributes"])
    @pytest.mark.parametrize("with_matching", [True, False])
    def test_theorem_consistency(self, kind, with_matching):
        result = threshold_experiment(
            kind=kind, with_matching=with_matching, seed=3
        )
        assert result.has_matching == with_matching
        assert result.consistent_with_theorem

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            threshold_experiment(kind="nonsense")


class TestSweepAndComparison:
    def test_k_sweep_monotone_cost(self):
        table = uniform_table(40, 4, alphabet_size=3, seed=0)
        points = k_sweep(table, ks=(2, 4, 8))
        assert [p.k for p in points] == [2, 4, 8]
        assert points[0].stars <= points[-1].stars * 1.25
        assert all(0 <= p.precision <= 1 for p in points)

    def test_comparison_default_algorithms(self):
        table = uniform_table(24, 4, alphabet_size=3, seed=1)
        costs = comparison(table, 3)
        assert set(costs) >= {"center_cover", "mondrian", "random_partition"}
        assert all(cost >= 0 for cost in costs.values())
        assert costs["center_cover"] <= costs["random_partition"]

    def test_comparison_custom_algorithms(self):
        table = uniform_table(12, 3, alphabet_size=3, seed=2)
        costs = comparison(
            table, 2, {"only_center": CenterCoverAnonymizer}
        )
        assert list(costs) == ["only_center"]

    def test_comparison_collects_traces(self):
        table = uniform_table(12, 3, alphabet_size=3, seed=2)
        traces: dict = {}
        comparison(
            table, 2, {"only_center": CenterCoverAnonymizer},
            trace=True, traces_out=traces,
        )
        assert set(traces) == {"only_center"}
        assert traces["only_center"]["n_rows"] == 12


class TestPrivacyExperiment:
    def test_anonymity_defeats_the_adversary(self):
        exp = privacy_experiment(n=60, ks=(1, 3))
        baseline, protected = exp.point(1), exp.point(3)
        assert baseline.stars == 0  # k=1 is the no-op baseline
        assert baseline.fraction_unique > protected.fraction_unique
        assert protected.fraction_unique <= 1 / 3
        assert exp.reidentification_drop > 1.0

    def test_deterministic(self):
        def signature(exp):
            return [
                (p.k, p.stars, p.fraction_unique, p.min_match,
                 p.mean_match, p.inference_accuracy, p.classes)
                for p in exp.points
            ]

        first = privacy_experiment(n=40, ks=(2,))
        second = privacy_experiment(n=40, ks=(2,))
        assert signature(first) == signature(second)

    def test_resume_reuses_recorded_cells(self, tmp_path):
        from repro.artifacts import RunStore

        config = {"n": 40, "epsilon": 1.0}
        store = RunStore(tmp_path, experiment="privacy", config=config)
        first = privacy_experiment(n=40, ks=(1, 2), store=store)
        resumed = RunStore(tmp_path, experiment="privacy", config=config,
                           resume=True)
        second = privacy_experiment(n=40, ks=(1, 2), store=resumed)
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            privacy_experiment(ks=())
        with pytest.raises(ValueError):
            privacy_experiment(epsilon=0.0)


class TestRunnersNeverMutateAlgorithms:
    """Regression: per-call settings used to be written onto the
    caller's anonymizer instance, silently reconfiguring it for later
    calls.  The instance's own ``backend`` (the python oracle here)
    rides along to every trial."""

    def test_ratio_experiment_leaves_backend_alone(self):
        algorithm = CenterCoverAnonymizer(backend="python")
        oracle = ratio_experiment(algorithm, k=2, n=6, trials=2,
                                  timeout=60.0, trace=True)
        assert algorithm.backend == "python"
        assert algorithm.budget is None and algorithm.trace is None
        runtime = ratio_experiment(CenterCoverAnonymizer(), k=2, n=6,
                                   trials=2)
        assert oracle.rows == runtime.rows

    def test_k_sweep_leaves_backend_alone(self):
        table = uniform_table(20, 3, alphabet_size=3, seed=4)
        algorithm = CenterCoverAnonymizer(backend="python")
        oracle = k_sweep(table, ks=(2, 3), algorithm=algorithm)
        assert algorithm.backend == "python"
        assert oracle == k_sweep(table, ks=(2, 3))

    def test_comparison_leaves_factories_products_alone(self):
        table = uniform_table(12, 3, alphabet_size=3, seed=5)
        built = []

        def factory():
            algorithm = CenterCoverAnonymizer()
            built.append(algorithm)
            return algorithm

        comparison(table, 2, {"center": factory}, trace=True)
        assert built and all(a.trace is None for a in built)
