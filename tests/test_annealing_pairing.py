"""Tests for simulated annealing and the k=2 pair-matching algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    CenterCoverAnonymizer,
    PairMatchingAnonymizer,
    RandomPartitionAnonymizer,
    SimulatedAnnealingAnonymizer,
    minimum_weight_pairing,
)
from repro.algorithms.exact import optimal_anonymization
from repro.core.table import Table

from .conftest import random_table


class TestSimulatedAnnealing:
    def test_never_worse_than_base(self):
        import numpy as np

        for seed in range(5):
            t = random_table(np.random.default_rng(seed), 14, 4, 3)
            base = CenterCoverAnonymizer().anonymize(t, 3).stars
            annealed = SimulatedAnnealingAnonymizer(
                steps=400, seed=seed
            ).anonymize(t, 3)
            assert annealed.stars <= base
            assert annealed.is_valid(t)

    def test_escapes_bad_random_start(self):
        t = Table([(0, 0), (9, 9), (0, 0), (9, 9)])
        result = SimulatedAnnealingAnonymizer(
            inner=RandomPartitionAnonymizer(seed=1), steps=300, seed=0
        ).anonymize(t, 2)
        assert result.stars == 0

    def test_seed_determinism(self):
        import numpy as np

        t = random_table(np.random.default_rng(3), 12, 3, 3)
        a = SimulatedAnnealingAnonymizer(steps=200, seed=7).anonymize(t, 2)
        b = SimulatedAnnealingAnonymizer(steps=200, seed=7).anonymize(t, 2)
        assert a.anonymized == b.anonymized

    def test_zero_steps_returns_base(self):
        import numpy as np

        t = random_table(np.random.default_rng(4), 10, 3, 3)
        base = CenterCoverAnonymizer().anonymize(t, 2).stars
        result = SimulatedAnnealingAnonymizer(steps=0, seed=0).anonymize(t, 2)
        assert result.stars == base

    def test_single_group_passthrough(self):
        t = Table([(0,), (1,), (2,)])
        result = SimulatedAnnealingAnonymizer(seed=0).anonymize(t, 3)
        assert result.stars == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingAnonymizer(steps=-1)
        with pytest.raises(ValueError):
            SimulatedAnnealingAnonymizer(start_temperature=0)
        with pytest.raises(ValueError):
            SimulatedAnnealingAnonymizer(cooling=1.0)

    def test_extras(self):
        import numpy as np

        t = random_table(np.random.default_rng(5), 10, 3, 3)
        result = SimulatedAnnealingAnonymizer(steps=100, seed=0).anonymize(t, 2)
        assert result.extras["steps"] == 100
        assert "accepted_moves" in result.extras

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_property_valid(self, seed, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 16))
        t = random_table(rng, n, 3, 3)
        result = SimulatedAnnealingAnonymizer(steps=150, seed=seed).anonymize(
            t, k
        )
        assert result.is_valid(t)


class TestMinimumWeightPairing:
    def test_obvious_pairs(self):
        t = Table([(0, 0), (9, 9), (0, 1), (9, 8)])
        assert minimum_weight_pairing(t) == [(0, 2), (1, 3)]

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            minimum_weight_pairing(Table([(1,), (2,), (3,)]))

    def test_empty(self):
        assert minimum_weight_pairing(Table([])) == []

    def test_optimality_against_brute_force(self):
        """Blossom matching equals exhaustive pairing on small n."""
        import numpy as np
        from itertools import permutations

        from repro.core.distance import distance

        for seed in range(5):
            t = random_table(np.random.default_rng(seed), 6, 3, 3)
            pairs = minimum_weight_pairing(t)
            cost = sum(distance(t[a], t[b]) for a, b in pairs)

            best = min(
                sum(
                    distance(t[p[i]], t[p[i + 1]])
                    for i in range(0, 6, 2)
                )
                for p in permutations(range(6))
            )
            assert cost == best


class TestPairMatchingAnonymizer:
    def test_even_case_valid(self):
        import numpy as np

        t = random_table(np.random.default_rng(0), 12, 4, 3)
        result = PairMatchingAnonymizer().anonymize(t, 2)
        assert result.is_valid(t)
        assert all(len(g) == 2 for g in result.partition.groups)

    def test_odd_case_one_triple(self):
        import numpy as np

        t = random_table(np.random.default_rng(1), 11, 4, 3)
        result = PairMatchingAnonymizer().anonymize(t, 2)
        assert result.is_valid(t)
        sizes = sorted(len(g) for g in result.partition.groups)
        assert sizes == [2] * 4 + [3]
        assert result.extras["tripled"] is not None

    def test_rejects_other_k(self):
        with pytest.raises(ValueError, match="k = 2"):
            PairMatchingAnonymizer().anonymize(Table([(1,)] * 6), 3)

    def test_exact_on_pairs_only_instances(self):
        """When the unrestricted optimum uses only pairs, pair matching
        achieves it exactly."""
        import numpy as np

        hits = 0
        for seed in range(8):
            t = random_table(np.random.default_rng(seed), 8, 3, 3)
            opt, partition = optimal_anonymization(t, 2)
            result = PairMatchingAnonymizer().anonymize(t, 2)
            assert result.stars >= opt
            if all(len(g) == 2 for g in partition.groups):
                assert result.stars == opt
                hits += 1
        assert hits >= 1  # pairs-only optima do occur

    def test_never_beats_exact(self):
        import numpy as np

        for seed in range(6):
            t = random_table(np.random.default_rng(100 + seed), 9, 3, 3)
            opt, _ = optimal_anonymization(t, 2)
            assert PairMatchingAnonymizer().anonymize(t, 2).stars >= opt

    def test_competitive_with_center_cover(self):
        import numpy as np

        wins = 0
        for seed in range(6):
            t = random_table(np.random.default_rng(seed), 14, 4, 3)
            pair = PairMatchingAnonymizer().anonymize(t, 2).stars
            center = CenterCoverAnonymizer().anonymize(t, 2).stars
            if pair <= center:
                wins += 1
        assert wins >= 3

    def test_empty_and_infeasible(self):
        from repro.algorithms.base import InfeasibleAnonymizationError

        assert PairMatchingAnonymizer().anonymize(Table([]), 2).stars == 0
        with pytest.raises(InfeasibleAnonymizationError):
            PairMatchingAnonymizer().anonymize(Table([(1,)]), 2)

    def test_applicable_only_at_k2_with_networkx(self, monkeypatch):
        """The planner sees pair_matching only where it can run: k = 2,
        n >= 2 and networkx importable."""
        import sys

        from repro import planner, registry
        from repro.algorithms.pair_matching import _networkx_importable

        info = registry.get("pair_matching")
        assert info.is_applicable(10, 3, 2, 2)
        assert not info.is_applicable(10, 3, 2, 3)
        assert not info.is_applicable(1, 3, 2, 2)
        monkeypatch.setitem(sys.modules, "networkx", None)
        _networkx_importable.cache_clear()
        try:
            assert not info.is_applicable(10, 3, 2, 2)
            for n in (2, 9, 40):
                features = planner.InstanceFeatures(n=n, m=3, sigma=2, k=2)
                for budget in (None, 10.0, 1e-3, 1e-9):
                    decision = planner.plan_features(features, budget=budget)
                    assert decision.algorithm != "pair_matching"
                    (candidate,) = [
                        c for c in decision.candidates
                        if c.name == "pair_matching"
                    ]
                    assert not candidate.applicable
        finally:
            _networkx_importable.cache_clear()
