"""Tests for the Theorem 4.1 greedy-cover algorithm."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import InfeasibleAnonymizationError
from repro.algorithms.exact import optimal_anonymization
from repro.algorithms.greedy_cover import GreedyCoverAnonymizer, build_greedy_cover
from repro.core.anonymity import is_k_anonymous
from repro.core.backend import available_backends, make_backend
from repro.core.table import Table
from repro.theory import theorem_4_1_ratio

from .conftest import random_table


def eager_greedy_cover(table, k, k_max=None, backend="python"):
    """The reference Theorem 4.1 greedy: every pick scans every
    ``[k, k_max]``-subset for the least ``(d / newly, d, members)``."""
    n = table.n_rows
    upper = min(2 * k - 1 if k_max is None else k_max, n)
    metric = make_backend(table, backend)

    def diameter(members):
        return max((metric.distance(a, b)
                    for a, b in combinations(members, 2)), default=0)

    uncovered = set(range(n))
    chosen = []
    while uncovered:
        best = None
        for size in range(k, upper + 1):
            for members in combinations(range(n), size):
                newly = sum(1 for v in members if v in uncovered)
                if newly == 0:
                    continue
                d = diameter(members)
                key = (Fraction(d, newly), d, members)
                if best is None or key < best:
                    best = key
        chosen.append(frozenset(best[2]))
        uncovered.difference_update(best[2])
    return chosen


@st.composite
def _small_instances(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 14))
    m = draw(st.integers(0, 6))
    sigma = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    k_max = draw(st.sampled_from([None, k, k + 1]))
    return random_table(np.random.default_rng(seed), n, m, sigma), k, k_max


@given(_small_instances(), st.sampled_from([None, 1, 7]))
@settings(max_examples=60, deadline=None)
def test_greedy_cover_equals_eager_reference(instance, chunk):
    """The lazy greedy makes exactly the eager greedy's picks, in order
    and as the same frozensets, on every backend.  Small chunks re-key
    candidates between picks, which the default chunk rarely does on
    tables this small."""
    from repro.algorithms import greedy_cover

    table, k, k_max = instance
    expected = [list(g) for g in eager_greedy_cover(table, k, k_max)]
    original = greedy_cover._CHUNK
    greedy_cover._CHUNK = chunk or original
    try:
        for name in available_backends():
            cover = build_greedy_cover(table, k, k_max=k_max,
                                       backend=make_backend(table, name))
            assert [list(g) for g in cover.groups] == expected
    finally:
        greedy_cover._CHUNK = original


class TestBuildGreedyCover:
    def test_cover_is_valid(self):
        t = Table([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        cover = build_greedy_cover(t, 2)
        cover.validate()
        assert all(2 <= len(g) <= 3 for g in cover.groups)

    def test_prefers_zero_diameter_groups(self):
        t = Table([(7, 7), (7, 7), (0, 1), (1, 0)])
        cover = build_greedy_cover(t, 2)
        assert frozenset({0, 1}) in cover.groups

    def test_single_group_table(self):
        t = Table([(1,), (2,), (3,)])
        cover = build_greedy_cover(t, 3)
        assert cover.groups == (frozenset({0, 1, 2}),)

    def test_deterministic(self):
        import numpy as np

        t = random_table(np.random.default_rng(7), 8, 3, 3)
        assert build_greedy_cover(t, 2).groups == build_greedy_cover(t, 2).groups

    def test_empty_table(self):
        assert len(build_greedy_cover(Table([]), 3)) == 0

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            build_greedy_cover(Table([(1,)]), 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_greedy_cover(Table([(1,)]), 0)

    def test_k_max_below_k_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            build_greedy_cover(Table([(1,), (2,)]), 2, k_max=1)

    def test_k_max_override(self):
        t = Table([(i,) for i in range(6)])
        cover = build_greedy_cover(t, 2, k_max=2)
        assert all(len(g) == 2 for g in cover.groups)


class TestGreedyAnonymizer:
    def test_output_valid(self):
        t = Table([(0, 0), (0, 1), (1, 0), (1, 1)])
        result = GreedyCoverAnonymizer().anonymize(t, 2)
        assert result.is_valid(t)
        assert result.algorithm == "greedy_cover"

    def test_k1_is_free(self):
        t = Table([(0, 5), (1, 6), (2, 7)])
        result = GreedyCoverAnonymizer().anonymize(t, 1)
        assert result.stars == 0

    def test_identical_rows_cost_zero(self):
        t = Table([(3, 1, 4)] * 6)
        assert GreedyCoverAnonymizer().anonymize(t, 3).stars == 0

    def test_planted_pairs_found(self):
        t = Table([(0, 0), (9, 9), (0, 0), (9, 9)])
        result = GreedyCoverAnonymizer().anonymize(t, 2)
        assert result.stars == 0

    def test_infeasible(self):
        with pytest.raises(InfeasibleAnonymizationError):
            GreedyCoverAnonymizer().anonymize(Table([(1,)]), 2)

    def test_empty_table(self):
        result = GreedyCoverAnonymizer().anonymize(Table([]), 3)
        assert result.anonymized.n_rows == 0

    def test_extras_recorded(self):
        t = Table([(0, 0), (0, 1), (1, 0), (1, 1)])
        result = GreedyCoverAnonymizer().anonymize(t, 2)
        assert "cover_sets" in result.extras
        assert (
            result.extras["partition_diameter_sum"]
            <= result.extras["cover_diameter_sum"]
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_always_k_anonymous(self, seed, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 10))
        t = random_table(rng, n, 3, 4)
        result = GreedyCoverAnonymizer().anonymize(t, k)
        assert is_k_anonymous(result.anonymized, k)
        assert result.is_valid(t)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_within_theorem_4_1_bound(self, seed, k):
        """Measured ratio never exceeds 3k(1 + ln 2k) — Theorem 4.1."""
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 9))
        t = random_table(rng, n, 3, 3)
        result = GreedyCoverAnonymizer().anonymize(t, k)
        opt, _ = optimal_anonymization(t, k)
        if opt == 0:
            assert result.stars == 0
        else:
            assert result.stars <= theorem_4_1_ratio(k) * opt

    def test_never_worse_than_suppress_everything(self):
        import numpy as np

        t = random_table(np.random.default_rng(3), 9, 4, 5)
        result = GreedyCoverAnonymizer().anonymize(t, 3)
        assert result.stars <= t.total_cells()
