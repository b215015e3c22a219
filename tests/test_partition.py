"""Tests for repro.core.partition: covers, partitions, and anonymization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import STAR
from repro.core.anonymity import is_k_anonymous
from repro.core.distance import anon_cost_of, diameter_of
from repro.core.partition import (
    Cover,
    Partition,
    anonymize_partition,
    partition_from_equivalence,
    split_into_small_groups,
)
from repro.core.table import Table

from .conftest import random_table


class TestCoverValidation:
    def test_valid_cover(self):
        c = Cover([{0, 1}, {1, 2}], n_rows=3, k=2)
        assert len(c) == 2
        assert not c.is_partition()

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty group"):
            Cover([set(), {0, 1}], n_rows=2, k=1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Cover([{0, 5}], n_rows=2, k=2)

    def test_undersized_group_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Cover([{0}, {1, 2}], n_rows=3, k=2)

    def test_oversized_group_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Cover([{0, 1, 2, 3}], n_rows=4, k=2, k_max=3)

    def test_uncovered_rows_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            Cover([{0, 1}], n_rows=3, k=2)

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            Cover([{0}], n_rows=1, k=0)
        with pytest.raises(ValueError, match="k_max"):
            Cover([{0, 1}], n_rows=2, k=2, k_max=1)

    def test_default_k_max_is_2k_minus_1(self):
        assert Cover([{0, 1}], n_rows=2, k=2).k_max == 3

    def test_validate_false_skips_checks(self):
        c = Cover([{0}], n_rows=5, k=3, validate=False)
        with pytest.raises(ValueError):
            c.validate()


class TestPartitionValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Partition([{0, 1}, {1, 2}], n_rows=3, k=2)

    def test_valid_partition(self):
        p = Partition([{0, 1}, {2, 3}], n_rows=4, k=2)
        assert p.is_partition()

    def test_from_cover(self):
        c = Cover([{0, 1}, {2, 3}], n_rows=4, k=2)
        assert Partition.from_cover(c).groups == c.groups

    def test_from_overlapping_cover_rejected(self):
        c = Cover([{0, 1}, {1, 2}], n_rows=3, k=2)
        with pytest.raises(ValueError):
            Partition.from_cover(c)

    def test_single_group(self):
        t = Table([(i,) for i in range(5)])
        p = Partition.single_group(t, 3)
        assert len(p) == 1
        assert p.is_partition()


class TestDiameterSumAndCost:
    def test_diameter_sum(self):
        t = Table([(0, 0), (0, 1), (1, 1), (1, 1)])
        p = Partition([{0, 1}, {2, 3}], n_rows=4, k=2)
        assert p.diameter_sum(t) == 1

    def test_anon_cost_matches_groupwise(self):
        t = Table([(0, 0), (0, 1), (1, 1), (1, 1)])
        p = Partition([{0, 1}, {2, 3}], n_rows=4, k=2)
        assert p.anon_cost(t) == sum(anon_cost_of(t, g) for g in p.groups)

    def test_equality_and_hash(self):
        a = Cover([{0, 1}], n_rows=2, k=2)
        b = Cover([frozenset([1, 0])], n_rows=2, k=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != "something"

    def test_repr(self):
        assert "Partition" in repr(Partition([{0, 1}], n_rows=2, k=2))
        assert "Cover" in repr(Cover([{0, 1}], n_rows=2, k=2))


class TestAnonymizePartition:
    def test_stars_disagreements_only(self):
        t = Table([(1, 7), (1, 8), (2, 9), (2, 9)])
        p = Partition([{0, 1}, {2, 3}], n_rows=4, k=2)
        anonymized, suppressor = anonymize_partition(t, p)
        assert anonymized.rows == ((1, STAR), (1, STAR), (2, 9), (2, 9))
        assert suppressor.total_stars() == 2

    def test_result_is_k_anonymous(self):
        t = Table([(1, 7), (1, 8), (2, 9), (3, 9)])
        p = Partition([{0, 1}, {2, 3}], n_rows=4, k=2)
        anonymized, _ = anonymize_partition(t, p)
        assert is_k_anonymous(anonymized, 2)

    def test_cost_equals_partition_anon_cost(self):
        t = Table([(0, 1, 2), (0, 2, 2), (5, 5, 5), (5, 0, 5)])
        p = Partition([{0, 1}, {2, 3}], n_rows=4, k=2)
        _, suppressor = anonymize_partition(t, p)
        assert suppressor.total_stars() == p.anon_cost(t)

    def test_overlapping_cover_rejected(self):
        t = Table([(0,), (1,), (2,)])
        c = Cover([{0, 1}, {1, 2}], n_rows=3, k=2)
        with pytest.raises(ValueError, match="Reduce"):
            anonymize_partition(t, c)

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_random_partitions_produce_k_anonymous_output(self, seed, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 12))
        t = random_table(rng, n, 3, 3)
        order = list(rng.permutation(n))
        groups = []
        while order:
            take = int(rng.integers(k, 2 * k))
            if len(order) - take < k:
                take = len(order)
            groups.append(frozenset(int(i) for i in order[:take]))
            order = order[take:]
        p = Partition(groups, n, k, k_max=max(len(g) for g in groups))
        anonymized, _ = anonymize_partition(t, p)
        assert is_k_anonymous(anonymized, k)


class TestSplitting:
    def test_splits_large_groups_into_range(self):
        t = Table([(i % 3, i % 2) for i in range(11)])
        groups = split_into_small_groups(t, [range(11)], 3)
        assert sum(len(g) for g in groups) == 11
        assert all(3 <= len(g) <= 5 for g in groups)

    def test_small_group_untouched(self):
        t = Table([(0,), (1,), (2,)])
        groups = split_into_small_groups(t, [{0, 1, 2}], 2)
        assert groups == [frozenset({0, 1, 2})]

    def test_undersized_group_rejected(self):
        t = Table([(0,), (1,)])
        with pytest.raises(ValueError, match="smaller than k"):
            split_into_small_groups(t, [{0}], 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            split_into_small_groups(Table([(0,)]), [{0}], 0)

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_splitting_never_increases_anon_cost(self, seed, k):
        """The Section 4.1 WLOG argument, empirically."""
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * k, 14))
        t = random_table(rng, n, 4, 3)
        whole = [frozenset(range(n))]
        split = split_into_small_groups(t, whole, k)
        cost_before = anon_cost_of(t, whole[0])
        cost_after = sum(anon_cost_of(t, g) for g in split)
        assert cost_after <= cost_before

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_splitting_diameters_never_increase_groupwise(self, seed, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * k, 14))
        t = random_table(rng, n, 4, 3)
        before = diameter_of(t, range(n))
        for g in split_into_small_groups(t, [range(n)], k):
            assert diameter_of(t, g) <= before


class TestPartitionFromEquivalence:
    def test_builds_from_identical_rows(self):
        t = Table([(1,), (1,), (2,), (2,), (2,)])
        p = partition_from_equivalence(t, 2)
        assert p.is_partition()
        assert p.anon_cost(t) == 0

    def test_rejects_undersized_class(self):
        t = Table([(1,), (2,), (2,)])
        with pytest.raises(ValueError):
            partition_from_equivalence(t, 2)

    def test_splits_oversized_class(self):
        t = Table([(1,)] * 7)
        p = partition_from_equivalence(t, 2)
        assert all(2 <= len(g) <= 3 for g in p.groups)


# -- suppression exactness ------------------------------------------------

#: two distinct NaN objects, each shared by every cell that draws it:
#: equal to itself by identity (so encodings give it one code) but
#: ``nan != nan`` in a direct compare, and unequal to the other NaN
_NAN = float("nan")
_OTHER_NAN = float("nan")
_CELLS = st.sampled_from(
    [STAR, 1, True, 1.0, 0.0, -0.0, "1", "a", _NAN, _OTHER_NAN]
)


def _per_cell_anonymize_partition(table, partition, backend=None):
    """The per-cell suppression loop that ``anonymize_partition`` replaced,
    and the per-cell rewrite ``Suppressor.apply`` replaced, kept verbatim
    as the reference."""
    from repro.core.backend import get_backend
    from repro.core.suppressor import Suppressor

    if not partition.is_partition():
        raise ValueError("cannot anonymize from an overlapping cover; Reduce first")
    resolved = get_backend(table, backend)
    starred: dict[int, set[int]] = {}
    rows = table.rows
    for group in partition.groups:
        image = resolved.group_image(group)
        for i in group:
            coords = {
                j for j, value in enumerate(image)
                if value != rows[i][j]
            }
            if coords:
                starred[i] = coords
    suppressor = Suppressor(starred, n_rows=table.n_rows, degree=table.degree)
    released = table.with_rows(
        tuple(STAR if j in starred.get(i, ()) else v for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    return released, suppressor


@st.composite
def _tables_with_partition(draw):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(1, 12))
    table = Table([tuple(draw(_CELLS) for _ in range(m)) for _ in range(n)])
    labels = [draw(st.integers(0, 3)) for _ in range(n)]
    groups = [
        [i for i in range(n) if labels[i] == label] for label in set(labels)
    ]
    return table, Partition(groups, n, 1, k_max=n)


@given(_tables_with_partition())
@settings(max_examples=150, deadline=None)
def test_anonymize_partition_equals_per_cell_reference(case):
    from repro.core.backend import available_backends, make_backend

    table, partition = case
    for name in available_backends():
        released, suppressor = anonymize_partition(
            table, partition, backend=make_backend(table, name)
        )
        expected, expected_suppressor = _per_cell_anonymize_partition(
            table, partition, backend=make_backend(table, name)
        )
        assert suppressor == expected_suppressor
        assert [[(type(v), repr(v)) for v in row] for row in released.rows] == [
            [(type(v), repr(v)) for v in row] for row in expected.rows
        ]
