"""Cross-cutting property-based invariants over all algorithms.

These are the repository's strongest guarantees, enforced by hypothesis
over random tables:

1. every algorithm's output is k-anonymous;
2. every output is a pure suppression of the input (Definition 2.1);
3. no algorithm beats the exact optimum;
4. the paper's approximation bounds hold with the exact optimum in hand;
5. the objective equals the suppressor's star count equals the
   partition's ANON cost.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    CenterCoverAnonymizer,
    DataflyAnonymizer,
    GreedyCoverAnonymizer,
    KMemberAnonymizer,
    MondrianAnonymizer,
    MSTForestAnonymizer,
    RandomPartitionAnonymizer,
    SortedChunkAnonymizer,
)
from repro.algorithms.exact import optimal_anonymization
from repro.core.anonymity import is_k_anonymous, suppressed_cell_count
from repro.core.suppressor import Suppressor
from repro.theory import theorem_4_1_ratio, theorem_4_2_ratio

from .conftest import random_table

ALL_FAST_ALGORITHMS = [
    CenterCoverAnonymizer(),
    MondrianAnonymizer(),
    DataflyAnonymizer(),
    KMemberAnonymizer(),
    MSTForestAnonymizer(),
    RandomPartitionAnonymizer(seed=0),
    SortedChunkAnonymizer(),
]

table_params = st.tuples(
    st.integers(0, 10 ** 6),  # seed
    st.integers(2, 4),        # k
    st.integers(1, 5),        # m
    st.integers(2, 5),        # alphabet
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(table_params)
def test_all_algorithms_release_k_anonymous_suppressions(params):
    seed, k, m, sigma = params
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 24))
    table = random_table(rng, n, m, sigma)
    for algorithm in ALL_FAST_ALGORITHMS:
        result = algorithm.anonymize(table, k)
        assert is_k_anonymous(result.anonymized, k), algorithm.name
        # Definition 2.1: each output cell is the original value or STAR
        Suppressor.from_tables(table, result.anonymized)
        # objective bookkeeping is consistent
        assert result.stars == suppressed_cell_count(result.anonymized)
        assert result.stars == result.suppressor.total_stars()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_no_algorithm_beats_exact(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 9))
    table = random_table(rng, n, 3, 3)
    opt, _ = optimal_anonymization(table, k)
    for algorithm in ALL_FAST_ALGORITHMS + [GreedyCoverAnonymizer()]:
        assert algorithm.anonymize(table, k).stars >= opt, algorithm.name


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3), st.integers(2, 4))
def test_paper_bounds_hold(seed, k, m):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 9))
    table = random_table(rng, n, m, 3)
    opt, _ = optimal_anonymization(table, k)

    greedy = GreedyCoverAnonymizer().anonymize(table, k).stars
    center = CenterCoverAnonymizer().anonymize(table, k).stars
    if opt == 0:
        assert greedy == 0
        assert center == 0
    else:
        assert greedy <= theorem_4_1_ratio(k) * opt
        assert center <= theorem_4_2_ratio(k, m) * opt


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_partition_based_results_are_internally_consistent(seed, k):
    """partition.anon_cost == stars, groups within bounds, disjoint,
    covering."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 20))
    table = random_table(rng, n, 4, 3)
    for algorithm in [
        CenterCoverAnonymizer(),
        KMemberAnonymizer(),
        MSTForestAnonymizer(),
        SortedChunkAnonymizer(),
    ]:
        result = algorithm.anonymize(table, k)
        partition = result.partition
        assert partition is not None
        partition.validate()
        assert partition.is_partition()
        assert partition.anon_cost(table) == result.stars


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_anonymizing_twice_is_idempotent_in_cost(seed, k):
    """Re-anonymizing an already-k-anonymous table costs nothing more."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 15))
    table = random_table(rng, n, 3, 3)
    first = CenterCoverAnonymizer().anonymize(table, k)
    second = CenterCoverAnonymizer().anonymize(first.anonymized, k)
    assert second.stars == first.stars


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_opt_monotone_in_k(seed, k):
    """OPT(V, k) <= OPT(V, k+1): stronger privacy never costs less."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k + 1, 9))
    table = random_table(rng, n, 3, 3)
    weaker, _ = optimal_anonymization(table, k)
    stronger, _ = optimal_anonymization(table, k + 1)
    assert weaker <= stronger


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_opt_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    table = random_table(rng, n, 3, 3)
    opt, _ = optimal_anonymization(table, 2)
    order = rng.permutation(n)
    shuffled = table.select_rows([int(i) for i in order])
    opt_shuffled, _ = optimal_anonymization(shuffled, 2)
    assert opt == opt_shuffled


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_opt_invariant_under_column_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    table = random_table(rng, n, 4, 3)
    opt, _ = optimal_anonymization(table, 2)
    cols = [int(c) for c in rng.permutation(4)]
    permuted = table.project(cols)
    opt_permuted, _ = optimal_anonymization(permuted, 2)
    assert opt == opt_permuted


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adding_duplicate_rows_never_raises_opt_per_existing_row(seed):
    """Duplicating the whole relation k times makes OPT scale at most
    linearly (each copy can reuse the original grouping)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    table = random_table(rng, n, 3, 3)
    opt, _ = optimal_anonymization(table, 2)
    doubled = table.with_rows(list(table.rows) * 2)
    opt_doubled, _ = optimal_anonymization(doubled, 2)
    assert opt_doubled <= 2 * opt


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_cover_algorithms_backend_invariant(seed, k):
    """The python and numpy backends produce byte-identical releases.

    The backends are bit-identical on every distance primitive (whether
    or not the numpy kernel view packs the table's binary columns) and the
    cover algorithms break ties deterministically, so the chosen backend
    must never change a single released cell.
    """
    from repro.algorithms import ReduceCoverAnonymizer
    from repro.core.backend import available_backends

    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 18))
    table = random_table(rng, n, 4, 3)
    for factory in [
        lambda b: CenterCoverAnonymizer(backend=b),
        lambda b: CenterCoverAnonymizer(diameter_mode="exact", backend=b),
        lambda b: ReduceCoverAnonymizer(backend=b),
    ]:
        releases = {
            factory(backend).anonymize(table, k).anonymized.rows
            for backend in available_backends()
        }
        assert len(releases) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_greedy_cover_backend_invariant(seed):
    from repro.core.backend import available_backends

    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    table = random_table(rng, n, 3, 3)
    releases = {
        GreedyCoverAnonymizer(backend=backend).anonymize(table, 2)
        .anonymized.rows
        for backend in available_backends()
    }
    assert len(releases) == 1
