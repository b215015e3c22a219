"""ε-DP noisy release, the privacy accountant, and cross-algorithm
k-anonymity of released tables.

Property-based coverage (hypothesis) of the privacy tier's semantic
guarantees:

1. the noise mechanisms are sane (bins preserved, geometric noise is
   integer-valued, scale validation);
2. a seed makes every release bit-deterministic — the service relies on
   this to re-serve identical noise on cache hits;
3. the accountant never lets a dataset's spend exceed its budget, and a
   rejected charge leaves the ledger untouched;
4. every registered partition-based algorithm's release satisfies
   ``risk_report(release).meets_k(k)``.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.privacy.dp import (
    MECHANISMS,
    BudgetExhaustedError,
    PrivacyAccountant,
    geometric_noise,
    laplace_noise,
    noisy_class_histogram,
    noisy_histogram,
)
from repro.privacy.risk import risk_report

from .conftest import random_table


class TestMechanisms:
    def test_laplace_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            laplace_noise(0.0, random.Random(0))
        with pytest.raises(ValueError):
            laplace_noise(-1.0, random.Random(0))

    def test_geometric_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            geometric_noise(0.0, random.Random(0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(0.1, 10.0))
    def test_geometric_noise_is_integer(self, seed, epsilon):
        noise = geometric_noise(epsilon, random.Random(seed))
        assert isinstance(noise, int)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(0.05, 20.0))
    def test_mechanisms_are_seed_deterministic(self, seed, scale):
        assert laplace_noise(scale, random.Random(seed)) == laplace_noise(
            scale, random.Random(seed)
        )
        assert geometric_noise(scale, random.Random(seed)) == geometric_noise(
            scale, random.Random(seed)
        )

    def test_laplace_noise_concentrates_with_scale(self):
        """Mean |noise| tracks the scale (Laplace mean absolute = scale)."""
        rng = random.Random(7)
        small = [abs(laplace_noise(0.1, rng)) for _ in range(2000)]
        rng = random.Random(7)
        large = [abs(laplace_noise(10.0, rng)) for _ in range(2000)]
        assert sum(small) / len(small) < sum(large) / len(large)


histograms = st.dictionaries(
    st.text(min_size=1, max_size=5), st.integers(0, 1000),
    min_size=1, max_size=8,
)


class TestNoisyHistogram:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(histograms, st.integers(0, 10 ** 6),
           st.sampled_from(MECHANISMS))
    def test_bins_preserved_and_deterministic(self, counts, seed, mechanism):
        noisy = noisy_histogram(counts, 1.0, mechanism=mechanism, seed=seed)
        assert set(noisy) == set(counts)
        again = noisy_histogram(counts, 1.0, mechanism=mechanism, seed=seed)
        assert noisy == again

    def test_different_seeds_differ(self):
        counts = {"a": 10, "b": 20, "c": 30}
        assert noisy_histogram(counts, 1.0, seed=0) != noisy_histogram(
            counts, 1.0, seed=1
        )

    def test_sequence_input_uses_positional_bins(self):
        noisy = noisy_histogram([5, 7], 2.0, seed=3)
        assert set(noisy) == {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            noisy_histogram({"a": 1}, 0.0)
        with pytest.raises(ValueError):
            noisy_histogram({"a": -1}, 1.0)
        with pytest.raises(ValueError):
            noisy_histogram({"a": 1}, 1.0, mechanism="gaussian")
        with pytest.raises(ValueError):
            noisy_histogram({"a": 1}, 1.0, sensitivity=0.0)

    def test_class_histogram_covers_every_class(self, rng):
        table = random_table(rng, 12, 2, 2)
        release = noisy_class_histogram(table, 1.0, seed=0)
        from repro.core.anonymity import equivalence_classes

        assert len(release["classes"]) == len(equivalence_classes(table))
        assert release["epsilon"] == 1.0
        assert release["scale"] == 1.0
        assert release == noisy_class_histogram(table, 1.0, seed=0)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("epsilon", [0.5, 2, 3.7])
    def test_class_histogram_is_the_rounded_noisy_histogram(
        self, rng, mechanism, epsilon
    ):
        """The release is ``noisy_histogram`` over the equivalence-class
        counts, rounded to 6 digits, in the same bin order."""
        from repro.core.anonymity import equivalence_classes

        table = random_table(rng, 30, 3, 2)
        counts = {
            "|".join(map(str, key)): len(indices)
            for key, indices in equivalence_classes(table).items()
        }
        for seed in (0, 7):
            noisy = noisy_histogram(counts, epsilon, mechanism=mechanism,
                                    seed=seed)
            release = noisy_class_histogram(table, epsilon,
                                            mechanism=mechanism, seed=seed)
            assert release["classes"] == {
                bin_: round(value, 6) for bin_, value in noisy.items()
            }
            assert list(release["classes"]) == list(noisy)


charge_sequences = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(0.01, 0.8)),
    min_size=1, max_size=20,
)


class TestPrivacyAccountant:
    @settings(max_examples=60, deadline=None)
    @given(charge_sequences, st.floats(0.5, 3.0))
    def test_never_over_spends(self, charges, budget):
        """Whatever the charge sequence, no dataset exceeds the budget,
        and a rejected charge leaves its dataset's spend unchanged."""
        acct = PrivacyAccountant(budget=budget)
        for dataset, epsilon in charges:
            before = acct.spent(dataset)
            try:
                acct.charge(dataset, epsilon)
            except BudgetExhaustedError:
                assert acct.spent(dataset) == before
            assert acct.spent(dataset) <= budget + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(charge_sequences)
    def test_unlimited_budget_still_tracks_spends(self, charges):
        acct = PrivacyAccountant()
        totals: dict[str, float] = {}
        for dataset, epsilon in charges:
            acct.charge(dataset, epsilon)
            totals[dataset] = totals.get(dataset, 0.0) + epsilon
        for dataset, total in totals.items():
            assert acct.spent(dataset) == pytest.approx(total)
            assert acct.remaining(dataset) is None

    def test_refund_restores_headroom(self):
        acct = PrivacyAccountant(budget=1.0)
        acct.charge("tbl", 1.0)
        with pytest.raises(BudgetExhaustedError):
            acct.charge("tbl", 0.5)
        acct.refund("tbl", 1.0)
        acct.charge("tbl", 0.5)
        assert acct.spent("tbl") == 0.5

    def test_refund_floors_at_zero(self):
        acct = PrivacyAccountant(budget=1.0)
        acct.charge("tbl", 0.2)
        acct.refund("tbl", 5.0)
        assert acct.spent("tbl") == 0.0
        assert acct.as_dict()["datasets"] == {}

    def test_budgets_are_per_dataset(self):
        acct = PrivacyAccountant(budget=1.0)
        acct.charge("a", 1.0)
        acct.charge("b", 1.0)  # a's exhaustion does not taint b
        with pytest.raises(BudgetExhaustedError):
            acct.charge("a", 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(budget=0.0)
        acct = PrivacyAccountant()
        with pytest.raises(ValueError):
            acct.charge("tbl", 0.0)
        with pytest.raises(ValueError):
            acct.refund("tbl", -1.0)

    def test_as_dict_snapshot(self):
        acct = PrivacyAccountant(budget=2.0)
        acct.charge("b", 0.5)
        acct.charge("a", 1.0)
        assert acct.as_dict() == {
            "budget": 2.0, "datasets": {"a": 1.0, "b": 0.5},
        }


class TestEveryAlgorithmMeetsK:
    """The registry-wide risk property: every applicable algorithm's
    release passes ``risk_report(release).meets_k(k)``."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.integers(0, 10 ** 6), st.integers(2, 3))
    def test_all_registered_algorithms(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * k, 12))
        # last column gets >= 2 distinct values so the l-diversity and
        # t-closeness wrappers are feasible alongside the plain solvers
        table = random_table(rng, n, 3, 2)
        if len(set(table.column(-1))) < 2:
            table = random_table(rng, n, 3, 3)
            if len(set(table.column(-1))) < 2:
                return  # astronomically unlikely twice; skip quietly
        for info in registry.all():
            if not info.is_applicable(n, 3, 2, k):
                continue
            result = info.make().anonymize(table, k)
            release = result.anonymized
            if info.name in ("ldiverse", "tclose"):
                # the privacy wrappers guarantee k-anonymity on the
                # quasi-identifier projection; the reattached sensitive
                # column stays diverse *within* each class by design
                release = release.project(range(release.degree - 1))
            report = risk_report(release)
            assert report.meets_k(k), (
                f"{info.name} released a table whose risk report fails "
                f"meets_k({k})"
            )
