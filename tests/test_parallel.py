"""Tests for the process-parallel trial executor.

The contract under test: ``jobs=N`` is an execution detail, never an
observable one — results are bit-identical to a serial run, traces come
back from worker processes, and a worker raising
:class:`BudgetExceededError` surfaces in the caller without orphaning
the pool.
"""

import pytest

from repro.algorithms import (
    CenterCoverAnonymizer,
    ExactAnonymizer,
    SimulatedAnnealingAnonymizer,
)
from repro.experiments import (
    comparison,
    k_sweep,
    ratio_experiment,
    ratio_table,
    threshold_sweep,
    trial_seed_sequence,
)
from repro.instrument import BudgetExceededError
from repro.workloads import uniform_table


class TestSeedDerivation:
    def test_trial_seeds_are_prefix_stable(self):
        """Trial t's seed depends only on (base_seed, t) — resuming or
        extending a sweep never reshuffles earlier trials."""
        a = trial_seed_sequence(7, 3).generate_state(4)
        b = trial_seed_sequence(7, 3).generate_state(4)
        assert list(a) == list(b)
        assert list(a) != list(trial_seed_sequence(7, 4).generate_state(4))
        assert list(a) != list(trial_seed_sequence(8, 3).generate_state(4))

    def test_ratio_table_deterministic(self):
        a = ratio_table(0, 5, 8, 4, 3)
        b = ratio_table(0, 5, 8, 4, 3)
        assert a.rows == b.rows


class TestSerialParallelParity:
    def test_ratio_experiment_bit_identical(self):
        serial = ratio_experiment(
            CenterCoverAnonymizer(), k=2, n=7, trials=4, jobs=1
        )
        parallel = ratio_experiment(
            CenterCoverAnonymizer(), k=2, n=7, trials=4, jobs=4
        )
        assert serial == parallel

    def test_stateful_algorithm_bit_identical(self):
        """Annealing advances its RNG across calls; both paths must run
        every trial on a fresh copy or scheduling order would leak into
        the results."""
        serial = ratio_experiment(
            SimulatedAnnealingAnonymizer(seed=7), k=2, n=6, trials=3,
            jobs=1,
        )
        parallel = ratio_experiment(
            SimulatedAnnealingAnonymizer(seed=7), k=2, n=6, trials=3,
            jobs=2,
        )
        assert serial == parallel

    def test_k_sweep_bit_identical(self):
        table = uniform_table(20, 3, alphabet_size=3, seed=1)
        assert k_sweep(table, ks=(2, 3, 4), jobs=1) == k_sweep(
            table, ks=(2, 3, 4), jobs=2
        )

    def test_comparison_bit_identical_and_ordered(self):
        table = uniform_table(16, 3, alphabet_size=3, seed=1)
        serial = comparison(table, 2, jobs=1)
        parallel = comparison(table, 2, jobs=2)
        assert serial == parallel
        assert list(serial) == list(parallel)

    def test_threshold_sweep_bit_identical(self):
        cases = ((True, 0), (False, 0))
        assert threshold_sweep(
            kind="entries", cases=cases, jobs=1
        ) == threshold_sweep(kind="entries", cases=cases, jobs=2)


class TestWorkerBehaviour:
    def test_traces_collected_from_workers(self):
        exp = ratio_experiment(
            CenterCoverAnonymizer(), k=2, n=6, trials=2, trace=True,
            jobs=2,
        )
        assert len(exp.traces) == 2
        assert all(t["algorithm"] == "center_cover" for t in exp.traces)

    def test_budget_error_surfaces_cleanly(self):
        """An exact solver blowing its budget inside a worker raises the
        same BudgetExceededError the serial path would, and the pool
        shuts down (the call returns promptly instead of hanging)."""
        with pytest.raises(BudgetExceededError):
            ratio_experiment(
                ExactAnonymizer(), k=3, n=12, m=6, sigma=2, trials=4,
                timeout=0.001, jobs=2,
            )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            ratio_experiment(CenterCoverAnonymizer(), k=2, n=6, trials=2,
                             jobs=0)

    def test_caller_instance_not_mutated_by_parallel_run(self):
        algorithm = CenterCoverAnonymizer(backend="python")
        ratio_experiment(algorithm, k=2, n=6, trials=2, jobs=2, trace=True)
        assert algorithm.backend == "python" and algorithm.trace is None
