"""Tests for the instrumentation layer: time budgets and run traces."""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms import (
    CenterCoverAnonymizer,
    GreedyCoverAnonymizer,
    LocalSearchAnonymizer,
    MondrianAnonymizer,
)
from repro.core.table import Table
from repro.instrument import (
    BudgetExceededError,
    RunTrace,
    TimeBudget,
    as_budget,
    format_trace,
    tracing_default,
)

from .conftest import random_table


# ----------------------------------------------------------------------
# TimeBudget semantics
# ----------------------------------------------------------------------


def test_unlimited_budget_never_expires():
    budget = TimeBudget(None)
    assert not budget.limited
    assert not budget.expired()
    assert budget.remaining() is None
    budget.check()  # never raises


def test_zero_budget_expires_immediately():
    budget = TimeBudget(0.0)
    assert budget.limited
    assert budget.expired()
    assert budget.remaining() == 0.0
    with pytest.raises(BudgetExceededError):
        budget.check("a test loop")


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        TimeBudget(-1.0)


def test_budget_clock_is_lazy_and_start_idempotent():
    budget = TimeBudget(60.0)
    assert budget._deadline is None  # not armed until first check
    budget.start()
    armed = budget._deadline
    time.sleep(0.002)
    budget.start()  # idempotent: a running clock is kept
    assert budget._deadline == armed
    budget.reset()
    assert budget._deadline is None


def test_budget_actually_expires_with_time():
    budget = TimeBudget(0.01).start()
    time.sleep(0.02)
    assert budget.expired()


def test_as_budget_coercions():
    assert not as_budget(None).limited
    assert as_budget(0.5).seconds == 0.5
    assert as_budget(2).seconds == 2.0
    existing = TimeBudget(1.0)
    assert as_budget(existing) is existing  # instances shared deliberately
    # numbers always yield a fresh budget: no state leaks between calls
    assert as_budget(1.0) is not as_budget(1.0)


def test_budget_exceeded_is_a_timeout_error():
    assert issubclass(BudgetExceededError, TimeoutError)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_tracing_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert tracing_default() is False
    result = CenterCoverAnonymizer().anonymize(Table([(0, 0)] * 4), 2)
    assert "trace" not in result.extras


def test_repro_trace_env_enables_tracing(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert tracing_default() is True
    result = CenterCoverAnonymizer().anonymize(Table([(0, 0), (0, 1)] * 3), 2)
    assert "trace" in result.extras


def test_per_call_trace_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    table = Table([(0, 0), (0, 1)] * 3)
    assert "trace" not in CenterCoverAnonymizer().anonymize(
        table, 2, trace=False
    ).extras
    monkeypatch.delenv("REPRO_TRACE")
    assert "trace" in CenterCoverAnonymizer().anonymize(
        table, 2, trace=True
    ).extras


def test_trace_round_trips_json_with_nonzero_counters(rng):
    table = random_table(rng, 30, 4, 3)
    result = CenterCoverAnonymizer().anonymize(table, 3, trace=True)
    trace = result.extras["trace"]
    rebuilt = json.loads(json.dumps(trace))
    assert rebuilt == trace
    assert trace["algorithm"] == "center_cover"
    assert trace["n_rows"] == 30 and trace["degree"] == 4
    assert trace["total_seconds"] > 0
    assert trace["deadline_hit"] is False
    assert "cover" in trace["phases"] and "suppress" in trace["phases"]
    # distance work must be visible: the ball cover reads the full matrix
    assert sum(trace["backend_counters"].values()) > 0
    # and the dataclass form rehydrates
    assert RunTrace.from_dict(trace).to_dict() == trace


@pytest.mark.parametrize(
    "algorithm", [CenterCoverAnonymizer, GreedyCoverAnonymizer]
)
def test_cover_solvers_trace_their_statistics(rng, algorithm):
    """The diameter-sum extras run inside a ``stats`` phase, so a traced
    solve accounts for them."""
    table = random_table(rng, 12, 3, 3)
    result = algorithm().anonymize(table, 2, trace=True)
    phases = result.extras["trace"]["phases"]
    assert set(phases) == {"cover", "reduce", "stats", "suppress"}
    assert all(entry["calls"] == 1 for entry in phases.values())


def test_backend_counters_are_per_call_deltas(rng):
    from repro.core.backend import get_backend

    table = random_table(rng, 20, 4, 3)
    algorithm = MondrianAnonymizer()
    algorithm.anonymize(table, 2, trace=True)  # warm the shared backend
    backend = get_backend(table)
    before = dict(backend.counters)
    trace = algorithm.anonymize(table, 2, trace=True).extras["trace"]
    # backends are cached per table, so raw counters accumulate across
    # calls; the trace must report this call's work only.
    manual = {
        name: value - before.get(name, 0)
        for name, value in backend.counters.items()
    }
    assert trace["backend_counters"] == manual


def test_wrapper_algorithms_report_their_phases(rng):
    table = random_table(rng, 24, 4, 3)
    result = LocalSearchAnonymizer().anonymize(table, 2, trace=True)
    trace = result.extras["trace"]
    assert "base" in trace["phases"] and "improve" in trace["phases"]
    assert trace["counters"]["rounds"] >= 1


def test_format_trace_mentions_the_essentials(rng):
    table = random_table(rng, 12, 3, 3)
    trace = CenterCoverAnonymizer().anonymize(table, 2, trace=True).extras[
        "trace"
    ]
    text = format_trace(trace)
    assert text.startswith("trace: center_cover k=2 on 12x3")
    assert "phase cover" in text


def test_constructor_trace_default_applies():
    table = Table([(0, 0), (1, 1)] * 3)
    algorithm = CenterCoverAnonymizer(trace=True)
    assert "trace" in algorithm.anonymize(table, 2).extras
    # per-call override still wins
    assert "trace" not in algorithm.anonymize(table, 2, trace=False).extras
