"""Tests for the capability registry metadata and the auto planner."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import planner, registry
from repro.algorithms.base import Anonymizer
from repro.core.anonymity import is_k_anonymous
from repro.core.table import Table
from repro.experiments import ratio_experiment, resolve_algorithm
from repro.planner import (
    FALLBACK_ALGORITHM,
    TIER_APPROX,
    TIER_EXACT,
    TIER_FPT,
    InstanceFeatures,
    PlannedAnonymizer,
    plan,
    plan_features,
    tier_of,
)
from tests.conftest import random_table


class TestCapabilities:
    """Every registration exposes planner-consumable metadata."""

    def test_every_algorithm_answers_capability_queries(self):
        for info in registry.all_algorithms():
            applicable = info.is_applicable(50, 4, 3, 3)
            assert isinstance(applicable, bool)
            seconds = info.estimated_seconds(50, 4, 3, 3)
            assert seconds >= 0.0
            assert info.estimated_ops(50, 4, 3, 3) == pytest.approx(
                seconds * registry.CALIBRATED_OPS_PER_SECOND
            )

    def test_exact_default_regime_is_bounded(self):
        info = registry.get("exact_dp")
        assert info.is_applicable(12, 4, 3, 3)
        assert not info.is_applicable(100, 4, 3, 3)

    def test_polynomial_algorithms_stay_applicable_at_scale(self):
        assert registry.get("center_cover").is_applicable(5000, 12, 10, 5)

    def test_cost_models_grow_with_n(self):
        for name in ("exact_dp", "center_cover", "mondrian"):
            info = registry.get(name)
            assert (info.estimated_ops(64, 4, 3, 3)
                    > info.estimated_ops(16, 4, 3, 3))

    def test_parameterized_reserved_for_exact_solvers(self):
        with pytest.raises(ValueError, match="parameterized"):
            @registry.register(
                "bogus_parameterized_approx", kind="approx",
                summary="invalid", parameterized=True,
            )
            class Bogus(Anonymizer):  # pragma: no cover - never registered
                name = "bogus_parameterized_approx"

        assert "bogus_parameterized_approx" not in registry.names()

    def test_auto_is_not_a_registry_entry(self):
        with pytest.raises(KeyError):
            registry.get("auto")
        assert registry.proven_bound(PlannedAnonymizer(), 3, 4) is None


class TestPlanDecisions:
    def test_tiny_instance_gets_an_exact_tier(self):
        decision = plan_features(InstanceFeatures(n=10, m=4, sigma=3, k=2))
        chosen = registry.get(decision.algorithm)
        assert tier_of(chosen) == TIER_EXACT
        assert decision.algorithm in decision.reason or "tier" in decision.reason

    def test_narrow_instance_gets_the_fpt_tier(self):
        decision = plan_features(InstanceFeatures(n=80, m=3, sigma=2, k=3))
        assert tier_of(registry.get(decision.algorithm)) == TIER_FPT
        assert decision.algorithm == "fpt_suppression"

    def test_wide_instance_falls_to_the_proven_approximation(self):
        decision = plan_features(InstanceFeatures(n=150, m=12, sigma=5, k=3))
        chosen = registry.get(decision.algorithm)
        assert tier_of(chosen) == TIER_APPROX
        assert chosen.bound is not None

    def test_tight_budget_forces_the_fallback(self):
        decision = plan_features(
            InstanceFeatures(n=10, m=4, sigma=3, k=2), budget=1e-12,
        )
        assert decision.algorithm == FALLBACK_ALGORITHM
        assert "falling back" in decision.reason

    def test_large_table_plans_without_overflow(self):
        """``2.0 ** n`` cost models overflow a float at n >= ~1030; the
        estimate is then infinite (unaffordable), not an exception."""
        rows = np.random.default_rng(0).integers(0, 5, size=(1100, 12))
        decision = plan(Table(rows.tolist()), 3)
        assert decision.algorithm == "center_cover"
        exact = registry.get("branch_bound").estimated_seconds(1100, 12, 5, 3)
        assert exact == float("inf")

    def test_all_star_column_and_empty_table_have_sigma_zero(self):
        starred = Table.from_csv("a,b\n*,1\n*,2\n")
        assert planner.sigma_of(starred) == 2
        assert planner.sigma_of(Table.from_csv("a,b\n")) == 0
        assert plan(starred, 1).features.sigma == 2
        assert planner.sigma_of(Table.from_csv("a,b\n*,*\n")) == 0

    def test_candidates_cover_the_whole_registry(self):
        decision = plan(Table([(0, 0), (0, 1), (1, 0), (1, 1)]), 2)
        assert {c.name for c in decision.candidates} == set(registry.names())
        selectable = [c.selectable for c in decision.candidates]
        # sorted selectable-first: no selectable entry after a rejected one
        assert selectable == sorted(selectable, reverse=True)

    def test_decision_serializes(self):
        decision = plan(Table([(0, 0), (0, 1)] * 2), 2)
        payload = json.loads(json.dumps(decision.to_dict()))
        assert payload["algorithm"] == decision.algorithm
        assert payload["features"]["n"] == 4
        assert len(payload["candidates"]) == len(decision.candidates)


class TestPlannedAnonymizer:
    def test_result_carries_the_plan(self):
        rng = np.random.default_rng(0)
        table = random_table(rng, 12, 3, 2)
        result = PlannedAnonymizer().anonymize(table, 2)
        assert result.is_valid(table)
        assert is_k_anonymous(result.anonymized, 2)
        plan_dict = result.extras["plan"]
        assert plan_dict["algorithm"] == result.algorithm
        assert "fallback" not in plan_dict

    def test_trace_records_the_plan(self):
        table = Table([(0, 0), (0, 1), (1, 0), (1, 1)] * 2)
        result = PlannedAnonymizer().anonymize(table, 2, trace=True)
        trace = result.extras["trace"]
        assert trace["plan"]["algorithm"] == result.algorithm
        assert trace["algorithm"] == result.algorithm

    def test_matches_the_explicit_algorithm(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, 10, 3, 2)
        auto = PlannedAnonymizer().anonymize(table, 2)
        explicit = registry.create(auto.algorithm).anonymize(table, 2)
        assert auto.stars == explicit.stars

    def test_untraced_runs_have_no_trace_key(self):
        table = Table([(0, 0), (0, 1)] * 2)
        result = PlannedAnonymizer().anonymize(table, 2)
        assert "trace" not in result.extras


class TestExperimentsAuto:
    def test_resolve_algorithm_accepts_names_and_auto(self):
        assert resolve_algorithm("center").name == "center_cover"
        assert isinstance(resolve_algorithm("auto"), PlannedAnonymizer)
        inner = registry.create("mondrian")
        assert resolve_algorithm(inner) is inner
        with pytest.raises(KeyError):
            resolve_algorithm("no_such_algorithm")

    def test_auto_ratio_experiment_has_no_bound(self):
        exp = ratio_experiment("auto", k=2, n=8, m=3, sigma=2, trials=2)
        assert exp.algorithm == "auto"
        assert not exp.has_bound
        with pytest.raises(ValueError, match="no proven approximation bound"):
            exp.within_bound

    def test_fpt_ratio_experiment_is_within_its_exact_bound(self):
        exp = ratio_experiment("fpt_suppression", k=2, n=8, m=3, sigma=2,
                               trials=3)
        assert exp.bound == 1.0
        assert exp.has_bound
        assert exp.within_bound
        assert exp.max_ratio == 1.0


@pytest.fixture(scope="class")
def server():
    from repro.service import AnonymizationService, ServiceServer

    with ServiceServer(
        AnonymizationService(max_entries=64)
    ) as running:
        yield running


@pytest.mark.usefixtures("server")
class TestServiceAuto:
    def test_auto_resolves_and_shares_the_cache(self, server):
        from repro.service import ServiceClient

        table = Table([(0, 0), (0, 1), (1, 0), (1, 1)] * 2)
        with ServiceClient(*server.address) as client:
            first = client.anonymize(table, 2, algorithm="auto")
            assert first["cache"] == "miss"
            resolved = first["algorithm"]
            assert resolved != "auto"
            assert first["plan"]["algorithm"] == resolved

            # the cache entry is keyed by the resolved algorithm, so an
            # explicit request for it is a hit — and carries no plan
            explicit = client.anonymize(table, 2, algorithm=resolved)
            assert explicit["cache"] == "hit"
            assert "plan" not in explicit

            # a second auto request re-plans, hits, and echoes its plan
            again = client.anonymize(table, 2, algorithm="auto")
            assert again["cache"] == "hit"
            assert again["plan"]["algorithm"] == resolved

            assert client.stats()["planned"] >= 2


class TestCLI:
    def test_algorithms_json_is_machine_readable(self, capsys):
        from repro.cli import main

        assert main(["algorithms", "--json", "-n", "30", "-k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {record["name"] for record in payload["algorithms"]}
        assert names == set(registry.names())
        for record in payload["algorithms"]:
            assert isinstance(record["applicable"], bool)
            assert record["estimated_seconds"] >= 0.0
            assert record["tier"] == tier_of(registry.get(record["name"]))

    def test_algorithms_text_capability_columns(self, capsys):
        from repro.cli import main

        assert main(["algorithms", "-n", "100", "--sigma", "2",
                     "-k", "3", "-m", "3"]) == 0
        out = capsys.readouterr().out
        assert "applicable" in out
        assert "est_s" in out
        assert "fpt_suppression" in out

    def test_anonymize_auto_prints_the_plan(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n1,3\n2,2\n2,3\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main(["anonymize", str(path), "-k", "2",
                     "--algorithm", "auto", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "plan: " in captured.err


def test_tier_ladder_is_total():
    tiers = {tier_of(info) for info in registry.all_algorithms()}
    assert tiers == {planner.TIER_EXACT, planner.TIER_FPT,
                     planner.TIER_APPROX, planner.TIER_HEURISTIC}
