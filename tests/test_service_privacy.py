"""The service's privacy tier: request validation, privacy-aware cache
keys, the DP budget ledger, and routed-fleet keying.

The invariants that matter operationally:

* a ``privacy`` block changes the instance key — cached plain releases
  and privacy releases never cross;
* a cache hit re-serves byte-identical DP noise (the seed derives from
  the instance key) and charges no additional ε;
* the accountant rejects over-budget requests with the
  ``privacy-budget-exhausted`` code and refunds failed solves;
* the shard router keys privacy requests exactly like the server does.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.artifacts import instance_key, table_hash
from repro.core.table import Table
from repro.service import AnonymizationService, ServiceError
from repro.service.router import ShardRouter, merge_shard_stats
from repro.service.server import normalize_privacy
from repro.workloads import census_table


def run(coro):
    return asyncio.run(coro)


async def _served(service: AnonymizationService, *requests):
    try:
        return [await service.handle(r) for r in requests]
    finally:
        await service.stop()


def small_table() -> Table:
    return census_table(24, seed=0)


def privacy_request(table: Table, **privacy) -> dict:
    return {
        "op": "anonymize", "csv": table.to_csv(), "k": 2,
        "privacy": privacy,
    }


class TestNormalizePrivacy:
    def test_canonical_form(self):
        out = normalize_privacy({"l": 2, "epsilon": 1}, degree=3)
        assert out == {"l": 2, "epsilon": 1.0, "sensitive": 2}

    def test_epsilon_only_has_no_default_sensitive(self):
        assert normalize_privacy({"epsilon": 0.5}, degree=3) == {
            "epsilon": 0.5
        }

    def test_negative_sensitive_resolves(self):
        out = normalize_privacy({"t": 0.4, "sensitive": -1}, degree=4)
        assert out["sensitive"] == 3

    @pytest.mark.parametrize("block", [
        "not a dict",
        {},
        {"l": 1},
        {"l": True},
        {"t": 1.5},
        {"t": -0.1},
        {"epsilon": 0},
        {"epsilon": -1.0},
        {"l": 2, "t": 0.3},
        {"l": 2, "sensitive": 7},
        {"l": 2, "sensitive": "diagnosis"},
        {"frequency": 3},
    ])
    def test_malformed_blocks_rejected(self, block):
        with pytest.raises(ServiceError) as excinfo:
            normalize_privacy(block, degree=3)
        assert excinfo.value.code == "bad-request"

    def test_split_needs_two_columns(self):
        with pytest.raises(ServiceError):
            normalize_privacy({"l": 2}, degree=1)


class TestPrivacyKeying:
    def test_privacy_block_changes_the_key(self):
        table = small_table()
        plain = instance_key(table, 2, "center_cover", "python")
        private = instance_key(
            table, 2, "center_cover", "python",
            privacy={"l": 2, "sensitive": 6},
        )
        assert plain != private

    def test_distinct_privacy_configs_key_apart(self):
        table = small_table()
        keys = {
            instance_key(table, 2, "center_cover", "python",
                         privacy=privacy)
            for privacy in (
                {"l": 2, "sensitive": 6},
                {"l": 3, "sensitive": 6},
                {"t": 0.5, "sensitive": 6},
                {"epsilon": 1.0},
                {"epsilon": 2.0},
            )
        }
        assert len(keys) == 5


class TestServicePrivacyFlow:
    def test_ldiverse_round_trip_and_cache_hit(self):
        table = small_table()
        request = privacy_request(table, l=2, epsilon=1.0)
        first, second = run(
            _served(AnonymizationService(), request, dict(request))
        )
        assert first["ok"] and second["ok"]
        assert (first["cache"], second["cache"]) == ("miss", "hit")
        released = Table.from_csv(first["csv"])
        assert released.degree == table.degree
        assert first["privacy"] == {
            "l": 2, "epsilon": 1.0, "sensitive": table.degree - 1,
        }
        # the hit re-serves byte-identical DP noise
        assert first["dp"] == second["dp"]
        assert first["dp"]["epsilon"] == 1.0

    def test_privacy_and_plain_requests_cache_apart(self):
        table = small_table()
        private = privacy_request(table, epsilon=1.0)
        plain = {"op": "anonymize", "csv": table.to_csv(), "k": 2}
        first, second = run(
            _served(AnonymizationService(), private, plain)
        )
        assert second["cache"] == "miss"  # not a hit on the DP entry
        assert "dp" in first and "dp" not in second

    def test_budget_exhaustion_rejects_with_typed_code(self):
        table = small_table()
        service = AnonymizationService(privacy_budget=1.5)
        # distinct epsilons => distinct instance keys (no free hits)
        first, second, third = run(_served(
            service,
            privacy_request(table, epsilon=1.0),
            privacy_request(table, epsilon=0.5),
            privacy_request(table, epsilon=0.25),
        ))
        assert first["ok"] and second["ok"]
        assert not third["ok"]
        assert third["code"] == "privacy-budget-exhausted"

    def test_cache_hits_spend_nothing(self):
        table = small_table()
        service = AnonymizationService(privacy_budget=1.0)
        request = privacy_request(table, epsilon=1.0)
        responses = run(_served(
            service, request, dict(request), dict(request)
        ))
        assert [r["cache"] for r in responses] == ["miss", "hit", "hit"]
        assert all(r["ok"] for r in responses)

    def test_stats_report_the_ledger(self):
        table = small_table()
        service = AnonymizationService(privacy_budget=2.0)
        request = privacy_request(table, epsilon=0.75)
        response, stats = run(_served(
            service, request, {"op": "stats"}
        ))
        assert response["ok"]
        # the ledger keys by the hash of the table the service parsed
        # (CSV round-trip stringifies cells, so hash the parsed form)
        parsed = Table.from_csv(table.to_csv())
        assert stats["privacy"] == {
            "budget": 2.0, "datasets": {table_hash(parsed): 0.75},
        }

    def test_failed_solve_refunds_the_charge(self):
        # diagnosis is constant => 2-diversity is infeasible; the ε
        # charged at admission must come back so the budget isn't
        # burned by a request that released nothing
        rows = [(age, "x") for age in (1, 1, 2, 2)]
        table = Table(rows, attributes=["age", "diagnosis"])
        service = AnonymizationService(privacy_budget=1.0)
        failed, stats = run(_served(
            service,
            privacy_request(table, l=2, epsilon=1.0),
            {"op": "stats"},
        ))
        assert not failed["ok"]
        assert failed["code"] == "infeasible"
        assert stats["privacy"]["datasets"] == {}

    def test_privacy_with_incremental_is_rejected(self):
        table = small_table()
        request = privacy_request(table, epsilon=1.0)
        request["algorithm"] = "incremental"
        (response,) = run(_served(AnonymizationService(), request))
        assert not response["ok"]
        assert response["code"] == "bad-request"

    def test_epsilon_only_noises_whole_table_classes(self):
        table = Table([(1, "a"), (1, "a"), (2, "b"), (2, "b")])
        (response,) = run(_served(
            AnonymizationService(), privacy_request(table, epsilon=2.0)
        ))
        assert response["ok"]
        assert response["dp"]["mechanism"] == "laplace"
        assert len(response["dp"]["classes"]) >= 1


class TestRouterPrivacyKeying:
    def test_routing_key_matches_server_key(self):
        table = small_table()
        router = ShardRouter(["a:1"], health_interval=0.0)
        request = privacy_request(table, l=2)
        key = router.routing_key(request)
        # the router keys the table it parses off the wire
        parsed = Table.from_csv(table.to_csv())
        privacy = normalize_privacy({"l": 2}, parsed.degree)
        assert key == instance_key(
            parsed, 2, "center_cover", "numpy", privacy=privacy
        )

    def test_privacy_incremental_is_unroutable(self):
        table = small_table()
        router = ShardRouter(["a:1"], health_interval=0.0)
        request = privacy_request(table, epsilon=1.0)
        request["algorithm"] = "incremental"
        assert router.routing_key(request) is None

    def test_merge_shard_stats_sums_ledgers(self):
        shard = {
            "cache": {"entries": 0, "max_entries": 1, "hits": 0,
                      "misses": 0, "evictions": 0},
            "requests": 0, "solved_instances": 0, "batches": 0,
        }
        a = dict(shard, privacy={"budget": 2.0,
                                 "datasets": {"d1": 0.5, "d2": 1.0}})
        b = dict(shard, privacy={"budget": 2.0, "datasets": {"d1": 0.25}})
        merged = merge_shard_stats({"s1": a, "s2": b})
        assert merged["privacy"]["budget"] == 2.0
        assert merged["privacy"]["datasets"] == {"d1": 0.75, "d2": 1.0}

    def test_merge_shard_stats_mixed_budgets_report_none(self):
        shard = {
            "cache": {"entries": 0, "max_entries": 1, "hits": 0,
                      "misses": 0, "evictions": 0},
            "requests": 0, "solved_instances": 0, "batches": 0,
        }
        a = dict(shard, privacy={"budget": 2.0, "datasets": {}})
        b = dict(shard, privacy={"budget": None, "datasets": {}})
        merged = merge_shard_stats({"s1": a, "s2": b})
        assert merged["privacy"]["budget"] is None
