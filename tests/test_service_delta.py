"""The ``delta`` verb: incremental delta-solves over the service.

Covers the full chain — an ``anonymize`` with algorithm
``incremental`` returns a ``state_key``; a ``delta`` against it grows
the release without re-solving the prefix; untouched groups keep their
frozen images byte-identical; the result is replay-equivalent to a
cold solve of the full table (and shares its cache entry); the state
snapshot round-trips through the disk tier across a server restart.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.algorithms.incremental import IncrementalState
from repro.artifacts import instance_key, state_key
from repro.cli import main
from repro.core.anonymity import is_k_anonymous
from repro.core.table import Table
from repro.io import write_csv
from repro.service import (
    AnonymizationService,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.service.server import _solve_task, _SolveTask
from repro.workloads import census_table, quasi_identifiers


def grown_pair(n: int = 30, extra: int = 6, seed: int = 1):
    """A base table and its delta such that base + delta == grown.

    Both cuts come from ONE generated table, so the grown table's rows
    are exactly the base rows followed by the delta rows — the
    prerequisite for delta/cold equivalence.  The table is round-
    tripped through CSV first so test-side keys are computed on the
    same (all-string) relation the server parses off the wire.
    """
    grown = quasi_identifiers(census_table(n + extra, seed=seed))
    grown = Table.from_csv(grown.to_csv())
    base = Table(grown.rows[:n], attributes=grown.attributes)
    delta = Table(grown.rows[n:], attributes=grown.attributes)
    return base, delta, grown


def run(coro):
    return asyncio.run(coro)


async def _served(service: AnonymizationService, *requests):
    try:
        return [await service.handle(r) for r in requests]
    finally:
        await service.stop()


def _solve_request(table: Table, k: int = 3) -> dict:
    return {"op": "anonymize", "csv": table.to_csv(), "k": k,
            "algorithm": "incremental"}


# ----------------------------------------------------------------------
# The transport-free core
# ----------------------------------------------------------------------


class TestDeltaCore:
    def test_incremental_solve_returns_state_key(self):
        base, _, _ = grown_pair()
        (response,) = run(
            _served(AnonymizationService(), _solve_request(base))
        )
        assert response["ok"]
        expected = state_key(base, 3, "incremental",
                             response["backend"])
        assert response["state_key"] == expected

    def test_non_incremental_solve_has_no_state_key(self):
        base, _, _ = grown_pair()
        request = {"op": "anonymize", "csv": base.to_csv(), "k": 3}
        (response,) = run(_served(AnonymizationService(), request))
        assert response["ok"]
        assert "state_key" not in response

    def test_delta_grows_the_release(self):
        base, delta, grown = grown_pair()
        service = AnonymizationService()
        solve, growth = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv()},
        ))
        assert growth["ok"] and growth["op"] == "delta"
        assert growth["cache"] == "miss"
        released = Table.from_csv(growth["csv"])
        assert released.n_rows == grown.n_rows
        assert is_k_anonymous(released, 3)
        assert growth["delta"]["rows_added"] == delta.n_rows
        assert growth["delta"]["rows_total"] == grown.n_rows
        # the next chain link is keyed by the grown table
        assert growth["state_key"] == state_key(
            grown, 3, "incremental", service.backend
        )

    def test_untouched_groups_keep_images_byte_identical(self):
        base, delta, _ = grown_pair()
        service = AnonymizationService()
        solve, growth = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv()},
        ))
        before = Table.from_csv(solve["csv"]).rows
        after = Table.from_csv(growth["csv"]).rows
        identical = sum(
            1 for i in range(len(before)) if before[i] == after[i]
        )
        # the disposition counts whole untouched groups; the released
        # rows of the base prefix agree with it
        assert growth["delta"]["untouched_groups"] >= 1
        assert identical >= growth["delta"]["untouched_groups"]

    def test_delta_equals_cold_solve_of_full_table(self):
        base, delta, grown = grown_pair()
        service = AnonymizationService()
        _, growth, cold = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv()},
            dict(_solve_request(grown), use_cache=False),
        ))
        assert growth["csv"] == cold["csv"]
        assert growth["stars"] == cold["stars"]

    def test_delta_result_is_cached_under_full_instance_key(self):
        base, delta, grown = grown_pair()
        service = AnonymizationService()
        _, growth, repeat, cold = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv()},
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv()},
            _solve_request(grown),
        ))
        assert growth["cache"] == "miss"
        # an identical delta, and a cold anonymize of the grown table,
        # both hit the same entry
        assert repeat["cache"] == "hit"
        assert cold["cache"] == "hit"
        assert repeat["state_key"] == growth["state_key"]
        assert instance_key(
            grown, 3, "incremental", service.backend
        ) in service.cache

    def test_chained_deltas_compose(self):
        base, delta1, mid = grown_pair(24, 6)
        grown = quasi_identifiers(census_table(36, seed=1))
        grown = Table.from_csv(grown.to_csv())
        delta2 = Table(grown.rows[30:], attributes=grown.attributes)
        assert grown.rows[:30] == mid.rows
        service = AnonymizationService()
        solve, first, second = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta1.to_csv()},
            {"op": "delta", "state_key": state_key(
                mid, 3, "incremental", service.backend
            ), "csv": delta2.to_csv()},
        ))
        assert first["state_key"] == state_key(
            mid, 3, "incremental", service.backend
        )
        assert second["ok"]
        released = Table.from_csv(second["csv"])
        assert released.n_rows == 36
        assert is_k_anonymous(released, 3)

    def test_identical_inflight_deltas_coalesce(self):
        base, delta, _ = grown_pair()

        async def scenario():
            service = AnonymizationService()
            try:
                await service.handle(_solve_request(base))
                request = {"op": "delta", "state_key": state_key(
                    base, 3, "incremental", service.backend
                ), "csv": delta.to_csv()}
                return await asyncio.gather(
                    service.handle(dict(request)),
                    service.handle(dict(request)),
                )
            finally:
                await service.stop()

        responses = run(scenario())
        kinds = sorted(r["cache"] for r in responses)
        assert kinds == ["coalesced", "miss"]
        assert len({r["csv"] for r in responses}) == 1
        assert len({r["state_key"] for r in responses}) == 1


class TestSnapshotExport:
    """A solve exports its continuation snapshot only when some sharer
    of the job will store it."""

    def test_bypassing_solve_and_delta_export_nothing(self):
        base, delta, grown = grown_pair()
        service = AnonymizationService()
        solve, bypass, growth = run(_served(
            service,
            _solve_request(base),
            dict(_solve_request(grown), use_cache=False),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv(), "use_cache": False},
        ))
        assert bypass["ok"] and growth["ok"]
        assert "state_key" not in bypass and "state_key" not in growth
        assert state_key(
            grown, 3, "incremental", service.backend
        ) not in service.cache
        assert growth["csv"] == bypass["csv"]

    @pytest.mark.parametrize("keep_state", [True, False])
    def test_solve_task_exports_only_when_asked(self, keep_state):
        base, _, _ = grown_pair()
        outcome = _solve_task(_SolveTask(
            csv=base.to_csv(), header=True, k=3, algorithm="incremental",
            backend="python", timeout=None, trace=False,
            keep_state=keep_state,
        ))
        assert (outcome["state"] is not None) is keep_state

    def test_bypassing_sharer_keeps_a_caching_sharers_snapshot(
        self, monkeypatch
    ):
        """A bypassing and a caching request for one stream queue
        together behind a slow solve and share one solve, which still
        exports the snapshot the caching one stores."""
        from repro.service import server as server_module

        base, _, _ = grown_pair()
        other, _, _ = grown_pair(seed=2)
        solve = server_module._solve_task

        def solve_slowly(task):
            if task.k == 2:  # marks the solve that occupies the slot
                time.sleep(0.3)
            return solve(task)

        monkeypatch.setattr(server_module, "_solve_task", solve_slowly)

        async def scenario():
            service = AnonymizationService(jobs=1)
            try:
                responses = await asyncio.gather(
                    service.handle(_solve_request(other, k=2)),
                    service.handle(dict(_solve_request(base),
                                        use_cache=False)),
                    service.handle(_solve_request(base)),
                )
            finally:
                await service.stop()
            return responses[1:], service

        (bypass, cached), service = run(scenario())
        batches = service.stats()["batches"]
        assert (batches["count"], batches["max_size"]) == (2, 2)
        assert bypass["cache"] == "bypass" and cached["cache"] == "miss"
        assert cached["state_key"] == state_key(
            base, 3, "incremental", service.backend
        )
        assert cached["state_key"] in service.cache


class TestDeltaRejections:
    def test_unknown_state_key(self):
        _, delta, _ = grown_pair()
        (response,) = run(_served(
            AnonymizationService(),
            {"op": "delta", "state_key": "0" * 32,
             "csv": delta.to_csv()},
        ))
        assert not response["ok"]
        assert response["code"] == "unknown-state"

    def test_malformed_state_key(self):
        _, delta, _ = grown_pair()
        (response,) = run(_served(
            AnonymizationService(),
            {"op": "delta", "state_key": "../not-a-key",
             "csv": delta.to_csv()},
        ))
        assert not response["ok"]
        assert response["code"] == "bad-request"

    def test_missing_csv(self):
        (response,) = run(_served(
            AnonymizationService(),
            {"op": "delta", "state_key": "0" * 32},
        ))
        assert response["code"] == "bad-request"

    def test_k_mismatch_rejected(self):
        base, delta, _ = grown_pair()
        service = AnonymizationService()
        _, response = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": delta.to_csv(), "k": 4},
        ))
        assert not response["ok"]
        assert response["code"] == "bad-request"
        assert "k=4" in response["error"]

    def test_degree_mismatch_rejected(self):
        base, _, _ = grown_pair()
        service = AnonymizationService()
        narrow = Table([("x",)], attributes=("a",))
        _, response = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": narrow.to_csv()},
        ))
        assert response["code"] == "bad-request"
        assert "degree" in response["error"]

    def test_attribute_mismatch_rejected(self):
        base, delta, _ = grown_pair()
        renamed = Table(
            delta.rows,
            attributes=tuple(f"not_{a}" for a in delta.attributes),
        )
        service = AnonymizationService()
        _, response = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": renamed.to_csv()},
        ))
        assert response["code"] == "bad-request"
        assert "attributes" in response["error"]

    def test_header_only_delta_rejected(self):
        base, delta, _ = grown_pair()
        service = AnonymizationService()
        header_only = delta.to_csv().splitlines()[0] + "\n"
        _, response = run(_served(
            service,
            _solve_request(base),
            {"op": "delta", "state_key": state_key(
                base, 3, "incremental", service.backend
            ), "csv": header_only},
        ))
        assert response["code"] == "bad-request"
        assert "no rows" in response["error"]

    def test_unusable_stored_state_is_unknown_state(self):
        base, delta, _ = grown_pair()
        service = AnonymizationService()
        key = state_key(base, 3, "incremental", service.backend)
        (solve,) = run(_served(service, _solve_request(base)))
        # sabotage the stored entry the way a foreign writer could
        service.cache.put(key, {"not-a-state": True})
        (response,) = run(_served(
            service,
            {"op": "delta", "state_key": key, "csv": delta.to_csv()},
        ))
        assert response["code"] == "unknown-state"


# ----------------------------------------------------------------------
# Disk-tier state round trip (server restart survival)
# ----------------------------------------------------------------------


class TestStatePersistence:
    def test_state_survives_a_server_restart(self, tmp_path):
        base, delta, grown = grown_pair()
        first = AnonymizationService(cache_dir=str(tmp_path))
        (solve,) = run(_served(first, _solve_request(base)))
        key = solve["state_key"]
        # the stored entry is a valid, versioned snapshot on disk
        entry = first.cache.get(key)
        state = IncrementalState.from_dict(entry["state"])
        assert state.rows == base.rows
        # a brand-new service over the same cache dir continues it
        second = AnonymizationService(cache_dir=str(tmp_path))
        (growth,) = run(_served(
            second,
            {"op": "delta", "state_key": key, "csv": delta.to_csv()},
        ))
        assert growth["ok"]
        assert Table.from_csv(growth["csv"]).n_rows == grown.n_rows

    def test_memory_only_eviction_yields_unknown_state(self):
        base, delta, _ = grown_pair()
        service = AnonymizationService(max_entries=1)
        (solve,) = run(_served(service, _solve_request(base)))
        # max_entries=1: storing the solution evicted the state entry
        (response,) = run(_served(
            service,
            {"op": "delta", "state_key": solve["state_key"],
             "csv": delta.to_csv()},
        ))
        assert response["code"] == "unknown-state"


# ----------------------------------------------------------------------
# TCP wire + client + CLI
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("delta-cache")
    with ServiceServer(
        AnonymizationService(
            max_entries=64, cache_dir=str(cache_dir)
        )
    ) as running:
        yield running


@pytest.mark.usefixtures("server")
class TestDeltaOverTheWire:
    def test_client_delta_round_trip(self, server):
        base, delta, grown = grown_pair(seed=7)
        with ServiceClient(*server.address) as client:
            solve = client.anonymize(base, 3, algorithm="incremental")
            assert solve["state_key"]
            growth = client.delta(solve["state_key"], delta)
            assert growth["table"].n_rows == grown.n_rows
            assert is_k_anonymous(growth["table"], 3)
            assert growth["state_key"] != solve["state_key"]
            assert growth["delta"]["rows_added"] == delta.n_rows

    def test_client_delta_unknown_state_raises(self, server):
        _, delta, _ = grown_pair(seed=7)
        with ServiceClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.delta("f" * 32, delta)
        assert excinfo.value.code == "unknown-state"

    def test_cli_submit_delta(self, server, tmp_path, capsys):
        base, delta, grown = grown_pair(seed=11)
        host, port = server.address
        flags = ["--host", host, "--port", str(port)]
        base_csv = tmp_path / "base.csv"
        delta_csv = tmp_path / "delta.csv"
        write_csv(base, base_csv)
        write_csv(delta, delta_csv)

        assert main(["submit", str(base_csv), "-k", "3",
                     "--algorithm", "incremental"] + flags) == 0
        err = capsys.readouterr().err
        assert "state key: " in err
        key = err.split("state key: ")[1].split()[0]

        assert main(["submit", str(delta_csv),
                     "--delta", key] + flags) == 0
        captured = capsys.readouterr()
        assert f"+{delta.n_rows} rows" in captured.err
        assert "state key: " in captured.err
        released = Table.from_csv(captured.out)
        assert released.n_rows == grown.n_rows
        assert is_k_anonymous(released, 3)
