"""Admission's memo: a repeated request skips parse, hash and plan, and
keys exactly as a cold admission does."""

from __future__ import annotations

import pytest

from repro.core.table import Table
from repro.service import ServiceError
from repro.service import server
from repro.service.server import ADMISSION_MEMO_SIZE, admit

CSV = (
    "age,zip,sex,disease\n"
    "30,130,M,flu\n30,130,M,cold\n30,131,F,flu\n31,131,F,hiv\n"
    "31,130,M,flu\n32,140,F,cold\n32,140,F,flu\n33,141,M,hiv\n"
    "33,141,M,cold\n34,150,F,flu\n"
)

REQUESTS = {
    "center_cover": {"csv": CSV, "k": 2},
    "auto": {"csv": CSV, "k": 2, "algorithm": "auto"},
    "incremental": {"csv": CSV, "k": 3, "algorithm": "incremental"},
    "privacy": {"csv": CSV, "k": 2, "privacy": {"l": 2, "epsilon": 1.0}},
    "no-header": {"csv": CSV, "k": 2, "header": False},
}

#: (key, routing_key, state_key, algorithm) of each request, recorded
#: with ``admit(request, "numpy")`` while admission still took a
#: backend (its keys must not move now that numpy is the only one)
RECORDED = {
    "center_cover": (
        "45d35d185f49ae7ca34f54d9e0e7727e",
        "45d35d185f49ae7ca34f54d9e0e7727e", None, "center_cover",
    ),
    "auto": (
        "b748664a195d5a8872c6bb865f5d6ea4",
        "b748664a195d5a8872c6bb865f5d6ea4", None, "branch_bound",
    ),
    "incremental": (
        "19b04efed8b46cd3f0c3e1fb93aa90fc",
        "b74cd79c078e4ff951db4eb8f19eb1bd",
        "b74cd79c078e4ff951db4eb8f19eb1bd", "incremental",
    ),
    "privacy": (
        "9674a3403e3444b8975e582be54e66c8",
        "9674a3403e3444b8975e582be54e66c8", None, "center_cover",
    ),
    "no-header": (
        "de044854d7129b74cf9ee6df62013c6d",
        "de044854d7129b74cf9ee6df62013c6d", None, "center_cover",
    ),
}


@pytest.fixture(autouse=True)
def cold_memo():
    server._table_memo.clear()
    server._unbudgeted_plan.cache_clear()
    yield
    server._table_memo.clear()
    server._unbudgeted_plan.cache_clear()


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of ``Table.from_csv``."""
    calls = []
    parse = Table.from_csv

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(Table, "from_csv", counting)
    return calls


def fields(admission) -> tuple:
    return (admission.key, admission.routing_key, admission.state_key,
            admission.algorithm)


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_memo_hit_keys_like_a_cold_admission(name):
    request = REQUESTS[name]
    cold = admit(request)
    hit = admit(request)
    assert fields(hit) == fields(cold) == RECORDED[name]
    assert (hit.plan, hit.privacy, hit.dataset) == (
        cold.plan, cold.privacy, cold.dataset
    )


def test_auto_plan_names_the_resolved_solver():
    admit(REQUESTS["center_cover"])  # memo entry without σ
    auto = admit(REQUESTS["auto"])
    assert auto.plan["algorithm"] == auto.algorithm == "branch_bound"
    assert auto.plan["features"] == {"n": 10, "m": 4, "sigma": 5, "k": 2}
    assert admit(REQUESTS["auto"]).plan == auto.plan


def test_a_repeat_is_not_parsed_again(parses):
    admit(REQUESTS["center_cover"])
    admit(REQUESTS["privacy"])
    assert len(parses) == 1
    # the first auto request parses once more for σ, later ones never
    admit(REQUESTS["auto"])
    admit(REQUESTS["auto"])
    assert len(parses) == 2


def test_every_field_is_still_validated_on_a_hit():
    admit(REQUESTS["center_cover"])
    bad = [
        ({"k": 0}, "bad-request"),
        ({"timeout": -1}, "bad-request"),
        ({"algorithm": "no-such-solver"}, "unknown-algorithm"),
        ({"privacy": {"l": 2, "sensitive": 4}}, "bad-request"),
        ({"algorithm": "incremental", "privacy": {"l": 2}}, "bad-request"),
    ]
    for patch, code in bad:
        with pytest.raises(ServiceError) as caught:
            admit({**REQUESTS["center_cover"], **patch})
        assert caught.value.code == code, patch


def test_budgeted_auto_plans_afresh():
    request = {**REQUESTS["auto"], "timeout": 60}
    first = admit(request)
    second = admit(request)
    assert first.plan["remaining_seconds"] is not None
    assert first.plan is not second.plan
    assert server._unbudgeted_plan.cache_info().currsize == 0


def test_renderings_of_one_table_share_a_key():
    crlf = CSV.replace("\n", "\r\n")
    quoted = "\n".join(
        ",".join(f'"{cell}"' for cell in line.split(","))
        for line in CSV.splitlines()
    ) + "\n"
    keys = {
        admit({"csv": text, "k": 2}).key
        for text in (CSV, crlf, quoted)
    }
    assert keys == {RECORDED["center_cover"][0]}
    assert len(server._table_memo) == 3


def test_header_flag_is_part_of_the_memo_key():
    with_header = admit({"csv": CSV, "k": 2})
    without = admit({"csv": CSV, "k": 2, "header": False})
    assert with_header.key != without.key
    assert len(server._table_memo) == 2
    assert admit({"csv": CSV, "k": 2}).key == with_header.key


def test_a_bad_csv_is_rejected_every_time():
    request = {"csv": "a,b\n1,2,3\n", "k": 2}
    for _ in range(2):
        with pytest.raises(ServiceError) as caught:
            admit(request)
        assert caught.value.code == "bad-request"
        assert "bad csv" in str(caught.value)
    assert not server._table_memo


def test_a_lone_surrogate_is_admitted():
    csv = "x,y\n\ud800,1\n\ud800,1\nb,2\nb,2\n"
    for _ in range(2):
        plain = admit({"csv": csv, "k": 2})
        auto = admit({"csv": csv, "k": 2, "algorithm": "auto"})
        assert plain.key == "8f4e754dd5c70e528ff386b33889ec0b"
        assert (auto.key, auto.algorithm) == (
            "17778aec9b4d3e9afb8365fd613ee9bf", "branch_bound"
        )


def test_memos_stay_within_their_bound(parses):
    def request(i: int) -> dict:
        return {"csv": f"a,b\n{i},0\n{i},1\n", "k": 1}

    for i in range(ADMISSION_MEMO_SIZE + 20):
        admit(request(i))
        admit(request(0))  # kept recently used
        assert len(server._table_memo) <= ADMISSION_MEMO_SIZE
    assert len(server._table_memo) == ADMISSION_MEMO_SIZE
    # the least recently used tables left first
    parsed = len(parses)
    admit(request(0))
    admit(request(ADMISSION_MEMO_SIZE + 19))
    assert len(parses) == parsed
    admit(request(1))
    assert len(parses) == parsed + 1
    for k in range(1, ADMISSION_MEMO_SIZE + 20):
        admit({"csv": CSV, "k": k, "algorithm": "auto"})
    info = server._unbudgeted_plan.cache_info()
    assert info.currsize == info.maxsize == ADMISSION_MEMO_SIZE


def test_a_delta_still_carries_its_parsed_rows():
    admission = admit(
        {"op": "delta", "state_key": "0" * 32, "csv": CSV}
    )
    assert admission.table == Table.from_csv(CSV)
    # an anonymize carries the table only when admission parsed one
    assert admit(REQUESTS["center_cover"]).table == admission.table
    assert admit(REQUESTS["center_cover"]).table is None
