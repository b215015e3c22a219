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

#: (key, routing_key, state_key, algorithm) of each request under the
#: ``python`` backend, recorded before admission kept a memo
RECORDED = {
    "center_cover": (
        "61802b292edb15b8e8b5a300b851ad85",
        "61802b292edb15b8e8b5a300b851ad85", None, "center_cover",
    ),
    "auto": (
        "3eea37a9a75f15d71f3b5d3f579d5bde",
        "3eea37a9a75f15d71f3b5d3f579d5bde", None, "branch_bound",
    ),
    "incremental": (
        "f208d99754e8b09f46154a92dc6278ec",
        "eeb7090e6cdec391d6d30a395fffae77",
        "eeb7090e6cdec391d6d30a395fffae77", "incremental",
    ),
    "privacy": (
        "32e19b6fd156e7a2b816b768f9f52f40",
        "32e19b6fd156e7a2b816b768f9f52f40", None, "center_cover",
    ),
    "no-header": (
        "410abaa7fe267de860b43a28cc0113b7",
        "410abaa7fe267de860b43a28cc0113b7", None, "center_cover",
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
    cold = admit(request, "python")
    hit = admit(request, "python")
    assert fields(hit) == fields(cold) == RECORDED[name]
    assert (hit.plan, hit.privacy, hit.dataset) == (
        cold.plan, cold.privacy, cold.dataset
    )


def test_auto_plan_names_the_resolved_solver():
    admit(REQUESTS["center_cover"], "python")  # memo entry without σ
    auto = admit(REQUESTS["auto"], "python")
    assert auto.plan["algorithm"] == auto.algorithm == "branch_bound"
    assert auto.plan["features"] == {"n": 10, "m": 4, "sigma": 5, "k": 2}
    assert admit(REQUESTS["auto"], "python").plan == auto.plan


def test_a_repeat_is_not_parsed_again(parses):
    admit(REQUESTS["center_cover"], "python")
    admit(REQUESTS["privacy"], "python")
    assert len(parses) == 1
    # the first auto request parses once more for σ, later ones never
    admit(REQUESTS["auto"], "python")
    admit(REQUESTS["auto"], "python")
    assert len(parses) == 2


def test_every_field_is_still_validated_on_a_hit():
    admit(REQUESTS["center_cover"], "python")
    bad = [
        ({"k": 0}, "bad-request"),
        ({"timeout": -1}, "bad-request"),
        ({"algorithm": "no-such-solver"}, "unknown-algorithm"),
        ({"privacy": {"l": 2, "sensitive": 4}}, "bad-request"),
        ({"algorithm": "incremental", "privacy": {"l": 2}}, "bad-request"),
    ]
    for patch, code in bad:
        with pytest.raises(ServiceError) as caught:
            admit({**REQUESTS["center_cover"], **patch}, "python")
        assert caught.value.code == code, patch


def test_budgeted_auto_plans_afresh():
    request = {**REQUESTS["auto"], "timeout": 60}
    first = admit(request, "python")
    second = admit(request, "python")
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
        admit({"csv": text, "k": 2}, "python").key
        for text in (CSV, crlf, quoted)
    }
    assert keys == {RECORDED["center_cover"][0]}
    assert len(server._table_memo) == 3


def test_header_flag_is_part_of_the_memo_key():
    with_header = admit({"csv": CSV, "k": 2}, "python")
    without = admit({"csv": CSV, "k": 2, "header": False}, "python")
    assert with_header.key != without.key
    assert len(server._table_memo) == 2
    assert admit({"csv": CSV, "k": 2}, "python").key == with_header.key


def test_a_bad_csv_is_rejected_every_time():
    request = {"csv": "a,b\n1,2,3\n", "k": 2}
    for _ in range(2):
        with pytest.raises(ServiceError) as caught:
            admit(request, "python")
        assert caught.value.code == "bad-request"
        assert "bad csv" in str(caught.value)
    assert not server._table_memo


def test_a_lone_surrogate_is_admitted():
    csv = "x,y\n\ud800,1\n\ud800,1\nb,2\nb,2\n"
    for _ in range(2):
        plain = admit({"csv": csv, "k": 2}, "python")
        auto = admit({"csv": csv, "k": 2, "algorithm": "auto"}, "python")
        assert plain.key == "faf37ef2e534806ca5cc4407532e4447"
        assert (auto.key, auto.algorithm) == (
            "f445a88233a3224ccf9f493346bbae36", "branch_bound"
        )


def test_memos_stay_within_their_bound(parses):
    def request(i: int) -> dict:
        return {"csv": f"a,b\n{i},0\n{i},1\n", "k": 1}

    for i in range(ADMISSION_MEMO_SIZE + 20):
        admit(request(i), "python")
        admit(request(0), "python")  # kept recently used
        assert len(server._table_memo) <= ADMISSION_MEMO_SIZE
    assert len(server._table_memo) == ADMISSION_MEMO_SIZE
    # the least recently used tables left first
    parsed = len(parses)
    admit(request(0), "python")
    admit(request(ADMISSION_MEMO_SIZE + 19), "python")
    assert len(parses) == parsed
    admit(request(1), "python")
    assert len(parses) == parsed + 1
    for k in range(1, ADMISSION_MEMO_SIZE + 20):
        admit({"csv": CSV, "k": k, "algorithm": "auto"}, "python")
    info = server._unbudgeted_plan.cache_info()
    assert info.currsize == info.maxsize == ADMISSION_MEMO_SIZE


def test_a_delta_still_carries_its_parsed_rows():
    admission = admit(
        {"op": "delta", "state_key": "0" * 32, "csv": CSV}, "python"
    )
    assert admission.table == Table.from_csv(CSV)
    # an anonymize carries the table only when admission parsed one
    assert admit(REQUESTS["center_cover"], "python").table == admission.table
    assert admit(REQUESTS["center_cover"], "python").table is None
