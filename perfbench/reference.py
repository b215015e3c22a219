"""The correctness check: library-path releases and ``validate_release``.

Every service release must be byte-equal to the release the library
path produces for the same table, k, resolved algorithm and backend.
The reference is computed once per distinct request, outside the timed
region, and validated with :func:`repro.validate.validate_release`;
since each release is compared byte for byte with a validated
reference, every release is validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import registry
from repro.core.table import Table
from repro.experiments import run_tasks
from repro.planner import plan
from repro.validate import validate_release

#: worker processes computing references after the timed region
JOBS = 2


@dataclass(frozen=True)
class Reference:
    algorithm: str
    csv: str
    #: ``validate_release`` problems (empty when the release is valid)
    problems: tuple[str, ...]


def request_key(payload: dict, prefix: dict | None = None) -> tuple:
    """The distinct-request identity a reference is computed for.

    A ``delta`` is keyed by the stream's first table (its *prefix*
    request) plus the appended rows.
    """
    if payload.get("op") == "delta":
        assert prefix is not None
        return (prefix["csv"], prefix["k"], "incremental", payload["csv"])
    return (payload["csv"], payload["k"], payload["algorithm"], None)


def library_release(key: tuple) -> Reference:
    """The library-path release for one :func:`request_key`."""
    csv, k, algorithm, delta_csv = key
    table = Table.from_csv(csv)
    if delta_csv is not None:
        delta = Table.from_csv(delta_csv)
        table = Table(table.rows + delta.rows, attributes=table.attributes)
    if algorithm == "auto":
        # a server without --max-timeout plans with no budget
        resolved = plan(table, k).algorithm
    else:
        resolved = registry.get(algorithm).name
    released = registry.create(resolved).anonymize(table, k).anonymized
    report = validate_release(table, released, k)
    return Reference(resolved, released.to_csv(), tuple(report.problems))


def references(keys) -> dict[tuple, Reference]:
    """References for every distinct key, on :data:`JOBS` processes."""
    distinct = list(dict.fromkeys(keys))
    return dict(zip(distinct, run_tasks(library_release, distinct, JOBS)))


def check(response: dict, reference: Reference) -> str | None:
    """Why *response* is not a correct release, or None."""
    if reference.problems:
        return "validate_release: " + "; ".join(reference.problems)
    if response.get("algorithm") != reference.algorithm:
        return (
            f"resolved {response.get('algorithm')!r}, library path "
            f"resolves {reference.algorithm!r}"
        )
    if response.get("csv") != reference.csv:
        return "release differs from the library-path release"
    return None
