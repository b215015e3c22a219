"""Resumable run artifacts for the experiment runners.

A *run directory* records an experiment sweep one trial at a time so an
interrupted (or deliberately staged) sweep can be resumed without
redoing finished work:

* ``manifest.json`` — the experiment's identity: name plus the exact
  configuration (algorithm, k, workload sizes, seeds).  A resume
  attempt against a directory whose manifest disagrees fails loudly —
  silently mixing two different sweeps in one directory would corrupt
  both.
* ``trials.jsonl`` — one JSON record per *completed* trial, appended
  (and flushed) the moment the trial finishes.  Records carry the trial
  key, the per-trial seed, algorithm, k, measured cost / optimum /
  timings, the workload's **instance hash**, and a trace summary when
  tracing was on.

On resume the runner regenerates each finished trial's workload from
its recorded seed (cheap — generation only, no solving) and verifies
the instance hash before trusting the stored result; a mismatch means
the code or configuration drifted since the record was written, and
raises :class:`ArtifactMismatchError` instead of returning stale data.

>>> import tempfile
>>> from repro.artifacts import RunStore
>>> with tempfile.TemporaryDirectory() as tmp:
...     store = RunStore(tmp, experiment="demo", config={"k": 3})
...     _ = store.record("trial-0", cost=4, opt=2)
...     resumed = RunStore(tmp, experiment="demo", config={"k": 3},
...                        resume=True)
...     resumed.done("trial-0"), resumed.get("trial-0")["cost"]
(True, 4)
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.core.table import Table
from repro.io import append_jsonl, read_json, read_jsonl, write_json

MANIFEST_NAME = "manifest.json"
TRIALS_NAME = "trials.jsonl"

#: bump when the record layout changes incompatibly
ARTIFACT_VERSION = 1


class ArtifactMismatchError(RuntimeError):
    """A run directory disagrees with the requested experiment.

    Raised when a manifest's experiment/config differs from the caller's,
    when a directory holds trial records but ``resume`` was not
    requested, or when a resumed trial's regenerated workload hashes
    differently than the recorded instance.
    """


def table_hash(table: Table) -> str:
    """Deterministic content hash of a relation (attributes + rows).

    Stable across processes and platforms — suppressed cells render as
    ``*`` and values by their ``repr``.

    >>> from repro.core.table import Table
    >>> a = table_hash(Table([(1, 2)], attributes=("x", "y")))
    >>> b = table_hash(Table([(1, 2)], attributes=("x", "y")))
    >>> a == b, len(a)
    (True, 16)
    """
    payload = repr((table.attributes, table.rows)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _privacy_tag(privacy: Mapping[str, Any]) -> tuple:
    """Canonical, repr-stable form of a privacy configuration."""
    return tuple(
        (str(key), repr(privacy[key])) for key in sorted(privacy)
    )


def instance_key(
    table: Table,
    k: int,
    algorithm: str,
    backend: str,
    privacy: Mapping[str, Any] | None = None,
) -> str:
    """Content-addressed identity of one anonymization *instance*.

    Combines the table's :func:`table_hash` with ``k``, the algorithm's
    canonical name, and the distance-backend name — the four inputs that
    determine a solver's output.  The backend is part of the key on
    purpose: the two backends are parity-tested, but a cache must never
    *assume* bit-identical results across implementations, so entries
    computed under different backends stay separate.

    ``privacy`` (the service protocol's normalized privacy block —
    ``sensitive`` / ``l`` / ``t`` / ``epsilon``) extends the key the
    same way: a release under one privacy configuration must never be
    served for another, or for a plain request.  ``privacy=None``
    leaves the key byte-identical to the historical four-input form.

    Used by the service-layer solution cache (:mod:`repro.service.cache`)
    and stable across processes and platforms.

    >>> from repro.core.table import Table
    >>> t = Table([(1, 2), (1, 2), (3, 4)], attributes=("x", "y"))
    >>> a = instance_key(t, 2, "center_cover", "python")
    >>> a == instance_key(t, 2, "center_cover", "python")
    True
    >>> a != instance_key(t, 2, "center_cover", "numpy")
    True
    >>> len(a)
    32
    >>> p = instance_key(t, 2, "center_cover", "python", {"l": 2})
    >>> p != a and p != instance_key(
    ...     t, 2, "center_cover", "python", {"l": 3})
    True
    """
    return _key_from_hash(
        table_hash(table), k, algorithm, backend, privacy=privacy
    )


def state_key(
    table: Table,
    k: int,
    algorithm: str,
    backend: str,
) -> str:
    """Content-addressed identity of a solver's **continuation state**.

    Same inputs as :func:`instance_key` but a disjoint digest namespace:
    the solution for an instance and the streaming-engine snapshot that
    can *extend* that instance are different artifacts and must never
    collide in the cache, even though they describe the same
    ``(table, k, algorithm, backend)``.  Used by the service's ``delta``
    verb to store and look up ``IncrementalState`` snapshots alongside
    solutions.

    >>> from repro.core.table import Table
    >>> t = Table([(1, 2), (1, 2), (3, 4)], attributes=("x", "y"))
    >>> a = state_key(t, 2, "incremental", "python")
    >>> a == state_key(t, 2, "incremental", "python")
    True
    >>> a != instance_key(t, 2, "incremental", "python")
    True
    >>> len(a)
    32
    """
    return _key_from_hash(table_hash(table), k, algorithm, backend, state=True)


def _key_from_hash(
    digest: str,
    k: int,
    algorithm: str,
    backend: str,
    privacy: Mapping[str, Any] | None = None,
    *,
    state: bool = False,
) -> str:
    """:func:`instance_key` (or, with *state*, :func:`state_key`) from an
    already computed :func:`table_hash` — lets a caller that needs
    several keys of one table hash the table once."""
    fields: tuple = (digest, int(k), str(algorithm), str(backend))
    if state:
        fields = ("state",) + fields
    elif privacy is not None:
        fields = fields + (_privacy_tag(privacy),)
    payload = repr(fields).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


def _canonical(config: dict[str, Any]) -> dict[str, Any]:
    """The JSON-round-tripped form of *config* (what lands on disk)."""
    return json.loads(json.dumps(config, sort_keys=True))


class RunStore:
    """Append-only per-trial record store in one run directory.

    :param path: run directory (created, parents included, if absent).
    :param experiment: experiment name, e.g. ``"ratio"``.
    :param config: JSON-serializable experiment configuration; on
        resume it must match the stored manifest exactly.
    :param resume: allow continuing a directory that already holds
        trial records.

    :raises ArtifactMismatchError: on manifest/config disagreement, or
        when the directory already holds records and *resume* is False.
    """

    def __init__(
        self,
        path: str | Path,
        experiment: str,
        config: dict[str, Any],
        resume: bool = False,
    ):
        self.path = Path(path)
        self.experiment = experiment
        self.config = _canonical(config)
        self.path.mkdir(parents=True, exist_ok=True)
        self._trials_path = self.path / TRIALS_NAME
        manifest_path = self.path / MANIFEST_NAME

        if manifest_path.exists():
            manifest = read_json(manifest_path)
            if (
                manifest.get("experiment") != experiment
                or manifest.get("config") != self.config
            ):
                raise ArtifactMismatchError(
                    f"run directory {self.path} holds experiment "
                    f"{manifest.get('experiment')!r} with a different "
                    f"configuration; refusing to mix sweeps "
                    f"(wanted {experiment!r} {self.config!r})"
                )
        else:
            write_json(manifest_path, {
                "experiment": experiment,
                "config": self.config,
                "version": ARTIFACT_VERSION,
            })

        self._records: dict[str, dict[str, Any]] = {}
        if self._trials_path.exists():
            for record in read_jsonl(self._trials_path):
                self._records[record["key"]] = record
        if self._records and not resume:
            raise ArtifactMismatchError(
                f"run directory {self.path} already holds "
                f"{len(self._records)} trial record(s); pass resume=True "
                f"(CLI: --resume) to continue it, or point at a fresh "
                f"directory"
            )

    # ------------------------------------------------------------------

    def done(self, key: str) -> bool:
        """True iff a record for *key* exists."""
        return key in self._records

    def get(self, key: str) -> dict[str, Any]:
        """The stored record for *key* (KeyError if absent)."""
        return self._records[key]

    def record(self, key: str, **payload: Any) -> dict[str, Any]:
        """Append a completed-trial record and return it.

        Re-recording an existing key is rejected — a resume that solved
        a trial twice indicates a bookkeeping bug upstream.
        """
        if key in self._records:
            raise ArtifactMismatchError(
                f"trial {key!r} already recorded in {self.path}"
            )
        record = {"key": key, **payload}
        append_jsonl(self._trials_path, record)
        self._records[key] = record
        return record

    def check_instance(self, key: str, instance_hash: str) -> None:
        """Assert a resumed trial's regenerated workload matches its
        record (no-op for unknown keys)."""
        recorded = self._records.get(key, {}).get("instance_hash")
        if recorded is not None and recorded != instance_hash:
            raise ArtifactMismatchError(
                f"trial {key!r}: regenerated instance hashes to "
                f"{instance_hash}, but the run directory recorded "
                f"{recorded} — the workload or configuration changed "
                f"since this run was written"
            )

    @property
    def completed_keys(self) -> tuple[str, ...]:
        """Keys of all recorded trials, in record order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"RunStore({str(self.path)!r}, experiment="
            f"{self.experiment!r}, trials={len(self)})"
        )
