"""Incremental k-anonymity: maintain a release as the table grows.

Re-anonymizing from scratch on every insert is wasteful and — worse —
publishing successive independently-anonymized versions of overlapping
data enables intersection attacks.  :class:`IncrementalAnonymizer`
maintains one grouping across inserts:

* new rows accumulate in a *pending* buffer;
* once the buffer holds ``k`` rows, it is flushed: pending rows are
  clustered greedily (nearest-by-ANON-increase) into either brand-new
  groups of at least ``k`` or appended to existing groups, whichever is
  locally cheaper, keeping every group within ``[k, 2k-1]``;
* the released view suppresses pending rows entirely (they have no
  k-sized crowd yet), so **every published snapshot is k-anonymous**
  and existing groups only ever coarsen — a row's released image never
  becomes more specific, which is what blocks intersection attacks
  across snapshots (tested).

Pricing a placement costs O(m).  A group ``g`` with frozen image must
star ``S_g = D(members) ∪ {j : image[j] is STAR}``, where ``D`` is the
set of coordinates the members disagree on, so its ANON cost is
``|g|·|S_g|``.  :func:`~repro.core.distance.disagreeing_coordinates`
compares every member with the *first* one, and a group's first member
never changes (groups only append).  So a row ``r`` joining ``g`` adds
exactly ``{j ∉ S_g : r[j] != first[j]}``, and the placement's delta is
``(|g|+1)·(|S_g|+|new|) − |g|·|S_g|``.  The engine keeps the complement
of ``S_g`` per group and compares ``r`` on those coordinates only,
instead of rebuilding the grown group (O(k·m) per (row, group) pair).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.alphabet import STAR
from repro.core.anonymity import is_k_anonymous
from repro.core.distance import disagreeing_coordinates, group_image
from repro.core.partition import Partition
from repro.core.suppressor import Suppressor
from repro.core.table import Table
from repro.registry import register

#: bump when the snapshot layout changes incompatibly
STATE_VERSION = 1

#: wire rendering of the suppression symbol inside a serialized state
#: (the same token CSV tables use, so the two encodings compose)
_STAR_TOKEN = "*"


@dataclass(frozen=True)
class IncrementalState:
    """A serializable snapshot of an :class:`IncrementalAnonymizer`.

    Captures everything the engine needs to continue a stream exactly
    where it left off: the rows seen so far, the settled groups, their
    frozen released images, and the pending buffer.  Restoring a
    snapshot and feeding the remaining rows produces the **same** engine
    state as one uninterrupted run — the engine is deterministic, so
    continuation is replay-equivalent (property-tested).

    Snapshots round-trip through JSON via :meth:`as_dict` /
    :meth:`from_dict`; suppressed cells are rendered with the CSV star
    token, which is lossless for the string-valued tables the service
    deals in (a literal ``"*"`` cell already *means* suppression in
    CSV-land).

    >>> inc = IncrementalAnonymizer(k=2, degree=2)
    >>> inc.insert([(0, 0), (0, 1), (7, 7)])
    >>> state = inc.export_state()
    >>> restored = IncrementalAnonymizer.from_state(state)
    >>> restored.insert([(7, 8)])
    >>> inc.insert([(7, 8)])
    >>> restored.released() == inc.released()
    True
    """

    k: int
    degree: int
    attributes: tuple[str, ...] | None
    rows: tuple[tuple, ...]
    groups: tuple[tuple[int, ...], ...]
    #: frozen released image per group, index-aligned with ``groups``
    images: tuple[tuple, ...]
    pending: tuple[int, ...]
    version: int = STATE_VERSION

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready rendering (what the solution cache stores)."""
        return {
            "version": self.version,
            "k": self.k,
            "degree": self.degree,
            "attributes": (
                list(self.attributes) if self.attributes is not None else None
            ),
            "rows": [
                [_STAR_TOKEN if cell is STAR else cell for cell in row]
                for row in self.rows
            ],
            "groups": [list(group) for group in self.groups],
            "images": [
                [_STAR_TOKEN if cell is STAR else cell for cell in image]
                for image in self.images
            ],
            "pending": list(self.pending),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "IncrementalState":
        """Rebuild a snapshot from :meth:`as_dict` output.

        :raises ValueError: on an unknown snapshot version or a payload
            missing required fields (a truncated or foreign document).
        """
        try:
            version = int(payload["version"])
            if version != STATE_VERSION:
                raise ValueError(
                    f"incremental state version {version} is not "
                    f"supported (expected {STATE_VERSION})"
                )
            attributes = payload["attributes"]
            return cls(
                k=int(payload["k"]),
                degree=int(payload["degree"]),
                attributes=(
                    tuple(attributes) if attributes is not None else None
                ),
                # ``in`` compares ``cell == token`` too, in that order
                rows=tuple(
                    tuple([
                        STAR if cell == _STAR_TOKEN else cell for cell in row
                    ])
                    if _STAR_TOKEN in row else tuple(row)
                    for row in payload["rows"]
                ),
                groups=tuple(
                    tuple(map(int, group)) for group in payload["groups"]
                ),
                images=tuple(
                    tuple([
                        STAR if cell == _STAR_TOKEN else cell for cell in image
                    ])
                    for image in payload["images"]
                ),
                pending=tuple(map(int, payload["pending"])),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed incremental state payload: {exc}"
            ) from exc


class IncrementalAnonymizer:
    """Grow a k-anonymous release one batch of rows at a time.

    >>> inc = IncrementalAnonymizer(k=2, degree=2)
    >>> inc.insert([(0, 0), (0, 1)])
    >>> inc.released().rows
    ((0, *), (0, *))
    >>> inc.insert([(5, 5)])          # pending: no crowd yet
    >>> inc.released().rows[2]
    (*, *)
    >>> inc.insert([(5, 5)])          # now it has one
    >>> inc.released().rows[2]
    (5, 5)
    """

    def __init__(self, k: int, degree: int, attributes: Sequence[str] | None = None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self._k = k
        self._degree = degree
        self._attributes = tuple(attributes) if attributes is not None else None
        self._rows: list[tuple] = []
        #: group id of each settled row (index-aligned with _rows)
        self._group_of: dict[int, int] = {}
        self._groups: list[list[int]] = []
        self._pending: list[int] = []
        #: frozen released image per group (only ever coarsens)
        self._images: dict[int, tuple] = {}
        #: per group, the coordinates its image does not star (built
        #: lazily by :meth:`_unstarred`, dropped by :meth:`_refresh_image`)
        self._unstarred_of: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def insert(self, rows: Iterable[Sequence]) -> None:
        """Add rows; flush the pending buffer whenever it reaches k.

        The whole batch is validated **before** any row is appended, so
        a degree mismatch anywhere in *rows* leaves the engine exactly
        as it was — no torn state from a half-consumed iterable whose
        early rows were already settled (and possibly published).
        """
        batch = []
        for position, row in enumerate(rows):
            row = tuple(row)
            if len(row) != self._degree:
                raise ValueError(
                    f"row {position} of degree {len(row)}, "
                    f"expected {self._degree}"
                )
            batch.append(row)
        for row in batch:
            self._rows.append(row)
            self._pending.append(len(self._rows) - 1)
            if len(self._pending) >= self._k:
                self._flush()

    # ------------------------------------------------------------------
    # State snapshots (delta solving)
    # ------------------------------------------------------------------

    def export_state(self) -> IncrementalState:
        """Snapshot the engine for later continuation.

        The snapshot is taken **pre-finalize** by construction: callers
        wanting both a strictly k-anonymous release and a continuation
        point must export first, then :meth:`finalize` — finalization
        settles pending rows in a way a longer stream would not.
        """
        return IncrementalState(
            k=self._k,
            degree=self._degree,
            attributes=self._attributes,
            rows=tuple(self._rows),
            groups=tuple(tuple(group) for group in self._groups),
            images=tuple(
                self._images[gid] for gid in range(len(self._groups))
            ),
            pending=tuple(self._pending),
        )

    @classmethod
    def from_state(cls, state: IncrementalState) -> "IncrementalAnonymizer":
        """Rebuild an engine from a snapshot.

        The restored engine is replay-equivalent: inserting rows into it
        produces the same groups, images, and releases as inserting them
        into the engine the snapshot was taken from (tested as a
        property over random streams).
        """
        engine = cls(state.k, state.degree, attributes=state.attributes)
        engine._rows = [tuple(row) for row in state.rows]
        engine._groups = [list(group) for group in state.groups]
        engine._images = {
            gid: tuple(image) for gid, image in enumerate(state.images)
        }
        engine._group_of = {
            i: gid for gid, group in enumerate(state.groups) for i in group
        }
        engine._pending = list(state.pending)
        return engine

    # ------------------------------------------------------------------

    def _unstarred(self, gid: int) -> tuple[int, ...]:
        """The coordinates group *gid* still releases, in order.

        This is the complement of ``S_g = D(members) ∪ {j : image[j] is
        STAR}``, the coordinates the group's image must star.  It is
        built on first use after :meth:`_refresh_image` drops it, so a
        restored snapshot is priced from its own rows and images.
        """
        unstarred = self._unstarred_of.get(gid)
        if unstarred is None:
            # drop each coordinate a member disagrees on with the first
            # member, compared as disagreeing_coordinates compares them
            rows = self._rows
            first_member, *others = self._groups[gid]
            first = rows[first_member]
            kept = [
                j for j, value in enumerate(self._images[gid])
                if value is not STAR
            ]
            for i in others:
                row = rows[i]
                kept = [j for j in kept if not row[j] != first[j]]
            unstarred = self._unstarred_of[gid] = tuple(kept)
        return unstarred

    def _refresh_image(self, gid: int) -> None:
        """Recompute a group's image; previously starred cells stay
        starred (the anti-intersection invariant)."""
        vectors = [self._rows[i] for i in self._groups[gid]]
        image = group_image(vectors)
        if gid in self._images:
            old = self._images[gid]
            image = tuple(
                STAR if old_value is STAR else new_value
                for old_value, new_value in zip(old, image)
            )
        self._images[gid] = image
        self._unstarred_of.pop(gid, None)

    def _flush(self) -> None:
        pending = self._pending
        assert len(pending) >= self._k
        rows = self._rows
        degree = self._degree
        cap = 2 * self._k - 1
        # Plan A: open a new group with all pending rows.
        plan_a_cost = len(pending) * len(
            disagreeing_coordinates([rows[i] for i in pending])
        )
        # Plan B: place each pending row individually into the cheapest
        # existing group with room (simulated greedily, respecting the
        # frozen images and the 2k-1 size cap).  Each group with room is
        # tracked as [size, first member's row, unstarred coordinates];
        # a simulated addition replaces the tuple, never the cached one.
        simulated: dict[int, list[Any]] = {
            gid: [len(members), rows[members[0]], self._unstarred(gid)]
            for gid, members in enumerate(self._groups)
            if len(members) < cap
        }
        plan_b: list[tuple[int, int]] | None = []
        plan_b_cost = 0
        for i in pending:
            row = rows[i]
            best: tuple[int, int] | None = None
            for gid, (size, first, unstarred) in simulated.items():
                if size >= cap:
                    continue
                starred = degree - len(unstarred)
                # the delta is at least |S_g|; ties keep the lower gid
                if best is not None and starred >= best[0]:
                    continue
                new = sum(1 for j in unstarred if row[j] != first[j])
                delta = starred + (size + 1) * new
                if best is None or delta < best[0]:
                    best = (delta, gid)
            if best is None:
                plan_b = None
                break
            plan_b_cost += best[0]
            group = simulated[best[1]]
            first = group[1]
            group[0] += 1
            group[2] = tuple(j for j in group[2] if not row[j] != first[j])
            plan_b.append((i, best[1]))

        if plan_b is not None and plan_b_cost < plan_a_cost:
            touched = set()
            for i, gid in plan_b:
                self._groups[gid].append(i)
                self._group_of[i] = gid
                touched.add(gid)
            for gid in touched:
                self._refresh_image(gid)
        else:
            gid = len(self._groups)
            self._groups.append(list(pending))
            for i in pending:
                self._group_of[i] = gid
            self._refresh_image(gid)
        self._pending = []

    def finalize(self) -> None:
        """Drain the stream: settle any pending rows into existing
        groups so the snapshot is *strictly* k-anonymous.

        Each leftover row (there are fewer than k, so they cannot form a
        group of their own) joins the settled group whose image-
        respecting cost grows least, **strictly** preferring groups
        still under the ``2k - 1`` cap — an at-cap group only ever
        absorbs a leftover when every group is at cap, and that
        unavoidable overflow is surfaced on :attr:`cap_exceeded` rather
        than papered over.  Frozen images only ever coarsen, so the
        anti-intersection invariant survives finalization.

        :raises ValueError: if no group exists yet (fewer than k rows
            were ever inserted — no k-anonymization exists).

        >>> inc = IncrementalAnonymizer(k=2, degree=2)
        >>> inc.insert([(0, 0), (0, 1), (7, 7)])
        >>> inc.n_pending
        1
        >>> inc.finalize()
        >>> inc.n_pending
        0
        >>> inc.is_publishable()
        True
        """
        if not self._pending:
            return
        if not self._groups:
            raise ValueError(
                f"cannot finalize: fewer than k={self._k} rows inserted"
            )
        rows = self._rows
        degree = self._degree
        cap = 2 * self._k - 1
        for i in self._pending:
            row = rows[i]
            best: tuple[bool, int, int] | None = None
            for gid, members in enumerate(self._groups):
                unstarred = self._unstarred(gid)
                first = rows[members[0]]
                new = sum(1 for j in unstarred if row[j] != first[j])
                delta = degree - len(unstarred) + (len(members) + 1) * new
                key = (len(members) >= cap, delta, gid)
                if best is None or key < best:
                    best = key
            gid = best[2]
            self._groups[gid].append(i)
            self._group_of[i] = gid
            self._refresh_image(gid)
        self._pending = []

    def groups(self) -> tuple[frozenset[int], ...]:
        """The settled groups as frozen row-index sets."""
        return tuple(frozenset(g) for g in self._groups)

    @property
    def cap_exceeded(self) -> bool:
        """True iff some settled group grew past the ``2k - 1`` cap.

        Streaming flushes never overflow; only :meth:`finalize` can,
        and only when *every* group is already at cap when a leftover
        row needs a home.  Callers publishing partition metadata should
        consult this instead of silently widening the documented bound.
        """
        cap = 2 * self._k - 1
        return any(len(group) > cap for group in self._groups)

    # ------------------------------------------------------------------

    def released(self) -> Table:
        """The current k-anonymous snapshot.

        Settled rows show their group's frozen image; pending rows are
        fully suppressed (they join the all-star class, which is fine:
        either it is empty or, together with k-anonymity of the rest,
        the snapshot stays publishable — see :meth:`is_publishable`).
        """
        out = []
        all_star = (STAR,) * self._degree
        for i in range(len(self._rows)):
            if i in self._group_of:
                out.append(self._images[self._group_of[i]])
            else:
                out.append(all_star)
        return Table(out, attributes=self._attributes)

    def is_publishable(self) -> bool:
        """True iff the snapshot is k-anonymous right now.

        With fewer than k pending rows the all-star class may be
        undersized; callers either wait for more inserts or accept the
        all-star rows as withheld records.
        """
        released = self.released()
        if self._pending:
            # exclude the pending all-star rows from the check: they are
            # *withheld*, not published
            settled = [
                i for i in range(len(self._rows)) if i in self._group_of
            ]
            released = released.select_rows(settled)
        return is_k_anonymous(released, self._k) if released.n_rows else True

    def total_stars(self) -> int:
        """Stars in the current snapshot (pending rows included), read
        off the group images instead of the rendered snapshot."""
        return len(self._pending) * self._degree + sum(
            len(members) * sum(1 for value in self._images[gid] if value is STAR)
            for gid, members in enumerate(self._groups)
        )


@register(
    "incremental",
    kind="heuristic",
    summary="streaming engine replayed in batch; intersection-attack safe",
)
class IncrementalBatchAnonymizer(Anonymizer):
    """Batch facade over :class:`IncrementalAnonymizer`.

    Replays the table through the streaming engine in row order, then
    :meth:`~IncrementalAnonymizer.finalize`\\ s the stream so the output
    is strictly k-anonymous.  Useful to (a) drive the streaming path
    from the ``kanon`` CLI and the experiment runners, and (b) measure
    the cost of the monotone-disclosure invariant against the one-shot
    algorithms on identical inputs.

    With ``capture_state=True`` the pre-finalize engine snapshot lands
    in ``extras["incremental_state"]`` (as :meth:`IncrementalState.
    as_dict` output) — the hook the anonymization service's ``delta``
    verb uses to continue the stream later without re-solving.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (5, 5), (5, 5), (5, 6)])
    >>> result = IncrementalBatchAnonymizer().anonymize(t, 2)
    >>> result.is_valid(t)
    True
    """

    name = "incremental"

    def __init__(
        self,
        capture_state: bool = False,
        backend=None,
        budget=None,
        trace=None,
    ):
        super().__init__(backend=backend, budget=budget, trace=trace)
        #: export the pre-finalize engine snapshot into
        #: ``extras["incremental_state"]``
        self.capture_state = capture_state

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        engine = IncrementalAnonymizer(
            k, table.degree, attributes=table.attributes
        )
        with run.phase("stream"):
            engine.insert(table.rows)
        state = engine.export_state() if self.capture_state else None
        with run.phase("finalize"):
            engine.finalize()
        released = engine.released()
        suppressor = Suppressor.from_tables(table, released)
        groups = engine.groups()
        # honest metadata: only widen the documented [k, 2k-1] bound
        # when finalization actually overflowed it, and say so
        cap_exceeded = engine.cap_exceeded
        partition = Partition(
            groups, table.n_rows, k,
            k_max=(
                max(len(g) for g in groups) if cap_exceeded else 2 * k - 1
            ),
        )
        run.count("groups", len(groups))
        extras: dict = {"groups": len(groups), "cap_exceeded": cap_exceeded}
        if state is not None:
            extras["incremental_state"] = state.as_dict()
        return AnonymizationResult(
            anonymized=released,
            suppressor=suppressor,
            partition=partition,
            algorithm=self.name,
            k=k,
            extras=extras,
        )
