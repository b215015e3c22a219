"""Unified distance backends: one fast metric substrate for every algorithm.

Every algorithm in this reproduction — greedy cover (Theorem 4.1), the
center/ball algorithm (Theorem 4.2), local search, annealing, the exact
solvers — bottoms out in the same primitives: ``distance``, ``diameter``,
``disagreeing_coordinates``, ``anon_cost``, ``group_image``.  This module
gives those primitives a single pluggable home:

* :class:`EncodedTable` — a table's rows integer-encoded per attribute
  and packed into the narrowest numpy integer dtype that fits, built at
  most once per table (shared through :func:`encode_table`'s weakref
  cache), in row-major and column-major layouts.  Suppressed cells are
  encoded like any other symbol (``STAR`` equals only itself, so code
  equality coincides with value equality).  Its kernel view
  (:meth:`EncodedTable.kernel`) packs the binary columns — including
  ``STAR``-augmented columns that still fit two symbols — 64 per
  ``uint64`` lane when that moves fewer bytes per row pair than
  comparing their codes, and keeps the other columns as codes.
* :class:`DistanceBackend` — the protocol: index-level distance,
  a cached pairwise distance matrix (computed lazily in row blocks),
  per-row lazy distance rows (``distance_row``), one-center distance
  scans over any index list (``distances_from``), Theorem 4.2's ball
  candidates (``ball_candidates``), one ball's members
  (``neighbors_within``), a per-center neighbour order
  (``neighbor_order``), memoized group statistics (``diameter`` /
  ``anon_cost`` / ``group_image`` keyed on frozen index sets), and incremental
  per-group statistics (:class:`MutableGroupStats`).
* :class:`PythonBackend` — current semantics, zero dependencies; the
  reference oracle for the parity suite.
* :class:`NumpyBackend` — every distance kernel reads the kernel view:
  XOR + popcount over the lanes plus a code compare over the other
  columns.  A ``uint16`` distance matrix filled that way, ball
  candidates counted over it, and vectorized group reductions over
  index arrays.

Backend selection: every process runs the numpy backend
(:data:`RUNTIME_BACKEND`).  The python backend is reached only by name
— ``make_backend(table, "python")``, ``get_backend(table, "python")``
or ``backend="python"`` on an
:class:`~repro.algorithms.base.Anonymizer` — as the oracle the tests
and benchmarks compare against.

All backends are bit-identical on every primitive — property-tested in
``tests/test_backend_parity.py``.
"""

from __future__ import annotations

import abc
import weakref
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Hashable, Iterable
from itertools import count
from typing import Any

from repro.core.alphabet import STAR
from repro.core.distance import (
    diameter as _rows_diameter,
    disagreeing_coordinates as _rows_disagreeing,
    distance as _rows_distance,
)

Row = tuple[Hashable, ...]

#: cells per row block of the distance-matrix fill, the ball-candidate
#: counts and the group-diameter broadcasts; bounds their temporaries
#: to ~tens of MB.
_CHUNK_CELLS = 4_000_000


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend`."""
    return tuple(_BACKEND_CLASSES)


#: the backend every solve runs on unless a caller names another, and
#: the backend field of every instance and state key
RUNTIME_BACKEND = "numpy"


def default_backend_name() -> str:
    """The backend a solve uses when none is named: :data:`RUNTIME_BACKEND`."""
    return RUNTIME_BACKEND


# ----------------------------------------------------------------------
# Encoded tables
# ----------------------------------------------------------------------


class EncodedTable:
    """A table's rows as a compact per-attribute integer code matrix.

    Codes are assigned in first-appearance order, column by column;
    ``STAR`` receives an ordinary code (it equals only itself, so code
    equality is exactly value equality).  Each column's encoder is a
    ``defaultdict`` whose factory hands out the next code, so one
    ``bytes(map(...))`` pass per column encodes it at C level and keeps
    the first-seen object of every value as its decoder entry, as a
    per-cell ``setdefault`` would; a column with more than 256 codes is
    re-read into a wider array.  The code matrix is packed into the
    narrowest unsigned dtype that holds the largest code, which keeps
    the broadcast distance computation memory-bandwidth friendly.

    On top of the code matrix, :meth:`kernel` derives (lazily, once)
    the view every distance kernel reads.
    """

    __slots__ = ("codes", "columns", "decoders", "n_rows", "degree", "_kernel")

    def __init__(self, table):
        import numpy as np

        n, m = table.n_rows, table.degree
        encoders = [defaultdict(count().__next__) for _ in range(m)]
        columns: list[Any] = []
        for encoder, column in zip(encoders, zip(*table.rows)):
            try:
                codes = np.frombuffer(
                    bytes(map(encoder.__getitem__, column)), np.uint8
                )
            except ValueError:  # a code past 255; the rerun repeats the codes
                codes = np.fromiter(map(encoder.__getitem__, column), np.intp, n)
            columns.append(codes)
        max_code = max(map(len, encoders), default=1) - 1
        if max_code < 2 ** 8:
            dtype = np.uint8
        elif max_code < 2 ** 16:
            dtype = np.uint16
        else:  # pragma: no cover - needs > 65536 distinct values per column
            dtype = np.int64
        #: the code matrix transposed, C-contiguous: kernels that reduce
        #: over attributes (one center's distance row, group diameters)
        #: add ``m`` contiguous rows instead of reducing ``n`` short ones
        self.columns = np.array(columns, dtype=dtype).reshape(m, n)
        self.codes = np.ascontiguousarray(self.columns.T)
        self.decoders: tuple[tuple[Hashable, ...], ...] = tuple(
            tuple(encoder) for encoder in encoders
        )
        self.n_rows = n
        self.degree = m
        self._kernel: tuple[Any, Any] | None = None

    def decode(self, j: int, code: int) -> Hashable:
        """The original attribute value behind column *j*'s *code*."""
        return self.decoders[j][code]

    def kernel(self) -> tuple[Any, Any]:
        """``(lanes, wide)``: the view the distance kernels read (cached).

        ``lanes`` is an ``(n_lanes, n_rows) uint64`` array holding one bit
        per binary column (at most two symbols, so codes are 0/1 by
        first-appearance construction); ``wide`` is the ``(n_wide,
        n_rows)`` code matrix of the other columns.  Hamming distance is
        ``popcount(lanes[:, i] ^ lanes[:, j]) + count(wide[:, i] !=
        wide[:, j])``.  The binary columns are packed only when their
        lanes move fewer bytes per row pair than their codes do;
        otherwise there are no lanes and ``wide`` is :attr:`columns`
        itself.
        """
        if self._kernel is None:
            import numpy as np

            columns = self.columns
            binary = [j for j, d in enumerate(self.decoders) if len(d) <= 2]
            n_lanes = (len(binary) + 63) // 64
            if 8 * n_lanes < len(binary) * columns.itemsize:
                # one row's lanes are 8 * n_lanes little-endian bytes
                # whose bit t (least significant first) is column binary[t]
                packed = np.zeros((self.n_rows, 8 * n_lanes), dtype=np.uint8)
                bits = np.packbits(
                    self.codes[:, binary], axis=1, bitorder="little"
                )
                packed[:, :bits.shape[1]] = bits
                lanes = np.ascontiguousarray(
                    packed.view("<u8").T, dtype=np.uint64
                )
                wide = np.delete(columns, binary, axis=0)
            else:
                lanes = np.zeros((0, self.n_rows), dtype=np.uint64)
                wide = columns
            self._kernel = (lanes, wide)
        return self._kernel


#: id(table) -> EncodedTable; entries evicted when the table is garbage
#: collected, so a table is encoded at most once no matter how many
#: backend instances are built over it.
_ENCODED_CACHE: dict[int, EncodedTable] = {}


def encode_table(table) -> EncodedTable:
    """The shared :class:`EncodedTable` of *table* (encoded at most once).

    Every numpy backend instance over the same table object — cached or
    fresh — resolves to the same encoding, so the O(n·m) encode pass
    and the bit-packing pass are paid once per table, not once per
    backend.
    """
    key = id(table)
    encoded = _ENCODED_CACHE.get(key)
    if encoded is None:
        encoded = EncodedTable(table)
        _ENCODED_CACHE[key] = encoded
        try:
            weakref.finalize(table, _ENCODED_CACHE.pop, key, None)
        except TypeError:  # pragma: no cover - non-weakrefable stand-in
            pass
    return encoded


# ----------------------------------------------------------------------
# Incremental per-group statistics
# ----------------------------------------------------------------------


class MutableGroupStats:
    """Incrementally maintained ANON statistics of one mutable group.

    Tracks, per column, the multiset of member values, the number of
    columns with more than one distinct value (the disagreeing
    coordinates), and hence ``cost = |S| * |disagreeing|`` — with O(m)
    updates when the group gains or loses one row, and O(m)
    *non-mutating* what-if queries (``cost_if_add`` / ``cost_if_remove``
    / ``cost_if_swap``).  This is what lets local search and annealing
    evaluate a move without recomputing any group from scratch.
    """

    __slots__ = ("_backend", "_rows", "_members", "_counts", "_disagree")

    def __init__(self, backend: "DistanceBackend", members: Iterable[int] = ()):
        self._backend = backend
        self._rows = backend.table.rows
        self._members: set[int] = set()
        self._counts: list[dict[Hashable, int]] = [
            {} for _ in range(backend.table.degree)
        ]
        self._disagree = 0
        for i in members:
            self.add(i)

    # -- views ---------------------------------------------------------

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, i: int) -> bool:
        return i in self._members

    @property
    def n_disagreeing(self) -> int:
        """Number of coordinates the group does not unanimously agree on."""
        return self._disagree

    @property
    def cost(self) -> int:
        """``ANON(S) = |S| * |disagreeing coordinates|`` right now."""
        return len(self._members) * self._disagree

    # -- mutation ------------------------------------------------------

    def add(self, i: int) -> None:
        """Add row *i* to the group (O(m))."""
        if i in self._members:
            raise ValueError(f"row {i} already in group")
        self._members.add(i)
        for j, value in enumerate(self._rows[i]):
            counts = self._counts[j]
            before = len(counts)
            counts[value] = counts.get(value, 0) + 1
            if before == 1 and len(counts) == 2:
                self._disagree += 1
        self._backend.counters["incremental_updates"] += 1

    def remove(self, i: int) -> None:
        """Remove row *i* from the group (O(m))."""
        if i not in self._members:
            raise ValueError(f"row {i} not in group")
        self._members.remove(i)
        for j, value in enumerate(self._rows[i]):
            counts = self._counts[j]
            count = counts[value]
            if count == 1:
                del counts[value]
                if len(counts) == 1:
                    self._disagree -= 1
            else:
                counts[value] = count - 1
        self._backend.counters["incremental_updates"] += 1

    # -- what-if queries (no mutation) ---------------------------------

    def cost_if_add(self, i: int) -> int:
        """``ANON(S + {i})`` without mutating the group (O(m))."""
        disagree = 0
        for j, value in enumerate(self._rows[i]):
            counts = self._counts[j]
            distinct = len(counts)
            if distinct > 1 or (distinct == 1 and value not in counts):
                disagree += 1
        self._backend.counters["incremental_updates"] += 1
        return (len(self._members) + 1) * disagree

    def cost_if_remove(self, i: int) -> int:
        """``ANON(S - {i})`` without mutating the group (O(m))."""
        if i not in self._members:
            raise ValueError(f"row {i} not in group")
        disagree = 0
        for j, value in enumerate(self._rows[i]):
            counts = self._counts[j]
            distinct = len(counts)
            if counts[value] == 1:
                distinct -= 1
            if distinct > 1:
                disagree += 1
        self._backend.counters["incremental_updates"] += 1
        return (len(self._members) - 1) * disagree

    def cost_if_swap(self, out_i: int, in_i: int) -> int:
        """``ANON(S - {out_i} + {in_i})`` without mutating (O(m))."""
        if out_i not in self._members:
            raise ValueError(f"row {out_i} not in group")
        if out_i == in_i:
            return self.cost
        out_row = self._rows[out_i]
        in_row = self._rows[in_i]
        disagree = 0
        for j in range(len(out_row)):
            counts = self._counts[j]
            out_value, in_value = out_row[j], in_row[j]
            distinct = len(counts)
            remaining_out = counts[out_value] - 1
            if remaining_out == 0:
                distinct -= 1
            in_count = counts.get(in_value, 0)
            if in_value == out_value:
                in_count = remaining_out
            if in_count == 0:
                distinct += 1
            if distinct > 1:
                disagree += 1
        self._backend.counters["incremental_updates"] += 1
        return len(self._members) * disagree


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------


class DistanceBackend(abc.ABC):
    """Shared metric substrate of one table.

    All group-level queries are memoized on the frozen index set, so any
    two algorithms (or one algorithm's phases) asking about the same
    group share the work.  ``counters`` tracks how the work was done —
    ``full_group_scans`` (from-scratch group computations),
    ``incremental_updates`` (O(m) :class:`MutableGroupStats` steps),
    ``memo_hits``, ``matrix_rows`` (distance-matrix rows computed,
    whether block-filled or lazily one row at a time),
    ``neighbor_orders`` (radius-bucketed per-row indices built), and
    ``neighbor_queries`` (``neighbors_within`` ball lookups) —
    which the tests use to assert that the metaheuristics really run on
    the incremental path and that the Theorem 4.2 solvers build no
    neighbour order.
    """

    #: short machine-readable identifier, overridden by subclasses
    name: str = "abstract"

    def __init__(self, table):
        self.table = table
        self.counters: dict[str, int] = {
            "full_group_scans": 0,
            "incremental_updates": 0,
            "memo_hits": 0,
            "matrix_rows": 0,
            "neighbor_orders": 0,
            "neighbor_queries": 0,
        }
        self._matrix: list[list[int]] | None = None
        self._row_memo: dict[int, list[int]] = {}
        self._neighbor_memo: dict[
            int, tuple[tuple[int, ...], tuple[int, ...]]
        ] = {}
        self._diameter_memo: dict[frozenset[int], int] = {}
        self._disagree_memo: dict[frozenset[int], tuple[int, ...]] = {}

    # -- abstract computational kernels --------------------------------

    @abc.abstractmethod
    def distance(self, i: int, j: int) -> int:
        """Hamming distance between rows *i* and *j* of the table."""

    @abc.abstractmethod
    def _compute_matrix(self) -> list[list[int]]:
        """The full n x n distance matrix as plain nested lists."""

    @abc.abstractmethod
    def _compute_diameter(self, indices: tuple[int, ...]) -> int:
        """Max pairwise distance within the (>= 2 member) group."""

    @abc.abstractmethod
    def _compute_disagreeing(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        """Columns on which the (non-empty) group does not agree."""

    # -- shared memoized API -------------------------------------------

    def distance_matrix(self) -> list[list[int]]:
        """The full pairwise distance matrix, computed once and cached.

        Plain nested lists of plain ints, identical across backends.
        """
        if self._matrix is None:
            self._matrix = self._compute_matrix()
            self.counters["matrix_rows"] += len(self._matrix)
        return self._matrix

    def distance_row(self, i: int) -> list[int]:
        """Row *i* of the distance matrix, computed lazily and cached.

        Algorithms that touch only some rows (or one row at a time)
        should prefer this over :meth:`distance_matrix`: it never
        materializes the full ``n x n`` nested-list matrix, and each row
        is computed at most once (served from the full matrix when that
        has already been built).  The returned list is shared — treat it
        as read-only.
        """
        if self._matrix is not None:
            return self._matrix[i]
        row = self._row_memo.get(i)
        if row is None:
            row = self._compute_distance_row(i)
            self._row_memo[i] = row
            self.counters["matrix_rows"] += 1
        return row

    def _compute_distance_row(self, i: int) -> list[int]:
        """One row of distances; subclasses override with a fast path."""
        return [self.distance(i, j) for j in range(self.table.n_rows)]

    # -- radius-bucketed candidate index -------------------------------

    def neighbor_order(
        self, center: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(order, dists)``: all rows bucketed by distance to *center*.

        ``order`` lists every row index sorted by ``(distance, index)``
        and ``dists`` the matching non-decreasing distances, so
        ``order[:p]`` is exactly the ball ``S_{center, dists[p-1]}``
        whenever ``p`` sits on a distance boundary.  Built once per
        center (memoized) from one distance row — ball enumeration
        never rescans all rows per (center, radius) pair.
        """
        cached = self._neighbor_memo.get(center)
        if cached is not None:
            self.counters["memo_hits"] += 1
            return cached
        entry = self._compute_neighbor_order(center)
        self._neighbor_memo[center] = entry
        self.counters["neighbor_orders"] += 1
        return entry

    def _compute_neighbor_order(
        self, center: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One center's ``(order, dists)``; the reference sorts in Python."""
        row = self.distance_row(center)
        order = sorted(range(self.table.n_rows), key=lambda v: (row[v], v))
        return tuple(order), tuple(row[v] for v in order)

    def distances_from(self, center: int, indices: Iterable[int]) -> list[int]:
        """Distances from row *center* to each row of *indices*, in order.

        Served from a memoized distance row when one exists, otherwise
        computed in one pass over *indices*.  Not memoized itself, so
        one-off scans (group splits, seed picks) never grow the row memo.
        """
        if self._matrix is not None:
            row = self._matrix[center]
        else:
            row = self._row_memo.get(center)
        if row is not None:
            return [row[i] for i in indices]
        return self._compute_distances_from(center, list(indices))

    def _compute_distances_from(
        self, center: int, indices: list[int]
    ) -> list[int]:
        """Un-memoized distances; subclasses override with a vector pass."""
        return [self.distance(center, i) for i in indices]

    def _distances_array(self, center: int, indices: Any = None) -> Any:
        """:meth:`distances_from` as a numpy integer array.

        *indices* is an index array (all rows if None).  The reference
        converts :meth:`distances_from`'s list; the numpy backend
        computes the array in one vector pass.
        """
        import numpy as np

        if indices is None:
            indices = range(self.table.n_rows)
        else:
            indices = np.asarray(indices).tolist()
        return np.asarray(self.distances_from(center, indices), dtype=np.intp)

    def ball_candidates(self, k: int) -> tuple[Any, Any, Any]:
        """``(centers, radii, sizes)``: every ball with at least *k* members.

        One entry per center ``c`` and *realized* radius ``r`` (the
        distance from ``c`` to some row) with ``|S(c, r)| >= k``, in
        (center, radius) order.  Ball membership only changes at
        realized radii, so these are exactly Theorem 4.2's candidate
        balls.  Only sizes are needed, so no neighbour order is built.
        The three columns are ``int64`` arrays.

        :raises ValueError: if *k* is not positive.
        """
        if k < 1:
            raise ValueError("k must be positive")
        return self._compute_ball_candidates(k)

    def _compute_ball_candidates(self, k: int) -> tuple[Any, Any, Any]:
        """The reference: one sorted distance row per center and one
        ``bisect`` per realized radius."""
        import numpy as np

        n = self.table.n_rows
        centers: list[int] = []
        radii: list[int] = []
        sizes: list[int] = []
        for c in range(n):
            dists = sorted(self.distance_row(c))
            p = k
            while p <= n:
                radius = dists[p - 1]
                p = bisect_right(dists, radius, p)
                centers.append(c)
                radii.append(radius)
                sizes.append(p)
                p += 1
        return (
            np.array(centers, dtype=np.int64),
            np.array(radii, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )

    def neighbors_within(self, center: int, r: int) -> list[int]:
        """Rows within distance *r* of row *center* (a ball's members).

        Sorted by ``(distance, index)``, read off one distance row with a
        stable sort of the members only, so no neighbour order is built.
        The order matters: a ``frozenset``'s iteration order depends on
        its insertion order, and Reduce iterates the cover's sets, so
        covers built from this order release exactly what covers built
        from neighbour-order prefixes did.
        """
        self.counters["neighbor_queries"] += 1
        row = self.distance_row(center)
        return sorted(
            (v for v, d in enumerate(row) if d <= r), key=row.__getitem__
        )

    def diameter(self, indices: Iterable[int]) -> int:
        """``d(S)`` for a group of row indices (memoized)."""
        return self.diameters([indices])[0]

    def diameters(self, groups: Iterable[Iterable[int]]) -> list[int]:
        """``d(S)`` of each group, in order (memoized per group).

        The groups not memoized yet go to one :meth:`_compute_diameters`
        call, so a backend can reduce them together.
        """
        keys = [frozenset(group) for group in groups]
        memo = self._diameter_memo
        missing = [key for key in dict.fromkeys(keys) if key not in memo]
        self.counters["memo_hits"] += len(keys) - len(missing)
        scanned = [key for key in missing if len(key) >= 2]
        values = self._compute_diameters([tuple(sorted(key)) for key in scanned])
        memo.update(dict.fromkeys(missing, 0))  # groups of under two rows
        memo.update(zip(scanned, values))
        self.counters["full_group_scans"] += len(scanned)
        return [memo[key] for key in keys]

    def _compute_diameters(self, groups: list[tuple[int, ...]]) -> list[int]:
        """Diameters of (>= 2 member) groups; one at a time by default."""
        return [self._compute_diameter(group) for group in groups]

    def disagreeing_coordinates(self, indices: Iterable[int]) -> list[int]:
        """Coordinates the group disagrees on (memoized)."""
        key = frozenset(indices)
        cached = self._disagree_memo.get(key)
        if cached is not None:
            self.counters["memo_hits"] += 1
            return list(cached)
        if not key:
            value: tuple[int, ...] = ()
        else:
            value = tuple(self._compute_disagreeing(tuple(sorted(key))))
            self.counters["full_group_scans"] += 1
        self._disagree_memo[key] = value
        return list(value)

    def anon_cost(self, indices: Iterable[int]) -> int:
        """``ANON(S) = |S| * |disagreeing coordinates|`` (memoized)."""
        key = frozenset(indices)
        return len(key) * len(self.disagreeing_coordinates(key))

    def group_image(self, indices: Iterable[int]) -> Row:
        """The group's common anonymized vector under minimal suppression."""
        key = frozenset(indices)
        if not key:
            raise ValueError("a group image needs at least one vector")
        starred = set(self.disagreeing_coordinates(key))
        first = self.table.rows[min(key)]
        return tuple(
            STAR if j in starred else value for j, value in enumerate(first)
        )

    def starred_cells(
        self, groups: Iterable[Iterable[int]]
    ) -> dict[int, frozenset[int]]:
        """Row -> the columns a partition's suppression stars in that row.

        Each group is released as its :meth:`group_image`: a row is
        starred on every column the group disagrees on, unless its cell
        there is ``STAR`` already, and on any other column where the
        image's value ``!=`` the cell (a NaN fails that even against
        itself).  Rows starred nowhere are left out.
        """
        starred: dict[int, frozenset[int]] = {}
        rows = self.table.rows
        for group in groups:
            # a cell differs from STAR unless it is STAR, so starred columns
            # take an identity test
            image = self.group_image(group)
            stars = [j for j, value in enumerate(image) if value is STAR]
            kept = [(j, value) for j, value in enumerate(image) if value is not STAR]
            for i in group:
                row = rows[i]
                coords = {j for j in stars if row[j] is not STAR}
                coords.update(j for j, value in kept if value != row[j])
                if coords:
                    starred[i] = frozenset(coords)
        return starred

    def radius_from(self, center: int, indices: Iterable[int]) -> int:
        """Max distance from row *center* to any row in *indices*."""
        return max(self.distances_from(center, indices), default=0)

    def group_stats(self, members: Iterable[int] = ()) -> MutableGroupStats:
        """A fresh incremental statistics tracker seeded with *members*."""
        return MutableGroupStats(self, members)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(table={self.table!r})"


class PythonBackend(DistanceBackend):
    """Pure-Python reference backend: current semantics, no dependencies."""

    name = "python"

    def distance(self, i: int, j: int) -> int:
        rows = self.table.rows
        return _rows_distance(rows[i], rows[j])

    def _compute_distance_row(self, i: int) -> list[int]:
        rows = self.table.rows
        row_i = rows[i]
        return [_rows_distance(row_i, other) for other in rows]

    def _compute_matrix(self) -> list[list[int]]:
        rows = self.table.rows
        n = len(rows)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            row_i = rows[i]
            line = matrix[i]
            for j in range(i + 1, n):
                d = _rows_distance(row_i, rows[j])
                line[j] = d
                matrix[j][i] = d
        return matrix

    def _compute_diameter(self, indices: tuple[int, ...]) -> int:
        rows = self.table.rows
        return _rows_diameter([rows[i] for i in indices])

    def _compute_disagreeing(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        rows = self.table.rows
        return tuple(_rows_disagreeing([rows[i] for i in indices]))


class NumpyBackend(DistanceBackend):
    """Vectorized backend over an :class:`EncodedTable`'s kernel view.

    Every distance kernel is one popcount over the XOR of the bit-packed
    lanes plus one compare over the wide codes (see
    :meth:`EncodedTable.kernel`); a table with nothing worth packing has
    no lanes, and the lane term is skipped.  The distance matrix is
    filled one lane or column at a time, in row blocks of at most
    ``_CHUNK_CELLS`` cells; once built, distance rows, one-center scans,
    diameters and ball candidates all read it.  Group reductions that
    are not distance-shaped (``disagreeing_coordinates``, hence
    ``anon_cost`` / ``group_image``) read the row-major codes.
    """

    name = "numpy"

    def __init__(self, table):
        super().__init__(table)
        self._np_matrix: Any = None

    @property
    def encoded(self) -> EncodedTable:
        """The table's shared encoding (see :func:`encode_table`)."""
        return encode_table(self.table)

    def distance(self, i: int, j: int) -> int:
        if self._np_matrix is not None:
            return int(self._np_matrix[i, j])
        import numpy as np

        lanes, wide = self.encoded.kernel()
        d = int(np.count_nonzero(wide[:, i] != wide[:, j]))
        if len(lanes):
            d += sum(x.bit_count() for x in (lanes[:, i] ^ lanes[:, j]).tolist())
        return d

    def _distances_array(self, center: int, indices: Any = None) -> Any:
        """Distances from *center* to *indices* (all rows if None).

        One vector pass; the sum is ``uint16`` whenever ``m`` fits, so a
        stable ``argsort`` of the result runs as a radix sort.
        """
        if self._np_matrix is not None:
            row = self._np_matrix[center]
            return row if indices is None else row[indices]
        lanes, wide = self.encoded.kernel()
        dtype = _distance_dtype(self.table.degree)
        others = wide if indices is None else wide[:, indices]
        dists = (others != wide[:, center, None]).sum(axis=0, dtype=dtype)
        if len(lanes):
            others = lanes if indices is None else lanes[:, indices]
            dists += _lane_popcounts(others ^ lanes[:, center, None]).sum(
                axis=0, dtype=dtype
            )
        return dists

    def _compute_distance_row(self, i: int) -> list[int]:
        return self._distances_array(i).tolist()

    def _compute_distances_from(
        self, center: int, indices: list[int]
    ) -> list[int]:
        import numpy as np

        if 4 * len(indices) < self.table.n_rows:
            idx = np.asarray(indices, dtype=np.intp)
            return self._distances_array(center, idx).tolist()
        # a full contiguous row beats gathering a large share of the rows
        row = self._distances_array(center).tolist()
        return [row[i] for i in indices]

    def _compute_ball_candidates(self, k: int) -> tuple[Any, Any, Any]:
        """Per-center radius counts over the cached distance matrix.

        One ``bincount`` of ``row * width + distance`` counts each
        center's rows per radius, a ``cumsum`` turns counts into ball
        sizes, and ``nonzero`` lists the realized radii whose ball holds
        at least *k* rows, already in (center, radius) order.
        """
        import numpy as np

        matrix = self.matrix_array()
        n = matrix.shape[0]
        width = int(matrix.max()) + 1 if n else 1
        counts = np.empty((n, width), dtype=np.intp)
        block = max(1, _CHUNK_CELLS // max(1, n))
        for start in range(0, n, block):
            stop = min(start + block, n)
            offsets = np.arange(stop - start, dtype=np.intp)[:, None] * width
            counts[start:stop] = np.bincount(
                (matrix[start:stop] + offsets).ravel(),
                minlength=(stop - start) * width,
            ).reshape(stop - start, width)
        sizes = counts.cumsum(axis=1)
        centers, radii = np.nonzero((counts > 0) & (sizes >= k))
        return (
            centers.astype(np.int64, copy=False),
            radii.astype(np.int64, copy=False),
            sizes[centers, radii].astype(np.int64, copy=False),
        )

    def neighbors_within(self, center: int, r: int) -> list[int]:
        import numpy as np

        self.counters["neighbor_queries"] += 1
        row = self._distances_array(center)
        members = np.flatnonzero(row <= r)
        return members[np.argsort(row[members], kind="stable")].tolist()

    def _compute_neighbor_order(
        self, center: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One stable ``argsort`` of the center's distance row.

        A stable sort by distance alone keeps equal distances in index
        order, which is exactly the reference's ``(distance, index)``
        order.  The row is not memoized as a list.
        """
        import numpy as np

        if self._np_matrix is None:
            self.counters["matrix_rows"] += 1
        row = self._distances_array(center)
        order = np.argsort(row, kind="stable")
        return tuple(order.tolist()), tuple(row[order].tolist())

    def matrix_array(self) -> Any:
        """The distance matrix as a numpy array (cached).

        Its dtype is ``uint16`` whenever every distance fits (see
        :func:`_distance_dtype`).  Filled one lane or column at a time:
        each adds its ``(block, n)`` popcount or mismatch grid into the
        matrix, so the hot loop is a few contiguous ufunc calls per lane
        or column instead of a reduction over a short last axis.
        """
        if self._np_matrix is None:
            import numpy as np

            lanes, wide = self.encoded.kernel()
            n = self.encoded.n_rows
            matrix = np.zeros((n, n), dtype=_distance_dtype(self.table.degree))
            block = max(1, _CHUNK_CELLS // max(1, n))
            for start in range(0, n, block):
                stop = min(start + block, n)
                rows = matrix[start:stop]
                for lane in lanes:
                    rows += _lane_popcounts(lane[start:stop, None] ^ lane)
                for col in wide:
                    rows += col[start:stop, None] != col
                self.counters["matrix_rows"] += stop - start
            # shared by every row, ball and diameter query: never written
            matrix.setflags(write=False)
            self._np_matrix = matrix
        return self._np_matrix

    def _compute_matrix(self) -> list[list[int]]:
        return self.matrix_array().tolist()

    def _compute_diameter(self, indices: tuple[int, ...]) -> int:
        import numpy as np

        idx = np.asarray(indices)
        if self._np_matrix is not None:
            if len(indices) == self.table.n_rows:  # the whole table
                return int(self._np_matrix.max())
            return int(self._np_matrix[np.ix_(idx, idx)].max())
        lanes, wide = self.encoded.kernel()
        sub_lanes, sub_wide = lanes[:, idx], wide[:, idx]
        dtype = _distance_dtype(self.table.degree)
        size = len(indices)
        per_pair = max(1, 8 * len(lanes) + len(wide))
        best = 0
        block = max(1, _CHUNK_CELLS // max(1, size * per_pair))
        for start in range(0, size, block):
            stop = min(start + block, size)
            diffs = (
                sub_wide[:, start:stop, None] != sub_wide[:, None, :]
            ).sum(axis=0, dtype=dtype)
            if len(lanes):
                diffs += _lane_popcounts(
                    sub_lanes[:, start:stop, None] ^ sub_lanes[:, None, :]
                ).sum(axis=0, dtype=dtype)
            best = max(best, int(diffs.max()))
        return best

    def _compute_diameters(self, groups: list[tuple[int, ...]]) -> list[int]:
        """One gather over the cached matrix per block of same-size groups.

        ``s``-member groups stacked into a ``(g, s)`` index array read
        their pairwise distances as one ``(g, s, s)`` gather; blocks are
        capped at ``_CHUNK_CELLS`` cells, and a group alone in its block
        (say the whole table) goes to :meth:`_compute_diameter`.
        """
        matrix = self._np_matrix
        if matrix is None:
            return super()._compute_diameters(groups)
        import numpy as np

        by_size: dict[int, list[int]] = {}
        for position, group in enumerate(groups):
            by_size.setdefault(len(group), []).append(position)
        values = [0] * len(groups)
        for size, positions in by_size.items():
            block = max(1, _CHUNK_CELLS // (size * size))
            for start in range(0, len(positions), block):
                chunk = positions[start:start + block]
                if len(chunk) == 1:
                    values[chunk[0]] = self._compute_diameter(groups[chunk[0]])
                    continue
                idx = np.array([groups[p] for p in chunk], dtype=np.intp)
                best = matrix[idx[:, :, None], idx[:, None, :]].max(axis=(1, 2))
                for p, value in zip(chunk, best.tolist()):
                    values[p] = value
        return values

    def starred_cells(
        self, groups: Iterable[Iterable[int]]
    ) -> dict[int, frozenset[int]]:
        """One pass over the row-major codes instead of a per-cell loop.

        Rows are gathered group by group; a group disagrees on a column
        iff some member's code there differs from its min-index row's
        (one ``logical_or.reduceat``), which is exactly the
        :meth:`group_image`'s ``STAR`` set, and its members share that
        set.  Two kinds of cell make a row's set its own: a disagreeing
        cell holding ``STAR``'s code is not starred, and an agreeing
        cell, which has the image's code, is starred only if the image's
        value is unequal to it, which needs a value unequal to itself (a
        NaN): columns holding one run the reference's per-cell ``!=``.
        """
        import numpy as np

        listed = [list(group) for group in groups]
        encoded = self.encoded
        if not listed or encoded.degree == 0:
            return {}
        sizes = np.array([len(group) for group in listed], dtype=np.intp)
        if not sizes.all():
            raise ValueError("a group image needs at least one vector")
        starts = np.zeros(len(listed), dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        members = np.fromiter(
            (i for group in listed for i in group), dtype=np.intp,
            count=int(sizes.sum()),
        )
        labels = np.repeat(np.arange(len(listed)), sizes)
        first = np.minimum.reduceat(members, starts)
        codes = encoded.codes[members]
        disagree = np.logical_or.reduceat(
            codes != encoded.codes[first][labels], starts, axis=0
        )
        shared = _true_columns(disagree)
        starred = {
            i: shared[g]
            for i, g in zip(members.tolist(), labels.tolist()) if shared[g]
        }

        mask = None  # the members' starred cells, once some row differs
        rows = self.table.rows
        for j, decoder in enumerate(encoded.decoders):
            star = next((c for c, v in enumerate(decoder) if v is STAR), None)
            odd = any(value != value for value in decoder)
            if star is None and not odd:
                continue
            if mask is None:
                mask = disagree[labels]
            if star is not None:
                mask[:, j] &= codes[:, j] != star
            if odd:
                for g in np.flatnonzero(~disagree[:, j]).tolist():
                    value = rows[first[g]][j]
                    for at in range(starts[g], starts[g] + sizes[g]):
                        mask[at, j] = value != rows[members[at]][j]
        if mask is not None:
            own = np.flatnonzero((mask != disagree[labels]).any(axis=1))
            for at, coords in zip(own.tolist(), _true_columns(mask[own])):
                i = int(members[at])
                if coords:
                    starred[i] = coords
                else:
                    del starred[i]
        return starred

    def _compute_disagreeing(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        import numpy as np

        codes = self.encoded.codes
        if codes.shape[1] == 0:
            return ()
        idx = np.asarray(indices)
        mismatched = (codes[idx[1:]] != codes[idx[0]]).any(axis=0)
        return tuple(int(j) for j in np.flatnonzero(mismatched))


def _true_columns(mask: Any) -> list[frozenset[int]]:
    """Per row of a boolean matrix, the set of its ``True`` columns.

    One ``nonzero``: it is row-major, so each row's columns are one run.
    """
    import numpy as np

    at, columns = np.nonzero(mask)
    bounds = np.searchsorted(at, np.arange(len(mask) + 1)).tolist()
    columns = columns.tolist()
    return [frozenset(columns[a:b]) for a, b in zip(bounds, bounds[1:])]


def _distance_dtype(m: int) -> Any:
    """``uint16`` when every distance of an m-column table fits, else int64."""
    import numpy as np

    return np.uint16 if m < 2 ** 16 else np.int64


#: 8-bit popcount lookup table, built on first use (numpy < 2.0 has no
#: ``bitwise_count`` ufunc; the LUT path views the uint64 lanes as bytes).
_POPCOUNT_LUT: Any = None


def _lane_popcounts(lanes: Any) -> Any:
    """Per-element popcounts of a contiguous ``uint64`` array."""
    import numpy as np

    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(lanes)
    global _POPCOUNT_LUT  # pragma: no cover - numpy >= 2 ships the ufunc
    if _POPCOUNT_LUT is None:  # pragma: no cover
        _POPCOUNT_LUT = np.array(
            [bin(v).count("1") for v in range(256)], dtype=np.uint8
        )
    return _POPCOUNT_LUT[  # pragma: no cover
        lanes.view(np.uint8).reshape(lanes.shape + (8,))
    ].sum(axis=-1, dtype=np.uint8)


# ----------------------------------------------------------------------
# Selection and per-table caching
# ----------------------------------------------------------------------

_BACKEND_CLASSES: dict[str, type[DistanceBackend]] = {
    "python": PythonBackend,
    "numpy": NumpyBackend,
}

def make_backend(table, name: str | None = None) -> DistanceBackend:
    """A fresh, uncached backend instance for *table*."""
    resolved = name if name is not None else default_backend_name()
    try:
        cls = _BACKEND_CLASSES[resolved]
    except KeyError:
        raise ValueError(
            f"unknown backend {resolved!r}; expected one of "
            f"{sorted(_BACKEND_CLASSES)}"
        ) from None
    return cls(table)


def get_backend(
    table, backend: str | DistanceBackend | None = None
) -> DistanceBackend:
    """The shared backend of *table* (cached on the table instance).

    :param backend: ``None`` (use :func:`default_backend_name`), a
        backend name, or an existing :class:`DistanceBackend` — an
        instance bound to *table* is returned as-is, so cached matrices
        and memos travel with it.
    """
    if isinstance(backend, DistanceBackend):
        if backend.table is table:
            return backend
        name = backend.name
    else:
        name = backend if backend is not None else default_backend_name()
    # the table owns its backends (a backend holds its table, so a
    # module-level cache would keep every table alive for good); the
    # table <-> backend cycle is freed by the collector with the table
    per_table = getattr(table, "_backends", None)
    if per_table is None:
        per_table = {}
        try:
            table._backends = per_table
        except AttributeError:  # pragma: no cover - stand-in without the slot
            pass
    instance = per_table.get(name)
    if instance is None:
        instance = make_backend(table, name)
        per_table[name] = instance
    return instance
