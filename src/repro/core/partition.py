"""(k1, k2)-covers and partitions of a relation (Section 4.1).

A ``(k1, k2)``-cover of ``V`` is a collection of subsets of ``V``, each
of cardinality in ``[k1, k2]``, whose union is ``V``; a partition is a
cover with pairwise-disjoint sets.  Any k-anonymizer induces a
``(k, 2k-1)``-partition WLOG: a group of 2k or more vectors can be split
into two groups of at least k each without increasing the number of
stars (splitting can only shrink the set of disagreeing coordinates).

Groups are ``frozenset`` s of *row indices* into a fixed table, so
duplicate records are handled with multiset semantics for free.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.suppressor import Suppressor
from repro.core.table import Table

Group = frozenset[int]


class Cover:
    """A (k1, k2)-cover: groups of row indices whose union is all rows.

    :param groups: the member sets (any iterables of ints).
    :param n_rows: number of rows of the underlying table.
    :param k: the anonymity parameter; bounds default to ``[k, 2k-1]``.
    :param k_max: override for the upper cardinality bound.
    :param validate: check the cover conditions on construction.
    """

    _require_disjoint = False

    __slots__ = ("_groups", "_n_rows", "_k", "_k_max")

    def __init__(
        self,
        groups: Iterable[Iterable[int]],
        n_rows: int,
        k: int,
        k_max: int | None = None,
        validate: bool = True,
    ):
        self._groups: tuple[Group, ...] = tuple(frozenset(g) for g in groups)
        self._n_rows = n_rows
        self._k = k
        self._k_max = (2 * k - 1) if k_max is None else k_max
        if validate:
            self.validate()

    # ------------------------------------------------------------------

    @property
    def groups(self) -> tuple[Group, ...]:
        return self._groups

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def k(self) -> int:
        return self._k

    @property
    def k_max(self) -> int:
        return self._k_max

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        return iter(self._groups)

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` unless this is a valid (k, k_max)-cover
        (or partition, for :class:`Partition`)."""
        if self._k < 1:
            raise ValueError("k must be positive")
        if self._k_max < self._k:
            raise ValueError("k_max must be at least k")
        covered: set[int] = set()
        total = 0
        for group in self._groups:
            if not group:
                raise ValueError("empty group in cover")
            if not all(0 <= i < self._n_rows for i in group):
                raise ValueError("group contains out-of-range row index")
            if not self._k <= len(group) <= self._k_max:
                raise ValueError(
                    f"group of size {len(group)} outside "
                    f"[{self._k}, {self._k_max}]"
                )
            covered |= group
            total += len(group)
        if covered != set(range(self._n_rows)):
            missing = sorted(set(range(self._n_rows)) - covered)
            raise ValueError(f"rows not covered: {missing[:10]}")
        if self._require_disjoint and total != self._n_rows:
            raise ValueError("groups overlap; not a partition")

    def is_partition(self) -> bool:
        """True iff the groups are pairwise disjoint."""
        return sum(len(g) for g in self._groups) == self._n_rows

    # ------------------------------------------------------------------

    def diameter_sum(self, table: Table, backend=None) -> int:
        """``d(Pi) = sum over groups of d(S)`` — the paper's objective for
        the k-minimum diameter sum problem."""
        from repro.core.backend import get_backend

        return sum(get_backend(table, backend).diameters(self._groups))

    def anon_cost(self, table: Table, backend=None) -> int:
        """Total stars needed to anonymize each group to its common image.

        For a partition this is the cost of the induced anonymization;
        for an overlapping cover it is only an accounting quantity.
        """
        from repro.core.backend import get_backend

        resolved = get_backend(table, backend)
        return sum(resolved.anon_cost(group) for group in self._groups)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return (
            frozenset(self._groups) == frozenset(other._groups)
            and self._n_rows == other._n_rows
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._groups), self._n_rows))

    def __repr__(self) -> str:
        kind = "Partition" if self._require_disjoint else "Cover"
        return (
            f"{kind}(groups={len(self._groups)}, n_rows={self._n_rows}, "
            f"k={self._k})"
        )


class Partition(Cover):
    """A (k, k_max)-partition: a cover with pairwise-disjoint groups."""

    _require_disjoint = True

    __slots__ = ()

    @classmethod
    def from_cover(cls, cover: Cover) -> "Partition":
        """Reinterpret a disjoint cover as a partition (validating)."""
        return cls(cover.groups, cover.n_rows, cover.k, k_max=cover.k_max)

    @classmethod
    def single_group(cls, table: Table, k: int) -> "Partition":
        """The trivial partition with all rows in one group.

        Only valid when ``k <= n <= 2k-1``; otherwise the caller wants a
        real algorithm.
        """
        return cls(
            [range(table.n_rows)], table.n_rows, k, k_max=max(2 * k - 1,
                                                              table.n_rows)
        )


def anonymize_partition(
    table: Table, partition: Cover, backend=None
) -> tuple[Table, Suppressor]:
    """Step 3 of the paper's summary algorithm.

    For each group, star every coordinate on which the group disagrees, so
    all members become textually identical.  Returns the anonymized table
    and the suppressor that produced it.

    :raises ValueError: if *partition* is not actually disjoint (an
        overlapping cover does not induce a well-defined suppressor).
    """
    from repro.core.backend import get_backend

    if not partition.is_partition():
        raise ValueError("cannot anonymize from an overlapping cover; Reduce first")
    starred = get_backend(table, backend).starred_cells(partition.groups)
    suppressor = Suppressor(starred, n_rows=table.n_rows, degree=table.degree)
    return suppressor.apply(table), suppressor


def split_into_small_groups(
    table: Table, groups: Iterable[Iterable[int]], k: int, backend=None
) -> list[Group]:
    """Split oversized groups into pieces of size in ``[k, 2k-1]``.

    This implements the WLOG argument of Section 4.1: any group with 2k or
    more members can be split into two groups of at least k each, and the
    split "requires no more *s to k-anonymize it than the former one".
    Splits peel off the k members closest to an arbitrary anchor, which
    never increases (and usually decreases) total ANON cost.  Members
    live in an index array: each peel fetches the anchor's distances to
    the remaining members in one vector call (``_distances_array``) and
    reorders them by one stable ``argsort``, so ties keep their order.
    """
    import numpy as np

    from repro.core.backend import get_backend

    if k < 1:
        raise ValueError("k must be positive")
    resolved = get_backend(table, backend)
    result: list[Group] = []
    for raw in groups:
        members = np.array(sorted(raw), dtype=np.intp)
        if len(members) < k:
            raise ValueError(f"group of size {len(members)} smaller than k={k}")
        while len(members) >= 2 * k:
            dists = resolved._distances_array(int(members[0]), members)
            members = members[np.argsort(dists, kind="stable")]
            result.append(frozenset(members[:k].tolist()))
            members = members[k:]
        result.append(frozenset(members.tolist()))
    return result


def partition_from_equivalence(table: Table, k: int) -> Partition:
    """The partition induced by an already-k-anonymous table's classes.

    Groups rows by identical record, then splits classes larger than
    2k-1.  Raises if some class is smaller than k.
    """
    from repro.core.anonymity import equivalence_classes

    classes = list(equivalence_classes(table).values())
    groups = split_into_small_groups(table, classes, k)
    return Partition(groups, table.n_rows, k)
