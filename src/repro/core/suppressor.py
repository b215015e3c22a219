"""Suppressors (Definition 2.1).

A suppressor ``t`` maps each vector to a copy of itself with some
coordinates replaced by ``*``.  Because the relation is a multiset, we
represent a suppressor *positionally*: row index ``i`` of the table maps
to the set of coordinate positions starred in that row's occurrence.
This strictly generalizes the paper's map on vectors (two equal vectors
may be starred differently) while containing it as a special case.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.alphabet import STAR
from repro.core.table import Table


class Suppressor:
    """A positional suppressor over an ``n``-row, degree-``m`` table.

    :param starred: mapping from row index to an iterable of coordinate
        positions to suppress in that row.  Missing rows are unchanged.
    :param n_rows: number of rows of the tables this suppressor applies to.
    :param degree: degree of those tables.

    >>> s = Suppressor({0: [1], 1: [1]}, n_rows=2, degree=2)
    >>> s.total_stars()
    2
    """

    __slots__ = ("_starred", "_n_rows", "_degree")

    def __init__(
        self,
        starred: Mapping[int, Iterable[int]],
        n_rows: int,
        degree: int,
    ):
        if n_rows < 0 or degree < 0:
            raise ValueError("n_rows and degree must be non-negative")
        # each column maps to itself, so a coordinate equal to one (1.0,
        # True, numpy's int64(1)) is stored as that int and any other
        # coordinate fails the lookup
        column_of = {j: j for j in range(degree)}
        known: dict[frozenset, frozenset[int]] = {}  # rows often share a set
        cleaned: dict[int, frozenset[int]] = {}
        for i, coords in starred.items():
            if not 0 <= i < n_rows:
                raise ValueError(f"row index {i} out of range for {n_rows} rows")
            coord_set = frozenset(coords)
            clean = known.get(coord_set)
            if clean is None:
                try:
                    clean = frozenset(map(column_of.__getitem__, coord_set))
                except KeyError as error:
                    raise ValueError(
                        f"coordinate {error.args[0]!r} out of range for "
                        f"degree {degree}"
                    ) from None
                known[coord_set] = clean
            if clean:
                cleaned[i] = clean
        self._starred = cleaned
        self._n_rows = n_rows
        self._degree = degree

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, table: Table) -> "Suppressor":
        """The suppressor that stars nothing."""
        return cls({}, n_rows=table.n_rows, degree=table.degree)

    @classmethod
    def suppress_attributes(cls, table: Table, attributes: Iterable[int | str]
                            ) -> "Suppressor":
        """Star entire columns — the k-ANONYMITY-ON-ATTRIBUTES move.

        "Attribute j is suppressed by t if for all v in V, t(v)[j] = *."
        """
        coords = frozenset(
            a if isinstance(a, int) else table.attribute_index(a) for a in attributes
        )
        return cls(
            {i: coords for i in range(table.n_rows)},
            n_rows=table.n_rows,
            degree=table.degree,
        )

    @classmethod
    def from_tables(cls, original: Table, anonymized: Table) -> "Suppressor":
        """Recover the suppressor sending *original* to *anonymized*.

        :raises ValueError: if *anonymized* is not a coordinate-wise
            suppression of *original* (shape mismatch, changed values).
        """
        if original.n_rows != anonymized.n_rows or original.degree != anonymized.degree:
            raise ValueError("tables have different shapes")
        shared: dict[tuple[int, ...], frozenset[int]] = {}  # equal rows
        starred: dict[int, frozenset[int]] = {}
        for i, (u, v) in enumerate(zip(original.rows, anonymized.rows)):
            stars = []
            for j, (a, b) in enumerate(zip(u, v)):
                if b is STAR:
                    stars.append(j)
                elif a != b:
                    raise ValueError(
                        f"cell ({i},{j}) changed value; not a suppression"
                    )
            if stars:
                key = tuple(stars)
                coords = shared.get(key)
                if coords is None:
                    coords = shared[key] = frozenset(key)
                starred[i] = coords
        return cls(starred, n_rows=original.n_rows, degree=original.degree)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def degree(self) -> int:
        return self._degree

    def starred_coordinates(self, row: int) -> frozenset[int]:
        """Coordinates suppressed in the given row occurrence."""
        if not 0 <= row < self._n_rows:
            raise ValueError(f"row index {row} out of range")
        return self._starred.get(row, frozenset())

    def total_stars(self) -> int:
        """Total number of suppressed cells — the objective the paper
        minimizes ("the total number of vector coordinates suppressed")."""
        return sum(len(coords) for coords in self._starred.values())

    def suppressed_attributes(self) -> frozenset[int]:
        """Attributes starred in *every* row (wholly suppressed columns)."""
        if self._n_rows == 0:
            return frozenset()
        common: frozenset[int] | None = None
        for i in range(self._n_rows):
            coords = self._starred.get(i, frozenset())
            common = coords if common is None else (common & coords)
            if not common:
                return frozenset()
        return common if common is not None else frozenset()

    def is_attribute_suppressor(self) -> bool:
        """True iff every star lies in a wholly suppressed column."""
        whole = self.suppressed_attributes()
        return all(coords <= whole for coords in self._starred.values())

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, table: Table) -> Table:
        """Produce the anonymized table ``t(V)``.

        A row starred on at most half its columns is copied and starred;
        one starred on more starts from ``STAR`` everywhere and gets its
        kept cells copied in.  The kept columns are listed once per
        distinct star set (the rows of one group share one set).
        """
        if table.n_rows != self._n_rows or table.degree != self._degree:
            raise ValueError("suppressor shape does not match the table")
        m = self._degree
        blank = [STAR] * m
        every = frozenset(range(m))
        kept_of: dict[frozenset[int], tuple[int, ...]] = {}
        new_rows = list(table.rows)
        for i, coords in self._starred.items():
            old = new_rows[i]
            if 2 * len(coords) > m:
                kept = kept_of.get(coords)
                if kept is None:
                    kept = kept_of[coords] = tuple(every - coords)
                row = blank.copy()
                for j in kept:
                    row[j] = old[j]
            else:
                row = list(old)
                for j in coords:
                    row[j] = STAR
            new_rows[i] = tuple(row)
        return table.with_rows(new_rows)

    # ------------------------------------------------------------------
    # Serialization (audit trails)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON document (for release audit logs).

        >>> Suppressor({0: [1]}, n_rows=2, degree=2).to_json()
        '{"n_rows": 2, "degree": 2, "starred": {"0": [1]}}'
        """
        import json

        return json.dumps(
            {
                "n_rows": self._n_rows,
                "degree": self._degree,
                "starred": {
                    str(i): sorted(coords)
                    for i, coords in sorted(self._starred.items())
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Suppressor":
        """Inverse of :meth:`to_json` (validates like the constructor)."""
        import json

        data = json.loads(text)
        try:
            return cls(
                {int(i): coords for i, coords in data["starred"].items()},
                n_rows=data["n_rows"],
                degree=data["degree"],
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(f"malformed suppressor JSON: {error}") from None

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Suppressor):
            return NotImplemented
        return (
            self._starred == other._starred
            and self._n_rows == other._n_rows
            and self._degree == other._degree
        )

    def __hash__(self) -> int:
        return hash(
            (frozenset(self._starred.items()), self._n_rows, self._degree)
        )

    def __repr__(self) -> str:
        return (
            f"Suppressor(stars={self.total_stars()}, "
            f"n_rows={self._n_rows}, degree={self._degree})"
        )
