"""Relations (tables) of degree-m records.

The paper's databases are sets of m-dimensional vectors ``V`` over a
finite alphabet, treated as *multisets* once anonymized ("we will regard
t(V) as a multiset when two or more vectors map to the same suppressed
vector").  :class:`Table` therefore keeps rows in a list — duplicates are
allowed and meaningful — with optional attribute names for readability.

Tables are immutable: all "modifying" operations return new tables.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Any

from repro.core.alphabet import STAR, Alphabet, infer_alphabets

Row = tuple[Hashable, ...]

_STAR_TOKEN = "*"


class Table:
    """An ordered multiset of equal-degree records.

    :param rows: the records; each is coerced to a tuple.
    :param attributes: optional column names; defaults to ``a0..a{m-1}``.

    >>> t = Table([("Harry", 34), ("Beatrice", 47)], attributes=["first", "age"])
    >>> t.n_rows, t.degree
    (2, 2)
    >>> t[0]
    ('Harry', 34)
    """

    #: ``_backends``: the table's distance backends, freed with it (see
    #: :func:`repro.core.backend.get_backend`)
    __slots__ = ("_rows", "_attributes", "_backends", "__weakref__")

    def __init__(
        self,
        rows: Iterable[Sequence[Hashable]],
        attributes: Sequence[str] | None = None,
    ):
        coerced = [tuple(row) for row in rows]
        if coerced:
            degree = len(coerced[0])
            for i, row in enumerate(coerced):
                if len(row) != degree:
                    raise ValueError(
                        f"row {i} has degree {len(row)}, expected {degree}"
                    )
        else:
            degree = len(attributes) if attributes is not None else 0
        if attributes is None:
            attributes = [f"a{j}" for j in range(degree)]
        else:
            attributes = list(attributes)
            if len(attributes) != degree and coerced:
                raise ValueError(
                    f"{len(attributes)} attribute names for degree-{degree} rows"
                )
            if len(set(attributes)) != len(attributes):
                raise ValueError("attribute names must be unique")
        self._rows: tuple[Row, ...] = tuple(coerced)
        self._attributes: tuple[str, ...] = tuple(attributes)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        records: Iterable[Mapping[str, Hashable]],
        attributes: Sequence[str] | None = None,
    ) -> "Table":
        """Build a table from dict records.

        Column order follows *attributes* if given, else the key order of
        the first record.
        """
        records = list(records)
        if attributes is None:
            if not records:
                raise ValueError("need attributes to build an empty table from dicts")
            attributes = list(records[0].keys())
        rows = [tuple(record[name] for name in attributes) for record in records]
        return cls(rows, attributes=attributes)

    @classmethod
    def from_csv(
        cls,
        text_or_file: str | io.TextIOBase,
        header: bool = True,
        star_token: str = _STAR_TOKEN,
    ) -> "Table":
        """Parse a table from CSV text or a file object.

        Cells equal to *star_token* become the suppression symbol.
        All values are kept as strings; callers needing typed columns
        should convert afterwards.
        """
        # a cell is a span of the text less some quote characters, so
        # a quote-free token absent from the quote-free text matches no
        # cell and the per-cell compare can be skipped
        starless = (
            isinstance(text_or_file, str)
            and star_token
            and '"' not in star_token
            and star_token not in text_or_file.replace('"', "")
        )
        if isinstance(text_or_file, str):
            handle: io.TextIOBase = io.StringIO(text_or_file)
        else:
            handle = text_or_file
        reader = csv.reader(handle)
        lines = [line for line in reader if line]
        if not lines:
            raise ValueError("empty CSV input")
        attributes: Sequence[str] | None
        if header:
            attributes = lines[0]
            body = lines[1:]
        else:
            attributes = None
            body = lines
        if starless:
            return cls(body, attributes=attributes)
        rows = [
            tuple(STAR if cell == star_token else cell for cell in line)
            for line in body
        ]
        return cls(rows, attributes=attributes)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        """All records, in order."""
        return self._rows

    @property
    def attributes(self) -> tuple[str, ...]:
        """Column names."""
        return self._attributes

    @property
    def n_rows(self) -> int:
        """Number of records (``|V|`` counting multiplicity)."""
        return len(self._rows)

    @property
    def degree(self) -> int:
        """Degree ``m`` of the relation (number of attributes)."""
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def column(self, attribute: str | int) -> tuple[Hashable, ...]:
        """All values of one column, by name or position."""
        j = attribute if isinstance(attribute, int) else self.attribute_index(attribute)
        return tuple(row[j] for row in self._rows)

    def attribute_index(self, name: str) -> int:
        """Position of the named attribute."""
        try:
            return self._attributes.index(name)
        except ValueError:
            raise KeyError(f"no attribute named {name!r}") from None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def project(self, attributes: Sequence[str | int]) -> "Table":
        """Project onto the given attributes (names or positions)."""
        indices = [
            a if isinstance(a, int) else self.attribute_index(a) for a in attributes
        ]
        names = [self._attributes[j] for j in indices]
        rows = [tuple(row[j] for j in indices) for row in self._rows]
        return Table(rows, attributes=names)

    def select_rows(self, indices: Iterable[int]) -> "Table":
        """A new table with only the rows at *indices* (in the given order)."""
        return Table([self._rows[i] for i in indices], attributes=self._attributes)

    def with_rows(self, rows: Iterable[Sequence[Hashable]]) -> "Table":
        """Same schema, different rows."""
        return Table(rows, attributes=self._attributes)

    def row_multiset(self) -> Counter:
        """Multiplicity of each distinct record."""
        return Counter(self._rows)

    def distinct_rows(self) -> tuple[Row, ...]:
        """Distinct records in first-appearance order."""
        seen: dict[Row, None] = {}
        for row in self._rows:
            seen.setdefault(row)
        return tuple(seen)

    def alphabets(self) -> list[Alphabet]:
        """Per-attribute alphabets inferred from the data (stars skipped)."""
        return infer_alphabets(self._rows)

    def total_cells(self) -> int:
        """``n * m`` — the number of cells in the relation."""
        return self.n_rows * self.degree

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def to_csv(self, header: bool = True, star_token: str = _STAR_TOKEN) -> str:
        """Serialize to CSV text; suppressed cells become *star_token*."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if header:
            writer.writerow(self._attributes)
        for row in self._rows:
            writer.writerow([star_token if cell is STAR else cell for cell in row])
        return buffer.getvalue()

    def pretty(self, max_rows: int = 30) -> str:
        """A fixed-width text rendering for logs and examples."""
        shown = self._rows[:max_rows]
        cells = [list(self._attributes)] + [
            ["*" if value is STAR else str(value) for value in row] for row in shown
        ]
        widths = [
            max(len(line[j]) for line in cells) for j in range(len(self._attributes))
        ] if self._attributes else []
        lines = ["  ".join(line[j].ljust(widths[j]) for j in range(len(line)))
                 for line in cells]
        if len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Equality & repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._rows == other._rows and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self._rows, self._attributes))

    def __getstate__(self):
        # pickles and copies carry the data, never the derived backends
        return None, {"_rows": self._rows, "_attributes": self._attributes}

    def __repr__(self) -> str:
        return f"Table(n_rows={self.n_rows}, degree={self.degree})"


def rows_as_int_array(table: Table) -> "Any":
    """Encode a star-free table as a compact ``numpy`` integer array.

    Each attribute's values are mapped to ``0..|Sigma_j|-1`` in alphabet
    order.  Useful for vectorized distance computations in benchmarks.

    :raises ValueError: if the table contains suppressed cells.
    """
    import numpy as np

    for row in table.rows:
        if any(cell is STAR for cell in row):
            raise ValueError("cannot integer-encode a table with suppressed cells")
    alphabets = table.alphabets()
    encoded = np.empty((table.n_rows, table.degree), dtype=np.int64)
    for i, row in enumerate(table.rows):
        for j, cell in enumerate(row):
            encoded[i, j] = alphabets[j].index(cell)
    return encoded
