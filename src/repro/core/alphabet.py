"""Alphabets of attribute values and the suppression symbol.

The paper models a database as a subset ``V`` of ``Sigma^m`` for a finite
alphabet ``Sigma`` (which "could vary for each attribute"), together with
a fresh symbol — written ``*`` here — that is not in ``Sigma`` and marks
a suppressed entry.

This module provides:

* :data:`STAR` — the unique suppression sentinel.  It compares equal only
  to itself, so it can never collide with a legitimate attribute value,
  even the literal string ``"*"``.
* :class:`Alphabet` — an explicit, ordered, finite attribute domain.
* :func:`infer_alphabets` — derive per-attribute alphabets from data.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Any


class _SuppressionSymbol:
    """The fresh symbol ``*`` used for suppressed entries.

    A singleton: every construction attempt returns the same object, so
    identity and equality coincide and the symbol survives copying,
    pickling, and multiset bookkeeping unchanged.
    """

    _instance: "_SuppressionSymbol | None" = None

    def __new__(cls) -> "_SuppressionSymbol":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    #: the identity hash: equality is identity, and a C-level hash keeps
    #: hashing starred rows (equivalence classes, row dicts) cheap
    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        return other is self

    def __copy__(self) -> "_SuppressionSymbol":
        return self

    def __deepcopy__(self, memo: dict) -> "_SuppressionSymbol":
        return self

    def __reduce__(self):
        return (_SuppressionSymbol, ())


STAR = _SuppressionSymbol()
"""The suppression symbol.  ``table[i][j] is STAR`` marks a withheld cell."""


def is_suppressed(value: Any) -> bool:
    """Return ``True`` iff *value* is the suppression symbol :data:`STAR`."""
    return value is STAR


class Alphabet:
    """A finite, ordered domain of values for one attribute.

    The order of first appearance is preserved, which keeps generated
    tables and CSV output deterministic.  Membership checks are O(1).

    >>> race = Alphabet(["Afr-Am", "Cauc", "Hisp"])
    >>> "Cauc" in race
    True
    >>> len(race)
    3
    """

    __slots__ = ("_values", "_index")

    def __init__(self, values: Iterable[Hashable]):
        ordered: list[Hashable] = []
        index: dict[Hashable, int] = {}
        for value in values:
            if value is STAR:
                raise ValueError("the suppression symbol cannot be an alphabet value")
            if value not in index:
                index[value] = len(ordered)
                ordered.append(value)
        if not ordered:
            raise ValueError("an alphabet must contain at least one value")
        self._values = tuple(ordered)
        self._index = index

    @property
    def values(self) -> tuple[Hashable, ...]:
        """The domain values, in first-appearance order."""
        return self._values

    def index(self, value: Hashable) -> int:
        """Position of *value* in the alphabet; raises ``KeyError`` if absent."""
        return self._index[value]

    def __contains__(self, value: object) -> bool:
        try:
            return value in self._index
        except TypeError:  # unhashable values are never members
            return False

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(repr(v) for v in self._values[:6])
        suffix = ", ..." if len(self._values) > 6 else ""
        return f"Alphabet([{shown}{suffix}])"


def infer_alphabets(rows: Sequence[Sequence[Hashable]]) -> list[Alphabet]:
    """Derive one :class:`Alphabet` per attribute from observed data.

    Suppressed cells (:data:`STAR`) are skipped: the suppression symbol is
    "a fresh symbol not in Sigma" and never part of a domain.

    :param rows: non-empty sequence of equal-length records.
    :raises ValueError: on empty input, ragged rows, or an attribute whose
        observed values are all suppressed.
    """
    if not rows:
        raise ValueError("cannot infer alphabets from an empty relation")
    degree = len(rows[0])
    for row in rows:
        if len(row) != degree:
            raise ValueError("rows must all have the same degree")
    alphabets: list[Alphabet] = []
    for j in range(degree):
        column = [row[j] for row in rows if row[j] is not STAR]
        if not column:
            raise ValueError(f"attribute {j} has no unsuppressed values to infer from")
        alphabets.append(Alphabet(column))
    return alphabets
