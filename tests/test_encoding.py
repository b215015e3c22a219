"""The table encode against its per-cell reference.

:class:`~repro.core.backend.EncodedTable` must assign exactly the codes
of the original ``setdefault`` loop kept here: first-appearance order
per column, the first-seen object as each code's decoder entry (so two
equal cells such as ``1``, ``1.0`` and ``True`` share the first one's
code and object), ``STAR`` an ordinary symbol, a NaN equal only to the
same object.  Its kernel view must pack the binary columns into the
same lanes as the per-column shift loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import STAR
from repro.core.backend import EncodedTable
from repro.core.table import Table

#: one NaN object shared by many cells: equal to itself by identity
SHARED_NAN = float("nan")


def reference_encode(table):
    """``(columns, decoders)``: the per-cell ``setdefault`` encode."""
    n, m = table.n_rows, table.degree
    encoders = [{} for _ in range(m)]
    columns = np.zeros((m, n), dtype=np.int64)
    for j, column in enumerate(zip(*table.rows)):
        encoder = encoders[j]
        columns[j] = [encoder.setdefault(cell, len(encoder)) for cell in column]
    max_code = int(columns.max()) if n and m else 0
    dtype = np.uint8 if max_code < 2 ** 8 else np.uint16
    return columns.astype(dtype), tuple(tuple(e) for e in encoders)


def reference_kernel(columns, decoders, n):
    """``(lanes, wide)`` packed one binary column at a time."""
    binary = [j for j, d in enumerate(decoders) if len(d) <= 2]
    n_lanes = (len(binary) + 63) // 64
    if 8 * n_lanes < len(binary) * columns.itemsize:
        lanes = np.zeros((n_lanes, n), dtype=np.uint64)
        for t, j in enumerate(binary):
            lanes[t >> 6] |= columns[j].astype(np.uint64) << np.uint64(t & 63)
        return lanes, np.delete(columns, binary, axis=0)
    return np.zeros((0, n), dtype=np.uint64), columns


_CELLS = st.one_of(
    st.sampled_from([STAR, SHARED_NAN, 1, 1.0, True, 0, False, None]),
    st.builds(lambda: float("nan")),  # a NaN of its own
    st.text(alphabet="ab*", max_size=2),
    st.tuples(st.integers(0, 1), st.sampled_from(["x", STAR])),
)


@st.composite
def _tables(draw):
    """Tables of mixed cells; a wide one adds a column of > 256 values,
    and a binary one adds 60-140 two-symbol columns, enough for lanes."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 8))
    rows = [[draw(_CELLS) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()) and n:
        width = draw(st.integers(60, 140))
        pairs = draw(st.lists(st.sampled_from(
            [(0, 1), (STAR, "a"), (1.0, True), (SHARED_NAN, None)]),
            min_size=width, max_size=width))
        for i, row in enumerate(rows):
            row.extend(pair[(i * 7 + j) % 3 % 2] for j, pair in enumerate(pairs))
    if draw(st.booleans()):
        distinct = draw(st.integers(257, 300))
        wide = [f"v{draw(st.integers(0, distinct - 1))}" for _ in range(12)]
        wide += [f"v{v}" for v in range(distinct)] + [STAR, SHARED_NAN]
        template = rows or [[None] * m]
        rows = [
            list(template[i % len(template)]) + [cell]
            for i, cell in enumerate(wide)
        ]
    degree = len(rows[0]) if rows else m
    return Table(rows, attributes=[f"a{j}" for j in range(degree)])


def _assert_same_array(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@given(_tables())
@settings(max_examples=150, deadline=None)
def test_encode_equals_setdefault_reference(table):
    columns, decoders = reference_encode(table)
    encoded = EncodedTable(table)
    _assert_same_array(encoded.columns, columns)
    _assert_same_array(encoded.codes, np.ascontiguousarray(columns.T))
    assert encoded.columns.flags.c_contiguous
    assert encoded.codes.flags.c_contiguous
    assert len(encoded.decoders) == len(decoders)
    for got, expected in zip(encoded.decoders, decoders):
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))
    lanes, wide = encoded.kernel()
    ref_lanes, ref_wide = reference_kernel(columns, decoders, table.n_rows)
    _assert_same_array(lanes, ref_lanes)
    _assert_same_array(wide, ref_wide)


def test_encode_of_empty_shapes():
    for table in (Table([], attributes=["a", "b"]), Table([(), ()]), Table([])):
        encoded = EncodedTable(table)
        assert encoded.columns.shape == (table.degree, table.n_rows)
        assert encoded.codes.shape == (table.n_rows, table.degree)
        assert encoded.decoders == ((),) * table.degree
        lanes, wide = encoded.kernel()
        assert lanes.shape == (0, table.n_rows)


def test_wide_column_takes_sixteen_bit_codes():
    """A column past 256 values widens the dtype; its narrow neighbours
    keep their codes."""
    rows = [(i % 2, f"id{i}") for i in range(600)]
    encoded = EncodedTable(Table(rows))
    assert encoded.columns.dtype == np.uint16
    assert encoded.columns[0].tolist() == [i % 2 for i in range(600)]
    assert encoded.columns[1].tolist() == list(range(600))
