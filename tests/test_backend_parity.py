"""Property-based parity: every backend must be bit-identical to PythonBackend.

The pure-Python backend is the reference oracle — its primitives are the
row-level functions in :mod:`repro.core.distance` applied verbatim.  The
numpy backend re-derives every primitive from the integer-encoded table:
XOR+popcount over uint64 lanes (binary columns, packed only when that
pays) plus compares over the other columns' codes.  This suite drives
all available backends with the same generated tables (random values,
suppressed cells, mixed binary/wide alphabets, tables on both sides of
the packing rule, degenerate shapes) and requires exact agreement,
including Python types (plain ``int``, plain ``list``).
"""

from __future__ import annotations

import gc
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import STAR
from repro.core.backend import (
    EncodedTable,
    NumpyBackend,
    available_backends,
    default_backend_name,
    encode_table,
    get_backend,
    make_backend,
)
from repro.core.distance import pairwise_distance_matrix
from repro.core.table import Table
from repro.workloads import census_table, quasi_identifiers, uniform_table

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available",
)

# -- table strategies ---------------------------------------------------

_VALUES = st.one_of(
    st.integers(0, 3),
    st.sampled_from(["a", "b", STAR]),
)

# columns drawn from a two-symbol pool encode to <= 2 codes (binary
# columns, packed into lanes once a table has enough of them); the wide
# pool forces the code compare path
_BINARY_VALUES = st.sampled_from([0, 1])
_STARRED_BINARY_VALUES = st.sampled_from(["yes", STAR])
_WIDE_VALUES = st.sampled_from([0, 1, 2, "q", STAR])


@st.composite
def tables(draw, min_rows: int = 0, max_rows: int = 8) -> Table:
    m = draw(st.integers(0, 5))
    n = draw(st.integers(min_rows, max_rows))
    rows = [
        tuple(draw(_VALUES) for _ in range(m))
        for _ in range(n)
    ]
    return Table(rows)


@st.composite
def mixed_width_tables(draw, min_rows: int = 0, max_rows: int = 8) -> Table:
    """Tables mixing binary, STAR-augmented-binary, and wide columns."""
    pools = draw(
        st.lists(
            st.sampled_from(
                [_BINARY_VALUES, _STARRED_BINARY_VALUES, _WIDE_VALUES]
            ),
            min_size=0,
            max_size=6,
        )
    )
    n = draw(st.integers(min_rows, max_rows))
    rows = [tuple(draw(pool) for pool in pools) for _ in range(n)]
    return Table(rows)


@st.composite
def tables_with_group(draw) -> tuple[Table, frozenset[int]]:
    table = draw(
        st.one_of(tables(min_rows=1), mixed_width_tables(min_rows=1))
    )
    size = draw(st.integers(1, table.n_rows))
    group = draw(
        st.sets(
            st.integers(0, table.n_rows - 1), min_size=size, max_size=size
        )
    )
    return table, frozenset(group)


def backends(table: Table) -> list:
    """The python oracle first, then every accelerated backend."""
    return [make_backend(table, name) for name in available_backends()]


# -- primitive parity ---------------------------------------------------


@given(st.one_of(tables(), mixed_width_tables()))
@settings(max_examples=60, deadline=None)
def test_distance_matrix_parity(table):
    py, *accelerated = backends(table)
    py_matrix = py.distance_matrix()
    assert py_matrix == pairwise_distance_matrix(table)
    for backend in accelerated:
        matrix = backend.distance_matrix()
        assert matrix == py_matrix
        for row in matrix:
            assert type(row) is list
            assert all(type(value) is int for value in row)


@given(st.one_of(tables(min_rows=2), mixed_width_tables(min_rows=2)))
@settings(max_examples=40, deadline=None)
def test_pointwise_distance_parity(table):
    py, *accelerated = backends(table)
    for backend in accelerated:
        for i in range(table.n_rows):
            for j in range(table.n_rows):
                d = backend.distance(i, j)
                assert type(d) is int
                assert d == py.distance(i, j)


@given(st.one_of(tables(min_rows=1), mixed_width_tables(min_rows=1)))
@settings(max_examples=40, deadline=None)
def test_distance_row_parity(table):
    py, *accelerated = backends(table)
    for i in range(table.n_rows):
        reference = py.distance_row(i)
        assert reference == [py.distance(i, j) for j in range(table.n_rows)]
        for backend in accelerated:
            row = backend.distance_row(i)
            assert type(row) is list
            assert all(type(value) is int for value in row)
            assert row == reference


@given(tables_with_group())
@settings(max_examples=80, deadline=None)
def test_group_query_parity(table_and_group):
    table, group = table_and_group
    py, *accelerated = backends(table)
    center = min(group)
    for backend in accelerated:
        assert backend.diameter(group) == py.diameter(group)
        assert backend.disagreeing_coordinates(
            group
        ) == py.disagreeing_coordinates(group)
        assert backend.anon_cost(group) == py.anon_cost(group)
        assert backend.group_image(group) == py.group_image(group)
        assert backend.radius_from(center, group) == py.radius_from(
            center, group
        )
        assert backend.distances_from(center, sorted(group)) == (
            py.distances_from(center, sorted(group))
        )


@given(st.one_of(tables(min_rows=1), mixed_width_tables(min_rows=1)))
@settings(max_examples=40, deadline=None)
def test_neighbor_index_parity(table):
    py, *accelerated = backends(table)
    n = table.n_rows
    radii = sorted({d for row in py.distance_matrix() for d in row})
    for center in range(n):
        reference_order = py.neighbor_order(center)
        for backend in accelerated:
            assert backend.neighbor_order(center) == reference_order
            for r in radii:
                assert backend.neighbors_within(
                    center, r
                ) == py.neighbors_within(center, r)


def _candidates_from_orders(backend, k: int) -> tuple[list, list, list]:
    """Every (center, realized radius, size) with size >= k, read off the
    sorted neighbour orders: a prefix ends a ball where the distance
    changes or the rows run out."""
    n = backend.table.n_rows
    centers, radii, sizes = [], [], []
    for c in range(n):
        _, dists = backend.neighbor_order(c)
        for p in range(k, n + 1):
            if p == n or dists[p] != dists[p - 1]:
                centers.append(c)
                radii.append(dists[p - 1])
                sizes.append(p)
    return centers, radii, sizes


@st.composite
def tables_with_duplicates(draw) -> Table:
    """A drawn table with some of its rows appended again."""
    table = draw(st.one_of(tables(min_rows=1), mixed_width_tables(min_rows=1)))
    repeats = draw(st.lists(st.integers(0, table.n_rows - 1), max_size=4))
    return Table(list(table.rows) + [table.rows[i] for i in repeats])


@given(
    st.one_of(
        tables(min_rows=1), mixed_width_tables(min_rows=1),
        tables_with_duplicates(),
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ball_primitive_parity(table, data):
    n, m = table.n_rows, table.degree
    k = data.draw(st.sampled_from(sorted({1, n, data.draw(st.integers(1, n))})))
    expected = _candidates_from_orders(make_backend(table, "python"), k)
    for backend in backends(table):
        candidates = backend.ball_candidates(k)
        assert [column.tolist() for column in candidates] == list(expected)
        assert all(column.dtype == np.int64 for column in candidates)
        for c in range(n):
            order, dists = backend.neighbor_order(c)
            for r in range(m + 2):
                ball = backend.neighbors_within(c, r)
                assert ball == list(order[:bisect_right(dists, r)])
                assert all(type(v) is int for v in ball)
        for c, r, size in zip(*candidates):
            assert len(backend.neighbors_within(c, r)) == size


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("rows", [
    [()] * 5,                       # m = 0: every ball is all rows
    [(1, "a")] * 4,                 # all duplicates
    [(0, 0), (0, 0), (1, 1), (1, 0), (0, 0)],
])
def test_ball_candidates_edge_shapes(name, rows):
    table = Table(rows)
    n = table.n_rows
    backend = make_backend(table, name)
    for k in range(1, n + 1):
        candidates = backend.ball_candidates(k)
        assert [column.tolist() for column in candidates] == list(
            _candidates_from_orders(make_backend(table, "python"), k)
        )
    # k = n leaves exactly one ball per center: the whole table
    centers, _, sizes = backend.ball_candidates(n)
    assert centers.tolist() == list(range(n)) and sizes.tolist() == [n] * n


@given(tables_with_group())
@settings(max_examples=60, deadline=None)
def test_group_stats_parity(table_and_group):
    """Incremental stats agree with from-scratch queries on all backends."""
    table, group = table_and_group
    for backend in backends(table):
        stats = backend.group_stats(group)
        assert stats.cost == backend.anon_cost(group)
        assert stats.n_disagreeing == len(
            backend.disagreeing_coordinates(group)
        )
        for extra in range(table.n_rows):
            if extra in group:
                assert stats.cost_if_remove(extra) == backend.anon_cost(
                    group - {extra}
                )
            else:
                assert stats.cost_if_add(extra) == backend.anon_cost(
                    group | {extra}
                )
        out = min(group)
        for into in range(table.n_rows):
            if into not in group:
                assert stats.cost_if_swap(out, into) == backend.anon_cost(
                    (group - {out}) | {into}
                )
        # what-if queries must not have mutated the tracker
        assert stats.members == group
        assert stats.cost == backend.anon_cost(group)


def test_degenerate_shapes():
    for rows in ([], [()], [(), ()], [(1,)], [(STAR, STAR)]):
        table = Table(rows)
        py, *accelerated = backends(table)
        for backend in accelerated:
            assert backend.distance_matrix() == py.distance_matrix()
            if rows:
                full = frozenset(range(len(rows)))
                assert backend.diameter(full) == py.diameter(full)
                assert backend.group_image(full) == py.group_image(full)


# -- encoding -----------------------------------------------------------


def test_encoded_table_roundtrip():
    table = Table([(1, "x", STAR), (1, "y", 2.5), (3, "x", STAR)])
    encoded = EncodedTable(table)
    assert encoded.n_rows == 3 and encoded.degree == 3
    for i, row in enumerate(table.rows):
        for j, value in enumerate(row):
            assert encoded.decode(j, int(encoded.codes[i, j])) == value


def test_encoded_table_star_is_ordinary_symbol():
    """STAR equals only itself, so starred tables stay on the fast path."""
    table = Table([(STAR, 0), (STAR, 1), (0, 0)])
    py, *accelerated = backends(table)
    for backend in accelerated:
        assert backend.distance(0, 1) == py.distance(0, 1) == 1
        assert backend.distance(0, 2) == py.distance(0, 2) == 1
        assert backend.distance_matrix() == py.distance_matrix()


def test_encoded_table_packs_narrow_dtypes():
    small = EncodedTable(Table([(0, 1), (2, 3)]))
    assert small.codes.dtype == np.uint8
    # codes count distinct values per column: >256 of them need uint16
    tall = EncodedTable(Table([(i,) for i in range(300)]))
    assert tall.codes.dtype == np.uint16


def test_encode_once_per_table():
    """All backend instances over one table share one EncodedTable and
    one kernel view."""
    table = Table([(0, 1, "a"), (1, 0, "b"), (0, 0, "c")])
    npb = make_backend(table, "numpy")
    other = get_backend(table, "numpy")
    assert isinstance(npb, NumpyBackend) and other is not npb
    assert npb.encoded is other.encoded
    assert encode_table(table) is npb.encoded
    assert npb.encoded.kernel() is other.encoded.kernel()
    # fresh instances over the same live table still hit the cache
    assert make_backend(table, "numpy").encoded is npb.encoded


def test_encoded_cache_evicts_dead_tables():
    from repro.core.backend import _ENCODED_CACHE

    table = Table([(0, 1), (1, 0)])
    key = id(table)
    encode_table(table)
    assert key in _ENCODED_CACHE
    del table
    gc.collect()
    assert key not in _ENCODED_CACHE


def test_solved_table_is_freed_with_its_caches():
    """A solve must not keep its table alive: the table's backends and
    encoding go when the caller drops it; a live table reuses them."""
    from repro import registry
    from repro.core.backend import _ENCODED_CACHE

    gc.collect()
    encoded_before = len(_ENCODED_CACHE)
    table = quasi_identifiers(census_table(60, seed=3))
    registry.create("center_cover").anonymize(table, 3, backend="numpy")
    backend = get_backend(table, "numpy")
    assert get_backend(table, "numpy") is backend
    assert encode_table(table) is backend.encoded
    assert len(_ENCODED_CACHE) > encoded_before
    alive = weakref.ref(table)
    del table, backend
    gc.collect()
    assert alive() is None
    assert len(_ENCODED_CACHE) == encoded_before


# -- bit-packed lanes ---------------------------------------------------

#: binary-column counts on both sides of the packing rule (uint8 codes
#: pack from 9 binary columns on) and of the 64-bit lane boundary
_LANE_COUNTS = [0, 8, 9, 63, 64, 65, 130]


@st.composite
def lane_tables(draw) -> Table:
    """``n_binary`` binary columns (plain 0/1 or ``STAR``-augmented) and
    0-3 wide or ``STAR``-augmented columns, in a drawn column order."""
    n_binary = draw(st.sampled_from(_LANE_COUNTS))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    starred = rng.integers(0, 2, n_binary).astype(bool)
    bits = rng.integers(0, 2, (n, n_binary))
    binary = [
        [("yes", STAR)[b] if starred[j] else int(b) for j, b in enumerate(row)]
        for row in bits
    ]
    pools = draw(st.lists(
        st.sampled_from([_WIDE_VALUES, _STARRED_BINARY_VALUES]), max_size=3
    ))
    wide = [[draw(pool) for pool in pools] for _ in range(n)]
    order = draw(st.permutations(range(n_binary + len(pools))))
    return Table([
        tuple((b + w)[j] for j in order) for b, w in zip(binary, wide)
    ])


def _expected_lanes(encoded: EncodedTable) -> int:
    """Lanes the packing rule gives: pack iff lanes move fewer bytes."""
    n_binary = sum(len(decoder) <= 2 for decoder in encoded.decoders)
    n_lanes = (n_binary + 63) // 64
    return n_lanes if 8 * n_lanes < n_binary * encoded.columns.itemsize else 0


@given(lane_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_lane_parity(table, data):
    """Every primitive equals the oracle whether or not lanes are packed."""
    n, m = table.n_rows, table.degree
    py = make_backend(table, "python")
    fresh = make_backend(table, "numpy")
    cached = make_backend(table, "numpy")
    lanes, wide = fresh.encoded.kernel()
    assert len(lanes) == _expected_lanes(fresh.encoded)
    assert len(wide) == m - (
        sum(len(d) <= 2 for d in fresh.encoded.decoders) if len(lanes) else 0
    )
    group = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    subset = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    k = data.draw(st.integers(1, n))
    # the uncached kernels first, then the same queries over the matrix
    for i in range(n):
        assert [fresh.distance(i, j) for j in range(n)] == py.distance_row(i)
        assert fresh.distances_from(i, subset) == py.distances_from(i, subset)
    assert fresh.diameter(group) == py.diameter(group)
    assert fresh.group_image(group) == py.group_image(group)
    assert cached.matrix_array().tolist() == py.distance_matrix()
    assert cached.diameter(group) == py.diameter(group)
    for backend in (fresh, cached):
        for ours, theirs in zip(backend.ball_candidates(k),
                                py.ball_candidates(k)):
            assert np.array_equal(ours, theirs)
        for i in range(n):
            assert backend.distance_row(i) == py.distance_row(i)
            for r in range(m + 1):
                assert backend.neighbors_within(i, r) == py.neighbors_within(
                    i, r
                )


def test_packing_rule_on_the_benchmark_shapes():
    """Census quasi-identifiers (one binary column) pack nothing; the
    binary 800x128 table packs its 128 columns into two lanes."""
    census = encode_table(quasi_identifiers(census_table(1000)))
    lanes, wide = census.kernel()
    assert lanes.shape == (0, 1000)
    assert wide is census.columns
    binary = encode_table(uniform_table(800, 128, alphabet_size=2))
    lanes, wide = binary.kernel()
    assert lanes.dtype == np.uint64 and lanes.shape == (2, 800)
    assert wide.shape == (0, 800)


def _binary_wide_table(n_rows: int, n_binary: int, seed: int = 0) -> Table:
    """n_binary 0/1 columns (spanning >1 lane when > 64) plus 3 wide."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        binary = tuple(int(v) for v in rng.integers(0, 2, n_binary))
        wide = tuple(int(v) for v in rng.integers(0, 5, 3))
        rows.append(binary + wide)
    return Table(rows)


def test_bitpacked_lane_layout():
    table = _binary_wide_table(6, 130)
    encoded = make_backend(table, "numpy").encoded
    lanes, wide = encoded.kernel()
    binary = [j for j, d in enumerate(encoded.decoders) if len(d) <= 2]
    assert len(binary) >= 130
    assert lanes.dtype == np.uint64
    # 130+ binary bits -> 3 uint64 lanes, lane-major like the columns
    assert lanes.shape == ((len(binary) + 63) // 64, 6) == (3, 6)
    assert wide.shape == (table.degree - len(binary), 6)
    for t, j in enumerate(binary):
        bit = (lanes[t >> 6] >> np.uint64(t & 63)) & np.uint64(1)
        assert (bit == encoded.columns[j]).all()


def test_bitpacked_parity_across_lane_boundary():
    """Exact parity on a table whose lanes cross the 64-bit boundary."""
    table = _binary_wide_table(12, 130, seed=7)
    py = make_backend(table, "python")
    npb = make_backend(table, "numpy")
    assert len(npb.encoded.kernel()[0]) == 3
    group = frozenset([0, 3, 11])
    assert npb.diameter(group) == py.diameter(group)
    assert npb.distance_matrix() == py.distance_matrix()
    assert npb.anon_cost(group) == py.anon_cost(group)
    assert npb.group_image(group) == py.group_image(group)


def test_bitpacked_all_wide_columns_fall_back():
    """A table with no binary columns still works (zero-lane packing)."""
    table = Table([(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 4, 8)])
    py = make_backend(table, "python")
    npb = make_backend(table, "numpy")
    lanes, wide = npb.encoded.kernel()
    assert lanes.shape[0] == 0 and wide.shape[0] == 3
    assert wide is npb.encoded.columns
    assert npb.distance_matrix() == py.distance_matrix()


# -- selection and caching ----------------------------------------------


def test_available_backends_lists_python_and_numpy():
    assert available_backends() == ("python", "numpy")


def test_default_backend_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert default_backend_name() == "python"
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert default_backend_name() == "numpy"
    for removed in ("bitpacked", "fortran"):
        monkeypatch.setenv("REPRO_BACKEND", removed)
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend_name()
    monkeypatch.delenv("REPRO_BACKEND")
    assert default_backend_name() == "numpy"


def test_get_backend_caches_per_table_and_name():
    table = Table([(0, 1), (1, 0)])
    first = get_backend(table, "numpy")
    assert get_backend(table, "numpy") is first
    assert get_backend(table, "python") is not first
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend(table, "bitpacked")
    # an instance already bound to the table passes through unchanged
    assert get_backend(table, first) is first
    # a foreign instance is re-resolved by name onto the new table
    other = Table([(5, 5), (6, 6)])
    rebound = get_backend(other, first)
    assert rebound is not first and rebound.table is other


def test_make_backend_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend(Table([(0,)]), "fortran")
