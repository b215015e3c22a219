"""Tests for repro.core.suppressor.Suppressor (Definition 2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import STAR
from repro.core.suppressor import Suppressor
from repro.core.table import Table


@pytest.fixture
def table():
    return Table([(1, 2, 3), (4, 5, 6)], attributes=["a", "b", "c"])


@st.composite
def _starred_tables(draw):
    """A table of mixed cells and a star set per row, of any size."""
    m = draw(st.integers(0, 9))
    n = draw(st.integers(0, 6))
    cells = st.sampled_from([STAR, 0, 1, 1.0, "a", None, float("nan")])
    rows = [tuple(draw(cells) for _ in range(m)) for _ in range(n)]
    shared = draw(st.sets(st.integers(0, m - 1))) if m else set()
    starred = {
        i: draw(st.one_of(st.just(shared), st.sets(st.integers(0, m - 1))))
        for i in range(n) if m and draw(st.booleans())
    }
    return Table(rows, attributes=[f"a{j}" for j in range(m)]), starred


@given(_starred_tables())
@settings(max_examples=200, deadline=None)
def test_apply_equals_per_star_reference(case):
    """Rows starred on most columns are built from their kept cells;
    the release is the per-star copy's, cell for cell and object for
    object."""
    table, starred = case
    expected = [
        tuple(STAR if j in starred.get(i, ()) else cell
              for j, cell in enumerate(row))
        for i, row in enumerate(table.rows)
    ]
    got = Suppressor(starred, table.n_rows, table.degree).apply(table).rows
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        assert len(row) == len(want)
        assert all(a is b for a, b in zip(row, want))


class TestConstruction:
    def test_validates_row_range(self):
        with pytest.raises(ValueError, match="row index"):
            Suppressor({5: [0]}, n_rows=2, degree=3)

    def test_validates_coordinate_range(self):
        with pytest.raises(ValueError, match="coordinate"):
            Suppressor({0: [7]}, n_rows=2, degree=3)

    def test_integral_coordinates_are_stored_as_ints(self, table):
        s = Suppressor({0: [1.0, True], 1: [2.0]}, n_rows=2, degree=3)
        assert s == Suppressor({0: [1], 1: [2]}, n_rows=2, degree=3)
        assert all(
            type(j) is int
            for i in range(2) for j in s.starred_coordinates(i)
        )
        assert s.apply(table).rows == ((1, STAR, 3), (4, 5, STAR))

    @pytest.mark.parametrize("bad", [1.5, -1, 3, float("nan"), "1"])
    def test_rejects_other_coordinates(self, bad):
        with pytest.raises(ValueError, match="coordinate"):
            Suppressor({0: [0, bad]}, n_rows=2, degree=3)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            Suppressor({}, n_rows=-1, degree=2)

    def test_empty_coordinate_sets_dropped(self):
        s = Suppressor({0: [], 1: [2]}, n_rows=2, degree=3)
        assert s.starred_coordinates(0) == frozenset()
        assert s.total_stars() == 1

    def test_identity(self, table):
        s = Suppressor.identity(table)
        assert s.total_stars() == 0
        assert s.apply(table) == table


class TestApplication:
    def test_stars_selected_cells(self, table):
        s = Suppressor({0: [1], 1: [0, 2]}, n_rows=2, degree=3)
        out = s.apply(table)
        assert out.rows == ((1, STAR, 3), (STAR, 5, STAR))

    def test_shape_mismatch_rejected(self, table):
        s = Suppressor({}, n_rows=3, degree=3)
        with pytest.raises(ValueError, match="shape"):
            s.apply(table)

    def test_total_stars(self, table):
        s = Suppressor({0: [0, 1], 1: [2]}, n_rows=2, degree=3)
        assert s.total_stars() == 3

    def test_apply_preserves_schema(self, table):
        s = Suppressor({0: [0]}, n_rows=2, degree=3)
        assert s.apply(table).attributes == table.attributes


class TestFromTables:
    def test_roundtrip(self, table):
        s = Suppressor({0: [2], 1: [0]}, n_rows=2, degree=3)
        recovered = Suppressor.from_tables(table, s.apply(table))
        assert recovered == s

    def test_rejects_changed_values(self, table):
        bad = table.with_rows([(1, 2, 99), (4, 5, 6)])
        with pytest.raises(ValueError, match="changed value"):
            Suppressor.from_tables(table, bad)

    def test_rejects_shape_mismatch(self, table):
        with pytest.raises(ValueError, match="shapes"):
            Suppressor.from_tables(table, Table([(1, 2, 3)]))

    def test_identity_recovered(self, table):
        assert Suppressor.from_tables(table, table).total_stars() == 0

    def test_equal_star_sets_are_shared(self):
        original = Table([(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 9)])
        s = Suppressor({0: [0, 2], 1: [2, 0], 2: [1], 3: [0, 2]},
                       n_rows=4, degree=3)
        recovered = Suppressor.from_tables(original, s.apply(original))
        assert recovered == s
        first = recovered.starred_coordinates(0)
        assert recovered.starred_coordinates(1) is first
        assert recovered.starred_coordinates(3) is first


class TestAttributeSuppression:
    def test_suppress_attributes_by_index(self, table):
        s = Suppressor.suppress_attributes(table, [1])
        out = s.apply(table)
        assert out.column(1) == (STAR, STAR)
        assert out.column(0) == (1, 4)

    def test_suppress_attributes_by_name(self, table):
        s = Suppressor.suppress_attributes(table, ["c"])
        assert s.suppressed_attributes() == frozenset([2])

    def test_suppressed_attributes_detection(self, table):
        s = Suppressor({0: [0, 1], 1: [1]}, n_rows=2, degree=3)
        assert s.suppressed_attributes() == frozenset([1])

    def test_no_common_attributes(self, table):
        s = Suppressor({0: [0], 1: [1]}, n_rows=2, degree=3)
        assert s.suppressed_attributes() == frozenset()

    def test_empty_table_suppressed_attributes(self):
        s = Suppressor({}, n_rows=0, degree=3)
        assert s.suppressed_attributes() == frozenset()

    def test_is_attribute_suppressor(self, table):
        assert Suppressor.suppress_attributes(table, [0, 2]).is_attribute_suppressor()
        mixed = Suppressor({0: [0], 1: [0, 1]}, n_rows=2, degree=3)
        assert not mixed.is_attribute_suppressor()

    def test_identity_is_attribute_suppressor(self, table):
        assert Suppressor.identity(table).is_attribute_suppressor()


class TestDunder:
    def test_equality(self):
        a = Suppressor({0: [1]}, n_rows=2, degree=2)
        b = Suppressor({0: (1,)}, n_rows=2, degree=2)
        c = Suppressor({0: [0]}, n_rows=2, degree=2)
        assert a == b
        assert a != c
        assert a != "not a suppressor"

    def test_hash(self):
        a = Suppressor({0: [1]}, n_rows=2, degree=2)
        b = Suppressor({0: [1]}, n_rows=2, degree=2)
        assert hash(a) == hash(b)

    def test_repr(self):
        s = Suppressor({0: [1]}, n_rows=2, degree=2)
        assert "stars=1" in repr(s)
