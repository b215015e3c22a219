"""Tests for repro.core.table.Table."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.artifacts import table_hash
from repro.core.alphabet import STAR
from repro.core.table import Table, rows_as_int_array


class TestConstruction:
    def test_basic(self):
        t = Table([(1, 2), (3, 4)])
        assert t.n_rows == 2
        assert t.degree == 2
        assert t.attributes == ("a0", "a1")

    def test_rows_coerced_to_tuples(self):
        t = Table([[1, 2], [3, 4]])
        assert t[0] == (1, 2)

    def test_named_attributes(self):
        t = Table([(1,)], attributes=["age"])
        assert t.attributes == ("age",)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            Table([(1, 2), (3,)])

    def test_attribute_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Table([(1, 2)], attributes=["only_one"])

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Table([(1, 2)], attributes=["x", "x"])

    def test_empty_table_with_attributes(self):
        t = Table([], attributes=["a", "b"])
        assert t.n_rows == 0
        assert t.degree == 2

    def test_empty_table_no_attributes(self):
        t = Table([])
        assert t.n_rows == 0
        assert t.degree == 0

    def test_duplicates_preserved(self):
        t = Table([(1,), (1,), (1,)])
        assert t.n_rows == 3

    def test_from_dicts(self):
        t = Table.from_dicts(
            [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        )
        assert t.attributes == ("a", "b")
        assert t.rows == ((1, 2), (3, 4))

    def test_from_dicts_explicit_order(self):
        t = Table.from_dicts([{"a": 1, "b": 2}], attributes=["b", "a"])
        assert t.rows == ((2, 1),)

    def test_from_dicts_empty_needs_attributes(self):
        with pytest.raises(ValueError):
            Table.from_dicts([])
        assert Table.from_dicts([], attributes=["a"]).degree == 1


class TestCsv:
    def test_roundtrip(self):
        t = Table([("x", "1"), ("y", "2")], attributes=["name", "val"])
        again = Table.from_csv(t.to_csv())
        assert again == t

    def test_star_roundtrip(self):
        t = Table([("x", STAR)], attributes=["name", "val"])
        again = Table.from_csv(t.to_csv())
        assert again[0][1] is STAR

    def test_custom_star_token(self):
        t = Table([(STAR,)], attributes=["v"])
        text = t.to_csv(star_token="<hidden>")
        assert "<hidden>" in text
        again = Table.from_csv(text, star_token="<hidden>")
        assert again[0][0] is STAR

    def test_headerless(self):
        t = Table([("a", "b")])
        text = t.to_csv(header=False)
        again = Table.from_csv(text, header=False)
        assert again.rows == t.rows

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            Table.from_csv("")

    def test_literal_star_string_becomes_suppressed(self):
        # A CSV cannot distinguish a data value "*" from suppression;
        # by convention the token parses as suppression.
        t = Table.from_csv("v\n*\n")
        assert t[0][0] is STAR


#: cells that sit close to the star token: stars, padded stars, quotes,
#: commas and line breaks that only quoting keeps inside one cell
_CELLS = st.sampled_from([
    "*", "**", " *", "* ", "", '"', '"*"', "*,*", "a,b", "*\n", "x\r\ny",
    '""', "?*", "x",
])
#: raw text from the same characters, including quoting csv.writer never
#: emits (``"?"*`` parses to ``?*``)
_RAW = st.lists(
    st.sampled_from(['"', '"?"', '"*"', "*", "?", "a", ",", " ", "\n",
                     "\r\n"]),
    max_size=16,
).map("".join)


def _per_cell(text, header, star_token):
    """The reference parse: every cell compared with the token."""
    lines = [line for line in csv.reader(io.StringIO(text)) if line]
    if not lines:
        raise ValueError("empty CSV input")
    body = lines[1:] if header else lines
    rows = [tuple(STAR if cell == star_token else cell for cell in line)
            for line in body]
    return Table(rows, attributes=lines[0] if header else None)


def _outcome(parse):
    try:
        table = parse()
    except (ValueError, csv.Error) as exc:
        return type(exc)
    return table.rows, table.attributes, table_hash(table)


@st.composite
def _csv_texts(draw):
    if draw(st.booleans()):
        return draw(_RAW)
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=5))
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(out, quoting=quoting).writerows(rows)
    return out.getvalue()


class TestCsvStarlessFastPath:
    """A token absent from the text skips the per-cell compare; the
    rows and the table hash must not change."""

    @settings(max_examples=300, deadline=None)
    @given(_csv_texts(), st.sampled_from(["*", "?*", "", '*"']),
           st.booleans())
    @example('v\n"*"\n', "*", True)
    @example('"?"*\n', "?*", False)  # the cell ``?*`` is no substring
    def test_equals_the_per_cell_parse(self, text, star_token, header):
        expected = _outcome(lambda: _per_cell(text, header, star_token))
        for source in (text, io.StringIO(text)):
            assert _outcome(lambda: Table.from_csv(
                source, header=header, star_token=star_token,
            )) == expected


def _per_cell_render(table, header, star_token):
    """The reference render: every STAR cell replaced by the token."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(table.attributes)
    for row in table.rows:
        writer.writerow([star_token if cell is STAR else cell for cell in row])
    return out.getvalue()


class TestCsvRender:
    """With the default token, rows go to the writer as they are (it
    renders STAR by ``str``); the text must not change."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda width: st.lists(
            st.tuples(*[st.one_of(
                st.just(STAR), st.integers(-5, 5),
                st.floats(allow_nan=True), st.booleans(), _CELLS,
            )] * width),
            max_size=5,
        )),
        st.booleans(), st.sampled_from(["*", "?", '"*"']),
    )
    def test_equals_the_per_cell_render(self, rows, header, star_token):
        table = Table(rows, attributes=None)
        assert table.to_csv(header=header, star_token=star_token) == (
            _per_cell_render(table, header, star_token)
        )


class TestAccessors:
    def test_iteration_and_indexing(self):
        t = Table([(1,), (2,)])
        assert list(t) == [(1,), (2,)]
        assert t[1] == (2,)
        assert len(t) == 2

    def test_column_by_name_and_index(self):
        t = Table([(1, "a"), (2, "b")], attributes=["num", "sym"])
        assert t.column("sym") == ("a", "b")
        assert t.column(0) == (1, 2)

    def test_attribute_index_unknown(self):
        with pytest.raises(KeyError):
            Table([(1,)], attributes=["x"]).attribute_index("nope")

    def test_total_cells(self):
        assert Table([(1, 2, 3)] * 4).total_cells() == 12


class TestDerivedViews:
    def test_project_by_name(self):
        t = Table([(1, "a", True)], attributes=["n", "s", "b"])
        p = t.project(["b", "n"])
        assert p.attributes == ("b", "n")
        assert p.rows == ((True, 1),)

    def test_project_by_index(self):
        t = Table([(1, 2, 3)])
        assert t.project([2, 0]).rows == ((3, 1),)

    def test_select_rows(self):
        t = Table([(i,) for i in range(5)])
        assert t.select_rows([3, 1]).rows == ((3,), (1,))

    def test_with_rows_keeps_schema(self):
        t = Table([(1,)], attributes=["x"])
        t2 = t.with_rows([(9,), (8,)])
        assert t2.attributes == ("x",)
        assert t2.n_rows == 2

    def test_row_multiset(self):
        t = Table([(1,), (2,), (1,)])
        assert t.row_multiset() == {(1,): 2, (2,): 1}

    def test_distinct_rows_order(self):
        t = Table([(2,), (1,), (2,), (3,)])
        assert t.distinct_rows() == ((2,), (1,), (3,))

    def test_alphabets(self):
        t = Table([(1, "a"), (2, "a")])
        alphabets = t.alphabets()
        assert alphabets[0].values == (1, 2)
        assert alphabets[1].values == ("a",)


class TestDunder:
    def test_equality_includes_schema(self):
        assert Table([(1,)], attributes=["a"]) != Table([(1,)], attributes=["b"])
        assert Table([(1,)]) == Table([(1,)])

    def test_equality_other_type(self):
        assert Table([(1,)]) != [(1,)]

    def test_hash_consistent(self):
        assert hash(Table([(1,)])) == hash(Table([(1,)]))

    def test_repr(self):
        assert repr(Table([(1, 2)])) == "Table(n_rows=1, degree=2)"

    def test_pretty_contains_values_and_stars(self):
        text = Table([(1, STAR)], attributes=["a", "b"]).pretty()
        assert "1" in text and "*" in text and "a" in text

    def test_pretty_truncates(self):
        text = Table([(i,) for i in range(50)]).pretty(max_rows=3)
        assert "more rows" in text


class TestIntArray:
    def test_encoding_shape_and_values(self):
        t = Table([("x", 10), ("y", 10), ("x", 20)])
        arr = rows_as_int_array(t)
        assert arr.shape == (3, 2)
        assert arr[0, 0] == arr[2, 0] == 0
        assert arr[1, 0] == 1
        assert arr[2, 1] == 1

    def test_rejects_stars(self):
        with pytest.raises(ValueError, match="suppressed"):
            rows_as_int_array(Table([(STAR,)]))

    def test_distances_match_python(self):
        from repro.core.distance import distance

        rng = np.random.default_rng(0)
        data = rng.integers(0, 3, size=(6, 4))
        t = Table([tuple(int(v) for v in row) for row in data])
        arr = rows_as_int_array(t)
        for i in range(6):
            for j in range(6):
                assert int((arr[i] != arr[j]).sum()) == distance(t[i], t[j])
