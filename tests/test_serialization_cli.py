"""Tests for DIMACS round-trips, suppressor JSON, and the experiment CLI."""

import pytest

from repro.cli import main
from repro.core.alphabet import STAR
from repro.core.suppressor import Suppressor
from repro.core.table import Table
from repro.hardness.sat import Cnf, random_three_cnf, solve_sat


class TestDimacs:
    def test_roundtrip(self):
        f = random_three_cnf(5, 8, seed=0)
        again = Cnf.from_dimacs(f.to_dimacs())
        assert again.n_vars == f.n_vars
        assert again.clauses == f.clauses

    def test_comments_and_blank_lines_ignored(self):
        text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
        f = Cnf.from_dimacs(text)
        assert f.clauses == ((1, -2),)

    def test_multiline_clause(self):
        f = Cnf.from_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_trailing_clause_without_zero(self):
        f = Cnf.from_dimacs("p cnf 2 1\n1 2")
        assert f.clauses == ((1, 2),)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            Cnf.from_dimacs("1 2 0\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            Cnf.from_dimacs("p cnf 2\n1 0\n")

    def test_comment_embedded_in_output(self):
        text = Cnf(1, [(1,)]).to_dimacs(comment="hello\nworld")
        assert text.startswith("c hello\nc world\n")

    def test_solver_runs_on_parsed_formula(self):
        f = Cnf.from_dimacs("p cnf 2 2\n1 0\n-1 2 0\n")
        assert solve_sat(f) == [True, True]


class TestSuppressorJson:
    def test_roundtrip(self):
        s = Suppressor({0: [1, 2], 3: [0]}, n_rows=4, degree=3)
        assert Suppressor.from_json(s.to_json()) == s

    def test_doctest_form(self):
        s = Suppressor({0: [1]}, n_rows=2, degree=2)
        assert s.to_json() == (
            '{"n_rows": 2, "degree": 2, "starred": {"0": [1]}}'
        )

    def test_empty_suppressor(self):
        s = Suppressor({}, n_rows=3, degree=2)
        assert Suppressor.from_json(s.to_json()).total_stars() == 0

    def test_float_coordinates_apply_as_ints(self):
        s = Suppressor.from_json(
            '{"n_rows": 1, "degree": 2, "starred": {"0": [1.0]}}'
        )
        assert s == Suppressor({0: [1]}, n_rows=1, degree=2)
        assert s.apply(Table([("a", "b")])).rows == (("a", STAR),)
        with pytest.raises(ValueError, match="coordinate"):
            Suppressor.from_json(
                '{"n_rows": 1, "degree": 2, "starred": {"0": [0.5]}}'
            )

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            Suppressor.from_json('{"nope": 1}')
        with pytest.raises(ValueError):
            # out-of-range coordinates still validated
            Suppressor.from_json(
                '{"n_rows": 1, "degree": 1, "starred": {"0": [5]}}'
            )


class TestExperimentCli:
    def test_ratio_center(self, capsys):
        assert main(["experiment", "ratio-center", "-k", "2",
                     "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "mean ratio" in out
        assert "proven bound" in out

    def test_ratio_greedy(self, capsys):
        assert main(["experiment", "ratio-greedy", "-k", "2",
                     "--trials", "3"]) == 0
        assert "greedy_cover" in capsys.readouterr().out

    def test_threshold_entries(self, capsys):
        assert main(["experiment", "threshold-entries"]) == 0
        out = capsys.readouterr().out
        assert "matching=True" in out and "matching=False" in out
        assert "consistent=True" in out

    def test_threshold_attributes(self, capsys):
        assert main(["experiment", "threshold-attributes"]) == 0
        assert "consistent=True" in capsys.readouterr().out

    def test_k_sweep(self, capsys):
        assert main(["experiment", "k-sweep"]) == 0
        out = capsys.readouterr().out
        assert "k=2:" in out and "k=8:" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])
