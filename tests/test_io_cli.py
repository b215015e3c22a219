"""Tests for file IO and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.alphabet import STAR
from repro.core.table import Table
from repro.io import read_csv, write_csv


class TestIo:
    def test_roundtrip(self, tmp_path):
        t = Table([("a", "1"), ("b", STAR)], attributes=["x", "y"])
        path = tmp_path / "table.csv"
        write_csv(t, path)
        again = read_csv(path)
        assert again == t

    def test_headerless_roundtrip(self, tmp_path):
        t = Table([("a", "1")])
        path = tmp_path / "plain.csv"
        write_csv(t, path, header=False)
        again = read_csv(path, header=False)
        assert again.rows == t.rows

    def test_custom_star_token(self, tmp_path):
        t = Table([(STAR,)], attributes=["v"])
        path = tmp_path / "hidden.csv"
        write_csv(t, path, star_token="NULL")
        assert "NULL" in path.read_text()
        assert read_csv(path, star_token="NULL")[0][0] is STAR


@pytest.fixture
def input_csv(tmp_path):
    path = tmp_path / "in.csv"
    rows = ["age,zip", "30,100", "30,101", "40,200", "40,201"]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestCliAnonymize:
    def test_writes_k_anonymous_output(self, input_csv, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["anonymize", str(input_csv), "-k", "2", "-o", str(out)]
        )
        assert code == 0
        from repro.core.anonymity import is_k_anonymous

        assert is_k_anonymous(read_csv(out), 2)

    def test_stdout_mode(self, input_csv, capsys):
        assert main(["anonymize", str(input_csv), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("age,zip")
        assert "*" in out

    def test_every_algorithm_choice_runs(self, input_csv, tmp_path):
        for algorithm in ["center", "greedy", "exact", "mondrian", "datafly",
                          "kmember", "forest", "random", "sorted", "local"]:
            out = tmp_path / f"{algorithm}.csv"
            code = main(
                ["anonymize", str(input_csv), "-k", "2",
                 "--algorithm", algorithm, "-o", str(out)]
            )
            assert code == 0
            from repro.core.anonymity import is_k_anonymous

            assert is_k_anonymous(read_csv(out), 2), algorithm

    def test_headerless(self, tmp_path):
        path = tmp_path / "nohead.csv"
        path.write_text("1,2\n1,2\n")
        assert main(["anonymize", str(path), "-k", "2", "--no-header"]) == 0

    def test_every_backend_choice_agrees(self, input_csv, tmp_path):
        """The CLI runs the one runtime backend and offers no choice;
        its release equals the library's under every backend, the
        python oracle included."""
        from repro.algorithms import CenterCoverAnonymizer
        from repro.core.backend import available_backends

        out = tmp_path / "out.csv"
        assert main(["anonymize", str(input_csv), "-k", "2",
                     "--algorithm", "center_cover", "-o", str(out)]) == 0
        table = read_csv(input_csv)
        for backend in available_backends():
            release = CenterCoverAnonymizer(backend=backend).anonymize(
                table, 2
            ).anonymized
            assert read_csv(out) == release, backend
        with pytest.raises(SystemExit):
            main(["anonymize", str(input_csv), "-k", "2",
                  "--backend", "python"])


class TestCliAlgorithms:
    def test_lists_the_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "center_cover" in out
        assert "greedy_cover" in out
        assert "backends:" not in out  # there is no backend to choose


class TestCliCheck:
    def test_reports_level_and_stars(self, input_csv, capsys):
        assert main(["check", str(input_csv)]) == 0
        out = capsys.readouterr().out
        assert "anonymity level: 1" in out
        assert "suppressed cells: 0" in out

    def test_metrics_with_k(self, input_csv, capsys):
        assert main(["check", str(input_csv), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "discernibility" in out

    def test_unknown_command_exits(self, input_csv):
        with pytest.raises(SystemExit):
            main(["frobnicate", str(input_csv)])


class TestCliRisk:
    def test_risk_report(self, input_csv, capsys):
        assert main(["risk", str(input_csv)]) == 0
        out = capsys.readouterr().out
        assert "max prosecutor risk: 1.0000" in out
        assert "classes: 4" in out

    def test_linkage_against_external(self, input_csv, tmp_path, capsys):
        released = tmp_path / "released.csv"
        assert main(
            ["anonymize", str(input_csv), "-k", "2", "-o", str(released)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["risk", str(released), "--external", str(input_csv)]
        ) == 0
        out = capsys.readouterr().out
        assert "0/4 external records match exactly one" in out
        assert "minimum match set size: 2" in out
