import json

import pytest

from ppt.cli import main

from conftest import P1_TEXT, P2_TEXT


@pytest.fixture
def p1_file(tmp_path):
    path = tmp_path / "p1.ppt"
    path.write_text(P1_TEXT)
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.ppt"
    path.write_text(P2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_reports_tightness(self, capsys, p1_file):
        code, out, _ = run(capsys, "check", p1_file)
        assert code == 0
        assert "5 rules" in out and "tight: no" in out

    def test_json(self, capsys, p1_file):
        code, out, _ = run(capsys, "check", p1_file, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["dynamic"] == 3

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppt"
        bad.write_text("a :- since.\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert ":1:6:" in err

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("a.\n"))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0
        assert "1 rules" in out


class TestModels:
    def test_p1_models_json(self, capsys, p1_file):
        code, out, _ = run(capsys, "models", p1_file, "--length", "2")
        assert code == 0
        assert json.loads(out) == {
            "length": 2, "models": [[["load"], ["dead", "shoot"]]]}

    def test_budget_exit_3(self, capsys, p1_file):
        code, _, err = run(capsys, "models", p1_file, "--length", "2",
                           "--budget", "10")
        assert code == 3
        assert "budget" in err

    def test_env_budget(self, capsys, p1_file, monkeypatch):
        monkeypatch.setenv("PPT_BUDGET", "10")
        code, _, _ = run(capsys, "models", p1_file, "--length", "2")
        assert code == 3

    def test_alphabet_must_cover(self, capsys, p1_file):
        code, _, err = run(capsys, "models", p1_file, "--length", "1",
                           "--alphabet", "load")
        assert code == 1
        assert "cover" in err

    def test_wider_alphabet(self, capsys, tmp_path):
        path = tmp_path / "fact.ppt"
        path.write_text("a.\n")
        code, out, _ = run(capsys, "models", str(path), "--length", "1",
                           "--alphabet", "a,b")
        assert code == 0
        assert json.loads(out)["models"] == [[["a"]]]


class TestUnreadableInput:
    def test_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "nonexistent.ppt")
        code, out, err = run(capsys, "models", path, "--length", "2")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")

    def test_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path}: ")


class TestGraphAndLoops:
    def test_graph_lines(self, capsys, p1_file):
        code, out, _ = run(capsys, "graph", p1_file)
        assert code == 0
        assert "dynamic: dead -> shoot" in out.splitlines()

    def test_graph_json(self, capsys, p1_file):
        code, out, _ = run(capsys, "graph", p1_file, "--json")
        doc = json.loads(out)
        assert doc["dynamic"] == [["dead", "load"], ["dead", "shoot"],
                                  ["shoot", "dead"]]
        assert doc["initial"] == []

    def test_loops_plain(self, capsys, p1_file):
        code, out, _ = run(capsys, "loops", p1_file)
        assert code == 0
        assert out.splitlines() == ["dynamic: {dead, shoot}"]

    def test_loops_unitary_json(self, capsys, p1_file):
        code, out, _ = run(capsys, "loops", p1_file, "--unitary", "--json")
        doc = json.loads(out)
        assert len(doc["initial"]) == 4
        assert len(doc["dynamic"]) == 5


class TestCompileCommands:
    def test_complete_plain(self, capsys, p1_file):
        code, out, _ = run(capsys, "complete", p1_file, "--simplify")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("always(dead <->")

    def test_complete_json_provenance(self, capsys, p1_file):
        code, out, _ = run(capsys, "complete", p1_file, "--json")
        doc = json.loads(out)
        assert [e["source"] for e in doc["formulas"]] == [
            "atom dead", "atom load", "atom shoot", "atom unload", "rule 4"]

    def test_lf_unitary(self, capsys, p1_file):
        code, out, _ = run(capsys, "lf", p1_file, "--unitary", "--simplify")
        assert code == 0
        assert len(out.splitlines()) == 9

    def test_embed(self, capsys, p1_file):
        code, out, _ = run(capsys, "embed", p1_file)
        assert code == 0
        assert out.splitlines()[0] == "load"


class TestVerify:
    def test_p1_loops_equal(self, capsys, p1_file):
        code, out, _ = run(capsys, "verify", p1_file, "--length", "2",
                           "--mode", "loops")
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_p2_completion_mismatch_exit_2(self, capsys, p2_file):
        code, out, _ = run(capsys, "verify", p2_file, "--length", "2",
                           "--mode", "completion")
        assert code == 2
        doc = json.loads(out)
        assert doc["witnesses"] == [[["load"], ["dead", "shoot"]]]

    def test_p2_unitary_equal(self, capsys, p2_file):
        code, out, _ = run(capsys, "verify", p2_file, "--length", "2",
                           "--mode", "unitary")
        assert code == 0


class TestFuzz:
    def test_small_all_suites(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--cases", "20", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert doc["correspondence"]["cases"] == 20
        assert doc["lemma_support"]["cases"] == 20

    def test_semantics_only(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--cases", "50", "--seed", "5",
                           "--suite", "semantics")
        assert code == 0
        assert "semantics" in json.loads(out)
