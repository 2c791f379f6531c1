import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppt

from ppt.cli import main
from ppt.parser import MAX_NESTING

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

    @pytest.mark.parametrize("command", ["models", "verify"])
    def test_budget_long_trace_exit_3(self, capsys, p1_file, command):
        # 2^(4 * 100,000) candidates: too many digits to print in decimal.
        code, out, err = run(capsys, command, p1_file, "--length", "100000")
        assert (code, out) == (3, "")
        assert "budget" in err


class TestUsageErrors:
    """Bad command lines exit 1 with argparse's message; 2 is reserved
    for a verification mismatch."""

    @pytest.mark.parametrize("argv", [
        ["models", "{file}"],
        ["verify", "{file}", "--length", "x"],
        ["frobnicate"],
        [],
        ["fuzz", "--cases", "x"],
        ["models", "{file}", "--length", "2", "--alphabet", "a"],
    ])
    def test_exit_1(self, capsys, p1_file, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(file=p1_file) for arg in argv])
        captured = capsys.readouterr()
        assert exit_info.value.code == 1
        assert captured.out == ""
        assert "ppt" in captured.err and "error: " in captured.err

    def test_negative_case_count(self, capsys):
        code, out, err = run(capsys, "fuzz", "--cases", "-3")
        assert (code, out) == (1, "")
        assert err == "error: --cases must be nonnegative, got -3\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: ppt" in capsys.readouterr().out


class TestDeepBody:
    """A constraint of 2,000 conjuncts: twice Python's default recursion
    limit, so no walk over the body may recurse on its depth."""

    @pytest.fixture
    def deep_file(self, tmp_path):
        path = tmp_path / "deep.ppt"
        conjuncts = ", ".join(["c", "prev a"] * 1000)
        path.write_text("a.\n#dynamic.\nb :- prev a.\nc :- not d.\n"
                        f"d :- not c.\n:- {conjuncts}.\n")
        return str(path)

    MODELS = [[["a"], ["b", "d"], ["c"]], [["a"], ["b", "d"], ["d"]]]

    def test_models(self, capsys, deep_file):
        code, out, err = run(capsys, "models", deep_file, "--length", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["models"] == self.MODELS

    @pytest.mark.parametrize("mode", ["completion", "loops", "unitary"])
    def test_verify(self, capsys, deep_file, mode):
        code, out, err = run(capsys, "verify", deep_file, "--length", "3",
                             "--mode", mode)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["ltlf_models"] == self.MODELS


class TestDeepRuleBody:
    """A rule with a head and 2,000 conjuncts, which the compiler rewrites
    and prints: no walk over the body may recurse on its length."""

    @pytest.fixture
    def deep_file(self, tmp_path):
        path = tmp_path / "deep_rule.ppt"
        conjuncts = ", ".join(["prev a"] * 2000)
        path.write_text(f"a.\n#dynamic.\nb :- {conjuncts}.\na :- b.\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["verify", "--length", "3", "--mode", "unitary"],
        ["lf", "--unitary"],
        ["complete"],
        ["complete", "--simplify"],
        ["embed"],
    ])
    def test_command(self, capsys, deep_file, argv):
        code, out, err = run(capsys, argv[0], deep_file, *argv[1:])
        assert (code, err) == (0, "")
        if argv[0] == "verify":
            assert json.loads(out)["equal"] is True
        else:
            assert "prev a and prev a" in out


class TestDeepNesting:
    """Nesting past the parser's fixed limit is a parse error at the
    first token beyond it; nesting up to the limit runs everywhere."""

    COMMANDS = [["check"], ["models", "--length", "2"], ["graph"], ["loops"],
                ["complete", "--simplify"], ["lf", "--unitary"], ["embed"],
                ["verify", "--length", "2", "--mode", "unitary"]]

    def write(self, tmp_path, body):
        path = tmp_path / "nested.ppt"
        path.write_text(f"#dynamic.\nb :- {body}.\nc :- b.\n")
        return str(path)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_parentheses(self, capsys, tmp_path, argv):
        path = self.write(tmp_path, "(" * 400 + "c" + ")" * 400)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        column = len("b :- ") + MAX_NESTING + 1
        assert err.startswith(f"{path}:2:{column}: error: ")

    def test_stacked_negations(self, capsys, tmp_path):
        path = self.write(tmp_path, "not " * 1500 + "c")
        code, out, err = run(capsys, "check", path)
        assert (code, out) == (1, "")
        column = len("b :- ") + 4 * MAX_NESTING + 1
        assert err.startswith(f"{path}:2:{column}: error: ")

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_at_the_limit(self, capsys, tmp_path, argv):
        half = MAX_NESTING // 2
        body = "(c; " * half + "not " * half + "b" + ")" * half
        path = self.write(tmp_path, body)
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, err) == (0, "")

    @staticmethod
    def chain(op, operators):
        return f" {op} ".join(["c"] * (operators + 1))

    @pytest.mark.parametrize("op", ["since", "trigger"])
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_chain_past_the_limit(self, capsys, tmp_path, argv, op):
        path = self.write(tmp_path, self.chain(op, 2000))
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (1, "")
        # Each operator of the chain is one level: the 101st fails.
        column = len("b :- ") + MAX_NESTING * len(f"c {op} ") + len("c ") + 1
        assert err.startswith(f"{path}:2:{column}: error: ")

    @pytest.mark.parametrize("shape", ["since", "trigger", "parenthesised"])
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_chain_at_the_limit(self, capsys, tmp_path, argv, shape):
        if shape == "parenthesised":
            half = MAX_NESTING // 2
            body = "(" * half + self.chain("since", half) + ")" * half
        else:
            body = self.chain(shape, MAX_NESTING)
        path = self.write(tmp_path, body)
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, err) == (0, "")


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

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.ppt"
        path.write_bytes(b"a.\n\xff\n")
        code, out, err = run(capsys, "models", str(path), "--length", "1")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec ")
        assert err.count("\n") == 1

    def test_not_utf8_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff"), encoding="utf-8"))
        code, out, err = run(capsys, "check", "-")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read -: 'utf-8' codec ")


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

    def test_sources_do_not_leak_across_translations(self, capsys, tmp_path):
        path = tmp_path / "self.ppt"
        path.write_text("a :- a.\n:- a.\n")
        _, out, _ = run(capsys, "complete", str(path), "--json")
        assert json.loads(out)["formulas"][-1] == {
            "formula": "a -> false", "source": "rule 1"}
        _, out, _ = run(capsys, "lf", str(path), "--json")
        assert [e["source"] for e in json.loads(out)["formulas"]] == [
            "initial loop {a}"]

    def test_true_constraint_same_in_complete_and_embed(self, capsys,
                                                         tmp_path):
        path = tmp_path / "true.ppt"
        path.write_text(":- true.\n#dynamic.\n:- true.\n")
        _, complete, _ = run(capsys, "complete", str(path))
        _, embed, _ = run(capsys, "embed", str(path))
        assert complete == embed == ("not false -> false\n"
                                     "wnext_always(not false -> false)\n")


class TestLargeCycle:
    """A 22-atom positive cycle: past the loop cap, but only `lf` needs
    loops."""

    @pytest.fixture
    def cycle_file(self, tmp_path):
        path = tmp_path / "cycle.ppt"
        path.write_text("".join(f"a{i} :- a{(i + 1) % 22}.\n"
                                for i in range(22)))
        return str(path)

    def test_complete_exit_0(self, capsys, cycle_file):
        code, out, err = run(capsys, "complete", cycle_file)
        assert code == 0
        assert len(out.splitlines()) == 22
        assert err == ""

    def test_check_not_tight(self, capsys, cycle_file):
        code, out, _ = run(capsys, "check", cycle_file)
        assert code == 0
        assert "tight: no" in out

    def test_lf_exit_3(self, capsys, cycle_file):
        code, out, err = run(capsys, "lf", cycle_file)
        assert code == 3
        assert out == ""
        assert err == "error: component of size 22 exceeds cap 20\n"


def test_closed_pipe_exits_1_without_traceback(tmp_path):
    # Far more output than a pipe buffers, so the writer is still going
    # when the reader closes.
    path = tmp_path / "facts.ppt"
    path.write_text("".join(f"a{i:04d}{'x' * 100}.\n" for i in range(3000)))
    env = dict(os.environ,
               PYTHONPATH=str(Path(ppt.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ppt.cli", "embed", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"a0000x")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# Exact stdout of the compile commands on P1 and P2, recorded before the
# three translations were given one compiler path.  JSON commands list
# (formula, source) pairs; the others list the printed lines.
GOLDEN = {
    ('P1', 'complete --json'): [
        ('always(dead <-> false or not I and (shoot and (not unload since '
         'load)))',
         'atom dead'),
        ('always(load <-> I and not false or not I and (not false and not '
         'shoot and not unload))',
         'atom load'),
        ('always(shoot <-> false or (not I and (not false and not load and '
         'not unload) or not I and dead))',
         'atom shoot'),
        ('always(unload <-> false or not I and (not false and not shoot and '
         'not load))',
         'atom unload'),
        ('always(F -> (not dead -> false))',
         'rule 4'),
    ],
    ('P1', 'complete --simplify'): [
        'always(dead <-> not I and (shoot and (not unload since load)))',
        'always(load <-> I or not I and (not shoot and not unload))',
        ('always(shoot <-> not I and (not load and not unload) or not I and '
         'dead)'),
        'always(unload <-> not I and (not shoot and not load))',
        'always(F -> (not dead -> false))',
    ],
    ('P1', 'lf --json'): [
        ('wnext_always(dead or shoot -> not false and not load and not '
         'unload or false and (load or not unload and prev (not unload '
         'since load)) or false)',
         'dynamic loop {dead, shoot}'),
    ],
    ('P1', 'lf --unitary --json'): [
        ('dead -> false',
         'initial loop {dead}'),
        ('load -> not false',
         'initial loop {load}'),
        ('shoot -> false',
         'initial loop {shoot}'),
        ('unload -> false',
         'initial loop {unload}'),
        ('wnext_always(dead -> shoot and (load or not unload and prev (not '
         'unload since load)))',
         'dynamic loop {dead}'),
        ('wnext_always(dead or shoot -> not false and not load and not '
         'unload or false and (load or not unload and prev (not unload '
         'since load)) or false)',
         'dynamic loop {dead, shoot}'),
        ('wnext_always(load -> not false and not shoot and not unload)',
         'dynamic loop {load}'),
        ('wnext_always(shoot -> not false and not load and not unload or '
         'dead)',
         'dynamic loop {shoot}'),
        ('wnext_always(unload -> not false and not shoot and not load)',
         'dynamic loop {unload}'),
    ],
    ('P1', 'embed --json'): [
        ('load',
         'rule 0'),
        ('wnext_always(shoot or load or unload)',
         'rule 1'),
        ('wnext_always(shoot and (not unload since load) -> dead)',
         'rule 2'),
        ('wnext_always(dead -> shoot)',
         'rule 3'),
        ('always(F -> (not dead -> false))',
         'rule 4'),
    ],
    ('P2', 'complete --json'): [
        ('always(dead <-> false or not I and (shoot and (not unload since '
         'load)))',
         'atom dead'),
        ('always(load <-> I and not false or false)',
         'atom load'),
        ('always(shoot <-> false or not I and dead)',
         'atom shoot'),
        ('always(unload <-> false)',
         'atom unload'),
        ('always(F -> (not dead -> false))',
         'rule 3'),
    ],
    ('P2', 'complete --simplify'): [
        'always(dead <-> not I and (shoot and (not unload since load)))',
        'always(load <-> I)',
        'always(shoot <-> not I and dead)',
        'always(unload <-> false)',
        'always(F -> (not dead -> false))',
    ],
    ('P2', 'lf --json'): [
        ('wnext_always(dead or shoot -> false and (load or not unload and '
         'prev (not unload since load)) or false)',
         'dynamic loop {dead, shoot}'),
    ],
    ('P2', 'lf --unitary --json'): [
        ('dead -> false',
         'initial loop {dead}'),
        ('load -> not false',
         'initial loop {load}'),
        ('shoot -> false',
         'initial loop {shoot}'),
        ('unload -> false',
         'initial loop {unload}'),
        ('wnext_always(dead -> shoot and (load or not unload and prev (not '
         'unload since load)))',
         'dynamic loop {dead}'),
        ('wnext_always(dead or shoot -> false and (load or not unload and '
         'prev (not unload since load)) or false)',
         'dynamic loop {dead, shoot}'),
        ('wnext_always(load -> false)',
         'dynamic loop {load}'),
        ('wnext_always(shoot -> dead)',
         'dynamic loop {shoot}'),
        ('wnext_always(unload -> false)',
         'dynamic loop {unload}'),
    ],
    ('P2', 'embed --json'): [
        ('load',
         'rule 0'),
        ('wnext_always(shoot and (not unload since load) -> dead)',
         'rule 1'),
        ('wnext_always(dead -> shoot)',
         'rule 2'),
        ('always(F -> (not dead -> false))',
         'rule 3'),
    ],
}


@pytest.mark.parametrize("program, command", sorted(GOLDEN))
def test_golden_compile_output(capsys, tmp_path, program, command):
    path = tmp_path / "prog.ppt"
    path.write_text({"P1": P1_TEXT, "P2": P2_TEXT}[program])
    name, *flags = command.split()
    code, out, _ = run(capsys, name, str(path), *flags)
    assert code == 0
    expected = GOLDEN[program, command]
    if "--json" in flags:
        entries = [{"formula": f, "source": s} for f, s in expected]
        want = json.dumps({"formulas": entries}, indent=2)
    else:
        want = "\n".join(expected)
    assert out == want + "\n"


# Exact stdout of `models` and `verify` on P1 and P2, recorded before the
# classical side of the correspondence moved onto the state-by-state
# search: (exit code, JSON document).
PROGRAM_TEXT = {
    'P1': (
        'load.\n'
        '#dynamic.\n'
        'shoot | load | unload.\n'
        'dead :- shoot, (not unload since load).\n'
        'shoot :- dead.\n'
        '#final.\n'
        ':- not dead.\n'
    ),
    'P2': (
        'load.\n'
        '#dynamic.\n'
        'dead :- shoot, (not unload since load).\n'
        'shoot :- dead.\n'
        '#final.\n'
        ':- not dead.\n'
    ),
}
GOLDEN_SEARCH = {
    ('P1', 'models --length 2'): (0, {
        'length': 2,
        'models': [
            [['load'], ['dead', 'shoot']]]}),
    ('P1', 'models --length 3'): (0, {
        'length': 3,
        'models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]]}),
    ('P1', 'verify --length 2 --mode completion'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 2,
        'mode': 'completion',
        'tight': False,
        'equal': True,
        'ts_models': [
            [['load'], ['dead', 'shoot']]],
        'ltlf_models': [
            [['load'], ['dead', 'shoot']]],
        'witnesses': []}),
    ('P1', 'verify --length 2 --mode loops'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 2,
        'mode': 'completion_loops',
        'tight': None,
        'equal': True,
        'ts_models': [
            [['load'], ['dead', 'shoot']]],
        'ltlf_models': [
            [['load'], ['dead', 'shoot']]],
        'witnesses': []}),
    ('P1', 'verify --length 2 --mode unitary'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 2,
        'mode': 'unitary_loops',
        'tight': None,
        'equal': True,
        'ts_models': [
            [['load'], ['dead', 'shoot']]],
        'ltlf_models': [
            [['load'], ['dead', 'shoot']]],
        'witnesses': []}),
    ('P1', 'verify --length 3 --mode completion'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 3,
        'mode': 'completion',
        'tight': False,
        'equal': True,
        'ts_models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]],
        'ltlf_models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]],
        'witnesses': []}),
    ('P1', 'verify --length 3 --mode loops'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 3,
        'mode': 'completion_loops',
        'tight': None,
        'equal': True,
        'ts_models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]],
        'ltlf_models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]],
        'witnesses': []}),
    ('P1', 'verify --length 3 --mode unitary'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 3,
        'mode': 'unitary_loops',
        'tight': None,
        'equal': True,
        'ts_models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]],
        'ltlf_models': [
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']],
            [['load'], ['load'], ['dead', 'shoot']]],
        'witnesses': []}),
    ('P2', 'models --length 2'): (0, {
        'length': 2,
        'models': []}),
    ('P2', 'models --length 3'): (0, {
        'length': 3,
        'models': []}),
    ('P2', 'verify --length 2 --mode completion'): (2, {
        'program': PROGRAM_TEXT['P2'],
        'length': 2,
        'mode': 'completion',
        'tight': False,
        'equal': False,
        'ts_models': [],
        'ltlf_models': [
            [['load'], ['dead', 'shoot']]],
        'witnesses': [
            [['load'], ['dead', 'shoot']]]}),
    ('P2', 'verify --length 2 --mode loops'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 2,
        'mode': 'completion_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P2', 'verify --length 2 --mode unitary'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 2,
        'mode': 'unitary_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P2', 'verify --length 3 --mode completion'): (2, {
        'program': PROGRAM_TEXT['P2'],
        'length': 3,
        'mode': 'completion',
        'tight': False,
        'equal': False,
        'ts_models': [],
        'ltlf_models': [
            [['load'], [], ['dead', 'shoot']],
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']]],
        'witnesses': [
            [['load'], [], ['dead', 'shoot']],
            [['load'], ['dead', 'shoot'], ['dead', 'shoot']]]}),
    ('P2', 'verify --length 3 --mode loops'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 3,
        'mode': 'completion_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P2', 'verify --length 3 --mode unitary'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 3,
        'mode': 'unitary_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
}


@pytest.mark.parametrize("program, command", sorted(GOLDEN_SEARCH))
def test_golden_search_output(capsys, tmp_path, program, command):
    path = tmp_path / "prog.ppt"
    path.write_text({"P1": P1_TEXT, "P2": P2_TEXT}[program])
    name, *flags = command.split()
    code, out, _ = run(capsys, name, str(path), *flags)
    want_code, doc = GOLDEN_SEARCH[program, command]
    assert code == want_code
    assert out == json.dumps(doc, indent=2) + "\n"


# Exact stdout of `fuzz --cases 50 --seed 5` (all suites), recorded before
# the correspondence suite read each mode through one table.
GOLDEN_FUZZ = {
    "correspondence": {
        "cases": 50,
        "seed": 5,
        "tight_cases": 11,
        "completion_loops_failures": 0,
        "unitary_loops_failures": 0,
        "completion_tight_failures": 0,
        "soundness_failures": 0,
        "failing_seeds": [],
        "failures": 0,
    },
    "lemma_pastocc": {
        "lemma": "pastocc",
        "cases": 50,
        "seed": 5,
        "checked": 43,
        "skipped": 7,
        "failures": 0,
        "skip_rate": 0.14,
    },
    "lemma_support": {
        "lemma": "support",
        "cases": 50,
        "seed": 5,
        "checked": 49,
        "skipped": 1,
        "failures": 0,
        "skip_rate": 0.02,
    },
    "semantics": {
        "cases": 50,
        "seed": 5,
        "three_valued_failures": 0,
        "unfolding_failures": 0,
        "failures": 0,
    },
    "failures": 0,
}


def test_golden_fuzz_output(capsys):
    code, out, _ = run(capsys, "fuzz", "--cases", "50", "--seed", "5")
    assert code == 0
    assert out == json.dumps(GOLDEN_FUZZ, indent=2) + "\n"


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
