import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ppt

from ppt import Trace, cli
from ppt.cli import _emit, main
from ppt.parser import MAX_NESTING
from ppt.syntax import RESERVED_WORDS, format_program
from ppt.verify import MODES, GenConfig, random_program

from conftest import EXAMPLES, P1_TEXT, P2_TEXT
from test_verifier import _masking_unchecked


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


def _stdin(text):
    """A text stream over the UTF-8 bytes of `text`, as `sys.stdin` is."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


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

    @pytest.mark.parametrize("src, position, message", [
        ("a :- b", "1:7", "expected '.', found end of input"),
        ("a :- (b.", "1:8", "expected ')', found '.'"),
        ("#foo.", "1:2", "expected a section name (initial, dynamic or "
                         "final), found 'foo'"),
        ("A.", "1:1",
         "invalid atom name 'A' (must match [a-z][A-Za-z0-9_]*)"),
        ("not.", "1:1", "reserved word 'not' cannot be used as an atom"),
    ], ids=["missing_dot", "missing_paren", "unknown_section",
            "invalid_atom", "reserved_atom"])
    def test_parse_error_says_what_was_expected(self, capsys, tmp_path, src,
                                                position, message):
        bad = tmp_path / "bad.ppt"
        bad.write_text(src)
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (1, "")
        assert err == f"{bad}:{position}: error: {message}\n"

    def test_byte_order_mark(self, capsys, tmp_path, p1_file):
        path = tmp_path / "bom.ppt"
        path.write_text("\ufeff" + P1_TEXT, encoding="utf-8")
        code, out, _ = run(capsys, "check", str(path))
        assert (code, out) == (0, run(capsys, "check", p1_file)[1])

    def test_byte_order_mark_keeps_line_1_columns(self, capsys, tmp_path):
        bad = tmp_path / "bad.ppt"
        bad.write_text("\ufeffa :- since.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"{bad}:1:6: error: ")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin("a.\n"))
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
        # Two units for the layers, then 16 for the first pass over the
        # 2^4 states.
        assert err == ("error: search work exceeds the budget of 10 units "
                       "at point 0 of 2, with 0 models read off\n")

    def test_length_one_in_canonical_order(self, capsys, tmp_path):
        # P1 and P2 have no model at length 1; two independent choices
        # have four, each state read as its sorted tuple of atoms.
        pairs = "".join(f"x{i} :- not nx{i}.\nnx{i} :- not x{i}.\n"
                        for i in range(2))
        path = tmp_path / "choice.ppt"
        path.write_text(pairs + "#dynamic.\n" + pairs)
        code, out, _ = run(capsys, "models", str(path), "--length", "1")
        assert code == 0
        assert out == json.dumps({"length": 1, "models": [
            [["nx0", "nx1"]], [["nx0", "x1"]], [["nx1", "x0"]],
            [["x0", "x1"]]]}, indent=2) + "\n"

    def test_out_of_memory_exit_3(self, capsys, monkeypatch, p1_file):
        # A budget raised past what memory holds lets a search run out of
        # it: one line of error, as for the budget, and no traceback.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "enumerate_ts_models", exhausted)
        code, out, err = run(capsys, "models", p1_file, "--length", "2")
        assert (code, out) == (3, "")
        assert err == ("error: out of memory; a smaller --budget stops the "
                       "search before it runs out\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["models", "verify"])
    def test_budget_long_trace_exit_3(self, capsys, p1_file, command):
        # Each model read off costs 100,000 units.
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
        ["fuzz", "--budget", "5"],
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

    # The counts are checked before the file is read: a missing file
    # with a negative budget is reported as the budget.
    @pytest.mark.parametrize("command, missing", [
        ("models", False), ("verify", False), ("models", True),
        ("verify", True),
    ], ids=["models", "verify", "models-missing-file", "verify-missing-file"])
    def test_negative_budget(self, capsys, tmp_path, p1_file, command,
                             missing):
        path = str(tmp_path / "missing.ppt") if missing else p1_file
        code, out, err = run(capsys, command, path, "--length", "2",
                             "--budget", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --budget must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command", ["models", "verify"])
    def test_zero_budget_exit_3(self, capsys, p1_file, command):
        code, out, err = run(capsys, command, p1_file, "--length", "2",
                             "--budget", "0")
        assert (code, out) == (3, "")
        assert "budget of 0 units" in err

    def test_arguments_of_each_command(self):
        # Each command's help and arguments in order, read as data from
        # the parser: option strings, dest, type, default, required,
        # choices and help.
        file = ((), "file", None, None, True, None,
                "input .ppt file, or - for stdin")
        flag = {
            "json": (("--json",), "json", None, False, False, None, None),
            "unitary": (("--unitary",), "unitary", None, False, False, None,
                        None),
            "simplify": (("--simplify",), "simplify", None, False, False,
                         None, None),
            "length": (("--length",), "length", int, None, True, None, None),
            "budget": (("--budget",), "budget", int, None, False, None, None),
        }
        expected = [
            ("check", "parse a program and report tightness",
             [file, flag["json"]]),
            ("models", "enumerate temporal stable models",
             [file, flag["length"], flag["budget"]]),
            ("graph", "print the dependency graphs", [file, flag["json"]]),
            ("loops", "enumerate loops per section",
             [file, flag["unitary"], flag["json"]]),
            ("complete", "print the temporal completion",
             [file, flag["simplify"], flag["json"]]),
            ("lf", "print the loop formulas",
             [file, flag["unitary"], flag["simplify"], flag["json"]]),
            ("embed", "print the rules as classical formulas",
             [file, flag["simplify"], flag["json"]]),
            ("verify", "check a correspondence on one program",
             [file, flag["length"],
              (("--mode",), "mode", None, "loops", False,
               ["completion", "loops", "unitary"], None),
              flag["budget"]]),
            ("fuzz", "run the randomized suites",
             [(("--cases",), "cases", int, 200, False, None, None),
              (("--seed",), "seed", int, 0, False, None, None),
              (("--suite",), "suite", None, "all", False,
               ("correspondence", "lemmas", "semantics", "all"), None)]),
        ]
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        found = []
        for choice in sub._choices_actions:
            actions = sub.choices[choice.dest]._actions
            assert isinstance(actions[0], argparse._HelpAction)
            found.append((choice.dest, choice.help, [
                (tuple(a.option_strings), a.dest, a.type, a.default,
                 a.required, a.choices, a.help) for a in actions[1:]]))
        assert found == expected

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: ppt" in capsys.readouterr().out


def _parse(parser, argv):
    """stdout, stderr, exit code and `vars` of the namespace of parsing
    `argv` with `parser`: the code is None when parsing returns, the
    namespace when it exits."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exit_info:
            code = exit_info.code
    return out.getvalue(), err.getvalue(), code, namespace


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of `main(argv)`, the code from
    `SystemExit` when argument parsing exits."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Run first in a new interpreter: `built` lists the `prog` of each
# argument parser constructed from then on.
_SPY_ON_PARSERS = ("import argparse\n"
                   "built = []\n"
                   "init = argparse.ArgumentParser.__init__\n"
                   "def spy(self, *args, **kwargs):\n"
                   "    built.append(kwargs.get('prog'))\n"
                   "    init(self, *args, **kwargs)\n"
                   "argparse.ArgumentParser.__init__ = spy\n")


class TestOneCommandParser:
    """`main` parses every command line with one parser, which holds the
    subparser of every command and is built once per process, the first
    time `main` runs: its help, usage, errors and namespaces stay those
    of a fresh build however many commands it has served."""

    ARGVS = [
        ["--help"], *([command, "--help"] for command in cli._COMMANDS),
        [], ["frobnicate"], ["mod"],
        ["--", "models", "{file}", "--length", "2"],
        # The top parser reports unrecognized arguments with its usage.
        ["models", "{file}", "--length", "2", "--extra"],
        ["check", "{file}", "extra"],
        ["fuzz", "--budget", "5"],
        ["verify", "{file}", "--length", "2", "--mode", "nope"],
        ["fuzz", "--suite", "nope"],
        ["models", "{file}"], ["check"], ["models", "--length", "2"],
        ["models", "{file}", "--length"], ["fuzz", "--seed"],
        ["verify", "{file}", "--length", "x"],
        ["models", "{file}", "--len", "2"],
        ["verify", "{file}", "--length=3", "--mode", "unitary"],
        ["lf", "{file}", "--unitary", "--json"], ["fuzz", "--cases", "3"],
    ]

    @staticmethod
    def _between(argv, p1_file):
        """A command line of another command than `argv`'s, that exits
        0."""
        return (["fuzz", "--cases", "1"] if argv[:1] == ["check"]
                else ["check", p1_file])

    @pytest.mark.parametrize("argv", ARGVS,
                             ids=lambda argv: " ".join(argv) or "none")
    def test_same_as_full_parser(self, capsys, p1_file, fresh_parsers,
                                 argv):
        # Once `main` has run `argv` and another command's line with the
        # cached parser, that parser still parses both as a fresh build
        # does, namespaces included.
        argv = [arg.format(file=p1_file) for arg in argv]
        between = self._between(argv, p1_file)
        _outcome(capsys, argv)
        assert _outcome(capsys, between)[0] == 0
        for line in (argv, between):
            assert _parse(cli._build_parser(), line) == \
                _parse(cli._build_parser.__wrapped__(), line)

    # The usage line lists every command, and the errors name the
    # subparsers action `command`.
    @pytest.mark.parametrize("argv, error", [
        (["models", "{file}", "--length", "2", "--extra"],
         "ppt: error: unrecognized arguments: --extra"),
        ([], "ppt: error: the following arguments are required: command"),
        (["frobnicate"],
         "ppt: error: argument command: invalid choice: 'frobnicate' "),
    ], ids=["unrecognized", "no-command", "unknown-command"])
    def test_top_usage_and_error(self, capsys, p1_file, argv, error):
        with pytest.raises(SystemExit):
            main([arg.format(file=p1_file) for arg in argv])
        usage, message = capsys.readouterr().err.splitlines()
        assert usage == ("usage: ppt [-h] {check,models,graph,loops,complete,"
                         "lf,embed,verify,fuzz} ...")
        assert message.startswith(error)

    @pytest.fixture
    def fresh_parsers(self):
        """No parser cached, before and after the test, so that no test
        sees the parser another test built."""
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    @pytest.fixture
    def subparsers(self, monkeypatch, fresh_parsers):
        """The names of the subparsers built from here on."""
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        return names

    def test_builds_each_subparser_once(self, capsys, p1_file, subparsers):
        for _ in range(3):
            assert run(capsys, "models", p1_file, "--length", "2")[0] == 0
        assert subparsers == list(cli._COMMANDS)

    def test_argv_from_sys_argv_or_a_tuple(self, capsys, monkeypatch,
                                           p1_file, subparsers):
        argv = ["models", p1_file, "--length", "2"]
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["ppt", *argv])
        assert main() == expected[0]
        assert capsys.readouterr() == expected[1:]
        assert main(tuple(argv)) == expected[0]
        assert capsys.readouterr() == expected[1:]
        assert subparsers == list(cli._COMMANDS)

    def test_builds_one_parser_when_first_needed(self, capsys, p1_file,
                                                 subparsers):
        assert cli._build_parser.cache_info().currsize == 0
        assert run(capsys, "models", p1_file, "--length", "2")[0] == 0
        assert subparsers == list(cli._COMMANDS)
        # Neither another command, nor a help, an unknown command or no
        # command builds a second parser.
        assert run(capsys, "check", p1_file)[0] == 0
        for argv in (["--help"], ["frobnicate"], []):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert subparsers == list(cli._COMMANDS)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_import_builds_no_parser(self):
        code = (_SPY_ON_PARSERS
                + "import ppt.cli\n"
                "print(len(built), ppt.cli._build_parser.cache_info()"
                ".currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, env=_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, b"0 0\n", b"")

    def test_one_parser_per_process(self, p1_file):
        # A new interpreter: `models` builds the top parser and the
        # subparser of every command; `check`, a help and an unknown
        # command build nothing more.
        code = (_SPY_ON_PARSERS
                + "import contextlib, io, sys\n"
                "from ppt.cli import _build_parser, main\n"
                "file = sys.argv[1]\n"
                "for argv in (['models', file, '--length', '2'],\n"
                "             ['check', file], ['--help'], ['frobnicate']):\n"
                "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
                "         contextlib.redirect_stderr(io.StringIO()):\n"
                "        try:\n"
                "            main(argv)\n"
                "        except SystemExit:\n"
                "            pass\n"
                "    print(built, _build_parser.cache_info().misses)\n")
        proc = subprocess.run([sys.executable, "-c", code, p1_file],
                              capture_output=True, text=True, env=_env(),
                              timeout=60)
        progs = ["ppt", *(f"ppt {command}" for command in cli._COMMANDS)]
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"{progs} 1\n" * 4, "")

    @pytest.mark.parametrize("argv", ARGVS,
                             ids=lambda argv: " ".join(argv) or "none")
    def test_repeated_calls_print_the_same_bytes(self, capsys, p1_file,
                                                 fresh_parsers, argv):
        # The first call builds the parser, the last reuses it after a
        # different command has used it.
        argv = [arg.format(file=p1_file) for arg in argv]
        cold = _outcome(capsys, argv)
        assert _outcome(capsys, self._between(argv, p1_file))[0] == 0
        assert _outcome(capsys, argv) == cold

    def test_help_takes_the_width_when_printed(self, capsys, monkeypatch,
                                               fresh_parsers):
        # One cached parser prints each help as a fresh build does at
        # the width of the moment.
        argv = ["verify", "--help"]
        texts = []
        for columns in ("40", "120", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = _outcome(capsys, argv)
            fresh = cli._build_parser.__wrapped__()
            assert _parse(fresh, argv) == (out, err, code, None)
            texts.append(out)
        assert cli._build_parser.cache_info().misses == 1
        assert texts[0] == texts[2]
        assert texts[0].count("\n") > texts[1].count("\n")


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

    @pytest.mark.parametrize("argv", [
        ["complete", "--simplify", "--json"], ["lf", "--unitary", "--simplify"],
        ["embed", "--simplify"]])
    def test_compile_simplified(self, capsys, deep_file, argv):
        code, out, err = run(capsys, argv[0], deep_file, *argv[1:])
        assert (code, err) == (0, "")
        if argv[0] == "embed":
            assert out == run(capsys, "embed", deep_file)[1]


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


def _env(**extra):
    """The environment of a new interpreter that imports this `ppt`."""
    return dict(os.environ, **extra,
                PYTHONPATH=str(Path(ppt.__file__).resolve().parents[1]))


def _cli(argv, stdin=None, **env):
    """Exit code, stdout and stderr of `ppt ARGV` in a new interpreter,
    with the bytes `stdin` on its standard input."""
    proc = subprocess.run([sys.executable, "-m", "ppt.cli", *argv],
                          input=stdin, capture_output=True, env=_env(**env),
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestStdinReadAsFile:
    # `-` decodes its bytes as a file is read, strict UTF-8 with
    # universal newlines, whatever the interpreter's stdin settings.

    @pytest.mark.parametrize("data, err, stdin_name", [
        (b"a :- b\xff.", "error: cannot read {}: 'utf-8' codec can't "
         "decode byte 0xff in position 6: invalid start byte\n", "-"),
        (b"a.\rb $.", "{}:2:3: error: unexpected character '$'\n",
         "<stdin>"),
    ], ids=["invalid_utf8", "carriage_return"])
    def test_bad_input(self, tmp_path, data, err, stdin_name):
        path = tmp_path / "bad.ppt"
        path.write_bytes(data)
        assert _cli(["check", str(path)]) == \
            (1, b"", err.format(path).encode())
        assert _cli(["check", "-"], data, PYTHONUTF8="1") == \
            (1, b"", err.format(stdin_name).encode())

    def test_byte_order_mark_under_latin_1(self, tmp_path):
        path = tmp_path / "bom.ppt"
        data = "\ufeff".encode() + P1_TEXT.encode()
        path.write_bytes(data)
        expected = _cli(["check", str(path)])
        assert expected[0] == 0
        assert _cli(["check", "-"], data, PYTHONIOENCODING="latin-1") == \
            expected

    # An in-process caller may set a text stream with no `buffer` as
    # stdin: its text is read with newlines translated as `open` does.
    @pytest.mark.parametrize("data, argv", [
        ("a.\r\nb.\n", ["check", "--json"]),
        ("a.\r\nb.\n", ["models", "--length", "2"]),
        ("a.\rb $.", ["check"]),
        ("a.\r\nb $.", ["check"]),
    ], ids=["crlf-check", "crlf-models", "cr-error", "crlf-error"])
    def test_text_stdin(self, capsys, monkeypatch, tmp_path, data, argv):
        path = tmp_path / "text.ppt"
        path.write_bytes(data.encode())
        command, *rest = argv
        expected = run(capsys, command, str(path), *rest)
        monkeypatch.setattr(sys, "stdin", io.StringIO(data))
        code, out, err = run(capsys, command, "-", *rest)
        assert (code, out, err.replace("<stdin>", str(path))) == expected

    # An in-process stdin that is closed, or None, reads as a closed fd
    # 0 does.
    @pytest.mark.parametrize("stdin", [
        lambda: None, lambda: io.StringIO("a."), lambda: _stdin("a."),
    ], ids=["none", "text", "bytes"])
    def test_closed_stdin_in_process(self, capsys, monkeypatch, stdin):
        stream = stdin()
        if stream is not None:
            stream.close()
        monkeypatch.setattr(sys, "stdin", stream)
        assert run(capsys, "check", "-") == \
            (1, "", "error: cannot read -: stdin is closed\n")

    def test_closed_stdin(self):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m ppt.cli check - <&-', sys.executable],
            capture_output=True, env=_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: cannot read -: ")
        assert b"Traceback" not in proc.stderr


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

    @pytest.mark.parametrize("mode, code, err", [
        ("loops", 3, "error: component of size 22 exceeds cap 20\n"),
        ("unitary", 3, "error: component of size 22 exceeds cap 20\n"),
        ("completion", 0, ""),
    ], ids=("loops", "unitary", "completion"))
    def test_verify_compiles_before_searching(self, capsys, tmp_path, mode,
                                              code, err):
        # The loop modes fail on the cap before either search, because
        # `verify` compiles the translation first.  The completion needs
        # no loops, and point 0 requires no rule, so the stable search
        # tests all 2^22 states there in one fixpoint round.
        path = tmp_path / "cycle.ppt"
        path.write_text("#dynamic.\n" + "".join(
            f"a{i} :- a{(i + 1) % 22}.\n" for i in range(22)))
        got_code, out, got_err = run(capsys, "verify", str(path),
                                     "--length", "1", "--mode", mode)
        assert (got_code, got_err) == (code, err)
        if code:
            assert out == ""
        else:
            report = json.loads(out)
            assert report["equal"] is True
            assert report["ts_models"] == report["ltlf_models"] == [[[]]]

    @pytest.mark.parametrize("mode", ["loops", "unitary", "completion"])
    def test_verify_refuses_length_zero_before_compiling(self, capsys,
                                                         cycle_file, mode):
        # A bad length is bad usage in every mode, also where compiling
        # the loop formulas would first meet the cap.
        code, out, err = run(capsys, "verify", cycle_file, "--length", "0",
                             "--mode", mode)
        assert (code, out, err) == (
            1, "", "error: trace length must be at least 1\n")


# Random token streams through stdin: every one must end in a result or
# a diagnostic, never a traceback.  Whole rules are mixed in so that
# about a third of the streams parse and reach the searches.
_TOKENS = st.sampled_from((
    "a", "b", "c", "d", "A_1", "_x", "not", "prev", "wprev", "since",
    "trigger", "always_before", "eventually_before", "initially", "true",
    "false", "and", "or", ":-", ".", ",", ";", "|", "(", ")", "#",
    "#initial.", "#dynamic.", "#final.", "% note\n", "\ufeff", "\x00",
    "\n", "9", "-", "\u00e9",
))
_RULES = st.sampled_from((
    "a.", "b | c.", "a :- b.", "b :- prev a.", "c :- not d, a since b.",
    "d :- c trigger a.", ":- not a.", "#dynamic.", "#final.",
))
_STREAMS = st.one_of(st.lists(_RULES, max_size=8),
                     st.lists(st.one_of(_TOKENS, _RULES), max_size=30))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_STREAMS.map(" ".join))
@example("\ufeffa.\n#dynamic.\nb :- prev a.\n")
def test_cli_never_raises_past_main(text):
    for argv in (["check", "-"], ["models", "-", "--length", "2"],
                 ["verify", "-", "--length", "2", "--mode", "unitary"],
                 ["complete", "-", "--simplify"], ["lf", "-", "--json"]):
        stdin = sys.stdin
        sys.stdin = _stdin(text)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2, 3), (argv, code)


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


# Simplified loop formulas of a program whose supports fold each way,
# recorded while `lf --simplify` still ran `simplify_formulas` over the
# unsimplified list: the dynamic loop {a, b} has a fact among false terms
# and comes out true, {c, d} keeps the terms that survive of a mixed chain
# (the first an `or` whose struck element drops out), every term of
# {g, h} folds to false, and the dynamic singleton {a} has a term before
# the fact that absorbs it.
FOLD_TEXT = (
    'a.\n'
    '#dynamic.\n'
    'a :- b.\n'
    'b :- a.\n'
    'a.\n'
    'c :- d or e or f.\n'
    'd :- c.\n'
    'c :- not f.\n'
    'd :- c, e.\n'
    'g :- h, k.\n'
    'h :- g.\n'
)
GOLDEN['FOLD', 'lf --simplify --json'] = [
    ('wnext_always(a or b -> true)',
     'dynamic loop {a, b}'),
    ('wnext_always(c or d -> e or f or not f)',
     'dynamic loop {c, d}'),
    ('wnext_always(g or h -> false)',
     'dynamic loop {g, h}'),
]
GOLDEN['FOLD', 'lf --unitary --simplify --json'] = [
    ('a -> true',
     'initial loop {a}'),
    *((f'{atom} -> false', f'initial loop {{{atom}}}') for atom in 'bcdefghk'),
    ('wnext_always(a -> true)',
     'dynamic loop {a}'),
    ('wnext_always(a or b -> true)',
     'dynamic loop {a, b}'),
    ('wnext_always(b -> a)',
     'dynamic loop {b}'),
    ('wnext_always(c -> d or e or f or not f)',
     'dynamic loop {c}'),
    ('wnext_always(c or d -> e or f or not f)',
     'dynamic loop {c, d}'),
    ('wnext_always(d -> c or c and e)',
     'dynamic loop {d}'),
    ('wnext_always(e -> false)',
     'dynamic loop {e}'),
    ('wnext_always(f -> false)',
     'dynamic loop {f}'),
    ('wnext_always(g -> h and k)',
     'dynamic loop {g}'),
    ('wnext_always(g or h -> false)',
     'dynamic loop {g, h}'),
    ('wnext_always(h -> g)',
     'dynamic loop {h}'),
    ('wnext_always(k -> false)',
     'dynamic loop {k}'),
]
# The text commands print the formulas of the JSON ones, one a line.
for _command in ('lf --simplify', 'lf --unitary --simplify'):
    GOLDEN['FOLD', _command] = [
        f for f, _ in GOLDEN['FOLD', f'{_command} --json']]


@pytest.mark.parametrize("program, command", sorted(GOLDEN))
def test_golden_compile_output(capsys, tmp_path, program, command):
    path = tmp_path / "prog.ppt"
    path.write_text({"P1": P1_TEXT, "P2": P2_TEXT, "FOLD": FOLD_TEXT}[program])
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
    ('P1', 'models --length 1'): (0, {
        'length': 1,
        'models': []}),
    ('P1', 'verify --length 1 --mode completion'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 1,
        'mode': 'completion',
        'tight': False,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P1', 'verify --length 1 --mode loops'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 1,
        'mode': 'completion_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P1', 'verify --length 1 --mode unitary'): (0, {
        'program': PROGRAM_TEXT['P1'],
        'length': 1,
        'mode': 'unitary_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
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
    ('P2', 'models --length 1'): (0, {
        'length': 1,
        'models': []}),
    ('P2', 'verify --length 1 --mode completion'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 1,
        'mode': 'completion',
        'tight': False,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P2', 'verify --length 1 --mode loops'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 1,
        'mode': 'completion_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
        'witnesses': []}),
    ('P2', 'verify --length 1 --mode unitary'): (0, {
        'program': PROGRAM_TEXT['P2'],
        'length': 1,
        'mode': 'unitary_loops',
        'tight': None,
        'equal': True,
        'ts_models': [],
        'ltlf_models': [],
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


# The model-set writer against `json.dumps(indent=2)` of the list form.
# State names are atoms, as a `Trace` requires.
_atoms = st.from_regex(r"[a-z][A-Za-z0-9_]*", fullmatch=True).filter(
    lambda name: name not in RESERVED_WORDS)


def _model_sets(alphabet):
    states = st.frozensets(st.sampled_from(alphabet))
    traces = st.lists(states, min_size=1, max_size=4).map(Trace)
    return st.lists(traces, max_size=30).map(tuple)


def _payloads(alphabet):
    model_sets = _model_sets(alphabet)
    lengths = st.integers(1, 4)
    return st.one_of(
        st.fixed_dictionaries({"length": lengths, "models": model_sets}),
        st.fixed_dictionaries({
            "program": st.text(), "length": lengths,
            "mode": st.sampled_from(MODES),
            "tight": st.sampled_from((None, False, True)),
            "equal": st.booleans(), "ts_models": model_sets,
            "ltlf_models": model_sets, "witnesses": model_sets}))


def _as_lists(payload: dict) -> dict:
    return {key: [t.to_lists() for t in value]
            if isinstance(value, tuple) else value
            for key, value in payload.items()}


@settings(derandomize=True, max_examples=200)
@given(st.lists(_atoms, min_size=1, max_size=6, unique=True).flatmap(
    _payloads))
@example({"length": 1, "models": ()})
@example({"length": 2, "models": (Trace.of((), ()), Trace.of((), ["a"]))})
def test_model_set_writer_matches_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert out.getvalue() == json.dumps(_as_lists(payload), indent=2) + "\n"


# Any payload `_emit` may be handed: scalars, strings with quotes,
# backslashes, control characters and non-ASCII text, nested lists and
# dicts, the empty tuple and model sets, at the top level in any mix.
_texts = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé€😀'),
                           st.characters()), max_size=8)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _texts),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=12)


def _any_payloads(alphabet):
    values = st.one_of(_json_values, st.just(()), _model_sets(alphabet))
    return st.dictionaries(_texts, values, max_size=6)


@settings(derandomize=True, max_examples=300)
@given(st.lists(_atoms, min_size=1, max_size=4, unique=True).flatmap(
    _any_payloads))
@example({})
@example({"a": (), "b": [], "c": {}, "d": ""})
@example({"models": (Trace.of((), ["a"]),), "alphabet": ["a", "b"],
          "nested": {"x": [1, {"y": None}]}, "quote": "\"\\\né"})
def test_emit_matches_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert out.getvalue() == json.dumps(_as_lists(payload), indent=2) + "\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def _open_descriptors():
    fds = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    return len(os.listdir(fds))


def test_closed_pipe_leaks_no_descriptor(monkeypatch, p1_file):
    # Each call points the dead stdout at devnull, and closes again the
    # descriptor it opened for that.
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        before = _open_descriptors()
        assert [main(["embed", p1_file]) for _ in range(5)] == [1] * 5
        assert _open_descriptors() == before
    finally:
        os.close(fd)


class TestCollectorPause:
    """`main` pauses the cyclic collector for the call and leaves it as
    the caller had it, on every way out."""

    @pytest.fixture(params=(True, False), ids=("on", "off"))
    def collector(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if enabled else gc.disable)()

    @pytest.fixture
    def cycle_file(self, tmp_path):
        path = tmp_path / "cycle.ppt"
        path.write_text("".join(f"a{i} :- a{(i + 1) % 22}.\n"
                                for i in range(22)))
        return str(path)

    @staticmethod
    def _exit(argv):
        try:
            return main(argv)
        except SystemExit as exit_info:
            return f"SystemExit({exit_info.code})"

    @pytest.mark.parametrize("argv, code", [
        (("check", "{p1}"), 0),
        (("check", "{missing}"), 1),
        (("fuzz", "--cases", "-1"), 1),
        (("models", "{p1}", "--length", "2", "--extra"), "SystemExit(1)"),
        (("frobnicate",), "SystemExit(1)"),
        (("--help",), "SystemExit(0)"),
        (("models", "--help"), "SystemExit(0)"),
        (("verify", "{p2}", "--length", "2", "--mode", "completion"), 2),
        (("models", "{p1}", "--length", "2", "--budget", "0"), 3),
        (("lf", "{cycle}"), 3),
    ], ids=("exit-0", "fail", "negative-cases", "usage", "unknown-command",
            "help", "command-help", "mismatch", "budget", "scc-cap"))
    def test_restored_on_exit(self, capsys, collector, p1_file, p2_file,
                              cycle_file, tmp_path, argv, code):
        files = {"p1": p1_file, "p2": p2_file, "cycle": cycle_file,
                 "missing": str(tmp_path / "missing.ppt")}
        assert self._exit([a.format(**files) for a in argv]) == code
        assert gc.isenabled() is collector
        capsys.readouterr()

    def test_restored_on_a_closed_pipe(self, monkeypatch, collector,
                                       p1_file):
        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert main(["embed", p1_file]) == 1
        finally:
            os.close(fd)
        assert gc.isenabled() is collector

    def test_paused_during_the_call(self, capsys, monkeypatch, collector,
                                    p1_file):
        seen = []
        load = cli._load
        monkeypatch.setattr(
            cli, "_load", lambda path: seen.append(gc.isenabled())
            or load(path))
        assert main(["check", p1_file]) == 0
        assert seen == [False]
        capsys.readouterr()


def _kind(obj) -> str:
    # A function also gives its own name, so that a closure names its home.
    kind = type(obj).__qualname__
    if isinstance(obj, types.FunctionType):
        kind += f" {obj.__qualname__}"
    return kind


def _cyclic_garbage(argv) -> tuple[int, collections.Counter]:
    """How many objects `main(argv)`, run with the collector off, leaves
    in reference cycles, and their types."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except SystemExit:
                pass
        found = gc.collect()
        kinds = collections.Counter(map(_kind, gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found, kinds


@pytest.fixture(scope="module")
def generated_file(tmp_path_factory):
    """Bench `compile` program 0: 220 rules over six clusters of eight
    atoms, with positive cycles, `since`, `prev` and disjunctive heads."""
    bench = str(EXAMPLES.parent / "bench")
    sys.path.insert(0, bench)
    try:
        from pptbench.workloads import compile_program
    finally:
        sys.path.remove(bench)
    path = tmp_path_factory.mktemp("generated") / "compile0.ppt"
    path.write_text(compile_program(0))
    return str(path)


# The command lines of the workflow's "Repeated in-process commands" step
# that read a program, with {} for the program and the example each
# names.  On the generated program `models` and `verify` stop at the
# search budget (exit 3).
_GARBAGE_LINES = [(line, "p1") for line in (
    "check {}", "check {} --json", "graph {}", "graph {} --json",
    "loops {} --unitary", "loops {} --json", "complete {}",
    "complete {} --simplify --json", "lf {} --json",
    "lf {} --unitary --simplify", "embed {}", "embed {} --json",
    "models {} --length 2 --extra")] + [
    (line, program) for program in ("p1", "p2") for length in (2, 3, 4)
    for line in [f"models {{}} --length {length}"] + [
        f"verify {{}} --length {length} --mode {mode}"
        for mode in ("completion", "loops", "unitary")]]


def _garbage_differs(line, small, large) -> str:
    (count, kinds), (other, other_kinds) = small, large
    return (f"ppt {line}: {count} objects in reference cycles on the "
            f"small input, {other} on the large one; only on the large "
            f"one: {dict((other_kinds - kinds).most_common(8))}; only on "
            f"the small one: {dict((kinds - other_kinds).most_common(8))}")


@pytest.mark.parametrize("line, program", _GARBAGE_LINES,
                         ids=[line.replace(" {}", "") + f" {program}"
                              for line, program in _GARBAGE_LINES])
def test_cyclic_garbage_does_not_grow_with_the_program(
        line, program, p1_file, p2_file, generated_file):
    # What a call leaves in reference cycles is freed only by the cyclic
    # collector, which `main` pauses; it must not grow with the input.
    small_file = {"p1": p1_file, "p2": p2_file}[program]
    small, large = (_cyclic_garbage(line.format(path).split())
                    for path in (small_file, generated_file))
    assert small[0] == large[0], _garbage_differs(line, small, large)
    if line.startswith(("models", "verify")) and "--extra" not in line:
        longer = line.split()
        longer[longer.index("--length") + 1] = "8"
        large = _cyclic_garbage(longer[:1] + [small_file] + longer[2:])
        assert small[0] == large[0], _garbage_differs(line, small, large)


def test_cyclic_garbage_does_not_grow_with_the_fuzz_cases():
    small, large = (_cyclic_garbage(["fuzz", "--cases", cases, "--seed", "1"])
                    for cases in ("5", "100"))
    assert small[0] == large[0], _garbage_differs("fuzz", small, large)


def test_p1_models_length_10_digest(capsys, p1_file):
    # Recorded with `json.dumps(indent=2)` before the model-set writer.
    code, out, _ = run(capsys, "models", p1_file, "--length", "10")
    assert code == 0
    assert len(json.loads(out)["models"]) == 3281
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "83443d32e1e2af5d8e0dc17bce99fce594eb89c9fbbf8111603bb316fe4014f0")


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


# SHA-256 of the exact stdout of `fuzz --cases 200 --seed S` (all suites),
# recorded before the occurrence records became one `positive_atoms` query.
GOLDEN_FUZZ_SHA256 = {
    0: "bd9de2f79702030249eb3312bc293bcbf94dd99030a91eb9baec6bb608b171bb",
    7: "d39f2c922abecd57ead0774ab95766e0d10716dee4637c7776fc7e7adbbf9544",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_FUZZ_SHA256))
def test_golden_fuzz_digest(capsys, seed):
    code, out, _ = run(capsys, "fuzz", "--cases", "200", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FUZZ_SHA256[seed]


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


_THREE_VALUED = ppt.verify.three_valued

# Each suite's fault, injected as in `tests/test_verifier.py`, with the
# flags that run the suite and the failures `ppt fuzz` then reports.
_FUZZ_FAULTS = {
    "no loop formulas": (
        ("correspondence", "40", "56"), "loop_formula_regimes",
        lambda p: ([], []), 37),
    "pastocc unchecked": (
        ("lemmas", "300", "3"), "check_lemma_pastocc", _masking_unchecked, 7),
    "support unchecked": (
        ("lemmas", "300", "3"), "check_lemma_support", _masking_unchecked, 29),
    "here read as total": (
        ("semantics", "300", "3"), "three_valued",
        lambda m, k, f: min(_THREE_VALUED(m, k, f), 1), 75),
}


@pytest.mark.parametrize("fault", sorted(_FUZZ_FAULTS))
def test_fuzz_counterexample_exits_2(capsys, monkeypatch, fault):
    (suite, cases, seed), name, faulty, failures = _FUZZ_FAULTS[fault]
    argv = ("fuzz", "--suite", suite, "--cases", cases, "--seed", seed)
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["failures"]) == (0, 0)
    monkeypatch.setattr(ppt.verify, name, faulty)
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["failures"]) == (2, failures)


def _render(command, doc):
    """The text lines of a command, derived from its `--json` output."""
    if command == "check":
        return [f"parsed {doc['rules']} rules ({doc['initial']} initial, "
                f"{doc['dynamic']} dynamic, {doc['final']} final); "
                f"alphabet {{{', '.join(doc['alphabet'])}}}; "
                f"tight: {'yes' if doc['tight'] else 'no'}"]
    if command == "graph":
        return [f"{section}: {a} -> {b}"
                for section, edges in doc.items() for a, b in edges]
    if command == "loops":
        return ["%s: {%s}" % (section, ", ".join(loop))
                for section, loops in doc.items() for loop in loops]
    return [entry["formula"] for entry in doc["formulas"]]


@pytest.fixture(scope="module")
def random_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("random")
    paths = []
    for seed in range(200):
        path = root / f"r{seed}.ppt"
        path.write_text(format_program(random_program(GenConfig(
            seed, max_atoms=4, max_rules=8, max_body_depth=4))))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command", [
    "check", "graph", "loops", "loops --unitary", "complete",
    "complete --simplify", "embed", "embed --simplify", "lf",
    "lf --unitary --simplify"])
def test_text_form_renders_the_json_payload(capsys, random_files, command):
    # The goldens pin both forms on P1 and P2 only.
    name, *flags = command.split()
    for path in random_files:
        code, text, _ = run(capsys, name, path, *flags)
        assert code == 0
        code, out, _ = run(capsys, name, path, *flags, "--json")
        assert code == 0
        lines = _render(name, json.loads(out))
        assert text == "".join(f"{line}\n" for line in lines), path
