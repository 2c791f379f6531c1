"""Command-line interface.

Exit codes: 0 success, 1 usage, parse or unreadable-input error, or
output pipe closed early, 2 verification mismatch or fuzz
counterexample, 3 candidate budget or loop-enumeration component cap
exceeded.

Models range over the program's own alphabet, the atoms its rules
mention: an atom no rule mentions is in no stable model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, ParseError, PptError, SccTooLarge
from .syntax import format_formula
from .parser import parse_program
from .tht import enumerate_ts_models, models_to_json
from .depgraph import enumerate_loops, is_tight, section_graphs
from .transform import (
    simplify, sourced_completion, sourced_loop_formulas,
    sourced_program_as_ltlf,
)
from .verify import (
    run_correspondence_suite, run_lemma_suite, run_semantics_suite,
    verify_correspondence,
)

_MODE_ALIASES = {"completion": "completion", "loops": "completion_loops",
                 "unitary": "unitary_loops"}


def _read_source(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, encoding="utf-8") as handle:
        return handle.read(), path


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Bad usage exits 1 like other bad input; 2 means a mismatch.
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Fail(Exception):
    """Bad input: `main` prints the one-line message and returns 1."""


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _load(args):
    try:
        source, name = _read_source(args.file)
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise _Fail(f"error: cannot read {args.file}: {reason}")
    try:
        return parse_program(source)
    except ParseError as err:
        raise _Fail(f"{name}:{err.line}:{err.column}: error: {err.message}")


def _cmd_check(args) -> int:
    program = _load(args)
    tight = is_tight(program)
    info = {
        "rules": len(program.rules),
        "initial": len(program.initial),
        "dynamic": len(program.dynamic),
        "final": len(program.final),
        "alphabet": sorted(program.alphabet),
        "tight": tight,
    }
    if args.json:
        _emit(info)
    else:
        print(f"parsed {info['rules']} rules "
              f"({info['initial']} initial, {info['dynamic']} dynamic, "
              f"{info['final']} final); "
              f"alphabet {{{', '.join(info['alphabet'])}}}; "
              f"tight: {'yes' if tight else 'no'}")
    return 0


def _cmd_models(args) -> int:
    program = _load(args)
    models = enumerate_ts_models(program, args.length, budget=args.budget)
    _emit(models_to_json(models, args.length))
    return 0


def _cmd_graph(args) -> int:
    program = _load(args)
    graphs = section_graphs(program)
    if args.json:
        _emit({g.section.value: sorted([a, b] for a, b in g.edges)
               for g in graphs})
        return 0
    for graph in graphs:
        for a, b in sorted(graph.edges):
            print(f"{graph.section.value}: {a} -> {b}")
    return 0


def _cmd_loops(args) -> int:
    program = _load(args)
    found = {g.section.value: enumerate_loops(g, args.unitary)
             for g in section_graphs(program)}
    if args.json:
        _emit({name: [sorted(loop) for loop in loops]
               for name, loops in found.items()})
        return 0
    for name, loops in found.items():
        for loop in loops:
            print(f"{name}: {{{', '.join(sorted(loop))}}}")
    return 0


def _cmd_compile(args) -> int:
    """`complete`, `lf` and `embed`: build and print one translation."""
    program = _load(args)
    if args.command == "complete":
        pairs = sourced_completion(program)
    elif args.command == "lf":
        pairs = sourced_loop_formulas(program, args.unitary)
    else:
        pairs = sourced_program_as_ltlf(program)
    if args.simplify:
        pairs = [(simplify(f), source) for f, source in pairs]
    if args.json:
        _emit({"formulas": [{"formula": format_formula(f), "source": source}
                            for f, source in pairs]})
    else:
        for f, _ in pairs:
            print(format_formula(f))
    return 0


def _cmd_verify(args) -> int:
    program = _load(args)
    report = verify_correspondence(program, args.length,
                                   _MODE_ALIASES[args.mode], args.budget)
    _emit(report.to_json())
    return 0 if report.equal else 2


def _cmd_fuzz(args) -> int:
    if args.cases < 0:
        raise _Fail(f"error: --cases must be nonnegative, got {args.cases}")
    results = {}
    failures = 0
    if args.suite in ("correspondence", "all"):
        results["correspondence"] = run_correspondence_suite(
            args.cases, args.seed, budget=args.budget)
        failures += results["correspondence"]["failures"]
    if args.suite in ("lemmas", "all"):
        for lemma in ("pastocc", "support"):
            results[f"lemma_{lemma}"] = run_lemma_suite(lemma, args.cases,
                                                        args.seed)
            failures += results[f"lemma_{lemma}"]["failures"]
    if args.suite in ("semantics", "all"):
        results["semantics"] = run_semantics_suite(args.cases, args.seed)
        failures += results["semantics"]["failures"]
    results["failures"] = failures
    _emit(results)
    return 0 if failures == 0 else 2


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ppt",
        description="Past-present temporal logic programs over finite traces.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        return cmd

    def file_arg(cmd):
        cmd.add_argument("file", help="input .ppt file, or - for stdin")

    cmd = add("check", _cmd_check, "parse a program and report tightness")
    file_arg(cmd)
    cmd.add_argument("--json", action="store_true")

    cmd = add("models", _cmd_models, "enumerate temporal stable models")
    file_arg(cmd)
    cmd.add_argument("--length", type=int, required=True)
    cmd.add_argument("--budget", type=int)

    cmd = add("graph", _cmd_graph, "print the dependency graphs")
    file_arg(cmd)
    cmd.add_argument("--json", action="store_true")

    cmd = add("loops", _cmd_loops, "enumerate loops per section")
    file_arg(cmd)
    cmd.add_argument("--unitary", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("complete", _cmd_compile, "print the temporal completion")
    file_arg(cmd)
    cmd.add_argument("--simplify", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("lf", _cmd_compile, "print the loop formulas")
    file_arg(cmd)
    cmd.add_argument("--unitary", action="store_true")
    cmd.add_argument("--simplify", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("embed", _cmd_compile, "print the rules as classical formulas")
    file_arg(cmd)
    cmd.add_argument("--simplify", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("verify", _cmd_verify, "check a correspondence on one program")
    file_arg(cmd)
    cmd.add_argument("--length", type=int, required=True)
    cmd.add_argument("--mode", choices=sorted(_MODE_ALIASES),
                     default="loops")
    cmd.add_argument("--budget", type=int)

    cmd = add("fuzz", _cmd_fuzz, "run the randomized suites")
    cmd.add_argument("--cases", type=int, default=200)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--suite", choices=("correspondence", "lemmas",
                                         "semantics", "all"), default="all")
    cmd.add_argument("--budget", type=int)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone (`ppt embed FILE | head -1`).  Point stdout
        # at devnull so that the flush at interpreter exit cannot raise
        # again; see "Note on SIGPIPE" in the `signal` documentation.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _Fail as err:
        print(err, file=sys.stderr)
        return 1
    except (BudgetExceeded, SccTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (PptError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
