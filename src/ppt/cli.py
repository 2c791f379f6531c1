"""Command-line interface.

Exit codes: 0 success, 1 usage, parse or unreadable-input error, 2
verification mismatch or fuzz counterexample, 3 candidate budget or
component cap exceeded.
The budget can also be set through the PPT_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, ParseError, PptError, SccTooLarge
from .syntax import RuleKind, atoms_of, format_formula
from .parser import parse_program
from .tht import DEFAULT_BUDGET, enumerate_ts_models, models_to_json
from .depgraph import dependency_graph, enumerate_loops, is_tight
from .transform import compile_unit, program_as_ltlf, simplify
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


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("PPT_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def _alphabet(args, program):
    if getattr(args, "alphabet", None) is None:
        return program.alphabet
    names = frozenset(n.strip() for n in args.alphabet.split(",") if n.strip())
    missing = atoms_of(program) - names
    if missing:
        raise _Usage("--alphabet must cover the program atoms "
                     f"(missing: {', '.join(sorted(missing))})")
    return names


class _Usage(Exception):
    pass


class _Exit(Exception):
    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _load(args):
    try:
        source, name = _read_source(args.file)
    except OSError as err:
        print(f"error: cannot read {args.file}: {err.strerror or err}",
              file=sys.stderr)
        raise _Exit(1)
    try:
        return parse_program(source)
    except ParseError as err:
        print(f"{name}:{err.line}:{err.column}: error: {err.message}",
              file=sys.stderr)
        raise _Exit(1)


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
    models = enumerate_ts_models(program, args.length, _alphabet(args, program),
                                 _budget(args))
    _emit(models_to_json(models, args.length))
    return 0


def _section_graphs(program):
    yield "initial", dependency_graph(program.initial, program.alphabet,
                                      RuleKind.INITIAL)
    yield "dynamic", dependency_graph(program.dynamic, program.alphabet,
                                      RuleKind.DYNAMIC)


def _cmd_graph(args) -> int:
    program = _load(args)
    if args.json:
        _emit({name: sorted([a, b] for a, b in g.edges)
               for name, g in _section_graphs(program)})
        return 0
    for name, graph in _section_graphs(program):
        for a, b in sorted(graph.edges):
            print(f"{name}: {a} -> {b}")
    return 0


def _cmd_loops(args) -> int:
    program = _load(args)
    found = {name: enumerate_loops(g, args.unitary)
             for name, g in _section_graphs(program)}
    if args.json:
        _emit({name: [sorted(loop.atoms) for loop in loops]
               for name, loops in found.items()})
        return 0
    for name, loops in found.items():
        for loop in loops:
            print(f"{name}: {{{', '.join(sorted(loop.atoms))}}}")
    return 0


def _print_formulas(args, formulas, sources) -> None:
    if args.simplify:
        formulas = [simplify(f) for f in formulas]
    if args.json:
        _emit({"formulas": [{"formula": format_formula(f), "source": s}
                            for f, s in zip(formulas, sources)]})
    else:
        for f in formulas:
            print(format_formula(f))


def _cmd_complete(args) -> int:
    program = _load(args)
    unit = compile_unit(program)
    sources = ["; ".join(unit.provenance.get(f, ()))
               for f in unit.completion]
    _print_formulas(args, list(unit.completion), sources)
    return 0


def _cmd_lf(args) -> int:
    program = _load(args)
    unit = compile_unit(program, unitary=args.unitary)
    sources = ["; ".join(unit.provenance.get(f, ()))
               for f in unit.loop_formulas]
    _print_formulas(args, list(unit.loop_formulas), sources)
    return 0


def _cmd_embed(args) -> int:
    program = _load(args)
    formulas = program_as_ltlf(program)
    sources = [f"rule {r.source_index}" for r in program.rules]
    _print_formulas(args, formulas, sources)
    return 0


def _cmd_verify(args) -> int:
    program = _load(args)
    report = verify_correspondence(program, args.length,
                                   _MODE_ALIASES[args.mode], _budget(args))
    _emit(report.to_json())
    return 0 if report.equal else 2


def _cmd_fuzz(args) -> int:
    results = {}
    failures = 0
    if args.suite in ("correspondence", "all"):
        results["correspondence"] = run_correspondence_suite(
            args.cases, args.seed, budget=_budget(args))
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
    top = argparse.ArgumentParser(
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
    cmd.add_argument("--alphabet", help="comma-separated atoms")
    cmd.add_argument("--budget", type=int)

    cmd = add("graph", _cmd_graph, "print the dependency graphs")
    file_arg(cmd)
    cmd.add_argument("--json", action="store_true")

    cmd = add("loops", _cmd_loops, "enumerate loops per section")
    file_arg(cmd)
    cmd.add_argument("--unitary", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("complete", _cmd_complete, "print the temporal completion")
    file_arg(cmd)
    cmd.add_argument("--simplify", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("lf", _cmd_lf, "print the loop formulas")
    file_arg(cmd)
    cmd.add_argument("--unitary", action="store_true")
    cmd.add_argument("--simplify", action="store_true")
    cmd.add_argument("--json", action="store_true")

    cmd = add("embed", _cmd_embed, "print the rules as classical formulas")
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
        return args.func(args)
    except _Exit as err:
        return err.code
    except _Usage as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (BudgetExceeded, SccTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except PptError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
