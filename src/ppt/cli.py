"""Command-line interface.

Exit codes: 0 success, 1 usage, parse or unreadable-input error, or
output pipe closed early, 2 verification mismatch or fuzz
counterexample, 3 search work budget or loop-enumeration component cap
exceeded, or memory run out (a budget raised past what memory holds).

Models range over the program's own alphabet, the atoms its rules
mention: an atom no rule mentions is in no stable model.

Each command is declared once, in `_COMMANDS`: its handler, its help,
the names of its arguments, whose `add_argument` keywords are in
`_ARGUMENTS`, and, if it takes `--json`, the renderer of its payload as
the text lines printed without `--json` (None if it always prints
JSON).  One parser, with every command's subparser, is built per
process, the first time `main` runs, and every later in-process call
reuses it, whatever its command: `parse_args` only reads the parser
and writes the namespace it returns, `_Parser.error` prints and exits,
and help and usage take the terminal width when they are formatted.
`main` refuses a negative `--budget` or `--cases`, then reads the
program if the command takes a file, then calls the handler.  Each
handler returns its payload; `main` prints it and reads exit 2 from a
false `equal` or nonzero `failures`.  `main` pauses the cyclic
collector for the call and leaves it as the caller had it on every
exit: no call builds a reference cycle that grows with its input, so
reference counting frees what a call allocates, and the collector
would only rescan the values it builds.  The bench tracer swaps the
functions this module imports from the other layers for wrappers, so
the tables reach them only through a handler or a lambda, which looks
the name up when it is called.

JSON output is byte for byte `json.dumps(obj, indent=2)`.  A payload
with no tuple value is printed by that one call.  A payload with a
tuple value, a model set of `Trace`s (from `models` and `verify`), is
written key by key.  A scalar or an empty container goes through
`json.dumps` without `indent`, which runs json's C encoder.  A model set
is written trace by trace, each trace a join of per-state chunks; a
state's chunk is its atoms, each encoded by `json.dumps`, in the fixed
layout of its depth, built once per output and memoised.  Any other
value goes through `json.dumps(value, indent=2)`, re-indented to its
depth.  No `indent=2` encoder is built per scalar, state or trace.  On
Python 3.10 to 3.12, `indent=2` runs the pure-Python encoder, which
builds a fresh `JSONEncoder` and mutually recursive closures on each
call: a reference cycle of 33 objects that only the cyclic collector
frees.  One such call per payload is constant garbage; one per state,
trace or scalar grew with the model set and, on large model sets, cost
more than the search.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import sys

from .syntax import PptError, format_formulas, format_program
from .parser import ParseError, parse_program
from .progression import BudgetExceeded
from .tht import enumerate_ts_models
from .transform import (
    SccTooLarge, enumerate_loops, is_tight, section_graphs, simplify_formulas,
    sourced_completion, sourced_loop_formulas, sourced_program_as_ltlf,
)
from .verify import (
    run_correspondence_suite, run_lemma_suite, run_semantics_suite,
    verify_correspondence,
)

_MODE_ALIASES = {"completion": "completion", "loops": "completion_loops",
                 "unitary": "unitary_loops"}


def _read_source(path: str) -> tuple[str, str]:
    if path == "-":
        # Decoded as `open` decodes a file (strict UTF-8, universal
        # newlines), not by the interpreter's stdin settings.  A stdin
        # with no `buffer`, such as an `io.StringIO`, is already text;
        # a closed one reads as a closed fd 0 does.
        stdin = sys.stdin
        if stdin is None or stdin.closed:
            raise OSError("stdin is closed")
        buffer = getattr(stdin, "buffer", None)
        text = stdin.read() if buffer is None else buffer.read().decode()
        return io.StringIO(text, newline=None).read(), "<stdin>"
    with open(path, encoding="utf-8") as handle:
        return handle.read(), path


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Bad usage exits 1 like other bad input; 2 means a mismatch.
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Fail(Exception):
    """Bad input: `main` prints the one-line message and returns 1."""


def _state_chunk(state: frozenset[str]) -> str:
    """The `indent=2` text of a state at the depth of a model set's
    states."""
    if not state:
        return "      []"
    return ("      [\n        "
            + ",\n        ".join(map(json.dumps, sorted(state)))
            + "\n      ]")


def _emit(obj: dict) -> None:
    """Print `obj` as `json.dumps(obj, indent=2)` would.  A top-level
    value that is a tuple is a model set, a tuple of `Trace`s; see the
    module docstring for which values go through which encoder."""
    if not any(isinstance(value, tuple) for value in obj.values()):
        print(json.dumps(obj, indent=2))
        return
    chunk = functools.cache(_state_chunk)
    write = sys.stdout.write
    sep = "{\n"
    for key, value in obj.items():
        write(f"{sep}  {json.dumps(key)}: ")
        sep = ",\n"
        if not (value and isinstance(value, (tuple, list, dict))):
            write(json.dumps(value))
        elif isinstance(value, tuple):
            opening = "[\n    [\n"
            for trace in value:
                write(opening + ",\n".join(map(chunk, trace)))
                opening = "\n    ],\n    [\n"
            write("\n    ]\n  ]")
        else:
            # JSON strings hold no raw newline: each newline is layout.
            write(json.dumps(value, indent=2).replace("\n", "\n  "))
    write("\n}\n")


def _load(path: str):
    try:
        source, name = _read_source(path)
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise _Fail(f"error: cannot read {path}: {reason}")
    try:
        return parse_program(source)
    except ParseError as err:
        raise _Fail(f"{name}:{err.line}:{err.column}: error: {err.message}")


def _cmd_check(program, args) -> dict:
    return {
        "rules": len(program.rules),
        "initial": len(program.initial),
        "dynamic": len(program.dynamic),
        "final": len(program.final),
        "alphabet": sorted(program.alphabet),
        "tight": is_tight(program),
    }


def _check_lines(info: dict) -> list[str]:
    return [f"parsed {info['rules']} rules "
            f"({info['initial']} initial, {info['dynamic']} dynamic, "
            f"{info['final']} final); "
            f"alphabet {{{', '.join(info['alphabet'])}}}; "
            f"tight: {'yes' if info['tight'] else 'no'}"]


def _cmd_models(program, args) -> dict:
    models = enumerate_ts_models(program, args.length, budget=args.budget)
    return {"length": args.length, "models": models}


def _cmd_graph(program, args) -> dict:
    return {g.section.value: sorted([a, b] for a, b in g.edges)
            for g in section_graphs(program)}


def _cmd_loops(program, args) -> dict:
    return {g.section.value: [sorted(loop)
                              for loop in enumerate_loops(g, args.unitary)]
            for g in section_graphs(program)}


def _cmd_compile(pairs, simplify: bool) -> dict:
    """`complete`, `lf` and `embed`: one translation, given as
    (formula, source) pairs, simplified here when `simplify` is set;
    `lf` asks its builder for simplified formulas instead."""
    formulas = [f for f, _ in pairs]
    if simplify:
        formulas = simplify_formulas(formulas)
    texts = format_formulas(formulas)
    return {"formulas": [{"formula": text, "source": source}
                         for text, (_, source) in zip(texts, pairs)]}


def _formula_lines(payload: dict) -> list[str]:
    return [entry["formula"] for entry in payload["formulas"]]


def _cmd_verify(program, args) -> dict:
    mode = _MODE_ALIASES[args.mode]
    report = verify_correspondence(program, args.length, mode, args.budget)
    return {"program": format_program(program),
            "length": args.length, "mode": mode,
            "tight": report.tight, "equal": report.equal,
            "ts_models": report.lhs, "ltlf_models": report.rhs,
            "witnesses": report.witnesses}


def _cmd_fuzz(_, args) -> dict:
    results = {}
    if args.suite in ("correspondence", "all"):
        results["correspondence"] = run_correspondence_suite(
            args.cases, args.seed)
    if args.suite in ("lemmas", "all"):
        for lemma in ("pastocc", "support"):
            results[f"lemma_{lemma}"] = run_lemma_suite(lemma, args.cases,
                                                        args.seed)
    if args.suite in ("semantics", "all"):
        results["semantics"] = run_semantics_suite(args.cases, args.seed)
    results["failures"] = sum(r["failures"] for r in results.values())
    return results


_ARGUMENTS = {
    "file": {"help": "input .ppt file, or - for stdin"},
    "--length": {"type": int, "required": True},
    "--mode": {"choices": sorted(_MODE_ALIASES), "default": "loops"},
    "--budget": {"type": int},
    "--unitary": {"action": "store_true"},
    "--simplify": {"action": "store_true"},
    "--json": {"action": "store_true"},
    "--cases": {"type": int, "default": 200},
    "--seed": {"type": int, "default": 0},
    "--suite": {"choices": ("correspondence", "lemmas", "semantics", "all"),
                "default": "all"},
}

# `program` is None for a command without `file`.
_COMMANDS = {
    "check": (_cmd_check, "parse a program and report tightness",
              ("file", "--json"), _check_lines),
    "models": (_cmd_models, "enumerate temporal stable models",
               ("file", "--length", "--budget"), None),
    "graph": (_cmd_graph, "print the dependency graphs", ("file", "--json"),
              lambda graphs: [f"{section}: {a} -> {b}"
                              for section, edges in graphs.items()
                              for a, b in edges]),
    "loops": (_cmd_loops, "enumerate loops per section",
              ("file", "--unitary", "--json"),
              lambda found: [f"{section}: {{{', '.join(loop)}}}"
                             for section, loops in found.items()
                             for loop in loops]),
    "complete": (lambda program, args: _cmd_compile(
                     sourced_completion(program), args.simplify),
                 "print the temporal completion",
                 ("file", "--simplify", "--json"), _formula_lines),
    "lf": (lambda program, args: _cmd_compile(
               sourced_loop_formulas(program, args.unitary,
                                     simplify=args.simplify), False),
           "print the loop formulas",
           ("file", "--unitary", "--simplify", "--json"), _formula_lines),
    "embed": (lambda program, args: _cmd_compile(
                  sourced_program_as_ltlf(program), args.simplify),
              "print the rules as classical formulas",
              ("file", "--simplify", "--json"), _formula_lines),
    "verify": (_cmd_verify, "check a correspondence on one program",
               ("file", "--length", "--mode", "--budget"), None),
    "fuzz": (_cmd_fuzz, "run the randomized suites",
             ("--cases", "--seed", "--suite"), None),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ppt",
        description="Past-present temporal logic programs over finite traces.")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for name in names:
            cmd.add_argument(name, **_ARGUMENTS[name])
    return top


def main(argv=None) -> int:
    """Run one `ppt` command line and return its exit code, with the
    cyclic collector paused for the call (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, names, render = _COMMANDS[args.command]
    try:
        for flag in ("budget", "cases"):
            count = getattr(args, flag, None)
            if count is not None and count < 0:
                raise _Fail(f"error: --{flag} must be nonnegative, got {count}")
        program = _load(args.file) if "file" in names else None
        payload = handler(program, args)
        if render is None or args.json:
            _emit(payload)
        else:
            for line in render(payload):
                print(line)
        sys.stdout.flush()
        return 2 if (payload.get("equal") is False
                     or payload.get("failures")) else 0
    except BrokenPipeError:
        # The reader has gone (`ppt embed FILE | head -1`).  Point stdout
        # at devnull so that the flush at interpreter exit cannot raise
        # again; see "Note on SIGPIPE" in the `signal` documentation.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _Fail as err:
        print(err, file=sys.stderr)
        return 1
    except (BudgetExceeded, SccTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; a smaller --budget stops the search "
              "before it runs out", file=sys.stderr)
        return 3
    except (PptError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
