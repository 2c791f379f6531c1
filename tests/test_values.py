"""The contract of the frozen value classes of `ppt`: the 15 formula
nodes, `Rule`, `Program`, `HTTrace`, `DepGraph`, `TraceMask`,
`GenConfig` and `Report`.  Each keeps the fields, text, equality, hash,
immutability, pickling and slots that a frozen dataclass gave it, and
none of its methods is code compiled from a string at import.  The one
exception is the hash of a node that heads a left run of its own class
(`And(And(a, b), c)`): it is the hash of the run's elements, read in a
loop, so that a long run compares, hashes and prints without recursion;
its equality and text are still the dataclass's."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ppt
from ppt import (
    Always, And, AtomRef, DepGraph, FALSUM, Falsum, FinalConst, GenConfig,
    HTTrace, Iff, Implies, InitialConst, Not, Or, Previous, Program, Report,
    Rule, RuleKind, Since, Trace, TraceMask, Trigger, Verum, WeakNextAlways,
    format_formula, parse_formula, parse_program, random_past_formula,
)
from ppt.syntax import chain_elements

from oracles import equal_by_fields, repr_by_fields

A, B = AtomRef("a"), AtomRef("b")
RULE = Rule(RuleKind.DYNAMIC, ("a",), And(B, Not(Previous(A))))

# One instance of each class, its field names, its text and its own
# `__slots__`: every class keeps its fields in slots.  Sets in these
# texts have one element, so no text depends on the hash seed.
CASES = [
    (Falsum(), [], "Falsum()", ()),
    (A, ["name"], "AtomRef(name='a')", ("name",)),
    (Not(A), ["arg"], "Not(arg=AtomRef(name='a'))", ("arg",)),
    (And(A, B), ["lhs", "rhs"],
     "And(lhs=AtomRef(name='a'), rhs=AtomRef(name='b'))", ("lhs", "rhs")),
    (Or(A, FALSUM), ["lhs", "rhs"],
     "Or(lhs=AtomRef(name='a'), rhs=Falsum())", ("lhs", "rhs")),
    (Previous(A), ["arg"], "Previous(arg=AtomRef(name='a'))", ("arg",)),
    (Since(A, B), ["lhs", "rhs"],
     "Since(lhs=AtomRef(name='a'), rhs=AtomRef(name='b'))", ("lhs", "rhs")),
    (Trigger(B, A), ["lhs", "rhs"],
     "Trigger(lhs=AtomRef(name='b'), rhs=AtomRef(name='a'))",
     ("lhs", "rhs")),
    (Verum(), [], "Verum()", ()),
    (InitialConst(), [], "InitialConst()", ()),
    (FinalConst(), [], "FinalConst()", ()),
    (Implies(A, B), ["lhs", "rhs"],
     "Implies(lhs=AtomRef(name='a'), rhs=AtomRef(name='b'))", ("lhs", "rhs")),
    (Iff(B, A), ["lhs", "rhs"],
     "Iff(lhs=AtomRef(name='b'), rhs=AtomRef(name='a'))", ("lhs", "rhs")),
    (Always(Not(A)), ["arg"], "Always(arg=Not(arg=AtomRef(name='a')))",
     ("arg",)),
    (WeakNextAlways(A), ["arg"], "WeakNextAlways(arg=AtomRef(name='a'))",
     ("arg",)),
    (RULE,
     ["kind", "head", "body", "atoms", "positive_present"],
     "Rule(kind=<RuleKind.DYNAMIC: 'dynamic'>, head=('a',), "
     "body=And(lhs=AtomRef(name='b'), rhs=Not(arg=Previous(arg=AtomRef(name='a')))))",
     ("kind", "head", "body", "atoms", "positive_present")),
    (Program((Rule(RuleKind.INITIAL, ("a",), Not(FALSUM)),), {"a"}),
     ["rules", "alphabet"],
     "Program(rules=(Rule(kind=<RuleKind.INITIAL: 'initial'>, head=('a',), "
     "body=Not(arg=Falsum())),), alphabet=frozenset({'a'}))",
     ("rules", "alphabet")),
    (HTTrace([{"a"}, ()], [{"a"}, {"b"}]), ["h", "t"],
     "HTTrace(h=(frozenset({'a'}), frozenset()), "
     "t=(frozenset({'a'}), frozenset({'b'})))", ("h", "t")),
    (DepGraph({"a"}, [("a", "a")], RuleKind.DYNAMIC),
     ["vertices", "edges", "section"],
     "DepGraph(vertices=frozenset({'a'}), edges=frozenset({('a', 'a')}), "
     "section=<RuleKind.DYNAMIC: 'dynamic'>)",
     ("vertices", "edges", "section")),
    (TraceMask({"a"}, 1, [(), {"a"}]), ["base", "pivot", "extra"],
     "TraceMask(base=frozenset({'a'}), pivot=1, "
     "extra=(frozenset(), frozenset({'a'})))", ("base", "pivot", "extra")),
    (GenConfig(seed=7, max_rules=2),
     ["seed", "max_atoms", "max_rules", "max_body_depth"],
     "GenConfig(seed=7, max_atoms=3, max_rules=2, max_body_depth=3)",
     ("seed", "max_atoms", "max_rules", "max_body_depth")),
    (Report((Trace.of(["a"]),), (), False, (Trace.of(["a"]),), True),
     ["lhs", "rhs", "equal", "witnesses", "tight"],
     "Report(lhs=((frozenset({'a'}),),), rhs=(), equal=False, "
     "witnesses=((frozenset({'a'}),),), tight=True)",
     ("lhs", "rhs", "equal", "witnesses", "tight")),
]

VALUES = [case[0] for case in CASES]
IDS = [type(x).__name__ for x in VALUES]


def _compared(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)


def _same(x, y):
    """Same class and the same value in every field, derived ones too."""
    return type(x) is type(y) and all(
        getattr(x, f.name) == getattr(y, f.name) for f in dataclasses.fields(x))


def test_every_value_class_is_covered():
    classes = {type(x) for x in VALUES}
    assert len(classes) == len(VALUES) == 22
    assert {getattr(ppt, name) for name in IDS} == classes


@pytest.mark.parametrize("x, names, text, slots", CASES, ids=IDS)
def test_fields_text_and_slots(x, names, text, slots):
    cls = type(x)
    assert dataclasses.is_dataclass(x)
    assert [f.name for f in dataclasses.fields(x)] == names
    assert cls.__match_args__ == tuple(
        f.name for f in dataclasses.fields(x) if f.init)
    assert repr(x) == text
    assert vars(cls).get("__slots__") == slots
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_equality_and_hash_read_the_compared_fields(x):
    twin = copy.copy(x)
    assert twin is not x and twin == x and not twin != x
    assert hash(x) == hash(_compared(x)) == hash(twin)
    assert x.__eq__(1) is NotImplemented
    assert x.__eq__(_compared(x)) is NotImplemented
    assert [y == x for y in VALUES] == [y is x for y in VALUES]


def test_equality_needs_the_same_class():
    assert And(A, B) != Or(A, B) and Since(A, B) != Trigger(A, B)
    assert Implies(A, B) != Iff(A, B) and Not(A) != Previous(A)
    assert Always(A) != WeakNextAlways(A) and Falsum() != Verum()
    assert InitialConst() != FinalConst()
    assert And(A, B) != And(B, A) and AtomRef("a") == A


def test_rule_equality_ignores_derived_fields():
    rule = Rule(RuleKind.DYNAMIC, ("a",), And(B, Not(A)))
    twin = copy.copy(rule)
    object.__setattr__(twin, "atoms", frozenset())
    object.__setattr__(twin, "positive_present", frozenset({"x"}))
    assert twin == rule and hash(twin) == hash(rule)
    assert repr(twin) == repr(rule)
    assert Rule(RuleKind.INITIAL, ("a",), And(B, Not(A))) != rule


def test_shared_subterms_compare_by_identity_first():
    # A chain of 200 levels whose two sides are one object: each level
    # compares its field tuples, which take the identity shortcut.
    f = A
    for _ in range(200):
        f = And(f, f)
    assert f == And(f.lhs, f.rhs)


def test_a_long_parsed_chain_compares_hashes_and_prints():
    # Parsed and accepted by every command, yet `==`, `hash` and `repr`
    # of it recursed on its 2,000 conjuncts.
    src = "a.\n#dynamic.\nb :- " + ", ".join(["prev a"] * 2000) + ".\n"
    p, q = parse_program(src), parse_program(src)
    other = parse_program(src.removesuffix("a.\n") + "b.\n")
    assert p == q and not p != q
    assert p != other and p.rules[1] != other.rules[1]
    assert hash(p.rules[1]) == hash(q.rules[1])
    prev_a = "Previous(arg=AtomRef(name='a'))"
    body = "And(lhs=" * 1999 + prev_a + f", rhs={prev_a})" * 1999
    assert repr(p.rules[1]) == (
        "Rule(kind=<RuleKind.DYNAMIC: 'dynamic'>, head=('b',), "
        f"body={body})")


def test_a_long_parsed_chain_pickles_and_copies():
    # `copy.copy` worked, but `pickle` and `copy.deepcopy` recursed on
    # the 2,000 conjuncts, and on the 2,000 disjuncts of the constraint.
    src = ("a.\n#dynamic.\nb :- " + ", ".join(["prev a"] * 2000)
           + ".\n:- " + "; ".join(["c"] * 2000) + ".\n")
    p = parse_program(src)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(p, protocol))
        assert back == p and _same(back.rules[1], p.rules[1]), protocol
    deep = copy.deepcopy(p)
    assert deep == p and _same(deep.rules[2], p.rules[2])
    assert deep.rules[1].body is not p.rules[1].body
    assert copy.copy(p) == p


def _lengthened(rng):
    """A random core formula lengthened by up to three runs of one
    class each: and/or runs of up to 30 elements, since/trigger runs of
    up to 12, so that the printed text parses back."""
    f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 3))
    for _ in range(rng.randint(1, 3)):
        tp = rng.choice((And, Or, Since, Trigger))
        for _ in range(rng.randint(1, 30 if tp in (And, Or) else 12)):
            f = tp(f, random_past_formula(rng, ("a", "b", "c"),
                                          rng.randint(0, 2)))
    return f


def _renamed(f, index):
    """f with its `index`-th atom occurrence, in pre-order, renamed `z`,
    rebuilt through the constructors; no other node is shared with f."""
    count = [index]

    def build(g):
        if type(g) is AtomRef:
            count[0] -= 1
            return AtomRef("z" if count[0] == -1 else g.name)
        return type(g)(*[build(getattr(g, field.name))
                         for field in dataclasses.fields(g)])
    return build(f)


def _nodes(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(getattr(g, field.name) for field in dataclasses.fields(g)
                     if type(g) is not AtomRef)


def test_runs_agree_with_field_by_field_recursion():
    rng = random.Random(38)
    runs = 0
    for _ in range(600):
        f = _lengthened(rng)
        runs += type(f.lhs) is type(f)
        back = parse_formula(format_formula(f))
        leaves = sum(type(g) is AtomRef for g in _nodes(f))
        other = _renamed(f, rng.randrange(leaves)) if leaves else Not(f)
        assert back is not f and back == f and not back != f
        assert hash(back) == hash(f)
        assert equal_by_fields(back, f)
        assert other != f and not equal_by_fields(other, f)
        assert repr(f) == repr_by_fields(f) == repr(back)
        assert repr(other) == repr_by_fields(other)
    assert runs > 300


def test_a_run_hashes_as_its_elements():
    f = And(And(And(A, B), Not(A)), B)
    assert hash(f) == hash(tuple(chain_elements(f, And)))
    assert hash(And(Or(A, B), A)) == hash((Or(A, B), A))


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_fields_are_frozen(x):
    for name in [f.name for f in dataclasses.fields(x)]:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
    assert _same(x, copy.copy(x))


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(x):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert _same(x, back) and back == x, protocol
    assert _same(x, copy.copy(x))
    deep = copy.deepcopy(x)
    assert _same(x, deep) and hash(deep) == hash(x)


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_replace_rebuilds_through_the_constructor(x):
    back = dataclasses.replace(x)
    assert _same(x, back) and back is not x


def test_replace_validates_again():
    with pytest.raises(ValueError,
                       match="^reserved word 'not' cannot be used as an atom$"):
        dataclasses.replace(A, name="not")
    with pytest.raises(ValueError, match="^final rules cannot have a head$"):
        dataclasses.replace(RULE, kind=RuleKind.FINAL)
    with pytest.raises(ValueError, match=r"^max_rules must be within \[0, 8\]$"):
        dataclasses.replace(GenConfig(), max_rules=9)
    rule = dataclasses.replace(RULE, head=["b"], body=A)
    assert rule.head == ("b",) and rule.atoms == {"a", "b"}
    assert rule.positive_present == {"a"}


# The methods a dataclass can generate, each compiled from a string.
GENERATED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
             "__delattr__")


@pytest.mark.parametrize("x", VALUES, ids=IDS)
def test_nothing_is_generated(x):
    cls = type(x)
    for name in GENERATED:
        code = getattr(getattr(cls, name), "__code__", None)
        assert code is None or code.co_filename != "<string>", name
    # A class without a docstring gets one made from its signature.
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


# Run in a fresh interpreter that has already imported what `ppt` shares
# with most programs; prints how many code objects compiled from a
# string are executed while `ppt.cli` is imported.
_COUNT_EXECS = """
import argparse, dataclasses, enum, json, random, re, sys
count = 0
def hook(event, args):
    global count
    if event == "exec" and getattr(args[0], "co_filename", None) == "<string>":
        count += 1
sys.addaudithook(hook)
import ppt.cli
print(count)
"""


def test_import_executes_no_generated_code():
    src = str(Path(ppt.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_EXECS], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True)
    # From 3.13 on, `dataclass` executes one compiled builder for every
    # class it decorates, whatever that builder defines.
    limit = 22 if sys.version_info >= (3, 13) else 0
    assert int(done.stdout) <= limit
