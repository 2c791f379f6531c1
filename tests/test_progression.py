"""The state-by-state search, on both sides, against brute-force oracles."""

import gc
import random
import tracemalloc

import pytest

import ppt.progression
from ppt import (
    Always, And, AtomRef, BudgetExceeded, Implies, Not, Or, Previous, Program,
    Rule, RuleKind, Since, Trace, completion,
    enumerate_ltlf_models, enumerate_ts_models, loop_formulas, parse_program,
    program_as_ltlf,
)
from ppt.progression import _ATOM, compile, compile_program, search
from ppt.syntax import CORE_TRUE
from ppt.transform import loop_formula_regimes
from ppt.verify import (
    GenConfig, _random_literal_body, random_past_formula, random_program,
)

from oracles import brute_force_ltlf_models, brute_force_ts_models

POOL = ("a", "b", "c", "d")


def _random_case(seed: int, max_candidate_bits: int):
    """A random program, an alphabet covering it and a length.

    Up to 4 atoms, 8 rules, body depth 4 and length 4; one alphabet in
    four is widened by atoms no rule mentions.  The length is capped so
    that the oracle tries at most 2^max_candidate_bits traces.
    """
    rng = random.Random(seed)
    cfg = GenConfig(seed=seed, max_atoms=rng.randint(1, 4),
                    max_rules=rng.randint(0, 8),
                    max_body_depth=rng.randint(0, 4))
    p = random_program(cfg)
    alphabet = set(p.alphabet)
    if rng.random() < 0.25:
        alphabet.update(POOL[:rng.randint(1, 4)])
    lam = rng.randint(1, 4)
    lam = max(1, min(lam, max_candidate_bits // max(1, len(alphabet))))
    return p, frozenset(alphabet), lam


def _canonical(models) -> tuple[Trace, ...]:
    """An oracle's model set in the order the search emits."""
    return tuple(sorted(models, key=Trace.to_lists))


def test_matches_oracle_on_random_programs():
    mismatches = []
    for seed in range(3000):
        p, alphabet, lam = _random_case(seed, max_candidate_bits=11)
        if enumerate_ts_models(Program(p.rules, alphabet), lam) != \
                _canonical(brute_force_ts_models(p, lam, alphabet)):
            mismatches.append(seed)
    assert mismatches == []


def test_formulas_from_a_generator_read_as_from_a_list():
    # Subformulas are keyed by identity; a formula freed during the walk
    # let a later one reuse its address and read as the freed formula.
    names = "abcdefgh"
    expected = enumerate_ltlf_models(
        [Not(AtomRef(n)) for n in names], 1, list(names))
    assert expected == (Trace.of([]),)
    assert enumerate_ltlf_models(
        (Not(AtomRef(n)) for n in names), 1, list(names)) == expected


def test_extension_holds_the_formulas_it_compiles():
    # The `extend` counterpart of the test above: the negations of the
    # base, freed, could hand their addresses to those of the extension,
    # which would read as compiled.  The atoms are held here, so that
    # only negations could be freed.  The base negates each of a to d
    # 100 times; the extension negates them 100 times again, then each
    # of e to h once.
    names = "abcdefgh"
    atoms = [AtomRef(n) for n in names]

    def negations():
        return (Not(atoms[i % 4 + 4 * (i >= 400)]) for i in range(404))

    base = compile((Not(atoms[i % 4]) for i in range(400)), list(names))
    gc.collect()
    # Whether a freed address is handed out again depends on the state
    # of the allocator, so the negations are also looked for among the
    # live objects.
    keys = {key for key in base.slots if type(key) is int}
    assert len(keys) == 400
    assert keys <= {id(f) for f in gc.get_objects() if type(f) is Not}
    extended = base.extend(negations())
    whole = compile([Not(atoms[i % 4]) for i in range(400)]
                    + list(negations()), list(names))
    assert extended.nodes == whole.nodes
    assert search(extended, 1) == search(whole, 1) == (Trace.of([]),)


def test_classical_search_matches_oracle_on_random_programs():
    # Completion, completion plus loop formulas, and the rules plus
    # unitary loop formulas, on the programs of the test above.
    mismatches = []
    for seed in range(3000):
        p, alphabet, lam = _random_case(seed, max_candidate_bits=11)
        cf = completion(p)
        translations = [cf, cf + loop_formulas(p),
                        program_as_ltlf(p) + loop_formulas(p, unitary=True)]
        found = [enumerate_ltlf_models(fs, lam, alphabet)
                 for fs in translations]
        if found != [_canonical(models) for models in
                     brute_force_ltlf_models(translations, lam, alphabet)]:
            mismatches.append(seed)
    assert mismatches == []


def _random_normal_program(seed: int):
    """A program whose rules have at most one head atom, and a length.

    Facts, rules and constraints in the initial and dynamic sections,
    and final rules, over up to 6 atoms, with a length of up to 3;
    dynamic bodies are random core past formulas, the others
    conjunctions of regular literals."""
    rng = random.Random(seed)
    atoms = ("a", "b", "c", "d", "e", "f")[:rng.randint(1, 6)]
    rules = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choices(tuple(RuleKind), (30, 55, 15))[0]
        shape = "constraint" if kind is RuleKind.FINAL else rng.choices(
            ("fact", "rule", "constraint"), (10, 70, 20))[0]
        if shape == "fact":
            body = CORE_TRUE
        elif kind is RuleKind.DYNAMIC:
            body = random_past_formula(rng, atoms, rng.randint(0, 3))
        else:
            body = _random_literal_body(rng, atoms)
        head = () if shape == "constraint" else (rng.choice(atoms),)
        rules.append(Rule(kind, head, body))
    return Program(rules, atoms), rng.randint(1, 3)


def test_least_fixpoint_keeps_what_the_subset_pass_keeps(monkeypatch):
    # Lemma 3: where each rule of a point has one head atom, the least
    # fixpoint of its rules keeps exactly the states that have no smaller
    # here-state.  Every point is sent to the fixpoint whatever its
    # survivors, then every point to the subset pass.
    cases = [_random_normal_program(seed) for seed in range(2000)]

    def stable_models():
        return [enumerate_ts_models(p, lam) for p, lam in cases]

    found = stable_models()
    monkeypatch.setattr(ppt.progression, "_fixpoint_pays", lambda *_: True)
    by_fixpoint = stable_models()
    # Minimality rejects a classical model in most of the cases whose
    # classical models are few enough to list quickly.
    assert sum(models != search(compile(program_as_ltlf(p), p.alphabet), lam)
               for models, (p, lam) in zip(by_fixpoint, cases)
               if len(p.alphabet) * lam <= 8) > 800
    monkeypatch.setattr(ppt.progression, "_fixpoint_pays", lambda *_: False)
    assert found == by_fixpoint == stable_models()


@pytest.mark.parametrize("atoms, lam, cases",
                         [(3, 4, 24), (4, 3, 24), (4, 4, 4)])
def test_matches_oracle_at_the_largest_sizes(atoms, lam, cases):
    alphabet = frozenset(POOL[:atoms])
    for seed in range(cases):
        p = random_program(GenConfig(seed=seed, max_atoms=atoms, max_rules=8,
                                     max_body_depth=4))
        assert enumerate_ts_models(Program(p.rules, alphabet), lam) == \
            _canonical(brute_force_ts_models(p, lam, alphabet))


def _both(text: str, lam: int, alphabet=None) -> tuple[Trace, ...]:
    p = parse_program(text)
    models = enumerate_ts_models(Program(p.rules, alphabet), lam)
    assert models == _canonical(brute_force_ts_models(p, lam, alphabet))
    return models


class TestEdgeCases:
    def test_prev_over_trigger_at_point_one(self):
        # The trigger carry starts true, so the trigger holds at point 0
        # exactly when c does, and prev reads that value at point 1.
        text = "#dynamic.\na :- prev (false trigger c).\n"
        assert _both("c.\n" + text, 2) == (Trace.of(["c"], ["a"]),)
        assert _both(text, 2, {"a", "c"}) == (Trace.of([], []),)

    def test_prev_is_false_at_point_zero_under_since(self):
        # The since carry at point 1 holds the body of the since at
        # point 0, where prev is false even over a trigger.
        text = "#dynamic.\na :- eventually_before prev always_before c.\n"
        assert _both(text, 2, {"a", "c"}) == (Trace.of([], []),)

    def test_length_one(self):
        text = "a :- not b.\nb :- not a.\n#dynamic.\nc :- a.\n#final.\n:- b.\n"
        assert _both(text, 1) == (Trace.of(["a"]),)

    def test_unmentioned_alphabet_atoms(self):
        models = _both("a.\n#dynamic.\nb :- prev a.\n", 3, {"a", "b", "z"})
        assert models == (Trace.of(["a"], ["b"], []),)

    def test_dynamic_section_of_constraints_only(self):
        text = "a | b.\n#dynamic.\n:- prev a.\n"
        assert _both(text, 2) == (Trace.of(["b"], []),)
        assert _both(text, 1) == (Trace.of(["a"]), Trace.of(["b"]))

    def test_budget_counts_work_done(self, p1):
        # P1 at length 7 has 2^28 candidate traces, past the default
        # budget of the oracle, which counts them, but the search does
        # little work on them.
        with pytest.raises(BudgetExceeded):
            brute_force_ts_models(p1, 7)
        assert len(enumerate_ts_models(p1, 7)) == 122
        # At length 1 a dynamic 22-atom cycle has 2^22 candidates, and
        # every state survives point 0, which requires no rule; the
        # least fixpoint tests them all in one round of 2^22 units.
        cycle = "#dynamic.\n" + "".join(f"a{i} :- a{(i + 1) % 22}.\n"
                                        for i in range(22))
        assert enumerate_ts_models(parse_program(cycle), 1) == (
            Trace.of([]),)
        # A disjunctive fact at point 0 sends it to the subset pass: 3/4
        # of the states survive, each charged 2^22 units for its pass.
        with pytest.raises(BudgetExceeded, match="budget of 16777216 units "
                                                 "at point 0 of 1,"):
            enumerate_ts_models(parse_program("a0 | a1.\n" + cycle), 1)

    def test_budget_message_counts_models_read_off(self):
        # Each model read off is charged before it is appended: the
        # fourth model of two choices at length 1 does not fit.
        p = parse_program(CHOICE2_TEXT)
        with pytest.raises(BudgetExceeded, match="at point 0 of 1, with 3 "
                                                 "models read off"):
            enumerate_ts_models(p, 1, budget=116)

    def test_long_trace_over_empty_alphabet(self):
        assert enumerate_ts_models(Program(()), 5000) == (
            Trace(tuple(frozenset() for _ in range(5000))),)

    def test_reserved_word_is_no_alphabet_atom(self):
        with pytest.raises(ValueError, match="reserved word"):
            compile([], {"a", "since"})

    def test_deep_not_previous_nest_needs_no_recursion(self):
        # 10,000 nodes deep, required at every point: each trace of
        # length 3 over {a} is checked layer by layer, point by point.
        # One previous keeps the nest from being constant there.
        f = AtomRef("a")
        layers = [Previous if i == 5000 else Not for i in range(10_000)]
        for layer in layers:
            f = layer(f)
        want = []
        for bits in range(8):
            vals = [bool(bits >> k & 1) for k in range(3)]
            for layer in layers:
                vals = ([False] + vals[:-1] if layer is Previous
                        else [not v for v in vals])
            if all(vals):
                want.append(Trace([{"a"} if bits >> k & 1 else set()
                                   for k in range(3)]))
        assert 0 < len(want) < 8
        assert search(compile([Always(f)], {"a"}), 3) == _canonical(want)

    def test_deep_body_needs_no_recursion(self):
        body = CORE_TRUE
        for _ in range(5000):
            body = And(body, Previous(AtomRef("a")))
        p = Program((Rule(RuleKind.INITIAL, ("a",), CORE_TRUE),
                     Rule(RuleKind.DYNAMIC, ("b",), body)))
        assert enumerate_ts_models(p, 2) == (Trace.of(["a"], ["b"]),)


class TestOneBuildPerModel:
    """The search reads each model off as a `Trace`, and the enumerators
    return its tuple as it is."""

    def test_search_returns_a_tuple_of_traces(self, p1):
        models = search(compile_program(p1), 3)
        assert type(models) is tuple and len(models) == 2
        assert all(type(model) is Trace for model in models)
        assert models == enumerate_ts_models(p1, 3)

    @pytest.mark.parametrize("side", ["stable", "classical"])
    def test_peak_memory_is_near_the_result(self, p1, side):
        # A second copy of each model, built while the first lives,
        # would take the peak to about 1.9 times what the result holds.
        fs = completion(p1) + loop_formulas(p1)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if side == "stable":
                models = enumerate_ts_models(p1, 12)
            else:
                models = enumerate_ltlf_models(fs, 12, p1.alphabet)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(models) == 29525
        assert peak - base <= 1.5 * (held - base)


CHOICE_PAIRS = "".join(f"x{i} :- not nx{i}.\nnx{i} :- not x{i}.\n"
                       for i in range(2))
CHOICE2_TEXT = CHOICE_PAIRS + "#dynamic.\n" + CHOICE_PAIRS
CHOICE1_PAIR = "x :- not nx.\nnx :- not x.\n"
CHOICE1_TEXT = CHOICE1_PAIR + "#dynamic.\n" + CHOICE1_PAIR

# The smallest budget each search passes, per length 1, 2, 3, 5, 8: the
# stable side, then the classical side on the completion.  The 3
# survivors of choice1 are at most n + 1, so each of its points takes
# the subset pass.
LEAST_BUDGETS = {
    "P1": ((81, 149, 381, 619, 3490), (17, 69, 157, 299, 3170)),
    "choice1": ((19, 44, 79, 221, 2118), (15, 36, 67, 209, 2106)),
    "choice2": ((117, 262, 539, 5477, 524660), (85, 198, 443, 5381, 524564)),
}


@pytest.mark.parametrize("side", ["stable", "completion"])
@pytest.mark.parametrize("name", sorted(LEAST_BUDGETS))
def test_least_budgets(p1, name, side):
    p = p1 if name == "P1" else parse_program(
        {"choice1": CHOICE1_TEXT, "choice2": CHOICE2_TEXT}[name])
    cf = completion(p)
    stable, classical = LEAST_BUDGETS[name]
    for lam, least in zip((1, 2, 3, 5, 8),
                          stable if side == "stable" else classical):
        def run(budget):
            if side == "stable":
                return enumerate_ts_models(p, lam, budget=budget)
            return enumerate_ltlf_models(cf, lam, p.alphabet, budget=budget)
        run(least)
        with pytest.raises(BudgetExceeded):
            run(least - 1)


class TestBeyondTheOracle:
    """Model counts known in closed form, up to lengths the brute-force
    oracle cannot reach."""

    @pytest.mark.parametrize("lam", range(2, 13))
    def test_p1_stable_model_count(self, p1, lam):
        # Point 0 loads, the last point shoots a loaded gun, and each of
        # the m = lam - 2 points between picks one of shoot, load and
        # unload.  The gun is still loaded after them in L(m) ways, with
        # L(0) = 1 and L(m) = 2 L(m - 1) + (3^(m - 1) - L(m - 1)): shoot
        # and load keep a loaded gun loaded, and load also loads an empty
        # one.  So L(m) = (3^m - 1) / 2 + 1.
        models = enumerate_ts_models(p1, lam)
        assert len(models) == (3 ** (lam - 2) - 1) // 2 + 1

    def test_choice_pairs_at_length_seven(self):
        p = parse_program(CHOICE2_TEXT)
        stable = enumerate_ts_models(p, 7)
        unitary = enumerate_ltlf_models(
            program_as_ltlf(p) + loop_formulas(p, unitary=True), 7,
            p.alphabet)
        assert len(stable) == 2 ** 14
        assert unitary == stable

    def test_wide_dynamic_cycle(self):
        # Only the empty state is founded at each point.  Point 0
        # requires no rule, so all 2^20 states survive and one fixpoint
        # round tests them; at point 1 only the empty and the full state
        # survive, and each takes the subset pass.  Each point costs a
        # few passes over 2^20 states, well within the default budget.
        cycle = parse_program("#dynamic.\n" + "".join(
            f"a{i} :- a{(i + 1) % 20}.\n" for i in range(20)))
        assert enumerate_ts_models(cycle, 2) == (Trace.of([], []),)

    def test_wide_chain_with_one_survivor(self):
        # One state survives the total pass, so the point keeps the
        # subset pass rather than n + 1 fixpoint rounds: the length, the
        # total pass, the survivor's pass with its read-out, and the
        # model, 2^21 + 2 units under the default budget of 2^24.
        chain = parse_program("a0.\n" + "".join(
            f"a{i} :- a{i - 1}.\n" for i in range(1, 20)))
        model = (Trace.of([f"a{i}" for i in range(20)]),)
        assert enumerate_ts_models(chain, 1) == model
        assert enumerate_ts_models(chain, 1, budget=2 ** 21 + 2) == model
        with pytest.raises(BudgetExceeded):
            enumerate_ts_models(chain, 1, budget=2 ** 21 + 1)

    def test_eight_choices_at_length_one(self):
        # 16 atoms: a total pass, two fixpoint rounds and 256 read-offs
        # at 2^16 units each, and one unit up front and per model; more
        # than the default budget of 2^24.
        pairs = "".join(f"x{i} :- not nx{i}.\nnx{i} :- not x{i}.\n"
                        for i in range(8))
        models = enumerate_ts_models(parse_program(pairs), 1,
                                     budget=259 * 2 ** 16 + 257)
        assert len(models) == 256


class TestFlatten:
    def test_one_atom_node_per_name(self):
        # Fresh leaves, as the random programs build them: two of one
        # name below one node, one met again later, one as a root.
        formulas = [And(AtomRef("a"), AtomRef("a")),
                    Or(AtomRef("b"), Not(AtomRef("a"))),
                    Implies(Previous(AtomRef("b")), AtomRef("a")),
                    AtomRef("b")]
        compiled = compile(formulas, {"a", "b"})
        nodes, at_start, slots = (compiled.nodes, compiled.at_start,
                                  compiled.slots)
        atoms = [node for node in nodes if node[0] == _ATOM]
        assert sorted(atoms) == [(_ATOM, 0, 0), (_ATOM, 1, 0)]
        assert len(nodes) == 7
        assert nodes[at_start[-1]] == (_ATOM, 1, 0) == nodes[slots["b"]]
        assert list(at_start) == (
            [slots[id(f)] for f in formulas[:3]] + [slots["b"]])

    def test_wrapper_below_the_top_is_refused_before_uncovered_atoms(self):
        # The uncovered atom b is met first, twice, and the wrapper deep
        # below a negation and a previous.
        with pytest.raises(ValueError, match="cannot evaluate Always "
                                             "below the top of a formula"):
            compile([And(AtomRef("b"), Or(AtomRef("b"), Not(Previous(
                Always(AtomRef("a"))))))], {"a"})

    def test_uncovered_atoms_are_named_sorted(self):
        with pytest.raises(ValueError, match="alphabet does not cover "
                                             "atoms: b, c$"):
            compile([Or(AtomRef("c"), AtomRef("b")),
                     Since(AtomRef("c"), AtomRef("a"))], {"a"})


def _extension_cases():
    """(program, base, loop formulas, compiled base) of the suite's
    programs and of programs at 4 atoms, 8 rules and depth 4: the rules
    read as formulas with the unitary loop formulas, compiled by
    `compile_program`, and the completion with the default loop
    formulas, compiled by `compile`."""
    for seed in range(150):
        for cfg in (GenConfig(seed=seed),
                    GenConfig(seed=seed, max_atoms=4, max_rules=8,
                              max_body_depth=4)):
            p = random_program(cfg)
            p = Program(p.rules, frozenset(POOL[:cfg.max_atoms]))
            default, unitary = loop_formula_regimes(p)
            yield p, program_as_ltlf(p), unitary, compile_program(p)
            cf = completion(p)
            yield p, cf, default, compile(cf, p.alphabet)


def _fields(compiled):
    return (compiled.nodes, compiled.at_start, compiled.later,
            compiled.carried)


class TestExtend:
    def test_extension_compiles_as_one_walk(self):
        # The compiled base extended by `loops` against `compile(base +
        # loops)`: the same nodes, roots and carried slots, and the same
        # models, searched classically; the base, searched again, is as
        # it was.
        carried = 0
        for p, base, loops, compiled in _extension_cases():
            before = [search(compiled, lam) for lam in (1, 2, 3)]
            size = len(compiled.nodes)
            extended = compiled.extend(loops)
            whole = compile(base + loops, p.alphabet)
            assert _fields(extended) == _fields(whole)
            carried += bool(compiled.carried and loops)
            for lam in (1, 2, 3):
                assert search(extended, lam) == search(whole, lam)
            assert len(compiled.nodes) == size
            assert [search(compiled, lam) for lam in (1, 2, 3)] == before
        # Most bases carry slots into a nonempty extension.
        assert carried > 300

    def test_extension_keeps_the_refusals_and_the_base(self):
        compiled = compile([AtomRef("a")], {"a"})
        with pytest.raises(ValueError, match="alphabet does not cover "
                                             "atoms: b, c$"):
            compiled.extend([Or(AtomRef("c"), AtomRef("b"))])
        with pytest.raises(ValueError, match="cannot evaluate Always "
                                             "below the top of a formula"):
            compiled.extend([Not(Always(AtomRef("b")))])
        with pytest.raises(ValueError, match="not a formula: 'a'"):
            compiled.extend(["a"])
        assert compiled.extend([]) is compiled
        assert _fields(compiled) == (((_ATOM, 0, 0),), (0,), (), ())
        assert search(compiled, 2) == (Trace.of(["a"], []),
                                       Trace.of(["a"], ["a"]))
