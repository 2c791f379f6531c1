import random

import pytest

from ppt import (
    DepGraph, MixedSection, RuleKind, SccTooLarge, dependency_graph,
    enumerate_loops, is_tight, parse_program, section_graphs,
)
from ppt.depgraph import SCC_CAP


def _dyn_graph(p):
    return dependency_graph(p.dynamic, p.alphabet, RuleKind.DYNAMIC)


def _init_graph(p):
    return dependency_graph(p.initial, p.alphabet, RuleKind.INITIAL)


class TestDependencyGraph:
    def test_p1_dynamic_edges(self, p1):
        assert _dyn_graph(p1).edges == frozenset({
            ("dead", "shoot"), ("dead", "load"), ("shoot", "dead")})

    def test_p1_initial_graph_is_full_alphabet_no_edges(self, p1):
        g = _init_graph(p1)
        assert g.vertices == frozenset({"load", "unload", "shoot", "dead"})
        assert g.edges == frozenset()

    def test_previous_breaks_edge(self):
        p = parse_program("#dynamic. a :- b, prev c.")
        g = dependency_graph(p.dynamic)
        assert g.edges == frozenset({("a", "b")})

    def test_negation_breaks_edge(self):
        p = parse_program("#dynamic. a :- b, not c, not not d.")
        g = dependency_graph(p.dynamic)
        assert g.edges == frozenset({("a", "b")})

    def test_since_keeps_present_parts(self):
        p = parse_program("#dynamic. a :- (b since c).")
        g = dependency_graph(p.dynamic)
        assert g.edges == frozenset({("a", "b"), ("a", "c")})

    def test_mixed_sections_rejected(self, p1):
        with pytest.raises(MixedSection):
            dependency_graph(p1.rules[:2])


class TestLoops:
    def test_p1_dynamic_plain(self, p1):
        loops = enumerate_loops(_dyn_graph(p1))
        assert set(loops) == {frozenset({"shoot", "dead"})}

    def test_p1_dynamic_unitary(self, p1):
        loops = enumerate_loops(_dyn_graph(p1), unitary=True)
        assert set(loops) == {
            frozenset({"load"}), frozenset({"unload"}), frozenset({"shoot"}),
            frozenset({"dead"}), frozenset({"shoot", "dead"})}

    def test_p1_initial_plain_empty(self, p1):
        assert enumerate_loops(_init_graph(p1)) == ()

    def test_self_loop_is_plain_loop(self):
        p = parse_program("#dynamic. a :- a.")
        loops = enumerate_loops(dependency_graph(p.dynamic))
        assert set(loops) == {frozenset({"a"})}

    def test_plain_subset_of_unitary(self, p1):
        g = _dyn_graph(p1)
        plain = set(enumerate_loops(g))
        unitary = set(enumerate_loops(g, unitary=True))
        assert plain <= unitary
        assert unitary - plain == {frozenset({a}) for a in g.vertices
                                   if (a, a) not in g.edges}

    def test_scc_cap(self):
        size = SCC_CAP + 1
        p = parse_program("#dynamic. " + " ".join(
            f"a{i} :- a{(i + 1) % size}." for i in range(size)))
        with pytest.raises(SccTooLarge, match=f"size {size} exceeds"):
            enumerate_loops(dependency_graph(p.dynamic))


class TestTightness:
    def test_p1_not_tight(self, p1):
        assert is_tight(p1) is False

    def test_p2_not_tight(self, p2):
        assert is_tight(p2) is False

    def test_acyclic_program_tight(self):
        assert is_tight(parse_program("a. b :- a.")) is True

    def test_self_loop_not_tight(self):
        assert is_tight(parse_program("#dynamic. a :- a.")) is False

    def test_tight_agrees_with_loop_enumeration(self):
        rng = random.Random(54)
        atoms = ("a", "b", "c", "d")
        for _ in range(300):
            rules = " ".join(
                f"{rng.choice(atoms)} :- {rng.choice(atoms)}."
                for _ in range(rng.randint(0, 5)))
            p = parse_program(rules + " #dynamic. " + " ".join(
                f"{rng.choice(atoms)} :- {rng.choice(atoms)}, not "
                f"{rng.choice(atoms)}." for _ in range(rng.randint(0, 5))))
            has_loop = any(enumerate_loops(g) for g in section_graphs(p))
            assert is_tight(p) is not has_loop


def _oracle_loops(vertices, edges, unitary):
    """Every-pair path check over all nonempty subsets, done naively."""
    def reach_with_edge(start, subset):
        seen = set()
        frontier = [w for (v, w) in edges if v == start and w in subset]
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(w for (x, w) in edges if x == v and w in subset)
        return seen

    vertices = sorted(vertices)
    found = set()
    for mask in range(1, 1 << len(vertices)):
        subset = frozenset(v for j, v in enumerate(vertices) if mask >> j & 1)
        ok = True
        for a in subset:
            reachable = reach_with_edge(a, subset)
            for b in subset:
                if a == b and unitary:
                    continue
                if b not in reachable:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(subset)
    return found


class TestOracle:
    def test_random_graphs_match_oracle(self):
        rng = random.Random(49)
        names = ["a", "b", "c", "d", "e", "f", "g", "h"]
        for _ in range(60):
            size = rng.randint(1, 8)
            vertices = frozenset(names[:size])
            edges = frozenset(
                (v, w) for v in vertices for w in vertices
                if rng.random() < 0.3)
            g = DepGraph(vertices, edges)
            for unitary in (False, True):
                got = set(enumerate_loops(g, unitary))
                assert got == _oracle_loops(vertices, edges, unitary)
