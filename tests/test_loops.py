import random
import re
import tracemalloc

import pytest

from ppt import (
    DepGraph, RuleKind, SccTooLarge, dependency_graph,
    enumerate_loops, is_tight, parse_program, section_graphs,
)
from ppt import transform as depgraph
from ppt.transform import SCC_CAP


def _dyn_graph(p):
    return dependency_graph(p, RuleKind.DYNAMIC)


def _init_graph(p):
    return dependency_graph(p, RuleKind.INITIAL)


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
        g = _dyn_graph(p)
        assert g.edges == frozenset({("a", "b")})

    def test_negation_breaks_edge(self):
        p = parse_program("#dynamic. a :- b, not c, not not d.")
        g = _dyn_graph(p)
        assert g.edges == frozenset({("a", "b")})

    def test_since_keeps_present_parts(self):
        p = parse_program("#dynamic. a :- (b since c).")
        g = _dyn_graph(p)
        assert g.edges == frozenset({("a", "b"), ("a", "c")})


class TestDepGraphValue:
    """A graph holds frozensets, whatever collections it is built from."""

    def test_built_from_a_set_and_a_list(self):
        g = DepGraph({"a", "b"}, [("a", "b"), ("b", "a")])
        frozen = DepGraph(frozenset({"a", "b"}),
                          frozenset({("a", "b"), ("b", "a")}))
        assert g == frozen
        assert hash(g) == hash(frozen)
        assert type(g.vertices) is frozenset and type(g.edges) is frozenset

    def test_list_edges_become_tuples(self):
        g = DepGraph(["a", "b"], [["a", "b"]])
        assert g.edges == frozenset({("a", "b")})
        assert enumerate_loops(g, unitary=True) == (frozenset("a"),
                                                   frozenset("b"))

    @pytest.mark.parametrize("edge", [("a", "b", "a"), ("a",), "ab", 5])
    def test_edge_that_is_not_a_pair(self, edge):
        with pytest.raises(ValueError,
                           match=re.escape(f"edge {edge!r} is not a pair")):
            DepGraph({"a", "b"}, [edge])


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
        loops = enumerate_loops(_dyn_graph(p))
        assert set(loops) == {frozenset({"a"})}

    def test_plain_subset_of_unitary(self, p1):
        g = _dyn_graph(p1)
        plain = set(enumerate_loops(g))
        unitary = set(enumerate_loops(g, unitary=True))
        assert plain <= unitary
        assert unitary - plain == {frozenset({a}) for a in g.vertices
                                   if (a, a) not in g.edges}

    def test_scc_cap(self):
        def cycle(name, size):
            return " ".join(f"{name}{i:02} :- {name}{(i + 1) % size:02}."
                            for i in range(size))

        size = SCC_CAP + 1
        p = parse_program(f"#dynamic. {cycle('a', size)}")
        with pytest.raises(SccTooLarge, match=f"size {size} exceeds"):
            enumerate_loops(_dyn_graph(p))
        # When the 21-atom cycle reaches a 22-atom one, the error names
        # the component with the smallest atom, not the larger one.
        p = parse_program(f"#dynamic. {cycle('a', 21)} a00 :- b00. "
                          f"{cycle('b', 22)}")
        with pytest.raises(SccTooLarge,
                           match=f"^component of size 21 exceeds cap {SCC_CAP}$"):
            enumerate_loops(_dyn_graph(p))


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
        names = [f"v{j}" for j in range(12)]

        def rules(atoms):
            # One- and two-atom positive bodies, each with a negated atom.
            return " ".join(
                f"{rng.choice(atoms)} :- {', '.join(rng.choices(atoms, k=k))}"
                f", not {rng.choice(atoms)}."
                for k in rng.choices((1, 2), k=rng.randint(0, len(atoms))))

        for _ in range(300):
            atoms = names[:rng.randint(1, 12)]
            p = parse_program(f"{rules(atoms)} #dynamic. {rules(atoms)}")
            graphs = section_graphs(p)
            has_loop = any(enumerate_loops(g) for g in graphs)
            assert is_tight(p) is not has_loop
            assert is_tight(p) is _tight_by_reach(graphs)


class TestTightnessWalk:
    """Tightness stops at the first loop: it never walks the subsets of
    a component, so a component past the cap costs it nothing."""

    @pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "chain"])
    def test_tightness_never_enumerates_subsets(self, monkeypatch, cycle):
        size = 2 * SCC_CAP
        rules = " ".join(f"a{i:02} :- a{(i + 1) % size:02}."
                         for i in range(size if cycle else size - 1))
        p = parse_program(f"#dynamic. {rules}")
        # Components: one per atom in the initial graph, which has no
        # edges; one (the cycle) or one per atom (the chain) in the
        # dynamic graph.  Each costs at most two closures, and the walk
        # two more per graph.
        limit = (2 * size + 2) + (2 * (1 if cycle else size) + 2)
        calls = 0
        closure = depgraph._closure

        def counting(*args):
            nonlocal calls
            calls += 1
            assert calls <= limit, "tightness walked a component's subsets"
            return closure(*args)

        monkeypatch.setattr(depgraph, "_closure", counting)
        assert is_tight(p) is not cycle
        assert 0 < calls <= limit
        monkeypatch.undo()
        if cycle:
            with pytest.raises(SccTooLarge, match=f"size {size} exceeds"):
                enumerate_loops(_dyn_graph(p))


def _tight_by_reach(graphs):
    """No self-edge, and no two distinct atoms reach each other, by
    set-based search over the edges of each graph."""
    for g in graphs:
        def reach(start):
            seen, frontier = set(), [start]
            while frontier:
                v = frontier.pop()
                for a, b in g.edges:
                    if a == v and b not in seen:
                        seen.add(b)
                        frontier.append(b)
            return seen

        if any(a == b for a, b in g.edges):
            return False
        reached = {v: reach(v) for v in g.vertices}
        if any(a != b and b in reached[a] and a in reached[b]
               for a in g.vertices for b in g.vertices):
            return False
    return True


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


def _set_based_loops(g, unitary):
    """Loops by set-based reach: a subset of two or more atoms is a loop
    when its first atom reaches all of it over successor sets and over
    predecessor sets, both restricted to the subset."""
    succ = {v: {b for a, b in g.edges if a == v} for v in g.vertices}
    pred = {v: {a for a, b in g.edges if b == v} for v in g.vertices}

    def reach(start, adj, members):
        seen = {start}
        frontier = [start]
        while frontier:
            for w in adj[frontier.pop()] & members - seen:
                seen.add(w)
                frontier.append(w)
        return seen

    vertices = sorted(g.vertices)
    loops = [frozenset((v,)) for v in vertices
             if unitary or (v, v) in g.edges]
    for mask in range(1, 1 << len(vertices)):
        members = {v for j, v in enumerate(vertices) if mask >> j & 1}
        if len(members) < 2:
            continue
        start = min(members)
        if (reach(start, succ, members) == members
                and reach(start, pred, members) == members):
            loops.append(frozenset(members))
    return tuple(sorted(loops, key=sorted))


class TestBitmaskLoops:
    def test_random_graphs_match_set_based_reach(self):
        rng = random.Random(61)
        names = [f"v{j}" for j in range(10)]
        for _ in range(80):
            vertices = frozenset(rng.sample(names, rng.randint(1, 10)))
            density = rng.choice((0.15, 0.3, 0.5))
            edges = frozenset((v, w) for v in vertices for w in vertices
                              if rng.random() < density)
            g = DepGraph(vertices, edges)
            for unitary in (False, True):
                assert enumerate_loops(g, unitary) == \
                    _set_based_loops(g, unitary)

    def test_two_components_keep_canonical_order(self):
        p = parse_program("#dynamic. a :- b. b :- a. c :- d. d :- c. "
                          "a :- c. b :- b.")
        assert enumerate_loops(_dyn_graph(p)) == (
            frozenset("ab"), frozenset("b"), frozenset("cd"))


class TestTwoAtomComponents:
    """A two-atom component is not walked: each of its three subsets is
    a loop, and the default regime keeps the pair and the singletons
    with a self-edge."""

    def test_every_two_atom_component_matches_set_based_reach(self):
        # Every graph over three atoms, and over four atoms with two
        # pairs, so that a pair takes every pair of bit positions, with
        # and without self-edges, beside components of other sizes.
        def pairs(g):
            _, forward, backward = depgraph._adjacency(g)
            return [scc for scc in depgraph._components(forward, backward)
                    if scc.bit_count() == 2]

        graphs = []
        three = ("a", "b", "c")
        possible = [(v, w) for v in three for w in three]
        for chosen in range(1 << len(possible)):
            graphs.append(DepGraph(three, [edge for j, edge in
                                           enumerate(possible)
                                           if chosen >> j & 1]))
        for first, second in (("ab", "cd"), ("ac", "bd"), ("ad", "bc")):
            for selfs in range(16):
                edges = [(v, w) for v, w in (first, second)]
                edges += [(w, v) for v, w in (first, second)]
                edges += [(v, v) for j, v in enumerate("abcd")
                          if selfs >> j & 1]
                graphs.append(DepGraph(tuple("abcd"), edges))
        checked = 0
        for g in graphs:
            found = pairs(g)
            if not found:
                continue
            checked += len(found)
            for unitary in (False, True):
                assert enumerate_loops(g, unitary) == \
                    _set_based_loops(g, unitary)
            _, forward, _ = depgraph._adjacency(g)
            for scc in found:
                assert sorted(depgraph._loops(forward, scc)) == sorted(
                    [scc & -scc, scc & (scc - 1), scc])
        # Over three atoms: 3 pairs, 8 sets of self-edges and the 7 of
        # the 16 sets of edges to the third atom that leave it outside.
        assert checked == 3 * 8 * 7 + 3 * 16 * 2


def _chorded_cycle(size, seed, chords):
    # A cycle a00 -> a01 -> ... -> a00 plus `chords` random edges, so
    # that all atoms form one component.
    rng = random.Random(seed)
    vertices = [f"a{i:02}" for i in range(size)]
    edges = {(vertices[i], vertices[(i + 1) % size]) for i in range(size)}
    edges |= {(rng.choice(vertices), rng.choice(vertices))
              for _ in range(chords)}
    return DepGraph(vertices, edges)


def _cap_cycle(*steps):
    # `SCC_CAP` atoms a00 ... with an edge from a_i to a_(i + step) for
    # each step, indices taken round the cycle.
    vertices = [f"a{i:02}" for i in range(SCC_CAP)]
    return DepGraph(vertices, [(vertices[i], vertices[(i + step) % SCC_CAP])
                               for i in range(SCC_CAP) for step in steps])


class TestBlockWalk:
    """Components past 12 atoms are walked in several blocks of 2^12
    subsets, the membership of the other atoms fixed per block."""

    def test_multi_block_components_match_set_based_reach(self):
        for seed in range(21):
            g = _chorded_cycle(13 + seed % 3, seed, chords=3 + seed % 5)
            unitary = enumerate_loops(g, unitary=True)
            assert unitary == _set_based_loops(g, True)
            default = enumerate_loops(g)
            assert default == _set_based_loops(g, False)
            # The default marks of the one walk are the default regime.
            marks = [loop[3] for loop in depgraph._sorted_loops(g, True)]
            assert marks == [loop in default for loop in unitary]

    def test_counts_at_the_cap(self):
        cycle = _cap_cycle(1)
        assert len(enumerate_loops(cycle, unitary=True)) == SCC_CAP + 1
        assert enumerate_loops(cycle) == (frozenset(cycle.vertices),)
        assert len(enumerate_loops(_cap_cycle(1, 3), unitary=True)) == 22859

    def test_walk_at_the_cap_is_bounded_in_memory(self):
        cycle = _cap_cycle(1)
        tracemalloc.start()
        try:
            enumerate_loops(cycle, unitary=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
