import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import certificate_oracle
from helpers import built_fat_pairs, fan, wheel
from reconflab import dsr, graphs, kernel
from reconflab.dsr import enumerate_dominating_sets
from reconflab.errors import InfeasibleInstance, MalformedInput, SizeCapExceeded
from reconflab.generators import gen_dcr_instance
from reconflab.graphs import (
    Graph,
    contains_biclique,
    dominates,
    mask_of,
    neighborhood_classes,
    path_graph,
)
from reconflab.kernel import (
    K3D_FREE,
    K4D_MINOR_FREE,
    DcrInstance,
    compute_core,
    contract_class_components,
    kernelize,
    prune_three_classes,
    reduce_twins,
    solve_dcr,
    solve_via_kernel,
)


def connected_biclique_free_graph(rng, n_max=7, d=2):
    while True:
        n = rng.randint(3, n_max)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45])
        if g.is_connected() and not contains_biclique(g, 3, d):
            return g


def random_dcr(rng, n_max=7, k_max=2, d=2, family=K3D_FREE, with_core=True):
    while True:
        g = connected_biclique_free_graph(rng, n_max, d)
        k = rng.randint(1, k_max)
        doms = [
            frozenset(c)
            for c in itertools.combinations(range(g.n), k)
            if dominates(g, c, range(g.n))
        ]
        if len(doms) < 2:
            continue
        src, tgt = rng.sample(doms, 2)
        core = compute_core(g, k, src | tgt) if with_core else None
        return DcrInstance(g, k, src, tgt, d=d, family=family, core=core)


# ------------------------------------------------------------- cores

def test_core_of_star_certified_by_oracle():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    x = compute_core(g, 1, frozenset({0}))
    # A single leaf dominates {center} without dominating the graph, so the
    # core must keep enough leaves to pin the center choice.
    assert 0 in x
    assert certificate_oracle.is_core(g, 1, x)
    for v in sorted(x - {0}):
        assert not certificate_oracle.is_core(g, 1, x - {v})


def test_full_vertex_set_is_always_a_core():
    g = path_graph(5)
    assert certificate_oracle.is_core(g, 2, frozenset(range(5)))


def core_size_bound(k: int, d: int) -> int:
    return (2 * d + 1) * k ** (d + 1)


def test_core_p5_within_bound():
    g = path_graph(5)
    x = compute_core(g, 2, frozenset())
    assert certificate_oracle.is_core(g, 2, x)
    assert len(x) <= core_size_bound(2, 2)


def test_core_oracle_matches_subset_scan():
    """The query ``compute_core`` asks to drop v from a core x, a set of
    min(k, n - |N[v]|) vertices outside N[v] that dominates x - v, finds
    none iff the scan of every subset calls x - v a core; on the star, P5
    and seeded graphs, for every core x of up to 6 vertices and v in x."""
    rng = random.Random(6106)
    graphs = [Graph(4, [(0, 1), (0, 2), (0, 3)]), path_graph(5)]
    graphs += [Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
               for n, p in ((rng.randint(1, 7), rng.choice((0.2, 0.4, 0.6))) for _ in range(25))]
    answers = set()
    for g in graphs:
        closed = g.closed_mask
        for k in range(g.n + 1):
            for size in range(min(g.n, 6) + 1):
                for x in map(frozenset, itertools.combinations(range(g.n), size)):
                    if not certificate_oracle.is_core(g, k, x):
                        continue
                    for v in x:
                        found = next(enumerate_dominating_sets(
                            g, min(k, g.n - closed[v].bit_count()), mask_of(x - {v}),
                            banned=closed[v]), None)
                        want = certificate_oracle.is_core(g, k, x - {v})
                        assert (found is None) == want, (g, k, x, v)
                        answers.add(want)
    assert answers == {False, True}


def test_compute_core_matches_the_greedy_reference():
    """``compute_core`` against the greedy removal with the subset scan as
    its core test: the same frozenset on 2,000 seeded graphs with n <= 10, k 1-3 and
    random must-include sets; an infeasible k raises, and then no set of at
    most k vertices dominates."""
    rng = random.Random(6107)
    feasible = 0
    for i in range(2000):
        n = rng.randint(1, 10)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < rng.choice((0.2, 0.4, 0.6))])
        k = rng.randint(1, 3)
        must = frozenset(v for v in range(n) if rng.random() < 0.2)
        try:
            got = compute_core(g, k, must)
        except InfeasibleInstance:
            assert not any(dominates(g, c, range(n)) for c in itertools.combinations(range(n), k))
            continue
        assert got == certificate_oracle.compute_core(g, k, must), (i, g, k, must)
        feasible += 1
    assert feasible > 1000


def test_compute_core_raises_past_the_enumerator_cap(monkeypatch):
    """The core's queries are enumerator calls, so the enumerator's node cap,
    per call, is the core's cap too: on this seeded G(12, 0.3) at k = 3 the
    feasibility check takes two branching nodes, while a query takes three."""
    rng = random.Random(5)
    n, k, must = rng.randint(8, 14), rng.randint(2, 4), frozenset()
    g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
    assert (n, k) == (12, 3)
    monkeypatch.setattr(graphs, "ENUM_CAP", 3)
    assert len(compute_core(g, k, must)) == 10
    monkeypatch.setattr(graphs, "ENUM_CAP", 2)
    assert dsr.has_dominating_set(g, k)
    with pytest.raises(SizeCapExceeded):
        compute_core(g, k, must)


def test_core_requires_feasible_instance():
    with pytest.raises(InfeasibleInstance):
        compute_core(Graph(4, []), 1, frozenset())


# ------------------------------------------------------------- single rules

@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_reduce_twins_preserves_answer(seed):
    rng = random.Random(seed)
    inst = random_dcr(rng)
    out = reduce_twins(inst)
    assert out == certificate_oracle.reduce_twins(inst)
    assert certificate_oracle.find_reducible_vertex(out.graph, out.core_set()) is None
    assert solve_dcr(out).reachable == solve_dcr(inst).reachable


def test_reduce_twins_removes_duplicated_leaf():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = DcrInstance(g, 1, frozenset({0}), frozenset({0}), d=2,
                       core=frozenset({0, 1}))
    out = reduce_twins(inst)
    assert out.graph.n < g.n


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_contract_class_components_preserves_answer(seed):
    rng = random.Random(seed)
    inst = random_dcr(rng)
    out = contract_class_components(inst)
    classes = neighborhood_classes(out.graph, out.core_set())
    for members in classes.values():
        for u in members:
            assert not any(w in members for w in out.graph.adj[u])
    assert solve_dcr(out).reachable == solve_dcr(inst).reachable


def test_class_contraction_matches_the_one_component_loop():
    """One quotient gives the graph, labels, token sets and core that merging
    one class component at a time and recomputing the classes gave; most
    draws contract two or more components in one call."""
    rng = random.Random(22)
    several = 0
    for _ in range(300):
        n = rng.randint(12, 20)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.25],
                  {v: f"v{v}" for v in range(n) if rng.random() < 0.5})
        core = frozenset(rng.sample(range(n), rng.randint(1, 2)))
        inst = DcrInstance(g, 1, frozenset({min(core)}), frozenset({max(core)}), d=2, core=core)
        want, merged = certificate_oracle.contract_class_components(inst)
        got = contract_class_components(inst)
        assert got == want, (g.edges, g.labels, core)  # Graph equality compares labels too
        several += merged >= 2
    assert several > 150


def _three_and_one_class(ab_edges, d):
    """Core {0, 1, 2, 3} around hub 0, a 3-class {4, 5, 6} on trace
    {0, 1, 2} and a 1-class {7, 8, 9, 10} on trace {0}, joined by
    ``ab_edges``; k = 1 and source = target = {0}."""
    edges = [(0, 1), (0, 2), (0, 3)] + [(c, a) for a in (4, 5, 6) for c in (0, 1, 2)]
    edges += [(0, b) for b in range(7, 11)] + ab_edges
    return DcrInstance(Graph(11, edges), 1, frozenset({0}), frozenset({0}), d=d,
                       family=K4D_MINOR_FREE, core=frozenset(range(4)))


def test_fat_pairs_threshold():
    """k * d = 2: two stars, eight edges with a maximum matching of exactly
    2, leave the pair alone and the input object comes back; a third
    disjoint edge makes the pair fat, and every edge between them is cut."""
    stars = [(a, b) for a in (4, 5) for b in range(7, 11)]
    inst = _three_and_one_class(stars, d=2)
    assert prune_three_classes(inst) is inst
    fat = _three_and_one_class(stars + [(6, 7)], d=2)
    assert prune_three_classes(fat).graph == _three_and_one_class([], d=2).graph


def test_single_edge_is_never_fat():
    """k * d = 1: one edge, or one star of four, matches a single pair."""
    for ab in ([(4, 7)], [(4, b) for b in range(7, 11)]):
        inst = _three_and_one_class(ab, d=1)
        assert prune_three_classes(inst) is inst


def test_fat_pair_between_one_classes_is_never_cut():
    """Only pairs whose first class is a 3-class are cut: two 1-classes
    {2, 3, 4} and {5, 6, 7} joined by a perfect matching of 3 > k * d stay
    joined, beside a 3-class {8} that is fat with neither."""
    edges = [(0, 1), (0, 2), (8, 0), (8, 1), (8, 2)]
    edges += [(0, v) for v in (3, 4, 5)] + [(1, v) for v in (6, 7, 9)] + [(3, 6), (4, 7), (5, 9)]
    inst = DcrInstance(Graph(10, edges), 1, frozenset({0}), frozenset({0}), d=1,
                       family=K4D_MINOR_FREE, core=frozenset({0, 1, 2}))
    assert prune_three_classes(inst) is inst


def staircase():
    """Core {0, 1, 2, 3} around hub 0, the 3-class a_i = 4 + i and the
    1-class b_i = 2003 - i (i < 1000), a_i joined to b_i and b_(i+1)."""
    n = 2004
    edges = [(0, 1), (0, 2), (0, 3)]
    for i in range(1000):
        a, b = 4 + i, n - 1 - i
        edges += [(0, a), (1, a), (2, a), (0, b), (a, b)] + ([(a, b - 1)] if i < 999 else [])
    return DcrInstance(Graph(n, edges), 1, frozenset({0}), frozenset({0}), d=4,
                       family=K4D_MINOR_FREE, core=frozenset(range(4)))


def test_prune_three_classes_survives_a_1000_step_augmenting_path():
    """A staircase on 2,004 vertices.  Taking the lower-numbered b first, the
    last a_i needs a 1,000-step augmenting path, past Python's recursion
    limit for a recursive matcher.  The pair is fat (1,000 > k * d = 4), and
    all 1,999 edges between the classes are cut, leaving a connected graph."""
    n = 2004
    inst = staircase()
    g = inst.graph
    assert g.m == 6002
    out = prune_three_classes(inst)
    cut = {(4 + i, n - 1 - i) for i in range(1000)} | {(4 + i, n - 2 - i) for i in range(999)}
    assert set(g.edges) - set(out.graph.edges) == cut
    assert out.graph.m == g.m - 1999 and out.graph.is_connected()


def test_reduce_twins_rebuilds_the_pruned_staircase_once(monkeypatch):
    """The pruned staircase loses 1,999 twins in one ``graphs.quotient``
    and keeps the core and one vertex next to 0, 1 and 2."""
    pruned = prune_three_classes(staircase())
    calls, real = [], kernel.quotient
    monkeypatch.setattr(kernel, "quotient", lambda g, onto: calls.append(len(onto)) or real(g, onto))
    out = reduce_twins(pruned)
    assert calls == [1999]
    assert out.graph == Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4)])
    assert (out.source, out.target, out.core) == ({0}, {0}, set(range(4)))


def test_prune_three_classes_needs_family():
    rng = random.Random(1)
    inst = random_dcr(rng)
    with pytest.raises(MalformedInput):
        prune_three_classes(inst)


# ------------------------------------------------------------- pipeline

@given(st.integers(0, 2**15 - 1))
@settings(max_examples=25, deadline=None)
def test_kernel_answer_certificates_idempotence(seed):
    rng = random.Random(seed)
    inst = random_dcr(rng)
    kernel, report = kernelize(inst)
    assert report.certified
    assert solve_dcr(kernel).reachable == solve_dcr(inst).reachable
    again, report2 = kernelize(kernel)
    assert again == kernel
    assert report2.size_before == report2.size_after


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=15, deadline=None)
def test_kernel_minor_free_family(seed):
    rng = random.Random(seed)
    inst = random_dcr(rng, family=K4D_MINOR_FREE)
    kernel, report = kernelize(inst)
    assert report.certified
    assert solve_dcr(kernel).reachable == solve_dcr(inst).reachable


def test_solve_via_kernel_matches_direct():
    rng = random.Random(99)
    for _ in range(8):
        inst = random_dcr(rng)
        assert solve_via_kernel(inst).reachable == solve_dcr(inst).reachable


def test_kernel_computes_core_when_absent():
    rng = random.Random(5)
    inst = random_dcr(rng, with_core=False)
    kernel, report = kernelize(inst)
    assert kernel.core is not None
    assert "compute-core" in report.rules_applied


def test_family_violation_rejected_with_witness():
    # complete bipartite 3x3 whose far side forms an oversized type-3 class:
    # exactly the situation the forbidden-subgraph promise exists to prevent
    k33 = Graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)] + [(0, 1), (0, 2)])
    inst = DcrInstance(k33, 1, frozenset({0}), frozenset({0}), d=2,
                       core=frozenset({0, 1, 2}))
    with pytest.raises(MalformedInput, match=r"family promise violated: complete "
                       r"bipartite 3x2 subgraph on \(0, 1, 2\) / \(3, 4\)"):
        kernelize(inst)


def test_promise_check_skipped_when_class_bound_already_holds():
    # the promise only bounds classes of large type; when no such class is
    # too big, a graph with a forbidden biclique is still accepted
    k32 = Graph(5, [(i, j) for i in (0, 1, 2) for j in (3, 4)] + [(0, 1)])
    inst = DcrInstance(k32, 1, frozenset({0}), frozenset({1}), d=2,
                       core=frozenset({0, 1}))
    kernel, report = kernelize(inst)  # no big-type class: nothing to protect
    assert report.certified


def test_small_class_bound_on_a_large_core():
    """The bound 2 ** (p * 2 ** |X|) on classes of type 1 and 2 is compared
    by bit length; at |X| = 41 the number itself would not fit in memory."""
    rim = wheel(41).graph
    g = Graph(42, list(rim.edges) + [(1, 41)])
    inst = DcrInstance(g, 2, frozenset({0, 1}), frozenset({0, 1}), d=3, core=frozenset(range(41)))
    kernel, report = kernelize(inst)
    assert report.class_histogram == {1: [1]} and report.small_classes_bounded


def test_kernel_monotone_rules():
    rng = random.Random(17)
    inst = random_dcr(rng, family=K4D_MINOR_FREE)
    for rule in (contract_class_components, prune_three_classes, reduce_twins):
        out = rule(inst)
        assert out.graph.n <= inst.graph.n and out.graph.m <= inst.graph.m
        inst = out


def _truth(inst):
    """The instance's answer: the full vertex set is always a core."""
    return solve_dcr(replace(inst, core=frozenset(range(inst.graph.n)))).reachable


def test_kernel_keeps_the_answer_on_known_counterexamples():
    """Inputs on which an earlier pipeline, with a hub vertex joined to every
    vertex outside the core, turned an unreachable instance reachable."""
    g = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)])
    cases = [DcrInstance(g, 2, frozenset({1, 4}), frozenset({1, 2}), d=2)]
    cases += [gen_dcr_instance(seed, n_max=9, k_max=3, d=2) for seed in (1310, 2276)]
    for inst in cases:
        truth = _truth(inst)
        assert truth is False
        kernel, report = kernelize(inst)
        assert report.certified
        assert solve_dcr(kernel).reachable == truth


@pytest.mark.parametrize("family", [K3D_FREE, K4D_MINOR_FREE])
def test_every_rule_keeps_the_answer_on_a_seeded_sweep(family):
    """Each rule alone, and the whole pipeline, against the search on 1,500
    instances per family; a defect rate near 0.1% needs this many."""
    rng = random.Random(2024)
    rules = [contract_class_components, reduce_twins]
    if family == K4D_MINOR_FREE:
        rules.append(prune_three_classes)
    for i in range(1500):
        inst = random_dcr(rng, family=family)
        truth = solve_dcr(inst).reachable
        for rule in rules:
            assert solve_dcr(rule(inst)).reachable == truth, (i, rule.__name__)
        kernel, _ = kernelize(inst)
        assert solve_dcr(kernel).reachable == truth, (i, "kernelize")


def connected_graphs(n_max):
    """Every connected labelled graph on 1..n_max vertices."""
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if g.is_connected():
                yield g


def test_twin_and_class_rules_keep_the_answer_on_every_small_graph():
    """Where the arguments of ``reduce_twins`` and
    ``contract_class_components`` stop, two tokens on one absorbed vertex or
    component, the search decides; here it does so exhaustively: every
    connected labelled graph with n <= 5 (772 of them), k = 1 and 2, every
    unordered pair of distinct size-k dominating sets as source and target
    (sliding is reversible), with ``compute_core`` of their union.  Each rule
    that fires must keep ``solve_dcr``'s answer, and the core must give the
    answer of the whole vertex set."""
    applied = fired = 0
    for g in connected_graphs(5):
        for k in (1, 2):
            doms = [frozenset(c) for c in itertools.combinations(range(g.n), k)
                    if dominates(g, c, range(g.n))]
            for src, tgt in itertools.combinations(doms, 2):
                inst = DcrInstance(g, k, src, tgt, d=2, core=compute_core(g, k, src | tgt))
                truth = solve_dcr(inst).reachable
                assert truth == _truth(inst), inst
                for rule in (reduce_twins, contract_class_components):
                    out = rule(inst)  # the same object when the rule does not fire
                    applied += 1
                    if out is not inst:
                        assert solve_dcr(out).reachable == truth, (rule.__name__, inst)
                        fired += 1
    assert applied == 23_004 and fired > 1000


def test_prune_three_classes_keeps_the_answer_on_built_fat_pairs():
    """On every built fat pair (``helpers.built_fat_pairs``) the cut fires
    and the search gives the same answer on both sides."""
    for i, inst in enumerate(built_fat_pairs()):
        out = prune_three_classes(inst)
        assert out.graph.m < inst.graph.m
        assert solve_dcr(out).reachable == solve_dcr(inst).reachable, i


@pytest.mark.parametrize("make, sizes, bound, settled", [
    (fan, [*range(8, 39, 6), 62, 122, 250, 494], 14, 8),
    (wheel, [*range(9, 66, 8), 129, 257, 513], 12, 17),
], ids=["fans", "wheels"])
def test_planar_kernel_size_does_not_grow_with_n(make, sizes, bound, settled):
    """At fixed k the kernel of a planar family stays within one bound while
    n grows (fans: n = 14..500 at k = 3; wheels: n = 9..513 at k = 2), and
    from a small n on it is one and the same instance.  Each kernel is
    certified and answers as the search on the whole graph does; that search
    stays cheap at every size here, as the hub keeps one token fixed."""
    first = make(settled)
    expected, _ = kernelize(first)
    for size in sizes:
        inst = make(size)
        kernel, report = kernelize(inst)
        assert report.certified
        assert kernel.graph.n <= bound
        if size >= settled:
            assert kernel == expected, size
        assert solve_dcr(kernel).reachable == _truth(inst)
