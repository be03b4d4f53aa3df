import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import certificate_oracle
from reconflab.errors import InfeasibleInstance, MalformedInput, SizeCapExceeded
from reconflab.graphs import (
    Graph,
    contains_biclique,
    dominates,
    find_reducible_vertex,
    neighborhood_classes,
    path_graph,
)
from reconflab.kernel import (
    K3D_FREE,
    K4D_MINOR_FREE,
    DcrInstance,
    add_universal_and_prune_zero_class,
    compute_core,
    contract_class_components,
    fat_pairs,
    kernelize,
    prune_small_type_edges,
    prune_three_classes,
    reduce_twins,
    solve_dcr,
    solve_via_kernel,
    zero_class_of,
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
    from reconflab.kernel import _is_core

    assert _is_core(g, 1, x)
    for v in sorted(x - {0}):
        assert not _is_core(g, 1, x - {v})


def test_full_vertex_set_is_always_a_core():
    from reconflab.kernel import _is_core

    g = path_graph(5)
    assert _is_core(g, 2, frozenset(range(5)))


def core_size_bound(k: int, d: int) -> int:
    return (2 * d + 1) * k ** (d + 1)


def test_core_p5_within_bound():
    g = path_graph(5)
    x = compute_core(g, 2, frozenset())
    from reconflab.kernel import _is_core

    assert _is_core(g, 2, x)
    assert len(x) <= core_size_bound(2, 2)


def test_core_oracle_matches_subset_scan():
    """``_is_core`` against the scan of every subset, on the star, P5 and
    seeded graphs, for every subset x of up to 6 vertices; with a cap between
    the two sizes' subset counts both must raise together."""
    from reconflab.kernel import _is_core

    rng = random.Random(6106)
    graphs = [Graph(4, [(0, 1), (0, 2), (0, 3)]), path_graph(5)]
    graphs += [Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
               for n, p in ((rng.randint(1, 7), rng.choice((0.2, 0.4, 0.6))) for _ in range(25))]
    cores = 0
    for g in graphs:
        for k in range(g.n + 1):
            for size in range(min(g.n, 6) + 1):
                for x in itertools.combinations(range(g.n), size):
                    got = _is_core(g, k, frozenset(x))
                    assert got == certificate_oracle.is_core(g, k, frozenset(x)), (g, k, x)
                    cores += got
        cap = 1 + g.n  # passes size 1, trips at size 2 (n >= 2); V is a core
        if g.n >= 2:
            with pytest.raises(SizeCapExceeded):
                _is_core(g, 2, frozenset(range(g.n)), cap)
            with pytest.raises(SizeCapExceeded):
                certificate_oracle.is_core(g, 2, frozenset(range(g.n)), cap)
    assert cores  # some x is a core, so both answers occur


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
    assert find_reducible_vertex(out.graph, out.core_set()) is None
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


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_add_universal_preserves_answer_and_bounds_zero_class(seed):
    rng = random.Random(seed)
    inst = random_dcr(rng)
    out = add_universal_and_prune_zero_class(inst)
    assert len(zero_class_of(out)) <= 1
    assert solve_dcr(out).reachable == solve_dcr(inst).reachable
    assert add_universal_and_prune_zero_class(out) is out


def test_add_universal_noop_when_core_is_everything():
    g = path_graph(3)
    inst = DcrInstance(g, 1, frozenset({1}), frozenset({1}), d=2,
                       core=frozenset({0, 1, 2}))
    assert add_universal_and_prune_zero_class(inst) is inst


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_prune_small_type_edges_preserves_answer(seed):
    rng = random.Random(seed)
    inst = add_universal_and_prune_zero_class(random_dcr(rng))
    out = prune_small_type_edges(inst)
    assert out.graph.is_connected()
    assert solve_dcr(out).reachable == solve_dcr(inst).reachable


def test_prune_requires_hub():
    # two type-1 classes joined by an edge, no 0-class vertex
    g = Graph(4, [(0, 1), (2, 3), (1, 3), (0, 2)])
    inst = DcrInstance(g, 2, frozenset({0, 2}), frozenset({0, 2}), d=2,
                       core=frozenset({0, 2}))
    with pytest.raises(MalformedInput):
        prune_small_type_edges(inst)


def test_fat_pairs_threshold():
    # complete bipartite between two classes of size kd+1 = 3 each
    edges = [(0, 2), (0, 3)]  # anchors: vertex 0 and 1 in the core
    left = [4, 5, 6]
    right = [7, 8, 9]
    edges += [(0, v) for v in left] + [(1, v) for v in right]
    edges += [(u, v) for u in left for v in right]
    g = Graph(10, edges)
    inst = DcrInstance(g, 1, frozenset({0}), frozenset({0}), d=2,
                       core=frozenset({0, 1, 2, 3}))
    pairs = fat_pairs(inst)
    assert (frozenset({0}), frozenset({1})) in pairs
    assert (frozenset({1}), frozenset({0})) in pairs


def test_single_edge_is_never_fat():
    g = Graph(4, [(0, 1), (2, 3), (1, 3), (0, 2)])
    inst = DcrInstance(g, 1, frozenset({0}), frozenset({0}), d=1,
                       core=frozenset({0, 2}))
    assert all(len(a) != 1 or False for a, _ in fat_pairs(inst)) or fat_pairs(inst) == []


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
    # the pipeline's own hub can create bicliques, so kernels must re-enter
    # kernelize without tripping the promise check
    k32 = Graph(5, [(i, j) for i in (0, 1, 2) for j in (3, 4)] + [(0, 1)])
    inst = DcrInstance(k32, 1, frozenset({0}), frozenset({1}), d=2,
                       core=frozenset({0, 1}))
    kernel, report = kernelize(inst)  # no big-type class: nothing to protect
    assert report.certified


def test_kernel_monotone_rules():
    rng = random.Random(17)
    inst = add_universal_and_prune_zero_class(random_dcr(rng))
    for rule in (contract_class_components, prune_small_type_edges, reduce_twins):
        out = rule(inst)
        assert (out.graph.n + out.graph.m) <= (inst.graph.n + inst.graph.m)
        inst = out
