import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import certificate_oracle
from reconflab import graphs
from reconflab.acceptance import _small_irreducible
from reconflab.dsr import _first_picks, _joins_every_component
from reconflab.errors import MalformedInput, SizeCapExceeded
from reconflab.graphs import (
    Graph,
    bits,
    complete_graph,
    component_of,
    contains_biclique,
    find_biclique,
    cycle_graph,
    degeneracy,
    dominates,
    find_reducible_vertex,
    mask_of,
    min_feedback_vertex_set,
    neighborhood_classes,
    path_graph,
    quotient,
)
from reconflab.generators import gen_random_tape_instance
from reconflab.reductions import desynchronize_triangle, tape_to_ts_dsr
from reconflab.tapes import extended_graph


def random_graph(rng, n, p=0.5):
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


# ---------------------------------------------------------------- oracles

def ordering_degeneracy(g):
    """Exhaustive min over all elimination orders of the max forward-degree."""
    best = g.n
    verts = list(range(g.n))
    for order in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in verts:
            worst = max(worst, sum(1 for w in g.adj[v] if pos[w] > pos[v]))
        best = min(best, worst)
    return best


def dominates_by_scan(g, d, x):
    d = set(d)
    for v in x:
        if v not in d and not any(w in d for w in g.adj[v]):
            return False
    return True


# ---------------------------------------------------------------- Graph basics

def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(MalformedInput):
        Graph(3, [(0, 0)])
    with pytest.raises(MalformedInput):
        Graph(3, [(0, 5)])


def test_parallel_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_views_derived_from_the_masks_match_the_edge_list():
    """Edges, neighbour tuples, degrees, m, has_edge, equality and the hash
    all follow from the sorted unique pairs, whatever order and orientation
    the edge list came in and however often a pair repeats."""
    rng = random.Random(1515)
    for _ in range(2000):
        n = rng.randint(0, 12)
        pairs = [(u, v) for u, v in itertools.permutations(range(n), 2) if rng.random() < 0.2]
        pairs += rng.choices(pairs, k=rng.randint(0, len(pairs)))
        want = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        g = Graph(n, pairs)
        assert g.edges == tuple(want) and g.m == len(want)
        for v in range(n):
            nbrs = tuple(sorted({b for a, b in want if a == v} | {a for a, b in want if b == v}))
            assert g.adj[v] == nbrs and g.degree(v) == len(nbrs)
            assert all(g.has_edge(v, w) == (w in nbrs) for w in range(n))
        rng.shuffle(pairs)
        h = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
        assert h == g and hash(h) == hash(g) == hash((g.n, g.edges))


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    assert g.components() == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert path_graph(4).is_connected()


def _random_within(rng):
    n = rng.randint(0, 10)
    return random_graph(rng, n, rng.random()), rng.randrange(1 << n)


def test_component_of_peels_the_oracle_components():
    rng = random.Random(4242)
    for _ in range(3000):
        g, within = _random_within(rng)
        peeled, rest = [], within
        while rest:
            comp = component_of(g, rest)
            assert comp and comp & ~rest == 0, (g.edges, rest)
            peeled.append(list(bits(comp)))
            rest ^= comp
        assert component_of(g, 0) == 0
        assert peeled == certificate_oracle.components(g, within), (g.edges, within)
        oracle = certificate_oracle.components(g, g.full_mask)
        assert g.components() == oracle and g.is_connected() == (len(oracle) <= 1)


def test_joins_every_component_matches_the_oracle():
    """Outside rest, the mask holds exactly the v for which rest + v is
    connected; given a mask to start from, it is that mask ANDed in."""
    rng = random.Random(4343)
    for _ in range(3000):
        g, rest = _random_within(rng)
        got = _joins_every_component(g, rest, -1)
        common = rng.randrange(1 << g.n) if g.n else 0
        assert _joins_every_component(g, rest, common) == got & common
        if not rest:
            assert got == -1
            continue
        want = mask_of(v for v in range(g.n) if not rest >> v & 1
                       and len(certificate_oracle.components(g, rest | 1 << v)) == 1)
        assert got & ~rest == want, (g.edges, rest)


def test_first_picks_keeps_every_lowest_pick_of_a_connecting_set():
    """Every lowest vertex of ``picks`` pool vertices that make chosen
    connected is in the mask, on seeded graphs against a scan of the pool's
    subsets; and the mask cuts, or the connected fill would not pay."""
    rng = random.Random(4344)
    cut = 0
    for _ in range(1500):
        g, chosen = _random_within(rng)
        pool = rng.randrange(1 << g.n) & ~chosen if g.n else 0
        picks = rng.randint(1, 4)
        got = _first_picks(g, chosen, pool, picks)
        assert got & ~pool == 0
        want = 0
        for s in itertools.combinations(bits(pool), picks):
            m = chosen | mask_of(s)
            if len(certificate_oracle.components(g, m)) == 1:
                want |= 1 << s[0]
        assert want & ~got == 0, (g.edges, chosen, pool, picks)
        cut += bool(pool & ~got)
    assert cut > 600


def test_nbr_sets_match_adj_are_built_once_and_stay_out_of_equality():
    rng = random.Random(4345)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        h = Graph(g.n, g.edges)
        assert g.nbr_sets is None
        sets = g.neighbor_sets()
        assert g.nbr_sets is sets and g.neighbor_sets() is sets
        assert all(sets[v] == set(g.adj[v]) for v in range(g.n)) and len(sets) == g.n
        assert g == h and hash(g) == hash(h) == hash((g.n, g.edges))


def test_delete_and_merge_helpers():
    g = cycle_graph(5)
    h, remap = quotient(g, {2: None})
    assert h.n == 4 and remap[3] == 2
    assert h.edges == ((0, 1), (0, 3), (2, 3))
    m, _ = quotient(cycle_graph(4), {2: 0})
    assert m.n == 3 and set(m.edges) == {(0, 1), (0, 2)}


# ---------------------------------------------------------------- dominates

def test_dominates_c5():
    g = cycle_graph(5)
    assert dominates(g, {0, 2}, range(5))
    assert not dominates(g, {0, 1}, range(5))


def test_dominates_empty_set_nonempty_graph():
    assert not dominates(path_graph(3), set(), range(3))


def test_dominates_p3_center():
    assert dominates(path_graph(3), {1}, range(3))


def test_dominates_out_of_range():
    with pytest.raises(MalformedInput):
        dominates(path_graph(3), {7}, range(3))


@given(st.integers(0, 2**15 - 1), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_dominates_matches_per_vertex_scan(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    d = {v for v in range(n) if rng.random() < 0.4}
    x = {v for v in range(n) if rng.random() < 0.6}
    assert dominates(g, d, x) == dominates_by_scan(g, d, x)


# ---------------------------------------------------------------- classes

def test_classes_star_center():
    g = Graph(3, [(0, 1), (0, 2)])  # 0 = center
    classes = neighborhood_classes(g, {0})
    assert classes == {frozenset({0}): frozenset({1, 2})}


def test_classes_full_anchor_is_empty():
    assert neighborhood_classes(cycle_graph(4), range(4)) == {}


@given(st.integers(0, 2**15 - 1), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_classes_partition_complement(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    x = {v for v in range(n) if rng.random() < 0.5}
    classes = neighborhood_classes(g, x)
    members = [v for vs in classes.values() for v in vs]
    assert sorted(members) == sorted(set(range(n)) - x)
    for y, vs in classes.items():
        for v in vs:
            assert set(g.adj[v]) & x == set(y)


# ---------------------------------------------------------------- reducible vertex

def test_reducible_twin_leaves():
    g = Graph(3, [(0, 1), (0, 2)])
    assert find_reducible_vertex(g, set()) in (1, 2)


def test_reducible_triangle_all_mutual():
    assert find_reducible_vertex(complete_graph(3), set()) is not None


def test_reducible_none_on_path_with_anchor():
    # P4 with both inner vertices anchored: the two leaves have disjoint
    # neighborhoods inside the anchor, neither absorbs the other.
    g = path_graph(4)
    assert find_reducible_vertex(g, {1, 2}) is None


@given(st.integers(0, 2**15 - 1), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_reducible_vertex_verified_by_pairwise_scan(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    x = {v for v in range(n) if rng.random() < 0.3}
    got = find_reducible_vertex(g, x)
    outside = [v for v in range(n) if v not in x]
    witnesses = [
        u
        for u in outside
        for w in outside
        if w != u and set(g.adj[u]) - {w} <= set(g.adj[w])
    ]
    if got is None:
        assert not witnesses
    else:
        assert got in witnesses


# ---------------------------------------------------------------- degeneracy

def test_degeneracy_named_graphs():
    assert degeneracy(path_graph(5))[0] == 1
    assert degeneracy(Graph(4, [(0, 1), (1, 2), (1, 3)]))[0] == 1
    assert degeneracy(cycle_graph(5))[0] == 2
    assert degeneracy(complete_graph(4))[0] == 3


def test_degeneracy_order_is_witness():
    g = cycle_graph(6)
    d, order = degeneracy(g)
    pos = {v: i for i, v in enumerate(order)}
    for v in range(g.n):
        assert sum(1 for w in g.adj[v] if pos[w] > pos[v]) <= d


@given(st.integers(0, 2**15 - 1), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_degeneracy_matches_ordering_brute_force(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    assert degeneracy(g)[0] == ordering_degeneracy(g)


def test_degeneracy_matches_the_scan():
    """The degree masks give the scan's (d, order), ties on the lowest vertex
    included, on 2,000 seeded random graphs (n = 0-24, sparse ones with
    isolated vertices), edgeless and complete graphs, and the extended and
    sliding-reduction graphs of seeded certify-shaped sources."""
    rng = random.Random(2311)
    cases = [random_graph(rng, rng.randint(0, 24), rng.choice((0.05, 0.2, 0.5, 0.9)))
             for _ in range(2000)]
    cases += [Graph(n) for n in range(4)] + [complete_graph(n) for n in range(1, 9)]
    cases.append(Graph(7, [(1, 2), (2, 4), (1, 4)]))
    for i in range(40):
        art = _small_irreducible(rng, cells=2 if i % 3 else 3, sigma=2)
        cases += [extended_graph(art), tape_to_ts_dsr(art).graph]
    assert sum(g.n and min(map(g.degree, range(g.n))) == 0 for g in cases) > 200
    for g in cases:
        assert degeneracy(g) == certificate_oracle.degeneracy(g), g.edges


# ---------------------------------------------------------------- feedback vertex set

def test_fvs_forest_empty():
    assert min_feedback_vertex_set(path_graph(6)) == frozenset()


def test_fvs_cycle_single():
    assert len(min_feedback_vertex_set(cycle_graph(5))) == 1


def test_fvs_k4_two():
    # Frozen via subset enumeration: K4 minus one vertex is a triangle, so one
    # removal is never enough; two leave a single edge.
    assert len(min_feedback_vertex_set(complete_graph(4))) == 2


def test_fvs_cap(monkeypatch):
    monkeypatch.setattr(graphs, "ENUM_CAP", 10)
    with pytest.raises(SizeCapExceeded):
        min_feedback_vertex_set(complete_graph(12))


PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def fvs_cases() -> list[Graph]:
    """Seeded random graphs, the first C05 artifacts (extended graph and
    sliding-reduction output), the same graphs of two-tape sources shaped as
    certify-reductions draws them (two cells, one or two letters), K4, K6,
    the Petersen graph, cycles, a forest and a disconnected graph."""
    rng = random.Random(4401)
    graphs = [random_graph(rng, rng.randint(0, 10), rng.uniform(0.15, 0.7))
              for _ in range(200)]
    rng = random.Random(7501)  # acceptance C05's seed
    for i in range(12):
        art = _small_irreducible(rng, cells=2 if i % 3 else 3, sigma=2)
        graphs += [extended_graph(art), tape_to_ts_dsr(art).graph]
    for seed in range(6):
        art = desynchronize_triangle(gen_random_tape_instance(seed, tapes=2, cells=2,
                                                              sigma=1 + seed % 2, sync=True))
        assert len(art.tapes) == 3
        graphs += [extended_graph(art), tape_to_ts_dsr(art).graph]
    graphs += [PETERSEN, complete_graph(6)]
    forest = Graph(9, [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6), (6, 7)])
    # a triangle, a K4 sharing nothing with it, a pendant path and two isolated vertices
    apart = Graph(11, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
                       (5, 6), (6, 7), (7, 8)])
    # branching on only the two highest-degree vertices of each shortest cycle
    # misses the minimum here: the search must try every vertex of the cycle
    low_pick = [Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4),
                          (2, 5), (3, 4), (3, 5)]),
                Graph(10, [(0, 3), (0, 9), (1, 2), (1, 3), (1, 4), (1, 7), (2, 4), (2, 5),
                           (2, 6), (3, 5), (3, 6), (3, 7), (3, 8), (4, 6), (4, 7), (5, 9),
                           (6, 8)])]
    return graphs + low_pick + [complete_graph(4), cycle_graph(3), cycle_graph(9), forest, apart]


def test_fvs_matches_oracle():
    for g in fvs_cases():
        got = min_feedback_vertex_set(g)
        assert len(got) == len(certificate_oracle.min_feedback_vertex_set(g)), g
        assert certificate_oracle.is_forest(g.n, g.edges, mask_of(got)), g


def test_fvs_degree_sum_cut_returns_the_max_degree_cut_sets():
    """The largest-degrees cut drops only subtrees without a solution, so
    every case gets the very set the earlier max-degree cut finds."""
    for g in fvs_cases():
        assert min_feedback_vertex_set(g) == certificate_oracle.max_degree_feedback_vertex_set(g), g
    assert len(min_feedback_vertex_set(PETERSEN)) == 3
    assert len(min_feedback_vertex_set(complete_graph(6))) == 4


# ---------------------------------------------------------------- bicliques

def test_biclique_named():
    k33 = Graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert contains_biclique(k33, 3, 3)
    assert not contains_biclique(path_graph(6), 2, 2)
    assert contains_biclique(complete_graph(4), 2, 2)
    assert find_biclique(k33, 3, 3) == ((0, 1, 2), (3, 4, 5))
    assert find_biclique(path_graph(6), 2, 2) is None


def test_biclique_cap(monkeypatch):
    """K_30 has no K_{4,27}, as four vertices share 26 neighbours, but every
    3-prefix shares 27, so no branch is cut before depth 4: the 4,526 nodes
    of depth at most 3 pass a cap of 10 and fit under the default one."""
    monkeypatch.setattr(graphs, "ENUM_CAP", 10)
    with pytest.raises(SizeCapExceeded):
        find_biclique(complete_graph(30), 4, 27)
    monkeypatch.undo()
    assert find_biclique(complete_graph(30), 4, 27) is None


def test_find_biclique_matches_the_subset_scan():
    """The depth-first search against the scan of every a-subset: the same
    (a-side, b-side) tuple, or None, on seeded graphs with n 1-11, a, b 1-4."""
    rng = random.Random(4405)
    found = 0
    for i in range(3000):
        g = random_graph(rng, rng.randint(1, 11), rng.choice((0.2, 0.4, 0.6, 0.8)))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        want = certificate_oracle.find_biclique(g, a, b)
        assert find_biclique(g, a, b) == want, (i, g, a, b)
        found += want is not None
    assert 1000 < found < 2000


@given(st.integers(0, 2**15 - 1), st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_biclique_matches_other_side_enumeration(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    # Oracle enumerates the b-side instead of the a-side.
    oracle = False
    for combo in itertools.combinations(range(n), b):
        common = g.full_mask
        for v in combo:
            common &= g.nbr_mask[v]
        if common.bit_count() >= a:
            oracle = True
            break
    assert contains_biclique(g, a, b) == oracle
    found = find_biclique(g, a, b)
    assert (found is not None) == oracle
    if found is not None:
        left, right = found
        assert len(left) == a and len(set(right)) == b
        assert all(g.has_edge(u, v) for u in left for v in right)
