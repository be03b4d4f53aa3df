import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import certificate_oracle
import dsr_oracle
from dsr_oracle import minimum_dominating_sets, successors
from helpers import fan, one_sided_path, two_ended_count, wheel
from reconflab import dsr, graphs, tapes
from reconflab.acceptance import _small_irreducible
from reconflab.dsr import (
    JUMP,
    SLIDE,
    DsrInstance,
    dominating_sets_of_size,
    enumerate_dominating_sets,
    is_feasible,
    solve,
    verify_witness,
)
from reconflab.errors import InfeasibleInstance, MalformedInput, SizeCapExceeded, StateCapExceeded
from reconflab.graphs import (Graph, complete_graph, cycle_graph, dominates, mask_of, path_graph,
                              set_of)
from reconflab.reductions import tape_to_tj_cdsr
from test_tapes import oracle_cases, wrapping_sync_instance


# ------------------------------------------------------------------ oracle

def dfs_reachable_oracle(inst):
    """Recursive DFS over an independently built configuration graph.

    Recomputes feasibility and adjacency from scratch (no calls into the
    engine) so it can act as a second opinion.
    """
    g = inst.graph
    core = set(inst.core) if inst.core is not None else set(range(g.n))

    def feasible(config):
        if len(config) != inst.k:
            return False
        for x in core:
            if x not in config and not any(w in config for w in g.adj[x]):
                return False
        if inst.connected and len(config) > 1:
            members = sorted(config)
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                u = stack.pop()
                for w in g.adj[u]:
                    if w in config and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(config):
                return False
        if inst.partition is not None:
            for part in inst.partition:
                if len(config & part) != 1:
                    return False
        return True

    def adjacent(a, b):
        gone, new = a - b, b - a
        if len(gone) != 1 or len(new) != 1:
            return False
        (u,), (v,) = gone, new
        if inst.rule == SLIDE and v not in g.adj[u]:
            return False
        if inst.partition is not None:
            part = next((p for p in inst.partition if u in p), None)
            if part is None or v not in part:
                return False
        return True

    nodes = [frozenset(c) for c in itertools.combinations(range(g.n), inst.k) if feasible(frozenset(c))]
    seen = set()

    def dfs(cur):
        if cur == inst.target:
            return True
        seen.add(cur)
        for nxt in nodes:
            if nxt not in seen and adjacent(cur, nxt) and dfs(nxt):
                return True
        return False

    return dfs(inst.source)


def p3_instance(rule=SLIDE, source=(0, 1), target=(1, 2)):
    return DsrInstance(path_graph(3), 2, frozenset(source), frozenset(target), rule)


def random_instance(rng, n_max=6, k_max=3, rule=None, connected_flag=False):
    while True:
        n = rng.randint(2, n_max)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55])
        k = rng.randint(1, min(k_max, n - 1))
        rule_ = rule or rng.choice([SLIDE, JUMP])
        inst0 = DsrInstance(g, k, frozenset(), frozenset(), rule_, connected_flag)
        feas = [frozenset(c) for c in itertools.combinations(range(n), k)
                if is_feasible(DsrInstance(g, k, frozenset(range(k)), frozenset(range(k)), rule_, connected_flag,
                                           core=None), frozenset(c))]
        if len(feas) < 2:
            continue
        src, tgt = rng.sample(feas, 2)
        return DsrInstance(g, k, src, tgt, rule_, connected_flag)


# ------------------------------------------------------------------ feasibility

def feasibility_cases() -> list[tuple[DsrInstance, frozenset[int]]]:
    """(instance, set) pairs: seeded graphs with n = 0-8, connected on and
    off, with and without a core and a partition, k = 0-4, and every set of
    size k - 1, k and k + 1; then every set of acceptance C06's six artifacts
    that its guard queries' (forced, banned) masks give without the
    connected cut, and every budget-size dominating set of its two-tape
    artifacts."""
    from reconflab import reductions

    rng = random.Random(1707)
    cases = []
    for _ in range(300):
        n = rng.randint(0, 8)
        p = rng.choice((0.2, 0.4, 0.7))
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        k = rng.randint(0, min(n, 4))
        core = rng.choice((None, frozenset(v for v in range(n) if rng.random() < 0.5)))
        partition = None
        if k and rng.random() < 0.3:
            verts = rng.sample(range(n), rng.randint(k, n))
            cuts = sorted(rng.sample(range(1, len(verts)), k - 1))
            partition = tuple(frozenset(verts[a:b]) for a, b in zip([0] + cuts, cuts + [len(verts)]))
        inst = DsrInstance(g, k, frozenset(), frozenset(), SLIDE, rng.random() < 0.6, core,
                           partition)
        cases += [(inst, frozenset(c)) for size in range(max(k - 1, 0), k + 2)
                  for c in itertools.combinations(range(n), size)]
    rng = random.Random(7601)  # acceptance C06's seed

    def guard_sets(g, size, forced, banned, connected):
        cases.extend((cd, d) for d in enumerate_dominating_sets(g, size, forced=forced,
                                                                banned=banned))
        return iter(())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reductions, "enumerate_dominating_sets", guard_sets)
        for _ in range(6):
            art = _small_irreducible(rng, cells=2, sigma=2)
            cd = tape_to_tj_cdsr(art)
            assert reductions.check_guard_containment(cd)
            if len(art.tapes) == 2:
                cases += [(cd, d) for d in enumerate_dominating_sets(cd.graph, cd.k)]
    return cases


def test_is_feasible_matches_the_plain_order():
    """Isolated vertex, flood fill, then domination gives the answer of
    domination, then flood fill, on every case."""
    seen = {}
    for inst, d in feasibility_cases():
        got = is_feasible(inst, d)
        assert got == dsr_oracle.plain_is_feasible(inst, d), (inst, sorted(d))
        key = (inst.connected, inst.partition is not None, min(len(d), 2), len(d) == inst.k, got)
        seen[key] = seen.get(key, 0) + 1  # (connected, partitioned, size, size k, answer)
    for case in itertools.product((False, True), (False, True), (0, 1, 2)):
        assert seen.get((*case, False, False)), case  # a set of the wrong size
        if case[2] or not case[1]:  # a partition here has a part, so k >= 1
            assert seen.get((*case, True, True)) and seen.get((*case, True, False)), case
    assert seen[(True, False, 2, True, False)] > 100_000 and seen[(True, False, 2, True, True)] > 50


def test_is_feasible_rejects_an_isolated_vertex_before_the_flood_fill(monkeypatch):
    """{1, 3} dominates the path 0-4 and neither vertex has a neighbour in
    it, so a connected instance refuses it on the set itself, without
    building its mask (``mask_of``) or calling ``component_of``."""
    inst = DsrInstance(path_graph(5), 2, frozenset(), frozenset(), connected=True)

    def flood_fill(g, within):
        raise AssertionError("component_of called")

    def mask(vertices):
        raise AssertionError("mask_of called")

    monkeypatch.setattr(dsr, "component_of", flood_fill)
    monkeypatch.setattr(dsr, "mask_of", mask)
    assert not is_feasible(inst, frozenset({1, 3}))
    assert not is_feasible(replace(inst, k=3), frozenset({0, 1, 3}))


# ------------------------------------------------------------------ successors

def test_successors_p3_slide():
    inst = p3_instance()
    assert successors(inst, frozenset({0, 1})) == [frozenset({0, 2})]


def test_successors_c6_pinned():
    inst = DsrInstance(cycle_graph(6), 2, frozenset({0, 3}), frozenset({1, 4}), SLIDE)
    assert successors(inst, frozenset({0, 3})) == []


def test_successors_jump_full_board():
    g = complete_graph(3)
    inst = DsrInstance(g, 3, frozenset({0, 1, 2}), frozenset({0, 1, 2}), JUMP)
    assert successors(inst, frozenset({0, 1, 2})) == []


def test_successors_rejects_infeasible():
    inst = p3_instance()
    with pytest.raises(MalformedInput):
        successors(inst, frozenset({0, 2, 1}))


# ------------------------------------------------------------------ solve

def test_solve_identity():
    inst = p3_instance(source=(0, 1), target=(0, 1))
    res = solve(inst)
    assert res.reachable and res.witness == (frozenset({0, 1}),)


def test_solve_p3_two_moves():
    res = solve(p3_instance())
    assert res.reachable
    assert res.witness == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))


def test_solve_frozen_c6_unreachable():
    inst = DsrInstance(cycle_graph(6), 2, frozenset({0, 3}), frozenset({1, 4}), SLIDE)
    res = solve(inst)
    assert not res.reachable


def test_solve_state_cap():
    g = complete_graph(8)
    inst = DsrInstance(g, 2, frozenset({0, 1}), frozenset({6, 7}), JUMP)
    with pytest.raises(StateCapExceeded):
        solve(inst, state_cap=2)


def test_solve_disconnected_components_token_mismatch():
    g = Graph(4, [(0, 1), (2, 3)])
    inst = DsrInstance(g, 2, frozenset({0, 2}), frozenset({0, 1}), SLIDE)
    with pytest.raises(MalformedInput):
        # target leaves component {2,3} undominated: infeasible configuration
        solve(inst)


def test_solve_disconnected_split_reachable():
    # two P3s side by side, one token each, both slide one step
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    inst = DsrInstance(g, 2, frozenset({1, 4}), frozenset({1, 4}), SLIDE)
    res = solve(inst)
    assert res.reachable
    # moving targets within components
    inst2 = DsrInstance(g, 2, frozenset({1, 4}), frozenset({1, 4}), SLIDE,
                        core=frozenset({1, 4}))
    res2 = solve(inst2)
    assert res2.reachable and verify_witness(inst2, list(res2.witness))


def split_case(rng, cored):
    """A sliding instance on two to four components with two distinct
    feasible configurations, with or without a core."""
    while True:
        n = rng.randint(4, 12)
        parts = rng.randint(2, 4)
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        comp = [sum(v >= c for c in cuts) for v in range(n)]
        p = rng.uniform(0.3, 0.8)
        g = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                      if comp[u] == comp[v] and rng.random() < p])
        k = rng.randint(1, min(5, n - 1))
        core = frozenset(v for v in range(n) if rng.random() < 0.5) if cored else None
        probe = DsrInstance(g, k, frozenset(), frozenset(), SLIDE, core=core)
        feas = [frozenset(c) for c in itertools.combinations(range(n), k)
                if is_feasible(probe, frozenset(c))]
        if len(feas) >= 2 and not g.is_connected():
            src, tgt = rng.sample(feas, 2)
            return DsrInstance(g, k, src, tgt, SLIDE, core=core)


@pytest.mark.parametrize("cored", [False, True], ids=["no-core", "core"])
def test_solve_stitches_the_components_witnesses(cored):
    """The per-component search on the input graph gives what the search on
    relabelled subgraphs gave; every stitched witness replays, and is as
    short as a search of the whole instance finds."""
    rng = random.Random(f"split-{cored}")
    stitched = 0
    for _ in range(150):
        inst = split_case(rng, cored)
        res = solve(inst)
        assert res == dsr_oracle.solve_per_component(inst)
        whole = dsr_oracle.bfs(inst, dsr.DEFAULT_STATE_CAP)
        assert res.reachable == whole.reachable
        if res.reachable:
            assert verify_witness(inst, list(res.witness))
            assert len(res.witness) == len(whole.witness)
            moved = {v for a, b in zip(res.witness, res.witness[1:]) for v in a ^ b}
            stitched += len({c for c, comp in enumerate(inst.graph.components())
                             if moved & set(comp)}) > 1
    assert stitched >= 10  # witnesses that move tokens in two components or more


def test_partitioned_moves_stay_in_part():
    g = complete_graph(4)
    inst = DsrInstance(
        g, 2, frozenset({0, 2}), frozenset({1, 3}), JUMP,
        partition=(frozenset({0, 1}), frozenset({2, 3})),
    )
    res = solve(inst)
    assert res.reachable
    for d in res.witness:
        assert len(d & {0, 1}) == 1 and len(d & {2, 3}) == 1


def test_partition_vertex_out_of_range_rejected():
    g = path_graph(3)
    inst = DsrInstance(g, 1, frozenset({1}), frozenset({1}), JUMP,
                       partition=(frozenset({1, 9}),))
    with pytest.raises(MalformedInput, match="partition vertex 9"):
        solve(inst)


# ------------------------------------------------------------------ bitmask kernel vs oracle

def solve_with_oracle(inst):
    """``solve`` with the frozenset reference search in place of the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsr, "_bfs", dsr_oracle.bfs)
        return solve(inst)


def kernel_case(rng, kind):
    """A random instance of one kind with two distinct feasible configurations."""
    while True:
        n = rng.randint(3, 10)
        p = rng.uniform(0.2, 0.6)
        if kind == "disconnected":
            cut = rng.randint(1, n - 1)
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if (u < cut) == (v < cut) and rng.random() < p]
        else:
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        if kind == "disconnected" and g.is_connected():
            continue
        rule = SLIDE if kind in ("slide", "connected-slide", "disconnected") else JUMP
        if kind in ("core", "partitioned"):
            rule = rng.choice([SLIDE, JUMP])
        k = rng.randint(1, min(5, n - 1))
        core = partition = None
        if kind == "core":
            core = frozenset(v for v in range(n) if rng.random() < 0.5)
        if kind == "partitioned":
            verts = rng.sample(range(n), n)
            covered = rng.randint(1, n)
            parts_n = rng.randint(1, min(3, covered))
            cuts = sorted(rng.sample(range(1, covered), parts_n - 1))
            partition = tuple(frozenset(verts[a:b]) for a, b in zip([0] + cuts, cuts + [covered]))
            k = parts_n + rng.randint(0, min(2, n - covered))
        probe = DsrInstance(g, k, frozenset(), frozenset(), rule, kind.startswith("connected"),
                            core, partition)
        feas = [frozenset(c) for c in itertools.combinations(range(n), k)
                if is_feasible(probe, frozenset(c))]
        if len(feas) >= 2:
            src, tgt = rng.sample(feas, 2)
            return DsrInstance(g, k, src, tgt, rule, probe.connected, core, partition)


def tj_cdsr_case(rng):
    """A ``tape_to_tj_cdsr`` output with its own source and target: 45+
    vertices, where D - u often splits into several components."""
    art = _small_irreducible(rng, cells=2, sigma=2)
    return tape_to_tj_cdsr(art)


@pytest.mark.parametrize("kind", ["slide", "jump", "core", "connected-slide", "connected-jump",
                                  "partitioned", "disconnected", "tj-cdsr"])
def test_kernel_matches_oracle_search(kind):
    rng = random.Random(f"kernel-{kind}")
    for _ in range(100):
        inst = tj_cdsr_case(rng) if kind == "tj-cdsr" else kernel_case(rng, kind)
        assert solve(inst) == solve_with_oracle(inst)


def test_kernel_moves_tokens_outside_every_part():
    # 3 and 4 lie in no part, so the token on 3 may jump to 4
    inst = DsrInstance(path_graph(5), 2, frozenset({1, 3}), frozenset({1, 4}), JUMP,
                       partition=(frozenset({0, 1, 2}),))
    res = solve(inst)
    assert res.reachable and res == solve_with_oracle(inst)


# ------------------------------------------------------------------ the search from both ends

def test_bfs_returns_the_one_sided_path():
    """On the vertices of seeded graphs, some disconnected, with each vertex's
    successor list shuffled once: ``bfs`` returns the path of a search from
    the start alone and stores what ``two_ended_count`` counts, and a cap one
    below that count stops it exactly when it stored a state besides start
    and goal."""
    rng = random.Random("two-ended")
    long_paths = disconnected = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.5)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        disconnected += not g.is_connected()
        order = [rng.sample(g.adj[v], len(g.adj[v])) for v in range(n)]

        def step(v, visited):
            return [w for w in order[v] if w not in visited]

        for start, goal in itertools.product(range(n), repeat=2):
            path, explored = dsr.bfs(start, goal, step, n)
            assert path == one_sided_path(start, goal, order.__getitem__), (g.edges, order)
            assert explored == two_ended_count(start, goal, order.__getitem__, n)
            try:
                dsr.bfs(start, goal, step, explored - 1)
                capped = False
            except StateCapExceeded:
                capped = True
            assert capped == (explored > len({start, goal}))
            long_paths += path is not None and len(path) > 3
    assert long_paths and disconnected


def bfs_successors(inst: DsrInstance):
    """The successor function ``dsr._bfs`` hands to ``dsr.bfs``."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsr, "bfs", lambda start, goal, successors, cap: got.append(successors)
                   or (None, 0))
        dsr._bfs(inst, 0)
    return got[0]


def test_moves_are_reversible():
    """y is a successor of x iff x is one of y, on every state reachable from
    the start, for token and head moves alike: the search from both ends
    grows the goal side along successors."""
    rng = random.Random("reversible")
    searches = []
    for kind in ["slide", "jump", "core", "connected-slide", "connected-jump", "partitioned",
                 "disconnected", "tj-cdsr"]:
        for _ in range(30):
            inst = tj_cdsr_case(rng) if kind == "tj-cdsr" else kernel_case(rng, kind)
            searches.append((mask_of(inst.source), bfs_successors(inst)))
    for inst in oracle_cases() + [wrapping_sync_instance(rng) for _ in range(30)]:
        encode, _, step = tapes._kernel(inst)
        searches.append((encode(inst.cs), step))
    for start, step in searches:
        moves, todo = {}, [start]
        while todo:
            x = todo.pop()
            if x not in moves:
                moves[x] = set(step(x, {}))
                todo += moves[x]
        assert all(x in moves[y] for x in moves for y in moves[x])


# ------------------------------------------------------------------ witnesses

def test_verify_witness_identity():
    inst = p3_instance(source=(0, 1), target=(0, 1))
    assert verify_witness(inst, [frozenset({0, 1})])


def test_verify_witness_rejects_undominated_step():
    inst = p3_instance()
    bad = [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1})]
    assert not verify_witness(inst, bad)  # last != target
    assert not verify_witness(inst, [frozenset({0, 1}), frozenset({1, 2})])  # not one slide


def oracle_verify(inst, seq):
    """``verify_witness`` on the oracle's feasibility test and move rule."""
    return (bool(seq) and seq[0] == inst.source and seq[-1] == inst.target
            and all(dsr_oracle.plain_is_feasible(inst, d) for d in seq)
            and all(dsr_oracle.is_legal_move(inst, a, b) for a, b in zip(seq, seq[1:])))


def witness_mutants(rng, inst, seq):
    """``seq`` with one step dropped, two steps swapped, and one vertex moved
    to a vertex that is no neighbour of it or lies in another part."""
    out = []
    if len(seq) > 2:
        i = rng.randrange(1, len(seq) - 1)
        out.append(seq[:i] + seq[i + 1:])
    if len(seq) > 1:
        i, j = sorted(rng.sample(range(len(seq)), 2))
        out.append(seq[:i] + [seq[j]] + seq[i + 1:j] + [seq[i]] + seq[j + 1:])
    g, i = inst.graph, rng.randrange(len(seq))
    u = rng.choice(sorted(seq[i]))
    far = [v for v in range(g.n) if v not in seq[i] and (
        not g.has_edge(u, v) or dsr_oracle.part_of(inst, u) != dsr_oracle.part_of(inst, v))]
    if far:
        out.append(seq[:i] + [seq[i] - {u} | {rng.choice(far)}] + seq[i + 1:])
    return out


def outside_part_case(rng):
    """A partitioned ``kernel_case`` with a token outside every part."""
    while (inst := kernel_case(rng, "partitioned")).k == len(inst.partition):
        pass
    return inst


@pytest.mark.parametrize("kind", ["slide", "jump", "core", "connected-slide", "connected-jump",
                                  "partitioned", "disconnected", "tj-cdsr", "outside-part"])
def test_verify_witness_agrees_with_an_oracle_replay(kind):
    """On the solver's witnesses, the source-target jump and mutants of both."""
    rng = random.Random(f"replay-{kind}")
    verdicts = set()
    for _ in range(30):
        inst = (tj_cdsr_case(rng) if kind == "tj-cdsr" else outside_part_case(rng)
                if kind == "outside-part" else kernel_case(rng, kind))
        res = solve(inst)
        seqs = [[inst.source, inst.target]] + ([list(res.witness)] if res.reachable else [])
        for seq in seqs + [m for seq in seqs for m in witness_mutants(rng, inst, seq)]:
            verdict = verify_witness(inst, seq)
            assert verdict == oracle_verify(inst, seq), (inst, seq)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=80, deadline=None)
def test_witnesses_verify_and_match_dfs_oracle(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    res = solve(inst)
    assert res.reachable == dfs_reachable_oracle(inst)
    if res.reachable:
        assert verify_witness(inst, list(res.witness))


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=40, deadline=None)
def test_reachability_symmetric(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    swapped = DsrInstance(inst.graph, inst.k, inst.target, inst.source, inst.rule,
                          inst.connected, inst.core, inst.partition)
    assert solve(inst).reachable == solve(swapped).reachable


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=40, deadline=None)
def test_slide_reachability_implies_jump(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rule=SLIDE)
    if solve(inst).reachable:
        jumped = DsrInstance(inst.graph, inst.k, inst.source, inst.target, JUMP,
                             inst.connected, inst.core, inst.partition)
        assert solve(jumped).reachable


# ------------------------------------------------------------------ enumeration

def test_minimum_dominating_sets_p3():
    assert minimum_dominating_sets(path_graph(3), 1) == [frozenset({1})]


def test_minimum_dominating_sets_c5_rotations():
    got = minimum_dominating_sets(cycle_graph(5), 2)
    expect = [frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3}),
              frozenset({1, 4}), frozenset({2, 4})]
    assert sorted(got, key=sorted) == expect


def test_minimum_dominating_sets_star():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert minimum_dominating_sets(g, 1) == [frozenset({0})]


def test_minimum_dominating_sets_reports_smaller():
    # bound k=2 but the star has domination number 1: result exposes size 1
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    got = minimum_dominating_sets(g, 2)
    assert got == [frozenset({0})]


def test_minimum_dominating_sets_infeasible():
    g = Graph(4, [])
    with pytest.raises(InfeasibleInstance):
        minimum_dominating_sets(g, 2)


def enumerator_cases() -> list[tuple[Graph, int]]:
    """Seeded graphs at every size from 0 to n + 1, graphs with isolated
    vertices, and connected-jumping reduction outputs at and below their
    budget."""
    rng = random.Random(4402)
    cases = []
    for _ in range(40):
        n = rng.randint(0, 9)
        p = rng.choice((0.2, 0.4, 0.6))
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        cases += [(g, size) for size in range(n + 2)]
    for g in (Graph(6, [(0, 1), (1, 2)]), Graph(5, [(1, 3)]), Graph(3, []), Graph(0, [])):
        cases += [(g, size) for size in range(g.n + 2)]
    rng = random.Random(7601)  # acceptance C06's seed
    outputs: list[Graph] = []
    while len(outputs) < 3:  # the first artifact, then two distinct two-tape ones
        art = _small_irreducible(rng, cells=2, sigma=2)
        cd = tape_to_tj_cdsr(art)
        if cd.graph not in outputs and (not outputs or len(art.tapes) <= 2):
            outputs.append(cd.graph)
            # three tapes give ~500k sets at the budget; stay two below it there
            top = cd.k - 2 if len(art.tapes) > 2 else cd.k
            cases += [(cd.graph, top - 1), (cd.graph, top)]
    return cases


def test_enumerator_matches_oracle():
    """The default call against the recursive oracle, in order.  The
    target/forced/banned modes against a filter on every size-subset, as
    sorted lists, on the cases small enough to scan: masks drawn per case,
    plus forced and banned overlapping and more forced vertices than slots."""
    rng = random.Random(4403)
    checked = 0
    for g, size in enumerator_cases():
        got = list(enumerate_dominating_sets(g, size))
        assert got == list(certificate_oracle.enumerate_dominating_sets(g, size)), (g, size)
        if g.n > 9:
            continue

        def draw(p):
            return mask_of(v for v in range(g.n) if rng.random() < p)

        queries = [(draw(0.5), 0, 0), (None, draw(0.2), 0), (None, 0, draw(0.3)),
                   (draw(0.6), draw(0.15), draw(0.2)), (None, draw(0.3), draw(0.3)),
                   (g.full_mask, g.full_mask, 0), (0, 0, g.full_mask)]
        for target, forced, banned in queries:
            want = [
                frozenset(c) for c in itertools.combinations(range(g.n), size)
                if dominates(g, c, set_of(g.full_mask if target is None else target))
                and forced & ~mask_of(c) == 0 and banned & mask_of(c) == 0
            ]
            got = list(enumerate_dominating_sets(g, size, target, forced, banned))
            assert len(got) == len(set(got))
            assert sorted(got, key=sorted) == want, (g, size, target, forced, banned)
            checked += bool(want)
    assert checked > 100


def c06_two_tape_artifacts():
    """The first two distinct tj-cdsr artifacts of two tapes that acceptance
    C06's seed draws (its 5th and 12th draws, on 45 and 46 vertices)."""
    rng = random.Random(7601)
    artifacts = []
    while len(artifacts) < 2:
        art = _small_irreducible(rng, cells=2, sigma=2)
        cd = tape_to_tj_cdsr(art)
        if len(art.tapes) == 2 and all(cd.graph != a.graph for a in artifacts):
            artifacts.append(cd)
    return artifacts


def order_oracle_queries() -> list[tuple[Graph, int, int | None, int, int]]:
    """(graph, size, target, forced, banned) queries for the order oracle:
    ``enumerator_cases`` with masks drawn per case in every mode; the masks
    ``check_guard_containment`` asks (as plain queries here) and the plain
    guard queries it replaced,
    on acceptance C06's two-tape artifacts at their budget; seeded graphs with
    n up to 14; and the queries ``kernel.compute_core`` asks on fans and
    wheels (target X - v, banned N[v]), recorded from real calls with and
    without the token sets forced into the core."""
    from reconflab import kernel, reductions

    rng = random.Random(4404)

    def draw(n, p):
        return mask_of(v for v in range(n) if rng.random() < p)

    queries = []
    for g, size in enumerator_cases():
        if g.n <= 9:
            queries += [(g, size, None, 0, 0), (g, size, draw(g.n, 0.5), 0, 0),
                        (g, size, None, draw(g.n, 0.2), 0), (g, size, None, 0, draw(g.n, 0.3)),
                        (g, size, draw(g.n, 0.6), draw(g.n, 0.15), draw(g.n, 0.2))]
    for _ in range(150):
        n = rng.randint(10, 14)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < rng.choice((0.15, 0.3, 0.5))])
        queries.append((g, rng.randint(1, 6), rng.choice((None, draw(n, 0.7))),
                        draw(n, rng.choice((0, 0.1))), draw(n, rng.choice((0, 0.2)))))
    for cd in c06_two_tape_artifacts():
        asked = []

        def record(g, size, forced, banned, connected):
            asked.append((g, size, None, forced, banned))
            return iter(())

        reductions_enum = reductions.enumerate_dominating_sets
        reductions.enumerate_dominating_sets = record
        try:
            assert reductions.check_guard_containment(cd)
        finally:
            reductions.enumerate_dominating_sets = reductions_enum
        plain = certificate_oracle.plain_guard_queries(cd.provenance)
        queries += asked + [(cd.graph, cd.k, None, f, b) for f, b in plain]
    asked = []

    def record(g, size, target, forced=0, banned=0):
        asked.append((g, size, target, forced, banned))
        return enumerate_dominating_sets(g, size, target, forced, banned)

    kernel_enum = kernel.enumerate_dominating_sets
    kernel.enumerate_dominating_sets = record
    try:
        for inst in [fan(m) for m in (8, 14, 20)] + [wheel(n) for n in (9, 17, 25, 33)]:
            kernel.compute_core(inst.graph, inst.k, inst.source | inst.target)
            kernel.compute_core(inst.graph, inst.k, frozenset())
    finally:
        kernel.enumerate_dominating_sets = kernel_enum
    return queries + asked


def test_enumerator_keeps_the_unpruned_order():
    """The packing bound prunes only nodes that yield nothing, so every query
    gives the same sets in the same order as the unpruned stack enumerator;
    lists are compared as they come, not sorted."""
    answered = unanswered = 0
    for g, size, target, forced, banned in order_oracle_queries():
        want = list(certificate_oracle.unpruned_dominating_sets(g, size, target, forced, banned))
        assert list(enumerate_dominating_sets(g, size, target, forced, banned)) == want, (
            g, size, target, forced, banned)
        answered += bool(want)
        unanswered += not want
    assert answered > 900 and unanswered > 900


def test_connected_mode_matches_the_oracle():
    """``connected=True`` gives the plain sets that induce a connected graph,
    in their order: on every order-oracle query, and on seeded graphs, sparse
    to dense, with target, forced and banned masks drawn per query."""
    rng = random.Random(4405)
    queries = order_oracle_queries()
    for _ in range(600):
        n = rng.randint(2, 13)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < rng.choice((0.15, 0.25, 0.4, 0.7))])

        def draw(p):
            return mask_of(v for v in range(n) if rng.random() < p)

        queries.append((g, rng.randint(0, min(n, 7)), rng.choice((None, draw(0.6), 0)),
                        draw(rng.choice((0, 0.1, 0.25))), draw(rng.choice((0, 0.15)))))
    answered = unanswered = filled = 0
    for g, size, target, forced, banned in queries:
        want = list(certificate_oracle.connected_dominating_sets(g, size, target, forced, banned))
        got = list(enumerate_dominating_sets(g, size, target, forced, banned, connected=True))
        assert got == want, (g.edges, size, target, forced, banned)
        answered += bool(want)
        unanswered += not want
        filled += any(len(d) > 2 for d in want) and target == 0
    assert answered > 900 and unanswered > 1500 and filled > 60


def test_connected_fill_counts_its_nodes_against_the_cap(monkeypatch):
    """With nothing to dominate, a plain query fills its slots with one
    ``combinations`` and branches on nothing; a connected one picks its slots
    but the last one node at a time.  On K4 with three slots that is the
    root, then the nodes with 0 and 1 picked: a cap of 3 passes, 2 stops it."""
    g = complete_graph(4)
    monkeypatch.setattr(graphs, "ENUM_CAP", 0)
    want = list(enumerate_dominating_sets(g, 3, target=0))
    assert len(want) == 4
    monkeypatch.setattr(graphs, "ENUM_CAP", 3)
    assert list(enumerate_dominating_sets(g, 3, target=0, connected=True)) == want
    monkeypatch.setattr(graphs, "ENUM_CAP", 2)
    with pytest.raises(SizeCapExceeded):
        list(enumerate_dominating_sets(g, 3, target=0, connected=True))


def test_enumerator_gives_the_lowest_vertex_sets():
    """Branching on the vertex with the fewest dominators left changes only
    the order: every query gives each set once, and the same sets as the
    stack that branches on the lowest undominated vertex."""
    for g, size, target, forced, banned in order_oracle_queries():
        got = list(enumerate_dominating_sets(g, size, target, forced, banned))
        want = certificate_oracle.unpruned_dominating_sets(g, size, target, forced, banned,
                                                           lowest=True)
        assert len(got) == len(set(got))
        assert sorted(got, key=sorted) == sorted(want, key=sorted), (g, size, target, forced, banned)


def test_guard_budget_enumeration_fits_its_node_count(monkeypatch):
    """Every budget-size dominating set of C06's two-tape artifacts (45 and 46
    vertices, k = 7, 4,549 and 4,571 sets) takes 118 and 105 branching nodes;
    branching on the lowest undominated vertex took 464 on the first.  A cap
    of 232 pins the gap."""
    monkeypatch.setattr(graphs, "ENUM_CAP", 232)
    counts = [sum(1 for _ in enumerate_dominating_sets(cd.graph, cd.k))
              for cd in c06_two_tape_artifacts()]
    assert counts == [4549, 4571]


def test_enumerator_counts_its_branching_nodes_against_the_cap(monkeypatch):
    """On P5 the sets of size 2 take one branching node, the root, whose
    children each have one slot left and take the last vertex as a mask;
    size 1 takes none.  So a cap of 0 stops size 2 and not size 1, and a cap
    of 1 lets size 2 through with the same sets."""
    g = path_graph(5)
    want = list(enumerate_dominating_sets(g, 2))
    monkeypatch.setattr(graphs, "ENUM_CAP", 0)
    assert list(enumerate_dominating_sets(g, 1)) == []
    with pytest.raises(SizeCapExceeded):
        list(enumerate_dominating_sets(g, 2))
    with pytest.raises(SizeCapExceeded):
        dsr.has_dominating_set(g, 2)
    monkeypatch.setattr(graphs, "ENUM_CAP", 1)
    assert list(enumerate_dominating_sets(g, 2)) == want == [{0, 3}, {1, 3}, {1, 4}]


def test_enumerator_stays_lazy(monkeypatch):
    """On the star with centre 0 and leaves 1-4, size 3 branches at the root
    on N[1] = {0, 1}.  Its first child, 0, dominates everything and is filled
    with pairs of leaves; its second, 1, is a second branching node.  With a
    cap of 1 the call raises nothing, the fill's first set comes out, and only
    iterating on to that second node raises."""
    g = Graph(5, [(0, v) for v in range(1, 5)])
    monkeypatch.setattr(graphs, "ENUM_CAP", 1)
    sets = enumerate_dominating_sets(g, 3)
    assert next(sets) == {0, 1, 2}
    with pytest.raises(SizeCapExceeded):
        list(sets)


def test_coverage_bound_ignores_banned_vertices(monkeypatch):
    """With wheel(33)'s rim vertex 1 and its closed neighbourhood, the hub
    included, banned, every vertex left dominates 4 of the 32 targets, so two
    cannot cover them: the bound refutes the query before any branching node,
    while a bound taken over the hub's 33 would have to branch."""
    g = wheel(33).graph
    monkeypatch.setattr(graphs, "ENUM_CAP", 0)
    assert list(enumerate_dominating_sets(g, 2, g.full_mask ^ 1 << 1,
                                          banned=g.closed_mask[1])) == []


@pytest.mark.parametrize("legs", [20, 40])
def test_spider_below_its_domination_number_is_refuted_at_once(legs):
    """A hub with ``legs`` legs of length two needs one vertex per leg, so
    its domination number is ``legs``.  At k = legs - 1 every child of the
    root leaves legs - 1 or more leg ends pairwise four apart for at most
    legs - 2 slots, so the packing bound refutes it at the root; without it
    ``has_dominating_set`` grows about 4x per two legs (3 s at 20 legs)."""
    g = Graph(2 * legs + 1, [e for i in range(legs)
                             for e in ((0, 1 + 2 * i), (1 + 2 * i, 2 + 2 * i))])
    assert not dsr.has_dominating_set(g, legs - 1)
    with pytest.raises(InfeasibleInstance):
        minimum_dominating_sets(g, legs - 1)
    assert dsr.has_dominating_set(g, legs)


def test_dominating_sets_of_size_matches_definition():
    g = cycle_graph(5)
    for d in dominating_sets_of_size(g, 2):
        assert dominates(g, d, range(5))
    assert len(dominating_sets_of_size(g, 2)) == 5
