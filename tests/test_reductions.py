import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import certificate_oracle
from helpers import grid, tape_is_subdivided_star
from reconflab.acceptance import (_small_irreducible, enumerated_guard_containment,
                                  enumerated_min_ds_structure)
from reconflab.dsr import JUMP, DsrInstance, is_feasible, solve
from reconflab.errors import MalformedInput, SizeCapExceeded, StateCapExceeded
from reconflab.graphs import Graph, cycle_graph, degeneracy, dominates, min_feedback_vertex_set
from reconflab.reductions import (
    CONSTRUCTIONS,
    FORMULA_DEPTH_CAP,
    NormalizedFormula,
    and_compose,
    check_guard_containment,
    check_min_ds_structure,
    desynchronize_path,
    desynchronize_triangle,
    ds_to_sync_multi,
    formula_to_multi,
    or_compose,
    partitioned_dsr_to_sync_stars,
    select_from_tuples,
    tape_to_tj_cdsr,
    tape_to_ts_dsr,
    weighted_satisfiable,
)
from reconflab.tapes import (
    MultiResult,
    MultiTapeInstance,
    Tape,
    TapeInstance,
    extended_graph,
    is_irreducible,
    is_valid_configuration,
    path_tape,
    solve_multi,
    solve_tape,
    tape_is_path,
    validate_instance,
)


def connected_random_graph(rng, n, p=0.5):
    while True:
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        if g.is_connected():
            return g


def has_dominating_set(g, k):
    return any(
        dominates(g, set(c), range(g.n)) for c in itertools.combinations(range(g.n), k)
    )


def random_sync_path_instance(rng, max_tapes=3, max_cells=5, max_sigma=2):
    """Synchronized instance of position-numbered path tapes of equal length."""
    while True:
        sigma = rng.randint(1, max_sigma)
        p = rng.randint(1, max_tapes)
        m = rng.randint(2, max_cells)
        tapes = [
            path_tape(
                [sum(1 << l for l in range(sigma) if rng.random() < 0.6) for _ in range(m)],
                number=range(1, m + 1),
            )
            for _ in range(p)
        ]
        probe = TapeInstance(sigma, tuple(tapes), (0,) * p, (0,) * p, sync=True, r=m)
        cols = [j for j in range(m) if is_valid_configuration(probe, (j,) * p)]
        if len(cols) >= 2:
            js, jt = rng.sample(cols, 2)
            return TapeInstance(sigma, tuple(tapes), (js,) * p, (jt,) * p, sync=True, r=m)


def random_sync_general_instance(rng, max_tapes=3, max_cells=5, max_sigma=2):
    """Synchronized instance over random connected cell graphs, numbered by
    breadth-first layers from a root (adjacent layers differ by one)."""
    while True:
        sigma = rng.randint(1, max_sigma)
        p = rng.randint(1, max_tapes)
        tapes = []
        for _ in range(p):
            m = rng.randint(2, max_cells)
            edges = [(i, rng.randrange(i)) for i in range(1, m)]
            for u, v in itertools.combinations(range(m), 2):
                if rng.random() < 0.2:
                    edges.append((u, v))
            g = Graph(m, edges)
            dist = _bfs_layers(g, 0)
            number = [d + 1 for d in dist]
            content = [sum(1 << l for l in range(sigma) if rng.random() < 0.6) for _ in range(m)]
            tapes.append(Tape(g, tuple(content), 0, m - 1, tuple(number)))
        r = max(max(t.number) for t in tapes)
        if r < 2:
            continue
        probe = TapeInstance(sigma, tuple(tapes), (0,) * p, (0,) * p, sync=True, r=r)
        configs = []
        for number in range(1, min(max(t.number) for t in tapes) + 1):
            for combo in itertools.product(
                *[[c for c in range(t.cells.n) if t.number[c] == number] for t in tapes]
            ):
                if is_valid_configuration(probe, combo):
                    configs.append(combo)
        if len(configs) >= 2:
            cs, ct = rng.sample(configs, 2)
            return TapeInstance(sigma, tuple(tapes), cs, ct, sync=True, r=r)


def _bfs_layers(g, root):
    from collections import deque

    dist = [0] * g.n
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


# ------------------------------------------------------------- check encoding

def test_ds_check_c5_matches_drawn_pattern():
    g = cycle_graph(5)
    inst = ds_to_sync_multi(g, 2)
    assert len(inst.tuples) == 2 and all(len(t) == 5 for t in inst.tuples)
    marks = ["".join("x" if c else "." for c in t.content) for t in inst.tuples[0]]
    # frozen flat pattern: tape of vertex i marks the closed neighborhood column-wise
    assert marks == ["xx..x", "xxx..", ".xxx.", "..xxx", "x..xx"]


def test_ds_check_c5_positive_with_rotation_selection():
    res = solve_multi(ds_to_sync_multi(cycle_graph(5), 2))
    assert res.positive
    i, j = res.selection
    assert dominates(cycle_graph(5), {i, j}, range(5))


def test_ds_check_single_vertex():
    g = Graph(1, [])
    res = solve_multi(ds_to_sync_multi(g, 1))
    assert res.positive


def test_ds_check_extended_graph_counts():
    # five-cycle with two tokens: 2 tuples x 5 tapes x 5 cells plus one letter
    # vertex whose degree equals the total number of marks
    inst = ds_to_sync_multi(cycle_graph(5), 2)
    g = extended_graph(inst)
    assert g.n == 2 * 5 * 5 + 1
    marks = sum(
        bin(t.content[c]).count("1")
        for tup in inst.tuples
        for t in tup
        for c in range(t.cells.n)
    )
    letter_vertex = g.n - 1
    assert g.labels[letter_vertex] == "letter:0"
    assert g.degree(letter_vertex) == marks == 30


def test_ds_check_selected_heads_on_first_cells_valid():
    from reconflab.tapes import is_valid_configuration as valid

    inst = ds_to_sync_multi(cycle_graph(5), 2)
    chosen = inst.select((0, 2))  # the tapes of vertices 1 and 3 in 1-based terms
    assert valid(chosen, (0, 0))


def test_ds_check_c5_single_token_negative():
    assert not solve_multi(ds_to_sync_multi(cycle_graph(5), 1)).positive


def selection_costs(multi):
    """Per selection in lexicographic order: (indices, positive, states
    charged), searched with ``solve_tape`` when both ends are valid."""
    for indices in itertools.product(*(range(len(t)) for t in multi.tuples)):
        sel = multi.select(indices)
        if is_valid_configuration(sel, sel.cs) and is_valid_configuration(sel, sel.ct):
            res = solve_tape(sel)
            yield indices, res.reachable, res.explored
        else:
            yield indices, False, 1


def test_solve_multi_charges_every_selection_to_one_cap():
    """A selection costs its search's states, or 1 unsearched: a negative
    call passes at a cap of exactly the total and stops one below it.  Under
    the cap the first positive selection wins, as it did per selection."""
    multi = ds_to_sync_multi(cycle_graph(5), 1)
    total = sum(cost for _, _, cost in selection_costs(multi))
    assert total > len(multi.tuples[0])
    assert solve_multi(multi, total) == MultiResult(False, None)
    with pytest.raises(StateCapExceeded):
        solve_multi(multi, total - 1)
    for g, k in ((cycle_graph(5), 2), (grid(3, 3), 3), (grid(2, 4), 3)):
        multi = ds_to_sync_multi(g, k)
        first = next(indices for indices, positive, _ in selection_costs(multi) if positive)
        assert solve_multi(multi) == MultiResult(True, first)


def test_solve_multi_cap_bounds_the_selections_tried():
    """25**3 selections on the 5x5 grid at k = 3, most of them unsearched:
    the cap of 1000 runs out on the selections themselves."""
    with pytest.raises(StateCapExceeded):
        solve_multi(ds_to_sync_multi(grid(5, 5), 3), 1000)


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=25, deadline=None)
def test_ds_check_equals_subset_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = connected_random_graph(rng, n)
    k = rng.randint(1, min(3, n))
    assert solve_multi(ds_to_sync_multi(g, k)).positive == has_dominating_set(g, k)


# ------------------------------------------------------------- partitioned stars

def random_partitioned_instance(rng, n_max=5, k_max=2):
    while True:
        n = rng.randint(2, n_max)
        g = connected_random_graph(rng, n, 0.6)
        k = rng.randint(1, min(k_max, n))
        verts = list(range(n))
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        parts = []
        prev = 0
        for c in cuts + [n]:
            parts.append(frozenset(verts[prev:c]))
            prev = c
        feas = [
            frozenset(c)
            for c in itertools.product(*[sorted(p) for p in parts])
            if dominates(g, set(c), range(n))
        ]
        if len(feas) >= 2:
            src, tgt = rng.sample(feas, 2)
            return DsrInstance(g, k, src, tgt, JUMP, partition=tuple(parts))


def test_stars_shape_and_validity():
    rng = random.Random(3)
    inst = random_partitioned_instance(rng)
    out = partitioned_dsr_to_sync_stars(inst)

    assert validate_instance(out) == []
    assert all(tape_is_subdivided_star(t) for t in out.tapes)
    assert out.sigma == inst.k + 1
    # modulus covers the (possibly dummy-padded) vertex columns, multiple of 3
    assert out.r >= inst.graph.n + 1 and out.r % 3 == 0


def test_stars_single_vertex_positive():
    g = Graph(1, [])
    inst = DsrInstance(g, 1, frozenset({0}), frozenset({0}), JUMP, partition=(frozenset({0}),))
    out = partitioned_dsr_to_sync_stars(inst)
    assert solve_tape(out).reachable


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=20, deadline=None)
def test_stars_equivalence(seed):
    rng = random.Random(seed)
    inst = random_partitioned_instance(rng, n_max=4, k_max=2)
    out = partitioned_dsr_to_sync_stars(inst)
    assert solve_tape(out).reachable == solve(inst).reachable


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=10, deadline=None)
def test_full_hardness_chain_equivalence(seed):
    """partitioned jumping -> stars -> triangle -> sliding: one answer.

    This drives the desynchronizer over a wrapping numbering (the stars) and
    the sliding encoding over its output, so the whole pipeline is checked
    against the original instance rather than stage by stage.
    """
    rng = random.Random(seed)
    inst = random_partitioned_instance(rng, n_max=4, k_max=2)
    want = solve(inst).reachable
    stars = partitioned_dsr_to_sync_stars(inst)
    desynced = desynchronize_triangle(stars)
    assert is_irreducible(desynced)
    assert solve_tape(desynced).reachable == want
    sliding = tape_to_ts_dsr(desynced)
    assert solve(sliding).reachable == want


# ------------------------------------------------------------- desynchronizers

@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_triangle_desync_equivalence_and_irreducibility(seed):
    rng = random.Random(seed)
    inst = random_sync_general_instance(rng)
    out = desynchronize_triangle(inst)
    assert not out.sync
    assert is_irreducible(out)
    assert solve_tape(out).reachable == solve_tape(inst).reachable
    d_in = degeneracy(extended_graph(inst))[0]
    d_out = degeneracy(extended_graph(out))[0]
    assert d_out <= d_in + 2


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_path_desync_equivalence_all_paths(seed):
    rng = random.Random(seed)
    inst = random_sync_path_instance(rng)
    out = desynchronize_path(inst)
    assert all(tape_is_path(t) for t in out.tapes)
    assert solve_tape(out).reachable == solve_tape(inst).reachable


def test_path_desync_single_full_tape_stays_positive():
    t = path_tape([1, 1, 1], number=[1, 2, 3])
    inst = TapeInstance(1, (t,), (0,), (2,), sync=True, r=3)
    out = desynchronize_path(inst)
    assert solve_tape(out).reachable


def test_triangle_desync_phase_deficit_uniquely_coverable():
    rng = random.Random(11)
    inst = random_sync_general_instance(rng, max_tapes=2, max_cells=4)
    out = desynchronize_triangle(inst)
    res = solve_tape(out)
    if not res.reachable:
        return
    bases = out.provenance["triple_bases"]
    groups = 0
    for b in bases:
        groups |= 0b111 << b
    for config in res.witness:
        covered = 0
        for t, c in zip(out.tapes[:-1], config[:-1]):
            covered |= t.content[c]
        missing = groups & ~covered
        compatible = [c for c in range(3) if missing & ~out.tapes[-1].content[c] == 0]
        assert 1 <= len(compatible) <= 2
        # classes as the construction saw them (numbering flattens when r <= 3)
        mods = {1 if inst.r <= 3 else t.number[c] % 3
                for t, c in zip(inst.tapes, config[:-1])}
        if len(mods) > 1:
            assert len(compatible) == 1


# ------------------------------------------------------------- selector

def test_selector_contents_match_construction():
    t = path_tape([1, 1])
    multi = MultiTapeInstance(sigma=1, tuples=((t, t),))
    out = select_from_tuples(multi)
    sel = out.tapes[-1]
    full, a, s, e = 0b0001, 0b0010, 0b0100, 0b1000
    assert sel.content == (
        full | a | s | e,
        full | a | e,
        s | e,
        full | a | s,
        full | a | s | e,
    )


def random_multi(rng, max_tuples=2, max_members=2, max_cells=3, sigma=1):
    tuples = []
    for _ in range(rng.randint(1, max_tuples)):
        members = tuple(
            path_tape(
                [sum(1 << l for l in range(sigma) if rng.random() < 0.6)
                 for _ in range(rng.randint(1, max_cells))]
            )
            for _ in range(rng.randint(1, max_members))
        )
        tuples.append(members)
    return MultiTapeInstance(sigma=sigma, tuples=tuple(tuples))


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_selector_equivalence(seed):
    rng = random.Random(seed)
    multi = random_multi(rng)
    out = select_from_tuples(multi)
    assert all(tape_is_path(t) for t in out.tapes)
    assert len(out.tapes) == len(multi.tuples) + 1
    assert solve_tape(out).reachable == solve_multi(multi).positive


def test_selector_singletons_equal_flattened():
    t1, t2 = path_tape([1, 0]), path_tape([0, 1])
    multi = MultiTapeInstance(sigma=1, tuples=((t1,), (t2,)))
    out = select_from_tuples(multi)
    assert solve_tape(out).reachable == solve_multi(multi).positive


# ------------------------------------------------------------- and / or

def brute_force_and(insts):
    shapes = [range(len(t)) for t in insts[0].tuples]
    for sel in itertools.product(*shapes):
        ok = True
        for inst in insts:
            try:
                if not solve_tape(inst.select(sel)).reachable:
                    ok = False
                    break
            except MalformedInput:
                ok = False
                break
        if ok:
            return True
    return False


def test_and_single_input_equivalent():
    rng = random.Random(2)
    for _ in range(5):
        multi = random_multi(rng)
        out = and_compose([multi])
        assert solve_multi(out).positive == solve_multi(multi).positive


def test_or_single_input_equivalent():
    rng = random.Random(4)
    for _ in range(5):
        multi = random_multi(rng)
        out = or_compose([multi])
        assert solve_multi(out).positive == solve_multi(multi).positive


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=15, deadline=None)
def test_and_compose_equals_common_selection(seed):
    rng = random.Random(seed)
    shape = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    insts = []
    for _ in range(rng.randint(1, 2)):
        tuples = tuple(
            tuple(path_tape([rng.randint(0, 1) for _ in range(rng.randint(1, 2))])
                  for _ in range(sz))
            for sz in shape
        )
        insts.append(MultiTapeInstance(sigma=1, tuples=tuples))
    out = and_compose(insts)
    assert solve_multi(out).positive == brute_force_and(insts)


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=15, deadline=None)
def test_or_compose_equals_any_positive(seed):
    rng = random.Random(seed)
    shape = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    insts = []
    for _ in range(rng.randint(1, 2)):
        tuples = tuple(
            tuple(path_tape([rng.randint(0, 1) for _ in range(rng.randint(1, 2))])
                  for _ in range(sz))
            for sz in shape
        )
        insts.append(MultiTapeInstance(sigma=1, tuples=tuples))
    out = or_compose(insts)
    expected = any(solve_multi(i).positive for i in insts)
    assert solve_multi(out).positive == expected


def test_or_compose_preserves_selection_binding():
    # Tuple choices must mean the same thing in every branch: a conjunction of
    # two disjunctions sharing one tuple cannot be satisfied by mixing members.
    only_first = MultiTapeInstance(sigma=1, tuples=((path_tape([1]), path_tape([0])),))
    only_second = MultiTapeInstance(sigma=1, tuples=((path_tape([0]), path_tape([1])),))
    left = or_compose([only_first])
    right = or_compose([only_second])
    assert solve_multi(left).positive and solve_multi(right).positive
    assert not solve_multi(and_compose([left, right])).positive


def test_and_rejects_mismatched_shapes():
    a = MultiTapeInstance(sigma=1, tuples=((path_tape([1]),),))
    b = MultiTapeInstance(sigma=1, tuples=((path_tape([1]), path_tape([1])),))
    with pytest.raises(MalformedInput):
        and_compose([a, b])


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=8, deadline=None)
def test_nested_composition_of_raw_instances(seed):
    """or over and over raw tuple instances, against the brute-force oracle."""
    rng = random.Random(seed)
    shape = [rng.randint(1, 2)]

    def make():
        tuples = tuple(
            tuple(path_tape([rng.randint(0, 1)]) for _ in range(sz))
            for sz in shape
        )
        return MultiTapeInstance(sigma=1, tuples=tuples)

    groups = [[make() for _ in range(rng.randint(1, 2))] for _ in range(2)]
    composed = or_compose([and_compose(g) for g in groups])

    def group_solved(group, sel):
        for inst in group:
            try:
                if not solve_tape(inst.select(sel)).reachable:
                    return False
            except MalformedInput:
                return False
        return True

    expected = any(
        group_solved(group, sel)
        for group in groups
        for sel in itertools.product(*(range(s) for s in shape))
    )
    assert solve_multi(composed).positive == expected


# ------------------------------------------------------------- formulas

def AND(*children):
    return ("and", tuple(children))


def OR(*children):
    return ("or", tuple(children))


def VAR(i):
    return ("var", i)


def test_formula_two_clause_cnf():
    phi = NormalizedFormula(3, AND(OR(VAR(0), VAR(1)), OR(VAR(1), VAR(2))))
    assert weighted_satisfiable(phi, 1)  # x1 alone satisfies both clauses
    assert solve_multi(formula_to_multi(phi, 1)).positive
    assert not solve_multi(formula_to_multi(phi, 0)).positive


def test_formula_weight_zero_negative():
    phi = NormalizedFormula(2, AND(OR(VAR(0))))
    assert not weighted_satisfiable(phi, 0)
    assert not solve_multi(formula_to_multi(phi, 0)).positive


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=12, deadline=None)
def test_formula_depth2_matches_truth_table(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, min(2, n))
        clauses.append(OR(*[VAR(v) for v in rng.sample(range(n), size)]))
    phi = NormalizedFormula(n, AND(*clauses))
    k = rng.randint(1, 2)
    assert solve_multi(formula_to_multi(phi, k)).positive == weighted_satisfiable(phi, k)


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=6, deadline=None)
def test_formula_depth3_matches_truth_table(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 3)

    def cnf():
        return AND(*[OR(*[VAR(v) for v in rng.sample(range(n), rng.randint(1, 2))])
                     for _ in range(rng.randint(1, 2))])

    phi = NormalizedFormula(n, AND(*[OR(*[cnf() for _ in range(rng.randint(1, 2))])
                                     for _ in range(rng.randint(1, 2))]))
    k = rng.randint(1, 2)
    assert solve_multi(formula_to_multi(phi, k)).positive == weighted_satisfiable(phi, k)


def test_formula_rejects_broken_alternation():
    with pytest.raises(MalformedInput):
        NormalizedFormula(2, AND(AND(VAR(0))))
    with pytest.raises(MalformedInput):
        NormalizedFormula(1, OR(VAR(0)))


def test_formula_depth_is_capped_without_recursion():
    """A chain at the cap builds and evaluates; one level more is refused by
    the shape check, which keeps its own stack."""
    def chain(depth):
        node = VAR(0)
        for level in reversed(range(depth)):
            node = AND(node) if level % 2 == 0 else OR(node)
        return node

    phi = NormalizedFormula(1, chain(FORMULA_DEPTH_CAP))
    assert phi.depth() == FORMULA_DEPTH_CAP and phi.evaluate(frozenset({0}))
    assert weighted_satisfiable(phi, 0) is False
    with pytest.raises(SizeCapExceeded):
        NormalizedFormula(1, chain(FORMULA_DEPTH_CAP + 1))
    with pytest.raises(SizeCapExceeded):
        NormalizedFormula(1, chain(5000))


def test_formula_two_nested_composition_rounds():
    # depth six: the conjunction/disjunction composers stack twice
    phi = NormalizedFormula(1, AND(OR(AND(OR(AND(OR(VAR(0))))))))
    assert phi.depth() == 6
    assert not solve_multi(formula_to_multi(phi, 0)).positive
    assert solve_multi(formula_to_multi(phi, 1)).positive


def test_formula_mixed_depth_siblings_are_padded():
    # one disjunct is a bare variable, the other a full sub-formula: the
    # canonicalizer must pad shapes so the composers line up
    phi = NormalizedFormula(2, AND(OR(VAR(0), AND(OR(VAR(1))))))
    for k in (0, 1, 2):
        assert solve_multi(formula_to_multi(phi, k)).positive == weighted_satisfiable(phi, k)


# ------------------------------------------------------------- tape -> DSR

def small_irreducible_instances(count, seed=0, max_tapes=2, max_cells=3, max_sigma=2):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = random_sync_general_instance(rng, max_tapes, max_cells, max_sigma)
        art = desynchronize_triangle(inst)
        assert is_irreducible(art)
        out.append(art)
    return out


def test_ts_dsr_requires_irreducible():
    t1 = path_tape([3, 0])
    t2 = path_tape([1, 2])
    inst = TapeInstance(2, (t1, t2), (0, 0), (0, 1))
    assert not is_irreducible(inst)
    with pytest.raises(MalformedInput):
        tape_to_ts_dsr(inst)


def test_token_reductions_refuse_a_letter_outside_the_alphabet():
    """Letter 1 of a one-letter alphabet would be the id of a vertex the
    reductions add, not a letter."""
    inst = TapeInstance(1, (path_tape([1, 0b11]),), (0,), (1,))
    assert is_irreducible(inst)
    for build in (tape_to_ts_dsr, tape_to_tj_cdsr):
        with pytest.raises(MalformedInput, match="outside the alphabet"):
            build(inst)


def test_ts_dsr_equivalence_structure_and_bounds():
    for art in small_irreducible_instances(6, seed=42):
        dsr = tape_to_ts_dsr(art)
        assert solve(dsr).reachable == solve_tape(art).reachable
        assert check_min_ds_structure(dsr) and enumerated_min_ds_structure(dsr)
        d_in = degeneracy(extended_graph(art))[0]
        assert degeneracy(dsr.graph)[0] <= d_in + 2
        f_in = len(min_feedback_vertex_set(extended_graph(art)))
        k = len(art.tapes)
        assert len(min_feedback_vertex_set(dsr.graph)) <= f_in + k + 1


def test_ts_dsr_connected_variant_equivalence():
    for art in small_irreducible_instances(4, seed=77):
        cdsr = replace(tape_to_ts_dsr(art), connected=True)
        assert solve(cdsr).reachable == solve_tape(art).reachable


def test_ts_dsr_reachable_states_keep_hub_cover():
    art = small_irreducible_instances(1, seed=9)[0]
    dsr = tape_to_ts_dsr(art)
    hub, leaf = dsr.provenance["hub"], dsr.provenance["leaf"]
    from collections import deque

    from dsr_oracle import successors

    seen = {dsr.source}
    queue = deque([dsr.source])
    while queue:
        cur = queue.popleft()
        for nxt in successors(dsr, cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for d in seen:
        assert d & {hub, leaf}
        if leaf in d:  # the swap onto the hub is always available
            assert is_feasible(dsr, (d - {leaf}) | {hub})


def test_check_min_ds_structure_single_tape_single_letter():
    inst = TapeInstance(1, (path_tape([1, 1]),), (0,), (1,))
    assert is_irreducible(inst)
    dsr = tape_to_ts_dsr(inst)
    assert check_min_ds_structure(dsr) and enumerated_min_ds_structure(dsr)
    assert solve(dsr).reachable


def test_check_min_ds_structure_fails_with_universal_vertex():
    art = small_irreducible_instances(1, seed=5)[0]
    dsr = tape_to_ts_dsr(art)
    g = dsr.graph
    g2 = Graph(
        g.n + 1,
        list(g.edges) + [(v, g.n) for v in range(g.n)],
        g.labels,
    )
    mutated = DsrInstance(
        g2, dsr.k, dsr.source, dsr.target, dsr.rule, provenance=dsr.provenance
    )
    assert not check_min_ds_structure(mutated)
    assert not enumerated_min_ds_structure(mutated)


def cell_letter_mutants(inst: DsrInstance) -> list[DsrInstance]:
    """``inst`` with one more cell-letter edge, for each cell and letter not
    yet joined."""
    g, prov = inst.graph, inst.provenance
    src = prov["source"]
    base = prov["letter_base"]
    cells = [c for t, b in zip(src.tapes, prov["cell_base"]) for c in range(b, b + t.cells.n)]
    return [replace(inst, graph=Graph(g.n, [*g.edges, (c, v)], g.labels))
            for c in cells for v in range(base, base + src.sigma) if not g.has_edge(c, v)]


def test_check_min_ds_structure_agrees_with_the_all_minimum_sets_oracle():
    """Artifacts and mutants of each: an isolated vertex, a universal
    vertex, the hub-leaf edge moved onto a letter vertex, and every added
    cell-letter edge.  The enumerated form agrees with the oracle, and the
    counting check certifies only what the enumeration certifies, every
    artifact among it."""
    rng = random.Random(7501)
    verdicts, counted = set(), set()
    for i in range(12):
        dsr = tape_to_ts_dsr(_small_irreducible(rng, cells=2 if i % 3 else 3, sigma=2))
        g, prov = dsr.graph, dsr.provenance
        moved = [e for e in g.edges if set(e) != {prov["hub"], prov["leaf"]}]
        assert check_min_ds_structure(dsr)
        mutants = [replace(dsr, graph=graph) for graph in (
            g, Graph(g.n + 1, g.edges, g.labels),
            Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in range(g.n)], g.labels),
            Graph(g.n, moved + [(prov["letter_base"], prov["leaf"])], g.labels))]
        for mutant in mutants + cell_letter_mutants(dsr):
            got = enumerated_min_ds_structure(mutant)
            assert got == certificate_oracle.min_ds_structure(mutant), (i, mutant.graph.edges)
            verdicts.add(got)
            if check_min_ds_structure(mutant):
                assert got, (i, mutant.graph.edges)
                counted.add(mutant.graph != g)
    assert verdicts == {True, False}
    assert counted == {False, True}  # some cell-letter mutants stay irreducible


def test_check_min_ds_structure_refuses_an_isolated_vertex():
    """An isolated vertex lifts the domination number past guard-count+1,
    so no set of that size dominates: not certified, not an error."""
    ts = tape_to_ts_dsr(_small_irreducible(random.Random(7501), cells=3, sigma=2))
    g = ts.graph
    isolated = replace(ts, graph=Graph(g.n + 1, g.edges, g.labels))
    assert check_min_ds_structure(ts) and enumerated_min_ds_structure(ts)
    assert not check_min_ds_structure(isolated) and not enumerated_min_ds_structure(isolated)


@pytest.mark.parametrize("tapes", [7, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sliding_reduction_certifies_sources_past_twenty_letters(tapes, seed):
    """7 and 10 source tapes desynchronize to 23 and 32 letters; irreducibility,
    the replay and the minimum-dominating-set certificate all still decide."""
    from reconflab.generators import gen_random_tape_instance

    art = desynchronize_triangle(gen_random_tape_instance(seed, tapes=tapes, cells=2, sigma=2,
                                                          sync=True))
    assert art.sigma > 20
    assert is_irreducible(art)
    dsr, agree = CONSTRUCTIONS["ts-dsr"].replay(art)
    assert agree
    assert check_min_ds_structure(dsr) and enumerated_min_ds_structure(dsr)


def guards_contained(cd: DsrInstance) -> bool:
    """Oracle for both guard checks: enumerate every dominating set of the
    budget size and filter for the connected ones."""
    from reconflab.dsr import enumerate_dominating_sets

    guards = set(cd.provenance["guards"])
    ends = {cd.provenance["hub"], cd.provenance["leaf"]}
    return all(guards <= d and len(d & ends) == 1
               for d in enumerate_dominating_sets(cd.graph, cd.k) if is_feasible(cd, d))


def test_tj_cdsr_equivalence_and_guard_containment():
    for art in small_irreducible_instances(4, seed=13, max_tapes=1, max_cells=3):
        cd = tape_to_tj_cdsr(art)
        assert solve(cd).reachable == solve_tape(art).reachable
        assert cd.k == 3 * len(art.tapes) + 1
        # subdivided vertices have degree 3: two cells plus the guard
        for v, lab in cd.graph.labels.items():
            if lab.startswith("mid:"):
                assert cd.graph.degree(v) == 3
        assert guards_contained(cd)
        assert check_guard_containment(cd) and enumerated_guard_containment(cd)
    # Joining the hub to every subdivided vertex lets hub + leaf + cells form
    # a connected dominating set without the guard: both checks must see it.
    labels = cd.graph.labels
    prov = cd.provenance
    mids = [v for v, lab in labels.items() if lab.startswith("mid:")]
    g = Graph(cd.graph.n, list(cd.graph.edges) + [(prov["hub"], v) for v in mids], labels)
    mutated = [replace(cd, graph=g)]
    # Relabelled provenance, each caught by one query alone: a cell named as a
    # guard (guard banned), a guard named as the leaf (hub and leaf forced),
    # two letters named as hub and leaf (both banned).
    cell = min(v for v, lab in labels.items() if lab.startswith("cell:"))
    letters = sorted(v for v, lab in labels.items() if lab.startswith("letter:"))
    for change in ({"guards": (prov["guards"][0], cell)}, {"leaf": prov["guards"][0]},
                   {"hub": letters[0], "leaf": letters[1]}):
        mutated.append(replace(cd, provenance={**prov, **change}))
    for bad in mutated:
        assert not guards_contained(bad)
        assert not check_guard_containment(bad) and not enumerated_guard_containment(bad)
    # A padding cell joined to a letter changes no guard region: still certified.
    g = cd.graph
    padded = max(v for v, lab in labels.items() if lab.startswith("cell:"))
    joined = replace(cd, graph=Graph(g.n, [*g.edges, (padded, letters[0])], labels))
    assert guards_contained(joined)
    assert check_guard_containment(joined) and enumerated_guard_containment(joined)
    with pytest.raises(MalformedInput):
        check_guard_containment(tape_to_ts_dsr(art))


def test_guard_containment_certifies_a_three_tape_artifact():
    """A seeded three-tape source, four tapes once desynchronized (88
    vertices and k = 13 after the reduction).  Joining the hub to tape 0's
    subdivided vertices lets a connected dominating set drop guard 0, and
    the check sees it."""
    from reconflab.generators import gen_random_tape_instance

    src = gen_random_tape_instance(0, tapes=3, cells=2, sigma=2, sync=True)
    cd = tape_to_tj_cdsr(desynchronize_triangle(src))
    assert (cd.graph.n, cd.k, len(cd.provenance["guards"])) == (88, 13, 4)
    assert check_guard_containment(cd) and enumerated_guard_containment(cd)
    prov, labels = cd.provenance, cd.graph.labels
    mids = [v for v, lab in labels.items() if lab == "mid:0"]
    joined = Graph(cd.graph.n, [*cd.graph.edges, *((prov["hub"], v) for v in mids)], labels)
    assert not check_guard_containment(replace(cd, graph=joined))
    assert not enumerated_guard_containment(replace(cd, graph=joined))


@pytest.mark.parametrize("tapes", [10, 14])
def test_guard_containment_certifies_ten_and_fourteen_tape_sources(tapes):
    """Sources of 10 and 14 tapes reduce to tj-cdsr (235 and 319 vertices,
    k = 34 and 46), far past any enumeration, and the counting check
    certifies them.  Joining the hub to the last tape's subdivided vertices
    lets a connected dominating set drop that guard: refused."""
    from reconflab.generators import gen_random_tape_instance

    src = gen_random_tape_instance(0, tapes=tapes, cells=2, sigma=2, sync=True)
    cd = CONSTRUCTIONS["tj-cdsr"].build(desynchronize_triangle(src))
    assert (cd.graph.n, cd.k) == {10: (235, 34), 14: (319, 46)}[tapes]
    assert check_guard_containment(cd)
    prov, labels = cd.provenance, cd.graph.labels
    mids = [v for v, lab in labels.items() if lab == f"mid:{len(prov['guards']) - 1}"]
    joined = Graph(cd.graph.n, [*cd.graph.edges, *((prov["hub"], v) for v in mids)], labels)
    assert not check_guard_containment(replace(cd, graph=joined))


def test_counting_checks_refuse_each_fact_broken_alone():
    """Each fact a counting argument reads off the graph, broken while the
    others still hold: the check refuses, whatever an enumeration says."""
    rng = random.Random(7501)
    ts = tape_to_ts_dsr(_small_irreducible(rng, cells=3, sigma=2))
    g, prov = ts.graph, ts.provenance
    hub, leaf, guard = prov["hub"], prov["leaf"], prov["guards"][0]
    cell = min(ts.source - {hub})
    rehung = [e for e in g.edges if leaf not in e] + [(leaf, cell)]
    assert check_min_ds_structure(ts)
    for mutant in (
        replace(ts, graph=Graph(g.n, [*g.edges, (prov["letter_base"], hub)], g.labels)),
        replace(ts, graph=Graph(g.n, [*g.edges, (guard, hub)], g.labels)),
        replace(ts, graph=Graph(g.n, [*g.edges, (leaf, cell)], g.labels)),
        # the leaf hung off a source cell named as the hub: regions meet
        replace(ts, graph=Graph(g.n, rehung, g.labels), provenance={**prov, "hub": cell}),
    ):
        assert not check_min_ds_structure(mutant), mutant.graph.edges

    cd = tape_to_tj_cdsr(_small_irreducible(rng, cells=3, sigma=2))
    g, prov = cd.graph, cd.provenance
    mids = [v for v in range(g.n) if g.has_edge(v, prov["guards"][0])]
    cell = min(v for v, lab in g.labels.items() if lab.startswith("cell:"))
    assert check_guard_containment(cd)
    for mutant in (
        replace(cd, k=cd.k + 1),
        replace(cd, graph=Graph(g.n, [*g.edges, (prov["leaf"], cell)], g.labels)),
        # one subdivided vertex joined to the hub: its guard's region meets the hub
        replace(cd, graph=Graph(g.n, [*g.edges, (prov["hub"], mids[-1])], g.labels)),
        # one new vertex dominates every subdivided vertex: no packing of 4
        replace(cd, graph=Graph(g.n + 1, [*g.edges, *((g.n, v) for v in mids)], g.labels)),
    ):
        assert not check_guard_containment(mutant), (mutant.k, mutant.graph.edges)


def plain_guard_violations(cd: DsrInstance) -> set[frozenset[int]]:
    """Oracle for the disjoint guard queries: the budget-size connected
    dominating sets the plain query list finds."""
    from reconflab.dsr import enumerate_dominating_sets

    return {d for forced, banned in certificate_oracle.plain_guard_queries(cd.provenance)
            for d in enumerate_dominating_sets(cd.graph, cd.k, forced=forced, banned=banned)
            if is_feasible(cd, d)}


def test_disjoint_guard_queries_match_the_plain_ones(monkeypatch):
    """``enumerated_guard_containment`` against the plain query list, on seeded
    tj-cdsr artifacts and on built violations: each guard in turn dropped
    (made redundant by joining the hub to its tape's subdivided vertices);
    the three relabelled provenances of the test above; and two letters
    named as the guards, so a set can miss both.  The leaf made a second hub
    (joined to every cell) is a near miss: one of the two still has to
    dominate the cells and the budget has no room for both.  With every set
    reported infeasible the check runs all its queries, so the feasible sets
    it is shown are the union its queries find, each set once.  The counting
    check certifies only cases the enumeration certifies."""
    from reconflab import acceptance

    cases = [tape_to_tj_cdsr(art)
             for art in small_irreducible_instances(4, seed=1605, max_tapes=1, max_cells=3)]
    cd = min(cases, key=lambda c: c.graph.n)  # four distinct graphs; mutate the smallest
    prov, labels = cd.provenance, cd.graph.labels
    for i in range(len(prov["guards"])):
        mids = [v for v, lab in labels.items() if lab == f"mid:{i}"]
        cases.append(replace(cd, graph=Graph(
            cd.graph.n, [*cd.graph.edges, *((prov["hub"], v) for v in mids)], labels)))
    cells = [v for v, lab in labels.items() if lab.startswith("cell:")]
    cases.append(replace(cd, graph=Graph(
        cd.graph.n, [*cd.graph.edges, *((prov["leaf"], c) for c in cells)], labels)))
    letters = sorted(v for v, lab in labels.items() if lab.startswith("letter:"))
    for change in ({"guards": (prov["guards"][0], cells[0])}, {"guards": tuple(letters[:2])},
                   {"leaf": prov["guards"][0]}, {"hub": letters[0], "leaf": letters[1]}):
        cases.append(replace(cd, provenance={**prov, **change}))
    verdicts = []
    for case in cases:
        want = plain_guard_violations(case)
        verdicts.append(enumerated_guard_containment(case))
        assert verdicts[-1] == (not want)
        if check_guard_containment(case):
            assert verdicts[-1]
        shown = []
        monkeypatch.setattr(acceptance, "is_feasible",
                            lambda inst, d: is_feasible(inst, d) and shown.append(d) and False)
        assert enumerated_guard_containment(case)
        monkeypatch.undo()
        assert len(shown) == len(set(shown)) and set(shown) == want
    assert verdicts == [True] * 4 + [False] * 2 + [True] + [False] * 4


# ------------------------------------------------------------- pinned bytes

def _pinned_artifacts():
    """(construction, artifact) pairs over a fixed seeded sample: both
    desynchronizers on general, path and wrapping (star) numberings, r <= 3
    included; and/or composition of three same-shaped inputs and one nesting;
    the selector; formulas of depth 2 and 4; both tape-to-token reductions."""
    from helpers import partitioned_instance
    from reconflab.generators import (gen_random_multi, gen_random_tape_instance,
                                      gen_sync_path_instance)

    rng = random.Random(1901)
    out = []
    for _ in range(30):
        inst = gen_random_tape_instance(rng.randrange(2**31), tapes=rng.randint(1, 3),
                                        cells=rng.randint(2, 5), sigma=rng.randint(1, 3), sync=True)
        out.append(("triangle", desynchronize_triangle(inst)))
    for _ in range(30):
        inst = gen_sync_path_instance(rng.randrange(2**31), tapes=3, cells=6,
                                      sigma=rng.randint(1, 3))
        out += [("path", desynchronize_path(inst)), ("triangle", desynchronize_triangle(inst))]
    for seed in range(4):
        stars = partitioned_dsr_to_sync_stars(partitioned_instance(seed, n_max=4))
        out += [("sync-stars", stars), ("triangle", desynchronize_triangle(stars))]
    for _ in range(12):
        inst = gen_random_tape_instance(rng.randrange(2**31), tapes=rng.randint(1, 2),
                                        cells=rng.randint(2, 3), sigma=rng.randint(1, 2), sync=True)
        art = desynchronize_triangle(inst)
        out += [("ts-dsr", tape_to_ts_dsr(art)), ("tj-cdsr", tape_to_tj_cdsr(art))]
    for _ in range(20):
        out.append(("selector", select_from_tuples(
            gen_random_multi(rng.randrange(2**31), tuples=2, members=2, cells=3))))
    for _ in range(12):
        shape = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        insts = [MultiTapeInstance(sigma=1, tuples=tuple(
            tuple(path_tape([rng.randint(0, 1) for _ in range(rng.randint(1, 3))])
                  for _ in range(size)) for size in shape)) for _ in range(3)]
        out += [("and", and_compose(insts)), ("or", or_compose(insts)),
                ("or", or_compose([and_compose(insts[:2]), and_compose(insts[2:])]))]
    for _ in range(12):
        n = rng.randint(1, 3)

        def cnf():
            return AND(*[OR(*[VAR(v) for v in rng.sample(range(n), rng.randint(1, n))])
                         for _ in range(rng.randint(1, 2))])

        phi = NormalizedFormula(n, cnf() if rng.random() < 0.5 else
                                AND(*[OR(*[cnf() for _ in range(rng.randint(1, 2))])
                                      for _ in range(rng.randint(1, 2))]))
        out.append(("formula", formula_to_multi(phi, rng.randint(1, 2))))
    return out


PINNED_DIGESTS = {
    "and": "3ec88459b678ce721b86a151db58750b1048849302b05700ed9769a90596748f",
    "formula": "c93a274e1ca8ae0ed1597ddb214d7d9cb07c6f35244bc87c4665b89e7c1eb745",
    "or": "6c7619a5fc1b3c9f9814dbb95d182bb6a972a7681d961fddf88b3375e9496104",
    "path": "4b70bed7e36bd36a2849b1ed67967efeb5e0b0a5c877307ad705254af448e3e3",
    "selector": "ca213b2670d8938e14dbe61249d9b21a6dcfa15d6c5d3383e74984deb42a18d7",
    "sync-stars": "ec467b84138383903618692f841db47954ed9e11e96c5c5ff9603971ea84d105",
    "tj-cdsr": "a588092c5ae72197bb467d081095aabfea6bf45c22085183046423d5b54bf8d9",
    "triangle": "5e8ad706e140183d8588d6bc7ecdcf3c2b7b6f27805186fea021bc8bb7254cb1",
    "ts-dsr": "b9402c6b05b5a7f3fbb1dc6b9173bd5a6f440c9715377bff837463f8b40dc485",
}


def test_construction_bytes_are_pinned():
    """Each construction's canonical JSON and scalar provenance, hashed over
    the sample above, against digests recorded before the phase letters were
    laid out by one helper: a refactor of the constructors keeps every byte."""
    from reconflab import serialize

    digests = {}
    for name, art in _pinned_artifacts():
        h = digests.setdefault(name, hashlib.sha256())
        prov = {key: val for key, val in (art.provenance or {}).items()
                if isinstance(val, (str, int, list, tuple))}
        h.update(serialize.canonical_dumps(serialize.encode(art)).encode())
        h.update(serialize.canonical_dumps(prov).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == PINNED_DIGESTS


def _desync_input(number, cs, ct, sync=True, r=4):
    tape = path_tape([1] * len(number), number=number)
    return TapeInstance(1, (tape, tape), cs, ct, sync=sync, r=r if sync else None)


@pytest.mark.parametrize("desync", [desynchronize_triangle, desynchronize_path])
@pytest.mark.parametrize("inst,message", [
    (_desync_input([1, 2, 3, 4], (0, 0), (1, 1), sync=False),
     "input must be synchronized and numbered"),
    (_desync_input([1, 2, 3, 4], (0, 1), (2, 2)), "cs heads must share one number"),
    (_desync_input([1, 2, 3, 4], (0, 0), (2, 3)), "ct heads must share one number"),
    (_desync_input([1, 4], (0, 0), (1, 1)),
     "wrapping numbering needs a modulus divisible by 3; renumber first"),
], ids=["unsynchronized", "cs-two-numbers", "ct-two-numbers", "wrapping-r4"])
def test_desynchronizers_reject_with_pinned_messages(desync, inst, message):
    with pytest.raises(MalformedInput) as err:
        desync(inst)
    assert str(err.value) == message


def test_path_desynchronizer_rejects_a_wrapping_path():
    """A path numbered [1, 6] under modulus 6 passes the modulus check, since
    6 is a multiple of 3, and is reachable; the triangle tape keeps the
    answer, but the phase path's head cannot jump from cell 0 to cell 5, so
    the path desynchronizer refuses the input instead of answering no."""
    inst = TapeInstance(1, (path_tape([1, 1], number=[1, 6]),), (0,), (1,), sync=True, r=6)
    assert solve_tape(inst).reachable
    assert solve_tape(desynchronize_triangle(inst)).reachable
    with pytest.raises(MalformedInput, match="^tape 0 numbering climbs by more than 1 between"):
        desynchronize_path(inst)


# ------------------------------------------------------------- the table's entry check

_HEAD_OFF_TAPE = TapeInstance(2, (path_tape([1, 1]), path_tape([2, 2])), (5, 0), (1, 1))
_P4_MISSING_3 = DsrInstance(Graph(4, [(0, 1), (1, 2), (2, 3)]), 2, frozenset({0, 1}),
                            frozenset({2, 3}), JUMP,
                            partition=(frozenset({0, 3}), frozenset({1, 2})))


@pytest.mark.parametrize("name,inst,message", [
    ("ts-dsr", _HEAD_OFF_TAPE, "cs has a cell out of range"),
    ("tj-cdsr", _HEAD_OFF_TAPE, "cs has a cell out of range"),
    ("sync-stars", _P4_MISSING_3, "source is not a feasible configuration"),
    ("dominating-set", cycle_graph(5), "needs k"),
    ("ts-dsr", _P4_MISSING_3, "expects a TapeInstance, not a DsrInstance"),
], ids=["ts-dsr-head-off-tape", "tj-cdsr-head-off-tape", "sync-stars-source-misses-3",
        "dominating-set-without-k", "ts-dsr-from-a-dsr-instance"])
def test_the_table_checks_its_input(name, inst, message):
    """``build`` and ``replay`` refuse input of the wrong type, a missing k
    and an instance its validator rejects.  Called directly, ts-dsr put head
    0 on cell 5 of a 2-cell tape, a letter vertex of its output, and
    sync-stars encoded a source that does not dominate."""
    con = CONSTRUCTIONS[name]
    for call in (con.build, con.replay):
        with pytest.raises(MalformedInput, match=message):
            call(inst)
