import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import tape_oracle
from helpers import partitioned_instance, successors, tape_is_subdivided_star
from reconflab import tapes
from reconflab.dsr import DEFAULT_STATE_CAP
from reconflab.errors import MalformedInput, StateCapExceeded
from reconflab.generators import gen_random_tape_instance
from reconflab.graphs import Graph, complete_graph, cycle_graph
from reconflab.reductions import ds_to_sync_multi, partitioned_dsr_to_sync_stars
from reconflab.tapes import (
    MultiResult,
    MultiTapeInstance,
    Tape,
    TapeInstance,
    cell_bases,
    extended_edges,
    extended_graph,
    is_irreducible,
    is_valid_configuration,
    path_tape,
    solve_multi,
    solve_tape,
    tape_is_path,
    validate_instance,
    validate_multi,
)

A = 1  # letter 0 as a mask


def single_letter_path(m, masks=None, number=None):
    return path_tape([A] * m if masks is None else masks, number=number)


def instance(tapes, cs, ct, sigma=1, sync=False, r=None):
    return TapeInstance(sigma=sigma, tapes=tuple(tapes), cs=tuple(cs), ct=tuple(ct), sync=sync, r=r)


def random_tape_instance(rng, max_tapes=3, max_cells=4, max_sigma=2):
    """Small random instance with valid cs/ct, resampled until one exists."""
    while True:
        sigma = rng.randint(1, max_sigma)
        p = rng.randint(1, max_tapes)
        tapes = []
        for _ in range(p):
            m = rng.randint(1, max_cells)
            # random connected graph: random tree plus a few extra edges
            edges = [(i, rng.randrange(i)) for i in range(1, m)]
            for u, v in itertools.combinations(range(m), 2):
                if rng.random() < 0.15:
                    edges.append((u, v))
            content = [sum(1 << l for l in range(sigma) if rng.random() < 0.55) for _ in range(m)]
            tapes.append(Tape(Graph(m, edges), tuple(content), start=0, end=m - 1))
        inst0 = instance(tapes, [0] * p, [0] * p, sigma=sigma)
        valid = [
            c
            for c in itertools.product(*(range(t.cells.n) for t in tapes))
            if is_valid_configuration(inst0, c)
        ]
        if len(valid) >= 2:
            cs, ct = rng.sample(valid, 2)
            return instance(tapes, cs, ct, sigma=sigma)


# ----------------------------------------------------------------- validity

def test_validity_single_letter_everywhere():
    t = single_letter_path(3)
    inst = instance([t], [0], [2])
    for c in range(3):
        assert is_valid_configuration(inst, (c,))


def test_validity_two_heads_missing_letter():
    t1 = path_tape([A, A])
    t2 = path_tape([A, A])
    inst = instance([t1, t2], [0, 0], [1, 1], sigma=2)
    assert not is_valid_configuration(inst, (0, 0))  # letter 1 nowhere


def test_validity_sync_window():
    t = single_letter_path(4, number=[1, 2, 3, 4])
    inst = instance([t, t], [0, 0], [3, 3], sync=True, r=4)
    assert is_valid_configuration(inst, (0, 1))
    assert not is_valid_configuration(inst, (0, 2))
    assert is_valid_configuration(inst, (0, 3))  # 1 vs 4: adjacent modulo 4


# ----------------------------------------------------------------- successors

def test_successors_middle_of_path():
    t = single_letter_path(3)
    inst = instance([t], [0], [2])
    assert successors(inst, (1,)) == [(0,), (2,)]


def test_successors_pinned_head():
    # the only copy of letter 1 sits under the head: it cannot move
    t1 = path_tape([2, 1])
    t2 = path_tape([1, 1])
    inst = instance([t1, t2], [0, 0], [0, 1], sigma=2)
    assert successors(inst, (0, 0)) == [(0, 1)]


def test_successors_sync_filter():
    t = single_letter_path(4, number=[1, 2, 3, 4])
    inst = instance([t, t], [0, 0], [3, 3], sync=True, r=4)
    # numbers (1,3) would differ by 2 mod 4, so head 2 cannot advance to cell 2
    assert successors(inst, (0, 1)) == [(1, 1), (0, 0)]


def test_solve_tape_rejects_an_invalid_cs():
    # the instance is checked on entry; the search itself never re-checks
    t1 = path_tape([A, 0])
    inst = instance([t1], [1], [0])
    with pytest.raises(MalformedInput, match="cs is not a valid configuration"):
        solve_tape(inst)


# ----------------------------------------------------------------- solve_tape

def test_solve_tape_walk_path():
    inst = instance([single_letter_path(3)], [0], [2])
    res = solve_tape(inst)
    assert res.reachable and len(res.witness) == 3


def test_solve_tape_interleaving_two_tapes():
    t1 = path_tape([1, 0])
    t2 = path_tape([0, 1])
    inst = instance([t1, t2], [0, 0], [1, 1])
    res = solve_tape(inst)
    # frozen 4-state oracle: head 2 must advance first, then head 1
    assert res.reachable
    assert res.witness == ((0, 0), (0, 1), (1, 1))


def test_solve_tape_unreachable():
    t1 = path_tape([1, 0, 1])
    inst = instance([t1], [0], [2])
    res = solve_tape(inst)
    assert not res.reachable


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_tape_symmetric_and_witness_sound(seed):
    rng = random.Random(seed)
    inst = random_tape_instance(rng)
    res = solve_tape(inst)
    rev = TapeInstance(inst.sigma, inst.tapes, inst.ct, inst.cs, inst.sync, inst.r)
    assert solve_tape(rev).reachable == res.reachable
    if res.reachable:
        for config in res.witness:
            assert is_valid_configuration(inst, config)
        for a, b in zip(res.witness, res.witness[1:]):
            moved = [i for i in range(len(inst.tapes)) if a[i] != b[i]]
            assert len(moved) == 1
            i = moved[0]
            assert inst.tapes[i].cells.has_edge(a[i], b[i])


def _outcome(solver, inst, cap):
    try:
        return solver(inst, cap)
    except StateCapExceeded:
        return "cap"


def _oracle_multi(multi):
    """The first selection, in lexicographic order, that ``solve_tape`` accepts
    (``validate_instance`` finds no problem) and the oracle search reaches."""
    for indices in itertools.product(*(range(len(t)) for t in multi.tuples)):
        sel = multi.select(indices)
        if not validate_instance(sel) and tape_oracle.solve_tape(sel, DEFAULT_STATE_CAP).reachable:
            return MultiResult(True, indices)
    return MultiResult(False, None)


def two_letter_multi(seed):
    """A seeded multi-tape instance of 1-3 tuples of 1-3 path tapes of 1-3
    cells over two letters, each letter on a cell with probability 0.6."""
    rng = random.Random(seed)
    shape = [tuple(path_tape([sum(1 << l for l in range(2) if rng.random() < 0.6)
                              for _ in range(rng.randint(1, 3))])
                   for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    return MultiTapeInstance(sigma=2, tuples=tuple(shape))


def numbered_two_letter_multi(seed):
    """``two_letter_multi`` synchronized, r in 3..5, each tape numbered by a
    walk of steps -1, 0, +1 modulo r: many selections start or end with heads
    on different numbers."""
    rng = random.Random(f"numbered-{seed}")
    r = rng.randint(3, 5)

    def numbered(t):
        walk = [rng.randint(1, r)]
        for _ in range(t.cells.n - 1):
            walk.append((walk[-1] - 1 + rng.choice((-1, 0, 1))) % r + 1)
        return replace(t, number=tuple(walk))

    multi = two_letter_multi(seed)
    return replace(multi, tuples=tuple(tuple(map(numbered, tup)) for tup in multi.tuples),
                   sync=True, r=r)


def oracle_cases():
    """Seeded instances, plain and synchronized, and star encodings; sigma 4
    with sparse letters gives the unreachable cases."""
    cases = [gen_random_tape_instance(seed, 2 + seed % 3, 4, sigma, sync=seed % 2 == 0,
                                      content_prob=prob)
             for sigma, prob in ((2, 0.55), (4, 0.35)) for seed in range(60)]
    cases += [partitioned_dsr_to_sync_stars(partitioned_instance(seed)) for seed in range(20)]
    return cases + [replace(inst, ct=inst.cs) for inst in cases[:4]]


def test_solve_tape_matches_oracle():
    cases = oracle_cases()
    for inst in cases:
        assert solve_tape(inst) == tape_oracle.solve_tape(inst, DEFAULT_STATE_CAP)
    # both heads cover Σ at start and at end, but on numbers 1 and 2, then 2 and 3
    off = instance([path_tape([1, 1], number=[1, 2]), path_tape([0, 0], number=[2, 3])],
                   [0, 0], [1, 1], sigma=1, sync=True, r=3)
    for search in (solve_tape, lambda inst: tape_oracle.solve_tape(inst, DEFAULT_STATE_CAP)):
        with pytest.raises(MalformedInput, match="cs heads are not all on one number"):
            search(off)
    capped = 0
    for cap in range(1, 9):
        for inst in cases:
            got = _outcome(solve_tape, inst, cap)
            assert got == _outcome(tape_oracle.solve_tape, inst, cap)
            capped += got == "cap"
    assert capped

    rng = random.Random("tape-oracle-multi")
    multis = [ds_to_sync_multi(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                         if rng.random() < 0.4]), k)
              for n, k in ((4, 1), (4, 2), (5, 2), (5, 3), (6, 2))]
    multis += [two_letter_multi(seed) for seed in range(20)]
    # both heads cover Σ at start and at end, but on numbers 1 and 2, then 2 and 3
    multis.append(MultiTapeInstance(1, ((path_tape([1, 1], number=[1, 2]),),
                                        (path_tape([0, 0], number=[2, 3]),)), sync=True, r=3))
    multis += [numbered_two_letter_multi(seed) for seed in range(40)]
    off_number = 0
    for multi in multis:
        assert validate_multi(multi) == []
        assert solve_multi(multi) == _oracle_multi(multi)
        for indices in itertools.product(*(range(len(t)) for t in multi.tuples)):
            sel = multi.select(indices)
            try:
                want = tape_oracle.solve_tape(sel, DEFAULT_STATE_CAP)
            except MalformedInput as exc:  # solve_multi skips the selection unsearched
                off_number += "one number" in str(exc)
                with pytest.raises(MalformedInput, match=re.escape(str(exc))):
                    solve_tape(sel)
                continue
            assert tapes._search(sel, DEFAULT_STATE_CAP) == want
    assert off_number


def wrapping_sync_instance(rng, same_ends=False):
    """A synchronized instance with r in 4..7, so that the number window bites.

    Tapes are r-cycles numbered around the modulus, paths numbered by a walk
    of steps -1, 0, +1 modulo r, or single cells; cs and ct each plant every
    head on one shared number, and ``same_ends`` makes them equal.
    """
    while True:
        r, sigma, p = rng.randint(4, 7), rng.randint(1, 3), rng.randint(2, 4)
        tape_list = []
        for _ in range(p):
            shape = rng.choice(("cycle", "cycle", "walk", "cell"))
            if shape == "cycle":
                m, g, first = r, cycle_graph(r), rng.randint(1, r)
                number = [(first - 1 + i) % r + 1 for i in range(r)]
            else:
                m = 1 if shape == "cell" else rng.randint(2, r + 2)
                g, number = Graph(m, [(i, i + 1) for i in range(m - 1)]), [rng.randint(1, r)]
                for _ in range(m - 1):
                    number.append((number[-1] - 1 + rng.choice((-1, 0, 1))) % r + 1)
            content = [sum(1 << l for l in range(sigma) if rng.random() < 0.5) for _ in range(m)]
            tape_list.append(Tape(g, tuple(content), 0, m - 1, tuple(number)))
        probe = instance(tape_list, [0] * p, [0] * p, sigma=sigma, sync=True, r=r)
        planted = [c for x in range(1, r + 1)
                   for c in itertools.product(*([i for i, y in enumerate(t.number) if y == x]
                                                for t in tape_list))
                   if is_valid_configuration(probe, c)]
        if len(planted) >= 2:
            cs, ct = rng.sample(planted, 2)
            return instance(tape_list, cs, cs if same_ends else ct, sigma=sigma, sync=True, r=r)


def test_solve_tape_matches_oracle_on_wrapping_windows():
    rng = random.Random("wrapping-windows")
    cases = [wrapping_sync_instance(rng, same_ends=i < 3) for i in range(60)]
    huge = 10**12  # the window masks hold one bit per number in use, not r bits
    wrap = single_letter_path(3, number=[huge - 1, huge, 1])
    cases.append(instance([wrap, wrap], [0, 0], [2, 2], sync=True, r=huge))
    bites = capped = wraps = 0
    for inst in cases:
        assert validate_instance(inst) == []
        want = tape_oracle.solve_tape(inst, DEFAULT_STATE_CAP)
        assert solve_tape(inst) == want
        for cap in range(1, 9):
            got = _outcome(solve_tape, inst, cap)
            assert got == _outcome(tape_oracle.solve_tape, inst, cap)
            capped += got == "cap"
        bites += tape_oracle.solve_tape(replace(inst, sync=False), DEFAULT_STATE_CAP) != want
        wraps += any({t.number[u], t.number[v]} == {1, inst.r}
                     for t in inst.tapes for u, v in t.cells.edges)
    assert capped and bites and wraps
    assert any(t.cells.n == 1 for inst in cases for t in inst.tapes)
    assert any(inst.cs != inst.ct for inst in cases) and any(inst.cs == inst.ct for inst in cases)
    assert {solve_tape(inst).reachable for inst in cases} == {True, False}


# ----------------------------------------------------------------- solve_multi

def test_multi_singletons_equal_flattened():
    t1 = path_tape([1, 0])
    t2 = path_tape([0, 1])
    multi = MultiTapeInstance(sigma=1, tuples=((t1,), (t2,)))
    res = solve_multi(multi)
    assert res.positive and res.selection == (0, 0)


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=40, deadline=None)
def test_multi_singleton_property(seed):
    rng = random.Random(seed)
    inst = random_tape_instance(rng)
    # flatten to paths only: rebuild tapes as paths to satisfy the multi shape
    tapes = [single_letter_path(3, masks=[t.content[0], t.content[min(1, t.cells.n - 1)], t.content[0]])
             for t in inst.tapes]
    flat = instance(tapes, [0] * len(tapes), [2] * len(tapes), sigma=inst.sigma)
    multi = MultiTapeInstance(sigma=inst.sigma, tuples=tuple((t,) for t in tapes))
    try:
        expected = solve_tape(flat).reachable
    except MalformedInput:
        expected = False
    assert solve_multi(multi).positive == expected


def test_multi_negative_when_no_selection_works():
    t_bad = path_tape([0, 0])
    multi = MultiTapeInstance(sigma=1, tuples=((t_bad, t_bad),))
    assert not solve_multi(multi).positive


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=30, deadline=None)
def test_sync_filter_matches_position_window_on_labeled_paths(seed):
    """On position-numbered paths the modular window filter coincides with a
    plain integer window over positions; both solvers must agree."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    p = rng.randint(1, 3)
    sigma = rng.randint(1, 2)
    tapes = [
        path_tape(
            [sum(1 << l for l in range(sigma) if rng.random() < 0.6) for _ in range(m)],
            number=range(1, m + 1),
        )
        for _ in range(p)
    ]
    probe = instance(tapes, [0] * p, [0] * p, sigma=sigma, sync=True, r=m)
    cols = [j for j in range(m) if is_valid_configuration(probe, (j,) * p)]
    if len(cols) < 2:
        return
    cs, ct = cols[0], cols[-1]
    inst = instance(tapes, [cs] * p, [ct] * p, sigma=sigma, sync=True, r=m)
    got = solve_tape(inst).reachable

    # independent search restricted by integer positions instead of numbers
    from collections import deque

    full = (1 << sigma) - 1

    def ok(config):
        if any(
            min((a - b) % m, (b - a) % m) > 1
            for i, a in enumerate(config)
            for b in config[i + 1:]
        ):
            return False
        covered = 0
        for t, c in zip(tapes, config):
            covered |= t.content[c]
        return covered & full == full

    start, goal = (cs,) * p, (ct,) * p
    seen = {start}
    queue = deque([start])
    found = start == goal
    while queue and not found:
        cur = queue.popleft()
        for i in range(p):
            for nxt_cell in (cur[i] - 1, cur[i] + 1):
                if not (0 <= nxt_cell < m):
                    continue
                nxt = cur[:i] + (nxt_cell,) + cur[i + 1:]
                if nxt in seen or not ok(nxt):
                    continue
                if nxt == goal:
                    found = True
                seen.add(nxt)
                queue.append(nxt)
    assert got == found


# ----------------------------------------------------------------- irreducibility

def test_irreducible_single_tape():
    inst = instance([single_letter_path(2)], [0], [1])
    assert is_irreducible(inst)


def test_reducible_when_one_cell_covers_all():
    t1 = path_tape([3, 0])  # both letters on one cell
    t2 = path_tape([1, 2])
    inst = instance([t1, t2], [0, 0], [0, 1], sigma=2)
    assert not is_irreducible(inst)


def test_irreducible_two_tapes_split_alphabet():
    t1 = path_tape([1, 1])
    t2 = path_tape([2, 2])
    inst = instance([t1, t2], [0, 0], [1, 1], sigma=2)
    assert is_irreducible(inst)


def test_irreducible_on_empty_alphabets_and_no_tapes():
    # zero tapes: no selection is smaller than the tapes, whatever the alphabet
    assert is_irreducible(TapeInstance(0, (), (), ()))
    assert is_irreducible(TapeInstance(3, (), (), ()))
    assert is_irreducible(MultiTapeInstance(2, ()))
    # an empty alphabet is covered by zero cells, fewer than any tape count
    assert not is_irreducible(instance([path_tape([0, 0])], [0], [1], sigma=0))
    assert not is_irreducible(MultiTapeInstance(0, ((path_tape([0]), path_tape([0])),)))


def test_irreducibility_weighs_each_mask_pair_by_its_words(monkeypatch):
    """The 7-tape seed-0 artifact (23 letters) tries 1,306 mask pairs, each
    one 64-bit word; under a 65-letter alphabet the same pairs weigh 2 words
    each, so the dict of masks a wide alphabet stores stays within the cap too."""
    from reconflab import graphs
    from reconflab.errors import SizeCapExceeded
    from reconflab.reductions import desynchronize_triangle

    art = desynchronize_triangle(gen_random_tape_instance(0, tapes=7, cells=2, sigma=2, sync=True))
    monkeypatch.setattr(graphs, "ENUM_CAP", 1_306)
    assert is_irreducible(art)
    assert is_irreducible(replace(art, sigma=64))
    with pytest.raises(SizeCapExceeded):
        is_irreducible(replace(art, sigma=65))
    monkeypatch.setattr(graphs, "ENUM_CAP", 1_305)
    with pytest.raises(SizeCapExceeded):
        is_irreducible(art)
    monkeypatch.setattr(graphs, "ENUM_CAP", 2 * 1_306)
    assert is_irreducible(replace(art, sigma=65))


def test_irreducible_agrees_with_the_dense_oracle():
    """5,000 seeded instances, sigma 0-9 and 0-6 tapes, single and multi-tape."""
    rng = random.Random(1414)
    verdicts = []
    for i in range(5000):
        sigma = rng.randint(0, 9)
        count = rng.randint(0, 6)
        # one spare bit: letters at or above sigma are masked away
        tape_list = [path_tape([rng.getrandbits(sigma + 1) & rng.getrandbits(sigma + 1)
                                for _ in range(rng.randint(1, 4))]) for _ in range(count)]
        if i % 2:
            tuples, j = [], 0
            while j < count:
                size = rng.randint(1, count - j)
                tuples.append(tuple(tape_list[j:j + size]))
                j += size
            inst = MultiTapeInstance(sigma, tuple(tuples))
        else:
            starts = tuple(t.start for t in tape_list)
            inst = TapeInstance(sigma, tuple(tape_list), starts, starts)
        got = is_irreducible(inst)
        assert got == tape_oracle.is_irreducible(inst), (i, inst)
        verdicts.append(got)
    assert 1000 < sum(verdicts) < 4000


# ----------------------------------------------------------------- extended graph

def test_extended_graph_empty_contents():
    t = path_tape([0, 0])
    inst = instance([t], [0], [1], sigma=2)
    # two path cells plus two isolated letter vertices
    g = extended_graph(inst)
    assert g.n == 4 and g.edges == ((0, 1),)


def test_extended_graph_cell_degree_counts_letters():
    t = path_tape([3])  # single cell holding two letters
    inst = instance([t], [0], [0], sigma=2)
    g = extended_graph(inst)
    assert g.degree(0) == 2


def test_extended_graph_layout():
    t1 = path_tape([1, 0])
    t2 = path_tape([1])
    inst = instance([t1, t2], [0, 0], [1, 0])
    assert cell_bases(inst) == (0, 2, 3)  # tape 1's cell 0 is 2, letter 0 is 3
    edges, labels = extended_edges(inst)
    assert edges == [(0, 1), (0, 3), (2, 3)]
    assert labels == {0: "cell:0:0", 1: "cell:0:1", 2: "cell:1:0", 3: "letter:0"}
    g = extended_graph(inst)
    assert g.edges == ((0, 1), (0, 3), (2, 3)) and g.labels == labels


# ----------------------------------------------------------------- validation

def test_validate_clean_instance():
    inst = instance([single_letter_path(3)], [0], [2])
    assert validate_instance(inst) == []


NUMBERED = single_letter_path(3, number=[1, 2, 1])


@pytest.mark.parametrize("tape, sync, r, problems", [
    (NUMBERED, True, None, ["synchronized instance without modulus r"]),
    (NUMBERED, False, 0, ["modulus r=0 is below 1"]),
    (NUMBERED, True, -2, ["modulus r=-2 is below 1"]),
    (single_letter_path(3), True, 4, ["{} lacks a numbering in a synchronized instance"]),
    (single_letter_path(3, number=[1, 2, 5]), True, 4, ["{} numbering leaves [1,4]"]),
    (single_letter_path(3, number=[0, 1, 1]), False, 4, ["{} numbering leaves [1,4]"]),
    (single_letter_path(3, number=[1, 3, 1]), True, 4,
     ["{} cells 0,1 adjacent but numbered 1,3 (gap > 1 mod 4)",
      "{} cells 1,2 adjacent but numbered 3,1 (gap > 1 mod 4)"]),
], ids=["no-modulus", "r-below-1", "r-below-1-sync", "no-numbering", "number-above-r",
        "number-below-1", "adjacent-gap"])
def test_validate_broken_numbering(tape, sync, r, problems):
    """The exact text of each numbering fault, naming a tape of a tape
    instance and a tuple member of a multi-tape instance."""
    ok = single_letter_path(2, number=[1, 1])
    inst = instance([ok, tape], [0, 0], [1, 2], sync=sync, r=r)
    assert validate_instance(inst) == [p.format("tape 1") for p in problems]
    multi = MultiTapeInstance(1, ((ok,), (ok, tape)), sync=sync, r=r)
    assert validate_multi(multi) == [p.format("tuple 1 member 1") for p in problems]


def test_validate_ct_not_covering():
    t = path_tape([1, 0])
    inst = instance([t], [0], [1])
    assert any("ct" in p for p in validate_instance(inst))


def test_validate_shape_flags():
    tri = Tape(complete_graph(3), (1, 1, 1), 0, 2)
    assert validate_instance(instance([tri], [0], [2])) == []
    assert not tape_is_path(tri)
    star = Tape(Graph(4, [(0, 1), (0, 2), (0, 3)]), (1, 1, 1, 1), 1, 2)
    assert tape_is_subdivided_star(star)
    assert not tape_is_path(star)
    assert validate_instance(instance([star], [0], [2])) == []


def test_validate_multi_members_must_be_paths():
    tri = Tape(complete_graph(3), (1, 1, 1), 0, 2)
    multi = MultiTapeInstance(sigma=1, tuples=((tri,),))
    assert any("path" in p for p in validate_multi(multi))
