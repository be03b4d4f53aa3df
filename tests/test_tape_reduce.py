import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from reconflab.errors import MalformedInput
from reconflab.graphs import Graph, bits
from reconflab.tape_reduce import (
    EmptyTape,
    ReducibleSubset,
    extract_reducible_subset,
    reduce_tapes_fully,
    solve_bounded_alphabet,
    tape_reduce_once,
)
from reconflab.tapes import Tape, TapeInstance, is_valid_configuration, path_tape, solve_tape


def random_instance(rng, sigma=None, extra_tapes=2, max_cells=3):
    """Random unsynchronized instance with more than 2*sigma tapes."""
    sigma = sigma or rng.randint(1, 3)
    p = rng.randint(2 * sigma + 1, 3 * sigma + extra_tapes)
    while True:
        tapes = []
        for _ in range(p):
            m = rng.randint(1, max_cells)
            edges = [(i, rng.randrange(i)) for i in range(1, m)]
            content = [sum(1 << l for l in range(sigma) if rng.random() < 0.4) for _ in range(m)]
            tapes.append(Tape(Graph(m, edges), tuple(content), 0, m - 1))
        probe = TapeInstance(sigma, tuple(tapes), tuple(0 for _ in tapes), tuple(0 for _ in tapes))
        valid = [
            c
            for c in itertools.product(*(range(t.cells.n) for t in tapes))
            if is_valid_configuration(probe, c)
        ]
        if len(valid) >= 2:
            cs, ct = rng.sample(valid, 2)
            return TapeInstance(sigma, tuple(tapes), cs, ct)


def walk_order(tapes, heads, sub: ReducibleSubset) -> list[int]:
    """Topological order of the letters' park-in walks; cycles are a bug.

    Arc a -> b when letter a occurs on letter b's tape strictly closer to its
    head than b's parking cell; minimal-distance parking makes this acyclic.
    """
    letters = list(sub.assignment)
    arcs: dict[int, set[int]] = {a: set() for a in letters}
    for b in letters:
        tape_b, cell_b = sub.assignment[b]
        dist = tapes[tape_b].cells.distances(heads[tape_b])
        for a in letters:
            if a != b and any(tapes[tape_b].content[cell] >> a & 1 and dist[cell] < dist[cell_b]
                              for cell in range(tapes[tape_b].cells.n)):
                arcs[a].add(b)
    order, seen, onstack = [], set(), set()

    def visit(a):
        assert a not in onstack, "cyclic walk order: parking cells were not distance-minimal"
        if a in seen:
            return
        onstack.add(a)
        for b in arcs[a]:
            visit(b)
        onstack.discard(a)
        seen.add(a)
        order.append(a)

    for a in letters:
        visit(a)
    order.reverse()
    return order


# ------------------------------------------------------- extract subset

def test_extract_all_same_letter():
    tapes = [path_tape([1, 1]) for _ in range(2)]  # sigma=1, sigma+1 tapes
    sub = extract_reducible_subset(tapes)
    assert isinstance(sub, ReducibleSubset)
    assert len(sub.indices) == 2 and sub.letters == (0,)
    letter, (tape, cell) = next(iter(sub.assignment.items()))
    assert tapes[tape].content[cell] >> letter & 1


def test_extract_reports_empty_tape():
    tapes = [path_tape([1]), path_tape([2]), path_tape([0, 0])]
    sub = extract_reducible_subset(tapes)
    assert sub == EmptyTape(2)


def test_extract_requires_pigeonhole_room():
    with pytest.raises(MalformedInput):
        extract_reducible_subset([path_tape([1]), path_tape([2])])  # 2 tapes, 2 letters


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=60, deadline=None)
def test_extract_postconditions_vs_subset_scan(seed):
    rng = random.Random(seed)
    sigma = rng.randint(1, 3)
    tapes = []
    for _ in range(rng.randint(sigma + 1, 5)):
        m = rng.randint(1, 3)
        content = [sum(1 << l for l in range(sigma) if rng.random() < 0.5) for _ in range(m)]
        tapes.append(path_tape(content))
    sub = extract_reducible_subset(tapes)
    if isinstance(sub, EmptyTape):
        assert tapes[sub.index].alphabet_mask() == 0
        return
    # postconditions
    alph = 0
    for i in sub.indices:
        alph |= tapes[i].alphabet_mask()
    assert set(bits(alph)) == set(sub.letters)
    assert 1 <= len(sub.letters) <= len(sub.indices) - 1
    used_tapes = [t for t, _ in sub.assignment.values()]
    assert len(set(used_tapes)) == len(used_tapes)  # one cell per distinct tape
    for letter, (tape, cell) in sub.assignment.items():
        assert tape in sub.indices
        assert tapes[tape].content[cell] >> letter & 1
    assert sorted(walk_order(tapes, [t.start for t in tapes], sub)) == list(sub.letters)
    # minimality vs exhaustive scan: no smaller group has alphabet < size
    for size in range(1, len(sub.indices)):
        for combo in itertools.combinations(range(len(tapes)), size):
            m = 0
            for i in combo:
                m |= tapes[i].alphabet_mask()
            assert m.bit_count() >= size


# ------------------------------------------------------- single reduction

def test_reduce_once_deletes_empty_tape():
    tapes = (path_tape([1]), path_tape([1]), path_tape([0, 0]))
    inst = TapeInstance(1, tapes, (0, 0, 0), (0, 0, 1))
    out = tape_reduce_once(inst)
    assert len(out.tapes) == 2
    assert out.provenance["deleted_tapes"] == [2]
    assert solve_tape(out).reachable == solve_tape(inst).reachable


def test_reduce_once_single_letter_three_full_tapes():
    tapes = tuple(path_tape([1, 1]) for _ in range(3))
    inst = TapeInstance(1, tapes, (0, 0, 0), (1, 1, 1))
    out = tape_reduce_once(inst)
    assert len(out.tapes) < 3
    assert solve_tape(out).reachable == solve_tape(inst).reachable


def test_reduce_once_rejects_sync_and_small():
    t = path_tape([1, 1], number=[1, 2])
    with pytest.raises(MalformedInput):
        tape_reduce_once(TapeInstance(1, (t, t, t), (0, 0, 0), (1, 1, 1), sync=True, r=2))
    with pytest.raises(MalformedInput):
        tape_reduce_once(TapeInstance(1, (path_tape([1]), path_tape([1])), (0, 0), (0, 0)))


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=80, deadline=None)
def test_reduce_once_preserves_answer(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    sub = extract_reducible_subset(inst.tapes, heads=inst.cs)
    if isinstance(sub, ReducibleSubset):
        assert sorted(walk_order(inst.tapes, inst.cs, sub)) == list(sub.letters)
    out = tape_reduce_once(inst)
    assert len(out.tapes) < len(inst.tapes)
    assert solve_tape(out).reachable == solve_tape(inst).reachable


# ------------------------------------------------------- full pipeline

def test_full_reduction_reaches_bound():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng)
        reduced, log = reduce_tapes_fully(inst)
        assert len(reduced.tapes) <= 2 * reduced.sigma
        assert log  # something was reduced


def test_solve_bounded_alphabet_trivial_when_small():
    t1, t2 = path_tape([1, 1]), path_tape([1, 1])
    inst = TapeInstance(1, (t1, t2), (0, 0), (1, 1))
    assert solve_bounded_alphabet(inst).reachable == solve_tape(inst).reachable


def test_solve_bounded_alphabet_four_full_tapes():
    tapes = tuple(path_tape([1, 1, 1]) for _ in range(4))
    inst = TapeInstance(1, tapes, (0, 0, 0, 0), (2, 2, 2, 2))
    assert solve_bounded_alphabet(inst).reachable


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_bounded_alphabet_agrees(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    assert solve_bounded_alphabet(inst).reachable == solve_tape(inst).reachable
