import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from reconflab.errors import MalformedInput
from reconflab.graphs import Graph, bits
from reconflab.tape_reduce import (
    _redundant_group,
    reduce_tapes_fully,
    solve_bounded_alphabet,
    tape_reduce_once,
)
from reconflab.tapes import Tape, TapeInstance, is_valid_configuration, path_tape, solve_tape
from tape_oracle import parking, walk_order


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


def check_parking(tapes, heads, group, letters):
    """The proof's parking of ``letters`` on distinct tapes of ``group`` exists
    and its park-in walks have an acyclic order."""
    assignment = parking(tapes, heads, group, letters)
    assert assignment is not None, "Hall's condition failed on a deleted group"
    used = [tape for tape, _ in assignment.values()]
    assert len(set(used)) == len(used)  # one cell per distinct tape
    for letter, (tape, cell) in assignment.items():
        assert tape in group
        assert tapes[tape].content[cell] >> letter & 1
    assert sorted(walk_order(tapes, heads, assignment)) == sorted(letters)


# ------------------------------------------------------- redundant group

def test_extract_all_same_letter():
    tapes = [path_tape([1, 1]) for _ in range(2)]  # sigma=1, sigma+1 tapes
    assert _redundant_group(tapes) == ((0, 1), 1)
    check_parking(tapes, [t.start for t in tapes], (0, 1), [0])


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
    group, letters = _redundant_group(tapes)
    # postconditions
    alph = 0
    for i in group:
        alph |= tapes[i].alphabet_mask()
    assert alph == letters and letters.bit_count() < len(group)
    check_parking(tapes, [t.start for t in tapes], group, list(bits(letters)))
    # first by size, then lexicographically, vs exhaustive scan
    for size in range(1, len(group) + 1):
        for combo in itertools.combinations(range(len(tapes)), size):
            if combo == group:
                return
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
    out = tape_reduce_once(inst)
    assert len(out.tapes) < len(inst.tapes)
    check_parking(inst.tapes, inst.cs, out.provenance["deleted_tapes"],
                  out.provenance["erased_letters"])
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


@pytest.mark.parametrize("tape1", [
    Tape(Graph(2, []), (1, 1), 0, 1),  # disconnected cells
    path_tape([3, 1]),  # letter 1 outside an alphabet of one letter
], ids=["disconnected-tape", "letter-outside-alphabet"])
def test_bounded_alphabet_rejects_what_solve_tape_rejects(tape1):
    tapes = (path_tape([1, 1]), tape1, path_tape([1, 1]), path_tape([1, 1]))
    inst = TapeInstance(1, tapes, (0, 0, 0, 0), (1, 1, 1, 1))
    for solver in (solve_tape, solve_bounded_alphabet, reduce_tapes_fully):
        with pytest.raises(MalformedInput):
            solver(inst)
