"""Polynomial tape-count reduction for bounded alphabets.

Instances with more tapes than twice the alphabet size always contain a
redundant tape group: a minimal set of tapes whose joint alphabet is smaller
than the group, each of whose letters can be parked on a distinct tape.
Deleting the group (and erasing its letters everywhere) preserves the answer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .dsr import DEFAULT_STATE_CAP, ReconfigResult
from .errors import MalformedInput
from .graphs import bits
from .tapes import Tape, TapeInstance, solve_tape

INF = float("inf")


@dataclass(frozen=True)
class EmptyTape:
    """A tape with no letters anywhere; it can be deleted outright."""

    index: int


@dataclass(frozen=True)
class ReducibleSubset:
    indices: tuple[int, ...]  # the tape group L, as indices into the input list
    letters: tuple[int, ...]  # its joint alphabet
    assignment: dict[int, tuple[int, int]]  # letter -> (tape index, cell)


def extract_reducible_subset(
    tapes: Sequence[Tape], heads: Optional[Sequence[int]] = None
) -> EmptyTape | ReducibleSubset:
    """Find a deletable tape group among ``tapes``.

    Scans subsets by increasing size, so the first hit is inclusion-minimal;
    by pigeonhole a hit exists whenever there are more tapes than letters in
    use.  Letters are assigned to cells of distinct member tapes minimizing
    the total head-to-cell distance over all injective assignments (ties
    broken lexicographically), which is what keeps the follow-up walk order
    acyclic.
    """
    if heads is None:
        heads = [t.start for t in tapes]
    alph = [t.alphabet_mask() for t in tapes]
    for i, m in enumerate(alph):
        if m == 0:
            return EmptyTape(i)
    total_letters = 0
    for m in alph:
        total_letters |= m
    if len(tapes) <= total_letters.bit_count():
        raise MalformedInput(
            f"need more tapes ({len(tapes)}) than letters in use ({total_letters.bit_count()})"
        )

    for size in range(2, len(tapes) + 1):
        for combo in itertools.combinations(range(len(tapes)), size):
            m = 0
            for i in combo:
                m |= alph[i]
            if m.bit_count() >= size:
                continue
            letters = tuple(bits(m))
            assignment = _best_assignment(tapes, heads, combo, letters)
            if assignment is None:
                # Hall's condition holds for a minimal group, so this branch
                # would mean the group is not minimal; keep scanning.
                continue
            return ReducibleSubset(indices=combo, letters=letters, assignment=assignment)
    raise MalformedInput("no reducible tape group found")  # unreachable given the pigeonhole check


def _best_assignment(
    tapes: Sequence[Tape],
    heads: Sequence[int],
    group: tuple[int, ...],
    letters: tuple[int, ...],
) -> Optional[dict[int, tuple[int, int]]]:
    """Min-total-distance injective letter -> (tape, cell) assignment within the group."""
    # nearest[(letter, tape)] = (distance, cell) for the closest cell holding the letter
    nearest: dict[tuple[int, int], tuple[float, int]] = {}
    for i in group:
        dist = tapes[i].cells.distances(heads[i])
        for letter in letters:
            best = (INF, -1)
            for cell in range(tapes[i].cells.n):
                if tapes[i].content[cell] >> letter & 1 and dist[cell] < best[0]:
                    best = (dist[cell], cell)
            if best[1] >= 0:
                nearest[(letter, i)] = best

    best_key, best_pick = None, None
    for perm in itertools.permutations(group, len(letters)):
        cost, pick = 0.0, []
        ok = True
        for letter, i in zip(letters, perm):
            hit = nearest.get((letter, i))
            if hit is None:
                ok = False
                break
            cost += hit[0]
            pick.append((letter, (i, hit[1])))
        if not ok:
            continue
        key = (cost, pick)
        if best_key is None or key < best_key:
            best_key, best_pick = key, pick
    if best_pick is None:
        return None
    return dict(best_pick)


def _strip_letters(tape: Tape, keep_map: dict[int, int]) -> Tape:
    content = []
    for m in tape.content:
        nm = 0
        for letter in bits(m):
            if letter in keep_map:
                nm |= 1 << keep_map[letter]
        content.append(nm)
    return Tape(tape.cells, tuple(content), tape.start, tape.end, tape.number)


def tape_reduce_once(inst: TapeInstance) -> TapeInstance:
    """Return an equivalent instance with strictly fewer tapes.

    Requires an unsynchronized instance with more than 2 * sigma tapes.  The
    provenance of the result records which tapes were deleted and which
    letters were erased (by their ids in the input instance).
    """
    if inst.sync:
        raise MalformedInput("tape reduction applies to unsynchronized instances")
    if len(inst.tapes) <= 2 * inst.sigma:
        raise MalformedInput(
            f"{len(inst.tapes)} tapes is not more than twice the alphabet ({inst.sigma})"
        )

    empty = [i for i, t in enumerate(inst.tapes) if t.alphabet_mask() == 0]
    if empty:
        return _drop(inst, dropped=empty, erased=[])

    # Reserve a group whose end-of-run cells jointly cover the alphabet, by
    # greedy cover over the ct contents; it stays untouched so the deleted
    # tapes can always reach their own targets at the end.
    full = inst.full_mask
    covered, reserve = 0, []
    while covered != full:
        gain, pick = -1, -1
        for i, t in enumerate(inst.tapes):
            if i in reserve:
                continue
            g = (t.content[inst.ct[i]] & full & ~covered).bit_count()
            if g > gain:
                gain, pick = g, i
        if gain <= 0:
            raise MalformedInput("ct does not cover the alphabet")
        reserve.append(pick)
        covered |= inst.tapes[pick].content[inst.ct[pick]]

    rest = [i for i in range(len(inst.tapes)) if i not in reserve]
    sub = extract_reducible_subset(
        [inst.tapes[i] for i in rest], heads=[inst.cs[i] for i in rest]
    )
    assert isinstance(sub, ReducibleSubset)
    dropped = [rest[i] for i in sub.indices]
    return _drop(inst, dropped=dropped, erased=list(sub.letters))


def _drop(inst: TapeInstance, dropped: list[int], erased: list[int]) -> TapeInstance:
    dropped_set = set(dropped)
    keep_letters = [l for l in range(inst.sigma) if l not in set(erased)]
    keep_map = {old: new for new, old in enumerate(keep_letters)}
    tapes, cs, ct = [], [], []
    for i, t in enumerate(inst.tapes):
        if i in dropped_set:
            continue
        tapes.append(_strip_letters(t, keep_map))
        cs.append(inst.cs[i])
        ct.append(inst.ct[i])
    return TapeInstance(
        sigma=len(keep_letters),
        tapes=tuple(tapes),
        cs=tuple(cs),
        ct=tuple(ct),
        sync=False,
        r=None,
        provenance={
            "construction": "tape-reduction",
            "deleted_tapes": sorted(dropped),
            "erased_letters": sorted(erased),
        },
    )


def reduce_tapes_fully(inst: TapeInstance) -> tuple[TapeInstance, list[dict]]:
    """Apply single reductions until at most 2 * sigma tapes remain."""
    log: list[dict] = []
    while not inst.sync and len(inst.tapes) > 2 * inst.sigma:
        inst = tape_reduce_once(inst)
        assert inst.provenance is not None
        log.append(
            {
                "deletedTapes": inst.provenance["deleted_tapes"],
                "erasedLetters": inst.provenance["erased_letters"],
            }
        )
    return inst, log


def solve_bounded_alphabet(inst: TapeInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    """Reduce the tape count to at most 2 * sigma, then search.

    No reduction is claimed for synchronized instances; those go straight to
    the exhaustive solver.
    """
    reduced, _ = reduce_tapes_fully(inst)
    return solve_tape(reduced, state_cap)
