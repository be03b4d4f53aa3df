"""Polynomial tape-count reduction for bounded alphabets.

``reduce_tapes_fully`` checks its instance once with ``tapes.require_valid``,
then shrinks it until at most 2 * sigma tapes remain.  Each step deletes the
tapes with no letters or, failing that, the first redundant group (by size,
then lexicographically) outside a reserve that covers the alphabet at ct: a
group whose joint alphabet is smaller than the group, whose letters are then
erased everywhere.  The proof parks each erased letter on a distinct member
tape at a distance-minimal cell; the tests check that such a parking exists
and gives an acyclic walk order on every group deleted.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from .dsr import DEFAULT_STATE_CAP, ReconfigResult
from .errors import MalformedInput
from .graphs import bits
from .tapes import Tape, TapeInstance, require_valid, solve_tape


def _redundant_group(tapes: Sequence[Tape]) -> tuple[tuple[int, ...], int]:
    """The first group of ``tapes``, by size and then in lexicographic order,
    whose joint alphabet is smaller than the group, with that alphabet's mask.

    Every letter of the group L returned can be parked on a distinct member
    tape.  Each smaller group S was scanned first, so |A(S)| >= |S|.  If a
    set X of L's letters sat on a set N of fewer than |X| member tapes, then
    S = L - N would be a smaller group with
    |A(S)| <= |A(L)| - |X| < |L| - |N| = |S|.  So Hall's condition holds.

    The caller passes more tapes than letters in use, so the whole list is a
    redundant group and the scan always ends in a hit.
    """
    alph = [t.alphabet_mask() for t in tapes]
    for size in range(1, len(tapes) + 1):
        for group in itertools.combinations(range(len(tapes)), size):
            m = 0
            for i in group:
                m |= alph[i]
            if m.bit_count() < size:
                return group, m
    raise AssertionError("no redundant tape group among more tapes than letters")


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

    Requires a valid (``tapes.require_valid``) unsynchronized instance with
    more than 2 * sigma tapes.  The provenance of the result records which
    tapes were deleted and which letters were erased (by their ids in the
    input instance).
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
    group, letters = _redundant_group([inst.tapes[i] for i in rest])
    return _drop(inst, dropped=[rest[i] for i in group], erased=list(bits(letters)))


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
    """Check ``inst``, then apply single reductions until at most 2 * sigma
    tapes remain."""
    require_valid(inst)
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
