"""Reference tape search, and the parking claim of the tape-count reduction.

``tapes.solve_tape`` checks the instance once on entry and then tests a moved
head only for coverage and the number window; this module keeps the direct
successors it replaced, which validate each expanded configuration and each
successor with ``is_valid_configuration``, as the oracle the search is
compared against.  The oracle's witness is a search from cs alone
(``helpers.one_sided_path``) and its count a search from both ends
(``helpers.two_ended_count``), as ``dsr.bfs`` returns them.

``tapes.is_irreducible`` searches only the letter masks its cells reach;
``is_irreducible`` here keeps the dense dynamic programme over every alphabet
mask that it replaced.

``tape_reduce`` deletes a tape group without building the parking its proof
uses; ``parking`` and ``walk_order`` build it and check it on the group the
reduction deletes.
"""
from __future__ import annotations

import itertools
from collections import deque
from typing import Optional, Sequence

from helpers import one_sided_path, two_ended_count
from reconflab.dsr import ReconfigResult
from reconflab.errors import MalformedInput
from reconflab.tapes import (
    MultiTapeInstance,
    Tape,
    TapeInstance,
    _all_tapes,
    is_valid_configuration,
)


def successors(inst: TapeInstance, config: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Move exactly one head along a tape edge; keep only valid results."""
    if not is_valid_configuration(inst, config):
        raise MalformedInput("successors of an invalid configuration")
    out = []
    for i, tape in enumerate(inst.tapes):
        for nb in tape.cells.adj[config[i]]:
            nxt = config[:i] + (nb,) + config[i + 1 :]
            if is_valid_configuration(inst, nxt):
                out.append(nxt)
    return out


def solve_tape(inst: TapeInstance, state_cap: int) -> ReconfigResult:
    """Breadth-first search over ``successors`` from cs alone, with
    ``solve_tape``'s signature; the count and the cap outcome are those of a
    search from both ends."""
    cs, ct = tuple(inst.cs), tuple(inst.ct)
    for name, config in (("cs", cs), ("ct", ct)):
        if not is_valid_configuration(inst, config):
            raise MalformedInput(f"{name} is not a valid configuration")
    step = lambda c: successors(inst, c)
    explored = two_ended_count(cs, ct, step, state_cap)
    path = one_sided_path(cs, ct, step)
    return ReconfigResult(path is not None, path, explored)


# ---------------------------------------------------------------------------
# irreducibility


def is_irreducible(inst: TapeInstance | MultiTapeInstance) -> bool:
    """Fewest cells, at most one per tape, covering each of the 2^σ masks."""
    tapes = _all_tapes(inst)
    full = (1 << inst.sigma) - 1
    INF = len(tapes) + 1
    dist = [INF] * (full + 1)
    dist[0] = 0
    for t in tapes:
        masks = sorted({c & full for c in t.content if c & full})
        if not masks:
            continue
        nxt = list(dist)
        for m in range(full + 1):
            if dist[m] >= INF:
                continue
            for cm in masks:
                nm = m | cm
                if nxt[nm] > dist[m] + 1:
                    nxt[nm] = dist[m] + 1
        dist = nxt
    return dist[full] >= len(tapes)


# ---------------------------------------------------------------------------
# parking of a deleted tape group

def distances(g, source: int) -> list[float]:
    """Edge counts of shortest paths from ``source``, by a plain breadth-first
    search; inf where unreachable."""
    dist = [float("inf")] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == float("inf"):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def parking(
    tapes: Sequence[Tape], heads: Sequence[int], group: Sequence[int], letters: Sequence[int]
) -> Optional[dict[int, tuple[int, int]]]:
    """Min-total-distance injective letter -> (tape, cell) map within ``group``.

    Each letter goes to a distinct member tape, on a cell that holds it,
    minimizing the total head-to-cell distance over every injective map (ties
    broken lexicographically); None when no injective map exists.
    """
    # nearest[(letter, tape)] = (distance, cell) for the closest cell holding the letter
    nearest: dict[tuple[int, int], tuple[int, int]] = {}
    for i in group:
        dist = distances(tapes[i].cells, heads[i])
        for letter in letters:
            hits = [(dist[c], c) for c in range(tapes[i].cells.n)
                    if tapes[i].content[c] >> letter & 1]
            if hits:
                nearest[(letter, i)] = min(hits)
    best = None
    for perm in itertools.permutations(group, len(letters)):
        pairs = list(zip(letters, perm))
        if not all(pair in nearest for pair in pairs):
            continue
        key = (sum(nearest[pair][0] for pair in pairs),
               [(letter, (i, nearest[(letter, i)][1])) for letter, i in pairs])
        if best is None or key < best:
            best = key
    return None if best is None else dict(best[1])


def walk_order(tapes: Sequence[Tape], heads: Sequence[int],
               assignment: dict[int, tuple[int, int]]) -> list[int]:
    """Topological order of the letters' park-in walks; cycles are a bug.

    Arc a -> b when letter a occurs on letter b's tape strictly closer to its
    head than b's parking cell; minimal-distance parking makes this acyclic.
    """
    letters = list(assignment)
    arcs: dict[int, set[int]] = {a: set() for a in letters}
    for b in letters:
        tape_b, cell_b = assignment[b]
        dist = distances(tapes[tape_b].cells, heads[tape_b])
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
