"""Answers the benchmark computes without the program's solvers.

Each oracle is a breadth-first search or a subset enumeration written here on
plain bitmasks and tuples, sharing no code with ``reconflab``'s own search.
They run outside the timed region, once per item per run, and return the
answer together with the shortest-witness length (number of moves).
"""
from __future__ import annotations

import itertools

from reconflab.dsr import SLIDE, DsrInstance
from reconflab.graphs import Graph
from reconflab.tapes import TapeInstance


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def connected(g: Graph, mask: int) -> bool:
    """The vertices of ``mask`` induce a connected subgraph."""
    start = mask & -mask
    seen, frontier = start, start
    while frontier:
        grow = 0
        for v in _bits(frontier):
            grow |= g.nbr_mask[v]
        frontier = grow & mask & ~seen
        seen |= frontier
    return seen == mask


def dsr_distance(inst: DsrInstance) -> tuple[bool, int | None]:
    """Reachability and shortest move count for (core, connected, partitioned) DSR."""
    g = inst.graph
    core = _mask(inst.core_set())
    part = [g.full_mask] * g.n
    for p in inst.partition or ():
        for v in p:
            part[v] = _mask(p)
    src, tgt = _mask(inst.source), _mask(inst.target)
    if src == tgt:
        return True, 0
    seen = {src}
    frontier, depth = [src], 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            for u in _bits(m):
                rest = m & ~(1 << u)
                cover = 0
                for w in _bits(rest):
                    cover |= g.closed_mask[w]
                need = core & ~cover
                dests = (g.nbr_mask[u] if inst.rule == SLIDE else g.full_mask) & ~m & part[u]
                for v in _bits(dests):
                    if need & ~g.closed_mask[v]:
                        continue
                    nm = rest | 1 << v
                    if nm in seen or (inst.connected and not connected(g, nm)):
                        continue
                    if nm == tgt:
                        return True, depth
                    seen.add(nm)
                    nxt.append(nm)
        frontier = nxt
    return False, None


def _tape_valid(inst: TapeInstance, config) -> bool:
    covered = 0
    for tape, c in zip(inst.tapes, config):
        covered |= tape.content[c]
    if covered & inst.full_mask != inst.full_mask:
        return False
    if inst.sync:
        nums = [t.number[c] for t, c in zip(inst.tapes, config)]
        return all((a - b) % inst.r in (0, 1, inst.r - 1)
                   for a, b in itertools.combinations(nums, 2))
    return True


def tape_distance(inst: TapeInstance) -> tuple[bool, int | None]:
    """Reachability and shortest move count over head tuples."""
    src, tgt = tuple(inst.cs), tuple(inst.ct)
    if src == tgt:
        return True, 0
    seen = {src}
    frontier, depth = [src], 0
    while frontier:
        depth += 1
        nxt = []
        for cfg in frontier:
            for i, tape in enumerate(inst.tapes):
                for c in tape.cells.adj[cfg[i]]:
                    new = cfg[:i] + (c,) + cfg[i + 1:]
                    if new in seen or not _tape_valid(inst, new):
                        continue
                    if new == tgt:
                        return True, depth
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return False, None


def has_dominating_set(g: Graph, k: int) -> bool:
    """Some set of exactly k vertices closed-dominates the graph."""
    return any(
        closed_cover(g, combo) == g.full_mask
        for combo in itertools.combinations(range(g.n), k)
    )


def closed_cover(g: Graph, combo) -> int:
    """Vertices dominated by ``combo``, as a mask."""
    m = 0
    for v in combo:
        m |= g.closed_mask[v]
    return m


def witness_valid(inst: DsrInstance, seq) -> bool:
    """Replay a move sequence: endpoints, feasibility of each set, single legal moves."""
    if not seq or seq[0] != inst.source or seq[-1] != inst.target:
        return False
    g = inst.graph
    core = _mask(inst.core_set())
    parts = [_mask(p) for p in inst.partition or ()]
    for d in seq:
        m = _mask(d)
        if len(d) != inst.k or core & ~closed_cover(g, d):
            return False
        if inst.connected and not connected(g, m):
            return False
        if any((m & p).bit_count() != 1 for p in parts):
            return False
    for a, b in zip(seq, seq[1:]):
        gone, new = a - b, b - a
        if len(gone) != 1 or len(new) != 1:
            return False
        (u,), (v,) = gone, new
        if inst.rule == SLIDE and not g.nbr_mask[u] >> v & 1:
            return False
    return True
