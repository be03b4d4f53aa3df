"""Reference token search: frozenset successors checked one candidate at a time.

``dsr._bfs`` finds each token's destinations as one bitmask; this module keeps
the direct construction it replaced, which builds every candidate
configuration and asks ``plain_is_feasible`` about it, as the oracle the
kernel is compared against.  ``bfs`` takes its witness from a search from
the source alone and its count from a search from both ends, the two
``dsr.bfs`` returns.  ``plain_is_feasible`` is ``dsr.is_feasible`` as
it was before it tested connectivity first: domination, then one flood fill.
``is_legal_move`` states the move rule on one pair of configurations, apart
from ``dsr._move_masks``, the table the search and ``dsr.verify_witness`` read.
``solve_per_component`` is ``dsr.solve``'s split of a disconnected sliding
instance as it was before it searched each component on the input graph: on
a relabelled subgraph per component, mapped back.
``minimum_dominating_sets`` lists every minimum dominating set, searching
sizes 0..k in turn, as the sliding reduction's certificate did before it
streamed the sets of one size from ``dsr.enumerate_dominating_sets``.
"""
from __future__ import annotations

from typing import Optional

from helpers import one_sided_path, two_ended_count
from reconflab.dsr import (DEFAULT_STATE_CAP, SLIDE, DsrInstance, ReconfigResult, _bfs,
                          dominating_sets_of_size)
from reconflab.errors import InfeasibleInstance, MalformedInput
from reconflab.graphs import Graph, component_of, mask_of, quotient


def plain_is_feasible(inst: DsrInstance, d: frozenset[int]) -> bool:
    """Size k, dominates the core, plus the connectivity/partition side conditions."""
    if len(d) != inst.k:
        return False
    g = inst.graph
    closed = g.closed_mask
    dmask = covered = 0
    for v in d:
        dmask |= 1 << v
        covered |= closed[v]
    core = g.full_mask if inst.core is None else mask_of(inst.core)
    if core & ~covered:
        return False
    if inst.connected and component_of(g, dmask) != dmask:
        return False
    if inst.partition is not None:
        for part in inst.partition:
            if len(d & part) != 1:
                return False
    return True


def part_of(inst: DsrInstance, v: int) -> Optional[frozenset[int]]:
    """The part that holds v, or None when v lies in no part."""
    for part in inst.partition or ():
        if v in part:
            return part
    return None


def is_legal_move(inst: DsrInstance, a: frozenset[int], b: frozenset[int]) -> bool:
    """One token moves from u to v: along an edge when sliding, and under a
    partition within u's part, or from outside every part to outside every
    part.  Domination is not asked."""
    gone, new = a - b, b - a
    if len(gone) != 1 or len(new) != 1:
        return False
    (u,), (v,) = gone, new
    if inst.rule == SLIDE and not inst.graph.has_edge(u, v):
        return False
    return inst.partition is None or part_of(inst, u) == part_of(inst, v)


def successors(inst: DsrInstance, d: frozenset[int]) -> list[frozenset[int]]:
    """All feasible configurations one legal move away, sorted canonically."""
    if not plain_is_feasible(inst, d):
        raise MalformedInput("successors called on an infeasible configuration")
    out = []
    for u in d:
        for v in range(inst.graph.n):
            nxt = d - {u} | {v}
            if v not in d and is_legal_move(inst, d, nxt) and plain_is_feasible(inst, nxt):
                out.append(nxt)
    return sorted(out, key=sorted)


def bfs(inst: DsrInstance, state_cap: int) -> ReconfigResult:
    """Breadth-first search over ``successors`` from the source alone, with
    ``dsr._bfs``'s signature; the count and the cap outcome are those of a
    search from both ends."""
    step = lambda d: successors(inst, d)
    explored = two_ended_count(inst.source, inst.target, step, state_cap)
    path = one_sided_path(inst.source, inst.target, step)
    return ReconfigResult(path is not None, path, explored)


def solve_per_component(inst: DsrInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    """Sliding tokens never change component, so disconnected inputs split."""
    g = inst.graph
    comps = g.components()
    witness_global: list[frozenset[int]] = [inst.source]
    explored = 0
    current = set(inst.source)
    for comp in comps:
        cset = set(comp)
        src = inst.source & cset
        tgt = inst.target & cset
        if len(src) != len(tgt):
            return ReconfigResult(False, None, explored)
        if not src:  # the source dominates the core, so no core vertex is here
            continue
        sub, remap = quotient(g, {v: None for v in range(g.n) if v not in cset})
        back = {nv: ov for ov, nv in remap.items()}
        sub_inst = DsrInstance(
            graph=sub,
            k=len(src),
            source=frozenset(remap[v] for v in src),
            target=frozenset(remap[v] for v in tgt),
            rule=inst.rule,
            connected=False,
            core=frozenset(remap[v] for v in inst.core_set() & cset),
        )
        res = _bfs(sub_inst, state_cap)
        explored += res.explored
        if not res.reachable:
            return ReconfigResult(False, None, explored)
        assert res.witness is not None
        prev = src
        for step in res.witness[1:]:
            newpos = {back[v] for v in step}
            current = (current - prev) | newpos
            witness_global.append(frozenset(current))
            prev = newpos
    return ReconfigResult(True, tuple(witness_global), explored)


def minimum_dominating_sets(g: Graph, k: int) -> list[frozenset[int]]:
    """All minimum-cardinality dominating sets, searching sizes 0..k.

    The returned sets have the domination number as their size; if that is
    smaller than k the caller sees it directly from the result.  Raises when
    no dominating set of size at most k exists.
    """
    for size in range(0, k + 1):
        found = dominating_sets_of_size(g, size)
        if found:
            return found
    raise InfeasibleInstance(f"no dominating set of size at most {k}")
