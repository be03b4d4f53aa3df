"""Exact reachability for dominating-set reconfiguration under sliding and jumping.

Configurations are exact-k vertex sets (no token stacking, no null moves).
``bfs`` is the package's one breadth-first search: the token search here and
the head search of ``tapes`` both run on it, each with its own successors.
It grows from both ends, which token moves allow since they are reversible,
and returns the witness a search from the source alone returns.
Inside the token search a configuration D is an int bitmask, and the legal
destinations of the token on u come out as one mask: with ``priv(u)`` the
core vertices that u alone dominates (one pass over the tokens finds the
vertices dominated twice, O(k) per state), they are
``AND_{x in priv(u)} N[x] & ~D``, further masked by N(u) for sliding and by
u's part for partitioned instances.  For connected instances that mask is
ANDed with the vertices adjacent to every component of D - u, found once per
token with ``graphs.component_of``, the one connectivity primitive.
Successors are still expanded in lexicographic order of their sorted vertex
lists, so witnesses are reproducible byte for byte.  The per-vertex move
table ``_move_masks`` has a second reader, ``verify_witness``, so a witness
is checked against the very moves the search made.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import MalformedInput, SizeCapExceeded, StateCapExceeded
from . import graphs
from .graphs import Graph, bits, check_vertices, closed_mask_of, component_of, mask_of, set_of

SLIDE = "slide"
JUMP = "jump"

DEFAULT_STATE_CAP = 2_000_000


@dataclass(frozen=True)
class DsrInstance:
    graph: Graph
    k: int
    source: frozenset[int]
    target: frozenset[int]
    rule: str = SLIDE
    connected: bool = False
    core: Optional[frozenset[int]] = None  # defaults to all vertices
    partition: Optional[tuple[frozenset[int], ...]] = None
    provenance: Optional[dict] = field(default=None, compare=False)

    def core_set(self) -> frozenset[int]:
        return self.core if self.core is not None else frozenset(range(self.graph.n))


@dataclass(frozen=True)
class ReconfigResult:
    reachable: bool
    witness: Optional[tuple[frozenset[int], ...]]
    explored: int


def bfs(start, goal, successors, state_cap: int):
    """Shortest path from ``start`` to ``goal`` (None if none) and the number of states stored.

    ``successors(state, visited)`` lists the states one move away in a fixed
    order; it may leave out states already in ``visited``.  Moves must be
    reversible (y among x's successors iff x among y's), as token and head
    moves are: both ends of a legal move are feasible, or valid.

    The search grows whole levels from both ends, always the smaller frontier
    (the start side on a tie), and stops at the first state one side generates
    that the other has stored.  Then, with a the start side's last complete
    level and b the goal side's, every path is at least a + b + 1 moves long,
    and one through that state is that long.  The returned path is the one
    a search from ``start`` alone returns: the lexicographically first
    shortest path, each step labelled by its position in the successor list,
    since such a search queues a level in that order and keeps a state's
    first-queued neighbour as its parent.  The start side grows exactly those
    levels, so the path is the parent chain of the first state x of level a
    with a successor on goal level b, then from x's first such successor down
    the goal side, each time to the first successor one level closer to the
    goal.

    The count is the states the two sides stored, start and goal included
    and the meeting state not; ``state_cap`` bounds that count, tested after
    the meeting.  Token and tape searches both run on this function.
    """
    if start == goal:
        return (start,), 1
    parent, dist = {start: None}, {goal: 0}  # start side: parent; goal side: moves to the goal
    front, back = [start], [goal]
    while front and back:
        forward = len(front) <= len(back)
        own, other = (parent, dist) if forward else (dist, parent)
        level = []
        for cur in front if forward else back:
            tag = cur if forward else dist[cur] + 1
            for nxt in successors(cur, own):
                if nxt in own:
                    continue
                if nxt in other:
                    if not forward:  # front's first state with a successor on cur's level
                        depth = dist[cur]
                        cur, nxt = next((x, y) for x in front for y in successors(x, parent)
                                        if dist.get(y) == depth)
                    return _join(cur, nxt, parent, dist, successors), len(parent) + len(dist)
                own[nxt] = tag
                if len(parent) + len(dist) > state_cap:
                    raise StateCapExceeded(f"search passed {state_cap} configurations")
                level.append(nxt)
        if forward:
            front = level
        else:
            back = level
    return None, len(parent) + len(dist)


def _join(x, y, parent, dist, successors):
    """The start side's parent chain to x, then y and the goal side's first
    successors down to the goal.  Goal-side states are never in ``parent``,
    so the successors may leave out its states."""
    path = [x]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    path.append(y)
    for depth in range(dist[y] - 1, -1, -1):
        path.append(next(z for z in successors(path[-1], parent) if dist.get(z) == depth))
    return tuple(path)


def check_token_sets(inst) -> None:
    """Source and target each hold k vertices of the graph; dsr and dcr
    instances both carry these fields."""
    for name, s in (("source", inst.source), ("target", inst.target)):
        if len(s) != inst.k:
            raise MalformedInput(f"{name} has size {len(s)}, expected k={inst.k}")
        check_vertices(inst.graph, s, f"{name} vertex")


def validate_instance(inst: DsrInstance) -> None:
    g = inst.graph
    if inst.rule not in (SLIDE, JUMP):
        raise MalformedInput(f"unknown rule {inst.rule!r}")
    check_token_sets(inst)
    check_vertices(g, inst.core or (), "core vertex")
    if inst.partition is not None:
        seen: set[int] = set()
        for part in inst.partition:
            check_vertices(g, part, "partition vertex")
            if seen & part:
                raise MalformedInput("partition parts overlap")
            seen |= part
        for name, s in (("source", inst.source), ("target", inst.target)):
            for part in inst.partition:
                if len(s & part) != 1:
                    raise MalformedInput(f"{name} must hold exactly one vertex per part")
    for name, s in (("source", inst.source), ("target", inst.target)):
        if not is_feasible(inst, s):
            raise MalformedInput(f"{name} is not a feasible configuration")


def _joins_every_component(g: Graph, rest: int, common: int) -> int:
    """The vertices of the mask ``common`` in or next to every component of
    G[rest], as a mask; all of ``common`` when rest is empty.  A vertex v of
    common outside rest is kept exactly when rest + v induces a connected
    graph.  Stops peeling components once none of common is left."""
    while common and (comp := component_of(g, rest)):
        rest ^= comp
        common &= closed_mask_of(g, bits(comp))
    return common


def _first_picks(g: Graph, chosen: int, pool: int, picks: int) -> int:
    """A mask holding every vertex of ``pool`` that can be the lowest of
    ``picks`` >= 1 vertices of pool whose addition makes G[chosen] connected
    (pool disjoint from chosen).  The lowest pick leaves picks - 1 of pool
    above it.  Each component of G[chosen] needs a pick next to it, so the
    lowest is at most the highest pool vertex next to it, and components
    whose neighbours in pool are pairwise disjoint need one pick each: more
    of them than ``picks`` leave no vertex."""
    room = list(bits(pool))
    if len(room) < picks:
        return 0
    top = (2 << room[-picks]) - 1
    need = seen = 0
    while top and (comp := component_of(g, chosen)):
        chosen ^= comp
        near = closed_mask_of(g, bits(comp)) & pool
        top &= (1 << near.bit_length()) - 1
        if not near & seen:
            need += 1
            seen |= near
    return pool & top if need <= picks else 0


def _core_mask(inst: DsrInstance) -> int:
    return inst.graph.full_mask if inst.core is None else mask_of(inst.core)


def is_feasible(inst: DsrInstance, d: frozenset[int]) -> bool:
    """Size k, dominates the core, plus the connectivity/partition side conditions.

    Callers range-check ``d`` first (``validate_instance``, ``verify_witness``).
    Cheapest rejection first: on connected instances, a set of two or more
    vertices with one that has no neighbour in the set, asked of the set
    itself before its mask is built (``d.isdisjoint(g.nbr_sets[v])`` probes
    min(|d|, deg v) vertices); then the flood fill, then domination.  Most
    budget-size dominating sets a plain enumeration meets have such a vertex.
    """
    if len(d) != inst.k:
        return False
    g = inst.graph
    if inst.connected and len(d) > 1:
        nbr_sets = g.nbr_sets or g.neighbor_sets()
        for v in d:
            if d.isdisjoint(nbr_sets[v]):
                return False
    dmask = mask_of(d)
    if inst.connected and component_of(g, dmask) != dmask:
        return False
    if _core_mask(inst) & ~closed_mask_of(g, d):
        return False
    if inst.partition is not None:
        for part in inst.partition:
            if len(d & part) != 1:
                return False
    return True


def _move_masks(inst: DsrInstance) -> list[int]:
    """Per vertex u, where a token on u may go before domination is checked.

    Sliding allows N(u), jumping every vertex.  Under a partition a token
    stays in its part; a token on a vertex outside every part may only go to
    another such vertex, since any other move leaves a part empty or doubled.
    The one table of legal moves: ``_bfs`` expands along it and
    ``verify_witness`` replays a witness against it.
    """
    g = inst.graph
    moves = list(g.nbr_mask) if inst.rule == SLIDE else [g.full_mask] * g.n
    if inst.partition is not None:
        outside = g.full_mask
        for part in inst.partition:
            pmask = mask_of(part)
            outside &= ~pmask
            for v in part:
                moves[v] &= pmask
        for v in bits(outside):
            moves[v] &= outside
    return moves


def _bfs(inst: DsrInstance, state_cap: int) -> ReconfigResult:
    g = inst.graph
    closed = g.closed_mask
    core = _core_mask(inst)
    moves = _move_masks(inst)
    connected = inst.connected
    # Equal-size sets A, B: A precedes B in the order of sorted vertex lists
    # iff min(A ^ B) lies in A, i.e. iff A's bit-reversed mask is the larger.
    # D - u + v reverses to rev(D) - rank[u] + rank[v], so sorting ascending
    # on rank[u] - rank[v] reproduces that order.
    rank = [1 << (g.n - 1 - v) for v in range(g.n)]

    def successors(cur: int, visited: dict) -> list[int]:
        tokens = list(bits(cur))
        seen = twice = 0
        for u in tokens:
            twice |= seen & closed[u]
            seen |= closed[u]
        once = core & ~twice  # core vertices one token dominates (cur dominates all)
        fresh = []
        for u in tokens:
            dest = moves[u] & ~cur
            priv = once & closed[u]
            while priv and dest:
                low = priv & -priv
                dest &= closed[low.bit_length() - 1]
                priv ^= low
            rest = cur ^ (1 << u)
            if connected and dest:
                dest = _joins_every_component(g, rest, dest)
            ru = rank[u]
            while dest:
                low = dest & -dest
                dest ^= low
                nxt = rest | low
                if nxt in visited:
                    continue
                fresh.append((ru - rank[low.bit_length() - 1], nxt))
        fresh.sort()
        return [nxt for _, nxt in fresh]

    path, explored = bfs(mask_of(inst.source), mask_of(inst.target), successors, state_cap)
    witness = None if path is None else tuple(set_of(m) for m in path)
    return ReconfigResult(path is not None, witness, explored)


def solve(inst: DsrInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    """Breadth-first reachability from source to target; shortest witness.

    Sliding tokens never leave their component, so an instance with no other
    side condition on a disconnected graph is searched one component at a
    time, on the input graph with the other components' tokens and core left
    out; the witnesses are stitched in component order.
    """
    validate_instance(inst)
    if (inst.rule != SLIDE or inst.connected or inst.partition is not None
            or inst.graph.is_connected()):
        return _bfs(inst, state_cap)
    core = inst.core_set()
    cur, witness, explored = inst.source, [inst.source], 0
    for comp in map(frozenset, inst.graph.components()):
        src, tgt = inst.source & comp, inst.target & comp
        if len(src) != len(tgt):
            return ReconfigResult(False, None, explored)
        if not src:  # the source dominates the core, so no core vertex is here
            continue
        res = _bfs(replace(inst, k=len(src), source=src, target=tgt, core=core & comp), state_cap)
        explored += res.explored
        if not res.reachable:
            return ReconfigResult(False, None, explored)
        for step in res.witness[1:]:
            cur = cur - comp | step
            witness.append(cur)
    return ReconfigResult(True, tuple(witness), explored)


def verify_witness(inst: DsrInstance, seq: list[frozenset[int]]) -> bool:
    """Replay ``seq``: every configuration feasible, and each step one token
    moved from u to v with v in ``_move_masks``'s entry for u, the table the
    search expands along.  An invalid instance or a vertex outside the graph
    is malformed input, not a bad move."""
    validate_instance(inst)
    check_vertices(inst.graph, itertools.chain.from_iterable(seq), "witness vertex")
    seq = [frozenset(d) for d in seq]
    if not seq or seq[0] != inst.source or seq[-1] != inst.target:
        return False
    if not all(is_feasible(inst, d) for d in seq):
        return False
    moves = _move_masks(inst)
    for a, b in zip(seq, seq[1:]):
        gone, new = a - b, b - a
        if len(gone) != 1 or len(new) != 1:
            return False
        (u,), (v,) = gone, new
        if not moves[u] >> v & 1:
            return False
    return True


def enumerate_dominating_sets(g: Graph, size: int, target: Optional[int] = None,
                              forced: int = 0, banned: int = 0, connected: bool = False):
    """An iterator over every set of exactly ``size`` vertices that dominates
    ``target`` (a vertex mask, all of V by default), holds every vertex of
    ``forced`` and none of ``banned``; each set once.  With ``connected`` only
    the sets that induce a connected graph, and in the same order as without it.

    Branches on the undominated target x whose N[x] has the fewest vertices
    neither chosen nor banned (the lowest x on a tie; one left ends the scan);
    the vertices earlier siblings took are banned from later ones, which keeps
    each set to one branch.  A child is pushed only if its free slots could
    still cover what is undominated: ``maxcov`` vertices a slot, the largest
    closed neighbourhood of a vertex outside ``banned`` (banned only grows
    down the tree, so no child adds a larger one), and with
    three or more slots one slot per vertex of a greedy packing (take the
    lowest undominated x, drop N[N[x]], repeat), whose vertices are pairwise
    3 apart so no vertex dominates two.  A pruned child yields nothing, so the
    sets and their order are those of the search without the bound.  The
    N[N[x]] table is built once per call, at the first child with three free
    slots, so queries of size 3 or less never build it.  The last slot takes
    the AND of N[x] over the undominated x as one mask.  Once the target is
    dominated the remaining slots are filled by one ``itertools.combinations``
    over the vertices neither chosen nor banned.  One explicit stack, children
    pushed in reverse, so the sets come out in depth-first order.

    A connected query cuts at the leaves: the last slot's mask is ANDed with
    the vertices that join every component of the chosen set.  Its fill
    picks one free vertex per node instead, ascending, with every vertex
    below a pick banned from the pick's child, until one slot is left for
    that mask; the picks ascend as ``combinations``'s do, so the order is
    kept.  A fill node pushes only the picks ``_first_picks`` leaves, and a
    branching node for which it leaves none is cut: the lowest vertex of any
    completion that connects the chosen set is among them.
    Output-sensitive, so it stays usable where scanning all n-choose-size
    subsets would not; past ``graphs.ENUM_CAP`` nodes branched on or filled
    in one call it raises SizeCapExceeded while being iterated.  The search
    hands out blocks (a fill's ``combinations`` mapped to sets, a leaf's sets)
    that ``chain.from_iterable`` flattens, so it resumes once per block, not
    once per set.
    """
    return itertools.chain.from_iterable(
        _dominating_set_blocks(g, size, target, forced, banned, connected))


def _dominating_set_blocks(g, size, target, forced, banned, connected):
    """``enumerate_dominating_sets``'s search, yielding its sets in blocks."""
    full, closed = g.full_mask, g.closed_mask
    if target is None:
        target = full
    d = tuple(bits(forced))
    covered = closed_mask_of(g, d)
    missing = target & ~covered
    maxcov = max((m.bit_count() for u, m in enumerate(closed) if not banned >> u & 1), default=1)
    if forced & banned or missing.bit_count() > (size - len(d)) * maxcov:
        return
    stack = [(d, forced, covered, banned)]  # chosen vertices, their mask, what they dominate, banned
    ball2 = None  # N[N[x]] per vertex x
    nodes, cap = 0, graphs.ENUM_CAP
    while stack:
        d, dmask, covered, banned = stack.pop()
        missing = target & ~covered
        if not missing:
            if not connected:
                free = bits(full & ~(dmask | banned))
                yield map(frozenset(d).union, itertools.combinations(free, size - len(d)))
                continue
            if len(d) == size:
                if component_of(g, dmask) == dmask:
                    yield (frozenset(d),)
                continue
        if len(d) + 1 == size:  # the last vertex must dominate all that is missing
            last = full & ~(dmask | banned)
            while missing and last:
                low = missing & -missing
                last &= closed[low.bit_length() - 1]
                missing ^= low
            if connected and last:
                last = _joins_every_component(g, dmask, last)
            if last:
                yield map(frozenset(d).union, zip(bits(last)))
            continue
        nodes += 1
        if nodes > cap:
            raise SizeCapExceeded(f"dominating-set enumeration passed {cap} nodes")
        slots = size - len(d) - 1
        if connected:
            first = _first_picks(g, dmask, full & ~(dmask | banned), slots + 1)
            if not missing:  # fill: the next vertex, above the ones before it
                stack.extend((d + (u,), dmask | 1 << u, covered, banned | (2 << u) - 1)
                             for u in reversed(list(bits(first))))
                continue
            if not first:
                continue
        room = slots * maxcov
        avail, fewest = ~(dmask | banned), g.n + 1
        for x in bits(missing):
            choice = closed[x] & avail
            if choice.bit_count() < fewest:
                branch, fewest = choice, choice.bit_count()
                if fewest <= 1:
                    break
        kids = []
        for u in bits(branch):
            cov = covered | closed[u]
            left = target & ~cov
            need = 0 if left.bit_count() <= room else slots + 1
            while slots > 2 and left and need <= slots:
                ball2 = ball2 or [closed_mask_of(g, bits(m)) for m in closed]
                left &= ~ball2[(left & -left).bit_length() - 1]
                need += 1
            if need <= slots:
                kids.append((d + (u,), dmask | 1 << u, cov, banned))
            banned |= 1 << u
        stack.extend(reversed(kids))


def has_dominating_set(g: Graph, k: int) -> bool:
    """Do at most ``k`` vertices dominate g?  Supersets of a dominating set
    dominate, so the sets of min(k, n) vertices decide it."""
    return next(enumerate_dominating_sets(g, min(k, g.n)), None) is not None


def dominating_sets_of_size(g: Graph, size: int) -> list[frozenset[int]]:
    """Every dominating set of exactly ``size`` vertices, in sorted order."""
    return sorted(enumerate_dominating_sets(g, size), key=sorted)
