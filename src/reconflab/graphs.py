"""Graph primitives: adjacency, domination, neighborhood classes, structural verifiers.

Vertex sets are frozensets at the API boundary and int bitmasks in inner
loops, and a graph's one stored adjacency is a neighbourhood mask per vertex;
Python ints are arbitrary-precision, so this covers every size handled here.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .errors import MalformedInput, SizeCapExceeded

# Search nodes one call of an exhaustive search may expand (feedback vertex
# sets, bicliques, dominating-set enumeration) before SizeCapExceeded; ``gen
# tape`` bounds its head configurations by it too.
ENUM_CAP = 5_000_000
# A graph holds one n-bit mask per vertex, so n is checked against this
# before anything is allocated.  No construction here builds 300 vertices.
VERTEX_CAP = 10_000


def check_vertex_count(n: int) -> None:
    if n < 0:
        raise MalformedInput(f"negative vertex count {n}")
    if n > VERTEX_CAP:
        raise SizeCapExceeded(f"{n} vertices exceed the cap of {VERTEX_CAP}")


def check_vertices(g: Graph, vertices: Iterable[int], what: str) -> None:
    """Refuse the first of ``vertices`` outside g as "``what`` v out of range":
    the range check of dsr instances and witnesses, tape ends and bags."""
    for v in vertices:
        if not 0 <= v < g.n:
            raise MalformedInput(f"{what} {v} out of range")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, stored as masks:
    ``nbr_mask``, ``closed_mask`` and ``full_mask``.  ``edges`` (rebuilt on
    every read, so a caller that reads it twice keeps it), ``m`` and
    ``degree`` are read off them; ``adj``, the ``nbr_sets`` slot and the
    hash are filled on first use with values the masks fix, so a graph stays
    safe to share across threads, and none of them takes part in equality.

    ``labels`` carries optional role tags ("cell:2:0", "letter:1", ...) that
    reduction artifacts attach to their vertices.
    """

    __slots__ = ("n", "labels", "nbr_mask", "closed_mask", "full_mask", "_adj", "nbr_sets",
                 "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels: Optional[dict[int, str]] = None):
        check_vertex_count(n)
        nbr = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise MalformedInput(f"loop at vertex {u}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.n = n
        self.nbr_mask = nbr
        self.closed_mask = [nbr[v] | (1 << v) for v in range(n)]
        self.full_mask = (1 << n) - 1
        if labels:
            for v in labels:
                if not (0 <= v < n):
                    raise MalformedInput(f"label on unknown vertex {v}")
        self.labels = dict(labels) if labels else {}
        self._adj = self.nbr_sets = self._hash = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v), u < v, ascending, O(n + m) per read."""
        out = []
        for u, nb in enumerate(self.nbr_mask):
            nb >>= u + 1
            while nb:
                low = nb & -nb
                out.append((u, u + low.bit_length()))
                nb ^= low
        return tuple(out)

    @property
    def m(self) -> int:
        return sum(nb.bit_count() for nb in self.nbr_mask) // 2

    @property
    def adj(self) -> list[tuple[int, ...]]:
        """Ascending neighbour tuples, built once, for callers that walk
        neighbours in order."""
        if self._adj is None:
            self._adj = [tuple(bits(nb)) for nb in self.nbr_mask]
        return self._adj

    def neighbor_sets(self) -> list[frozenset[int]]:
        """Neighbour frozensets, built at the first call and kept in the
        ``nbr_sets`` slot (None until then), which a hot loop reads with no
        call: ``dsr.is_feasible`` asks a set ``d`` whether
        ``d.isdisjoint(nbr_sets[v])`` before it builds the set's mask, which
        probes min(|d|, deg v) vertices."""
        if self.nbr_sets is None:
            self.nbr_sets = [frozenset(bits(nb)) for nb in self.nbr_mask]
        return self.nbr_sets

    def degree(self, v: int) -> int:
        return self.nbr_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbr_mask[u] >> v & 1)

    def components(self) -> list[list[int]]:
        comps, rest = [], self.full_mask
        while comp := component_of(self, rest):
            comps.append(list(bits(comp)))
            rest ^= comp
        return comps

    def is_connected(self) -> bool:
        return component_of(self, self.full_mask) == self.full_mask

    def __eq__(self, other):
        # Equal mask lists have equal n: the list holds one mask per vertex.
        return isinstance(other, Graph) and self.nbr_mask == other.nbr_mask and self.labels == other.labels

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def component_of(g: Graph, within: int) -> int:
    """The component of G[within] that holds within's lowest vertex, as a
    vertex mask; 0 when within is empty.  The package's one connectivity
    primitive: peel components off a mask by calling it until none is left."""
    nbr = g.nbr_mask
    seen = todo = within & -within
    while todo:
        low = todo & -todo
        todo ^= low
        new = nbr[low.bit_length() - 1] & within & ~seen
        seen |= new
        todo |= new
    return seen


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)] if n >= 3 else []
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


# ---------------------------------------------------------------------------
# the one rebuild (graphs are immutable; every edit returns a new Graph)

def quotient(g: Graph, onto: dict[int, Optional[int]]) -> tuple[Graph, dict[int, int]]:
    """Delete each vertex ``onto`` sends to None and contract each other key
    onto its image, a vertex that is not a key.  The vertices that are not
    keys keep their order and labels and are numbered from 0; parallel edges
    and loops collapse.  Returns the graph and ``new``, the id of every vertex
    not deleted (a contracted vertex has its representative's)."""
    new = {}
    for v in range(g.n):
        if v not in onto:
            new[v] = len(new)
    n = len(new)
    new.update((v, new[w]) for v, w in onto.items() if w is not None)
    keep = mask_of(new)
    edges = {(new[u], new[v]) for u in new for v in bits(g.nbr_mask[u] & keep) if new[u] < new[v]}
    labels = {new[v]: lab for v, lab in g.labels.items() if v not in onto}
    return Graph(n, edges, labels), new


# ---------------------------------------------------------------------------
# domination and neighborhood classes

def closed_mask_of(g: Graph, d: Iterable[int]) -> int:
    m = 0
    for v in d:
        m |= g.closed_mask[v]
    return m


def dominates(g: Graph, d: Iterable[int], x: Iterable[int]) -> bool:
    """True iff every vertex of ``x`` lies in the closed neighborhood of ``d``."""
    d, x = set(d), set(x)
    check_vertices(g, d, "dominating set vertex")
    check_vertices(g, x, "target set vertex")
    return mask_of(x) & ~closed_mask_of(g, d) == 0


def neighborhood_classes(g: Graph, x: Iterable[int]) -> dict[frozenset[int], frozenset[int]]:
    """Partition V minus x by the trace of each vertex's neighborhood on x.

    The key of a class is the common trace Y; its ``type`` is len(Y).
    """
    x = set(x)
    check_vertices(g, x, "class anchor vertex")
    xmask = mask_of(x)
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        if v in x:
            continue
        classes.setdefault(g.nbr_mask[v] & xmask, []).append(v)
    return {set_of(k): frozenset(vs) for k, vs in classes.items()}


# ---------------------------------------------------------------------------
# degeneracy / feedback vertex sets / bicliques

def degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Exact degeneracy with a witness elimination order.

    Repeatedly deleting a minimum-degree vertex, the lowest on a tie, is
    optimal; the order returned gives every vertex at most d neighbors among
    its successors.  One vertex mask per degree holds the live vertices of
    that degree; a deletion lowers its neighbours' degrees by one, so the
    lowest nonempty mask drops by at most one per step.  O(n + m) mask moves.
    """
    nbr = g.nbr_mask
    deg = [nb.bit_count() for nb in nbr]
    bucket = [0] * (max(deg, default=0) + 1)
    for v, dv in enumerate(deg):
        bucket[dv] |= 1 << v
    alive, low, d, order = g.full_mask, 0, 0, []
    for _ in range(g.n):
        while not bucket[low]:
            low += 1
        b = bucket[low]
        bucket[low] = b & (b - 1)
        u = (b & -b).bit_length() - 1
        alive ^= 1 << u
        order.append(u)
        d = max(d, low)
        for w in bits(nbr[u] & alive):
            bucket[deg[w]] ^= 1 << w
            deg[w] -= 1
            bucket[deg[w]] |= 1 << w
        low = max(low - 1, 0)
    return d, order


def _strip_acyclic(nbr: list[int], alive: int) -> int:
    """Delete vertices of degree at most one until none is left: they lie on
    no cycle.  What remains is empty exactly when ``alive`` induced a forest."""
    todo = alive
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        if (nbr[v] & alive).bit_count() <= 1:
            alive ^= low
            todo |= nbr[v] & alive
    return alive


def _short_cycle(nbr: list[int], alive: int) -> int:
    """The vertex mask of a shortest cycle in a nonempty graph of minimum
    degree two: a breadth-first search from every vertex, each cut off once
    it can no longer beat the best cycle so far.  A non-tree edge closes the
    cycle through the two tree paths up to their lowest common ancestor."""
    best, best_len = 0, alive.bit_count() + 1
    for r in bits(alive):
        parent, dist = {r: -1}, {r: 0}
        frontier, depth = [r], 0
        while frontier and 2 * depth + 1 < best_len:
            nxt = []
            for u in frontier:
                for w in bits(nbr[u] & alive):
                    if w not in dist:
                        parent[w], dist[w] = u, depth + 1
                        nxt.append(w)
                    elif w != parent[u] and depth + dist[w] + 1 < best_len:
                        a, b, cycle = u, w, 1 << u | 1 << w
                        while a != b:  # climb from the deeper end
                            if dist[a] < dist[b]:
                                a, b = b, a
                            a = parent[a]
                            cycle |= 1 << a
                        if cycle.bit_count() < best_len:
                            best, best_len = cycle, cycle.bit_count()
                            if best_len == 3:
                                return best
            frontier, depth = nxt, depth + 1
    return best


def min_feedback_vertex_set(g: Graph) -> frozenset[int]:
    """Minimum-cardinality vertex set whose removal leaves a forest.

    Iterative deepening on the budget b = 0, 1, 2, ...; a search node strips
    the vertices of degree at most one and succeeds when nothing is left.
    Otherwise it gives up when the b largest values of deg - 1 over what is
    left (all of them, if fewer) sum to less than m - n + 1: deleting a set F
    lowers m - n by at most the sum of deg - 1 over F, and a nonempty forest
    has m - n <= -1 (deleting everything is never cut, as after the strip
    the sum over all is 2m - n >= m).  Else it branches on the vertices of
    one shortest cycle, which every feedback vertex set must hit (Cygan et
    al., *Parameterized Algorithms*, 2015, section 3.3).  The cut drops only
    subtrees that hold no solution, so the set found is the one a weaker cut
    finds.  ``ENUM_CAP`` bounds the search nodes summed over all budgets;
    past it SizeCapExceeded is raised.
    """
    nbr = g.nbr_mask
    nodes, cap = 0, ENUM_CAP

    def search(alive: int, budget: int) -> Optional[list[int]]:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise SizeCapExceeded(f"feedback vertex set search passed {cap} nodes")
        alive = _strip_acyclic(nbr, alive)
        if not alive:
            return []
        if budget == 0:
            return None
        deg = [(nbr[v] & alive).bit_count() for v in bits(alive)]
        top = sorted(deg, reverse=True)[:budget]
        if sum(top) - len(top) <= sum(deg) // 2 - len(deg):
            return None
        cycle = _short_cycle(nbr, alive)
        for v in sorted(bits(cycle), key=lambda v: -(nbr[v] & alive).bit_count()):
            found = search(alive & ~(1 << v), budget - 1)
            if found is not None:
                found.append(v)
                return found
        return None

    for budget in range(g.n + 1):
        found = search(g.full_mask, budget)
        if found is not None:
            return frozenset(found)
    raise AssertionError("deleting every vertex leaves a forest")


def contains_biclique(g: Graph, a: int, b: int) -> bool:
    """Does g contain K_{a,b} as a (not necessarily induced) subgraph?"""
    return a <= 0 or b <= 0 or find_biclique(g, a, b) is not None


def find_biclique(g: Graph, a: int, b: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A K_{a,b} subgraph of g as (a-side, b-side), or None; a, b >= 1.

    Depth-first over a-sets in lexicographic order: a branch carries its
    prefix's common neighbours, is cut once fewer than b remain, and takes
    its next vertex from their neighbours above its last.  Only branches
    without a witness are cut, so this is the first a-set a scan would find,
    with its first b common neighbours (disjoint from it: no loops).  Past
    ``ENUM_CAP`` nodes expanded, SizeCapExceeded.
    """
    nbr = g.nbr_mask
    stack = [((), g.full_mask, 0)]  # a-side prefix, its common neighbours, lowest next vertex
    nodes, cap = 0, ENUM_CAP
    while stack:
        chosen, common, low = stack.pop()
        if len(chosen) == a:
            return chosen, tuple(bits(common))[:b]
        nodes += 1
        if nodes > cap:
            raise SizeCapExceeded(f"biclique search passed {cap} nodes")
        reach = 0
        for c in bits(common):
            reach |= nbr[c]
        kids = []
        for w in bits(reach >> low << low):
            shared = common & nbr[w]
            if shared.bit_count() >= b:
                kids.append((chosen + (w,), shared, w + 1))
        stack.extend(reversed(kids))
    return None
