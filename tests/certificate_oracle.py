"""Reference certificate verifiers: subset enumeration, recursive generators
and list traversals.

``graphs.degeneracy`` keeps one vertex mask per degree; ``degeneracy`` here
is the minimum-degree scan it replaced.
``graphs.min_feedback_vertex_set`` branches on short cycles, and
``max_degree_feedback_vertex_set`` is that search with the cut it had before
it summed the largest degrees: b (max deg - 1) < m - n,
``graphs.find_biclique`` searches a-sets by common neighbourhood,
``dsr.enumerate_dominating_sets`` runs on one explicit stack and prunes with a
distance-3 packing bound, ``kernel.compute_core`` asks that enumerator one
banned query per vertex, and every connectivity question goes through
``graphs.component_of``; this module keeps the direct constructions they
replaced as the oracles they are compared against, together with the
union-find forest test the subset search uses.
The enumerator has two: a recursive one for its default order, and
``unpruned_dominating_sets``, the same stack without the packing bound, which
every query mode must match set for set and in order.  Both branch as the
enumerator does, on the undominated vertex with the fewest dominators left;
with ``lowest=True`` the stack branches on the lowest undominated vertex, the
enumerator's earlier rule, and every query must give the same sets as that
one, in any order.  ``connected_dominating_sets`` filters the unpruned stack
by connectivity, for the enumerator's connected queries.  ``plain_guard_queries``
is the overlapping query list the guard check asked before its queries were
made disjoint.  ``contract_class_components`` is ``kernel``'s class
contraction as it was before it became one ``graphs.quotient``: the first
class component found is merged, then every class is recomputed.
``min_ds_structure`` is ``acceptance.enumerated_min_ds_structure`` as it
was before it streamed one size from the enumerator: it lists every minimum
dominating set with ``dsr_oracle.minimum_dominating_sets``, then checks each.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional

from dsr_oracle import minimum_dominating_sets
from reconflab.errors import InfeasibleInstance
from reconflab.graphs import (Graph, _short_cycle, _strip_acyclic, bits, closed_mask_of,
                              component_of, dominates, mask_of, neighborhood_classes)


def is_forest(n: int, edges, removed_mask: int = 0) -> bool:
    """Acyclicity of the graph on 0..n-1 with ``edges``, minus the vertices
    in removed_mask (union-find)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        if removed_mask >> u & 1 or removed_mask >> v & 1:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def components(g: Graph, within: int) -> list[list[int]]:
    """Components of G[within], each sorted, in order of their lowest vertex:
    a depth-first search over adjacency lists."""
    seen = [not within >> v & 1 for v in range(g.n)]
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_tree(nbags: int, edges) -> bool:
    """Union-find: at least one node, n - 1 edges, and none closes a cycle
    (a loop or a repeated edge closes one)."""
    if nbags == 0 or len(edges) != nbags - 1:
        return False
    parent = list(range(nbags))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Delete a minimum-degree vertex, the lowest on a tie, found by a scan
    of every live vertex per step; O(n^2)."""
    alive = [True] * g.n
    deg = [g.degree(v) for v in range(g.n)]
    order, d = [], 0
    for _ in range(g.n):
        u = min((v for v in range(g.n) if alive[v]), key=lambda v: (deg[v], v))
        d = max(d, deg[u])
        alive[u] = False
        order.append(u)
        for w in g.adj[u]:
            if alive[w]:
                deg[w] -= 1
    return d, order


def min_feedback_vertex_set(g: Graph) -> frozenset[int]:
    """First subset, by increasing size, whose removal leaves a forest."""
    edges = g.edges  # rebuilt on every read, so read once
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if is_forest(g.n, edges, mask_of(combo)):
                return frozenset(combo)
    raise AssertionError("deleting every vertex leaves a forest")


def max_degree_feedback_vertex_set(g: Graph) -> frozenset[int]:
    """``graphs.min_feedback_vertex_set`` with its earlier cut: a node gives
    up when its budget times the largest degree less one is below m - n.
    No node cap."""
    nbr = g.nbr_mask

    def search(alive: int, budget: int) -> Optional[list[int]]:
        alive = _strip_acyclic(nbr, alive)
        if not alive:
            return []
        if budget == 0:
            return None
        deg = {v: (nbr[v] & alive).bit_count() for v in bits(alive)}
        if budget * (max(deg.values()) - 1) * 2 < sum(deg.values()) - 2 * len(deg):
            return None
        for v in sorted(bits(_short_cycle(nbr, alive)), key=lambda v: -deg[v]):
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


def enumerate_dominating_sets(g: Graph, size: int):
    """Every dominating set of exactly ``size`` vertices, from nested generators.

    Branches on the undominated vertex with the fewest closed neighbours
    neither chosen nor excluded (the lowest on a tie), with an exclusion set
    for canonicity; once everything is dominated, the remaining slots are
    filled in ascending order, one generator frame per slot.
    """
    full = g.full_mask
    maxcov = max((m.bit_count() for m in g.closed_mask), default=1)

    def rec(d: tuple, dmask: int, covered: int, banned: int, min_free: int):
        rest = size - len(d)
        if rest == 0:
            if covered == full:
                yield frozenset(d)
            return
        missing = full & ~covered
        if missing:
            if missing.bit_count() > rest * maxcov:
                return
            v = min(bits(missing), key=lambda x: (g.closed_mask[x] & ~banned & ~dmask).bit_count())
            local_ban = banned
            for u in bits(g.closed_mask[v] & ~local_ban & ~dmask):
                yield from rec(d + (u,), dmask | 1 << u, covered | g.closed_mask[u], local_ban, 0)
                local_ban |= 1 << u
        else:
            for u in range(min_free, g.n):
                if (dmask >> u | banned >> u) & 1:
                    continue
                yield from rec(d + (u,), dmask | 1 << u, covered, banned, u + 1)

    yield from rec((), 0, 0, 0, 0)


def unpruned_dominating_sets(g: Graph, size: int, target: Optional[int] = None,
                             forced: int = 0, banned: int = 0, lowest: bool = False):
    """``dsr.enumerate_dominating_sets`` without its distance-3 packing
    bound: a child is cut only when its slots times the largest closed
    neighborhood cannot cover what is undominated.  It branches on the
    undominated target vertex with the fewest closed neighbours neither chosen
    nor banned (the lowest on a tie), or with ``lowest`` on the lowest one."""
    if target is None:
        target = g.full_mask
    closed = g.closed_mask
    d = tuple(bits(forced))
    covered = closed_mask_of(g, d)
    missing = target & ~covered
    maxcov = max((m.bit_count() for m in closed), default=1)
    if forced & banned or missing.bit_count() > (size - len(d)) * maxcov:
        return
    stack = [(d, forced, covered, banned)]  # chosen vertices, their mask, what they dominate, banned
    while stack:
        d, dmask, covered, banned = stack.pop()
        missing = target & ~covered
        if not missing:
            free = [u for u in range(g.n) if not (dmask | banned) >> u & 1]
            yield from map(frozenset(d).union, itertools.combinations(free, size - len(d)))
            continue
        if len(d) + 1 == size:  # the last vertex must dominate all that is missing
            last = ~(dmask | banned)
            while missing and last:
                low = missing & -missing
                last &= closed[low.bit_length() - 1]
                missing ^= low
            chosen = frozenset(d)
            yield from (chosen | {u} for u in bits(last))
            continue
        room = (size - len(d) - 1) * maxcov
        v = min(bits(missing), key=lambda x: 0 if lowest else (closed[x] & ~banned & ~dmask).bit_count())
        kids = []
        for u in bits(closed[v] & ~banned & ~dmask):
            cov = covered | closed[u]
            if (target & ~cov).bit_count() <= room:
                kids.append((d + (u,), dmask | 1 << u, cov, banned))
            banned |= 1 << u
        stack.extend(reversed(kids))


def connected_dominating_sets(g: Graph, size: int, target: Optional[int] = None,
                              forced: int = 0, banned: int = 0):
    """``unpruned_dominating_sets`` filtered by ``graphs.component_of``: the
    sets ``dsr.enumerate_dominating_sets`` yields with ``connected=True``,
    in its order."""
    for d in unpruned_dominating_sets(g, size, target, forced, banned):
        m = mask_of(d)
        if component_of(g, m) == m:
            yield d


def plain_guard_queries(prov: dict) -> list[tuple[int, int]]:
    """The (forced, banned) masks of the plain guard check: each guard
    banned, then hub and leaf both forced, then both banned.  Their sets
    overlap; ``acceptance.enumerated_guard_containment`` asks disjoint ones."""
    ends = 1 << prov["hub"] | 1 << prov["leaf"]
    return [(0, 1 << guard) for guard in prov["guards"]] + [(ends, 0), (0, ends)]


def find_biclique(g: Graph, a: int, b: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first a-subset with b common neighbours, and its first b of them:
    a scan of every a-subset."""
    for combo in itertools.combinations(range(g.n), a):
        common = g.full_mask
        for v in combo:
            common &= g.nbr_mask[v]
        if common.bit_count() >= b:
            return combo, tuple(bits(common))[:b]
    return None


def is_core(g: Graph, k: int, x) -> bool:
    """Every set of at most k vertices that dominates x dominates V: a scan of
    all subsets by size."""
    for size in range(0, k + 1):
        for combo in itertools.combinations(range(g.n), size):
            if dominates(g, combo, x) and not dominates(g, combo, range(g.n)):
                return False
    return True


def compute_core(g: Graph, k: int, must_include: frozenset[int]) -> frozenset[int]:
    """Greedy removal from X = V to a fixpoint, in ascending vertex order per
    pass, keeping each removal after which ``is_core`` still holds."""
    x = set(range(g.n))
    changed = True
    while changed:
        changed = False
        for v in sorted(x - must_include):
            if is_core(g, k, x - {v}):
                x.discard(v)
                changed = True
    return frozenset(x)


def delete_vertices(g: Graph, dead) -> tuple[Graph, dict[int, int]]:
    """Remove ``dead`` and compact ids; returns the new graph and old->new map."""
    dead = set(dead)
    remap, nxt = {}, 0
    for v in range(g.n):
        if v not in dead:
            remap[v] = nxt
            nxt += 1
    keep = mask_of(remap)
    edges = [(remap[u], remap[v]) for u in remap for v in bits(g.nbr_mask[u] & keep) if u < v]
    labels = {remap[v]: lab for v, lab in g.labels.items() if v not in dead}
    return Graph(nxt, edges, labels), remap


def merge_vertices(g: Graph, group) -> tuple[Graph, dict[int, int]]:
    """Contract ``group`` onto its smallest member; parallel edges collapse."""
    group = sorted(set(group))
    keep = group[0]
    dead = set(group[1:])
    edges = set()
    for u, v in g.edges:
        a = keep if u in dead else u
        b = keep if v in dead else v
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return delete_vertices(Graph(g.n, sorted(edges), g.labels), dead)


def _class_component(inst) -> int:
    """The first component of more than one vertex inside a class, as a
    mask (classes in sorted key order, components by lowest vertex); 0 if none."""
    classes = neighborhood_classes(inst.graph, inst.core_set())
    for key in sorted(classes, key=sorted):
        rest = mask_of(classes[key])
        while comp := component_of(inst.graph, rest):
            if comp & (comp - 1):
                return comp
            rest ^= comp
    return 0


def contract_class_components(inst):
    """Merge one class component at a time until none is left; returns the
    instance and the number of components merged."""
    merged = 0
    while comp := _class_component(inst):
        g, remap = merge_vertices(inst.graph, bits(comp))
        m = lambda s: frozenset(remap[v] for v in s)
        inst = replace(inst, graph=g, source=m(inst.source), target=m(inst.target),
                       core=m(inst.core_set()))
        merged += 1
    return inst, merged


def min_ds_structure(dsr) -> bool:
    """Every minimum dominating set of a ts-dsr artifact has tape-count + 1
    vertices: one of hub and leaf, one cell per tape, no letter."""
    prov = dsr.provenance
    src = prov["source"]
    k = len(src.tapes)
    try:
        mins = minimum_dominating_sets(dsr.graph, k + 1)
    except InfeasibleInstance:
        return False
    letters = set(range(prov["letter_base"], prov["letter_base"] + src.sigma))
    spans = [set(range(base, base + t.cells.n)) for t, base in zip(src.tapes, prov["cell_base"])]
    return len(mins[0]) == k + 1 and all(
        len(d & {prov["hub"], prov["leaf"]}) == 1 and not d & letters
        and all(len(d & span) == 1 for span in spans) for d in mins)
