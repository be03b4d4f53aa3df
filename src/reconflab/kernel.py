"""Fixed-parameter kernelization for sliding domination-core reconfiguration.

An instance names a core X that holds both token sets; a configuration is
feasible when it dominates X, which for a domination core is the same as
dominating V.  Vertices outside X fall into classes by their trace N(v) & X.
Three rules, one pass each and in this order, shrink an instance to a size
bounded in the token count: contract the components inside each class, cut
fat pairs off 3-classes (minor-free family only), and delete one-sided twins.
None of them changes X or the trace of a vertex it keeps, so feasibility
reads the same on both sides; each rule's docstring says why the moves
carry over.  On a domination core the 0-class is empty (the source lies in X
and dominates it, hence V), so no rule handles it.  The tests' seeded sweep
and acceptance criterion C09 solve both sides of the rules.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .dsr import (DEFAULT_STATE_CAP, SLIDE, DsrInstance, ReconfigResult, check_token_sets,
                  enumerate_dominating_sets, has_dominating_set, solve)
from .errors import InfeasibleInstance, MalformedInput
from .graphs import (Graph, bits, component_of, dominates, mask_of, neighborhood_classes,
                     quotient)

K3D_FREE = "k3d-free"
K4D_MINOR_FREE = "k4d-minor-free"


@dataclass(frozen=True)
class DcrInstance:
    graph: Graph
    k: int
    source: frozenset[int]
    target: frozenset[int]
    d: int
    family: str = K3D_FREE
    core: Optional[frozenset[int]] = None

    def core_set(self) -> frozenset[int]:
        if self.core is None:
            raise MalformedInput("instance carries no domination core yet")
        return self.core


@dataclass(frozen=True)
class KernelReport:
    core_size: int
    class_histogram: dict[int, list[int]]
    rules_applied: tuple[str, ...]
    size_before: tuple[int, int]
    size_after: tuple[int, int]
    zero_class_bounded: bool
    big_classes_bounded: bool
    small_classes_bounded: bool
    twin_free: bool

    @property
    def certified(self) -> bool:
        return (self.zero_class_bounded and self.big_classes_bounded
                and self.small_classes_bounded and self.twin_free)


def validate_dcr(inst: DcrInstance) -> None:
    g = inst.graph
    if inst.family not in (K3D_FREE, K4D_MINOR_FREE):
        raise MalformedInput(f"unknown family {inst.family!r}")
    if inst.d < 1:
        raise MalformedInput("forbidden-biclique width d must be positive")
    check_token_sets(inst)
    if not g.is_connected():
        raise MalformedInput("kernelization expects a connected graph")
    if inst.core is not None:
        if not (inst.source | inst.target) <= inst.core:
            raise MalformedInput("core must contain both token sets")
        for s in (inst.source, inst.target):
            if not dominates(g, s, inst.core):
                raise MalformedInput("token sets must dominate the core")


def _with_core(inst: DcrInstance) -> DcrInstance:
    """The instance with its core; a computed core is checked as a given one
    is, the only check that refuses token sets which do not dominate it."""
    if inst.core is None:
        inst = replace(inst, core=compute_core(inst.graph, inst.k, inst.source | inst.target))
        validate_dcr(inst)
    return inst


def as_dsr(inst: DcrInstance) -> DsrInstance:
    """The sliding instance; a missing core is computed and checked as
    ``kernelize`` does."""
    validate_dcr(inst)
    inst = _with_core(inst)
    return DsrInstance(graph=inst.graph, k=inst.k, source=inst.source, target=inst.target,
                       rule=SLIDE, core=inst.core)


def solve_dcr(inst: DcrInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    return solve(as_dsr(inst), state_cap)


# ---------------------------------------------------------------------------
# domination cores

def compute_core(g: Graph, k: int, must_include: frozenset[int]) -> frozenset[int]:
    """Greedy removal from X = V, one pass in ascending order.

    While X is a core, X - v is one iff no set of at most k vertices
    dominates X - v while missing N[v]: any other such set dominates v, so X,
    so V.  Grown outside N[v] such a set stays one, so one enumerator query
    of size min(k, n - |N[v]|) decides.  One pass suffices: a set missing
    N[v] that dominates X - v does so for every smaller X.  The size bound
    (2d+1) * k^(d+1) is a certificate to check on promised inputs, not a guarantee.
    """
    if not has_dominating_set(g, k):
        raise InfeasibleInstance(f"no dominating set of size at most {k}")
    closed = g.closed_mask
    x = g.full_mask
    for v in bits(x & ~mask_of(must_include)):
        size = min(k, g.n - closed[v].bit_count())
        if next(enumerate_dominating_sets(g, size, x ^ 1 << v, banned=closed[v]), None) is None:
            x ^= 1 << v
    return frozenset(bits(x))


# ---------------------------------------------------------------------------
# reduction rules; each returns a new instance, or its input object if no-op

def _quotient(inst: DcrInstance, onto: dict[int, Optional[int]]) -> DcrInstance:
    """``graphs.quotient`` of the instance's graph, token sets and core
    renumbered; no rule moves or deletes a core vertex."""
    g, new = quotient(inst.graph, onto)
    m = lambda s: frozenset(new[v] for v in s)
    return replace(inst, graph=g, source=m(inst.source), target=m(inst.target),
                   core=m(inst.core_set()))


def _absorbed(nbr: list[int], outside: int) -> Optional[int]:
    """The lowest vertex u of the mask ``outside`` with N(u) - w inside N(w)
    for some other w of ``outside``, or None; ``nbr`` holds the neighbour
    masks.  The condition is one-sided, weaker than equal neighbourhoods."""
    for u in bits(outside):
        nu = nbr[u]
        for w in bits(outside ^ 1 << u):
            if nu & ~nbr[w] & ~(1 << w) == 0:
                return u
    return None


def reduce_twins(inst: DcrInstance) -> DcrInstance:
    """Delete vertices outside the core that some sibling absorbs, one at a
    time from a copy of the neighbour masks, rescanning from the lowest: two
    mutual twins must not both go.  The graph is rebuilt once, at the end.

    Answer preservation, for x and y outside X with N(x) - y inside N(y):
    G - x is an induced subgraph with the same X and token sets, so its
    sequences are sequences of G.  Conversely, x's trace lies in y's, so
    putting x's token on y keeps X dominated, and a slide ux (u != y) has
    the slide uy as its image, as u is in N(y); the slide xy becomes no
    move.  While x and y both hold tokens the other k - 1 dominate X, so the
    token on x is a spare; that case is checked by search, not proved here.
    """
    nbr = list(inst.graph.nbr_mask)
    outside = inst.graph.full_mask & ~mask_of(inst.core_set())
    victims = {}
    while (victim := _absorbed(nbr, outside)) is not None:
        victims[victim] = None
        outside ^= 1 << victim
        for v in bits(nbr[victim]):
            nbr[v] ^= 1 << victim
    return _quotient(inst, victims) if victims else inst


def contract_class_components(inst: DcrInstance) -> DcrInstance:
    """Contract connected components inside each class to single vertices,
    each onto its lowest vertex, in one quotient.  One pass is a fixpoint:
    a component C is maximal in its class, so once contracted it is one
    vertex with the same trace and no neighbour in its class.

    Answer preservation: every vertex of such a component C has the class's
    trace, so a token anywhere in C dominates the same part of X.  A kernel
    sequence lifts to G: the token on the merged vertex enters C next to its
    source and walks inside C, which is connected and holds no other token,
    to a vertex next to its destination.  A sequence of G maps to the
    kernel by sending C to the merged vertex; a second token in C is then a
    spare, the case ``reduce_twins`` leaves to the search as well.
    """
    onto = {}
    for members in neighborhood_classes(inst.graph, inst.core_set()).values():
        rest = mask_of(members)
        while comp := component_of(inst.graph, rest):
            rest ^= comp
            low = comp & -comp
            onto.update((v, low.bit_length() - 1) for v in bits(comp ^ low))
    return _quotient(inst, onto) if onto else inst


def _matching_size(nbr_mask: list[int], left, right_mask: int) -> int:
    """Size of a maximum matching between the vertices ``left`` and the
    vertex mask ``right_mask``: one breadth-first search for an augmenting
    path per left vertex, over neighbourhood masks, with no recursion."""
    mate: dict[int, int] = {}  # right vertex -> left vertex, and back
    for root in left:
        parent, queue, seen, free = {}, [root], 0, None
        for u in queue:
            fresh = nbr_mask[u] & right_mask & ~seen
            seen |= fresh
            for v in bits(fresh):
                parent[v] = u
                if v not in mate:
                    free = v
                    break
                queue.append(mate[v])
            if free is not None:
                break
        while free is not None:
            u = parent[free]
            mate[free], mate[u], free = u, free, mate.get(u)
    return len(mate) // 2


def prune_three_classes(inst: DcrInstance) -> DcrInstance:
    """Cut all edges between a 3-class and a fat partner (minor-free only):
    a class joined to it by a matching larger than k * d.

    One pass tries each 3-class A, then each partner B != A, both by
    ``sorted`` trace, and cuts each fat pair before trying the next.  It is
    a fixpoint: a cut changes no trace, so the classes stay, and grows no
    matching, so a thin pair stays thin and a cut pair has none.

    Answer preservation rests on the promise: contracting the more than
    k * d disjoint edges of a fat pair (A, B) gives as many vertices next
    to both traces, so a fourth core vertex in B's trace would give a
    K_{4,d} minor.  B's trace thus lies inside A's, and no core vertex needs
    an A-B edge to be dominated.  That no sequence needs one to move is
    checked by search on built fat pairs, not proved here.  Nor can a cut
    disconnect the graph: each cut edge has a common core neighbour.  A
    cut that does proves the promise or the core false, and is refused as
    malformed input.
    """
    if inst.family != K4D_MINOR_FREE:
        raise MalformedInput("3-class pruning relies on the minor-free promise")
    g, threshold = inst.graph, inst.k * inst.d
    nbr = list(g.nbr_mask)
    classes = neighborhood_classes(g, inst.core_set())
    keys = sorted(classes, key=sorted)
    for a, b in ((a, b) for a in keys if len(a) == 3 for b in keys if b != a):
        bmask = mask_of(classes[b])
        if _matching_size(nbr, sorted(classes[a]), bmask) <= threshold:
            continue
        for u in classes[a]:
            for v in bits(nbr[u] & bmask):
                nbr[u] ^= 1 << v
                nbr[v] ^= 1 << u
        g = Graph(g.n, [(u, v) for u, v in g.edges if nbr[u] >> v & 1], g.labels)
        if not g.is_connected():
            raise MalformedInput(
                f"{inst.family} promise or core {sorted(inst.core_set())} is false: cutting "
                f"the fat pair {sorted(a)} / {sorted(b)} disconnected the graph")
    return inst if g is inst.graph else replace(inst, graph=g)


# ---------------------------------------------------------------------------
# the pipeline

def kernelize(inst: DcrInstance) -> tuple[DcrInstance, KernelReport]:
    """Compute a missing core, refuse a broken family promise, run each rule
    once in order, and certify the kernel's shape.  The K_{q,d} promise (q = 3,
    or 4 for the minor-free family) serves only to bound the classes of type
    q or more, so it is checked on them alone: such a class with d members is
    itself a K_{q,d}, named by the first q vertices of its trace and its first
    d members.  Once is a fixpoint: after contraction each class is
    independent, cuts and deletions add no edge inside one and grow no
    matching, and ``reduce_twins`` rescans until nothing is absorbed."""
    validate_dcr(inst)
    size_before = (inst.graph.n, inst.graph.m)
    applied = [] if inst.core is not None else ["compute-core"]
    inst = _with_core(inst)
    q = 3 if inst.family == K3D_FREE else 4
    for key, members in neighborhood_classes(inst.graph, inst.core_set()).items():
        if len(key) >= q and len(members) >= inst.d:
            raise MalformedInput(
                f"family promise violated: complete bipartite {q}x{inst.d} subgraph "
                f"on {tuple(sorted(key)[:q])} / {tuple(sorted(members)[:inst.d])}"
            )

    rules = [
        ("contract-class-components", contract_class_components),
        ("reduce-twins", reduce_twins),
    ]
    if inst.family == K4D_MINOR_FREE:
        rules.insert(1, ("prune-three-classes", prune_three_classes))
    for name, rule in rules:
        nxt = rule(inst)
        if nxt is not inst:
            applied.append(name)
            inst = nxt
            assert inst.graph.is_connected()

    classes = neighborhood_classes(inst.graph, inst.core_set())
    histogram: dict[int, list[int]] = {}
    for key, members in classes.items():
        histogram.setdefault(len(key), []).append(len(members))
    for sizes in histogram.values():
        sizes.sort()
    big_ok = all(max(sizes) < inst.d for t, sizes in histogram.items() if t >= q)
    p = max([2] + histogram.get(0, [])
            + [s for t, sizes in histogram.items() if t >= 3 for s in sizes])
    # size <= 2 ** (p * 2 ** |X|), compared by bit length: the bound itself
    # has p * 2 ** |X| bits
    small_ok = all((max(sizes) - 1).bit_length() <= p << len(inst.core_set())
                   for t, sizes in histogram.items() if t in (1, 2))
    report = KernelReport(
        core_size=len(inst.core_set()),
        class_histogram=histogram,
        rules_applied=tuple(applied),
        size_before=size_before,
        size_after=(inst.graph.n, inst.graph.m),
        zero_class_bounded=len(classes.get(frozenset(), ())) <= 1,
        big_classes_bounded=big_ok,
        small_classes_bounded=small_ok,
        twin_free=reduce_twins(inst) is inst,
    )
    return inst, report


def solve_via_kernel(inst: DcrInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    kernel, _ = kernelize(inst)
    return solve_dcr(kernel, state_cap)
