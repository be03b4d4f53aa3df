"""Fixed-parameter kernelization for sliding domination-core reconfiguration.

The pipeline shrinks an instance to a size bounded in the token count by
class-based reduction rules: contract within-class components, add one hub
vertex that absorbs the whole 0-class, strip almost all edges between
small-type classes, cut fat pairs off 3-classes (minor-free family), and
remove one-sided twins, iterated to a global fixpoint.  Every rule is
answer-preserving; the acceptance suite certifies that by solving both sides.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Optional

from .dsr import (DEFAULT_STATE_CAP, SLIDE, DsrInstance, ReconfigResult,
                  enumerate_dominating_sets, has_dominating_set, solve)
from .errors import InfeasibleInstance, MalformedInput, SizeCapExceeded
from .graphs import (
    ENUM_CAP,
    Graph,
    add_vertex,
    bits,
    closed_mask_of,
    component_of,
    delete_vertices,
    dominates,
    find_biclique,
    find_reducible_vertex,
    mask_of,
    merge_vertices,
    neighborhood_classes,
    remove_edges,
)

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
    for name, s in (("source", inst.source), ("target", inst.target)):
        if len(s) != inst.k:
            raise MalformedInput(f"{name} has size {len(s)}, expected {inst.k}")
        for v in s:
            if not (0 <= v < g.n):
                raise MalformedInput(f"{name} vertex {v} out of range")
    if not g.is_connected():
        raise MalformedInput("kernelization expects a connected graph")
    if inst.core is not None:
        if not (inst.source | inst.target) <= inst.core:
            raise MalformedInput("core must contain both token sets")
        for s in (inst.source, inst.target):
            if not dominates(g, s, inst.core):
                raise MalformedInput("token sets must dominate the core")


def as_dsr(inst: DcrInstance) -> DsrInstance:
    return DsrInstance(
        graph=inst.graph,
        k=inst.k,
        source=inst.source,
        target=inst.target,
        rule=SLIDE,
        core=inst.core_set(),
    )


def solve_dcr(inst: DcrInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    return solve(as_dsr(inst), state_cap)


# ---------------------------------------------------------------------------
# domination cores

def _is_core(g: Graph, k: int, x: frozenset[int], cap: int = ENUM_CAP) -> bool:
    """Exact oracle: every set of at most k vertices dominating x dominates V.

    The enumerator lists, size by size, the sets that dominate x.  The cap
    still counts every subset of each size, so it trips on the same inputs
    as a scan of all of them would.
    """
    total = 0
    target = mask_of(x)
    for size in range(0, k + 1):
        total += comb(g.n, size)
        if total > cap:
            raise SizeCapExceeded("core oracle over cap")
        for d in enumerate_dominating_sets(g, size, target):
            if closed_mask_of(g, d) != g.full_mask:
                return False
    return True


def compute_core(g: Graph, k: int, must_include: frozenset[int],
                 cap: int = ENUM_CAP) -> frozenset[int]:
    """Greedy removal with the exact oracle, from X = V down to a fixpoint.

    The closed-form size bound (2d+1) * k^(d+1) is a certificate the caller
    may check against family-promised inputs, not a construction guarantee.
    """
    if not has_dominating_set(g, k):
        raise InfeasibleInstance(f"no dominating set of size at most {k}")
    x = set(range(g.n))
    changed = True
    while changed:
        changed = False
        for v in sorted(x - must_include):
            smaller = frozenset(x - {v})
            if _is_core(g, k, smaller, cap):
                x.discard(v)
                changed = True
    return frozenset(x)


# ---------------------------------------------------------------------------
# reduction rules; each returns a new instance (identical object if no-op)

def _remap_instance(inst: DcrInstance, g: Graph, remap: dict[int, int]) -> DcrInstance:
    m = lambda s: frozenset(remap[v] for v in s)
    return replace(inst, graph=g, source=m(inst.source), target=m(inst.target),
                   core=m(inst.core_set()))


def reduce_twins(inst: DcrInstance) -> DcrInstance:
    """Delete vertices outside the core that some sibling absorbs.

    The one-sided condition N(x) minus {y} inside N(y) suffices: any move
    through x can route through y instead.
    """
    x = inst.core_set()
    while True:
        victim = find_reducible_vertex(inst.graph, x)
        if victim is None:
            return inst
        g, remap = delete_vertices(inst.graph, [victim])
        inst = _remap_instance(inst, g, remap)
        x = inst.core_set()


def _class_component(inst: DcrInstance) -> int:
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


def contract_class_components(inst: DcrInstance) -> DcrInstance:
    """Contract connected components inside each class to single vertices."""
    while comp := _class_component(inst):
        g, remap = merge_vertices(inst.graph, bits(comp))
        inst = _remap_instance(inst, g, remap)
    return inst


def zero_class_of(inst: DcrInstance) -> frozenset[int]:
    classes = neighborhood_classes(inst.graph, inst.core_set())
    return classes.get(frozenset(), frozenset())


def add_universal_and_prune_zero_class(inst: DcrInstance) -> DcrInstance:
    """Add one vertex adjacent to everything outside the core; the former
    0-class vertices become its twins and disappear.

    No-ops when the complement is empty (an isolated hub would disconnect
    the graph) or the 0-class is already a single vertex (idempotence).
    """
    x = inst.core_set()
    outside = [v for v in range(inst.graph.n) if v not in x]
    if not outside:
        return inst
    zero = zero_class_of(inst)
    if len(zero) == 1:
        return inst
    g = add_vertex(inst.graph, outside, "hub")
    inst2 = replace(inst, graph=g)
    if zero:
        g2, remap = delete_vertices(g, zero)
        inst2 = _remap_instance(inst2, g2, remap)
    return inst2


def prune_small_type_edges(inst: DcrInstance) -> DcrInstance:
    """Strip edges between distinct classes of type at most two.

    Each removal needs the graph to stay connected; the hub keeps at most one
    edge into every class as the insurance making that check succeed.
    """
    x = inst.core_set()
    classes = neighborhood_classes(inst.graph, x)
    class_of: dict[int, frozenset] = {}
    for key, members in classes.items():
        for v in members:
            class_of[v] = key
    zero = sorted(classes.get(frozenset(), ()))
    candidates = [
        (u, v)
        for u, v in inst.graph.edges
        if u in class_of and v in class_of
        and class_of[u] != class_of[v]
        and len(class_of[u]) <= 2 and len(class_of[v]) <= 2
    ]
    if not candidates and not zero:
        return inst
    if candidates and not zero:
        raise MalformedInput("no hub vertex present; add the universal vertex first")
    hub = zero[0] if zero else None
    g = inst.graph
    for u, v in candidates:
        if hub in (u, v):
            continue
        if g.has_edge(u, v):
            g2 = remove_edges(g, [(u, v)])
            if g2.is_connected():
                g = g2
    # hub insurance: one edge per class suffices for connectivity
    if hub is not None:
        for key in sorted(classes, key=sorted):
            if key == frozenset():
                continue
            incident = sorted(v for v in classes[key] if g.has_edge(hub, v))
            for v in incident[1:]:
                g2 = remove_edges(g, [(hub, v)])
                if g2.is_connected():
                    g = g2
    if g is inst.graph:
        return inst
    return replace(inst, graph=g)


def fat_pairs(inst: DcrInstance) -> list[tuple[frozenset, frozenset]]:
    """Ordered class pairs joined by a matching larger than k * d."""
    from .matching import max_bipartite_matching

    classes = neighborhood_classes(inst.graph, inst.core_set())
    keys = sorted(classes, key=sorted)
    out = []
    threshold = inst.k * inst.d
    for a in keys:
        for b in keys:
            if a == b:
                continue
            left, right = sorted(classes[a]), sorted(classes[b])
            edges = [
                (u, v) for u in left for v in right if inst.graph.has_edge(u, v)
            ]
            if len(edges) <= threshold:
                continue
            if len(max_bipartite_matching(left, right, edges)) > threshold:
                out.append((a, b))
    return out


def prune_three_classes(inst: DcrInstance) -> DcrInstance:
    """Cut all edges between a 3-class and its fat partners (minor-free only).

    One pair at a time, refreshing fatness after each cut, since removals can
    change the matchings of the remaining pairs.
    """
    if inst.family != K4D_MINOR_FREE:
        raise MalformedInput("3-class pruning relies on the minor-free promise")
    while True:
        classes = neighborhood_classes(inst.graph, inst.core_set())
        gone = []
        for a, b in fat_pairs(inst):
            if len(a) != 3:
                continue
            gone = [
                (u, v)
                for u in classes[a]
                for v in classes[b]
                if inst.graph.has_edge(u, v)
            ]
            if gone:
                break
        if not gone:
            return inst
        g = remove_edges(inst.graph, gone)
        if not g.is_connected():
            raise AssertionError("fat-pair pruning disconnected the graph")
        inst = replace(inst, graph=g)


# ---------------------------------------------------------------------------
# the pipeline

def kernelize(inst: DcrInstance, cap: int = ENUM_CAP) -> tuple[DcrInstance, KernelReport]:
    """Run every rule to a global fixpoint and certify the kernel's shape."""
    validate_dcr(inst)
    q = 3 if inst.family == K3D_FREE else 4
    # The forbidden-subgraph promise exists solely to bound classes of large
    # type, and the rules themselves can create new complete bipartite
    # subgraphs (the hub is adjacent to everything outside the core).  So the
    # assert is skipped when the bound it establishes already holds, which
    # also keeps re-kernelizing a kernel legal.
    big_classes_small = inst.core is not None and all(
        len(members) < inst.d
        for key, members in neighborhood_classes(inst.graph, inst.core).items()
        if len(key) >= q
    )
    if not big_classes_small:
        witness = find_biclique(inst.graph, q, inst.d)
        if witness is not None:
            raise MalformedInput(
                f"family promise violated: complete bipartite {q}x{inst.d} subgraph "
                f"on {witness[0]} / {witness[1]}"
            )
    size_before = (inst.graph.n, inst.graph.m)
    applied = []
    if inst.core is None:
        x = compute_core(inst.graph, inst.k, inst.source | inst.target, cap)
        inst = replace(inst, core=x)
        applied.append("compute-core")
        validate_dcr(inst)

    step = add_universal_and_prune_zero_class(inst)
    if step is not inst:
        applied.append("add-universal")
        inst = step
    assert inst.graph.is_connected()

    rules = [
        ("contract-class-components", contract_class_components),
        ("prune-small-type-edges", prune_small_type_edges),
        ("reduce-twins", reduce_twins),
    ]
    if inst.family == K4D_MINOR_FREE:
        rules.insert(2, ("prune-three-classes", prune_three_classes))
    changed = True
    while changed:
        changed = False
        for name, rule in rules:
            nxt = rule(inst)
            if nxt is not inst and (nxt.graph != inst.graph):
                applied.append(name)
                inst = nxt
                changed = True
                assert inst.graph.is_connected()

    classes = neighborhood_classes(inst.graph, inst.core_set())
    histogram: dict[int, list[int]] = {}
    for key, members in classes.items():
        histogram.setdefault(len(key), []).append(len(members))
    for sizes in histogram.values():
        sizes.sort()
    big_type = 3 if inst.family == K3D_FREE else 4
    big_ok = all(
        max(sizes) < inst.d
        for t, sizes in histogram.items()
        if t >= big_type
    )
    p = max(
        [2]
        + histogram.get(0, [])
        + [s for t, sizes in histogram.items() if t >= 3 for s in sizes]
    )
    small_bound = 2 ** (p * 2 ** len(inst.core_set()))
    small_ok = all(
        max(sizes) <= small_bound
        for t, sizes in histogram.items()
        if t in (1, 2)
    )
    report = KernelReport(
        core_size=len(inst.core_set()),
        class_histogram=histogram,
        rules_applied=tuple(applied),
        size_before=size_before,
        size_after=(inst.graph.n, inst.graph.m),
        zero_class_bounded=len(classes.get(frozenset(), ())) <= 1,
        big_classes_bounded=big_ok,
        small_classes_bounded=small_ok,
        twin_free=find_reducible_vertex(inst.graph, inst.core_set()) is None,
    )
    return inst, report


def solve_via_kernel(inst: DcrInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    kernel, _ = kernelize(inst)
    return solve_dcr(kernel, state_cap)
