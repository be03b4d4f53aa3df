"""Seeded input generators for the benchmark.

Built only on ``random`` and the reconflab data-model constructors, never on
``reconflab.generators``: a change to the program's own generators must not
change what the benchmark measures.  Every feasibility test used while
sampling is the benchmark's own, on plain bitmasks, for the same reason.
"""
from __future__ import annotations

import itertools
import random
from collections import deque

from reconflab.dsr import JUMP, SLIDE, DsrInstance
from reconflab.graphs import Graph
from reconflab.kernel import K3D_FREE, DcrInstance
from reconflab.reductions import NormalizedFormula
from reconflab.tapes import Tape, TapeInstance

from oracles import closed_cover

RETRIES = 10_000


class GenerationFailed(RuntimeError):
    """The sampler found no input meeting its constraints; a benchmark bug."""


def connected_graph(rng: random.Random, n: int, extra_prob: float,
                    exact: bool = False) -> Graph:
    """Random spanning tree plus independent extra edges.

    With ``exact`` the tree gets exactly ``extra_prob`` of all vertex pairs
    as extra edges (rounded), drawn among the pairs it lacks, instead of a
    draw per pair: graphs of one size then have one density.
    """
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if exact:
        free = [e for e in pairs if e not in edges]
        edges.update(rng.sample(free, min(len(free), round(extra_prob * len(pairs)))))
    else:
        for u, v in pairs:
            if rng.random() < extra_prob:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def letters(rng: random.Random, sigma: int, prob: float) -> int:
    return sum(1 << a for a in range(sigma) if rng.random() < prob)


def _layers(g: Graph) -> tuple[int, ...]:
    """Breadth-first distance from cell 0, plus one: a synchronizing numbering."""
    dist = [-1] * g.n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return tuple(d + 1 for d in dist)


def _covers(tapes, config, full: int) -> bool:
    m = 0
    for t, c in zip(tapes, config):
        m |= t.content[c]
    return m & full == full


def sync_tape_instance(rng: random.Random, tapes: int, cells: int, sigma: int,
                       prob: float = 0.55, sizes: list[int] | None = None) -> TapeInstance:
    """Synchronized tapes numbered by layers, heads on one shared number.

    Each tape has 2 to ``cells`` cells, or ``sizes[i]`` when given.  Draws cs
    and ct among every covering configuration, so it suits only the small
    sources of reduction artifacts; ``tape_instance`` plants instead.
    """
    full = (1 << sigma) - 1
    for _ in range(RETRIES):
        built = []
        for t in range(tapes):
            g = connected_graph(rng, sizes[t] if sizes else rng.randint(2, cells), 0.2)
            content = tuple(letters(rng, sigma, prob) for _ in range(g.n))
            built.append(Tape(g, content, 0, g.n - 1, _layers(g)))
        r = max(max(t.number) for t in built)
        if r < 2:
            continue
        configs = [
            combo
            for number in range(1, min(max(t.number) for t in built) + 1)
            for combo in itertools.product(
                *([c for c in range(t.cells.n) if t.number[c] == number] for t in built))
            if _covers(built, combo, full)
        ]
        if len(configs) >= 2:
            cs, ct = rng.sample(configs, 2)
            return TapeInstance(sigma, tuple(built), cs, ct, sync=True, r=r)
    raise GenerationFailed("no synchronized tape instance")


def _plant(rng: random.Random, content: list[list[int]], config, sigma: int) -> None:
    """Add missing letters to cells of ``config`` until it covers the alphabet."""
    covered = 0
    for tape, c in zip(content, config):
        covered |= tape[c]
    for a in range(sigma):
        if not covered >> a & 1:
            i = rng.randrange(len(content))
            content[i][config[i]] |= 1 << a
            covered |= 1 << a


def tape_instance(rng: random.Random, tapes: int, cells: tuple[int, int], sigma: int,
                  prob: float, sync: bool = False, extra_prob: float = 0.15,
                  sizes: list[int] | None = None) -> TapeInstance:
    """Random tapes whose start and end configurations are planted valid.

    Each tape has ``cells`` (a range) cells, or ``sizes[i]`` when given.
    Synchronized instances number cells by breadth-first layer and put each
    configuration's heads on one shared number.
    """
    if sizes is None:
        graphs = [connected_graph(rng, rng.randint(*cells), extra_prob) for _ in range(tapes)]
    else:
        graphs = [connected_graph(rng, n, extra_prob) for n in sizes]
    content = [[letters(rng, sigma, prob) for _ in range(g.n)] for g in graphs]
    numbers = [_layers(g) for g in graphs] if sync else [None] * tapes

    def heads():
        if not sync:
            return tuple(rng.randrange(g.n) for g in graphs)
        j = rng.randint(1, min(max(num) for num in numbers))
        return tuple(rng.choice([c for c in range(g.n) if num[c] == j])
                     for g, num in zip(graphs, numbers))

    cs, ct = heads(), heads()
    _plant(rng, content, cs, sigma)
    _plant(rng, content, ct, sigma)
    built = tuple(Tape(g, tuple(c), 0, g.n - 1, num)
                  for g, c, num in zip(graphs, content, numbers))
    r = max(2, max(max(num) for num in numbers)) if sync else None
    return TapeInstance(sigma, built, cs, ct, sync=sync, r=r)


# ---------------------------------------------------------------------------
# dominating-set instances

def random_walk(rng: random.Random, inst: DsrInstance, steps: int) -> list[frozenset[int]]:
    """Configurations visited by up to ``steps`` random legal moves from the source."""
    g = inst.graph
    core = sum(1 << v for v in inst.core_set())
    path = [inst.source]
    for _ in range(steps):
        cur = path[-1]
        moves = []
        for u in sorted(cur):
            dests = g.adj[u] if inst.rule == SLIDE else range(g.n)
            for v in dests:
                if v in cur:
                    continue
                if inst.partition is not None and not any(u in p and v in p for p in inst.partition):
                    continue
                nxt = (cur - {u}) | {v}
                if core & ~closed_cover(g, nxt) == 0:
                    moves.append(nxt)
        if not moves:
            break
        path.append(rng.choice(moves))
    return path


def dsr_instance(rng: random.Random, n: int, k: int, rule: str, extra_prob: float,
                 walk: int = 0, core_size: int | None = None,
                 partitioned: bool = False, exact_edges: bool = False) -> DsrInstance:
    """Random connected instance with a feasible source.

    With ``walk`` > 0 the target is planted by that many random legal moves,
    so it is reachable; otherwise it is drawn independently and the answer is
    the solver's to find (and the oracle's to confirm).  ``exact_edges`` is
    ``connected_graph``'s ``exact``.
    """
    for _ in range(RETRIES):
        g = connected_graph(rng, n, extra_prob, exact=exact_edges)
        core = None
        if core_size is not None:
            core = frozenset(rng.sample(range(n), core_size))
        partition = None
        if partitioned:
            verts = list(range(n))
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, n), k - 1))
            partition = tuple(frozenset(verts[a:b]) for a, b in zip([0] + cuts, cuts + [n]))
        need = sum(1 << v for v in (core if core is not None else range(n)))

        def draw():
            if partition is not None:
                return frozenset(rng.choice(sorted(p)) for p in partition)
            return frozenset(rng.sample(range(n), k))

        def feasible(config):
            return need & ~closed_cover(g, config) == 0

        source = next((s for s in (draw() for _ in range(200)) if feasible(s)), None)
        if source is None:
            continue
        inst = DsrInstance(g, k, source, source, rule, core=core, partition=partition)
        if walk:
            target = random_walk(rng, inst, walk)[-1]
        else:
            target = next((t for t in (draw() for _ in range(200))
                           if feasible(t) and t != source), None)
        if target is None or target == source:
            continue
        return DsrInstance(g, k, source, target, rule, core=core, partition=partition)
    raise GenerationFailed("no dominating-set instance")


def dcr_instance(rng: random.Random, n: int, k: int, d: int, family: str) -> DcrInstance:
    """Connected graph without K_{q,d} (q = 3 or 4 by family), no core yet."""
    q = 3 if family == K3D_FREE else 4
    full = (1 << n) - 1
    for _ in range(RETRIES):
        g = connected_graph(rng, n, 0.25)
        if any(
            _common(g, combo).bit_count() >= d
            for combo in itertools.combinations(range(n), q)
        ):
            continue
        doms = [frozenset(c) for c in itertools.combinations(range(n), k)
                if closed_cover(g, c) == full]
        if len(doms) < 2:
            continue
        source, target = rng.sample(doms, 2)
        return DcrInstance(g, k, source, target, d=d, family=family)
    raise GenerationFailed("no kernelization instance")


def _common(g: Graph, combo) -> int:
    common = g.full_mask
    for v in combo:
        common &= g.nbr_mask[v]
    return common


# ---------------------------------------------------------------------------
# tape selection inputs

def cnf_formula(rng: random.Random, nvars: int, clauses: int) -> NormalizedFormula:
    tree = ("and", tuple(
        ("or", tuple(("var", v) for v in sorted(rng.sample(range(nvars), rng.randint(1, min(3, nvars))))))
        for _ in range(clauses)
    ))
    return NormalizedFormula(nvars, tree)


def partitioned_instance(rng: random.Random, n: int, k: int) -> DsrInstance:
    return dsr_instance(rng, n, k, JUMP, 0.45, partitioned=True)
