"""Instance builders and shape predicates that only tests use.

``partitioned_instance`` draws the partitioned jumping instances that feed the
subdivided-stars encoding, and ``tape_is_subdivided_star`` is the shape that
encoding promises; nothing in ``reconflab`` needs either.  ``successors``
lists the tape search's moves from one configuration as tuples, in the order
the search discovers them.  ``fan`` and ``wheel`` are planar families at a
fixed k for the kernel and the enumerator, and ``built_fat_pairs`` the
minor-free instances on which the kernel's fat-pair cut fires, and
``hub_draws`` trees around a hub, on which twins and class components fire.
``one_sided_path`` is the path a breadth-first search from the start alone
returns, and ``two_ended_count`` the number of states ``dsr.bfs`` stores,
and its cap outcome; the token and tape oracles answer with the two.
"""
from __future__ import annotations

import itertools
import random
from collections import deque

from reconflab import tapes
from reconflab.dsr import JUMP, DsrInstance
from reconflab.errors import RetryBudgetExceeded, StateCapExceeded
from reconflab.generators import RETRY_BUDGET
from reconflab.graphs import Graph, dominates
from reconflab.kernel import K4D_MINOR_FREE, DcrInstance
from reconflab.tapes import Tape, TapeInstance


def partitioned_instance(seed: int, n_max: int = 5, k_max: int = 2,
                         retries: int = RETRY_BUDGET) -> DsrInstance:
    """A seeded jumping instance with one source and one target vertex per part."""
    rng = random.Random(seed)
    for _ in range(retries):
        n = rng.randint(2, n_max)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6])
        if not g.is_connected():
            continue
        k = rng.randint(1, min(k_max, n))
        verts = list(range(n))
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        parts, prev = [], 0
        for c in cuts + [n]:
            parts.append(frozenset(verts[prev:c]))
            prev = c
        feas = [
            frozenset(c)
            for c in itertools.product(*[sorted(p) for p in parts])
            if dominates(g, set(c), range(n))
        ]
        if len(feas) >= 2:
            src, tgt = rng.sample(feas, 2)
            return DsrInstance(g, k, src, tgt, JUMP, partition=tuple(parts))
    raise RetryBudgetExceeded("no partitioned instance within the retry budget")


def tape_is_subdivided_star(tape: Tape) -> bool:
    """A tree with at most one vertex of degree three or more."""
    g = tape.cells
    if not g.is_connected() or g.m != g.n - 1:
        return False
    return sum(1 for v in range(g.n) if g.degree(v) >= 3) <= 1


def fan(middles: int) -> DcrInstance:
    """Two adjacent hubs 0 and 1, a path of middles joined to both, and a
    star of three leaves on a centre c next to hub 0; planar."""
    c = middles + 2
    edges = [(0, 1), (0, c)] + [(h, v) for h in (0, 1) for v in range(2, c)]
    edges += [(v, v + 1) for v in range(2, c - 1)] + [(c, c + i) for i in (1, 2, 3)]
    return DcrInstance(Graph(c + 4, edges), 3, frozenset({0, c, 2}),
                       frozenset({1, c, c - 1}), d=3)


def wheel(n: int) -> DcrInstance:
    """A hub 0 joined to every vertex of the cycle 1..n-1; planar."""
    edges = [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)]
    return DcrInstance(Graph(n, edges), 2, frozenset({0, 1}), frozenset({0, n // 2}), d=3)


def built_fat_pairs(seed: int = 4411, draws: int = 400) -> list[DcrInstance]:
    """Random instances never hold a fat pair, so these are built: a core
    X of 3-5 vertices, a 3-class A and a class B whose trace lies inside
    A's (the minor-free promise forces that), k * d + 1 of each at d = 1,
    joined by a perfect matching plus random edges.  Draws that are
    disconnected or have fewer than two dominating k-sets of X are skipped."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        x, k = rng.randint(3, 5), rng.randint(1, 2)
        a = list(range(x, x + k + 1))
        b = [v + k + 1 for v in a]
        ya = rng.sample(range(x), 3)
        yb = rng.sample(ya, rng.randint(1, 2))
        edges = {e for e in itertools.combinations(range(x), 2) if rng.random() < 0.5}
        edges |= {(y, u) for u in a for y in ya} | {(y, v) for v in b for y in yb}
        edges |= set(zip(a, b)) | {(u, v) for u in a for v in b if rng.random() < 0.2}
        g = Graph(x + 2 * k + 2, sorted(edges))
        core = frozenset(range(x))
        doms = [frozenset(c) for c in itertools.combinations(core, k) if dominates(g, c, core)]
        if len(doms) < 2 or not g.is_connected():
            continue
        src, tgt = rng.sample(doms, 2)
        out.append(DcrInstance(g, k, src, tgt, d=1, family=K4D_MINOR_FREE, core=core))
    return out


def hub_draws(seed: int = 11, draws: int = 200) -> list[DcrInstance]:
    """A random tree on 8-14 vertices with vertex 0 joined to each other
    vertex with probability 0.35, at k = 2-3, d = 3 and no core; source and
    target are two distinct dominating k-sets.  The hub makes twins and
    class components, so the kernel's rules fire on these.  A tree with
    fewer than two dominating k-sets is drawn again."""
    rng = random.Random(seed)
    out = []
    while len(out) < draws:
        n = rng.randint(8, 14)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {(0, v) for v in range(1, n) if rng.random() < 0.35}
        g = Graph(n, sorted(edges))
        k = rng.randint(2, 3)
        doms = [frozenset(c) for c in itertools.combinations(range(n), k)
                if dominates(g, c, range(n))]
        if len(doms) < 2:
            continue
        src, tgt = rng.sample(doms, 2)
        out.append(DcrInstance(g, k, src, tgt, d=3))
    return out


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph, vertex r * cols + c at row r, column c."""
    return Graph(rows * cols, [(r * cols + c, r * cols + c + 1)
                               for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def successors(inst: TapeInstance, config: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The search kernel's successors of ``config``, decoded to tuples."""
    encode, decode, step = tapes._kernel(inst)
    return [decode(nxt) for nxt in step(encode(config), {})]


def one_sided_path(start, goal, successors):
    """The path from ``start`` to ``goal`` (None if none) of a search from
    start alone, which keeps each state's first-queued neighbour as its
    parent; ``successors(state)`` lists every state one move away."""
    parents = {start: None}
    queue = deque([start])
    while queue and goal not in parents:
        cur = queue.popleft()
        for nxt in successors(cur):
            if nxt not in parents:
                parents[nxt] = cur
                queue.append(nxt)
    if goal not in parents:
        return None
    path = [goal]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return tuple(reversed(path))


def two_ended_count(start, goal, successors, state_cap: int) -> int:
    """The states a search grown level by level from both ends stores, start
    and goal included, before one side generates a state the other stored;
    the smaller frontier grows, the start side on a tie.  ``successors(state)``
    lists every state one move away, in the search's order.  Past
    ``state_cap`` states it raises StateCapExceeded."""
    if start == goal:
        return 1
    seen, fronts = ({start}, {goal}), [[start], [goal]]
    while fronts[0] and fronts[1]:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        own, other = seen[side], seen[1 - side]
        level = []
        for cur in fronts[side]:
            for nxt in successors(cur):
                if nxt in own:
                    continue
                if nxt in other:
                    return len(own) + len(other)
                own.add(nxt)
                if len(own) + len(other) > state_cap:
                    raise StateCapExceeded(f"search passed {state_cap} configurations")
                level.append(nxt)
        fronts[side] = level
    return len(seen[0]) + len(seen[1])
