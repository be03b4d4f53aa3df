"""Seeded random instance generators with rejection sampling.

Everything here is a pure function of (seed, parameters); the acceptance
suite and the CLI rely on that for reproducibility.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import TYPE_CHECKING, Optional

from .dsr import JUMP, SLIDE, DsrInstance, dominating_sets_of_size
from .errors import MalformedInput, RetryBudgetExceeded, SizeCapExceeded
from . import graphs
from .graphs import Graph, bits, check_vertex_count, closed_mask_of, contains_biclique

if TYPE_CHECKING:  # imported where used, so `gen graph` loads neither module
    from .kernel import DcrInstance
    from .tapes import MultiTapeInstance, TapeInstance

RETRY_BUDGET = 5000


def gen_random_graph(seed: int, n: int, edge_prob: float,
                     constraint: Optional[str] = None) -> Graph:
    """Erdos-Renyi style sampling, rejected until the constraint holds.

    constraint: None, "connected", "k3d-free:<d>" (no complete bipartite
    3-by-d subgraph) or "connected-k3d-free:<d>".
    """
    check_vertex_count(n)
    if not 0 <= edge_prob <= 1:  # NaN fails both comparisons
        raise MalformedInput(f"edge probability {edge_prob!r} is not in [0, 1]")
    prefix, colon, width = (constraint or "none").partition(":")
    if constraint in (None, "none", "connected"):
        d = None
    elif colon and prefix in ("k3d-free", "connected-k3d-free"):
        try:
            d = int(width)
        except ValueError:
            d = 0
        if d < 1:  # every graph on three vertices holds a 3-by-0 biclique
            raise MalformedInput(f"biclique width {width!r} is not a positive integer")
    else:
        raise MalformedInput(f"unknown constraint {constraint!r}")
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < edge_prob])
        if prefix.startswith("connected") and not g.is_connected():
            continue
        if d is None or not contains_biclique(g, 3, d):
            return g
    raise RetryBudgetExceeded(f"no graph satisfying {constraint!r} in {RETRY_BUDGET} tries")


def random_connected_cells(rng: random.Random, m: int) -> Graph:
    """Random tree plus a few extra edges: connected by construction."""
    edges = [(i, rng.randrange(i)) for i in range(1, m)]
    for u, v in itertools.combinations(range(m), 2):
        if rng.random() < 0.2:
            edges.append((u, v))
    return Graph(m, edges)


def _layer_numbers(g: Graph) -> tuple[int, ...]:
    """One plus each vertex's distance from vertex 0 in a connected g: the
    closed neighbourhood of layer d, less every layer so far, is layer d + 1."""
    number, seen, layer, depth = [0] * g.n, 1, 1, 1
    while layer:
        for v in bits(layer):
            number[v] = depth
        layer = closed_mask_of(g, bits(layer)) & ~seen
        seen |= layer
        depth += 1
    return tuple(number)


def gen_random_tape_instance(
    seed: int,
    tapes: int,
    cells: int,
    sigma: int,
    sync: bool = False,
    content_prob: float = 0.55,
) -> TapeInstance:
    """Random connected cell graphs with random contents and valid endpoints.

    Synchronized instances get breadth-first layer numbering (adjacent cells
    differ by at most one) and head configurations sitting on one shared
    number.  The two heads are drawn from a list of every valid
    configuration, so more than ``graphs.ENUM_CAP`` candidates raise
    ``SizeCapExceeded`` before any is listed.
    """
    from .tapes import Tape, TapeInstance, check_alphabet, is_valid_configuration
    check_alphabet(sigma)
    if tapes < 1 or cells < (2 if sync else 1):
        raise MalformedInput(f"need tapes >= 1 and cells >= {2 if sync else 1}")
    check_vertex_count(tapes * cells)  # the cells of every tape's cell graph together
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        built = []
        for _ in range(tapes):
            m = rng.randint(1 if not sync else 2, cells)
            g = random_connected_cells(rng, m)
            content = tuple(
                sum(1 << l for l in range(sigma) if rng.random() < content_prob)
                for _ in range(m)
            )
            number = _layer_numbers(g) if sync else None
            built.append(Tape(g, content, 0, m - 1, number))
        # head pools to combine, one group per shared number when synchronized
        if sync:
            r = max(max(t.number) for t in built)
            if r < 2:
                continue
            groups = [[[c for c in range(t.cells.n) if t.number[c] == number] for t in built]
                      for number in range(1, min(max(t.number) for t in built) + 1)]
        else:
            r = None
            groups = [[range(t.cells.n) for t in built]]
        if sum(math.prod(map(len, pools)) for pools in groups) > graphs.ENUM_CAP:
            raise SizeCapExceeded(f"more than {graphs.ENUM_CAP} head configurations to choose from")
        probe = TapeInstance(sigma, tuple(built), (0,) * tapes, (0,) * tapes, sync=sync, r=r)
        configs = [combo for pools in groups for combo in itertools.product(*pools)
                   if is_valid_configuration(probe, combo)]
        if len(configs) >= 2:
            cs, ct = rng.sample(configs, 2)
            return TapeInstance(sigma, tuple(built), cs, ct, sync=sync, r=r)
    raise RetryBudgetExceeded("no valid tape instance within the retry budget")


def gen_sync_path_instance(seed: int, tapes: int, cells: int, sigma: int) -> TapeInstance:
    """Equal-length position-numbered path tapes with shared-number endpoints."""
    from .tapes import TapeInstance, is_valid_configuration, path_tape
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        m = rng.randint(2, cells)
        p = rng.randint(1, tapes)
        built = [
            path_tape(
                [sum(1 << l for l in range(sigma) if rng.random() < 0.6) for _ in range(m)],
                number=range(1, m + 1),
            )
            for _ in range(p)
        ]
        probe = TapeInstance(sigma, tuple(built), (0,) * p, (0,) * p, sync=True, r=m)
        cols = [j for j in range(m) if is_valid_configuration(probe, (j,) * p)]
        if len(cols) >= 2:
            js, jt = rng.sample(cols, 2)
            return TapeInstance(sigma, tuple(built), (js,) * p, (jt,) * p, sync=True, r=m)
    raise RetryBudgetExceeded("no synchronized path instance within the retry budget")


def gen_random_multi(seed: int, tuples: int, members: int, cells: int) -> MultiTapeInstance:
    from .tapes import MultiTapeInstance, path_tape
    rng = random.Random(seed)
    shape = []
    for _ in range(rng.randint(1, tuples)):
        shape.append(
            tuple(
                path_tape([int(rng.random() < 0.6) for _ in range(rng.randint(1, cells))])
                for _ in range(rng.randint(1, members))
            )
        )
    return MultiTapeInstance(sigma=1, tuples=tuple(shape))


def gen_random_dsr_instance(seed: int, n_max: int = 6, k_max: int = 3) -> DsrInstance:
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        n = rng.randint(2, n_max)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55])
        k = rng.randint(1, min(k_max, n - 1))
        rule = rng.choice([SLIDE, JUMP])
        feas = dominating_sets_of_size(g, k)
        if len(feas) >= 2:
            src, tgt = rng.sample(feas, 2)
            return DsrInstance(g, k, src, tgt, rule)
    raise RetryBudgetExceeded("no feasible instance within the retry budget")


def gen_dcr_instance(seed: int, n_max: int = 8, k_max: int = 2, d: int = 2) -> DcrInstance:
    from .kernel import K3D_FREE, DcrInstance, compute_core
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        n = rng.randint(3, n_max)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45])
        if not g.is_connected() or contains_biclique(g, 3, d):
            continue
        k = rng.randint(1, k_max)
        doms = dominating_sets_of_size(g, k)
        if len(doms) < 2:
            continue
        src, tgt = rng.sample(doms, 2)
        core = compute_core(g, k, src | tgt)
        return DcrInstance(g, k, src, tgt, d=d, family=K3D_FREE, core=core)
    raise RetryBudgetExceeded("no family-constrained instance within the retry budget")
