"""Instance transformers between dominating-set reconfiguration and tape problems.

Every constructor here is a deterministic function of its input and attaches
provenance metadata (construction name, source instance, vertex/letter
bookkeeping) that the width-certificate builders and the structural checkers
consume.  Soundness of each transformer is established by oracle equivalence
at desk scale, not by trusting the construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .dsr import (DEFAULT_STATE_CAP, SLIDE, JUMP, DsrInstance, has_dominating_set, solve,
                  validate_instance)
from . import graphs
from .errors import MalformedInput, SizeCapExceeded
from .graphs import Graph, bits, closed_mask_of, complete_graph, mask_of
from .tapes import (
    MultiTapeInstance,
    Tape,
    TapeInstance,
    build_extended,
    irreducible_masks,
    is_irreducible,
    path_order,
    path_tape,
    require_valid,
    solve_multi,
    solve_tape,
    tape_is_path,
)

# ---------------------------------------------------------------------------
# dominating set -> synchronized tape tuples

def _check_tape_count(tapes: int) -> None:
    """A reduction's output of ``tapes`` tapes is refused, before any is built,
    past ``graphs.VERTEX_CAP``."""
    if tapes > graphs.VERTEX_CAP:
        raise SizeCapExceeded(f"{tapes} tapes exceed the cap of {graphs.VERTEX_CAP}")


def ds_to_sync_multi(g: Graph, k: int) -> MultiTapeInstance:
    """Encode size-k domination of g as a synchronized tape-selection instance.

    One tuple per token; every tuple holds one path tape per vertex whose
    j-th cell is marked iff that vertex closed-dominates vertex j.  Heads
    sweep left to right in lockstep; the sweep crosses column j only when
    some selected vertex dominates j.
    """
    if g.n == 0:
        raise MalformedInput("empty graph")
    if k <= 0:
        raise MalformedInput("need at least one token")
    n = g.n
    _check_tape_count(k * n)
    tapes = []
    for i in range(n):
        content = tuple(1 if (i == j or g.has_edge(i, j)) else 0 for j in range(n))
        tapes.append(path_tape(content, number=range(1, n + 1)))
    tup = tuple(tapes)
    return MultiTapeInstance(
        sigma=1,
        tuples=tuple(tup for _ in range(k)),
        sync=True,
        r=n,
        provenance={"construction": "ds-check", "k": k, "n": n},
    )


# ---------------------------------------------------------------------------
# partitioned token-jumping DSR -> synchronized subdivided stars

def _star_layout(n: int, branches: int) -> tuple[Graph, tuple[int, ...], list[list[int]]]:
    """Subdivided star: center 0, each branch a path of 2n+1 extra cells.

    Returns the cell graph, the cell numbering (1,2,..,n+1,1,n+1,..,2 along
    each branch) and the per-branch cell id lists (center excluded).
    """
    cells = 1 + branches * (2 * n + 1)
    edges, numbers = [], [0] * cells
    numbers[0] = 1
    branch_cells = []
    for b in range(branches):
        ids = [1 + b * (2 * n + 1) + d for d in range(2 * n + 1)]
        branch_cells.append(ids)
        edges.append((0, ids[0]))
        edges.extend((ids[t], ids[t + 1]) for t in range(2 * n))
        for depth, vid in enumerate(ids, start=1):
            if depth <= n:
                numbers[vid] = depth + 1
            elif depth == n + 1:
                numbers[vid] = 1
            else:
                numbers[vid] = 2 * n + 3 - depth
    return Graph(cells, edges), tuple(numbers), branch_cells


def _middle(branch: list[int], n: int) -> int:
    return branch[n]


def partitioned_dsr_to_sync_stars(inst: DsrInstance) -> TapeInstance:
    """Token-jumping DSR with one token pinned per part, as synchronized stars.

    Each part becomes a subdivided star tape with one branch per candidate
    vertex; an extra star with one branch per token arbitrates which token is
    allowed to travel through its center.  Marks on branch cells encode
    closed domination exactly as in ds_to_sync_multi.  The tapes encode
    neither connectivity, nor a core short of V, nor a token outside every
    part, so such an instance is refused.
    """
    if inst.partition is None:
        raise MalformedInput("instance carries no partition")
    if inst.rule != JUMP:
        raise MalformedInput("the star encoding targets the jumping rule")
    if inst.connected:
        raise MalformedInput("the star encoding does not encode connectivity")
    if inst.core is not None and mask_of(inst.core) != inst.graph.full_mask:
        raise MalformedInput("the star encoding dominates every vertex, not a core")
    if inst.k != len(inst.partition):
        raise MalformedInput(f"the star encoding needs one token per part, "
                             f"not {inst.k} tokens on {len(inst.partition)} parts")
    g, k = inst.graph, inst.k
    if k == 0:
        raise MalformedInput("the arbiter star needs at least one token")
    # Pad with universal dummy vertices until the modulus n+1 is a multiple of
    # three: the downstream phase encodings need that for wrapping numberings,
    # and a universal vertex is dominated by anything, so the answer is
    # untouched (dummies belong to no part, so tokens never reach them).
    n = g.n + -(g.n + 1) % 3
    g = Graph(n, [*g.edges, *((u, v) for v in range(g.n, n) for u in range(v))], g.labels)
    parts = [sorted(p) for p in inst.partition]
    check = 1 << k  # letter k marks "currently dominated"
    tapes: list[Tape] = []
    middles: list[list[int]] = []  # per tape, the middle cell of each branch
    for i, part in enumerate(parts):
        cells, numbers, branch_cells = _star_layout(n, len(part))
        content = [0] * cells.n
        # The check letter on the center lets a head cross it while the others
        # are pinned at number 2; without it the crossing would demand that the
        # stationary tokens alone dominate vertex 0, which jumping never promises.
        content[0] |= check
        for b, v in enumerate(part):
            ids = branch_cells[b]
            content[_middle(ids, n)] |= 1 << i
            for d in range(n + 1, 2 * n + 1):
                content[ids[d]] |= 1 << i  # pending path keeps the token letter
            for j in range(1, n + 1):  # check marks on both cells numbered j+1
                if v == j - 1 or g.has_edge(v, j - 1):
                    content[ids[j - 1]] |= check
                    content[ids[2 * n + 1 - j]] |= check
        tapes.append(Tape(cells, tuple(content), start=0, end=0, number=numbers))
        middles.append([_middle(ids, n) for ids in branch_cells])
    # arbiter star: branch per token, its letter on middle + pending cells,
    # the check letter on every cell numbered 1
    cells, numbers, branch_cells = _star_layout(n, k)
    content = [0] * cells.n
    for b in range(k):
        ids = branch_cells[b]
        content[_middle(ids, n)] |= 1 << b
        for d in range(n + 1, 2 * n + 1):
            content[ids[d]] |= 1 << b
    for vid in range(cells.n):
        if numbers[vid] == 1:
            content[vid] |= check
    arbiter = Tape(cells, tuple(content), start=0, end=0, number=numbers)
    tapes.append(arbiter)
    arbiter_middles = [_middle(ids, n) for ids in branch_cells]

    def heads(config: frozenset[int]) -> tuple[int, ...]:
        out = []
        for i, part in enumerate(parts):
            (v,) = config & frozenset(part)
            out.append(middles[i][part.index(v)])
        out.append(arbiter_middles[0])  # arbiter parked on the first token's middle
        return tuple(out)

    return TapeInstance(
        sigma=k + 1,
        tapes=tuple(tapes),
        cs=heads(inst.source),
        ct=heads(inst.target),
        sync=True,
        r=n + 1,
        provenance={
            "construction": "sync-stars",
            "k": k,
            "n": n,
            "branch_counts": [len(p) for p in parts] + [k],
            "source_instance": inst,
        },
    )


# ---------------------------------------------------------------------------
# the phase layer: fresh letters by cell number mod 3, read by one extra tape
# that keeps the heads in lockstep (desynchronizers, composers, formulas)

def _phased(groups: Sequence[Sequence[Tape]], base: int
            ) -> tuple[list[tuple[Tape, ...]], list[int], tuple[int, int, int]]:
    """Give group t the letters a, b, c = base + 3t, base + 3t + 1, base + 3t + 2.

    A cell numbered x gets the two that x mod 3 allows: {a, c}, {a, b} or
    {b, c} as x mod 3 is 0, 1 or 2, so heads on one number j lack the same
    letter in every group (b, c or a).  Returns the phased groups, each
    group's first letter, and the masks of all a, all b and all c letters.
    """
    bases = [base + 3 * t for t in range(len(groups))]
    phased = []
    for group, low in zip(groups, bases):
        pairs = (5 << low, 3 << low, 6 << low)
        phased.append(tuple(
            Tape(t.cells, tuple(m | pairs[x % 3] for m, x in zip(t.content, t.number)),
                 t.start, t.end, t.number)
            for t in group))
    a = mask_of(bases)
    return phased, bases, (a, a << 1, a << 2)


def _phase_path(length: int, masks: tuple[int, int, int]) -> Tape:
    """Cell j - 1 holds the letters that heads on number j lack, and one more."""
    a, b, c = masks
    cycle = (c | a, a | b, b | c)
    return path_tape(cycle[t % 3] for t in range(length))


def _phase_triangle(length: int, masks: tuple[int, int, int]) -> Tape:
    """Three cells, one per number mod 3, so the length is not needed."""
    a, b, c = masks
    return Tape(complete_graph(3), (a | b, b | c, c | a), start=0, end=0)


def _normalized_for_phase(inst: TapeInstance) -> TapeInstance:
    """Prepare a synchronized instance for the mod-3 phase encoding.

    With modulus at most 3 the window rule never binds (any two residues are
    within one of each other), so the numbering is flattened to all-ones.
    Otherwise cell classes (number mod 3) must track single moves: linear
    numberings always do, wrapping ones only when the modulus is a multiple
    of three.
    """
    if inst.r <= 3:
        tapes = tuple(
            Tape(t.cells, t.content, t.start, t.end, (1,) * t.cells.n) for t in inst.tapes
        )
        return TapeInstance(inst.sigma, tapes, inst.cs, inst.ct, sync=True, r=4,
                            provenance=inst.provenance)
    wraps = any(
        abs(t.number[u] - t.number[v]) > 1
        for t in inst.tapes
        for u, v in t.cells.edges
    )
    if wraps and inst.r % 3:
        raise MalformedInput("wrapping numbering needs a modulus divisible by 3; renumber first")
    return inst


def _desynchronize(inst: TapeInstance, construction: str, check: Callable[[TapeInstance], None],
                   phase_tape: Callable[[int, tuple[int, int, int]], Tape],
                   phase_cell: Callable[[int], int]) -> TapeInstance:
    """Both desynchronizers: ``check`` vets the input once its numbering
    passed the modulus check, ``phase_tape`` builds
    the extra tape from the largest number after normalizing and the phase
    masks, and ``phase_cell(j)`` is its head's cell when the other heads
    share number j."""
    if not inst.sync or inst.r is None:
        raise MalformedInput("input must be synchronized and numbered")
    if not inst.tapes:
        raise MalformedInput("input has no tapes")
    flat = _normalized_for_phase(inst)
    check(inst)
    phased, bases, masks = _phased([(t,) for t in flat.tapes], flat.sigma)
    phase = phase_tape(max(max(t.number) for t in flat.tapes), masks)
    ends = []
    for name, config in (("cs", flat.cs), ("ct", flat.ct)):
        nums = {t.number[c] for t, c in zip(flat.tapes, config)}
        if len(nums) != 1:
            raise MalformedInput(f"{name} heads must share one number")
        ends.append(tuple(config) + (phase_cell(nums.pop()),))
    return TapeInstance(
        sigma=flat.sigma + 3 * len(phased),
        tapes=tuple(t for (t,) in phased) + (phase,),
        cs=ends[0],
        ct=ends[1],
        sync=False,
        r=None,
        provenance={"construction": construction, "source": inst, "triple_bases": bases},
    )


def desynchronize_triangle(inst: TapeInstance) -> TapeInstance:
    """Equivalent unsynchronized instance with one extra triangle tape.

    Three fresh letters per tape, laid out by cell number modulo three, let a
    triangle tape certify the heads' common phase; any move that would break
    lockstep leaves one fresh letter uncovered.  The result is irreducible.
    Heads on number j lack every a, b or c letter as j mod 3 is 2, 0 or 1;
    triangle cell 0 (a, b) covers the first two, cell 1 (b, c) the third.
    """
    return _desynchronize(inst, "triangle-desync", lambda inst: None, _phase_triangle,
                          lambda j: 1 if j % 3 == 1 else 0)


def _require_monotone_paths(inst: TapeInstance) -> None:
    for i, t in enumerate(inst.tapes):
        if not tape_is_path(t):
            raise MalformedInput(f"tape {i} is not a path")
        nums = [t.number[c] for c in path_order(t)]
        if nums[0] != 1:
            raise MalformedInput(f"tape {i} start cell is not numbered 1")
        if any(x > y for x, y in zip(nums, nums[1:])):
            raise MalformedInput(f"tape {i} numbering decreases towards the end")
        if inst.r > 3 and any(y > x + 1 for x, y in zip(nums, nums[1:])):
            raise MalformedInput(f"tape {i} numbering climbs by more than 1 between adjacent cells")


def desynchronize_path(inst: TapeInstance) -> TapeInstance:
    """Path-preserving desynchronizer: the extra tape is a path, not a triangle.

    Requires path tapes with start cells numbered 1 and numbering
    non-decreasing towards the end, by at most 1 a cell once r > 3 (a
    wrapping step would make the phase head jump); the phase tape's head then
    simply tracks the common number.
    """
    return _desynchronize(inst, "path-desync", _require_monotone_paths, _phase_path,
                          lambda j: j - 1)


# ---------------------------------------------------------------------------
# gluing helpers shared by the selector and the and/or composers

def _glue(members: Sequence[Tape], sep_mask: int, duplicate: bool) -> Tape:
    """Concatenate path tapes with separator cells; optionally duplicate the
    boundary cells and number blocks 4j-3 / 4j-2 / 4j-1 / 4j."""
    contents: list[int] = []
    numbers: list[int] = []
    for j, t in enumerate(members):
        block = [t.content[c] for c in path_order(t)]
        if duplicate:
            contents.append(block[0])
            numbers.append(4 * j + 1)
            contents.extend(block)
            numbers.extend([4 * j + 2] * len(block))
            contents.append(block[-1])
            numbers.append(4 * j + 3)
        else:
            contents.extend(block)
            numbers.extend([0] * len(block))
        if j + 1 < len(members):
            contents.append(sep_mask)
            numbers.append(4 * j + 4)
    return path_tape(contents, number=numbers if duplicate else None)


def _mark(tape: Tape, sigma: int, k: int, t: int) -> Tape:
    """Tuple t's letters after an alphabet of sigma: a on every cell, s on the
    start and e on the end (letters sigma + t, sigma + k + t, sigma + 2k + t)."""
    content = [c | 1 << (sigma + t) for c in tape.content]
    content[tape.start] |= 1 << (sigma + k + t)
    content[tape.end] |= 1 << (sigma + 2 * k + t)
    return Tape(tape.cells, tuple(content), tape.start, tape.end, tape.number)


def _selector(sigma: int, k: int) -> Tape:
    """The five-cell selector path over the a/s/e letters of k tuples: heads
    enter a tuple only on its starts and leave it only from its ends."""
    full = (1 << sigma) - 1
    a, s, e = (mask_of(range(sigma + j * k, sigma + (j + 1) * k)) for j in range(3))
    return path_tape((full | a | s | e, full | a | e, s | e, full | a | s, full | a | s | e))


def select_from_tuples(inst: MultiTapeInstance) -> TapeInstance:
    """Collapse tape tuples into single path tapes plus a five-cell selector.

    Each tuple's members are chained with empty separator cells; per-tuple
    letters on every cell, on starts, and on ends let the selector pin all
    heads to the starts of one member each, run that selection, and release
    them only from its ends.
    """
    if inst.sync:
        raise MalformedInput("selector composition applies to unsynchronized instances")
    k = len(inst.tuples)
    sigma = inst.sigma
    glued = [_glue([_mark(m, sigma, k, t) for m in members], sep_mask=0, duplicate=False)
             for t, members in enumerate(inst.tuples)]
    tapes = tuple(glued) + (_selector(sigma, k),)
    return TapeInstance(
        sigma=sigma + 3 * k,
        tapes=tapes,
        cs=tuple(t.start for t in tapes),
        ct=tuple(t.end for t in tapes),
        sync=False,
        r=None,
        provenance={"construction": "selector", "source": inst},
    )


def _check_composable(insts: Sequence[MultiTapeInstance]) -> None:
    if not insts:
        raise MalformedInput("nothing to compose")
    first = insts[0]
    for other in insts[1:]:
        if other.sigma != first.sigma:
            raise MalformedInput("composed instances must share one alphabet")
        if len(other.tuples) != len(first.tuples):
            raise MalformedInput("composed instances must have the same number of tuples")
        if [len(t) for t in other.tuples] != [len(t) for t in first.tuples]:
            raise MalformedInput("composed instances must have matching tuple sizes")
    for inst in insts:
        if inst.sync:
            raise MalformedInput("composition applies to unsynchronized instances")


def and_compose(insts: Sequence[MultiTapeInstance]) -> MultiTapeInstance:
    """One instance positive iff some single selection solves every input.

    Tuple-wise gluing with duplicated boundary cells and full-alphabet
    separators, kept in lockstep by per-tuple phase letters and one phase
    tape, forces every input's run to happen under the same tuple choice.
    """
    _check_composable(insts)
    p = len(insts)
    sigma = insts[0].sigma
    k = len(insts[0].tuples)
    full = (1 << sigma) - 1
    glued = [[_glue([q.tuples[t][i] for q in insts], sep_mask=full, duplicate=True)
              for i in range(len(insts[0].tuples[t]))]
             for t in range(k)]
    tuples, _, masks = _phased(glued, sigma)
    tuples.append((_phase_path(4 * p - 1, masks),))
    return MultiTapeInstance(
        sigma=sigma + 3 * k,
        tuples=tuple(tuples),
        sync=False,
        provenance={"construction": "and-compose", "arity": p},
    )


def or_compose(insts: Sequence[MultiTapeInstance]) -> MultiTapeInstance:
    """One instance positive iff at least one input is positive.

    Tuple-wise gluing with empty separators keeps the inputs' selection
    structure intact (a choice of members means the same thing in every
    input, which nested conjunctions rely on); a five-cell selector pins the
    run to a single input's block, and per-tuple phase letters with a phase
    tape keep all blocks aligned.  Adds six fresh letters per tuple.
    """
    _check_composable(insts)
    p = len(insts)
    sigma = insts[0].sigma
    k = len(insts[0].tuples)
    glued = [[_glue([_mark(q.tuples[t][m], sigma, k, t) for q in insts], sep_mask=0,
                    duplicate=True)
              for m in range(len(insts[0].tuples[t]))]
             for t in range(k)]
    tuples, _, masks = _phased(glued, sigma + 3 * k)
    return MultiTapeInstance(
        sigma=sigma + 6 * k,
        tuples=tuple(tuples) + ((_selector(sigma, k),), (_phase_path(4 * p - 1, masks),)),
        sync=False,
        provenance={"construction": "or-compose", "arity": p},
    )


# ---------------------------------------------------------------------------
# weighted normalized satisfiability -> tape selection

Node = tuple  # ("var", i) | ("and", (nodes,)) | ("or", (nodes,))

# Deepest and/or nesting a formula may have.  The tree walks below recurse a
# few frames per level; at k >= 1 even a one-variable chain deeper than 54
# levels overflows the alphabet cap of its tape encoding.
FORMULA_DEPTH_CAP = 100


@dataclass(frozen=True)
class NormalizedFormula:
    """Alternating and/or tree over positive literals, top operator `and`."""

    nvars: int
    root: Node

    def __post_init__(self):
        _check_tree(self.root, self.nvars)

    def depth(self) -> int:
        return _depth(self.root)

    def evaluate(self, true_vars: frozenset[int]) -> bool:
        return _eval(self.root, true_vars)


def _check_tree(root: Node, nvars: int) -> None:
    """Check the alternating shape and the depth cap with an explicit stack,
    nodes in preorder, so no nesting is too deep to check."""
    stack = [(root, "and", 0)]
    while stack:
        node, expect, depth = stack.pop()
        kind = node[0]
        if kind == "var":
            if not (0 <= node[1] < nvars):
                raise MalformedInput(f"variable {node[1]} out of range")
            continue
        if depth == FORMULA_DEPTH_CAP:
            raise SizeCapExceeded(f"formula nested deeper than the cap of "
                                  f"{FORMULA_DEPTH_CAP} and/or levels")
        if kind != expect:
            raise MalformedInput(f"expected {expect!r} node, found {kind!r}")
        children = node[1]
        if not children:
            raise MalformedInput(f"{kind} node with no children")
        nxt = "or" if kind == "and" else "and"
        stack.extend((child, nxt, depth + 1) for child in reversed(children))


def _depth(node: Node) -> int:
    if node[0] == "var":
        return 0
    return 1 + max(_depth(c) for c in node[1])


def _eval(node: Node, true_vars: frozenset[int]) -> bool:
    if node[0] == "var":
        return node[1] in true_vars
    results = (_eval(c, true_vars) for c in node[1])
    return all(results) if node[0] == "and" else any(results)


def weighted_satisfiable(phi: NormalizedFormula, k: int) -> bool:
    """Truth-table check: some assignment with at most k true variables works."""
    for size in range(0, min(k, phi.nvars) + 1):
        for combo in itertools.combinations(range(phi.nvars), size):
            if phi.evaluate(frozenset(combo)):
                return True
    return False


def _canonical(phi: NormalizedFormula) -> Node:
    """Uniform-depth alternating tree with even depth (and at the top).

    Sibling subformulas must share a shape so the recursive tape encodings
    line up; singleton and/or levels pad the shallow branches.
    """
    depth = max(2, phi.depth())
    if depth % 2:
        depth += 1

    def fix(node: Node, want: int, op: str) -> Node:
        if want == 0:
            assert node[0] == "var"
            return node
        inner = "or" if op == "and" else "and"
        if node[0] != op:
            return (op, (fix(node, want - 1, inner),))
        return (op, tuple(fix(c, want - 1, inner) for c in node[1]))

    return fix(phi.root, depth, "and")


def _cnf_to_multi(nvars: int, clauses: list[frozenset[int]], k: int) -> MultiTapeInstance:
    """Base encoding: clause columns on one path tape per variable, swept in
    lockstep by k selected heads, then desynchronized with per-tuple phase
    letters and a phase tape."""
    m = len(clauses)
    tapes = []
    for v in range(nvars):
        content = tuple(1 if v in clause else 0 for clause in clauses)
        tapes.append(path_tape(content, number=range(1, m + 1)))
    tuples, _, masks = _phased([tapes] * k, 1)
    tuples.append((_phase_path(m, masks),))
    return MultiTapeInstance(sigma=1 + 3 * k, tuples=tuple(tuples), sync=False)


def _trivial_multi(positive: bool) -> MultiTapeInstance:
    tape = path_tape((1,) if positive else (0,))
    return MultiTapeInstance(sigma=1, tuples=((tape,),), sync=False)


def formula_to_multi(phi: NormalizedFormula, k: int) -> MultiTapeInstance:
    """Tape-selection instance positive iff phi has a weight-at-most-k model."""
    if k <= 0:
        return _trivial_multi(phi.evaluate(frozenset()))
    root = _canonical(phi)
    bases = [root]
    while _depth(bases[0]) > 2:  # the canonical tree has uniform depth
        bases = [sub for node in bases for disj in node[1] for sub in disj[1]]
    _check_tape_count(k * phi.nvars * len(bases))  # k * nvars tapes per base case

    def build(node: Node) -> MultiTapeInstance:
        if _depth(node) == 2:
            clauses = [frozenset(v[1] for v in disj[1]) for disj in node[1]]
            return _cnf_to_multi(phi.nvars, clauses, k)
        conjuncts = []
        for disj in node[1]:
            conjuncts.append(or_compose([build(sub) for sub in disj[1]]))
        return and_compose(conjuncts)

    out = build(root)
    return MultiTapeInstance(
        sigma=out.sigma,
        tuples=out.tuples,
        sync=False,
        provenance={"construction": "formula", "k": k, "nvars": phi.nvars},
    )


# ---------------------------------------------------------------------------
# tapes -> dominating set reconfiguration

def _check_token_source(inst: TapeInstance, moves: str) -> None:
    if inst.sync:
        raise MalformedInput(f"desynchronize before reducing to token {moves}")
    if not is_irreducible(inst):
        raise MalformedInput("reduction requires an irreducible instance")


def _add_vertex(edges: list[tuple[int, int]], labels: dict[int, str], label: str,
                nbrs: Iterable[int]) -> int:
    """Append a vertex labelled ``label`` and adjacent to ``nbrs``; return its
    id, len(labels), as every vertex before it has a label."""
    v = len(labels)
    labels[v] = label
    edges.extend((u, v) for u in nbrs)
    return v


def tape_to_ts_dsr(inst: TapeInstance) -> DsrInstance:
    """Token sliding on the extended graph plus per-tape guards and a hub.

    Guard i is adjacent to all of tape i's cells, the hub to every cell, and
    a pendant leaf hangs off the hub; with an irreducible input, minimum
    dominating sets are exactly "hub + one head per tape", so token slides
    mirror head moves.
    """
    _check_token_source(inst, "sliding")
    ext = build_extended(inst)
    edges, labels = list(ext.graph.edges), dict(ext.graph.labels)
    guards = tuple(_add_vertex(edges, labels, f"guard:{i}",
                               (ext.cell_id(i, c) for c in range(t.cells.n)))
                   for i, t in enumerate(inst.tapes))
    hub = _add_vertex(edges, labels, "hub", range(ext.letter_base))  # cells precede letters
    leaf = _add_vertex(edges, labels, "hub-leaf", (hub,))
    source = frozenset(ext.cell_id(i, c) for i, c in enumerate(inst.cs)) | {hub}
    target = frozenset(ext.cell_id(i, c) for i, c in enumerate(inst.ct)) | {hub}
    return DsrInstance(
        graph=Graph(len(labels), edges, labels),
        k=len(guards) + 1,
        source=source,
        target=target,
        rule=SLIDE,
        provenance={
            "construction": "ts-dsr",
            "source": inst,
            "guards": guards,
            "hub": hub,
            "leaf": leaf,
            "cell_base": ext.cell_base,
            "letter_base": ext.letter_base,
            "cell_count": ext.letter_base,
        },
    )


def tape_to_tj_cdsr(inst: TapeInstance) -> DsrInstance:
    """Connected dominating sets under token jumping, via edge subdivision.

    Every cell-cell edge is subdivided; the hub sees original cells only and
    guard i sees tape i's subdivided vertices only, so a budget of 3k+1
    connected tokens is forced into "hub + per tape: guard, one cell, one
    incident subdivided vertex".  Short tapes are padded with empty cells so
    the counting goes through.
    """
    _check_token_source(inst, "jumping")
    k = len(inst.tapes)
    # Every connected dominating set of size 3k+1 must keep one token on each
    # guard.  A tape abandoned by its guard has to dominate its own subdivided
    # vertices, and the budget leaves only 3 tokens per tape, so each tape
    # gets an empty 7-edge path appended: covering those 7 subdivided vertices
    # alone already costs 4 tokens.
    padded = []
    for t in inst.tapes:
        tail = [t.end, *range(t.cells.n, t.cells.n + 7)]
        cells = Graph(t.cells.n + 7, [*t.cells.edges, *zip(tail, tail[1:])], t.cells.labels)
        padded.append(Tape(cells, (*t.content, *(0,) * 7), t.start, t.end))
    inst2 = TapeInstance(inst.sigma, tuple(padded), inst.cs, inst.ct)
    ext = build_extended(inst2)
    edges: list[tuple[int, int]] = []
    labels = dict(ext.graph.labels)
    sub_of_tape: list[list[int]] = [[] for _ in range(k)]
    sub_by_cell: dict[int, list[int]] = {}
    for u, v in ext.graph.edges:
        if u in ext.tape_of and v in ext.tape_of:  # cell-cell edge: subdivide
            mid = _add_vertex(edges, labels, f"mid:{ext.tape_of[u]}", (u, v))
            sub_of_tape[ext.tape_of[u]].append(mid)
            sub_by_cell.setdefault(u, []).append(mid)
            sub_by_cell.setdefault(v, []).append(mid)
        else:
            edges.append((u, v))
    hub = _add_vertex(edges, labels, "hub", ext.tape_of)
    guards = tuple(_add_vertex(edges, labels, f"guard:{i}", mids)
                   for i, mids in enumerate(sub_of_tape))
    leaf = _add_vertex(edges, labels, "hub-leaf", (hub,))

    def config(cells_: Sequence[int]) -> frozenset[int]:
        toks = {hub, *guards}
        for i, c in enumerate(cells_):
            vid = ext.cell_id(i, c)
            toks.add(vid)
            toks.add(min(sub_by_cell[vid]))
        return frozenset(toks)

    return DsrInstance(
        graph=Graph(len(labels), edges, labels),
        k=3 * k + 1,
        source=config(inst2.cs),
        target=config(inst2.ct),
        rule=JUMP,
        connected=True,
        provenance={
            "construction": "tj-cdsr",
            "source": inst,
            "guards": guards,
            "hub": hub,
            "leaf": leaf,
            "cell_base": ext.cell_base,
            "letter_base": ext.letter_base,
        },
    )


def check_min_ds_structure(inst: DsrInstance) -> bool:
    """Certify, by counting on the graph, that every minimum dominating set
    of a sliding reduction output holds one of the hub and its leaf, one
    cell of each tape and no letter.

    N[guard i] must be guard i and tape i's cells, and N[leaf] = {hub,
    leaf}; these k + 1 sets must be pairwise disjoint, so every dominating
    set has a vertex in each, and the source, of k + 1 vertices, must
    dominate.  So every minimum set has one vertex in each and none
    elsewhere.  Letters must be adjacent only to cells, so a minimum set that
    held guard i would cover the letters with fewer cells than tapes, one per
    tape; the cells' letter neighbourhoods, read off the graph, must be
    irreducible, which rules that out.  The provenance only names the
    vertices, and False means "not certified".  The exhaustive form is
    ``acceptance.enumerated_min_ds_structure``.
    """
    prov = inst.provenance or {}
    if prov.get("construction") != "ts-dsr":
        raise MalformedInput("structure check needs a ts-dsr artifact")
    src: TapeInstance = prov["source"]
    g, guards, base = inst.graph, prov["guards"], prov["letter_base"]
    nbr, closed = g.nbr_mask, g.closed_mask
    spans = [((1 << t.cells.n) - 1) << b for t, b in zip(src.tapes, prov["cell_base"])]
    regions = [1 << guard | span for guard, span in zip(guards, spans)]
    regions.append(1 << prov["hub"] | 1 << prov["leaf"])
    if len(guards) != len(spans) or len(inst.source) != len(regions):
        return False
    if [closed[guard] for guard in guards] + [closed[prov["leaf"]]] != regions:
        return False
    seen = ((1 << src.sigma) - 1) << base  # the letters lie in no region
    for region in regions:
        if seen & region:
            return False
        seen |= region
    cells = sum(spans)  # disjoint, as their regions are
    if any(nbr[v] & ~cells for v in range(base, base + src.sigma)):
        return False
    if closed_mask_of(g, inst.source) != g.full_mask:
        return False
    return irreducible_masks(src.sigma, [[nbr[c] >> base for c in bits(span)] for span in spans])


def check_guard_containment(inst: DsrInstance) -> bool:
    """Certify, by counting on the graph, that every connected dominating set
    of a connected-jumping reduction output with its budget 3k + 1 holds
    every guard and exactly one of the hub and its leaf.

    Let S_i be guard i, its neighbours (tape i's subdivided vertices) and
    theirs but the guard (tape i's cells).  N[leaf] must be {hub, leaf}, and
    the S_i and {hub, leaf} pairwise disjoint, so a dominating set D holds
    the hub or the leaf, outside every S_i.  If D is connected and holds
    guard i, a path in D from guard i to the hub or leaf goes through a
    subdivided vertex and leaves S_i from a vertex that is neither, as only
    such have neighbours outside S_i: 3 vertices in S_i.  If D misses guard
    i, it dominates tape i's subdivided vertices from S_i alone; four of them
    whose closed neighbourhoods less guard i are pairwise disjoint, found
    greedily in id order, need 4.  So a set of 3k + 1 holds every guard and
    one of hub and leaf.  The provenance only names the vertices, and False
    means "not certified".  The exhaustive form is
    ``acceptance.enumerated_guard_containment``.
    """
    prov = inst.provenance or {}
    if prov.get("construction") != "tj-cdsr":
        raise MalformedInput("guard check needs a tj-cdsr artifact")
    nbr, guards = inst.graph.nbr_mask, prov["guards"]
    seen = 1 << prov["hub"] | 1 << prov["leaf"]
    if inst.k != 3 * len(guards) + 1 or inst.graph.closed_mask[prov["leaf"]] != seen:
        return False
    for guard in guards:
        region, packed, packing = 1 << guard, 0, 0
        for mid in bits(nbr[guard]):
            near = (nbr[mid] | 1 << mid) & ~(1 << guard)
            region |= near
            if not near & packed:
                packed |= near
                packing += 1
        if region & seen or packing < 4:
            return False
        seen |= region
    return True


# ---------------------------------------------------------------------------
# the construction table: every reduction with an exact solver for each side

def answer(inst, k: int | None = None, cap: int = DEFAULT_STATE_CAP) -> bool:
    """The exact answer of any instance a construction reads or builds,
    solved by its type; a graph is asked for a dominating set of at most
    ``k`` vertices and a formula for a satisfying set of ``k`` variables."""
    if isinstance(inst, DsrInstance):
        return solve(inst, cap).reachable
    if isinstance(inst, TapeInstance):
        return solve_tape(inst, cap).reachable
    if isinstance(inst, MultiTapeInstance):
        return solve_multi(inst, cap).positive
    if isinstance(inst, Graph):
        return has_dominating_set(inst, k)
    if isinstance(inst, NormalizedFormula):
        return weighted_satisfiable(inst, k)
    raise MalformedInput(f"no exact solver for a {type(inst).__name__}")


class Construction(NamedTuple):
    """One reduction: the type it reads, the ``reduce --to`` name of what it
    builds, and the transform.  A graph or formula source also takes ``k``.
    A NamedTuple rather than a dataclass: the table is built on every CLI
    start, and a frozen dataclass costs about a millisecond more to create."""

    source: type
    to: str
    transform: Callable

    def build(self, inst, k: int | None = None):
        """The output on ``inst``, which must be a valid instance of the
        source type, with ``k`` when that type needs it."""
        name = self.transform.__name__
        if not isinstance(inst, self.source):
            raise MalformedInput(f"{name} expects a {self.source.__name__}, "
                                 f"not a {type(inst).__name__}")
        if self.source in (Graph, NormalizedFormula):
            if k is None:
                raise MalformedInput(f"{name} needs k (--k)")
            return self.transform(inst, k)
        if isinstance(inst, DsrInstance):
            validate_instance(inst)
        else:
            require_valid(inst)
        return self.transform(inst)

    def replay(self, inst, k: int | None = None, cap: int = DEFAULT_STATE_CAP):
        """Build the output and solve both sides: ``(output, answers agree)``."""
        out = self.build(inst, k)
        return out, answer(out, cap=cap) == answer(inst, k, cap)


CONSTRUCTIONS: dict[str, Construction] = {
    "dominating-set": Construction(Graph, "sync-multi", ds_to_sync_multi),
    "sync-stars": Construction(DsrInstance, "sync-stars", partitioned_dsr_to_sync_stars),
    "triangle": Construction(TapeInstance, "tape", desynchronize_triangle),
    "path": Construction(TapeInstance, "path-tape", desynchronize_path),
    "selector": Construction(MultiTapeInstance, "path-tape", select_from_tuples),
    "ts-dsr": Construction(TapeInstance, "ts-dsr", tape_to_ts_dsr),
    "tj-cdsr": Construction(TapeInstance, "tj-cdsr", tape_to_tj_cdsr),
    "formula": Construction(NormalizedFormula, "multi-tape", formula_to_multi),
}
