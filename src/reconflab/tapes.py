"""The letter-tape data model and its exhaustive reachability solvers.

A tape is a connected cell graph whose cells carry letter subsets (bitmask
encoded).  One read head sits on each tape; a configuration is valid when the
heads' letters jointly cover the whole alphabet.  Synchronized instances
additionally keep all head numbers within one step of each other modulo r.

Input is checked once, where it enters: ``solve_tape`` rejects an instance
that ``validate_instance`` finds a problem with, and ``solve_multi`` one that
``validate_multi`` does.  The search, on ``dsr.bfs``, then meets only valid
configurations and re-checks none; head moves are reversible, as ``dsr.bfs``
needs, since both ends of a move are valid.  It holds a configuration as one
mixed-radix int and tests a moved head with one AND of a table mask against
the letters no other head covers and the window of the heads' numbers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import graphs
from .dsr import DEFAULT_STATE_CAP, ReconfigResult, bfs
from .errors import MalformedInput, SizeCapExceeded, StateCapExceeded
from .graphs import Graph, bits, check_vertices

# Letter sets are sigma-bit masks, so sigma is checked against this where an
# instance is built.  No construction here names 100 letters.
ALPHABET_CAP = 10_000


def check_alphabet(sigma: int) -> None:
    if sigma < 0:
        raise MalformedInput(f"negative alphabet size {sigma}")
    if sigma > ALPHABET_CAP:
        raise SizeCapExceeded(f"alphabet of {sigma} letters exceeds the cap of {ALPHABET_CAP}")


@dataclass(frozen=True)
class Tape:
    cells: Graph
    content: tuple[int, ...]  # one letter bitmask per cell
    start: int
    end: int
    number: Optional[tuple[int, ...]] = None  # values in [1, r] when present

    def __post_init__(self):
        if len(self.content) != self.cells.n:
            raise MalformedInput("content length does not match cell count")
        check_vertices(self.cells, (self.start, self.end), "start/end cell")
        if self.number is not None and len(self.number) != self.cells.n:
            raise MalformedInput("numbering length does not match cell count")

    def alphabet_mask(self) -> int:
        m = 0
        for c in self.content:
            m |= c
        return m


@dataclass(frozen=True)
class TapeInstance:
    sigma: int
    tapes: tuple[Tape, ...]
    cs: tuple[int, ...]
    ct: tuple[int, ...]
    sync: bool = False
    r: Optional[int] = None
    provenance: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        check_alphabet(self.sigma)

    @property
    def full_mask(self) -> int:
        return (1 << self.sigma) - 1


@dataclass(frozen=True)
class MultiTapeInstance:
    sigma: int
    tuples: tuple[tuple[Tape, ...], ...]
    sync: bool = False
    r: Optional[int] = None
    provenance: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        check_alphabet(self.sigma)

    @property
    def full_mask(self) -> int:
        return (1 << self.sigma) - 1

    def select(self, indices: tuple[int, ...]) -> TapeInstance:
        """Fix one tape per tuple; heads run from start cells to end cells."""
        chosen = tuple(self.tuples[j][i] for j, i in enumerate(indices))
        return TapeInstance(
            sigma=self.sigma,
            tapes=chosen,
            cs=tuple(t.start for t in chosen),
            ct=tuple(t.end for t in chosen),
            sync=self.sync,
            r=self.r,
        )


@dataclass(frozen=True)
class MultiResult:
    positive: bool
    selection: Optional[tuple[int, ...]]


# ---------------------------------------------------------------------------
# validity & successors

def _mod_close(a: int, b: int, r: int) -> bool:
    return (a - b) % r in (0, 1, r - 1)


def is_valid_configuration(inst: TapeInstance, config: tuple[int, ...]) -> bool:
    """The heads cover Σ and, when synchronized, sit in one number window.

    ``config`` holds one cell per tape, and a synchronized instance has its
    modulus and numberings: ``validate_instance`` checks both.
    """
    covered = 0
    for tape, c in zip(inst.tapes, config):
        covered |= tape.content[c]
    if covered & inst.full_mask != inst.full_mask:
        return False
    nums = {t.number[c] for t, c in zip(inst.tapes, config)} if inst.sync else ()
    return all(_mod_close(a, b, inst.r) for a, b in itertools.combinations(nums, 2))


def _kernel(inst: TapeInstance):
    """The search's integer encoding: ``(encode, decode, successors)``.

    A configuration is one mixed-radix int: the cell of tape i times the
    product of the earlier tapes' sizes.  A cell's row holds its letters and,
    above bit σ, its number's bit (numbers are ranked, so a huge r costs
    nothing), and per neighbour, in ascending order, the int delta
    and what the neighbour lacks: the letters it does not hold and the numbers
    not mod-close to its own.  A move is legal iff that mask misses the letters
    of Σ under no other head and the heads' number window.  The window keeps
    the moved head's old number: adjacent cells differ by at most one mod r.
    """
    r, full = inst.r, inst.full_mask
    used = sorted({x for t in inst.tapes for x in t.number}) if inst.sync else []
    bit = {x: 1 << (inst.sigma + i) for i, x in enumerate(used)}
    layout, place = [], 1
    for t in inst.tapes:
        if used:
            own = [m | bit[y] for m, y in zip(t.content, t.number)]
            lacks = [~(m | bit[y] | bit.get(y % r + 1, 0) | bit.get((y - 2) % r + 1, 0))
                     for m, y in zip(t.content, t.number)]
        else:
            own, lacks = t.content, [~m for m in t.content]
        rows = []
        for c, mask in enumerate(t.cells.nbr_mask):
            moves = []
            while mask:  # the neighbours in ascending order
                low = mask & -mask
                nb = low.bit_length() - 1
                moves.append(((nb - c) * place, lacks[nb]))
                mask ^= low
            rows.append((own[c], moves))
        layout.append((place, t.cells.n, rows))
        place *= t.cells.n

    def encode(config: Iterable[int]) -> int:
        return sum([c * place for c, (place, _, _) in zip(config, layout)])

    def decode(cur: int) -> tuple[int, ...]:
        return tuple([cur // place % size for place, size, _ in layout])

    def successors(cur: int, visited: dict) -> list[int]:
        held = []
        seen = twice = 0
        for place, size, rows in layout:
            row = rows[cur // place % size]
            held.append(row)
            m = row[0]
            twice |= seen & m
            seen |= m
        window = seen & ~full
        once = full & ~twice  # letters of Σ under exactly one head
        out = []
        for m, moves in held:
            need = m & once | window
            for delta, lacks in moves:
                if need & lacks:
                    continue
                nxt = cur + delta
                if nxt not in visited:
                    out.append(nxt)
        return out

    return encode, decode, successors


def solve_tape(inst: TapeInstance, state_cap: int = DEFAULT_STATE_CAP) -> ReconfigResult:
    """Breadth-first search over head tuples from cs; reachable iff ct found.

    The instance is checked once, here, by ``validate_instance``: the search
    then meets only valid configurations and re-checks none of them.
    """
    require_valid(inst)
    return _search(inst, state_cap)


def _search(inst: TapeInstance, state_cap: int) -> ReconfigResult:
    encode, decode, successors = _kernel(inst)
    path, explored = bfs(encode(inst.cs), encode(inst.ct), successors, state_cap)
    witness = None if path is None else tuple(map(decode, path))
    return ReconfigResult(path is not None, witness, explored)


def solve_multi(inst: MultiTapeInstance, state_cap: int = DEFAULT_STATE_CAP) -> MultiResult:
    """Try selections in lexicographic order; first positive one wins.

    The instance is checked once, by ``validate_multi``.  A selection is
    negative without a search when its start or its end configuration leaves
    a letter of Σ uncovered or, in a synchronized instance, does not put every
    head on one number: ``solve_tape`` refuses such a selection.
    ``state_cap`` bounds the whole call: each selection tried costs the
    states its search explores, and at least 1.
    """
    require_valid(inst)
    if not inst.tuples:
        # zero tuples: the empty configuration covers nothing
        return MultiResult(inst.sigma == 0, ())
    # per member: the letters under its head at start and at end, and the two numbers
    ends = [[(t.content[t.start], t.content[t.end],
              (t.number[t.start], t.number[t.end]) if inst.sync else None) for t in tup]
            for tup in inst.tuples]
    budget, full = state_cap, inst.full_mask
    selections = itertools.product(*(range(len(t)) for t in inst.tuples))
    for indices, held in zip(selections, itertools.product(*ends)):
        start = end = 0
        for s, e, _ in held:
            start |= s
            end |= e
        if start & end & full != full or len({nums for _, _, nums in held}) > 1:
            budget -= 1
        else:
            try:
                res = _search(inst.select(indices), budget)
            except StateCapExceeded:
                budget = -1
            else:
                if res.reachable:
                    return MultiResult(True, indices)
                budget -= res.explored
        if budget < 0:
            raise StateCapExceeded(f"selections and their searches passed {state_cap} states")
    return MultiResult(False, None)


# ---------------------------------------------------------------------------
# irreducibility & extended graph

def is_irreducible(inst: TapeInstance | MultiTapeInstance) -> bool:
    """No selection of fewer cells than tapes, one cell per tape, covers Σ.

    The per-tape restriction matters: tokens of the downstream reconfiguration
    encodings occupy at most one cell per tape, and that is the coverage the
    notion has to rule out.  ``irreducible_masks`` decides it on the tapes'
    contents.
    """
    return irreducible_masks(inst.sigma, [t.content for t in _all_tapes(inst)])


def irreducible_masks(sigma: int, tapes: Sequence[Iterable[int]]) -> bool:
    """No choice of one letter mask from each of fewer than ``len(tapes)``
    of the lists in ``tapes`` covers the ``sigma`` letters.

    A sparse search over the letter masks reachable so far, each with its
    fewest cells, adding one tape at a time; with k tapes, a mask already
    built from k - 1 cells cannot grow into a smaller cover.  The (stored
    mask, cell mask) pairs it tries, counted one stored mask at a time and
    each weighted by the 64-bit words of a mask, bound both its time and its
    dict; past ``graphs.ENUM_CAP`` it raises SizeCapExceeded.  Below 65
    letters the weight is 1.
    """
    full, k = (1 << sigma) - 1, len(tapes)
    if not full:
        return k == 0  # zero cells cover the empty alphabet
    fewest = {0: 0}
    words, cap, width = 0, graphs.ENUM_CAP, (sigma + 63) // 64  # 64-bit words per mask
    for cells in tapes:  # each tape contributes at most one cell
        masks = {c & full for c in cells} - {0}
        for m, d in list(fewest.items()):  # masks this tape reaches are not extended by it
            if d + 1 >= k:
                continue
            words += len(masks) * width
            if words > cap:
                raise SizeCapExceeded(f"irreducibility search passed {cap} mask words")
            for cm in masks:
                nm = m | cm
                if nm == full:
                    return False
                if fewest.get(nm, k) > d + 1:
                    fewest[nm] = d + 1
    return True


def _all_tapes(inst: TapeInstance | MultiTapeInstance) -> tuple[Tape, ...]:
    if isinstance(inst, MultiTapeInstance):
        return tuple(t for tup in inst.tuples for t in tup)
    return inst.tapes


@dataclass(frozen=True)
class ExtendedGraph:
    """Cells of all tapes plus one vertex per letter, with id bookkeeping."""

    graph: Graph
    cell_base: tuple[int, ...]  # id offset of each tape's cells
    letter_base: int
    tape_of: dict[int, int]  # cell vertex -> tape index

    def cell_id(self, tape: int, cell: int) -> int:
        return self.cell_base[tape] + cell

    def letter_id(self, letter: int) -> int:
        return self.letter_base + letter


def build_extended(inst: TapeInstance | MultiTapeInstance) -> ExtendedGraph:
    tapes = _all_tapes(inst)
    base, off = [], 0
    for t in tapes:
        base.append(off)
        off += t.cells.n
    letter_base = off
    n = off + inst.sigma
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    tape_of: dict[int, int] = {}
    for i, t in enumerate(tapes):
        for u, v in t.cells.edges:
            edges.append((base[i] + u, base[i] + v))
        for c in range(t.cells.n):
            vid = base[i] + c
            labels[vid] = f"cell:{i}:{c}"
            tape_of[vid] = i
            for letter in bits(t.content[c]):  # Graph rejects a letter >= sigma
                edges.append((vid, letter_base + letter))
    for letter in range(inst.sigma):
        labels[letter_base + letter] = f"letter:{letter}"
    assert len(labels) == n  # the token reductions number their added vertices from len(labels)
    return ExtendedGraph(Graph(n, edges, labels), tuple(base), letter_base, tape_of)


def extended_graph(inst: TapeInstance | MultiTapeInstance) -> Graph:
    return build_extended(inst).graph


# ---------------------------------------------------------------------------
# shape predicates & validation

def path_order(tape: Tape) -> list[int]:
    """Cells from start to end along the walk that never branches: each cell
    before the end has one neighbour besides the one it was entered from.
    MalformedInput if the walk branches or stops short of the end."""
    order, cur, back = [tape.start], tape.start, 0
    while cur != tape.end:
        ahead = tape.cells.nbr_mask[cur] & ~back
        if ahead.bit_count() != 1:
            raise MalformedInput("not a path from start to end")
        back, cur = 1 << cur, ahead.bit_length() - 1
        order.append(cur)
    return order


def tape_is_path(tape: Tape) -> bool:
    """The walk from start reaches end without branching and visits every cell."""
    try:
        return len(path_order(tape)) == tape.cells.n
    except MalformedInput:
        return False


def _numbering_problems(tapes: Sequence[Tape], name: Callable[[int], str], sync: bool,
                        r: Optional[int]) -> list[str]:
    """Faults of the modulus and the numberings, before anything divides by r;
    ``name(i)`` names ``tapes[i]`` and is called only on a fault.

    A synchronized instance needs r >= 1 and a numbering on every tape;
    numbers lie in [1, r] and adjacent cells differ by at most one modulo r.
    """
    problems = []
    if r is not None and r < 1:
        problems.append(f"modulus r={r} is below 1")
        r = None
    elif sync and r is None:
        problems.append("synchronized instance without modulus r")
    for i, t in enumerate(tapes):
        number = t.number
        if number is None:
            if sync:
                problems.append(f"{name(i)} lacks a numbering in a synchronized instance")
        elif r is not None:
            if min(number) < 1 or max(number) > r:  # a tape has a cell: start is one
                problems.append(f"{name(i)} numbering leaves [1,{r}]")
            for u, v in t.cells.edges:
                if not _mod_close(number[u], number[v], r):
                    problems.append(
                        f"{name(i)} cells {u},{v} adjacent but numbered "
                        f"{number[u]},{number[v]} (gap > 1 mod {r})"
                    )
    return problems


def validate_instance(inst: TapeInstance) -> list[str]:
    """All violated invariants, as human-readable strings; empty means sound.

    Never raises on a decoded instance; ``solve_tape`` rejects any instance
    for which this list is not empty.
    """
    if len(inst.cs) != len(inst.tapes) or len(inst.ct) != len(inst.tapes):
        return ["cs/ct do not hold one cell per tape"]
    problems, outside = [], ~inst.full_mask
    for i, t in enumerate(inst.tapes):
        if not t.cells.is_connected():
            problems.append(f"tape {i} cell graph is disconnected")
        if t.alphabet_mask() & outside:
            problems.append(f"tape {i} uses letters outside the alphabet")
    numbering = _numbering_problems(inst.tapes, "tape {}".format, inst.sync, inst.r)
    problems += numbering
    if inst.sync and numbering:
        return problems  # cs and ct are not tested against a broken numbering
    for name, config in (("cs", inst.cs), ("ct", inst.ct)):
        if any(not (0 <= c < t.cells.n) for t, c in zip(inst.tapes, config)):
            problems.append(f"{name} has a cell out of range")
        elif not is_valid_configuration(inst, config):
            problems.append(f"{name} is not a valid configuration")
        elif inst.sync and len({t.number[c] for t, c in zip(inst.tapes, config)}) > 1:
            problems.append(f"{name} heads are not all on one number")
    return problems


def validate_multi(inst: MultiTapeInstance) -> list[str]:
    """All violated invariants of a multi-tape instance; empty means sound."""
    problems, members = [], []
    for j, tup in enumerate(inst.tuples):
        if not tup:
            problems.append(f"tuple {j} is empty")
        for i, t in enumerate(tup):
            if not tape_is_path(t):
                problems.append(f"tuple {j} member {i} is not a path with start/end endpoints")
            if t.alphabet_mask() & ~inst.full_mask:
                problems.append(f"tuple {j} member {i} uses letters outside the alphabet")
            members.append((j, i))
    name = lambda k: "tuple {} member {}".format(*members[k])
    return problems + _numbering_problems(_all_tapes(inst), name, inst.sync, inst.r)


def require_valid(inst: TapeInstance | MultiTapeInstance) -> None:
    """Raise ``MalformedInput`` naming every problem of ``validate_instance``
    (or ``validate_multi``, for a multi-tape instance)."""
    problems = validate_multi(inst) if isinstance(inst, MultiTapeInstance) else validate_instance(inst)
    if problems:
        raise MalformedInput("; ".join(problems))


# ---------------------------------------------------------------------------
# small constructors

def path_tape(contents: Iterable[int], number: Optional[Iterable[int]] = None) -> Tape:
    """Path-shaped tape whose cells are 0..m-1 in order, from cell 0 to cell
    m - 1; contents are masks."""
    contents = tuple(contents)
    m = len(contents)
    g = Graph(m, [(i, i + 1) for i in range(m - 1)])
    return Tape(
        cells=g,
        content=contents,
        start=0,
        end=m - 1,
        number=tuple(number) if number is not None else None,
    )
