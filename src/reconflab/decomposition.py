"""Tree decompositions: the data type and the three-axiom verifier."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import MalformedInput
from .graphs import Graph


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags over a graph plus a tree on bag indices.

    ``tape_of`` optionally maps vertices to a tape index so the verifier can
    report how many distinct tapes any bag touches (vertices absent from the
    map, e.g. letter vertices, do not count).
    """

    bags: tuple[frozenset[int], ...]
    tree: tuple[tuple[int, int], ...]
    tape_of: Optional[dict[int, int]] = field(default=None, compare=False)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def max_tapes_per_bag(self) -> int:
        if self.tape_of is None:
            return 0
        worst = 0
        for bag in self.bags:
            worst = max(worst, len({self.tape_of[v] for v in bag if v in self.tape_of}))
        return worst


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    width: int
    structured: bool
    reasons: tuple[str, ...] = ()


def _tree_ok(nbags: int, edges: tuple[tuple[int, int], ...]) -> bool:
    if nbags == 0:
        return False
    if len(edges) != nbags - 1:
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


def verify_decomposition(g: Graph, td: TreeDecomposition, s: Optional[int] = None) -> DecompositionReport:
    """Check the three decomposition axioms; invalidity is a result, not an error.

    structured is True iff every bag touches at most ``s`` tapes according to
    ``td.tape_of`` (trivially True when s is None).
    """
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < g.n):
                raise MalformedInput(f"bag vertex {v} out of range")
    for i, j in td.tree:
        if not (0 <= i < len(td.bags) and 0 <= j < len(td.bags)):
            raise MalformedInput(f"tree edge ({i},{j}) out of bag range")

    reasons = []
    if not _tree_ok(len(td.bags), td.tree):
        reasons.append("bag graph is not a tree")

    covered = set().union(*td.bags) if td.bags else set()
    if covered != set(range(g.n)):
        reasons.append("some vertex appears in no bag")

    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            reasons.append(f"edge ({u},{v}) inside no bag")
            break

    # Connectivity of each vertex's bag set in the decomposition tree.
    if not reasons:
        nbr = [[] for _ in td.bags]
        for i, j in td.tree:
            nbr[i].append(j)
            nbr[j].append(i)
        for v in range(g.n):
            holders = [i for i, bag in enumerate(td.bags) if v in bag]
            seen = {holders[0]}
            stack = [holders[0]]
            holder_set = set(holders)
            while stack:
                i = stack.pop()
                for j in nbr[i]:
                    if j in holder_set and j not in seen:
                        seen.add(j)
                        stack.append(j)
            if seen != holder_set:
                reasons.append(f"bags holding vertex {v} are disconnected")
                break

    valid = not reasons
    structured = True
    if s is not None and valid:
        structured = td.max_tapes_per_bag() <= s
    return DecompositionReport(valid=valid, width=td.width if td.bags else -1,
                               structured=structured, reasons=tuple(reasons))
