"""Tree decompositions: the data type and the three-axiom verifier."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import MalformedInput
from .graphs import Graph, check_vertices, component_of


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
    """n - 1 edges, no loop (``Graph`` rejects one), and every bag reached."""
    return (nbags > 0 and len(edges) == nbags - 1 and all(i != j for i, j in edges)
            and Graph(nbags, edges).is_connected())


def verify_decomposition(g: Graph, td: TreeDecomposition, s: Optional[int] = None) -> DecompositionReport:
    """Check the three decomposition axioms; invalidity is a result, not an error.

    structured is True iff every bag touches at most ``s`` tapes according to
    ``td.tape_of`` (trivially True when s is None).
    """
    held = [0] * g.n  # per vertex, the mask of the bags that hold it
    for i, bag in enumerate(td.bags):
        check_vertices(g, bag, "bag vertex")
        for v in bag:
            held[v] |= 1 << i
    for i, j in td.tree:
        if not (0 <= i < len(td.bags) and 0 <= j < len(td.bags)):
            raise MalformedInput(f"tree edge ({i},{j}) out of bag range")

    reasons = []
    if not _tree_ok(len(td.bags), td.tree):
        reasons.append("bag graph is not a tree")

    if not all(held):
        reasons.append("some vertex appears in no bag")

    for u, v in g.edges:
        if not held[u] & held[v]:
            reasons.append(f"edge ({u},{v}) inside no bag")
            break

    # Connectivity of each vertex's bag set in the decomposition tree.
    if not reasons:
        tree = Graph(len(td.bags), td.tree)
        for v, bags in enumerate(held):
            if component_of(tree, bags) != bags:
                reasons.append(f"bags holding vertex {v} are disconnected")
                break

    valid = not reasons
    structured = True
    if s is not None and valid:
        structured = td.max_tapes_per_bag() <= s
    return DecompositionReport(valid=valid, width=td.width if td.bags else -1,
                               structured=structured, reasons=tuple(reasons))
