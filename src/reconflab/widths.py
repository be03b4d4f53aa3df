"""Explicit tree/path decompositions for reduction artifacts.

Every constructor records provenance; this module replays it to build the
decomposition the construction promises, bag by bag, instead of trying to
compute widths (which would be NP-hard).  The subdivided stars get their
bags straight from the stars' layout: an edge bag per branch edge, chained
along the branch, with the token's letter and the check letter in every bag.
The triangle and sliding constructions widen their source's bags; a
triangle artifact's ``triple_bases`` provenance, each tape's first phase
letter, is what ``reductions._phased`` returned when it laid out the phase
letters.  Bags are assembled over symbolic handles and mapped to vertex ids
at the end through one map, built from ``tapes.cell_bases`` of the tape
instance at the chain's tape end, with no graph built; a sliding artifact
numbers cells and letters as its source's extended graph does and appends
guards, hub and leaf:

    ("c", tape, cell)   a tape cell
    ("l", letter)       an alphabet vertex
    ("x", i) / ("y",) / ("z",)   guard / hub / pendant of a sliding artifact
"""
from __future__ import annotations

from .decomposition import TreeDecomposition
from .dsr import DsrInstance
from .errors import MalformedInput
from .tapes import TapeInstance, cell_bases

Bags = list[frozenset]
Edges = list[tuple[int, int]]


# ---------------------------------------------------------------------------
# explicit decomposition of the subdivided-stars artifact

def _hang(bags: Bags, edges: Edges, parent: int, walk: list, extra: frozenset) -> None:
    """Append one bag per edge of ``walk``, chained in order under bag ``parent``."""
    for a, b in zip(walk, walk[1:]):
        edges.append((parent, len(bags)))
        parent = len(bags)
        bags.append(frozenset({a, b}) | extra)


def _stars_handles(prov: dict, kind: str) -> tuple[Bags, Edges]:
    """Token i's star and the arbiter's branch i hold only letters i and k
    (the check letter), and every branch has 2n+1 >= 5 cells (n >= 2 after
    padding), so each bag below is one branch edge plus those two letters.

    tree: the spine bag {arbiter center, check}; under it, per token, the
    arbiter branch as a chain of edge bags, the star's root bag {center}
    under that chain's first bag, and each star branch as a chain under the
    root.  Width 3, one tape per bag.

    path: per token, the star's branch edges with the center pinned, then the
    arbiter branch's edges; the arbiter center rides along everywhere.
    Width 5, two tapes per bag.
    """
    from .reductions import _star_layout

    k, n = prov["k"], prov["n"]
    counts = prov["branch_counts"]
    check, arb = ("l", k), k
    c_arb = ("c", arb, 0)
    arb_branches = _star_layout(n, counts[arb])[2]
    bags: Bags = []
    edges: Edges = []
    if kind == "tree":
        bags.append(frozenset({c_arb, check}))
    for i in range(k):
        center = ("c", i, 0)
        branches = [[("c", i, v) for v in ids] for ids in _star_layout(n, counts[i])[2]]
        awalk = [("c", arb, v) for v in arb_branches[i]]
        if kind == "path":
            extra = frozenset({("l", i), c_arb, check})
            bags += [frozenset({center, a, b}) | extra
                     for walk in branches for a, b in zip(walk, walk[1:])]
            bags += [frozenset({a, b}) | extra for a, b in zip(awalk, awalk[1:])]
            continue
        extra = frozenset({("l", i), check})
        first = len(bags)
        _hang(bags, edges, 0, [c_arb] + awalk, extra)
        root = len(bags)
        edges.append((first, root))
        bags.append(frozenset({center}) | extra)
        for walk in branches:
            _hang(bags, edges, root, [center] + walk, extra)
    if kind == "path":
        edges = [(j, j + 1) for j in range(len(bags) - 1)]
    return bags, edges


# ---------------------------------------------------------------------------
# transforms along the provenance chain

def _triangle_handles(source_bags: Bags, source_edges: Edges, source: TapeInstance,
                      bases: list[int]) -> tuple[Bags, Edges]:
    tri = len(source.tapes)
    tri_cells = frozenset({("c", tri, 0), ("c", tri, 1), ("c", tri, 2)})
    out: Bags = []
    for bag in source_bags:
        tapes_here = {h[1] for h in bag if h[0] == "c"}
        letters = frozenset(("l", bases[i] + d) for i in tapes_here for d in range(3))
        out.append(bag | letters | tri_cells)
    return out, list(source_edges)


def _tsdsr_handles(source_bags: Bags, source_edges: Edges, kind: str) -> tuple[Bags, Edges]:
    out: Bags = []
    for bag in source_bags:
        tapes_here = {h[1] for h in bag if h[0] == "c"}
        out.append(bag | {("x", i) for i in tapes_here} | {("y",)})
    edges = list(source_edges)
    # pendant bag for the hub leaf; appended at the chain end so path
    # decompositions stay paths
    attach = len(out) - 1 if kind == "path" else 0
    out.append(frozenset({("y",), ("z",)}))
    edges.append((attach, len(out) - 1))
    return out, edges


# ---------------------------------------------------------------------------
# deriving and materializing

def _tape_handle_decomposition(inst: TapeInstance, kind: str) -> tuple[Bags, Edges]:
    prov = inst.provenance or {}
    construction = prov.get("construction")
    if construction == "sync-stars":
        return _stars_handles(prov, kind)
    if construction == "triangle-desync":
        src: TapeInstance = prov["source"]
        sb, se = _tape_handle_decomposition(src, kind)
        return _triangle_handles(sb, se, src, prov["triple_bases"])
    # fallback: one bag holding the whole extended graph
    bag = {("c", i, c) for i, t in enumerate(inst.tapes) for c in range(t.cells.n)}
    bag.update(("l", l) for l in range(inst.sigma))
    return [frozenset(bag)], []


def derive_decomposition(artifact, kind: str = "tree") -> TreeDecomposition:
    """The decomposition promised by the artifact's construction.

    Accepts subdivided-stars artifacts, phase-desynchronized artifacts (the
    source's decomposition widened by the fresh letters and the triangle),
    sliding-reduction artifacts (guards into their tapes' bags, the hub
    everywhere, a pendant bag), and falls back to a single bag for plain
    instances.  kind selects the tree- or path-shaped variant.
    """
    if kind not in ("tree", "path"):
        raise MalformedInput(f"unknown decomposition kind {kind!r}")
    ids = {}
    if isinstance(artifact, DsrInstance):
        prov = artifact.provenance or {}
        if prov.get("construction") != "ts-dsr":
            raise MalformedInput("no decomposition recipe for this artifact")
        inst: TapeInstance = prov["source"]
        bags, edges = _tsdsr_handles(*_tape_handle_decomposition(inst, kind), kind)
        ids.update((("x", i), g) for i, g in enumerate(prov["guards"]))
        ids[("y",)], ids[("z",)] = prov["hub"], prov["leaf"]
    elif isinstance(artifact, TapeInstance):
        inst = artifact
        bags, edges = _tape_handle_decomposition(inst, kind)
    else:
        raise MalformedInput("unknown artifact type")
    bases = cell_bases(inst)
    tape_of = {bases[i] + c: i for i, t in enumerate(inst.tapes) for c in range(t.cells.n)}
    ids.update((("c", i, v - bases[i]), v) for v, i in tape_of.items())
    ids.update((("l", l), bases[-1] + l) for l in range(inst.sigma))
    return TreeDecomposition(
        bags=tuple(frozenset(ids[h] for h in bag) for bag in bags),
        tree=tuple(edges),
        tape_of=tape_of,
    )
