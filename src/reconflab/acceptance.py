"""The acceptance suite: every construction replayed against exhaustive oracles.

Each criterion runs a fixed-seed randomized experiment at desk scale and
demands 100% agreement between a construction and an independent oracle
(subset enumeration, truth tables, or a second solver).  The seeds are
constants checked into the repository; reruns are byte-stable.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .decomposition import verify_decomposition
from .dsr import (SLIDE, DsrInstance, enumerate_dominating_sets, has_dominating_set, is_feasible,
                  solve, verify_witness)
from .generators import (
    gen_dcr_instance,
    gen_random_dsr_instance,
    gen_random_graph,
    gen_random_multi,
    gen_random_tape_instance,
    gen_sync_path_instance,
)
from .graphs import (
    cycle_graph,
    degeneracy,
    dominates,
    find_reducible_vertex,
    mask_of,
    min_feedback_vertex_set,
    neighborhood_classes,
)
from .kernel import kernelize, solve_dcr, solve_via_kernel
from .reductions import (
    CONSTRUCTIONS,
    NormalizedFormula,
    desynchronize_triangle,
    ds_to_sync_multi,
    check_guard_containment,
    check_min_ds_structure,
)
from .tape_reduce import reduce_tapes_fully, solve_bounded_alphabet
from .tapes import (
    extended_graph,
    is_irreducible,
    solve_multi,
    solve_tape,
    tape_is_path,
)
from .widths import derive_decomposition


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    details: str


# ---------------------------------------------------------------- criterion 1

def _c01_check_encoding() -> tuple[bool, str]:
    trials = 200
    rng = random.Random(7101)
    bad = 0
    for _ in range(trials):
        n = rng.randint(2, 7)
        g = gen_random_graph(rng.randrange(2**31), n, rng.uniform(0.3, 0.8), "connected")
        k = rng.randint(1, min(3, n))
        _, agree = CONSTRUCTIONS["dominating-set"].replay(g, k)
        if not agree:
            bad += 1
    return bad == 0, f"{trials - bad}/{trials} agree with subset enumeration"


# ---------------------------------------------------------------- criterion 2

def _c02_drawn_pattern() -> tuple[bool, str]:
    inst = ds_to_sync_multi(cycle_graph(5), 2)
    marks = ["".join("x" if c else "." for c in t.content) for t in inst.tuples[0]]
    expected = ["xx..x", "xxx..", ".xxx.", "..xxx", "x..xx"]
    if marks != expected:
        return False, f"cell marks {marks} differ from the drawn pattern"
    res = solve_multi(inst)
    if not res.positive:
        return False, "five-cycle instance with two tokens should be positive"
    i, j = res.selection
    if not dominates(cycle_graph(5), {i, j}, range(5)):
        return False, f"selection {res.selection} is not a dominating pair"
    return True, "per-cell marks exact; positive with a dominating selection"


# ---------------------------------------------------------------- criterion 3

def _c03_triangle_desync() -> tuple[bool, str]:
    trials = 100
    rng = random.Random(7301)
    for i in range(trials):
        inst = gen_random_tape_instance(
            rng.randrange(2**31), tapes=rng.randint(1, 3), cells=rng.randint(2, 6),
            sigma=rng.randint(1, 3), sync=True,
        )
        out, agree = CONSTRUCTIONS["triangle"].replay(inst)
        if not agree:
            return False, f"answer changed on instance {i}"
        if not is_irreducible(out):
            return False, f"output {i} is reducible"
        if degeneracy(extended_graph(out))[0] > degeneracy(extended_graph(inst))[0] + 2:
            return False, f"degeneracy grew by more than 2 on instance {i}"
    return True, f"{trials}/{trials} equivalent, irreducible, degeneracy within +2"


# ---------------------------------------------------------------- criterion 4

def _c04_path_desync_and_selector() -> tuple[bool, str]:
    trials = 100
    rng = random.Random(7401)
    for i in range(trials):
        inst = gen_sync_path_instance(
            rng.randrange(2**31), tapes=3, cells=6, sigma=rng.randint(1, 3)
        )
        out, agree = CONSTRUCTIONS["path"].replay(inst)
        if not all(tape_is_path(t) for t in out.tapes):
            return False, f"non-path tape in output {i}"
        if not agree:
            return False, f"path desync changed the answer on instance {i}"
    for i in range(trials):
        multi = gen_random_multi(rng.randrange(2**31), tuples=2, members=2, cells=3)
        out, agree = CONSTRUCTIONS["selector"].replay(multi)
        if not all(tape_is_path(t) for t in out.tapes):
            return False, f"selector output {i} contains a non-path tape"
        if not agree:
            return False, f"selector changed the answer on instance {i}"
    return True, f"{trials} path-desync and {trials} selector instances all agree"


# ---------------------------------------------------------------- criterion 5

def _small_irreducible(rng, cells: int, sigma: int):
    return desynchronize_triangle(gen_random_tape_instance(
        rng.randrange(2**31), tapes=rng.randint(1, 2), cells=cells,
        sigma=rng.randint(1, sigma), sync=True,
    ))


def enumerated_min_ds_structure(inst: DsrInstance) -> bool:
    """``reductions.check_min_ds_structure`` by enumeration, on a ts-dsr
    artifact: no set of guard-count vertices dominates, every set of one
    more holds exactly one of hub and leaf, one cell of each tape's span and
    no letter, and at least one such set exists.  Each set is checked as the
    enumerator yields it."""
    prov = inst.provenance
    src = prov["source"]
    k = len(src.tapes)
    if has_dominating_set(inst.graph, k):
        return False
    ends = 1 << prov["hub"] | 1 << prov["leaf"]
    letters = ((1 << src.sigma) - 1) << prov["letter_base"]
    spans = [((1 << t.cells.n) - 1) << base for t, base in zip(src.tapes, prov["cell_base"])]
    found = False
    for d in enumerate_dominating_sets(inst.graph, k + 1):
        m = mask_of(d)
        if (m & ends).bit_count() != 1 or m & letters:
            return False
        if any((m & span).bit_count() != 1 for span in spans):
            return False
        found = True
    return found


def _c05_sliding_reduction() -> tuple[bool, str]:
    trials = 100
    rng = random.Random(7501)
    for i in range(trials):
        art = _small_irreducible(rng, cells=2 if i % 3 else 3, sigma=2)
        if not is_irreducible(art):
            return False, f"artifact {i} not irreducible"
        dsr, agree = CONSTRUCTIONS["ts-dsr"].replay(art)
        if not agree:
            return False, f"answer changed on artifact {i}"
        if not check_min_ds_structure(dsr):
            return False, f"minimum dominating sets not counted on artifact {i}"
        if not enumerated_min_ds_structure(dsr):
            return False, f"minimum dominating sets lost their shape on artifact {i}"
        ext = extended_graph(art)
        d_in = degeneracy(ext)[0]
        if degeneracy(dsr.graph)[0] > d_in + 2:
            return False, f"degeneracy bound violated on artifact {i}"
        k = len(art.tapes)
        f_in = len(min_feedback_vertex_set(ext))
        if len(min_feedback_vertex_set(dsr.graph)) > f_in + k + 1:
            return False, f"feedback vertex set bound violated on artifact {i}"
        td_in = derive_decomposition(art, "tree")
        s = k  # single-bag fallback touches every tape
        rep_in = verify_decomposition(ext, td_in, s=s)
        td_out = derive_decomposition(dsr, "tree")
        rep_out = verify_decomposition(dsr.graph, td_out, s=s)
        if not (rep_in.valid and rep_out.valid and rep_out.structured):
            return False, f"derived decomposition invalid on artifact {i}"
        if rep_out.width > s + rep_in.width + 1:
            return False, f"width bound violated on artifact {i}"
    return True, (f"{trials}/{trials} equivalent with structure (counted and enumerated), "
                  f"bounds and widths certified")


# ---------------------------------------------------------------- criterion 6

def enumerated_guard_containment(inst: DsrInstance) -> bool:
    """``reductions.check_guard_containment`` by enumeration, on a tj-cdsr
    artifact: no budget-size connected dominating set that ``is_feasible``
    accepts misses a guard or holds both or neither of hub and leaf.

    The negation is asked as disjoint connected enumerations.  Query i bans
    guard i and forces the guards before it, and finds each set whose first
    missing guard is i; a set with every guard can fail only on hub and
    leaf, so the both-forced and both-banned queries force every guard.  The
    queries partition the union of the plain ones' sets (guard i banned,
    both forced, both banned), so the verdict is unchanged, and the forced
    guards seed the enumerator's covered mask.
    """
    prov = inst.provenance
    ends = 1 << prov["hub"] | 1 << prov["leaf"]
    guards = prov["guards"]
    every = mask_of(guards)
    queries = [(mask_of(guards[:i]), 1 << guard) for i, guard in enumerate(guards)]
    return not any(
        is_feasible(inst, d)
        for forced, banned in queries + [(every | ends, 0), (every, ends)]
        for d in enumerate_dominating_sets(inst.graph, inst.k, forced=forced, banned=banned,
                                           connected=True)
    )


def _c06_jumping_reduction() -> tuple[bool, str]:
    trials = 100
    enum_trials = 6
    rng = random.Random(7601)
    for i in range(trials):
        art = _small_irreducible(rng, cells=2, sigma=2)
        cd, agree = CONSTRUCTIONS["tj-cdsr"].replay(art)
        if not agree:
            return False, f"answer changed on artifact {i}"
        if not check_guard_containment(cd):
            return False, f"guard containment not counted on artifact {i}"
        if i < enum_trials and not enumerated_guard_containment(cd):
            return False, f"budget-size connected set evades a guard ({i})"
    return True, (f"{trials}/{trials} equivalent; guard containment counted on {trials} "
                  f"and enumerated on {enum_trials} artifacts")


# ---------------------------------------------------------------- criterion 7

def _formula_corpus(rng) -> list[tuple[NormalizedFormula, int]]:
    corpus = []

    def OR(*c):
        return ("or", tuple(c))

    def AND(*c):
        return ("and", tuple(c))

    def VAR(i):
        return ("var", i)

    corpus.append((NormalizedFormula(3, AND(OR(VAR(0), VAR(1)), OR(VAR(1), VAR(2)))), 1))
    corpus.append((NormalizedFormula(2, AND(OR(VAR(0)), OR(VAR(1)))), 1))
    corpus.append((NormalizedFormula(2, AND(OR(VAR(0)), OR(VAR(1)))), 2))
    while len(corpus) < 40:  # depth-2 bulk
        n = rng.randint(1, 6)
        clauses = [
            OR(*[VAR(v) for v in rng.sample(range(n), rng.randint(1, min(3, n)))])
            for _ in range(rng.randint(1, 3))
        ]
        corpus.append((NormalizedFormula(n, AND(*clauses)), rng.randint(0, 3)))
    while len(corpus) < 52:  # depth-3 tail, kept tiny on purpose
        n = rng.randint(2, 4)

        def cnf():
            return AND(*[
                OR(*[VAR(v) for v in rng.sample(range(n), rng.randint(1, 2))])
                for _ in range(rng.randint(1, 2))
            ])

        tree = AND(*[
            OR(*[cnf() for _ in range(rng.randint(1, 2))])
            for _ in range(rng.randint(1, 2))
        ])
        corpus.append((NormalizedFormula(n, tree), rng.randint(1, 3)))
    return corpus


def _c07_formula_pipeline() -> tuple[bool, str]:
    rng = random.Random(7701)
    corpus = _formula_corpus(rng)
    for i, (phi, k) in enumerate(corpus):
        _, agree = CONSTRUCTIONS["formula"].replay(phi, k)
        if not agree:
            return False, f"formula {i} (depth {phi.depth()}, k={k}) disagrees"
    return True, f"{len(corpus)} formulas agree with weighted truth tables"


# ---------------------------------------------------------------- criterion 8

def _c08_tape_reduction() -> tuple[bool, str]:
    trials = 200
    rng = random.Random(7801)
    for i in range(trials):
        sigma = rng.randint(1, 3)
        tapes = rng.randint(2 * sigma + 1, 3 * sigma + 2)
        cells = 2 if sigma == 3 else rng.randint(2, 3)
        inst = gen_random_tape_instance(
            rng.randrange(2**31), tapes=tapes, cells=cells, sigma=sigma,
            content_prob=0.4,
        )
        res = solve_bounded_alphabet(inst)
        if res.reachable != solve_tape(inst).reachable:
            return False, f"bounded-alphabet answer changed on instance {i}"
        reduced, _ = reduce_tapes_fully(inst)
        if len(reduced.tapes) > 2 * reduced.sigma:
            return False, f"instance {i} not reduced below twice the alphabet"
    return True, f"{trials}/{trials} agree; tape counts within twice the alphabet"


# ---------------------------------------------------------------- criterion 9

def _c09_kernelization() -> tuple[bool, str]:
    trials = 100
    rng = random.Random(7901)
    fired = dict.fromkeys(("compute-core", "contract-class-components", "reduce-twins"), 0)
    whole_core = 0  # draws whose core is every vertex: no rule has a class to act on
    for i in range(trials):
        inst = gen_dcr_instance(rng.randrange(2**31), n_max=8, k_max=2, d=2)
        kernel, report = kernelize(inst)
        for rule in report.rules_applied:
            fired[rule] += 1
        whole_core += report.core_size == inst.graph.n
        if solve_via_kernel(inst).reachable != solve_dcr(inst).reachable:
            return False, f"kernel answer differs on instance {i}"
        classes = neighborhood_classes(kernel.graph, kernel.core_set())
        if len(classes.get(frozenset(), ())) > 1:
            return False, f"0-class too large on instance {i}"
        for key, members in classes.items():
            if len(key) >= 3 and len(members) >= kernel.d:
                return False, f"large-type class too big on instance {i}"
        if find_reducible_vertex(kernel.graph, kernel.core_set()) is not None:
            return False, f"kernel {i} still has a removable twin"
        again, _ = kernelize(kernel)
        if again != kernel:
            return False, f"kernelization not idempotent on instance {i}"
        if not report.certified:
            return False, f"certificate failed on instance {i}"
    rules = ", ".join(f"{rule} {count}" for rule, count in fired.items())
    return True, (f"{trials}/{trials} kernel answers, certificates and idempotence hold; "
                  f"rules fired: {rules}; core is every vertex on {whole_core}")


# ---------------------------------------------------------------- criterion 10

def _dfs_reachability_oracle(inst: DsrInstance) -> bool:
    """Recursive depth-first reachability over an independently built
    configuration graph; shares no code with the token search.  Its nodes
    come from the dominating-set enumerator, which the tests check against
    a subset scan."""
    g = inst.graph
    core = g.full_mask if inst.core is None else mask_of(inst.core)

    def adjacent(a, b):
        gone, new = a - b, b - a
        if len(gone) != 1 or len(new) != 1:
            return False
        if inst.rule == SLIDE:
            (u,), (v,) = gone, new
            return v in g.adj[u]
        return True

    nodes = list(enumerate_dominating_sets(g, inst.k, core))
    seen = set()

    def dfs(cur):
        if cur == inst.target:
            return True
        seen.add(cur)
        for nxt in nodes:
            if nxt not in seen and adjacent(cur, nxt) and dfs(nxt):
                return True
        return False

    return dfs(inst.source)


def _c10_engine_consistency() -> tuple[bool, str]:
    trials = 500
    rng = random.Random(9001)
    for i in range(trials):
        inst = gen_random_dsr_instance(rng.randrange(2**31), n_max=6, k_max=3)
        res = solve(inst)
        if res.reachable != _dfs_reachability_oracle(inst):
            return False, f"engine disagrees with the DFS oracle on instance {i}"
        if res.reachable and not verify_witness(inst, list(res.witness)):
            return False, f"witness fails replay on instance {i}"
    frozen = DsrInstance(cycle_graph(6), 2, frozenset({0, 3}), frozenset({1, 4}), SLIDE)
    if solve(frozen).reachable:
        return False, "the frozen six-cycle instance must be unreachable"
    return True, f"{trials}/{trials} match the DFS oracle; frozen instance unreachable"


# ---------------------------------------------------------------------------

CRITERIA = [
    ("C01", "dominating-set encoding soundness", _c01_check_encoding),
    ("C02", "five-cycle pattern fidelity", _c02_drawn_pattern),
    ("C03", "triangle desynchronizer", _c03_triangle_desync),
    ("C04", "path desynchronizer and selector", _c04_path_desync_and_selector),
    ("C05", "tape to token sliding", _c05_sliding_reduction),
    ("C06", "tape to connected token jumping", _c06_jumping_reduction),
    ("C07", "and/or formula pipeline", _c07_formula_pipeline),
    ("C08", "bounded-alphabet tape reduction", _c08_tape_reduction),
    ("C09", "domination-core kernelization", _c09_kernelization),
    ("C10", "engine self-consistency", _c10_engine_consistency),
]


def run_all(log=None) -> list[CriterionResult]:
    """Run every criterion at its official counts.  With a ``log``, each
    criterion writes one PASS/FAIL line with its seconds."""
    results = []
    for ident, title, fn in CRITERIA:
        start = time.perf_counter()
        passed, details = fn()
        results.append(CriterionResult(ident, title, passed, details))
        if log is not None:
            status = "PASS" if passed else "FAIL"
            print(f"{status} {ident} [{time.perf_counter() - start:7.3f}s] {title}: "
                  f"{details}", file=log, flush=True)
    return results
