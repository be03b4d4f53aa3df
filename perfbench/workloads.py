"""The four benchmark workloads: seeded inputs, one timed item each, its checks.

``build(name, seed, tracer, counts)`` makes a workload's item list; all it
does is set-up time.  ``Item.run(tracer)`` is the timed part: the calls into
the program, each wrapped in a span named after the layer it enters, plus the
certificate checks that are themselves program calls.  ``Item.oracle()`` is
the benchmark's own answer, computed outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import clock
import inputs
import oracles
from reconflab import dsr, reductions, serialize
from reconflab.decomposition import verify_decomposition
from reconflab.graphs import degeneracy, min_feedback_vertex_set
from reconflab.kernel import K3D_FREE, kernelize
from reconflab.reductions import (
    check_min_ds_structure,
    desynchronize_triangle,
    ds_to_sync_multi,
    formula_to_multi,
    partitioned_dsr_to_sync_stars,
    tape_to_tj_cdsr,
    tape_to_ts_dsr,
    weighted_satisfiable,
)
from reconflab.tape_reduce import reduce_tapes_fully, solve_bounded_alphabet
from reconflab.tapes import extended_graph, solve_multi, solve_tape
from reconflab.widths import derive_decomposition

WORKLOADS = ("token-search", "certify-reductions", "tape-pipeline", "cli-calls")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


@dataclass
class Outcome:
    answer: object  # reachable / positive, or a digest of a transformed instance
    witness_len: Optional[int]
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Item:
    id: str
    run: Callable  # (tracer) -> Outcome
    oracle: Callable  # () -> (answer, witness_len or None when not checked)
    slowness: Callable = clock.loop_slowness  # () -> the machine's slowness now


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"reconflab-bench/{workload}/{seed}")


def _wlen(res) -> Optional[int]:
    return len(res.witness) - 1 if res.reachable else None


# ---------------------------------------------------------------------------
# input fingerprints: the digest of a workload's inputs, made without serialize

def fingerprint(obj):
    """Plain nested tuples describing a data-model object field by field."""
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj).__name__,) + tuple(
            (name, fingerprint(getattr(obj, name)))
            for name, f in obj.__dataclass_fields__.items() if f.compare
        )
    if hasattr(obj, "nbr_mask"):  # Graph
        return ("Graph", obj.n, obj.edges, tuple(sorted(obj.labels.items())))
    if isinstance(obj, (frozenset, set)):
        return tuple(sorted(fingerprint(x) for x in obj))
    if isinstance(obj, (tuple, list)):
        return tuple(fingerprint(x) for x in obj)
    return obj


def digest(pairs) -> str:
    h = hashlib.sha256()
    for item_id, obj in pairs:
        h.update(repr((item_id, fingerprint(obj))).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# token-search: dsr.solve then dsr.verify_witness

def _search_item(item_id, inst, expected=None):
    def run(tr):
        res = tr.call("dsr.solve", dsr.solve, inst)
        out = Outcome(res.reachable, _wlen(res),
                      {"dsr.solve.calls": 1, "dsr.solve.states": res.explored})
        if res.reachable and not tr.call("dsr.verify_witness", dsr.verify_witness,
                                         inst, list(res.witness)):
            out.problems.append("witness fails replay")
        return out

    def oracle():
        ans, dist = oracles.dsr_distance(inst)
        if expected is not None and expected != ans:
            raise AssertionError(f"tape side says {expected}, token side oracle {ans}")
        return ans, dist

    return Item(item_id, run, oracle)


# Many short searches rather than a few long ones: the spread of a run's
# totals across seeds shrinks with the number of independent instances.  The
# sizes that set a search's cost cycle through fixed patterns rather than
# being drawn, and random graphs have a fixed edge count, for the same reason.
# (label, count, source tapes, cells per tape as a function of the item
# index, sigmas to cycle through) for the reduction artifacts
TOKEN_ARTIFACTS = (
    ("tj", 60, 1, lambda i: [2 + i % 5], (2, 3)),
    ("ts", 60, 4, lambda i: [3] * (1 + i % 3) + [2] * (3 - i % 3), (3,)),
)
# (label, count, rule, n, k, extra edge prob, walk length or 0, core size, partitioned);
# a walk plants a far but reachable target, 0 draws the target independently
TOKEN_RANDOM = (
    ("slide", 200, dsr.SLIDE, 14, 5, 0.15, 25, None, False),
    ("jump", 200, dsr.JUMP, 13, 5, 0.12, 0, None, False),
    ("part", 200, dsr.JUMP, 18, 6, 0.30, 0, None, True),
    ("core", 200, dsr.SLIDE, 14, 4, 0.15, 25, 7, False),
)


def build_token_search(seed, tr, counts):
    rng = _rng("token-search", seed)
    items, pairs = [], []
    for label, count, tapes, cells, sigmas in TOKEN_ARTIFACTS:
        for i in range(count):
            sizes = cells(i)
            rng.shuffle(sizes)
            src = inputs.sync_tape_instance(rng, tapes, max(sizes), sigmas[i % len(sigmas)],
                                            sizes=sizes)
            art = tr.call("reductions.desynchronize_triangle", desynchronize_triangle, src)
            name = "tape_to_ts_dsr" if label == "ts" else "tape_to_tj_cdsr"
            inst = tr.call(f"reductions.{name}", getattr(reductions, name), art)
            tape = tr.call("tapes.solve_tape", solve_tape, art)
            counts.update({
                "reductions.desynchronize_triangle.size_in": _size(src),
                "reductions.desynchronize_triangle.size_out": _size(art),
                f"reductions.{name}.size_in": _size(art),
                f"reductions.{name}.size_out": inst.graph.n,
                "tapes.solve_tape.states": tape.explored,
            })
            expected = tape.reachable
            item_id = f"{label}-{i:03d}"
            items.append(_search_item(item_id, inst, expected))
            pairs.append((item_id, src))
    for label, count, rule, n, k, prob, walk, core, part in TOKEN_RANDOM:
        for i in range(count):
            inst = inputs.dsr_instance(rng, n, k, rule, prob, walk=walk * (i % 2),
                                       core_size=core, partitioned=part, exact_edges=True)
            item_id = f"{label}-{i:03d}"
            items.append(_search_item(item_id, inst))
            pairs.append((item_id, inst))
    return items, pairs


# ---------------------------------------------------------------------------
# certify-reductions: the sliding and jumping reductions' certificates

GUARD_CHECK_MAX_TAPES = 2  # a 3-tape guard enumeration takes seconds


def _certify_item(item_id, src):
    def run(tr):
        c = tr.call
        art = c("reductions.desynchronize_triangle", desynchronize_triangle, src)
        ts = c("reductions.tape_to_ts_dsr", tape_to_ts_dsr, art)
        res = c("dsr.solve", dsr.solve, ts)
        tape = c("tapes.solve_tape", solve_tape, art)
        k = len(art.tapes)
        ext = extended_graph(art)
        out = Outcome(tape.reachable, _wlen(res), {
            "dsr.solve.calls": 1, "dsr.solve.states": res.explored,
            "tapes.solve_tape.states": tape.explored,
            "reductions.desynchronize_triangle.size_in": _size(src),
            "reductions.desynchronize_triangle.size_out": _size(art),
            "reductions.tape_to_ts_dsr.size_in": _size(art),
            "reductions.tape_to_ts_dsr.size_out": ts.graph.n,
        })
        bad = out.problems
        if res.reachable != tape.reachable:
            bad.append("token sliding and tape answers differ")
        if not c("reductions.check_min_ds_structure", check_min_ds_structure, ts):
            bad.append("minimum dominating sets lost their shape")
        if c("graphs.degeneracy", degeneracy, ts.graph)[0] > \
                c("graphs.degeneracy", degeneracy, ext)[0] + 2:
            bad.append("degeneracy bound")
        f_in = len(c("graphs.min_feedback_vertex_set", min_feedback_vertex_set, ext))
        f_out = len(c("graphs.min_feedback_vertex_set", min_feedback_vertex_set, ts.graph))
        out.counts["graphs.min_feedback_vertex_set.calls"] = 2
        out.counts["graphs.min_feedback_vertex_set.size_sum"] = f_in + f_out
        if f_out > f_in + k + 1:
            bad.append("feedback vertex set bound")
        td_in = c("widths.derive_decomposition", derive_decomposition, art, "tree")
        td_out = c("widths.derive_decomposition", derive_decomposition, ts, "tree")
        rep_in = c("decomposition.verify_decomposition", verify_decomposition, ext, td_in, k)
        rep_out = c("decomposition.verify_decomposition", verify_decomposition,
                    ts.graph, td_out, k)
        out.counts["decomposition.verify_decomposition.width_sum"] = rep_in.width + rep_out.width
        if not (rep_in.valid and rep_out.valid and rep_out.structured):
            bad.append("derived decomposition invalid")
        elif rep_out.width > k + rep_in.width + 1:
            bad.append("width bound")
        if k <= GUARD_CHECK_MAX_TAPES:
            _guard_check(tr, art, out)
        return out

    def oracle():
        ans, _ = oracles.tape_distance(desynchronize_triangle(src))
        return ans, None  # the witness length is pinned by the golden file only

    return Item(item_id, run, oracle)


def _guard_check(tr, art, out):
    """Every connected dominating set of the budget size keeps the guards."""
    cd = tr.call("reductions.tape_to_tj_cdsr", tape_to_tj_cdsr, art)
    out.counts["reductions.tape_to_tj_cdsr.size_in"] = _size(art)
    out.counts["reductions.tape_to_tj_cdsr.size_out"] = cd.graph.n
    guards = set(cd.provenance["guards"])
    ends = {cd.provenance["hub"], cd.provenance["leaf"]}
    sets = useful = 0
    span = tr.begin("dsr.enumerate_dominating_sets")
    try:
        for d in dsr.enumerate_dominating_sets(cd.graph, cd.k):
            sets += 1
            if tr.call("dsr.is_feasible", dsr.is_feasible, cd, d):
                useful += 1
                if not guards <= d or len(d & ends) != 1:
                    out.problems.append("budget-size connected set evades a guard")
    finally:
        tr.end(span)
    out.counts["dsr.enumerate_dominating_sets.sets"] = sets
    out.counts["dsr.guard_filter.useful"] = useful


def _size(inst) -> int:
    """Vertices of the extended graph: cells of every tape plus the letters."""
    return sum(t.cells.n for t in inst.tapes) + inst.sigma


# (source tapes, most cells per tape) -> artifacts per pass; two-tape sources
# with three cells are left out, their feedback vertex sets take up to a
# second each.  Cell counts and alphabets cycle rather than being drawn, so
# that every seed has the same mix of artifact sizes.
CERTIFY_SHAPES = {(1, 2): 40, (1, 3): 30, (2, 2): 40}


def build_certify_reductions(seed, tr, counts):
    rng = _rng("certify-reductions", seed)
    items, pairs = [], []
    for (tapes, cells), count in CERTIFY_SHAPES.items():
        for i in range(count):
            sizes = [2 + (i // 2) % (cells - 1)] * tapes
            src = inputs.sync_tape_instance(rng, tapes, cells, 1 + i % 2, sizes=sizes)
            item_id = f"art{tapes}x{cells}-{i:02d}"
            items.append(_certify_item(item_id, src))
            pairs.append((item_id, src))
    return items, pairs


# ---------------------------------------------------------------------------
# tape-pipeline: decode, one tape-side operation, encode

def _decode(tr, text):
    return tr.call("serialize.decode", lambda: serialize.decode(json.loads(text)))


def _encode(tr, obj) -> int:
    def enc():
        doc = obj if isinstance(obj, dict) else serialize.encode(obj)
        return len(serialize.canonical_dumps(doc))
    return tr.call("serialize.encode", enc)


def _result_doc(res) -> dict:
    doc = {"kind": "solve-result", "version": 1, "reachable": res.reachable,
           "explored": res.explored}
    if res.witness is not None:
        doc["witness"] = [list(c) if isinstance(c, tuple) else sorted(c) for c in res.witness]
    return doc


def _selection_rank(inst, res) -> int:
    """Selections solve_multi tried: lexicographic rank + 1, or all of them."""
    sizes = [len(t) for t in inst.tuples]
    if not res.positive:
        total = 1
        for s in sizes:
            total *= s
        return total
    rank = 0
    for idx, s in zip(res.selection, sizes):
        rank = rank * s + idx
    return rank + 1


def _pipeline_item(item_id, kind, text, param, oracle):
    def run(tr):
        out = Outcome(False, None, {"serialize.bytes": len(text)})
        PIPELINE_OPS[kind](tr, _decode(tr, text), param, out)
        return out

    return Item(item_id, run, oracle)


def _op_solve_tape(tr, inst, _, out):
    res = tr.call("tapes.solve_tape", solve_tape, inst)
    out.answer, out.witness_len = res.reachable, _wlen(res)
    out.counts["tapes.solve_tape.states"] = res.explored
    out.counts["serialize.bytes"] += _encode(tr, _result_doc(res))


def _op_bounded(tr, inst, _, out):
    reduced, log = tr.call("tape_reduce.reduce_tapes_fully", reduce_tapes_fully, inst)
    out.counts["tape_reduce.reduce_tapes_fully.tapes_removed"] = len(inst.tapes) - len(reduced.tapes)
    out.counts["serialize.bytes"] += _encode(tr, reduced)
    if len(reduced.tapes) > 2 * reduced.sigma:
        out.problems.append("tape count above twice the alphabet")
    bounded = tr.call("tape_reduce.solve_bounded_alphabet", solve_bounded_alphabet, inst)
    direct = tr.call("tapes.solve_tape", solve_tape, inst)
    out.counts["tapes.solve_tape.states"] = direct.explored
    if bounded.reachable != direct.reachable:
        out.problems.append("bounded-alphabet answer differs from solve_tape")
    out.answer, out.witness_len = direct.reachable, _wlen(direct)


def _op_multi(tr, multi, out):
    res = tr.call("tapes.solve_multi", solve_multi, multi)
    out.answer = res.positive
    out.counts["tapes.solve_multi.selections"] = _selection_rank(multi, res)
    out.counts["tapes.solve_multi.positive"] = int(res.positive)
    doc = {"kind": "solve-result", "version": 1, "positive": res.positive,
           "selection": list(res.selection) if res.selection is not None else None}
    out.counts["serialize.bytes"] += _encode(tr, doc)


def _op_ds_multi(tr, g, k, out):
    multi = tr.call("reductions.ds_to_sync_multi", ds_to_sync_multi, g, k)
    out.counts["reductions.ds_to_sync_multi.size_in"] = g.n
    out.counts["reductions.ds_to_sync_multi.size_out"] = _multi_size(multi)
    _op_multi(tr, multi, out)


def _op_formula(tr, phi, k, out):
    multi = tr.call("reductions.formula_to_multi", formula_to_multi, phi, k)
    out.counts["reductions.formula_to_multi.size_in"] = _formula_size(phi.root)
    out.counts["reductions.formula_to_multi.size_out"] = _multi_size(multi)
    _op_multi(tr, multi, out)


def _op_stars(tr, inst, _, out):
    stars = tr.call("reductions.partitioned_dsr_to_sync_stars",
                    partitioned_dsr_to_sync_stars, inst)
    out.counts["reductions.partitioned_dsr_to_sync_stars.size_in"] = inst.graph.n
    out.counts["reductions.partitioned_dsr_to_sync_stars.size_out"] = _size(stars)
    res = tr.call("tapes.solve_tape", solve_tape, stars)
    out.counts["tapes.solve_tape.states"] = res.explored
    out.answer, out.witness_len = res.reachable, _wlen(res)
    out.counts["serialize.bytes"] += _encode(tr, stars)


PIPELINE_OPS = {
    "solve": _op_solve_tape,
    "bounded": _op_bounded,
    "ds-multi": _op_ds_multi,
    "formula": _op_formula,
    "stars": _op_stars,
}


def _multi_size(multi) -> int:
    return sum(t.cells.n for tup in multi.tuples for t in tup) + multi.sigma


def _formula_size(node) -> int:
    return 1 if node[0] == "var" else 1 + sum(_formula_size(c) for c in node[1])


def build_tape_pipeline(seed, tr, counts):
    def stream(block):  # one random stream per block: changing one leaves the others alone
        return _rng(f"tape-pipeline/{block}", seed)

    items, pairs = [], []

    def add(item_id, kind, obj, oracle, param=None):
        text = tr.call("serialize.encode",
                       lambda: serialize.canonical_dumps(serialize.encode(obj)))
        items.append(_pipeline_item(item_id, kind, text, param, oracle))
        pairs.append((item_id, (obj, param)))

    rng = stream("solve")
    for i in range(420):
        # the state space is the product of the tape sizes, so the number of
        # 4-cell tapes follows a fixed cycle rather than a draw per tape: that
        # keeps a pass's total search work nearly the same from seed to seed
        tapes = 5 + i % 2
        big = tapes // 2 + (i // 2) % 3 - 1
        sizes = [4] * big + [3] * (tapes - big)
        rng.shuffle(sizes)
        inst = inputs.tape_instance(rng, tapes, (3, 4), 4, prob=0.3, sync=i % 7 < 2,
                                    sizes=sizes)
        add(f"solve-{i:03d}", "solve", inst, _tape_oracle(inst))
    rng = stream("bounded")
    for i in range(100):
        sigma = rng.randint(2, 3)
        inst = inputs.tape_instance(rng, rng.randint(2 * sigma + 1, 2 * sigma + 2),
                                    (2, 2 if sigma == 3 else 3), sigma, prob=0.4)
        add(f"bounded-{i:03d}", "bounded", inst, _tape_oracle(inst))
    rng = stream("ds")
    for i in range(100):
        g = inputs.connected_graph(rng, rng.randint(5, 7), 0.3)
        k = rng.randint(1, 3)
        add(f"ds-{i:03d}", "ds-multi", g, _const_oracle(oracles.has_dominating_set, g, k), k)
    rng = stream("formula")
    for i in range(100):
        phi = inputs.cnf_formula(rng, rng.randint(2, 6), rng.randint(1, 3))
        k = rng.randint(0, 3)
        add(f"formula-{i:03d}", "formula", phi, _const_oracle(weighted_satisfiable, phi, k), k)
    rng = stream("stars")
    for i in range(120):
        inst = inputs.partitioned_instance(rng, 4 + i % 2, 2)
        add(f"stars-{i:03d}", "stars", inst, _answer_only(_dsr_oracle(inst)))
    return items, pairs


def _tape_oracle(inst):
    return lambda: oracles.tape_distance(inst)


def _dsr_oracle(inst):
    return lambda: oracles.dsr_distance(inst)


def _answer_only(oracle):
    return lambda: (oracle()[0], None)


def _const_oracle(fn, *args):
    return lambda: (fn(*args), None)


# ---------------------------------------------------------------------------
# cli-calls: one cold ``python -m reconflab.cli`` child per item, one at a time

CLI_DIR = OUT / "cli"
CLI_TIMEOUT_S = 60  # a hung child is killed, waited for, and counted as failed


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _cli_item(item_id, argv, expect_code, read, oracle):
    cmd = [sys.executable, "-m", "reconflab.cli", *argv]

    def run(tr):
        proc = tr.call("cli.call", subprocess.run, cmd, capture_output=True,
                       text=True, cwd=ROOT, env=cli_env(), timeout=CLI_TIMEOUT_S)
        out = Outcome(None, None, {"cli.calls": 1, "serialize.bytes": len(proc.stdout)})
        if proc.returncode != expect_code:
            out.problems.append(f"exit code {proc.returncode}, expected {expect_code}: "
                                f"{proc.stderr.strip()[-300:]}")
        else:
            out.answer, out.witness_len = read(tr, json.loads(proc.stdout))
        return out

    return Item(item_id, run, oracle, lambda: clock.child_slowness(ROOT, cli_env()))


def _read_solve(tr, doc):
    return doc["reachable"], doc.get("witnessLength")


def _read_instance(tr, doc):
    return digest([("", _decode_doc(tr, doc))]), None


def _read_kernel(tr, doc):
    return digest([("", (_decode_doc(tr, doc), doc["certificate"]["certified"]))]), None


def _read_flag(key):
    return lambda tr, doc: (doc[key], None)


def _decode_doc(tr, doc):
    return tr.call("serialize.decode", serialize.decode, doc)


def _read_gen(n):
    def read(tr, doc):
        g = _decode_doc(tr, doc)
        return g.n == n and oracles.connected(g, g.full_mask), None
    return read


def _write(tr, name, obj) -> str:
    path = CLI_DIR / name
    text = tr.call("serialize.encode", lambda: serialize.canonical_dumps(
        obj if isinstance(obj, dict) else serialize.encode(obj)))
    path.write_text(text)
    return str(path.relative_to(ROOT))


def build_cli_calls(seed, tr, counts):
    rng = _rng("cli-calls", seed)
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    items, pairs = [], []

    def add(item_id, obj, argv, read, oracle, expect_code=0):
        items.append(_cli_item(item_id, argv, expect_code, read, oracle))
        pairs.append((item_id, (obj, argv)))

    for i in range(4):
        inst = inputs.dsr_instance(rng, rng.randint(8, 10), 3, dsr.SLIDE, 0.2,
                                   walk=6 * (i % 2))
        add(f"solve-{i}", inst, ["solve", _write(tr, f"solve-{i}.json", inst)],
            _read_solve, _dsr_oracle(inst))
    for i in range(4):
        inst = inputs.tape_instance(rng, rng.randint(3, 4), (3, 5), 3, prob=0.35)
        add(f"solve-tape-{i}", inst, ["solve-tape", _write(tr, f"solve-tape-{i}.json", inst)],
            _read_solve, _tape_oracle(inst))
    for i in range(3):
        inst = inputs.sync_tape_instance(rng, 2, 3, 2)
        add(f"reduce-{i}", inst, ["reduce", _write(tr, f"reduce-{i}.json", inst), "--to", "tape"],
            _read_instance, _lib_oracle(lambda inst=inst: desynchronize_triangle(inst)))
    for i in range(3):
        inst = inputs.tape_instance(rng, rng.randint(5, 7), (2, 4), 2, prob=0.35)
        add(f"reduce-tapes-{i}", inst,
            ["reduce-tapes", _write(tr, f"reduce-tapes-{i}.json", inst)],
            _read_instance, _lib_oracle(lambda inst=inst: reduce_tapes_fully(inst)[0]))
    for i in range(3):
        inst = inputs.dcr_instance(rng, rng.randint(6, 7), 2, 2, K3D_FREE)

        def kernel_oracle(inst=inst):
            kernel, report = kernelize(inst)
            return digest([("", (kernel, report.certified))]), None

        add(f"kernelize-{i}", inst, ["kernelize", _write(tr, f"kernelize-{i}.json", inst)],
            _read_kernel, kernel_oracle)
    for i in range(3):
        g = inputs.connected_graph(rng, rng.randint(5, 6), 0.3)
        add(f"verify-reduction-{i}", g,
            ["verify-reduction", _write(tr, f"verify-reduction-{i}.json", g),
             "--construction", "dominating-set", "--k", "2"],
            _read_flag("agree"), lambda: (True, None))
    for i in range(4):
        inst = inputs.dsr_instance(rng, rng.randint(8, 10), 3, dsr.SLIDE, 0.2, walk=4)
        walk = inputs.random_walk(rng, inst, 6)
        while walk[-1] == inst.source:  # the reversed walk must start elsewhere
            walk = inputs.random_walk(rng, inst, 6)
        inst = replace(inst, target=walk[-1])
        seq = walk if i % 2 == 0 else walk[::-1]  # reversed: starts at the wrong end
        doc = {"kind": "witness", "version": 1, "configs": [sorted(c) for c in seq]}
        add(f"verify-witness-{i}", (inst, seq),
            ["verify-witness", _write(tr, f"verify-witness-{i}.json", inst),
             _write(tr, f"verify-witness-{i}.moves.json", doc)],
            _read_flag("valid"), lambda inst=inst, seq=seq: (oracles.witness_valid(inst, seq), None),
            expect_code=0 if i % 2 == 0 else 1)
    for i in range(3):
        n = rng.randint(6, 8)
        argv = ["gen", "graph", "--seed", str(rng.randrange(10**6)), "--n", str(n),
                "--edge-prob", "0.4", "--constraint", "connected"]
        add(f"gen-{i}", None, argv, _read_gen(n), lambda: (True, None))
    return items, pairs


def _lib_oracle(fn):
    return lambda: (digest([("", fn())]), None)


BY_NAME = {
    "token-search": build_token_search,
    "certify-reductions": build_certify_reductions,
    "tape-pipeline": build_tape_pipeline,
    "cli-calls": build_cli_calls,
}


def build(workload: str, seed: int, tr, counts):
    """The workload's items and the digest of its generated inputs.

    ``counts`` receives the exact work counts of the set-up itself.
    """
    items, pairs = BY_NAME[workload](seed, tr, counts)
    return items, digest(pairs)
