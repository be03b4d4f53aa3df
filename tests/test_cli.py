import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import built_fat_pairs, fan, grid, wheel
from reconflab import serialize
from reconflab.cli import SUBCOMMANDS, build_parser, main
from reconflab.dsr import JUMP, SLIDE, DsrInstance, solve
from reconflab.errors import MalformedInput
from reconflab.graphs import Graph, cycle_graph, path_graph
from reconflab.kernel import DcrInstance
from reconflab.reductions import NormalizedFormula
from reconflab.tapes import MultiTapeInstance, TapeInstance, path_tape


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(serialize.canonical_dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# --------------------------------------------------------------- round trips

def test_graph_roundtrip_is_canonical():
    g = Graph(4, [(2, 1), (0, 3), (1, 0)], labels={2: "hub"})
    doc = serialize.graph_to_json(g)
    assert doc["edges"] == [[0, 1], [0, 3], [1, 2]]
    assert serialize.decode(doc) == g
    assert serialize.canonical_dumps(doc) == serialize.canonical_dumps(
        serialize.graph_to_json(serialize.decode(doc))
    )


def test_tape_instance_roundtrip():
    t = path_tape([3, 0, 1], number=[1, 2, 3])
    inst = TapeInstance(2, (t,), (0,), (2,), sync=True, r=3)
    doc = serialize.tape_instance_to_json(inst)
    assert serialize.decode(doc) == inst


def test_multi_and_dsr_and_dcr_roundtrip():
    multi = MultiTapeInstance(1, ((path_tape([1]), path_tape([0])),))
    assert serialize.decode(serialize.multi_to_json(multi)) == multi
    dsr = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE,
                      partition=(frozenset({0, 2}), frozenset({1})))
    assert serialize.decode(serialize.dsr_to_json(dsr)) == dsr
    dcr = DcrInstance(path_graph(3), 1, frozenset({1}), frozenset({1}), d=2,
                      core=frozenset({0, 1, 2}))
    assert serialize.decode(serialize.dcr_to_json(dcr)) == dcr


def test_formula_roundtrip():
    phi = NormalizedFormula(2, ("and", (("or", (("var", 0), ("var", 1))),)))
    assert serialize.decode(serialize.formula_to_json(phi)) == phi


def test_decode_rejects_unknown_kind():
    with pytest.raises(MalformedInput):
        serialize.decode({"kind": "mystery", "version": 1})


# --------------------------------------------------------------- subcommands

def test_solve_matches_library(tmp_path, capsys):
    inst = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE)
    path = write(tmp_path, "inst.json", serialize.dsr_to_json(inst))
    code, doc = run(capsys, "solve", path)
    assert code == 0
    assert doc["reachable"] is True and doc["witnessLength"] == 2
    assert doc["explored"] == solve(inst).explored


def test_solve_tape_multi(tmp_path, capsys):
    multi = MultiTapeInstance(1, ((path_tape([1, 1]), path_tape([0, 0])),))
    path = write(tmp_path, "m.json", serialize.multi_to_json(multi))
    code, doc = run(capsys, "solve-tape", path)
    assert code == 0 and doc["positive"] is True and doc["selection"] == [0]


def test_reduce_graph_to_sync_multi(tmp_path, capsys):
    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code, doc = run(capsys, "reduce", path, "--to", "sync-multi", "--k", "2")
    assert code == 0 and doc["kind"] == "multi-tape-instance"
    assert len(doc["tuples"]) == 2
    assert doc["provenance"]["construction"] == "ds-check"


def test_reduce_requires_k(tmp_path, capsys):
    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code, _ = run(capsys, "reduce", path, "--to", "sync-multi")
    assert code == 2


def test_reduce_tapes_emits_log(tmp_path, capsys):
    tapes = [path_tape([1, 1]) for _ in range(3)]
    inst = TapeInstance(1, tuple(tapes), (0, 0, 0), (1, 1, 1))
    path = write(tmp_path, "t.json", serialize.tape_instance_to_json(inst))
    code, doc = run(capsys, "reduce-tapes", path)
    assert code == 0
    assert doc["reductionLog"] and "deletedTapes" in doc["reductionLog"][0]
    assert len(doc["tapes"]) <= 2


def test_kernelize_emits_certificate(tmp_path, capsys):
    g = path_graph(5)
    inst = DcrInstance(g, 2, frozenset({1, 3}), frozenset({1, 3}), d=2)
    path = write(tmp_path, "k.json", serialize.dcr_to_json(inst))
    code, doc = run(capsys, "kernelize", path)
    assert code == 0
    cert = doc["certificate"]
    assert cert["certified"] is True
    assert cert["sizeAfter"][0] <= cert["sizeBefore"][0]
    assert cert["sizeAfter"][1] <= cert["sizeBefore"][1]


KERNEL_DIGESTS = {
    "seeded": "7ecfbe7c85bf544f8f3628afd1ca3de8309238ceafeb7803228de6bec2038175",
    "no-core": "1065b1981e8ec0267c9dca5c8fa78b25e3dad599418b399a4b8c67b66f79579c",
    "minor-free": "7db7ca57dda6ba58e225302de65e43bc127c72185de8562f9c68c7ea199ec794",
    "fans-and-wheels": "5e02a38828c30cdd81c69f94994bf6687d2bdb28f32c97b9c9d03dce997abceb",
    "fat-pairs": "195c268ec31aa4d854a267ad0b6e54da44c8bb38f8341f4d13771aab60581bb5",
}


def test_kernelize_bytes_are_pinned(tmp_path, capsys):
    """``kernelize``'s exit code and stdout (the kernel and its certificate),
    hashed per group, against digests recorded before every rule round became
    one ``graphs.quotient`` (the fat-pairs group: before fatness became a
    matching over neighbourhood masks): a refactor of the rules keeps every
    byte."""
    from dataclasses import replace

    from reconflab.generators import gen_dcr_instance
    from reconflab.kernel import K4D_MINOR_FREE

    seeded = [gen_dcr_instance(seed) for seed in range(60)]
    groups = {
        "seeded": seeded,
        "no-core": [replace(inst, core=None) for inst in seeded],
        "minor-free": [replace(inst, family=K4D_MINOR_FREE) for inst in seeded],
        "fans-and-wheels": [fan(12), fan(20), fan(40), fan(80),
                            wheel(9), wheel(17), wheel(33), wheel(65)],
        "fat-pairs": built_fat_pairs(),
    }
    digests, pruned = {}, 0
    for name, insts in groups.items():
        h = hashlib.sha256()
        for inst in insts:
            code = main(["kernelize", write(tmp_path, "k.json", serialize.dcr_to_json(inst))])
            out = capsys.readouterr().out
            h.update(f"{code}\n{out}".encode())
            if name == "fat-pairs" and out:
                pruned += "prune-three-classes" in json.loads(out)["certificate"]["rulesApplied"]
        digests[name] = h.hexdigest()
    assert digests == KERNEL_DIGESTS
    # seeded draws hold no fat pair; the built ones are where the cut fires
    assert pruned > len(groups["fat-pairs"]) * 3 // 4, pruned


def test_kernelize_refuses_a_broken_minor_free_promise(capsys):
    """``k4d_broken_promise.json``: core {0, 1, 2, 3}, a 3-class 4..12 on
    trace {0, 1, 2} and a 1-class 13..21 on trace {3}, joined by a perfect
    matching of 9 > k * d = 8.  It holds no K_{4,4} subgraph, but
    contracting the matching gives a K_{4,9} minor, and {4, 3} dominates
    the core but not V.  Cutting the fat pair cuts 3's side off, which a
    true promise and core rule out: exit 2, not a crash."""
    path = Path(__file__).with_name("k4d_broken_promise.json")
    assert main(["kernelize", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


# sha256 of stdout for each step of a tape document's round trip, recorded
# before the tape codecs and the tape validation were rewritten for speed (the
# two token reductions: before the extended graph became one edge list)
ROUND_TRIP_DIGESTS = {
    "solve-tape --witness": "87c933d6de961aef8762effef109353773001856921759da58c402dfcc10109f",
    "reduce --to tape": "3e255ed34bd08baee58c3452fdb94cae818ab27f04f254b505ef45482476a161",
    "reduce-tapes": "b8d1068c49eccacb8a63c42eac0e2f617953376e53c6284bf45418ef7d52b59c",
    "reduce --to ts-dsr": "12d918eef3942f28a2ad1f649cba3c4f4b98cfc7002f21be6eaa20fa1ee93384",
    "reduce --to tj-cdsr": "2fd0c98f72081d466bdd4976e3e74cd8db3409bee5678a1e81d60014f8bd11b9",
}


def test_tape_round_trip_bytes_are_pinned(tmp_path, capsys):
    """A generated synchronized tape document through ``solve-tape``,
    ``reduce --to tape``, then ``reduce-tapes`` and both token reductions on
    the reduction's output: every step exits 0 and prints the bytes recorded
    before the rewrite."""
    assert main(["gen", "tape", "--seed", "3", "--tapes", "3", "--cells", "3", "--sigma", "2",
                 "--sync"]) == 0
    doc = tmp_path / "t.json"
    doc.write_text(capsys.readouterr().out)
    reduced = tmp_path / "a.json"
    steps = {"solve-tape --witness": ["solve-tape", str(doc), "--witness"],
             "reduce --to tape": ["reduce", str(doc), "--to", "tape"],
             "reduce-tapes": ["reduce-tapes", str(reduced)],
             "reduce --to ts-dsr": ["reduce", str(reduced), "--to", "ts-dsr"],
             "reduce --to tj-cdsr": ["reduce", str(reduced), "--to", "tj-cdsr"]}
    digests = {}
    for name, argv in steps.items():
        assert main(argv) == 0, name
        out = capsys.readouterr().out
        if name == "reduce --to tape":
            reduced.write_text(out)
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == ROUND_TRIP_DIGESTS


def test_kernelize_a_513_vertex_wheel(tmp_path, capsys):
    """The kernel's size does not grow with n: wheels of 65 to 1,025
    vertices at k = 2 all give 12 vertices and 22 edges, and fans of 16 to
    646 vertices at k = 3 all give 14 and 28, each one certified.  The core
    takes one enumerator query per vertex; a scan of every 3-subset of the
    513-vertex wheel would pass ``graphs.ENUM_CAP``."""
    sweep = [(wheel(n), [12, 22]) for n in (65, 129, 257, 513, 1025)]
    sweep += [(fan(middles), [14, 28]) for middles in (10, 40, 160, 640)]
    for inst, size_after in sweep:
        path = write(tmp_path, "k.json", serialize.dcr_to_json(inst))
        code, doc = run(capsys, "kernelize", path)
        assert code == 0
        cert = doc["certificate"]
        assert cert["certified"] is True, inst.graph.n
        assert cert["sizeBefore"] == [inst.graph.n, inst.graph.m]
        assert cert["sizeAfter"] == size_after, inst.graph.n


def test_kernelize_past_the_enumerator_cap_exits_3(tmp_path, capsys, monkeypatch):
    """At ``ENUM_CAP`` 1 fan(8)'s core stops at its first enumerator call,
    the check that some k-set dominates; from 2 on the whole ``kernelize``
    finishes.  See ``test_compute_core_raises_past_the_enumerator_cap`` for
    a graph whose core queries pass a cap its feasibility check does not."""
    from reconflab import graphs

    path = write(tmp_path, "f.json", serialize.dcr_to_json(fan(8)))
    monkeypatch.setattr(graphs, "ENUM_CAP", 2)
    assert main(["kernelize", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(graphs, "ENUM_CAP", 1)
    assert main(["kernelize", path]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: dominating-set enumeration passed ")


def test_solve_and_verify_witness_compute_a_missing_dcr_core(tmp_path, capsys):
    """A dcr document with no core is solved with the core ``kernelize``
    computes, not refused."""
    from reconflab.kernel import compute_core, solve_dcr

    inst = wheel(17)
    assert inst.core is None
    path = write(tmp_path, "w.json", serialize.dcr_to_json(inst))
    cored = DcrInstance(inst.graph, inst.k, inst.source, inst.target, d=inst.d,
                        core=compute_core(inst.graph, inst.k, inst.source | inst.target))
    want = solve_dcr(cored)
    code, doc = run(capsys, "solve", path, "--witness")
    assert code == 0 and doc["reachable"] is True
    assert doc["explored"] == want.explored
    assert doc["witness"] == [sorted(c) for c in want.witness]
    wpath = write(tmp_path, "x.json", witness_doc(want.witness))
    code, doc = run(capsys, "verify-witness", path, wpath)
    assert code == 0 and doc["valid"] is True


def test_a_computed_dcr_core_is_checked_as_kernelize_checks_it(tmp_path, capsys):
    """Path 0-1-2-3-4, k = 2 and no core: the source {0, 1} does not
    dominate the core computed for {0, 1, 3}.  ``solve_dcr`` and
    ``kernelize`` refuse it with one message, and the commands that read a
    dcr document exit 2 with it."""
    from reconflab.kernel import kernelize, solve_dcr

    message = "token sets must dominate the core"
    inst = DcrInstance(path_graph(5), 2, frozenset({0, 1}), frozenset({1, 3}), d=1)
    for call in (solve_dcr, kernelize):
        with pytest.raises(MalformedInput, match=message):
            call(inst)
    path = write(tmp_path, "p.json", serialize.dcr_to_json(inst))
    wpath = write(tmp_path, "w.json", witness_doc([{0, 1}, {1, 3}]))
    for argv in (["solve", path], ["kernelize", path], ["verify-witness", path, wpath]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


@pytest.mark.parametrize("graph, changes", [
    (path_graph(3), {"family": "nope", "d": 0}),
    (Graph(4, [(0, 1), (1, 2)]), {}),
], ids=["unknown-family", "vertex-off-the-core-component"])
def test_solve_and_verify_witness_check_a_cored_dcr(tmp_path, capsys, graph, changes):
    """A dcr document that ``kernelize`` refuses is refused by ``solve`` and
    ``verify-witness`` as well, also when it names a core."""
    inst = DcrInstance(graph, 1, frozenset({1}), frozenset({1}), d=2, core=frozenset({0, 1, 2}))
    path = write(tmp_path, "d.json", {**serialize.dcr_to_json(inst), **changes})
    wpath = write(tmp_path, "w.json", witness_doc([{1}]))
    for argv in (["kernelize", path], ["solve", path], ["verify-witness", path, wpath]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["reduce", "--to", "sync-stars"],
                                  ["verify-reduction", "--construction", "sync-stars"]],
                         ids=["reduce", "verify-reduction"])
def test_sync_stars_without_tokens_exits_2(tmp_path, capsys, argv):
    """With k = 0 the arbiter star has no branch for its head to park on."""
    inst = DsrInstance(Graph(0), 0, frozenset(), frozenset(), JUMP, partition=())
    path = write(tmp_path, "x.json", serialize.dsr_to_json(inst))
    assert main([argv[0], path, *argv[1:]]) == 2
    assert "arbiter" in capsys.readouterr().err


# P4 with one part {0, 1} and two tokens: the token on 2 lies outside every part
P4_OUTSIDE_PART = dict(graph=path_graph(4), k=2, source=frozenset({0, 2}),
                       target=frozenset({0, 3}), partition=(frozenset({0, 1}),))


@pytest.mark.parametrize("inst,argv", [
    (DsrInstance(Graph(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
                           (2, 5), (4, 5)]), 2, frozenset({0, 3}), frozenset({1, 4}), JUMP,
                 connected=True, partition=(frozenset({0, 4, 5}), frozenset({1, 2, 3}))),
     ["verify-reduction", "--construction", "sync-stars"]),
    (DsrInstance(Graph(5, [(0, 2), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4)]), 1,
                 frozenset({3}), frozenset({2}), JUMP, core=frozenset({0, 4}),
                 partition=(frozenset(range(5)),)),
     ["verify-reduction", "--construction", "sync-stars"]),
    (DsrInstance(**P4_OUTSIDE_PART, rule=JUMP), ["reduce", "--to", "sync-stars"]),
], ids=["connected", "core", "token-outside-every-part"])
def test_sync_stars_refuses_what_the_stars_do_not_encode(tmp_path, capsys, inst, argv):
    """The stars dominate every vertex, ignore connectivity and hold one token
    per part; on any other instance the answers could differ, or the tape
    instance would start off a valid configuration."""
    path = write(tmp_path, "x.json", serialize.dsr_to_json(inst))
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "star encoding" in captured.err


def test_verify_reduction_dominating_set(tmp_path, capsys):
    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code, doc = run(capsys, "verify-reduction", path, "--construction",
                    "dominating-set", "--k", "2")
    assert code == 0 and doc["agree"] is True


def test_verify_reduction_negative_exit(tmp_path, capsys):
    # single token on a five-cycle: no dominating set, both sides negative,
    # so the verification agrees and exits 0
    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code, doc = run(capsys, "verify-reduction", path, "--construction",
                    "dominating-set", "--k", "1")
    assert code == 0 and doc["agree"] is True


def test_verify_reduction_dominating_set_budget_above_n(tmp_path, capsys):
    # nine tokens on five vertices: a dominating set of at most nine exists
    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code, doc = run(capsys, "verify-reduction", path, "--construction",
                    "dominating-set", "--k", "9")
    assert code == 0 and doc["agree"] is True


def test_verify_reduction_state_cap_bounds_the_selections(tmp_path):
    """The 5x5 grid at k = 6 has 25**6 selections; --state-cap 1000 stops the
    tape side after about a thousand of them.  The child has a timeout, so a
    cap that bounds only each selection's search fails here, not hangs."""
    path = write(tmp_path, "grid.json", serialize.graph_to_json(grid(5, 5)))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "reconflab.cli", "verify-reduction", path,
                           "--construction", "dominating-set", "--k", "6", "--state-cap", "1000"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=30)
    assert proc.returncode == 3 and proc.stderr.startswith("cap exceeded: "), proc.stderr


@pytest.mark.parametrize("construction",
                         ["triangle", "path", "sync-stars", "selector", "ts-dsr", "tj-cdsr"])
def test_verify_reduction_wrong_input_kind_exits_2(tmp_path, capsys, construction):
    path = write(tmp_path, "g.json", serialize.graph_to_json(path_graph(3)))
    code, doc = run(capsys, "verify-reduction", path, "--construction", construction)
    assert code == 2 and doc is None


# One case per construction: the input, the `reduce --to` kind of the output,
# the transformer that `reduce` applies, and the k it needs, if any.
def _pinned_constructions():
    from helpers import partitioned_instance
    from reconflab.generators import (
        gen_random_multi,
        gen_random_tape_instance,
        gen_sync_path_instance,
    )
    from reconflab.reductions import (
        desynchronize_path,
        desynchronize_triangle,
        ds_to_sync_multi,
        formula_to_multi,
        partitioned_dsr_to_sync_stars,
        select_from_tuples,
        tape_to_tj_cdsr,
        tape_to_ts_dsr,
    )

    art = desynchronize_triangle(gen_random_tape_instance(8, 1, 2, 2, sync=True))
    cnf = NormalizedFormula(3, ("and", (("or", (("var", 0), ("var", 1))),
                                        ("or", (("var", 1), ("var", 2))))))
    return {
        "dominating-set": (cycle_graph(5), "sync-multi", ds_to_sync_multi, 2),
        "sync-stars": (partitioned_instance(4), "sync-stars",
                       partitioned_dsr_to_sync_stars, None),
        "triangle": (gen_random_tape_instance(5, 2, 3, 2, sync=True), "tape",
                     desynchronize_triangle, None),
        "path": (gen_sync_path_instance(6, 3, 5, 2), "path-tape", desynchronize_path, None),
        "selector": (gen_random_multi(7, 2, 2, 3), "path-tape", select_from_tuples, None),
        "ts-dsr": (art, "ts-dsr", tape_to_ts_dsr, None),
        "tj-cdsr": (art, "tj-cdsr", tape_to_tj_cdsr, None),
        "formula": (cnf, "multi-tape", formula_to_multi, 1),
    }


_PINNED_NAMES = ["dominating-set", "sync-stars", "triangle", "path", "selector",
                 "ts-dsr", "tj-cdsr", "formula"]


@pytest.mark.parametrize("name", _PINNED_NAMES)
def test_every_construction_reduces_and_verifies(tmp_path, capsys, name):
    inst, dst, transformer, k = _pinned_constructions()[name]
    doc = serialize.encode(inst)
    path = write(tmp_path, "in.json", doc)
    k_args = [] if k is None else ["--k", str(k)]

    decoded = serialize.decode(doc)
    out = transformer(decoded) if k is None else transformer(decoded, k)
    expected = serialize.encode(out)
    expected["provenance"] = {
        key: val for key, val in (out.provenance or {}).items()
        if isinstance(val, (str, int, list, tuple))
    }
    code = main(["reduce", path, "--to", dst, *k_args])
    assert code == 0
    assert capsys.readouterr().out == serialize.canonical_dumps(expected)

    code, report = run(capsys, "verify-reduction", path, "--construction", name, *k_args)
    assert code == 0 and report == {"kind": "verification", "version": 1, "agree": True}


def witness_doc(configs) -> dict:
    return {"kind": "witness", "version": 1, "configs": [sorted(c) for c in configs]}


def test_verify_witness_exit_codes(tmp_path, capsys):
    inst = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE)
    ipath = write(tmp_path, "i.json", serialize.dsr_to_json(inst))
    res = solve(inst)
    good = write(tmp_path, "w.json", witness_doc(res.witness))
    code, doc = run(capsys, "verify-witness", ipath, good)
    assert code == 0 and doc["valid"] is True
    bad = write(tmp_path, "b.json", witness_doc([[0, 1], [1, 2]]))
    code, doc = run(capsys, "verify-witness", ipath, bad)
    assert code == 1 and doc["valid"] is False


def test_witness_that_moves_a_token_outside_every_part_verifies(tmp_path, capsys):
    """``verify-witness`` accepts the move ``solve`` made: the token on 2 slides to 3."""
    ipath = write(tmp_path, "i.json", serialize.dsr_to_json(DsrInstance(**P4_OUTSIDE_PART)))
    code, doc = run(capsys, "solve", ipath, "--witness")
    assert code == 0 and doc["witness"] == [[0, 2], [0, 3]]
    wpath = write(tmp_path, "w.json", witness_doc(doc["witness"]))
    code, doc = run(capsys, "verify-witness", ipath, wpath)
    assert code == 0 and doc["valid"] is True


@pytest.mark.parametrize("bad", [[0, -1], [0, 3]], ids=["negative", "past-n"])
def test_verify_witness_rejects_vertices_outside_the_graph(tmp_path, capsys, bad):
    inst = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({0, 2}), JUMP)
    ipath = write(tmp_path, "i.json", serialize.dsr_to_json(inst))
    wpath = write(tmp_path, "w.json", witness_doc([[0, 1], bad, [0, 2]]))
    code = main(["verify-witness", ipath, wpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "out of range" in captured.err


@pytest.mark.parametrize("configs,connected", [
    ([[0, 1], [0, 2.9]], False),
    ([[0, True], [0, 2]], False),
    ([[0, 1], [0, "2"]], False),
    ([[0, 1], [0, 2]], "false"),
], ids=["float-vertex", "boolean-vertex", "string-vertex", "string-connected"])
def test_verify_witness_rejects_values_that_are_not_json_integers_or_booleans(
        tmp_path, capsys, configs, connected):
    """int() and bool() would read these as 2, 1, 2 and True."""
    doc = serialize.dsr_to_json(
        DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({0, 2}), JUMP))
    doc["connected"] = connected
    ipath = write(tmp_path, "i.json", doc)
    wpath = write(tmp_path, "w.json", {"kind": "witness", "version": 1, "configs": configs})
    code = main(["verify-witness", ipath, wpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""


@pytest.mark.parametrize("field,value", [("rule", "teleport"), ("k", 1)],
                         ids=["unknown-rule", "k-below-source-size"])
def test_verify_witness_rejects_an_instance_that_solve_rejects(tmp_path, capsys, field, value):
    """The instance is checked before the witness is replayed, as ``solve`` checks it."""
    doc = serialize.dsr_to_json(
        DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({0, 2}), JUMP))
    doc[field] = value
    ipath = write(tmp_path, "i.json", doc)
    wpath = write(tmp_path, "w.json", witness_doc([[0, 1], [0, 2]]))
    for argv in (["solve", ipath], ["verify-witness", ipath, wpath]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv


def test_verify_witness_rejects_a_second_file_of_another_kind(tmp_path, capsys):
    inst = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE)
    ipath = write(tmp_path, "i.json", serialize.dsr_to_json(inst))
    code = main(["verify-witness", ipath, ipath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "witness document" in captured.err


@pytest.mark.parametrize("field,what", [("source", "source"), ("target", "target"),
                                        ("core", "core"), ("partition", "partition part")])
def test_an_instance_that_lists_a_vertex_twice_is_malformed(tmp_path, capsys, field, what):
    """A list read into a set would drop the repeat: ``solve`` on source
    [1, 1] at k = 1 answered as if it read [1]."""
    doc = serialize.dsr_to_json(DsrInstance(path_graph(3), 1, frozenset({1}), frozenset({1}),
                                            core=frozenset({0, 1, 2}),
                                            partition=(frozenset({0, 1, 2}),)))
    ipath = write(tmp_path, "ok.json", doc)
    assert main(["solve", ipath]) == 0
    capsys.readouterr()
    if field == "partition":
        doc["partition"] = [doc["partition"][0] + [1]]
    else:
        doc[field] = doc[field] + [1]
    ipath = write(tmp_path, "i.json", doc)
    code = main(["solve", ipath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{what} lists vertex 1 twice" in captured.err


@pytest.mark.parametrize("source,target,configs", [
    ({1}, {1}, [[1, 1]]),
    ({0, 1}, {1, 2}, [[0, 1], [1, 1], [1, 2]]),
], ids=["k1", "k2"])
def test_a_witness_that_lists_a_vertex_twice_is_malformed(tmp_path, capsys, source, target,
                                                          configs):
    """[1, 1] read as {1} was a valid witness at k = 1 (exit 0) and a wrong
    size at k = 2 (exit 1); either way the document itself is malformed."""
    inst = DsrInstance(path_graph(3), len(source), frozenset(source), frozenset(target))
    ipath = write(tmp_path, "i.json", serialize.dsr_to_json(inst))
    wpath = write(tmp_path, "w.json", {"kind": "witness", "version": 1, "configs": configs})
    code = main(["verify-witness", ipath, wpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "witness configuration lists vertex 1 twice" in captured.err


def test_unknown_construction_lists_every_construction(tmp_path, capsys):
    from reconflab.reductions import CONSTRUCTIONS

    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code = main(["verify-reduction", path, "--construction", "nope"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'nope'" in captured.err and len(CONSTRUCTIONS) == 8
    assert all(name in captured.err for name in CONSTRUCTIONS)


def test_unknown_target_kind_lists_every_target(tmp_path, capsys):
    from reconflab.reductions import CONSTRUCTIONS

    path = write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5)))
    code = main(["reduce", path, "--to", "nope", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'nope'" in captured.err
    assert all(con.to in captured.err for con in CONSTRUCTIONS.values())


def test_reduce_names_a_witness_input_by_its_kind(tmp_path, capsys):
    path = write(tmp_path, "w.json", witness_doc([[0, 1], [1, 2]]))
    code = main(["reduce", path, "--to", "tape"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: no reduction from witness to tape\n"


def test_gen_graph_deterministic(tmp_path, capsys):
    code1, doc1 = run(capsys, "gen", "graph", "--seed", "11", "--n", "6",
                      "--constraint", "connected")
    code2, doc2 = run(capsys, "gen", "graph", "--seed", "11", "--n", "6",
                      "--constraint", "connected")
    assert code1 == code2 == 0 and doc1 == doc2
    g = serialize.decode(doc1)
    assert g.is_connected()


def test_gen_tape_valid(tmp_path, capsys):
    code, doc = run(capsys, "gen", "tape", "--seed", "3", "--tapes", "2",
                    "--cells", "3", "--sigma", "2", "--sync")
    assert code == 0
    inst = serialize.decode(doc)
    from reconflab.tapes import validate_instance

    assert validate_instance(inst) == []


def _generated_sync_tape(capsys):
    code, doc = run(capsys, "gen", "tape", "--seed", "3", "--tapes", "2",
                    "--cells", "3", "--sigma", "2", "--sync")
    assert code == 0
    return doc


def test_solve_tape_rejects_missing_cell_number(tmp_path, capsys):
    doc = _generated_sync_tape(capsys)
    del doc["tapes"][0]["number"]["1"]
    code, out = run(capsys, "solve-tape", write(tmp_path, "t.json", doc))
    assert code == 2 and out is None


def test_solve_tape_rejects_letters_outside_the_alphabet(tmp_path, capsys):
    doc = _generated_sync_tape(capsys)
    doc["tapes"][0]["content"]["0"] = [0, 1, 5]
    code, out = run(capsys, "solve-tape", write(tmp_path, "t.json", doc))
    assert code == 2 and out is None


def _three_cell_tape_doc():
    """One path tape over two letters, cells {0, 1}, {1}, {0, 1}."""
    return serialize.tape_instance_to_json(TapeInstance(2, (path_tape([3, 2, 3]),), (0,), (2,)))


def test_solve_tape_rejects_a_letter_listed_twice_on_a_cell(tmp_path, capsys):
    """[0, 1, 0, 1] decoded like [0, 1], and solve-tape answered on it."""
    doc = _three_cell_tape_doc()
    doc["tapes"][0]["content"]["0"] = [0, 1, 0, 1]
    code = main(["solve-tape", write(tmp_path, "t.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cell 0 lists letter 0 twice" in captured.err


@pytest.mark.parametrize("key, cell", [("00", 0), ("+0", 0), (" 1", 1)])
def test_solve_tape_rejects_a_content_key_that_is_not_a_cell_id(tmp_path, capsys, key, cell):
    """Such a key was read with ``int`` and its letters merged into the cell
    the canonical key names."""
    doc = _three_cell_tape_doc()
    doc["tapes"][0]["content"][key] = [0]
    code = main(["solve-tape", write(tmp_path, "t.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"content key {key!r} is not the id of cell {cell}" in captured.err


@pytest.mark.parametrize("content", [[[0, 1], [1], [0, 1]], [0, 1, 2]])
def test_solve_tape_rejects_content_that_is_not_an_object(tmp_path, capsys, content):
    """A list's items are not content keys, so no key is named in the error."""
    doc = _three_cell_tape_doc()
    doc["tapes"][0]["content"] = content
    code = main(["solve-tape", write(tmp_path, "t.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: bad tape-instance document: ")


@pytest.mark.parametrize("key, message", [
    ("00", "number key '00' is not the id of cell 0"),
    (" 1", "number key ' 1' is not the id of cell 1"),
    ("7", "tape numbering names unknown cells [7]"),
    ("-1", "tape numbering names unknown cells [-1]"),
])
def test_solve_tape_rejects_a_number_key_that_names_no_cell(tmp_path, capsys, key, message):
    """The decoder read each cell's canonical key and ignored any other."""
    doc = serialize.tape_instance_to_json(TapeInstance(
        2, (path_tape([3, 2, 3], number=[1, 2, 3]),), (0,), (2,), sync=True, r=3))
    doc["tapes"][0]["number"][key] = 1
    code = main(["solve-tape", write(tmp_path, "t.json", doc)])
    assert code == 2 and capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("labels, key, vertex", [
    ({"0": "a", "00": "b"}, "00", 0), ({" 1": "a"}, " 1", 1),
])
def test_solve_rejects_a_label_key_that_is_not_a_vertex_id(tmp_path, capsys, labels, key, vertex):
    """``int`` read "00" as vertex 0, so two labels collapsed into one."""
    doc = serialize.dsr_to_json(DsrInstance(path_graph(2), 1, frozenset({0}), frozenset({1})))
    doc["graph"]["labels"] = labels
    code = main(["solve", write(tmp_path, "i.json", doc)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: label key {key!r} is not the id of vertex {vertex}\n")


def test_multi_decoder_rejects_letters_outside_the_alphabet():
    multi = MultiTapeInstance(1, ((path_tape([1]), path_tape([0])),))
    doc = serialize.multi_to_json(multi)
    doc["tuples"][0][1]["content"] = {"0": [1]}
    with pytest.raises(MalformedInput):
        serialize.decode(doc)


def test_solve_tape_rejects_disconnected_cells(tmp_path, capsys):
    doc = _generated_sync_tape(capsys)
    doc["tapes"][1]["cells"]["edges"] = []
    code, out = run(capsys, "solve-tape", write(tmp_path, "t.json", doc))
    assert code == 2 and out is None


def test_solve_tape_rejects_synchronized_tape_without_modulus(tmp_path, capsys):
    doc = _generated_sync_tape(capsys)
    del doc["r"]
    code, out = run(capsys, "solve-tape", write(tmp_path, "t.json", doc))
    assert code == 2 and out is None


def test_solve_tape_rejects_modulus_zero(tmp_path, capsys):
    doc = _generated_sync_tape(capsys)
    doc["r"] = 0
    code, out = run(capsys, "solve-tape", write(tmp_path, "t.json", doc))
    assert code == 2 and out is None


@pytest.mark.parametrize("command", [["reduce", "--to", "tape"], ["reduce-tapes"]])
def test_reduce_rejects_modulus_zero(tmp_path, capsys, command):
    doc = _generated_sync_tape(capsys)
    doc["r"] = 0
    code, out = run(capsys, command[0], write(tmp_path, "t.json", doc), *command[1:])
    assert code == 2 and out is None


@pytest.mark.parametrize("command", [["reduce", "--to", "tape"], ["reduce", "--to", "path-tape"],
                                     ["verify-reduction", "--construction", "triangle"],
                                     ["verify-reduction", "--construction", "path"]])
def test_desynchronizing_no_tapes_exits_2(tmp_path, capsys, command):
    """A synchronized instance without tapes is valid (the empty configuration
    covers the empty alphabet), but its heads share no number to desynchronize."""
    doc = {"kind": "tape-instance", "version": 1, "sigma": 0, "tapes": [], "cs": [], "ct": [],
           "sync": True, "r": 4}
    code = main([command[0], write(tmp_path, "z.json", doc), *command[1:]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: input has no tapes\n")


@pytest.mark.parametrize("command, code", [
    (["reduce", "--to", "path-tape"], 2), (["verify-reduction", "--construction", "path"], 2),
    (["reduce", "--to", "tape"], 0), (["verify-reduction", "--construction", "triangle"], 0),
])
def test_desynchronizing_a_wrapping_path(tmp_path, capsys, command, code):
    """One path numbered [1, 6] under modulus 6: the path desynchronizer
    refuses it, as its phase head would have to jump, and the triangle keeps
    the answer."""
    inst = TapeInstance(1, (path_tape([1, 1], number=[1, 6]),), (0,), (1,), sync=True, r=6)
    path = write(tmp_path, "w.json", serialize.tape_instance_to_json(inst))
    assert main([command[0], path, *command[1:]]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", "error: tape 0 numbering climbs by more than 1 between "
                                  "adjacent cells\n")
    elif command[0] == "verify-reduction":
        assert json.loads(out)["agree"] is True


@pytest.mark.parametrize("command, kind", [
    ("solve", "dsr-instance"), ("solve-tape", "tape-instance"), ("verify-reduction", "tape-instance"),
])
def test_negative_state_cap_exits_2(tmp_path, capsys, command, kind):
    """A negative cap is malformed input, not a cap reached after -1
    configurations, nor no cap at all on a short search."""
    doc = next(doc for doc in _envelopes() if doc["kind"] == kind)
    options = ["--construction", "triangle"] if command == "verify-reduction" else []
    assert main([command, write(tmp_path, "in.json", doc), *options, "--state-cap", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: argument --state-cap: state cap -1 is negative\n")


def test_acceptance_reports_every_criterion_of_the_one_fixed_run(capsys):
    """The counts are fixed: the suite has no option, so the report is
    ``run_all``'s, in criterion order, and any option is refused."""
    from reconflab.acceptance import run_all

    code, out = run(capsys, "acceptance")
    assert code == 0 and out["kind"] == "acceptance-report" and out["allPassed"] is True
    assert [r["criterion"] for r in out["results"]] == [f"C{i:02d}" for i in range(1, 11)]
    assert [r["details"] for r in out["results"]] == [r.details for r in run_all()]
    for option in (["--quick"], ["--trials", "5"]):
        assert main(["acceptance", *option]) == 2
        assert capsys.readouterr().out == ""


def _sync_multi_doc():
    from reconflab.reductions import ds_to_sync_multi

    return serialize.multi_to_json(ds_to_sync_multi(cycle_graph(5), 2))


def test_solve_tape_rejects_synchronized_multi_without_modulus(tmp_path, capsys):
    doc = _sync_multi_doc()
    del doc["r"]
    code, out = run(capsys, "solve-tape", write(tmp_path, "m.json", doc))
    assert code == 2 and out is None


def test_solve_tape_rejects_synchronized_multi_without_numbers(tmp_path, capsys):
    doc = _sync_multi_doc()
    code, out = run(capsys, "solve-tape", write(tmp_path, "m.json", doc))
    assert code == 0 and out["positive"] is True
    for tup in doc["tuples"]:
        for tape in tup:
            del tape["number"]
    code, out = run(capsys, "solve-tape", write(tmp_path, "m.json", doc))
    assert code == 2 and out is None


def _valid_documents():
    tape = TapeInstance(1, (path_tape([1, 1]),), (0,), (1,))
    dsr = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE)
    phi = NormalizedFormula(2, ("and", (("or", (("var", 0), ("var", 1))),)))
    return {"tape": serialize.tape_instance_to_json(tape), "dsr": serialize.dsr_to_json(dsr),
            "formula": serialize.formula_to_json(phi)}


_COMMAND = {"tape": ["solve-tape"], "dsr": ["solve"],
            "formula": ["reduce", "--to", "multi-tape", "--k", "1"]}


@pytest.mark.parametrize("kind,path,value", [
    ("tape", ("sigma",), None),
    ("tape", ("tapes",), 5),
    ("tape", ("tapes", 0, "cells"), []),
    ("dsr", ("k",), None),
    ("dsr", ("source",), 5),
    ("dsr", ("graph",), "x"),
    ("formula", ("tree",), ["var"]),
], ids=["tape-sigma-null", "tape-tapes-int", "tape-cells-list", "dsr-k-null",
        "dsr-source-int", "dsr-graph-string", "formula-var-without-index"])
def test_badly_typed_field_exits_2(tmp_path, capsys, kind, path, value):
    doc = _valid_documents()[kind]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    command, *options = _COMMAND[kind]
    code, out = run(capsys, command, write(tmp_path, "bad.json", doc), *options)
    assert code == 2 and out is None


@pytest.mark.parametrize("argv", [
    ["graph", "--constraint", "bogus"],
    ["graph", "--constraint", "k3d-free:x"],
    ["graph", "--constraint", "k3d-free:0"],
    ["tape", "--cells", "0"],
    ["tape", "--sigma", "-1"],
    ["tape", "--sync", "--tapes", "0"],
    ["graph", "--edge-prob", "nan", "--constraint", "connected"],
    ["graph", "--edge-prob", "-1"],
    ["graph", "--edge-prob", "2"],
], ids=["unknown-constraint", "width-not-an-integer", "width-zero", "no-cells",
        "negative-sigma", "sync-without-tapes", "edge-prob-nan", "edge-prob-negative",
        "edge-prob-above-one"])
def test_gen_rejects_bad_parameters(capsys, argv):
    """Exit 2 with one error line: main() no longer maps a bare ValueError,
    so the generators raise MalformedInput on what they cannot build from."""
    assert main(["gen", *argv, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["solve", str(p)]) == 2


_UNREADABLE = {
    "long-integer": b"1" + b"0" * 5000,
    "deep-nesting": b"[" * 5000 + b"]" * 5000,
    "not-utf8": b'{"kind": "\xff"}',
}


@pytest.mark.parametrize("content", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
def test_a_file_the_json_reader_cannot_read_exits_2(tmp_path, capsys, content):
    """Python's int-digit limit, its recursion limit and a byte that is not
    UTF-8 make ``json.load`` raise a ValueError or RecursionError other than a
    syntax error; each is malformed input, in either file slot."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    inst = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE)
    ipath = write(tmp_path, "i.json", serialize.dsr_to_json(inst))
    for argv in (["solve", str(bad)], ["verify-witness", ipath, str(bad)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: "), argv


def test_state_cap_exits_3(tmp_path, capsys):
    from reconflab.graphs import complete_graph

    inst = DsrInstance(complete_graph(8), 2, frozenset({0, 1}), frozenset({6, 7}), "jump")
    path = write(tmp_path, "big.json", serialize.dsr_to_json(inst))
    assert main(["solve", path, "--state-cap", "2"]) == 3


def test_irreducibility_counts_its_mask_pairs_against_the_enumeration_cap(tmp_path, capsys,
                                                                        monkeypatch):
    """21 letters on one cell reduce: the alphabet's size is no cap.  The
    7-tape seed-0 artifact's search tries 1,306 (stored mask, cell mask)
    pairs, past an enumeration cap of 1,000."""
    from reconflab import graphs
    from reconflab.generators import gen_random_tape_instance
    from reconflab.reductions import desynchronize_triangle

    sigma = 21
    inst = TapeInstance(sigma, (path_tape([(1 << sigma) - 1]),), (0,), (0,))
    path = write(tmp_path, "wide.json", serialize.tape_instance_to_json(inst))
    assert main(["reduce", path, "--to", "ts-dsr"]) == 0
    capsys.readouterr()
    art = desynchronize_triangle(gen_random_tape_instance(0, tapes=7, cells=2, sigma=2, sync=True))
    path = write(tmp_path, "art.json", serialize.tape_instance_to_json(art))
    monkeypatch.setattr(graphs, "ENUM_CAP", 1_000)
    assert main(["reduce", path, "--to", "ts-dsr"]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: ")


def test_a_tape_covering_every_letter_makes_a_wide_source_reducible(tmp_path, capsys):
    """One more tape whose one cell holds all 23 letters covers the alphabet
    with fewer cells than tapes, so the sliding reduction refuses it."""
    from dataclasses import replace

    from reconflab.generators import gen_random_tape_instance
    from reconflab.reductions import desynchronize_triangle
    from reconflab.tapes import is_irreducible

    art = desynchronize_triangle(gen_random_tape_instance(0, tapes=7, cells=2, sigma=2, sync=True))
    mutant = replace(art, tapes=art.tapes + (path_tape([(1 << art.sigma) - 1]),),
                     cs=art.cs + (0,), ct=art.ct + (0,))
    assert is_irreducible(art) and not is_irreducible(mutant)
    path = write(tmp_path, "mutant.json", serialize.tape_instance_to_json(mutant))
    assert main(["reduce", path, "--to", "ts-dsr"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "irreducible" in captured.err


@pytest.mark.parametrize("command, doc", [
    (["reduce", "--to", "sync-multi", "--k", "2"], serialize.graph_to_json(path_graph(4))),
    (["verify-reduction", "--construction", "dominating-set", "--k", "2"],
     serialize.graph_to_json(path_graph(4))),
    (["reduce", "--to", "multi-tape", "--k", "4"],
     serialize.formula_to_json(NormalizedFormula(2, ("and", (("or", (("var", 0), ("var", 1))),))))),
], ids=["reduce-dominating-set", "verify-dominating-set", "reduce-formula"])
def test_token_budget_past_the_tape_cap_exits_3(tmp_path, capsys, monkeypatch, command, doc):
    """k copies of one tape per vertex (dominating set) or per variable
    (formula) pass a vertex cap of 7 at 8 tapes; none is built."""
    from reconflab import graphs, reductions

    monkeypatch.setattr(graphs, "VERTEX_CAP", 7)
    monkeypatch.setattr(reductions, "path_tape", None)
    assert main([command[0], write(tmp_path, "in.json", doc), *command[1:]]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: ")


def test_composed_formula_past_the_tape_cap_exits_3(tmp_path, capsys, monkeypatch):
    """Four one-clause base cases under one or, of k * nvars = 2 tapes each,
    pass a vertex cap of 7 together though each alone fits; none is built."""
    from reconflab import graphs, reductions

    bases = tuple(("and", (("or", (("var", i % 2),)),)) for i in range(4))
    phi = NormalizedFormula(2, ("and", (("or", bases),)))
    monkeypatch.setattr(graphs, "VERTEX_CAP", 7)
    monkeypatch.setattr(reductions, "path_tape", None)
    path = write(tmp_path, "phi.json", serialize.formula_to_json(phi))
    assert main(["reduce", path, "--to", "multi-tape", "--k", "1"]) == 3
    assert capsys.readouterr().err == "cap exceeded: 8 tapes exceed the cap of 7\n"


def _nested_formula_text(depth: int) -> str:
    """A one-variable formula document nested ``depth`` and/or levels deep,
    written as text: the JSON encoder recurses once per list."""
    ops = ["and" if level % 2 == 0 else "or" for level in range(depth)]
    tree = "".join(f'["{op}", [' for op in ops) + '["var", 0]' + "]]" * depth
    return '{"kind": "formula", "version": 1, "vars": 1, "tree": ' + tree + "}"


@pytest.mark.parametrize("command", [
    ["reduce", "--to", "multi-tape", "--k", "1"],
    ["verify-reduction", "--construction", "formula", "--k", "0"],
], ids=["reduce", "verify-reduction"])
def test_formula_nested_past_the_depth_cap_exits_3(tmp_path, capsys, command):
    """330 levels passed the JSON reader and then overflowed Python's stack in
    the recursive tree walks; the cap refuses them before any walk."""
    from reconflab.reductions import FORMULA_DEPTH_CAP

    path = tmp_path / "deep.json"
    path.write_text(_nested_formula_text(330))
    assert main([command[0], str(path), *command[1:]]) == 3
    assert capsys.readouterr() == ("", f"cap exceeded: formula nested deeper than the cap of "
                                       f"{FORMULA_DEPTH_CAP} and/or levels\n")


@pytest.mark.parametrize("doc", [
    serialize.tape_instance_to_json(TapeInstance(1, (path_tape([1]),), (0,), (0,))),
    serialize.multi_to_json(MultiTapeInstance(1, ((path_tape([1]),),))),
], ids=["tape-instance", "multi-tape-instance"])
def test_alphabet_is_capped_before_any_letter_is_decoded(tmp_path, capsys, monkeypatch, doc):
    """A letter below a huge sigma would be decoded into a mask of that many bits."""
    from reconflab.errors import SizeCapExceeded
    from reconflab.tapes import ALPHABET_CAP

    def unreachable(raw, sigma):
        raise AssertionError("a tape was decoded before the alphabet was checked")

    doc = {**doc, "sigma": ALPHABET_CAP + 1}
    monkeypatch.setattr(serialize, "tapes_from_json", unreachable)
    with pytest.raises(SizeCapExceeded):
        serialize.decode(doc)
    assert main(["solve-tape", write(tmp_path, "t.json", doc)]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: ")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in SUBCOMMANDS), [], ["--help"], ["frobnicate"], ["solve"],
    ["verify-witness", "i.json"], ["gen"], ["reduce", "i.json"], ["solve", "i.json", "--bogus"],
    ["kernelize", "i.json", "extra"], ["solve", "i.json", "--state-cap", "-1"],
    ["verify-reduction", "i.json", "--construction", "x", "--state-cap", "ten"],
], ids=" ".join)
def test_one_subparser_parses_as_the_full_tree(capsys, argv):
    """``main`` builds only the subparser ``argv[0]`` names; help, usage and
    errors match the full tree's, whose usage line lists every subcommand."""
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    assert main(argv) == (2 if full.value.code else 0)
    assert capsys.readouterr() == (out, err)
    if "unrecognized arguments" in err:
        assert err.startswith("usage: reconflab [-h]") and "{" + ",".join(SUBCOMMANDS) + "}" in err
    if argv and argv[0] in SUBCOMMANDS:
        sub = next(a for a in build_parser(argv[0])._actions if a.dest == "command")
        assert list(sub.choices) == [argv[0]]


# --------------------------------------------------------------- size fields bounded at entry

_HUGE = 10**11


def _huge_graph(doc):
    doc["graph"]["n"] = _HUGE
    return doc


def _huge_cells(doc):
    doc["tapes"][0]["cells"]["n"] = _HUGE
    return doc


_TAPE = TapeInstance(2, (path_tape([1, 3, 2]), path_tape([2, 1])), (0, 0), (2, 1))


@pytest.mark.parametrize("command, doc", [
    (["solve-tape"], {**serialize.tape_instance_to_json(_TAPE), "sigma": _HUGE}),
    (["solve"], _huge_graph(serialize.dsr_to_json(
        DsrInstance(path_graph(3), 1, frozenset({1}), frozenset({1}))))),
    (["kernelize"], _huge_graph(serialize.dcr_to_json(
        DcrInstance(path_graph(3), 1, frozenset({1}), frozenset({1}), d=2)))),
    (["verify-reduction", "--construction", "dominating-set", "--k", "2"],
     {**serialize.graph_to_json(cycle_graph(5)), "n": _HUGE}),
    (["solve-tape"], _huge_cells(serialize.tape_instance_to_json(_TAPE))),
    (["gen", "graph", "--seed", "1", "--n", str(_HUGE)], None),
    (["gen", "tape", "--seed", "1", "--cells", str(_HUGE)], None),
    (["gen", "tape", "--seed", "1", "--tapes", str(_HUGE), "--cells", "2"], None),
    (["gen", "tape", "--seed", "1", "--tapes", "60", "--cells", "3"], None),
], ids=["solve-tape-sigma", "solve-graph-n", "kernelize-graph-n",
        "verify-reduction-graph-n", "solve-tape-cells-n", "gen-graph-n", "gen-tape-cells",
        "gen-tape-tapes", "gen-tape-head-configurations"])
def test_huge_size_field_exits_3_before_allocating(tmp_path, command, doc):
    """A size field of 10**11, in a document or a ``gen`` parameter, hits the
    vertex or alphabet cap before any allocation, and ``gen tape`` with more
    head configurations than ``graphs.ENUM_CAP`` hits that cap before listing
    them; the child's 1.5 GB address-space limit makes an allocation of that
    size fail at once instead of taking the machine's memory."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    argv = command if doc is None else [command[0], write(tmp_path, "huge.json", doc),
                                         *command[1:]]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "reconflab.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=limit, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("cap exceeded: ")


# --------------------------------------------------------------- modules a cold call loads

# Runs main() in a fresh interpreter and reports, on stderr's last line, the
# reconflab modules left in sys.modules.
_CHILD = ("import sys\n"
          "from reconflab.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules\n"
          "                      if m.startswith('reconflab.'))), file=sys.stderr)\n"
          "sys.exit(code)\n")


def _cold_modules(argv) -> set[str]:
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_each_subcommand_loads_only_its_modules(tmp_path):
    """One fresh call per subcommand that the cli-calls benchmark times: a
    new top-level import in ``cli`` or ``serialize`` shows up here."""
    dsr = DsrInstance(path_graph(3), 2, frozenset({0, 1}), frozenset({1, 2}), SLIDE)
    dsr_path = write(tmp_path, "dsr.json", serialize.dsr_to_json(dsr))
    tape = TapeInstance(2, (path_tape([1, 3, 2]), path_tape([2, 1])), (0, 0), (2, 1))
    tape_path = write(tmp_path, "tape.json", serialize.tape_instance_to_json(tape))
    sync = TapeInstance(2, (path_tape([3, 1], number=[1, 2]), path_tape([0, 2], number=[1, 2])),
                        (0, 0), (1, 1), sync=True, r=2)
    dcr = DcrInstance(path_graph(5), 2, frozenset({1, 3}), frozenset({1, 3}), d=2)
    base = {"cli", "serialize", "dsr", "graphs", "errors"}
    cases = {
        "solve": (["solve", dsr_path], base),
        "verify-witness": (["verify-witness", dsr_path,
                            write(tmp_path, "w.json", witness_doc(solve(dsr).witness))], base),
        "solve-tape": (["solve-tape", tape_path], base | {"tapes"}),
        "kernelize": (["kernelize", write(tmp_path, "dcr.json", serialize.dcr_to_json(dcr))],
                      base | {"kernel"}),
        "reduce": (["reduce", write(tmp_path, "sync.json", serialize.tape_instance_to_json(sync)),
                    "--to", "tape"], base | {"tapes", "reductions"}),
        "verify-reduction": (["verify-reduction",
                              write(tmp_path, "g.json", serialize.graph_to_json(cycle_graph(5))),
                              "--construction", "dominating-set", "--k", "2"],
                             base | {"tapes", "reductions"}),
        "reduce-tapes": (["reduce-tapes", tape_path], base | {"tapes", "tape_reduce"}),
        "gen": (["gen", "graph", "--seed", "5", "--n", "6", "--constraint", "connected"],
                base | {"generators"}),
    }
    loaded = {name: _cold_modules(argv) for name, (argv, _) in cases.items()}
    assert loaded == {name: expected for name, (_, expected) in cases.items()}


# --------------------------------------------------------------- round-trip properties

from hypothesis import given, settings, strategies as st  # noqa: E402


@given(st.integers(0, 2**15 - 1))
@settings(max_examples=40, deadline=None)
def test_random_instances_roundtrip_canonically(seed):
    from reconflab.generators import (
        gen_random_dsr_instance,
        gen_random_multi,
        gen_random_tape_instance,
    )

    tape = gen_random_tape_instance(seed, tapes=2, cells=3, sigma=2)
    multi = gen_random_multi(seed, tuples=2, members=2, cells=3)
    dsr = gen_random_dsr_instance(seed)
    for obj in (tape, multi, dsr):
        doc = serialize.encode(obj)
        assert serialize.decode(doc) == obj
        # canonical: dump -> load -> dump is byte-stable
        dumped = serialize.canonical_dumps(doc)
        assert serialize.canonical_dumps(serialize.encode(serialize.decode(json.loads(dumped)))) == dumped


def _envelopes():
    """One valid envelope of every kind that ``decode`` reads."""
    from reconflab.reductions import ds_to_sync_multi

    sync = TapeInstance(2, (path_tape([3, 1], number=[1, 2]), path_tape([0, 2], number=[1, 2])),
                        (0, 0), (1, 1), sync=True, r=2)
    dsr = DsrInstance(path_graph(4), 2, frozenset({0, 2}), frozenset({1, 3}), SLIDE,
                      core=frozenset({0, 1, 2, 3}), partition=(frozenset({0, 1}), frozenset({2, 3})))
    dcr = DcrInstance(path_graph(3), 1, frozenset({1}), frozenset({1}), d=2, core=frozenset({0, 1}))
    return [
        serialize.graph_to_json(Graph(3, [(0, 1)], labels={2: "hub"})),
        serialize.tape_instance_to_json(sync),
        serialize.multi_to_json(ds_to_sync_multi(path_graph(3), 1)),
        serialize.dsr_to_json(dsr),
        serialize.dcr_to_json(dcr),
        _valid_documents()["formula"],
        {"kind": "witness", "version": 1, "configs": [[0, 2], [1, 2]]},
    ]


def _field_paths(node, prefix=()):
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


_MISSING = object()


def _mutate(data, doc) -> None:
    """Set one drawn field of ``doc`` to a drawn value, or delete it."""
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    value = data.draw(st.sampled_from([None, 0, 7, -1, "x", [], [0], {}, _MISSING]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value


@given(st.data())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_decode_of_a_mutated_envelope_returns_or_rejects(data):
    from reconflab.dsr import validate_instance as validate_dsr
    from reconflab.tapes import validate_instance, validate_multi

    doc = data.draw(st.sampled_from(_envelopes()))
    _mutate(data, doc)
    try:
        obj = serialize.decode(doc)
    except MalformedInput:
        return
    # what decodes must also get through the solvers' entry checks
    if isinstance(obj, TapeInstance):
        assert isinstance(validate_instance(obj), list)
    elif isinstance(obj, MultiTapeInstance):
        assert isinstance(validate_multi(obj), list)
    elif isinstance(obj, DsrInstance):
        try:
            validate_dsr(obj)
        except MalformedInput:
            pass


# --------------------------------------------------------------- CLI-level properties

# The document kinds each subcommand reads, one per input file, and the options
# it always gets.  ``acceptance`` reads no file and runs the whole suite, so it
# is left out; ``reduce`` and ``verify-reduction`` read their construction's
# source kind.
_CLI_INPUTS = {
    "solve": (["dsr-instance"], ["--witness", "--state-cap", "300"]),
    "solve-tape": (["tape-instance"], ["--witness", "--state-cap", "300"]),
    "reduce-tapes": (["tape-instance"], []),
    "kernelize": (["dcr-instance"], []),
    "verify-witness": (["dsr-instance", "witness"], []),
}


def _construction_case(data, command):
    """Input kinds and options of one ``reduce`` or ``verify-reduction`` call."""
    from reconflab.reductions import CONSTRUCTIONS

    kind_of = {type(serialize.decode(doc)).__name__: doc["kind"] for doc in _envelopes()}
    name = data.draw(st.sampled_from([*CONSTRUCTIONS, "nope"]))
    con = CONSTRUCTIONS.get(name, CONSTRUCTIONS["dominating-set"])
    if command == "reduce":
        options = ["--to", con.to if name in CONSTRUCTIONS else name]
    else:
        options = ["--construction", name, "--state-cap", "300"]
    k = data.draw(st.sampled_from(["1", "2", "0", "-1", None]))
    return [kind_of[con.source.__name__]], options + ([] if k is None else ["--k", k])


def _gen_argv(data):
    seed = str(data.draw(st.integers(0, 50)))
    if data.draw(st.booleans()):
        return ["gen", "graph", "--seed", seed, "--n", str(data.draw(st.integers(-1, 6))),
                "--constraint", data.draw(st.sampled_from(
                    ["none", "connected", "k3d-free:2", "connected-k3d-free:1", "bogus"]))]
    argv = ["gen", "tape", "--seed", seed]
    for option in ("--tapes", "--cells", "--sigma"):
        argv += [option, str(data.draw(st.integers(-1, 3)))]
    return argv + (["--sync"] if data.draw(st.booleans()) else [])


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_cli_on_mutated_inputs_exits_cleanly(data):
    """Every subcommand, on one of its natural inputs or on a document of
    another kind, possibly with one field mutated, ends in a documented exit
    code without a traceback; only the verifiers report a negative answer."""
    import contextlib
    import io
    import tempfile

    command = data.draw(st.sampled_from(
        [*_CLI_INPUTS, "reduce", "verify-reduction", "gen"]))
    with tempfile.TemporaryDirectory() as tmp:
        if command == "gen":
            argv = _gen_argv(data)
        else:
            kinds, options = (_CLI_INPUTS[command] if command in _CLI_INPUTS
                              else _construction_case(data, command))
            envelopes = {doc["kind"]: doc for doc in _envelopes()}
            argv = [command]
            for i, kind in enumerate(kinds):
                if data.draw(st.booleans()):  # a document of any kind in this slot
                    kind = data.draw(st.sampled_from(sorted(envelopes)))
                doc = envelopes[kind]
                if data.draw(st.booleans()):
                    _mutate(data, doc)
                argv.append(os.path.join(tmp, f"in{i}.json"))
                with open(argv[-1], "w") as fh:
                    json.dump(doc, fh)
            argv += options
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert command in ("verify-witness", "verify-reduction"), argv
    if code in (0, 1):
        assert json.loads(out.getvalue())["kind"]
    else:
        assert out.getvalue() == "" and err.getvalue(), argv
