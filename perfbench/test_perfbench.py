"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter

import pytest

import run
from spans import NULL, Tracer

run.import_program()

import workloads  # noqa: E402  (needs reconflab on the path first)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
OTHER_SEED = 7


def first_outcomes(items, count):
    out = []
    for item in items[:count]:
        o = item.run(NULL)
        out.append((item.id, o.answer, o.witness_len, sorted(o.counts.items()), o.problems))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs_and_counts(name):
    counts_a, counts_b = Counter(), Counter()
    items_a, digest_a = workloads.build(name, OTHER_SEED, NULL, counts_a)
    items_b, digest_b = workloads.build(name, OTHER_SEED, NULL, counts_b)
    assert digest_a == digest_b
    assert counts_a == counts_b
    assert [i.id for i in items_a] == [i.id for i in items_b]
    assert first_outcomes(items_a, 12) == first_outcomes(items_b, 12)
    _, digest_c = workloads.build(name, OTHER_SEED + 1, NULL, Counter())
    assert digest_c != digest_a


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_golden_file_agrees(name):
    items, digest = workloads.build(name, run.DEFAULT_SEED, NULL, Counter())
    r = run.Run(items)
    for item in items:
        r.execute(item, traced=False, first=True)
    assert r.errors == []
    assert run.golden_mismatches(r, name, digest) == []


def bench(name, trace, seconds=1):
    """Exit code, result line and report line of one short run at OTHER_SEED."""
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(OTHER_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_second_seed_runs_without_failures(name):
    code, result, report = bench(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (code, result["correct"], result["failed"]) == (0, True, 0), report["errors"]
    assert result["attempted"] >= len(workloads.build(name, OTHER_SEED, NULL, Counter())[0])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    _, result, _ = bench("tape-pipeline", trace=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["tapes.solve_tape.busy_s"]["value"] > 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    outer = tr.begin("outer")
    tr.call("inner", sum, range(1000))
    tr.end(outer)
    spans = {name: (end - start) for name, start, end, _, _ in tr.spans}
    self_times = tr.self_times()
    assert self_times["inner"] == pytest.approx(spans["inner"])
    assert self_times["outer"] == pytest.approx(spans["outer"] - spans["inner"])


def test_failures_are_attributed_to_the_raising_layer():
    from reconflab import dsr
    from reconflab.errors import MalformedInput
    from reconflab.graphs import path_graph

    bad = dsr.DsrInstance(path_graph(3), 1, frozenset({0}), frozenset({2}))
    with pytest.raises(MalformedInput) as info:
        dsr.solve(bad)
    assert run.failing_layer(info.value) == "dsr"
    assert run.failing_layer(ValueError("benchmark side")) == "check"


def test_kernelize_keeps_the_answer_when_the_zero_class_is_empty():
    """A defect of ``reconflab.kernel``, and the reason ``tape-pipeline`` has no
    kernel items: this test fails until ``kernelize`` is fixed.

    Here every vertex outside the core has a neighbour in it (the 0-class is
    empty), yet ``add-universal`` still adds a hub next to 3 and 5, which lets
    the token on 4 reach 2 without passing 1.  The full vertex set is a core,
    so ``solve_dcr`` on it is the instance's true answer.
    """
    from dataclasses import replace

    from reconflab.graphs import Graph
    from reconflab.kernel import K3D_FREE, DcrInstance, solve_dcr, solve_via_kernel

    g = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)])
    inst = DcrInstance(g, 2, frozenset({1, 4}), frozenset({1, 2}), d=2, family=K3D_FREE)
    direct = solve_dcr(replace(inst, core=frozenset(range(g.n))))
    assert direct.reachable is False
    assert solve_via_kernel(inst).reachable == direct.reachable
