import hashlib
import random

import pytest

from reconflab.decomposition import verify_decomposition
from reconflab.dsr import JUMP, DsrInstance
from reconflab.errors import MalformedInput
from reconflab.graphs import cycle_graph
from reconflab.reductions import (
    desynchronize_triangle,
    partitioned_dsr_to_sync_stars,
    tape_to_ts_dsr,
)
from reconflab.tapes import extended_graph, path_tape, TapeInstance
from reconflab.widths import derive_decomposition

import tests.test_reductions as helpers


def stars_artifact(seed=3, n_max=5, k_max=2):
    rng = random.Random(seed)
    inst = helpers.random_partitioned_instance(rng, n_max=n_max, k_max=k_max)
    return partitioned_dsr_to_sync_stars(inst)


def _max_degree(td) -> int:
    deg = [0] * len(td.bags)
    for i, j in td.tree:
        deg[i] += 1
        deg[j] += 1
    return max(deg)


def test_stars_tree_decomposition_width_three():
    art = stars_artifact()
    td = derive_decomposition(art, "tree")
    rep = verify_decomposition(extended_graph(art), td, s=1)
    assert rep.valid and rep.structured and rep.width <= 3


def test_stars_path_decomposition_width_five():
    art = stars_artifact(seed=8)
    td = derive_decomposition(art, "path")
    rep = verify_decomposition(extended_graph(art), td, s=2)
    assert rep.valid and rep.structured and rep.width <= 5
    # path decompositions are paths: no bag has three neighbors
    assert _max_degree(td) <= 2


def test_trivial_fallback_decomposition():
    t = path_tape([1, 1])
    inst = TapeInstance(1, (t,), (0,), (1,))
    td = derive_decomposition(inst, "tree")
    rep = verify_decomposition(extended_graph(inst), td)
    assert rep.valid and rep.width == extended_graph(inst).n - 1


def test_triangle_transform_respects_budget():
    # width grows by at most 3s+3, structuredness by one tape
    art = stars_artifact(seed=5)
    td_in = derive_decomposition(art, "tree")
    rep_in = verify_decomposition(extended_graph(art), td_in, s=1)
    assert rep_in.valid and rep_in.structured
    out = desynchronize_triangle(art)
    td_out = derive_decomposition(out, "tree")
    rep_out = verify_decomposition(extended_graph(out), td_out, s=2)
    assert rep_out.valid and rep_out.structured
    assert rep_out.width <= rep_in.width + 3 * 1 + 3


def test_tsdsr_transform_respects_budget():
    art = stars_artifact(seed=12)
    desynced = desynchronize_triangle(art)
    td_in = derive_decomposition(desynced, "tree")
    dsr = tape_to_ts_dsr(desynced)
    td_out = derive_decomposition(dsr, "tree")
    rep_in = verify_decomposition(extended_graph(desynced), td_in, s=2)
    rep_out = verify_decomposition(dsr.graph, td_out, s=2)
    assert rep_in.valid and rep_out.valid and rep_out.structured
    assert rep_out.width <= 2 + rep_in.width + 1


def test_pipeline_hits_explicit_width_constants():
    """The full chain stays within treewidth 12 and pathwidth 18."""
    for seed in (0, 1, 7):
        art = stars_artifact(seed=seed, n_max=4, k_max=2)
        desynced = desynchronize_triangle(art)
        dsr = tape_to_ts_dsr(desynced)
        tree = derive_decomposition(dsr, "tree")
        path = derive_decomposition(dsr, "path")
        rep_tree = verify_decomposition(dsr.graph, tree)
        rep_path = verify_decomposition(dsr.graph, path)
        assert rep_tree.valid and rep_tree.width <= 12
        assert rep_path.valid and rep_path.width <= 18
        assert _max_degree(path) <= 2


# sha256 of every decomposition in the sweep below (bags as sorted lists, the
# tree, ``tape_of``), recorded before the extended graph became one edge list
# and a table of cell bases
SWEEP_DECOMPOSITION_DIGEST = "b06eaab053e1e3b205e43c49f46ff83cb1b44b5eabf936de33818c07fd26d958"


def _digest_update(h, td) -> None:
    h.update(repr(([sorted(bag) for bag in td.bags], td.tree,
                   sorted(td.tape_of.items()))).encode())


def test_explicit_width_constants_on_a_seeded_sweep():
    """Tree width 3 and path width 5 on 300 stars artifacts and one with three
    tokens, tree width 12 and path width 18 on 60 full chains and one with
    three tokens; every path decomposition is a path, and the decompositions
    hash to the digest recorded before the rewrite."""
    three = stars_artifact(seed=0, k_max=3)
    assert three.provenance["k"] == 3
    h = hashlib.sha256()
    for seed, art in [*((seed, stars_artifact(seed=seed)) for seed in range(300)), ("k=3", three)]:
        g = extended_graph(art)
        for kind, s, bound in (("tree", 1, 3), ("path", 2, 5)):
            td = derive_decomposition(art, kind)
            _digest_update(h, td)
            rep = verify_decomposition(g, td, s=s)
            assert rep.valid and rep.structured and rep.width <= bound, (seed, kind)
            assert kind == "tree" or _max_degree(td) <= 2, seed
    chains = [(seed, stars_artifact(seed=1000 + seed, n_max=4)) for seed in range(60)]
    for seed, art in [*chains, ("k=3", three)]:
        dsr = tape_to_ts_dsr(desynchronize_triangle(art))
        for kind, bound in (("tree", 12), ("path", 18)):
            td = derive_decomposition(dsr, kind)
            _digest_update(h, td)
            rep = verify_decomposition(dsr.graph, td)
            assert rep.valid and rep.width <= bound, (seed, kind)
            assert kind == "tree" or _max_degree(td) <= 2, seed
    assert h.hexdigest() == SWEEP_DECOMPOSITION_DIGEST


def test_trivial_chain_for_random_sync_instances():
    rng = random.Random(4)
    inst = helpers.random_sync_general_instance(rng)
    out = desynchronize_triangle(inst)
    s_in = len(inst.tapes)
    td_in = derive_decomposition(inst, "tree")
    w_in = verify_decomposition(extended_graph(inst), td_in, s=s_in)
    assert w_in.valid and w_in.structured
    td_out = derive_decomposition(out, "tree")
    rep = verify_decomposition(extended_graph(out), td_out, s=s_in + 1)
    assert rep.valid and rep.structured
    assert rep.width <= w_in.width + 3 * s_in + 3


def test_unknown_artifact_rejected():
    inst = DsrInstance(cycle_graph(4), 1, frozenset({0}), frozenset({1}), JUMP)
    with pytest.raises(MalformedInput):
        derive_decomposition(inst)
    with pytest.raises(MalformedInput):
        derive_decomposition(stars_artifact(), kind="fancy")
