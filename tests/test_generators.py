import pytest

from helpers import partitioned_instance
from reconflab.errors import RetryBudgetExceeded
from reconflab.generators import (
    gen_dcr_instance,
    gen_random_dsr_instance,
    gen_random_graph,
    gen_random_multi,
    gen_random_tape_instance,
    gen_sync_path_instance,
)
from reconflab.graphs import contains_biclique
from reconflab.tapes import tape_is_path, validate_instance, validate_multi


def test_graph_generator_deterministic():
    a = gen_random_graph(42, 7, 0.5, "connected")
    b = gen_random_graph(42, 7, 0.5, "connected")
    assert a == b and a.is_connected()


def test_graph_generator_single_vertex():
    g = gen_random_graph(1, 1, 0.5)
    assert g.n == 1 and g.edges == ()


def test_graph_generator_biclique_constraint():
    g = gen_random_graph(7, 8, 0.5, "k3d-free:2")
    assert not contains_biclique(g, 3, 2)


def test_graph_generator_retry_budget():
    # a connected graph on 5 vertices with edge probability 0 does not exist
    with pytest.raises(RetryBudgetExceeded):
        gen_random_graph(0, 5, 0.0, "connected")


def test_tape_generator_valid_and_deterministic():
    a = gen_random_tape_instance(5, tapes=3, cells=4, sigma=2)
    b = gen_random_tape_instance(5, tapes=3, cells=4, sigma=2)
    assert a == b
    assert validate_instance(a) == []


def test_sync_tape_generator_numbering():
    inst = gen_random_tape_instance(9, tapes=2, cells=5, sigma=2, sync=True)
    assert inst.sync and inst.r is not None
    assert validate_instance(inst) == []
    # numbered head configurations: one shared number per side
    for config in (inst.cs, inst.ct):
        nums = {t.number[c] for t, c in zip(inst.tapes, config)}
        assert len(nums) == 1


def test_sync_path_generator_shape():
    inst = gen_sync_path_instance(3, tapes=3, cells=5, sigma=2)
    assert validate_instance(inst) == []
    assert all(tape_is_path(t) for t in inst.tapes)


def test_multi_generator_members_are_paths():
    multi = gen_random_multi(4, tuples=2, members=2, cells=3)
    assert validate_multi(multi) == []


def test_dsr_generator_feasible():
    from reconflab.dsr import validate_instance as validate_dsr

    inst = gen_random_dsr_instance(21)
    validate_dsr(inst)  # raises on broken instances


def test_partitioned_generator_valid():
    from reconflab.dsr import validate_instance as validate_dsr

    inst = partitioned_instance(13)
    assert inst.partition is not None
    validate_dsr(inst)


def test_dcr_generator_family_and_core():
    from reconflab.kernel import validate_dcr

    inst = gen_dcr_instance(11)
    validate_dcr(inst)
    assert not contains_biclique(inst.graph, 3, inst.d)
    assert inst.core is not None
