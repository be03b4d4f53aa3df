import random

import pytest

import certificate_oracle
from reconflab.decomposition import TreeDecomposition, _tree_ok, verify_decomposition
from reconflab.errors import MalformedInput
from reconflab.graphs import Graph, path_graph


def window_decomposition(n):
    """Sliding window of size 2 over a path graph: the textbook width-1 case."""
    bags = tuple(frozenset({i, i + 1}) for i in range(n - 1))
    tree = tuple((i, i + 1) for i in range(n - 2))
    return TreeDecomposition(bags=bags, tree=tree)


def test_path_window_valid_width_one():
    g = path_graph(5)
    rep = verify_decomposition(g, window_decomposition(5))
    assert rep.valid and rep.width == 1


def test_single_bag_valid():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = verify_decomposition(g, TreeDecomposition(bags=(frozenset(range(g.n)),), tree=()))
    assert rep.valid and rep.width == 3


def test_missing_vertex_rejected():
    g = path_graph(3)
    td = TreeDecomposition(bags=(frozenset({0, 1}),), tree=())
    rep = verify_decomposition(g, td)
    assert not rep.valid and any("no bag" in r for r in rep.reasons)


def test_uncovered_edge_rejected():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition(bags=(frozenset({0, 1}), frozenset({1, 2})), tree=((0, 1),))
    rep = verify_decomposition(g, td)
    assert not rep.valid and any("edge" in r for r in rep.reasons)


def test_disconnected_holder_bags_rejected():
    g = path_graph(4)
    bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3, 0}))
    td = TreeDecomposition(bags=bags, tree=((0, 1), (1, 2)))
    rep = verify_decomposition(g, td)
    assert not rep.valid and any("disconnected" in r for r in rep.reasons)


@pytest.mark.parametrize("tree", [((0, 1), (1, 2), (2, 0)), ((0, 1), (0, 0)), ((0, 1), (1, 0))],
                         ids=["cycle", "loop", "repeated-edge"])
def test_non_tree_rejected(tree):
    g = path_graph(3)
    bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({1}))
    rep = verify_decomposition(g, TreeDecomposition(bags=bags, tree=tree))
    assert not rep.valid and "bag graph is not a tree" in rep.reasons


def test_tree_check_matches_union_find():
    """Random edge lists, loops and repeated edges included, on up to six bags."""
    rng = random.Random(5151)
    seen = set()
    for _ in range(3000):
        nbags = rng.randint(0, 6)
        m = max(0, nbags - 1 + rng.choice((-1, 0, 0, 0, 1))) if nbags else 0
        edges = tuple((rng.randrange(nbags), rng.randrange(nbags)) for _ in range(m))
        want = certificate_oracle.is_tree(nbags, edges)
        assert _tree_ok(nbags, edges) == want, (nbags, edges)
        seen.add(want)
    assert seen == {True, False}


def test_structuredness_counts_only_mapped_vertices():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    bags = (frozenset({0, 1, 2}), frozenset({2, 3}))
    td = TreeDecomposition(bags=bags, tree=((0, 1),), tape_of={0: 0, 1: 0, 2: 1, 3: 1})
    rep1 = verify_decomposition(g, td, s=1)
    assert rep1.valid and not rep1.structured
    rep2 = verify_decomposition(g, td, s=2)
    assert rep2.structured
    # vertex 3 unmapped -> bag {2,3} touches a single tape
    td2 = TreeDecomposition(bags=bags, tree=((0, 1),), tape_of={0: 0, 1: 0, 2: 1})
    assert verify_decomposition(g, td2, s=1).structured is False  # first bag still has 2 tapes


def test_out_of_range_bag_is_error():
    g = path_graph(2)
    with pytest.raises(MalformedInput):
        verify_decomposition(g, TreeDecomposition(bags=(frozenset({5}),), tree=()))
