"""``kernel._matching_size`` against the recursive matcher it replaced
(``certificate_oracle.max_bipartite_matching``) and an exhaustive search."""
import itertools
import random

from hypothesis import given, settings, strategies as st

from certificate_oracle import max_bipartite_matching
from reconflab.graphs import Graph, mask_of
from reconflab.kernel import _matching_size


def brute_force_matching_size(nl, nr, edges):
    """Max matching by exhaustive search over edge subsets (independent oracle)."""
    best = 0
    edges = list(edges)
    for size in range(min(nl, nr), 0, -1):
        for combo in itertools.combinations(edges, size):
            if len({u for u, _ in combo}) == size and len({v for _, v in combo}) == size:
                return size
    return best


def bipartite(nl, nr, edges):
    """The graph on left 0..nl-1 and right nl..nl+nr-1, with its two sides."""
    g = Graph(nl + nr, [(u, nl + v) for u, v in edges])
    return g.nbr_mask, list(range(nl)), mask_of(range(nl, nl + nr))


def test_perfect_ladder():
    edges = [(i, i) for i in range(4)]
    assert _matching_size(*bipartite(4, 4, edges)) == 4
    assert max_bipartite_matching(range(4), range(4), edges) == {i: i for i in range(4)}


def test_empty_edges():
    """Sides without edges, an empty left side and an empty right mask."""
    assert _matching_size(*bipartite(2, 1, [])) == 0
    assert _matching_size(*bipartite(0, 3, [])) == 0
    nbr, left, _ = bipartite(2, 2, [(0, 0), (1, 1)])
    assert _matching_size(nbr, left, 0) == 0


def test_augmenting_needed():
    # left 0 takes right 0 first and must be flipped to right 1 so left 1 can take right 0
    edges = [(0, 0), (0, 1), (1, 0)]
    assert _matching_size(*bipartite(2, 2, edges)) == 2
    assert max_bipartite_matching([0, 1], [0, 1], edges) == {0: 1, 1: 0}


def test_size_does_not_depend_on_left_order():
    rng = random.Random(7)
    edges = [(u, v) for u in range(6) for v in range(6) if rng.random() < 0.4]
    nbr, left, right = bipartite(6, 6, edges)
    want = len(max_bipartite_matching(range(6), range(6), edges))
    for _ in range(20):
        rng.shuffle(left)
        assert _matching_size(nbr, left, right) == want


@given(st.integers(0, 2**15 - 1), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_matches_brute_force(seed, nl, nr):
    rng = random.Random(seed)
    p = rng.choice((0.0, 0.2, 0.45, 0.8))
    edges = [(u, v) for u in range(nl) for v in range(nr) if rng.random() < p]
    got = max_bipartite_matching(range(nl), range(nr), edges)
    assert len(set(got.values())) == len(got)
    assert all((u, v) in edges for u, v in got.items())
    assert _matching_size(*bipartite(nl, nr, edges)) == len(got)
    assert len(got) == brute_force_matching_size(nl, nr, edges)
