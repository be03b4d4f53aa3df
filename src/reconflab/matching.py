"""Maximum bipartite matching via deterministic augmenting paths."""
from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .errors import MalformedInput


def max_bipartite_matching(
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
) -> dict:
    """Maximum-cardinality matching as a dict left-element -> right-element.

    Deterministic for a fixed input order: left vertices are processed in
    list order and neighbors in first-seen edge order, so reruns agree
    byte for byte.
    """
    lindex = {x: i for i, x in enumerate(left)}
    rindex = {x: i for i, x in enumerate(right)}
    adj: list[list[int]] = [[] for _ in left]
    seen = set()
    for u, v in edges:
        if u not in lindex or v not in rindex:
            raise MalformedInput(f"edge ({u!r},{v!r}) not within the given sides")
        key = (lindex[u], rindex[v])
        if key not in seen:
            seen.add(key)
            adj[key[0]].append(key[1])

    match_l: list[int | None] = [None] * len(left)
    match_r: list[int | None] = [None] * len(right)

    def augment(u: int, visited: set[int]) -> bool:
        for v in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            if match_r[v] is None or augment(match_r[v], visited):
                match_l[u] = v
                match_r[v] = u
                return True
        return False

    for u in range(len(left)):
        augment(u, set())

    return {left[u]: right[v] for u, v in enumerate(match_l) if v is not None}
