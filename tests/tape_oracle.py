"""Reference tape search: every configuration checked in full, at every step.

``tapes.solve_tape`` checks the instance once on entry and then tests a moved
head only for coverage and the number window; this module keeps the direct
loop it replaced, which validates each expanded configuration and each
successor with ``is_valid_configuration``, as the oracle the search is
compared against.
"""
from __future__ import annotations

from collections import deque
from typing import Optional

from reconflab.dsr import ReconfigResult
from reconflab.errors import MalformedInput, StateCapExceeded
from reconflab.tapes import TapeInstance, is_valid_configuration


def successors(inst: TapeInstance, config: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Move exactly one head along a tape edge; keep only valid results."""
    if not is_valid_configuration(inst, config):
        raise MalformedInput("successors of an invalid configuration")
    out = []
    for i, tape in enumerate(inst.tapes):
        for nb in tape.cells.neighbors(config[i]):
            nxt = config[:i] + (nb,) + config[i + 1 :]
            if is_valid_configuration(inst, nxt):
                out.append(nxt)
    return out


def solve_tape(inst: TapeInstance, state_cap: int) -> ReconfigResult:
    """Breadth-first search over ``successors``, with ``solve_tape``'s signature."""
    cs, ct = tuple(inst.cs), tuple(inst.ct)
    for name, config in (("cs", cs), ("ct", ct)):
        if not is_valid_configuration(inst, config):
            raise MalformedInput(f"{name} is not a valid configuration")
    if cs == ct:
        return ReconfigResult(True, (cs,), 1)
    parents: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {cs: None}
    queue = deque([cs])
    while queue:
        cur = queue.popleft()
        for nxt in successors(inst, cur):
            if nxt in parents:
                continue
            parents[nxt] = cur
            if nxt == ct:
                path = [nxt]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                path.reverse()
                return ReconfigResult(True, tuple(path), len(parents))
            if len(parents) > state_cap:
                raise StateCapExceeded(f"tape search passed {state_cap} configurations")
            queue.append(nxt)
    return ReconfigResult(False, None, len(parents))
