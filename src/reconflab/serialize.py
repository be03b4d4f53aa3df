"""Canonical JSON encoding for every artifact the CLI reads or writes.

All artifacts travel inside a self-describing envelope {"kind": ..,
"version": 1, ..}; serialization is deterministic (sorted keys, sorted
edges) so identical inputs produce byte-identical outputs.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .dsr import SLIDE, DsrInstance
from .errors import MalformedInput
from .graphs import Graph, bits

if TYPE_CHECKING:
    from .kernel import DcrInstance
    from .reductions import NormalizedFormula
    from .tapes import MultiTapeInstance, Tape, TapeInstance

VERSION = 1
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps builds one a call


def canonical_dumps(obj: Any) -> str:
    return _CANONICAL.encode(obj) + "\n"


def envelope(kind: str, payload: dict) -> dict:
    """The document of ``kind``: every artifact and every CLI report is one."""
    return {"kind": kind, "version": VERSION, **payload}


# ---------------------------------------------------------------------------
# encoders

def graph_to_json(g: Graph) -> dict:
    payload: dict = {"n": g.n, "edges": list(map(list, g.edges))}
    if g.labels:
        payload["labels"] = {str(v): lab for v, lab in sorted(g.labels.items())}
    return envelope("graph", payload)


def tape_to_json(t: Tape) -> dict:
    out = {
        "cells": graph_to_json(t.cells),
        "content": {str(c): list(bits(m)) for c, m in enumerate(t.content) if m},
        "start": t.start,
        "end": t.end,
    }
    if t.number is not None:
        out["number"] = dict(zip(map(str, range(t.cells.n)), t.number))
    return out


def _header_to_json(inst: TapeInstance | MultiTapeInstance) -> dict:
    """The fields tape and multi-tape documents share: sigma, sync, r."""
    payload = {"sigma": inst.sigma, "sync": inst.sync}
    if inst.r is not None:
        payload["r"] = inst.r
    return payload


def tape_instance_to_json(inst: TapeInstance) -> dict:
    return envelope("tape-instance", {**_header_to_json(inst),
                                      "tapes": [tape_to_json(t) for t in inst.tapes],
                                      "cs": list(inst.cs), "ct": list(inst.ct)})


def multi_to_json(inst: MultiTapeInstance) -> dict:
    return envelope("multi-tape-instance", {
        **_header_to_json(inst),
        "tuples": [[tape_to_json(t) for t in tup] for tup in inst.tuples]})


def _tokens_to_json(inst: DsrInstance | DcrInstance) -> dict:
    """The fields dsr and dcr documents share: graph, k, source, target, core."""
    payload = {"graph": graph_to_json(inst.graph), "k": inst.k,
               "source": sorted(inst.source), "target": sorted(inst.target)}
    if inst.core is not None:
        payload["core"] = sorted(inst.core)
    return payload


def dsr_to_json(inst: DsrInstance) -> dict:
    payload = {**_tokens_to_json(inst), "rule": inst.rule, "connected": inst.connected}
    if inst.partition is not None:
        payload["partition"] = [sorted(p) for p in inst.partition]
    return envelope("dsr-instance", payload)


def dcr_to_json(inst: DcrInstance) -> dict:
    return envelope("dcr-instance", {**_tokens_to_json(inst), "d": inst.d, "family": inst.family})


def formula_to_json(phi: NormalizedFormula) -> dict:
    def node(nd):
        if nd[0] == "var":
            return ["var", nd[1]]
        return [nd[0], [node(c) for c in nd[1]]]

    return envelope("formula", {"vars": phi.nvars, "tree": node(phi.root)})


# keyed by type name, so that encoding imports no module
ENCODERS = {"Graph": graph_to_json, "TapeInstance": tape_instance_to_json,
            "MultiTapeInstance": multi_to_json, "DsrInstance": dsr_to_json,
            "DcrInstance": dcr_to_json, "NormalizedFormula": formula_to_json}


def encode(obj: Any) -> dict:
    encoder = ENCODERS.get(type(obj).__name__)
    if encoder is None:
        raise MalformedInput(f"cannot encode {type(obj).__name__}")
    return encoder(obj)


# ---------------------------------------------------------------------------
# decoders

def _need(payload: dict, key: str):
    if key not in payload:
        raise MalformedInput(f"missing field {key!r}")
    return payload[key]


def _int(x) -> int:
    """A JSON integer field (not ``true``); string object keys go through ``int``."""
    if type(x) is not int:
        raise MalformedInput(f"expected an integer, got {x!r}")
    return x


def _check_keys(raw: dict, what: str, noun: str) -> None:
    """Refuse the first key of the object ``raw`` not written as ``str`` of
    the id it names: "00" or " 1" would merge into another key's vertex or cell."""
    for key in raw.keys():  # a list is no object: its items are not keys
        i = int(key)
        if str(i) != key:
            raise MalformedInput(f"{what} key {key!r} is not the id of {noun} {i}")


def _vertices(raw, what: str) -> frozenset[int]:
    """A JSON list of vertices as a set; a vertex listed twice is malformed
    (canonical output lists each once, sorted)."""
    out: set[int] = set()
    for v in map(_int, raw):
        if v in out:
            raise MalformedInput(f"{what} lists vertex {v} twice")
        out.add(v)
    return frozenset(out)


def _bool(x) -> bool:
    if type(x) is not bool:
        raise MalformedInput(f"expected true or false, got {x!r}")
    return x


def graph_from_json(payload: dict) -> Graph:
    if payload.get("kind", "graph") != "graph":
        raise MalformedInput("expected a graph document")
    n = _int(_need(payload, "n"))
    edges = [(u, v) if type(u) is int is type(v) else (_int(u), _int(v))
             for u, v in _need(payload, "edges")]
    raw = payload.get("labels", {})
    labels = {int(v): str(lab) for v, lab in raw.items()}
    if labels and list(map(str, labels)) != list(raw):
        _check_keys(raw, "label", "vertex")
    return Graph(n, edges, labels)


def tapes_from_json(raw: list, sigma: int) -> tuple[Tape, ...]:
    """The tapes of a JSON list, each letter checked against ``sigma``."""
    from .tapes import Tape
    out = []
    for payload in raw:
        cells = graph_from_json(_need(payload, "cells"))
        n = cells.n
        content = [0] * n
        cmap = _need(payload, "content")
        _check_keys(cmap, "content", "cell")
        for cell, letters in cmap.items():
            c, m = int(cell), 0  # the keys are canonical: no cell comes twice
            if not (0 <= c < n):
                raise MalformedInput(f"content on unknown cell {c}")
            for letter in letters:
                if type(letter) is not int or not 0 <= letter < sigma:
                    _int(letter)
                    raise MalformedInput(f"letter {letter} on cell {c} outside alphabet of {sigma}")
                if m >> letter & 1:
                    raise MalformedInput(f"cell {c} lists letter {letter} twice")
                m |= 1 << letter
            content[c] = m
        number = None
        if "number" in payload:
            nmap, keys = payload["number"], list(map(str, range(n)))
            missing = [c for c, key in enumerate(keys) if key not in nmap]
            if missing:
                raise MalformedInput(f"tape numbering misses cells {missing}")
            if len(nmap) != n:  # every cell has its key, so some key names no cell
                _check_keys(nmap, "number", "cell")
                extra = [c for c in map(int, nmap) if not 0 <= c < n]
                raise MalformedInput(f"tape numbering names unknown cells {extra}")
            number = tuple(_int(nmap[key]) for key in keys)
        out.append(Tape(cells=cells, content=tuple(content), start=_int(_need(payload, "start")),
                        end=_int(_need(payload, "end")), number=number))
    return tuple(out)


def _header_from_json(payload: dict) -> dict:
    """``_header_to_json``'s fields, as keyword arguments of either class;
    the alphabet is checked before any letter is decoded into a sigma-bit mask."""
    from .tapes import check_alphabet
    sigma = _int(_need(payload, "sigma"))
    check_alphabet(sigma)
    return {"sigma": sigma, "sync": _bool(payload.get("sync", False)),
            "r": _int(payload["r"]) if payload.get("r") is not None else None}


def tape_instance_from_json(payload: dict) -> TapeInstance:
    from .tapes import TapeInstance
    header = _header_from_json(payload)
    return TapeInstance(
        **header,
        tapes=tapes_from_json(_need(payload, "tapes"), header["sigma"]),
        cs=tuple(_int(c) for c in _need(payload, "cs")),
        ct=tuple(_int(c) for c in _need(payload, "ct")),
    )


def multi_from_json(payload: dict) -> MultiTapeInstance:
    from .tapes import MultiTapeInstance
    header = _header_from_json(payload)
    return MultiTapeInstance(**header, tuples=tuple(
        tapes_from_json(tup, header["sigma"]) for tup in _need(payload, "tuples")))


def _tokens_from_json(payload: dict) -> dict:
    """``_tokens_to_json``'s fields, as keyword arguments of either class."""
    return {
        "graph": graph_from_json(_need(payload, "graph")),
        "k": _int(_need(payload, "k")),
        "source": _vertices(_need(payload, "source"), "source"),
        "target": _vertices(_need(payload, "target"), "target"),
        "core": _vertices(payload["core"], "core") if "core" in payload else None,
    }


def dsr_from_json(payload: dict) -> DsrInstance:
    return DsrInstance(
        **_tokens_from_json(payload),
        rule=str(payload.get("rule", SLIDE)),
        connected=_bool(payload.get("connected", False)),
        partition=tuple(_vertices(p, "partition part") for p in payload["partition"])
        if "partition" in payload
        else None,
    )


def dcr_from_json(payload: dict) -> DcrInstance:
    from .kernel import K3D_FREE, DcrInstance
    return DcrInstance(**_tokens_from_json(payload), d=_int(_need(payload, "d")),
                       family=str(payload.get("family", K3D_FREE)))


def formula_from_json(payload: dict) -> NormalizedFormula:
    from .reductions import NormalizedFormula

    def node(raw):
        if raw[0] == "var":
            return ("var", _int(raw[1]))
        if raw[0] in ("and", "or"):
            return (raw[0], tuple(node(c) for c in raw[1]))
        raise MalformedInput(f"unknown formula node {raw[0]!r}")

    return NormalizedFormula(_int(_need(payload, "vars")), node(_need(payload, "tree")))


def witness_from_json(payload: dict) -> list[frozenset[int]]:
    return [_vertices(c, "witness configuration") for c in _need(payload, "configs")]


DECODERS = {
    "graph": graph_from_json,
    "tape-instance": tape_instance_from_json,
    "multi-tape-instance": multi_from_json,
    "dsr-instance": dsr_from_json,
    "dcr-instance": dcr_from_json,
    "formula": formula_from_json,
    "witness": witness_from_json,
}


def decode(doc: dict):
    """Decode any envelope.  The decoders check integer and boolean fields; the
    errors any other badly typed field raises become ``MalformedInput`` here."""
    if not isinstance(doc, dict):
        raise MalformedInput("expected a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in DECODERS:
        raise MalformedInput(f"unknown document kind {kind!r}")
    if doc.get("version", VERSION) != VERSION:
        raise MalformedInput(f"unsupported version {doc.get('version')!r}")
    try:
        return DECODERS[kind](doc)
    except (TypeError, ValueError, AttributeError, IndexError, KeyError) as exc:
        raise MalformedInput(f"bad {kind} document: {exc!r}") from exc
