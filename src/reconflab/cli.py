"""Command-line surface: thin shells around the library operations.

Deterministic JSON goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 negative verification, 2 malformed input, 3 cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .dsr import DEFAULT_STATE_CAP, DsrInstance, solve, verify_witness
from .errors import (MalformedInput, RetryBudgetExceeded, SizeCapExceeded, StateCapExceeded,
                     WorkbenchError)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_CAP = 3


def _read(path: str):
    """The JSON document in ``path``.  Besides a syntax error, a file that is
    not UTF-8, an integer past Python's digit limit and nesting past the
    recursion limit are malformed input, not crashes."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str):
    return serialize.decode(_read(path))


def _load_dsr(path: str, command: str) -> DsrInstance:
    """The instance in ``path`` as a DsrInstance: a dcr-instance becomes its
    sliding instance by ``kernel.as_dsr``."""
    inst = _load(path)
    if isinstance(inst, DsrInstance):
        return inst
    from .kernel import DcrInstance, as_dsr
    if not isinstance(inst, DcrInstance):
        raise MalformedInput(f"{command} expects a dsr-instance or dcr-instance")
    return as_dsr(inst)


def _emit(payload: dict) -> None:
    sys.stdout.write(serialize.canonical_dumps(payload))


# ---------------------------------------------------------------------------
# subcommands

def _reach_result(res, witness: bool, config_json) -> dict:
    """The solve-result document of one search; ``config_json`` lists a configuration."""
    out = serialize.envelope("solve-result", {"reachable": res.reachable,
                                              "explored": res.explored})
    if res.witness is not None:
        out["witnessLength"] = len(res.witness) - 1
        if witness:
            out["witness"] = [config_json(c) for c in res.witness]
    return out


def _cmd_solve(args) -> int:
    res = solve(_load_dsr(args.instance, "solve"), args.state_cap)
    _emit(_reach_result(res, args.witness, sorted))
    return EXIT_OK


def _cmd_solve_tape(args) -> int:
    from .tapes import MultiTapeInstance, TapeInstance, solve_multi, solve_tape
    inst = _load(args.instance)
    if isinstance(inst, TapeInstance):
        out = _reach_result(solve_tape(inst, args.state_cap), args.witness, list)
    elif isinstance(inst, MultiTapeInstance):
        res = solve_multi(inst, args.state_cap)
        out = serialize.envelope("solve-result", {"positive": res.positive})
        if res.selection is not None:
            out["selection"] = list(res.selection)
    else:
        raise MalformedInput("solve-tape expects a tape or multi-tape instance")
    _emit(out)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from .reductions import CONSTRUCTIONS
    doc = _read(args.instance)
    inst, kind = serialize.decode(doc), doc["kind"]
    con = next((c for c in CONSTRUCTIONS.values()
                if c.to == args.dst and isinstance(inst, c.source)), None)
    if con is None:
        kinds = dict.fromkeys(c.to for c in CONSTRUCTIONS.values())
        raise MalformedInput(f"no reduction from {kind} to {args.dst}" if args.dst in kinds
                             else f"unknown target kind {args.dst!r} (valid: {' | '.join(kinds)})")
    out = con.build(inst, args.k)
    doc = serialize.encode(out)
    prov = getattr(out, "provenance", None) or {}
    doc["provenance"] = {
        key: val for key, val in prov.items()
        if isinstance(val, (str, int, list, tuple))
    }
    _emit(doc)
    return EXIT_OK


def _cmd_reduce_tapes(args) -> int:
    from .tape_reduce import reduce_tapes_fully
    from .tapes import TapeInstance
    inst = _load(args.instance)
    if not isinstance(inst, TapeInstance):
        raise MalformedInput("reduce-tapes expects a tape instance")
    reduced, log = reduce_tapes_fully(inst)
    doc = serialize.encode(reduced)
    doc["reductionLog"] = log
    _emit(doc)
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    from .kernel import DcrInstance, kernelize
    inst = _load(args.instance)
    if not isinstance(inst, DcrInstance):
        raise MalformedInput("kernelize expects a dcr-instance")
    kernel, report = kernelize(inst)
    doc = serialize.encode(kernel)
    doc["certificate"] = {
        "coreSize": report.core_size,
        "classHistogram": {str(t): sizes for t, sizes in sorted(report.class_histogram.items())},
        "rulesApplied": list(report.rules_applied),
        "sizeBefore": list(report.size_before),
        "sizeAfter": list(report.size_after),
        "certified": report.certified,
    }
    _emit(doc)
    return EXIT_OK


def _cmd_verify_witness(args) -> int:
    inst = _load_dsr(args.instance, "verify-witness")
    configs = _load(args.witness)
    if not isinstance(configs, list):
        raise MalformedInput("verify-witness expects a witness document as its second file")
    ok = verify_witness(inst, configs)
    _emit(serialize.envelope("verification", {"valid": ok}))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_verify_reduction(args) -> int:
    from .reductions import CONSTRUCTIONS
    con = CONSTRUCTIONS.get(args.construction)
    if con is None:
        raise MalformedInput(f"unknown construction {args.construction!r} (valid: "
                             + " | ".join(CONSTRUCTIONS) + ")")
    _, agree = con.replay(_load(args.instance), args.k, args.state_cap)
    _emit(serialize.envelope("verification", {"agree": agree}))
    return EXIT_OK if agree else EXIT_NEGATIVE


def _cmd_gen(args) -> int:
    from .generators import gen_random_graph, gen_random_tape_instance
    if args.what == "graph":
        g = gen_random_graph(args.seed, args.n, args.edge_prob, args.constraint)
        _emit(serialize.graph_to_json(g))
    else:
        inst = gen_random_tape_instance(
            args.seed, args.tapes, args.cells, args.sigma, args.sync
        )
        _emit(serialize.tape_instance_to_json(inst))
    return EXIT_OK


def _cmd_acceptance(args) -> int:
    from .acceptance import run_all
    results = run_all(log=sys.stderr)
    _emit(serialize.envelope("acceptance-report", {
        "results": [{"criterion": r.ident, "title": r.title, "passed": r.passed,
                     "details": r.details} for r in results],
        "allPassed": all(r.passed for r in results),
    }))
    return EXIT_OK if all(r.passed for r in results) else EXIT_NEGATIVE


# ---------------------------------------------------------------------------

def state_cap(text: str) -> int:  # argparse names it in "invalid state_cap value"
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"state cap {cap} is negative")
    return cap


def _arg(*flags, **kwargs):
    return flags, kwargs


_INSTANCE = _arg("instance")
_CAP = _arg("--state-cap", type=state_cap, default=DEFAULT_STATE_CAP,
            help="abort searches beyond this many configurations")
_K = _arg("--k", type=int, default=None)

# name -> (handler, help, arguments): the one table of subcommands
SUBCOMMANDS = {
    "solve": (_cmd_solve, "reachability for a (core) domination instance", [
        _INSTANCE, _arg("--witness", action="store_true", help="include the move sequence"), _CAP]),
    "solve-tape": (_cmd_solve_tape, "reachability for a tape or multi-tape instance", [
        _INSTANCE, _arg("--witness", action="store_true"), _CAP]),
    "reduce": (_cmd_reduce, "apply an instance transformation", [
        _INSTANCE, _arg("--to", dest="dst", required=True, help="target kind"), _K]),
    "reduce-tapes": (_cmd_reduce_tapes, "shrink the tape count to twice the alphabet", [_INSTANCE]),
    "kernelize": (_cmd_kernelize, "class-based kernel plus size certificate", [_INSTANCE]),
    "verify-reduction": (_cmd_verify_reduction, "solve both sides of a construction", [
        _INSTANCE, _arg("--construction", required=True, help="construction name"), _K, _CAP]),
    "verify-witness": (_cmd_verify_witness, "replay a move sequence", [_INSTANCE, _arg("witness")]),
    "gen": (_cmd_gen, "seeded random instances", [
        _arg("what", choices=["graph", "tape"]), _arg("--seed", type=int, required=True),
        _arg("--n", type=int, default=6), _arg("--edge-prob", type=float, default=0.5),
        _arg("--constraint", default=None,
             help="none | connected | k3d-free:<d> | connected-k3d-free:<d>"),
        _arg("--tapes", type=int, default=2), _arg("--cells", type=int, default=4),
        _arg("--sigma", type=int, default=2), _arg("--sync", action="store_true")]),
    "acceptance": (_cmd_acceptance, "run the full oracle-equivalence suite", []),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command``'s alone when it
    names one; the usage line lists every subcommand either way."""
    parser = argparse.ArgumentParser(
        prog="reconflab",
        description="Exact solvers and oracle-verified reductions for "
                    "dominating-set and head-on-tape reconfiguration.",
    )
    names, metavar = list(SUBCOMMANDS), None
    if command in SUBCOMMANDS:
        names, metavar = [command], "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, text, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SizeCapExceeded, StateCapExceeded, RetryBudgetExceeded) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except WorkbenchError as exc:  # MalformedInput, InfeasibleInstance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
