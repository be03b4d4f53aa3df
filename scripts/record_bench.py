"""Record benchmark runs into ``BENCH_<label>.json`` at the root of this tree.

    python3 scripts/record_bench.py --label after-codecs --workload tape-pipeline \\
        --seed 1 --seed 5 --runs 10 --seconds 10 --against ../parent-checkout

Each run is one child ``perfbench/run.py --workload W --seed S --seconds T``,
started from the root of the checkout it measures; its last stdout line, the
result line ``{"correct", "attempted", "failed", "metrics"}``, is kept as is.
``--workload acceptance`` instead starts one ``python -m reconflab.cli
acceptance`` child per run, on the checkout's ``src``, and reads each
criterion's seconds off its PASS/FAIL lines on stderr as a metric
``<criterion>_s`` (lower is better); the criteria fix their own seeds, so
``--seed`` and ``--seconds`` do not apply and the runs are filed under
``"fixed"``.  ``--workload tier1`` likewise starts one ``python -m pytest -q
-W error -p no:cacheprovider`` child per run in the checkout, files it under
``"fixed"`` and records ``wall_s``, the recorder's clock around the child
(lower is better), and the ``passed``, ``failed`` and ``errors`` counts of
pytest's summary line; such a run is correct iff the child exits 0.
``--workload kernel`` writes the documents of ``KERNEL_DOCS`` as plain JSON,
importing none of the code it measures, and starts one ``python -m
reconflab.cli kernelize DOC`` child per document and run, on the checkout's
``src``; it files its runs under ``"fixed"`` and records ``<doc>_s``, the
recorder's clock around each child (lower is better); a run is correct iff
every child exits 0 and prints its document's pinned ``sizeAfter``.
With ``--against DIR`` every run of this tree is paired with a run of the
checkout in DIR, and the side that goes first alternates from pair to pair,
so that a drift of the machine's speed falls on both sides alike.

The file holds, per workload, seed and side, every run's ``correct``,
``failed`` and end-to-end metrics, and each metric's median and quartiles;
with ``--against``, also how many pairs this tree won on each metric (the
direction of "better" is read from ``BENCHMARK.json``; fewer seconds win
acceptance and kernel, and tier-1 reads ``TIER1_BETTER``).  It records the
seeds, ``--seconds``, the machine and both revisions: a git commit, or for
a copy outside git a hash of its measured files.  Nothing under
``perfbench/`` is read or written except by the child.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE, PARENT = "tree", "parent"
ACCEPTANCE, TIER1, KERNEL = "acceptance", "tier1", "kernel"
FIXED = (ACCEPTANCE, TIER1, KERNEL)  # workloads that fix their own inputs
# one line per criterion, as ``acceptance.run_all`` logs it
CRITERION_LINE = re.compile(r"(PASS|FAIL) (\S+) \[ *(\d+\.\d+)s\] ")
# pytest's summary line, such as "1 failed, 465 passed in 30.12s", and its counts
SUMMARY_LINE = re.compile(r"^=*\s*(\d+ \w+(, \d+ \w+)*) in [\d.]+s")
SUMMARY_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")
TIER1_BETTER = {"wall_s": "lower", "passed": "higher", "failed": "lower", "errors": "lower"}
# what a run measures, hashed as the revision of a copy outside git
MEASURED = ("src", "tests", "perfbench", "scripts", "pyproject.toml", "BENCHMARK.json")
UNMEASURED = {"__pycache__", ".bench_out"}


def parse_result(stdout: str) -> dict:
    """The result line of a ``run.py`` child: its last non-empty stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not {"correct", "failed", "metrics"} <= result.keys():
        raise ValueError(f"not a result line: {lines[-1][:200]}")
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One child run in ``checkout``: ``correct``, ``failed`` and the metrics'
    values; a run that prints no result line counts as one failed run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = parse_result(proc.stdout)
    except ValueError as exc:
        return {"correct": False, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}: {exc}; stderr: {proc.stderr[-500:]}"}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result.get("attempted"),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def parse_acceptance(stderr: str) -> dict:
    """``correct``, ``failed`` (the FAIL lines) and each criterion's seconds,
    as ``<criterion>_s``, from the stderr of a ``reconflab acceptance`` child."""
    metrics, failed = {}, 0
    for line in stderr.splitlines():
        match = CRITERION_LINE.match(line)
        if match:
            status, ident, seconds = match.groups()
            metrics[f"{ident}_s"] = float(seconds)
            failed += status == "FAIL"
    if not metrics:
        raise ValueError("the run printed no criterion line")
    return {"correct": not failed, "failed": failed, "metrics": metrics}


def _source_env(checkout: Path) -> dict:
    """This environment with ``checkout``'s ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_acceptance(checkout: Path) -> dict:
    """One ``reconflab acceptance`` child on ``checkout``'s source; a run that
    exits nonzero is not correct, and one that logs no criterion counts as
    one failed run."""
    proc = subprocess.run([sys.executable, "-m", "reconflab.cli", ACCEPTANCE], cwd=checkout,
                          capture_output=True, text=True, env=_source_env(checkout))
    try:
        run = parse_acceptance(proc.stderr)
    except ValueError as exc:
        return {"correct": False, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}: {exc}; stderr: {proc.stderr[-500:]}"}
    run["correct"] = run["correct"] and proc.returncode == 0
    return run


def parse_tier1(stdout: str) -> dict:
    """The ``passed``, ``failed`` and ``errors`` counts of the last summary
    line in a pytest child's stdout; a count the line does not name is 0."""
    lines = [line for line in stdout.splitlines() if SUMMARY_LINE.match(line.strip())]
    if not lines:
        raise ValueError("the run printed no summary line")
    counts = dict.fromkeys(("passed", "failed", "errors"), 0)
    for number, word in SUMMARY_COUNT.findall(lines[-1]):
        counts["errors" if word.startswith("error") else word] = int(number)
    return counts


def run_tier1(checkout: Path) -> dict:
    """One tier-1 pytest child in ``checkout``, timed from outside: correct iff
    it exits 0; one that prints no summary line counts as one failed run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error",
                           "-p", "no:cacheprovider"], cwd=checkout, capture_output=True,
                          text=True, env=_source_env(checkout))
    wall = time.perf_counter() - start
    try:
        counts = parse_tier1(proc.stdout)
    except ValueError as exc:
        return {"correct": False, "failed": 1, "metrics": {"wall_s": wall},
                "error": f"exit {proc.returncode}: {exc}; stdout: {proc.stdout[-500:]}"}
    return {"correct": proc.returncode == 0, "failed": counts["failed"] + counts["errors"],
            "metrics": {"wall_s": wall, **counts}}


def _dcr_document(n: int, edges: list[tuple[int, int]], k: int, source: set[int],
                  target: set[int]) -> str:
    """A k3d-free dcr document at d = 3 with no core, in the bytes of
    ``serialize.canonical_dumps`` (sorted keys, no spaces, sorted edges)."""
    graph = {"edges": sorted(sorted(e) for e in edges), "kind": "graph", "n": n, "version": 1}
    doc = {"d": 3, "family": "k3d-free", "graph": graph, "k": k, "kind": "dcr-instance",
           "source": sorted(source), "target": sorted(target), "version": 1}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def wheel_document(n: int) -> str:
    """``tests/helpers.wheel(n)``: a hub 0 joined to the cycle 1..n-1, k = 2."""
    edges = [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)]
    return _dcr_document(n, edges, 2, {0, 1}, {0, n // 2})


def fan_document(middles: int) -> str:
    """``tests/helpers.fan(middles)``: two adjacent hubs, a path of middles
    joined to both and a three-leaf star next to hub 0, k = 3."""
    c = middles + 2
    edges = [(0, 1), (0, c)] + [(h, v) for h in (0, 1) for v in range(2, c)]
    edges += [(v, v + 1) for v in range(2, c - 1)] + [(c, c + i) for i in (1, 2, 3)]
    return _dcr_document(c + 4, edges, 3, {0, c, 2}, {1, c, c - 1})


# the kernel workload's documents: name -> (document, pinned sizeAfter)
KERNEL_DOCS = {
    "wheel1025": (wheel_document(1025), [12, 22]),
    "wheel2049": (wheel_document(2049), [12, 22]),
    "fan646": (fan_document(640), [14, 28]),
}


def write_kernel_docs(directory: Path) -> dict[str, tuple[Path, list[int]]]:
    """Write each document of ``KERNEL_DOCS`` to ``<name>.json`` in
    ``directory``: name -> (path, pinned sizeAfter)."""
    out = {}
    for name, (text, size_after) in KERNEL_DOCS.items():
        path = directory / f"{name}.json"
        path.write_text(text)
        out[name] = (path, size_after)
    return out


def parse_kernelize(stdout: str) -> list[int]:
    """The ``sizeAfter`` of a ``reconflab kernelize`` child's certificate."""
    try:
        return json.loads(stdout)["certificate"]["sizeAfter"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"not a kernelize document: {stdout[:200]!r}") from exc


def run_kernel(checkout: Path) -> dict:
    """One ``reconflab kernelize`` child per document of ``KERNEL_DOCS`` on
    ``checkout``'s source, each timed from outside as ``<name>_s``; a child
    that exits nonzero or prints another ``sizeAfter`` than its pinned one
    counts as failed."""
    metrics, errors = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        for name, (path, size_after) in write_kernel_docs(Path(scratch)).items():
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "reconflab.cli", "kernelize", str(path)],
                                  cwd=checkout, capture_output=True, text=True,
                                  env=_source_env(checkout))
            metrics[f"{name}_s"] = time.perf_counter() - start
            try:
                got = parse_kernelize(proc.stdout) if proc.returncode == 0 else None
            except ValueError:
                got = None
            if got != size_after:
                errors.append(f"{name}: exit {proc.returncode}, sizeAfter {got}; "
                              f"stderr: {proc.stderr[-300:]}")
    run = {"correct": not errors, "failed": len(errors), "metrics": metrics}
    if errors:
        run["error"] = "; ".join(errors)
    return run


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs that report it."""
    out = {}
    for name in sorted({name for run in runs for name in run["metrics"]}):
        values = [run["metrics"][name] for run in runs if name in run["metrics"]]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}
    return out


def pair_wins(tree: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the pairs (i-th run of each side) in which this tree reads
    strictly better; ties count for neither side."""
    out = {}
    for name, direction in better.items():
        pairs = [(t["metrics"][name], p["metrics"][name]) for t, p in zip(tree, parent)
                 if name in t["metrics"] and name in p["metrics"]]
        wins = sum(t > p if direction == "higher" else t < p for t, p in pairs)
        out[name] = {"wins": wins, "pairs": len(pairs)}
    return out


def tree_digest(checkout: Path) -> str:
    """``sha256:<hex>`` over the relative path and bytes of every file under
    ``MEASURED``, in sorted path order, skipping caches and run output."""
    files = []
    for name in MEASURED:
        top = checkout / name
        files += [p for p in ([top] if top.is_file() else top.rglob("*")) if p.is_file()
                  and p.suffix != ".pyc" and not UNMEASURED & set(p.relative_to(checkout).parts)]
    digest = hashlib.sha256()
    for rel, path in sorted((p.relative_to(checkout).as_posix(), p) for p in files):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return "sha256:" + digest.hexdigest()


def revision(checkout: Path) -> str:
    """The checkout's git commit, with ``+dirty`` when its tracked files differ
    from it; outside a git work tree, such as a copy made by ``git archive``,
    the ``tree_digest`` of its files."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "HEAD")
        return rev + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return tree_digest(checkout)


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def record(args, benchmark: dict) -> dict:
    sides = {TREE: ROOT} if args.against is None else {PARENT: args.against, TREE: ROOT}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    doc = {"label": args.label, "seconds": args.seconds, "seeds": args.seed,
           "runs_per_seed": args.runs, "machine": machine(),
           "revision": {side: revision(path) for side, path in sides.items()},
           "workloads": {}}
    for workload in args.workload:
        per_seed = doc["workloads"][workload] = {}
        for seed in ["fixed"] if workload in FIXED else args.seed:
            runs = {side: [] for side in sides}
            for i in range(args.runs):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    run = (run_acceptance(sides[side]) if workload == ACCEPTANCE
                           else run_tier1(sides[side]) if workload == TIER1
                           else run_kernel(sides[side]) if workload == KERNEL
                           else run_once(sides[side], workload, seed, args.seconds))
                    runs[side].append(run)
                    print(f"{workload} seed {seed} run {i + 1}/{args.runs} {side}: "
                          f"correct={run['correct']} {run['metrics']}", file=sys.stderr)
            entry = per_seed[str(seed)] = {
                side: {"runs": runs[side], "summary": summarize(runs[side])} for side in sides}
            if args.against is not None:
                direction = better
                if workload in (ACCEPTANCE, KERNEL):
                    direction = {name: "lower" for run in runs[TREE] for name in run["metrics"]}
                elif workload == TIER1:
                    direction = TIER1_BETTER
                entry["tree_wins"] = pair_wins(runs[TREE], runs[PARENT], direction)
    return doc


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in benchmark["workloads"]] + list(FIXED),
                   help="repeat for several; default: every workload in BENCHMARK.json")
    p.add_argument("--seed", action="append", type=int, help="repeat for several; default: 1")
    p.add_argument("--runs", type=int, default=10, help="runs per seed and side")
    p.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    p.add_argument("--against", type=Path, help="a checkout of the parent commit to pair with")
    args = p.parse_args(argv)
    args.workload = args.workload or [w["name"] for w in benchmark["workloads"]]
    args.seed = args.seed or [1]
    if args.runs < 1:
        p.error("--runs must be at least 1")
    if args.against is not None and not (args.against / "perfbench" / "run.py").is_file():
        p.error(f"no perfbench/run.py under {args.against}")
    doc = record(args, benchmark)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
