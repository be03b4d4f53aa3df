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
``"fixed"``.
With ``--against DIR`` every run of this tree is paired with a run of the
checkout in DIR, and the side that goes first alternates from pair to pair,
so that a drift of the machine's speed falls on both sides alike.

The file holds, per workload, seed and side, every run's ``correct``,
``failed`` and end-to-end metrics, and each metric's median and quartiles;
with ``--against``, also how many pairs this tree won on each metric (the
direction of "better" is read from ``BENCHMARK.json``).  It records the
seeds, ``--seconds``, both git revisions and the machine.  Nothing under
``perfbench/`` is read or written except by the child.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE, PARENT = "tree", "parent"
ACCEPTANCE = "acceptance"
# one line per criterion, as ``acceptance.run_all`` logs it
CRITERION_LINE = re.compile(r"(PASS|FAIL) (\S+) \[ *(\d+\.\d+)s\] ")


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


def run_acceptance(checkout: Path) -> dict:
    """One ``reconflab acceptance`` child on ``checkout``'s source; a run that
    exits nonzero is not correct, and one that logs no criterion counts as
    one failed run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "reconflab.cli", ACCEPTANCE], cwd=checkout,
                          capture_output=True, text=True, env=env)
    try:
        run = parse_acceptance(proc.stderr)
    except ValueError as exc:
        return {"correct": False, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}: {exc}; stderr: {proc.stderr[-500:]}"}
    run["correct"] = run["correct"] and proc.returncode == 0
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


def revision(checkout: Path) -> str | None:
    """The checkout's git commit, with ``+dirty`` when its tracked files differ
    from it; None outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "HEAD")
        return rev + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


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
        for seed in ["fixed"] if workload == ACCEPTANCE else args.seed:
            runs = {side: [] for side in sides}
            for i in range(args.runs):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    run = (run_acceptance(sides[side]) if workload == ACCEPTANCE
                           else run_once(sides[side], workload, seed, args.seconds))
                    runs[side].append(run)
                    print(f"{workload} seed {seed} run {i + 1}/{args.runs} {side}: "
                          f"correct={run['correct']} {run['metrics']}", file=sys.stderr)
            entry = per_seed[str(seed)] = {
                side: {"runs": runs[side], "summary": summarize(runs[side])} for side in sides}
            if args.against is not None:
                direction = better if workload != ACCEPTANCE else {
                    name: "lower" for run in runs[TREE] for name in run["metrics"]}
                entry["tree_wins"] = pair_wins(runs[TREE], runs[PARENT], direction)
    return doc


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in benchmark["workloads"]] + [ACCEPTANCE],
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
