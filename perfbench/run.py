"""reconflab benchmark: seeded workloads, checked answers, one JSON result line.

    python3 perfbench/run.py --workload token-search --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
One client, one thread, closed loop: each item starts when the previous one
ends.  The first pass over the items checks every answer against the
benchmark's own oracle; later whole passes repeat the items until
``--seconds`` of item time is spent and must reproduce the first pass's
answers.  Every timed region is timed against a probe run right before and
after it (``clock.py``), which cancels the drifting speed of a shared
machine; an item's latency is the median of its runs.  Set-up is timed in
fresh processes spread over the run.  With ``--trace 0`` the last line
carries the end-to-end metrics.  With ``--trace 1`` each later pass runs
every item twice, untraced and traced; the last line carries the per-layer
metrics (self times per pass, exact counts per pass) and the spans go to
``.bench_out/trace-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import clock
from spans import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
MIN_PASSES = 3  # a run goes on past --seconds until each item has run this often
PROBES = 5  # probe loops timed on each side of a set-up

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# spans whose self time is reported as <name>.busy_s
BUSY = (
    "dsr.solve", "dsr.verify_witness", "dsr.enumerate_dominating_sets", "dsr.is_feasible",
    "graphs.min_feedback_vertex_set", "graphs.degeneracy",
    "reductions.check_min_ds_structure", "widths.derive_decomposition",
    "decomposition.verify_decomposition",
    "reductions.desynchronize_triangle", "reductions.tape_to_ts_dsr",
    "reductions.tape_to_tj_cdsr", "reductions.partitioned_dsr_to_sync_stars",
    "reductions.ds_to_sync_multi", "reductions.formula_to_multi",
    "tapes.solve_tape", "tapes.solve_multi",
    "tape_reduce.reduce_tapes_fully", "tape_reduce.solve_bounded_alphabet",
    "serialize.decode", "serialize.encode", "cli.call",
)
CONSTRUCTORS = ("desynchronize_triangle", "tape_to_ts_dsr", "tape_to_tj_cdsr",
                "partitioned_dsr_to_sync_stars", "ds_to_sync_multi", "formula_to_multi")
# exact work counts per pass, as the items and the set-up report them
COUNTS = (
    "dsr.solve.calls", "dsr.solve.states", "dsr.enumerate_dominating_sets.sets",
    "graphs.min_feedback_vertex_set.calls", "graphs.min_feedback_vertex_set.size_sum",
    "decomposition.verify_decomposition.width_sum",
    *(f"reductions.{c}.{s}" for c in CONSTRUCTORS for s in ("size_in", "size_out")),
    "tapes.solve_tape.states", "tapes.solve_multi.selections",
    "tape_reduce.reduce_tapes_fully.tapes_removed", "serialize.bytes",
)
CLI_SUBCOMMANDS = ("solve", "solve-tape", "reduce", "reduce-tapes", "kernelize",
                   "verify-reduction", "verify-witness", "gen")
LAYERS = ("dsr", "graphs", "reductions", "widths", "decomposition", "tapes", "tape_reduce",
          "kernel", "matching", "serialize", "cli", "check")

PER_LAYER = {
    **{f"{name}.busy_s": "s" for name in BUSY},
    **{name: "count" for name in COUNTS},
    "dsr.solve.states_per_s": "1/s",
    "tapes.solve_tape.states_per_s": "1/s",
    "dsr.guard_filter.useful_ratio": "ratio",
    "tapes.solve_multi.useful_ratio": "ratio",
    "cli.import_ms": "ms",
    **{f"cli.call_ms.{sub}": "ms" for sub in CLI_SUBCOMMANDS},
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="token-search")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this fresh process and print it (internal)")
    p.add_argument("--write-golden", action="store_true",
                   help=f"record every workload's answers at seed {DEFAULT_SEED} in golden.json; "
                        "certificate failures are printed but do not stop it")
    return p.parse_args(argv)


def import_program():
    """Import reconflab from this checkout's src/, or fail."""
    if not (SRC / "reconflab" / "__init__.py").is_file():
        sys.exit(f"error: no reconflab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reconflab

    if Path(reconflab.__file__).resolve().parent != SRC / "reconflab":
        sys.exit(f"error: reconflab imported from {reconflab.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up

def setup_child(args) -> int:
    clock.loop_slowness(PROBES)  # warm the probe up
    before = clock.loop_slowness(PROBES)
    start = perf_counter()
    import_program()
    import workloads

    _, digest = workloads.build(args.workload, args.seed, NULL, Counter())
    wall = perf_counter() - start
    slowness = (before + clock.loop_slowness(PROBES)) / 2
    print(json.dumps({"setup_s": wall / slowness, "wall_s": wall, "digest": digest}))
    return 0


class SetupSampler:
    """Set-up timed in fresh processes, one at a time, spread evenly over the run.

    Each child scales its set-up time by probe loops timed just before and
    after it; ``setup_s`` is the median of the scaled samples.
    """

    count = SETUP_SAMPLES

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.samples: list[dict] = []

    def take_due(self, share: float) -> bool:
        """Take the samples due once ``share`` of the run has passed; True if any."""
        taken = len(self.samples)
        while len(self.samples) < self.count and share * self.count >= len(self.samples):
            proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=120)
            if proc.returncode != 0:
                sys.exit(f"error: set-up failed:\n{proc.stderr}")
            self.samples.append(json.loads(proc.stdout.splitlines()[-1]))
        return len(self.samples) > taken

    def setup_s(self) -> float:
        return statistics.median(s["setup_s"] for s in self.samples)


# ---------------------------------------------------------------------------
# the closed loop

def failing_layer(exc: BaseException) -> str:
    """The innermost reconflab module on the traceback, else the benchmark's check."""
    if isinstance(exc, subprocess.TimeoutExpired):
        return "cli"
    layer = "check"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("reconflab."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


class Run:
    """Latencies, failures and first-pass answers of one measured run."""

    def __init__(self, items, tracer=NULL):
        self.items = items
        self.tracer = tracer
        self.latencies: list[float] = []
        self.scaled: dict[str, list[float]] = {}  # item id -> untraced runs, probe-scaled
        self.failures: Counter = Counter()
        self.errors: list[str] = []
        self.reference: dict[str, tuple] = {}  # first-pass answer and witness length
        self.wrong: set[str] = set()  # items whose first-pass answer failed its oracle
        self.probe: float | None = None  # slowness just after the last untraced item
        self.counts: Counter = Counter()
        self.pass_seconds = {False: [], True: []}  # traced? -> item time per paired pass
        self.traced_spans: list[tuple[int, int]] = []

    def fail(self, layer: str, item_id: str, message: str) -> None:
        self.failures[layer] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{item_id}: {layer}: {message}")

    def judge(self, item, out, first: bool) -> None:
        got = (out.answer, out.witness_len)
        if first:
            self.counts.update(out.counts)
            try:
                answer, length = item.oracle()
            except Exception as exc:  # an oracle disagreeing with the set-up
                self.wrong.add(item.id)
                self.fail("check", item.id, f"oracle: {exc!r}")
                return
            self.reference[item.id] = got
            if answer != out.answer or (length is not None and length != out.witness_len):
                self.wrong.add(item.id)
                self.fail("check", item.id, f"got {got}, oracle says {(answer, length)}")
                return
        elif self.reference.get(item.id, got) != got:
            self.fail("check", item.id, f"got {got}, first pass gave {self.reference[item.id]}")
            return
        if out.problems:
            self.fail("check", item.id, "; ".join(out.problems))

    def execute(self, item, traced: bool, first: bool) -> float:
        """Run one item, judge its outcome, return its latency in seconds."""
        if traced:
            self.tracer.item = item.id
            span = self.tracer.begin("item")
            self.probe = None
        else:
            # items run back to back, so the probe after one is the probe before the next
            before = self.probe if self.probe is not None else item.slowness()
        start = perf_counter()
        try:
            out, err = item.run(self.tracer if traced else NULL), None
        except Exception as exc:  # every failure is counted, none stops the run
            out, err = None, exc
        elapsed = perf_counter() - start
        if traced:
            self.tracer.end(span)
        else:
            self.probe = item.slowness()
            slowness = (before + self.probe) / 2
            self.scaled.setdefault(item.id, []).append(elapsed / slowness)
        self.latencies.append(elapsed)
        if err is not None:
            self.fail(failing_layer(err), item.id, repr(err))
        else:
            self.judge(item, out, first)
        return elapsed

    def take_setup(self, setup: SetupSampler, share: float) -> None:
        """Take the set-up samples due; a child run since the last probe makes it stale."""
        if setup.take_due(share):
            self.probe = None

    def measure(self, seconds: float, setup: SetupSampler) -> None:
        """Untraced closed loop: one checked pass, then whole passes until
        ``seconds`` of item time and ``MIN_PASSES`` passes are done."""
        busy, passes = 0.0, 0
        while passes < MIN_PASSES or busy < seconds:
            for item in self.items:
                busy += self.execute(item, traced=False, first=passes == 0)
                self.take_setup(setup, busy / seconds)
            passes += 1
        setup.take_due(1.0)

    def measure_traced(self, seconds: float, setup: SetupSampler) -> None:
        """One checked pass, then whole paired passes until ``seconds`` of item time is spent.

        A paired pass runs each item twice, untraced and traced, alternating
        which goes first, so that the tracing overhead is measured on the
        same items at nearly the same moment.
        """
        busy = 0.0
        for item in self.items:
            busy += self.execute(item, traced=False, first=True)
            self.take_setup(setup, busy / seconds)
        while True:
            span_from = len(self.tracer.spans)
            plain = traced = 0.0
            for i, item in enumerate(self.items):
                for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
                    elapsed = self.execute(item, trace_it, first=False)
                    if trace_it:
                        traced += elapsed
                    else:
                        plain += elapsed
                    busy += elapsed
                self.take_setup(setup, busy / seconds)
            self.pass_seconds[False].append(plain)
            self.pass_seconds[True].append(traced)
            self.traced_spans.append((span_from, len(self.tracer.spans)))
            if busy >= seconds:
                setup.take_due(1.0)
                return


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run: Run, setup: SetupSampler) -> dict:
    lat = sorted(statistics.median(v) for v in run.scaled.values())
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup.setup_s(),
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1000,
        "item_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(run: Run, setup_counts: Counter, setup_spans: int, workload: str) -> dict:
    tracer = run.tracer
    passes = len(run.traced_spans)
    busy = Counter(tracer.self_times(0, setup_spans))
    call_ms: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
    for first, last in run.traced_spans:
        for name, secs in tracer.self_times(first, last).items():
            busy[name] += secs / passes
        for name, start, end, _, item in tracer.spans[first:last]:
            if name == "cli.call":  # cli item ids are <subcommand>-<n>
                call_ms[item.rsplit("-", 1)[0]].append((end - start) * 1000)
    counts = merged(run.counts, setup_counts)
    out = {f"{name}.busy_s": busy[name] for name in BUSY}
    out.update({name: counts[name] for name in COUNTS})
    out["dsr.solve.states_per_s"] = _ratio(counts["dsr.solve.states"], busy["dsr.solve"])
    out["tapes.solve_tape.states_per_s"] = _ratio(counts["tapes.solve_tape.states"],
                                                  busy["tapes.solve_tape"])
    out["dsr.guard_filter.useful_ratio"] = _ratio(counts["dsr.guard_filter.useful"],
                                                  counts["dsr.enumerate_dominating_sets.sets"])
    out["tapes.solve_multi.useful_ratio"] = _ratio(counts["tapes.solve_multi.positive"],
                                                   counts["tapes.solve_multi.selections"])
    out["cli.import_ms"] = cli_import_ms() if workload == "cli-calls" else 0.0
    out.update({f"cli.call_ms.{sub}": statistics.median(v) if v else 0.0
                for sub, v in call_ms.items()})
    out.update({f"{layer}.failed": run.failures[layer] for layer in LAYERS})
    untraced, traced = run.pass_seconds[False], run.pass_seconds[True]
    out["trace.overhead_ratio"] = sum(traced) / sum(untraced) - 1
    return out


def merged(*counters: Counter) -> Counter:
    """Sum of counters that keeps zero and negative totals (``+`` drops them)."""
    out: Counter = Counter()
    for c in counters:
        out.update(c)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def cli_import_ms(samples: int = 7) -> float:
    """Median fresh ``import reconflab.cli`` minus a bare interpreter, one child at a time."""
    import workloads

    env = workloads.cli_env()

    def child(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=env)
        return perf_counter() - start

    diffs = [child("import reconflab.cli") - child("pass") for _ in range(samples)]
    return statistics.median(diffs) * 1000


# ---------------------------------------------------------------------------
# golden answers at the default seed

def golden_mismatches(run: Run, workload: str, digest: str) -> list[str]:
    golden = json.loads(GOLDEN.read_text())["workloads"].get(workload)
    if golden is None:
        return [f"no golden answers for {workload}"]
    bad = []
    if golden["digest"] != digest:
        bad.append(f"input digest {digest}, golden {golden['digest']}")
    for item_id, want in golden["items"].items():
        got = list(run.reference.get(item_id, (None, None)))
        if got != want:
            bad.append(f"{item_id}: got {got}, golden {want}")
    return bad


def write_golden() -> int:
    import workloads

    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        items, digest = workloads.build(name, DEFAULT_SEED, NULL, Counter())
        run = Run(items)
        for item in items:
            run.execute(item, traced=False, first=True)
        if run.errors:
            print("\n".join(run.errors), file=sys.stderr)
        if any(item.id not in run.reference or item.id in run.wrong for item in items):
            return 1  # only answers the oracles confirm go into the golden file
        doc["workloads"][name] = {
            "digest": digest,
            "items": {item.id: list(run.reference[item.id]) for item in items},
        }
    GOLDEN.write_text(_one_item_per_line(doc))
    return 0


def _one_item_per_line(doc: dict) -> str:
    lines = ["{", f' "seed": {doc["seed"]},', ' "workloads": {']
    for w, (name, entry) in enumerate(sorted(doc["workloads"].items())):
        lines.append(f'  "{name}": {{"digest": "{entry["digest"]}", "items": {{')
        items = sorted(entry["items"].items())
        for i, (item_id, answer) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            lines.append(f'   "{item_id}": {json.dumps(answer)}{comma}')
        lines.append("  }}" + ("," if w + 1 < len(doc["workloads"]) else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_child(args)
    import_program()
    if args.write_golden:
        return write_golden()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    setup = SetupSampler(args)
    tracer = Tracer() if args.trace else NULL
    setup_counts: Counter = Counter()
    items, digest = workloads.build(args.workload, args.seed, tracer, setup_counts)
    setup_spans = len(tracer.spans) if args.trace else 0
    run = Run(items, tracer)
    if args.trace:
        run.measure_traced(args.seconds, setup)
    else:
        run.measure(args.seconds, setup)

    for sample in setup.samples:
        if sample["digest"] != digest:
            run.fail("check", "set-up", f"digest {sample['digest']} differs from {digest}")
    if args.seed == DEFAULT_SEED:
        for message in golden_mismatches(run, args.workload, digest):
            run.fail("check", "golden", message)
    if args.trace:
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"trace-{args.workload}.json")
        metrics, units = per_layer(run, setup_counts, setup_spans, args.workload), PER_LAYER
    else:
        metrics, units = end_to_end(run, setup), END_TO_END
    failed = sum(run.failures.values())
    report = {
        "workload": args.workload, "seed": args.seed, "digest": digest,
        "items_per_pass": len(items), "item_runs": len(run.latencies),
        "wall_item_p50_ms": statistics.median(run.latencies) * 1000,
        "counts": dict(sorted(merged(run.counts, setup_counts).items())),
        "failures": dict(run.failures), "errors": run.errors,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.latencies),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
