"""cubicsym benchmark: one closed-loop caller in one process, no threads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload in turn
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  cubicsym is imported from the checkout's
src/; the seed generates the inputs, which reach cubicsym only as form and
matrix JSON.  Every operation's output is checked (see workloads.py); an
operation fails if it raises or its check fails.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs the same loop untraced for half the time, then wraps cubicsym's public
names from outside and calls the steps behind classify one by one, and
reports the per-layer metrics from the recorded spans (written to
perfbench-out/ when the run ends) together with the tracing overhead.
--smoke runs every workload at a tiny size in both modes, checks that every
metric is reported, and feeds each workload a wrong expected output to check
that it is counted as a failure.

Times are calibrated: each latency is divided by the machine slowdown
measured while it ran (see calibrate.py), because on a shared host the raw
figures drift by a quarter or more between runs.  The error rate is printed
with every run and carried by "attempted" and "failed"; it is not one of the
metrics because it is zero whenever the program is correct.

The last line of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter, perf_counter_ns

from calibrate import Speed
from spans import Tracer
from workloads import LABEL_CODES, ROOT, SRC, WORKLOADS, import_cubicsym, modules

DEFAULT_SEED = 1
# later performance claims are checked again on this seed, which was not
# used while the benchmark was tuned
HELD_OUT_SEED = 20261017
DEFAULT_SECONDS = 20
SETUP_REPS = 9
OUT_DIR = ROOT / "perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span name, statistic, what it should move).
# "call" is the median duration of one call, "self" the median of that
# duration minus the traced calls inside it.
LAYER_METRICS = {
    "forms.from_json_us": ("us", "forms.from_json", "call", "census op_p50_ms (<1% share)"),
    "forms.pullback_us": ("us", "forms.pullback", "call", "covariance op_p50_ms"),
    "forms.radical_us": ("us", "forms.radical", "call", "census and covariance op_p50_ms"),
    "forms.tau0_ms": ("ms", "forms.tau0_upper_bound", "call",
                      "frame-search ops_per_s, nothing else"),
    "killing.build_system_us": ("us", "killing.build_system", "call",
                                "census ops_per_s and op_p50_ms (largest share)"),
    "killing.kernel_us": ("us", "killing.kernel", "call",
                          "covariance op_p50_ms, then census"),
    "killing.solve_us": ("us", "killing.solve", "call", "every solver workload"),
    "killing.verify_killing_us": ("us", "killing.verify_killing", "call",
                                  "audit ops_per_s"),
    "killing.solve_calls_per_op": ("count", "killing.solve", "per_op",
                                   "audit (176) and covariance (3) ops_per_s"),
    "linalg.kernel_entry_bits_max": ("count", None, "kernel_bits",
                                     "explains covariance vs census op_p50_ms"),
    "liealg.invariants_us": ("us", "liealg.invariants", "call", "covariance op_p50_ms"),
    "liealg.structure_constants_us": ("us", "liealg.structure_constants", "call",
                                      "covariance op_p50_ms"),
    "liealg.colinearity_us": ("us", "liealg.colinearity", "call", "covariance op_p50_ms"),
    "classify.classify_us": ("us", "classify.classify", "call",
                             "census and covariance op_p50_ms"),
    "classify.self_us": ("us", "classify.classify", "self",
                         "census and covariance op_p50_ms (classify minus solve)"),
    "classify.compare_us": ("us", "classify.compare", "call", "covariance op_p50_ms"),
    "catalog.verify_branch_ms": ("ms", "catalog.verify_branch", "call", "audit ops_per_s"),
    "catalog.verify_projective_ms": ("ms", "catalog.verify_projective", "call",
                                     "audit ops_per_s"),
    "catalog.import_ms": ("ms", None, "import", "setup_s"),
    "cli.catalog_verify_json_ms": ("ms", "cli.main", "self",
                                   "audit ops_per_s (cli.main minus verify_all)"),
    "trace.overhead_ms": ("ms", None, "overhead",
                          "none: traced minus untraced op_p50_ms of this run"),
}
# how many of each class label the first pinned_ops operations return
for _label in LABEL_CODES:
    LAYER_METRICS["classify.label_count." + _label.replace("(", "_").replace(")", "")] = (
        "count", _label, "label", "none: repeats exactly for a seed")

SETUP_SCRIPT = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import cubicsym\n"
                "print(cubicsym.classify(cubicsym.CubicForm.from_json({'F': 1})).label)\n")


def wrap_public_names(tracer, cs):
    """Wrap the names the operations and the catalog audit call, from outside."""
    m = modules()
    tracer.wrap(m["forms"].CubicForm, "from_json", "forms.from_json")
    tracer.wrap(m["forms"].CubicForm, "pullback", "forms.pullback")
    tracer.wrap(cs, "tau0_upper_bound", "forms.tau0_upper_bound")
    for owner in (m["killing"], m["classify"], m["catalog"], m["cli"]):
        tracer.wrap(owner, "solve", "killing.solve")
    for owner in (cs, m["classify"], m["catalog"]):
        tracer.wrap(owner, "classify", "classify.classify")
    tracer.wrap(cs, "compare", "classify.compare")
    tracer.wrap(m["catalog"], "verify_killing", "killing.verify_killing")
    for name in ("verify_branch", "verify_projective", "verify_all"):
        tracer.wrap(m["catalog"], name, "catalog." + name)
    tracer.wrap(m["cli"], "main", "cli.main")


def measure_setup(reps, importtime):
    """Median time of a fresh interpreter that imports cubicsym and classifies
    one fixed form, and the median cumulative import time of cubicsym.catalog
    when importtime is set, both in seconds divided by the slowdown measured
    just before and just after each interpreter (not during it: the sampling
    would compete with the interpreter for the CPUs).  The first interpreter,
    which writes the bytecode caches, is not counted."""
    cmd = [sys.executable, "-I"] + (["-X", "importtime"] if importtime else []) \
        + ["-c", SETUP_SCRIPT, str(SRC)]
    speed = Speed()

    def slowdown_now():
        for _ in range(3):
            speed.sample()
        return statistics.median(speed.slowdowns[-3:])

    times, import_s = [], []
    for k in range(reps + 1):
        before = slowdown_now()
        start = perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed_s = (perf_counter_ns() - start) / 1e9
        slowdown = (before + slowdown_now()) / 2
        if proc.returncode != 0 or proc.stdout.strip() != "1":
            raise SystemExit(f"set-up interpreter failed: {proc.stderr.strip()[-2000:]}")
        if k == 0:
            continue
        times.append(elapsed_s / slowdown)
        if importtime:
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "cubicsym.catalog":
                    import_s.append(int(fields[1]) / 1e6 / slowdown)
    return statistics.median(times), (statistics.median(import_s) if import_s else 0.0)


def tail(latencies):
    """(percentile, value, samples beyond) for the highest percentile, in
    tenths, with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1], 0
    tenths = 1000 * (n - 10) // n
    rank = -(-tenths * n // 1000)
    return tenths / 10, ordered[rank - 1], n - rank


def _wrong(expect):
    """A value of the same kind as `expect` that no correct output matches."""
    if isinstance(expect, str):
        return "no such class"
    if isinstance(expect, int):
        return -1
    return {}


class Runner:
    """Runs, checks and times operations; counts failures."""

    def __init__(self, workload, cs, items):
        self.workload = workload
        self.cs = cs
        self.items = items
        self.speed = Speed(workload.calibration)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.labels = Counter()
        self.kernel_bits = 0
        self.slowdown = {}

    def one(self, item, tracer=None):
        """Run, time and check one operation; returns its start, latency
        without calibration pauses, and end, in ns."""
        w = self.workload
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
            span = tracer.begin("op")
        paused = self.speed.paused_ns
        start = perf_counter_ns()
        try:
            out = w.op(self.cs, item)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        end = perf_counter_ns()
        elapsed = end - start - (self.speed.paused_ns - paused)
        if tracer is not None:
            tracer.end(span)
        if problem is None:
            problem = w.check(item, out)
        if problem is None and tracer is not None and w.probe is not None:
            with tracer.span("probe"):
                self.kernel_bits = max(self.kernel_bits,
                                       w.probe(self.cs, tracer.span, item, out))
        if problem is None and self.attempted <= w.pinned_ops:
            self.labels.update(w.labels(out))
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {self.attempted}: {problem}")
        return start, elapsed, end

    def phase(self, seconds, max_ops=None, tracer=None):
        """Operations until `seconds` pass, `max_ops` ran or inputs run out.

        Returns (calibrated, raw) latencies in ns of the whole input cycles
        among them; the calibrated ones are divided by the machine slowdown
        measured around each operation.
        """
        timings = []
        deadline = perf_counter() + seconds
        with self.speed.sampling():
            while perf_counter() < deadline and (max_ops is None or len(timings) < max_ops):
                item = next(self.items, None)
                if item is None:
                    break
                timings.append((self.attempted + 1, *self.one(item, tracer)))
        whole = len(timings) - len(timings) % self.workload.cycle
        calibrated, raw = [], []
        for op, start, elapsed, end in timings[:whole] if whole else timings:
            self.slowdown[op] = self.speed.around(start, end)
            calibrated.append(elapsed / self.slowdown[op])
            raw.append(elapsed)
        return calibrated, raw


def layer_metrics(tracer, runner, import_s, overhead_ms):
    """Per-layer metrics from the traced phase; span durations, which include
    the calibration pauses (about 5%), are divided by the slowdown measured
    around the operation they belong to."""
    records = tracer.durations()
    ops = sum(1 for name, _, _, root, _ in records if name == "op")
    values = {}
    for metric, (unit, source, stat, _) in LAYER_METRICS.items():
        scale = {"us": 1e3, "ms": 1e6}.get(unit, 1)
        if stat in ("call", "self"):
            picked = [(d if stat == "call" else s) / runner.slowdown[op]
                      for name, d, s, _, op in records
                      if name == source and op in runner.slowdown]
            values[metric] = statistics.median(picked) / scale if picked else 0.0
        elif stat == "per_op":
            calls = sum(1 for name, _, _, root, _ in records if name == source and root == "op")
            values[metric] = calls / ops if ops else 0.0
        elif stat == "kernel_bits":
            values[metric] = runner.kernel_bits
        elif stat == "import":
            values[metric] = import_s * 1e3
        elif stat == "overhead":
            values[metric] = overhead_ms
        elif stat == "label":
            values[metric] = runner.labels[source]
    return {name: {"value": v, "unit": LAYER_METRICS[name][0]} for name, v in values.items()}


def provenance(workload, args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubicsym").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loop": "closed loop, one caller, one process, no threads",
        "workload": workload.name,
        "why": workload.why,
        "op": workload.op_definition,
        "input_size": workload.input_size,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(workload, cs, seed, seconds, trace, max_ops=None, corrupt=False,
        setup_reps=SETUP_REPS, warmup=True):
    """One benchmark run; returns the result dict (metrics plus details)."""
    setup_s, import_s = measure_setup(setup_reps, importtime=bool(trace))
    skip = workload.warmup_ops if warmup else 0
    items = workload.inputs(cs, seed)
    if corrupt:
        first = next(items)
        first["expect"] = _wrong(first["expect"])
        items = itertools.chain([first], items)
    runner = Runner(workload, cs, items)
    runner.phase(float("inf"), skip)
    if not trace:
        latencies, raw = runner.phase(seconds, max_ops)
        tracer = None
    else:
        untraced, _ = runner.phase(seconds / 2, max_ops)
        # the traced half replays the untraced half's inputs, so the overhead
        # compares the same operations
        runner.items = itertools.islice(workload.inputs(cs, seed), skip, None)
        tracer = Tracer()
        wrap_public_names(tracer, cs)
        try:
            latencies, raw = runner.phase(seconds / 2, max_ops, tracer)
        finally:
            tracer.restore()
        overhead_ms = (statistics.median(latencies) - statistics.median(untraced)) / 1e6
    percentile, tail_ns, beyond = tail(latencies)
    detail = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "timed_ops": len(latencies),
        "raw_op_p50_ms": statistics.median(raw) / 1e6,
        "median_slowdown": statistics.median(runner.speed.slowdowns),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "failures": runner.failures,
    }
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
            "op_p50_ms": statistics.median(latencies) / 1e6,
            "op_tail_ms": tail_ns / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
    else:
        metrics = layer_metrics(tracer, runner, import_s, overhead_ms)
        detail["spans"] = len(tracer.spans)
    return {"metrics": metrics, "detail": detail, "tracer": tracer}


def report(workload, args, result):
    detail = result["detail"]
    print(f"{workload.name}  seed={args.seed}  trace={args.trace}  "
          f"median_slowdown={detail['median_slowdown']:.3f}  "
          f"raw_op_p50_ms={detail['raw_op_p50_ms']:.4g}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{detail['tail_percentile']:g}, {detail['tail_samples_beyond']} "
                    f"of {detail['timed_ops']} samples beyond)")
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'error_rate':32s} {detail['error_rate']:14.6g} failed/attempted "
          f"({detail['failed']} of {detail['attempted']})")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    record = {"provenance": provenance(workload, args),
              "detail": detail, "metrics": result["metrics"]}
    if args.trace:
        record["layer_moves"] = {name: spec[3] for name, spec in LAYER_METRICS.items()}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(OUT_DIR / f"spans-{stem}.json")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": result["metrics"]}))


def declared_metrics():
    """Problems with BENCHMARK.json against the workloads and metrics run.py reports."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, reported in (("workloads", {n: None for n in WORKLOADS}),
                          ("end_to_end", END_TO_END),
                          ("per_layer", {n: spec[0] for n, spec in LAYER_METRICS.items()})):
        declared = {e["name"]: e.get("unit") for e in doc[key]}
        if declared != reported:
            problems.append(f"BENCHMARK.json {key} {declared} != reported {reported}")
    return problems


def smoke(cs):
    """Every workload at a tiny size: all metrics present, no failures, and a
    wrong expected output counted as exactly one failure."""
    problems = declared_metrics()
    for name, cls in WORKLOADS.items():
        workload = cls()
        found = []
        for trace, wanted in ((0, END_TO_END), (1, LAYER_METRICS)):
            result = run(workload, cs, DEFAULT_SEED, 60, trace, max_ops=2,
                         setup_reps=1, warmup=False)
            missing = sorted(set(wanted) - set(result["metrics"]))
            if missing:
                found.append(f"{name} trace={trace}: missing {missing}")
            if result["detail"]["failed"]:
                found.append(f"{name} trace={trace}: {result['detail']['failures']}")
        result = run(workload, cs, DEFAULT_SEED, 60, 0, max_ops=2, corrupt=True,
                     setup_reps=1, warmup=False)
        if result["detail"]["failed"] != 1:
            found.append(f"{name}: a wrong expected output gave "
                         f"{result['detail']['failed']} failures, not 1")
        print(f"smoke {name}: {'FAILED' if found else 'ok'}")
        problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="the workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at a tiny size and exit")
    args = parser.parse_args()
    cs = import_cubicsym()
    if args.smoke:
        return smoke(cs)
    for name in [args.workload] if args.workload else WORKLOADS:
        workload = WORKLOADS[name]()
        report(workload, args, run(workload, cs, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
