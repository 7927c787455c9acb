#!/usr/bin/env python3
"""gwreath benchmark harness (stdlib only).

    python3 bench/run.py --workload {words,search,cli,all} --seed N --seconds S --trace {0,1}

Runs the uninstalled package from ``src/`` of the checkout this file
lives in.  One client runs one operation at a time (a closed loop) in
whole passes over the seeded operation list until ``--seconds`` have
passed and at least two passes ran; every output is checked, compared with the first pass and with
the golden digests in ``bench/golden.json``.  Timed metrics use each
operation's best time over the passes, scaled to a reference machine
speed measured next to it (see ``bench/README.md``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of alternating untraced and traced passes (see
``bench/README.md``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 10
MIN_PASSES = 2  # best of at least two, even when one pass outlasts --seconds
# Reference times on a quiet 2-vCPU Xeon VM with Python 3.11: timed
# end-to-end metrics are reported as if the machine ran at that speed.
REFERENCE_WORK_S = 0.0025  # reference_work()
REFERENCE_START_S = 0.045  # python -c pass
PROBE_WINDOW = 3
SPAWN_REPEATS = 5
CHILD_TIMEOUT_S = 120
MODULES = ("groups", "graphs", "words", "wreath", "checker", "lef", "formats", "cli", "errors")
WORKLOADS = ("words", "search", "cli")

sys.path[:0] = [str(BENCH), str(SRC)]
import tracing  # noqa: E402
import workloads  # noqa: E402


class Failure:
    """An operation that raised: the output it is judged by."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# set-up


def load_package():
    """Import gwreath afresh from src/ (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "gwreath" or n.startswith("gwreath.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"gwreath.{m}") for m in MODULES})


def setup(workload, seed):
    """Import, generate and validate the inputs SETUP_REPEATS times; the
    last result is used and the median scaled time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        factor = work_scale()
        start = time.perf_counter()
        G = load_package()
        built = workloads.build(workload, G, seed, (WORK / f"{workload}-{seed}").relative_to(ROOT))
        for path, text in built.files.items():
            target = ROOT / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        times.append((time.perf_counter() - start) * factor)
    return G, built, statistics.median(times)


# ---------------------------------------------------------------------------
# running operations


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _output_path(argv):
    return ROOT / argv[argv.index("--output") + 1] if "--output" in argv else None


def _read_output(path):
    if path is None:
        return None
    return path.read_text(encoding="utf-8") if path.exists() else ""


def spawn_cli(argv, env):
    """One ``python -m gwreath.cli`` child; returns (code, stdout, stderr, file)."""
    out_path = _output_path(argv)
    if out_path is not None and out_path.exists():
        out_path.unlink()
    proc = subprocess.run([sys.executable, "-m", "gwreath.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, _read_output(out_path)


def run_cli_in_process(G, argv):
    """``gwreath.cli.run(argv)`` with stdout and stderr captured."""
    out_path = _output_path(argv)
    if out_path is not None and out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = G.cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue(), _read_output(out_path)


def reference_work():
    """Fixed pure-Python work that allocates the way the package does
    (small tuples, frozensets, dict-of-list buckets, a sort).  It never
    changes, so its time measures the speed of the machine."""
    buckets = {}
    items = []
    for i in range(3000):
        pair = (i % 97, i)
        items.append(frozenset((pair, (i % 13, -i))))
        buckets.setdefault(i % 211, []).append(pair)
    return len(sorted(items, key=len)) + sum(map(len, buckets.values()))


def work_scale():
    """Factor converting a time taken now to the time on a machine where
    ``reference_work`` takes REFERENCE_WORK_S (median of three runs)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return REFERENCE_WORK_S / statistics.median(times)


class StartupScale:
    """Factor converting a child's time taken now to the time on a machine
    where ``python -c pass`` takes REFERENCE_START_S.  Each call starts one
    empty interpreter; the factor uses the median of the last
    PROBE_WINDOW starts."""

    def __init__(self, env):
        self.env = env
        self.samples = []

    def __call__(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        self.samples.append(time.perf_counter() - start)
        return REFERENCE_START_S / statistics.median(self.samples[-PROBE_WINDOW:])


def one_pass(ops, call, tracer=None, first_id=0, scale=None):
    """Run every operation once; returns [(latency_s, output)].  With
    ``scale``, each latency is multiplied by the factor ``scale()`` gives
    just before the operation (taken outside the timed region)."""
    gc.collect()
    records = []
    for i, op in enumerate(ops):
        factor = scale() if scale is not None else 1.0
        if tracer is not None:
            tracer.op = first_id + i
        t0 = time.perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # an unexpected exception is a failed operation
            out = Failure(exc)
        records.append(((time.perf_counter() - t0) * factor, out))
    return records


# ---------------------------------------------------------------------------
# checking


def load_golden():
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Judge:
    """Checks every output.  The first output of each operation is checked
    semantically and against the golden digests in ``finish``; every
    later one must reproduce its document byte for byte."""

    def __init__(self, golden):
        self.golden = golden
        self.first = {}  # operation name -> (op, output, document)
        self.outcomes = {}  # operation name -> [passed?] per execution
        self.problems = []

    def see(self, ops, records):
        for op, (_, out) in zip(ops, records):
            problem = self._compare(op, out)
            self.outcomes.setdefault(op.name, []).append(problem is None)
            if problem is not None:
                self.problems.append((op.name, problem))

    def _compare(self, op, out):
        if isinstance(out, Failure):
            return out.text
        try:
            document = op.document(out)
        except Exception as exc:  # an output that cannot be rendered is wrong
            return f"rendering raised {type(exc).__name__}: {exc}"
        if op.name not in self.first:
            self.first[op.name] = (op, out, document)
            return None
        return None if document == self.first[op.name][2] else "output differs from the first pass"

    def finish(self):
        """Returns (attempted, failed, [(operation, problem)])."""
        for name, (op, out, document) in self.first.items():
            try:
                problem = op.check(out)
            except Exception as exc:  # a check that cannot run counts against the output
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is None and op.golden and self.golden.get(op.key, digest(document)) != digest(document):
                problem = "output differs from the golden digest"
            if problem is not None:
                self.outcomes[name] = [False] * len(self.outcomes[name])
                self.problems.append((name, problem))
        runs = [ok for oks in self.outcomes.values() for ok in oks]
        return len(runs), runs.count(False), self.problems


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def slope(points):
    """Least-squares slope of log(latency) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(latency) for _, latency in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def best_of(passes):
    """Each operation's fastest latency over the passes of a run."""
    return [min(latencies) for latencies in zip(*passes)]


def tier_medians(ops, passes):
    """{sweep: {size: median best-of-passes latency in seconds}}."""
    samples = {}
    for op, latency in zip(ops, best_of(passes)):
        if op.tier is not None:
            sweep, size = op.tier
            samples.setdefault(sweep, {}).setdefault(size, []).append(latency)
    return {sweep: {size: statistics.median(v) for size, v in sorted(sizes.items())}
            for sweep, sizes in samples.items()}


TIER_PREFIX = {  # sweep -> metric name prefix; the size follows it
    "words": "words.tier",
    "exhausted": "wreath.exhausted.bound",
    "collide": "wreath.collide.k",
    "torus-separate": "wreath.torus_separate.v",
    "torus": "checker.torus.v",
}
TIER_SIZES = {
    "words": list(workloads.WORD_TIERS),
    "exhausted": list(workloads.EXHAUST_BOUNDS),
    "collide": list(workloads.COLLIDE),
    "torus-separate": [n * n for n in workloads.TORI],
    "torus": [n * n for n in workloads.TORI],
}


def sweep_metrics(medians):
    """Per-tier median latencies and the three size exponents; 0 where the
    workload has no such sweep."""
    out = {}
    for sweep, sizes in TIER_SIZES.items():
        for size in sizes:
            out[f"{TIER_PREFIX[sweep]}{size}.latency_p50_ms"] = medians.get(sweep, {}).get(size, 0.0) * 1000
    for name, sweep in (("words.size_exponent", "words"),
                        ("wreath.exhausted.size_exponent", "exhausted"),
                        ("checker.torus.size_exponent", "torus")):
        points = list(medians.get(sweep, {}).items())
        out[name] = slope(points) if len(points) > 1 else 0.0
    return out


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(G, built, seconds, judge):
    """Whole passes until ``seconds`` have passed and at least MIN_PASSES
    ran; returns the latencies of each pass and the end-to-end metrics."""
    ops = built.ops
    if built.name == "cli":
        env = child_env()
        scale = StartupScale(env)

        def call(op):
            return spawn_cli(op.argv, env)
    else:
        scale = work_scale

        def call(op):
            return op.run()

    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        records = one_pass(ops, call, scale=scale)
        judge.see(ops, records)
        passes.append([latency for latency, _ in records])
    latencies = best_of(passes)
    who = resource.RUSAGE_CHILDREN if built.name == "cli" else resource.RUSAGE_SELF
    return passes, {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def traced_run(G, built, seconds, trace_path, judge):
    """Alternate untraced and traced passes until ``seconds`` have passed;
    returns the per-layer metrics and the number of traced passes."""
    ops = built.ops
    if built.name == "cli":
        def call(op):
            return run_cli_in_process(G, op.argv)
    else:
        def call(op):
            return op.run()

    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        records = one_pass(ops, call)
        judge.see(ops, records)
        untraced.append([latency for latency, _ in records])
        tracer.install()
        try:
            records = one_pass(ops, call, tracer, first_id=len(traced) * len(ops))
        finally:
            tracer.uninstall()
        judge.see(ops, records)
        traced.append([latency for latency, _ in records])
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers survived: {leftover[:5]}")
    tracer.write(trace_path)

    untraced_s = sum(map(sum, untraced))
    traced_s = sum(map(sum, traced))
    metrics = tracing.summarize(tracer, traced_s, len(traced))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    metrics.update(sweep_metrics(tier_medians(ops, untraced)))
    run_ms = 0.0  # in-process cli.run latency; the other workloads do not call it
    if built.name == "cli":
        run_ms = statistics.median(best_of(untraced)) * 1000
    metrics["cli.run_ms"] = run_ms
    metrics.update(spawn_metrics())
    return metrics, len(traced)


def spawn_metrics():
    """Interpreter start-up and ``import gwreath.cli`` in fresh children."""
    env = child_env()

    def median_ms(code):
        times = []
        for _ in range(SPAWN_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=CHILD_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1000

    interpreter = median_ms("pass")
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": median_ms("import gwreath.cli") - interpreter}


# ---------------------------------------------------------------------------
# reporting

UNITS = {
    "ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ms",)):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".calls", ".syllables")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("size_exponent"):
        return "slope"
    return "ratio"


def report(workload, seed, trace, metrics, operations, attempted, failed, problems, extra):
    print(f"gwreath benchmark  workload={workload} seed={seed} trace={trace}")
    for line in extra:
        print(line)
    for name, value in metrics.items():
        note = ""
        if name == "latency_p90_ms":
            note = f"  (n={operations} operations, {operations - math.ceil(0.9 * operations)} beyond)"
        print(f"  {name:<44} {value:14.6g} {unit_of(name)}{note}")
    print(f"  {'failed_frac':<44} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    for name, problem in problems[:10]:
        print(f"  FAILED {name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))


def run_one(args):
    if not (SRC / "gwreath" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'gwreath'} not found; run from a checkout of the repository")
    WORK.mkdir(exist_ok=True)
    G, built, setup_s = setup(args.workload, args.seed)
    judge = Judge(load_golden())
    trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
    if args.trace:
        metrics, traced = traced_run(G, built, args.seconds, trace_path, judge)
        extra = [f"  traced passes: {traced}, spans written to {trace_path.relative_to(ROOT)}"]
    else:
        passes, metrics = untraced_run(G, built, args.seconds, judge)
        metrics["setup_s"] = setup_s
        extra = [f"  passes: {len(passes)} x {len(built.ops)} operations; latencies are each "
                 f"operation's best of its {len(passes)} passes"]
        reference = ("python -c pass", REFERENCE_START_S) if built.name == "cli" else \
            ("reference_work()", REFERENCE_WORK_S)
        extra.append(f"  times scaled to a machine where {reference[0]} takes {reference[1] * 1000:g} ms")
        for sweep, sizes in tier_medians(built.ops, passes).items():
            tiers = "  ".join(f"{size}:{latency * 1000:.4g}" for size, latency in sizes.items())
            extra.append(f"  {sweep} tier latency_p50_ms  {tiers}")
    attempted, failed, problems = judge.finish()
    report(args.workload, args.seed, args.trace, metrics, len(built.ops), attempted, failed, problems,
           extra)


def run_all(args):
    """Each workload in its own child, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        os.chdir(ROOT)
        run_one(args)


if __name__ == "__main__":
    main()
