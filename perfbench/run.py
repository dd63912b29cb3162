"""greenskel benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload analyze_mid --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; greenskel is imported from its `src/`.
The run generates the workload's `.tsg` documents from the seed, then
sends the documents one at a time, in passes, until the time is up; the
first pass is a warm-up and is not timed.  Set-up (import plus parsing
every document) is measured in fresh interpreters between passes.  Every
op's output is checked.  The last line of standard output is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`, whose spans are also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import docgen
import tracing
from workloads import OPS, Checker, load_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# After each timed pass, set-up runs this many times and the fastest
# counts; a run takes at least SETUP_MIN such figures.
SETUP_PER_PASS = 3
SETUP_MIN = 9

# Runs in a fresh interpreter per set-up sample; the documents come on stdin.
SETUP_CODE = """
import json, sys, time
texts = json.load(sys.stdin)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import greenskel
import greenskel.cli
for text in texts:
    greenskel.cli.parse(text)
print(time.perf_counter() - start)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_greenskel():
    if not (SRC / "greenskel" / "__init__.py").is_file():
        raise BenchError(f"no greenskel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import greenskel
    import greenskel.cli

    if not Path(greenskel.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"greenskel imported from {greenskel.__file__}, not from {SRC}")
    return greenskel


def setup_sample(payload):
    """Seconds to import greenskel and parse every document, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        input=payload,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class Client:
    """One closed-loop client: the next document goes out when the last op returns."""

    def __init__(self, gs, workload, docs, checker):
        self.gs = gs
        self.op = OPS[workload]
        self.docs = docs
        self.parsed = [gs.cli.parse(doc.text) for doc in docs]
        self.op_times = [[] for _ in docs]
        self.checker = checker
        self.tracer = None
        self._tracebacks = 3

    def one_pass(self, parse=False, deadline=None):
        """(op seconds, indices done) for one pass over the documents.

        ``parse`` times parsing with each op.  With a ``deadline`` the pass
        takes the documents cheapest first and starts no new one after it.
        """
        order = range(len(self.docs))
        if deadline is not None:
            order = sorted(order, key=lambda i: statistics.median(self.op_times[i]))
        total = 0.0
        done = []
        for i in order:
            if deadline is not None and done and time.perf_counter() >= deadline:
                break
            doc = self.docs[i]
            gc.collect()
            if self.tracer:
                self.tracer.start_doc(i)
            result = error = None
            start = time.perf_counter()
            try:
                if parse:
                    self.gs.cli.parse(doc.text)
                result = self.op(self.gs, doc, self.parsed[i])
            except Exception as err:  # a failed op is counted, the run goes on
                error = err
            elapsed = time.perf_counter() - start
            total += elapsed
            self.op_times[i].append(elapsed)
            if error is not None and self._tracebacks:
                self._tracebacks -= 1
                traceback.print_exception(error, file=sys.stderr)
            self.checker.record(doc, result, error)
            done.append(i)
        return total, done


def passes_until(deadline, one_pass):
    """Pass times, stopping once another pass would end past the deadline by half a pass."""
    times = []
    while True:
        times.append(one_pass())
        if time.perf_counter() + statistics.median(times) / 2 >= deadline:
            return times


def timed_run(client, seconds, payload):
    """End-to-end metrics from the timed passes that follow a warm-up pass.

    The first pass in a process also grows the heap, so it is not timed.
    The machine's speed drifts by a third and more within seconds, so a
    document's time is its fastest timed pass: the least disturbed
    measurement of the same work.  Set-up is measured the same way after
    each pass, so its figures spread over the run, and reported as their
    median.
    """
    deadline = time.perf_counter() + seconds
    setup_sample(payload)  # writes bytecode caches; not counted
    client.one_pass()
    client.op_times = [[] for _ in client.docs]
    setups = []

    def setup_figure():
        setups.append(min(setup_sample(payload) for _ in range(SETUP_PER_PASS)))

    def timed_pass():
        op_seconds = client.one_pass()[0]
        setup_figure()
        return op_seconds

    passes = passes_until(deadline, timed_pass)
    while len(setups) < SETUP_MIN:
        setup_figure()
    wall = sum(min(times) for times in client.op_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return len(passes), {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "inputs_per_s": (len(client.docs) / wall, "1/s"),
    }


@contextmanager
def tracing_on(client, tracer):
    tracer.install()
    client.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        client.tracer = None


def traced_run(client, seconds, workload, seed):
    """Per-layer metrics from traced passes, alternating with untraced ones.

    A warm-up pass goes first, since the first pass in a process also grows
    the heap; the overhead is the median traced minus the median untraced
    pass.  The pairs take two thirds of the time, the tracemalloc pass the
    rest.
    """
    start = time.perf_counter()
    client.one_pass(parse=True)
    tracer = tracing.Tracer()
    figures = []
    traced = []
    untraced = []
    first_spans = []

    def pair():
        with tracing_on(client, tracer):
            tracer.start_pass()
            traced.append(client.one_pass(parse=True)[0])
        figures.append(tracer.pass_figures(traced[-1]))
        if not first_spans:
            first_spans.extend(tracer.spans)
        untraced.append(client.one_pass(parse=True)[0])
        return traced[-1] + untraced[-1]

    passes_until(start + seconds * 2 / 3, pair)
    # tracemalloc slows allocation several times over, so its pass is not
    # timed and covers the cheapest documents that fit in the time left.
    with tracing_on(client, tracer):
        tracer.start_pass()
        tracer.memory = True
        tracemalloc.start()
        try:
            _, covered = client.one_pass(parse=True, deadline=start + seconds)
        finally:
            tracemalloc.stop()
            tracer.memory = False

    units = tracing.metric_units()
    values = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    values.update(tracer.layer_peaks())
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    memory_docs = [client.docs[i].name for i in covered]
    write_trace(workload, seed, untraced, traced, values, tracer.peaks, memory_docs, first_spans)
    return len(traced), {name: (values[name], unit) for name, unit in units.items()}


def write_trace(workload, seed, untraced, times, values, peaks, memory_docs, spans):
    OUT.mkdir(exist_ok=True)
    stages = {
        stage: {"self_s": values[f"{stage}.s"], "peak_mb": peaks.get(stage, 0.0)}
        for stage in tracing.STAGES
    }
    record = {
        "workload": workload,
        "seed": seed,
        "untraced_pass_s": untraced,
        "traced_pass_s": times,
        "stages": stages,
        "peak_mb_covers": memory_docs,
        "span_fields": ["id", "parent", "doc", "name", "start", "end", "peak_mb"],
        "first_pass_spans": spans,
    }
    path = OUT / f"trace_{workload}_seed{seed}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(docgen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        gs = import_greenskel()
        docs = docgen.WORKLOADS[args.workload](args.seed, ROOT)
        checker = Checker(args.workload, load_digests(args.workload))
        client = Client(gs, args.workload, docs, checker)
        if args.trace:
            passes, metrics = traced_run(client, args.seconds, args.workload, args.seed)
        else:
            payload = json.dumps([doc.text for doc in docs])
            passes, metrics = timed_run(client, args.seconds, payload)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(
        f"{args.workload} seed {args.seed}: {len(docs)} documents x {passes} passes after a warm-up, "
        f"{checker.failed}/{checker.attempted} failed "
        f"(failed_share {checker.failed / checker.attempted:.4f}), "
        f"{checker.digests_checked} outputs checked against recorded digests"
    )
    fastest = sorted(((min(t), doc.name) for doc, t in zip(docs, client.op_times) if t), reverse=True)
    print("slowest documents, fastest pass s: " + ", ".join(f"{name} {t:.3f}" for t, name in fastest[:6]))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
