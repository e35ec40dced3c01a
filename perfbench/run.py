"""schubertk benchmark runner.

    python3 perfbench/run.py --workload class-ladder --seed 1 --seconds 25 --trace 0

Runs one workload in this interpreter, on one thread, as a closed loop: one
caller, and each query starts when the previous one returns.  Set-up
(importing schubertk and building the query list) is repeated and its
median reported.  Pass 0 warms the caches and checks every output; the
timed passes that follow each compare every output with a verified digest.
With ``--trace 1`` the end-to-end passes are followed by one traced pass,
the wrappers are removed again, and one more untraced pass must still be
correct; the per-layer metrics of the traced pass are reported.

Times are reported in reference seconds (see ``calibrate``).  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit and sample count.  The exit code is 0 only when every query returned
the right output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9

# The calibration loop and its time on the reference machine (a 2-vCPU
# Intel Xeon VM, Python 3.11.7) when nothing else slows it down.
CALIBRATION_LOOPS = 10000
REFERENCE_TICK_S = 1.06e-3
TICK_EVERY_S = 0.1


def calibrate():
    """The machine's speed now: seconds for a fixed loop of dict updates,
    best of two.

    On a shared machine the same code runs up to twice as slow for spells of
    seconds to minutes, and the slowdown is the same for this loop and for
    schubertk.  Every measured time t is therefore reported as
    t * REFERENCE_TICK_S / tick, with tick the mean of the calibrations
    taken just before and just after it: the time the work would take on
    the reference machine at full speed.
    """
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        d = {}
        for i in range(CALIBRATION_LOOPS):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def import_library():
    """Import schubertk afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "schubertk" or m.startswith("schubertk.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("schubertk")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"schubertk was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=package, **{layer: importlib.import_module(f"schubertk.{layer}") for layer in tracing.LAYERS}
    )


def set_up(workload, seed):
    """SETUP_REPEATS fresh imports plus query-list builds, each timed in
    reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        lib = import_library()
        queries = workloads.build(lib, workload, seed)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 2 * REFERENCE_TICK_S / (before + calibrate()))
    return lib, queries, times


class Runner:
    """Runs passes over one query list and keeps the tallies."""

    def __init__(self, queries, expected):
        self.queries = queries
        self.expected = expected  # qid -> digest of the right output
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.speed = []  # REFERENCE_TICK_S / tick of every pass's ticks

    def _fail(self, q, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{q.qid}: {why}")

    def run_pass(self, verify=False, tracer=None):
        """One pass; returns per-query reference seconds, the ratio of
        reference to measured time over the pass, and the pass's CLI output
        bytes and nonzero exit codes."""
        clock = time.perf_counter
        times, tick_before, out_bytes, cli_errors = [], [], 0, 0
        ticks = [calibrate()]
        last_tick = clock()
        for index, q in enumerate(self.queries):
            if clock() - last_tick >= TICK_EVERY_S:
                ticks.append(calibrate())
                last_tick = clock()
            tick_before.append(len(ticks) - 1)
            self.attempted += 1
            t0 = clock()
            try:
                code, out = q.run() if tracer is None else tracer.run_query(index, q.run)
            except Exception as exc:  # a query that raises is a failed query
                times.append(clock() - t0)
                self._fail(q, f"raised {exc!r}")
                continue
            times.append(clock() - t0)
            if q.is_cli:
                out_bytes += len(out.encode())
                cli_errors += code != 0
            if code != 0:
                self._fail(q, f"exit code {code}")
                continue
            if verify and q.check is not None:
                why = q.check(out)
                if why is not None:
                    self._fail(q, why)
                    continue
                self.expected[q.qid] = workloads.digest(out)
            elif workloads.digest(out) != self.expected.get(q.qid):
                self._fail(q, "output differs from the verified output")
        ticks.append(calibrate())
        self.speed += [REFERENCE_TICK_S / t for t in ticks]
        scaled = [t * 2 * REFERENCE_TICK_S / (ticks[k] + ticks[k + 1]) for t, k in zip(times, tick_before)]
        return scaled, sum(scaled) / sum(times), out_bytes, cli_errors


def end_to_end(passes, setup_times, n_queries):
    """Metric -> (value, unit, samples).  A query's time is its median over
    the timed passes; ``wall_s`` is the pass made of these medians, and the
    percentiles are over the workload's queries."""
    per_query = [statistics.median(p[i] for p in passes) for i in range(n_queries)]
    p90 = statistics.quantiles(per_query, n=10, method="inclusive")[8] if n_queries > 1 else per_query[0]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(per_query), "s", len(passes)),
        "query_p50_ms": (statistics.median(per_query) * 1e3, "ms", n_queries),
        "query_p90_ms": (p90 * 1e3, "ms", n_queries),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result, args.workload)
    return 0 if result["correct"] else 1


def measure(workload, seed, seconds, trace, queries=None):
    """Run one workload for about ``seconds``; returns the result record.

    ``queries`` replaces the workload's query list by a part of it (tests)."""
    expected = {} if workload == "sweep" else workloads.load_digests()[workload]
    lib, built, setup_times = set_up(workload, seed)
    runner = Runner(built if queries is None else queries(built), expected)
    start = time.perf_counter()
    runner.run_pass(verify=True)
    untraced_until = start + (seconds / 2 if trace else seconds)
    passes = []
    while not passes or time.perf_counter() < untraced_until:
        passes.append(runner.run_pass()[0])
    e2e = end_to_end(passes, setup_times, len(runner.queries))
    layers, left = None, []
    if trace:
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            times, scale, out_bytes, cli_errors = runner.run_pass(tracer=tracer)
        finally:
            left = tracer.uninstall()
        runner.run_pass()  # the untraced program must be unaffected
        layers = {
            name: (value * scale if unit == "s" else value / scale if unit == "1/s" else value, unit)
            for name, (value, unit) in tracer.metrics().items()
        }
        layers["cli.out_bytes"] = (out_bytes, "bytes")
        layers["cli.errors"] = (cli_errors, "count")
        layers["trace.overhead_ratio"] = (sum(times) / e2e["wall_s"][0], "ratio")
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
        if left:
            runner.errors.append(f"wrappers left after uninstall: {left}")
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": runner.failed == 0 and not left,
        "errors": runner.errors,
        "passes": len(passes),
        "speed": statistics.median(runner.speed),
        "e2e": e2e,
        "layers": layers,
    }


def report(result, workload):
    for why in result["errors"]:
        print(f"FAIL {why}", file=sys.stderr)
    fail_ratio = result["failed"] / result["attempted"]
    print(f"workload {workload}: {result['passes']} timed passes, closed loop, one caller")
    print(f"  machine speed = {result['speed']:.3f} of the reference (median over calibrations)")
    print(f"  fail_ratio = {fail_ratio} ({result['failed']}/{result['attempted']} queries)")
    for name, (value, unit, samples) in result["e2e"].items():
        print(f"  {name} = {value:.6g} {unit} (n={samples})")
    if result["layers"] is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["e2e"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
        for name, (value, unit) in result["layers"].items():
            print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
