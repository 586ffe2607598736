"""yangkit benchmark: one seeded workload per run, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): pbw-closure, center-eval, ideal-query,
classical.  Run from the repository root; the library is imported from
``src/`` of the same checkout.

A run (``--trace 0``) interleaves two kinds of measurement.

* Passes: the workload runs in this process, pass after pass, until the
  next pass would take the pass time past ``--seconds`` (at least
  ``MIN_PASSES``).  A pass is a list of segments, CLI commands or chunks
  of queries, each timed on its own while ``calibrate.Sampler`` samples
  the host's speed.  Every pass is checked against ``reference.json``;
  a mismatch stops the run with exit code 1 and records no time.
* Set-up probes: fresh interpreters (``probe.py``), each timing
  ``import yangkit`` plus the workload's shared inputs (only ideal-query
  has any: relations, closure, z-series), between two calibrations.
  A run makes at least ``SETUP_PROBES`` of them and spends at least
  ``SETUP_PROBE_SECONDS`` in them, spread between the passes.

Every pass starts with the ``functools`` caches of the yangkit modules
cleared (``workloads.clear_caches``), so that a pass sees what a separate
CLI run sees, not what earlier passes of this process left behind.

Times are scaled to the reference host speed (``calibrate.py``): the
speed of a shared VM's CPU changes by up to 1.7x in phases from under a
second to minutes, so unscaled run medians spread by 15-40% from run to
run.  The last line of stdout is one JSON object with the end-to-end
metrics:
  wall_s       sum over the segments of a pass of each segment's median
               scaled time over the run's passes; the unscaled median
               pass and the speed samples are printed
  setup_s      median scaled probe of import + shared-input build; the
               sample count and quartiles are printed
  peak_rss_mb  ru_maxrss of this process, which ran only this workload

With ``--trace 1`` the layer functions are wrapped by ``tracing.py`` and
the per-layer metrics are printed instead; traced and untraced passes
alternate, so the tracing overhead is measured against an untraced base
in the same run.  Per-layer times are self busy seconds per pass (plus
the traced set-up, for ideal-query); counts are exact work counters per
pass and must match ``reference.json``.  The first traced pass is the
run's first pass, so a cache that lets later passes skip traced work
changes the counters and fails the run.

``--record`` writes this run's outputs (and, with ``--trace 1``, its
counters) into ``reference.json`` instead of checking them; use it only
for a deliberate change of the program's outputs.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 8
SETUP_PROBE_SECONDS = 6.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # of each kind, traced and untraced
PROBE_TIMEOUT_S = 120


def fail(msg, code=2):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(code)


def import_yangkit():
    src = ROOT / "src"
    if not (src / "yangkit" / "__init__.py").is_file():
        fail("no yangkit sources under %s" % src)
    sys.path.insert(0, str(src))
    import yangkit
    import yangkit.cli  # noqa: F401  (not imported by the package)
    if Path(yangkit.__file__).resolve().parent != src / "yangkit":
        fail("yangkit imported from %s, not from %s" % (yangkit.__file__, src))
    return yangkit


def setup_probe(name):
    """Import + shared-input build time of one fresh interpreter, scaled
    to the reference speed: the import by calibrations around the probe,
    the build by the probe's own."""
    before = calibrate.calibrate()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    after = calibrate.calibrate()
    if proc.returncode != 0:
        fail("set-up probe failed:\n" + proc.stderr)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return (calibrate.scale(out["import_s"], before, after)
            + out["scaled_build_s"])


def median_segments(passes):
    """Sum over the segments of a pass of each segment's median time."""
    return sum(statistics.median(times) for times in zip(*passes))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1,
                   int(round(p / 100.0 * len(sorted_values))) - 1))
    return sorted_values[k]


class Run:
    def __init__(self, work, reference, seconds):
        self.work = work
        self.reference = reference
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.sampler = calibrate.Sampler()
        self.walls = []  # per pass: the sum of its unscaled segments
        self.scaled = []  # per pass: each segment's scaled time
        self.elapsed = []  # per pass, with its checks
        self.measured = 0.0  # seconds spent in passes and their checks

    def one_pass(self, run_pass=None):
        t0 = time.perf_counter()
        with self.sampler:
            spans = (run_pass or self.work.run_pass)(self.sampler.clock)
        attempted, failed = self.work.check_pass(self.reference)
        self.attempted += attempted
        self.failed += failed
        wall = sum(end - start for start, end in spans)
        scaled = [self.sampler.scale(start, end) for start, end in spans]
        self.walls.append(wall)
        self.scaled.append(scaled)
        self.elapsed.append(time.perf_counter() - t0)
        self.measured += self.elapsed[-1]
        return wall, scaled

    def keep_going(self, min_passes):
        if len(self.walls) < min_passes:
            return True
        return self.measured + statistics.median(self.elapsed) <= self.seconds


def timed_phase(run, name):
    """Passes for the run's duration, set-up probes spread between them:
    after each pass, the probes catch up with the share of the run done,
    so that they sample the whole run rather than one stretch of it."""
    latencies = []
    setup_samples = []
    probe_time = 0.0

    def probe_until(share):
        nonlocal probe_time
        while (len(setup_samples) < SETUP_PROBES * share
               or probe_time < SETUP_PROBE_SECONDS * share):
            t0 = time.perf_counter()
            setup_samples.append(setup_probe(name))
            probe_time += time.perf_counter() - t0

    while run.keep_going(MIN_PASSES):
        run.one_pass()
        latencies.extend(run.work.latencies)
        probe_until(min(1.0, run.measured / run.seconds))
    probe_until(1.0)
    return latencies, setup_samples


def end_to_end(run, setup_samples, latencies):
    wall = median_segments(run.scaled)
    ops = run.work.ops_per_pass()
    q1, q3 = quartiles([sum(p) for p in run.scaled])
    s1, s3 = quartiles(setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "wall_s": "%d segments (%s) at their median over %d passes of %d "
                  "operations; scaled pass quartiles %.4f..%.4f; unscaled "
                  "median pass %.4f; %d speed samples, median loop %.5f "
                  "(ref %.5f)"
                  % (len(run.scaled[0]), run.work.unit, len(run.walls), ops,
                     q1, q3, statistics.median(run.walls),
                     len(run.sampler.loops), run.sampler.median_loop(),
                     calibrate.REF_S),
        "setup_s": "median of %d fresh processes; quartiles %.4f..%.4f"
                   % (len(setup_samples), s1, s3),
        "peak_rss_mb": "ru_maxrss after the timed phase",
    }
    lines = ["%-12s %12.6g %-4s %s" % (k, v, u, notes[k])
             for k, (v, u) in metrics.items()]
    if latencies:
        latencies.sort()
        lines.append("queries_per_s %11.6g 1/s  (ops / wall_s)" % (ops / wall))
        lines.append("query_p50_ms %12.6g ms   (%d queries, closed loop, "
                     "one caller)" % (1e3 * percentile(latencies, 50),
                                      len(latencies)))
        lines.append("query_p99_ms %12.6g ms"
                     % (1e3 * percentile(latencies, 99)))
    return metrics, lines


# ---------------------------------------------------------------------------
# traced run


def _matches(name, patterns):
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in patterns)


def per_layer(tracer_passes, setup_trace, base, traced, work):
    """Per-layer metrics from the traced passes (mean per pass) plus the
    traced set-up."""
    n = len(tracer_passes)
    busy = {}
    wait = {}
    for snap in tracer_passes:
        for name, b in snap["busy"].items():
            busy[name] = busy.get(name, 0.0) + b / n
            wait[name] = wait.get(name, 0.0) + (snap["wall"][name] - b) / n
    rep_busy = dict(busy)
    counts = dict(tracer_passes[0]["counts"])
    calls = dict(tracer_passes[0]["calls"])
    if setup_trace is not None:
        for name, b in setup_trace["busy"].items():
            busy[name] = busy.get(name, 0.0) + b
        for name, c in setup_trace["calls"].items():
            calls[name] = calls.get(name, 0) + c
        for name, c in setup_trace["counts"].items():
            counts[name] = counts.get(name, 0) + c

    m = {}
    for layer, entries in tracing.LAYER_FUNCTIONS.items():
        for _, name in entries:
            if name == "cli.main" or name == "cli._with_retry":
                continue
            m[name + ".s"] = (busy.get(name, 0.0), "s")
    for suite in tracing.CLI_SUITES:
        name = "cli.suite." + suite
        m[name + ".busy_s"] = (busy.get(name, 0.0), "s")
        m[name + ".wait_s"] = (wait.get(name, 0.0), "s")
    for name in ("yangian.closure", "yangian.z_series", "yangian.normal_form",
                 "yangian.EvalModule.eval",
                 "linalg.SparseReducer.add_return_pivot",
                 "linalg.SparseReducer.reduce",
                 "exact.certify_bivariate_identity"):
        m[name + ".calls"] = (calls.get(name, 0), "count")
    for name in ("yangian.closure.words", "yangian.closure.rank",
                 "yangian.closure.nnz", "yangian.rtt_relations.relations",
                 "yangian.normal_form.in_ideal",
                 "yangian.central_monomial_certificate.modules",
                 "yangian.EvalModule.eval.terms",
                 "yangian.EvalModule.eval.matmuls",
                 "freealg.substitute_poly.terms_in",
                 "freealg.substitute_poly.terms_out", "cli.retries"):
        m[name] = (counts.get(name, 0), "count")
    m["cli.checks"] = (counts.get("cli.checks", 0), "count")
    inserts = calls.get("linalg.SparseReducer.add_return_pivot", 0)
    pivots = counts.get("linalg.SparseReducer.add_return_pivot.pivots", 0)
    m["linalg.SparseReducer.useful_frac"] = (
        pivots / inserts if inserts else 0.0, "frac")
    for layer in workloads.LAYER_MODULES:
        m["layer.%s.s" % layer] = (
            sum(b for name, b in busy.items()
                if name.startswith(layer + ".")), "s")

    # overhead: traced against untraced passes, each summed like wall_s;
    # the shares divide mean busy time by mean traced pass time
    traced_wall = median_segments([scaled for _, scaled in traced])
    base_wall = median_segments([scaled for _, scaled in base])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.base_wall_s"] = (base_wall, "s")
    m["trace.overhead_s"] = (traced_wall - base_wall, "s")
    mean_pass = statistics.mean(wall for wall, _ in traced)
    m["trace.named_frac"] = (sum(rep_busy.values()) / mean_pass, "frac")
    m["trace.hot_frac"] = (
        sum(b for name, b in rep_busy.items()
            if _matches(name, work.spec["hot"])) / mean_pass, "frac")
    return m


def counter_signature(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def traced_phase(run, yk):
    """Alternate untraced and traced passes; returns per-layer metrics."""
    modules = {layer: getattr(yk, layer)
               for layer in workloads.LAYER_MODULES}
    modules["yangkit"] = yk
    tracer = tracing.Tracer()

    def snapshot():
        return {"busy": dict(tracer.busy), "wall": dict(tracer.wall),
                "calls": dict(tracer.calls), "counts": dict(tracer.counts)}

    setup_trace = None
    if run.work.shared_inputs:
        patches = tracing.Patches(modules, tracer)
        try:
            shared = run.work.setup(yk)
        finally:
            patches.restore()
        setup_trace = snapshot()
    else:
        shared = run.work.setup(yk)
    run.work.prepare(shared)

    def traced_pass(clock):
        tracer.reset()
        patches = tracing.Patches(modules, tracer)
        try:
            return run.work.run_pass(clock)
        finally:
            patches.restore()

    base, traced, snaps = [], [], []
    while run.keep_going(2 * MIN_TRACED_PASSES):
        if len(run.walls) % 2 == 1:
            base.append(run.one_pass())
            continue
        traced.append(run.one_pass(traced_pass))
        snap = snapshot()
        if not run.work.shared_inputs:
            snap["counts"]["cli.checks"] = run.work.ops_per_pass()
        if snaps and (snap["calls"] != snaps[0]["calls"]
                      or snap["counts"] != snaps[0]["counts"]):
            raise workloads.OutputMismatch(
                "work counters differ between the first traced pass and "
                "a later one")
        snaps.append(snap)
    return per_layer(snaps, setup_trace, base, traced, run.work)


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write outputs/counters to reference.json")
    args = parser.parse_args(argv)

    yk = import_yangkit()
    with open(REFERENCE) as fh:
        all_refs = json.load(fh)
    reference = None if args.record else all_refs.get(args.workload)
    if reference is None and not args.record:
        fail("no reference for workload %s in %s" % (args.workload, REFERENCE))

    work = workloads.make(args.workload, yk, args.seed)
    run = Run(work, reference, args.seconds)

    try:
        if args.trace:
            metrics = traced_phase(run, yk)
            lines = ["%-48s %14.6g %s" % (k, v, u)
                     for k, (v, u) in metrics.items()]
            if reference is not None:
                want = reference.get("counters")
                if want is None:
                    fail("reference.json has no counters for %s"
                         % args.workload)
                workloads.expect_equal("work counters",
                                       counter_signature(metrics), want)
        else:
            shared = work.setup(yk)
            work.prepare(shared)
            latencies, setup_samples = timed_phase(run, args.workload)
            metrics, lines = end_to_end(run, setup_samples, latencies)
    except workloads.OutputMismatch as exc:
        print("benchmark: output mismatch: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1

    if args.record:
        entry = all_refs.setdefault(args.workload, {})
        entry.update(work.record())
        if args.trace:
            entry["counters"] = counter_signature(metrics)
        with open(REFERENCE, "w") as fh:
            json.dump(all_refs, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print("workload %s seed %d trace %d: %d passes, %d operations, "
          "%d failed (ops_failed_frac %.4g)"
          % (args.workload, args.seed, args.trace, len(run.walls),
             run.attempted, run.failed, run.failed / max(run.attempted, 1)))
    for line in lines:
        print(line)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
