"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/sweep.py [--write] [--seeds N] [--workload NAME ...]

Runs ``run.py`` on every workload once per seed with ``--trace 0``, each
in a fresh process, from the repository root.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread ``(q3 - q1) / median`` next to the metric's bound
in ``BENCHMARK.json`` (the spread should stay below a third of the
bound).

``--seeds N`` uses seeds 1..N (default 10); ``--workload`` limits the
sweep to the named workloads.  ``--write`` also makes ``TRACE_RUNS`` runs with ``--trace 1`` per
workload, whose work counters must be identical, and stores the summary
in ``bench/baseline.json`` together with each workload's configs,
purpose, stressed and bypassed layers, so that a later change can be
compared with this commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SEEDS = list(range(1, 11))
TRACE_RUNS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%s):\n%s\n%s"
                         % (" ".join(cmd), proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s" % " ".join(cmd))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--seeds", type=int, default=len(SEEDS))
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for name, spec in workloads.WORKLOADS.items():
        if args.workload and name not in args.workload:
            continue
        runs = [run_once(name, s, seconds, 0) for s in seeds]
        e2e = {}
        print("%s (%d runs, seeds %d..%d)" % (name, len(runs), seeds[0],
                                              seeds[-1]), flush=True)
        for metric, bound in bounds.items():
            st = spread([r["metrics"][metric]["value"] for r in runs])
            st["unit"] = runs[0]["metrics"][metric]["unit"]
            st["bound"] = bound
            e2e[metric] = st
            print("  %-12s median %10.5g %-4s q1 %10.5g q3 %10.5g "
                  "spread %.3f  bound %.2f%s"
                  % (metric, st["median"], st["unit"], st["q1"], st["q3"],
                     st["spread"], bound,
                     "" if st["spread"] <= bound / 3
                     else "  <-- above a third of the bound"))
            print("  %12s values %s" % ("", " ".join(
                "%.4g" % v for v in st["values"])), flush=True)
        traced = [run_once(name, s, seconds, 1)
                  for s in seeds[:TRACE_RUNS]] if args.write else []
        layer = {}
        if traced:
            counters = [{k: v["value"] for k, v in t["metrics"].items()
                         if v["unit"] == "count"} for t in traced]
            if any(c != counters[0] for c in counters):
                raise SystemExit("%s: work counters differ between traced "
                                 "runs" % name)
            for key, val in traced[0]["metrics"].items():
                vals = [t["metrics"][key]["value"] for t in traced]
                layer[key] = {"median": statistics.median(vals),
                              "unit": val["unit"]}
            for key in ("trace.base_wall_s", "trace.wall_s",
                        "trace.overhead_s", "trace.named_frac",
                        "trace.hot_frac"):
                print("  %-20s %.4g" % (key, layer[key]["median"]))
        summary[name] = {
            "why": spec["why"],
            "configs": spec.get("commands") or spec["closure"],
            "stresses": spec["stresses"],
            "bypasses": spec["bypasses"],
            "prediction_for_bypassed_layers": "no change",
            "hot_spans": spec["hot"],
            "seeds": seeds,
            "end_to_end": e2e,
            "traced_runs": len(traced),
            "per_layer": layer,
        }

    if args.write:
        out = {
            "host": {"nproc": os.cpu_count(),
                     "python": platform.python_version(),
                     "machine": platform.machine()},
            "run_seconds": seconds,
            "workloads": summary,
        }
        with open(BENCH / "baseline.json", "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
