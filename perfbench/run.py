#!/usr/bin/env python3
"""The repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_cold|sweep_warm
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the simulator from source (optimised; see harness/build.py),
runs one workload for about --seconds, checks every output against the
values pinned in perfbench/golden.json, prints each metric by name with
its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
from outside the programs; --trace 1 runs the traced per-layer run
instead and reports the per-layer metrics, writing a Chrome trace_event
file next to the results. Exit status: 0 correct, 1 some output wrong
(the JSON line says which counts), 2 could not run (nothing printed).

    python3 perfbench/run.py --write-golden

re-pins golden.json from the current build; only for a deliberate change
of the simulated outputs.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import build, gate, proc, traced, workloads  # noqa: E402
from harness.build import BenchError  # noqa: E402

WORKLOADS = {
    "sweep_cold": workloads.sweep_cold,
    "sweep_warm": workloads.sweep_warm,
}
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    return args


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {SPEC_PATH}: {error}")


def write_golden(run):
    """Pin the outputs of the current build: the full sweep's digest and
    the full- and small-size cycle matrices."""
    out = os.path.join(run.work, "golden-full.json")
    small = os.path.join(run.work, "golden-small.json")
    for args, path in (([], out), (["--small", "--no-dse"], small)):
        child = proc.run([run.tool("tia-sweep"), "--jobs", str(run.nproc),
                          "--out", path] + args,
                         os.path.join(run.work, "golden.err"))
        if child.rc != 0:
            raise BenchError(f"tia-sweep exited {child.rc}; not pinning")
    with open(out) as f:
        full_doc = json.load(f)
    with open(small) as f:
        small_doc = json.load(f)
    outputs = gate.sweep_outputs(full_doc)
    golden = {
        "sweep_digest": gate.digest(outputs),
        "configs": outputs["configs"],
        "workloads": outputs["workloads"],
        "cycles_full": outputs["cycles"],
        "cycles_small": small_doc["cpi_matrix"]["cycles"],
    }
    with open(gate.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")
    print(f"perfbench: pinned {golden['sweep_digest']} in {gate.GOLDEN_PATH}")


def main(argv=None):
    args = parse_args(argv)
    name = args.workload or "golden"
    root = build.build_root()
    work = os.path.join(root, "perfbench-work",
                        f"{name}-s{args.seed}-t{args.trace}")
    results = os.path.join(root, "perfbench-results")
    keep_work = True
    try:
        spec = load_spec()
        if not build.sources_present():
            raise BenchError(f"simulator sources not found under "
                             f"{build.REPO_ROOT}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.makedirs(results, exist_ok=True)
        # Keep the compiler's and every child's scratch files inside
        # the checkout too.
        os.environ["TMPDIR"] = os.path.join(root, "tmp")
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        bins = os.path.join(root, "perfbench")
        build.build(bins, os.path.join(results, "build.log"))
        stamp = build.read_stamp(bins)
        problems = build.check_stamp(stamp)
        if problems:
            raise BenchError("refusing to time a build that is not "
                             "optimised: " + "; ".join(problems))
        nproc = os.cpu_count() or 1
        run = workloads.Run(bins, work, None, args.seed, args.seconds, nproc)
        if args.write_golden:
            write_golden(run)
            keep_work = False
            return 0
        run.golden = gate.load_golden()

        host = build.host_stamp(stamp, args.seed, args.workload, args.trace)
        print("perfbench: " + " ".join(f"{k}={v}" for k, v in host.items()),
              flush=True)
        base = os.path.join(results, f"{name}-s{args.seed}-t{args.trace}")
        if args.trace:
            traced.traced(run, args.workload, base + ".trace.json")
            print(f"perfbench: trace written to {base}.trace.json")
        else:
            WORKLOADS[args.workload](run)

        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in run.metrics
                   or run.metrics[m["name"]][0] is None]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
        for problem in run.problems:
            print(f"perfbench: FAIL {problem}")
        for metric, (value, unit) in {**run.metrics, **run.extra}.items():
            print(f"perfbench: {metric} = {value} {unit}")
        failed_frac = run.failed / run.attempted if run.attempted else 1.0
        print(f"perfbench: failed_frac = {failed_frac} ratio "
              f"({run.failed} of {run.attempted})")

        correct = run.attempted > 0 and run.failed == 0 and not run.problems
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": run.metrics[m["name"]][0],
                                    "unit": m["unit"]} for m in wanted},
        }
        with open(base + ".json", "w") as f:
            json.dump({"host": host, "result": result,
                       "extra": {k: {"value": v, "unit": u}
                                 for k, (v, u) in run.extra.items()},
                       "problems": run.problems, "details": run.details},
                      f, indent=1)
        keep_work = not correct
        print(json.dumps(result), flush=True)
        return 0 if correct else 1
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        proc.stop_all()
        if not keep_work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
