"""The traced per-layer run (--trace 1).

Two parts, both with spans kept in memory and written once at the end:

  perfbench-layers   in-process calls into every module (workloads,
                     uarch, exec, cache, vlsi, obs, serve parse/encode,
                     and the tracing overhead itself)
  a serve session    tia-serve under the fixed-rate open loop, for the
                     server-side (stats RPC) and generator numbers

The two span sets are merged into one Chrome trace_event file: the
layers program's threads on pid 1 (one track each), the generator's
requests as async slices on pid 2.
"""

import json
import os

from . import proc, serve, stats
from .build import BenchError

TRACED_SERVE_S = 2.0


def unit_for(name):
    if ".ns_per_cycle." in name:
        return "ns/cycle"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_frac", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced(run, workload, trace_out):
    """Fill run.metrics with every per-layer metric; write the merged
    trace to trace_out."""
    mode = "warm" if workload == "sweep_warm" else "cold"
    layers_json = os.path.join(run.work, "layers.json")
    layers_trace = os.path.join(run.work, "layers.trace.json")
    child = proc.run([run.tool("perfbench-layers"), "--mode", mode,
                      "--jobs", str(run.nproc),
                      "--work", os.path.join(run.work, "layers"),
                      "--out", layers_json, "--trace", layers_trace],
                     os.path.join(run.work, "layers.err"))
    if child.rc != 0 or not os.path.exists(layers_json):
        raise BenchError(f"perfbench-layers exited {child.rc}: "
                         f"{child.stderr.strip()[-500:]}")
    with open(layers_json) as f:
        doc = json.load(f)
    cells = len(run.golden["configs"]) * len(run.golden["workloads"])
    run.attempted += cells
    if (not doc["ok"] or doc["configs"] != run.golden["configs"]
            or doc["workloads"] != run.golden["workloads"]
            or doc["cycles"] != run.golden["cycles_full"]):
        run.failed += cells
        run.fail("perfbench-layers: replica matrix does not match the "
                 "pinned cycles")
    for name, value in doc["metrics"].items():
        run.metrics[name] = (value, unit_for(name))

    session = serve.Session(run.bins, run.work, run.golden, run.seed,
                            run.nproc)
    try:
        session.start()
        warm = sum(1 for r in session.warmup if r.answered)
        before = session.settled_stats(warm)
        records = session.phase(serve.FIXED_RATE_RPS, TRACED_SERVE_S,
                                "traced")
        answered = sum(1 for r in records if r.answered)
        server = session.settled_stats(warm + answered)
        session.stop()
    finally:
        try:
            session.stop()
        except BenchError:
            pass
    run.attempted += session.attempted
    run.failed += session.failed
    if session.failed:
        run.fail(f"{session.failed} serve request(s) failed")
    jobs = server["latency_ms"]["count"] - before["latency_ms"]["count"]
    if jobs != answered:
        run.fail(f"tia-serve recorded {jobs} jobs in the phase; the "
                 f"generator got {answered} responses")

    # The server's latency reservoir has no reset, so its percentiles
    # cover the warm-up too; the warm-up is paced at the phase's rate and
    # the client median is taken over the same requests.
    client_p50 = stats.tail_percentile(
        stats.sent_latencies_ms(session.warmup + records), 0.5)
    latency = server["latency_ms"]
    heavy = sum(1 for r in records if session.keys[r.id][2] == "full")
    m = run.metrics
    m["serve.server_p50_ms"] = (latency["p50"], "ms")
    m["serve.server_p99_ms"] = (latency["p99"], "ms")
    m["serve.transport_p50_ms"] = (client_p50 - latency["p50"], "ms")
    m["serve.queue_high_water"] = (server["queue_high_water"], "count")
    m["serve.shed"] = (server["shed"] - before["shed"], "count")
    m["serve.rejected"] = (server["rejected"] - before["rejected"], "count")
    m["loadgen.send_lag_p99_ms"] = (
        stats.tail_percentile(stats.send_lags_ms(records), 0.99), "ms")
    m["loadgen.requests"] = (len(records), "count")
    m["loadgen.heavy_frac"] = (heavy / len(records), "ratio")

    _merge_trace(layers_trace, records, trace_out)
    run.details["trace_file"] = trace_out


def _merge_trace(layers_trace, records, trace_out):
    """Add the generator's requests (pid 2, async slices from send to
    response, with the due time and id) to the layers trace."""
    with open(layers_trace) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    events.append({"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
                   "args": {"name": "perfbench-loadgen (serve session)"}})
    events.append({"name": "thread_name", "ph": "M", "pid": 2, "tid": 0,
                   "args": {"name": "event loop"}})
    for r in records:
        if not r.answered:
            continue
        args = {"id": r.id, "due_us": r.due / 1e3,
                "lag_us": (r.sent - r.due) / 1e3}
        for ph, ts in (("b", r.sent), ("e", r.done)):
            events.append({"name": "loadgen.request", "cat": "loadgen",
                           "ph": ph, "id": r.id, "pid": 2, "tid": 0,
                           "ts": ts / 1e3, "args": args if ph == "b" else {}})
    with open(trace_out, "w") as f:
        json.dump(trace, f)
