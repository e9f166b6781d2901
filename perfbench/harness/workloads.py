"""The two sweep workloads, each measured from outside `tia-sweep`.

The unit of work is one full sweep (32 uarchs x 10 Table 3 workloads +
the full DSE). Both workloads report the same bounded end-to-end metrics
(BENCHMARK.json), taken from the --jobs N sweeps' rusage:

  setup_s        time until the timed phase can start (median of reps)
  cpu_s          user + system CPU seconds of one sweep (median)
  peak_rss_mb    peak RSS of one sweep (median)

and print wall_s and serial_wall_s, the fastest sweep at --jobs N and at
--jobs 1, without a bound. On a shared VM the wall times follow the
host: CPU time stolen by other guests counts in them, and it moved
their best-of-N by more than half between runs minutes apart. CPU time
leaves stolen time out (the kernel accounts it as steal), so it follows
the work the code does more closely.
"""

import json
import os
import shutil
import time

from . import gate, proc, stats

SETUP_FILLS = 5  # set-up repetitions (a cold --jobs N sweep each)


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, bins, work, golden, seed, seconds, nproc):
        self.bins = bins
        self.work = work
        self.golden = golden
        self.seed = seed
        self.seconds = seconds
        self.nproc = nproc
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}   # name -> (value, unit), BENCHMARK.json's metrics
        self.extra = {}     # name -> (value, unit), printed, not bounded
        self.details = {}   # samples and logs for the results file

    def fail(self, message):
        self.problems.append(message)

    def tool(self, name):
        return os.path.join(self.bins, name)


# ---- sweeps ---------------------------------------------------------------

def _sweep(run, jobs, tier, tag, expect_hits):
    """One tia-sweep over the full matrix + DSE against `tier`; checks
    its outputs and returns (the reaped child, the outputs' digest)."""
    out = os.path.join(run.work, f"{tag}.json")
    metrics = os.path.join(run.work, f"{tag}.metrics.json")
    child = proc.run([run.tool("tia-sweep"), "--jobs", str(jobs), "--cache",
                      tier, "--metrics", metrics, "--out", out],
                     os.path.join(run.work, f"{tag}.err"))
    cells = len(run.golden["configs"]) * len(run.golden["workloads"])
    if child.rc != 0:
        run.attempted += cells
        run.failed += cells
        run.fail(f"{tag}: tia-sweep exited {child.rc}: "
                 f"{child.stderr.strip()[-300:]}")
        return child, None
    with open(out) as f:
        doc = json.load(f)
    attempted, failed, digest, problems = gate.check_sweep(doc, run.golden)
    hits = f"{cells} lookups, {cells if expect_hits else 0} hits"
    if hits not in child.stderr:
        problems.append(f"cache did not report \"{hits}\"")
        failed = attempted
    run.attempted += attempted
    run.failed += failed
    for p in problems:
        run.fail(f"{tag}: {p}")
    return child, digest


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _timed_sweeps(run, tier, warm, digests):
    """Alternate --jobs N and --jobs 1 sweeps (swapping which goes first
    each round) until --seconds have passed, at least two rounds; adds
    each sweep's digest to `digests` and returns {jobs: [child]}."""
    children = {run.nproc: [], 1: []}
    deadline = time.perf_counter() + run.seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        order = (run.nproc, 1) if rounds % 2 == 0 else (1, run.nproc)
        for jobs in order:
            if not warm:
                _fresh_dir(os.path.dirname(tier))
            child, digest = _sweep(run, jobs, tier,
                                   f"sweep-j{jobs}-r{rounds}", warm)
            children[jobs].append(child)
            digests.add(digest)
        rounds += 1
    return children


def _report_sweeps(run, setup, children, digests):
    if len(digests) != 1:
        run.fail(f"outputs differ between runs: {sorted(map(str, digests))}")
        run.failed = max(run.failed, 1)
    full, serial = children[run.nproc], children[1]
    cpu = [c.cpu_s for c in full]
    rss = [c.peak_rss_mb for c in full]
    walls = [c.wall_s for c in full]
    serial_walls = [c.wall_s for c in serial]
    run.metrics["setup_s"] = (stats.median(setup), "s")
    run.metrics["cpu_s"] = (stats.median(cpu), "s")
    run.metrics["peak_rss_mb"] = (stats.median(rss), "MB")
    run.extra["wall_s"] = (min(walls), "s")
    run.extra["serial_wall_s"] = (min(serial_walls), "s")
    run.details.update(setup_s=setup, cpu_s=cpu, wall_s=walls,
                       serial_wall_s=serial_walls, peak_rss_mb=rss)


def _sweeps(run, warm):
    """Set-up, then the timed sweeps. Set-up is the cold --jobs N pass
    that fills a fresh tier, SETUP_FILLS times, median: it shows the
    binary and the tier work end to end and lets first-run costs (page
    cache, first touch) land before timing. Warm sweeps then run on the
    last tier; cold ones each start on an empty one."""
    tier_dir = os.path.join(run.work, "tier")
    tier = os.path.join(tier_dir, "sweep.tiasimc")
    setup = []
    digests = set()
    for rep in range(SETUP_FILLS):
        t0 = time.perf_counter()
        _fresh_dir(tier_dir)
        _, digest = _sweep(run, run.nproc, tier, f"fill-r{rep}", False)
        setup.append(time.perf_counter() - t0)
        digests.add(digest)
    children = _timed_sweeps(run, tier, warm, digests)
    _report_sweeps(run, setup, children, digests)


def sweep_cold(run):
    """Cold sweeps: each starts on an empty cache tier, so every cell
    simulates and is written to the tier (key, encode, insert, save)."""
    _sweeps(run, warm=False)


def sweep_warm(run):
    """Warm sweeps against a tier a cold pass filled: 320/320 hits and
    no simulation, so the time is cache load/key/decode, the DSE and
    the JSON and metrics emission."""
    _sweeps(run, warm=True)
