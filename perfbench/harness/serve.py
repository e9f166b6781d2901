"""tia-serve under an open-loop Poisson generator, as the traced run
drives it for the serve and loadgen layers.

The request mix: most requests are small-size `simulate` calls over the
Table 3 suite x all 32 uarchs with the server's result cache on (320
keys, warmed before timing, so they are cache hits); a fixed seeded
share are full-size `simulate` calls with "cache": false on the short
kernels, which simulate every time (about 1-2 ms each). The cheap class
sets the median, the heavy class and the head-of-line blocking it
causes set the tail.
"""

import json
import os
import random
import socket
import struct
import subprocess
import time

from . import gate, proc, stats
from .build import BenchError

HEAVY_WORKLOADS = ("udiv", "mean", "filter", "merge")
HEAVY_FRAC = 0.03          # share of heavy requests in every schedule
FIXED_RATE_RPS = 2000.0    # the offered rate of the warm-up and the phase


def request_keys(golden):
    """(workload, uarch, sizes, cache) for the cheap and heavy classes."""
    cheap = [(w, u, "small", True)
             for u in golden["configs"] for w in golden["workloads"]]
    heavy = [(w, u, "full", False)
             for u in golden["configs"] for w in HEAVY_WORKLOADS]
    return cheap, heavy


def payload(request_id, key):
    workload, uarch, sizes, cache = key
    params = {"workload": workload, "uarch": uarch, "sizes": sizes}
    if not cache:
        params["cache"] = False
    return json.dumps({"id": request_id, "method": "simulate",
                       "client": "perfbench", "params": params},
                      separators=(",", ":"))


def poisson_schedule(rng, rate, duration_s, cheap, heavy, first_id,
                     heavy_frac=HEAVY_FRAC):
    """[(due_us, id, key)] with exponential gaps at `rate` per second."""
    out = []
    t = 0.0
    request_id = first_id
    while True:
        t += rng.expovariate(rate)
        if t >= duration_s:
            return out
        pool = heavy if rng.random() < heavy_frac else cheap
        out.append((int(t * 1e6), request_id, rng.choice(pool)))
        request_id += 1


# The Unix socket, relative to the work directory every process here
# runs in, so the path stays short whatever the checkout's location.
SOCKET = "serve.sock"


class Daemon:
    """One tia-serve process listening on SOCKET in the work directory.

    The Unix transport is the one measured: over loopback TCP the server
    writes each frame as a header send and a payload send with Nagle on,
    and delayed ACKs then stall a share of responses by ~40 ms, which
    would hide the serve stack's own costs."""

    def __init__(self, bins, work, workers):
        self.work = work
        self.path = os.path.join(work, SOCKET)
        if os.path.exists(self.path):
            os.remove(self.path)
        self._err = open(os.path.join(work, "serve.err"), "wb")
        self.child = proc.Child(
            [os.path.join(bins, "tia-serve"), "--socket", SOCKET,
             "--workers", str(workers)],
            cwd=work, stdout=subprocess.DEVNULL, stderr=self._err)
        self._wait_listening()

    def _connect(self, timeout):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(timeout)
        try:
            s.connect(os.path.relpath(self.path))
        except OSError:
            s.close()
            raise
        return s

    def _wait_listening(self, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.child.popen.poll() is not None:
                raise BenchError("tia-serve exited during start-up")
            try:
                self._connect(1.0).close()
                return
            except OSError:
                time.sleep(0.002)
        raise BenchError("tia-serve did not start listening")

    def rpc(self, method):
        """One control-plane call; returns the decoded response."""
        with self._connect(10.0) as s:
            body = json.dumps({"id": 1, "method": method}).encode()
            s.sendall(struct.pack("<I", len(body)) + body)
            header = _recv_exact(s, 4)
            return json.loads(_recv_exact(s, struct.unpack("<I", header)[0]))

    def stop(self):
        """SIGTERM, drain, reap. Returns the exit code."""
        rc = self.child.terminate()
        self._err.close()
        return rc


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise BenchError("tia-serve closed the connection")
        data += chunk
    return data


def run_loadgen(bins, work, schedule, name, connections):
    """Drive one schedule; returns (records, {id: key})."""
    path = os.path.join(work, f"{name}.schedule")
    keys = {}
    with open(path, "w") as f:
        for due_us, request_id, key in schedule:
            f.write(f"{due_us} {payload(request_id, key)}\n")
            keys[request_id] = key
    out = os.path.join(work, f"{name}.records")
    child = proc.run([os.path.join(bins, "perfbench-loadgen"),
                      "--socket", SOCKET, "--connections", str(connections),
                      "--schedule", path, "--out", out],
                     os.path.join(work, f"{name}.loadgen.err"), timeout=120,
                     cwd=work)
    if child.rc != 0:
        raise BenchError(f"perfbench-loadgen failed on {name}: "
                         f"{child.stderr.strip()[-500:]}")
    with open(out) as f:
        records = [stats.Record.parse(line) for line in f if line.strip()]
    return records, keys


def check_records(records, keys, golden):
    """Mark each record's ok flag False unless it succeeded with check
    "ok" and the pinned cycle count. Returns the number of failures."""
    failed = 0
    for r in records:
        workload, uarch, sizes, _ = keys[r.id]
        good = (r.ok and r.answered and r.check == "ok"
                and r.cycles == gate.expected_cycles(golden, sizes,
                                                     workload, uarch))
        r.ok = good
        failed += not good
    return failed


class Session:
    """A started daemon plus the bookkeeping of one serve session."""

    def __init__(self, bins, work, golden, seed, connections):
        self.bins = bins
        self.work = work
        self.golden = golden
        self.rng = random.Random(seed)
        self.connections = connections
        self.cheap, self.heavy = request_keys(golden)
        self.next_id = 1
        self.attempted = 0
        self.failed = 0
        self.keys = {}  # request id -> key, for every request sent
        self.daemon = None
        self.warmup = []  # records of the warm-up pass

    def start(self):
        """Start a daemon and warm its cache: every cheap key once, in
        seeded order, due at FIXED_RATE_RPS so the warm-up builds no
        more queue than the phase after it. (Heavy requests bypass the
        cache; there is nothing to warm for them.)"""
        self.daemon = Daemon(self.bins, self.work, self.connections)
        keys = list(self.cheap)
        self.rng.shuffle(keys)
        gap_us = 1e6 / FIXED_RATE_RPS
        schedule = [(int(i * gap_us), self.next_id + i, k)
                    for i, k in enumerate(keys)]
        self.next_id += len(keys)
        self.warmup = self.drive(schedule, "warmup")

    def drive(self, schedule, name):
        records, keys = run_loadgen(self.bins, self.work, schedule, name,
                                    self.connections)
        self.keys.update(keys)
        self.attempted += len(records)
        self.failed += check_records(records, keys, self.golden)
        return records

    def phase(self, rate, duration_s, name):
        schedule = poisson_schedule(self.rng, rate, duration_s, self.cheap,
                                    self.heavy, self.next_id)
        self.next_id += len(schedule)
        return self.drive(schedule, name)

    def settled_stats(self, jobs, timeout=2.0):
        """The `stats` RPC once the server has recorded the latency of
        `jobs` worker jobs: a worker records a job after the job's
        connection thread may already have sent the response, so a
        snapshot taken right after the last response can miss the last
        few. (The `completed` counter also counts control calls such as
        `stats` itself; the latency count does not.)"""
        deadline = time.perf_counter() + timeout
        while True:
            result = self.daemon.rpc("stats")["result"]
            if (result["latency_ms"]["count"] >= jobs
                    or time.perf_counter() > deadline):
                return result
            time.sleep(0.001)

    def stop(self):
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        rc = daemon.stop()
        if rc != 0:
            raise BenchError(f"tia-serve exited {rc} after drain")
