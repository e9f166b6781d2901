"""Child processes: spawn, wait with rusage, and never leave one behind."""

import atexit
import os
import signal
import subprocess
import threading
import time

_live = set()


class Child:
    """A spawned program under test; wait() reaps it with os.wait4 so the
    child's own peak RSS is known."""

    def __init__(self, args, **kwargs):
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(args, **kwargs)
        self.rc = None
        self.peak_rss_mb = None
        self.wall_s = None
        self.cpu_s = None
        _live.add(self)

    @property
    def pid(self):
        return self.popen.pid

    def wait(self, timeout=None):
        """Reap the child (blocking, so its exit is seen at once);
        returns its exit code. A child still running after `timeout`
        seconds is killed, and the exit code is the signal's."""
        timer = None
        if timeout is not None:
            timer = threading.Timer(timeout, self.popen.kill)
            timer.start()
        try:
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
        self.wall_s = time.perf_counter() - self.started
        self.rc = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.rc
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB.
        self.cpu_s = usage.ru_utime + usage.ru_stime
        _live.discard(self)
        return self.rc

    def terminate(self, timeout=30):
        if self.rc is None:
            self.popen.send_signal(signal.SIGTERM)
            return self.wait(timeout)
        return self.rc


def run(args, err_path, timeout=170, cwd=None):
    """Run a program to completion with its stderr in err_path; returns
    the reaped Child, with that stderr text in child.stderr."""
    with open(err_path, "wb") as err:
        child = Child(args, stdout=subprocess.DEVNULL, stderr=err, cwd=cwd)
        child.wait(timeout)
    with open(err_path, errors="replace") as f:
        child.stderr = f.read()
    return child


def stop_all():
    for child in list(_live):
        try:
            child.popen.kill()
            child.wait(10)
        except (OSError, ChildProcessError):
            _live.discard(child)


atexit.register(stop_all)
