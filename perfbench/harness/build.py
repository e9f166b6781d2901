"""Building the programs under test and stamping every result with the
host and build it came from."""

import hashlib
import json
import os
import platform
import subprocess
import sys

PERFBENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(PERFBENCH_DIR)

OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")


class BenchError(Exception):
    """A failure that must stop the benchmark before it prints a result."""


def build_root():
    """Where builds and run files go: $CARGO_TARGET_DIR (relative to the
    checkout) if set, else .bench_build."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def sources_present():
    return (os.path.isfile(os.path.join(REPO_ROOT, "src", "core", "program.hh"))
            and os.path.isfile(os.path.join(REPO_ROOT, "tools",
                                            "tia_sweep.cc")))


def check_stamp(stamp):
    """Refuse a build that is not optimised. Returns a list of problems."""
    problems = []
    if stamp.get("build_type") not in OPTIMISED_BUILD_TYPES:
        problems.append(f"build type {stamp.get('build_type')!r} is not one "
                        f"of {', '.join(OPTIMISED_BUILD_TYPES)}")
    flags = stamp.get("cxx_flags", "").split()
    if not any(f in ("-O2", "-O3") for f in flags):
        problems.append(f"compiler flags {stamp.get('cxx_flags')!r} have no "
                        f"-O2/-O3")
    if any(f.startswith("-fsanitize") for f in flags):
        problems.append("sanitizer build")
    return problems


def build(build_dir, log):
    """Configure (once) and build the benchmark package into build_dir.
    An existing configuration is kept, so its stamp is what check_stamp
    judges. Raises BenchError on failure."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PERFBENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if _which("ninja"):
            cmd += ["-G", "Ninja"]
        _run_logged(cmd, log, "configure")
    _run_logged(["cmake", "--build", build_dir, "-j", jobs], log, "build")


def read_stamp(build_dir):
    path = os.path.join(build_dir, "build_stamp.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        raise BenchError(f"no readable build stamp at {path}: {error}")


def host_stamp(stamp, seed, workload, trace):
    """What every result records about where it was measured."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": stamp.get("build_type"),
        "cxx_flags": stamp.get("cxx_flags"),
        "compiler": f"{stamp.get('compiler_id')} "
                    f"{stamp.get('compiler_version')}",
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "python": platform.python_version(),
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the simulator sources the build compiled (src/ and the
    two tools), so results from a non-git checkout still name their code."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO_ROOT, "src")]
    files = [os.path.join(REPO_ROOT, "tools", "tia_sweep.cc"),
             os.path.join(REPO_ROOT, "tools", "tia_serve_main.cc")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, REPO_ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _which(program):
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.access(os.path.join(d, program), os.X_OK):
            return True
    return False


def _run_logged(cmd, log, what):
    with open(log, "a") as out:
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        sys.stderr.write(tail)
        raise BenchError(f"{what} failed (exit {rc}); log in {log}")
