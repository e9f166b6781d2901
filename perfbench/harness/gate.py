"""The output-correctness gate.

A tia-sweep document passes when every matrix cell is "ok" and its
cycles matrix, CPI matrix and Pareto frontier hash to the digest pinned
in perfbench/golden.json. The digest is taken over a canonical
re-serialisation of the parsed values (sorted keys, no whitespace), so
it does not depend on formatting; host fields such as wall_ms and jobs
are left out, which is what makes the same digest hold at --jobs 1 and
--jobs N, cold and warm.
"""

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "golden.json")


def load_golden(path=GOLDEN_PATH):
    with open(path) as f:
        return json.load(f)


def sweep_outputs(doc):
    """The outputs that must not change: names, cycles, CPI, frontier."""
    matrix = doc["cpi_matrix"]
    return {
        "configs": matrix["configs"],
        "workloads": matrix["workloads"],
        "cycles": matrix["cycles"],
        "cpi": matrix["cpi"],
        "pareto": doc.get("dse", {}).get("pareto"),
    }


def digest(outputs):
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_sweep(doc, golden):
    """Check one tia-sweep --out document.

    Returns (cells, failed_cells, digest, problems). A cell fails when
    its status is not "ok"; when the digest does not match the pinned
    one, every cell counts as failed, since the matrix as a whole is
    wrong.
    """
    problems = []
    status = doc["cpi_matrix"]["status"]
    cells = sum(len(row) for row in status)
    failed = sum(1 for row in status for s in row if s != "ok")
    if failed:
        problems.append(f"{failed} cell(s) not ok")
    expected_cells = len(golden["configs"]) * len(golden["workloads"])
    if cells != expected_cells:
        problems.append(f"{cells} cells, expected {expected_cells}")
    got = digest(sweep_outputs(doc))
    if got != golden["sweep_digest"]:
        problems.append(f"outputs digest {got[:16]} does not match the "
                        f"pinned {golden['sweep_digest'][:16]}")
        failed = max(cells, expected_cells)
    return max(cells, expected_cells), failed, got, problems


def expected_cycles(golden, sizes, workload, uarch):
    """Pinned cycle count of one (workload, uarch) cell at sizes."""
    w = golden["workloads"].index(workload)
    c = golden["configs"].index(uarch)
    return golden["cycles_" + sizes][c][w]
