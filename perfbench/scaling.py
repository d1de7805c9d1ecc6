"""One-off scaling record for the dense layers; not a workload and not gated.

Times ``single_step_error`` at 6, 8, 10 and 12 qubits (``logspread`` with 64
terms over 3 decades, greedy plan of budget 128) and ``verify_identities`` at
total dimension 4096, each case in a fresh process that reports its own wall
time and peak RSS.  Run from the repository root:

    python3 perfbench/scaling.py            # writes perfbench/scaling_record.json
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

CASES = {
    **{f"single_step_error_{q}q": ("single_step_error", q) for q in (6, 8, 10, 12)},
    "verify_identities_dim4096": ("verify_identities", 4),
}
CASE_TIMEOUT_S = 1800


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_case(name: str) -> dict:
    from lcutrunc import greedy_plan, logspread_hamiltonian, single_step_error, verify_identities

    kind, qubits = CASES[name]
    if kind == "single_step_error":
        ham = logspread_hamiltonian(64, 3, qubits, seed=1)
        levels = greedy_plan(ham, budget=128).final
    else:
        # levels (8,4,1): 3 order qubits + 3+2+0 index qubits, 2**8 * 2**4 = 4096
        ham = logspread_hamiltonian(16, 2, qubits, seed=1)
        levels = (8, 4, 1)
    rss_before = _peak_rss_mib()
    start = time.perf_counter()
    result = single_step_error(ham, levels) if kind == "single_step_error" else verify_identities(ham, levels)
    wall = time.perf_counter() - start
    return {
        "case": name,
        "qubits": qubits,
        "levels": list(getattr(levels, "levels", levels)),
        "wall_s": wall,
        "peak_rss_mib": _peak_rss_mib(),
        "rss_before_call_mib": rss_before,
        "result": repr(result),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=sorted(CASES))
    parser.add_argument("--out", default=str(HERE / "scaling_record.json"))
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case)))
        return 0

    from machine import environment

    records = []
    for name in CASES:
        try:
            done = subprocess.run(
                [sys.executable, __file__, "--case", name],
                capture_output=True, text=True, timeout=CASE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            records.append({"case": name, "error": f"timed out after {CASE_TIMEOUT_S} s"})
        else:
            if done.returncode != 0:
                records.append({"case": name, "error": done.stderr.strip().splitlines()[-1:]})
            else:
                records.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(json.dumps(records[-1]), flush=True)
    Path(args.out).write_text(
        json.dumps({"environment": environment({"logspread": 1}), "cases": records}, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
