"""lcutrunc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  Set-up
(import plus input generation) runs several times, each in a fresh process
between two passes, and its median is ``setup_s``.  Passes of the workload's
commands run back to back in this process until ``--seconds`` would be
exceeded (at least one pass).  Each output is compared with its command's
first output as soon as the command returns; the first outputs are checked
after the last pass.  Both happen outside the timed region.

A fixed reference kernel is timed before and after every command and every
set-up, and each of those times is scaled to the machine speed at which the
kernel takes ``REF_S`` (see ``Reference``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
scaled set-up time, and ``pass_s`` each command's median scaled latency,
summed over the workload's commands.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics from the traced ones, with the
tracing overhead as traced minus untraced ``pass_s``.

The last line of standard output is the result as one JSON object; the line
before it is the full report (environment, per-command latencies with sample
counts, problems found), which is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
# One OpenBLAS thread, set before numpy loads.  With two threads on a 2-vCPU
# VM a BLAS call waits for the slower vCPU, and the run-to-run spread of the
# dense commands' latencies was about twice that with one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from oracle import CHECKS  # noqa: E402
from workloads import WORKLOADS, Workload, run_pass  # noqa: E402

WORK = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
# The reference kernel's median time on the 2-vCPU VM the benchmark was tuned
# on: scaled times are times at that machine's typical speed.
REF_S = 0.020
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
}


def load_package():
    """Import ``lcutrunc`` from this checkout's ``src/`` and nowhere else."""
    try:
        import lcutrunc
        import lcutrunc.cli  # not imported by the package; the tracer wraps its main
    except ImportError as exc:
        raise SystemExit(f"error: cannot import lcutrunc from {ROOT / 'src'}: {exc}") from None
    if Path(lcutrunc.__file__).resolve().parent != ROOT / "src" / "lcutrunc":
        raise SystemExit(f"error: lcutrunc imported from {lcutrunc.__file__}, not from this checkout")
    return lcutrunc


def set_up(workload: Workload, seed: int, target: Path) -> float:
    """One set-up in a fresh process: import the package and write the inputs into ``target``."""
    command = [sys.executable, str(HERE / "generate.py"), workload.name, str(seed), str(target)]
    command += ["--small"] if workload.small else []
    start = time.perf_counter()
    with subprocess.Popen(command) as child:
        # a blocking wait returns at exit; subprocess's own timeout polls in 50 ms steps
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return elapsed


class Reference:
    """A fixed piece of work, timed next to each command to gauge the machine's speed at that moment.

    The shared VM the benchmark was tuned on changes speed by up to 2x for
    seconds to minutes at a time, and every command slows with it: in a noisy
    stretch the quartile spread of a command's latency within one run was
    0.2-0.7 of its median, and 0.1-0.3 once scaled by this kernel's
    neighbouring times.  Half the kernel is a pure-Python loop, the planner's
    kind of work; half is products of a complex 96x96 matrix on one BLAS
    thread, the dense layers' kind.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.times: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(60000):
            total += (i * 0.5) % 7.0
        for _ in range(60):
            self.matrix @ self.matrix
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at the speed where the kernel takes REF_S, from its times just before and after."""
        return seconds * REF_S / ((before + after) / 2)


class Outcomes:
    """Exit codes and outputs of a run's commands, in memory that does not grow with the pass count.

    Each output is compared with the first output of its command as soon as
    the command returns, and only that first output is kept for the check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}
        self.matched: dict[str, int] = {}

    def add(self, number: int, results: list[tuple[str, float, int, str]]) -> None:
        for name, _, code, text in results:
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"pass {number} {name}: exit {code} {text.strip()[-300:]}")
            elif self.first.setdefault(name, text) != text:
                self.failed += 1
                self.problems.append(f"pass {number} {name}: output differs from its first output")
            else:
                self.matched[name] = self.matched.get(name, 0) + 1


def measure(workload: Workload, inputs: Path, outputs: Path, seconds: float, outcomes: Outcomes,
            reference: Reference, tracer=None, between=None) -> list[dict]:
    """Closed loop of passes; with a tracer, untraced and traced passes alternate.

    The reference kernel runs before each pass and after each command.
    ``between`` runs after every pass, outside the pass time but inside ``seconds``.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        refs = [reference.measure()]
        if traced:
            tracer.install()
        try:
            results = run_pass(workload, inputs, outputs, after=lambda: refs.append(reference.measure()))
        finally:
            if traced:
                tracer.remove()
        passes.append({
            "traced": traced,
            "seconds": sum(r[1] for r in results),
            "commands": [(r[0], r[1]) for r in results],
            "scaled": [(r[0], reference.scaled(r[1], refs[i], refs[i + 1])) for i, r in enumerate(results)],
        })
        outcomes.add(len(passes), results)
        del results
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        enough = tracer is None or len(passes) >= 2
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def account(workload: Workload, outcomes: Outcomes, inputs: dict[str, str]) -> tuple[int, int, list[str]]:
    """Attempted and failed command counts, and the problems found.

    A command fails when it exits non-zero, when its output differs from
    its first output in this run, or when that first output fails the check.
    """
    failed, problems, first = outcomes.failed, list(outcomes.problems), outcomes.first
    missing = [command.name for command in workload.commands if command.name not in first]
    if missing:
        found = {name: [f"not checked: {', '.join(missing)} never succeeded"] for name in first}
    else:
        try:
            found = CHECKS[workload.name](workload, first, inputs)
        except Exception as exc:  # a malformed output must count as a failure, not end the run
            found = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in first}
    for name, issues in found.items():
        if issues:
            failed += outcomes.matched.get(name, 0)
            problems += [f"{name}: {issue}" for issue in issues]
    return outcomes.attempted, failed, problems


def timing(samples: list[float]) -> dict:
    """Median plus the highest listed percentile that has at least ten samples beyond it."""
    samples = [s for s in samples if not math.isnan(s)]
    found = {"median": statistics.median(samples) if samples else None, "samples": len(samples), "tail": None}
    for percentile in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - percentile / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            found["tail"] = {"percentile": percentile, "value": cuts[round(percentile * 10) - 1]}
            break
    return found


def scaled_latencies(workload: Workload, passes: list[dict]) -> dict[str, list[float]]:
    return {
        command.name: [s for p in passes for name, s in p["scaled"] if name == command.name and not math.isnan(s)]
        for command in workload.commands
    }


def pass_time(workload: Workload, passes: list[dict]) -> float:
    """Sum over the workload's commands of each command's median scaled latency in ``passes``.

    A command that never succeeded adds nothing; its run is already marked incorrect.
    """
    latencies = scaled_latencies(workload, passes)
    return sum(statistics.median(samples) for samples in latencies.values() if samples)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full report)."""
    load_package()
    from machine import environment
    from spans import PER_LAYER, Tracer

    tag = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    directory = WORK / tag
    outputs = directory / "outputs"
    reference = Reference()
    setup_walls: list[float] = []
    setup_times: list[float] = []

    def another_set_up():
        # spread over the run, so that one slow stretch of the machine moves one sample
        if len(setup_times) < SETUP_REPEATS:
            before = reference.measure()
            wall = set_up(workload, seed, directory / f"setup{len(setup_times)}")
            setup_walls.append(wall)
            setup_times.append(reference.scaled(wall, before, reference.measure()))

    try:
        another_set_up()
        tracer = Tracer() if trace else None
        outcomes = Outcomes()
        passes = measure(workload, directory / "setup0", outputs, seconds, outcomes, reference, tracer, another_set_up)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_times) < SETUP_REPEATS:
            another_set_up()
        written = [
            {spec.filename: (directory / f"setup{i}" / spec.filename).read_text() for spec in workload.inputs}
            for i in range(SETUP_REPEATS)
        ]
        if any(found != written[0] for found in written):
            raise RuntimeError("set-up runs with one seed wrote different inputs")
        inputs = written[0]
        attempted, failed, problems = account(workload, outcomes, inputs)
    finally:
        for leftover in directory.glob("setup*"):
            shutil.rmtree(leftover)
        shutil.rmtree(outputs, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    commands = {
        command.name: timing([s for p in untraced for name, s in p["commands"] if name == command.name])
        for command in workload.commands
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = tracer.metrics(len(traced))
        traced_pass_s = pass_time(workload, traced)
        values["trace.pass_s"] = traced_pass_s
        values["trace.overhead_s"] = traced_pass_s - pass_time(workload, untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.write(directory / "spans.csv")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_time(workload, passes),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment({spec.filename: spec.seed(seed) for spec in workload.inputs}),
        "setup_s": timing(setup_times),
        "setup_wall_s": timing(setup_walls),
        "reference_s": timing(reference.times),
        "pass_wall_s": timing([p["seconds"] for p in untraced]),
        "passes": [
            {"traced": p["traced"], "seconds": p["seconds"], "commands": dict(p["commands"]), "scaled": dict(p["scaled"])}
            for p in passes
        ],
        "commands_s": commands,
        "commands_scaled_s": {name: timing(samples) for name, samples in scaled_latencies(workload, untraced).items()},
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    (directory / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lcutrunc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
