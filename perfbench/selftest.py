"""The benchmark's own test: every workload once at reduced size, and planted errors.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
``test_*.py``) because it runs the benchmark end to end.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, generate, run_pass  # noqa: E402

SEED = 5
# layer metrics that must be non-zero where the workload loads the layer
LOADED = {
    "plan-large": ("planner.greedy_plan.calls", "planner.insertion_gain.calls", "report.rows", "cli.main.calls"),
    "dense-verify": ("densesim.exact_evolution.calls", "densesim.operator_norm.calls", "densesim.matrix_bytes_computed"),
    "circuit-walk": ("circuitmodel.total_dim", "circuitmodel.dense_bytes_computed", "densesim.pauli_string_matrix.calls"),
}
BYPASSED = {
    "plan-large": ("densesim.hamiltonian_matrix.calls", "circuitmodel.dense_bytes_computed"),
    "dense-verify": ("circuitmodel.dense_bytes_computed",),
    "circuit-walk": ("planner.greedy_plan.calls", "cli.main.calls"),
}


def _one_pass(name: str):
    """Small workload, its inputs and one pass of results."""
    workload = WORKLOADS[name](small=True)
    directory = run.WORK / f"selftest-{name}-{os.getpid()}"
    try:
        generate(workload, SEED, directory)
        inputs = {spec.filename: (directory / spec.filename).read_text() for spec in workload.inputs}
        results = run_pass(workload, directory, directory / "out")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return workload, inputs, results


def _account(workload, inputs, results) -> tuple[int, int, list[str]]:
    """Account one pass with the given results."""
    outcomes = run.Outcomes()
    outcomes.add(1, results)
    return run.account(workload, outcomes, inputs)


def _failed_with(workload, inputs, results, command: str, plant) -> list[str]:
    """Account a pass whose ``command`` output went through ``plant``; returns the problems."""
    planted = [(n, s, c, plant(t) if n == command else t) for n, s, c, t in results]
    attempted, failed, problems = _account(workload, inputs, planted)
    assert attempted == len(results)
    assert failed >= 1, f"planted error in {command} was not caught"
    return problems


def test_workloads_run_clean_untraced():
    for name, factory in WORKLOADS.items():
        result, report = run.run(factory(small=True), SEED, 0.5, trace=False)
        assert result["correct"] and result["failed"] == 0, (name, report["problems"])
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), (name, result["metrics"])
        json.dumps(result)


def test_workloads_run_clean_traced():
    for name, factory in WORKLOADS.items():
        result, report = run.run(factory(small=True), SEED, 0.5, trace=True)
        assert result["correct"] and result["failed"] == 0, (name, report["problems"])
        values = {key: entry["value"] for key, entry in result["metrics"].items()}
        assert set(values) == set(PER_LAYER)
        assert all(values[key] > 0 for key in LOADED[name]), (name, values)
        assert all(values[key] == 0 for key in BYPASSED[name]), (name, values)


def test_planted_delta_is_a_failure():
    workload, inputs, results = _one_pass("dense-verify")
    assert _account(workload, inputs, results)[1] == 0

    def plant(text):
        report = json.loads(text)
        report["delta"] *= 1.001
        report["r_steps"][0]["error"] = report["delta"]
        return json.dumps(report)

    problems = _failed_with(workload, inputs, results, "simulate", plant)
    assert any("delta" in problem for problem in problems), problems

    def plant_compare(text):
        header, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[5] = repr(float(cells[5]) * 1.001)  # delta_full of n = 1
        return "\n".join([header, ",".join(cells), *rest]) + "\n"

    _failed_with(workload, inputs, results, "compare_dense", plant_compare)


def test_planted_residual_is_a_failure():
    workload, inputs, results = _one_pass("circuit-walk")
    assert _account(workload, inputs, results)[1] == 0
    command = workload.commands[0].name

    def plant(text):
        header, row = text.splitlines()
        cells = row.split(",")
        cells[2] = "2e-10"  # walk_block_residual
        return f"{header}\n{','.join(cells)}\n"

    problems = _failed_with(workload, inputs, results, command, plant)
    assert any("walk_block_residual" in problem for problem in problems), problems


def test_planted_plan_bound_and_exit_code_are_failures():
    workload, inputs, results = _one_pass("plan-large")

    def plant(text):
        plan = json.loads(text)
        plan["steps"][-1]["epsilon"] *= 0.5
        return json.dumps(plan)

    _failed_with(workload, inputs, results, "plan_target", plant)
    # with one command failed the cross-checks cannot run, so no output counts as correct
    broken = [(n, s, 2 if n == "bound" else c, t) for n, s, c, t in results]
    assert _account(workload, inputs, broken)[1] == len(results)


def test_planted_non_greedy_step_is_a_failure():
    """A plan that took a smaller gain at one step, with honest gains and bounds, is caught."""
    from lcutrunc import TruncationVector, insertion_gain, parse_hamiltonian

    workload, inputs, results = _one_pass("plan-large")
    ham = parse_hamiltonian(inputs["plan_large.txt"])

    def plant(text):
        plan = json.loads(text)
        steps = plan["steps"]
        # swap the orders of two adjacent steps whose gains differ clearly: the final
        # levels and bound stay the same, but the first is no longer the greedy choice
        i = next(
            i for i in range(len(steps) // 2, len(steps) - 1)
            if steps[i]["k"] != steps[i + 1]["k"] and steps[i]["gain"] > 1.01 * steps[i + 1]["gain"]
        )
        steps[i]["k"], steps[i + 1]["k"] = steps[i + 1]["k"], steps[i]["k"]
        levels = TruncationVector(levels=())
        for step in steps[:i]:
            levels = levels.bump(step["k"])
        previous = steps[i - 1]["epsilon"]
        steps[i]["gain"] = insertion_gain(ham, levels, steps[i]["k"])
        steps[i]["epsilon"] = previous - steps[i]["gain"]
        steps[i + 1]["gain"] = insertion_gain(ham, levels.bump(steps[i]["k"]), steps[i + 1]["k"])
        steps[i + 1]["epsilon"] = steps[i]["epsilon"] - steps[i + 1]["gain"]
        return json.dumps(plan)

    problems = _failed_with(workload, inputs, results, "plan_target", plant)
    assert problems and all("not the greedy choice" in problem for problem in problems), problems


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
