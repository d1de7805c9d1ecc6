"""The benchmark's workloads: generated inputs and the commands of one pass.

Every input is a ``gen-logspread`` term-list file made from the benchmark
seed; the program sees nothing else.  A pass runs the workload's commands
one after another in this process (a closed loop with a single client),
calling ``lcutrunc.cli.main(argv)`` or the public API.

``small=True`` gives reduced sizes with the same command mix; the
benchmark's self-test uses them.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Input:
    """One ``gen-logspread`` term-list file, drawn with seed ``seed * 100 + offset``.

    With ``fixed_seed`` set, ``gen-logspread`` always draws with that seed and
    the benchmark seed is ignored; see ``dense_verify`` for why.
    """

    filename: str
    terms: int
    decades: float
    qubits: int
    offset: int = 0
    fixed_seed: int | None = None

    def seed(self, base_seed: int) -> int:
        return base_seed * 100 + self.offset if self.fixed_seed is None else self.fixed_seed

    def write(self, base_seed: int, directory: Path) -> None:
        import lcutrunc.cli

        code = lcutrunc.cli.main([
            "gen-logspread", "--terms", str(self.terms), "--decades", str(self.decades),
            "--qubits", str(self.qubits), "--seed", str(self.seed(base_seed)), "--out", str(directory / self.filename),
        ])
        if code != 0:
            raise RuntimeError(f"gen-logspread for {self.filename} exited {code}")


@dataclass(frozen=True)
class CliCommand:
    """``lcutrunc <args> --hamiltonian <input> --out <out>``; the output file is the result."""

    name: str
    input: str
    args: tuple[str, ...]
    out: str

    def run(self, inputs: Path, outputs: Path) -> tuple[float, int, str]:
        import lcutrunc.cli

        target = outputs / self.out
        argv = [self.args[0], "--hamiltonian", str(inputs / self.input), *self.args[1:], "--out", str(target)]
        start = time.perf_counter()
        code = lcutrunc.cli.main(argv)
        elapsed = time.perf_counter() - start
        return elapsed, code, target.read_text() if code == 0 else ""


@dataclass(frozen=True)
class VerifyIdentities:
    """Python API: parse the input file, then ``verify_identities(ham, levels)``."""

    name: str
    input: str
    levels: tuple[int, ...]

    def run(self, inputs: Path, outputs: Path) -> tuple[float, int, str]:
        import lcutrunc

        path = inputs / self.input
        start = time.perf_counter()
        ham = lcutrunc.parse_hamiltonian(path.read_text(), label=self.input)
        text = lcutrunc.verify_identities(ham, self.levels).to_csv()
        return time.perf_counter() - start, 0, text


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    commands: tuple[CliCommand | VerifyIdentities, ...]
    params: dict
    small: bool


def plan_large(small: bool = False) -> Workload:
    # 1000 terms, not 4000: with 4000 terms a 40 s run held ~8 passes of
    # 3-6 s, and `pass_s` spread 0.20-0.30 across ten-seed sets; 1000 terms
    # give ~30 passes of ~1 s.
    terms, qubits = (200, 8) if small else (1000, 16)
    target, budget, n_max = (1e-10, 800, 3) if small else (1e-12, 4000, 6)
    src = "plan_large.txt"
    return Workload(
        name="plan-large",
        inputs=(Input(src, terms, 6, qubits),),
        commands=(
            CliCommand("plan_target", src, ("plan", "--target-epsilon", repr(target)), "plan_target.json"),
            CliCommand("plan_budget", src, ("plan", "--budget", str(budget)), "plan_budget.csv"),
            CliCommand("bound", src, ("bound", "--budget", str(budget)), "bound.json"),
            CliCommand("resources", src, ("resources", "--budget", str(budget)), "resources.json"),
            CliCommand("compare", src, ("compare", "--n-max", str(n_max)), "compare.csv"),
        ),
        params={"target_epsilon": target, "budget": budget, "n_max": n_max},
        small=small,
    )


def dense_verify(small: bool = False) -> Workload:
    # Above dimension 64 the package takes norms by power iteration, whose
    # iteration count follows the gap between the top singular values: over 8
    # gen-logspread seeds one 9-qubit norm took 0.18 s to 3.8 s, and qubit
    # permutations of one instance still moved `simulate` by +-15%.  So the
    # instance is fixed (seed 1, as in the baseline probes) and this workload
    # ignores the benchmark seed.  Passes took 12-15 s at 9 qubits and ~4.5 s
    # at 8 qubits with 64 terms, too few per run; 7 qubits with 48 terms gives
    # ~1 s passes, still above the SVD limit of dimension 64.
    # (7 qubits with 64 terms took 5-6 s: a slow power iteration.)
    terms, qubits = (16, 5) if small else (48, 7)
    budget, r_max, n_max = (32, 3, 2) if small else (96, 4, 3)
    src = "dense_verify.txt"
    return Workload(
        name="dense-verify",
        inputs=(Input(src, terms, 3, qubits, fixed_seed=1),),
        commands=(
            CliCommand("simulate", src, ("simulate", "--budget", str(budget), "--r-max", str(r_max)), "simulate.json"),
            CliCommand("compare_dense", src, ("compare", "--n-max", str(n_max), "--dense"), "compare_dense.csv"),
        ),
        params={"budget": budget, "r_max": r_max, "n_max": n_max},
        small=small,
    )


def circuit_walk(small: bool = False) -> Workload:
    # Total dimensions 2**10 (2**7 ancilla x 2**3 system) and 2**9 (2**5 x
    # 2**4); small: 2**6 x 2**2 and 2**6 x 2**3.  At 2**11 a pass took ~9.5 s;
    # two instances at 2**10 took ~2.5 s on one BLAS thread, and the smaller
    # second instance (~0.2 s) lets a run hold ~30 passes.
    first, second = ((2, (4, 2, 1)), (3, (2, 2, 2))) if small else ((3, (8, 2, 1)), (4, (2, 2, 1)))
    terms = 8 if small else 16
    inputs = tuple(Input(f"circuit_{q}q.txt", terms, 2, q, offset=i) for i, (q, _) in enumerate((first, second)))
    return Workload(
        name="circuit-walk",
        inputs=inputs,
        commands=tuple(
            VerifyIdentities(f"verify_identities_{q}q", f"circuit_{q}q.txt", levels) for q, levels in (first, second)
        ),
        params={},
        small=small,
    )


WORKLOADS = {"plan-large": plan_large, "dense-verify": dense_verify, "circuit-walk": circuit_walk}


def generate(workload: Workload, seed: int, directory: Path) -> None:
    """Write the workload's input files; one process run of this is one set-up."""
    directory.mkdir(parents=True, exist_ok=True)
    for spec in workload.inputs:
        spec.write(seed, directory)


def run_pass(workload: Workload, inputs: Path, outputs: Path, after=None) -> list[tuple[str, float, int, str]]:
    """One pass: every command in order; returns (name, seconds, exit code, output text).

    A command that raises is recorded with exit code -1, its traceback as
    output and a NaN time, and the pass goes on.  ``after``, if given, runs
    after each command, outside its time.
    """
    outputs.mkdir(parents=True, exist_ok=True)
    results = []
    for command in workload.commands:
        try:
            results.append((command.name, *command.run(inputs, outputs)))
        except Exception:
            results.append((command.name, math.nan, -1, traceback.format_exc()))
        if after is not None:
            after()
    return results
