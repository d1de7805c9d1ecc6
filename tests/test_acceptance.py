"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Molecular reproduction is out of scope (term files are external inputs), so
these criteria check the method's properties exactly: analytic bounds by
independent closed forms, measured errors by dense oracles, and the circuit
construction by block identities on small instances.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from lcutrunc.cli import main
from lcutrunc.densesim import (
    exact_evolution,
    hamiltonian_matrix,
    multi_step_error,
    operator_norm,
)
from lcutrunc.circuitmodel import layout_for, verify_identities
from lcutrunc.hamiltonian import (
    HamiltonianTerm,
    PauliString,
    SortedHamiltonian,
    logspread_hamiltonian,
    parse_hamiltonian,
)
from lcutrunc.planner import (
    TruncationVector,
    epsilon_bound,
    full_order_levels,
    greedy_plan,
    insertion_gain,
    s_value,
    t_infinity,
)
from lcutrunc.report import generate_comparison_report

from util import levels_at_cost, random_contiguous_levels, random_pauli_hamiltonian

LN2 = math.log(2.0)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def uniform_hamiltonian(num_terms: int, alpha: float = 0.37) -> SortedHamiltonian:
    """``num_terms`` distinct strings, the base-4 digits of the term index, of equal weight."""
    width = max(3, ((num_terms - 1).bit_length() + 1) // 2)
    terms = [
        HamiltonianTerm(alpha=alpha, op=PauliString(axes="".join("IXYZ"[(i >> 2 * j) & 3] for j in range(width))))
        for i in range(num_terms)
    ]
    return SortedHamiltonian.from_terms(terms)


def test_01_bound_decay_with_order():
    with criterion("bound decay vs factorial tail"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(20):
            num_terms = int(rng.integers(2, 65))
            ham = random_pauli_hamiltonian(rng, 4, num_terms, decades=float(rng.uniform(0, 3)))
            for n in range(1, 11):
                bound = 2.0 * LN2**n / math.factorial(n)
                assert epsilon_bound(ham, full_order_levels(ham, n)) <= bound
        assert time.perf_counter() - start < 1.0


def test_02_uniform_weights_reduce_to_full_orders():
    with criterion("uniform weights reproduce full orders"):
        for num_terms in (1, 2, 5, 8):
            ham = uniform_hamiltonian(num_terms)
            for nu in range(1, 7):
                trace = greedy_plan(ham, budget=nu * num_terms)
                assert trace.final.levels == (num_terms,) * nu
                reference = 2.0 - sum(LN2**k / math.factorial(k) for k in range(nu + 1))
                assert abs(trace.steps[-1].epsilon_after - reference) <= 1e-12
                assert abs(epsilon_bound(ham, trace.final) - reference) <= 1e-12


def test_03_insertion_gains_are_path_independent():
    with criterion("insertion gains are path independent"):
        rng = np.random.default_rng(103)
        for _ in range(50):
            ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(2, 8)))
            target = random_contiguous_levels(rng, ham.num_terms, 4)
            t = t_infinity(ham)
            expected = s_value(ham, target, t) - 1.0
            moves = [k + 1 for k, count in enumerate(target) for _ in range(count)]
            for _ in range(5):
                rng.shuffle(moves)
                vec = TruncationVector(levels=())
                total = 0.0
                for k in moves:
                    total += insertion_gain(ham, vec, k, t)
                    vec = vec.bump(k)
                assert abs(total - expected) <= 1e-12


@pytest.fixture(scope="module")
def measured_errors():
    """30 random 2-6 qubit Hamiltonians, greedy prefixes with bound <= 0.5."""
    rng = np.random.default_rng(20260811)
    measurements = []
    start = time.perf_counter()
    for _ in range(30):
        qubits = int(rng.integers(2, 7))
        num_terms = int(rng.integers(2, 9))
        ham = random_pauli_hamiltonian(rng, qubits, num_terms)
        plan = greedy_plan(ham, budget=min(4 * num_terms, 24))
        for cost in sorted({1, 2, plan.final.cost // 2, plan.final.cost}):
            if cost < 1:
                continue
            levels = levels_at_cost(plan, cost)
            epsilon = epsilon_bound(ham, levels)
            if epsilon > 0.5:
                continue
            measurements.append((epsilon, multi_step_error(ham, levels, 8)))
    return measurements, time.perf_counter() - start


def test_04_single_step_error_within_quadratic_bound(measured_errors):
    with criterion("measured step error within bound + quadratic term"):
        measurements, elapsed = measured_errors
        assert len(measurements) >= 30
        for epsilon, report in measurements:
            assert report.delta <= epsilon + 2.0 * epsilon**2
        assert elapsed < 60.0


def test_05_repeated_step_error_accumulates_linearly(measured_errors):
    with criterion("repeated-step error grows at most linearly plus quadratic"):
        measurements, elapsed = measured_errors
        for _, report in measurements:
            delta = report.delta
            for r, err in report.r_steps:
                assert err <= r * delta + 10.0 * r * r * delta * delta
        assert elapsed < 60.0


def test_06_circuit_block_identities():
    with criterion("prepare/select/amplify block identities"):
        rng = np.random.default_rng(106)
        start = time.perf_counter()
        checked = 0
        attempts = 0
        while checked < 12 and attempts < 200:
            attempts += 1
            qubits = int(rng.integers(1, 3))
            num_terms = int(rng.integers(2, 5))
            ham = random_pauli_hamiltonian(rng, qubits, num_terms)
            levels = random_contiguous_levels(rng, min(num_terms, 4), 3)
            if layout_for(levels).ancilla_dim * 2**qubits > 2**10:
                continue
            report = verify_identities(ham, levels)
            assert report.walk_block_residual <= 1e-10
            assert report.amplified_block_residual <= 1e-10
            assert report.normalization_error <= 1e-12
            checked += 1
        assert checked == 12
        assert time.perf_counter() - start < 60.0


def test_07_worked_two_term_trace():
    with criterion("worked two-term greedy trace"):
        ham = parse_hamiltonian("1.0 ZI\n0.1 XX")
        trace = greedy_plan(ham, budget=3)
        assert [s.chosen_k for s in trace.steps] == [1, 2, 1]
        expected_gains = (0.6301338005090411, 0.19853430327198396, 0.08286681037810273)
        for step, expected in zip(trace.steps, expected_gains):
            assert abs(step.gain - expected) <= 1e-6
        assert abs(trace.steps[-1].epsilon_after - 0.0884650858408722) <= 1e-6
        assert trace.final.levels == (2, 1)


def test_08_spread_weights_beat_full_orders():
    with criterion("magnitude spread yields equal-cost advantage"):
        ham = logspread_hamiltonian(32, 3.0, qubit_count=3, seed=2024)
        rows = generate_comparison_report(ham, 6)
        for row in rows:
            assert row.bound_ratio > 1.0
        # recorded for comparison against molecular-scale expectations
        ratios = ", ".join(f"{row.bound_ratio:.2f}" for row in rows)
        savings = ", ".join(f"{row.cost_saving_in_orders:.3f}" for row in rows)
        print(f"equal-cost bound ratios (n=1..6): {ratios}")
        print(f"cost savings in full orders (n=1..6): {savings}")


def test_09_matrix_exponential_cross_check():
    with criterion("scaled Taylor series matches scaling-and-squaring"):
        rng = np.random.default_rng(109)
        for _ in range(5):
            ham = random_pauli_hamiltonian(rng, 4, int(rng.integers(3, 10)))
            t = t_infinity(ham)
            reference = scipy.linalg.expm(-1j * t * hamiltonian_matrix(ham))
            assert operator_norm(exact_evolution(ham, t) - reference) <= 1e-10


def test_10_deterministic_outputs(tmp_path):
    with criterion("fixed seeds give byte-identical outputs"):
        ham_path = tmp_path / "ham.txt"
        assert main(
            ["gen-logspread", "--terms", "8", "--decades", "2", "--qubits", "2",
             "--seed", "11", "--out", str(ham_path)]
        ) == 0

        commands = {
            "gen-logspread.txt": ["gen-logspread", "--terms", "8", "--decades", "2",
                                  "--qubits", "2", "--seed", "11"],
            "gen-random.txt": ["gen-random", "--template", str(ham_path), "--mu", "1.0",
                               "--sigma", "0.1", "--seed", "7"],
            "plan.json": ["plan", "--hamiltonian", str(ham_path), "--budget", "12"],
            "plan.csv": ["plan", "--hamiltonian", str(ham_path), "--budget", "12"],
            "bound.json": ["bound", "--hamiltonian", str(ham_path), "--levels", "4,2,1"],
            "simulate.json": ["simulate", "--hamiltonian", str(ham_path), "--budget", "6",
                              "--r-max", "3"],
            "compare.csv": ["compare", "--hamiltonian", str(ham_path), "--n-max", "3", "--dense"],
            "resources.json": ["resources", "--hamiltonian", str(ham_path), "--levels", "4,2,1"],
        }
        for filename, argv in commands.items():
            outputs = []
            for run in range(2):
                out = tmp_path / f"run{run}-{filename}"
                assert main([*argv, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{filename} not byte-identical"
