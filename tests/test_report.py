"""Equal-cost comparison rows and their serialization."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from lcutrunc.densesim import single_step_error
from lcutrunc.hamiltonian import HamiltonianTerm, PauliString, SortedHamiltonian, logspread_hamiltonian
from lcutrunc.planner import epsilon_bound, full_order_levels, greedy_plan
from lcutrunc.report import (
    ComparisonRow,
    generate_comparison_report,
    rows_to_csv,
    serialize_report,
)

from util import levels_at_cost

LN2 = math.log(2.0)


def uniform_hamiltonian(num_terms: int, alpha: float = 0.5) -> SortedHamiltonian:
    terms = [
        HamiltonianTerm(alpha=alpha, op=PauliString(axes="".join("IXYZ"[(i + j) % 4] for j in range(2))))
        for i in range(num_terms)
    ]
    return SortedHamiltonian.from_terms(terms)


def test_uniform_hamiltonian_reports_no_advantage():
    ham = uniform_hamiltonian(4)
    rows = generate_comparison_report(ham, 5)
    for row in rows:
        assert row.bound_ratio == pytest.approx(1.0, abs=1e-9)
        assert row.cost_saving_in_orders == 0.0
        assert row.cost == row.n * 4


def test_two_term_first_row(two_term):
    rows = generate_comparison_report(two_term, 2)
    first = rows[0]
    assert first.cost == 2
    assert first.eps_full == pytest.approx(
        epsilon_bound(two_term, full_order_levels(two_term, 1)), abs=1e-15
    )
    # greedy spends the same two gates as (1, 1) and lands below the full order
    assert first.eps_greedy == pytest.approx(0.17133189621897493, abs=1e-12)
    assert first.eps_full == pytest.approx(0.3068528194400546, abs=1e-12)
    assert first.bound_ratio > 1.0


def test_rows_consistent_with_plan_trace(two_term):
    rows = generate_comparison_report(two_term, 3)
    plan = greedy_plan(two_term, budget=3 * two_term.num_terms)
    for row in rows:
        assert row.eps_greedy == epsilon_bound(two_term, levels_at_cost(plan, row.cost))
        assert row.eps_greedy == pytest.approx(plan.steps[row.cost - 1].epsilon_after, abs=1e-12)


def test_dense_columns_only_when_requested(two_term):
    plain = generate_comparison_report(two_term, 2)
    assert all(r.delta_full is None and r.delta_greedy is None for r in plain)
    dense = generate_comparison_report(two_term, 2, with_dense=True)
    for row in dense:
        assert row.delta_full is not None and row.delta_full >= 0.0
        assert row.delta_greedy is not None
        assert row.delta_ratio == pytest.approx(row.delta_full / row.delta_greedy)


def test_dense_deltas_equal_single_step_errors():
    # the rows share one exact evolution; each delta must still be exactly
    # what a standalone single-step measurement gives
    ham = logspread_hamiltonian(8, 2, 3, 4)
    rows = generate_comparison_report(ham, 2, with_dense=True)
    plan = greedy_plan(ham, budget=2 * ham.num_terms)
    for row in rows:
        assert row.delta_full == single_step_error(ham, full_order_levels(ham, row.n)).delta
        assert row.delta_greedy == single_step_error(ham, levels_at_cost(plan, row.cost)).delta


def test_uniform_dense_rows_equal_standalone_measurements():
    # every greedy vector of a uniform Hamiltonian is a full order too
    ham = uniform_hamiltonian(4)
    rows = generate_comparison_report(ham, 4, with_dense=True)
    for row in rows:
        assert row.delta_full == row.delta_greedy == single_step_error(ham, full_order_levels(ham, row.n)).delta
        assert row.delta_ratio == 1.0


def test_dense_report_shares_its_spectral_work(monkeypatch):
    import lcutrunc.densesim as densesim

    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("hamiltonian_matrix", "exact_evolution", "operator_norm"):
        count(densesim, name)
    for name in ("eigh", "eigvalsh"):
        count(np.linalg, name)
    generate_comparison_report(logspread_hamiltonian(8, 2, 3, 4), 3, with_dense=True)
    # one eigvalsh for the full orders; one exact evolution with its eigh, and a
    # norm per row, for the greedy vectors; both spectra read one dense H
    assert calls == {"hamiltonian_matrix": 1, "eigvalsh": 1, "exact_evolution": 1, "eigh": 1, "operator_norm": 3}


def test_logspread_advantage_is_reported():
    from lcutrunc.hamiltonian import logspread_hamiltonian

    ham = logspread_hamiltonian(32, 3.0, qubit_count=3, seed=2024)
    rows = generate_comparison_report(ham, 6)
    assert all(row.bound_ratio > 1.0 for row in rows)
    assert all(row.cost_saving_in_orders is not None and row.cost_saving_in_orders >= 0 for row in rows)


def test_csv_header_only_for_empty_rows():
    assert rows_to_csv([]) == "n,cost,eps_full,eps_greedy,bound_ratio,delta_full,delta_greedy,delta_ratio,cost_saving_in_orders\n"


def test_csv_single_row_field_order(two_term):
    rows = generate_comparison_report(two_term, 1)
    lines = rows_to_csv(rows).strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1" and cells[1] == "2"
    assert cells[5] == cells[6] == cells[7] == ""  # dense columns empty


def test_json_round_trip(two_term):
    rows = generate_comparison_report(two_term, 3, with_dense=True)
    text = serialize_report(rows, "json").decode()
    parsed = [ComparisonRow(**entry) for entry in json.loads(text)]
    assert len(parsed) == len(rows)
    for a, b in zip(parsed, rows):
        assert a.n == b.n and a.cost == b.cost
        assert abs(a.eps_full - b.eps_full) <= 1e-15
        assert abs(a.eps_greedy - b.eps_greedy) <= 1e-15
        assert abs(a.delta_full - b.delta_full) <= 1e-15


def test_serialize_rejects_unknown_format(two_term):
    with pytest.raises(ValueError):
        serialize_report([], "xml")


def test_validation():
    ham = uniform_hamiltonian(2)
    with pytest.raises(ValueError):
        generate_comparison_report(ham, 0)
