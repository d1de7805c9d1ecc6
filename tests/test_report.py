"""Equal-cost comparison rows, their serialization and the pinned text of every result record."""

import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from lcutrunc.circuitmodel import estimate_resources, verify_identities
from lcutrunc.densesim import multi_step_error, single_step_error
from lcutrunc.hamiltonian import HamiltonianTerm, PauliString, SortedHamiltonian, logspread_hamiltonian
from lcutrunc.planner import as_levels, epsilon_bound, full_order_levels, greedy_plan
from lcutrunc.report import (
    ComparisonRow,
    generate_comparison_report,
    rows_to_csv,
    rows_to_json,
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
    # one eigvalsh of H for the full orders; for the greedy vectors, one exact
    # evolution and a norm per row, each norm with one eigvalsh of its own; both
    # read one dense H, and nothing calls eigh
    assert calls == {"hamiltonian_matrix": 1, "eigvalsh": 1 + 3, "exact_evolution": 1, "operator_norm": 3}


def test_dense_report_measures_each_greedy_vector_once(monkeypatch):
    import lcutrunc.densesim as densesim

    # the README's H.txt: the greedy run stalls at cost 5258, so rows 165 to 200 share its last vector
    ham = logspread_hamiltonian(32, 3.0, 3, 1)
    calls = Counter()
    original = densesim._StepErrors.measure

    def measure(self, levels, r_max=1):
        calls[as_levels(levels).levels] += 1
        return original(self, levels, r_max)

    monkeypatch.setattr(densesim._StepErrors, "measure", measure)
    rows = generate_comparison_report(ham, 200, with_dense=True)
    full = {full_order_levels(ham, n).levels for n in range(1, 201)}
    greedy = {cost: levels_at_cost(greedy_plan(ham, budget=5258), cost).levels for cost in (5248, 5258)}
    # one measurement per full order and one per distinct greedy vector: rows 1 to 164, and the stalled one
    assert sum(calls.values()) == 200 + 165 and all(calls[levels] == 1 for levels in full)
    assert calls[greedy[5258]] == 1 and greedy[5248] != greedy[5258]
    assert {row.delta_greedy for row in rows[164:]} == {rows[164].delta_greedy}

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
    # the bound reads orders up to 200
    for n_max in (0, 201, 10**20):
        with pytest.raises(ValueError, match=f"^n_max must be from 1 to 200, got {n_max}$"):
            generate_comparison_report(ham, n_max)
    assert [row.n for row in generate_comparison_report(ham, 200)] == list(range(1, 201))


# The text of every result record, pinned byte for byte.  ErrorReport texts of the
# two-term example by SHA-256: the empty vector, a gapped one off full order and a full order.
PINNED_ERROR_REPORT_SHA256 = {
    ("single", (), "csv"): "d8da7f2e936046fb0adb560fa4c6347ddc67a37e874b9216dc8eb606c75209e9",
    ("single", (), "json"): "596f5b7b2e6d337ad4f4853dcf82b2bb7b9af061655c98a4ecda6dccc78ce0cc",
    ("multi", (), "csv"): "0bf907842ae8b88d24904c5690450aa4e21ddfa2a86dc7d0bb455ffa3a6140d1",
    ("multi", (), "json"): "8e0f5956c8a9e207cd42c7fe0d896f6781c63db0b9c27b26b8718cccf751f861",
    ("single", (1, 0, 1), "csv"): "c236b36e723f22b964f8c435ea5a024a1d5d152f2cc438dba468a25b552b07de",
    ("single", (1, 0, 1), "json"): "6a7ebed774272f5e7b5b1509b1c64250c0e6182212befc55e43f00d1dc7e77a3",
    ("multi", (1, 0, 1), "csv"): "f61db979649dfa37895c88f37aba9d4092f5b2579c52cbac189d4a6c9ed76bed",
    ("multi", (1, 0, 1), "json"): "8e57b9512515fcc8d420c66aafc3774df62b2126e051794c2ae891940d4495d8",
    ("single", (2, 2), "csv"): "f9b2b72167d50e1c4deb6adabd5e7ceaf95747b212ab84e25ed91c4e8e703d6f",
    ("single", (2, 2), "json"): "dce3a8452f0c44b6454dc7ec78958303f2d6b0bdf44ae92fa586135faf322f62",
    ("multi", (2, 2), "csv"): "df4077e2fc9a2692f774f28e44adaecd8d387e03933afe5f3bb561639317c408",
    ("multi", (2, 2), "json"): "d5f8f817e3070bf961af89410a3f99fb2b7416afe0344e89c26cc7000cbe7fbd",
}


@pytest.mark.parametrize("case", PINNED_ERROR_REPORT_SHA256, ids=str)
def test_error_report_text_is_pinned(two_term, case):
    function, levels, fmt = case
    result = single_step_error(two_term, levels) if function == "single" else multi_step_error(two_term, levels, 3)
    text = result.to_csv() if fmt == "csv" else result.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ERROR_REPORT_SHA256[case]


def test_error_report_csv_of_the_gapped_vector_is_pinned(two_term):
    # step_error_oracle gives 0.35709472110545899
    assert single_step_error(two_term, (1, 0, 1)).to_csv() == (
        "levels,cost,epsilon,delta,r,r_step_error\n"
        "1;0;1,2,0.3698661994909587,0.3570947211054592,1,0.3570947211054592\n"
    )


def test_identity_report_csv_is_pinned(two_term):
    assert verify_identities(two_term, (2, 1), 0.25).to_csv() == (
        "levels,t,walk_block_residual,amplified_block_residual,normalization_error\n"
        "2;1,0.25,8.326785621649077e-17,3.519234075798827e-16,0.0\n"
    )


def test_numpy_float_cells_write_as_floats(two_term):
    # numpy 2's repr of a numpy float is np.float64(...); every CSV cell of a float is float.__repr__
    assert verify_identities(two_term, (2, 1), np.float64(0.25)).to_csv() == (
        "levels,t,walk_block_residual,amplified_block_residual,normalization_error\n"
        "2;1,0.25,8.326785621649077e-17,3.519234075798827e-16,0.0\n"
    )
    row = ComparisonRow(2, 4, *map(np.float64, (0.25, 0.125, 2.0, 0.1, 0.0, math.inf, 1.5)))
    assert rows_to_csv([row]).splitlines()[1] == "2,4,0.25,0.125,2.0,0.1,0.0,inf,1.5"


def test_resource_estimate_json_is_pinned():
    assert estimate_resources((5, 3, 1)).to_json() == (
        '{\n  "kappa": 3,\n  "c_widths": [\n    3,\n    2,\n    0\n  ],\n  "total_ancillas": 8,\n'
        '  "reflection_ancillas": 6,\n  "t_proxy": 9,\n  "prepare_rotations": 2,\n'
        '  "prepare_state_sizes": [\n    5,\n    3,\n    1\n  ],\n  "select_ops": 9\n}\n'
    )


def test_rows_with_missing_and_infinite_cells_are_pinned():
    rows = [ComparisonRow(1, 2, 0.5, 0.0, math.inf), ComparisonRow(2, 4, 0.25, 0.125, 2.0, 0.1, 0.0, math.inf, 1.5)]
    assert rows_to_csv(rows) == (
        "n,cost,eps_full,eps_greedy,bound_ratio,delta_full,delta_greedy,delta_ratio,cost_saving_in_orders\n"
        "1,2,0.5,0.0,inf,,,,\n"
        "2,4,0.25,0.125,2.0,0.1,0.0,inf,1.5\n"
    )
    entries = [
        '    "n": 1,\n    "cost": 2,\n    "eps_full": 0.5,\n    "eps_greedy": 0.0,\n    "bound_ratio": Infinity,\n'
        '    "delta_full": null,\n    "delta_greedy": null,\n    "delta_ratio": null,\n    "cost_saving_in_orders": null',
        '    "n": 2,\n    "cost": 4,\n    "eps_full": 0.25,\n    "eps_greedy": 0.125,\n    "bound_ratio": 2.0,\n'
        '    "delta_full": 0.1,\n    "delta_greedy": 0.0,\n    "delta_ratio": Infinity,\n    "cost_saving_in_orders": 1.5',
    ]
    assert rows_to_json(rows) == "[\n  {\n" + "\n  },\n  {\n".join(entries) + "\n  }\n]\n"
