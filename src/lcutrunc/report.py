"""Equal-cost comparison of full-order expansions against greedy plans.

For each order ``n`` the full expansion costs ``n * L`` gates; the report
pits its error bound (and optionally its measured error) against the greedy
plan evaluated at the same cost, and records how much cheaper the greedy
plan reaches the full expansion's bound.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields

from .densesim import _StepErrors
from .hamiltonian import SortedHamiltonian
from .planner import _greedy, epsilon_bound, full_order_levels


@dataclass(frozen=True)
class ComparisonRow:
    """Error bounds (and optionally measured errors) at one equal-cost point."""

    n: int
    cost: int
    eps_full: float
    eps_greedy: float
    bound_ratio: float
    delta_full: float | None = None
    delta_greedy: float | None = None
    delta_ratio: float | None = None
    cost_saving_in_orders: float | None = None


CSV_COLUMNS = tuple(field.name for field in fields(ComparisonRow))


def generate_comparison_report(
    hamiltonian: SortedHamiltonian,
    n_max: int,
    with_dense: bool = False,
) -> list[ComparisonRow]:
    """One row per full-expansion order n = 1..n_max at equal cost n*L.

    A single greedy run to cost ``n_max * L``, the loop behind
    :func:`~lcutrunc.planner.greedy_plan`, records the bound at each cost:
    ``epsilon_bound`` of that prefix vector.  A run that stops early, at a bound of
    0.0 that no insertion lowers, gives every later row its last vector and bound.
    ``cost_saving_in_orders`` is ``(n*L - c)/L`` for the smallest greedy
    cost ``c`` whose bound already undercuts the full expansion's, or None
    if the trace never does.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    num_terms = hamiltonian.num_terms
    chosen, epsilons, _ = _greedy(hamiltonian, n_max * num_terms, None)
    bounds = [1.0, *epsilons]  # the bound at each cost from 0 up to where the run stopped

    # the rows share their spectral work, and each equals a standalone measurement
    errors = _StepErrors(hamiltonian) if with_dense else None

    rows = []
    match_cost = 0
    for n in range(1, n_max + 1):
        cost = n * num_terms
        eps_full = epsilon_bound(hamiltonian, full_order_levels(hamiltonian, n))
        eps_greedy = bounds[min(cost, len(bounds) - 1)]
        ratio = eps_full / eps_greedy if eps_greedy > 0 else float("inf")

        # the bound shrinks along the trace, so the matching cost only grows
        while match_cost < len(bounds) and bounds[match_cost] > eps_full:
            match_cost += 1
        saving = (cost - match_cost) / num_terms if match_cost < len(bounds) else None

        delta_full = delta_greedy = delta_ratio = None
        if with_dense:
            delta_full = errors.measure(full_order_levels(hamiltonian, n))[0]
            orders = Counter(chosen[:cost])  # greedy fills orders 1..K, none skipped
            delta_greedy = errors.measure([orders[k] for k in range(1, len(orders) + 1)])[0]
            delta_ratio = delta_full / delta_greedy if delta_greedy > 0 else float("inf")

        rows.append(
            ComparisonRow(
                n=n,
                cost=cost,
                eps_full=eps_full,
                eps_greedy=eps_greedy,
                bound_ratio=ratio,
                delta_full=delta_full,
                delta_greedy=delta_greedy,
                delta_ratio=delta_ratio,
                cost_saving_in_orders=saving,
            )
        )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[ComparisonRow]) -> str:
    """One line per row; no cell (an int, a float repr, ``inf`` or empty) holds a comma, quote or newline."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_cell(getattr(row, column)) for column in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ComparisonRow]) -> str:
    payload = [{column: getattr(row, column) for column in CSV_COLUMNS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def serialize_report(rows: list[ComparisonRow], fmt: str) -> bytes:
    """Encode rows as ``csv`` or ``json`` with a stable column order."""
    if fmt == "csv":
        return rows_to_csv(rows).encode()
    if fmt == "json":
        return rows_to_json(rows).encode()
    raise ValueError(f"unsupported format {fmt!r}; use 'csv' or 'json'")
