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
from .planner import _PHI, _csv_text, _field_values, _greedy_loop, epsilon_bound, full_order_levels


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
    """One row per full-expansion order n = 1..n_max at equal cost n*L, for ``n_max`` from 1 to 200.

    A single greedy run to cost ``n_max * L``, the loop behind
    :func:`~lcutrunc.planner.greedy_plan`, records the bound at each cost:
    ``epsilon_bound`` of that prefix vector.  A run that stalls early, where no gain is above 0.0,
    gives every later row its last vector, measured once, and its last bound, 0.0 or not, which
    may exceed an ``eps_full`` of 0.0.
    ``cost_saving_in_orders`` is ``(n*L - c)/L`` for the smallest greedy
    cost ``c`` whose bound already undercuts the full expansion's, or None
    if the trace never does.
    """
    if not 1 <= n_max < len(_PHI):  # the kernel reads orders up to 200; eps_full is 0.0 from about 166 on
        raise ValueError(f"n_max must be from 1 to {len(_PHI) - 1}, got {n_max}")
    num_terms = hamiltonian.num_terms
    chosen, _, bounds, _ = _greedy_loop(hamiltonian, (), n_max * num_terms, -1.0)  # bounds from cost 0 on

    # the rows share their spectral work, and each equals a standalone measurement
    errors = _StepErrors(hamiltonian) if with_dense else None

    rows = []
    match_cost, measured_cost, delta_greedy = 0, None, None
    for n in range(1, n_max + 1):
        cost = n * num_terms
        eps_full = epsilon_bound(hamiltonian, full_order_levels(hamiltonian, n))
        eps_greedy = bounds[min(cost, len(bounds) - 1)]
        ratio = eps_full / eps_greedy if eps_greedy > 0 else float("inf")

        # the bound shrinks along the trace, so the matching cost only grows
        while match_cost < len(bounds) and bounds[match_cost] > eps_full:
            match_cost += 1
        saving = (cost - match_cost) / num_terms if match_cost < len(bounds) else None

        delta_full = delta_ratio = None
        if with_dense:
            delta_full = errors.measure(full_order_levels(hamiltonian, n))[0]
            greedy = chosen[:cost]  # past a stall, the whole run: the row before's vector, measured once
            if len(greedy) != measured_cost:
                measured_cost, orders = len(greedy), Counter(greedy)  # greedy fills orders 1..K, none skipped
                delta_greedy = errors.measure([orders[k] for k in range(1, len(orders) + 1)])[0]
            delta_ratio = delta_full / delta_greedy if delta_greedy > 0 else float("inf")

        rows.append(ComparisonRow(n, cost, eps_full, eps_greedy, ratio, delta_full, delta_greedy, delta_ratio, saving))
    return rows


def rows_to_csv(rows: list[ComparisonRow]) -> str:
    return _csv_text(CSV_COLUMNS, (_field_values(row).values() for row in rows))


def rows_to_json(rows: list[ComparisonRow]) -> str:
    return json.dumps([_field_values(row) for row in rows], indent=2) + "\n"


def serialize_report(rows: list[ComparisonRow], fmt: str) -> bytes:
    """Encode rows as ``csv`` or ``json`` with a stable column order."""
    if fmt == "csv":
        return rows_to_csv(rows).encode()
    if fmt == "json":
        return rows_to_json(rows).encode()
    raise ValueError(f"unsupported format {fmt!r}; use 'csv' or 'json'")
