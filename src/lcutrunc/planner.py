"""Per-order truncation planning for the Taylor-series unitary sum.

The central objects are truncation vectors: for each Taylor order ``k`` a
count ``L_k`` of retained largest-magnitude Hamiltonian terms.  One kernel,
:func:`order_weights`, gives the order weights

    w_k(t) = t^k / k!  *  prod_{j<=k} Lambda_j,     Lambda_j = prefix sum of L_j weights

up to the first empty order, whose ``Lambda_j = 0`` annihilates every later
product.  Their sum ``s(t)`` controls the amplification step; the per-step
error bound at ``t_inf = ln(2) / Lambda`` is the omitted mass ``2 - s(t_inf)``
of the products the truncation leaves out, summed without cancellation.
With ``Lambda_k`` counted as 1 their sum from order ``k`` on is
``ds/dLambda_k``, the exact gain per unit weight added to order ``k``.

The greedy planner starts from the empty vector and repeatedly increments
the order whose next term buys the largest increase of ``s`` (equivalently,
the largest decrease of the error bound) per unit of gate cost.  One flat
loop, :func:`_greedy_loop`, runs it over tables built once per Hamiltonian.
It keeps the order weights across steps and refills only those from the bumped
order on; one reverse pass over them, down to the lowest order that is not full,
gives the bound and every open order's gain with the float operations of
:func:`insertion_gain`, so the order taken has the largest
:func:`insertion_gain`, bit for bit, the lowest such order at a tie.  Every
command runs this one loop, and :func:`epsilon_bound` runs it for zero steps
from its vector; :func:`greedy_plan` then reads the gains it prints by
replaying the chosen orders from the empty vector.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, count
from typing import Any, Iterable, Iterator, Sequence

from .errors import ConvergenceError
from .hamiltonian import SortedHamiltonian

# phi_m(ln 2) = sum_{p>=0} ln(2)^p m!/(m+p)! for m = 0..200, by the recurrence
# phi_{m-1} = 1 + ln(2) phi_m / m down from phi_240 = 1, which divides the start's
# error by m at each step.  Weights w_m <= ln(2)^m / m! are 0.0 long before order 200.
_PHI = tuple(accumulate(range(240, 0, -1), lambda phi, m: 1 + math.log(2) * phi / m, initial=1.0))[::-1][:201]
_LN2_OVER = (0.0, *(math.log(2.0) / m for m in range(1, len(_PHI))))  # ln(2) / m, entry 0 unused


@dataclass(frozen=True)
class TruncationVector:
    """Per-order counts of retained terms, trailing zeros trimmed."""

    levels: tuple[int, ...]

    def __post_init__(self):
        levels = self.levels
        if levels and (min(levels) < 0 or not levels[-1]):  # one branch for both rare cases
            if min(levels) < 0:
                raise ValueError(f"level counts must be nonnegative, got {list(levels)}")
            values = list(levels)
            while values and not values[-1]:
                values.pop()
            object.__setattr__(self, "levels", tuple(values))

    @classmethod
    def from_levels(cls, levels: Iterable[int]) -> "TruncationVector":
        levels = tuple(levels)
        try:
            counts = tuple(map(operator.index, levels))
        except TypeError:  # a float or a string, which int() would truncate or parse
            raise ValueError(f"level counts must be integers, got {list(levels)}") from None
        return cls(levels=counts)

    @property
    def kappa(self) -> int:
        """Number of orders with at least one retained term."""
        return len(self.levels) - self.levels.count(0)

    @property
    def cost(self) -> int:
        """Gate-cost proxy: total number of retained terms across orders."""
        return sum(self.levels)

    def level(self, k: int) -> int:
        """Count for 1-based order ``k`` (0 beyond the stored length)."""
        if k < 1:
            raise ValueError("order index is 1-based")
        return self.levels[k - 1] if k <= len(self.levels) else 0

    def bump(self, k: int) -> "TruncationVector":
        """Return a copy with order ``k`` incremented by one."""
        if k < 1:
            raise ValueError("order index is 1-based")
        values = list(self.levels) + [0] * max(0, k - len(self.levels))
        values[k - 1] += 1
        return TruncationVector(levels=tuple(values))

    def is_contiguous(self) -> bool:
        """True when no empty order precedes a populated one."""
        return all(v > 0 for v in self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


def as_levels(levels: "TruncationVector | Sequence[int]") -> TruncationVector:
    if isinstance(levels, TruncationVector):
        return levels
    return TruncationVector.from_levels(levels)


def full_order_levels(hamiltonian: SortedHamiltonian, order: int) -> TruncationVector:
    """All terms retained in every order up to ``order``."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > sys.maxsize:  # more levels than a tuple can index, let alone hold
        raise MemoryError(f"{order} orders")
    return TruncationVector(levels=(hamiltonian.num_terms,) * order)


def t_infinity(hamiltonian: SortedHamiltonian) -> float:
    """Step size at which the untruncated normalization equals 2."""
    return math.log(2.0) / hamiltonian.lambda_total


def checked_levels(
    hamiltonian: SortedHamiltonian, levels: "TruncationVector | Sequence[int]"
) -> TruncationVector:
    """``levels`` as a vector; raises if any level, even past an empty order, exceeds the term count."""
    vec = as_levels(levels)
    if vec.levels and max(vec.levels) > hamiltonian.num_terms:
        raise ValueError(f"levels {list(vec.levels)} outside 0..{hamiltonian.num_terms}, the term count")
    return vec


def order_weights(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
) -> list[float]:
    """Order weights ``[w_0, ..., w_K]``, each ``w_k = w_{k-1} * (t * Lambda_k / k)``.

    ``K`` is the last order before the first empty one.  Past order 199, the
    last weight :func:`_greedy_loop` reads at ``t_inf``, the list also ends at the
    first weight of 0.0: every later weight is 0.0 too, so ``s(t)`` and the bound
    keep their bits.  Raises unless ``t`` is finite and nonnegative.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return _extend_weights([1.0], hamiltonian.prefix, checked_levels(hamiltonian, levels).levels, t)


def _extend_weights(weights: list[float], prefix: Sequence[float], counts: Sequence[int], t: float) -> list[float]:
    """Append to ``weights = [w_0, ..., w_j]`` the order weights of ``counts`` from order ``j + 1`` on,
    as far as :func:`order_weights` lists them."""
    weight = weights[-1]
    for k in range(len(weights), len(counts) + 1):
        lam = prefix[counts[k - 1]]
        if lam == 0.0 or not weight and k >= len(_PHI) - 1:
            break
        weight *= t * lam / k
        weights.append(weight)
    return weights


def _sum_in_order(values: Sequence[float]) -> float:
    """Left-to-right float sum (``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def s_value(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
) -> float:
    """Normalization constant s(t) for the given truncation vector: the sum of its order weights."""
    return _sum_in_order(order_weights(hamiltonian, levels, t))


def epsilon_bound(
    hamiltonian: SortedHamiltonian, levels: "TruncationVector | Sequence[int]"
) -> float:
    """Per-step error bound at ``t_inf``: the omitted mass ``2 - s(t_inf)``, in [0, 1].

    A sum of nonnegative terms, 1.0 for the empty vector, so it never
    cancels: within about 2K ulps of the exact bound for ``K`` live orders,
    mostly the rounding of ``t_inf``.  :func:`_greedy_loop` run for zero steps
    from ``levels`` computes it.
    """
    return _greedy_loop(hamiltonian, checked_levels(hamiltonian, levels).levels, 0, -1.0)[2][0]


def insertion_gain(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    k: int,
    t: float | None = None,
) -> float:
    """Increase of s(t) from adding the next-largest term to order ``k``.

    The next term's weight times the order weights from ``k`` on, with
    ``Lambda_k`` counted as 1: for a live order ``alpha * S_k / Lambda_k``, with
    ``S_k`` the sum of :func:`order_weights` from the top order down to ``k``.
    Adding to the first empty order revives the orders after it; an empty
    order ahead of ``k`` makes the gain 0.  These are the float operations of
    :func:`_greedy_loop`, so greedy's choice is the order of the largest gain, bit
    for bit; this function is their reference, one gain at a time.
    """
    if k < 1:
        raise ValueError("order index is 1-based")
    counts, num_terms = checked_levels(hamiltonian, levels).levels, hamiltonian.num_terms
    count_k = counts[k - 1] if k <= len(counts) else 0
    if count_k >= num_terms:
        raise ValueError(f"order {k} already contains all {num_terms} terms")
    if t is None:
        t = t_infinity(hamiltonian)
    elif not 0.0 <= t < math.inf:  # the rule of order_weights
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    prefix = hamiltonian.prefix
    weights, lam = _extend_weights([1.0], prefix, counts, t), prefix[count_k]
    if k > len(weights):
        return 0.0  # an empty order lies before k
    if k == len(weights):  # the first empty order: Lambda_k counted as 1 revives the orders after it
        weights.append(weights[-1] * (t / k))
        _extend_weights(weights, prefix, counts, t)
        lam = 1.0
    return hamiltonian.terms[count_k].alpha * (_sum_in_order(weights[:k - 1:-1]) / lam)  # w_K + ... + w_k


def solve_t_root(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
) -> float:
    """Step size at which s(t) = 2, by bracketing and bisection to adjacent floats.

    s is a polynomial in t with positive coefficients, increasing from 1 at
    t = 0, so the root is unique.  ``s(1/Lambda_1) >= 2`` always brackets it.
    Of the two floats that end the bisection, the one with the smaller
    ``|s - 2|`` is returned.  An empty first order (including the empty
    vector) leaves s(t) = 1.
    """
    vec, prefix = checked_levels(hamiltonian, levels), hamiltonian.prefix
    if vec.level(1) == 0:
        raise ValueError("empty first order: s(t) = 1 has no root at 2")

    def s(t: float) -> float:
        return _sum_in_order(_extend_weights([1.0], prefix, vec.levels, t))

    lo, hi = 0.0, 1.0 / prefix[vec.level(1)]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if s(mid) > 2.0:
            hi = mid
        else:
            lo = mid
    return min((lo, hi), key=lambda t: abs(s(t) - 2.0))


def _field_values(record) -> dict[str, Any]:
    """A dataclass record's fields by name in order, unconverted (``asdict`` deep-copies them)."""
    return {field.name: getattr(record, field.name) for field in fields(record)}


def _csv_text(columns: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """The CSV lines of ``columns`` and ``rows``: a float cell, numpy's too, is ``float.__repr__`` of it,
    a missing value empty, a vector its levels joined by ``;``; so no cell holds a comma, quote or newline."""

    def cell(value: Any) -> str:
        if isinstance(value, TruncationVector):
            return ";".join(map(str, value.levels))
        return "" if value is None else float.__repr__(value) if isinstance(value, float) else str(value)

    return "\n".join([",".join(columns), *(",".join(map(cell, row)) for row in rows)]) + "\n"


def _json_array(items: str) -> str:
    """A depth-1 array in ``json.dumps(..., indent=2)`` layout from its ``",\\n"``-joined items."""
    return f"[\n{items}\n  ]" if items else "[]"


@dataclass(frozen=True)
class PlanStep:
    """One greedy insertion; ``epsilon_after`` is :func:`epsilon_bound` of the new vector, bit for bit."""

    chosen_k: int
    gain: float
    epsilon_after: float
    cost_after: int


@dataclass(frozen=True)
class PlanTrace:
    """Ordered record of greedy insertions ending at ``final``, held as three columns.

    Step ``i`` (1-based) added a term to order ``orders[i - 1]``, gained ``gains[i - 1]``,
    left the bound ``epsilons[i - 1]`` and brought the cost to ``i``.  The columns take
    72 bytes a step on 64-bit CPython, a :class:`PlanStep` 188.
    """

    hamiltonian_id: str
    t: float
    orders: tuple[int, ...]
    gains: tuple[float, ...]
    epsilons: tuple[float, ...]
    final: TruncationVector

    def __post_init__(self):
        if not len(self.orders) == len(self.gains) == len(self.epsilons):
            raise ValueError("orders, gains and epsilons must have one entry per step")

    @cached_property
    def steps(self) -> tuple[PlanStep, ...]:
        """The steps as :class:`PlanStep` records, built on first access."""
        return tuple(map(PlanStep, self.orders, self.gains, self.epsilons, range(1, len(self.orders) + 1)))

    def to_json(self) -> str:
        """The bytes of ``json.dumps(payload, indent=2) + "\\n"`` for the payload of ``hamiltonian``,
        ``t``, ``steps`` (``k``, ``gain``, ``epsilon``, ``cost``) and ``final_levels``: the pieces
        the CLI streams to its output, joined."""
        return "".join(self._json_pieces())

    def to_csv(self) -> str:
        return "".join(self._csv_pieces())

    def _json_pieces(self) -> Iterator[str]:
        """:meth:`to_json` as a head, one piece per step with its separator, and a tail, written
        directly (the stdlib encoder runs in pure Python under ``indent``): ``float.__repr__``
        for the finite floats, ``json.dumps`` only for the label."""
        num = float.__repr__  # as the stdlib writes floats, numpy's included
        yield f'{{\n  "hamiltonian": {json.dumps(self.hamiltonian_id)},\n  "t": {num(self.t)},\n  "steps": ['
        separator = "\n"
        for cost, (k, gain, epsilon) in enumerate(zip(self.orders, self.gains, self.epsilons), start=1):
            yield (
                f'{separator}    {{\n      "k": {k},\n      "gain": {num(gain)},\n'
                f'      "epsilon": {num(epsilon)},\n      "cost": {cost}\n    }}'
            )
            separator = ",\n"
        levels = ",\n".join(f"    {v}" for v in self.final.levels)
        yield ("\n  ]" if self.orders else "]") + f',\n  "final_levels": {_json_array(levels)}\n}}\n'

    def _csv_pieces(self) -> Iterator[str]:
        """:meth:`to_csv` as its header line and one line per step, floats as in :func:`_csv_text`."""
        yield "step,k,gain,epsilon,cost\n"
        for i, (k, gain, epsilon) in enumerate(zip(self.orders, self.gains, self.epsilons), start=1):
            yield f"{i},{k},{float.__repr__(gain)},{float.__repr__(epsilon)},{i}\n"


def greedy_plan(
    hamiltonian: SortedHamiltonian,
    budget: int | None = None,
    target_epsilon: float | None = None,
) -> PlanTrace:
    """Greedily grow a truncation vector from empty, one term at a time.

    Each step increments the order with the largest insertion gain
    (ties break toward the lowest order) until the cost budget is spent or
    the error bound drops to ``target_epsilon``.  Exactly one stopping rule
    must be given.  Each step records, and stops on, :func:`epsilon_bound`.
    The steps are those of :func:`_greedy_loop`, O(K) each for ``K`` populated
    orders, and equal those of calling :func:`insertion_gain` for every order.
    Each recorded gain is :func:`insertion_gain` of the step's order on the
    vector before it, read by replaying the chosen orders from the empty vector;
    it equals, bit for bit, the gain the loop chose by.
    The trace holds the orders, gains and bounds as columns; ``steps`` builds
    the :class:`PlanStep` records only when read.

    A run also ends where no insertion lowers the bound in double precision:
    with fewer steps than the budget where the bound is 0.0 there, and
    with the :class:`ConvergenceError` of :func:`_greedy` where it is not.
    """
    chosen, epsilons, final = _greedy(hamiltonian, budget, target_epsilon)
    t, counts, gains = t_infinity(hamiltonian), [], []
    for k in chosen:  # counts bumped in place; TruncationVector.bump would copy a list per step
        gains.append(insertion_gain(hamiltonian, TruncationVector(levels=tuple(counts)), k, t))
        if k > len(counts):
            counts.append(0)
        counts[k - 1] += 1
    return PlanTrace(hamiltonian.label or "<unnamed>", t, tuple(chosen), tuple(gains), tuple(epsilons), final)


def _greedy(
    hamiltonian: SortedHamiltonian, budget: int | None, target_epsilon: float | None
) -> tuple[list[int], list[float], TruncationVector]:
    """The greedy run of every command: each step's order, the bound after each step and the final levels.

    Checks the stopping rule and runs :func:`_greedy_loop` from the empty vector to ``cost == budget``,
    ``epsilon <= target_epsilon`` or a stall, where no gain is above 0.0 (at ``t_inf`` by order 166 at
    the latest).  The one place a stall is an error: short of its budget or above its target, it
    raises :class:`ConvergenceError` unless the bound is 0.0, where the run keeps its vector.
    """
    if (budget is None) == (target_epsilon is None):
        raise ValueError("specify exactly one of budget or target_epsilon")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    if target_epsilon is not None and not 0.0 < target_epsilon < 1.0:
        raise ValueError("target_epsilon must lie strictly between 0 and 1")
    stop_epsilon = -1.0 if target_epsilon is None else target_epsilon  # a bound is never negative
    chosen, _, epsilons, counts = _greedy_loop(hamiltonian, (), budget, stop_epsilon)
    if len(chosen) != budget and epsilons[-1] > (target_epsilon or 0.0):  # stalled short of budget or target
        raise ConvergenceError(f"no insertion improves the bound in double precision; stopped at cost {len(chosen)}")
    del epsilons[0]  # the empty vector's bound, 1.0
    return chosen, epsilons, TruncationVector(levels=tuple(counts[:counts.index(0)]))


def _greedy_loop(
    hamiltonian: SortedHamiltonian, levels: Sequence[int], steps: int | None, stop_epsilon: float
) -> tuple[list[int], list[float], list[float], list[int]]:
    """Greedy steps from ``levels``: each step's order and gain, the bound at each cost from 0 on, the counts.

    One flat loop over tables at ``t = t_inf``, built once per Hamiltonian, on its first call, and kept
    on it: the term weights, ``Lambda - Lambda_c`` and ``t * Lambda_c`` for every count ``c`` and ``t/m``
    for the orders ``m`` up to 200, beside the fixed ``ln 2/m`` and ``phi_m(ln 2)``.  The order weights
    are kept across steps; bumping order ``b`` refills only ``w_b, ..., w_K``, each ``w_k = w_{k-1} *
    (t Lambda_k / k)`` as in :func:`order_weights`, which ends them at the first empty order and past
    order 199 at the first 0.0 (at ``t_inf`` every weight from order 166 on is 0.0).
    Then one reverse pass from the top live order ``K`` down to the lowest order
    that is not full gives the bound and the gains.  The full orders below it add
    exactly 0.0 to the bound (``Lambda - Lambda_L = 0.0``) and have no gain.

    The bound is the omitted mass ``sum_{m=1}^{K+1} w_{m-1} (Lambda - Lambda_m) (t/m)
    phi_m(ln 2)``: term ``m`` holds the products whose first omitted factor lies in
    order ``m``; order ``K+1`` omits all of ``Lambda``, and ``t Lambda = ln 2``.  The
    gains are :func:`insertion_gain`'s, bit for bit: a nonfull order ``k <= K`` gains
    ``alpha_{L_k+1} * S_k / Lambda_k`` with ``S_k`` the sum of ``w_K, ..., w_k`` from the
    top down, and order ``K+1`` gains ``alpha_1 * w_K * t / (K+1)``.  Each step takes
    the largest gain, the lowest such order at a tie, so the steps are those of
    calling :func:`insertion_gain` for every open order at every step.

    Stops after ``steps`` steps (``None``: no limit), at a bound ``<= stop_epsilon``,
    or where no gain is above 0.0, whatever the bound there; it never raises, and a
    caller tells a stall from the step count and the last bound.  The returned counts
    run on past the last order with zeros.
    """
    tables = hamiltonian.__dict__.get("_kernel_tables")
    if tables is None:  # on the object, not in a dict keyed by it: a lookup there would hash every term
        alphas, t = tuple(term.alpha for term in hamiltonian.terms), t_infinity(hamiltonian)
        suffix = tuple(accumulate(reversed(alphas), initial=0.0))[::-1]  # Lambda - Lambda_c, from the smallest weight
        t_prefix = tuple(t * lam for lam in hamiltonian.prefix)  # weight *= t_prefix[c] / k is weight *= t * lam / k
        tables = alphas, suffix, t_prefix, (0.0, *(t / m for m in range(1, len(_PHI))))
        object.__setattr__(hamiltonian, "_kernel_tables", tables)  # no field, so ==, hash and repr ignore it
    alphas, suffix, t_prefix, t_over = tables
    prefix, num_terms, phi, ln2_over, orders = hamiltonian.prefix, len(alphas), _PHI, _LN2_OVER, len(_PHI)
    counts = [*levels, *[0] * orders]  # a zero past the last order ends the refill and the full-order skip
    weights = [1.0] * orders  # w_0 = 1.0; w_1, ... are written before they are read
    chosen: list[int] = []
    gains: list[float] = []
    epsilons: list[float] = []
    alpha_1, bumped, lowest = alphas[0], 1, 1

    for cost in count():
        k, weight = bumped, weights[bumped - 1]
        while (c := counts[k - 1]) and (weight or k < orders - 1):
            weight *= t_prefix[c] / k
            weights[k] = weight
            k += 1
        top = k - 1  # the top live order K
        while lowest <= top and counts[lowest - 1] == num_terms:
            lowest += 1

        epsilon = weight * ln2_over[k] * phi[k]
        best, best_k, tail = alpha_1 * (weight * t_over[k]), k, 0.0
        for m in range(top, lowest - 1, -1):
            tail += weight
            weight = weights[m - 1]
            c = counts[m - 1]
            epsilon += weight * suffix[c] * t_over[m] * phi[m]
            if c < num_terms and (gain := alphas[c] * (tail / prefix[c])) >= best:
                best, best_k = gain, m
        epsilons.append(epsilon)

        if epsilon <= stop_epsilon or cost == steps or best <= 0.0:
            break
        counts[best_k - 1] += 1
        chosen.append(best_k)
        gains.append(best)
        bumped = best_k

    return chosen, gains, epsilons, counts
