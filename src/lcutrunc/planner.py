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
the largest decrease of the error bound) per unit of gate cost.  It keeps
the order weights across steps and recomputes only those from the bumped
order on.  Each step makes one reverse scan over them, down to the lowest
order that is not full, which gives the bound and estimates every order's
gain.  :func:`greedy_plan` adds about one :func:`insertion_gain` call, which
confirms the winner and supplies the recorded gain.  Callers that need only
the levels or the bounds (``--budget`` and ``compare``) record no gains and
confirm only near-ties and gains near underflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import ConvergenceError
from .hamiltonian import SortedHamiltonian

# Cost cap for target-epsilon plans, as a multiple of the term count; double
# precision cannot resolve bounds below ~1e-16 anyway.
DEFAULT_COST_CAP_FACTOR = 64

# Greedy confirms with insertion_gain every order whose estimated gain lies
# within these margins of the best estimate.  Estimate and confirmed gain are
# both sums and products of positive floats, each within about (2K+2)
# roundings of the exact gain, far inside the relative margin, so no order
# whose confirmed gain could win or tie is screened out.  Weights below the
# smallest normal float round to absolute steps of 2**-1074 instead; these
# add at most about K * 2**-1074 * max(1, alpha_1) to a gain, and K stays
# below 200 because w_K <= ln(2)^K / K!, far inside the absolute margin
# ``max(1, alpha_1) * _GAIN_SCREEN_ATOL``.
_GAIN_SCREEN_RTOL = 1e-12
_GAIN_SCREEN_ATOL = 2.0**-1000


# phi_m(ln 2) = sum_{p>=0} ln(2)^p m!/(m+p)! for m = 0..200, by the recurrence
# phi_{m-1} = 1 + ln(2) phi_m / m down from phi_240 = 1, which divides the start's
# error by m at each step.  Weights w_m <= ln(2)^m / m! are 0.0 long before order 200.
_PHI = tuple(accumulate(range(240, 0, -1), lambda phi, m: 1 + math.log(2) * phi / m, initial=1.0))[::-1][:201]


@dataclass(frozen=True)
class TruncationVector:
    """Per-order counts of retained terms, trailing zeros trimmed."""

    levels: tuple[int, ...]

    def __post_init__(self):
        if self.levels and min(self.levels) < 0:
            raise ValueError(f"level counts must be nonnegative, got {list(self.levels)}")

    @classmethod
    def from_levels(cls, levels: Iterable[int]) -> "TruncationVector":
        values = [int(v) for v in levels]
        while values and values[-1] == 0:
            values.pop()
        return cls(levels=tuple(values))

    @classmethod
    def full_order(cls, order: int, num_terms: int) -> "TruncationVector":
        if order < 0:
            raise ValueError("order must be nonnegative")
        return cls(levels=(num_terms,) * order)

    @property
    def kappa(self) -> int:
        """Number of orders with at least one retained term."""
        return sum(1 for v in self.levels if v > 0)

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


def cost_of(levels: "TruncationVector | Sequence[int]") -> int:
    return as_levels(levels).cost


def full_order_levels(hamiltonian: SortedHamiltonian, order: int) -> TruncationVector:
    """All terms retained in every order up to ``order``."""
    return TruncationVector.full_order(order, hamiltonian.num_terms)


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
    unit_order: int | None = None,
) -> list[float]:
    """Order weights ``[w_0, ..., w_K]``, each ``w_k = w_{k-1} * (t * Lambda_k / k)``.

    ``K`` is the last order before the first empty one.  Order
    ``unit_order`` counts its ``Lambda`` as 1 and as nonempty, for the
    derivative of ``s`` in that ``Lambda``.
    """
    counts = checked_levels(hamiltonian, levels).levels
    if unit_order is not None:
        counts += (0,) * (unit_order - len(counts))
    return _extend_weights([1.0], hamiltonian.prefix, counts, t, unit_order)


def _extend_weights(
    weights: list[float], prefix: Sequence[float], counts: Sequence[int], t: float, unit_order: int | None = None
) -> list[float]:
    """Append to ``weights = [w_0, ..., w_j]`` the order weights of ``counts`` from order ``j + 1`` on."""
    weight = weights[-1]
    for k in range(len(weights), len(counts) + 1):
        lam = 1.0 if k == unit_order else prefix[counts[k - 1]]
        if lam == 0.0:
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
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _sum_in_order(order_weights(hamiltonian, levels, t))


def _scan(
    hamiltonian: SortedHamiltonian, counts: Sequence[int], weights: Sequence[float], t: float, lowest: int = 1
) -> tuple[float, list[tuple[int, float]], float]:
    """The bound, each open order's ``(k, gain estimate)`` ascending in k, and the best estimate.

    ``w`` are the order weights of ``counts`` (contiguous for the estimates),
    ``t = t_inf``, and one pass runs from the top live order ``K`` down to
    order ``lowest``.  Every order below ``lowest`` must hold all ``L`` terms:
    its bound term, with ``Lambda - Lambda_L = 0.0``, is exactly 0.0, and it
    has no estimate.  The bound is the omitted mass ``sum_{m=1}^{K+1} w_{m-1} (Lambda - Lambda_m) (t/m) phi_m(ln 2)``:
    term ``m`` holds the products whose first omitted factor lies in order ``m``;
    order ``K+1`` omits all of ``Lambda``, and ``t Lambda = ln 2``.  With ``Lambda_k``
    counted as 1 the weights from order ``k`` on are ``w_nu / Lambda_k``, so a
    nonfull order ``k <= K`` gains about ``alpha_{L_k+1} * S_k / Lambda_k`` with
    ``S_k = sum_{nu>=k} w_nu``, and order ``K+1`` gains ``alpha_1 * w_K * t / (K+1)``.
    """
    terms, prefix, suffix, num_terms = hamiltonian.terms, hamiltonian.prefix, hamiltonian.suffix, hamiltonian.num_terms
    top = min(len(weights) - 1, len(_PHI) - 2)
    epsilon = weights[top] * (math.log(2.0) / (top + 1)) * _PHI[top + 1]
    best = terms[0].alpha * (weights[top] * (t / (top + 1)))
    estimates = [(top + 1, best)]
    tail = 0.0
    for m in range(top, lowest - 1, -1):
        count = counts[m - 1]
        epsilon += weights[m - 1] * suffix[count] * (t / m) * _PHI[m]
        tail += weights[m]
        if count < num_terms:
            estimate = terms[count].alpha * (tail / prefix[count])
            estimates.append((m, estimate))
            if estimate > best:
                best = estimate
    estimates.reverse()
    return epsilon, estimates, best


def epsilon_bound(
    hamiltonian: SortedHamiltonian, levels: "TruncationVector | Sequence[int]"
) -> float:
    """Per-step error bound at ``t_inf``: the omitted mass ``2 - s(t_inf)``, in [0, 1].

    A sum of nonnegative terms, 1.0 for the empty vector, so it never
    cancels: within about 2K ulps of the exact bound for ``K`` live orders,
    mostly the rounding of ``t_inf``.
    """
    vec = checked_levels(hamiltonian, levels)
    t = t_infinity(hamiltonian)
    return _scan(hamiltonian, vec.levels, order_weights(hamiltonian, vec, t), t)[0]


def insertion_gain(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    k: int,
    t: float | None = None,
) -> float:
    """Increase of s(t) from adding the next-largest term to order ``k``.

    The next term's weight times the order weights from ``k`` on, with
    ``Lambda_k`` counted as 1.  Adding to the first empty order revives the
    orders after it; an empty order ahead of ``k`` makes the gain 0.
    """
    if k < 1:
        raise ValueError("order index is 1-based")
    counts = checked_levels(hamiltonian, levels).levels
    count_k = counts[k - 1] if k <= len(counts) else 0
    if count_k >= hamiltonian.num_terms:
        raise ValueError(f"order {k} already contains all {hamiltonian.num_terms} terms")
    if t is None:
        t = t_infinity(hamiltonian)
    if k > len(counts):
        counts += (0,) * (k - len(counts))
    prefix, weight, total = hamiltonian.prefix, 1.0, 0.0
    for j in range(1, len(counts) + 1):
        lam = 1.0 if j == k else prefix[counts[j - 1]]
        if lam == 0.0:
            break
        weight *= t * lam / j
        if j >= k:
            total += weight
    return hamiltonian.terms[count_k].alpha * total


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
    vec = as_levels(levels)
    if vec.level(1) == 0:
        raise ValueError("empty first order: s(t) = 1 has no root at 2")
    lo = 0.0
    hi = 1.0 / hamiltonian.prefix_lambda(vec.level(1))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if s_value(hamiltonian, vec, mid) > 2.0:
            hi = mid
        else:
            lo = mid
    return min((lo, hi), key=lambda t: abs(s_value(hamiltonian, vec, t) - 2.0))


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
    """Ordered record of greedy insertions ending at ``final``."""

    hamiltonian_id: str
    t: float
    steps: tuple[PlanStep, ...]
    final: TruncationVector

    def epsilon_at_cost(self, cost: int) -> float:
        if not 0 <= cost <= len(self.steps):
            raise ValueError(f"cost {cost} outside recorded range 0..{len(self.steps)}")
        return 1.0 if cost == 0 else self.steps[cost - 1].epsilon_after

    def levels_at_cost(self, cost: int) -> TruncationVector:
        """Replay the first ``cost`` insertions from the empty vector."""
        if not 0 <= cost <= len(self.steps):
            raise ValueError(f"cost {cost} outside recorded range 0..{len(self.steps)}")
        vec = TruncationVector(levels=())
        for step in self.steps[:cost]:
            vec = vec.bump(step.chosen_k)
        return vec

    def to_json(self) -> str:
        """The bytes of ``json.dumps(payload, indent=2) + "\\n"`` for the payload of ``hamiltonian``,
        ``t``, ``steps`` (``k``, ``gain``, ``epsilon``, ``cost``) and ``final_levels``, written
        directly (the stdlib encoder runs in pure Python under ``indent``): ``float.__repr__``
        for the finite floats, ``json.dumps`` only for the label."""
        num = float.__repr__  # as the stdlib writes floats, numpy's included
        steps = ",\n".join(
            f'    {{\n      "k": {s.chosen_k},\n      "gain": {num(s.gain)},\n'
            f'      "epsilon": {num(s.epsilon_after)},\n      "cost": {s.cost_after}\n    }}'
            for s in self.steps
        )
        levels = ",\n".join(f"    {v}" for v in self.final.levels)
        return (
            f'{{\n  "hamiltonian": {json.dumps(self.hamiltonian_id)},\n  "t": {num(self.t)},\n'
            f'  "steps": {_json_array(steps)},\n  "final_levels": {_json_array(levels)}\n}}\n'
        )

    def to_csv(self) -> str:
        lines = ["step,k,gain,epsilon,cost"]
        for i, s in enumerate(self.steps, start=1):
            lines.append(f"{i},{s.chosen_k},{s.gain!r},{s.epsilon_after!r},{s.cost_after}")
        return "\n".join(lines) + "\n"


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
    A step costs O(K) for ``K`` populated orders (see :func:`_greedy`), and its
    choice and recorded gain are those of calling :func:`insertion_gain` for
    every order.

    Raises :class:`ConvergenceError` if ``target_epsilon`` is still
    unreached at the hard cost cap ``DEFAULT_COST_CAP_FACTOR * num_terms``.
    """
    chosen, epsilons, gains, final = _greedy(hamiltonian, budget, target_epsilon, record_gains=True)
    return PlanTrace(
        hamiltonian_id=hamiltonian.label or "<unnamed>",
        t=t_infinity(hamiltonian),
        steps=tuple(map(PlanStep, chosen, gains, epsilons, range(1, len(chosen) + 1))),
        final=final,
    )


def _greedy(
    hamiltonian: SortedHamiltonian, budget: int | None, target_epsilon: float | None, record_gains: bool
) -> tuple[list[int], list[float], list[float], TruncationVector]:
    """The greedy loop: each step's order, the bound after each step, the gains and the final levels.

    The order weights are kept across steps; bumping order ``b`` refills only
    ``w_b, ..., w_K``.  One :func:`_scan` per step, down to the lowest order
    that is not full, gives the bound and every open order's gain estimate.
    :func:`insertion_gain` confirms the orders whose estimate lies within
    ``_GAIN_SCREEN_RTOL`` (relative) or ``_GAIN_SCREEN_ATOL`` of the best.
    Without ``record_gains`` the gains stay empty, and a lone order whose
    estimate is above the absolute margin is taken unconfirmed: its
    confirmed gain is above 0, so the confirmation would take it too.
    """
    if (budget is None) == (target_epsilon is None):
        raise ValueError("specify exactly one of budget or target_epsilon")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    if target_epsilon is not None and not 0.0 < target_epsilon < 1.0:
        raise ValueError("target_epsilon must lie strictly between 0 and 1")

    t = t_infinity(hamiltonian)
    num_terms = hamiltonian.num_terms
    cost_cap = budget if budget is not None else DEFAULT_COST_CAP_FACTOR * num_terms
    screen_atol = max(1.0, hamiltonian.terms[0].alpha) * _GAIN_SCREEN_ATOL

    counts: list[int] = []
    weights = [1.0]
    lowest = 1  # the lowest order that is not full
    chosen: list[int] = []
    epsilons: list[float] = []
    gains: list[float] = []

    while True:
        # the step's scan also gives the bound after the previous step
        epsilon, estimates, best = _scan(hamiltonian, counts, weights, t, lowest)
        if chosen:
            epsilons.append(epsilon)
        if budget is not None and len(chosen) >= budget:
            break
        if target_epsilon is not None and epsilon <= target_epsilon:
            break
        if len(chosen) >= cost_cap:
            raise ConvergenceError(
                f"target epsilon {target_epsilon} not reached at cost cap {cost_cap}"
            )

        floor = best - (best * _GAIN_SCREEN_RTOL + screen_atol)
        candidates = [k for k, estimate in estimates if estimate >= floor]
        if record_gains or len(candidates) > 1 or best <= screen_atol:
            current = TruncationVector(levels=tuple(counts))
            best_k, best_gain = 0, 0.0
            for k in candidates:
                gain = insertion_gain(hamiltonian, current, k, t)
                if gain > best_gain:
                    best_k, best_gain = k, gain
            if best_k == 0:
                raise ConvergenceError(
                    "no insertion improves the bound in double precision; "
                    f"stopped at cost {len(chosen)}"
                )
            if record_gains:
                gains.append(best_gain)
        else:
            best_k = candidates[0]

        if best_k > len(counts):
            counts.append(0)
        counts[best_k - 1] += 1
        while lowest <= len(counts) and counts[lowest - 1] == num_terms:
            lowest += 1
        chosen.append(best_k)
        del weights[best_k:]  # orders below best_k keep their weights
        _extend_weights(weights, hamiltonian.prefix, counts, t)

    return chosen, epsilons, gains, TruncationVector(levels=tuple(counts))
