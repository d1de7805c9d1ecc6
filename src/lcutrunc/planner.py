"""Per-order truncation planning for the Taylor-series unitary sum.

The central objects are truncation vectors: for each Taylor order ``k`` a
count ``L_k`` of retained largest-magnitude Hamiltonian terms.  One kernel,
:func:`order_weights`, gives the order weights

    w_k(t) = t^k / k!  *  prod_{j<=k} Lambda_j,     Lambda_j = prefix sum of L_j weights

up to the first empty order, whose ``Lambda_j = 0`` annihilates every later
product.  Their sum ``s(t)`` controls both the amplification step and the
per-step error bound ``epsilon = 2 - s(t_inf)`` at ``t_inf = ln(2) / Lambda``.
With ``Lambda_k`` counted as 1 their sum from order ``k`` on is
``ds/dLambda_k``, the exact gain per unit weight added to order ``k``.

The greedy planner starts from the empty vector and repeatedly increments
the order whose next term buys the largest increase of ``s`` (equivalently,
the largest decrease of the error bound) per unit of gate cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConvergenceError
from .hamiltonian import SortedHamiltonian

# Cost cap for target-epsilon plans, as a multiple of the term count; double
# precision cannot resolve bounds below ~1e-16 anyway.
DEFAULT_COST_CAP_FACTOR = 64


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
    weights = [1.0]
    weight = 1.0
    prefix = hamiltonian.prefix
    for k, count in enumerate(counts, start=1):
        lam = 1.0 if k == unit_order else prefix[count]
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


def epsilon_bound(
    hamiltonian: SortedHamiltonian, levels: "TruncationVector | Sequence[int]"
) -> float:
    """Per-step error bound 2 - s(t_inf); lies in [0, 1]."""
    eps = 2.0 - s_value(hamiltonian, levels, t_infinity(hamiltonian))
    return max(eps, 0.0)


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
    vec = as_levels(levels)
    count_k = vec.level(k)
    if count_k >= hamiltonian.num_terms:
        raise ValueError(f"order {k} already contains all {hamiltonian.num_terms} terms")
    if t is None:
        t = t_infinity(hamiltonian)

    weights = order_weights(hamiltonian, vec, t, unit_order=k)
    return hamiltonian.terms[count_k].alpha * _sum_in_order(weights[k:])


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


@dataclass(frozen=True)
class PlanStep:
    """One greedy insertion: which order grew and what it bought."""

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
        payload = {
            "hamiltonian": self.hamiltonian_id,
            "t": self.t,
            "steps": [
                {"k": s.chosen_k, "gain": s.gain, "epsilon": s.epsilon_after, "cost": s.cost_after}
                for s in self.steps
            ],
            "final_levels": list(self.final.levels),
        }
        return json.dumps(payload, indent=2) + "\n"

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
    must be given.

    Raises :class:`ConvergenceError` if ``target_epsilon`` is still
    unreached at the hard cost cap ``DEFAULT_COST_CAP_FACTOR * num_terms``.
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

    counts: list[int] = []
    epsilon = 1.0
    steps: list[PlanStep] = []

    while True:
        if budget is not None and len(steps) >= budget:
            break
        if target_epsilon is not None and epsilon <= target_epsilon:
            break
        if len(steps) >= cost_cap:
            raise ConvergenceError(
                f"target epsilon {target_epsilon} not reached at cost cap {cost_cap}"
            )

        current = TruncationVector(levels=tuple(counts))
        best_k = 0
        best_gain = 0.0
        for k in range(1, len(counts) + 2):
            if current.level(k) >= num_terms:
                continue
            gain = insertion_gain(hamiltonian, current, k, t)
            if gain > best_gain:
                best_gain = gain
                best_k = k
        if best_k == 0:
            raise ConvergenceError(
                "no insertion improves the bound in double precision; "
                f"stopped at cost {len(steps)}"
            )

        if best_k > len(counts):
            counts.append(0)
        counts[best_k - 1] += 1
        epsilon -= best_gain
        steps.append(
            PlanStep(
                chosen_k=best_k,
                gain=best_gain,
                epsilon_after=epsilon,
                cost_after=len(steps) + 1,
            )
        )

    return PlanTrace(
        hamiltonian_id=hamiltonian.label or "<unnamed>",
        t=t,
        steps=tuple(steps),
        final=TruncationVector(levels=tuple(counts)),
    )
