"""Per-order truncation planning for the Taylor-series unitary sum.

The central objects are truncation vectors: for each Taylor order ``k`` a
count ``L_k`` of retained largest-magnitude Hamiltonian terms.  The ancilla
normalization

    s(t) = sum_k  t^k / k!  *  prod_{j<=k} Lambda_j,     Lambda_j = prefix sum of L_j weights

controls both the amplification step and the per-step error bound
``epsilon = 2 - s(t_inf)`` at the step size ``t_inf = ln(2) / Lambda``.
Because ``Lambda_j = 0`` for an empty order annihilates every later product,
all sums here are finite and evaluated exactly in double precision.

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

    @classmethod
    def from_levels(cls, levels: Iterable[int]) -> "TruncationVector":
        values = [int(v) for v in levels]
        if any(v < 0 for v in values):
            raise ValueError(f"level counts must be nonnegative, got {values}")
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


def s_value(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
) -> float:
    """Normalization constant s(t) for the given truncation vector.

    The sum truncates exactly at the first empty order, since its zero
    prefix sum annihilates every later product.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    vec = as_levels(levels)
    total = 1.0
    term = 1.0
    for k, count in enumerate(vec.levels, start=1):
        lam = hamiltonian.prefix_lambda(count)
        if lam == 0.0:
            break
        term *= t * lam / k
        total += term
    return total


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

    Evaluates the exact finite sum over all Taylor orders the new term
    participates in.  Returns 0 when an empty order ahead of ``k``
    annihilates every contribution.
    """
    if k < 1:
        raise ValueError("order index is 1-based")
    vec = as_levels(levels)
    count_k = vec.level(k)
    if count_k >= hamiltonian.num_terms:
        raise ValueError(f"order {k} already contains all {hamiltonian.num_terms} terms")
    if t is None:
        t = t_infinity(hamiltonian)

    alpha_next = hamiltonian.terms[count_k].alpha

    # running = t^nu / nu! * prod_{j <= nu, j != k} Lambda_j
    running = 1.0
    for j in range(1, k):
        running *= t * hamiltonian.prefix_lambda(vec.level(j)) / j
        if running == 0.0:
            return 0.0
    running *= t / k
    total = running
    nu = k
    max_order = len(vec.levels)
    while nu < max_order:
        nu += 1
        running *= t * hamiltonian.prefix_lambda(vec.level(nu)) / nu
        if running == 0.0:
            break
        total += running
    return alpha_next * total


def solve_t_root(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    tol: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Step size at which s(t) = 2 exactly, by bracketing and bisection.

    s is a polynomial in t with positive coefficients, increasing from 1 at
    t = 0, so the root is unique.  ``s(1/Lambda_1) >= 2`` always brackets it.
    An empty first order (including the empty vector) leaves s(t) = 1.
    """
    vec = as_levels(levels)
    if vec.level(1) == 0:
        raise ValueError("empty first order: s(t) = 1 has no root at 2")
    lo = 0.0
    hi = 1.0 / hamiltonian.prefix_lambda(vec.level(1))
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        residual = s_value(hamiltonian, vec, mid) - 2.0
        if abs(residual) <= tol:
            return mid
        if residual > 0:
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(f"bisection did not reach |s - 2| <= {tol} in {max_iterations} iterations")


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
    cost_cap_factor: int | None = None,
) -> PlanTrace:
    """Greedily grow a truncation vector from empty, one term at a time.

    Each step increments the order with the largest insertion gain
    (ties break toward the lowest order) until the cost budget is spent or
    the error bound drops to ``target_epsilon``.  Exactly one stopping rule
    must be given.

    Raises :class:`ConvergenceError` if ``target_epsilon`` is still
    unreached at the hard cost cap ``cost_cap_factor * num_terms``.
    """
    if (budget is None) == (target_epsilon is None):
        raise ValueError("specify exactly one of budget or target_epsilon")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    if target_epsilon is not None and not 0.0 < target_epsilon < 1.0:
        raise ValueError("target_epsilon must lie strictly between 0 and 1")
    if cost_cap_factor is None:
        cost_cap_factor = DEFAULT_COST_CAP_FACTOR

    t = t_infinity(hamiltonian)
    num_terms = hamiltonian.num_terms
    cost_cap = budget if budget is not None else cost_cap_factor * num_terms

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
