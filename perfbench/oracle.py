"""Output checks, run outside the timed region.

The reference here shares no code with the package's dense simulator: it
parses the term-list files itself, builds Pauli matrices by its own
Kronecker products, exponentiates with ``scipy.linalg.expm`` and takes
norms with ``np.linalg.norm(., 2)``.  It also runs its own greedy planner:
a recorded plan is replayed step by step, and each chosen order must have
the largest insertion gain.  Every number checked is recomputed here.

Each check returns ``{command name: [problem, ...]}``; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import reduce

import numpy as np

# The bound 2 - s(t_inf) is evaluated near s = 2, where one rounding is
# 2**-52 ~ 2.2e-16; the greedy running bound adds one rounding per step and
# drifts ~6e-15 after 43k steps.  1e-13 sits well above both and a decade
# below the 1e-12 target, so a wrong bound is still caught.
BOUND_ABS = 1e-13
REL = 1e-12
# A replayed step's gain is recomputed from other roundings: it must agree to
# GAIN_REL, and the chosen order's gain must be within GAIN_REL of the largest
# (a closer near-tie may go either way).  The recorded epsilon must drop by the
# recorded gain, up to a few roundings near epsilon = 1.
GAIN_REL = 1e-9
DROP_ABS = 1e-15
# The package's solver stops at |s(t_root) - 2| <= 1e-12.
T_ROOT_RESIDUAL = 1e-11
# Dense errors: the package takes norms above dimension 64 by power
# iteration, which stops at a relative change of 1e-12 in the squared norm
# and reads low.  Unitaries built two ways differ by ~dim * 2**-52 in entries.
DELTA_REL = 1e-6
DELTA_ABS = 1e-12
RESIDUAL_MAX = 1e-10
NORMALIZATION_MAX = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _close(a: float, b: float, abs_tol: float = 0.0, rel_tol: float = REL) -> bool:
    return abs(a - b) <= abs_tol + rel_tol * max(abs(a), abs(b))


class Reference:
    """Bounds and dense operators for one term-list file, built from scratch."""

    def __init__(self, text: str):
        terms = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                coefficient, axes = line.split()
                terms.append((complex(coefficient.replace("i", "j")), axes))
        # stable sort by descending magnitude: the order the planner truncates in
        self.terms = sorted(terms, key=lambda term: -abs(term[0]))
        self.weights = [abs(c) for c, _ in self.terms]
        self.prefix = _prefix_sums(self.weights)
        self.lam = self.prefix[-1]
        self.t = math.log(2.0) / self.lam
        self._prefix_cache: dict[int, np.ndarray] = {}
        self._exact: np.ndarray | None = None

    def s(self, levels, t: float | None = None) -> float:
        t = self.t if t is None else t
        total = term = 1.0
        for k, count in enumerate(levels, start=1):
            lam = self.prefix[count]
            if lam == 0.0:
                break
            term *= t * lam / k
            total += term
        return total

    def epsilon(self, levels) -> float:
        return max(2.0 - self.s(levels), 0.0)

    def greedy(self, steps: int, chosen=None) -> list[tuple[int, float, float]]:
        """``steps`` greedy insertions from the empty vector: (order taken, its gain, largest gain).

        A gain is the increase of s(t_inf) from adding the next-largest term
        to one order.  Without ``chosen`` each step takes the order with the
        largest gain, ties to the lowest; with it, step i takes ``chosen[i]``.
        """
        t, num_terms, taken, counts = self.t, len(self.weights), [], []
        for step in range(steps):
            # factor j is t * Lambda_j / j; the gain of order k is
            # w_next(k) * (t / k) * prod_{j<k} factor_j * (1 + f_{k+1} + f_{k+1} f_{k+2} + ...)
            factors = [t * self.prefix[count] / j for j, count in enumerate(counts, start=1)]
            tails = [1.0] * (len(counts) + 1)
            for j in range(len(counts) - 1, 0, -1):
                tails[j - 1] = 1.0 + factors[j] * tails[j]
            gains, head = [], 1.0
            for k in range(1, len(counts) + 2):
                count = counts[k - 1] if k <= len(counts) else 0
                gains.append(self.weights[count] * head * t / k * tails[k - 1] if count < num_terms else -1.0)
                if k <= len(counts):
                    head *= factors[k - 1]
            best = max(gains)
            k = gains.index(best) + 1 if chosen is None else chosen[step]
            if not 1 <= k <= len(gains) or gains[k - 1] < 0:
                raise ValueError(f"step {step + 1}: order {k} cannot grow")
            taken.append((k, gains[k - 1], best))
            if k > len(counts):
                counts.append(0)
            counts[k - 1] += 1
        return taken

    # dense part
    def prefix_matrices(self, counts) -> dict[int, np.ndarray]:
        """Sums of the ``c`` largest terms for every ``c`` in ``counts``, in one sweep."""
        wanted = sorted(set(counts) - set(self._prefix_cache))
        if wanted:
            dim = 2 ** len(self.terms[0][1])
            total = np.zeros((dim, dim), dtype=complex)
            for index, (coefficient, axes) in enumerate(self.terms[: wanted[-1]], start=1):
                total += coefficient * reduce(np.kron, [PAULI[a] for a in axes])
                if index in wanted:
                    self._prefix_cache[index] = total.copy()
        return {c: self._prefix_cache[c] for c in counts}

    def exact(self) -> np.ndarray:
        if self._exact is None:
            from scipy.linalg import expm

            full = self.prefix_matrices([len(self.terms)])[len(self.terms)]
            self._exact = expm(-1j * self.t * full)
        return self._exact

    def amplified(self, levels) -> np.ndarray:
        levels = [c for c in levels]
        if 0 in levels:
            levels = levels[: levels.index(0)]
        matrices = self.prefix_matrices(levels)
        dim = 2 ** len(self.terms[0][1])
        series = np.eye(dim, dtype=complex)
        product = np.eye(dim, dtype=complex)
        for k, count in enumerate(levels, start=1):
            product = product @ matrices[count] * (-1j * self.t / k)
            series = series + product
        s = self.s(levels)
        return (3.0 / s) * series - (4.0 / s**3) * (series @ series.conj().T @ series)

    def step_errors(self, levels, r_max: int = 1) -> list[float]:
        """||U^r - A^r||_2 for r = 1..r_max."""
        exact, amplified = self.exact(), self.amplified(levels)
        errors, exact_power, amplified_power = [], exact, amplified
        for _ in range(r_max):
            errors.append(float(np.linalg.norm(exact_power - amplified_power, 2)))
            exact_power, amplified_power = exact_power @ exact, amplified_power @ amplified
        return errors


def _prefix_sums(values) -> list[float]:
    """Running sums, each within one rounding of exact (Neumaier's compensated sum)."""
    sums, total, carry = [0.0], 0.0, 0.0
    for value in values:
        new = total + value
        carry += (total - new) + value if abs(total) >= abs(value) else (value - new) + total
        total = new
        sums.append(total + carry)
    return sums


def greedy_levels(ref: Reference, costs) -> dict[int, list[int]]:
    """Truncation vectors of the reference greedy plan at the given costs."""
    steps = ref.greedy(max(costs))
    return {cost: _levels_from_ks(k for k, _, _ in steps[:cost]) for cost in costs}


def _plan_problems(ref: Reference, steps: list[tuple[int, float, float, int]]) -> list[str]:
    """Replay recorded (k, gain, epsilon, cost) steps; report non-greedy or inconsistent ones.

    Reports the first few bad steps only; a wrong plan usually goes wrong everywhere after.
    """
    problems, previous = [], 1.0
    replay = ref.greedy(len(steps), [k for k, _, _, _ in steps])
    for number, ((k, gain, epsilon, cost), (_, ref_gain, best)) in enumerate(zip(steps, replay), start=1):
        if cost != number:
            problems.append(f"step {number}: cost {cost}")
        if ref_gain < best * (1 - GAIN_REL):
            problems.append(f"step {number}: order {k} gains {ref_gain!r}, not the greedy choice (largest gain {best!r})")
        if not _close(gain, ref_gain, rel_tol=GAIN_REL):
            problems.append(f"step {number}: gain {gain!r} differs from recomputed {ref_gain!r}")
        if not abs(previous - gain - epsilon) <= DROP_ABS:
            problems.append(f"step {number}: epsilon drops by {previous - epsilon!r}, gain is {gain!r}")
        previous = epsilon
        if len(problems) >= 5:
            break
    return problems


def _levels_from_ks(ks) -> list[int]:
    levels: list[int] = []
    for k in ks:
        levels.extend([0] * (k - len(levels)))
        levels[k - 1] += 1
    return levels


def _float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _delta_problems(tag: str, delta: float, reference: float, epsilon: float) -> list[str]:
    problems = []
    if not _close(delta, reference, DELTA_ABS, DELTA_REL):
        problems.append(f"{tag}: delta {delta!r} differs from reference {reference!r}")
    if not delta <= epsilon + 2 * epsilon**2:
        problems.append(f"{tag}: delta {delta!r} exceeds eps + 2 eps^2 at eps {epsilon!r}")
    return problems


def _compare_problems(text: str, ref: Reference, n_max: int, levels_at: dict, dense: bool) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if [int(row["n"]) for row in rows] != list(range(1, n_max + 1)):
        return [f"rows {[row['n'] for row in rows]} are not n = 1..{n_max}"]
    num_terms = len(ref.terms)
    if dense:
        errors = {}
        for n in range(1, n_max + 1):
            errors[("full", n)] = ref.step_errors([num_terms] * n)[0]
            errors[("greedy", n)] = ref.step_errors(levels_at[n * num_terms])[0]
    for row in rows:
        n, cost = int(row["n"]), int(row["cost"])
        eps_full, eps_greedy = float(row["eps_full"]), float(row["eps_greedy"])
        if cost != n * num_terms:
            problems.append(f"n={n}: cost {cost} is not {n * num_terms}")
            continue
        if not _close(eps_full, ref.epsilon([num_terms] * n), BOUND_ABS):
            problems.append(f"n={n}: eps_full {eps_full!r} differs from reference")
        if not _close(eps_greedy, ref.epsilon(levels_at[cost]), BOUND_ABS):
            problems.append(f"n={n}: eps_greedy {eps_greedy!r} differs from reference")
        if not eps_greedy <= eps_full:
            problems.append(f"n={n}: greedy bound {eps_greedy!r} above full-order bound {eps_full!r}")
        if eps_greedy > 0 and not _close(float(row["bound_ratio"]), eps_full / eps_greedy):
            problems.append(f"n={n}: bound_ratio is not eps_full / eps_greedy")
        saving = _float(row["cost_saving_in_orders"])
        if saving is not None and not 0.0 <= saving <= n:
            problems.append(f"n={n}: cost_saving_in_orders {saving!r} outside [0, {n}]")
        deltas = (_float(row["delta_full"]), _float(row["delta_greedy"]))
        if not dense:
            if deltas != (None, None):
                problems.append(f"n={n}: bounds-only report carries measured errors")
            continue
        if None in deltas:
            problems.append(f"n={n}: dense report lacks measured errors")
            continue
        problems += _delta_problems(f"n={n} full", deltas[0], errors[("full", n)], eps_full)
        problems += _delta_problems(f"n={n} greedy", deltas[1], errors[("greedy", n)], eps_greedy)
    return problems


def check_plan_large(workload, outputs: dict[str, str], inputs: dict[str, str]) -> dict[str, list[str]]:
    text = inputs["plan_large.txt"]
    ref = Reference(text)
    params = workload.params
    budget, target, n_max = params["budget"], params["target_epsilon"], params["n_max"]
    found: dict[str, list[str]] = {name: [] for name in outputs}

    plan = json.loads(outputs["plan_target"])
    steps = plan["steps"]
    levels = _levels_from_ks(step["k"] for step in steps)
    problems = found["plan_target"]
    problems += _plan_problems(ref, [(s["k"], s["gain"], s["epsilon"], s["cost"]) for s in steps])
    if levels != plan["final_levels"] or steps[-1]["cost"] != len(steps):
        problems.append("final_levels or cost do not replay the recorded steps")
    if not steps[-1]["epsilon"] <= target < (steps[-2]["epsilon"] if len(steps) > 1 else 1.0):
        problems.append(f"plan does not stop at the first step reaching {target}")
    if not _close(steps[-1]["epsilon"], ref.epsilon(levels), BOUND_ABS):
        problems.append(f"final epsilon {steps[-1]['epsilon']!r} differs from recomputed {ref.epsilon(levels)!r}")

    rows = list(csv.DictReader(io.StringIO(outputs["plan_budget"])))
    budget_levels = _levels_from_ks(int(row["k"]) for row in rows)
    problems = found["plan_budget"]
    problems += _plan_problems(ref, [(int(r["k"]), float(r["gain"]), float(r["epsilon"]), int(r["cost"])) for r in rows])
    if len(rows) != budget or int(rows[-1]["cost"]) != budget:
        problems.append(f"plan has {len(rows)} steps, budget is {budget}")
    if not _close(float(rows[-1]["epsilon"]), ref.epsilon(budget_levels), BOUND_ABS):
        problems.append(f"final epsilon {rows[-1]['epsilon']} differs from recomputed {ref.epsilon(budget_levels)!r}")

    bound = json.loads(outputs["bound"])
    problems = found["bound"]
    if bound["levels"] != budget_levels or bound["cost"] != budget or bound["kappa"] != len(budget_levels):
        problems.append("levels, cost or kappa differ from the budget plan")
    if not (_close(bound["lambda_total"], ref.lam) and _close(bound["t_infinity"], ref.t)):
        problems.append("lambda_total or t_infinity differ from reference")
    if not _close(bound["s_at_t_infinity"], ref.s(budget_levels), BOUND_ABS):
        problems.append(f"s_at_t_infinity {bound['s_at_t_infinity']!r} differs from reference")
    if not _close(bound["epsilon"], ref.epsilon(budget_levels), BOUND_ABS):
        problems.append(f"epsilon {bound['epsilon']!r} differs from reference")
    if not abs(ref.s(budget_levels, bound["t_root"]) - 2.0) <= T_ROOT_RESIDUAL:
        problems.append(f"s(t_root) is not 2 at t_root {bound['t_root']!r}")

    resources = json.loads(outputs["resources"])
    widths = [(count - 1).bit_length() for count in budget_levels]
    expected = {
        "kappa": len(budget_levels),
        "c_widths": widths,
        "total_ancillas": len(budget_levels) + sum(widths),
        "t_proxy": budget,
        "prepare_state_sizes": budget_levels,
        "select_ops": budget,
    }
    found["resources"] += [
        f"{key} is {resources.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if resources.get(key) != value
    ]

    costs = [n * len(ref.terms) for n in range(1, n_max + 1)]
    levels_at = greedy_levels(ref, costs)
    found["compare"] += _compare_problems(outputs["compare"], ref, n_max, levels_at, dense=False)
    return found


def check_dense_verify(workload, outputs: dict[str, str], inputs: dict[str, str]) -> dict[str, list[str]]:
    text = inputs["dense_verify.txt"]
    ref = Reference(text)
    params = workload.params
    budget, r_max, n_max = params["budget"], params["r_max"], params["n_max"]
    found: dict[str, list[str]] = {name: [] for name in outputs}

    report = json.loads(outputs["simulate"])
    problems = found["simulate"]
    levels = report["levels"]
    if report["cost"] != budget or sum(levels) != budget:
        problems.append(f"cost {report['cost']} is not the budget {budget}")
    epsilon, delta = report["epsilon"], report["delta"]
    if not _close(epsilon, ref.epsilon(levels), BOUND_ABS):
        problems.append(f"epsilon {epsilon!r} differs from reference")
    reference = ref.step_errors(levels, r_max)
    problems += _delta_problems("simulate", delta, reference[0], epsilon)
    steps = report["r_steps"]
    if [step["r"] for step in steps] != list(range(1, r_max + 1)) or steps[0]["error"] != delta:
        problems.append("r_steps are not r = 1..r_max starting at delta")
    for step, expected in zip(steps, reference):
        r, error = step["r"], step["error"]
        if not _close(error, expected, DELTA_ABS, DELTA_REL):
            problems.append(f"r={r}: error {error!r} differs from reference {expected!r}")
        if not error <= r * delta + 10 * r**2 * delta**2:
            problems.append(f"r={r}: error {error!r} exceeds r delta + 10 r^2 delta^2")

    costs = [n * len(ref.terms) for n in range(1, n_max + 1)]
    levels_at = greedy_levels(ref, costs)
    found["compare_dense"] += _compare_problems(outputs["compare_dense"], ref, n_max, levels_at, dense=True)
    return found


def check_circuit_walk(workload, outputs: dict[str, str], inputs: dict[str, str]) -> dict[str, list[str]]:
    found: dict[str, list[str]] = {}
    for command in workload.commands:
        problems = found[command.name] = []
        ref = Reference(inputs[command.input])
        row = next(csv.DictReader(io.StringIO(outputs[command.name])))
        if [int(v) for v in row["levels"].split(";")] != list(command.levels):
            problems.append(f"levels {row['levels']} are not {command.levels}")
        if not _close(float(row["t"]), ref.t):
            problems.append(f"t {row['t']} is not ln 2 / lambda")
        for key in ("walk_block_residual", "amplified_block_residual"):
            if not float(row[key]) <= RESIDUAL_MAX:
                problems.append(f"{key} {row[key]} exceeds {RESIDUAL_MAX}")
        if not float(row["normalization_error"]) <= NORMALIZATION_MAX:
            problems.append(f"normalization_error {row['normalization_error']} exceeds {NORMALIZATION_MAX}")
    return found


CHECKS = {"plan-large": check_plan_large, "dense-verify": check_dense_verify, "circuit-walk": check_circuit_walk}
