"""Shared helpers for the test suite.

The matrix helpers here are intentionally independent of the package's own
dense constructions so they can serve as oracles.
"""

import json
from decimal import Decimal, Inexact, localcontext
from functools import reduce
from itertools import product

import mpmath
import numpy as np

from lcutrunc.hamiltonian import HamiltonianTerm, PauliString, SortedHamiltonian

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(axes: str) -> np.ndarray:
    return reduce(np.kron, [PAULI_2X2[a] for a in axes])


def matrix_from_raw(coefficients, axes_list) -> np.ndarray:
    """Sum of raw (possibly signed/complex) coefficients times Pauli strings."""
    dim = 2 ** len(axes_list[0])
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, axes in zip(coefficients, axes_list):
        total += coeff * kron_chain(axes)
    return total


def random_axes(rng: np.random.Generator, qubit_count: int, count: int) -> list[str]:
    """Distinct random Pauli strings."""
    seen: set[int] = set()
    out: list[str] = []
    while len(out) < count:
        code = int(rng.integers(4**qubit_count))
        if code in seen:
            continue
        seen.add(code)
        axes = ""
        for _ in range(qubit_count):
            axes += "IXYZ"[code % 4]
            code //= 4
        out.append(axes)
    return out


def random_pauli_hamiltonian(
    rng: np.random.Generator,
    qubit_count: int,
    num_terms: int,
    decades: float = 2.0,
    signed: bool = True,
) -> SortedHamiltonian:
    """Random Hermitian Hamiltonian with log-uniform weight magnitudes."""
    terms = []
    for axes in random_axes(rng, qubit_count, num_terms):
        alpha = float(10.0 ** rng.uniform(-decades, 0.0))
        phase = -1 + 0j if (signed and rng.random() < 0.5) else 1 + 0j
        terms.append(HamiltonianTerm(alpha=alpha, op=PauliString(axes=axes, phase=phase)))
    return SortedHamiltonian.from_terms(terms)


def random_contiguous_levels(
    rng: np.random.Generator, num_terms: int, max_orders: int
) -> tuple[int, ...]:
    """Truncation vector with no empty order before a populated one."""
    orders = int(rng.integers(1, max_orders + 1))
    return tuple(int(rng.integers(1, num_terms + 1)) for _ in range(orders))


def dense_walk_oracle(prepare: np.ndarray, select: np.ndarray, sys_dim: int):
    """(W, R, A) formed in full from the package's prepare and select matrices.

    ``W = (P⊗I)†·S·(P⊗I)`` with an explicit Kronecker product, ``R`` the
    explicit diagonal reflection about the ancilla-zero subspace, and
    ``A = −W·R·W†·R·W``; every product is a dense matrix product.
    """
    prepare_full = np.kron(prepare, np.eye(sys_dim, dtype=complex))
    walk = prepare_full.conj().T @ select @ prepare_full
    signs = -np.ones(walk.shape[0])
    signs[:sys_dim] = 1.0
    reflection = np.diag(signs).astype(complex)
    amplified = -walk @ reflection @ walk.conj().T @ reflection @ walk
    return walk, reflection, amplified


def dense_select_oracle(hamiltonian: SortedHamiltonian, levels) -> np.ndarray:
    """Dense d×d select built from ``kron_chain`` with its own ancilla decoding.

    Ancilla qubits, most significant first: the unary order register
    ``q_1..q_kappa`` (order k sets the first k), then the binary index
    registers ``c_1..c_kappa`` of ``ceil(log2 L_k)`` qubits each; the system
    comes last.  The block of order k with indices l_1..l_k is
    ``(-i h_{l_1})…(-i h_{l_k})``, skipping an index at or past ``L_m``.
    Every other ancilla state, and every register past order k, acts as
    identity.
    """
    levels = tuple(levels)
    kappa = len(levels)
    widths = [(count - 1).bit_length() for count in levels]
    bits_total = kappa + sum(widths)
    sys_dim = 2**hamiltonian.qubit_count
    operators = [-1j * term.op.phase * kron_chain(term.op.axes) for term in hamiltonian.terms]

    select = np.zeros((2**bits_total * sys_dim,) * 2, dtype=complex)
    for ancilla in range(2**bits_total):
        bits = format(ancilla, f"0{bits_total}b")
        order = bits[:kappa].count("1")
        block = np.eye(sys_dim, dtype=complex)
        if bits[:kappa] == "1" * order + "0" * (kappa - order):
            position = kappa
            for m in range(order):
                index = int(bits[position : position + widths[m]] or "0", 2)
                position += widths[m]
                if index < levels[m]:
                    block = block @ operators[index]
        start = ancilla * sys_dim
        select[start : start + sys_dim, start : start + sys_dim] = block
    return select


def prepare_column_oracle(hamiltonian: SortedHamiltonian, levels, t: float) -> np.ndarray:
    """The prepare's first column, as ``np.kron`` of register columns formed here.

    Ancilla qubits in the order of ``dense_select_oracle``.  The order
    register holds ``sqrt(w_k / sum w)`` on the unary state of order k, with
    ``w_k = t^k/k! * Lambda_1 ... Lambda_k`` and ``Lambda_j`` the sum of the
    first ``L_j`` weights; each index register of ``ceil(log2 L_k)`` qubits
    holds ``sqrt(alpha_l / Lambda_k)`` for ``l < L_k``.
    """
    levels = tuple(levels)
    kappa = len(levels)
    alphas = [term.alpha for term in hamiltonian.terms]
    weights = [1.0]
    for k, count in enumerate(levels, start=1):
        weights.append(weights[-1] * t * sum(alphas[:count]) / k)
    order = np.zeros(2**kappa)
    for k, weight in enumerate(weights):
        order[int("1" * k + "0" * (kappa - k), 2)] = np.sqrt(weight / sum(weights))
    columns = [order]
    for count in levels:
        width = (count - 1).bit_length()
        if width:
            column = np.zeros(2**width)
            column[:count] = np.sqrt(np.array(alphas[:count]) / sum(alphas[:count]))
            columns.append(column)
    return reduce(np.kron, columns)


def omitted_mass_oracle(text: str, levels) -> Decimal:
    """The bound ``2 - s(t_inf)`` at the exact ``t_inf = ln 2 / Lambda``, to 50 digits.

    Stdlib ``decimal`` only.  The weights are the coefficient magnitudes of
    the term-list ``text``, taken as exact Decimals of their doubles; the
    strings must be distinct.  The prefix sums are exact (an inexact one
    raises); everything after them is at 50 digits.  The bound is summed as
    ``sum_nu t^nu/nu! * (Lambda^nu - prod_{j<=nu} Lambda_j)``: both products
    are formed factor by factor, so equal factors leave an exact 0, and
    past the first empty order the sum runs until a term falls below 1e-45
    of it.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        ctx.traps[Inexact] = True
        weights = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                weights.append(abs(Decimal(float(line.split()[0].rstrip("ij")))))
        weights.sort(reverse=True)
        prefix = [Decimal(0)]
        for weight in weights:
            prefix.append(prefix[-1] + weight)
        ctx.prec = 50
        ctx.traps[Inexact] = False
        lam = prefix[-1]
        t = Decimal(2).ln() / lam
        live = []
        for count in levels:
            if count == 0:
                break
            live.append(prefix[count])
        total = Decimal(0)
        coefficient = power = product = Decimal(1)
        nu = 0
        while True:
            nu += 1
            coefficient = coefficient * t / nu
            power *= lam
            product = product * live[nu - 1] if nu <= len(live) else Decimal(0)
            term = coefficient * (power - product)
            total += term
            if nu > len(live) and term < total * Decimal("1e-45"):
                return total


def full_order_error_oracle(text: str, order: int, r_max: int) -> list:
    """``||U^r - A^r||`` for r = 1..r_max of the full expansion to ``order``, to 50 digits.

    mpmath only.  Every string of the term-list ``text`` must be the identity
    or act on a single qubit, with a real coefficient.  H is then a shift plus
    commuting single-qubit fields ``b_q . sigma``, so its eigenvalues are
    ``shift + sum_q +-|b_q|`` in closed form.  The full expansion's series is
    a function of H, so ``U``, the series ``S`` and the amplified step ``A``
    are scalars per eigenvalue, taken from their definitions at
    ``t = ln 2 / Lambda``: ``U = exp(-i t lambda)``,
    ``S = sum_{k<=order} (-i t lambda)^k / k!`` and
    ``A = (3/s) S - (4/s^3) S conj(S) S`` with ``s = sum_{k<=order} ln(2)^k / k!``.
    The weights are the exact values of the doubles in ``text``.
    """
    with mpmath.workdps(50):
        shift, fields, lam = mpmath.mpf(0), {}, mpmath.mpf(0)
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            token, axes = line.split()
            coefficient = mpmath.mpf(float(token))
            lam += abs(coefficient)
            acted = [q for q, axis in enumerate(axes) if axis != "I"]
            if not acted:
                shift += coefficient
            elif len(acted) == 1:
                fields[acted[0]] = fields.get(acted[0], 0) + coefficient**2
            else:
                raise ValueError(f"{axes} acts on more than one qubit")
        t = mpmath.log(2) / lam
        s = mpmath.fsum(mpmath.log(2) ** k / mpmath.factorial(k) for k in range(order + 1))
        errors = [mpmath.mpf(0)] * r_max
        for signs in product((1, -1), repeat=len(fields)):
            eigenvalue = shift + mpmath.fsum(sign * mpmath.sqrt(b2) for sign, b2 in zip(signs, fields.values()))
            x = -1j * t * eigenvalue
            exact = mpmath.exp(x)
            series = mpmath.fsum(x**k / mpmath.factorial(k) for k in range(order + 1))
            amplified = (3 / s) * series - (4 / s**3) * series * mpmath.conj(series) * series
            for r in range(1, r_max + 1):
                errors[r - 1] = max(errors[r - 1], abs(exact**r - amplified**r))
        return errors


def plan_json_oracle(trace) -> str:
    """A plan trace as the stdlib encoder writes it: ``json.dumps(payload, indent=2)`` and a newline."""
    payload = {
        "hamiltonian": trace.hamiltonian_id,
        "t": trace.t,
        "steps": [
            {"k": s.chosen_k, "gain": s.gain, "epsilon": s.epsilon_after, "cost": s.cost_after}
            for s in trace.steps
        ],
        "final_levels": list(trace.final.levels),
    }
    return json.dumps(payload, indent=2) + "\n"


def insertion_gain_oracle(hamiltonian: SortedHamiltonian, levels, k: int, t: float) -> float:
    """The insertion gain as a list of order weights and a left-to-right sum of its slice from order ``k`` on.

    ``w_j = w_{j-1} * (t * Lambda_j / j)`` from ``w_0 = 1.0`` up to the first
    empty order, with ``Lambda_k`` counted as 1 and the prefix sums taken
    left to right from 0.0, the same float operations as the package's in
    the same order, so the result must agree bit for bit.
    """
    alphas = [term.alpha for term in hamiltonian.terms]
    prefix = [0.0]
    for alpha in alphas:
        prefix.append(prefix[-1] + alpha)
    counts = list(levels) + [0] * max(0, k - len(levels))
    weights = [1.0]
    for j in range(1, len(counts) + 1):
        lam = 1.0 if j == k else prefix[counts[j - 1]]
        if lam == 0.0:
            break
        weights.append(weights[-1] * (t * lam / j))
    total = 0.0
    for weight in weights[k:]:
        total += weight
    return alphas[counts[k - 1]] * total
