"""Exact dense-matrix verification of the truncated evolution on small systems.

Operators are plain complex ``numpy.ndarray`` matrices of dimension
``2**qubit_count``.  Everything here is deliberately dense: the module's
purpose is exact measurement of the true per-step and multi-step errors of
the amplified truncated operator against the exact evolution, so no
statevector or sparse shortcuts are taken.

Pauli strings are built from their symplectic form (Aaronson & Gottesman,
quant-ph/0406196): bit masks ``x`` (X or Y) and ``z`` (Z or Y) with the
first axis as the most significant bit, matching ``np.kron`` order.  Since
``Y = i X Z``, a string has one nonzero entry per column ``c``::

    P[c ^ x, c] = phase * i**n_Y * (-1)**popcount(c & z)

Each entry is a weight times +-1 or +-i, so the matrices are bit-for-bit
those of the Kronecker-product construction, at O(2**n) cost per term.
Operator norms are the largest singular value of a full SVD at every size,
exact to double precision.

Constructions are capped at a configurable qubit count (default 12, env
override ``LCUTRUNC_QUBIT_CAP``) to keep dense norms tractable at desk scale.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded
from .hamiltonian import PauliString, SortedHamiltonian
from .planner import (
    TruncationVector,
    as_levels,
    epsilon_bound,
    s_value,
    t_infinity,
)

DEFAULT_QUBIT_CAP = 12
QUBIT_CAP_ENV = "LCUTRUNC_QUBIT_CAP"

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def qubit_cap() -> int:
    """Configured dense-construction cap (env override, else 12)."""
    raw = os.environ.get(QUBIT_CAP_ENV)
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{QUBIT_CAP_ENV} must be an integer, got {raw!r}") from None


def _check_cap(qubit_count: int, cap: int | None) -> None:
    limit = qubit_cap() if cap is None else cap
    if qubit_count > limit:
        raise CapExceeded(f"{qubit_count} qubits exceeds the dense cap of {limit}")


def _symplectic(op: PauliString) -> tuple[int, int, complex]:
    """``(x_mask, z_mask, phase * i**n_Y)``, the first axis being the top bit."""
    x = z = n_y = 0
    for axis in op.axes:
        x = (x << 1) | (axis in "XY")
        z = (z << 1) | (axis in "YZ")
        n_y += axis == "Y"
    return x, z, op.phase * _I_POWERS[n_y % 4]


def _add_paulis(matrix: np.ndarray, weighted: Iterable[tuple[float, PauliString]]) -> None:
    """Add ``weight * P`` to ``matrix`` in place for each pair, in the given order."""
    dim = matrix.shape[0]
    columns = np.arange(dim)
    # the low bit of the xor of all shifts of c is popcount(c) mod 2
    parity = np.zeros(dim, dtype=columns.dtype)
    for shift in range(dim.bit_length() - 1):
        parity ^= columns >> shift
    signs = 1.0 - 2.0 * (parity & 1)
    for weight, op in weighted:
        x, z, unit = _symplectic(op)
        matrix[columns ^ x, columns] += (weight * unit) * signs[columns & z]


def pauli_string_matrix(op: PauliString) -> np.ndarray:
    """Dense matrix of a phased Pauli string from its symplectic form."""
    dim = 2 ** len(op)
    matrix = np.zeros((dim, dim), dtype=complex)
    _add_paulis(matrix, [(1.0, op)])
    return matrix


def hamiltonian_matrix(
    hamiltonian: SortedHamiltonian, m: int | None = None, cap: int | None = None
) -> np.ndarray:
    """Sum of the ``m`` largest terms as a dense matrix (all terms if omitted)."""
    _check_cap(hamiltonian.qubit_count, cap)
    if m is None:
        m = hamiltonian.num_terms
    if not 0 <= m <= hamiltonian.num_terms:
        raise ValueError(f"prefix length {m} out of range 0..{hamiltonian.num_terms}")
    dim = 2**hamiltonian.qubit_count
    total = np.zeros((dim, dim), dtype=complex)
    _add_paulis(total, ((term.alpha, term.op) for term in hamiltonian.terms[:m]))
    return total


def _spectrum(hamiltonian: SortedHamiltonian, cap: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the full Hamiltonian matrix.

    Raises if the assembled matrix is not Hermitian (possible when folded
    phases of +-i make individual terms anti-Hermitian).
    """
    matrix = hamiltonian_matrix(hamiltonian, cap=cap)
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.conj().T).max() > 1e-12 * scale:
        raise ValueError("Hamiltonian matrix is not Hermitian; cannot exponentiate by eigendecomposition")
    return np.linalg.eigh(matrix)


def _unitary(eigenvectors: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """V diag(phases) V^dag."""
    return (eigenvectors * phases) @ eigenvectors.conj().T


def exact_evolution(
    hamiltonian: SortedHamiltonian, t: float, cap: int | None = None
) -> np.ndarray:
    """exp(-i H t) by Hermitian eigendecomposition; raises if H is not Hermitian."""
    eigenvalues, eigenvectors = _spectrum(hamiltonian, cap)
    return _unitary(eigenvectors, np.exp(-1j * t * eigenvalues))


def truncated_series_operator(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
    cap: int | None = None,
) -> np.ndarray:
    """The per-order truncated Taylor sum as a dense matrix.

    Order ``k`` contributes ``(-it)^k / k!`` times the ordered product of
    the per-order prefix Hamiltonians ``H_1 H_2 ... H_k``; an empty order
    terminates the series.  The sum is taken by Horner's rule from the top
    order down, ``S_k = I + (-it/k) H_k S_{k+1}``.  Each prefix Hamiltonian
    extends the previous one in place, so for nonincreasing levels, the
    usual shape of greedy plans, the terms are visited once; an order with
    fewer terms than the order after it restarts the build.
    """
    _check_cap(hamiltonian.qubit_count, cap)
    vec = as_levels(levels)
    counts = vec.levels[: vec.levels.index(0)] if 0 in vec.levels else vec.levels
    if counts and max(counts) > hamiltonian.num_terms:
        raise ValueError(f"prefix length {max(counts)} out of range 0..{hamiltonian.num_terms}")
    dim = 2**hamiltonian.qubit_count
    prefix = np.zeros((dim, dim), dtype=complex)
    built = 0
    series = np.eye(dim, dtype=complex)
    for k in range(len(counts), 0, -1):
        count = counts[k - 1]
        if count < built:
            prefix[:] = 0.0
            built = 0
        _add_paulis(prefix, ((term.alpha, term.op) for term in hamiltonian.terms[built:count]))
        built = count
        series = (-1j * t / k) * (prefix if k == len(counts) else prefix @ series)
        series.flat[:: dim + 1] += 1.0
    return series


def amplification_polynomial(operator: np.ndarray, s: float) -> np.ndarray:
    """(3/s) M - (4/s^3) M M^dag M; equals M exactly for unitary M at s = 2."""
    return (3.0 / s) * operator - (4.0 / s**3) * (operator @ operator.conj().T @ operator)


def amplified_operator(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
    cap: int | None = None,
) -> np.ndarray:
    """Operator effectively applied after one oblivious amplification step."""
    vec = as_levels(levels)
    truncated = truncated_series_operator(hamiltonian, vec, t, cap=cap)
    s = s_value(hamiltonian, vec, t)
    return amplification_polynomial(truncated, s)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value, from a full SVD at every size."""
    matrix = np.asarray(matrix)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("operator norm requires finite entries")
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


@dataclass(frozen=True)
class ErrorReport:
    """Measured operator-norm errors of the amplified step against exp(-iHt).

    ``delta`` is the single-step error; ``r_steps`` holds ``(r, error)``
    pairs for repeated applications.
    """

    levels: TruncationVector
    cost: int
    epsilon: float
    delta: float
    r_steps: tuple[tuple[int, float], ...] = ()

    def to_json(self) -> str:
        payload = {
            "levels": list(self.levels.levels),
            "cost": self.cost,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "r_steps": [{"r": r, "error": err} for r, err in self.r_steps],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        header = "levels,cost,epsilon,delta,r,r_step_error"
        tag = ";".join(str(v) for v in self.levels.levels)
        rows = self.r_steps if self.r_steps else ((1, self.delta),)
        lines = [header]
        for r, err in rows:
            lines.append(f"{tag},{self.cost},{self.epsilon!r},{self.delta!r},{r},{err!r}")
        return "\n".join(lines) + "\n"


def _step_error(
    hamiltonian: SortedHamiltonian, vec: TruncationVector, exact: np.ndarray, cap: int | None
) -> float:
    """||exact - amplified(t_inf)|| for one truncation vector, given exp(-iH t_inf)."""
    amplified = amplified_operator(hamiltonian, vec, t_infinity(hamiltonian), cap=cap)
    return operator_norm(exact - amplified)


def single_step_error(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    cap: int | None = None,
) -> ErrorReport:
    """Measured ||U(t_inf) - amplified(t_inf)|| alongside the analytic bound."""
    vec = as_levels(levels)
    exact = exact_evolution(hamiltonian, t_infinity(hamiltonian), cap=cap)
    return ErrorReport(
        levels=vec,
        cost=vec.cost,
        epsilon=epsilon_bound(hamiltonian, vec),
        delta=_step_error(hamiltonian, vec, exact, cap),
    )


def multi_step_error(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    r_max: int,
    cap: int | None = None,
) -> ErrorReport:
    """Measured ||U^r - amplified^r|| for r = 1..r_max.

    ``U^r`` comes from the r-th powers of the eigenphases of one
    eigendecomposition; ``amplified^r`` from repeated multiplication.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    vec = as_levels(levels)
    t = t_infinity(hamiltonian)
    eigenvalues, eigenvectors = _spectrum(hamiltonian, cap)
    step_phases = np.exp(-1j * t * eigenvalues)
    amplified = amplified_operator(hamiltonian, vec, t, cap=cap)
    phases, amplified_power = step_phases, amplified
    r_steps = []
    for r in range(1, r_max + 1):
        if r > 1:
            phases = phases * step_phases
            amplified_power = amplified_power @ amplified
        r_steps.append((r, operator_norm(_unitary(eigenvectors, phases) - amplified_power)))
    return ErrorReport(
        levels=vec,
        cost=vec.cost,
        epsilon=epsilon_bound(hamiltonian, vec),
        delta=r_steps[0][1],
        r_steps=tuple(r_steps),
    )
