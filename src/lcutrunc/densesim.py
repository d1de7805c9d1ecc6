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
The exact evolution is a scaled and squared Taylor polynomial (Moler & Van
Loan, SIAM Rev. 45, 3 (2003)), six matrix products at ``t_inf``, and operator
norms come from the top eigenvalue of the scaled ``M^dag M``, so no
eigenvectors and no singular values are computed.

A *full-order* vector keeps every term in each live order (each order
before the first empty one).  Its series is a function of H, so the
measured errors of such a vector are read off the eigenvalues of H alone:
``U^r - A^r`` is diagonal in H's eigenbasis, and each eigenvalue's entry is
formed from the Taylor remainder without cancellation, so they are exact to
double precision, given the eigenvalues, down to the smallest errors.
Every other vector is measured through the dense series, the amplification
product and ``operator_norm``: ``U`` is ``exact_evolution``'s, and ``U^r``
and ``A^r`` are repeated products of ``U`` and ``A``, so the errors have an
absolute error of about 1e-15.

This module holds the one dense-size policy of the package: every dense
construction, here and in ``circuitmodel``, raises ``CapExceeded`` before it
allocates a space of more qubits than ``qubit_cap()`` (default 12, env
override ``LCUTRUNC_QUBIT_CAP``), which keeps dense norms tractable at desk
scale.  The circuit model's space counts its ancillas and the system qubits.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CapExceeded
from .hamiltonian import PauliString, SortedHamiltonian
from .planner import (
    TruncationVector,
    _csv_text,
    _field_values,
    as_levels,
    checked_levels,
    epsilon_bound,
    s_value,
    t_infinity,
)


class _Numpy:
    """A module's ``np`` until its first attribute read imports numpy and rebinds ``np`` to it."""

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy
        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _Numpy(globals())

DEFAULT_QUBIT_CAP = 12
QUBIT_CAP_ENV = "LCUTRUNC_QUBIT_CAP"
# bytes of physical memory, or the largest index where the system does not say (Windows has no os.sysconf)
_PHYSICAL_MEMORY = (
    os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()) else sys.maxsize
)

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)
# 1/k! for k = 0..16, the coefficients of exp's Taylor polynomial of degree 16
_TAYLOR = tuple(1 / math.factorial(k) for k in range(17))
# exact_evolution squares at most this often: each squaring doubles the rounding error
_MAX_SQUARINGS = 20


def qubit_cap() -> int:
    """Configured dense-construction cap (env override, else 12)."""
    raw = os.environ.get(QUBIT_CAP_ENV)
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{QUBIT_CAP_ENV} must be an integer, got {raw!r}") from None


def _check_qubits(qubit_count: int) -> None:
    """Raise ``CapExceeded`` if a dense space of ``qubit_count`` qubits is over the cap."""
    limit = qubit_cap()
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


@lru_cache(maxsize=None)
def _columns_and_signs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices ``c`` and ``(-1)**popcount(c)`` for ``c < dim``, read-only."""
    columns = np.arange(dim)
    # the low bit of the xor of all shifts of c is popcount(c) mod 2
    parity = np.zeros(dim, dtype=columns.dtype)
    for shift in range(dim.bit_length() - 1):
        parity ^= columns >> shift
    signs = 1.0 - 2.0 * (parity & 1)
    columns.flags.writeable = signs.flags.writeable = False
    return columns, signs


def _add_paulis(matrix: np.ndarray, weighted: Iterable[tuple[float, PauliString]]) -> None:
    """Add ``weight * P`` to ``matrix`` in place for each pair, in the given order."""
    columns, signs = _columns_and_signs(matrix.shape[0])
    for weight, op in weighted:
        x, z, unit = _symplectic(op)
        matrix[columns ^ x, columns] += (weight * unit) * signs[columns & z]


def pauli_string_matrix(op: PauliString) -> np.ndarray:
    """Dense matrix of a phased Pauli string from its symplectic form."""
    dim = 2 ** len(op)
    matrix = np.zeros((dim, dim), dtype=complex)
    _add_paulis(matrix, [(1.0, op)])
    return matrix


def hamiltonian_matrix(hamiltonian: SortedHamiltonian) -> np.ndarray:
    """The sum of every term as a dense matrix."""
    _check_qubits(hamiltonian.qubit_count)
    dim = 2**hamiltonian.qubit_count
    total = np.zeros((dim, dim), dtype=complex)
    _add_paulis(total, ((term.alpha, term.op) for term in hamiltonian.terms))
    return total


def _check_hermitian(hamiltonian: SortedHamiltonian) -> None:
    """Raise unless H is Hermitian, before any matrix is built.

    Pauli strings are Hermitian and linearly independent, so a sum of distinct
    strings is Hermitian exactly when no term carries a folded phase of +-i.
    """
    if any(term.op.phase.imag for term in hamiltonian.terms):
        raise ValueError("Hamiltonian matrix is not Hermitian")


def exact_evolution(hamiltonian: SortedHamiltonian, t: float, *, matrix: np.ndarray | None = None) -> np.ndarray:
    """exp(-i H t) by a scaled Taylor series; raises for a ``t`` out of range or a non-Hermitian H.

    With ``x = (-i t / 2**s) H``, where ``s`` is the least integer >= 0 with
    ``|t| / 2**s <= t_inf = ln 2 / Lambda``, ``||x|| <= ln 2`` and the Taylor
    terms of ``exp(x)`` past order 16 sum to less than 6e-18.  The degree-16
    polynomial is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60
    (1973)) in six products: ``x^2``, ``x^3`` and ``x^4``, then three Horner
    steps in ``x^4``, holding only ``x`` to ``x^4``, the running sum and one
    product.  The result is squared ``s`` times; ``s = 0`` at ``t_inf``.
    Each squaring doubles the rounding error, so an entry's error grows about
    as ``2**(s - 52)``, as does the effect of rounding ``t H`` itself.  A ``t``
    past ``2**20 t_inf`` would take more than ``_MAX_SQUARINGS`` = 20
    squarings, and an error past ``2**-32`` (about 2.3e-10), so it is rejected.

    ``matrix``, if given, is ``hamiltonian_matrix(hamiltonian)``, already built.
    """
    limit = t_infinity(hamiltonian)
    ratio = abs(t) / limit  # a quotient, not 2**20 t_inf, which overflows for the smallest Lambda
    if not ratio <= 2.0**_MAX_SQUARINGS:
        raise ValueError(f"t must be finite and within 2**{_MAX_SQUARINGS} t_inf, t_inf = {limit!r}, got {t}")
    if matrix is None:
        _check_hermitian(hamiltonian)
        matrix = hamiltonian_matrix(hamiltonian)
    squarings = 0
    while math.ldexp(ratio, -squarings) > 1.0:
        squarings += 1
    dim = matrix.shape[0]
    x = (-1j * math.ldexp(t, -squarings)) * matrix
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    total, product = _TAYLOR[16] * x4, np.empty_like(x)
    for block in (12, 8, 4, 0):
        if block < 12:
            np.matmul(x4, total, out=product)
            total, product = product, total
        # add the block's terms c_b I + c_(b+1) x + c_(b+2) x^2 + c_(b+3) x^3, through the spare buffer
        for power, coefficient in zip((x, x2, x3), _TAYLOR[block + 1 : block + 4]):
            np.multiply(power, coefficient, out=product)
            total += product
        total.flat[:: dim + 1] += _TAYLOR[block]
    for _ in range(squarings):
        np.matmul(total, total, out=product)
        total, product = product, total
    return total


def _live(vec: TruncationVector) -> tuple[int, ...]:
    """The counts of ``vec`` before its first empty order."""
    return vec.levels[: vec.levels.index(0)] if 0 in vec.levels else vec.levels


def truncated_series_operator(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
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
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_qubits(hamiltonian.qubit_count)
    counts = _live(checked_levels(hamiltonian, levels))
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
) -> np.ndarray:
    """Operator effectively applied after one oblivious amplification step."""
    vec = as_levels(levels)
    truncated = truncated_series_operator(hamiltonian, vec, t)
    s = s_value(hamiltonian, vec, t)
    return amplification_polynomial(truncated, s)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value: ``c sqrt(lambda_max(Y^dag Y))`` for ``Y = M / c``, ``c = max |M_ij|``.

    Scaling by ``c`` keeps ``Y^dag Y`` clear of underflow and overflow; a zero
    matrix has norm 0.0.
    """
    matrix = np.asarray(matrix)
    scale = float(np.max(np.abs(matrix)))
    if not math.isfinite(scale):
        raise ValueError("operator norm requires finite entries")
    if scale == 0.0:
        return 0.0
    scaled = matrix / scale
    return scale * math.sqrt(np.linalg.eigvalsh(scaled.conj().T @ scaled)[-1])


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
        steps = [{"r": r, "error": err} for r, err in self.r_steps]
        return json.dumps(_field_values(self) | {"levels": list(self.levels), "r_steps": steps}, indent=2) + "\n"

    def to_csv(self) -> str:
        """The other fields, then ``r`` and its error: a line per r step, or one for r = 1 if ``r_steps`` is empty."""
        values = _field_values(self)
        del values["r_steps"]
        steps = self.r_steps or ((1, self.delta),)
        return _csv_text([*values, "r", "r_step_error"], ([*values.values(), *step] for step in steps))


class _StepErrors:
    """Measured errors ``||U^r - A^r||`` of truncation vectors of one Hamiltonian.

    ``U = exp(-iH t_inf)`` and ``A`` is the amplified step.  The spectral
    work is done at most once and shared by every vector measured: the
    eigenvalues for full-order vectors, ``exact_evolution`` for the others,
    both from one dense H built on first use.
    """

    def __init__(self, hamiltonian: SortedHamiltonian):
        self.hamiltonian = hamiltonian
        self.t = t_infinity(hamiltonian)
        self._matrix: np.ndarray | None = None
        self._eigenvalues: np.ndarray | None = None
        self._exact: np.ndarray | None = None

    def _hamiltonian_matrix(self) -> np.ndarray:
        if self._matrix is None:
            _check_hermitian(self.hamiltonian)
            self._matrix = hamiltonian_matrix(self.hamiltonian)
        return self._matrix

    def measure(self, levels: "TruncationVector | Sequence[int]", r_max: int = 1) -> list[float]:
        """``[||U^r - A^r|| for r = 1..r_max]``; off full order, ``U^r`` and ``A^r`` are repeated products."""
        vec = checked_levels(self.hamiltonian, levels)
        live = _live(vec)
        if all(count == self.hamiltonian.num_terms for count in live):
            return self._full_order(len(live), epsilon_bound(self.hamiltonian, vec), r_max)
        if self._exact is None:
            self._exact = exact_evolution(self.hamiltonian, self.t, matrix=self._hamiltonian_matrix())
        amplified = amplified_operator(self.hamiltonian, vec, self.t)
        exact_power, amplified_power = self._exact, amplified
        errors = [operator_norm(exact_power - amplified_power)]
        for _ in range(1, r_max):
            exact_power = exact_power @ self._exact
            amplified_power = amplified_power @ amplified
            errors.append(operator_norm(exact_power - amplified_power))
        return errors

    def _full_order(self, order: int, epsilon: float, r_max: int) -> list[float]:
        """The errors of the full expansion to ``order``, from the eigenvalues of H.

        Per eigenvalue, with ``x = -i t lambda``, the series is ``S = U (1 - y)``
        for the scaled Taylor remainder ``y = conj(U) sum_{k>order} x^k/k!``.
        With ``s = 2 - epsilon`` the amplified step is ``A = U (1 - f)`` where
        ``f = c0 + c1 y - c2 conj(y) + c2 (2|y|^2 + y^2 - y|y|^2)``,
        ``c0 = epsilon^2 (s+1)/s^3``, ``c1 = (3s^2 - 8)/s^3`` and ``c2 = 4/s^3``.
        So ``U^r - A^r = U^r g_r`` with ``g_r = f + g_{r-1} (1 - f)``, and the
        error is ``max |g_r|``.  The remainder is summed directly (|x| <= ln 2,
        so each term is at most ln(2)/(order + 2) of the one before), and
        ``f``'s linear part is formed from ``c1 - c2`` and ``c1 + c2`` written
        out, so nothing cancels.
        """
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self._hamiltonian_matrix())
        x = -1j * self.t * self._eigenvalues
        # past 20 terms the remainder's tail is below 2.1 ln(2)^20 / 20! ~ 6e-22 of it
        term, remainder = np.ones_like(x), np.zeros_like(x)
        for k in range(1, order + 22):
            term = term * x / k
            if k > order:
                remainder = remainder + term
        y = np.exp(-x) * remainder
        s = 2.0 - epsilon
        cube = s**3
        size = y.real**2 + y.imag**2
        f = (
            epsilon**2 * (s + 1.0) / cube
            - 3.0 * epsilon * (s + 2.0) / cube * y.real  # (c1 - c2) Re y
            + 1j * (3.0 * s**2 - 4.0) / cube * y.imag  # (c1 + c2) i Im y
            + 4.0 / cube * (2.0 * size + y * y - y * size)
        )
        g, errors = f, []
        for r in range(1, r_max + 1):
            if r > 1:
                g = f + g * (1.0 - f)
            errors.append(float(np.max(np.abs(g))))
        return errors


def single_step_error(
    hamiltonian: SortedHamiltonian, levels: "TruncationVector | Sequence[int]"
) -> ErrorReport:
    """Measured ||U(t_inf) - amplified(t_inf)|| alongside the analytic bound.

    The ``r_max = 1`` case of ``multi_step_error``, reported with empty ``r_steps``.
    """
    return replace(multi_step_error(hamiltonian, levels, 1), r_steps=())


def multi_step_error(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    r_max: int,
) -> ErrorReport:
    """Measured ||U^r - amplified^r|| for r = 1..r_max.

    Full-order vectors are measured from the eigenvalues of H; other vectors
    take ``U^r`` and ``amplified^r`` as repeated products of
    :func:`exact_evolution` and the amplified step.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    if r_max * 32 > _PHYSICAL_MEMORY:  # one error per step: a float and its list slot at least
        raise MemoryError(f"{r_max} steps")
    vec = as_levels(levels)
    errors = _StepErrors(hamiltonian).measure(vec, r_max)
    return ErrorReport(vec, vec.cost, epsilon_bound(hamiltonian, vec), errors[0], tuple(enumerate(errors, start=1)))
