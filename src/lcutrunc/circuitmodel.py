"""Operator-level model of the prepare/select/amplify circuit on tiny instances.

The ancilla is split into an order register ``q`` (one qubit per populated
Taylor order, unary-coded) and per-order index registers ``c_k`` (binary,
``ceil(log2 L_k)`` qubits).  The registers are modeled as integer-indexed
tensor factors ordered ``q, c_1, ..., c_kappa, system``, so the block of an
operator between ancilla-zero states is simply its top-left system-sized
submatrix.  The select is block diagonal over ancilla basis states and is
kept as its stack of system-sized diagonal blocks, never as a full matrix.
The identity checks read the prepare only through its first column ``p``,
which they build directly as the Kronecker product of the register columns,
without the unitary: the prepare, the reflection about ancilla zero and the
prepare's adjoint together act as ``2(p p†)⊗I − I``.

This module verifies operator semantics, not gate decompositions: the
prepare unitary is any orthonormal completion of its specified first column,
and resource counts are closed-form estimates.

Dense sizes follow the one qubit cap of ``densesim``: prepare counts the
ancilla qubits, select and the walk the ancilla and system qubits together.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .hamiltonian import SortedHamiltonian
from .planner import (
    TruncationVector,
    _csv_text,
    _field_values,
    as_levels,
    checked_levels,
    order_weights,
    s_value,
    t_infinity,
)
from .densesim import (
    _check_qubits,
    _Numpy,
    amplification_polynomial,
    operator_norm,
    pauli_string_matrix,
    truncated_series_operator,
)

np = _Numpy(globals())


@dataclass(frozen=True)
class AncillaLayout:
    """Widths of the ancilla registers for one truncation vector."""

    kappa: int
    c_widths: tuple[int, ...]
    total_ancillas: int
    reflection_ancillas: int

    @property
    def ancilla_dim(self) -> int:
        return 2**self.total_ancillas


@dataclass(frozen=True)
class ResourceEstimate:
    """Closed-form gate-count proxies for one amplified application."""

    layout: AncillaLayout
    t_proxy: int
    prepare_rotations: int
    prepare_state_sizes: tuple[int, ...]
    select_ops: int

    def to_json(self) -> str:
        """The layout's fields, then the estimate's own."""
        payload = _field_values(self.layout) | _field_values(self)
        del payload["layout"]
        return json.dumps(payload, indent=2) + "\n"


def _contiguous_levels(levels: "TruncationVector | Sequence[int]") -> TruncationVector:
    vec = as_levels(levels)
    if vec.kappa == 0:
        raise ValueError("empty truncation vector has no circuit realization")
    if not vec.is_contiguous():
        raise ValueError(
            f"orders with zero retained terms inside {tuple(vec.levels)} are not "
            "representable; truncate at the first empty order instead"
        )
    return vec


def layout_for(levels: "TruncationVector | Sequence[int]") -> AncillaLayout:
    """Register widths for a contiguous truncation vector."""
    vec = _contiguous_levels(levels)
    c_widths = tuple((count - 1).bit_length() for count in vec.levels)
    total = vec.kappa + sum(c_widths)
    return AncillaLayout(
        kappa=vec.kappa,
        c_widths=c_widths,
        total_ancillas=total,
        # multi-controlled reflection needs (controls - 1) work qubits; the
        # closed form goes negative for single-qubit ancillas, hence the clamp
        reflection_ancillas=max(0, total - 2),
    )


def estimate_resources(levels: "TruncationVector | Sequence[int]") -> ResourceEstimate:
    """Fill all resource-count fields from closed-form expressions."""
    vec = _contiguous_levels(levels)
    layout = layout_for(vec)
    return ResourceEstimate(
        layout=layout,
        t_proxy=vec.cost,
        prepare_rotations=layout.kappa - 1,
        prepare_state_sizes=tuple(vec.levels),
        select_ops=vec.cost,
    )


def _unitary_with_first_column(column: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary whose first column it is."""
    dim = column.shape[0]
    seed = np.eye(dim, dtype=complex)
    seed[:, 0] = column
    q, r = np.linalg.qr(seed)
    q[:, 0] *= r[0, 0]
    return q


def _unary_index(k: int, kappa: int) -> int:
    """Basis index of the unary state with the first k of kappa qubits set."""
    return sum(2 ** (kappa - m) for m in range(1, k + 1))


def _register_columns(hamiltonian: SortedHamiltonian, vec: TruncationVector, t: float) -> list[np.ndarray]:
    """The first column of each register's prepare factor, in register order.

    The order register's column holds ``sqrt(w_k / N)`` on the unary states,
    with ``N`` the sum of the order weights; each index register with qubits
    holds ``sqrt(alpha_l / Lambda_k)`` for its ``L_k`` retained terms.
    """
    layout = layout_for(vec)
    # the order register's normalization, which must coincide with s(t)
    weights = order_weights(hamiltonian, vec, t)
    normalization = float(np.sum(weights))
    q_column = np.zeros(2**layout.kappa)
    for k, weight in enumerate(weights):
        q_column[_unary_index(k, layout.kappa)] = math.sqrt(weight / normalization)
    columns = [q_column]

    for count, width in zip(vec.levels, layout.c_widths):
        if width == 0:
            continue
        lam = hamiltonian.prefix_lambda(count)
        column = np.zeros(2**width)
        column[:count] = [math.sqrt(term.alpha / lam) for term in hamiltonian.terms[:count]]
        columns.append(column)
    return columns


def _prepare_column(hamiltonian: SortedHamiltonian, vec: TruncationVector, t: float) -> np.ndarray:
    """``p = P[:, 0]``, the Kronecker product of the register columns, formed without ``P``."""
    return functools.reduce(np.multiply.outer, _register_columns(hamiltonian, vec, t)).ravel()


def build_prepare(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
) -> np.ndarray:
    """Dense prepare unitary on the ancilla space.

    Acts independently on each register: the order register receives the
    square-rooted order weights on unary states, each index register the
    square-rooted term weights.  Only the action on the all-zeros state is
    specified; the rest of each factor is an orthonormal completion.
    """
    vec = _contiguous_levels(levels)
    _check_qubits(layout_for(vec).total_ancillas)
    factors = [_unitary_with_first_column(column) for column in _register_columns(hamiltonian, vec, t)]
    return functools.reduce(np.kron, factors)


def build_select(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
) -> np.ndarray:
    """Select unitary on ancilla (x) system, as its stacked diagonal blocks.

    For order k (unary) and indices l_1..l_k the block applies
    (-i h_{l_1}) ... (-i h_{l_k}) to the system, leaving registers beyond
    order k inert.  Ancilla states outside the coded range act as identity,
    which keeps the operator unitary without affecting the verified block.
    Rows ``a * 2^n`` to ``(a + 1) * 2^n`` of the ``(d, 2^n)`` result hold the
    block of ancilla state ``a``, for total dimension d and n system qubits.
    The products of order k are one batched product over the index registers
    ``c_1..c_k``, from those of order k - 1 and the factor stack of register
    ``c_k``: ``-i h_l`` for ``l < L_k`` and the identity past it.
    """
    vec = _contiguous_levels(checked_levels(hamiltonian, levels))
    layout = layout_for(vec)
    _check_qubits(layout.total_ancillas + hamiltonian.qubit_count)
    sys_dim = 2**hamiltonian.qubit_count

    # stack[0] is the identity and stack[l + 1] is -i h_l; no register indexes past max(L_k)
    used = hamiltonian.terms[: max(vec.levels)]
    stack = np.array([np.eye(sys_dim)] + [-1j * pauli_string_matrix(term.op) for term in used])
    c_dims = tuple(2**width for width in layout.c_widths)
    blocks = np.broadcast_to(stack[0], (2**layout.kappa, *c_dims, sys_dim, sys_dim)).copy()
    products = stack[0]
    for k, (count, dim) in enumerate(zip(vec.levels, c_dims), start=1):
        index = np.arange(dim)
        products = np.matmul(products[..., None, :, :], stack[np.where(index < count, index + 1, 0)])
        # registers past order k are inert: broadcast over their axes
        blocks[_unary_index(k, layout.kappa)] = np.expand_dims(products, tuple(range(k, layout.kappa)))
    return blocks.reshape(-1, sys_dim)


def _reflect(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``M @ z`` for ``M = (P⊗I)·R·(P†⊗I) = 2(p p†)⊗I − I``, with ``p = P[:, 0]``."""
    return 2.0 * p[:, None, None] * np.tensordot(p.conj(), z, axes=1) - z


def _amplified(blocks: np.ndarray, p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``S·M·S†·M @ z``; for ``z = S·(P⊗I)`` that is ``(P⊗I)·W·R·W†·R·W``."""
    back = np.matmul(blocks.conj().transpose(0, 2, 1), _reflect(p, z))
    return np.matmul(blocks, _reflect(p, back))


def build_walk_operators(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (W, R, A): the sandwich, the reflection, and one amplified step.

    All three are dense on ancilla ⊗ system, so this costs O(d²·(2^A + 2^n))
    for total dimension d, A ancilla and n system qubits; ``verify_identities``
    needs only their ancilla-zero columns and does not call it.  The dense
    ``P⊗I`` and ``P†⊗I`` act only at the two ends; in between, the walk uses
    the same helpers as ``verify_identities``.
    """
    vec = _contiguous_levels(levels)
    layout = layout_for(vec)
    _check_qubits(layout.total_ancillas + hamiltonian.qubit_count)
    sys_dim = 2**hamiltonian.qubit_count
    total_dim = layout.ancilla_dim * sys_dim

    prepare = build_prepare(hamiltonian, vec, t)
    blocks = build_select(hamiltonian, vec).reshape(-1, sys_dim, sys_dim)
    z = np.matmul(blocks, np.kron(prepare, np.eye(sys_dim)).reshape(-1, sys_dim, total_dim))

    def lowered(columns: np.ndarray) -> np.ndarray:
        return (prepare.conj().T @ columns.reshape(layout.ancilla_dim, -1)).reshape(total_dim, total_dim)

    reflection = np.diag(np.where(np.arange(total_dim) < sys_dim, 1.0, -1.0)).astype(complex)
    return lowered(z), reflection, -lowered(_amplified(blocks, prepare[:, 0], z))


@dataclass(frozen=True)
class IdentityReport:
    """Residual norms of the circuit blocks against the directly built operators."""

    levels: TruncationVector
    t: float
    walk_block_residual: float
    amplified_block_residual: float
    normalization_error: float

    def to_csv(self) -> str:
        values = _field_values(self)
        return _csv_text(values, [values.values()])


def verify_identities(
    hamiltonian: SortedHamiltonian,
    levels: "TruncationVector | Sequence[int]",
    t: float | None = None,
) -> IdentityReport:
    """Check the two block identities of the construction.

    The ancilla-zero block of W must equal the truncated sum divided by its
    normalization; the same block of A must equal the amplified operator,
    both built independently by the dense simulator.  The blocks read the
    prepare only through ``p = P[:, 0]``, built directly from the register
    columns: with ``z = S·(p⊗I)`` the walk block is ``(p†⊗I)·z`` and the
    amplified block ``−(p†⊗I)·S·M·S†·M·z``, where
    ``M = (P⊗I)·R·(P†⊗I) = 2(p p†)⊗I − I``.  For total dimension d and n
    system qubits that costs O(d·4^n) in block products plus O(d·2^n) in
    contractions with p; P itself is never formed and no d×d array is held.
    The normalization is read back from ``p[0]``,
    ``|p[0]|^2 = (1/N) prod_k alpha_1/Lambda_k`` over the index registers
    that have qubits, and compared with ``s``.
    """
    vec = _contiguous_levels(levels)
    if t is None:
        t = t_infinity(hamiltonian)
    layout = layout_for(vec)
    _check_qubits(layout.total_ancillas + hamiltonian.qubit_count)
    sys_dim = 2**hamiltonian.qubit_count
    p = _prepare_column(hamiltonian, vec, t)
    blocks = build_select(hamiltonian, vec).reshape(-1, sys_dim, sys_dim)
    z = p[:, None, None] * blocks
    walk_block = np.tensordot(p.conj(), z, axes=1)
    amplified_block = -np.tensordot(p.conj(), _amplified(blocks, p, z), axes=1)

    truncated = truncated_series_operator(hamiltonian, vec, t)
    s = s_value(hamiltonian, vec, t)
    reference_amplified = amplification_polynomial(truncated, s)

    alpha_1 = hamiltonian.terms[0].alpha
    index_mass = math.prod(
        alpha_1 / hamiltonian.prefix_lambda(count)
        for count, width in zip(vec.levels, layout.c_widths)
        if width > 0
    )
    normalization = index_mass / float(abs(p[0])) ** 2

    return IdentityReport(
        levels=vec,
        t=t,
        walk_block_residual=operator_norm(walk_block - truncated / s),
        amplified_block_residual=operator_norm(amplified_block - reference_amplified),
        normalization_error=abs(normalization - s),
    )
