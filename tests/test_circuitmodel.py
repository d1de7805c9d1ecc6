"""Dense verification of the prepare/select/amplify construction."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lcutrunc import circuitmodel
from lcutrunc.errors import CapExceeded
from lcutrunc.circuitmodel import (
    build_prepare,
    build_select,
    build_walk_operators,
    estimate_resources,
    layout_for,
    verify_identities,
)
from lcutrunc.densesim import amplification_polynomial, operator_norm, truncated_series_operator
from lcutrunc.hamiltonian import parse_hamiltonian
from lcutrunc.planner import as_levels, insertion_gain, order_weights, s_value, t_infinity

from util import (
    dense_select_oracle,
    dense_walk_oracle,
    prepare_column_oracle,
    random_contiguous_levels,
    random_pauli_hamiltonian,
)

LN2 = math.log(2.0)


# ------------------------------------------------------------- layouts


def test_layout_examples():
    layout = layout_for((4, 2))
    assert (layout.kappa, layout.c_widths) == (2, (2, 1))
    assert layout.total_ancillas == 5
    assert layout.reflection_ancillas == 3

    layout = layout_for((1,))
    assert (layout.kappa, layout.c_widths, layout.total_ancillas) == (1, (0,), 1)
    assert layout.reflection_ancillas == 0

    layout = layout_for((2, 1))
    assert (layout.kappa, layout.c_widths, layout.total_ancillas) == (2, (1, 0), 3)
    assert layout.ancilla_dim == 8


def test_layout_rejects_empty_and_gapped():
    with pytest.raises(ValueError):
        layout_for(())
    with pytest.raises(ValueError, match="zero retained"):
        layout_for((2, 0, 1))


def test_resource_estimates():
    estimate = estimate_resources((4, 2))
    assert estimate.t_proxy == 6
    assert estimate.prepare_rotations == 1
    assert estimate.select_ops == 6
    assert estimate.prepare_state_sizes == (4, 2)
    assert estimate.layout.reflection_ancillas == 3

    full = estimate_resources((631, 631))
    assert full.t_proxy == 1262
    assert full.layout.kappa == 2
    assert full.layout.c_widths == (10, 10)

    payload = estimate.to_json()
    assert '"t_proxy": 6' in payload


# ------------------------------------------------------------- prepare


def test_prepare_single_order_single_term():
    ham = parse_hamiltonian("1.0 X")
    t = 0.37
    prepare = build_prepare(ham, (1,), t)
    norm = math.sqrt(1.0 + t)
    expected_column = np.array([1.0 / norm, math.sqrt(t) / norm])
    assert np.abs(prepare[:, 0] - expected_column).max() <= 1e-12
    assert np.abs(prepare.conj().T @ prepare - np.eye(2)).max() <= 1e-12


def test_prepare_index_register_amplitudes(two_term):
    t = t_infinity(two_term)
    prepare = build_prepare(two_term, (2,), t)
    # ancilla = q (1 qubit) x c_1 (1 qubit); starting column is the tensor
    # product of the two register columns
    q_norm = 1.0 + t * 1.1
    c_column = np.array([math.sqrt(1.0 / 1.1), math.sqrt(0.1 / 1.1)])
    q_column = np.array([math.sqrt(1.0 / q_norm), math.sqrt(t * 1.1 / q_norm)])
    assert np.abs(prepare[:, 0] - np.kron(q_column, c_column)).max() <= 1e-12


def test_prepare_normalization_equals_s(two_term):
    t = t_infinity(two_term)
    weights = order_weights(two_term, (2, 1), t)
    normalization = float(np.sum(weights))
    assert normalization == pytest.approx(s_value(two_term, (2, 1), t), abs=1e-12)
    assert normalization == pytest.approx(1.9115349141591278, abs=1e-12)
    assert weights[0] == 1.0 and len(weights) == 3


def test_prepare_is_unitary_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(2, 5)))
        levels = random_contiguous_levels(rng, ham.num_terms, 3)
        prepare = build_prepare(ham, levels, t_infinity(ham))
        dim = prepare.shape[0]
        assert np.abs(prepare.conj().T @ prepare - np.eye(dim)).max() <= 1e-12


def test_prepare_dimension_cap(two_term, monkeypatch):
    monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", "3")
    with pytest.raises(CapExceeded):
        build_prepare(two_term, (2, 2), t_infinity(two_term))


# ------------------------------------------------------------- select


def test_select_zero_order_block_is_identity(two_term):
    select = build_select(two_term, (2, 1))
    sys_dim = 4
    assert np.abs(select[:sys_dim] - np.eye(sys_dim)).max() == 0.0


def test_select_single_order_applies_minus_i_h(single_z):
    select = build_select(single_z, (1,))
    z = np.diag([1.0, -1.0]).astype(complex)
    assert np.abs(select[:2] - np.eye(2)).max() == 0.0
    assert np.abs(select[2:4] - (-1j) * z).max() <= 1e-15
    blocks = select.reshape(-1, 2, 2)
    assert np.abs(blocks.conj().transpose(0, 2, 1) @ blocks - np.eye(2)).max() <= 1e-12


def test_select_second_order_product_and_order(two_term):
    select = build_select(two_term, (2, 1))
    sys_dim = 4
    zi = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
    xx = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])).astype(complex)
    # ancilla (k=2, l1=1, l2=0): q unary '11' -> 3, then c1=1, c2 width 0
    ancilla = (3 * 2 + 1) * 1
    start = ancilla * sys_dim
    block = select[start : start + sys_dim]
    expected = (-1j) ** 2 * (xx @ zi)  # h_{l1} leftmost
    assert np.abs(block - expected).max() <= 1e-14


def test_select_is_block_diagonal_unitary(two_term):
    # the stacked layout holds only the diagonal blocks, so off-block entries are zero by construction
    select = build_select(two_term, (2, 1))
    sys_dim = 4
    assert select.shape == (layout_for((2, 1)).ancilla_dim * sys_dim, sys_dim)
    blocks = select.reshape(-1, sys_dim, sys_dim)
    assert np.abs(blocks.conj().transpose(0, 2, 1) @ blocks - np.eye(sys_dim)).max() <= 1e-12


# ------------------------------------------------------------- walk ops


def test_reflection_involution_and_signs(two_term):
    _, reflection, _ = build_walk_operators(two_term, (2, 1), t_infinity(two_term))
    dim = reflection.shape[0]
    assert np.abs(reflection @ reflection - np.eye(dim)).max() == 0.0
    diag = np.diag(reflection).real
    assert np.all(diag[:4] == 1.0) and np.all(diag[4:] == -1.0)


def test_walk_is_unitary(two_term):
    walk, _, _ = build_walk_operators(two_term, (2, 1), t_infinity(two_term))
    dim = walk.shape[0]
    assert np.abs(walk.conj().T @ walk - np.eye(dim)).max() <= 1e-12


def test_amplified_step_keeps_converged_state_in_ancilla_zero(single_z):
    levels = (1,) * 8  # essentially converged expansion of a single-term system
    t = t_infinity(single_z)
    _, _, amplified = build_walk_operators(single_z, levels, t)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    state = np.zeros(amplified.shape[0], dtype=complex)
    state[:2] = psi
    out = amplified @ state
    assert np.linalg.norm(out[:2]) >= 1.0 - 1e-5


def test_walk_block_amplitude_accounting(two_term):
    # the ancilla-zero block carries exactly |U psi| / s of the amplitude
    t = t_infinity(two_term)
    walk, _, _ = build_walk_operators(two_term, (2, 1), t)
    truncated = truncated_series_operator(two_term, (2, 1), t)
    s = s_value(two_term, (2, 1), t)
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        state = np.zeros(walk.shape[0], dtype=complex)
        state[:4] = psi
        out = walk @ state
        assert np.linalg.norm(out[:4]) == pytest.approx(
            np.linalg.norm(truncated @ psi) / s, abs=1e-12
        )
        assert np.abs(out[:4] - truncated @ psi / s).max() <= 1e-12


def test_walk_operators_dimension_cap(two_term, monkeypatch):
    monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", "4")
    with pytest.raises(CapExceeded):
        build_walk_operators(two_term, (2, 1), 0.5)


def test_walk_and_identities_check_the_cap_before_building(monkeypatch):
    ham = parse_hamiltonian("1.0 ZZZ\n0.5 XIX")
    monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", "2")

    def never(*args, **kwargs):
        raise AssertionError("dense matrix built over the cap")

    for name in ("build_prepare", "_prepare_column", "build_select", "truncated_series_operator"):
        monkeypatch.setattr(circuitmodel, name, never)
    with pytest.raises(CapExceeded):
        build_walk_operators(ham, (2, 1), 0.5)
    with pytest.raises(CapExceeded):
        verify_identities(ham, (2, 1))


# ------------------------------------------------------------- identities


def test_identities_single_term(single_z):
    report = verify_identities(single_z, (1,))
    assert report.walk_block_residual <= 1e-10
    assert report.amplified_block_residual <= 1e-10
    assert report.normalization_error <= 1e-12


def test_identities_two_term(two_term):
    report = verify_identities(two_term, (2, 1))
    assert report.walk_block_residual <= 1e-10
    assert report.amplified_block_residual <= 1e-10
    assert report.normalization_error <= 1e-12


def test_normalization_error_reads_the_prepare_unitary(two_term, monkeypatch):
    t = t_infinity(two_term)
    s = s_value(two_term, (2, 1), t)

    def scaled(factor, lowest_order):
        def weights(*args):
            return [w * (factor if k >= lowest_order else 1.0) for k, w in enumerate(order_weights(*args))]

        return weights

    # scaling every weight leaves the prepare unitary, so the circuit, unchanged
    monkeypatch.setattr(circuitmodel, "order_weights", scaled(3.0, 0))
    report = verify_identities(two_term, (2, 1), t)
    assert report.normalization_error <= 1e-12
    assert report.walk_block_residual <= 1e-10

    # scaling orders 1 and 2 encodes N = 1 + 1.5 (s - 1) in the prepare column
    monkeypatch.setattr(circuitmodel, "order_weights", scaled(1.5, 1))
    report = verify_identities(two_term, (2, 1), t)
    assert report.normalization_error == pytest.approx(0.5 * (s - 1.0), rel=1e-12)
    assert report.walk_block_residual > 1e-3


def test_identities_reject_empty_vector(two_term):
    with pytest.raises(ValueError):
        verify_identities(two_term, ())


def test_identities_random_small_instances():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 5:
        qubits = int(rng.integers(1, 3))
        ham = random_pauli_hamiltonian(rng, qubits, int(rng.integers(2, 5)))
        levels = random_contiguous_levels(rng, min(ham.num_terms, 4), 3)
        layout = layout_for(levels)
        if layout.ancilla_dim * 2**qubits > 2**10:
            continue
        report = verify_identities(ham, levels)
        assert report.walk_block_residual <= 1e-10
        assert report.amplified_block_residual <= 1e-10
        assert report.normalization_error <= 1e-12
        checked += 1


def _oracle_instance(case):
    if case == "dim1024":
        # the circuit-walk benchmark's first size: 2**7 ancilla x 2**3 system
        return random_pauli_hamiltonian(np.random.default_rng(17), 3, 16), (8, 2, 1)
    if case == "unused-index":
        # index register value 3 of c_1 is past L_1 = 3 and acts as identity, not as term 3
        return parse_hamiltonian("1.0 ZI\n-0.5 XY\n0.25i YZ\n0.125 XX"), (3, 1)
    rng = np.random.default_rng(case)
    while True:
        qubits = int(rng.integers(1, 3))
        ham = random_pauli_hamiltonian(rng, qubits, int(rng.integers(2, 5)))
        levels = random_contiguous_levels(rng, ham.num_terms, 3)
        if layout_for(levels).ancilla_dim * 2**qubits <= 2**8:
            return ham, levels


def _dense_oracle_residuals(ham, levels, t, prepare):
    """The dense oracle's (W, R, A) from ``prepare`` and its two block residuals."""
    sys_dim = 2**ham.qubit_count
    operators = dense_walk_oracle(prepare, dense_select_oracle(ham, levels), sys_dim)
    walk, _, amplified = operators
    truncated = truncated_series_operator(ham, levels, t)
    s = s_value(ham, levels, t)
    walk_residual = np.linalg.norm(walk[:sys_dim, :sys_dim] - truncated / s, 2)
    amplified_residual = np.linalg.norm(
        amplified[:sys_dim, :sys_dim] - amplification_polynomial(truncated, s), 2
    )
    return operators, walk_residual, amplified_residual


@pytest.mark.parametrize("case", [31, 32, 33, 34, "dim1024"])
def test_thin_walk_products_match_the_dense_oracle(case):
    ham, levels = _oracle_instance(case)
    t = t_infinity(ham)
    (walk, reflection, amplified), walk_residual, amplified_residual = _dense_oracle_residuals(
        ham, levels, t, build_prepare(ham, levels, t)
    )

    report = verify_identities(ham, levels, t)
    assert report.walk_block_residual == pytest.approx(walk_residual, abs=1e-14)
    assert report.amplified_block_residual == pytest.approx(amplified_residual, abs=1e-14)
    for built, oracle in zip(build_walk_operators(ham, levels, t), (walk, reflection, amplified)):
        assert np.abs(built - oracle).max() <= 1e-12


@pytest.mark.parametrize("case", [31, 32, 33, 34, "unused-index"])
def test_identities_read_only_the_prepare_first_column(case, monkeypatch):
    # any unitary e^{iθ}·P·(1 ⊕ U) has the first column e^{iθ}·p and gives the
    # same blocks; its complex p catches a missing conj() where the built real one does not
    ham, levels = _oracle_instance(case)
    t = t_infinity(ham)
    prepare = build_prepare(ham, levels, t)
    dim = prepare.shape[0]
    rng = np.random.default_rng(41)
    unitary, _ = np.linalg.qr(rng.normal(size=(dim - 1, dim - 1)) + 1j * rng.normal(size=(dim - 1, dim - 1)))
    completion = np.eye(dim, dtype=complex)
    completion[1:, 1:] = unitary
    phased = np.exp(0.7j) * prepare @ completion
    _, walk_residual, amplified_residual = _dense_oracle_residuals(ham, levels, t, phased)

    monkeypatch.setattr(circuitmodel, "_prepare_column", lambda *args: phased[:, 0])
    report = verify_identities(ham, levels, t)
    assert report.walk_block_residual == pytest.approx(walk_residual, abs=1e-14)
    assert report.amplified_block_residual == pytest.approx(amplified_residual, abs=1e-14)
    assert max(report.walk_block_residual, report.amplified_block_residual) <= 1e-14
    assert report.normalization_error <= 1e-12


@pytest.mark.parametrize("case", [31, 32, 33, 34, "unused-index", "dim1024"])
def test_prepare_column_is_the_kron_of_the_register_columns(case):
    ham, levels = _oracle_instance(case)
    t = t_infinity(ham)
    p = circuitmodel._prepare_column(ham, as_levels(levels), t)
    assert p.shape == (layout_for(levels).ancilla_dim,)
    assert np.abs(p - prepare_column_oracle(ham, levels, t)).max() <= 1e-15
    assert np.abs(p - build_prepare(ham, levels, t)[:, 0]).max() <= 1e-15


@pytest.mark.parametrize("levels", [(8, 2, 1), (2, 2, 1), (1,), (3, 5)])
def test_select_forms_the_pauli_matrices_of_the_used_terms_only(levels, monkeypatch):
    ham, _ = _oracle_instance("dim1024")
    formed = []
    pauli_string_matrix = circuitmodel.pauli_string_matrix

    def counted(op):
        formed.append(op)
        return pauli_string_matrix(op)

    monkeypatch.setattr(circuitmodel, "pauli_string_matrix", counted)
    build_select(ham, levels)
    assert formed == [term.op for term in ham.terms[: max(levels)]]


def test_select_rejects_levels_past_the_term_count(two_term):
    with pytest.raises(ValueError, match=r"levels \[3\] outside 0\.\.2, the term count"):
        build_select(two_term, (3,))


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_circuit_model_rejects_a_bad_t(two_term, t):
    def gain(hamiltonian, levels, t):
        return insertion_gain(hamiltonian, levels, 2, t)

    for build in (build_prepare, verify_identities, order_weights, s_value, gain):
        with pytest.raises(ValueError, match=f"t must be finite and nonnegative, got {t}"):
            build(two_term, (2, 1), t)


def test_identities_raise_naming_t_where_the_amplified_step_overflows(two_term):
    # the series is finite at t = 1e60, s**3 is not: the same error as amplified_operator's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the amplified step overflows at t = 1e\+60$"):
            verify_identities(two_term, (2, 1), t=1e60)


@pytest.mark.parametrize("case", [31, 32, 33, 34, "unused-index"])
def test_select_blocks_equal_the_dense_oracle_diagonal(case):
    ham, levels = _oracle_instance(case)
    sys_dim = 2**ham.qubit_count
    select = build_select(ham, levels)
    oracle = dense_select_oracle(ham, levels)
    assert select.shape == (oracle.shape[0], sys_dim)
    for start in range(0, oracle.shape[0], sys_dim):
        assert np.array_equal(select[start : start + sys_dim], oracle[start : start + sys_dim, start : start + sys_dim])


def test_identities_peak_memory_stays_below_one_full_size_matrix():
    # one complex d x d matrix at d = 1024 is 16 MiB; the block path holds d x 2^n arrays
    ham, levels = _oracle_instance("dim1024")
    tracemalloc.start()
    try:
        verify_identities(ham, levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_identities_form_only_the_ancilla_zero_columns(two_term, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("verify_identities formed the full walk")

    columns = []
    prepare_column = circuitmodel._prepare_column

    def counted_column(*args, **kwargs):
        columns.append(args)
        return prepare_column(*args, **kwargs)

    monkeypatch.setattr(circuitmodel, "build_walk_operators", never)
    monkeypatch.setattr(circuitmodel, "build_prepare", never)
    monkeypatch.setattr(circuitmodel, "_prepare_column", counted_column)
    report = verify_identities(two_term, (2, 1))
    assert report.walk_block_residual <= 1e-10
    assert report.amplified_block_residual <= 1e-10
    assert report.normalization_error <= 1e-12
    assert len(columns) == 1


def test_identity_report_csv(two_term):
    report = verify_identities(two_term, (2, 1))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "levels,t,walk_block_residual,amplified_block_residual,normalization_error"
    assert lines[1].startswith("2;1,")


def test_operator_norm_used_for_residuals_is_consistent(two_term):
    # residuals reported by the identity check match a direct recomputation
    t = t_infinity(two_term)
    walk, _, _ = build_walk_operators(two_term, (2, 1), t)
    block = walk[:4, :4]
    direct = operator_norm(block - truncated_series_operator(two_term, (2, 1), t) / s_value(two_term, (2, 1), t))
    report = verify_identities(two_term, (2, 1))
    assert report.walk_block_residual == pytest.approx(direct, abs=1e-14)
