"""Dense operator constructions and exact error measurement."""

import math

import numpy as np
import pytest
import scipy.linalg

from lcutrunc.errors import CapExceeded
from lcutrunc.densesim import (
    amplification_polynomial,
    amplified_operator,
    exact_evolution,
    hamiltonian_matrix,
    multi_step_error,
    operator_norm,
    pauli_string_matrix,
    qubit_cap,
    single_step_error,
    truncated_series_operator,
)
from lcutrunc.hamiltonian import (
    PHASE_UNITS,
    HamiltonianTerm,
    PauliString,
    SortedHamiltonian,
    logspread_hamiltonian,
    parse_hamiltonian,
)
from lcutrunc.planner import epsilon_bound, full_order_levels, greedy_plan, s_value, t_infinity

from util import (
    full_order_error_oracle,
    kron_chain,
    levels_at_cost,
    matrix_from_raw,
    random_axes,
    random_pauli_hamiltonian,
    step_error_oracle,
)

LN2 = math.log(2.0)


# ------------------------------------------------------- matrix assembly


def test_hamiltonian_matrix_single_z(single_z):
    assert np.allclose(hamiltonian_matrix(single_z), np.diag([1.0, -1.0]))


def test_hamiltonian_matrix_against_kron_oracle():
    ham = parse_hamiltonian("1.0 ZI\n0.5 XX")
    expected = 1.0 * np.kron(
        np.array([[1, 0], [0, -1]], dtype=complex), np.eye(2)
    ) + 0.5 * np.kron(
        np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)
    )
    assert np.abs(hamiltonian_matrix(ham) - expected).max() <= 1e-12


def test_pauli_string_matrix_bit_identical_to_kron_oracle():
    for qubits in (1, 2, 3):
        for code in range(4**qubits):
            axes = "".join("IXYZ"[(code >> (2 * q)) & 3] for q in range(qubits))
            for phase in PHASE_UNITS:
                expected = phase * kron_chain(axes)
                assert np.array_equal(pauli_string_matrix(PauliString(axes, phase)), expected), (axes, phase)


def test_hamiltonian_matrix_prefixes_bit_identical_to_kron_oracle():
    rng = np.random.default_rng(31)
    ham = SortedHamiltonian.from_terms(
        HamiltonianTerm(alpha=float(rng.uniform(0.01, 1.0)), op=PauliString(axes, PHASE_UNITS[int(rng.integers(4))]))
        for axes in random_axes(rng, 4, 24)
    )
    for m in range(1, ham.num_terms + 1):
        terms = ham.terms[:m]
        expected = matrix_from_raw([t.coefficient for t in terms], [t.op.axes for t in terms])
        assert np.array_equal(hamiltonian_matrix(SortedHamiltonian.from_terms(terms)), expected), m


def test_hamiltonian_matrix_folded_phases():
    ham = parse_hamiltonian("-0.5 XY\n0.25i ZZ")
    expected = matrix_from_raw([-0.5, 0.25j], ["XY", "ZZ"])
    assert np.abs(hamiltonian_matrix(ham) - expected).max() <= 1e-12


def test_qubit_cap_enforced(monkeypatch):
    ham = parse_hamiltonian("1.0 ZZZ")
    monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", "2")
    with pytest.raises(CapExceeded):
        hamiltonian_matrix(ham)
    assert qubit_cap() == 2
    with pytest.raises(CapExceeded):
        exact_evolution(ham, 0.1)


# ------------------------------------------------------- exact evolution


def test_exact_evolution_z_at_pi(single_z):
    assert np.abs(exact_evolution(single_z, math.pi) + np.eye(2)).max() <= 1e-12


def test_exact_evolution_identity_at_zero(two_term):
    assert np.abs(exact_evolution(two_term, 0.0) - np.eye(4)).max() <= 1e-12


def test_exact_evolution_matches_scaling_and_squaring(two_term):
    ham = parse_hamiltonian("1.0 ZI\n0.5 XX")
    expected = scipy.linalg.expm(-0.3j * hamiltonian_matrix(ham))
    assert np.abs(exact_evolution(ham, 0.3) - expected).max() <= 1e-10


def test_exact_evolution_unitary():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(2, 9)))
        u = exact_evolution(ham, t_infinity(ham))
        assert operator_norm(u.conj().T @ u - np.eye(8)) <= 1e-12


def test_exact_evolution_rejects_non_hermitian():
    ham = parse_hamiltonian("1.0 Z\n0.5i X")  # i*X term is anti-Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        exact_evolution(ham, 0.1)


def test_exact_evolution_accepts_cancelling_imaginary_terms_built_through_the_api():
    # H = Z + 0.5i X - 0.5i X is Hermitian once the repeated X terms merge
    terms = [
        HamiltonianTerm(alpha=1.0, op=PauliString("Z")),
        HamiltonianTerm(alpha=0.5, op=PauliString("X", 1j)),
        HamiltonianTerm(alpha=0.5, op=PauliString("X", -1j)),
    ]
    with pytest.warns(UserWarning):  # merged, and the X sum dropped
        ham = SortedHamiltonian.from_terms(terms)
    assert [(t.alpha, t.op.axes) for t in ham.terms] == [(1.0, "Z")]
    expected = scipy.linalg.expm(-0.4j * np.diag([1.0, -1.0]))
    assert np.abs(exact_evolution(ham, 0.4) - expected).max() <= 1e-12


# ------------------------------------------------------- truncated series


def test_series_empty_vector_is_identity(two_term):
    assert np.abs(truncated_series_operator(two_term, (), 0.7) - np.eye(4)).max() == 0.0


def test_series_first_order(single_z):
    t = 0.3
    expected = np.eye(2) - 1j * t * np.diag([1.0, -1.0])
    assert np.abs(truncated_series_operator(single_z, (1,), t) - expected).max() <= 1e-15


def test_series_product_ordering(two_term):
    # order-2 coefficient is (-it)^2/2 * H_2 H_1-prefix product, left factor first
    t = 0.4
    h2 = hamiltonian_matrix(two_term)
    h1 = hamiltonian_matrix(SortedHamiltonian.from_terms(two_term.terms[:1]))
    expected = np.eye(4) + (-1j * t) * h2 + ((-1j * t) ** 2 / 2) * (h2 @ h1)
    assert np.abs(truncated_series_operator(two_term, (2, 1), t) - expected).max() <= 1e-13
    # an empty order ends the series: orders past it are never read
    assert np.array_equal(truncated_series_operator(two_term, (2, 0, 1), t), truncated_series_operator(two_term, (2,), t))


def test_series_converges_to_exact_evolution():
    ham = parse_hamiltonian("1.0 ZI\n0.5 XX\n0.25 YY")
    t = t_infinity(ham)
    diff = truncated_series_operator(ham, full_order_levels(ham, 20), t) - exact_evolution(ham, t)
    assert operator_norm(diff) <= 1e-10


def test_series_error_decays_within_tail_bound():
    rng = np.random.default_rng(13)
    ham = random_pauli_hamiltonian(rng, 2, 5)
    t = t_infinity(ham)
    exact = exact_evolution(ham, t)
    previous = None
    for n in range(1, 11):
        err = operator_norm(truncated_series_operator(ham, full_order_levels(ham, n), t) - exact)
        assert err <= 2 * LN2**n / math.factorial(n)
        if previous is not None:
            assert err <= previous + 1e-12
        previous = err


# ------------------------------------------------------- amplification


def test_amplification_polynomial_fixes_unitary_at_s_two():
    rng = np.random.default_rng(5)
    random = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    unitary, _ = np.linalg.qr(random)
    assert np.abs(amplification_polynomial(unitary, 2.0) - unitary).max() <= 1e-14


def test_amplified_empty_vector_is_negated_identity(two_term):
    assert np.abs(amplified_operator(two_term, (), 0.5) + np.eye(4)).max() <= 1e-14


def test_amplified_single_term_closed_form(single_z):
    # A~ = c (I - itZ) with c = 3/s - 4(1+t^2)/s^3 and s = 1 + t at t = ln 2
    t = LN2
    s = 1.0 + t
    c = 3.0 / s - 4.0 * (1 + t * t) / s**3
    assert c == pytest.approx(0.5518183987948728, abs=1e-12)
    expected = c * (np.eye(2) - 1j * t * np.diag([1.0, -1.0]))
    assert np.abs(amplified_operator(single_z, (1,), t) - expected).max() <= 1e-12


def test_amplified_converged_levels_reproduce_series():
    ham = parse_hamiltonian("1.0 ZI\n0.5 XX")
    t = t_infinity(ham)
    levels = full_order_levels(ham, 20)
    series = truncated_series_operator(ham, levels, t)
    assert s_value(ham, levels, t) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm(amplified_operator(ham, levels, t) - series) <= 1e-10


# ------------------------------------------------------- operator norm


def test_operator_norm_identity():
    assert operator_norm(np.eye(17)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(19)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    expected = float(np.linalg.svd(m, compute_uv=False)[0])
    assert operator_norm(m) == pytest.approx(expected, abs=1e-10)


def test_operator_norm_matches_svd_at_128():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    expected = float(np.linalg.svd(m, compute_uv=False)[0])
    assert operator_norm(m) == pytest.approx(expected, rel=1e-9)


def test_operator_norm_near_degenerate_top_singular_values():
    # top two singular values 1e-7 apart: the gap that made power iteration
    # slow and biased low at this size
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)))
    v, _ = np.linalg.qr(rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)))
    singular = np.concatenate(([3.0, 3.0 - 1e-7], np.linspace(2.5, 0.1, 126)))
    m = (u * singular) @ v.conj().T
    expected = float(np.linalg.svd(m, compute_uv=False)[0])
    assert operator_norm(m) == pytest.approx(expected, rel=1e-12)


def test_operator_norm_rejects_non_finite():
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ------------------------------------------------------- error reports


def test_single_step_error_single_term(single_z):
    report = single_step_error(single_z, (1,))
    assert report.delta == pytest.approx(0.33622684182542945, abs=1e-10)
    assert report.epsilon == pytest.approx(0.3068528194400546, abs=1e-12)
    assert report.delta <= report.epsilon + 2 * report.epsilon**2
    assert report.cost == 1


def test_single_step_error_empty_vector(two_term):
    # amplified operator is -identity, so the error is at most 2 and close
    # to it for the small step sizes used here
    report = single_step_error(two_term, ())
    assert report.epsilon == 1.0
    assert report.delta <= 2.0 + 1e-12
    assert report.delta >= 2.0 * math.cos(LN2 / 2) - 1e-9


def test_single_step_error_converged(two_term):
    report = single_step_error(two_term, full_order_levels(two_term, 20))
    assert report.delta <= 1e-10


def test_multi_step_first_entry_matches_single_step(two_term):
    single = single_step_error(two_term, (2, 1))
    multi = multi_step_error(two_term, (2, 1), 4)
    assert multi.r_steps[0] == (1, multi.delta)
    assert multi.delta == pytest.approx(single.delta, abs=1e-13)
    assert len(multi.r_steps) == 4


def test_multi_step_converged_levels_stay_negligible(two_term):
    report = multi_step_error(two_term, full_order_levels(two_term, 20), 8)
    assert all(err <= 1e-8 for _, err in report.r_steps)


def test_multi_step_two_term_within_linear_growth_bound(two_term):
    # direct matrix-power oracle: errors grow essentially linearly in r
    report = multi_step_error(two_term, (2, 1), 8)
    exact = exact_evolution(two_term, t_infinity(two_term))
    amplified = amplified_operator(two_term, (2, 1), t_infinity(two_term))
    for r, err in report.r_steps:
        oracle = operator_norm(
            np.linalg.matrix_power(exact, r) - np.linalg.matrix_power(amplified, r)
        )
        assert err == pytest.approx(oracle, abs=1e-12)
        assert err <= r * report.delta * (1 + 10 * report.delta)


@pytest.mark.parametrize(
    "text, levels",
    [("1.0 ZI\n0.1 XX", (2, 1)), (None, (6, 3, 1))],
    ids=["two-term", "logspread-10x3-seed7"],
)
def test_repeated_step_errors_are_within_1e_15_of_a_50_digit_oracle(text, levels):
    # rounding in U^r and A^r grows with r; r = 8 is where 1e-15 absolute can show
    ham = parse_hamiltonian(text) if text else logspread_hamiltonian(10, 3.0, 3, 7)
    measured = [error for _, error in multi_step_error(ham, levels, 8).r_steps]
    oracle = step_error_oracle(ham, levels, 8)
    assert [float(abs(error - exact)) <= 1e-15 for error, exact in zip(measured, oracle)] == [True] * 8


def test_multi_step_validation(two_term):
    with pytest.raises(ValueError):
        multi_step_error(two_term, (1,), 0)


def test_multi_step_error_rejects_more_steps_than_physical_memory_holds(two_term, monkeypatch):
    # each step keeps one error, a float and its list slot of 32 bytes at least
    import lcutrunc.densesim as densesim

    monkeypatch.setattr(densesim, "_PHYSICAL_MEMORY", 32 * 4)
    assert len(multi_step_error(two_term, (2, 1), 4).r_steps) == 4
    with pytest.raises(MemoryError):
        multi_step_error(two_term, (2, 1), 5)


def test_error_report_serialization(two_term):
    import json

    report = multi_step_error(two_term, (2, 1), 2)
    payload = json.loads(report.to_json())
    assert payload["levels"] == [2, 1]
    assert payload["cost"] == 3
    assert len(payload["r_steps"]) == 2
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "levels,cost,epsilon,delta,r,r_step_error"
    assert len(lines) == 3
    assert lines[1].startswith("2;1,3,")


def test_amplified_error_bound_on_greedy_prefixes():
    rng = np.random.default_rng(29)
    for _ in range(6):
        ham = random_pauli_hamiltonian(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        plan = greedy_plan(ham, budget=10)
        for cost in (1, 4, 10):
            levels = levels_at_cost(plan, cost)
            eps = epsilon_bound(ham, levels)
            if eps > 0.5:
                continue
            report = single_step_error(ham, levels)
            assert report.delta <= eps + 2 * eps**2


# ------------------------------------------------------- full orders from the spectrum

# Every string acts on one qubit, so the oracle has the spectrum in closed
# form.  The dyadic weights sum to 2, so Lambda and t_inf are exact doubles.
LOCAL_FIELDS = {
    "dyadic": "0.5 XII\n-0.375 ZII\n0.25 IYI\n0.125 IZI\n0.5 IIX\n-0.0625 IIZ\n0.1875 III\n",
    "decimal": "1.0 XII\n-0.3 ZII\n0.2 IYI\n0.07 IZI\n0.5 IIX\n-0.01 IIZ\n0.15 III\n",
}


@pytest.mark.parametrize("name", sorted(LOCAL_FIELDS))
def test_full_order_errors_match_a_high_precision_oracle(name):
    text = LOCAL_FIELDS[name]
    ham = parse_hamiltonian(text)
    deltas = []
    for order in range(1, 20):
        report = multi_step_error(ham, full_order_levels(ham, order), 3)
        expected = full_order_error_oracle(text, order, 3)
        for (r, error), exact in zip(report.r_steps, expected):
            assert abs(error - exact) <= 1e-14 * exact, (order, r)
        deltas.append(report.delta)
    assert deltas[0] > 1e-1 and deltas[-1] < 1e-22


def test_full_order_errors_meet_the_quadratic_bound_at_every_order():
    # past order ~10 the bound is below the ~1e-15 that forming U - A densely leaves
    rng = np.random.default_rng(41)
    for _ in range(6):
        ham = random_pauli_hamiltonian(rng, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
        for order in range(1, 21):
            report = multi_step_error(ham, full_order_levels(ham, order), 3)
            eps = report.epsilon
            assert 0.0 < report.delta <= eps + 2 * eps**2, order
            for r, error in report.r_steps:
                assert error <= r * report.delta * (1 + 10 * r * report.delta), (order, r)


def test_full_order_errors_come_from_the_eigenvalues_alone(two_term, monkeypatch):
    import lcutrunc.densesim as densesim

    t = t_infinity(two_term)
    levels = full_order_levels(two_term, 2)
    exact, amplified = exact_evolution(two_term, t), amplified_operator(two_term, levels, t)
    dense = [
        operator_norm(np.linalg.matrix_power(exact, r) - np.linalg.matrix_power(amplified, r))
        for r in range(1, 5)
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a full-order measurement formed a dense operator")

    for name in ("exact_evolution", "truncated_series_operator", "amplification_polynomial", "operator_norm"):
        monkeypatch.setattr(densesim, name, forbidden)
    report = multi_step_error(two_term, levels, 4)
    for (_, error), expected in zip(report.r_steps, dense):
        assert error == pytest.approx(expected, rel=1e-12)


def test_levels_past_an_empty_order_leave_a_full_order_measurement_unchanged(two_term):
    padded, live = multi_step_error(two_term, (2, 0, 1), 3), multi_step_error(two_term, (2,), 3)
    assert (padded.epsilon, padded.r_steps) == (live.epsilon, live.r_steps)
