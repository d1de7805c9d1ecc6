"""Parsing, normalization, sorting, and generation of term-list Hamiltonians."""

import sys
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcutrunc.circuitmodel import verify_identities
from lcutrunc.densesim import single_step_error
from lcutrunc.errors import TermListError
from lcutrunc.hamiltonian import (
    DROP_THRESHOLD,
    HamiltonianTerm,
    PauliString,
    SortedHamiltonian,
    _integer_draws,
    format_term_list,
    logspread_hamiltonian,
    parse_hamiltonian,
    random_hamiltonian,
)
from lcutrunc.planner import greedy_plan

from util import logspread_numpy_reference, matrix_from_raw, random_pauli_hamiltonian


def test_single_term():
    ham = parse_hamiltonian("1.0 Z")
    assert ham.num_terms == 1
    assert ham.qubit_count == 1
    assert ham.lambda_total == 1.0
    assert ham.terms[0].op.axes == "Z"
    assert ham.terms[0].op.phase == 1


def test_sign_folded_and_sorted():
    ham = parse_hamiltonian("-0.5 XX\n1.0 ZI")
    assert [(t.alpha, t.op.axes, t.op.phase) for t in ham.terms] == [
        (1.0, "ZI", 1 + 0j),
        (0.5, "XX", -1 + 0j),
    ]
    assert ham.lambda_total == 1.5


def test_h2_sto3g_file(h2_path):
    ham = parse_hamiltonian(h2_path.read_text(), label="H2/STO-3G")
    assert ham.num_terms == 15
    assert ham.qubit_count == 4
    assert ham.terms[0].alpha == pytest.approx(0.81261)
    assert all(a.alpha >= b.alpha for a, b in zip(ham.terms, ham.terms[1:]))


def test_comments_and_blank_lines():
    text = "# header\n\n1.0 Z  # inline\n\n# done\n"
    assert parse_hamiltonian(text).num_terms == 1


def test_imaginary_coefficients_fold_into_phase():
    ham = parse_hamiltonian("0.5i XY\n-0.25i ZZ\n1.0 II")
    by_axes = {t.op.axes: t for t in ham.terms}
    assert by_axes["XY"].alpha == 0.5 and by_axes["XY"].op.phase == 1j
    assert by_axes["ZZ"].alpha == 0.25 and by_axes["ZZ"].op.phase == -1j
    # 'j' spelling accepted too
    assert parse_hamiltonian("0.5j X").terms[0].op.phase == 1j


def test_invalid_pauli_axes_are_named_sorted():
    with pytest.raises(TermListError, match=r"^line 1: invalid Pauli axes \['A', 'Q'\] in 'ZQAQ'$"):
        parse_hamiltonian("1.0 ZQAQ")


def test_general_complex_phase_rejected():
    with pytest.raises(TermListError, match="line 2"):
        parse_hamiltonian("1.0 Z\n0.3+0.4i Z")


def test_malformed_line_reports_number():
    with pytest.raises(TermListError, match="line 3"):
        parse_hamiltonian("1.0 Z\n0.5 X\nnonsense\n")
    with pytest.raises(TermListError, match="line 1"):
        parse_hamiltonian("1.0 Z extra")
    with pytest.raises(TermListError, match="line 1"):
        parse_hamiltonian("abc Z")
    with pytest.raises(TermListError, match="line 1"):
        parse_hamiltonian("1.0 ZQ")


def test_inconsistent_string_lengths():
    with pytest.raises(TermListError, match="equal length"):
        parse_hamiltonian("1.0 ZI\n0.5 X")


def test_non_finite_coefficients_rejected():
    # 1e400 overflows the float literal to infinity
    with pytest.raises(TermListError, match="finite"):
        parse_hamiltonian("1e400 Z")
    with pytest.raises(TermListError, match="line 1"):
        parse_hamiltonian("inf Z")


def test_weights_whose_sum_overflows_are_rejected():
    # each weight is finite, but Lambda is not; 1.0 is below 1e-15 of 1e308 and is dropped
    with pytest.raises(TermListError, match="weights sum to inf"), pytest.warns(UserWarning, match="dropped 1 term"):
        parse_hamiltonian("1.0 ZZ\n1e308 XX\n1e308 YY")
    big = PauliString(axes="X")
    with pytest.raises(TermListError, match="weights sum to inf"):
        SortedHamiltonian.from_terms([HamiltonianTerm(1.5e308, big), HamiltonianTerm(1.5e308, PauliString("Z"))])
    assert parse_hamiltonian("1e308 XX\n7e307 YY").lambda_total == 1.7e308
    # a merged sum that overflows is named before its phase is folded, which would divide inf by inf
    merged = r"^Pauli string X: the coefficients sum to inf, past the largest float$"
    for text in ("1e308 X\n1e308 X", "-1e308i X\n-1e308i X"):
        with pytest.raises(TermListError, match=merged):
            parse_hamiltonian(text)
    with pytest.raises(TermListError, match=merged):
        SortedHamiltonian.from_terms([HamiltonianTerm(1.5e308, big), HamiltonianTerm(1.5e308, big)])


def test_a_subnormal_largest_weight_is_rejected():
    # below the smallest normal float, t_inf = ln 2 / Lambda and 1 / Lambda_1 overflow
    message = r"^the largest weight 1e-320 is subnormal, below 2\.2250738585072014e-308$"
    with pytest.raises(TermListError, match=message):
        parse_hamiltonian("1e-320 Z")
    with pytest.raises(TermListError, match=message):
        SortedHamiltonian.from_terms([HamiltonianTerm(1e-320, PauliString("Z"))])
    with pytest.raises(TermListError, match="largest weight 3e-309 is subnormal"):
        parse_hamiltonian("3e-309 Z\n1e-309 X")
    assert parse_hamiltonian(f"{sys.float_info.min!r} Z").lambda_total == sys.float_info.min
    assert parse_hamiltonian("1e-300 Z\n1e-301 X").num_terms == 2


def test_tiny_terms_dropped_with_warning():
    with pytest.warns(UserWarning, match="dropped 1"):
        ham = parse_hamiltonian("1.0 Z\n1e-16 X")
    assert ham.num_terms == 1
    # lines are summed before the drop: two lines of 6e-16 make a kept 1.2e-15
    with pytest.warns(UserWarning, match="merged repeated lines of 1 Pauli"):
        ham = parse_hamiltonian("1 Z\n6e-16 X\n6e-16 X")
    assert [(t.op.axes, t.alpha) for t in ham.terms] == [("Z", 1.0), ("X", 1.2e-15)]


def test_all_terms_dropped_is_error():
    with pytest.raises(TermListError, match="no usable terms"), pytest.warns(UserWarning):
        parse_hamiltonian("0.0 Z")


def test_repeated_strings_are_summed_in_first_appearance_order():
    with pytest.warns(UserWarning, match="merged repeated lines of 2 Pauli") as record:
        ham = parse_hamiltonian("0.5 XI\n0.25 ZZ\n0.25 XI\n-0.5i YY\n0.25i YY")
    assert [(t.alpha, t.op.axes, t.op.phase) for t in ham.terms] == [
        (0.75, "XI", 1 + 0j),
        (0.25, "ZZ", 1 + 0j),
        (0.25, "YY", -1j),
    ]
    assert sum("merged" in str(w.message) for w in record) == 1


def test_cancelling_strings_are_dropped():
    with pytest.warns(UserWarning) as record:
        ham = parse_hamiltonian("1 ZZ\n-1 ZZ\n0.5 XI")
    assert [t.op.axes for t in ham.terms] == ["XI"]
    assert ham.lambda_total == 0.5
    messages = [str(w.message) for w in record]
    assert any("merged repeated lines of 1 Pauli" in m for m in messages)
    assert any("dropped 1 term" in m for m in messages)
    with pytest.raises(TermListError, match="no usable terms"), pytest.warns(UserWarning):
        parse_hamiltonian("0.5 X\n-0.5 X")
    # one rule for every string: sum its lines, then drop a sum that is 0 or below the threshold
    with pytest.warns(UserWarning) as record:
        parse_hamiltonian("1e-16 Y\n1 Z\n1 X\n-1 X\n0 Y")
    assert [str(w.message) for w in record] == [
        "merged repeated lines of 2 Pauli string(s) by summing their coefficients",
        "dropped 2 term(s) with |coefficient| < 1e-15",
    ]


def test_merged_sum_with_a_general_phase_names_the_string():
    with pytest.raises(TermListError, match="Pauli string ZX: .*neither real nor pure-imaginary"):
        parse_hamiltonian("1 IY\n1 ZX\n0.5i ZX")


def test_from_terms_merges_repeated_strings_like_the_parser():
    def term(alpha, axes, phase=1 + 0j):
        return HamiltonianTerm(alpha=alpha, op=PauliString(axes=axes, phase=phase))

    with pytest.warns(UserWarning) as record:
        ham = SortedHamiltonian.from_terms(
            [term(1.0, "ZZ"), term(0.5, "XI"), term(1.0, "ZZ", -1 + 0j), term(0.25, "XI")]
        )
    assert [(t.alpha, t.op.axes) for t in ham.terms] == [(0.75, "XI")]
    messages = [str(w.message) for w in record]
    assert messages == [
        "merged repeated lines of 2 Pauli string(s) by summing their coefficients",
        "dropped 1 term(s) with |coefficient| < 1e-15",
    ]
    with pytest.raises(TermListError, match="Pauli string XI: .*neither real nor pure-imaginary"):
        SortedHamiltonian.from_terms([term(0.5, "XI"), term(0.5, "XI", 1j)])
    with pytest.raises(TermListError, match="no usable terms"), pytest.warns(UserWarning):
        SortedHamiltonian.from_terms([term(0.5, "XI"), term(0.5, "XI", -1 + 0j)])
    # a term below the threshold is dropped as parsing drops its line, so the text round-trips
    with pytest.warns(UserWarning) as record:
        ham = SortedHamiltonian.from_terms([term(1.0, "Z"), term(1e-20, "X")])
    assert [str(w.message) for w in record] == ["dropped 1 term(s) with |coefficient| < 1e-15"]
    assert [t.op.axes for t in ham.terms] == ["Z"]
    assert parse_hamiltonian(format_term_list(ham)).terms == ham.terms


def test_zero_alpha_rejected_at_type_level():
    with pytest.raises(ValueError):
        HamiltonianTerm(alpha=0.0, op=PauliString(axes="Z"))


@pytest.mark.parametrize("axes, phase, message", [("", 1, "at least one qubit"), ("Z", 2, "phase must be one of")])
def test_pauli_string_rejects_no_qubits_and_a_phase_off_the_units(axes, phase, message):
    with pytest.raises(ValueError, match=message):
        PauliString(axes, phase)


def test_numpy_weights_write_the_same_bytes_as_python_floats():
    def writers(weight_type):
        ham = SortedHamiltonian.from_terms(
            [HamiltonianTerm(alpha=weight_type(1.0), op=PauliString("ZI")),
             HamiltonianTerm(alpha=weight_type(0.25), op=PauliString("XY", phase=-1 + 0j))]
        )
        assert all(type(term.alpha) is float for term in ham.terms)
        return [
            format_term_list(ham),
            greedy_plan(ham, budget=3).to_csv(),
            single_step_error(ham, (2, 1)).to_csv(),
            verify_identities(ham, (2, 1)).to_csv(),
        ]

    numpy_outputs = writers(np.float64)
    assert numpy_outputs == writers(float)
    assert not any("np." in text for text in numpy_outputs)
    assert format_term_list(parse_hamiltonian(numpy_outputs[0])) == numpy_outputs[0]


def test_prefix_lambda_values(two_term):
    assert two_term.prefix_lambda(0) == 0.0
    assert two_term.prefix_lambda(1) == 1.0
    assert two_term.prefix_lambda(2) == pytest.approx(1.1, abs=1e-15)
    with pytest.raises(ValueError):
        two_term.prefix_lambda(3)
    with pytest.raises(ValueError):
        two_term.prefix_lambda(-1)


def test_prefix_consistency_property():
    rng = np.random.default_rng(42)
    for _ in range(20):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(1, 12)))
        for m in range(ham.num_terms):
            step = ham.prefix_lambda(m + 1) - ham.prefix_lambda(m)
            assert step == pytest.approx(ham.terms[m].alpha, rel=1e-12)
        assert ham.prefix_lambda(ham.num_terms) == pytest.approx(ham.lambda_total)


def test_equal_magnitudes_keep_input_order():
    ham = parse_hamiltonian("0.5 XX\n0.5 ZZ\n0.5 YY")
    assert [t.op.axes for t in ham.terms] == ["XX", "ZZ", "YY"]


def test_phase_folding_reconstructs_input_matrix():
    # oracle: matrix built directly from the raw, unparsed coefficients
    raw = [("-0.5", "XXII"), ("0.25i", "ZIZI"), ("1.5", "IYIY"), ("-0.75i", "XZXZ")]
    text = "\n".join(f"{c} {p}" for c, p in raw)
    reference = matrix_from_raw([complex(c.replace("i", "j")) for c, _ in raw], [p for _, p in raw])

    ham = parse_hamiltonian(text)
    rebuilt = matrix_from_raw(
        [t.op.phase * t.alpha for t in ham.terms], [t.op.axes for t in ham.terms]
    )
    assert np.abs(rebuilt - reference).max() <= 1e-12


def test_format_round_trip(two_term):
    mixed = parse_hamiltonian("-0.5 XX\n1.0 ZI\n0.25i YY\n-0.125i ZZ")
    for ham in (two_term, mixed):
        again = parse_hamiltonian(format_term_list(ham))
        assert again.terms == ham.terms


_AXES = ("XI", "ZZ", "YX", "IY")


@st.composite
def _term_lists(draw):
    """Term-list lines over a few strings, repeats likely, some tiny; each string is real or imaginary throughout."""
    imaginary = {axes: draw(st.booleans()) for axes in _AXES}
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(_AXES), st.floats(1e-3, 10.0) | st.floats(1e-17, 1e-15), st.booleans()),
            min_size=1,
            max_size=10,
        )
    )
    return [
        (f"{'-' if negative else ''}{magnitude!r}{'i' if imaginary[axes] else ''}", axes)
        for axes, magnitude, negative in entries
    ]


@settings(derandomize=True, deadline=None)
@given(_term_lists())
def test_parse_format_round_trip_with_signs_phases_and_repeats(lines):
    expected: dict[str, complex] = {}
    for token, axes in lines:
        expected[axes] = expected.get(axes, 0) + complex(token.replace("i", "j"))
    # a sum is dropped below 1e-15 of the largest magnitude of the input
    largest = max(abs(complex(token.replace("i", "j"))) for token, _ in lines)
    expected = {axes: c for axes, c in expected.items() if abs(c) >= 1e-15 * largest}
    text = "\n".join(f"{token} {axes}" for token, axes in lines)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not expected:
            with pytest.raises(TermListError, match="no usable terms"):
                parse_hamiltonian(text)
            return
        ham = parse_hamiltonian(text)
    assert {t.op.axes: t.coefficient for t in ham.terms} == expected
    assert parse_hamiltonian(format_term_list(ham)).terms == ham.terms


def test_random_hamiltonian_sigma_zero_is_uniform(two_term):
    ham = random_hamiltonian(two_term, mu=0.7, sigma=0.0, seed=1)
    assert all(t.alpha == 0.7 for t in ham.terms)
    assert {t.op.axes for t in ham.terms} == {"ZI", "XX"}


def test_random_hamiltonian_rejects_all_zero_draws_naming_both_parameters(two_term):
    for mu in (0.0, -0.0):
        with pytest.raises(ValueError, match="mu and sigma are both 0"):
            random_hamiltonian(two_term, mu=mu, sigma=0.0, seed=1)


def test_random_hamiltonian_rejects_an_infinite_draw_naming_both_parameters(two_term):
    # seed 1 draws 1.35e308 and then inf; the infinite draw is named before the drop rule reads it
    with pytest.raises(ValueError, match=r"^mu 1e\+308 and sigma 1e\+308 drew a weight past the largest float$"):
        random_hamiltonian(two_term, mu=1e308, sigma=1e308, seed=1)


def test_random_hamiltonian_deterministic(two_term):
    a = random_hamiltonian(two_term, 1.0, 0.1, seed=99)
    b = random_hamiltonian(two_term, 1.0, 0.1, seed=99)
    assert a.terms == b.terms
    c = random_hamiltonian(two_term, 1.0, 0.1, seed=100)
    assert a.terms != c.terms


def test_random_hamiltonian_mean_near_mu():
    # direct-averaging oracle on a 631-term template
    template = logspread_hamiltonian(631, 1.0, qubit_count=5, seed=0)
    ham = random_hamiltonian(template, mu=1.0, sigma=0.1, seed=7)
    mean = sum(t.alpha for t in ham.terms) / ham.num_terms
    assert abs(mean - 1.0) < 0.02


def test_logspread_single_term():
    ham = logspread_hamiltonian(1, 2.0, qubit_count=1, seed=3)
    assert ham.num_terms == 1
    assert ham.terms[0].alpha == 1.0


def test_logspread_closed_form():
    ham = logspread_hamiltonian(3, 2.0, qubit_count=2, seed=3)
    assert [t.alpha for t in ham.terms] == pytest.approx([1.0, 0.1, 0.01])


def test_logspread_lambda_matches_direct_sum():
    ham = logspread_hamiltonian(32, 3.0, qubit_count=3, seed=5)
    expected = sum(10.0 ** (-3.0 * l / 31) for l in range(32))
    assert ham.lambda_total == pytest.approx(expected, rel=1e-12)
    assert len({t.op.axes for t in ham.terms}) == 32


def test_logspread_validation():
    with pytest.raises(ValueError):
        logspread_hamiltonian(0, 1.0, 2, seed=1)
    with pytest.raises(ValueError):
        logspread_hamiltonian(5, 1.0, 1, seed=1)  # only 4 distinct strings on 1 qubit


@pytest.mark.parametrize("qubit_count", [-1, 0, 32])
def test_logspread_rejects_qubit_counts_outside_1_to_31(qubit_count):
    with pytest.raises(ValueError, match=f"^qubit_count must be from 1 to 31, got {qubit_count}$"):
        logspread_hamiltonian(1, 1.0, qubit_count, seed=1)


def test_logspread_rejects_decades_whose_smallest_weight_underflows():
    assert logspread_hamiltonian(4, 15.0, 2, seed=1).terms[-1].alpha == DROP_THRESHOLD
    with pytest.raises(ValueError, match="decades 324.0 is too large"):
        logspread_hamiltonian(4, 324.0, 2, seed=1)


def test_logspread_writes_only_weights_that_parse_back():
    # 20 decades wrote a 1e-20 weight, which parsing then dropped with a warning
    ham = logspread_hamiltonian(4, 15.0, 2, seed=1)
    assert parse_hamiltonian(format_term_list(ham)).num_terms == 4
    for decades in (15.5, 20.0, 323.0):
        with pytest.raises(ValueError, match=f"decades {decades} is too large"):
            logspread_hamiltonian(4, decades, 2, seed=1)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**128, 2**200 + 1])
def test_integer_draws_are_numpys_default_rng_stream(seed):
    # below 16 qubits Lemire's method on 32-bit halves, at 16 the raw halves, above it 64-bit outputs;
    # seeds of five or more 32-bit words, from 2**128 on, mix their fifth and later words into the pool
    for qubit_count in range(1, 32):
        rng = np.random.default_rng(seed)
        expected = [int(rng.integers(4**qubit_count)) for _ in range(200)]
        assert list(islice(_integer_draws(seed, 4**qubit_count), 200)) == expected, qubit_count


@pytest.mark.parametrize("args", [(1000, 6.0, 16, 100), (48, 3.0, 7, 1), (16, 2.0, 3, 9100), (5, 1.0, 31, 2**40)])
def test_logspread_writes_the_bytes_of_numpys_generator(args):
    assert format_term_list(logspread_hamiltonian(*args)) == format_term_list(logspread_numpy_reference(*args))


def test_non_finite_weight_rejected_at_type_level():
    with pytest.raises(ValueError, match="finite"):
        HamiltonianTerm(alpha=float("inf"), op=PauliString(axes="Z"))


def test_sorting_invariant_on_generated_hamiltonians():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(1, 10)))
        assert all(a.alpha >= b.alpha for a, b in zip(ham.terms, ham.terms[1:]))
        assert all(x < y for x, y in zip(ham.prefix, ham.prefix[1:]))
