"""Normalization values, insertion gains, greedy plans, and step-size roots.

Expected values tagged as derived were computed ahead of time with the
independent finite-sum and quadratic-formula oracles that reappear inline
below.
"""

import functools
import math
import operator
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lcutrunc import planner
from lcutrunc.circuitmodel import estimate_resources, layout_for, verify_identities
from lcutrunc.densesim import truncated_series_operator
from lcutrunc.errors import ConvergenceError
from lcutrunc.hamiltonian import (
    HamiltonianTerm,
    PauliString,
    SortedHamiltonian,
    logspread_hamiltonian,
    parse_hamiltonian,
)
from lcutrunc.planner import (
    TruncationVector,
    epsilon_bound,
    full_order_levels,
    greedy_plan,
    insertion_gain,
    s_value,
    solve_t_root,
    t_infinity,
)

from conftest import DATA_DIR
from util import (
    insertion_gain_oracle,
    levels_at_cost,
    omitted_mass_oracle,
    optimal_bound_oracle,
    plan_json_oracle,
    random_contiguous_levels,
    random_pauli_hamiltonian,
)

LN2 = math.log(2.0)


def uniform_hamiltonian(num_terms: int, alpha: float = 0.37) -> SortedHamiltonian:
    """``num_terms`` distinct strings, the base-4 digits of the term index, of equal weight."""
    width = max(2, ((num_terms - 1).bit_length() + 1) // 2)
    terms = [
        HamiltonianTerm(alpha=alpha, op=PauliString(axes="".join("IXYZ"[(i >> 2 * j) & 3] for j in range(width))))
        for i in range(num_terms)
    ]
    return SortedHamiltonian.from_terms(terms)


def s_oracle(ham, levels, t):
    """Independent finite-sum evaluation of the normalization constant."""
    total = 1.0
    for k in range(1, len(levels) + 1):
        prod = 1.0
        for j in range(1, k + 1):
            prod *= ham.prefix_lambda(levels[j - 1])
        total += t**k / math.factorial(k) * prod
    return total


# ---------------------------------------------------------------- basics


def test_t_infinity_values(two_term):
    assert t_infinity(parse_hamiltonian("1.0 Z")) == pytest.approx(LN2, abs=1e-15)
    assert t_infinity(two_term) == pytest.approx(LN2 / 1.1, abs=1e-15)
    ham = parse_hamiltonian(f"{LN2!r} Z")
    assert t_infinity(ham) == pytest.approx(1.0, abs=1e-15)


def test_truncation_vector_normalization():
    vec = TruncationVector.from_levels([2, 1, 0, 0])
    assert vec.levels == (2, 1)
    assert vec.kappa == 2
    assert vec.cost == 3
    assert vec.level(1) == 2 and vec.level(5) == 0
    assert list(vec) == [2, 1]
    assert TruncationVector.from_levels([2, 0, 1]).kappa == 2
    with pytest.raises(ValueError):
        TruncationVector.from_levels([-1])


def test_truncation_vector_trims_trailing_zeros_however_built(two_term):
    vec = TruncationVector(levels=(1, 0))
    assert vec == TruncationVector.from_levels((1, 0)) == TruncationVector((1,))
    assert vec.levels == (1,) and len(vec) == 1
    assert TruncationVector((0, 0)).levels == ()
    with pytest.raises(ValueError, match="nonnegative"):
        TruncationVector((1, -1, 0))
    # the circuit model takes it as it takes the plain tuple
    assert layout_for(vec) == layout_for((1, 0))
    assert estimate_resources(vec) == estimate_resources((1, 0))
    assert verify_identities(two_term, vec).to_csv() == verify_identities(two_term, (1, 0)).to_csv()


@pytest.mark.parametrize("k", [0, -1])
def test_bump_rejects_order_below_one(k):
    with pytest.raises(ValueError, match="1-based"):
        TruncationVector((2, 1)).bump(k)
    with pytest.raises(ValueError, match="1-based"):
        TruncationVector(levels=(1,)).level(k)
    assert TruncationVector((2, 1)).bump(3).levels == (2, 1, 1)


def test_cost_is_the_total_of_the_levels():
    assert TruncationVector.from_levels((3, 2, 1)).cost == 6
    assert TruncationVector.from_levels(()).cost == 0
    assert full_order_levels(uniform_hamiltonian(5), 3).cost == 15


def test_full_order_levels():
    ham = uniform_hamiltonian(5)
    assert full_order_levels(ham, 0).levels == ()
    assert full_order_levels(ham, 3).levels == (5, 5, 5)
    # a term count matching the smaller Table-style molecules
    big = uniform_hamiltonian(631)
    assert full_order_levels(big, 2).cost == 1262


def test_s_value_empty_vector_is_one(two_term):
    for t in (0.0, 0.3, 2.0):
        assert s_value(two_term, (), t) == 1.0


def test_s_value_single_term():
    ham = parse_hamiltonian("1.0 Z")
    assert s_value(ham, (1,), LN2) == pytest.approx(1.0 + LN2, abs=1e-15)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        s_value(ham, (1,), -1.0)


def test_s_value_two_term_derived(two_term):
    t = t_infinity(two_term)
    expected = s_oracle(two_term, (2, 1), t)
    assert expected == pytest.approx(1.9115349141591278, abs=1e-12)
    assert s_value(two_term, (2, 1), t) == pytest.approx(expected, abs=1e-12)
    # the order-1 contribution is exactly ln 2 here since Lambda_1 = Lambda
    assert s_value(two_term, (2,), t) == pytest.approx(1.0 + LN2, abs=1e-14)


def test_s_value_gap_truncates_series(two_term):
    t = t_infinity(two_term)
    assert s_value(two_term, (2, 0, 1), t) == s_value(two_term, (2,), t)


def test_order_weights_stop_past_order_199_at_the_first_zero_weight(two_term):
    # the weights underflow to 0.0 before order 200 and every later one stays
    # 0.0, so 100,000 full orders hold and sum 200 weights, with the same bits
    deep, lam = full_order_levels(two_term, 10**5), two_term.prefix[2]
    for t in (t_infinity(two_term), 0.5, 1.0):
        every = [1.0]
        for k in range(1, 1001):
            every.append(every[-1] * (t * lam / k))
        assert planner.order_weights(two_term, deep, t) == every[:200]
        assert s_value(two_term, deep, t) == functools.reduce(operator.add, every)
    assert epsilon_bound(two_term, deep) == epsilon_bound(two_term, full_order_levels(two_term, 199)) == 0.0
    assert solve_t_root(two_term, deep) == solve_t_root(two_term, full_order_levels(two_term, 250))
    # at t_inf every weight from order 166 on is 0.0, whatever the scale of the
    # weights, so the greedy scan never reads more than 200
    for text in ("1.0 Z", "1.0 ZI\n0.1 XX", "1e307 ZZ\n5e306 XX\n3e306 YY", "1e-300 Z\n1e-301 X"):
        ham = parse_hamiltonian(text)
        weights = planner.order_weights(ham, full_order_levels(ham, 10**5), t_infinity(ham))
        assert len(weights) == 200 and weights[166:] == [0.0] * 34, text


def test_epsilon_bound_values(two_term):
    assert epsilon_bound(two_term, ()) == 1.0
    single = parse_hamiltonian("1.0 Z")
    assert epsilon_bound(single, (1,)) == pytest.approx(2.0 - 1.0 - LN2, abs=1e-14)
    uniform = uniform_hamiltonian(3)
    expected = 2.0 - sum(LN2**k / math.factorial(k) for k in range(4))
    assert epsilon_bound(uniform, full_order_levels(uniform, 3)) == pytest.approx(
        expected, abs=1e-14
    )
    assert expected == pytest.approx(0.01112220381613227, abs=1e-14)


def test_epsilon_bound_keeps_its_digits_where_two_minus_s_cancels():
    # 2 - s(t_inf) read 4.44e-16 here, three times the bound
    text = "1 Z\n0.5 X"
    exact = omitted_mass_oracle(text, (2,) * 15)
    assert abs(exact - Decimal("1.41456645e-16")) < Decimal("1e-24")
    eps = epsilon_bound(parse_hamiltonian(text), (2,) * 15)
    assert abs(Decimal(eps) - exact) <= Decimal("4e-15") * exact


@st.composite
def _log_uniform_terms(draw, max_terms=30):
    """Term-list text: up to ``max_terms`` distinct strings with log-uniform weights over up to 10 decades."""
    decades = draw(st.floats(0.0, 10.0))
    weights = draw(st.lists(st.floats(0.0, decades).map(lambda e: 10.0**-e), min_size=1, max_size=max_terms))
    axes = [f"{i:05b}".replace("0", "Z").replace("1", "X") for i in range(len(weights))]
    return "".join(f"{w!r} {a}\n" for w, a in zip(weights, axes))


@st.composite
def _weights_and_levels(draw):
    """:func:`_log_uniform_terms` and a vector."""
    text = draw(_log_uniform_terms())
    levels = draw(st.lists(st.integers(1, text.count("\n")), max_size=40))
    gap = draw(st.integers(0, 40))
    if gap < len(levels):
        levels[gap] = 0
    return text, tuple(levels)


@settings(derandomize=True, deadline=None)
@given(_weights_and_levels())
def test_epsilon_bound_matches_the_50_digit_omitted_mass(case):
    text, levels = case
    ham = parse_hamiltonian(text)
    eps = epsilon_bound(ham, levels)
    exact = omitted_mass_oracle(text, levels)
    # every weight factor carries the rounding of t_inf, about 2 ulps per
    # live order: 4e-15 covers up to 12 orders, deeper vectors the growth
    live = (list(levels) + [0]).index(0)
    assert eps >= 0.0
    assert abs(Decimal(eps) - exact) <= max(Decimal("4e-15"), Decimal((2 * live + 8) * 2.0**-53)) * exact
    if eps > 1e-3:
        assert abs(eps - (2.0 - s_value(ham, levels, t_infinity(ham)))) <= 1e-15


# ---------------------------------------------------------------- gains


def test_gain_from_empty_vector_is_t_alpha_max(two_term):
    t = t_infinity(two_term)
    assert insertion_gain(two_term, (), 1) == pytest.approx(t * 1.0, abs=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(1, 8)))
        t = t_infinity(ham)
        assert insertion_gain(ham, (), 1) == pytest.approx(t * ham.terms[0].alpha, rel=1e-14)


def test_two_term_gains_derived(two_term):
    # frozen from the finite-sum oracle
    cases = {
        ((1, 0), 1): 0.06301338005090429,
        ((1, 0), 2): 0.19853430327198396,
        ((1, 1), 1): 0.08286681037810273,
        ((1, 1), 2): 0.01985343032719844,
        ((1, 1), 3): 0.041701058350730014,
    }
    for (levels, k), expected in cases.items():
        assert insertion_gain(two_term, levels, k) == pytest.approx(expected, abs=1e-12)


def test_gain_matches_s_difference_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(2, 7)))
        levels = list(random_contiguous_levels(rng, ham.num_terms - 1, 4))
        t = t_infinity(ham)
        k = int(rng.integers(1, len(levels) + 2))
        bumped = levels + [0] * (k - len(levels))
        bumped[k - 1] += 1
        expected = s_oracle(ham, bumped, t) - s_oracle(ham, levels + [0] * (k - len(levels)), t)
        assert insertion_gain(ham, levels, k, t) == pytest.approx(expected, abs=1e-12)

    # gapped vectors: a term in the first empty order revives the orders
    # after it, up to the next empty one; a term in any later order adds nothing
    for levels in ([2, 0, 1], [1, 0, 2, 1], [3, 1, 0, 0, 2]):
        ham = random_pauli_hamiltonian(rng, 2, 4)
        t = t_infinity(ham)
        first_empty = levels.index(0) + 1
        for k in range(1, len(levels) + 3):
            padded = levels + [0] * (k - len(levels))
            bumped = list(padded)
            bumped[k - 1] += 1
            expected = s_oracle(ham, bumped, t) - s_oracle(ham, padded, t)
            gain = insertion_gain(ham, levels, k, t)
            assert gain == pytest.approx(expected, abs=1e-12)
            if k == first_empty and levels[k] > 0:
                without_later_orders = s_oracle(ham, bumped[:k], t) - s_oracle(ham, padded[:k], t)
                assert gain > without_later_orders + 1e-6
            if k > first_empty:
                assert gain == 0.0


def test_gain_is_within_a_few_roundings_per_order_of_the_exact_bound_difference():
    # the exact gain is the drop of the 50-digit omitted mass; each of the K + 1 order
    # weights a gain sums carries a few roundings, t_inf's among them
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(200):
        weights = [float(10.0 ** -rng.uniform(0.0, 6.0)) for _ in range(int(rng.integers(1, 13)))]
        axes = [f"{i:04b}".replace("0", "Z").replace("1", "X") for i in range(len(weights))]
        text = "".join(f"{w!r} {a}\n" for w, a in zip(weights, axes))
        ham = parse_hamiltonian(text)
        levels = random_contiguous_levels(rng, ham.num_terms, 8)
        before = omitted_mass_oracle(text, levels)
        for k in range(1, len(levels) + 2):
            bumped = list(levels) + [0] * (k - len(levels))
            if bumped[k - 1] == ham.num_terms:
                continue
            bumped[k - 1] += 1
            exact = before - omitted_mass_oracle(text, bumped)
            gain = insertion_gain(ham, levels, k)
            assert abs(Decimal(gain) - exact) <= 4 * (len(levels) + 1) * Decimal(2.0**-53) * exact, (levels, k)
            checked += 1
    assert checked > 800


def test_gain_is_bit_equal_to_the_list_and_slice_formula():
    # levels with gaps, full orders and trailing zeros; k past the end and past the first gap
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(300):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(1, 9)), decades=4.0)
        levels = [int(v) for v in rng.integers(0, ham.num_terms + 1, size=int(rng.integers(0, 8)))]
        for t in (t_infinity(ham), float(rng.uniform(0.0, 3.0))):
            for k in range(1, len(levels) + 3):
                if k <= len(levels) and levels[k - 1] == ham.num_terms:
                    with pytest.raises(ValueError, match="already contains"):
                        insertion_gain(ham, levels, k, t)
                    continue
                assert repr(insertion_gain(ham, levels, k, t)) == repr(insertion_gain_oracle(ham, levels, k, t))
                checked += 1
    assert checked > 2000


def test_gain_beyond_first_empty_order_is_zero(two_term):
    assert insertion_gain(two_term, (1,), 3) == 0.0
    assert insertion_gain(two_term, (1,), 7) == 0.0
    assert insertion_gain(two_term, (1,), 10**15) == 0.0  # no level is held past the first empty order


def test_gain_errors(two_term):
    with pytest.raises(ValueError, match="already contains"):
        insertion_gain(two_term, (2, 1), 1)
    with pytest.raises(ValueError, match="1-based"):
        insertion_gain(two_term, (1,), 0)


def test_levels_outside_the_term_range_are_rejected(two_term):
    # checked even past an empty order, which no sum reaches
    t = t_infinity(two_term)
    for levels in ((3,), (2, 0, 5)):
        with pytest.raises(ValueError, match="outside 0..2"):
            s_value(two_term, levels, t)
        with pytest.raises(ValueError, match="outside 0..2"):
            insertion_gain(two_term, levels, 2, t)
        with pytest.raises(ValueError, match="outside 0..2"):
            truncated_series_operator(two_term, levels, t)
    with pytest.raises(ValueError, match="nonnegative"):
        TruncationVector(levels=(1, 0, -1))


# ---------------------------------------------------------------- greedy


def test_greedy_two_term_budget_three(two_term):
    trace = greedy_plan(two_term, budget=3)
    assert [s.chosen_k for s in trace.steps] == [1, 2, 1]
    gains = [s.gain for s in trace.steps]
    assert gains == pytest.approx(
        [0.6301338005090411, 0.19853430327198396, 0.08286681037810273], abs=1e-12
    )
    assert trace.final.levels == (2, 1)
    assert trace.steps[-1].epsilon_after == pytest.approx(0.0884650858408722, abs=1e-12)
    assert trace.steps[-1].epsilon_after == pytest.approx(
        epsilon_bound(two_term, trace.final), abs=1e-12
    )


def test_greedy_budget_one_takes_largest_term():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(1, 9)))
        trace = greedy_plan(ham, budget=1)
        assert trace.final.levels == (1,)
        assert trace.steps[0].chosen_k == 1


def test_greedy_uniform_budget_multiple_reproduces_full_orders():
    for num_terms in (1, 2, 5):
        ham = uniform_hamiltonian(num_terms)
        for nu in (1, 2, 3):
            trace = greedy_plan(ham, budget=nu * num_terms)
            assert trace.final.levels == (num_terms,) * nu


def test_greedy_epsilon_strictly_decreases():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(2, 9)))
        trace = greedy_plan(ham, budget=12)
        epsilons = [1.0] + [s.epsilon_after for s in trace.steps]
        assert all(b < a for a, b in zip(epsilons, epsilons[1:]))
        assert all(s.gain > 0 for s in trace.steps)
        assert [s.cost_after for s in trace.steps] == list(range(1, 13))


def test_greedy_records_epsilon_bound_of_each_prefix_and_never_a_negative_bound():
    # subtracting each gain from 1.0 made 599 of these bounds negative
    ham = parse_hamiltonian("1.805068619253194e-05 XX\n1.803315903513268 YX\n1.0 ZX\n1.0 IX")
    trace = greedy_plan(ham, budget=658)
    vec = TruncationVector(levels=())
    for step in trace.steps:
        vec = vec.bump(step.chosen_k)  # levels_at_cost(trace, step.cost_after), replayed once
        assert step.epsilon_after >= 0.0
        assert step.epsilon_after == epsilon_bound(ham, vec)


def test_greedy_target_epsilon_stops_at_threshold(two_term):
    trace = greedy_plan(two_term, target_epsilon=0.1)
    assert trace.final.cost == 3
    assert trace.steps[-1].epsilon_after <= 0.1
    assert trace.steps[-2].epsilon_after > 0.1


def test_greedy_target_epsilon_cap_error():
    # a target below what double precision resolves: the run ends where no gain is above 0.0
    ham = logspread_hamiltonian(20, 3, 6, seed=1)
    message = r"^no insertion improves the bound in double precision; stopped at cost 3287$"
    with pytest.raises(ConvergenceError, match=message):
        greedy_plan(ham, target_epsilon=5e-324)


@pytest.mark.parametrize(
    "text, steps", [("1.0 Z", 155), ("1.0 ZI\n0.1 XX", 310), ("h2_sto3g", 2324)], ids=["single-z", "two-term", "h2"]
)
def test_targets_past_64_steps_a_term_plan(text, steps):
    # the bound sums nonnegative terms, so it resolves targets far below 1e-16
    ham = parse_hamiltonian((DATA_DIR / "h2_sto3g.txt").read_text() if text == "h2_sto3g" else text)
    trace = greedy_plan(ham, target_epsilon=1e-300)
    assert len(trace.orders) == steps > 64 * ham.num_terms
    assert trace.epsilons[-1] <= 1e-300 < trace.epsilons[-2]
    assert trace.epsilons[-1] == epsilon_bound(ham, trace.final)


@settings(derandomize=True, deadline=None)
@given(_log_uniform_terms(max_terms=5))
# no gain survives at cost 817, where the bound still exceeds 5e-324
@example(
    "1.0 ZZZZZ\n2.56856513197784e-07 ZZZZX\n0.01827011033348268 ZZZXZ\n"
    "2.1288537238811962e-07 ZZZXX\n0.010594448961810714 ZZXZZ\n"
)
def test_the_smallest_target_is_met_or_ends_where_no_gain_survives(text):
    # with no cost cap, the weights that reach 0.0 from order 166 on end every run
    ham = parse_hamiltonian(text)
    try:
        chosen, epsilons, _ = planner._greedy(ham, None, 5e-324)
    except ConvergenceError as exc:
        stopped = re.fullmatch(r"no insertion improves the bound in double precision; stopped at cost (\d+)", str(exc))
        cost = int(stopped[1])
    else:
        assert epsilons[-1] <= 5e-324
        cost = len(chosen)
    assert cost <= 166 * ham.num_terms


def test_greedy_argument_validation(two_term):
    with pytest.raises(ValueError):
        greedy_plan(two_term)
    with pytest.raises(ValueError):
        greedy_plan(two_term, budget=3, target_epsilon=0.5)
    with pytest.raises(ValueError):
        greedy_plan(two_term, budget=0)
    with pytest.raises(ValueError):
        greedy_plan(two_term, target_epsilon=1.5)


def reference_greedy_steps(ham, budget=None, target_epsilon=None):
    """Greedy steps with ``insertion_gain`` called for every open order, strict ``>``.

    Each step records, and target mode stops on, ``epsilon_bound`` of its vector.
    """
    t = t_infinity(ham)
    vec = TruncationVector(levels=())
    epsilon = epsilon_bound(ham, vec)
    steps = []
    while (len(steps) < budget) if budget is not None else (epsilon > target_epsilon):
        best_k, best_gain = 0, 0.0
        for k in range(1, len(vec) + 2):
            if vec.level(k) < ham.num_terms:
                gain = insertion_gain(ham, vec, k, t)
                if gain > best_gain:
                    best_k, best_gain = k, gain
        assert best_k > 0
        vec = vec.bump(best_k)
        epsilon = epsilon_bound(ham, vec)
        steps.append(planner.PlanStep(best_k, best_gain, epsilon, len(steps) + 1))
    return tuple(steps)


def screen_cases():
    rng = np.random.default_rng(71)
    spread = [logspread_hamiltonian(terms, decades, 4, seed=terms)
              for terms, decades in ((12, 4.0), (7, 1.0), (20, 8.0))]
    spread += [random_pauli_hamiltonian(rng, 3, int(rng.integers(2, 16)), decades=5.0) for _ in range(4)]
    cases = [(f"spread-{i}", ham, 13 * ham.num_terms, 1e-15) for i, ham in enumerate(spread)]
    # the reduced plan-large input: thousands of steps over 10+ orders
    cases.append(("plan-large-small", logspread_hamiltonian(200, 6.0, 8, seed=100), 800, 1e-10))
    cases += [(f"uniform-{n}", uniform_hamiltonian(n), 7 * n, 1e-12) for n in (1, 3, 6)]
    cases.append(("two-term", parse_hamiltonian("1.0 ZI\n0.1 XX", label="two-term"), 40, 1e-12))
    # gains of two orders an ulp apart (orders 1 and 2 at step 4, 5 and 6 at
    # step 15, 8 and 9 at step 24) that other float operations tie or rank the
    # other way round: rounding alone picks the order, and the scan must pick the reference's
    for i, alpha in enumerate((0.07835883772309095, 0.10675748369033093, 0.07292548676486313)):
        cases.append((f"near-tie-{i}", parse_hamiltonian(f"1.0 ZZ\n{alpha!r} XX\n0.3 XY"), 40, 1e-12))
    # deep enough that the last order weights fall below the smallest normal
    # float, where rounding is absolute: from step 656 on, gains of orders 163
    # and 165 lie a unit of 2**-1074 apart
    subnormal = parse_hamiltonian("1.805068619253194e-05 XX\n1.803315903513268 YX\n1.0 ZX\n1.0 IX")
    cases.append(("subnormal-weights", subnormal, 658, None))
    # weights near the largest float: no gain or prefix sum may overflow,
    # and a full order, whose gain is never formed, is never taken
    huge = parse_hamiltonian("1e307 ZZ\n5e306 XX\n3e306 YY")
    return cases + [("huge-weights", huge, 40, 1e-12)]


SCREEN_CASES = screen_cases()


@pytest.mark.parametrize("name, ham, budget, target", SCREEN_CASES, ids=[case[0] for case in SCREEN_CASES])
def test_screened_greedy_equals_the_every_order_reference(name, ham, budget, target):
    assert greedy_plan(ham, budget=budget).steps == reference_greedy_steps(ham, budget=budget)
    if ham.num_terms > 1 and target is not None:
        trace = greedy_plan(ham, target_epsilon=target)
        assert max(trace.final.levels) == ham.num_terms
        assert trace.steps == reference_greedy_steps(ham, target_epsilon=target)


@pytest.mark.parametrize("name, ham, budget, target", SCREEN_CASES, ids=[case[0] for case in SCREEN_CASES])
def test_greedy_without_gains_takes_the_steps_of_greedy_plan(name, ham, budget, target):
    # the kernel that --budget and compare call directly, against the every-order reference
    stops = [(budget, None)] + ([(None, target)] if ham.num_terms > 1 and target is not None else [])
    for stop in stops:
        reference = reference_greedy_steps(ham, *stop)
        chosen, epsilons, final = planner._greedy(ham, *stop)
        assert chosen == [step.chosen_k for step in reference]
        assert list(map(repr, epsilons)) == [repr(step.epsilon_after) for step in reference]
        assert final == functools.reduce(TruncationVector.bump, chosen, TruncationVector(levels=()))


def test_greedy_stops_where_no_gain_survives_in_double_precision():
    # a single term's order weights underflow to 0.0 past order 165, so the
    # lone open order's gain is 0.0; the bound is 0.0 there, and a budget run ends with that vector
    ham = parse_hamiltonian("1.0 Z")
    trace = greedy_plan(ham, budget=400)
    assert trace.orders == tuple(range(1, 166)) and trace.final.cost == 165
    assert trace.epsilons[-1] == 0.0 == epsilon_bound(ham, trace.final) < trace.epsilons[-2]
    assert planner._greedy(ham, 400, None) == (list(trace.orders), list(trace.epsilons), trace.final)
    # where the bound stays above 0.0, a budget that cannot be spent is still an error
    message = r"^no insertion improves the bound in double precision; stopped at cost 3287$"
    with pytest.raises(ConvergenceError, match=message):
        greedy_plan(logspread_hamiltonian(20, 3, 6, seed=1), budget=4000)


def test_gain_estimates_track_insertion_gain_far_inside_the_screen_margin():
    ham = logspread_hamiltonian(12, 4.0, 4, seed=12)
    t = t_infinity(ham)
    chosen, best_gains, epsilons, counts = planner._greedy_loop(ham, (), 150, -1.0)
    vec = TruncationVector(levels=())
    for cost, (best_k, best) in enumerate(zip(chosen, best_gains)):
        assert epsilons[cost] == epsilon_bound(ham, vec)
        gains = {k: insertion_gain(ham, vec, k, t) for k in range(1, len(vec) + 2) if vec.level(k) < ham.num_terms}
        # the loop's gain is insertion_gain of its order, bit for bit, the largest open gain at its lowest order
        assert repr(best) == repr(gains[best_k])
        assert best_k == min(k for k, gain in gains.items() if gain == max(gains.values()))
        # a run started from this vector takes the same step
        assert planner._greedy_loop(ham, vec.levels, 1, -1.0)[:2] == ([best_k], [best])
        vec = vec.bump(best_k)
    assert epsilons[150] == epsilon_bound(ham, vec) and counts[:len(vec)] == list(vec.levels)
    assert max(vec.levels) == ham.num_terms


def test_epsilon_bound_is_the_greedy_loop_run_for_zero_steps(two_term):
    def zero_steps(levels):
        chosen, gains, epsilons, counts = planner._greedy_loop(two_term, levels, 0, -1.0)
        assert chosen == gains == [] and counts[:len(levels)] == list(levels)
        assert epsilons == [epsilon_bound(two_term, levels)]
        return epsilons[0]

    text = "1.0 ZI\n0.1 XX"
    assert zero_steps(()) == 1.0
    # an empty order ends the live ones: (2, 0, 1) is bounded as (2,), 1 - ln 2
    assert zero_steps((2, 0, 1)) == zero_steps((2,)) == pytest.approx(1.0 - LN2, rel=4e-15)
    # past the 201 orders the loop holds, every weight is 0.0 and adds nothing
    assert zero_steps((1,) * 1000) == zero_steps((1,) * 170)
    assert abs(Decimal(zero_steps((1,) * 1000)) - omitted_mass_oracle(text, (1,) * 1000)) <= Decimal("1e-16")
    assert zero_steps(full_order_levels(two_term, 1000).levels) == zero_steps((2,) * 166) == 0.0


def test_greedy_confirms_about_one_gain_per_step(monkeypatch):
    calls = 0
    exact = planner.insertion_gain

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return exact(*args, **kwargs)

    monkeypatch.setattr(planner, "insertion_gain", counted)
    ham = logspread_hamiltonian(200, 6.0, 8, seed=2)
    trace = greedy_plan(ham, budget=800)
    # the kernel's scan computes every gain itself; greedy_plan's replay reads each printed gain once
    assert calls == len(trace.steps) == 800
    calls = 0
    assert planner._greedy(ham, 800, None)[2] == trace.final
    assert calls == 0


def test_trace_replay_and_prefix_queries(two_term):
    trace = greedy_plan(two_term, budget=3)
    assert levels_at_cost(trace, 0).levels == ()
    assert levels_at_cost(trace, 2).levels == (1, 1)
    assert levels_at_cost(trace, 3) == trace.final
    assert trace.steps[1].epsilon_after == epsilon_bound(two_term, levels_at_cost(trace, 2))


def test_trace_serialization_round_trip(two_term):
    import csv as csv_module
    import io
    import json

    trace = greedy_plan(two_term, budget=3)
    payload = json.loads(trace.to_json())
    assert payload["final_levels"] == [2, 1]
    assert [row["k"] for row in payload["steps"]] == [1, 2, 1]
    assert payload["steps"][2]["epsilon"] == trace.steps[2].epsilon_after

    rows = list(csv_module.DictReader(io.StringIO(trace.to_csv())))
    assert [int(r["k"]) for r in rows] == [1, 2, 1]
    assert float(rows[1]["gain"]) == trace.steps[1].gain


def test_trace_columns_must_hold_one_entry_per_step():
    with pytest.raises(ValueError, match="one entry per step"):
        planner.PlanTrace("two-term", 1.0, (1, 2), (0.5,), (0.5, 0.25), TruncationVector((1, 1)))


_SPECIAL_FLOATS = (0.0, 5e-324, 1e-300, 1.0)


@st.composite
def _plan_traces(draw):
    """Traces with any label, finite floats (the special ones often, numpy's too), and possibly no steps or levels."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), finite, finite.map(np.float64))
    specials = st.sampled_from(["<unnamed>", '"', "\\", "é", "\x00\n\t\x1f"])
    label = draw(st.one_of(specials, st.text(st.characters(codec="utf-8"))))
    steps = draw(st.lists(st.tuples(st.integers(1, 200), floats, floats), max_size=5))
    orders, gains, epsilons = tuple(zip(*steps)) or ((), (), ())
    levels = draw(st.lists(st.integers(1, 10**6), max_size=5))
    return planner.PlanTrace(label, draw(floats), orders, gains, epsilons, TruncationVector(tuple(levels)))


@settings(derandomize=True, deadline=None)
@given(_plan_traces())
@example(planner.PlanTrace('q"b\\s é \x07', 5e-324, (), (), (), TruncationVector(())))
@example(planner.PlanTrace("<unnamed>", 1e-300, (1,), (0.0,), (1.0,), TruncationVector((1,))))
def test_trace_json_is_the_stdlib_encoding_byte_for_byte(trace):
    assert trace.to_json() == plan_json_oracle(trace)


def test_plan_large_target_trace_json_is_the_stdlib_encoding():
    ham = logspread_hamiltonian(1000, 6.0, 16, seed=100)
    trace = greedy_plan(ham, target_epsilon=1e-12)
    assert len(trace.steps) > 10_000
    assert trace.to_json() == plan_json_oracle(trace)


def test_plan_trace_holds_under_100_bytes_a_step():
    # each step holds a gain and a bound as floats and three column slots, 72 bytes
    # on 64-bit CPython; a PlanStep record held 188
    ham = logspread_hamiltonian(200, 6.0, 8, seed=100)
    greedy_plan(ham, budget=2)  # one-time allocations are not the trace's
    tracemalloc.start()
    try:
        trace = greedy_plan(ham, target_epsilon=1e-10)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.orders) == 1819
    assert held < 100 * len(trace.orders)
    assert trace.steps is trace.steps
    assert trace.steps == reference_greedy_steps(ham, target_epsilon=1e-10)


# ---------------------------------------------------------------- roots


def test_t_root_single_term_is_one():
    ham = parse_hamiltonian("1.0 Z")
    root = solve_t_root(ham, (1,))
    assert abs(root - 1.0) <= 1e-11
    assert abs(s_value(ham, (1,), root) - 2.0) <= 1e-12


def test_t_root_two_term_quadratic_oracle(two_term):
    # 1 + 1.1 t + 0.55 t^2 = 2  =>  t = (-1.1 + sqrt(1.21 + 2.2)) / 1.1
    expected = (-1.1 + math.sqrt(1.1**2 + 4 * 0.55)) / (2 * 0.55)
    root = solve_t_root(two_term, (2, 1))
    assert root == pytest.approx(expected, abs=1e-10)
    assert abs(s_value(two_term, (2, 1), root) - 2.0) <= 1e-12


def test_t_root_converges_to_t_infinity_for_deep_uniform_orders():
    ham = uniform_hamiltonian(3)
    root = solve_t_root(ham, full_order_levels(ham, 30))
    assert root == pytest.approx(t_infinity(ham), abs=1e-12)


def test_t_root_leaves_no_residual_above_rounding():
    rng = np.random.default_rng(53)
    for _ in range(40):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(1, 12)))
        levels = random_contiguous_levels(rng, ham.num_terms, 6)
        root = solve_t_root(ham, levels)
        residual = abs(s_value(ham, levels, root) - 2.0)
        assert residual <= 2e-15
        for neighbour in (math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
            assert residual <= abs(s_value(ham, levels, neighbour) - 2.0)


def test_t_root_of_a_linear_normalization_is_exact():
    # s(t) = 1 + 0.5 t reaches 2 at t = 2, a float
    ham = parse_hamiltonian("0.5 X")
    assert abs(solve_t_root(ham, (1,)) - 2.0) <= 4.5e-16


def test_t_root_rejects_empty_vector(two_term):
    with pytest.raises(ValueError, match="no root"):
        solve_t_root(two_term, ())


def test_t_root_checks_the_vector_once(two_term, monkeypatch):
    calls = 0
    checked = planner.checked_levels

    def counted(*args):
        nonlocal calls
        calls += 1
        return checked(*args)

    def unused(*args):
        raise AssertionError("solve_t_root sums the order weights itself")

    expected = solve_t_root(two_term, (2, 1))
    monkeypatch.setattr(planner, "checked_levels", counted)
    monkeypatch.setattr(planner, "s_value", unused)
    assert solve_t_root(two_term, (2, 1)) == expected
    assert calls == 1
    with pytest.raises(ValueError, match="outside 0..2, the term count"):
        solve_t_root(two_term, (3, 1))


# ---------------------------------------------------------------- properties


def test_path_independence_of_gains():
    rng = np.random.default_rng(31)
    for _ in range(25):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(2, 7)))
        target = random_contiguous_levels(rng, ham.num_terms, 4)
        t = t_infinity(ham)
        moves = [k + 1 for k, count in enumerate(target) for _ in range(count)]
        for _ in range(3):
            rng.shuffle(moves)
            vec = TruncationVector(levels=())
            total = 0.0
            for k in moves:
                total += insertion_gain(ham, vec, k, t)
                vec = vec.bump(k)
            assert vec.levels == tuple(target)
            assert total == pytest.approx(s_value(ham, target, t) - 1.0, abs=1e-12)


def test_s_value_monotone_in_levels_and_t():
    rng = np.random.default_rng(37)
    for _ in range(20):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(2, 7)))
        levels = random_contiguous_levels(rng, ham.num_terms - 1, 4)
        t = t_infinity(ham)
        base = s_value(ham, levels, t)
        for k in range(1, len(levels) + 2):
            bumped = TruncationVector.from_levels(levels).bump(k)
            assert s_value(ham, bumped, t) >= base
        assert s_value(ham, levels, 1.5 * t) > base
        assert 0.0 <= epsilon_bound(ham, levels) <= 1.0


@settings(derandomize=True, deadline=None)
@given(_weights_and_levels(), st.floats(0.0, 4.0), st.floats(1.0, 2.0))
def test_s_value_is_monotone_in_each_level_and_in_t(case, scale, growth):
    text, levels = case
    ham = parse_hamiltonian(text)
    t = scale * t_infinity(ham)
    base = s_value(ham, levels, t)
    vec = TruncationVector.from_levels(levels)
    for k in range(1, len(vec) + 2):
        if vec.level(k) < ham.num_terms:
            assert s_value(ham, vec.bump(k), t) >= base
    assert s_value(ham, levels, growth * t) >= base


@settings(derandomize=True, deadline=None)
@given(_weights_and_levels())
def test_greedy_bound_is_at_most_the_full_order_bound_at_equal_cost(case):
    ham = parse_hamiltonian(case[0])
    plan = greedy_plan(ham, budget=3 * ham.num_terms)
    for n in (1, 2, 3):
        assert plan.steps[n * ham.num_terms - 1].epsilon_after <= epsilon_bound(ham, full_order_levels(ham, n))


def test_full_order_epsilon_matches_partial_exponential_series():
    ham = uniform_hamiltonian(4, alpha=0.91)
    for n in range(0, 9):
        expected = 2.0 - sum(LN2**k / math.factorial(k) for k in range(n + 1))
        assert epsilon_bound(ham, full_order_levels(ham, n)) == pytest.approx(
            expected, abs=1e-12
        )


def test_bound_decay_with_order():
    rng = np.random.default_rng(41)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(2, 20)))
        for n in range(1, 11):
            assert epsilon_bound(ham, full_order_levels(ham, n)) <= 2 * LN2**n / math.factorial(n)


def enumerate_vectors(budget: int, num_terms: int):
    """All contiguous truncation vectors of exactly the given cost."""
    if budget == 0:
        yield ()
        return
    for first in range(1, min(num_terms, budget) + 1):
        for rest in enumerate_vectors(budget - first, num_terms):
            yield (first,) + rest


def test_greedy_matches_exhaustive_minimum_on_small_instances():
    rng = np.random.default_rng(43)
    worst = 1.0
    for _ in range(10):
        ham = random_pauli_hamiltonian(rng, 2, int(rng.integers(2, 5)))
        for budget in range(1, 7):
            greedy_eps = epsilon_bound(ham, greedy_plan(ham, budget=budget).final)
            best_eps = min(
                epsilon_bound(ham, vec) for vec in enumerate_vectors(budget, ham.num_terms)
            )
            ratio = greedy_eps / best_eps if best_eps > 0 else 1.0
            assert ratio >= 1.0 - 1e-12
            worst = max(worst, ratio)
    # recorded, not asserted tight: greedy is expected near the optimum
    print(f"greedy/exhaustive bound ratio, worst observed: {worst:.12f}")
    assert worst < 1.5


@st.composite
def _small_weight_sets(draw, max_count=5):
    """2 to ``max_count`` weights: log-uniform over up to 8 decades, uniform on (0, 1], or two scales."""
    count = draw(st.integers(2, max_count))
    kind = draw(st.sampled_from(("log-uniform", "uniform", "two-scale")))
    if kind == "log-uniform":
        decades = draw(st.floats(0.0, 8.0))
        return draw(st.lists(st.floats(0.0, decades).map(lambda e: 10.0**-e), min_size=count, max_size=count))
    if kind == "uniform":
        return draw(st.lists(st.floats(1e-3, 1.0), min_size=count, max_size=count))
    small = 10.0 ** -draw(st.floats(1.0, 6.0))
    return [draw(st.floats(0.5, 1.0)) * draw(st.sampled_from((1.0, small))) for _ in range(count)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="greedy is not optimal at every cost: at cost 5 it holds (4, 1), epsilon 0.118473, "
    "where (2, 2, 1) reaches 0.117727, confirmed by the 50-digit omitted-mass oracle",
)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(_small_weight_sets())
@example([0.01, 0.01, 10.0**-1.4375, 10.0**-0.6875])
def test_greedy_minimises_the_bound_at_every_cost(weights):
    text = "".join(f"{w!r} {'ZX'[i % 2]}{'ZXY'[i // 2]}\n" for i, w in enumerate(weights))
    ham = parse_hamiltonian(text)
    top = min(3 * ham.num_terms, 12)
    plan = greedy_plan(ham, budget=top)
    for cost in range(1, top + 1):
        best = min(epsilon_bound(ham, vec) for vec in enumerate_vectors(cost, ham.num_terms))
        assert plan.steps[cost - 1].epsilon_after <= best * (1 + 1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_small_weight_sets(max_count=8))
def test_the_exact_optimum_is_at_most_greedy_and_is_the_bound_of_its_own_vector(weights):
    ham = parse_hamiltonian("".join(f"{w!r} {'IXYZ'[i % 4]}{'XZ'[i // 4]}\n" for i, w in enumerate(weights)))
    top = 3 * ham.num_terms
    optimum = optimal_bound_oracle(weights, top)
    plan = greedy_plan(ham, budget=top)
    for cost in range(1, top + 1):
        epsilon, levels = optimum[cost]
        assert epsilon <= plan.steps[cost - 1].epsilon_after * (1 + 1e-12)
        assert epsilon_bound(ham, levels) == pytest.approx(epsilon, rel=1e-13, abs=0)
        if cost <= 12:
            brute_force = min(epsilon_bound(ham, vec) for vec in enumerate_vectors(cost, ham.num_terms))
            assert epsilon == pytest.approx(brute_force, rel=1e-13, abs=0)


def test_the_exact_optimum_beats_greedy_on_the_pinned_counterexample():
    weights = [0.01, 0.01, 10.0**-1.4375, 10.0**-0.6875]
    optimum = optimal_bound_oracle(weights, 6)
    assert optimum[5] == (0.11772678164699232, (2, 2, 1))
    assert optimum[6][1] == (3, 2, 1)
    ham = parse_hamiltonian("".join(f"{w!r} {'IXYZ'[i]}Z\n" for i, w in enumerate(weights)))
    plan = greedy_plan(ham, budget=6)
    assert [levels_at_cost(plan, cost).levels for cost in (5, 6)] == [(4, 1), (4, 1, 1)]
    assert plan.steps[4].epsilon_after > optimum[5][0] and plan.steps[5].epsilon_after > optimum[6][0]


def test_step_size_choice_is_first_order_equivalent():
    # The bound at the exact root step size, exp(Lambda * t_root) - 2, and the
    # bound at t_infinity agree to first order: their relative difference
    # shrinks with the bound itself and vanishes for deep expansions.
    rng = np.random.default_rng(47)
    for _ in range(5):
        ham = random_pauli_hamiltonian(rng, 3, int(rng.integers(3, 9)))
        relative = []
        for n in range(1, 9):
            vec = full_order_levels(ham, n)
            eps = epsilon_bound(ham, vec)
            root = solve_t_root(ham, vec)
            eps_at_root = math.exp(ham.lambda_total * root) - 2.0
            relative.append(abs(eps_at_root - eps) / eps)
        assert all(b < a for a, b in zip(relative, relative[1:]))
        assert relative[-1] < 1e-4
