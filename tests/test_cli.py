"""End-to-end command-line behavior, including exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import lcutrunc
from lcutrunc.cli import build_parser, main
from lcutrunc.hamiltonian import SortedHamiltonian, format_term_list, logspread_hamiltonian, parse_hamiltonian
from lcutrunc.planner import epsilon_bound, greedy_plan

from conftest import DATA_DIR
from util import omitted_mass_oracle, step_error_oracle

TWO_TERM = "1.0 ZI\n0.1 XX\n"


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "ham.txt"
    path.write_text(TWO_TERM)
    return path


def test_plan_json(ham_file, tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", "--hamiltonian", str(ham_file), "--budget", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["final_levels"] == [2, 1]
    assert [step["k"] for step in payload["steps"]] == [1, 2, 1]


def test_plan_csv_and_target(ham_file, tmp_path):
    out = tmp_path / "plan.csv"
    code = main(
        ["plan", "--hamiltonian", str(ham_file), "--target-epsilon", "0.1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,k,gain,epsilon,cost"
    assert len(lines) == 4


def test_plan_requires_exactly_one_stop(ham_file, capsys):
    assert main(["plan", "--hamiltonian", str(ham_file)]) == 2
    assert main(["plan", "--hamiltonian", str(ham_file), "--budget", "2", "--target-epsilon", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_bound_command(ham_file, tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "--hamiltonian", str(ham_file), "--levels", "2,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cost"] == 3
    assert payload["epsilon"] == pytest.approx(0.0884650858408722, abs=1e-12)
    assert payload["t_root"] == pytest.approx(0.6787441193290351, abs=1e-9)


@pytest.mark.parametrize("levels", ["0", "0,1"])
def test_bound_with_an_empty_first_order_has_no_t_root(ham_file, capsys, levels):
    # s(t) = 1 for both vectors: every product past order 1 takes the empty first order
    assert main(["bound", "--hamiltonian", str(ham_file), "--levels", levels]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t_root"] is None and payload["s_at_t_infinity"] == 1.0


def test_bound_with_order_to_stdout(ham_file, capsys):
    assert main(["bound", "--hamiltonian", str(ham_file), "--order", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [2, 2]


# bound on full orders deep past where the order weights underflow to 0.0: the
# bytes written when every weight up to the last order was computed
PINNED_DEEP_ORDER_SHA256 = {
    "250": "d36e97b0faed174e172a08a293dbd91b7099c2c9f1a31ccd74f496edb0efc29c",
    "100000": "aa78114410074968f571ed5aec36030adb2487f297dd7d4e6dfcd896a72419a9",
}


@pytest.mark.parametrize("order", PINNED_DEEP_ORDER_SHA256)
def test_bound_on_a_deep_full_order_is_pinned(ham_file, monkeypatch, order):
    monkeypatch.chdir(ham_file.parent)
    assert main(["bound", "--hamiltonian", ham_file.name, "--order", order, "--out", "bound.json"]) == 0
    assert hashlib.sha256(Path("bound.json").read_bytes()).hexdigest() == PINNED_DEEP_ORDER_SHA256[order]


@pytest.mark.parametrize(
    "name, levels",
    [("ham.txt", "2,1"), ("ham.txt", "0"), ("ham.txt", "0,1"), ('we"ird\\ \u00e9.txt', "1,0,2")],
    ids=["two-orders", "empty", "empty-first-order", "escaped-label"],
)
def test_bound_writes_the_bytes_of_the_stdlib_encoder(tmp_path, capsys, name, levels):
    path = tmp_path / name
    path.write_text(TWO_TERM)
    assert main(["bound", "--hamiltonian", str(path), "--levels", levels]) == 0
    ham = parse_hamiltonian(TWO_TERM, label=str(path))
    vec = lcutrunc.TruncationVector.from_levels(int(v) for v in levels.split(","))
    t_inf = lcutrunc.t_infinity(ham)
    payload = {
        "hamiltonian": str(path),
        "levels": list(vec.levels),
        "cost": vec.cost,
        "kappa": sum(1 for v in vec.levels if v > 0),
        "lambda_total": ham.lambda_total,
        "t_infinity": t_inf,
        "s_at_t_infinity": lcutrunc.s_value(ham, vec, t_inf),
        "epsilon": epsilon_bound(ham, vec),
        "t_root": lcutrunc.solve_t_root(ham, vec) if vec.level(1) else None,
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_a_budget_past_a_bound_of_zero_ends_at_that_vector(tmp_path, capsys):
    # one term's bound reaches 0.0 at cost 165, where no insertion gains anything
    path = tmp_path / "z.txt"
    path.write_text("1.0 Z\n")
    assert main(["bound", "--hamiltonian", str(path), "--budget", "200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [1] * 165 and payload["cost"] == 165 and payload["epsilon"] == 0.0
    out = tmp_path / "compare.json"
    assert main(["compare", "--hamiltonian", str(path), "--n-max", "200", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [row["eps_greedy"] for row in rows[164:]] == [0.0] * 36
    assert rows[163]["eps_greedy"] > 0.0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "e408f25e308de6bd25d2b4d230004909401b7eed20c6791fcb1fa3a4d4b09c65"


@pytest.mark.parametrize("n_max", ["0", "201", "100000000000000000000"])
def test_an_n_max_outside_1_to_200_exits_2_at_once_with_one_error_line(tmp_path, capsys, n_max):
    # the bound reads orders up to 200, and every Hamiltonian's eps_full is 0.0 from about order 166 on
    path, out = tmp_path / "z.txt", tmp_path / "compare.csv"
    path.write_text("1.0 Z\n")
    start = time.perf_counter()
    assert main(["compare", "--hamiltonian", str(path), "--n-max", n_max, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: n_max must be from 1 to 200, got {n_max}\n")
    assert not out.exists()


def _parse_outcome(parser, argv, capsys):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``, or its namespace without the runner."""
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()
    return args.pop("run").__name__, args, *capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["plan", "--help"],
        ["gen-logspread", "--help"],
        ["bound", "--hamiltonian", "h.txt", "--order", "2", "--colour"],
        ["bound", "--hamiltonian", "h.txt", "--order", "x"],
        ["resources", "--order", "2"],
        ["compare", "--hamiltonian", "h.txt", "--n-max", "3", "--dense"],
    ],
    ids=["help", "plan-help", "gen-logspread-help", "unrecognized", "bad-order", "no-hamiltonian", "parses"],
)
def test_the_one_command_parser_reads_and_reports_as_the_full_parser(argv, capsys):
    assert _parse_outcome(build_parser(argv[0]), argv, capsys) == _parse_outcome(build_parser(), argv, capsys)
    assert build_parser(argv[0]).format_usage() == build_parser().format_usage()


def test_simulate_single_step(ham_file, tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--hamiltonian", str(ham_file), "--levels", "2,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["delta"] <= payload["epsilon"] + 2 * payload["epsilon"] ** 2
    assert payload["r_steps"] == []


def test_simulate_multi_step_csv(ham_file, tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--hamiltonian", str(ham_file), "--budget", "3", "--r-max", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5


def test_simulate_output_off_full_order_is_pinned_to_exact_bytes(ham_file, tmp_path):
    # (2, 1) is not a full order, so it takes the series, amplification and dense
    # norm path, whose bytes must not move when the full-order path changes; at
    # r = 1, 2 and 3 step_error_oracle gives 0.040911143987554996,
    # 0.078244031866028969 and 0.11173979570958065
    expected = (
        '{\n  "levels": [\n    2,\n    1\n  ],\n  "cost": 3,\n'
        '  "epsilon": 0.0884650858408722,\n  "delta": 0.040911143987554986,\n  "r_steps": [\n'
        '    {\n      "r": 1,\n      "error": 0.040911143987554986\n    },\n'
        '    {\n      "r": 2,\n      "error": 0.07824403186602903\n    },\n'
        '    {\n      "r": 3,\n      "error": 0.11173979570958069\n    }\n  ]\n}\n'
    )
    out = tmp_path / "sim.json"
    argv = ["simulate", "--hamiltonian", str(ham_file), "--levels", "2,1", "--r-max", "3", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("r_max", ["0", "-3"])
def test_simulate_rejects_r_max_below_one(ham_file, r_max, capsys):
    assert main(["simulate", "--hamiltonian", str(ham_file), "--levels", "1", "--r-max", r_max]) == 2
    assert "r_max must be at least 1" in capsys.readouterr().err


def test_simulate_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", "1")
    path = tmp_path / "ham.txt"
    path.write_text(TWO_TERM)
    assert main(["simulate", "--hamiltonian", str(path), "--levels", "1"]) == 3


@pytest.mark.parametrize("command", ["bound", "simulate", "resources"])
def test_a_huge_order_exits_3_out_of_memory_with_one_error_line(ham_file, tmp_path, capsys, command):
    # a full-order vector holds one level per order; 10**15 of them fail to allocate at once,
    # and 10**20 is past the largest index of a tuple
    out = tmp_path / "result.json"
    for order in ("1000000000000000", "100000000000000000000"):
        assert main([command, "--hamiltonian", str(ham_file), "--order", order, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: out of memory; request a smaller size\n"
        assert not out.exists()


def _readme_input(tmp_path) -> Path:
    """The README's ``H.txt``: 32 terms on 3 qubits, weights over 3 decades."""
    path = tmp_path / "H.txt"
    argv = ["gen-logspread", "--terms", "32", "--decades", "3", "--qubits", "3", "--seed", "1", "--out", str(path)]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize("levels", [("--budget", "12"), ("--order", "2")], ids=["repeated-products", "full-order"])
def test_a_huge_r_max_exits_3_at_once_with_one_error_line(tmp_path, monkeypatch, capsys, levels):
    # one measured error per step: 10**12 of them take more memory than any desk machine has,
    # and 10**20 is past the largest index of a list; neither starts the dense work
    import lcutrunc.densesim as densesim_module

    def no_work(*args, **kwargs):
        raise AssertionError("started measuring errors that cannot be held")

    path, out = _readme_input(tmp_path), tmp_path / "errors.json"
    monkeypatch.setattr(densesim_module, "_StepErrors", no_work)
    for r_max in ("1000000000000", "100000000000000000000"):
        start = time.perf_counter()
        assert main(["simulate", "--hamiltonian", str(path), *levels, "--r-max", r_max, "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: out of memory; request a smaller size\n"
        assert not out.exists()


def test_compare_bounds_only(ham_file, tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--hamiltonian", str(ham_file), "--n-max", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n,cost,eps_full,eps_greedy,bound_ratio")
    assert len(lines) == 4


def test_compare_dense_json(ham_file, tmp_path):
    out = tmp_path / "cmp.json"
    code = main(
        ["compare", "--hamiltonian", str(ham_file), "--n-max", "2", "--dense", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert all(row["delta_full"] is not None for row in rows)


def test_compare_dense_degrades_over_cap(ham_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", "1")
    out = tmp_path / "cmp.json"
    code = main(
        ["compare", "--hamiltonian", str(ham_file), "--n-max", "2", "--dense", "--out", str(out)]
    )
    assert code == 0
    assert "bounds only" in capsys.readouterr().err
    rows = json.loads(out.read_text())
    assert all(row["delta_full"] is None for row in rows)


def test_resources_command(ham_file, tmp_path):
    out = tmp_path / "res.json"
    assert main(["resources", "--hamiltonian", str(ham_file), "--levels", "2,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["t_proxy"] == 3
    assert payload["c_widths"] == [1, 0]


def test_gen_random_round_trips(ham_file, tmp_path):
    out = tmp_path / "random.txt"
    code = main(
        ["gen-random", "--template", str(ham_file), "--mu", "1.0", "--sigma", "0.1",
         "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    generated = parse_hamiltonian(out.read_text())
    assert generated.num_terms == 2
    assert {t.op.axes for t in generated.terms} == {"ZI", "XX"}


def test_gen_logspread(tmp_path):
    out = tmp_path / "spread.txt"
    code = main(
        ["gen-logspread", "--terms", "8", "--decades", "2", "--qubits", "2",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    generated = parse_hamiltonian(out.read_text())
    assert generated.num_terms == 8
    assert generated.terms[0].alpha == 1.0


@pytest.mark.parametrize(
    "decades, message",
    [
        ("nan", "decades must be finite and nonnegative, got nan"),
        ("inf", "decades must be finite and nonnegative, got inf"),
        ("1e6", "decades 1000000.0 is too large"),
        ("20", "decades 20.0 is too large"),
    ],
)
def test_gen_logspread_rejects_bad_decades(tmp_path, capsys, decades, message):
    out = tmp_path / "spread.txt"
    argv = ["gen-logspread", "--terms", "4", "--qubits", "2", "--seed", "1", "--decades", decades, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--mu", "nan", "mu must be finite, got nan"),
        ("--mu", "inf", "mu must be finite, got inf"),
        ("--sigma", "nan", "sigma must be finite and nonnegative, got nan"),
        ("--sigma", "inf", "sigma must be finite and nonnegative, got inf"),
    ],
)
def test_gen_random_rejects_non_finite_parameters(ham_file, tmp_path, capsys, option, value, message):
    out = tmp_path / "random.txt"
    assert main(["gen-random", "--template", str(ham_file), "--seed", "1", option, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gen_random_rejects_zero_mu_and_sigma(ham_file, tmp_path, capsys):
    out = tmp_path / "random.txt"
    argv = ["gen-random", "--template", str(ham_file), "--seed", "1", "--mu", "0", "--sigma", "0", "--out", str(out)]
    assert main(argv) == 2
    assert "mu and sigma are both 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_random_rejects_weights_that_parsing_would_drop(tmp_path, capsys):
    # the drop threshold is relative to the largest weight: 15 weights of 1e-16 parse back whole
    out = tmp_path / "random.txt"
    template = str(DATA_DIR / "h2_sto3g.txt")
    argv = ["gen-random", "--template", template, "--mu", "1e-16", "--sigma", "0", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    assert parse_hamiltonian(out.read_text()).num_terms == 15
    # a subnormal sigma draws exact zeros beside 5e-324
    out = tmp_path / "zeros.txt"
    argv = ["gen-random", "--template", template, "--mu", "0", "--sigma", "5e-324", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mu 0.0 and sigma 5e-324 drew the weight 0.0" in err and "dropped on parsing" in err
    assert not out.exists()


def test_gen_random_names_an_infinite_draw_not_the_drop_rule(ham_file, tmp_path, capsys):
    out = tmp_path / "random.txt"
    argv = ["gen-random", "--template", str(ham_file), "--mu", "1e308", "--sigma", "1e308", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: mu 1e+308 and sigma 1e+308 drew a weight past the largest float\n"
    assert not out.exists()


def test_a_hamiltonian_in_joules_plans_as_its_scaled_copy(tmp_path, capsys):
    # bounds and plans do not change under H -> cH, so neither may the drop threshold
    joules, scaled = tmp_path / "joules.txt", tmp_path / "scaled.txt"
    joules.write_text("4.4e-18 ZZ\n1.1e-18 XX\n3e-19 YY\n")
    scaled.write_text("4.4 ZZ\n1.1 XX\n0.3 YY\n")
    plans = []
    for path in (joules, scaled):
        assert main(["plan", "--hamiltonian", str(path), "--budget", "6"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        plans.append(json.loads(captured.out))
    assert plans[0]["final_levels"] == plans[1]["final_levels"]
    for step, scaled_step in zip(plans[0]["steps"], plans[1]["steps"]):
        assert step["k"] == scaled_step["k"]
        assert step["epsilon"] == pytest.approx(scaled_step["epsilon"], rel=1e-14, abs=0)


def test_gen_random_rejects_a_negative_seed_naming_it(ham_file, tmp_path, capsys):
    out = tmp_path / "random.txt"
    argv = ["gen-random", "--template", str(ham_file), "--mu", "1.0", "--sigma", "0.1", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_gen_logspread_draws_on_31_qubits(tmp_path):
    out = tmp_path / "spread.txt"
    argv = ["gen-logspread", "--terms", "4", "--decades", "1", "--qubits", "31", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    assert {len(term.op) for term in parse_hamiltonian(out.read_text()).terms} == {31}


def test_gen_logspread_rejects_32_qubits_naming_the_value(tmp_path, capsys):
    # 4**32 codes do not fit the int64 draws
    out = tmp_path / "spread.txt"
    argv = ["gen-logspread", "--terms", "4", "--decades", "1", "--qubits", "32", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: qubit_count must be from 1 to 31, got 32\n"
    assert not out.exists()


def test_gen_logspread_rejects_a_negative_seed_naming_it(tmp_path, capsys):
    out = tmp_path / "spread.txt"
    argv = ["gen-logspread", "--terms", "4", "--decades", "1", "--qubits", "2", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["bound", "--order", "2"], ["plan", "--budget", "3"], ["simulate", "--levels", "1"]])
def test_overflowing_weight_sum_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "big.txt"
    path.write_text("1.0 ZZ\n1e308 XX\n1e308 YY\n")
    out = tmp_path / "out.json"
    assert main([argv[0], "--hamiltonian", str(path), *argv[1:], "--out", str(out)]) == 2
    assert "weights sum to inf" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_input_error(tmp_path, capsys):
    # each error line names the path once
    for path, reason in [(tmp_path / "nope.txt", "No such file or directory"), (tmp_path, "Is a directory")]:
        assert main(["plan", "--hamiltonian", str(path), "--budget", "1"]) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"


def test_input_that_is_not_utf8_is_an_input_error_naming_the_path(tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe1\x00 \x00Z\x00")
    assert main(["bound", "--hamiltonian", str(path), "--order", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
    assert err.count(str(path)) == 1


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("garbage line\n")
    assert main(["bound", "--hamiltonian", str(path), "--order", "1"]) == 2


def test_unreachable_target_is_convergence_error(tmp_path, capsys):
    # 5e-324 lies below what double precision resolves for this input: no gain is above 0.0 at cost 3287
    path = tmp_path / "ham.txt"
    path.write_text(format_term_list(logspread_hamiltonian(20, 3, 6, seed=1)))
    out = tmp_path / "plan.json"
    assert main(["plan", "--hamiltonian", str(path), "--target-epsilon", "5e-324", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: no insertion improves the bound in double precision; stopped at cost 3287\n"
    # the plan runs before the output file opens, so a failed plan leaves none
    assert not out.exists()


def test_the_readme_input_plans_to_a_target_past_64_steps_a_term(tmp_path):
    # the README's H.txt, 32 terms, reaches 1e-300 at cost 4946
    path, out = tmp_path / "H.txt", tmp_path / "deep.json"
    argv = ["gen-logspread", "--terms", "32", "--decades", "3", "--qubits", "3", "--seed", "1", "--out", str(path)]
    assert main(argv) == 0
    assert main(["plan", "--hamiltonian", str(path), "--target-epsilon", "1e-300", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    epsilons = [step["epsilon"] for step in payload["steps"]]
    assert len(epsilons) == 4946
    assert epsilons[-1] <= 1e-300 < epsilons[-2]
    assert epsilons[-1] == epsilon_bound(parse_hamiltonian(path.read_text()), payload["final_levels"])


def test_compare_past_the_greedy_runs_stall_repeats_its_last_vector_and_bound(tmp_path, capsys):
    # the greedy run to cost n_max * 32 stalls at cost 5258, where no gain is above 0.0 and the
    # bound is 1e-323; every row past it takes that vector and bound, and --n-max 165 to 200 exit 0
    path = _readme_input(tmp_path)
    lines = {}
    for n_max in ("164", "165", "200"):
        out = tmp_path / f"compare_{n_max}.csv"
        assert main(["compare", "--hamiltonian", str(path), "--n-max", n_max, "--out", str(out)]) == 0
        lines[n_max] = out.read_text().splitlines()
    assert lines["200"][:165] == lines["164"] and lines["200"][:166] == lines["165"]
    stalled = [dict(zip(lines["200"][0].split(","), line.split(","))) for line in lines["200"][165:]]
    assert [row["n"] for row in stalled] == [str(n) for n in range(165, 201)]
    assert all(row["eps_greedy"] == "1e-323" and row["cost_saving_in_orders"] == "" for row in stalled)
    assert greedy_plan(parse_hamiltonian(path.read_text()), budget=5258).epsilons[-1] == 1e-323
    # measured too, every row past the stall measures the same vector as row 165
    out = tmp_path / "compare_dense.csv"
    assert main(["compare", "--hamiltonian", str(path), "--n-max", "200", "--dense", "--out", str(out)]) == 0
    dense = [line.split(",") for line in out.read_text().splitlines()[165:]]
    assert len(dense) == 36 and {row[6] for row in dense} == {dense[0][6]} != {""}
    # a budget run that cannot be spent there is still an error
    assert main(["bound", "--hamiltonian", str(path), "--budget", "6000"]) == 4
    err = capsys.readouterr().err
    assert err == "error: no insertion improves the bound in double precision; stopped at cost 5258\n"


_SUBNORMAL_INPUTS = {"1e-320": "1e-320 Z\n", "3e-309": "3e-309 Z\n1e-309 X\n"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--hamiltonian", "{}", "--order", "2"],
        ["plan", "--hamiltonian", "{}", "--budget", "3"],
        ["plan", "--hamiltonian", "{}", "--target-epsilon", "0.1"],
        ["compare", "--hamiltonian", "{}", "--n-max", "2"],
        ["simulate", "--hamiltonian", "{}", "--order", "1"],
        ["resources", "--hamiltonian", "{}", "--order", "1"],
        ["gen-random", "--template", "{}", "--seed", "1"],
    ],
    ids=lambda argv: argv[0] + argv[3],
)
@pytest.mark.parametrize("weight", _SUBNORMAL_INPUTS)
def test_a_subnormal_largest_weight_exits_2_with_one_error_line(tmp_path, capsys, argv, weight):
    # t_inf = ln 2 / Lambda would overflow and every command print inf or nan
    path = tmp_path / "tiny.txt"
    path.write_text(_SUBNORMAL_INPUTS[weight])
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the largest weight {weight} is subnormal, below 2.2250738585072014e-308\n"


def test_gen_random_rejects_a_subnormal_mu(ham_file, tmp_path, capsys):
    out = tmp_path / "random.txt"
    argv = ["gen-random", "--template", str(ham_file), "--mu", "1e-320", "--sigma", "0", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: the largest weight 1e-320 is subnormal, below 2.2250738585072014e-308\n"
    assert not out.exists()


def test_the_smallest_normal_weight_prints_finite_numbers(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text("2.2250738585072014e-308 Z\n")
    assert main(["bound", "--hamiltonian", str(path), "--order", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t_root"] > 0.0
    assert all(math.isfinite(value) for value in payload.values() if isinstance(value, float))


def test_simulate_off_full_order_at_the_smallest_weights_matches_the_oracle(tmp_path, capsys):
    # Lambda = 1.1e-300 puts t_inf near 6e299; (1,) is not a full order, so the dense
    # path forms exp(-iH t_inf) and the errors come out as on the unit-scale pair
    path = tmp_path / "tiny.txt"
    path.write_text("1e-300 Z\n1e-301 X\n")
    assert main(["simulate", "--hamiltonian", str(path), "--levels", "1", "--r-max", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    errors = [step["error"] for step in json.loads(captured.out)["r_steps"]]
    oracle = step_error_oracle(parse_hamiltonian(path.read_text()), (1,), 2)
    assert all(abs(error - float(exact)) <= 1e-15 for error, exact in zip(errors, oracle, strict=True))


def test_bad_levels_string(ham_file):
    assert main(["bound", "--hamiltonian", str(ham_file), "--levels", "2;1"]) == 2


@pytest.mark.parametrize(
    "argv, qubit_cap, message",
    [
        (["bound"], None, "specify exactly one of --levels, --order, --budget"),
        (["bound", "--order", "1", "--budget", "2"], None, "specify exactly one of --levels, --order, --budget"),
        (["bound", "--order", "-1"], None, "order must be nonnegative"),
        (["simulate", "--order", "1"], "abc", "LCUTRUNC_QUBIT_CAP must be an integer, got 'abc'"),
    ],
)
def test_bad_levels_options_and_cap_setting_exit_2_with_one_error_line(
    ham_file, monkeypatch, capsys, argv, qubit_cap, message
):
    if qubit_cap is not None:
        monkeypatch.setenv("LCUTRUNC_QUBIT_CAP", qubit_cap)
    assert main([argv[0], "--hamiltonian", str(ham_file), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["bound", "simulate", "resources"])
@pytest.mark.parametrize("levels", ["0", "0,3", "3,0", "2,0,1", ""])
def test_degenerate_levels_end_in_a_known_exit_code(ham_file, command, levels):
    assert main([command, "--hamiltonian", str(ham_file), "--levels", levels]) in (0, 2, 3, 4)


@pytest.mark.parametrize("command", ["bound", "simulate", "resources"])
@pytest.mark.parametrize("levels", ["2,0,5", "3"])
def test_levels_above_the_term_count_are_input_errors(ham_file, command, levels, capsys):
    # a level after an empty order is checked too, though no sum reaches it
    assert main([command, "--hamiltonian", str(ham_file), "--levels", levels]) == 2
    assert "outside 0..2, the term count" in capsys.readouterr().err


def test_plan_outputs_are_pinned_to_exact_bytes(ham_file, tmp_path, monkeypatch):
    monkeypatch.chdir(ham_file.parent)
    expected = {
        "plan.csv": (
            "step,k,gain,epsilon,cost\n"
            "1,1,0.6301338005090411,0.3698661994909587,1\n"
            "2,2,0.19853430327198401,0.1713318962189747,2\n"
            "3,1,0.0828668103781025,0.0884650858408722,3\n"
        ),
        "plan.json": (
            '{\n  "hamiltonian": "ham.txt",\n  "t": 0.6301338005090411,\n  "steps": [\n'
            '    {\n      "k": 1,\n      "gain": 0.6301338005090411,\n'
            '      "epsilon": 0.3698661994909587,\n      "cost": 1\n    },\n'
            '    {\n      "k": 2,\n      "gain": 0.19853430327198401,\n'
            '      "epsilon": 0.1713318962189747,\n      "cost": 2\n    },\n'
            '    {\n      "k": 1,\n      "gain": 0.0828668103781025,\n'
            '      "epsilon": 0.0884650858408722,\n      "cost": 3\n    }\n  ],\n'
            '  "final_levels": [\n    2,\n    1\n  ]\n}\n'
        ),
    }
    for filename, text in expected.items():
        out = tmp_path / filename
        assert main(["plan", "--hamiltonian", ham_file.name, "--budget", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode(), filename
    pinned = {(1,): 0.3698661994909587, (1, 1): 0.1713318962189747, (2, 1): 0.0884650858408722}
    for levels, epsilon in pinned.items():
        exact = omitted_mass_oracle(TWO_TERM, levels)
        assert abs(Decimal(epsilon) - exact) <= Decimal("4e-16") * exact, levels
    # closer than the 0.08846508584087237 that subtracting gains from 1.0 printed
    exact = omitted_mass_oracle(TWO_TERM, (2, 1))
    assert abs(Decimal(0.0884650858408722) - exact) < abs(Decimal(0.08846508584087237) - exact)


PINNED_PLAN_LARGE_SMALL = {
    "plan_budget.csv": ["plan", "--budget", "800"],
    "plan_target.json": ["plan", "--target-epsilon", "1e-10"],
    "bound.json": ["bound", "--budget", "800"],
    "resources.json": ["resources", "--budget", "800"],
    "compare.csv": ["compare", "--n-max", "3"],
    "compare.json": ["compare", "--n-max", "3"],
}
# outputs too large to keep under tests/data: 1,819 recorded steps, 223 KB
PINNED_SHA256 = {"plan_target.json": "8a6579f23edc8fdd1ed0c1dc87cac0e51c471b27ab17d56c240ed0029a900799"}


@pytest.mark.parametrize("filename", PINNED_PLAN_LARGE_SMALL)
def test_budget_and_compare_outputs_of_the_reduced_plan_large_input_are_pinned(tmp_path, monkeypatch, filename):
    # every recorded step's order, gain, bound and cost, and the runs of the
    # same greedy loop behind --budget and compare
    monkeypatch.chdir(tmp_path)
    Path("plan_large_small.txt").write_text(format_term_list(logspread_hamiltonian(200, 6.0, 8, seed=100)))
    command, *options = PINNED_PLAN_LARGE_SMALL[filename]
    assert main([command, "--hamiltonian", "plan_large_small.txt", *options, "--out", filename]) == 0
    data = Path(filename).read_bytes()
    if filename in PINNED_SHA256:
        assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[filename]
    else:
        assert data == (DATA_DIR / "plan_large_small" / filename).read_bytes()


def _plan_large_small(directory: Path) -> tuple[str, SortedHamiltonian]:
    """The reduced plan-large input written to ``directory``, its path and its parse."""
    path = str(directory / "plan_large_small.txt")
    Path(path).write_text(format_term_list(logspread_hamiltonian(200, 6.0, 8, seed=100)))
    return path, parse_hamiltonian(Path(path).read_text(), label=path)


@pytest.mark.parametrize("out", [None, "plan.json", "plan.csv"])
def test_plan_streams_the_bytes_of_to_json_and_to_csv(tmp_path, capsys, out):
    # without --out the format is JSON, as for every command with formats
    path, hamiltonian = _plan_large_small(tmp_path)
    trace = greedy_plan(hamiltonian, target_epsilon=1e-10)
    argv = ["plan", "--hamiltonian", path, "--target-epsilon", "1e-10"]
    if out is None:
        assert main(argv) == 0
        written = capsys.readouterr().out.encode()
    else:
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
        written = (tmp_path / out).read_bytes()
    expected = trace.to_csv() if out == "plan.csv" else trace.to_json()
    assert written == expected.encode()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plan_holds_less_than_its_output_beyond_the_plan_itself(tmp_path, fmt):
    # the trace is held once; its text is written as it is formatted, never held whole
    path, hamiltonian = _plan_large_small(tmp_path)
    out = tmp_path / f"plan.{fmt}"
    argv = ["plan", "--hamiltonian", path, "--target-epsilon", "1e-10", "--out", str(out)]
    assert main(argv) == 0  # untraced, so the first call's one-time allocations are not counted
    plan_peak = _traced_peak(lambda: greedy_plan(hamiltonian, target_epsilon=1e-10))
    cli_peak = _traced_peak(lambda: main(argv))
    assert cli_peak - plan_peak < out.stat().st_size


def test_plan_reaches_a_target_below_the_cancellation_floor_of_2_minus_s(tmp_path):
    path = tmp_path / "zx.txt"
    path.write_text("1 Z\n0.5 X\n")
    out = tmp_path / "plan.json"
    assert main(["plan", "--hamiltonian", str(path), "--target-epsilon", "1e-18", "--out", str(out)]) == 0
    assert 0.0 < json.loads(out.read_text())["steps"][-1]["epsilon"] <= 1e-18


def test_simulate_rejects_non_hermitian_input_before_building_a_matrix(tmp_path, monkeypatch, capsys):
    import lcutrunc.densesim as densesim_module

    def no_matrix(*args, **kwargs):
        raise AssertionError("built a matrix before checking Hermiticity")

    monkeypatch.setattr(densesim_module, "hamiltonian_matrix", no_matrix)
    path = tmp_path / "anti.txt"
    path.write_text("1 Z\n0.5i X\n")
    # off full order, through exact_evolution; at full order, through the eigenvalues
    for argv in (["simulate", "--levels", "1"], ["simulate", "--order", "1"], ["compare", "--n-max", "2", "--dense"]):
        assert main([argv[0], "--hamiltonian", str(path), *argv[1:]]) == 2, argv
        assert "not Hermitian" in capsys.readouterr().err, argv


def test_unknown_extension_rejected(ham_file, tmp_path):
    assert main(["plan", "--hamiltonian", str(ham_file), "--budget", "1",
                 "--out", str(tmp_path / "plan.xml")]) == 2


@pytest.mark.parametrize("where", ["missing-directory", "directory-in-the-way", "file-in-the-way"])
def test_unwritable_out_is_an_input_error(ham_file, tmp_path, capsys, where):
    if where == "missing-directory":
        out, reason = tmp_path / "nonexistent" / "x.json", "No such file or directory"
    elif where == "file-in-the-way":
        out, reason = ham_file / "x.json", "Not a directory"
    else:
        out, reason = tmp_path / "x.json", "Is a directory"
        out.mkdir()
    for argv in (
        ["bound", "--hamiltonian", str(ham_file), "--order", "2"],
        ["gen-logspread", "--terms", "4", "--decades", "1", "--qubits", "2", "--seed", "1"],
    ):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which refuses every write")
def test_a_full_device_is_an_input_error(capsys):
    # the file opens, but writing to it fails; a generator checks no extension, so its output reaches the write
    argv = ["gen-logspread", "--terms", "4", "--decades", "1", "--qubits", "2", "--seed", "1", "--out", "/dev/full"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--budget", "4000"],
        ["bound", "--budget", "4000"],
        ["simulate", "--budget", "4", "--r-max", "3"],
        ["compare", "--n-max", "6", "--dense"],
        ["resources", "--budget", "4000"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_extension_is_checked_before_any_planning(ham_file, tmp_path, monkeypatch, capsys, argv):
    import lcutrunc.densesim as densesim_module
    import lcutrunc.planner as planner_module
    import lcutrunc.report as report_module

    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    # the greedy kernel runs behind greedy_plan, --budget and compare alike
    monkeypatch.setattr(planner_module, "_greedy", no_work)
    monkeypatch.setattr(report_module, "_greedy_loop", no_work)
    monkeypatch.setattr(densesim_module, "hamiltonian_matrix", no_work)
    for out, message in [
        (tmp_path / "result.txt", "output extension 'txt' not supported"),
        (tmp_path / "missing" / "result.json", "No such file or directory"),
    ]:
        assert main([argv[0], "--hamiltonian", str(ham_file), *argv[1:], "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_parse_warnings_print_as_warning_lines_before_errors(tmp_path, capsys):
    path = tmp_path / "repeated.txt"
    path.write_text("1.0 ZI\n0.1 XX\n0.2 ZI\n")
    assert main(["bound", "--hamiltonian", str(path), "--order", "1"]) == 0
    err = capsys.readouterr().err
    assert err == "warning: merged repeated lines of 1 Pauli string(s) by summing their coefficients\n"
    assert "UserWarning" not in err and ".py:" not in err

    assert main(["bound", "--hamiltonian", str(path), "--levels", "3"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["warning", "error"]


def _fresh_interpreter_env() -> dict:
    """The environment of a fresh interpreter that imports this ``lcutrunc``."""
    src = str(Path(lcutrunc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_the_generators_load_no_analysis_layer_and_no_numpy_until_a_dense_call(tmp_path):
    # input generation loads the term-list layer alone; an analysis command or a public name
    # loads every layer at once, so the benchmark's tracer finds them all after one pass
    show = (
        "print(sorted(m for m in sys.modules if m.startswith('lcutrunc.')), 'numpy' in sys.modules, 'json' in sys.modules)"
    )
    generate = "['gen-logspread', '--terms', '8', '--decades', '2', '--qubits', '2', '--seed', '1', '--out', sys.argv[1]]"
    analyse = "['bound', '--hamiltonian', sys.argv[1], '--order', '1', '--out', sys.argv[2]]"
    scripts = (
        f"lcutrunc.cli.main({generate}); {show}\nlcutrunc.cli.main({analyse}); {show}",
        f"lcutrunc.parse_hamiltonian; {show}\n"
        "lcutrunc.verify_identities(lcutrunc.parse_hamiltonian('1.0 ZI\\n0.1 XX'), (1, 1))\n"
        "from lcutrunc import circuitmodel, densesim; import numpy; print(densesim.np is circuitmodel.np is numpy)",
    )
    lines = []
    for script in scripts:
        code = f"import sys, lcutrunc, lcutrunc.cli\n{script}"
        command = [sys.executable, "-c", code, tmp_path / "H.txt", tmp_path / "b.json"]
        result = subprocess.run(command, env=_fresh_interpreter_env(), capture_output=True, text=True, check=True)
        lines += result.stdout.splitlines()
    generated, analysed, accessed, rebound = lines
    assert generated == "['lcutrunc.cli', 'lcutrunc.errors', 'lcutrunc.hamiltonian'] False False"
    layers = ("circuitmodel", "cli", "densesim", "errors", "hamiltonian", "planner", "report")
    every_layer = [f"lcutrunc.{layer}" for layer in layers]
    assert analysed.startswith(f"{every_layer} False ") and accessed.startswith(f"{every_layer} False ")
    # the first dense call binds the real module in place of the stand-in, which then costs nothing
    assert rebound == "True"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-logspread", "--terms", "200", "--decades", "6", "--qubits", "8", "--seed", "100", "--out", "{}.txt"],
        ["plan", "--hamiltonian", "H.txt", "--target-epsilon", "1e-10", "--out", "{}.json"],
        ["plan", "--hamiltonian", "H.txt", "--budget", "800", "--out", "{}.csv"],
        ["bound", "--hamiltonian", "H.txt", "--budget", "800", "--out", "{}.json"],
        ["resources", "--hamiltonian", "H.txt", "--budget", "800", "--out", "{}.json"],
        ["compare", "--hamiltonian", "H.txt", "--n-max", "3", "--out", "{}.csv"],
    ],
    ids=["gen-logspread", "plan-json", "plan-csv", "bound", "resources", "compare"],
)
def test_planner_commands_write_the_same_bytes_where_numpy_cannot_load(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("H.txt").write_text(format_term_list(logspread_hamiltonian(200, 6.0, 8, seed=100)))
    assert main([arg.format("in_process") for arg in argv]) == 0
    code = "import sys; sys.modules['numpy'] = None; from lcutrunc.cli import main; sys.exit(main(sys.argv[1:]))"
    command = [sys.executable, "-c", code, *(arg.format("fresh") for arg in argv)]
    result = subprocess.run(command, env=_fresh_interpreter_env(), capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    suffix = Path(argv[-1]).suffix
    assert Path(f"fresh{suffix}").read_bytes() == Path(f"in_process{suffix}").read_bytes()


def test_a_closed_stdout_pipe_exits_2_with_one_error_line(tmp_path):
    path, _ = _plan_large_small(tmp_path)
    command = [sys.executable, "-m", "lcutrunc.cli", "plan", "--hamiltonian", path, "--target-epsilon", "1e-10"]
    # the plan's 223 KB outgrow the pipe's buffer, so the plan is still writing when the reader leaves
    with subprocess.Popen(command, env=_fresh_interpreter_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (2, b"error: cannot write stdout: Broken pipe\n")
