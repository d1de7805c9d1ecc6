"""End-to-end command-line behavior, including exit codes."""

import json
from decimal import Decimal
from pathlib import Path

import pytest

from lcutrunc.cli import main
from lcutrunc.hamiltonian import format_term_list, logspread_hamiltonian, parse_hamiltonian

from conftest import DATA_DIR
from util import omitted_mass_oracle

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


def test_bound_with_order_to_stdout(ham_file, capsys):
    assert main(["bound", "--hamiltonian", str(ham_file), "--order", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == [2, 2]


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
    # (2, 1) is not a full order, so it takes the series, amplification and SVD
    # path, whose bytes must not move when the full-order path changes
    expected = (
        '{\n  "levels": [\n    2,\n    1\n  ],\n  "cost": 3,\n'
        '  "epsilon": 0.0884650858408722,\n  "delta": 0.040911143987554965,\n  "r_steps": [\n'
        '    {\n      "r": 1,\n      "error": 0.040911143987554965\n    },\n'
        '    {\n      "r": 2,\n      "error": 0.07824403186602903\n    },\n'
        '    {\n      "r": 3,\n      "error": 0.11173979570958076\n    }\n  ]\n}\n'
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


@pytest.mark.parametrize("argv", [["bound", "--order", "2"], ["plan", "--budget", "3"], ["simulate", "--levels", "1"]])
def test_overflowing_weight_sum_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "big.txt"
    path.write_text("1.0 ZZ\n1e308 XX\n1e308 YY\n")
    out = tmp_path / "out.json"
    assert main([argv[0], "--hamiltonian", str(path), *argv[1:], "--out", str(out)]) == 2
    assert "weights sum to inf" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["plan", "--hamiltonian", str(tmp_path / "nope.txt"), "--budget", "1"]) == 2


def test_malformed_file_is_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("garbage line\n")
    assert main(["bound", "--hamiltonian", str(path), "--order", "1"]) == 2


def test_unreachable_target_is_convergence_error(ham_file, monkeypatch):
    import lcutrunc.planner as planner_module

    monkeypatch.setattr(planner_module, "DEFAULT_COST_CAP_FACTOR", 2)
    assert main(["plan", "--hamiltonian", str(ham_file), "--target-epsilon", "1e-12"]) == 4


def test_bad_levels_string(ham_file):
    assert main(["bound", "--hamiltonian", str(ham_file), "--levels", "2;1"]) == 2


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
    "bound.json": ["bound", "--budget", "800"],
    "resources.json": ["resources", "--budget", "800"],
    "compare.csv": ["compare", "--n-max", "3"],
    "compare.json": ["compare", "--n-max", "3"],
}


@pytest.mark.parametrize("filename", PINNED_PLAN_LARGE_SMALL)
def test_budget_and_compare_outputs_of_the_reduced_plan_large_input_are_pinned(tmp_path, monkeypatch, filename):
    # the greedy runs behind these commands record no gains; their bytes must
    # stay those of the plan that records every gain
    monkeypatch.chdir(tmp_path)
    Path("plan_large_small.txt").write_text(format_term_list(logspread_hamiltonian(200, 6.0, 8, seed=100)))
    command, *options = PINNED_PLAN_LARGE_SMALL[filename]
    assert main([command, "--hamiltonian", "plan_large_small.txt", *options, "--out", filename]) == 0
    assert Path(filename).read_bytes() == (DATA_DIR / "plan_large_small" / filename).read_bytes()


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
    assert main(["simulate", "--hamiltonian", str(path), "--levels", "1"]) == 2
    assert "not Hermitian" in capsys.readouterr().err


def test_unknown_extension_rejected(ham_file, tmp_path):
    assert main(["plan", "--hamiltonian", str(ham_file), "--budget", "1",
                 "--out", str(tmp_path / "plan.xml")]) == 2


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
    import lcutrunc.planner as planner_module
    import lcutrunc.report as report_module

    def no_planning(*args, **kwargs):
        raise AssertionError("planned before checking --out")

    # the greedy kernel runs behind greedy_plan, --budget and compare alike
    monkeypatch.setattr(planner_module, "_greedy", no_planning)
    monkeypatch.setattr(report_module, "_greedy", no_planning)
    out = tmp_path / "result.txt"
    assert main([argv[0], "--hamiltonian", str(ham_file), *argv[1:], "--out", str(out)]) == 2
    assert "output extension 'txt' not supported" in capsys.readouterr().err
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
