"""End-to-end command-line behavior, including exit codes."""

import json

import pytest

from lcutrunc.cli import main
from lcutrunc.hamiltonian import parse_hamiltonian

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
            "1,1,0.6301338005090411,0.3698661994909589,1\n"
            "2,2,0.19853430327198401,0.17133189621897488,2\n"
            "3,1,0.0828668103781025,0.08846508584087237,3\n"
        ),
        "plan.json": (
            '{\n  "hamiltonian": "ham.txt",\n  "t": 0.6301338005090411,\n  "steps": [\n'
            '    {\n      "k": 1,\n      "gain": 0.6301338005090411,\n'
            '      "epsilon": 0.3698661994909589,\n      "cost": 1\n    },\n'
            '    {\n      "k": 2,\n      "gain": 0.19853430327198401,\n'
            '      "epsilon": 0.17133189621897488,\n      "cost": 2\n    },\n'
            '    {\n      "k": 1,\n      "gain": 0.0828668103781025,\n'
            '      "epsilon": 0.08846508584087237,\n      "cost": 3\n    }\n  ],\n'
            '  "final_levels": [\n    2,\n    1\n  ]\n}\n'
        ),
    }
    for filename, text in expected.items():
        out = tmp_path / filename
        assert main(["plan", "--hamiltonian", ham_file.name, "--budget", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode(), filename


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

    monkeypatch.setattr(planner_module, "greedy_plan", no_planning)
    monkeypatch.setattr(report_module, "greedy_plan", no_planning)
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
