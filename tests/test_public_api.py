"""The public API: its exported names and members, and one dense-size setting, ``LCUTRUNC_QUBIT_CAP``."""

import ast
import dataclasses
import inspect
from pathlib import Path

import lcutrunc

SRC = Path(lcutrunc.__file__).resolve().parent

# the whole public surface; a change to the API edits this list, and CHANGES.md records it
EXPORTED = {
    "AncillaLayout": ["ancilla_dim", "c_widths", "kappa", "reflection_ancillas", "total_ancillas"],
    "CapExceeded": [],
    "ComparisonRow": [
        "bound_ratio", "cost", "cost_saving_in_orders", "delta_full", "delta_greedy", "delta_ratio",
        "eps_full", "eps_greedy", "n",
    ],
    "ConvergenceError": [],
    "ErrorReport": ["cost", "delta", "epsilon", "levels", "r_steps", "to_csv", "to_json"],
    "HamiltonianTerm": ["alpha", "coefficient", "op"],
    "IdentityReport": [
        "amplified_block_residual", "levels", "normalization_error", "t", "to_csv", "walk_block_residual",
    ],
    "PauliString": ["axes", "phase"],
    "PlanStep": ["chosen_k", "cost_after", "epsilon_after", "gain"],
    "PlanTrace": ["epsilons", "final", "gains", "hamiltonian_id", "orders", "steps", "t", "to_csv", "to_json"],
    "ResourceEstimate": [
        "layout", "prepare_rotations", "prepare_state_sizes", "select_ops", "t_proxy", "to_json",
    ],
    "SortedHamiltonian": [
        "from_terms", "label", "lambda_total", "num_terms", "prefix", "prefix_lambda", "qubit_count", "terms",
    ],
    "TermListError": [],
    "TruncationVector": ["bump", "cost", "from_levels", "is_contiguous", "kappa", "level", "levels"],
    "amplified_operator": None,
    "build_prepare": None,
    "build_select": None,
    "build_walk_operators": None,
    "epsilon_bound": None,
    "estimate_resources": None,
    "exact_evolution": None,
    "format_term_list": None,
    "full_order_levels": None,
    "generate_comparison_report": None,
    "greedy_plan": None,
    "hamiltonian_matrix": None,
    "insertion_gain": None,
    "layout_for": None,
    "logspread_hamiltonian": None,
    "multi_step_error": None,
    "operator_norm": None,
    "parse_hamiltonian": None,
    "random_hamiltonian": None,
    "s_value": None,
    "serialize_report": None,
    "single_step_error": None,
    "solve_t_root": None,
    "t_infinity": None,
    "truncated_series_operator": None,
    "verify_identities": None,
}


def test_exported_names_and_class_members_are_pinned():
    assert sorted(lcutrunc.__all__) == sorted(EXPORTED)
    for name, members in EXPORTED.items():
        obj = getattr(lcutrunc, name)
        if members is None:
            assert not inspect.isclass(obj), name
            continue
        # a class's own public attributes and its dataclass fields; nothing it inherits
        found = {attribute for attribute in vars(obj) if not attribute.startswith("_")}
        if dataclasses.is_dataclass(obj):
            found |= {field.name for field in dataclasses.fields(obj)}
        assert sorted(found) == members, name


def _public_callables():
    for name in lcutrunc.__all__:
        obj = getattr(lcutrunc, name)
        yield name, obj
        if inspect.isclass(obj):
            for attribute, member in vars(obj).items():
                if not attribute.startswith("_") and callable(member):
                    yield f"{name}.{attribute}", member


def test_no_public_callable_takes_a_cap_parameter():
    found = []
    for name, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found += [f"{name}({parameter})" for parameter in parameters if "cap" in parameter.lower()]
    assert found == []


def test_qubit_cap_is_read_only_by_densesim_qubit_cap():
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        enclosing = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                enclosing[child] = node.name if isinstance(node, ast.FunctionDef) else enclosing.get(node)
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "getenv", "QUBIT_CAP_ENV") and isinstance(node.ctx, ast.Load):
                readers.append(f"{path.stem}.{enclosing.get(node)}")
        if "LCUTRUNC_QUBIT_CAP" in path.read_text():
            assert path.name == "densesim.py"
    assert set(readers) == {"densesim.qubit_cap"}
