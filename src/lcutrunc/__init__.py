"""Planning and verification toolkit for by-weight truncated-Taylor LCU simulation.

The layers load on first use (PEP 562): the first exported name or layer read imports
them all and binds every export, so the CLI's ``gen-*`` commands compile none of them.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "AncillaLayout",
    "CapExceeded",
    "ComparisonRow",
    "ConvergenceError",
    "ErrorReport",
    "HamiltonianTerm",
    "IdentityReport",
    "PauliString",
    "PlanStep",
    "PlanTrace",
    "ResourceEstimate",
    "SortedHamiltonian",
    "TermListError",
    "TruncationVector",
    "amplified_operator",
    "build_prepare",
    "build_select",
    "build_walk_operators",
    "epsilon_bound",
    "estimate_resources",
    "exact_evolution",
    "format_term_list",
    "full_order_levels",
    "generate_comparison_report",
    "greedy_plan",
    "hamiltonian_matrix",
    "insertion_gain",
    "layout_for",
    "logspread_hamiltonian",
    "multi_step_error",
    "operator_norm",
    "parse_hamiltonian",
    "random_hamiltonian",
    "s_value",
    "serialize_report",
    "single_step_error",
    "solve_t_root",
    "t_infinity",
    "truncated_series_operator",
    "verify_identities",
]

_LAYERS = ("errors", "hamiltonian", "planner", "densesim", "circuitmodel", "report")


def _load() -> None:
    """Import every layer and bind every exported name here."""
    for layer in _LAYERS:
        # not ``from . import``: its attribute check would call __getattr__ again
        module = importlib.import_module(f"{__name__}.{layer}")
        globals().update((name, value) for name, value in vars(module).items() if name in __all__)


def __getattr__(name: str):
    if name not in __all__ and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
