"""Command-line front end.

Every command reads a Hamiltonian term-list file and writes its result to
``--out`` (format chosen by extension) or stdout.  Exit codes: 0 success,
2 input error, 3 size cap exceeded, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .errors import CapExceeded, ConvergenceError, TermListError
from .hamiltonian import (
    SortedHamiltonian,
    format_term_list,
    logspread_hamiltonian,
    parse_hamiltonian,
    random_hamiltonian,
)
from . import densesim, planner, report
from .circuitmodel import estimate_resources

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NO_CONVERGENCE = 4


def _load_hamiltonian(path: str) -> SortedHamiltonian:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TermListError(f"cannot read {path}: {exc}") from None
    return parse_hamiltonian(text, label=path)


def _parse_levels(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"--levels expects comma-separated integers, got {spec!r}") from None


def _resolve_levels(args, hamiltonian: SortedHamiltonian) -> planner.TruncationVector:
    given = [args.levels is not None, args.order is not None, args.budget is not None]
    if sum(given) != 1:
        raise ValueError("specify exactly one of --levels, --order, --budget")
    if args.levels is not None:
        return planner.checked_levels(hamiltonian, _parse_levels(args.levels))
    if args.order is not None:
        return planner.full_order_levels(hamiltonian, args.order)
    return planner._greedy(hamiltonian, args.budget, None, record_gains=False)[3]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _format_of(out: str | None, allowed: tuple[str, ...]) -> str:
    if out is None:
        return allowed[0]
    suffix = Path(out).suffix.lstrip(".").lower()
    if suffix not in allowed:
        raise ValueError(f"output extension {suffix!r} not supported; use one of {allowed}")
    return suffix


def _cmd_plan(args) -> int:
    fmt = _format_of(args.out, ("json", "csv"))
    hamiltonian = _load_hamiltonian(args.hamiltonian)
    if (args.budget is None) == (args.target_epsilon is None):
        raise ValueError("specify exactly one of --budget or --target-epsilon")
    trace = planner.greedy_plan(
        hamiltonian, budget=args.budget, target_epsilon=args.target_epsilon
    )
    _emit(trace.to_json() if fmt == "json" else trace.to_csv(), args.out)
    return EXIT_OK


def _cmd_bound(args) -> int:
    import json

    _format_of(args.out, ("json",))
    hamiltonian = _load_hamiltonian(args.hamiltonian)
    levels = _resolve_levels(args, hamiltonian)
    payload = {
        "hamiltonian": hamiltonian.label,
        "levels": list(levels.levels),
        "cost": levels.cost,
        "kappa": levels.kappa,
        "lambda_total": hamiltonian.lambda_total,
        "t_infinity": planner.t_infinity(hamiltonian),
        "s_at_t_infinity": planner.s_value(hamiltonian, levels, planner.t_infinity(hamiltonian)),
        "epsilon": planner.epsilon_bound(hamiltonian, levels),
        "t_root": planner.solve_t_root(hamiltonian, levels) if levels.kappa else None,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    fmt = _format_of(args.out, ("json", "csv"))
    hamiltonian = _load_hamiltonian(args.hamiltonian)
    levels = _resolve_levels(args, hamiltonian)
    if args.r_max == 1:
        result = densesim.single_step_error(hamiltonian, levels)
    else:
        result = densesim.multi_step_error(hamiltonian, levels, args.r_max)
    _emit(result.to_json() if fmt == "json" else result.to_csv(), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    fmt = _format_of(args.out, ("csv", "json"))
    hamiltonian = _load_hamiltonian(args.hamiltonian)
    with_dense = args.dense
    if with_dense:
        try:
            densesim._check_qubits(hamiltonian.qubit_count)
        except CapExceeded as exc:
            warnings.warn(f"{exc}; reporting bounds only")
            with_dense = False
    rows = report.generate_comparison_report(hamiltonian, args.n_max, with_dense=with_dense)
    _emit(report.serialize_report(rows, fmt).decode(), args.out)
    return EXIT_OK


def _cmd_resources(args) -> int:
    _format_of(args.out, ("json",))
    hamiltonian = _load_hamiltonian(args.hamiltonian)
    levels = _resolve_levels(args, hamiltonian)
    _emit(estimate_resources(levels).to_json(), args.out)
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    template = _load_hamiltonian(args.template)
    generated = random_hamiltonian(template, args.mu, args.sigma, args.seed)
    _emit(format_term_list(generated), args.out)
    return EXIT_OK


def _cmd_gen_logspread(args) -> int:
    generated = logspread_hamiltonian(args.terms, args.decades, args.qubits, args.seed)
    _emit(format_term_list(generated), args.out)
    return EXIT_OK


def _add_levels_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--levels", help="comma-separated per-order term counts, e.g. 2,1")
    sub.add_argument("--order", type=int, help="full expansion to this order")
    sub.add_argument("--budget", type=int, help="greedy plan with this gate budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcutrunc",
        description="Plan, bound, and verify by-weight Taylor truncations for LCU simulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="greedy truncation plan")
    plan.add_argument("--hamiltonian", required=True)
    plan.add_argument("--budget", type=int)
    plan.add_argument("--target-epsilon", type=float)
    plan.add_argument("--out")
    plan.set_defaults(func=_cmd_plan)

    bound = commands.add_parser("bound", help="analytic error bound for a truncation")
    bound.add_argument("--hamiltonian", required=True)
    _add_levels_options(bound)
    bound.add_argument("--out")
    bound.set_defaults(func=_cmd_bound)

    simulate = commands.add_parser("simulate", help="measure exact errors densely")
    simulate.add_argument("--hamiltonian", required=True)
    _add_levels_options(simulate)
    simulate.add_argument("--r-max", type=int, default=1, help="measure up to this many repeated steps")
    simulate.add_argument("--out")
    simulate.set_defaults(func=_cmd_simulate)

    compare = commands.add_parser("compare", help="full-order vs greedy at equal cost")
    compare.add_argument("--hamiltonian", required=True)
    compare.add_argument("--n-max", type=int, required=True)
    compare.add_argument("--dense", action="store_true", help="also measure exact errors")
    compare.add_argument("--out")
    compare.set_defaults(func=_cmd_compare)

    resources = commands.add_parser("resources", help="ancilla and gate-count estimates")
    resources.add_argument("--hamiltonian", required=True)
    _add_levels_options(resources)
    resources.add_argument("--out")
    resources.set_defaults(func=_cmd_resources)

    gen_random = commands.add_parser("gen-random", help="template with redrawn random weights")
    gen_random.add_argument("--template", required=True)
    gen_random.add_argument("--mu", type=float, default=1.0)
    gen_random.add_argument("--sigma", type=float, default=0.1)
    gen_random.add_argument("--seed", type=int, required=True)
    gen_random.add_argument("--out")
    gen_random.set_defaults(func=_cmd_gen_random)

    gen_logspread = commands.add_parser("gen-logspread", help="synthetic magnitude-spread Hamiltonian")
    gen_logspread.add_argument("--terms", type=int, required=True)
    gen_logspread.add_argument("--decades", type=float, required=True)
    gen_logspread.add_argument("--qubits", type=int, required=True)
    gen_logspread.add_argument("--seed", type=int, required=True)
    gen_logspread.add_argument("--out")
    gen_logspread.set_defaults(func=_cmd_gen_logspread)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; library warnings print once each as ``warning:`` lines, before any ``error:`` line."""
    args = build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.func(args)
        except (TermListError, ValueError) as exc:
            code, error = EXIT_INPUT, exc
        except CapExceeded as exc:
            code, error = EXIT_CAP, exc
        except ConvergenceError as exc:
            code, error = EXIT_NO_CONVERGENCE, exc
    for message in dict.fromkeys(str(warning.message) for warning in caught):
        sys.stderr.write(f"warning: {message}\n")
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
