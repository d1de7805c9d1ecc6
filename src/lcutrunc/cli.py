"""Command-line front end.

Every command writes its result to ``--out`` (format chosen by extension) or
stdout.  One runner serves them all: it checks the ``--out`` extension and
directory before any work, loads the ``--hamiltonian`` or ``--template`` input
once, runs the command for its text and writes it; only the ``--hamiltonian``
commands import the analysis layers, all at once.  ``plan`` hands over its text
in pieces, one per step, written as they are formatted.  Exit codes: 0 success,
2 input error, 3 size cap exceeded or out of memory, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CapExceeded, ConvergenceError, TermListError
from .hamiltonian import (
    SortedHamiltonian,
    format_term_list,
    logspread_hamiltonian,
    parse_hamiltonian,
    random_hamiltonian,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NO_CONVERGENCE = 4


def _load_hamiltonian(path: str) -> SortedHamiltonian:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TermListError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
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
    return planner._greedy(hamiltonian, args.budget, None)[2]


def _emit(output: str | Iterable[str], out: str | None) -> None:
    """Write ``output``, one string or its pieces in order, to ``out`` or stdout."""
    pieces = [output] if isinstance(output, str) else output
    if out is None:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the reader left: send what is still buffered to devnull, so exit prints no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"cannot write stdout: {exc.strerror}") from None
    else:
        try:
            with open(out, "w") as file:
                file.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _format_of(out: str | None, allowed: tuple[str, ...]) -> str | None:
    """The format named by ``out``'s extension; without ``allowed`` (generators) any extension passes."""
    if out is None or not allowed:
        return allowed[0] if allowed else None
    suffix = Path(out).suffix.lstrip(".").lower()
    if suffix not in allowed:
        raise ValueError(f"output extension {suffix!r} not supported; use one of {allowed}")
    return suffix


def _check_out_directory(out: str | None) -> None:
    """Raise, creating no file, where writing ``out`` is sure to fail."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir() or not path.parent.is_dir():
        reason = errno.EISDIR if path.is_dir() else errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        raise ValueError(f"cannot write {out}: {os.strerror(reason)}")


def _import_layers() -> None:
    """Bind the analysis layers here, all at once, as the package loads them; the ``gen-*`` commands load none."""
    global circuitmodel, densesim, planner, report
    from . import circuitmodel, densesim, planner, report


def _run(args) -> int:
    fmt = _format_of(args.out, args.formats)
    _check_out_directory(args.out)
    if args.source == "hamiltonian":
        _import_layers()
    hamiltonian = _load_hamiltonian(getattr(args, args.source)) if args.source else None
    _emit(args.run(args, hamiltonian, fmt), args.out)
    return EXIT_OK


def _plan(args, hamiltonian: SortedHamiltonian, fmt: str) -> Iterator[str]:
    """The plan's output pieces, to stream; the plan itself runs here, before any file opens."""
    if (args.budget is None) == (args.target_epsilon is None):
        raise ValueError("specify exactly one of --budget or --target-epsilon")
    trace = planner.greedy_plan(hamiltonian, budget=args.budget, target_epsilon=args.target_epsilon)
    return trace._json_pieces() if fmt == "json" else trace._csv_pieces()


def _bound(args, hamiltonian: SortedHamiltonian, fmt: str) -> str:
    """The bytes of ``json.dumps(payload, indent=2) + "\\n"``, written directly as
    :meth:`~lcutrunc.planner.PlanTrace.to_json` writes its own: the stdlib encoder runs
    in pure Python under ``indent``, slow over a vector of a million orders."""
    import json
    vec, num = _resolve_levels(args, hamiltonian), float.__repr__
    t_infinity = planner.t_infinity(hamiltonian)
    s_value = planner.s_value(hamiltonian, vec, t_infinity)
    epsilon = planner.epsilon_bound(hamiltonian, vec)
    # an empty first order leaves s(t) = 1, which never reaches 2
    t_root = num(planner.solve_t_root(hamiltonian, vec)) if vec.level(1) else "null"
    items = ",\n".join(f"    {v}" for v in vec.levels)
    return (
        f'{{\n  "hamiltonian": {json.dumps(hamiltonian.label)},\n  "levels": {planner._json_array(items)},\n'
        f'  "cost": {vec.cost},\n  "kappa": {vec.kappa},\n  "lambda_total": {num(hamiltonian.lambda_total)},\n'
        f'  "t_infinity": {num(t_infinity)},\n  "s_at_t_infinity": {num(s_value)},\n'
        f'  "epsilon": {num(epsilon)},\n  "t_root": {t_root}\n}}\n'
    )


def _simulate(args, hamiltonian: SortedHamiltonian, fmt: str) -> str:
    levels = _resolve_levels(args, hamiltonian)
    if args.r_max == 1:
        result = densesim.single_step_error(hamiltonian, levels)
    else:
        result = densesim.multi_step_error(hamiltonian, levels, args.r_max)
    return result.to_json() if fmt == "json" else result.to_csv()


def _compare(args, hamiltonian: SortedHamiltonian, fmt: str) -> str:
    with_dense = args.dense
    if with_dense:
        try:
            densesim._check_qubits(hamiltonian.qubit_count)
        except CapExceeded as exc:
            warnings.warn(f"{exc}; reporting bounds only")
            with_dense = False
    rows = report.generate_comparison_report(hamiltonian, args.n_max, with_dense=with_dense)
    return report.serialize_report(rows, fmt).decode()


def _resources(args, hamiltonian: SortedHamiltonian, fmt: str) -> str:
    return circuitmodel.estimate_resources(_resolve_levels(args, hamiltonian)).to_json()


def _gen_random(args, template: SortedHamiltonian, fmt: None) -> str:
    return format_term_list(random_hamiltonian(template, args.mu, args.sigma, args.seed))


def _gen_logspread(args, source: None, fmt: None) -> str:
    return format_term_list(logspread_hamiltonian(args.terms, args.decades, args.qubits, args.seed))


# name: (help, runner, --out formats, input option, the levels options, further arguments)
_COMMANDS = {
    "plan": ("greedy truncation plan", _plan, ("json", "csv"), "hamiltonian", False, [
        ("--budget", {"type": int}),
        ("--target-epsilon", {"type": float}),
    ]),
    "bound": ("analytic error bound for a truncation", _bound, ("json",), "hamiltonian", True, []),
    "simulate": ("measure exact errors densely", _simulate, ("json", "csv"), "hamiltonian", True, [
        ("--r-max", {"type": int, "default": 1, "help": "measure up to this many repeated steps"}),
    ]),
    "compare": ("full-order vs greedy at equal cost", _compare, ("csv", "json"), "hamiltonian", False, [
        ("--n-max", {"type": int, "required": True, "help": "last full-expansion order, from 1 to 200"}),
        ("--dense", {"action": "store_true", "help": "also measure exact errors"}),
    ]),
    "resources": ("ancilla and gate-count estimates", _resources, ("json",), "hamiltonian", True, []),
    "gen-random": ("template with redrawn random weights", _gen_random, (), "template", False, [
        ("--mu", {"type": float, "default": 1.0}),
        ("--sigma", {"type": float, "default": 0.1}),
        ("--seed", {"type": int, "required": True}),
    ]),
    "gen-logspread": ("synthetic magnitude-spread Hamiltonian", _gen_logspread, (), None, False, [
        ("--terms", {"type": int, "required": True}),
        ("--decades", {"type": float, "required": True}),
        ("--qubits", {"type": int, "required": True}),
        ("--seed", {"type": int, "required": True}),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one.

    Each subcommand takes ``--<source>`` (if any), the levels options (if any), ``--out``
    and its further arguments, for :func:`_run`.  The one-command parser lists every
    name in its usage line, as the full parser does.
    """
    parser = argparse.ArgumentParser(
        prog="lcutrunc",
        description="Plan, bound, and verify by-weight Taylor truncations for LCU simulation.",
    )
    single = command in _COMMANDS
    # a metavar would also rename the argument in the full parser's "required" and "invalid choice" errors
    metavar = {"metavar": "{" + ",".join(_COMMANDS) + "}"} if single else {}
    commands = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in [command] if single else _COMMANDS:
        help, run, formats, source, levels, arguments = _COMMANDS[name]
        sub = commands.add_parser(name, help=help)
        if source:
            sub.add_argument(f"--{source}", required=True)
        if levels:
            sub.add_argument("--levels", help="comma-separated per-order term counts, e.g. 2,1")
            sub.add_argument("--order", type=int, help="full expansion to this order")
            sub.add_argument("--budget", type=int, help="greedy plan with this gate budget")
        sub.add_argument("--out")
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(run=run, formats=formats, source=source)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; library warnings print once each as ``warning:`` lines, before any ``error:`` line."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = _run(args)
        except ValueError as exc:  # TermListError among them
            code, error = EXIT_INPUT, exc
        except CapExceeded as exc:
            code, error = EXIT_CAP, exc
        except MemoryError:  # e.g. a huge --order: every level is held in memory
            code, error = EXIT_CAP, "out of memory; request a smaller size"
        except ConvergenceError as exc:
            code, error = EXIT_NO_CONVERGENCE, exc
    for message in dict.fromkeys(str(warning.message) for warning in caught):
        sys.stderr.write(f"warning: {message}\n")
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
