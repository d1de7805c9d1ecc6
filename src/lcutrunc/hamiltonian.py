"""Pauli-term Hamiltonians with positive weights, sorted by magnitude.

A Hamiltonian is a sum of weighted Pauli strings.  All weights are kept
strictly positive; the sign or unit phase of an input coefficient is folded
into the Pauli string itself.  Terms are stored sorted by descending weight
so that the first ``m`` terms are always the ``m`` largest, and prefix sums
of the weights are precomputed for the planner.

Term-list text format (the only ingestion path)::

    # comment
    1.5      ZZII
    -0.25    XIXI      # sign folded into the operator phase
    0.5i     YIII      # pure-imaginary coefficients allowed

One term per line: a real or pure-imaginary coefficient (``a``, ``-a``,
``ai``, ``-ai``; ``j`` also accepted), then a string over ``IXYZ``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .errors import TermListError

PHASE_UNITS = (1 + 0j, -1 + 0j, 1j, -1j)

# Coefficients below this magnitude cannot affect bounds at double precision
# and are dropped at parse time.
DROP_THRESHOLD = 1e-15

_PHASE_PREFIX = {1 + 0j: "", -1 + 0j: "-", 1j: "", -1j: "-"}
_PHASE_SUFFIX = {1 + 0j: "", -1 + 0j: "", 1j: "i", -1j: "i"}


@dataclass(frozen=True)
class PauliString:
    """A Pauli string with an absorbed unit phase.

    ``axes`` is a string over ``IXYZ`` with one character per qubit;
    ``phase`` is exactly one of ``+1, -1, +i, -i``.
    """

    axes: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        bad = set(self.axes) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli axes {sorted(bad)} in {self.axes!r}")
        if not self.axes:
            raise ValueError("Pauli string must act on at least one qubit")
        if self.phase not in PHASE_UNITS:
            raise ValueError(f"phase must be one of +1, -1, +i, -i, got {self.phase!r}")

    def __len__(self) -> int:
        return len(self.axes)


@dataclass(frozen=True)
class HamiltonianTerm:
    """One summand: a strictly positive weight times a Pauli string."""

    alpha: float
    op: PauliString

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"term weight must be strictly positive, got {self.alpha}")

    @property
    def coefficient(self) -> complex:
        """The original signed/phased coefficient ``phase * alpha``."""
        return self.op.phase * self.alpha


@dataclass(frozen=True)
class SortedHamiltonian:
    """Terms sorted by descending weight, with prefix sums of the weights.

    ``prefix[m]`` is the sum of the ``m`` largest weights; ``lambda_total``
    is the full weight sum.
    """

    terms: tuple[HamiltonianTerm, ...]
    qubit_count: int
    prefix: tuple[float, ...]
    lambda_total: float
    label: str = field(default="", compare=False)

    @classmethod
    def from_terms(cls, terms: Iterable[HamiltonianTerm], label: str = "") -> "SortedHamiltonian":
        """Sort terms by descending weight (stable) and build prefix sums."""
        ordered = sorted(terms, key=lambda term: -term.alpha)
        if not ordered:
            raise TermListError("Hamiltonian must contain at least one term")
        qubit_count = len(ordered[0].op)
        if any(len(t.op) != qubit_count for t in ordered):
            raise TermListError("all Pauli strings must have equal length")
        prefix = [0.0]
        for term in ordered:
            prefix.append(prefix[-1] + term.alpha)
        return cls(
            terms=tuple(ordered),
            qubit_count=qubit_count,
            prefix=tuple(prefix),
            lambda_total=prefix[-1],
            label=label,
        )

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def prefix_lambda(self, m: int) -> float:
        """Sum of the ``m`` largest weights; 0 for ``m == 0``."""
        if not 0 <= m <= self.num_terms:
            raise ValueError(f"prefix length {m} out of range 0..{self.num_terms}")
        return self.prefix[m]


def _parse_coefficient(token: str) -> complex:
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse coefficient {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"coefficient {token!r} must be finite")
    return value


def _fold_phase(coefficient: complex) -> tuple[float, complex]:
    """Split a coefficient into (magnitude, unit phase in PHASE_UNITS)."""
    alpha = abs(coefficient)
    unit = coefficient / alpha
    for phase in PHASE_UNITS:
        if abs(unit - phase) <= 1e-9:
            return alpha, phase
    raise ValueError(
        f"coefficient {coefficient!r} is neither real nor pure-imaginary; "
        "general phases cannot be folded into a Pauli string"
    )


def parse_hamiltonian(source: str | IO[str], label: str = "") -> SortedHamiltonian:
    """Parse the term-list format into a :class:`SortedHamiltonian`.

    Coefficients are normalized to positive magnitudes with the unit phase
    folded into the Pauli string.  Terms with magnitude below
    ``DROP_THRESHOLD`` are dropped with a warning.  Raises
    :class:`TermListError` with a line number on malformed input.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()

    terms: list[HamiltonianTerm] = []
    dropped = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TermListError(
                f"line {lineno}: expected '<coefficient> <pauli-string>', got {raw!r}"
            )
        coeff_token, axes = fields
        try:
            coefficient = _parse_coefficient(coeff_token)
            if abs(coefficient) < DROP_THRESHOLD:
                dropped += 1
                continue
            alpha, phase = _fold_phase(coefficient)
            op = PauliString(axes=axes, phase=phase)
        except ValueError as exc:
            raise TermListError(f"line {lineno}: {exc}") from None
        terms.append(HamiltonianTerm(alpha=alpha, op=op))

    if dropped:
        warnings.warn(f"dropped {dropped} term(s) with |coefficient| < {DROP_THRESHOLD}")
    if not terms:
        raise TermListError("no usable terms found in input")
    return SortedHamiltonian.from_terms(terms, label=label)


def format_term_list(hamiltonian: SortedHamiltonian) -> str:
    """Serialize back to the term-list format; round-trips through parse."""
    lines = []
    for term in hamiltonian.terms:
        phase = term.op.phase
        coeff = f"{_PHASE_PREFIX[phase]}{term.alpha!r}{_PHASE_SUFFIX[phase]}"
        lines.append(f"{coeff} {term.op.axes}")
    return "\n".join(lines) + "\n"


def random_hamiltonian(
    template: SortedHamiltonian, mu: float, sigma: float, seed: int
) -> SortedHamiltonian:
    """Replace each weight with |draw from Normal(mu, sigma)|, keeping operators.

    The Pauli strings (including their phases) are taken from ``template``;
    the result is re-sorted.  Deterministic for a fixed seed.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    draws = np.abs(rng.normal(mu, sigma, size=template.num_terms))
    terms = [
        HamiltonianTerm(alpha=float(a), op=term.op)
        for a, term in zip(draws, template.terms)
    ]
    return SortedHamiltonian.from_terms(terms, label=f"{template.label}+random" if template.label else "random")


def logspread_hamiltonian(
    num_terms: int, decades: float, qubit_count: int, seed: int
) -> SortedHamiltonian:
    """Synthetic Hamiltonian with weights spread over ``decades`` orders of magnitude.

    Weight ``l`` is ``10**(-decades * l / (num_terms - 1))``, so the weights
    run from 1 down to ``10**-decades``.  Operators are random distinct Pauli
    strings on ``qubit_count`` qubits.
    """
    if num_terms < 1:
        raise ValueError("num_terms must be at least 1")
    if decades < 0:
        raise ValueError("decades must be nonnegative")
    if num_terms > 4**qubit_count:
        raise ValueError(
            f"cannot draw {num_terms} distinct Pauli strings on {qubit_count} qubit(s)"
        )
    rng = np.random.default_rng(seed)
    chosen: set[int] = set()
    codes: list[int] = []
    while len(codes) < num_terms:
        code = int(rng.integers(4**qubit_count))
        if code not in chosen:
            chosen.add(code)
            codes.append(code)
    terms = []
    for l, code in enumerate(codes):
        alpha = 1.0 if num_terms == 1 else 10.0 ** (-decades * l / (num_terms - 1))
        axes = ""
        for _ in range(qubit_count):
            axes += "IXYZ"[code % 4]
            code //= 4
        terms.append(HamiltonianTerm(alpha=alpha, op=PauliString(axes=axes)))
    return SortedHamiltonian.from_terms(terms, label=f"logspread-{num_terms}x{decades}")

