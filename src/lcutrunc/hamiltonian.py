"""Pauli-term Hamiltonians with positive weights, sorted by magnitude.

A Hamiltonian is a sum of weighted Pauli strings.  All weights are kept
strictly positive; the sign or unit phase of an input coefficient is folded
into the Pauli string itself.  Terms are stored sorted by descending weight
so that the first ``m`` terms are always the ``m`` largest, and prefix sums
of the weights are precomputed for the planner.

Term-list text format::

    # comment
    1.5      ZZII
    -0.25    XIXI      # sign folded into the operator phase
    0.5i     YIII      # pure-imaginary coefficients allowed

One term per line: a real or pure-imaginary coefficient (``a``, ``-a``,
``ai``, ``-ai``; ``j`` also accepted), then a string over ``IXYZ``.

Every constructor (parsing, ``SortedHamiltonian.from_terms`` and both
generators) ends in one builder: the coefficients of each string are summed,
a sum that is 0 or below ``DROP_THRESHOLD`` times the largest input magnitude
is dropped, and each kept sum's phase is folded once.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import TermListError

PHASE_UNITS = (1 + 0j, -1 + 0j, 1j, -1j)

# A string's summed coefficient below this fraction of an input's largest
# magnitude cannot affect bounds at double precision, and every constructor
# drops it.  Bounds and plans do not change under H -> cH, so neither does what
# is dropped.
DROP_THRESHOLD = 1e-15

_PHASE_PREFIX = {1 + 0j: "", -1 + 0j: "-", 1j: "", -1j: "-"}
_PHASE_SUFFIX = {1 + 0j: "", -1 + 0j: "", 1j: "i", -1j: "i"}
_AXES = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """A Pauli string with an absorbed unit phase.

    ``axes`` is a string over ``IXYZ`` with one character per qubit;
    ``phase`` is exactly one of ``+1, -1, +i, -i``.
    """

    axes: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if not _AXES.issuperset(self.axes):
            raise ValueError(f"invalid Pauli axes {sorted(set(self.axes) - _AXES)} in {self.axes!r}")
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
        # a plain float, so numpy scalars never reach the text writers as np.float64(...)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"term weight must be finite and strictly positive, got {self.alpha}")

    @property
    def coefficient(self) -> complex:
        """The original signed/phased coefficient ``phase * alpha``."""
        return self.op.phase * self.alpha


@dataclass(frozen=True)
class SortedHamiltonian:
    """Terms sorted by descending weight, with prefix sums of the weights.

    ``prefix[m]`` is the sum of the ``m`` largest weights; ``lambda_total``
    is the full weight sum.  The planner builds its other tables, ``Lambda - Lambda_m`` among them.
    """

    terms: tuple[HamiltonianTerm, ...]
    qubit_count: int
    prefix: tuple[float, ...]
    lambda_total: float
    label: str = field(default="", compare=False)

    @classmethod
    def from_terms(cls, terms: Iterable[HamiltonianTerm], label: str = "") -> "SortedHamiltonian":
        """Build from terms by the rule that parsing follows: repeated strings summed, then small sums dropped.

        A sum of 0, or a term or sum below ``DROP_THRESHOLD`` times the largest input weight, is
        dropped.  Raises :class:`TermListError` naming the string for a sum neither real nor
        pure-imaginary or past the largest float, and for weights that sum past it or are all subnormal.
        """
        return _build([(term.coefficient, term.op.axes, 0) for term in terms], label)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def prefix_lambda(self, m: int) -> float:
        """Sum of the ``m`` largest weights; 0 for ``m == 0``."""
        if not 0 <= m <= self.num_terms:
            raise ValueError(f"prefix length {m} out of range 0..{self.num_terms}")
        return self.prefix[m]


def _build(rows: list[tuple[complex, str, int]], label: str) -> SortedHamiltonian:
    """The one way in: sum each string's ``(coefficient, axes, line)`` rows, drop, fold once and sort (stable).

    Sums are formed in order of first appearance; one that is 0 or below ``DROP_THRESHOLD`` times
    the largest input magnitude is dropped.  An axes or fold error, or a kept sum past the largest
    float, names the line of a string given once, the string itself when its rows were merged.
    Rows not read from text carry line 0.
    """
    sums: dict[str, complex] = {}
    lines: dict[str, int | None] = {}  # None once a string repeats
    for coefficient, axes, line in rows:
        if axes in sums:
            sums[axes] += coefficient
            lines[axes] = None
        else:
            sums[axes] = coefficient
            lines[axes] = line
    # the threshold scales with the input, so it is known only after every row is read
    threshold = DROP_THRESHOLD * (max([abs(row[0]) for row in rows], default=0.0) or 1.0)
    terms: list[HamiltonianTerm] = []
    for axes, coefficient in sums.items():
        if not coefficient or abs(coefficient) < threshold:
            continue
        try:
            if math.isinf(abs(coefficient)):
                raise ValueError(f"the coefficients sum to {abs(coefficient)}, past the largest float")
            alpha, phase = _fold_phase(coefficient)
            terms.append(HamiltonianTerm(alpha, PauliString(axes, phase)))
        except ValueError as exc:
            where = f"Pauli string {axes}" if lines[axes] is None else f"line {lines[axes]}"
            raise TermListError(f"{where}: {exc}") from None
    merged = list(lines.values()).count(None)
    if merged:
        warnings.warn(f"merged repeated lines of {merged} Pauli string(s) by summing their coefficients")
    if len(terms) < len(sums):
        warnings.warn(f"dropped {len(sums) - len(terms)} term(s) with |coefficient| < {threshold}")

    terms.sort(key=lambda term: -term.alpha)
    if not terms:
        raise TermListError("no usable terms found in input")
    if terms[0].alpha < sys.float_info.min:  # else t_inf = ln 2 / Lambda and 1 / Lambda_1 overflow
        raise TermListError(f"the largest weight {terms[0].alpha!r} is subnormal, below {sys.float_info.min!r}")
    qubit_count = len(terms[0].op)
    if any(len(t.op) != qubit_count for t in terms):
        raise TermListError("all Pauli strings must have equal length")
    prefix = tuple(accumulate((term.alpha for term in terms), initial=0.0))
    if not math.isfinite(prefix[-1]):
        raise TermListError(f"the weights sum to {prefix[-1]}, past the largest float")
    return SortedHamiltonian(tuple(terms), qubit_count, prefix, prefix[-1], label)


def _parse_coefficient(token: str) -> complex:
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse coefficient {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"coefficient {token!r} must be finite")
    if value.real and value.imag:
        _fold_phase(value)  # raises for a literal that is neither real nor pure-imaginary
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


def parse_hamiltonian(source: str, label: str = "") -> SortedHamiltonian:
    """Parse the term-list format into a :class:`SortedHamiltonian`, by the one rule of every constructor.

    Each line must hold two fields and a finite, real or pure-imaginary coefficient.  Repeated
    strings are then summed, and a sum that is 0 or below ``DROP_THRESHOLD`` times the largest
    magnitude of the input is dropped.  Raises :class:`TermListError` with a line number on
    malformed input, or naming a merged string whose sum is neither real nor pure-imaginary.
    """
    rows: list[tuple[complex, str, int]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TermListError(f"line {lineno}: expected '<coefficient> <pauli-string>', got {raw!r}")
        try:
            rows.append((_parse_coefficient(fields[0]), fields[1], lineno))
        except ValueError as exc:
            raise TermListError(f"line {lineno}: {exc}") from None
    return _build(rows, label)


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
    the result is re-sorted.  Deterministic for a fixed seed.  Raises if a
    draw is past the largest float, or is 0 or below ``DROP_THRESHOLD`` times
    the largest draw, which the builder, and so parsing the written term
    list, would drop.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if mu == 0 and sigma == 0:
        raise ValueError("mu and sigma are both 0, so every drawn weight would be 0")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    import numpy as np  # here: of the commands that need no dense work, only gen-random loads numpy
    rng = np.random.default_rng(seed)
    draws = np.abs(rng.normal(mu, sigma, size=template.num_terms))
    smallest, largest = float(draws.min()), float(draws.max())
    if math.isinf(largest):
        raise ValueError(f"mu {mu} and sigma {sigma} drew a weight past the largest float")
    if not smallest or smallest < DROP_THRESHOLD * largest:
        raise ValueError(
            f"mu {mu} and sigma {sigma} drew the weight {smallest!r}, which would be dropped "
            f"on parsing, below {DROP_THRESHOLD} of the largest draw {largest!r}"
        )
    rows = [(term.op.phase * a, term.op.axes, 0) for a, term in zip(draws.tolist(), template.terms)]
    return _build(rows, f"{template.label}+random" if template.label else "random")


def logspread_hamiltonian(
    num_terms: int, decades: float, qubit_count: int, seed: int
) -> SortedHamiltonian:
    """Synthetic Hamiltonian with weights spread over ``decades`` orders of magnitude.

    Weight ``l`` is ``10**(-decades * l / (num_terms - 1))``, so the weights
    run from 1 down to ``10**-decades``, which must not fall below
    ``DROP_THRESHOLD`` of the largest, 1, so that no term is dropped and the
    term list parses back whole.  Operators are random distinct Pauli strings
    on ``qubit_count`` qubits, coded by the draws of
    ``numpy.random.default_rng(seed).integers(4**qubit_count)``, reproduced
    in pure Python: the same seed gives the same bytes under any numpy, or
    none.
    """
    if num_terms < 1:
        raise ValueError("num_terms must be at least 1")
    if not 1 <= qubit_count <= 31:  # numpy draws its codes below 4**qubit_count as int64
        raise ValueError(f"qubit_count must be from 1 to 31, got {qubit_count}")
    if not (math.isfinite(decades) and decades >= 0):
        raise ValueError(f"decades must be finite and nonnegative, got {decades}")
    if num_terms > 4**qubit_count:
        raise ValueError(
            f"cannot draw {num_terms} distinct Pauli strings on {qubit_count} qubit(s)"
        )
    alphas = [1.0] if num_terms == 1 else [10.0 ** (-decades * l / (num_terms - 1)) for l in range(num_terms)]
    if alphas[-1] < DROP_THRESHOLD:
        raise ValueError(
            f"decades {decades} is too large: the smallest weight {alphas[-1]!r} "
            f"would be dropped on parsing, below {DROP_THRESHOLD}"
        )
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    draws = _integer_draws(seed, 4**qubit_count)
    chosen: set[int] = set()
    codes: list[int] = []
    while len(codes) < num_terms:
        code = next(draws)
        if code not in chosen:
            chosen.add(code)
            codes.append(code)
    rows = []
    for alpha, code in zip(alphas, codes):
        axes = ""
        for _ in range(qubit_count):
            axes += "IXYZ"[code % 4]
            code //= 4
        rows.append((alpha, axes, 0))
    return _build(rows, f"logspread-{num_terms}x{decades}")


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(h: int, multiplier: int):
    """One of ``SeedSequence``'s 32-bit hashes, whose constant ``h`` steps by ``multiplier`` on every call."""

    def hash(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * multiplier & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hash


def _integer_draws(seed: int, high: int) -> Iterator[int]:
    """``numpy.random.default_rng(seed).integers(high)`` one call at a time, ``high`` a power of two up to ``2**63``.

    ``SeedSequence`` hashes the seed's 32-bit words into a pool of four, and the pool into PCG64's
    state and increment.  PCG64 outputs the XOR of its state's halves rotated by its top six bits.
    A draw is Lemire's multiply-shift of a 32-bit half (low first) if ``high <= 2**32``, else of an
    output; at a power of two it never rejects and reduces to a right shift.
    """
    words = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src, dst in [(src, dst) for src in range(4) for dst in range(4) if src != dst]:
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in [(word, dst) for word in words[4:] for dst in range(4)]:
        pool[dst] = mix(pool[dst], hashmix(word))
    hash_out = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hash_out(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (out[2 * j] | out[2 * j + 1] << 32 for j in range(4))
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    increment = ((s2 << 64 | s3) << 1 | 1) & _M128

    def outputs(state: int) -> Iterator[int]:
        while True:
            state = (state * multiplier + increment) & _M128
            x, rotation = (state >> 64 ^ state) & _M64, state >> 122
            yield (x >> rotation | x << (64 - rotation)) & _M64

    # from state 0 one step gives ``increment``; add the seed's state words and step once more
    source = outputs(((increment + (s0 << 64 | s1)) * multiplier + increment) & _M128)
    bits = 32 if high <= 1 << 32 else 64
    source = (half for x in source for half in (x & _M32, x >> 32)) if bits == 32 else source
    shift = bits + 1 - high.bit_length()  # x * high >> bits; 0 at high == 2**bits: the raw output
    for x in source:
        yield x >> shift
