"""Command-line front end: polynomial expression parsing, subcommands,
machine-readable reports, and the persistent factor cache.

`_COMMANDS` declares each subcommand once: its handler, its options and the
options it requires.  `RunConfig` holds every common default, and `_run` sets
every exit code.  Reports are byte-stable for a fixed configuration: keys are
sorted, reals are rendered to 12 significant digits, and arbitrary-precision
integers are emitted as decimal strings so they survive any JSON consumer.

An orbit report is built once, in the requested format: CSV rows carry digit
counts only, so no term is converted to decimal for them.  For json and text,
build_sequence computes every term past the history and `_LEAF_BITS` once, on
exact `Decimal`s, so its digits cost no conversion from binary, and P is the
exact quotient A / N.  Terms of at most `_LEAF_BITS` print with `str`.  Each
longer term must match the orbit stepped on residues modulo a word-size
prime, or the report is an internal error that prints no digits.  Other big
integers go through `_decimal_str`, which above `_STR_BITS` calls
`_to_decimal`: it splits them at the widths `_LEAF_BITS << k` and joins the
halves with that fast multiply, where `str(int)` takes quadratic time, and
the powers of two it joins with are computed once per process.
"""

from __future__ import annotations

import argparse
import decimal
import fcntl
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Optional

from .divisibility import (
    FactorBudget,
    Factorization,
    decimal_digits,
    factor,
    rigid_check,
)
from .heights import (
    HeightEstimate,
    PlaceSet,
    canonical_height,
    height_comparison_bound,
    local_log_distance,
    map_height,
    weil_height,
)
from .ratfield import (
    _EXACT, _LEAF_BITS, IntegerModel, Polynomial, _to_decimal, is_powerful, squarefree_decomposition
)
from .zsigmondy import (
    BoundInputs,
    DigitBudgetExceeded,
    FamilyFactor,
    FamilySpec,
    HypothesisViolated,
    OrbitSequence,
    PreperiodicPoint,
    build_sequence,
    close_approach_ambiguous,
    denominator_place_set,
    family_build,
    fixed_or_wandering,
    growth_check,
    is_close_approach,
    valuation_stability_check,
    wandering_verdict,
    zsigmondy_bound,
    zsigmondy_set,
)

CACHE_ENV_VAR = "DYNZSIG_CACHE"

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class ParseError(Exception):
    """Polynomial expression error with a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class ExponentError(ParseError):
    """Exponent is not a nonnegative integer literal."""


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")

# dense-polynomial expansion cost is quadratic in the degree: cap the exponent
# literal against a stray typo, and the degree and coefficient size of every
# power and product before it is expanded, since nested powers multiply their
# exponents
_MAX_EXPONENT = 4096
_MAX_DEGREE = 256
_MAX_COEFF_BITS = 8192


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch == "z":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _check_degree(degree: int, position: int):
    if degree > _MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the cap {_MAX_DEGREE}", position)


def _coeff_bits(poly: Polynomial) -> float:
    """log2(D * ||D * poly||_1) for the common denominator D: a bound on the
    numerator plus denominator bits of every coefficient.  Both factors are
    submultiplicative, so a product's bound is at most the sum of its
    factors' and a power's at most the exponent times its base's."""
    den, numerators = poly.integer_vector()
    norm = sum(map(abs, numerators))
    return math.log2(den) + math.log2(max(norm, 1))


def _check_coeff_bits(bits: float, position: int):
    if bits > _MAX_COEFF_BITS:
        raise ParseError(
            f"coefficients of about {math.ceil(bits)} bits exceed the cap {_MAX_COEFF_BITS}", position
        )


@dataclass(frozen=True)
class ParsedPoly:
    """Expression result: the expanded polynomial plus, when the input is a
    top-level product of powers, the preserved factored form."""

    poly: Polynomial
    factored: Optional[tuple[tuple[Polynomial, int], ...]]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            where = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {op!r}", where)
        self.take()

    def parse(self) -> ParsedPoly:
        poly, factors = self._expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return ParsedPoly(poly=poly, factored=factors)

    def _expr(self):
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        poly, factors = self._term()
        if sign == -1:
            poly = -poly
            factors = None
        n_terms = 1
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.take()
            rhs, _ = self._term()
            poly = poly + rhs if tok[1] == "+" else poly - rhs
            n_terms += 1
        if n_terms > 1:
            factors = None
        return poly, factors

    def _term(self):
        poly, factors = self._factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                break
            self.take()
            rhs, rfac = self._factor()
            _check_degree(poly.degree + rhs.degree, tok[2])
            _check_coeff_bits(_coeff_bits(poly) + _coeff_bits(rhs), tok[2])
            poly = poly * rhs
            factors += rfac
        return poly, factors

    def _factor(self):
        base = self._atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.take()
            nxt = self.peek()
            if nxt is None:
                raise ExponentError("expected exponent", len(self.text))
            if nxt[0] == "op" and nxt[1] in "+-":
                raise ExponentError("exponent must be a nonnegative integer literal", nxt[2])
            if nxt[0] != "int":
                if nxt[0] == "op" and nxt[1] == "(":
                    raise ExponentError("exponent must be an integer literal", nxt[2])
                raise ParseError(f"expected exponent, found {nxt[1]!r}", nxt[2])
            self.take()
            exponent = int(nxt[1])
            if exponent > _MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the cap {_MAX_EXPONENT}", nxt[2])
            _check_degree(base.degree * exponent, nxt[2])
            _check_coeff_bits(_coeff_bits(base) * exponent, nxt[2])
            return base ** exponent, ((base, exponent),)
        return base, ((base, 1),)

    def _atom(self) -> Polynomial:
        tok = self.take()
        kind, value, where = tok
        if kind == "int":
            num = int(value)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                dtok = self.peek()
                if dtok is None or dtok[0] != "int":
                    pos = dtok[2] if dtok else len(self.text)
                    raise ParseError("expected denominator", pos)
                self.take()
                den = int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
                return Polynomial.constant(Fraction(num, den))
            return Polynomial.constant(num)
        if kind == "var":
            return Polynomial.identity()
        if kind == "op" and value == "(":
            poly, _ = self._expr()
            self.expect_op(")")
            return poly
        raise ParseError(f"unexpected {value!r}", where)


def parse_poly(text: str) -> ParsedPoly:
    """Parse an expression over +, -, *, ^ with rational literals and z.

    '^' binds tightest and takes a nonnegative integer literal; a single
    leading sign is accepted.  When the whole input is one product of powers,
    the factored form is preserved for the family checks.
    """
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    return _Parser(text).parse()


def parse_rational(text: str, max_digits: int) -> Fraction:
    """text as an exact Fraction.  Fraction builds 10**e for an exponent e,
    which no int<->str limit meets, so a power of ten of more than max_digits
    digits (e >= max_digits; the run's limit, RunConfig.str_digits) is refused
    before it is built."""
    _, e, exponent = text.strip().lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(max_digits)) or int(digits) >= max_digits):
        raise ParseError(f"invalid rational {text!r}: a power of ten of more than {max_digits} digits", 0)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}: {exc}", 0) from None


# ---------------------------------------------------------------------------
# Configuration and factor cache
# ---------------------------------------------------------------------------


# building the trial-division table takes a sieve of trial_bound/2 bytes, and its
# primes are kept in array("I") chunks, 4 bytes each, so the cap stays below 2^32
_MAX_TRIAL_BOUND = 10**7


@dataclass(frozen=True)
class RunConfig:
    trial_bound: int = 1_000_000
    rho_budget: int = 200_000
    digit_budget: int = 100_000
    tol: float = 1e-6
    seed: int = 1
    cache_path: Optional[str] = None
    fmt: str = "json"

    def __post_init__(self):
        if min(self.trial_bound, self.rho_budget, self.digit_budget) <= 0:
            raise ValueError("budgets must be positive")
        if self.trial_bound > _MAX_TRIAL_BOUND:
            raise ValueError(f"trial bound {self.trial_bound} exceeds the cap {_MAX_TRIAL_BOUND}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tolerance must be in (0, 1)")
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def str_digits(self) -> int:
        """The run's int<->str digit limit: orbit values outgrow the default."""
        return max(10_000, self.digit_budget * 4)

    def factor_budget(self) -> FactorBudget:
        return FactorBudget(
            trial_bound=self.trial_bound, rho_rounds=self.rho_budget, seed=self.seed
        )


class FactorCache:
    """Append-only JSON-lines cache of factorizations, keyed by the decimal
    composite.

    A complete line, {"complete": true, "composite": ..., "factors": ...},
    answers at any budget.  A partial line adds "budget", every FactorBudget
    field, and answers only under that exact budget; its cofactor is not
    written but recomputed on load as composite // prod(p^e).  Reuse is sound
    because _factor_uncached is deterministic in (n, budget), so any change to
    what it returns for a given budget must change the tag (a new
    FactorBudget field does), and older lines then miss instead of answering.

    A complete entry beats a partial one for the same composite; otherwise the
    first line for a composite and tag wins.  A partial line without a budget,
    written by older versions, is skipped without a warning, and so is a line
    whose composite has more digits than the int->str limit: run_subcommand
    sets that limit above the digit budget, so no term factored in the run
    can match it.  Corrupt lines are skipped with a warning.  A writer holds
    an exclusive flock on the cache file while it appends; readers take no
    lock.

    A request pays only for the lines it may hit.  Opening the cache checks
    every line on exact Decimals, which read a decimal text in linear time
    where int() is quadratic before Python 3.12, and files its composite
    text by digit count.  The first lookup of a digit count converts that
    count's lines to ints (_parse_digits), in file order.  A composite text
    other than ASCII digits, such as "+6" or " 6", is converted by int()
    when the cache opens.
    """

    def __init__(self, path: str):
        self.path = path
        # keyed by (composite, None) when complete, (composite, budget tag) when partial
        self.entries: dict[tuple[int, Optional[str]], Factorization] = {}
        # digit count -> (composite text or int, tag, factors) of each checked line
        # that no lookup has converted yet, in file order; the cofactor waits too
        self._pending: dict[int, list[tuple[str | int, Optional[str], Factorization]]] = {}
        self.warnings: list[str] = []
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        with open(self.path, "r", encoding="utf-8") as fh, decimal.localcontext(_EXACT):
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                    # a line missing a key warns, whatever its flag says
                    text, pairs, complete = raw["composite"], raw["factors"], raw["complete"]
                    if (not complete and "budget" not in raw) or 0 < limit < len(text):
                        continue
                    # Decimal also reads "6.0", "6e3" and "NaN": other texts take int(),
                    # which keeps its errors and the texts it accepts
                    if not (type(text) is str and text.isascii() and text.isdigit()):
                        text = int(text)
                    composite = decimal.Decimal(text)
                    fact = Factorization({int(p): int(e) for p, e in pairs})
                    if any(p < 2 or e < 1 for p, e in fact.factors.items()):
                        raise ValueError("a factor below 2 or an exponent below 1")
                    product = math.prod(decimal.Decimal(p) ** e for p, e in fact.factors.items())
                    if complete:
                        if product != composite:
                            raise ValueError("reconstruction mismatch")
                        tag = None
                    else:
                        cofactor, rest = divmod(composite, product)
                        if rest or cofactor < 2:
                            raise ValueError("the factors leave no cofactor above 1")
                        tag = _budget_tag(raw["budget"])
                except (KeyError, ValueError, TypeError) as exc:
                    self.warnings.append(f"cache line {lineno} skipped: {exc}")
                    continue
                self._pending.setdefault(composite.adjusted() + 1, []).append((text, tag, fact))

    def _convert(self, n: int):
        """Moves the pending lines of n's digit count into entries."""
        for text, tag, fact in self._pending.pop(decimal_digits(n), ()):
            composite = _parse_digits(text) if type(text) is str else text
            if tag is not None:
                fact.cofactor = composite // fact.reconstruct()
            self.entries.setdefault((composite, tag), fact)

    def get(self, n: int, budget: FactorBudget) -> Optional[Factorization]:
        self._convert(n)
        hit = self.entries.get((n, None)) or self.entries.get((n, _lookup_tag(budget)))
        return None if hit is None else Factorization(dict(hit.factors), hit.cofactor)

    def store(self, n: int, fact: Factorization, budget: FactorBudget) -> None:
        self._convert(n)
        key = (n, None if fact.complete else _lookup_tag(budget))
        if (n, None) in self.entries or key in self.entries:
            return
        self.entries[key] = Factorization(dict(fact.factors), fact.cofactor)
        record = {
            "composite": str(n),
            "factors": [[str(p), e] for p, e in sorted(fact.factors.items())],
            "complete": fact.complete,
        }
        if not fact.complete:
            record["budget"] = asdict(budget)
        # the kernel drops the lock when the file closes or the writer dies
        with open(self.path, "a", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _budget_tag(budget: dict) -> str:
    """A partial line's budget as canonical JSON: equal tags, equal budgets."""
    return json.dumps(budget, sort_keys=True)


@functools.cache
def _lookup_tag(budget: FactorBudget) -> str:
    """_budget_tag of a FactorBudget, built once per budget."""
    return _budget_tag(asdict(budget))


# _parse_digits reads texts of at most _PARSE_LEAF digits with int(), which
# accepts them under any int<->str limit (the least one Python allows is 640)
_PARSE_LEAF = 512


@functools.cache
def _pow10(k: int) -> int:
    """10 ** (_PARSE_LEAF << k), shared by every _parse_digits in the process."""
    return 10**_PARSE_LEAF if k == 0 else _pow10(k - 1) ** 2


def _parse_digits(text: str) -> int:
    """int(text) for a text of ASCII digits, at any int<->str limit and in
    subquadratic time: the low _PARSE_LEAF << k digits, for the largest k
    that leaves a high part, are joined to the high part with one multiply.
    On 20,000 digits int() takes 2.0 ms and this 1.2 ms (Python 3.11, a
    2-vCPU Xeon VM)."""
    if len(text) <= _PARSE_LEAF:
        return int(text)
    k = ((len(text) - 1) // _PARSE_LEAF).bit_length() - 1
    w = _PARSE_LEAF << k
    return _parse_digits(text[:-w]) * _pow10(k) + _parse_digits(text[-w:])


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _real(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


# str(int) takes quadratic time before Python 3.12; above _STR_BITS (about
# 10,000 digits) _decimal_str converts with ratfield._to_decimal, whose leaves
# of at most _LEAF_BITS go through Decimal(int).  On 3.11, with the power table
# warm, str and _to_decimal tie at 16,384-24,576 bits and _to_decimal is
# 1.5x faster at 2**15 bits; leaves of 1024-16384 bits are within noise.
_STR_BITS = 1 << 15

# the largest prime below 2**30: residues mod one word take the single-word
# paths of both int and Decimal remainders
_CHECK_PRIME = 2**30 - 35


def _decimal_str(n: int) -> str:
    """str(n), in subquadratic time for big n."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    digits = str(_to_decimal(abs(n)))
    return "-" + digits if n < 0 else digits


def _estimate_dict(est: HeightEstimate) -> dict:
    return {
        "value": _real(est.value),
        "error_bound": _real(est.error_bound),
        "truncated": est.truncated,
        "iterations": est.iterations,
    }


def _config_dict(config: RunConfig) -> dict:
    return {
        "trial_bound": config.trial_bound,
        "rho_budget": config.rho_budget,
        "digit_budget": config.digit_budget,
        "tol": _real(config.tol),
        "seed": config.seed,
        "cache": config.cache_path,
        "format": config.fmt,
    }


def _render_json(report: dict) -> str:
    parts: list[str] = []
    _walk_json(parts, "\n", report)
    parts.append("\n")
    return "".join(parts)


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}
_encode_str = json.encoder.encode_basestring_ascii


def _walk_json(parts: list[str], newline: str, obj):
    """Appends the text json.dumps(obj, sort_keys=True, indent=2) gives obj,
    with newline (a line break and the indent) opening each inner line.  A
    plain function for the reason _walk_text is one: json's pure-Python
    encoder, which indent selects, nests closures that refer to each other."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            parts += (sep, inner, _encode_str(key), ": ")
            _walk_json(parts, inner, obj[key])
            sep = ","
        parts += (newline, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner, sep = newline + "  ", "["
        for value in obj:
            parts += (sep, inner)
            _walk_json(parts, inner, value)
            sep = ","
        parts += (newline, "]")
    elif obj is None or isinstance(obj, bool):
        parts.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    else:  # floats, and json's TypeError for what it cannot encode
        parts.append(json.dumps(obj))


def _render_text(report: dict) -> str:
    lines: list[str] = []
    _walk_text(lines, "", report)
    return "\n".join(lines) + "\n"


def _walk_text(lines: list[str], prefix: str, obj):
    """Appends a line "dotted.key: value" per leaf of obj.  A plain function,
    not a closure: a recursive closure refers to itself through its cell, and
    that cycle would outlive every text report until a full collection."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _walk_text(lines, f"{prefix}{key}.", obj[key])
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(f"{prefix[:-1]}: {' '.join(str(v) for v in obj)}")
        else:
            for i, v in enumerate(obj):
                _walk_text(lines, f"{prefix}{i}.", v)
    else:
        lines.append(f"{prefix[:-1]}: {obj}")


_CSV_HEADER = "n,value_digits,A_digits,primitive,P_digits,N_digits"


def _render_csv(rows: list[tuple]) -> str:
    out = [_CSV_HEADER]
    out.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(out) + "\n"


def _orbit_rows(seq: OrbitSequence) -> list[tuple]:
    return [
        (
            rec.n,
            max(a_digits := decimal_digits(rec.ideal.A), decimal_digits(rec.ideal.B)),
            a_digits,
            int(rec.primitive),
            decimal_digits(rec.split.primitive_part),
            decimal_digits(rec.split.nonprimitive_part),
        )
        for rec in seq.records
    ]


def _orbit_result(seq: OrbitSequence) -> dict:
    """The records of an orbit report.  A record of at most _LEAF_BITS prints
    with str.  A longer one prints its exact Decimal pair, rec.deep or its
    ints through _to_decimal, with P = A / N, and its value must equal mod p =
    _CHECK_PRIME the orbit stepped on residues (IntegerModel.orbit_mod).  A
    record that disagrees, or whose N does not divide A, stops the report
    before it prints."""
    records, p, stepped = [], _CHECK_PRIME, 0
    with decimal.localcontext(_EXACT):
        for rec in seq.records:
            if rec.deep is None and max(rec.ideal.A.bit_length(), rec.ideal.B.bit_length()) <= _LEAF_BITS:
                a, b = str(rec.ideal.A), str(rec.ideal.B)
                P, N = str(rec.split.primitive_part), str(rec.split.nonprimitive_part)
            else:
                if not stepped:  # residues are stepped only as far as a long record needs
                    orbit = IntegerModel(seq.centered).orbit_mod(0, 1, len(seq.records), p)
                for stepped in range(stepped + 1, rec.n + 1):
                    residues = next(orbit)
                x, y, N = rec.deep or (_to_decimal(rec.ideal.A), _to_decimal(rec.ideal.B), rec.split.nonprimitive_part)
                a, n = x.copy_abs(), _to_decimal(N)
                P, r = divmod(a, n)
                if r or (rec.sign * int(a % p) % p, int(y % p)) != residues:
                    raise RuntimeError(f"orbit record {rec.n} disagrees with the orbit of its map")
                a, b, P, N = str(a), str(y), str(P), str(n)
            # as str(rec.value), without converting A and B again
            value = ("-" if rec.sign < 0 else "") + (a if b == "1" else f"{a}/{b}")
            records.append(
                {
                    "n": rec.n,
                    "numerator_ideal": a,
                    "denominator_ideal": b,
                    "primitive_part": P,
                    "nonprimitive_part": N,
                    "has_primitive_divisor": rec.primitive,
                    "value": value,
                }
            )
    return {
        "poly": str(seq.phi),
        "alpha": str(seq.alpha),
        "centered": str(seq.centered),
        "computed_n": len(seq.records),
        "records": records,
    }


def _orbit_output(seq: OrbitSequence, fmt: str) -> tuple[Optional[dict], Optional[list[tuple]]]:
    """(result, rows) of an orbit report: the CSV rows, or the result dict
    for json and text; the form the format does not print is not built."""
    if fmt == "csv":
        return None, _orbit_rows(seq)
    return _orbit_result(seq), None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _place_set(arg: Optional[str]) -> PlaceSet:
    if not arg:
        return PlaceSet()
    primes = []
    for part in arg.split(","):
        part = part.strip()
        if not part or part == "inf":
            continue
        try:
            p = int(part)
        except ValueError:
            raise ParseError(f"invalid place {part!r}", 0) from None
        if decimal_digits(p) > FactorBudget.rho_digit_limit:  # factor() runs no primality test above it
            raise ParseError(f"place of more than {FactorBudget.rho_digit_limit} digits", 0)
        primes.append(p)
    return PlaceSet.from_primes(primes)


def _require(args: dict, *names: str):
    missing = [n for n in names if args.get(n) is None]
    if missing:
        raise ParseError(f"missing required option(s): {', '.join('--' + m for m in missing)}", 0)


def _build_orbit(args: dict, config: RunConfig, printed: bool = False):
    """The requested orbit; printed, for a json or text orbit report, runs its
    deep terms on exact Decimals (build_sequence's decimal_tail)."""
    parsed = parse_poly(args["poly"])
    alpha = parse_rational(args.get("alpha") or "0", config.str_digits())
    N = 8 if args.get("n") is None else int(args["n"])
    return build_sequence(parsed.poly, alpha, N, digit_budget=config.digit_budget, decimal_tail=printed)


def _cmd_orbit(args: dict, config: RunConfig):
    seq = _build_orbit(args, config, config.fmt != "csv")
    return (*_orbit_output(seq, config.fmt), [])


def _cmd_zsigmondy(args: dict, config: RunConfig):
    seq = _build_orbit(args, config, config.fmt != "csv")
    # computed for every format: either may raise, and sets the exit code
    zset = sorted(zsigmondy_set(seq, len(seq.records)))
    verdict = wandering_verdict(
        seq.phi, seq.alpha, probe=min(32, len(seq.records) + 8), tol=config.tol
    )
    result, rows = _orbit_output(seq, config.fmt)
    if result is not None:
        result["zsigmondy_set"] = zset
        result["wandering_verdict"] = verdict
    return result, rows, []


def _cmd_rigid_check(args: dict, config: RunConfig):
    seq = _build_orbit(args, config)
    places = _place_set(args.get("places"))
    cache = _open_cache(config)
    report = rigid_check(seq.terms(), places, config.factor_budget(), cache)
    result = {
        "terms": [_decimal_str(t) for t in seq.terms()],
        "places": [str(p) for p in places],
        "verified": report.verified,
        "checked_pairs": report.checked_pairs,
        "untested_cofactors": [_decimal_str(c) for c in report.untested_primes],
        "violations": [
            {
                "condition": v.condition,
                "prime": str(v.prime),
                "indices": list(v.indices),
                "valuations": list(v.valuations),
            }
            for v in report.violations
        ],
    }
    return result, None, cache.warnings if cache else []


def _cmd_heights(args: dict, config: RunConfig):
    parsed = parse_poly(args["poly"])
    value = parse_rational(args["alpha"], config.str_digits())
    a, b = value.numerator, value.denominator
    if max(decimal_digits(a), decimal_digits(b)) > config.digit_budget:  # no report prints past the budget
        raise DigitBudgetExceeded(f"point exceeds {config.digit_budget} digits")
    places = _place_set(args.get("places"))
    bound = height_comparison_bound(parsed.poly)
    # reversing the coefficients (conjugating by z -> 1/z) permutes the
    # integer coefficient vector, so both maps have the same height
    h_map = _real(map_height(parsed.poly))
    est = canonical_height(
        parsed.poly, value, config.tol, digit_budget=config.digit_budget
    )
    result = {
        "poly": str(parsed.poly),
        "point": str(value),
        "weil_height": _real(weil_height(a, b)),
        "map_height": h_map,
        "reversed_map_height": h_map,
        "comparison_bound": _real(bound),
        "canonical_height": _estimate_dict(est),
        "places": [str(p) for p in places],
    }
    warnings = []
    if value == 0:
        result["local_log_distances"] = None
        result["local_sum"] = None
        warnings.append("local distances to the starting point are undefined at 0")
    else:
        distances = [local_log_distance(a, b, v) for v in places]
        result["local_log_distances"] = {str(v): _real(x) for v, x in zip(places, distances)}
        result["local_sum"] = _real(sum(distances))
    return result, None, warnings


def _cmd_bound(args: dict, config: RunConfig):
    inputs = BoundInputs(
        d=int(args["d"]),
        h_reversed=float(args["htilde"]),
        hhat0=float(args["hhat"]),
        comparison_bound=float(args["B"]),
        gamma=float(args["gamma"]),
        s_size=int(args["s_size"]),
    )
    breakdown = zsigmondy_bound(inputs)
    result = {
        "inputs": {
            "d": inputs.d,
            "B": _real(inputs.comparison_bound),
            "hhat0": _real(inputs.hhat0),
            "htilde": _real(inputs.h_reversed),
            "gamma": _real(inputs.gamma),
            "s_size": inputs.s_size,
        },
        "M": _real(breakdown.total),
        "terms": {
            "startup": _real(breakdown.startup_term),
            "history": _real(breakdown.history_term),
            "proximity_gamma": _real(breakdown.proximity_gamma_term),
            "proximity_log": _real(breakdown.proximity_log_term),
        },
        "startup_set": sorted(breakdown.startup_set),
        "history_set": sorted(breakdown.history_set),
        "history_scan_limit": breakdown.history_scan_limit,
        "zero_index_predicates": {
            "startup": breakdown.startup_zero_predicate,
            "history": breakdown.history_zero_predicate,
        },
    }
    warnings: list[str] = []
    if args.get("poly"):
        seq = _build_orbit(args, config)
        places = _place_set(args.get("places"))
        hhat0 = canonical_height(seq.centered, 0, config.tol, digit_budget=config.digit_budget)
        approaches = []
        for n in range(1, len(seq.records) + 1):
            member = is_close_approach(seq, n, places, hhat0)
            ambiguous = close_approach_ambiguous(seq, n, places, hhat0)
            approaches.append({"n": n, "member": member, "ambiguous": ambiguous})
            if ambiguous:
                warnings.append(f"close-approach comparison ambiguous at n={n}")
        result["close_approach"] = approaches
        result["orbit_hhat0"] = _estimate_dict(hhat0)
    return result, None, warnings


def _cmd_powerful_check(args: dict, config: RunConfig):
    parsed = parse_poly(args["poly"])
    if parsed.poly.degree < 1:
        raise HypothesisViolated("constant polynomial", "need degree >= 1")
    decomposition = squarefree_decomposition(parsed.poly)
    if parsed.factored:
        base_factors = [base for base, _ in parsed.factored]
    else:
        base_factors = [q for q, _ in decomposition]
    places = denominator_place_set(base_factors)
    result = {
        "poly": str(parsed.poly),
        "is_powerful": is_powerful(decomposition),
        "squarefree_decomposition": [
            {"factor": str(q), "multiplicity": m} for q, m in decomposition
        ],
        "place_set": [str(p) for p in places],
    }
    return result, None, []


def _family_from_parsed(parsed: ParsedPoly) -> FamilySpec:
    if not parsed.factored:
        raise HypothesisViolated(
            "not in product form", "family input must be a product of powers"
        )
    factors = []
    for base, exponent in parsed.factored:
        if base.degree < 1:
            raise HypothesisViolated(
                "constant factor", f"factor {base} has no z part"
            )
        offset = base.coefficient(0)
        if offset.denominator != 1:
            raise HypothesisViolated(
                "offset not integral", f"constant term {offset} is not an integer"
            )
        inner = Polynomial(base.coeffs[1:])
        factors.append(FamilyFactor(inner=inner, offset=int(offset), exponent=exponent))
    return FamilySpec(tuple(factors))


def _cmd_family_check(args: dict, config: RunConfig):
    parsed = parse_poly(args["factors"])
    spec = _family_from_parsed(parsed)
    phi = family_build(spec)
    N = 4 if args.get("n") is None else int(args["n"])
    if N < 1:  # checked here too: a fixed family runs no growth check
        raise ValueError("growth_check requires N >= 1")
    classification = fixed_or_wandering(spec)
    result = {
        "factors": [
            {"inner": str(f.inner), "offset": f.offset, "exponent": f.exponent}
            for f in spec.factors
        ],
        "poly": str(phi),
        "classification": classification,
        "is_powerful": True,  # family_build accepts only exponents >= 2
    }
    warnings: list[str] = []
    if classification == "wandering":
        try:  # the one orbit of 0 that both checks read
            values = list(IntegerModel(phi).orbit(0, N, config.digit_budget, track=True))
        except PreperiodicPoint:
            raise HypothesisViolated("0 is preperiodic") from None
        growth = growth_check(spec, [a for a, _ in values])
        result["growth"] = {
            "passed": growth.passed,
            "square_growth_ok": growth.square_growth_ok,
            "exponent_floor_ok": growth.exponent_floor_ok,
            "first_term": _decimal_str(growth.first_term),
            "orbit_digits": growth.orbit_digits,
            "exponent_floors": [str(f) for f in growth.exponent_floors],
        }
        places = PlaceSet()  # family_build has proved every base integral: no denominator primes
        cache = _open_cache(config)
        warnings.extend(cache.warnings if cache else [])
        stability = valuation_stability_check(phi, places, values, config.factor_budget(), cache)
        result["valuation_stability"] = {
            "ok": stability.ok,
            "terms_checked": stability.terms_checked,
            "ranks": {str(p): r for p, r in sorted(stability.ranks.items())},
            "failures": [
                {
                    "kind": f.kind,
                    "prime": str(f.prime),
                    "index": f.index,
                    "expected": str(f.expected),
                    "got": str(f.got),
                }
                for f in stability.failures
            ],
            "untested_cofactors": [_decimal_str(c) for c in stability.untested_cofactors],
        }
        result["place_set"] = [str(p) for p in places]
    return result, None, warnings


_ORBIT_OPTIONS = ("--poly", "--alpha", "--n")
_BOUND_OPTIONS = ("--d", "--B", "--hhat", "--htilde", "--gamma", "--s-size")
_INT_OPTIONS = ("--n", "--d", "--s-size")

# name -> (handler, options, required); a required name is an option's dest
_COMMANDS = {
    "orbit": (_cmd_orbit, _ORBIT_OPTIONS, ("poly",)),
    "zsigmondy": (_cmd_zsigmondy, _ORBIT_OPTIONS, ("poly",)),
    "rigid-check": (_cmd_rigid_check, _ORBIT_OPTIONS + ("--places",), ("poly",)),
    "heights": (_cmd_heights, ("--poly", "--alpha", "--places"), ("poly", "alpha")),
    "bound": (
        _cmd_bound,
        _ORBIT_OPTIONS + ("--places",) + _BOUND_OPTIONS,
        ("d", "B", "hhat", "htilde", "gamma", "s_size"),
    ),
    "powerful-check": (_cmd_powerful_check, ("--poly",), ("poly",)),
    "family-check": (_cmd_family_check, ("--factors", "--n"), ("factors",)),
}


def _open_cache(config: RunConfig) -> Optional[FactorCache]:
    if config.cache_path:
        return FactorCache(config.cache_path)
    return None


def run_subcommand(name: str, args: dict, config: RunConfig):
    """Run one subcommand; returns (exit_code, report_text, diagnostics).

    Exit codes: 0 success, 1 hypothesis violation, 2 parse/config error,
    3 digit-budget exhaustion (with partial results in the report), 4 an
    internal error (a defect: the report and a one-line diagnostic name the
    exception and where it was raised).
    """
    if name not in _COMMANDS:
        return EXIT_USAGE, "", f"unknown subcommand {name!r}"
    # orbit values outgrow the default int->str guard: raise it for this call only
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(config.str_digits())
    try:
        return _run(name, args, config)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _add_partial(result: dict, partial, config: RunConfig) -> Optional[list[tuple]]:
    """Puts the report of a stopped orbit in result["partial"] and returns its
    CSV rows.  A json or text partial is left out when its starting point or
    centered map has a number of more digits than the budget: no report
    prints a number past it, and the centered map of a huge alpha can pass
    even the run's int<->str limit."""
    if not isinstance(partial, OrbitSequence):
        return None
    if config.fmt != "csv":
        numbers = [x for c in (partial.alpha, *partial.centered.coeffs) for x in (c.numerator, c.denominator)]
        if max(map(decimal_digits, numbers)) > config.digit_budget:
            return None
    result["partial"], rows = _orbit_output(partial, config.fmt)
    return rows


def _run(name: str, args: dict, config: RunConfig):
    handler, _, required = _COMMANDS[name]
    code = EXIT_OK
    rows = None
    warnings: list[str] = []
    diagnostics = ""
    try:
        try:
            _require(args, *required)
            result, rows, warnings = handler(args, config)
        except (ParseError, ValueError, OSError) as exc:
            result = {"error": str(exc)}
            code = EXIT_USAGE
            diagnostics = f"error: {exc}"
        except HypothesisViolated as exc:
            result = {"error": str(exc), "reason": exc.reason}
            code = EXIT_HYPOTHESIS
            diagnostics = f"hypothesis violated: {exc.reason}"
        except PreperiodicPoint as exc:
            result = {"error": str(exc), "reason": "preperiodic point"}
            rows = _add_partial(result, exc.partial, config)
            code = EXIT_HYPOTHESIS
            diagnostics = f"hypothesis violated: {exc}"
        except DigitBudgetExceeded as exc:
            result = {"error": str(exc), "reason": "digit budget exceeded"}
            rows = _add_partial(result, exc.partial, config)
            code = EXIT_BUDGET
            diagnostics = f"budget exhausted: {exc}"
    except Exception as exc:  # a defect, also in a partial result, reported as any failure
        import traceback  # only this path needs it; importing it costs every process

        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = f"{type(exc).__name__}: {exc} (at {os.path.basename(where.filename)}:{where.lineno})"
        result = {"error": error, "reason": "internal error"}
        code = EXIT_INTERNAL
        diagnostics = f"internal error: {error}"

    if config.fmt == "csv":
        if rows is None:
            if code == EXIT_OK:
                return EXIT_USAGE, "", "error: csv output is only available for orbit tables"
            return code, "", diagnostics  # the failure, not the format, is the story
        return code, _render_csv(rows), diagnostics
    report = {
        "command": name,
        "config": _config_dict(config),
        "result": result,
        "warnings": warnings,
    }
    if config.fmt == "text":
        return code, _render_text(report), diagnostics
    return code, _render_json(report), diagnostics


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    # built once per process; no defaults here: main() passes RunConfig only
    # the options that were set.  allow_abbrev=False: a prefix such as --d
    # must not stand for --digit-budget
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--tol", type=float)
    common.add_argument("--trial-bound", type=int)
    common.add_argument("--rho-budget", type=int)
    common.add_argument("--digit-budget", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--cache", dest="cache_path")
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))

    parser = argparse.ArgumentParser(
        prog="dynzsig",
        description="Dynamical divisibility sequences, primitive divisors, and Zsigmondy sets over Q.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, _) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], allow_abbrev=False)
        for option in options:
            sp.add_argument(option, type=int if option in _INT_OPTIONS else None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = vars(_build_arg_parser().parse_args(argv))
    args["cache_path"] = args["cache_path"] or os.environ.get(CACHE_ENV_VAR) or None
    given = {f.name: args[f.name] for f in fields(RunConfig) if args[f.name] is not None}
    try:
        config = RunConfig(**given)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    code, report, diagnostics = run_subcommand(args["command"], args, config)
    if report:
        sys.stdout.write(report)
    if diagnostics:
        print(diagnostics, file=sys.stderr)
    return code


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
