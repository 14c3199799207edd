"""Report rendering: the big-integer decimal converter, orbit reports that are
built once in the requested format, and pinned digests that keep orbit,
height and bound reports byte-identical."""

import decimal
import hashlib
import json
import math
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dynzsig import cli  # noqa: E402
from dynzsig.cli import RunConfig, run_subcommand  # noqa: E402
from dynzsig.divisibility import IdealPair, PrimitiveSplit  # noqa: E402
from dynzsig.ratfield import IntegerModel, Polynomial, _decimal_bit_length, _pow2, _to_decimal  # noqa: E402
from dynzsig.zsigmondy import (  # noqa: E402
    DigitBudgetExceeded,
    OrbitRecord,
    OrbitSequence,
    PreperiodicPoint,
    build_sequence,
)
from test_orbit_engine import coprime_pairs, wide_maps  # noqa: E402

# ---------------------------------------------------------------------------
# The converter
# ---------------------------------------------------------------------------

# powers of ten whose digit count lies around the str() threshold
_K_NEAR_THRESHOLD = st.integers(int(cli._STR_BITS * 0.30103) - 60, int(cli._STR_BITS * 0.30103) + 60)


@given(k=_K_NEAR_THRESHOLD, offset=st.sampled_from((0, -1)), negative=st.booleans())
@example(k=0, offset=-1, negative=False)  # 0
@example(k=0, offset=0, negative=False)  # 1
@example(k=0, offset=0, negative=True)  # -1
@settings(max_examples=60, deadline=None)
def test_decimal_str_matches_str_near_the_threshold(k, offset, negative):
    n = 10**k + offset
    n = -n if negative else n
    assert cli._decimal_str(n) == str(n)


@pytest.mark.parametrize("bits", [cli._STR_BITS, cli._STR_BITS + 1, 2 * cli._STR_BITS + 1])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_decimal_str_matches_str_at_powers_of_two(bits, delta):
    n = 2**bits + delta
    assert cli._decimal_str(n) == str(n)
    assert cli._decimal_str(-n) == str(-n)


@given(bits=st.integers(0, 332_193), seed=st.integers(0, 2**32), negative=st.booleans())
@example(bits=332_193, seed=1, negative=True)  # 1e5 digits
@settings(max_examples=30, deadline=None)
def test_decimal_str_matches_str_on_random_values(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits)
    n = -n if negative else n
    assert cli._decimal_str(n) == str(n)


# sizes on both sides of the str() threshold, with the split widths
# 2 ** (_LEAF_BITS << k) + {-1, 0, 1} that sit on the edges of the power table
_WIDTHS = [cli._LEAF_BITS << k for k in range((2 * cli._STR_BITS // cli._LEAF_BITS).bit_length())]
_PART = st.one_of(
    st.builds(lambda w, d: 2**w + d, st.sampled_from(_WIDTHS), st.sampled_from((-1, 0, 1))),
    st.builds(
        lambda bits, seed: random.Random(seed).getrandbits(bits) | 1,
        st.integers(1, 2 * cli._STR_BITS),
        st.integers(0, 2**32),
    ),
)


@given(p=_PART, q=_PART, negative=st.booleans(), cold=st.booleans())
@example(p=2**cli._STR_BITS + 1, q=1, negative=False, cold=True)
@example(p=3, q=2 ** (cli._LEAF_BITS << 3) - 1, negative=True, cold=False)
@settings(max_examples=40, deadline=None)
def test_converter_matches_str_at_split_widths(p, q, negative, cold):
    if cold:
        _pow2.cache_clear()
    assert str(cli._to_decimal(p)) == str(p)
    assert str(cli._to_decimal(p * q)) == str(p * q)
    n = -(p * q + 1) if negative else p * q + 1
    assert cli._decimal_str(n) == str(n)


@given(p=_PART, q=_PART, rational=st.booleans(), sign=st.sampled_from((-1, 1)))
@example(p=2**cli._STR_BITS + 1, q=1, rational=False, sign=1)
@example(p=3, q=2 ** (cli._LEAF_BITS << 3) - 1, rational=True, sign=-1)
@example(p=2**cli._LEAF_BITS - 1, q=1, rational=False, sign=-1)
@settings(max_examples=40, deadline=None)
def test_orbit_records_off_their_map_are_refused(p, q, rational, sign):
    # a record A = p * q that z^2 + 1 does not reach from 0: a term of at most
    # _LEAF_BITS prints with str from the record itself, a longer one is
    # replayed from the map and refused
    b = p * q + 1 if rational else 1  # coprime to p * q
    rec = OrbitRecord(1, sign, IdealPair.coprime(p * q, b), PrimitiveSplit(p, q), p > 1)
    seq = OrbitSequence(phi=Polynomial([1, 0, 1]), alpha=Fraction(0), centered=Polynomial([1, 0, 1]), records=[rec])
    if max((p * q).bit_length(), b.bit_length()) > cli._LEAF_BITS:
        with pytest.raises(RuntimeError, match="orbit record 1 disagrees"):
            cli._orbit_result(seq)
        return
    (row,) = cli._orbit_result(seq)["records"]
    assert row["primitive_part"] == str(p)
    assert row["nonprimitive_part"] == str(q)
    assert row["numerator_ideal"] == str(p * q)
    assert row["denominator_ideal"] == str(b)
    assert row["value"] == str(Fraction(sign * p * q, b))


# ---------------------------------------------------------------------------
# Orbit reports
# ---------------------------------------------------------------------------

# sha256 of each report, as printed by the commit before the converter: the
# terms exceed the converter's threshold, z^2-7/4 at 1/3 has negative rational
# values, and the digit budget of 20,000 stops z^2+1 with a partial orbit
PINNED = [
    ("zsigmondy", dict(poly="z^2+1", n=18), {}, {
        "json": "3f959bee5f56dfa8ac5b2bbd18ff0e0ca4cc182d4af865a2cf4a4dd17db6c1a6",
        "text": "9e7fe62d247da932f7fdff1e78e6269615d33e2ed02403dff5c0d9170b1d53c2",
        "csv": "3773f718b5790b1e79c5d550d4be906481720886c790d5769cee92d2077105d8",
    }),
    ("orbit", dict(poly="z^3+1/2", alpha="1/3", n=10), {}, {
        "json": "c8d21db1a203b5b459372c0f80f3d0459aeef6253bd596219d974a1262872292",
        "text": "cf9136f286283b1f9702cc77bc3152eb90fb7ae7c2b72c39186879f73099aedf",
        "csv": "9adfb134f6df2630fc6b6f7fd7cab5ee8b3a041b60b884f49b69ff94fa55d28c",
    }),
    ("orbit", dict(poly="z^2-7/4", alpha="1/3", n=14), {}, {
        "json": "1a25cd4c39859e7d83e0db37fca2633fd85825a39b24bbe5d62ed18730673fae",
        "text": "bb4ed36ca7d6d84474306afec371ad8feb24ec677e5baf943bfb994115fa0613",
        "csv": "4c5ec331e36aa74c689939b4d6f0f8dccac83dd871e38af87f0b0baf2449f359",
    }),
    ("orbit", dict(poly="z^2+1", n=30), {"digit_budget": 20_000}, {
        "json": "223257698b61b580ff91976b5685e7171f31d2524ecc698e5889c2bfe71bf456",
        "text": "881587487b65bd579d6f7585c43832dd153396f3a07b84c4ba3f0f98030fd20b",
        "csv": "e27b6db1f0914c56825af7c026f53f2eb275ca62cffc46e8c22a347c50fe568e",
    }),
    ("zsigmondy", dict(poly="z^2+1", n=30), {"digit_budget": 20_000}, {
        "json": "40fc83eaab86736f735e0c706d200d76a47185eece8224bfb3a49b0451f23078",
        "csv": "e27b6db1f0914c56825af7c026f53f2eb275ca62cffc46e8c22a347c50fe568e",
    }),
]


@pytest.mark.parametrize(
    "command, args, config, fmt, digest",
    [(c, a, k, fmt, d) for c, a, k, digests in PINNED for fmt, d in digests.items()],
)
def test_orbit_reports_match_pinned_digests(command, args, config, fmt, digest):
    code, report, _ = run_subcommand(command, dict(args), RunConfig(fmt=fmt, **config))
    assert code == (3 if config else 0)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_negative_values_keep_their_sign():
    code, report, _ = run_subcommand("orbit", dict(poly="z^2-3", n=3), RunConfig(fmt="text"))
    assert code == 0
    assert "result.records.0.value: -3\n" in report
    assert "result.records.1.value: 6\n" in report
    args = dict(poly="z^2-7/4", alpha="1/3", n=1)
    code, report, _ = run_subcommand("orbit", args, RunConfig(fmt="text"))
    assert "result.records.0.value: -71/36\n" in report


@pytest.mark.parametrize("command", ["orbit", "zsigmondy"])
@pytest.mark.parametrize("config", [{}, {"digit_budget": 20_000}])
def test_csv_reports_render_no_decimal_strings(command, config, monkeypatch):
    def refuse(n):
        raise AssertionError("a CSV report converted an integer to decimal")

    step = IntegerModel.__call__

    def int_step(model, a, b):
        if isinstance(a, decimal.Decimal) or isinstance(b, decimal.Decimal):
            raise AssertionError("a CSV report stepped the orbit on Decimals")
        return step(model, a, b)

    monkeypatch.setattr(cli, "_decimal_str", refuse)
    monkeypatch.setattr(cli, "_to_decimal", refuse)
    monkeypatch.setattr(IntegerModel, "__call__", int_step)
    args = dict(poly="z^2+1", n=30 if config else 18)
    code, report, _ = run_subcommand(command, args, RunConfig(fmt="csv", **config))
    assert code == (3 if config else 0)
    assert report.startswith("n,value_digits,A_digits,primitive,P_digits,N_digits\n")


# ---------------------------------------------------------------------------
# Replayed orbit reports
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unlimited_str():
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the int<->str limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


def _run_orbit(poly: str, alpha: Fraction, n: int, fmt: str, budget: int):
    """The command's report, and the records it must print, as built by the
    engine (the partial ones when the orbit stops early)."""
    config = RunConfig(fmt=fmt, digit_budget=budget)
    code, report, _ = run_subcommand("orbit", dict(poly=poly, alpha=str(alpha), n=n), config)
    try:
        seq = build_sequence(cli.parse_poly(poly).poly, alpha, n, digit_budget=budget)
    except (DigitBudgetExceeded, PreperiodicPoint) as exc:
        seq = exc.partial
    return code, report, seq.records


def _expected_fields(rec) -> dict:
    a, b = rec.ideal.A, rec.ideal.B
    return {
        "n": rec.n,
        "numerator_ideal": str(a),
        "denominator_ideal": str(b),
        "primitive_part": str(rec.split.primitive_part),
        "nonprimitive_part": str(rec.split.nonprimitive_part),
        "has_primitive_divisor": rec.primitive,
        "value": str(Fraction(rec.sign * a, b)),
    }


def _check_report(code, report, records, fmt):
    assert code in (0, 1, 3)
    if fmt == "csv":
        rows = [
            (rec.n, len(str(max(rec.ideal.A, rec.ideal.B))), len(str(rec.ideal.A)), int(rec.primitive),
             len(str(rec.split.primitive_part)), len(str(rec.split.nonprimitive_part)))
            for rec in records
        ]
        assert report.splitlines() == [cli._CSV_HEADER, *(",".join(map(str, row)) for row in rows)]
        return
    if fmt == "json":
        result = json.loads(report)["result"]
        rows = (result if code == 0 else result["partial"])["records"]
        assert rows == [_expected_fields(rec) for rec in records]
        return
    prefix = "result.records" if code == 0 else "result.partial.records"
    for i, rec in enumerate(records):
        for key, value in _expected_fields(rec).items():
            assert f"\n{prefix}.{i}.{key}: {value}\n" in report


_SMALL_Q = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_NONZERO_Q = st.builds(lambda n, d, s: Fraction(s * n, d), st.integers(1, 9), st.integers(1, 9), st.sampled_from((-1, 1)))


@given(
    coeffs=st.integers(2, 3).flatmap(lambda d: st.tuples(*[_SMALL_Q] * d, _NONZERO_Q)),
    alpha=_SMALL_Q,
    budget=st.sampled_from((1_500, 12_000, 30_000)),
    fmt=st.sampled_from(("json", "text")),
)
@example(coeffs=(Fraction(1), Fraction(1, 2), Fraction(1, 2)), alpha=Fraction(0), budget=30_000, fmt="json")
@example(coeffs=(Fraction(-7, 4), Fraction(0), Fraction(1)), alpha=Fraction(1, 3), budget=30_000, fmt="text")
@example(coeffs=(Fraction(-7, 4), Fraction(0), Fraction(1)), alpha=Fraction(1, 3), budget=12_000, fmt="json")
@settings(max_examples=40, deadline=None)
def test_replayed_records_match_the_engine(coeffs, alpha, budget, fmt, unlimited_str):
    # budgets of about 1,500, 12,000 and 30,000 digits put the last terms
    # past _LEAF_BITS (1,233 digits) and _STR_BITS (9,865 digits); an orbit
    # this long stops at the budget, so its records are a partial sequence
    poly = "+".join(f"({c})*z^{i}" for i, c in enumerate(coeffs))
    code, report, records = _run_orbit(poly, alpha, 40, fmt, budget)
    _check_report(code, report, records, fmt)


# g = (z - 1)(z - M) maps 0 to M and M back to 0, and h = z^2 - M z + M fixes
# M: both stop at step 2 with one record past _LEAF_BITS as the partial orbit
_M = 3**3000 // 7


@pytest.mark.parametrize("poly", [f"(z-1)*(z-{_M})", f"z^2-{_M}*z+{_M}", f"(z-1)*(z-{_M}/7)"])
@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_preperiodic_partial_records_are_replayed(poly, fmt, unlimited_str):
    code, report, records = _run_orbit(poly, Fraction(0), 8, fmt, 100_000)
    assert code == 1 and len(records) == 1
    assert records[0].ideal.A.bit_length() > cli._LEAF_BITS
    _check_report(code, report, records, fmt)


@st.composite
def _step_inputs(draw):
    d = draw(st.integers(2, 4))
    coeffs = [Fraction(draw(st.integers(-50, 50)), draw(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 27, 32)))) for _ in range(d)]
    coeffs.append(Fraction(draw(st.integers(1, 50)) * draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, 2, 3, 8)))))
    b = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12))) ** draw(st.integers(0, 40)) * draw(st.integers(1, 10**600))
    a = draw(st.integers(-(10**600), 10**600).filter(lambda a: math.gcd(a, b) == 1))
    return Polynomial(coeffs), a, b


# the engine tests' sparse maps: degree 2-6, runs of zero coefficients, f_0 = 0,
# leads +-1 and others, on coprime pairs of up to about 3,000 digits
_sparse_step_inputs = st.tuples(wide_maps(), coprime_pairs(3000)).map(lambda mp: (mp[0], *mp[1]))


@given(inputs=st.one_of(_step_inputs(), _sparse_step_inputs))
@example(inputs=(Polynomial([1, Fraction(1, 2), Fraction(1, 2)]), 2, 1))
@example(inputs=(Polynomial([0, Fraction(1, 5), 0, 0, 1]), 7**3000, 5**700))
@example(inputs=(Polynomial([Fraction(1, 3), 0, 0, 0, Fraction(7, 2), 0, -1]), 2**9000 + 1, 3**10))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_decimal_step_matches_the_int_step(inputs):
    phi, a, b = inputs
    model = IntegerModel(phi)
    with decimal.localcontext(cli._EXACT):
        x, y = model(decimal.Decimal(a), decimal.Decimal(b))
    assert (int(x), int(y)) == model(a, b)
    assert x.as_tuple().exponent == 0 and y.as_tuple().exponent == 0


def _corrupt(how: str, seq: OrbitSequence) -> OrbitSequence:
    """seq with records that do not follow seq.centered from the first term
    past _LEAF_BITS on."""
    if how == "other map":
        return replace(seq, centered=Polynomial([2, 0, 1]))
    n = next(i for i, rec in enumerate(seq.records) if rec.ideal.A.bit_length() > cli._LEAF_BITS)
    rec = seq.records[n]
    if how == "sign":
        rec = replace(rec, sign=-rec.sign)
    elif how == "split":  # a non-primitive part that does not divide A
        rec = replace(rec, split=replace(rec.split, nonprimitive_part=rec.split.nonprimitive_part * 10**9 + 7))
    elif how == "numerator":
        rec = replace(rec, ideal=IdealPair.coprime(rec.ideal.A + 1, rec.ideal.B))
    else:  # a denominator the map does not reach, though every digit of A does
        rec = replace(rec, ideal=IdealPair.coprime(rec.ideal.A, 2 * rec.ideal.A + 1))
    return replace(seq, records=seq.records[:n] + [rec] + seq.records[n + 1 :])


@pytest.mark.parametrize("how", ["other map", "sign", "split", "numerator", "denominator"])
@pytest.mark.parametrize("command", ["orbit", "zsigmondy"])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("stop", [None, "budget"])
def test_records_off_their_map_exit_internal(how, command, fmt, stop, monkeypatch):
    real = build_sequence(Polynomial([1, 0, 1]), 0, 17)
    assert real.records[-1].ideal.A.bit_length() > cli._STR_BITS
    fake = _corrupt(how, real)

    def build(*args, **kwargs):
        if stop:
            raise DigitBudgetExceeded("orbit value at step 18 exceeds 20000 digits", fake)
        return fake

    monkeypatch.setattr(cli, "build_sequence", build)
    code, report, diagnostics = run_subcommand(command, dict(poly="z^2+1", n=17), RunConfig(fmt=fmt))
    assert code == 4
    assert "internal error" in report and "orbit record" in diagnostics
    assert re.search(r"\d{12}", report) is None  # no term digits, not even those of the small records


def test_only_long_records_step_the_residue_orbit(monkeypatch):
    # z^2 + 1 from 0: A_13 has 2,408 bits, within _LEAF_BITS; A_14 has 4,815
    short = build_sequence(Polynomial([1, 0, 1]), 0, 13)
    assert max(rec.ideal.A.bit_length() for rec in short.records) <= cli._LEAF_BITS

    def refuse(*args):
        raise AssertionError("a report of short records stepped residues")

    monkeypatch.setattr(IntegerModel, "orbit_mod", refuse)
    assert run_subcommand("orbit", dict(poly="z^2+1", n=13), RunConfig())[0] == 0
    monkeypatch.undo()
    calls, orbit_mod = [], IntegerModel.orbit_mod

    def counted(self, *args):
        calls.append(args)
        return orbit_mod(self, *args)

    monkeypatch.setattr(IntegerModel, "orbit_mod", counted)
    assert run_subcommand("orbit", dict(poly="z^2+1", n=14), RunConfig())[0] == 0
    assert calls == [(0, 1, 14, cli._CHECK_PRIME)]


# ---------------------------------------------------------------------------
# Orbits that finish on exact Decimals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 19, 63, 64, 65, 1000, 4096, 33_219, 100_000, 332_193, 400_000])
def test_decimal_bit_length_is_exact_at_powers_of_two(k):
    for n in (2**k - 1, 2**k, 2**k + 1):
        assert _decimal_bit_length(_to_decimal(n)) == n.bit_length()


@given(bits=st.integers(0, 200_000), seed=st.integers(0, 2**32))
@example(bits=70, seed=0)
@settings(max_examples=60, deadline=None)
def test_decimal_bit_length_matches_int_on_random_values(bits, seed):
    n = random.Random(seed).getrandbits(bits)
    assert _decimal_bit_length(_to_decimal(n)) == n.bit_length()


def _build_both(phi: Polynomial, alpha: Fraction, n: int, budget: int):
    """build_sequence's records or the exception it raised, for the int orbit
    and for the orbit with a Decimal tail."""
    out = []
    for decimal_tail in (False, True):
        try:
            out.append(build_sequence(phi, alpha, n, digit_budget=budget, decimal_tail=decimal_tail))
        except (DigitBudgetExceeded, PreperiodicPoint) as exc:
            out.append(exc)
    return out


def _records_of(result):
    return result.partial.records if isinstance(result, Exception) else result.records


@given(
    coeffs=st.integers(2, 3).flatmap(lambda d: st.tuples(*[_SMALL_Q] * d, _NONZERO_Q)),
    alpha=_SMALL_Q,
    n=st.integers(1, 40),
    budget=st.sampled_from((1_500, 12_000, 30_000)),
)
@example(coeffs=(Fraction(1), Fraction(0), Fraction(1)), alpha=Fraction(0), n=19, budget=100_000)
@example(coeffs=(Fraction(1, 3), Fraction(0), Fraction(1)), alpha=Fraction(2, 7), n=15, budget=100_000)
@example(coeffs=(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1)), alpha=Fraction(0), n=9, budget=100_000)
@example(coeffs=(Fraction(-7, 4), Fraction(0), Fraction(1)), alpha=Fraction(1, 3), n=40, budget=12_000)
@settings(max_examples=40, deadline=None)
def test_decimal_tail_records_equal_the_int_orbit(coeffs, alpha, n, budget, unlimited_str):
    # z^3 + 1/2 at 0 has denominators that are powers of two, where the
    # Decimal bit length takes its exact comparison
    phi = Polynomial(coeffs)
    ints, deep = _build_both(phi, alpha, n, budget)
    assert type(ints) is type(deep)
    if isinstance(ints, Exception):
        assert str(ints) == str(deep) and getattr(ints, "index", None) == getattr(deep, "index", None)
    int_records, deep_records = _records_of(ints), _records_of(deep)
    on_decimals = [rec for rec in deep_records if rec.deep is not None]
    assert all(2 * rec.n > n for rec in on_decimals)
    # every field, the lazily made ints included, and the terms
    assert [rec.value for rec in deep_records] == [rec.value for rec in int_records]
    assert deep_records == int_records
    assert [rec.ideal.A for rec in deep_records] == [rec.ideal.A for rec in int_records]
    for rec in on_decimals:
        x, y, N = rec.deep
        assert (x, y, N) == (rec.sign * rec.ideal.A, rec.ideal.B, rec.split.nonprimitive_part)
    if not isinstance(ints, Exception):
        assert deep.terms() == ints.terms()


def test_deep_records_start_past_leaf_bits_and_half_the_orbit():
    seq = build_sequence(Polynomial([1, 0, 1]), 0, 19, decimal_tail=True)
    first = next(rec.n for rec in seq.records if rec.deep is not None)
    # A_14 of z^2 + 1 has 4,815 bits and A_13 2,408: steps 15..19 run on Decimals
    assert first == 15 and seq.records[first - 2].ideal.A.bit_length() > cli._LEAF_BITS
    assert seq.records[first - 3].ideal.A.bit_length() <= cli._LEAF_BITS
    # history keeps the terms up to N/2 in int, however long they are
    seq = build_sequence(Polynomial([10**420 - 1, 0, 1]), 0, 8, decimal_tail=True)
    assert [rec.deep is None for rec in seq.records] == [True] * 4 + [False] * 4


# M maps to Q = M / (M + 1), which z^2 - M(M + 2)/(M + 1) z + M fixes: at n = 3
# the Decimal Q of step 3 repeats the Decimal Q of step 2, and at n = 4, where
# step 2 is int, the int one.  The other two maps send M to 0 or to M, and at
# n = 2 and 3 their Decimal step 2 meets the int start or the int M
_REPEATS = [
    Polynomial([_M, Fraction(-_M * (_M + 2), _M + 1), 1]),
    Polynomial([_M, -(_M + 1), 1]),
    Polynomial([_M, -_M, 1]),
]


@pytest.mark.parametrize("phi", _REPEATS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_preperiodic_orbits_repeat_across_int_and_decimal_values(phi, n, unlimited_str):
    ints, deep = _build_both(phi, Fraction(0), n, 100_000)
    assert type(ints) is type(deep)
    if isinstance(ints, Exception):
        assert (str(deep), deep.index) == (str(ints), ints.index)
    assert _records_of(deep) == _records_of(ints)
    rows = cli._orbit_result(deep.partial if isinstance(deep, Exception) else deep)["records"]
    assert rows == [_expected_fields(rec) for rec in _records_of(ints)]


def _corrupt_deep(how: str, seq: OrbitSequence) -> OrbitSequence:
    """seq with its last record, one on Decimals, off the map."""
    rec = seq.records[-1]
    x, y, N = rec.deep
    if how == "sign":
        rec = replace(rec, sign=-rec.sign)
    elif how == "split":
        rec = replace(rec, deep=(x, y, N * 10**9 + 7))
    else:
        with decimal.localcontext(cli._EXACT):
            rec = replace(rec, deep=(x + 1, y, N))
    return replace(seq, records=seq.records[:-1] + [rec])


@pytest.mark.parametrize("how", ["sign", "split", "numerator"])
def test_decimal_records_off_their_map_exit_internal(how, monkeypatch):
    real = build_sequence(Polynomial([1, 0, 1]), 0, 17, decimal_tail=True)
    assert real.records[-1].deep is not None
    fake = _corrupt_deep(how, real)
    monkeypatch.setattr(cli, "build_sequence", lambda *args, **kwargs: fake)
    code, report, diagnostics = run_subcommand("orbit", dict(poly="z^2+1", n=17), RunConfig())
    assert code == 4 and "orbit record 17" in diagnostics
    assert re.search(r"\d{12}", report) is None


def _context_state():
    ctx = decimal.getcontext()
    return ctx, ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps), dict(ctx.flags)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["orbit", "--poly", "z^2+1/3", "--alpha", "2/7", "--n", "14"], 0),
        (["orbit", "--poly", "z^3+1/2", "--alpha", "1/3", "--n", "10", "--format", "csv"], 0),
        (["zsigmondy", "--poly", "z^2+1", "--n", "30", "--digit-budget", "20000"], 3),
        (["orbit", "--poly", "z^2+1", "--n", "17"], 4),
    ],
)
def test_reports_leave_the_decimal_context_alone(argv, code, monkeypatch, capsys):
    if code == 4:
        fake = _corrupt("other map", build_sequence(Polynomial([1, 0, 1]), 0, 17))
        monkeypatch.setattr(cli, "build_sequence", lambda *args, **kwargs: fake)
    with decimal.localcontext(decimal.Context()):  # a context no earlier test can have replaced
        before = _context_state()
        assert cli.main(argv) == code
        assert _context_state() == before
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Height and bound reports
# ---------------------------------------------------------------------------

# sha256 of each report, as printed before the map heights were read off the
# integer model: -z^2 has comparison bound 0 (on the command line it needs
# --poly=-z^2, or argparse reads it as a flag), and the cubic has rational
# coefficients and a zero coefficient
PINNED_HEIGHTS = [
    ("heights", dict(poly="z^2+1/3", alpha="2/7"), {
        "json": "2999a491a33eaba381e0aafe9b40fb7fca6de019261808664144e3ab93ec4262",
        "text": "67d0312002916bc81e4fa0a7dbed4db9c78c671de82f7e78372734758f4ac9e3",
    }),
    ("heights", dict(poly="2/3*z^3-5/4*z+1/6", alpha="3/5"), {
        "json": "6a1bc51fd0baafdf9c19b6b801970d5a34604d3b95a467e50bc834f06a1f65e5",
        "text": "606bb92bc9c4c79f006737c3ac3818de4e85178738aaf431565dbac6925917f2",
    }),
    ("heights", dict(poly="-z^2", alpha="3"), {
        "json": "a254421a7d3cfc39da162abdf03bca5bba613a1003d5c36d88f2ac8d758e7576",
        "text": "8e63bd003fa0c263d7ba24b4d31cfb26a5f02f48837635e942a1c7fb97ca3983",
    }),
    ("bound", dict(poly="z^3+2", alpha="1", n=6, places="3", d=3, B="1", hhat="1", htilde="1", gamma="1", s_size=1), {
        "json": "c4beab10eaac1df5cd103433ac6903bd72c8bf068c5553d46dc93b36f9a27f55",
        "text": "6808592220f6724685eea53aa2e438dd84d72a8938d768a07b99eed3a14d15fa",
    }),
]


@pytest.mark.parametrize(
    "command, args, fmt, digest",
    [(c, a, fmt, d) for c, a, digests in PINNED_HEIGHTS for fmt, d in digests.items()],
)
def test_height_reports_match_pinned_digests(command, args, fmt, digest):
    code, report, _ = run_subcommand(command, dict(args), RunConfig(fmt=fmt))
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == digest


# sha256 of reports whose orbit stops at the digit budget, as printed before
# the engine stopped at the overflowing step without computing it: the
# family check exits 3 when its growth orbit stops at step 6, and both heights
# are truncated, the quartic at the default budget of 1e5 digits
PINNED_BUDGET_STOPS = [
    ("family-check", dict(factors="(z^3+2*z+3)^2*(z+5)^3", n=6), {}, 3, {
        "json": "4874178c89231be6b4784d6853878136e74e80c09a17f3594a0d1f3657e8c553",
        "text": "b5fb371b9c48feb17157d6b690b0e89c2153b1285e132c5e068378d142411c4b",
    }),
    ("heights", dict(poly="z^4+1/5*z", alpha="2"), {"tol": 1e-12}, 0, {
        "json": "7ac705084e84b280314ba8c627eaaaa66ee8e12b7c502f4e99fd048056820049",
        "text": "f402d263cc3d57407b42e9e078e0c35ea83c3afc46480aff3c6654e341eec1c1",
    }),
    ("heights", dict(poly="z^3-1/2", alpha="3/5"), {"tol": 1e-6, "digit_budget": 20_000}, 0, {
        "json": "4d62b3636479915222ed5ddc2d370f9ed98a2cb4389c49e73224ef210f551845",
        "text": "5ad512f08803f68ab6c531e4300161a8c8ac2ac76d1ade0d7a60085b17e0a555",
    }),
]


@pytest.mark.parametrize(
    "command, args, config, code, fmt, digest",
    [(c, a, k, e, fmt, d) for c, a, k, e, digests in PINNED_BUDGET_STOPS for fmt, d in digests.items()],
)
def test_budget_stop_reports_match_pinned_digests(command, args, config, code, fmt, digest):
    got, report, _ = run_subcommand(command, dict(args), RunConfig(fmt=fmt, **config))
    assert got == code
    assert hashlib.sha256(report.encode()).hexdigest() == digest


# report-shaped values: string keys and leaves, ints of any size, bools and
# None, nested dicts and lists, empty ones among them, and floats, which no
# report holds but the writer hands to json.dumps; strings reach past
# ASCII, into the control characters json escapes, and into surrogate pairs
_JSON_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x1F600, blacklist_categories=("Cs",)), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@given(report=st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5))
@example(report={})
@example(report={"a": [], "b": {}, "c": [[], {}], "é\x00\n\"\\": "\U0001f600\x1f "})
@settings(max_examples=300, deadline=None)
def test_json_reports_equal_json_dumps(report):
    assert cli._render_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"
