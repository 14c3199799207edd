"""Report rendering: the big-integer decimal converter, orbit reports that are
built once in the requested format, and pinned digests that keep orbit,
height and bound reports byte-identical."""

import hashlib
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dynzsig import cli  # noqa: E402
from dynzsig.cli import RunConfig, run_subcommand  # noqa: E402
from dynzsig.divisibility import IdealPair, PrimitiveSplit  # noqa: E402
from dynzsig.ratfield import Polynomial  # noqa: E402
from dynzsig.zsigmondy import OrbitRecord, OrbitSequence  # noqa: E402

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


@given(p=_PART, q=_PART, rational=st.booleans(), sign=st.sampled_from((-1, 1)), cold=st.booleans())
@example(p=2**cli._STR_BITS + 1, q=1, rational=False, sign=1, cold=True)
@example(p=3, q=2 ** (cli._LEAF_BITS << 3) - 1, rational=True, sign=-1, cold=False)
@settings(max_examples=40, deadline=None)
def test_orbit_records_render_each_part_and_their_product(p, q, rational, sign, cold):
    if cold:
        cli._pow2.cache_clear()
    b = p * q + 1 if rational else 1  # coprime to p * q
    rec = OrbitRecord(1, sign, IdealPair.coprime(p * q, b), PrimitiveSplit(p, q), p > 1)
    seq = OrbitSequence(phi=Polynomial([1, 0, 1]), alpha=Fraction(0), centered=Polynomial([1, 0, 1]), records=[rec])
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

    monkeypatch.setattr(cli, "_decimal_str", refuse)
    monkeypatch.setattr(cli, "_to_decimal", refuse)
    args = dict(poly="z^2+1", n=30 if config else 18)
    code, report, _ = run_subcommand(command, args, RunConfig(fmt="csv", **config))
    assert code == (3 if config else 0)
    assert report.startswith("n,value_digits,A_digits,primitive,P_digits,N_digits\n")


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
