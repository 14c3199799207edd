import fcntl
import gc
import hashlib
import json
import random
import re
import sys
import threading
import time
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import pytest

from dynzsig import cli, zsigmondy
from dynzsig.cli import (
    ExponentError,
    FactorCache,
    ParseError,
    RunConfig,
    main,
    parse_poly,
    parse_rational,
    run_subcommand,
)
from dynzsig.divisibility import (
    DEFAULT_BUDGET,
    FactorBudget,
    Factorization,
    _factor_uncached,
    factor,
)
from dynzsig.heights import PlaceSet
from dynzsig.ratfield import IntegerModel, Polynomial

Z = Polynomial.identity()


def run(command, config=None, **args):
    config = config or RunConfig()
    return run_subcommand(command, args, config)


# --- expression parsing -------------------------------------------------------


def test_parse_simple():
    assert parse_poly("z^2+1").poly == Polynomial([1, 0, 1])


def test_parse_product_form_preserved():
    parsed = parse_poly("(z+2)^2*(z+3)^2")
    assert parsed.poly == Polynomial([36, 60, 37, 10, 1])
    assert parsed.factored == (
        (Polynomial([2, 1]), 2),
        (Polynomial([3, 1]), 2),
    )


def test_parse_double_caret_position():
    with pytest.raises(ParseError) as err:
        parse_poly("z^^2")
    assert err.value.position == 2


def test_parse_negative_exponent_rejected():
    with pytest.raises(ExponentError):
        parse_poly("z^-2")


def test_parse_symbolic_exponent_rejected():
    with pytest.raises(ExponentError):
        parse_poly("z^(1+1)")


def test_parse_rational_literals():
    assert parse_poly("1/2*z^2 + 1/3").poly == Polynomial([Fraction(1, 3), 0, Fraction(1, 2)])


def test_parse_leading_sign():
    assert parse_poly("-z^2 + 1").poly == Polynomial([1, 0, -1])


def test_parse_whitespace_insensitive():
    assert parse_poly("  z ^ 2 + 1 ").poly == parse_poly("z^2+1").poly


def test_parse_left_associative_subtraction():
    assert parse_poly("z-1-1").poly == Polynomial([-2, 1])
    assert parse_poly("2*3*z").poly == Polynomial([0, 6])


def test_parse_sum_is_not_factored():
    assert parse_poly("z^2+1").factored is None


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("z^2+1)")


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_poly("   ")


def test_parse_rational_values():
    limit = RunConfig().str_digits()
    assert parse_rational("26/5", limit) == Fraction(26, 5)
    assert parse_rational("-7", limit) == -7
    with pytest.raises(ParseError):
        parse_rational("1/0", limit)


def test_parse_rational_refuses_an_exponent_past_its_limit():
    # 10**399_999 has 400,000 digits, the most the limit admits
    assert parse_rational("1e000399_999", 400_000) == 10**399_999
    assert parse_rational("-1E-399999", 400_000) == Fraction(-1, 10**399_999)
    for text in ("1e400000", "1e4_000_01", "2.5e+9999999", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="power of ten of more than 400000 digits"):
            parse_rational(text, 400_000)


# Fraction builds 10**e for an exponent e, which the int<->str limit of the run,
# max(10_000, 4 * digit budget) = 400,000 digits here, never meets
@pytest.mark.parametrize("alpha", ["1e30000000", "-1e-30000000", "2.5E+9999999"])
@pytest.mark.parametrize(
    "command, args",
    [
        ("orbit", dict(poly="z^2+1", n=3)),
        ("heights", dict(poly="z^2+1")),
        ("bound", dict(poly="z^2+1", n=3, d="3", B="1", hhat="1", htilde="1", gamma="1", s_size="1")),
    ],
)
def test_alpha_exponent_past_the_int_str_limit_exits_usage(command, args, alpha):
    start = time.perf_counter()
    code, _, diag = run(command, alpha=alpha, **args)
    assert time.perf_counter() - start < 1
    assert code == 2 and "power of ten of more than 400000 digits" in diag


def test_alpha_exponent_within_the_limit_meets_the_digit_budget():
    code, _, diag = run("orbit", RunConfig(fmt="csv"), poly="z^2+1", alpha="1e300000", n=3)
    assert code == 3 and "exceeds 100000 digits" in diag


# alpha has 300,001 digits and the centered map's constant term 600,001, past
# both the digit budget and the run's int<->str limit of 400,000
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "command, args",
    [
        ("orbit", dict(poly="z^2+1", n=3)),
        ("bound", dict(poly="z^3+1", n=3, d="3", B="1", hhat="1", htilde="1", gamma="1", s_size="1")),
    ],
)
def test_huge_alpha_meets_the_digit_budget_in_every_format(command, args, fmt):
    start = time.perf_counter()
    code, report, diag = run(command, RunConfig(fmt=fmt), alpha="1e300000", **args)
    assert time.perf_counter() - start < 1
    assert code == 3 and diag == "budget exhausted: orbit value at step 1 exceeds 100000 digits"
    assert "partial" not in report and not re.search(r"\d{100001}", report)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_heights_point_past_the_digit_budget_exits_budget(fmt):
    # the point used to print all its 300,001 digits with the quadratic str
    start = time.perf_counter()
    code, report, diag = run("heights", RunConfig(fmt=fmt), poly="z^2+1", alpha="1e300000")
    assert time.perf_counter() - start < 1
    assert code == 3 and diag == "budget exhausted: point exceeds 100000 digits"
    assert not re.search(r"\d{100001}", report)


def test_heights_point_within_the_digit_budget_prints_exactly():
    code, report, _ = run("heights", poly="z^2+1", alpha="1e60000")
    assert code == 0 and json.loads(report)["result"]["point"] == "1" + "0" * 60000


def test_print_parse_round_trip():
    rng = random.Random(51)
    for _ in range(40):
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))
        ]
        poly = Polynomial(coeffs)
        assert parse_poly(str(poly)).poly == poly


# --- configuration --------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(digit_budget=0)
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml")


def test_trial_bound_cap():
    with pytest.raises(ValueError, match="exceeds the cap"):
        RunConfig(trial_bound=10**7 + 1)
    assert RunConfig(trial_bound=10**7).trial_bound == 10**7


# --- subcommands -----------------------------------------------------------------


def test_zsigmondy_subcommand_reports_set():
    code, report, _ = run("zsigmondy", poly="z^2+1", alpha="0", n=6)
    assert code == 0
    payload = json.loads(report)
    assert payload["result"]["zsigmondy_set"] == [1]
    assert payload["result"]["wandering_verdict"] == "wandering"
    assert payload["command"] == "zsigmondy"


def test_orbit_subcommand_records():
    code, report, _ = run("orbit", poly="z^2+1", alpha="0", n=5)
    assert code == 0
    records = json.loads(report)["result"]["records"]
    assert [r["numerator_ideal"] for r in records] == ["1", "2", "5", "26", "677"]
    assert records[3]["nonprimitive_part"] == "2"


def test_bound_subcommand_worked_value():
    code, report, _ = run(
        "bound", d=3, B="1", hhat="1", htilde="1", gamma="1", s_size=1
    )
    assert code == 0
    result = json.loads(report)["result"]
    assert abs(float(result["M"]) - 11.5237190143) < 1e-6
    assert set(result["terms"]) == {"startup", "history", "proximity_gamma", "proximity_log"}
    assert result["startup_set"] == [1]


def test_bound_subcommand_with_orbit():
    code, report, _ = run(
        "bound",
        d=3,
        B="1",
        hhat="1",
        htilde="1",
        gamma="1",
        s_size=1,
        poly="z^3+1",
        alpha="0",
        n=6,
    )
    assert code == 0
    result = json.loads(report)["result"]
    members = [row["n"] for row in result["close_approach"] if row["member"]]
    assert members == [1, 2]


def test_rigid_check_subcommand():
    code, report, _ = run("rigid-check", poly="z^2+1", alpha="0", n=6)
    assert code == 0
    result = json.loads(report)["result"]
    assert result["verified"] is True
    assert result["untested_cofactors"] == []


def test_heights_subcommand():
    code, report, _ = run("heights", poly="z^2+1", alpha="3/2", places="2,3")
    assert code == 0
    result = json.loads(report)["result"]
    assert result["weil_height"] == "1.09861228867"
    assert result["local_log_distances"]["3"] == "1.09861228867"


def test_powerful_check_subcommand():
    code, report, _ = run("powerful-check", poly="(z+2)^2*(z+3)^2")
    assert code == 0
    result = json.loads(report)["result"]
    assert result["is_powerful"] is True
    assert result["place_set"] == ["inf"]


def test_family_check_subcommand():
    code, report, _ = run("family-check", factors="(z+2)^2*(z+3)^2", n=3)
    assert code == 0
    result = json.loads(report)["result"]
    assert result["classification"] == "wandering"
    assert result["growth"]["passed"] is True
    assert result["valuation_stability"]["ok"] is True


def test_family_check_builds_its_map_and_iterates_its_orbit_once(monkeypatch):
    calls = {"family_build": 0, "orbit": 0}
    build, orbit = zsigmondy.family_build, IntegerModel.orbit

    def counting_build(spec):
        calls["family_build"] += 1
        return build(spec)

    def counting_orbit(self, *args, **kwargs):
        calls["orbit"] += 1
        return orbit(self, *args, **kwargs)

    for owner in (cli, zsigmondy):
        monkeypatch.setattr(owner, "family_build", counting_build)
    monkeypatch.setattr(IntegerModel, "orbit", counting_orbit)
    assert run("family-check", factors="(z+2)^2*(z+3)^2", n=3)[0] == 0
    assert calls == {"family_build": 1, "orbit": 1}


# sha256 of family-check reports as printed while the growth and stability
# checks each built the map and iterated the orbit of 0: a stop at the digit
# budget, a full check, and a check whose factorizations a cache answers
PINNED_FAMILIES = [
    (dict(factors="(z^3+2*z+3)^2*(z+5)^3", n=6), 3, {
        "json": "4874178c89231be6b4784d6853878136e74e80c09a17f3594a0d1f3657e8c553",
        "text": "b5fb371b9c48feb17157d6b690b0e89c2153b1285e132c5e068378d142411c4b",
    }),
    (dict(factors="(z+2)^2*(z+3)^2", n=5), 0, {
        "json": "999e68db5195c1b0e298eea4e7925da4e3229c70bae5ade96cc85860e4e53ca6",
        "text": "7d72b6186019e596cce87791b9ebb74052fb0e5fd8807c64482b74891d0a5516",
    }),
]
PINNED_CACHED_FAMILY = (dict(factors="(z+2)^2*(z-3)^3", n=3), {
    "json": "38f37c364d6f9f0abfe724af2acf8618c52059b0f638b68b85cad96b0a6339f1",
    "text": "4aa12428b775acdb293bcf1118dfe048dbf7e7ef73a0488991dcec27e098d903",
})


@pytest.mark.parametrize(
    "args, code, fmt, digest", [(a, c, fmt, d) for a, c, digests in PINNED_FAMILIES for fmt, d in digests.items()]
)
def test_family_check_reports_are_pinned(args, code, fmt, digest):
    got, report, _ = run("family-check", RunConfig(fmt=fmt), **args)
    assert got == code
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_cached_family_check_report_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report echoes the cache path
    args, digests = PINNED_CACHED_FAMILY
    for fmt in ("json", "json", "text"):  # the first request stores, the others look up
        code, report, _ = run("family-check", RunConfig(fmt=fmt, cache_path="factors.jsonl"), **args)
        assert code == 0
        assert hashlib.sha256(report.encode()).hexdigest() == digests[fmt]
    assert (tmp_path / "factors.jsonl").read_text().count("\n") == 3


# --- exit codes ------------------------------------------------------------------


def test_exit_code_hypothesis_violation():
    code, report, diag = run("family-check", factors="(z*1+1)^2")
    assert code == 1
    assert json.loads(report)["result"]["reason"] == "m < 2"
    assert "m < 2" in diag


def test_exit_code_preperiodic():
    code, report, _ = run("zsigmondy", poly="z^2-1", alpha="0", n=5)
    assert code == 1
    assert json.loads(report)["result"]["reason"] == "preperiodic point"


def test_exit_code_parse_error():
    code, report, _ = run("zsigmondy", poly="z^^2", alpha="0", n=5)
    assert code == 2


def test_exit_code_missing_flag():
    code, _, diag = run("zsigmondy")
    assert code == 2
    assert "--poly" in diag


def test_exit_code_budget_with_partial():
    config = RunConfig(digit_budget=30)
    code, report, _ = run("orbit", config, poly="z^2+1", alpha="0", n=40)
    assert code == 3
    payload = json.loads(report)
    assert payload["result"]["reason"] == "digit budget exceeded"
    assert len(payload["result"]["partial"]["records"]) >= 5


def test_exit_code_csv_unsupported_elsewhere():
    config = RunConfig(fmt="csv")
    code, _, diag = run("heights", config, poly="z^2+1", alpha="2")
    assert code == 2
    assert "csv" in diag


def test_csv_does_not_mask_hypothesis_failures():
    config = RunConfig(fmt="csv")
    code, _, diag = run("zsigmondy", config, poly="z^2-1", alpha="0", n=5)
    assert code == 1
    assert "hypothesis" in diag


def test_exit_code_good_runs_are_zero():
    assert run("orbit", poly="z^2+1", alpha="0", n=4)[0] == 0
    assert run("powerful-check", poly="z^3")[0] == 0


_BOUND_ARGV = ["--d", "3", "--B", "1", "--hhat", "1", "--htilde", "1", "--gamma", "1", "--s-size", "1"]


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--poly", "z^2+1"],
        ["zsigmondy", "--poly", "z^2+1"],
        ["rigid-check", "--poly", "z^2+1"],
        ["bound", "--poly", "z^3+1", *_BOUND_ARGV],
        ["family-check", "--factors", "(z+2)^2*(z+3)^2"],
        ["family-check", "--factors", "z^2*(z+3)^2"],
    ],
)
def test_n_below_one_is_a_usage_error(argv, n, capsys):
    # --n 0 once fell back to the default, family-check --n -1 indexed an empty
    # orbit, and a fixed family (offset 0) never read --n
    code = main([*argv, "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["result"]["error"].endswith("requires N >= 1")
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*_BOUND_ARGV[:-1], "600"], "s_size too large"),  # 4.0**s_size overflows
        (["--d", "3", "--B", "1e300", "--hhat", "1e-10", *_BOUND_ARGV[6:]], "B / hhat0 too large"),
        (["--d", str(10**309), *_BOUND_ARGV[2:]], "d too large"),  # no float conversion
        ([*_BOUND_ARGV, "--poly", "z^3+1", "--places", "3," + "1" * 301], "more than 300 digits"),
        ([*_BOUND_ARGV, "--poly", "z^3+1", "--places", str(10**1998 + 1)], "more than 300 digits"),
    ],
)
def test_oversized_bound_inputs_are_usage_errors(argv, message, capsys):
    # the first three once exited 4 with an OverflowError, and a place of
    # 1,999 digits ran Miller-Rabin for most of a second before its refusal
    code = main(["bound", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        [*_BOUND_ARGV[:-1], "511"],
        ["--d", "3", "--B", "1e300", "--hhat", "1e-7", *_BOUND_ARGV[6:]],
        ["--d", str(int(sys.float_info.max) // 3), *_BOUND_ARGV[2:]],
        [*_BOUND_ARGV, "--poly", "z^3+1", "--n", "3", "--places", f"3,{2**607 - 1}"],
    ],
)
def test_largest_bound_inputs_still_evaluate(argv, capsys):
    assert main(["bound", *argv]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("htilde, code", [("-0.5", 2), ("-2", 2), ("0", 0)])
def test_htilde_must_not_be_negative(htilde, code, capsys):
    # -0.5 once evaluated to M = 10.26, and -2 failed with "math domain error"
    assert main(["bound", *_BOUND_ARGV[:7], htilde, *_BOUND_ARGV[8:]]) == code
    captured = capsys.readouterr()
    assert captured.err == ("error: htilde must be >= 0\n" if code else "")


@pytest.fixture
def decompositions(monkeypatch):
    """The polynomials squarefree_decomposition is called on, wrapped in
    every module that binds it."""
    from dynzsig import ratfield, zsigmondy

    calls = []
    original = ratfield.squarefree_decomposition

    def counting(f):
        calls.append(f)
        return original(f)

    for owner in (cli, ratfield, zsigmondy):
        monkeypatch.setattr(owner, "squarefree_decomposition", counting)
    return calls


@pytest.mark.parametrize(
    "command, args, count",
    [
        ("powerful-check", {"poly": "(z+2)^2*(z+3)^2"}, 1),
        ("powerful-check", {"poly": "z^2+1"}, 1),
        ("family-check", {"factors": "(z+2)^2*(z+3)^2", "n": 3}, 1),  # wandering
        ("family-check", {"factors": "z^2*(z+3)^2"}, 0),  # fixed
    ],
)
def test_each_request_decomposes_at_most_once(command, args, count, decompositions):
    assert run(command, **args)[0] == 0
    assert len(decompositions) == count


def test_valuation_stability_check_decomposes_once(decompositions):
    phi = parse_poly("(z+2)^2*(z+3)^2").poly
    assert cli.valuation_stability_check(phi, PlaceSet(), list(IntegerModel(phi).orbit(0, 2, track=True))).ok
    assert decompositions == [phi]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_internal_error_has_its_own_exit_code(fmt, monkeypatch, capsys):
    def broken(args, config):
        return [][0]

    _, options, required = cli._COMMANDS["orbit"]
    monkeypatch.setitem(cli._COMMANDS, "orbit", (broken, options, required))
    code = main(["orbit", "--poly", "z^2+1", "--format", fmt])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.err.startswith("internal error: IndexError: list index out of range (at test_cli.py:")
    assert captured.err.count("\n") == 1
    if fmt == "json":
        result = json.loads(captured.out)["result"]
        assert result == {"error": captured.err[len("internal error: "):-1], "reason": "internal error"}
    else:
        assert captured.out == ""


def test_run_subcommand_restores_int_str_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int->str limit")
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(12_345)
        for name, args in (
            ("orbit", {"poly": "z^2+1", "n": 6}),
            ("orbit", {"poly": "z^2+1", "n": 30}),  # digit budget exceeded
            ("zsigmondy", {"poly": "z^^2"}),  # parse error
        ):
            run_subcommand(name, args, RunConfig(digit_budget=20_000))
            assert sys.get_int_max_str_digits() == 12_345, name
    finally:
        sys.set_int_max_str_digits(saved)


# --- output formats ----------------------------------------------------------------


def test_csv_orbit_table():
    config = RunConfig(fmt="csv")
    code, report, _ = run("orbit", config, poly="z^2+1", alpha="0", n=5)
    assert code == 0
    lines = report.strip().split("\n")
    assert lines[0] == "n,value_digits,A_digits,primitive,P_digits,N_digits"
    assert lines[1] == "1,1,1,0,1,1"
    assert lines[4] == "4,2,2,1,2,1"


def test_text_format_renders():
    config = RunConfig(fmt="text")
    code, report, _ = run("zsigmondy", config, poly="z^2+1", alpha="0", n=4)
    assert code == 0
    assert "result.zsigmondy_set: 1" in report


def test_text_report_leaves_no_reference_cycle():
    # garbage only a collection frees would pile up between full collections
    config = RunConfig(fmt="text")
    run("orbit", config, poly="z^2+1", n=8)  # warm
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run("orbit", config, poly="z^2+1", n=8)
        assert code == 0 and gc.collect() == 0
    finally:
        gc.enable()


def test_json_report_leaves_no_reference_cycle():
    # json's pure-Python encoder, which indent selects, left 33 objects per report
    run("orbit", poly="z^2+1", n=8)  # warm
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run("orbit", poly="z^2+1", n=8)
        assert code == 0 and gc.collect() == 0
    finally:
        gc.enable()


def test_exponent_cap():
    with pytest.raises(ParseError):
        parse_poly("(z+1)^100000")


def test_exponent_literal_cap_is_checked_before_the_degree():
    with pytest.raises(ParseError, match=r"^exponent 5000 exceeds the cap 4096 \(offset 6\)$"):
        parse_poly("(z+1)^5000")


@pytest.mark.parametrize(
    "text",
    [
        "((z+1)^64)^64",
        "(z+1)^4096",
        "(z^2+1)^200",
        "(z+1)^200*(z+2)^100",
        "z^200*z^57",
        "(100000000000000000000*z+1)^300",  # the degree is checked before the coefficients
    ],
)
def test_degree_cap_fails_fast(text):
    start = time.perf_counter()
    code, report, diag = run("powerful-check", poly=text)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "exceeds the cap 256" in json.loads(report)["result"]["error"]


def test_degree_cap_admits_its_bound():
    assert parse_poly("((z+1)^16)^16").poly.degree == 256
    assert parse_poly("z^200*z^56").poly.degree == 256


@pytest.mark.parametrize(
    "text",
    [
        "(100000000000000000000*z+1)^256",
        "((100000000000000000000*z+1)^16)^16",
        "(100000000000000000000*z+1)^128*(100000000000000000000*z+1)^128",
        "(z+1/100000000000000000000)^256",
        "(4294967296*z+1)^256",
    ],
)
def test_coefficient_cap_fails_fast(text):
    start = time.perf_counter()
    code, report, _ = run("powerful-check", poly=text)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "exceed the cap 8192" in json.loads(report)["result"]["error"]


def test_coefficient_cap_admits_its_bound():
    # log2(2^32) * 256 is exactly the cap
    assert parse_poly("(4294967295*z+1)^256").poly.coefficient(256) == 4294967295**256


def test_every_benchmark_polynomial_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = pytest.importorskip("workloads")
    texts = set()
    for name in workloads.WORKLOADS:
        for request in workloads.catalogue(name):
            if request.expect == 2:
                continue
            for flag in ("--poly", "--factors"):
                if flag in request.argv:
                    texts.add(request.argv[request.argv.index(flag) + 1])
    assert len(texts) >= 20
    for text in texts:
        parse_poly(text)


def test_bound_with_orbit_has_no_ambiguity_warnings():
    code, report, _ = run(
        "bound",
        d=3,
        B="1",
        hhat="1",
        htilde="1",
        gamma="1",
        s_size=1,
        poly="z^3+1",
        alpha="0",
        n=8,
    )
    assert code == 0
    assert json.loads(report)["warnings"] == []


def test_reports_are_byte_stable_across_formats():
    for fmt in ("csv", "text"):
        config = RunConfig(fmt=fmt, seed=3)
        first = run_subcommand("orbit", dict(poly="z^2+1", alpha="0", n=6), config)
        second = run_subcommand("orbit", dict(poly="z^2+1", alpha="0", n=6), config)
        assert first == second


def test_reports_are_byte_stable():
    matrix = [
        ("orbit", dict(poly="z^2+1", alpha="0", n=6)),
        ("zsigmondy", dict(poly="z^2+1", alpha="0", n=6)),
        ("rigid-check", dict(poly="z^2+1", alpha="0", n=6)),
        ("heights", dict(poly="z^2+1", alpha="3/2", places="2,3")),
        ("bound", dict(d=3, B="1", hhat="1", htilde="1", gamma="1", s_size=1)),
        ("powerful-check", dict(poly="(z+2)^2*(z+3)^2")),
        ("family-check", dict(factors="(z+2)^2*(z+3)^2", n=3)),
    ]
    for command, args in matrix:
        first = run_subcommand(command, dict(args), RunConfig(seed=7))
        second = run_subcommand(command, dict(args), RunConfig(seed=7))
        assert first == second, command


# --- factor cache ---------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "factors.jsonl")
    cache = FactorCache(path)
    fact = factor(458330)
    cache.store(458330, fact, DEFAULT_BUDGET)
    assert cache.get(458330, DEFAULT_BUDGET).factors == fact.factors
    # the line format older versions read
    assert Path(path).read_text() == (
        '{"complete": true, "composite": "458330", "factors": [["2", 1], ["5", 1], ["45833", 1]]}\n'
    )
    # a new handle reads it back without recomputation
    reread = FactorCache(path)
    hit = reread.get(458330, DEFAULT_BUDGET)
    assert hit is not None and hit.factors == {2: 1, 5: 1, 45833: 1}


def test_cache_miss_returns_none(tmp_path):
    cache = FactorCache(str(tmp_path / "factors.jsonl"))
    assert cache.get(12345, DEFAULT_BUDGET) is None


# the two primes of about 10^12 survive trial division below 1000 and any 21 rho rounds
PARTIAL_N = 2 * 1000000000039 * 3000000000013
SMALL = FactorBudget(trial_bound=1000, rho_rounds=20)


def test_cache_stores_partial_factorizations_with_their_budget(tmp_path):
    path = tmp_path / "factors.jsonl"
    cache = FactorCache(str(path))
    fact = Factorization({2: 1}, 458330 // 2)
    cache.store(458330, fact, SMALL)
    assert cache.get(458330, SMALL) == fact
    assert json.loads(path.read_text()) == {
        "budget": {"rho_digit_limit": 300, "rho_rounds": 20, "seed": 1, "trial_bound": 1000},
        "complete": False,
        "composite": "458330",
        "factors": [["2", 1]],
    }
    # the cofactor is not written: a new handle recomputes it
    assert FactorCache(str(path)).get(458330, SMALL) == fact


def test_cache_partial_entry_answers_only_its_budget(tmp_path):
    path = str(tmp_path / "factors.jsonl")
    cold = factor(PARTIAL_N, SMALL, FactorCache(path))
    assert not cold.complete
    reread = FactorCache(path)
    assert reread.warnings == []
    assert reread.get(PARTIAL_N, SMALL) == cold
    for change in ({"seed": 2}, {"rho_rounds": 21}, {"trial_bound": 999}, {"rho_digit_limit": 30}):
        other = replace(SMALL, **change)
        assert reread.get(PARTIAL_N, other) is None, change
        # a miss recomputes at the new budget, and stores that too
        assert factor(PARTIAL_N, other, reread) == _factor_uncached(PARTIAL_N, other)
        assert reread.get(PARTIAL_N, other) is not None
    assert len(Path(path).read_text().splitlines()) == 5


def test_cache_complete_line_beats_partial_line(tmp_path):
    path = tmp_path / "factors.jsonl"
    partial = {
        "budget": asdict(DEFAULT_BUDGET),
        "complete": False,
        "composite": "458330",
        "factors": [["2", 1]],
    }
    complete = {"complete": True, "composite": "458330", "factors": [["2", 1], ["5", 1], ["45833", 1]]}
    for lines in ([partial, complete], [complete, partial]):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        cache = FactorCache(str(path))
        assert cache.warnings == []
        assert cache.get(458330, DEFAULT_BUDGET) == Factorization({2: 1, 5: 1, 45833: 1})
        # a partial result offered later writes nothing
        cache.store(458330, Factorization({2: 1}, 229165), DEFAULT_BUDGET)
        assert len(path.read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "factors",
    [
        [["3", 1]],  # does not divide 458330
        [["2", 1], ["5", 1], ["45833", 1]],  # leaves a cofactor of 1
        [["2", -1]],
        [["1", 1]],
    ],
)
def test_cache_warns_on_tampered_partial_line(tmp_path, factors):
    path = tmp_path / "factors.jsonl"
    line = {"budget": asdict(DEFAULT_BUDGET), "complete": False, "composite": "458330", "factors": factors}
    path.write_text(json.dumps(line) + "\n")
    cache = FactorCache(str(path))
    assert len(cache.warnings) == 1 and cache.warnings[0].startswith("cache line 1 skipped: ")
    assert cache.get(458330, DEFAULT_BUDGET) is None


def test_cache_skips_old_partial_lines_silently(tmp_path):
    path = tmp_path / "factors.jsonl"
    lines = [
        {"composite": "458330", "factors": [["2", 1]], "complete": False},
        {"composite": "10", "factors": [["2", 1]], "complete": False},
        {"composite": "458330", "factors": [["2", 1], ["5", 1], ["45833", 1]], "complete": True},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    cache = FactorCache(str(path))
    assert cache.warnings == []
    assert cache.get(10, DEFAULT_BUDGET) is None
    assert cache.get(458330, DEFAULT_BUDGET).factors == {2: 1, 5: 1, 45833: 1}


def test_cache_stores_a_composite_once(tmp_path):
    path = tmp_path / "factors.jsonl"
    cache = FactorCache(str(path))
    cache.store(458330, factor(458330), DEFAULT_BUDGET)
    cache.store(458330, factor(458330), DEFAULT_BUDGET)
    assert len(path.read_text().splitlines()) == 1


def test_cached_rigid_check_reuses_partial_lines_at_its_budget(tmp_path):
    # a budget this small leaves two cofactors among the first 8 terms
    path = tmp_path / "factors.jsonl"
    budget = {"trial_bound": 1000, "rho_budget": 20}
    args = {"poly": "z^2+1", "n": 8}
    _, plain, _ = run("rigid-check", RunConfig(**budget), **args)
    expected = json.loads(plain)["result"]
    assert expected["untested_cofactors"]
    for _ in range(2):  # the second run reads what the first stored
        code, report, _ = run("rigid-check", RunConfig(cache_path=str(path), **budget), **args)
        assert code == 0 and json.loads(report)["result"] == expected
    records = [json.loads(line) for line in path.read_text().splitlines()]
    partial = [r for r in records if r["complete"] is not True]
    assert len(partial) == 2
    tag = asdict(RunConfig(**budget).factor_budget())
    assert all(r["budget"] == tag for r in partial)


@pytest.mark.parametrize(
    "option, value", [("--seed", "2"), ("--rho-budget", "21"), ("--trial-bound", "999")]
)
def test_cli_recomputes_partial_lines_at_another_budget(tmp_path, capsys, option, value):
    path = str(tmp_path / "factors.jsonl")
    argv = ["rigid-check", "--poly", "z^2+1", "--n", "8", "--cache", path]
    small = ["--trial-bound", "1000", "--rho-budget", "20"]
    assert main(argv + small) == 0
    lines = len(Path(path).read_text().splitlines())
    assert main(argv + small) == 0
    assert len(Path(path).read_text().splitlines()) == lines  # every lookup hit
    other = small + [option, value]
    capsys.readouterr()
    assert main(argv + other) == 0
    cached = capsys.readouterr().out
    assert len(Path(path).read_text().splitlines()) > lines  # the other budget missed
    assert main(argv[:-2] + other) == 0
    # the report echoes its config, cache path included, so compare the results
    assert json.loads(cached)["result"] == json.loads(capsys.readouterr().out)["result"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str limit")
@pytest.mark.parametrize("digit_budget, loaded", [(1000, False), (5000, True)])
def test_cache_line_over_the_int_str_limit_is_skipped_silently(tmp_path, digit_budget, loaded):
    # run_subcommand limits int<->str conversion to max(10,000, 4 * digit budget) digits
    path = tmp_path / "factors.jsonl"
    big = 2**40000  # 12,042 digits
    lines = [
        {"complete": True, "composite": str(big), "factors": [["2", 40000]]},
        {"budget": asdict(DEFAULT_BUDGET), "complete": False, "composite": str(big * 3), "factors": [["2", 1]]},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    config = RunConfig(cache_path=str(path), digit_budget=digit_budget)
    code, report, _ = run("rigid-check", config, poly="z^2+1", n=4)
    assert code == 0 and json.loads(report)["warnings"] == []
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max(10_000, 4 * digit_budget))
    try:
        cache = FactorCache(str(path))
    finally:
        sys.set_int_max_str_digits(saved)
    assert cache.warnings == []
    assert (cache.get(big, DEFAULT_BUDGET) is not None) is loaded
    assert (cache.get(big * 3, DEFAULT_BUDGET) is not None) is loaded


def test_cache_line_stays_text_until_a_lookup_of_its_digit_count(tmp_path):
    path = tmp_path / "factors.jsonl"
    big = 6 * (10**19999 + 1)  # 20,000 digits
    big_text = "6" + "0" * 19998 + "6"
    lines = [
        {"budget": asdict(DEFAULT_BUDGET), "complete": False, "composite": big_text, "factors": [["2", 1], ["3", 1]]},
        {"complete": True, "composite": "458330", "factors": [["2", 1], ["5", 1], ["45833", 1]]},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    cache = FactorCache(str(path))
    assert cache.warnings == [] and cache.entries == {}
    assert [text for text, _, _ in cache._pending[20000]] == [big_text]
    assert cache.get(458330, DEFAULT_BUDGET).complete
    assert [text for text, _, _ in cache._pending[20000]] == [big_text]  # another digit count
    assert cache.get(big, SMALL) is None  # the lookup converts the line, whose budget differs
    assert 20000 not in cache._pending
    assert cache.get(big, DEFAULT_BUDGET) == Factorization({2: 1, 3: 1}, 10**19999 + 1)


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "factors.jsonl"
    good = json.dumps(
        {"composite": "6", "factors": [["2", 1], ["3", 1]], "complete": True}
    )
    path.write_text("not json at all\n" + good + "\n{\"composite\": \"10\"}\n")
    cache = FactorCache(str(path))
    assert cache.get(6, DEFAULT_BUDGET).complete
    assert cache.get(10, DEFAULT_BUDGET) is None
    assert len(cache.warnings) == 2


@pytest.mark.parametrize(
    "command, args",
    [
        ("rigid-check", {"poly": "z^2+1", "n": 3}),
        ("family-check", {"factors": "(z+2)^2*(z+3)^2", "n": 2}),
    ],
)
def test_corrupt_cache_lines_are_reported(tmp_path, command, args):
    path = tmp_path / "factors.jsonl"
    path.write_text("garbage\n")
    code, report, _ = run(command, RunConfig(cache_path=str(path)), **args)
    assert code == 0
    warnings = json.loads(report)["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("cache line 1 skipped: ")


def test_leftover_lock_file_does_not_delay_a_store(tmp_path):
    path = tmp_path / "factors.jsonl"
    (tmp_path / "factors.jsonl.lock").write_text("")
    start = time.perf_counter()
    FactorCache(str(path)).store(458330, factor(458330), DEFAULT_BUDGET)
    assert time.perf_counter() - start < 1.0
    assert FactorCache(str(path)).get(458330, DEFAULT_BUDGET).factors == {2: 1, 5: 1, 45833: 1}


def test_store_waits_for_the_file_lock(tmp_path):
    path = tmp_path / "factors.jsonl"
    path.write_text("")
    cache = FactorCache(str(path))
    with open(path, "a") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        writer = threading.Thread(target=cache.store, args=(458330, factor(458330), DEFAULT_BUDGET))
        writer.start()
        writer.join(0.3)
        assert writer.is_alive()
        assert path.read_text() == ""
        fcntl.flock(holder, fcntl.LOCK_UN)
        writer.join(5.0)
    assert not writer.is_alive()
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    reread = FactorCache(str(path))
    assert reread.warnings == [] and reread.get(458330, DEFAULT_BUDGET).complete


@pytest.mark.parametrize("where", ["missing/factors.jsonl", "."])
def test_bad_cache_path_is_a_usage_error(tmp_path, where):
    path = str(tmp_path / where)
    code, report, diag = run("rigid-check", RunConfig(cache_path=path), poly="z^2+1", n=4)
    assert code == 2
    assert json.loads(report)["result"]["error"] == diag[len("error: "):]
    assert path in diag


def test_factor_uses_cache(tmp_path):
    path = str(tmp_path / "factors.jsonl")
    cache = FactorCache(path)
    wrong = Factorization({458330: 1}, 1)  # deliberately silly, but complete
    cache.store(458330, wrong, DEFAULT_BUDGET)
    hit = factor(458330, cache=cache)
    assert hit.factors == {458330: 1}  # came from the cache, not recomputed


# --- main entry -------------------------------------------------------------------------


def test_main_writes_report(capsys):
    code = main(["zsigmondy", "--poly", "z^2+1", "--alpha", "0", "--n", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert '"zsigmondy_set"' in captured.out


def test_main_rejects_trial_bound_over_the_cap(capsys):
    code = main(["orbit", "--poly", "z^2+1", "--n", "2", "--trial-bound", str(10**7 + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: trial bound 10000001 exceeds the cap 10000000\n"


def test_main_env_cache(tmp_path, monkeypatch, capsys):
    cache_file = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("DYNZSIG_CACHE", str(cache_file))
    code = main(["rigid-check", "--poly", "z^2+1", "--alpha", "0", "--n", "6"])
    capsys.readouterr()
    assert code == 0
    assert cache_file.exists()


def test_main_flag_overrides_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYNZSIG_CACHE", str(tmp_path / "ignored.jsonl"))
    explicit = tmp_path / "explicit.jsonl"
    code = main(
        ["rigid-check", "--poly", "z^2+1", "--alpha", "0", "--n", "6", "--cache", str(explicit)]
    )
    capsys.readouterr()
    assert code == 0
    assert explicit.exists()
    assert not (tmp_path / "ignored.jsonl").exists()
