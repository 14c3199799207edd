"""The benchmark's checker accepts real reports and catches tampered ones;
its span check catches spans that do not nest."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from dynzsig import cli  # noqa: E402

ZSIG = ("zsigmondy", "--poly", "z^2+1", "--n", "8")


@pytest.fixture(autouse=True)
def keep_int_str_limit():
    # requests reset the interpreter-wide limit; other test modules rely on theirs
    saved = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(saved)


def report(*argv: str) -> str:
    code, text, _ = worker.call(cli.main, argv)
    assert code == 0
    return text


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_real_reports_pass(fmt):
    verdict = checker.check_report(report(*ZSIG, "--format", fmt), fmt)
    assert verdict.ok, verdict.problems
    assert verdict.max_digits == 23  # A_8 = 210066388901^2 + 1


def test_heights_report_passes_and_counts_the_tolerance():
    text = report("heights", "--poly", "z^2+1", "--alpha", "3", "--tol", "1e-3")
    verdict = checker.check_report(text, "json")
    assert verdict.ok and verdict.tol_met == [True]


def _tampered(edit) -> checker.Verdict:
    doc = json.loads(report(*ZSIG))
    edit(doc["result"])
    return checker.check_report(json.dumps(doc), "json")


def test_split_that_does_not_multiply_back_is_caught():
    def edit(result):
        result["records"][3]["primitive_part"] = "14"  # A_4 = 26 = 13 * 2

    assert any("primitive * nonprimitive" in p for p in _tampered(edit).problems)


def test_primitive_part_sharing_an_earlier_prime_is_caught():
    def edit(result):
        rec = result["records"][3]
        rec["primitive_part"], rec["nonprimitive_part"] = "26", "1"  # 2 divides A_2

    assert any("shares a prime" in p for p in _tampered(edit).problems)


def test_wrong_zsigmondy_set_is_caught():
    def edit(result):
        result["zsigmondy_set"] = [1, 4]

    assert any("zsigmondy_set" in p for p in _tampered(edit).problems)


def test_negative_error_bound_is_caught():
    doc = json.loads(report("heights", "--poly", "z^2+1", "--alpha", "3", "--tol", "1e-3"))
    doc["result"]["canonical_height"]["error_bound"] = "-1e-05"
    assert not checker.check_report(json.dumps(doc), "json").ok


def test_tampered_csv_is_caught():
    lines = report(*ZSIG, "--format", "csv").splitlines()
    assert lines[6] == "6,6,6,1,5,2"  # A_6 = 458330 = 45833 * 10
    lines[6] = "6,6,6,1,1,1"  # a 6-digit A_6 cannot split into two 1-digit parts
    assert not checker.check_report("\n".join(lines) + "\n", "csv").ok


def test_run_counts_tampered_bytes_and_wrong_exit_as_failures(tmp_path):
    key = "orbit --poly z^2+1 --n 8"
    genuine = report(*key.split()).encode("utf-8")
    tampered = genuine.replace(b'"computed_n": 8', b'"computed_n": 9')
    records = []
    for data, code in ((genuine, 0), (tampered, 0), (genuine, 1)):
        digest = checker.digest(data)
        (tmp_path / f"{digest}.out").write_bytes(data)
        records.append([key, code, 0.001, digest])
    failures = run.check_run("orbit-deep", records, tmp_path)["failures"]
    assert len(failures) == 2
    assert "reference digest" in failures[0] and "exit 1, expected 0" in failures[1]


def _spans():
    # request 0: request > run_subcommand > build_sequence > primitive_split
    return [
        [tracer.REQUEST, 0.0, 10.0, -1, 0],
        [tracer.RUN_SUBCOMMAND, 1.0, 9.0, 0, 0],
        ["zsigmondy.build_sequence", 2.0, 6.0, 1, 0],
        ["divisibility.primitive_split", 3.0, 4.0, 2, 0],
    ]


def test_well_nested_spans_pass():
    assert tracer.check_spans(_spans()) == []


@pytest.mark.parametrize(
    "edit, complaint",
    [
        (lambda s: s[3].__setitem__(2, 7.0), "within its parent"),  # child outlives its parent
        (lambda s: s[2].__setitem__(1, 0.5), "within its parent"),  # child starts before its parent
        (lambda s: s[3].__setitem__(4, 1), "belongs to request"),
        (lambda s: s[2].__setitem__(3, 0), "not under a run_subcommand"),
        (lambda s: s[1].__setitem__(3, -1), "no earlier parent"),
        (lambda s: s[0].__setitem__(3, 2), "request with a parent"),
        (lambda s: s[2].__setitem__(2, 1.5), "ends before it starts"),
    ],
)
def test_malformed_spans_are_caught(edit, complaint):
    spans = _spans()
    edit(spans)
    assert any(complaint in p for p in tracer.check_spans(spans))


def test_span_left_open_at_the_end_of_a_request_is_caught():
    tr = tracer.Tracer()
    tr.request_id = 0
    with tr.span(tracer.REQUEST):
        tr._open("cli.parse_poly")  # never closed
    assert any("ended with spans" in p for p in tr.problems)


def test_traced_request_nests_its_spans():
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        tr.request_id = 0
        with tr.span(tracer.REQUEST):
            code, _, _ = worker.call(cli.main, ZSIG)
    finally:
        restore()
    assert code == 0 and not tr.problems
    assert tracer.check_spans(tr.spans) == []
    assert {s[0] for s in tr.spans} >= {tracer.RUN_SUBCOMMAND, "zsigmondy.build_sequence"}
