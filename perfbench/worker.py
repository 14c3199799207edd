"""Run one workload in a fresh process, so that its set-up time and peak
memory belong to it alone.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The first form times set-up and prints it.  The second sets up, then runs
the closed loop: one client sends the next request when the previous one has
returned, in whole rounds, until the requests have taken S seconds.  Each
request is a call of ``dynzsig.cli.main(argv)`` with stdout captured, so
argument parsing, the subcommand and report rendering are all inside the
timed region.  Each
distinct report is saved once, named by its digest, for the checker.  With
--trace 1 every round is sent traced and again untraced, until the traced
requests have taken S/2 seconds; the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# a CLI user starts with the interpreter's limit on int <-> str conversion
DEFAULT_MAX_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", None)

# three primes above 1e4: the first budgeted factor() call must build the
# chunked trial-division table to split it
_SETUP_COMPOSITE = 1000003 * 1000033 * 1000037


def set_up():
    """Import the program from this checkout and finish its lazy set-up.
    Returns cli.main and the seconds it took."""
    # without --cache the CLI falls back to this variable; a request must not
    # pick up a cache from the caller's environment
    os.environ.pop("DYNZSIG_CACHE", None)
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from dynzsig import cli, divisibility

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"dynzsig was imported from {cli.__file__}, not from {src}")
    fact = divisibility.factor(_SETUP_COMPOSITE, divisibility.FactorBudget())
    if fact.factors != {1000003: 1, 1000033: 1, 1000037: 1}:
        raise SystemExit(f"set-up factorization is wrong: {fact}")
    code, _, _ = call(cli.main, ("orbit", "--poly", "z^2+1", "--n", "2"))
    if code != 0:
        raise SystemExit(f"set-up request exited {code}")
    return cli.main, time.perf_counter() - start


def call(main, argv) -> tuple[int, str, float]:
    """One request: exit code, stdout and wall seconds."""
    if DEFAULT_MAX_STR_DIGITS is not None:
        sys.set_int_max_str_digits(DEFAULT_MAX_STR_DIGITS)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def reset_cache(workload: str):
    path = workloads.cache_path(workload)
    for name in (path, path + ".lock"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)


class Loop:
    """Sends requests one after another and keeps one record per request."""

    def __init__(self, main, out_dir: Path):
        self.main = main
        self.out_dir = out_dir
        self.records: list[list] = []  # [key, exit code, seconds, digest]
        self.busy = 0.0

    def send(self, request: workloads.Request, wrap=contextlib.nullcontext):
        with wrap():
            code, text, seconds = call(self.main, request.argv)
        self.busy += seconds
        data = text.encode("utf-8")
        digest = checker.digest(data)
        report = self.out_dir / f"{digest}.out"
        if not report.exists():
            report.write_bytes(data)
        self.records.append([request.key, code, seconds, digest])


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    main, setup_s = set_up()
    reset_cache(workload)
    loop = Loop(main, out_dir)
    rounds = workloads.rounds(workload, seed)
    result: dict = {"setup_s": setup_s}
    if not trace:
        while loop.busy < seconds:
            for request in next(rounds):
                loop.send(request)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["records"] = loop.records
        return result

    # each round runs twice, traced and untraced, alternating which goes
    # first, so that slow spells of the machine and warm cache entries fall
    # on both sides of the overhead alike
    tr = tracing.Tracer()
    untraced = Loop(main, out_dir)

    def traced_pass(requests):
        restore = tracing.install(tr)
        try:
            for request in requests:
                tr.request_id += 1
                loop.send(request, lambda: tr.span(tracing.REQUEST))
        finally:
            restore()

    def untraced_pass(requests):
        for request in requests:
            untraced.send(request)

    passes = (traced_pass, untraced_pass)
    while loop.busy < seconds / 2:
        requests = next(rounds)
        for send_pass in passes:
            send_pass(requests)
        passes = passes[::-1]
    tr.write(str(out_dir / "spans.jsonl"))
    result["records"] = loop.records + untraced.records
    result["per_layer"] = tracing.per_layer(tr, len(loop.records), loop.busy, untraced.busy)
    result["trace_problems"] = tr.problems + tracing.check_spans(tr.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the reports and result.json")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, setup_s = set_up()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.workload or not args.out:
        parser.error("--workload and --out are required")
    out_dir = Path(args.out)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
