"""The dynzsig benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload orbit-deep --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
With --trace 0 it times set-up in fresh processes before and after the
workload, runs the workload's closed loop in another fresh process, checks
every report and prints the end-to-end metrics.  With --trace 1 it runs the loop traced and prints the
per-layer metrics and the tracing overhead instead.  Human-readable lines
come first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

A request fails when its exit code differs from the catalogue's, its report
differs from the reference digest, or the checker rejects the report.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402

# set-up is timed in fresh processes, some before and some after the
# workload's loop; one more probe before them all writes the bytecode cache
# and warms the file cache, and is not counted
SETUP_PROBES = (6, 5)
TIME_LIMIT_S = 170  # the whole run, set-up and checking included


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )


def _has_start_point(argv: list[str]) -> bool:
    return argv[0] in ("orbit", "zsigmondy", "rigid-check", "heights", "family-check") or (
        argv[0] == "bound" and "--poly" in argv
    )


def check_run(workload: str, records: list, out_dir: Path) -> dict:
    """Check every request of a run against the catalogue, the reference
    digests and the checker; each distinct report is checked once."""
    catalogue = {r.key: r for r in workloads.catalogue(workload)}
    touch = {r.key for r in workloads.WORKLOADS[workload].touch}
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
    verdicts: dict[str, checker.Verdict] = {}
    failures: list[str] = []
    tol_met: list[bool] = []
    max_digits = 0
    for key, code, _, digest in records:
        request = catalogue[key]
        if digest not in verdicts:
            text = (out_dir / f"{digest}.out").read_text(encoding="utf-8")
            verdicts[digest] = checker.check_report(text, request.fmt)
        verdict = verdicts[digest]
        tol_met += verdict.tol_met
        max_digits = max(max_digits, verdict.max_digits)
        problems = list(verdict.problems)
        if code != request.expect:
            problems.append(f"exit {code}, expected {request.expect}")
        if digest != reference.get(key):
            problems.append("report differs from the reference digest")
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    keys = [r[0] for r in records]
    argvs = [catalogue[k].argv for k in keys]
    busy = sum(r[2] for r in records)
    with_point = [a for a in argvs if _has_start_point(list(a))]
    return {
        "failures": failures,
        "tol_met": tol_met,
        "repeated_frac": 1 - len(set(keys)) / len(keys),
        "rational_start_frac": sum("/" in a[a.index("--alpha") + 1] for a in with_point if "--alpha" in a)
        / max(1, len(with_point)),
        "nonzero_exit_frac": sum(catalogue[k].expect != 0 for k in keys) / len(keys),
        "max_term_digits": max_digits,
        "touch_request_frac": sum(k in touch for k in keys) / len(keys),
        "touch_time_frac": sum(r[2] for r in records if r[0] in touch) / busy,
    }


def end_to_end(workload: str, result: dict, checked: dict, setup: list[float]) -> tuple[dict, list[str]]:
    latencies = sorted(r[2] for r in result["records"])
    n = len(latencies)
    percentile = workloads.WORKLOADS[workload].tail_percentile
    tail_rank = max(1, math.ceil(percentile / 100 * n))
    tol_met = checked["tol_met"]
    values = {
        "setup_s": statistics.median(setup),
        "throughput_rps": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail_rank - 1] * 1e3,
        "ok_frac": 1 - len(checked["failures"]) / n,
        "peak_rss_mb": result["peak_rss_mb"],
        # a workload without height results misses no tolerance
        "tol_met_frac": sum(tol_met) / len(tol_met) if tol_met else 1.0,
    }
    notes = [
        f"latency_tail_ms is p{percentile:g} of {n} requests, {n - tail_rank} beyond it",
        f"failed_frac {len(checked['failures']) / n:.6g} ({len(checked['failures'])} of {n})",
        f"tol_met_frac over {len(tol_met)} canonical-height results",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)}",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the dynzsig benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "dynzsig" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'dynzsig'} is missing", file=sys.stderr)
        return 2
    spec = _spec()
    out_dir = ROOT / workloads.RUN_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    def time_setup(probes: int) -> list[float]:
        if args.trace:
            return []
        probes_out = [_worker(["--setup-only"], deadline) for _ in range(probes)]
        return [json.loads(p.stdout.splitlines()[-1])["setup_s"] for p in probes_out]

    time_setup(1)  # the uncounted warm-up probe
    setup = time_setup(SETUP_PROBES[0])
    _worker(
        [
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--out={out_dir}",
        ],
        deadline,
    )
    setup += time_setup(SETUP_PROBES[1])
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    checked = check_run(args.workload, result["records"], out_dir)

    trace_problems = result.get("trace_problems", [])
    if args.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
        notes = [
            f"tracing overhead {values['trace.overhead_s']:.4f} s "
            f"({100 * values['trace.overhead_frac']:.1f}%) over {values['trace.requests']} requests",
            f"spans that do not nest within their parent and request: {len(trace_problems)}",
            f"spans written to {(out_dir / 'spans.jsonl').relative_to(ROOT)}",
        ]
    else:
        values, notes = end_to_end(args.workload, result, checked, setup)
        wanted = spec["end_to_end"]
    notes += [
        f"{key} {checked[key]:g}"
        for key in (
            "repeated_frac",
            "rational_start_frac",
            "nonzero_exit_frac",
            "max_term_digits",
            "touch_request_frac",
            "touch_time_frac",
        )
    ]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    roadmap = ", ".join(workloads.WORKLOADS[args.workload].roadmap) or "none"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  ROADMAP scenarios in this workload: {roadmap}")
    for name, metric in metrics.items():
        print(f"  {name:<45} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    for failure in checked["failures"][:20]:
        print(f"  FAILED {failure}")
    for problem in trace_problems[:20]:
        print(f"  BAD SPAN {problem}")
    attempted = len(result["records"])
    failed = len(checked["failures"])
    correct = failed == 0 and not trace_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
