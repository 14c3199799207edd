"""Write reference.json: the digest of every catalogue request's report.

    python3 perfbench/make_reference.py

Run it from the root of a checkout.  It sends every request of every
workload once, refuses to write if an exit code differs from the
catalogue's or the checker rejects a report, and prints each request's time
and largest term.  Regenerate the reference only in a change that means to
alter report bytes, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.chdir(worker.ROOT)
    main_fn, setup_s = worker.set_up()
    print(f"set-up {setup_s:.3f} s")
    Path(workloads.RUN_DIR).mkdir(parents=True, exist_ok=True)
    reference: dict[str, dict[str, str]] = {}
    bad = 0
    for name in workloads.WORKLOADS:
        worker.reset_cache(name)
        digests = reference[name] = {}
        for request in workloads.catalogue(name):
            code, text, seconds = worker.call(main_fn, request.argv)
            verdict = checker.check_report(text, request.fmt)
            problems = list(verdict.problems)
            if code != request.expect:
                problems.append(f"exit {code}, expected {request.expect}")
            bad += bool(problems)
            digests[request.key] = checker.digest(text.encode("utf-8"))
            print(
                f"{name:14} {seconds * 1e3:9.1f} ms exit {code} digits {verdict.max_digits:7d}"
                f" {request.key} {'; '.join(problems)}"
            )
        worker.reset_cache(name)
    if bad:
        print(f"{bad} requests failed; reference.json not written", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
