"""Every benchmark catalogue request prints the report pinned in
perfbench/reference.json, byte for byte, and exits with its catalogue code.

The requests of a workload are replayed in catalogue order from an empty
factor cache, as perfbench/make_reference.py sends them.  They run from a
temporary directory, so the relative cache paths that reports echo print the
same and nothing is written in the checkout.  The perfbench files are only
read.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checker  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dynzsig import cli  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def keep_int_str_limit():
    # worker.call resets the interpreter-wide limit; other test modules rely on theirs
    saved = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_catalogue_reports_match_the_reference(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    Path(workloads.RUN_DIR).mkdir(parents=True)
    worker.reset_cache(workload)
    pinned = REFERENCE[workload]
    requests = workloads.catalogue(workload)
    assert sorted(r.key for r in requests) == sorted(pinned)
    wrong = []
    for request in requests:
        code, text, _ = worker.call(cli.main, request.argv)
        if code != request.expect or checker.digest(text.encode("utf-8")) != pinned[request.key]:
            wrong.append((request.key, code, request.expect))
    assert wrong == []
