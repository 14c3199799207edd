"""Spans around the public functions of each layer, recorded from outside
the program.

install() replaces module and class attributes at the places where callers
look them up, so every call from the CLI into a layer runs through a
wrapper that records a span: name, start, end, parent span and request id.
Spans stay in memory until the run ends.  Counts that need a function's
result (terms built, cache hits, iterations) are taken by the same wrapper.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

REQUEST = "request"
RUN_SUBCOMMAND = "cli.run_subcommand"


def _digits(n: int) -> int:
    # bit-length estimate: exact to within one digit, and free on 1e5-digit terms
    return int(abs(n).bit_length() * 0.30102999566398120) + 1


def _count_sequence(counts: Counter, seq):
    counts["zsigmondy.build_sequence.terms"] += len(seq.records)
    if seq.records:
        top = max(max(r.ideal.A, r.ideal.B) for r in seq.records)
        counts["zsigmondy.build_sequence.max_digits"] = max(
            counts["zsigmondy.build_sequence.max_digits"], _digits(top)
        )


def _count_factor(counts: Counter, fact):
    counts["divisibility.factor.complete"] += fact.complete
    counts["divisibility.factor.cofactor_digits"] += 0 if fact.complete else _digits(fact.cofactor)


def _count_height(counts: Counter, est):
    counts["heights.canonical_height.iterations"] += est.iterations
    counts["heights.canonical_height.truncated"] += est.truncated


def _count_cache_get(counts: Counter, hit):
    # factor() uses only complete entries; a partial one is recomputed
    counts["cli.cache.hits" if hit is not None and hit.complete else "cli.cache.misses"] += 1


def _count_report(counts: Counter, result):
    counts["cli.report.bytes"] += len(result[1])


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.request_id = -1  # the benchmark numbers each traced request
        self.counts: Counter = Counter()
        self.problems: list[str] = []  # spans closed out of order

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request_id])
        index = len(self.spans) - 1
        self.stack.append(index)
        self.counts[name + ".calls"] += 1
        return index

    def _close(self, index: int, start: float, end: float):
        top = self.stack.pop() if self.stack else None
        if top != index:
            self.problems.append(f"span {index} closed while span {top} was open")
        if self.spans[index][0] == REQUEST and self.stack:
            self.problems.append(f"request {self.spans[index][4]} ended with spans {self.stack} open")
        record = self.spans[index]
        record[1], record[2] = start, end

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, start, time.perf_counter())
            if count is not None:
                count(tracer.counts, result)
            return result

        return wrapper

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )

    def layer_times(self) -> tuple[dict, dict]:
        """Total and self time per span name."""
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += (end - start) - children[i]
        return total, self_time


def check_spans(spans: list) -> list[str]:
    """What is wrong with a list of [name, start, end, parent, request]
    spans: each span must lie within its parent and belong to its parent's
    request, each request span must be a root, and every other span must
    lie beneath the run_subcommand span of its request."""
    problems = []
    under_subcommand: list[bool] = []
    for i, (name, start, end, parent, request) in enumerate(spans):
        where = f"span {i} ({name})"
        if not start <= end:
            problems.append(f"{where} ends before it starts")
        if name == REQUEST:
            if parent != -1:
                problems.append(f"{where} is a request with a parent")
            under_subcommand.append(False)
            continue
        if not 0 <= parent < i:
            problems.append(f"{where} has no earlier parent span")
            under_subcommand.append(False)
            continue
        p_name, p_start, p_end, _, p_request = spans[parent]
        if p_request != request:
            problems.append(f"{where} belongs to request {request}, its parent to {p_request}")
        if not p_start <= start <= end <= p_end:
            problems.append(f"{where} does not lie within its parent span {parent} ({p_name})")
        if name == RUN_SUBCOMMAND:
            if p_name != REQUEST:
                problems.append(f"{where} is not directly under a request")
            under_subcommand.append(True)
        else:
            if not under_subcommand[parent]:
                problems.append(f"{where} is not under a run_subcommand span")
            under_subcommand.append(under_subcommand[parent])
    return problems


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.start, time.perf_counter())
        return False


def install(tracer: Tracer):
    """Wrap each layer's public functions where the CLI and the other layers
    look them up.  One wrapper per function, shared by all its call sites.
    Returns a function that puts the originals back."""
    from dynzsig import cli, divisibility, heights, ratfield, zsigmondy

    wrapped: dict[int, object] = {}
    originals: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, count=None):
        fn = getattr(owner, attr)
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(name, fn, count)
        originals.append((owner, attr, fn))
        setattr(owner, attr, wrapped[id(fn)])

    patch(cli, "run_subcommand", RUN_SUBCOMMAND, _count_report)
    patch(cli, "parse_poly", "cli.parse_poly")
    patch(cli.FactorCache, "_load", "cli.cache")
    patch(cli.FactorCache, "get", "cli.cache", _count_cache_get)
    patch(cli.FactorCache, "store", "cli.cache")
    patch(cli, "build_sequence", "zsigmondy.build_sequence", _count_sequence)
    patch(cli, "valuation_stability_check", "zsigmondy.valuation_stability_check")
    patch(cli, "wandering_verdict", "zsigmondy.wandering_verdict")
    patch(cli, "growth_check", "zsigmondy.growth_check")
    patch(cli, "is_close_approach", "zsigmondy.close_approach")
    patch(cli, "close_approach_ambiguous", "zsigmondy.close_approach")
    patch(zsigmondy, "primitive_split", "divisibility.primitive_split")
    for owner in (zsigmondy, divisibility):
        patch(owner, "factor", "divisibility.factor", _count_factor)
    patch(cli, "rigid_check", "divisibility.rigid_check")
    for owner in (cli, zsigmondy):
        patch(owner, "canonical_height", "heights.canonical_height", _count_height)
    for owner in (cli, zsigmondy, heights):
        patch(owner, "height_comparison_bound", "heights.height_comparison_bound")
    for owner in (cli, zsigmondy, ratfield):
        patch(owner, "squarefree_decomposition", "ratfield.squarefree_decomposition")
    patch(ratfield.Polynomial, "__call__", "ratfield.Polynomial.__call__")

    def restore():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


# name, unit, better, value from (counts, total time, self time, requests)
PER_LAYER = (
    ("cli.parse_poly.calls", "count/req", "lower", lambda c, t, s, n: c["cli.parse_poly.calls"] / n),
    ("cli.parse_poly.s", "s/req", "lower", lambda c, t, s, n: t["cli.parse_poly"] / n),
    ("cli.report.s", "s/req", "lower", lambda c, t, s, n: s[RUN_SUBCOMMAND] / n),
    ("cli.report.bytes", "B/req", "lower", lambda c, t, s, n: c["cli.report.bytes"] / n),
    ("cli.cache.hits", "count/req", "higher", lambda c, t, s, n: c["cli.cache.hits"] / n),
    ("cli.cache.misses", "count/req", "lower", lambda c, t, s, n: c["cli.cache.misses"] / n),
    ("cli.cache.hit_frac", "ratio", "higher",
     lambda c, t, s, n: c["cli.cache.hits"] / max(1, c["cli.cache.hits"] + c["cli.cache.misses"])),
    ("cli.cache.s", "s/req", "lower", lambda c, t, s, n: t["cli.cache"] / n),
    ("zsigmondy.build_sequence.self_s", "s/req", "lower", lambda c, t, s, n: s["zsigmondy.build_sequence"] / n),
    ("zsigmondy.build_sequence.terms", "count/req", "lower",
     lambda c, t, s, n: c["zsigmondy.build_sequence.terms"] / n),
    ("zsigmondy.build_sequence.max_digits", "digits", "lower",
     lambda c, t, s, n: c["zsigmondy.build_sequence.max_digits"]),
    ("zsigmondy.valuation_stability_check.self_s", "s/req", "lower",
     lambda c, t, s, n: s["zsigmondy.valuation_stability_check"] / n),
    ("zsigmondy.wandering_verdict.s", "s/req", "lower", lambda c, t, s, n: t["zsigmondy.wandering_verdict"] / n),
    ("zsigmondy.growth_check.s", "s/req", "lower", lambda c, t, s, n: t["zsigmondy.growth_check"] / n),
    ("zsigmondy.close_approach.s", "s/req", "lower", lambda c, t, s, n: t["zsigmondy.close_approach"] / n),
    ("divisibility.primitive_split.calls", "count/req", "lower",
     lambda c, t, s, n: c["divisibility.primitive_split.calls"] / n),
    ("divisibility.primitive_split.s", "s/req", "lower", lambda c, t, s, n: t["divisibility.primitive_split"] / n),
    ("divisibility.factor.calls", "count/req", "lower", lambda c, t, s, n: c["divisibility.factor.calls"] / n),
    ("divisibility.factor.s", "s/req", "lower", lambda c, t, s, n: t["divisibility.factor"] / n),
    ("divisibility.factor.complete_frac", "ratio", "higher",
     lambda c, t, s, n: c["divisibility.factor.complete"] / max(1, c["divisibility.factor.calls"])),
    ("divisibility.factor.cofactor_digits", "digits/req", "lower",
     lambda c, t, s, n: c["divisibility.factor.cofactor_digits"] / n),
    ("divisibility.rigid_check.self_s", "s/req", "lower", lambda c, t, s, n: s["divisibility.rigid_check"] / n),
    ("heights.canonical_height.calls", "count/req", "lower",
     lambda c, t, s, n: c["heights.canonical_height.calls"] / n),
    ("heights.canonical_height.s", "s/req", "lower", lambda c, t, s, n: t["heights.canonical_height"] / n),
    ("heights.canonical_height.iterations", "count/call", "lower",
     lambda c, t, s, n: c["heights.canonical_height.iterations"] / max(1, c["heights.canonical_height.calls"])),
    ("heights.canonical_height.truncated_frac", "ratio", "lower",
     lambda c, t, s, n: c["heights.canonical_height.truncated"] / max(1, c["heights.canonical_height.calls"])),
    ("heights.height_comparison_bound.s", "s/req", "lower",
     lambda c, t, s, n: t["heights.height_comparison_bound"] / n),
    ("ratfield.Polynomial.__call__.calls", "count/req", "lower",
     lambda c, t, s, n: c["ratfield.Polynomial.__call__.calls"] / n),
    ("ratfield.Polynomial.__call__.s", "s/req", "lower", lambda c, t, s, n: t["ratfield.Polynomial.__call__"] / n),
    ("ratfield.squarefree_decomposition.s", "s/req", "lower",
     lambda c, t, s, n: t["ratfield.squarefree_decomposition"] / n),
)


def per_layer(tracer: Tracer, requests: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures of a traced pass of the given number of requests,
    with the pass's tracing overhead against an untraced replay."""
    total, self_time = tracer.layer_times()
    out = {name: fn(tracer.counts, total, self_time, requests) for name, _, _, fn in PER_LAYER}
    out["trace.requests"] = requests
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return out
