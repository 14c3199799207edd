"""Seeded request mixes for the benchmark.

Each workload is a list of request classes.  The seed orders the variants
of every class into a cycle; round r takes variant r of each cycle and the
seed shuffles the round; a run sends whole rounds until its time is up.
Taking every class once per round, and each variant in turn, keeps every
run close to the intended mix, so the figures of two seeds agree while their
inputs differ.

Every request is a ``dynzsig`` command line.  Its expected exit code is part
of the catalogue, and ``reference.json`` holds the digest of its report as
the program printed it when the reference was made.

Because every run is made of whole rounds of one mix, a fixed percentile of
a run's latencies falls on the same kind of request however many rounds the
run holds.  Each workload names the percentile it reports as its tail: one
that lies inside its slowest kind of request, away from the cost steps
around it, and that has at least ten requests beyond it in a run of
BENCHMARK.json's length on the program the benchmark was first run on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

RUN_DIR = "perfbench/_run"


def cache_path(workload: str) -> str:
    """The factor cache of a workload.  The path is echoed into every report
    that uses it, so it must be the same string on every run."""
    return f"{RUN_DIR}/{workload}.cache"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    roadmap: tuple[str, ...]
    tail_percentile: float
    classes: tuple[tuple[Request, ...], ...]
    touch: tuple[Request, ...]  # one more class, see _touch

    @property
    def all_classes(self) -> tuple[tuple[Request, ...], ...]:
        return self.classes + (self.touch,)


def req(command: str, expect: int = 0, **flags) -> Request:
    argv = [command]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    for part in argv:
        if not part or " " in part:
            raise ValueError(f"request arguments may not be empty or hold spaces: {argv}")
    return Request(tuple(argv), expect)


def _bound(**flags) -> Request:
    return req("bound", d=3, B=1, hhat=1, htilde=1, gamma=1, s_size=1, **flags)


def _touch(workload: str, *commands: str) -> tuple[Request, ...]:
    """One class of tiny requests whose variants, one per command, reach the
    layers a workload's own requests never call, so that every per-layer
    time is measured on every workload.  Each round sends one of them; the
    run reports their share of the request time."""
    cache = cache_path(workload)
    tiny = {
        "family-check": req("family-check", factors="(z+2)^2*(z+3)^2", n=2, cache=cache),
        "bound": _bound(poly="z^3+1", n=4, tol="1e-3"),
        "rigid-check": req("rigid-check", poly="z^2+1", n=5, cache=cache),
        "zsigmondy": req("zsigmondy", poly="z^2-1/2", n=4),
    }
    return tuple(tiny[c] for c in commands)


def _orbit_deep() -> Workload:
    json_quad = (
        req("zsigmondy", poly="z^2+1", n=18),
        req("zsigmondy", poly="z^2+2", n=17),
        req("zsigmondy", poly="z^2-2", alpha=3, n=16),
        req("orbit", poly="2*z^2+1", n=17),
    )
    csv_quad = (
        req("zsigmondy", poly="z^2+1", n=18, format="csv"),
        req("orbit", poly="z^2+2", n=17, format="csv"),
        req("zsigmondy", poly="z^2-4", n=16, format="csv"),
    )
    text_rational = (
        req("orbit", poly="z^2+1", alpha="1/2", n=15, format="text"),
        req("orbit", poly="z^2-1/3", alpha="1/5", n=14, format="text"),
        req("zsigmondy", poly="z^2+1/3", alpha="2/7", n=14, format="text"),
    )
    json_cubic = (
        req("orbit", poly="z^3+1", n=12),
        req("zsigmondy", poly="z^3-2", n=11),
        req("orbit", poly="z^3+z+1", n=12),
    )
    deepest = (
        req("zsigmondy", poly="z^2+1", n=19),
        req("orbit", poly="z^2+2", n=18, format="text"),
        req("zsigmondy", poly="z^2+1/3", alpha="2/7", n=15),
    )
    rational_cubic = (
        req("orbit", poly="z^3+1/2", alpha="1/3", n=10),
        req("zsigmondy", poly="z^3-1/3", alpha="1/2", n=10, format="csv"),
    )
    return Workload(
        name="orbit-deep",
        why="orbit and zsigmondy runs to terms of 1e4 to 5e4 digits: time goes to reports and to orbit building with gcd splitting",
        roadmap=("orbit z^2+1 n=8", "zsigmondy z^2+1 n=18"),
        tail_percentile=96.0,
        classes=(
            (req("orbit", poly="z^2+1", n=8),),
            json_quad,
            csv_quad,
            text_rational,
            json_cubic,
            rational_cubic,
            deepest,
        ),
        touch=_touch("orbit-deep", "family-check", "bound", "rigid-check"),
    )


def _factor_heavy() -> Workload:
    cache = cache_path("factor-heavy")
    rigid = (
        ("z^2+2", "0", 8),
        ("z^2-2", "3", 8),
        ("z^3+2", "0", 6),
        ("z^2+1/3", "2/7", 6),
    )
    families = (
        ("(z+2)^2*(z+3)^2", 4),
        ("(z+2)^2*(z+3)^2", 5),
        ("(z+3)^2*(z-2)^2", 5),
        ("(z+2)^2*(z-3)^3", 3),
    )
    rigid_plain = tuple(req("rigid-check", poly=p, alpha=a, n=n) for p, a, n in rigid)
    family_plain = tuple(req("family-check", factors=f, n=n) for f, n in families)
    # cached classes cycle two variants each, so every run stores four
    # entries of each kind in its first two rounds and hits them afterwards
    rigid_cached = [req("rigid-check", poly=p, alpha=a, n=n, cache=cache) for p, a, n in rigid]
    family_cached = [req("family-check", factors=f, n=n, cache=cache) for f, n in families]
    cached = tuple(tuple(group[i : i + 2]) for group in (rigid_cached, family_cached) for i in (0, 2))
    return Workload(
        name="factor-heavy",
        why="rigid and family checks whose time is budgeted factoring; half share a factor cache that starts empty, so it stores, then hits",
        roadmap=("family-check (z^3+2z+3)^2(z+5)^3 n=5",),
        tail_percentile=90.0,
        classes=(
            # two of three rounds send a check of more than a second: 6% of
            # the requests, so p90 lies among the checks of about 0.3 s
            (
                req("family-check", factors="(z^3+2*z+3)^2*(z+5)^3", n=5, cache=cache),
                req("family-check", factors="(z+2)^2*(z-3)^3", n=4),
                req("family-check", factors="(z+2)^2*(z+3)^2", n=5),
            ),
            (req("family-check", expect=3, factors="(z^3+2*z+3)^2*(z+5)^3", n=6),),
            rigid_plain,
            rigid_plain,
            family_plain,
            family_plain,
        )
        + cached,
        touch=_touch("factor-heavy", "bound", "zsigmondy"),
    )


def _heights_tight() -> Workload:
    integer_points = (("z^2+1/3", "3"), ("z^3-1/2", "2"), ("z^4+1/5*z", "2"))
    # rational points cost 10-20x more; these two cost about the same at
    # every tolerance and budget, so the requests around the median and the
    # tail are alike whichever point a round sends
    rational_points = (("z^3+1/7", "1/3"), ("z^3-1/2", "3/5"))

    def heights(points, tol, budgets):
        return tuple(
            req("heights", poly=p, alpha=a, tol=tol, digit_budget=b) for p, a in points for b in budgets
        )

    def tight(points, budget):
        return tuple(heights(points, tol, (budget,)) for tol in ("1e-6", "1e-9", "1e-12"))

    # tolerance 1e-3 is met long before either digit budget binds
    loose = tuple(heights(points, "1e-3", (20000, 100000)) for points in (integer_points, rational_points))
    scans = tuple(
        _bound(poly=p, alpha=a, n=n, places=places, tol="1e-6")
        for p, a, n, places in (("z^3+1", "0", 8, "2,3"), ("z^3+2", "1", 6, "3"), ("z^3-2", "1", 7, "2"))
    )
    # a round holds 6 requests under 20 ms (loose, touch, integer points at
    # budget 2e4), 7 of 35-80 ms (rational points at budget 2e4, sent twice,
    # and a scan) and 7 of more than 100 ms (budget 1e5), so the median lies
    # among the rational points at budget 2e4
    return Workload(
        name="heights-tight",
        why="canonical heights at tolerances 1e-3 to 1e-12 and digit budgets 2e4 and 1e5, integer and rational points; only 1e-3 is met",
        roadmap=("heights z^2+1/3 alpha=2/7 tol=1e-9",),
        tail_percentile=95.0,
        classes=(
            (req("heights", poly="z^2+1/3", alpha="2/7", tol="1e-9"),),
            scans,
        )
        + loose
        + tight(integer_points, 20000)
        + tight(rational_points, 20000) * 2
        + tight(integer_points, 100000)
        + tight(rational_points, 100000),
        touch=_touch("heights-tight", "family-check", "rigid-check", "zsigmondy"),
    )


def _algebra_small() -> Workload:
    powerful = (
        req("powerful-check", poly="(z+1/2)^12*(z-3)^7"),
        req("powerful-check", poly="(2/3*z^2+1)^9*(z+5)^4"),
        req("powerful-check", poly="(z^2-1/7)^16*(3*z+1)^2"),
        req("powerful-check", poly="(z-5/4)^40*(z+1)"),
        req("powerful-check", poly="(z^3+z+1/3)^6*(z-2)^5*(z+1/9)^3"),
    )
    bounds = (
        req("bound", d=3, B="1.5", hhat="0.7", htilde="2", gamma="0.25", s_size=2),
        req("bound", d=4, B="3", hhat="0.2", htilde="1", gamma="1", s_size=1),
        req("bound", d=5, B="0.5", hhat="1.1", htilde="4", gamma="0.5", s_size=3),
    )
    short = (
        req("orbit", poly="z^2+1", n=6),
        req("zsigmondy", poly="z^2-2", alpha=3, n=5),
        req("orbit", poly="z^3+1/2", alpha="1/3", n=3, format="text"),
        req("zsigmondy", poly="z^2+z+1/4", n=6, format="csv"),
    )
    malformed = (
        req("orbit", expect=2, poly="z^^2+1"),
        req("powerful-check", expect=2, poly="(z+1)^5000"),
        req("zsigmondy", expect=2, poly="z^2+1/0"),
        req("bound", expect=2, d=3, B="x", hhat="1", htilde="1", gamma="1", s_size=1),
    )
    return Workload(
        name="algebra-small",
        why="many requests of about 3 ms: expression parsing, squarefree decomposition, malformed input, and the fixed cost of a request",
        roadmap=(),
        tail_percentile=99.7,
        classes=(powerful, powerful, bounds, short, short, malformed),
        touch=_touch("algebra-small", "family-check", "bound", "rigid-check"),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (_orbit_deep(), _factor_heavy(), _heights_tight(), _algebra_small())
}


def catalogue(workload: str) -> list[Request]:
    """Every distinct request a workload can send, in a fixed order."""
    seen: dict[str, Request] = {}
    for variants in WORKLOADS[workload].all_classes:
        for r in variants:
            seen.setdefault(r.key, r)
    return list(seen.values())


def rounds(workload: str, seed: int):
    """The endless stream of request rounds of a workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    cycles = [rng.sample(variants, len(variants)) for variants in WORKLOADS[workload].all_classes]
    for r in itertools.count():
        round_ = [cycle[r % len(cycle)] for cycle in cycles]
        rng.shuffle(round_)
        yield round_
