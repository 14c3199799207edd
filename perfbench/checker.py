"""Report checker that shares no code with the program.

It re-derives, from the report text alone, what every report must satisfy:

- each orbit record splits its numerator ideal: primitive * nonprimitive = A_n;
- each primitive part is coprime to every earlier numerator ideal;
- the Zsigmondy set is exactly the set of indices whose primitive part is 1;
- every canonical-height estimate carries a finite value and an error bound >= 0.

JSON and text reports are checked in full; CSV reports carry digit counts
only, so for them the checker tests that the counts are consistent.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys

CSV_HEADER = "n,value_digits,A_digits,primitive,P_digits,N_digits"
_TEXT_RECORD = re.compile(r"^result\.(partial\.)?records\.(\d+)\.(\w+)$")
_HEIGHT_KEYS = ("canonical_height", "orbit_hhat0")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Verdict:
    """What the checker found in one report: problems (empty when it holds)
    and, for each canonical-height estimate in it, whether the certified
    error bound met the requested tolerance."""

    def __init__(self):
        self.problems: list[str] = []
        self.tol_met: list[bool] = []
        self.max_digits = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def check_report(text: str, fmt: str) -> Verdict:
    """Check one report printed in format fmt ('json', 'text' or 'csv')."""
    verdict = Verdict()
    if not text:
        return verdict  # a failing csv request prints nothing; its exit code is checked
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            _check_csv(text, verdict)
        else:
            report = json.loads(text) if fmt == "json" else _from_text(text)
            _check_report(report, verdict)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        verdict.problems.append(f"unreadable report: {exc!r}")
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    return verdict


def _from_text(text: str) -> dict:
    """Rebuild, from a text report, the parts of the JSON report the checks read."""
    flat = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            key, value = line.rstrip(":"), ""
        flat[key] = value
    result: dict = {}
    for prefix in ("result.", "result.partial."):
        records: dict[int, dict] = {}
        for key, value in flat.items():
            m = _TEXT_RECORD.match(key)
            if m and bool(m.group(1)) == (prefix == "result.partial."):
                records.setdefault(int(m.group(2)), {})[m.group(3)] = value
        if records:
            target = result if prefix == "result." else result.setdefault("partial", {})
            target["records"] = [records[i] for i in sorted(records)]
    if "result.zsigmondy_set" in flat:
        result["zsigmondy_set"] = [int(v) for v in flat["result.zsigmondy_set"].split()]
    for name in _HEIGHT_KEYS:
        if f"result.{name}.error_bound" in flat:
            result[name] = {
                "value": flat[f"result.{name}.value"],
                "error_bound": flat[f"result.{name}.error_bound"],
            }
    return {"config": {"tol": flat["config.tol"]}, "result": result}


def _check_report(report: dict, verdict: Verdict):
    result = report["result"]
    if not isinstance(result, dict):
        raise TypeError("result is not an object")
    for where in (result, result.get("partial") or {}):
        if "records" in where:
            _check_records(where["records"], result.get("zsigmondy_set"), verdict)
    # rigid-check lists its terms; family-check gives its orbit's digit counts
    growth = result.get("growth") or {}
    digits = [len(t) for t in result.get("terms", ())] + list(growth.get("orbit_digits", ()))
    verdict.max_digits = max([verdict.max_digits, *digits])
    tol = float(report["config"]["tol"])
    for name in _HEIGHT_KEYS:
        est = result.get(name)
        if est is None:
            continue
        value, error = float(est["value"]), float(est["error_bound"])
        if not math.isfinite(value) or not error >= 0:
            verdict.problems.append(f"{name}: value {value} with error bound {error}")
        verdict.tol_met.append(error <= tol)


def _check_records(records: list, zsigmondy, verdict: Verdict):
    history = 1  # product of the earlier numerator ideals
    no_primitive = set()
    for i, rec in enumerate(records, 1):
        if int(rec["n"]) != i:
            verdict.problems.append(f"record {i} is numbered {rec['n']}")
        A = int(rec["numerator_ideal"])
        P = int(rec["primitive_part"])
        N = int(rec["nonprimitive_part"])
        verdict.max_digits = max(verdict.max_digits, len(rec["numerator_ideal"]))
        if P * N != A:
            verdict.problems.append(f"n={i}: primitive * nonprimitive != numerator ideal")
        if math.gcd(P, history) != 1:
            verdict.problems.append(f"n={i}: primitive part shares a prime with an earlier term")
        flag = rec.get("has_primitive_divisor")
        if flag is not None and str(flag) not in (("True", "true") if P > 1 else ("False", "false")):
            verdict.problems.append(f"n={i}: has_primitive_divisor={flag} but primitive part {P}")
        if P == 1:
            no_primitive.add(i)
        history *= A
    if zsigmondy is not None and set(int(n) for n in zsigmondy) != no_primitive:
        verdict.problems.append(
            f"zsigmondy_set {sorted(zsigmondy)} != indices without primitive part {sorted(no_primitive)}"
        )


def _check_csv(text: str, verdict: Verdict):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        verdict.problems.append("csv header missing")
        return
    for i, line in enumerate(lines[1:], 1):
        n, value_digits, a_digits, primitive, p_digits, n_digits = (int(c) for c in line.split(","))
        verdict.max_digits = max(verdict.max_digits, a_digits)
        if n != i:
            verdict.problems.append(f"csv row {i} is numbered {n}")
        if not p_digits + n_digits - 1 <= a_digits <= p_digits + n_digits:
            verdict.problems.append(f"n={i}: digit counts of P and N do not multiply to A")
        if primitive not in (0, 1) or (primitive == 0 and p_digits != 1):
            verdict.problems.append(f"n={i}: primitive flag {primitive} with {p_digits}-digit part")
        if value_digits < 1:
            verdict.problems.append(f"n={i}: value has {value_digits} digits")
