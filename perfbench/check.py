"""Output checks of one benchmark run.

The CSV schema is pinned here rather than read from the library, so a change
to the library's schema shows up as a failed check.  A run passes when the
header is exact, every (method, seed) run has one row per point per tick, no
run diverged, every value is finite, and the reference converged.  On the
default seed the final row of every run and point must also match the golden
values within ``golden.json``'s tolerance; whether the CSV is byte-identical
to the golden one is reported as a count, never as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics

CSV_HEADER = "method,seed,k,epoch,point,obj_err,infeas,z_norm"
POINTS = ("last", "ergodic_plain", "ergodic_weighted")
DIVERGED = "DIVERGED"
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def csv_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_csv(text: str, methods, seeds, ticks):
    """Return (errors, finals); finals maps "method/seed/point" to the last
    row's [obj_err, infeas, z_norm]."""
    errors = []
    finals = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        errors.append(f"bad CSV header: {lines[0] if lines else '<empty>'!r}")
        return errors, finals
    expected = len(POINTS) * ticks * len(methods) * len(seeds)
    rows = lines[1:]
    if len(rows) != expected:
        errors.append(f"CSV has {len(rows)} rows, expected {expected}")
    per_run = {}
    last_k = {}
    for lineno, line in enumerate(rows, 2):
        fields = line.split(",")
        if len(fields) != 8:
            errors.append(f"line {lineno}: {len(fields)} fields, expected 8")
            continue
        method, seed, k, epoch, point = fields[:5]
        if point == DIVERGED:
            errors.append(f"line {lineno}: run {method}/{seed} diverged at k={k}")
            continue
        if method not in methods or seed not in {str(s) for s in seeds} or point not in POINTS:
            errors.append(f"line {lineno}: unexpected run or point {method}/{seed}/{point}")
            continue
        try:
            values = [float(v) for v in fields[3:4] + fields[5:]]
            k = int(k)
        except ValueError:
            errors.append(f"line {lineno}: unparsable number")
            continue
        if not all(math.isfinite(v) for v in values):
            errors.append(f"line {lineno}: non-finite value")
            continue
        key = f"{method}/{seed}/{point}"
        if k <= last_k.get(key, 0):
            errors.append(f"line {lineno}: k={k} does not increase for {key}")
        last_k[key] = k
        per_run[key] = per_run.get(key, 0) + 1
        finals[key] = values[1:]
    for method in methods:
        for seed in seeds:
            for point in POINTS:
                key = f"{method}/{seed}/{point}"
                if per_run.get(key, 0) != ticks:
                    errors.append(f"{key}: {per_run.get(key, 0)} ticks, expected {ticks}")
    return errors, finals


def load_golden(path=GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_golden(finals: dict, entry: dict, tolerance: dict):
    """Errors for final values outside ``atol + rtol * |golden|``."""
    rtol, atol = tolerance["rtol"], tolerance["atol"]
    errors = []
    for key, want in entry["finals"].items():
        got = finals.get(key)
        if got is None:
            errors.append(f"golden run {key} missing from output")
            continue
        for name, g, w in zip(("obj_err", "infeas", "z_norm"), got, want):
            if not abs(g - w) <= atol + rtol * abs(w):
                errors.append(f"{key} {name} = {g!r}, golden {w!r}")
    extra = sorted(set(finals) - set(entry["finals"]))
    if extra:
        errors.append(f"runs not in golden: {extra}")
    return errors


def quality(finals: dict, methods) -> dict:
    """Mean over run seeds of the final ergodic-plain obj_err and infeas."""
    out = {}
    prefix = {"pdsg": "pdsg", "mirror_prox": "mp"}
    for method in methods:
        vals = [v for k, v in finals.items() if k.startswith(method + "/")
                and k.endswith("/ergodic_plain")]
        if vals:
            out[f"{prefix[method]}_obj_err"] = statistics.fmean(v[0] for v in vals)
            out[f"{prefix[method]}_infeas"] = statistics.fmean(v[1] for v in vals)
    return out
