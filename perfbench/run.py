"""pdsg benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload desk|midscale|paper_io --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/pdsg``.  Each repetition of
the workload runs in a fresh child process (``child.py``): it builds the
instance, times ``bench.run_experiment`` plus ``bench.write_csv``, and checks
the CSV.  Repetitions run one after another, with no other load, until
``--seconds`` is used up (at least three; at least two traced/untraced pairs
with ``--trace 1``).  Timings are medians over the repetitions.

The report lines give every metric with its unit, quartiles and sample
count, the quality metrics, the failure fraction and the provenance; the
last line is one JSON object with the metrics BENCHMARK.json names, the
end-to-end ones with ``--trace 0`` and the per-layer ones with ``--trace 1``.
Build outputs (the paper_io instance file, traces, results) go to
``.bench_build/perfbench`` in the checkout.

Exit codes: 0 result printed; 1 no repetition succeeded; 2 no library or
bad arguments; 3 workload skipped because free memory is too low.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_UNITS = {0: 3, 1: 2}
# the whole command must end within 180 s; no repetition starts past this
HARD_LIMIT_S = 150.0
PREPARE_TIMEOUT_S = 600.0
CLI_IMPORT_SAMPLES = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> dict:
    """Median, quartiles (statistics.quantiles, n=4), extremes and count."""
    if not values:
        return {"n": 0}
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# -- provenance --------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def mem_available_mb():
    """MemAvailable from /proc/meminfo in MiB, or None where it is not readable."""
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024.0
    return None


def l3_bytes():
    text = (_read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "").strip()
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return None


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def source_digest(root) -> str:
    """sha256 over the library's source files, standing in for a git commit."""
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(root, "src", "pdsg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root, w, seed) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "l3_bytes": l3_bytes(),
        "mem_available_mb": mem_available_mb(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload": w.name,
        "workload_seed": seed,
        "instance_seed": workloads.instance_seed(w, seed),
        "run_seeds": list(workloads.run_seeds(w, seed)),
        "instance_bytes": workloads.instance_bytes(w),
        "sizes": {"n": w.n, "p": w.p, "N": w.N, "m": w.m, "epochs": w.epochs},
    }


# -- children ----------------------------------------------------------------


def run_child(args, timeout):
    """Run child.py with ``args``; returns its result dict (never raises)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT, *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"ok": False, "errors": [f"no result (exit {proc.returncode})"]}
    if not result.get("ok"):
        sys.stderr.write(proc.stderr[-4000:])
    return result


def prepare(w) -> bool:
    if not w.from_file or workloads.read_prep(ROOT, w) is not None:
        return True
    print(f"preparing {w.name}: writing {workloads.instance_path(ROOT, w)}", flush=True)
    result = run_child(["--prepare", w.name], PREPARE_TIMEOUT_S)
    if not result.get("ok"):
        print(f"preparation failed: {result.get('errors')}", file=sys.stderr)
        return False
    print(f"prepared in {result['prepare_s']:.1f} s", flush=True)
    return True


def measure(w, seed, seconds, trace):
    """Run repetitions until the time is used; returns (results, wall seconds)."""
    t_start = time.monotonic()
    results = []
    unit_walls = []
    unit = 0
    while True:
        elapsed = time.monotonic() - t_start
        est = _median(unit_walls)
        if unit >= MIN_UNITS[trace] and elapsed + est > seconds:
            break
        if unit >= 1 and elapsed + est > HARD_LIMIT_S:
            break
        # in a traced pair, alternate which side runs first
        kinds = [False] if not trace else ([False, True] if unit % 2 == 0 else [True, False])
        t0 = time.monotonic()
        for traced in kinds:
            timeout = max(10.0, HARD_LIMIT_S + 20.0 - (time.monotonic() - t_start))
            args = ["--workload", w.name, "--seed", str(seed),
                    "--trace", str(int(traced)), "--rep", str(len(results))]
            result = run_child(args, timeout)
            result["traced"] = traced
            results.append(result)
        unit_walls.append(time.monotonic() - t0)
        unit += 1
    return results, time.monotonic() - t_start


def cli_import_s():
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import pdsg.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(CLI_IMPORT_SAMPLES):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, os.path.join(ROOT, "src")],
                capture_output=True, text=True, timeout=60, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            continue
        if proc.returncode == 0:
            samples.append(float(proc.stdout.split()[-1]))
    return _median(samples)


# -- aggregation -------------------------------------------------------------


def mark_nondeterminism(results):
    """A repetition whose CSV differs from the first good one has failed."""
    first = None
    for r in results:
        if not r.get("ok"):
            continue
        if first is None:
            first = r["csv_sha256"]
        elif r["csv_sha256"] != first:
            r["ok"] = False
            r.setdefault("errors", []).append("CSV differs from the first repetition")


def end_to_end(results) -> dict:
    good = [r for r in results if r.get("ok") and not r["traced"]]
    return {
        "setup_s": spread([s for r in good for s in r["setup_s"]]),
        "solve_s": spread([r["solve_s"] for r in good]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in good]),
        "cpu_over_wall": spread([r["cpu_s"] / r["solve_s"] for r in good]),
    }


def per_layer(results, solve) -> dict:
    traced = [r for r in results if r.get("ok") and r["traced"]]
    names = sorted({k for r in traced for k in r["layers"]})
    out = {k: _median([r["layers"][k] for r in traced]) for k in names}
    out["cli.import_s"] = cli_import_s()
    out["trace_overhead"] = (
        _median([r["solve_s"] for r in traced]) - solve["median"] if traced and solve["n"] else 0.0
    )
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pdsg benchmark (one workload).")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pdsg", "__init__.py")):
        print(f"no library at {os.path.join(ROOT, 'src', 'pdsg')}", file=sys.stderr)
        return 2
    spec = load_spec()
    w = workloads.WORKLOADS[args.workload]
    os.makedirs(workloads.data_dir(ROOT), exist_ok=True)

    avail = mem_available_mb()
    need = w.peak_mb + workloads.MEMORY_HEADROOM_MB
    if avail is not None and avail < need:
        reason = (f"skipped {w.name}: MemAvailable {avail:.0f} MiB < expected peak "
                  f"{w.peak_mb} MiB + headroom {workloads.MEMORY_HEADROOM_MB} MiB")
        print(reason, file=sys.stderr)
        with open(os.path.join(workloads.data_dir(ROOT), f"skipped-{w.name}.txt"), "w") as fh:
            fh.write(reason + "\n")
        return 3
    if not prepare(w):
        return 1

    prov = provenance(ROOT, w, args.seed)
    results, wall = measure(w, args.seed, args.seconds, args.trace)
    mark_nondeterminism(results)
    good = [r for r in results if r.get("ok")]
    failed = len(results) - len(good)
    for i, r in enumerate(results):
        if not r.get("ok"):
            print(f"repetition {i} failed: {r.get('errors')}", file=sys.stderr)
    if not good:
        print("no repetition succeeded", file=sys.stderr)
        return 1

    e2e = end_to_end(results)
    first = good[0]
    prov.update(first.get("machine", {}))
    summary = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall,
        "attempted": len(results),
        "failed": failed,
        "fail_frac": failed / len(results),
        "end_to_end": e2e,
        "solve_s_samples": [r["solve_s"] for r in good if not r["traced"]],
        "quality": first["quality"],
        "ref_kkt": first["ref_kkt"],
        "ref_iterations": first["ref_iterations"],
        "csv_bit_exact": [r["bit_exact"] for r in good if r["bit_exact"] is not None],
        "provenance": prov,
    }
    values = {k: v["median"] for k, v in e2e.items() if v["n"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layers = per_layer(results, e2e["solve_s"])
        summary["per_layer"] = layers
        summary["absent"] = sorted({a for r in good if r["traced"] for a in r["absent"]})
        values.update(layers)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(results)} repetitions in {wall:.1f} s")
    for name, s in e2e.items():
        if s["n"]:
            print(f"  {name:<14} median {s['median']:.6g} {units.get(name, '')}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.3f}  "
                  f"min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
    for name, v in summary["quality"].items():
        print(f"  {name:<14} {v:.6g}  (mean over run seeds, final ergodic_plain)")
    print(f"  {'ref_kkt':<14} {summary['ref_kkt']:.6g}  "
          f"(reference converged in {summary['ref_iterations']} iterations)")
    print(f"  {'fail_frac':<14} {summary['fail_frac']:.6g}  ({failed} of {len(results)})")
    if summary["csv_bit_exact"]:
        print(f"  csv_bit_exact  {sum(summary['csv_bit_exact'])} of "
              f"{len(summary['csv_bit_exact'])} match the golden CSV byte for byte")
    if args.trace:
        for name, v in summary["per_layer"].items():
            print(f"  {name:<42} {v:.6g} {units.get(name, '')}")
        if summary["absent"]:
            print(f"  absent boundaries: {', '.join(summary['absent'])}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    out_path = os.path.join(
        workloads.data_dir(ROOT), f"result-{w.name}-s{args.seed}-t{args.trace}.json"
    )
    with open(out_path, "w") as fh:
        json.dump({**summary, "repetitions": results}, fh, indent=1)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
