"""One measured repetition of a workload, run in a fresh process by run.py.

    python3 perfbench/child.py --root DIR --workload NAME --seed S --trace 0|1 --rep R
    python3 perfbench/child.py --root DIR --prepare NAME

The library is imported from ``DIR/src``.  A repetition builds the instance
``setup_reps`` times (each build timed; the last one is used), then times
``bench.run_experiment`` plus ``bench.write_csv``, checks the CSV, and prints
one JSON object as its last line.  ``--prepare`` writes a workload's instance
file and warms its reference cache with the library under test.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import tempfile
import time
import traceback

import check
import tracer as tracing
import workloads


def _import_library(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import pdsg
    from pdsg import bench, metrics, problems, solver

    expected = os.path.join(os.path.realpath(root), "src", "pdsg")
    if os.path.dirname(os.path.realpath(pdsg.__file__)) != expected:
        raise ImportError(f"pdsg imported from {pdsg.__file__}, not from {expected}")
    return bench, metrics, problems, solver


def machine_info() -> dict:
    """numpy version, BLAS library and the thread count BLAS will use."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def step_size(solver, w, G) -> float:
    """Largest equal alpha = rho that passes the schedule's product condition."""
    return solver.max_equal_steps(w.m, G, kind=w.schedule)


def prepare(root, w):
    bench, _, problems, solver = _import_library(root)
    path = workloads.instance_path(root, w)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = time.perf_counter()
    inst = problems.random_qcqp(w.n, w.p, w.N, w.m, workloads.PAPER_IO_INSTANCE_SEED)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        problems.save_instance(inst, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    alpha = step_size(solver, w, problems.certify_constants(inst).G)
    ref_path = path + ".ref.json"
    if os.path.exists(ref_path):
        os.unlink(ref_path)
    ref = bench.reference_for(inst, tol=workloads.REF_TOL, cache_path=ref_path)
    record = {
        "ok": True,
        "alpha": alpha,
        "reference_converged": ref.converged,
        "reference_iterations": ref.iterations,
        "prepare_s": time.perf_counter() - t0,
        "file_bytes": os.path.getsize(path),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(workloads.prep_path(root, w), "w") as fh:
        json.dump(record, fh)
    return record


def _read_golden(name, seed):
    if seed != workloads.DEFAULT_SEED:
        return None, None
    golden = check.load_golden()
    return golden["workloads"].get(name), golden["tolerance"]


def repetition(root, w, seed, traced, rep):
    bench, metrics, problems, solver = _import_library(root)
    tr = tracing.Tracer() if traced else None
    if tr is not None:
        tr.install()
    try:
        base = workloads.config_kwargs(w, seed, root, alpha=1.0)
        cfg = bench.ExperimentConfig(**base)
        setup = []
        inst = None
        for _ in range(w.setup_reps):
            inst = None
            t0 = time.perf_counter()
            inst = bench.build_instance(cfg)
            setup.append(time.perf_counter() - t0)

        # the step size is part of the configuration, not of the timed work
        if w.from_file:
            alpha = workloads.read_prep(root, w)["alpha"]
        else:
            with tr.pause() if tr is not None else contextlib.nullcontext():
                alpha = step_size(solver, w, problems.certify_constants(inst).G)
        cfg = dataclasses.replace(cfg, alpha=alpha, rho=alpha)

        out_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=workloads.data_dir(root))
        csv_path = os.path.join(out_dir, "runs.csv")
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        records, ref, _ = bench.run_experiment(cfg, inst=inst)
        bench.write_csv(records, csv_path)
        solve_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    finally:
        if tr is not None:
            tr.restore()

    ref_kkt = metrics.kkt_residual(inst, ref.x, ref.z).max()
    with open(csv_path) as fh:
        text = fh.read()
    os.unlink(csv_path)
    os.rmdir(out_dir)

    errors, finals = check.check_csv(text, cfg.methods, cfg.seeds, w.epochs)
    if not ref.converged:
        errors.append(f"reference did not converge in {ref.iterations} iterations")
    bit_exact = None
    entry, tolerance = _read_golden(w.name, seed)
    if entry is not None:
        errors += check.check_golden(finals, entry, tolerance)
        bit_exact = int(check.csv_sha256(text) == entry["csv_sha256"])

    result = {
        "ok": not errors,
        "errors": errors[:20],
        "setup_s": setup,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_kkt": ref_kkt,
        "ref_iterations": ref.iterations,
        "quality": check.quality(finals, cfg.methods),
        "finals": finals,
        "csv_sha256": check.csv_sha256(text),
        "bit_exact": bit_exact,
        "alpha": alpha,
        "machine": machine_info(),
    }
    if tr is not None:
        result["layers"] = tr.layer_metrics()
        result["counts"] = tr.counts()
        result["absent"] = tr.absent
        trace_path = os.path.join(
            workloads.data_dir(root), f"trace-{w.name}-s{seed}-r{rep}.json"
        )
        with open(trace_path, "w") as fh:
            json.dump({"spans": tr.spans, "counts": tr.counts()}, fh)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--prepare")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rep", type=int, default=0)
    args = ap.parse_args(argv)
    root = os.path.realpath(args.root)
    os.makedirs(workloads.data_dir(root), exist_ok=True)
    try:
        if args.prepare:
            result = prepare(root, workloads.WORKLOADS[args.prepare])
        else:
            w = workloads.WORKLOADS[args.workload]
            result = repetition(root, w, args.seed, bool(args.trace), args.rep)
    except Exception as exc:  # reported to the parent as a failed repetition
        traceback.print_exc()
        result = {"ok": False, "errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
