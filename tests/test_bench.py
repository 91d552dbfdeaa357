"""Harness and command-line interface tests."""

import dataclasses
import json
import os

import numpy as np
import pytest

from pdsg import baselines, bench, cli
from pdsg.errors import ConfigError, DivergenceError
from pdsg.problems import (
    certify_constants,
    load_instance,
    random_qcqp,
    save_instance,
)

TINY = dict(family="qcqp", n=3, p=2, N=4, m=4, instance_seed=0)


def _tiny_cfg(**kw):
    base = dict(
        TINY,
        methods=("pdsg",),
        alpha=0.003,
        rho=0.003,
        epochs=1,
        cadence=1.0,
        seeds=(0,),
    )
    base.update(kw)
    return bench.ExperimentConfig(**base)


def test_csv_schema_and_row_count():
    records, ref, report = bench.run_experiment(_tiny_cfg())
    text = bench.csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == "method,seed,k,epoch,point,obj_err,infeas,z_norm"
    assert len(lines) == 1 + 3  # one tick, three point tags
    assert report is not None and report.ok
    points = [line.split(",")[4] for line in lines[1:]]
    assert points == ["last", "ergodic_plain", "ergodic_weighted"]


def test_csv_float_round_trip():
    records, _, _ = bench.run_experiment(_tiny_cfg(epochs=2, seeds=(0, 1)))
    text = bench.csv_text(records)
    for line in text.strip().split("\n")[1:]:
        cols = line.split(",")
        row = next(
            r
            for rec in records
            for r in rec.rows
            if rec.meta["seed"] == int(cols[1]) and r.k == int(cols[2]) and r.point == cols[4]
        )
        assert float(cols[5]) == row.obj_err
        assert float(cols[6]) == row.infeas
        assert float(cols[7]) == row.z_norm


def test_identical_invocations_identical_bytes():
    a, _, _ = bench.run_experiment(_tiny_cfg(epochs=3, seeds=(0, 1)))
    b, _, _ = bench.run_experiment(_tiny_cfg(epochs=3, seeds=(0, 1)))
    assert bench.csv_text(a) == bench.csv_text(b)


def test_summary_matches_csv_means():
    cfg = _tiny_cfg(epochs=2, seeds=(0, 1, 2), methods=("pdsg", "mirror_prox"))
    records, _, _ = bench.run_experiment(cfg)
    summary = {row["method"]: row for row in bench.summarize(records)}
    finals = {}
    for rec in records:
        last = rec.by_point("ergodic_plain")[-1]
        finals.setdefault(rec.meta["method"], []).append((last.obj_err, last.infeas))
    for method, vals in finals.items():
        arr = np.asarray(vals)
        assert summary[method]["mean_final_obj_err"] == pytest.approx(arr[:, 0].mean())
        assert summary[method]["mean_final_infeas"] == pytest.approx(arr[:, 1].mean())
        assert summary[method]["seeds"] == 3


def test_invalid_schedule_refused_without_force():
    cfg = _tiny_cfg(alpha=10.0, rho=10.0)
    with pytest.raises(ConfigError):
        bench.run_experiment(cfg)
    records, _, _ = bench.run_experiment(_tiny_cfg(alpha=10.0, rho=10.0, force=True))
    assert records


def test_reference_file_cache(tmp_path):
    inst = random_qcqp(3, 2, 4, 4, seed=1)

    path = tmp_path / "inst.bin"
    save_instance(inst, path)
    cache = str(path) + ".ref.json"
    cfg = _tiny_cfg(instance_file=str(path))
    bench.run_experiment(cfg)
    assert os.path.exists(cache)
    stamp = os.path.getmtime(cache)
    records, ref, _ = bench.run_experiment(cfg)  # second run must reuse the file
    assert os.path.getmtime(cache) == stamp
    assert records


def test_reference_cache_write_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    inst = random_qcqp(3, 2, 4, 4, seed=1)
    cache = tmp_path / "inst.bin.ref.json"

    def failing_dump(payload, fh):
        fh.write('{"digest": "')  # half a payload, then the write fails
        raise OSError("disk full")

    monkeypatch.setattr(bench.json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        bench.reference_for(inst, cache_path=str(cache))
    assert os.listdir(tmp_path) == []

    monkeypatch.undo()
    ref = bench.reference_for(inst, cache_path=str(cache))
    assert os.listdir(tmp_path) == [cache.name]
    again = bench.reference_for(inst, cache_path=str(cache))
    assert np.array_equal(again.x, ref.x) and again.f0 == ref.f0


@pytest.mark.parametrize("stale", [None, 1, 2, 3, bench.REF_FORMAT + 1])
def test_reference_cache_of_another_format_is_recomputed(tmp_path, monkeypatch, stale):
    inst = random_qcqp(3, 2, 4, 4, seed=1)
    cache = tmp_path / "inst.bin.ref.json"
    ref = bench.reference_for(inst, cache_path=str(cache))
    payload = json.loads(cache.read_text())
    assert payload["format"] == bench.REF_FORMAT
    # digest and tol still match; only the format marks the payload stale
    # (format 3 also carried the quadratic statistics)
    del payload["format"]
    if stale is not None:
        payload["format"] = stale
    payload["f0"] = 123.0
    cache.write_text(json.dumps(payload))

    again = bench.reference_for(inst, cache_path=str(cache))
    assert again.f0 == ref.f0 and np.array_equal(again.x, ref.x)
    rewritten = json.loads(cache.read_text())
    assert rewritten["format"] == bench.REF_FORMAT and rewritten["f0"] == ref.f0
    assert os.listdir(tmp_path) == [cache.name]
    # recomputed once: the rewritten payload is a hit
    monkeypatch.setattr(baselines, "full_batch_reference", None)
    assert bench.reference_for(inst, cache_path=str(cache)).f0 == ref.f0


# each edit of a cached payload for random_qcqp(3, 2, 4, 4, seed=1): n = 3, m = 4
_TAMPERINGS = {
    "x_nan": lambda p: p["x"].__setitem__(1, float("nan")),
    "x_short": lambda p: p["x"].pop(),
    "x_strings": lambda p: p.update(x=[str(v) for v in p["x"]]),
    "z_nested": lambda p: p.update(z=[[v] for v in p["z"]]),
    "z_long": lambda p: p["z"].append(0.0),
    "z_infinite": lambda p: p["z"].__setitem__(0, float("inf")),
    "f0_nan": lambda p: p.update(f0=float("nan")),
    "f0_string": lambda p: p.update(f0=str(p["f0"])),
    "f0_missing": lambda p: p.pop("f0"),
}


@pytest.mark.parametrize("tampering", sorted(_TAMPERINGS))
def test_reference_cache_with_a_bad_value_is_recomputed(tmp_path, monkeypatch, tampering):
    inst = random_qcqp(3, 2, 4, 4, seed=1)
    cache = tmp_path / "inst.bin.ref.json"
    ref = bench.reference_for(inst, cache_path=str(cache))
    good = cache.read_text()
    payload = json.loads(good)
    _TAMPERINGS[tampering](payload)
    cache.write_text(json.dumps(payload))

    calls = _counting_reference(monkeypatch)
    fresh = random_qcqp(3, 2, 4, 4, seed=1)
    again = bench.reference_for(fresh, cache_path=str(cache))
    assert calls == [None]  # stale: solved again
    assert _fields(again) == _fields(ref)
    assert cache.read_text() == good  # and overwritten with the good payload
    assert os.listdir(tmp_path) == [cache.name]


def test_cached_nan_objective_is_not_believed(tmp_path):
    path = tmp_path / "inst.bin"
    assert cli.main(["generate", "--n", "6", "--p", "4", "--N", "10", "--m", "12",
                     "--seed", "3", "--out", str(path)]) == 0
    compare = ["compare", "--instance", str(path), "--methods", "pdsg,mirror_prox",
               "--alpha", "0.003", "--rho", "0.003", "--epochs", "2", "--seeds", "0,1",
               "--out", str(tmp_path)]
    assert cli.main(compare + ["--csv", "first.csv"]) == 0
    cache = tmp_path / "inst.bin.ref.json"
    good = json.loads(cache.read_text())
    cache.write_text(json.dumps(dict(good, f0=float("nan"))))
    assert cli.main(compare + ["--csv", "second.csv"]) == 0
    text = (tmp_path / "second.csv").read_text()
    assert "nan" not in text and text == (tmp_path / "first.csv").read_text()
    assert json.loads(cache.read_text()) == good


# each edit of a cached payload's diagnostics; a cold `solve --method
# reference` on the 3 x 4 file below converges within its K = 240
_DIAGNOSTIC_TAMPERINGS = {
    "converged_string": lambda p: p.update(converged="no"),
    "converged_int": lambda p: p.update(converged=1),
    "converged_missing": lambda p: p.pop("converged"),
    "iterations_string": lambda p: p.update(iterations=str(p["iterations"])),
    "iterations_bool": lambda p: p.update(iterations=True),
    "iterations_float": lambda p: p.update(iterations=float(p["iterations"])),
    "iterations_negative": lambda p: p.update(iterations=-1),
    "infeas_string": lambda p: p.update(infeas="0"),
    "infeas_nan": lambda p: p.update(infeas=float("nan")),
    "infeas_negative": lambda p: p.update(infeas=-1e-12),
    "step_norm_infinite": lambda p: p.update(step_norm=float("inf")),
    "step_norm_negative": lambda p: p.update(step_norm=-1.0),
    "step_norm_list": lambda p: p.update(step_norm=[p["step_norm"]]),
}


@pytest.mark.parametrize("tampering", sorted(_DIAGNOSTIC_TAMPERINGS))
def test_reference_cache_with_bad_diagnostics_is_recomputed(tmp_path, monkeypatch, tampering):
    path = tmp_path / "inst.bin"
    assert cli.main(["generate", "--n", "3", "--p", "2", "--N", "4", "--m", "4",
                     "--seed", "0", "--out", str(path)]) == 0
    solve = ["solve", "--instance", str(path), "--method", "reference", "--epochs", "60",
             "--seeds", "0,1", "--out", str(tmp_path)]
    assert cli.main(solve + ["--csv", "cold.csv"]) == 0
    cache = tmp_path / "inst.bin.ref.json"
    good = cache.read_text()
    payload = json.loads(good)
    _DIAGNOSTIC_TAMPERINGS[tampering](payload)
    cache.write_text(json.dumps(payload))

    calls = _counting_reference(monkeypatch)
    assert cli.main(solve + ["--csv", "again.csv"]) == 0
    assert calls == [None]  # stale: solved once, and that solve is the method's too
    assert cache.read_text() == good
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def _statistics(inst):
    """Every quadratic statistic of an instance as raw bytes (r as a float)."""
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in inst.statistics().items()}


_STATISTICS = ("_hessian", "_linear", "_qnorms", "_eigenvalues")


def _assert_certified_alike(inst, fresh):
    for samples in (0, 4):
        got, computed = certify_constants(inst, samples), certify_constants(fresh, samples)
        assert (got.F, got.G, got.mu, got.sigma) == (
            computed.F, computed.G, computed.mu, computed.sigma)


@pytest.mark.parametrize("shape", [(3, 2, 4, 4, 1), (6, 4, 10, 12, 3)])
def test_loaded_statistics_equal_recomputed_ones(tmp_path, shape):
    path = tmp_path / "inst.bin"
    save_instance(random_qcqp(*shape), path)
    loaded = load_instance(path)
    for name in _STATISTICS:
        assert getattr(loaded, name) is not None, name  # loaded, not computed
    assert _statistics(loaded) == _statistics(random_qcqp(*shape))
    for arr in (loaded.hessian(), loaded.linear_terms()[0], loaded.constraint_curvatures(),
                loaded._hessian_eigenvalues()):
        assert not arr.flags.writeable
    _assert_certified_alike(loaded, random_qcqp(*shape))


class _Spied(np.ndarray):
    """H of a loaded instance, recording the shape of every whole-array
    operand of a ufunc (matmul included) that involves it."""

    log = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        type(self).log.extend(x.shape for x in inputs if isinstance(x, _Spied))
        inputs = [x.view(np.ndarray) if isinstance(x, _Spied) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_warm_solve_reads_no_statistic_and_writes_the_same_bytes(tmp_path, monkeypatch):
    path = tmp_path / "inst.bin"
    assert cli.main(["generate", "--n", "6", "--p", "4", "--N", "10", "--m", "12",
                     "--seed", "3", "--out", str(path)]) == 0
    load = bench.problems.load_instance

    def spied_load(file):
        inst = load(file)
        data = dataclasses.replace(inst.data, H=inst.data.H.view(_Spied))
        spied = type(inst)(data)
        for name in ("_digest", *_STATISTICS):
            setattr(spied, name, getattr(inst, name))
        return spied

    eigvalsh, row_squares = np.linalg.eigvalsh, bench.problems._row_squares
    factored, squared = [], []
    monkeypatch.setattr(bench.problems, "load_instance", spied_load)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: factored.append(1) or eigvalsh(a))
    monkeypatch.setattr(bench.problems, "_row_squares",
                        lambda arr: squared.append(arr.shape) or row_squares(arr))
    monkeypatch.setattr(_Spied, "log", [])
    solve = ["solve", "--instance", str(path), "--method", "pdsg", "--alpha", "0.003",
             "--rho", "0.003", "--epochs", "2", "--seeds", "0,1,2", "--out", str(tmp_path)]
    # the statistics come with the file: from the first run on (its reference
    # cold, then warm), no product over H, no curvature pass and no factorization
    for name in ("first.csv", "second.csv"):
        assert cli.main(solve + ["--csv", name]) == 0
        assert _Spied.log == [] and (12, 6, 6) not in squared and not factored
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    # the spies see a statistic computed: with the loaded ones dropped, P is
    # one product of the stacked rows of H, q a product with all of H, the
    # curvatures the sums of squares of all of Q, and the eigenvalues a
    # factorization
    inst = spied_load(str(path))
    for name in _STATISTICS:
        setattr(inst, name, None)
    inst.statistics()
    assert (40, 6) in _Spied.log and (10, 4, 6) in _Spied.log
    assert squared.count((12, 6, 6)) == 1 and factored


def test_experiment_reads_its_cache_file_once(tmp_path, monkeypatch):
    path = tmp_path / "inst.bin"
    save_instance(random_qcqp(3, 2, 4, 4, seed=1), path)
    cache = str(path) + ".ref.json"
    cfg = _tiny_cfg(instance_file=str(path), methods=("pdsg", "mirror_prox"), seeds=(0, 1))
    opened, calls = [], []

    def counted_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "r" in mode:
            opened.append(os.fspath(file))
        return fh

    reference_for = bench.reference_for
    monkeypatch.setattr(bench, "open", counted_open, raising=False)
    monkeypatch.setattr(bench, "reference_for",
                        lambda *a, **kw: calls.append(1) or reference_for(*a, **kw))
    for warm in (False, True):  # no file, then a hit
        del opened[:], calls[:]
        bench.run_experiment(cfg)
        assert opened == ([cache] if warm else []) and len(calls) == 1
    # a stale payload is read once too, then solved and rewritten
    ref_path = tmp_path / "inst.bin.ref.json"
    payload = json.loads(ref_path.read_text())
    ref_path.write_text(json.dumps(dict(payload, f0=None)))
    del opened[:], calls[:]
    bench.run_experiment(cfg)
    assert opened == [cache] and len(calls) == 1
    assert json.loads(ref_path.read_text()) == payload


@pytest.mark.parametrize("cache", ["absent", "stale", "warm"])
def test_invalid_schedule_raises_before_any_reference_solve(tmp_path, monkeypatch, cache):
    path = tmp_path / "inst.bin"
    save_instance(random_qcqp(3, 2, 4, 4, seed=1), path)
    ref_path = tmp_path / "inst.bin.ref.json"
    if cache != "absent":
        bench.run_experiment(_tiny_cfg(instance_file=str(path)))
    if cache == "stale":
        ref_path.write_text(ref_path.read_text().replace(
            f'"format": {bench.REF_FORMAT}', f'"format": {bench.REF_FORMAT - 1}'))
    before = ref_path.read_bytes() if cache != "absent" else None
    calls = _counting_reference(monkeypatch)
    with pytest.raises(ConfigError, match="schedule fails validation"):
        bench.run_experiment(_tiny_cfg(instance_file=str(path), alpha=10.0, rho=10.0))
    assert calls == []
    assert (ref_path.read_bytes() if ref_path.exists() else None) == before


def test_reference_cache_that_is_not_an_object_is_recomputed(tmp_path):
    inst = random_qcqp(3, 2, 4, 4, seed=1)
    cache = tmp_path / "inst.bin.ref.json"
    cache.write_text("[1, 2, 3]")
    ref = bench.reference_for(inst, cache_path=str(cache))
    assert json.loads(cache.read_text())["f0"] == ref.f0


def test_divergence_produces_partial_record():
    cfg = _tiny_cfg(alpha=1e12, rho=1e12, force=True)
    records, _, _ = bench.run_experiment(cfg)
    assert records[0].meta.get("diverged")
    assert records[0].rows[-1].point == "DIVERGED"


def _counting_reference(monkeypatch, diverge=False):
    """Wrap ``baselines.full_batch_reference``; returns the K of every call."""
    calls = []
    solve = baselines.full_batch_reference

    def counted(inst, **kw):
        calls.append(kw.get("K"))
        if diverge and "K" in kw:
            raise DivergenceError("reference diverged at iteration 3", iteration=3)
        return solve(inst, **kw)

    monkeypatch.setattr(baselines, "full_batch_reference", counted)
    return calls


_COMPARE_REFERENCE = ["compare", "--methods", "pdsg,reference",
                      "--n", "3", "--p", "2", "--N", "4", "--m", "4",
                      "--alpha", "0.003", "--rho", "0.003", "--seeds", "0,1"]


@pytest.mark.parametrize("epochs", [1, 60])  # K = 4 stops early; K = 240 converges
def test_reference_method_solved_once_per_experiment(tmp_path, monkeypatch, epochs):
    calls = _counting_reference(monkeypatch)
    rc = cli.main(_COMPARE_REFERENCE + ["--epochs", str(epochs), "--out", str(tmp_path)])
    assert rc == 0
    K = epochs * 4
    # the objective-error reference converges within K = 240 and is the
    # method's solve too; at K = 4 the method makes its own, capped solve
    assert calls == ([None, K] if epochs == 1 else [None])
    monkeypatch.undo()

    # each seed's rows equal a solve made for that seed alone
    cfg = _tiny_cfg(methods=("pdsg", "reference"), epochs=epochs, seeds=(0, 1))
    inst = bench.build_instance(cfg)
    ref = bench.reference_for(inst, tol=cfg.ref_tol)
    rows = [
        bench.run_one("reference", inst, cfg, K, seed, ref, cadence_steps=inst.m)
        for seed in cfg.seeds
    ]
    text = (tmp_path / "runs.csv").read_text()
    expected = bench.csv_text(rows).split("\n", 1)[1]
    assert text.endswith(expected) and expected.count("reference,") == 2
    ks = {line.split(",")[2] for line in expected.strip().split("\n")}
    assert ks == {str(K if epochs == 1 else ref.iterations)}


def _fields(sol):
    """Every field of a ReferenceSolution, arrays as raw bytes."""
    return [v.tobytes() if isinstance(v, np.ndarray) else v
            for v in (getattr(sol, f.name) for f in dataclasses.fields(sol))]


@pytest.mark.parametrize("from_file", [False, True])
def test_reused_reference_equals_a_capped_solve(tmp_path, monkeypatch, from_file):
    cfg = _tiny_cfg(methods=("reference",), epochs=60, seeds=(0, 1))
    if from_file:
        path = tmp_path / "inst.bin"
        save_instance(bench.build_instance(cfg), path)
        cfg = dataclasses.replace(cfg, instance_file=str(path))
        bench.run_experiment(cfg)  # writes the reference cache
    inst = bench.build_instance(cfg)
    K = cfg.epochs * inst.m
    calls = _counting_reference(monkeypatch)
    records, ref, _ = bench.run_experiment(cfg, inst)
    # the cached or fresh reference is the method's solve as well
    assert calls == ([] if from_file else [None])
    monkeypatch.undo()

    capped = baselines.full_batch_reference(inst, K=K, tol=cfg.ref_tol)
    assert ref.converged and ref.iterations < K
    assert _fields(ref) == _fields(capped)
    forced = [bench.run_one("reference", inst, cfg, K, seed, ref, inst.m) for seed in cfg.seeds]
    assert bench.csv_text(records) == bench.csv_text(forced)


def test_reference_method_divergence_reaches_every_seed(tmp_path, monkeypatch):
    calls = _counting_reference(monkeypatch, diverge=True)
    rc = cli.main(_COMPARE_REFERENCE + ["--epochs", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert calls == [None, 4]
    lines = (tmp_path / "runs.csv").read_text().strip().split("\n")
    diverged = [line.split(",")[:5] for line in lines if line.startswith("reference,")]
    assert diverged == [["reference", str(seed), "3", "0.75", "DIVERGED"] for seed in (0, 1)]


# -- command line ---------------------------------------------------------------


def test_cli_generate_and_solve(tmp_path, capsys):
    inst_path = tmp_path / "desk.bin"
    rc = cli.main(
        [
            "generate",
            "--family", "qcqp",
            "--n", "3", "--p", "2", "--N", "4", "--m", "4",
            "--seed", "0",
            "--out", str(inst_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "F=" in out and "G=" in out and "sigma=" in out
    loaded = load_instance(inst_path)
    assert loaded.n == 3 and loaded.m == 4

    rc = cli.main(
        [
            "solve",
            "--instance", str(inst_path),
            "--method", "pdsg",
            "--alpha", "0.003", "--rho", "0.003",
            "--epochs", "1",
            "--seeds", "0",
            "--out", str(tmp_path),
            "--csv", "run.csv",
        ]
    )
    assert rc == 0
    csv_path = tmp_path / "run.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == bench.CSV_HEADER
    assert len(lines) == 4


def test_cli_generate_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    for p in (p1, p2):
        assert cli.main(
            ["generate", "--n", "3", "--p", "2", "--N", "4", "--m", "4",
             "--seed", "7", "--out", str(p)]
        ) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_rejects_bad_dimensions(capsys):
    rc = cli.main(["generate", "--n", "0", "--p", "1", "--N", "1", "--m", "1",
                   "--out", "/tmp/should_not_exist.bin"])
    assert rc == 2


def test_cli_compare_requires_two_methods(tmp_path):
    rc = cli.main(
        ["compare", "--methods", "pdsg",
         "--n", "3", "--p", "2", "--N", "4", "--m", "4",
         "--alpha", "0.003", "--rho", "0.003",
         "--epochs", "1", "--out", str(tmp_path)]
    )
    assert rc == 2
    # a repeated method used to write its rows twice and count them twice
    rc = cli.main(
        ["compare", "--methods", "pdsg,pdsg,mirror_prox",
         "--n", "3", "--p", "2", "--N", "4", "--m", "4",
         "--alpha", "0.003", "--rho", "0.003",
         "--epochs", "1", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert not (tmp_path / "runs.csv").exists()


def test_cli_compare_writes_summary(tmp_path, capsys):
    rc = cli.main(
        ["compare", "--methods", "pdsg,mirror_prox",
         "--n", "3", "--p", "2", "--N", "4", "--m", "4",
         "--alpha", "0.003", "--rho", "0.003",
         "--epochs", "1", "--seeds", "0,1",
         "--out", str(tmp_path), "--csv", "cmp.csv"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mirror_prox" in out
    text = (tmp_path / "cmp.csv").read_text()
    assert text.count("pdsg,") > 0 and text.count("mirror_prox,") > 0


def test_cli_invalid_schedule_needs_force(tmp_path, capsys):
    args = ["solve", "--n", "3", "--p", "2", "--N", "4", "--m", "4",
            "--alpha", "10", "--rho", "10", "--epochs", "1",
            "--out", str(tmp_path)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "alpha_rho_product" in err
    assert cli.main(args + ["--force"]) == 0


def test_cli_divergence_exit_code(tmp_path):
    rc = cli.main(
        ["solve", "--n", "3", "--p", "2", "--N", "4", "--m", "4",
         "--alpha", "1e12", "--rho", "1e12", "--force",
         "--epochs", "1", "--out", str(tmp_path)]
    )
    assert rc == 3


_TINY_SOLVE = ["solve", "--n", "3", "--p", "2", "--N", "4", "--m", "4",
               "--alpha", "0.003", "--rho", "0.003", "--epochs", "1"]


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cli_unusable_out_fails_before_the_experiment(tmp_path, monkeypatch, capsys, command):
    # --out names a file, so the output directory cannot be made
    taken = tmp_path / "taken"
    taken.write_text("")
    calls = []
    monkeypatch.setattr(bench, "run_experiment", lambda *a, **kw: calls.append(a))
    rc = cli.main([command, *_TINY_SOLVE[1:], "--out", str(taken)])
    assert rc == 4 and calls == []
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cli_csv_in_a_missing_directory_fails_before_the_experiment(
        tmp_path, monkeypatch, capsys, command):
    calls = []
    monkeypatch.setattr(bench, "run_experiment", lambda *a, **kw: calls.append(a))
    rc = cli.main([command, *_TINY_SOLVE[1:], "--out", str(tmp_path),
                   "--csv", os.path.join("missing", "runs.csv")])
    assert rc == 4 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_divergence_outside_the_run_loop_exits_3(tmp_path, capsys, monkeypatch):
    def diverging(inst, **kw):
        raise DivergenceError("reference diverged at iteration 7", iteration=7)

    monkeypatch.setattr(baselines, "full_batch_reference", diverging)
    assert cli.main(_TINY_SOLVE + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: reference diverged at iteration 7\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_warns_when_the_reference_misses_its_tolerance(tmp_path, capsys, monkeypatch):
    solve = baselines.full_batch_reference
    monkeypatch.setattr(baselines, "full_batch_reference",
                        lambda inst, **kw: dataclasses.replace(solve(inst, **kw),
                                                               converged=False))
    assert cli.main(_TINY_SOLVE + ["--out", str(tmp_path)]) == 0
    assert "warning: reference solve did not reach tolerance" in capsys.readouterr().err
    assert (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("command", [
    ["generate", "--m", "1000000000000"],  # Q alone: 2.84 PiB
    ["solve", "--schedule", "anytime", "--epochs", "1000000000000",
     "--alpha", "1e-6", "--rho", "1e-6"],  # the step sizes alone: 1.42 PiB
], ids=["generate", "solve"])
def test_cli_impossible_size_exits_2(tmp_path, capsys, command):
    # past the address space numpy refuses the array at once, allocating nothing
    out = tmp_path / "x.bin" if command[0] == "generate" else tmp_path
    assert cli.main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--cadence", "inf"],  # used to overflow in int(round(...))
    ["--cadence", "0"],  # used to measure every iteration
    ["--cadence", "-1"],
    ["--ref-tol", "nan"],  # used to run the reference's whole iteration budget
    ["--ref-tol", "0"],
    ["--alpha", "nan", "--rho", "nan", "--force"],  # used to exit 3 as a divergence
    ["--schedule", "strongly_convex", "--mu", "nan", "--force"],
    ["--method", "mirror_prox", "--zmax", "nan"],  # used to run with no dual box
    ["--alpha", "inf", "--force"],  # used to exit 3 as a divergence
    ["--rho", "inf", "--force"],
    ["--method", "mirror_prox", "--zmax", "inf"],  # used to exit 0 with no dual box
    ["--seeds", "3,3"],  # used to write and average one run twice
    ["--seeds", "0,1,0"],
])
def test_cli_rejects_out_of_range_run_options(tmp_path, capsys, flags):
    # pdsg's steps are valid unless the case sets them; mirror-prox takes none
    steps = [] if "mirror_prox" in flags else ["--alpha", "0.003", "--rho", "0.003"]
    rc = cli.main(
        ["solve", "--n", "3", "--p", "2", "--N", "4", "--m", "4", "--epochs", "1",
         "--out", str(tmp_path)] + steps + flags
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--zmax" in flags:
        assert "z_max" in err
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("flags, named", [
    (["solve", "--method", "mirror_prox", "--alpha", "0.003"], "--alpha"),
    (["solve", "--method", "reference", "--rho", "0.003"], "--rho"),
    (["solve", "--zmax", "5", "--alpha", "0.003", "--rho", "0.003"], "--zmax"),
    (["compare", "--methods", "mirror_prox,reference", "--alpha", "0.003"], "--alpha"),
    (["compare", "--methods", "pdsg,reference", "--zmax", "5",
      "--alpha", "0.003", "--rho", "0.003"], "--zmax"),
    (["solve", "--method", "mirror_prox", "--schedule", "anytime"], "--schedule"),
    (["solve", "--method", "reference", "--mu", "5"], "--mu"),
    (["compare", "--methods", "mirror_prox,reference", "--schedule", "strongly_convex",
      "--mu", "5"], "--schedule, --mu"),
    # instance options beside an instance file, or of the other family
    (["solve", "--instance", "absent.bin", "--alpha", "0.003", "--rho", "0.003"],
     "--n, --p, --N, --m"),
    (["solve", "--family", "scenario_lp", "--alpha", "0.003", "--rho", "0.003"], "--p, --N"),
    (["solve", "--second-stage-dim", "2", "--alpha", "0.003", "--rho", "0.003"],
     "--second-stage-dim"),
    (["compare", "--family", "qcqp", "--second-stage-dim", "2", "--alpha", "0.003",
      "--rho", "0.003"], "--second-stage-dim"),
])
def test_cli_refuses_options_that_configure_no_run(tmp_path, capsys, flags, named):
    rc = cli.main(flags + ["--n", "3", "--p", "2", "--N", "4", "--m", "4", "--epochs", "1",
                           "--out", str(tmp_path)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


class _Captured(Exception):
    pass


@pytest.mark.parametrize("argv, want", [
    (["solve"], bench.ExperimentConfig()),
    (["compare"], bench.ExperimentConfig(methods=("pdsg", "mirror_prox"))),
    (["generate"], bench.ExperimentConfig()),
])
def test_cli_options_not_given_leave_experiment_config_defaults(tmp_path, monkeypatch,
                                                                argv, want):
    seen = []

    def capture(cfg, *args, **kwargs):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(bench, "run_experiment", capture)
    monkeypatch.setattr(bench, "build_instance", capture)
    with pytest.raises(_Captured):
        cli.main(argv + ["--out", str(tmp_path / "out")])
    assert seen == [want]


@pytest.mark.parametrize("flags", [
    ["--G", "0"],  # used to raise ZeroDivisionError
    ["--G", "nan"],
    ["--alpha", "nan"],
    ["--m", "0"],
    ["--m", "-5"],  # used to report the limit m/(32 G^2) = -0.15625
    ["--schedule", "anytime", "--alpha", "0.001", "--rho", "0.001", "--K", "-5"],  # was VALID
    ["--schedule", "anytime", "--K", "0"],
])
def test_cli_validate_schedule_rejects_degenerate_inputs(capsys, flags):
    rc = cli.main(
        ["validate-schedule", "--schedule", "fixed_horizon", "--alpha", "1", "--rho", "1",
         "--m", "10", "--G", "1"] + flags
    )
    assert rc == 2
    assert "must be positive" in capsys.readouterr().err


def test_cli_validate_schedule(capsys):
    rc = cli.main(
        ["validate-schedule", "--schedule", "anytime",
         "--alpha", "2.5", "--rho", "2.5", "--m", "200", "--G", "1.0"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "INVALID" in out and "alpha_rho_product" in out

    rc = cli.main(
        ["validate-schedule", "--schedule", "fixed_horizon",
         "--alpha", "1.0", "--rho", "1.0", "--m", "200", "--G", "1.0", "--K", "1000"]
    )
    assert rc == 0
    assert "VALID" in capsys.readouterr().out

    rc = cli.main(
        ["validate-schedule", "--schedule", "strongly_convex",
         "--alpha", "1.0", "--rho", "1.0", "--m", "200", "--G", "1.0", "--mu", "0"]
    )
    assert rc == 2


def test_cli_scenario_size(capsys):
    rc = cli.main(["scenario-size", "--n", "100", "--tau", "0.01", "--eps", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "999999" in out

    rc = cli.main(["scenario-size", "--n", "1", "--tau", "0.5", "--eps", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "N >= 1" in out and "m >= 3" in out


def test_cli_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# desk experiment defaults\n"
        "n = 3\np = 2\nN = 4\nm = 4\n"
        "alpha = 0.003\nrho = 0.003\nepochs = 1\n"
    )
    rc = cli.main(
        ["--config", str(cfg), "solve", "--out", str(tmp_path), "--csv", "c.csv"]
    )
    assert rc == 0
    assert (tmp_path / "c.csv").exists()
    # explicit flags still win over the file
    rc = cli.main(
        ["--config", str(cfg), "solve", "--epochs", "2",
         "--out", str(tmp_path), "--csv", "c2.csv"]
    )
    assert rc == 0
    lines = (tmp_path / "c2.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3  # two ticks now


def test_cli_scenario_family_strongly_convex(tmp_path):
    rc = cli.main(
        ["solve", "--family", "scenario_lp", "--n", "6", "--m", "12",
         "--second-stage-dim", "4", "--seed", "2",
         "--schedule", "strongly_convex", "--alpha", "1.0", "--rho", "0.05",
         "--epochs", "2", "--out", str(tmp_path), "--csv", "sc.csv"]
    )
    assert rc == 0
    lines = (tmp_path / "sc.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3


def test_mid_scale_generation_and_certification():
    # larger-dimension smoke: generation, certification, and a short solve all
    # stay well-behaved as the arrays grow
    inst = random_qcqp(50, 45, 400, 400, seed=0)
    consts = certify_constants(inst)
    assert consts.G > 0 and consts.F > consts.G
    from pdsg.solver import fixed_horizon, max_equal_steps, run

    a = max_equal_steps(inst.m, consts.G)
    state, _ = run(inst, fixed_horizon(a, a, 400), 400, seed=0)
    assert np.all(np.isfinite(state.x))
    assert np.min(state.z) >= 0.0


def test_cli_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["--config", str(missing), "scenario-size",
                     "--n", "1", "--tau", "0.5", "--eps", "0.5"]) == 4
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    assert cli.main(["--config", str(bad), "scenario-size",
                     "--n", "1", "--tau", "0.5", "--eps", "0.5"]) == 2


_TINY_FILE = "n = 3\np = 2\nN = 4\nm = 4\nalpha = 0.003\nrho = 0.003\nepochs = 1\n"


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses a flag it cannot parse
        return exc.code


def test_cli_config_file_booleans(tmp_path):
    cfg = tmp_path / "exp.cfg"
    solve = ["--config", str(cfg), "solve", "--alpha", "10", "--rho", "10",
             "--out", str(tmp_path)]
    cfg.write_text(_TINY_FILE + "force = false\n")
    assert cli.main(solve) == 2  # the invalid schedule is refused
    assert cli.main(solve + ["--force"]) == 0
    cfg.write_text(_TINY_FILE + "force = true\n")
    assert cli.main(solve) == 0


def test_cli_config_file_values_count_as_given(tmp_path, capsys):
    # the file's alpha, rho, schedule and mu configure no mirror-prox run
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_TINY_FILE)
    mirror_prox = ["--config", str(cfg), "solve", "--method", "mirror_prox",
                   "--out", str(tmp_path)]
    assert cli.main(mirror_prox) == 2
    assert "--alpha" in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()
    no_steps = _TINY_FILE.replace("alpha = 0.003\nrho = 0.003\n", "")
    for line, named in [("schedule = anytime", "--schedule"), ("mu = 5", "--mu")]:
        cfg.write_text(no_steps + line + "\n")
        assert cli.main(mirror_prox) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "runs.csv").exists()
    cfg.write_text(no_steps)
    assert cli.main(mirror_prox) == 0


def test_cli_config_file_equals_form(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_TINY_FILE.replace("epochs = 1", "epochs = 2"))
    rc = cli.main([f"--config={cfg}", "solve", "--out", str(tmp_path), "--csv", "c.csv"])
    assert rc == 0
    lines = (tmp_path / "c.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3


@pytest.mark.parametrize(
    "line, named",
    [
        ("seed = x", "seed"),  # not an integer
        ("epochs = false", "epochs"),  # not a boolean flag
        ("epohcs = 2", "epohcs"),  # misspelled
        ("epoch = 2", "epoch"),  # an abbreviation argparse alone would take
        ("tau = 0.5", "tau"),  # an option of another subcommand
        ("second_stage_dim = 2", "--second-stage-dim"),  # a size qcqp does not take
        ("family = scenario_lp", "--p, --N"),  # the file's p and N size no scenario LP
    ],
)
def test_cli_config_file_rejects_bad_lines(tmp_path, capsys, line, named):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_TINY_FILE + line + "\n")
    assert _exit_code(["--config", str(cfg), "solve", "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()
