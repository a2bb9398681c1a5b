"""Tests of the benchmark itself (not of uvol).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def small(requests):
    """The requests at 3 000 paths in chunks of 1 000."""
    return [replace(r, cfg=replace(r.cfg, n_paths=3000, chunk_size=1000))
            for r in requests]


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    doc = bench_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)


def test_installed_wrappers_restore_module_attributes():
    before = {(mod.__name__, attr): getattr(mod, attr) for mod, attr, *_ in tracer.TARGETS}
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            for mod, attr, *_ in tracer.TARGETS:
                wrapped = getattr(mod, attr)
                assert wrapped is not before[(mod.__name__, attr)]
                assert wrapped.__wrapped__ is before[(mod.__name__, attr)]
            raise RuntimeError("leave the block by an exception")
    for mod, attr, *_ in tracer.TARGETS:
        assert getattr(mod, attr) is before[(mod.__name__, attr)]


def test_wrap_model_leaves_the_original_model_alone():
    model = wl.reference_contract("cosine-digital")[0]
    before = {f: getattr(model, f) for f in tracer.COEFF_FIELDS}
    traced = tracer.Tracer().wrap_model(model)
    for f in tracer.COEFF_FIELDS:
        assert getattr(model, f) is before[f]
        assert getattr(traced, f).__wrapped__ is before[f]


@pytest.mark.parametrize("name", ["affine-greeks", "cosine-digital"])
def test_traced_pass_is_exact_and_complete(name):
    requests = small(wl.build_requests(wl.WORKLOADS[name], seed=7))
    tally = harness.Tally()
    base = harness.run_pass(requests, tally)
    tr, done = harness.traced_pass(requests, tally)
    tr2, _ = harness.traced_pass(requests, tally)
    assert tally.failed == 0
    assert wl.pooled_misses((req, res) for req, res, _ in base) == []
    assert [(r.mean, r.std_error) for _, r, _ in done] == \
        [(r.mean, r.std_error) for _, r, _ in base]
    metrics = tracer.layer_metrics(tr.spans, [r for _, r, _ in done])
    metrics["trace.overhead_ratio"] = 1.0
    assert set(metrics) == set(harness.PER_LAYER)
    # one thread: self times partition the request wall
    assert metrics["trace.self_sum_ratio"] == pytest.approx(1.0, abs=1e-9)
    counts = tracer.exact_counts(tr.spans)
    assert {k: counts[k] for k in harness.EXACT_COUNTS} == \
        {k: tracer.exact_counts(tr2.spans)[k] for k in harness.EXACT_COUNTS}
    assert counts["flow.path_steps"] == round(
        sum(r.n_paths * (1 + r.n_jumps_mean) for _, r, _ in done))


def test_worker_thread_spans_attach_to_the_request():
    requests = small(wl.build_requests(wl.WORKLOADS["bs-sweep-2t"], seed=7)[:1])
    tr, done = harness.traced_pass(requests, harness.Tally())
    (req_span,) = [s for s in tr.spans if s.name == "estimators.request"]
    chunks = [s for s in tr.spans if s.name == "estimators.chunk"]
    assert len(chunks) == 3
    assert all(s.parent is req_span and s.thread != req_span.thread for s in chunks)
    assert all(s.parent is not None for s in tr.spans if s is not req_span)


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(name, start, end, parent=None):
        s = tracer.Span(name, parent, 0)
        s.start, s.end = start, end
        return s

    root = span("estimators.request", 0.0, 10.0)
    a = span("estimators.chunk", 1.0, 5.0, root)
    b = span("estimators.chunk", 3.0, 8.0, root)
    leaf = span("rng.uniform_pair", 2.0, 3.0, a)
    own = tracer.self_times([leaf, a, b, root])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(a)] == pytest.approx(3.0)
    assert own[id(b)] == pytest.approx(5.0)


def test_tally_fails_a_repetition_that_is_not_bit_identical():
    class Req:
        name, target, target_se = "r", 1.0, 0.0

        def check(self, res):
            return True

    class Res:
        def __init__(self, mean):
            self.mean, self.std_error = mean, 0.1

    tally = harness.Tally()
    tally.record(Req(), Res(1.0))
    tally.record(Req(), Res(1.0))
    assert (tally.attempted, tally.failed) == (2, 0)
    tally.record(Req(), Res(math.nextafter(1.0, 2.0)))
    tally.record(Req(), None, ValueError("boom"))
    assert (tally.attempted, tally.failed) == (4, 2)


def test_workload_checks_do_not_count_as_requests():
    tally = harness.Tally()
    tally.check("exact counts", [])
    assert tally.correct and (tally.attempted, tally.checks) == (0, 1)
    tally.check("exact counts", ["rng.pairs does not repeat"])
    assert not tally.correct
    assert (tally.attempted, tally.failed, tally.checks_failed) == (0, 0, 1)


def test_pooled_check_sees_a_shift_each_request_check_misses():
    requests = wl.build_requests(wl.WORKLOADS["cosine-digital"], seed=7)
    se = 0.07  # about one 32 768-path request's Vega standard error

    def results(shift):
        return [(req, SimpleNamespace(mean=req.target + shift, std_error=se,
                                      n_paths=req.cfg.n_paths))
                for req in requests]

    shifted = results(3 * se)
    assert all(req.check(res) for req, res in shifted)
    assert [m.split(":")[0] for m in wl.pooled_misses(shifted)] == list(wl.QUANTITIES)
    assert wl.pooled_misses(results(0.5 * se)) == []


def test_a_raising_request_still_prints_the_tally(monkeypatch, capsys):
    def boom(cfg):
        raise ValueError("boom")

    build = wl.build_requests
    monkeypatch.setattr(wl, "build_requests", lambda w, seed: small(build(w, seed)))
    monkeypatch.setitem(wl.ESTIMATORS, "vega", boom)
    code = run.main(["--workload", "affine-greeks", "--seed", "1",
                     "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 45, "failed": 15, "metrics": {}}


def test_bs_targets_are_the_closed_forms():
    def ncdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    r = 0.03
    for i, sigma in enumerate(wl.BS_SIGMAS):
        v = sigma * math.sqrt(wl.T)
        d1 = (math.log(wl.S0 / wl.STRIKE) + (r + 0.5 * sigma * sigma) * wl.T) / v
        price = wl.S0 * ncdf(d1) - wl.STRIKE * math.exp(-r * wl.T) * ncdf(d1 - v)
        assert wl.BS_TARGETS["price"][i] == pytest.approx(price, abs=1e-6)
        assert wl.BS_TARGETS["delta"][i] == pytest.approx(ncdf(d1), abs=1e-6)


def test_references_use_seeds_no_run_uses():
    refs = wl.load_references()
    assert set(refs) == {"affine-greeks", "cosine-digital"}
    assert wl.mc_seed(2 ** 64 - 1, wl.SEED_GROUPS - 1) < wl.REFERENCE_SEED
    for ref in refs.values():
        assert set(ref) == set(wl.QUANTITIES)
        assert all(e["seed"] >= wl.REFERENCE_SEED and e["std_error"] > 0
                   for e in ref.values())


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bs-sweep-2t",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
