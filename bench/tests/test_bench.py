"""The benchmark's own tests, at toy sizes.

Every declared metric is emitted with its unit, every correctness check
holds on real outputs for more than one seed, and each check fails on a
deliberately broken input.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import calibration
import workloads
from taxrec import recommender
from taxrec.catalog import CategorizedPool
from taxrec.core import CategorizedItem, FeaturePair, RankedList
from workloads import CheckFailed, Context

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY = {
    "onetime": lambda ctx: workloads.onetime(ctx, n_items=60, warmup_items=10),
    "serve": lambda ctx: workloads.serve(ctx, n_items=150, min_requests=12, warmup=2),
    "evaluate": lambda ctx: workloads.evaluate(ctx, n=12),
}


def toy_context(tmp_path: Path, seed: int, trace: bool) -> Context:
    return Context(seed=seed, seconds=0.05, trace=trace, workdir=tmp_path / "work")


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload, seed):
    outcome = TOY[workload](toy_context(tmp_path, seed, trace=False))
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in outcome.metrics.values())
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert outcome.named["failed_share"][0] == 0.0


@pytest.mark.parametrize("workload", sorted(TOY))
def test_traced_run_emits_every_per_layer_metric(tmp_path, workload):
    outcome = TOY[workload](toy_context(tmp_path, 3, trace=True))
    assert outcome.absent == []
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == declared("per_layer")
    assert outcome.tracer is not None and outcome.tracer.spans


def test_layer_metrics_locate_the_work(tmp_path):
    onetime = TOY["onetime"](toy_context(tmp_path, 1, trace=True)).metrics
    assert onetime["catalog.warm_rerun_calls"][0] == 0
    assert onetime["gateway.complete.calls"][0] == 60
    assert onetime["gateway.load_template.calls_per_item"][0] >= 1.0
    assert onetime["catalog.dispatch_ratio"][0] > 0
    serve = TOY["serve"](toy_context(tmp_path, 1, trace=True)).metrics
    assert serve["recommender.build_pool_index.calls_per_request"][0] == 1.0
    assert 0 < serve["recommender.nonzero_score_share"][0] <= 1
    assert serve["matchers.score_titles_against_text.busy_s"][0] == 0


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(recommender, "build_pool_index")
    outcome = workloads.onetime(toy_context(tmp_path, 2, trace=True), n_items=30, warmup_items=5)
    assert "recommender.build_pool_index.p50_ms" in outcome.absent
    assert "recommender.build_pool_index.calls_per_request" in outcome.absent
    assert "recommender.build_pool_index.busy_s" not in outcome.metrics
    assert "gateway.complete.p50_ms" in outcome.metrics


# -- each check fails on a broken input ---------------------------------


def test_reversed_tie_break_fails_the_ranking_oracle(tmp_path, monkeypatch):
    def reversed_ties(scores, k):
        ordered = sorted(scores, key=lambda entry: (-entry[1], [-ord(c) for c in entry[0]]))
        return RankedList(entries=tuple(ordered[:k]), k=k)

    monkeypatch.setattr(recommender, "rank_scores", reversed_ties)
    with pytest.raises(CheckFailed) as failure:
        TOY["serve"](toy_context(tmp_path, 0, trace=False))
    assert failure.value.check == "serve.ranking_oracle"


def test_repeated_request_fails_distinctness():
    served = workloads.Served(("a", "b"), frozenset(), ())
    with pytest.raises(CheckFailed) as failure:
        workloads.check_distinct([served, served], 2)
    assert failure.value.check == "serve.distinct_requests"


def test_changed_report_byte_fails_report_check():
    first = b'{"reports": [1, 2, 3]}\n'
    workloads.check_report_bytes(first, first, "same")
    changed = first.replace(b"2", b"4")
    with pytest.raises(CheckFailed) as failure:
        workloads.check_report_bytes(first, changed, "changed")
    assert failure.value.check == "evaluate.report_bytes"


def test_failed_invocation_fails_exit_code_check():
    with pytest.raises(CheckFailed) as failure:
        workloads.check_exit_code(1, "eval-0")
    assert failure.value.check == "evaluate.exit_code"


@pytest.fixture
def categorized(tmp_path):
    from taxrec.catalog import categorize_pool
    from taxrec.gateway import MockProvider
    from taxrec.synthetic import make_synthetic_dataset
    from taxrec.taxonomy import generate_taxonomy

    pool, _ = make_synthetic_dataset(n_items=30, seed=4)
    provider = MockProvider(4)
    taxonomy = generate_taxonomy(provider, "book", None).taxonomy
    return categorize_pool(provider, pool, taxonomy, tmp_path / "cache"), taxonomy


def test_partial_pool_fails_coverage(categorized):
    cpool, _ = categorized
    workloads.check_coverage(cpool)
    entries = dict(cpool.entries)
    entries.pop(next(iter(entries)))
    with pytest.raises(CheckFailed) as failure:
        workloads.check_coverage(replace(cpool, entries=entries, coverage=len(entries) / 30))
    assert failure.value.check == "onetime.coverage"


def test_foreign_pair_key_fails_pair_key_check(categorized):
    cpool, taxonomy = categorized
    workloads.check_pair_keys(cpool, taxonomy)
    item_id, entry = next(iter(cpool.entries.items()))
    broken = dict(cpool.entries)
    broken[item_id] = CategorizedItem(entry.item, entry.pairs | {FeaturePair("colour", "red")})
    with pytest.raises(CheckFailed) as failure:
        workloads.check_pair_keys(replace(cpool, entries=broken), taxonomy)
    assert failure.value.check == "onetime.pair_keys"


def test_changed_warm_entry_fails_warm_entries_check(categorized):
    cpool, _ = categorized
    workloads.check_warm_entries(cpool, cpool)
    item_id, entry = next(iter(cpool.entries.items()))
    broken = dict(cpool.entries)
    broken[item_id] = CategorizedItem(entry.item, frozenset(list(entry.pairs)[1:]))
    warm: CategorizedPool = replace(cpool, entries=broken)
    with pytest.raises(CheckFailed) as failure:
        workloads.check_warm_entries(cpool, warm)
    assert failure.value.check == "onetime.warm_entries"


def test_warm_provider_call_fails_warm_calls_check():
    workloads.check_warm_calls(0)
    with pytest.raises(CheckFailed) as failure:
        workloads.check_warm_calls(1)
    assert failure.value.check == "onetime.warm_calls"


# -- the command ----------------------------------------------------------


def test_percentiles():
    values = [float(v) for v in range(1, 201)]
    assert workloads.percentile(values, 0.5) == 100.0
    assert workloads.percentile(values, 0.95) == 190.0
    assert workloads.percentile(values[:100], 0.90) == 90.0
    assert workloads.percentile(values[:5], 1.0) == 5.0


def test_windowed_tail_is_the_median_of_window_tails():
    # Three windows of 4; the middle one holds a burst that only moves its own tail.
    values = [1.0, 2.0, 3.0, 4.0, 50.0, 60.0, 70.0, 80.0, 5.0, 6.0, 7.0, 8.0]
    assert workloads.windowed_tail(values, (1.0, 4)) == 8.0
    # A remainder joins the last window; fewer values than a window make one.
    assert workloads.windowed_tail(values + [9.0], (1.0, 4)) == 9.0
    assert workloads.windowed_tail(values[:3], (1.0, 4)) == 3.0


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the command exits non-zero."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_calibration_scales_by_bracket_or_by_the_median_long_mark(tmp_path):
    runner = workloads.Runner(toy_context(tmp_path, 0, trace=False))
    runner.calibrator.marks = [0.002, 0.004, 0.003, 0.006]
    runner.calibrator.long_marks = [0.004, 0.006, 0.001]
    single = workloads.Op("req-0", 0.05, False, None, mark=0, single_thread=True)
    threaded = workloads.Op("cold-0", 0.05, False, None, mark=1, single_thread=False)
    assert runner.scaled(single) == pytest.approx(0.05 * calibration.REFERENCE_PROBE_S / 0.003)
    assert runner.scaled(threaded) == pytest.approx(
        0.05 * (calibration.REFERENCE_PROBE_S / 0.004) ** calibration.TWO_THREAD_ELASTICITY
    )
