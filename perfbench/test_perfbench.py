"""The benchmark's own checks: exact repeatability, span accounting and
coverage guards.  Run from the checkout root with
``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import os

import pytest

import layers
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json")) as _fh:
    SEEDS = json.load(_fh)["seeds"]

#: fixed operation counts: small, but each one reaches the layer its
#: workload exists to load (ingest crosses one memtable flush)
OPS = {
    "tdrive_threshold": 24,
    "tdrive_topk": 4,
    "lorry_batch32": 2,
    "tdrive_ingest": 6000,
}


def _run(tmp_path, name, seed, trace=True, ops=None):
    workdir = tmp_path / f"{name}-{seed}-{len(os.listdir(tmp_path))}"
    workdir.mkdir()
    return workloads.run_workload(
        name, seed, 0.0, trace, str(workdir), max_ops=ops
    )


@pytest.mark.parametrize("name", sorted(OPS))
def test_same_seed_repeats_exact_counts(tmp_path, name):
    first = _run(tmp_path, name, SEEDS["default"], ops=OPS[name])
    second = _run(tmp_path, name, SEEDS["default"], ops=OPS[name])
    assert first["failed"] == 0, first["notes"]["errors"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["executor_calls"] > 0


@pytest.mark.parametrize("name", sorted(OPS))
def test_layer_self_times_sum_to_read_wall(tmp_path, name):
    report = _run(tmp_path, name, SEEDS["default"], ops=OPS[name])
    metrics = report["per_layer"]
    attributed = sum(
        metrics[metric] for metric in layers.READ_SELF_METRICS.values()
    )
    assert math.isclose(
        attributed + metrics["unattributed_ms"],
        metrics["read_wall_ms"],
        rel_tol=1e-9,
    )
    assert 0.0 <= metrics["unattributed_ms"] < 0.05 * metrics["read_wall_ms"]
    assert "trace.overhead_frac" in metrics


@pytest.mark.parametrize("seed", sorted(set(SEEDS.values())))
@pytest.mark.parametrize(
    "name", ["tdrive_threshold", "tdrive_topk", "lorry_batch32"]
)
def test_read_coverage_guards(tmp_path, name, seed):
    report = _run(tmp_path, name, seed, trace=False, ops=OPS[name] * 2)
    workloads.WORKLOADS[name].guard(report["notes"]["guards"])


@pytest.mark.parametrize("seed", sorted(set(SEEDS.values())))
def test_ingest_stream_crosses_a_compaction(tmp_path, seed):
    # The full stream; the run raises GuardError without a compaction.
    report = _run(tmp_path, "tdrive_ingest", seed, trace=False)
    assert report["notes"]["guards"]["compactions"] >= 1
    assert report["failed"] == 0, report["notes"]["errors"]


def test_guard_failure_is_loud():
    with pytest.raises(workloads.GuardError):
        workloads.TDriveThreshold.guard(
            {"sstables_opened": 0, "plan_cache_hit_ratio": 0.0}
        )
    with pytest.raises(workloads.GuardError):
        workloads.LorryBatch32.guard(
            {"segment_blocks_materialized": 3, "plan_cache_hit_ratio": 0.5}
        )
    with pytest.raises(workloads.GuardError):
        workloads.LorryBatch32.guard(
            {"segment_blocks_materialized": 0, "plan_cache_hit_ratio": 1.0}
        )


def test_op_count_follows_seconds_not_cpu_speed():
    # A run's work is fixed by --seconds (and the seed), so a slow
    # stretch of the machine cannot cut a run short of a heavy query.
    topk = workloads.TDriveTopK
    assert topk.ops_for(16) == 2 * topk.ops_for(8) == 72
    ingest = workloads.TDriveIngest
    assert ingest.ops_for(1) == ingest.ops_for(60) == ingest.fixed_ops


def test_stratified_sample_spans_every_extent():
    from repro.data.generators import tdrive_like

    data = tdrive_like(120, seed=3)
    first = workloads.sample_stratified(data, 12, seed=1)
    assert first == workloads.sample_stratified(data, 12, seed=1)
    assert first != workloads.sample_stratified(data, 12, seed=2)

    def extent(t):
        return max(t.mbr.max_x - t.mbr.min_x, t.mbr.max_y - t.mbr.min_y)

    ordered = sorted(
        (t for t in data if len(t) >= 2), key=lambda t: (extent(t), t.tid)
    )
    ranks = sorted(ordered.index(t) for t in first)
    step = len(ordered) / 12
    assert all(
        j * step - 1 < rank < (j + 1) * step for j, rank in enumerate(ranks)
    )

    order = workloads.golden_order(list(range(150)))
    assert sorted(order) == list(range(150))
    # every 30 consecutive reads of the ingest stream span all extents
    assert all(
        min(order[w:w + 30]) < 10 and max(order[w:w + 30]) > 140
        for w in range(0, 150, 30)
    )


def test_speed_factor_uses_the_nearest_probes_either_side():
    meter = speed.Speedometer()
    meter.side = 2
    # Probes at t = 0..9 s: the host runs at the reference speed until
    # t = 5 s and at half of it after.
    meter.times = [float(t) for t in range(10)]
    meter.durations = [
        speed.REFERENCE_PROBE_S * (1 if t < 5 else 2) for t in range(10)
    ]
    assert meter.scale(1.5, 0.1) == pytest.approx(0.1)
    assert meter.scale(7.5, 0.1) == pytest.approx(0.05)
    # Probes at 3, 4, 5, 6 around a span from 4.5 to 4.7: median 1.5x.
    assert meter.factor(4.5, 4.7) == pytest.approx(1 / 1.5)
    # A span with probes inside counts them too: 2, 3 | 4, 5, 6 | 7, 8.
    assert meter.factor(3.5, 6.5) == pytest.approx(1 / 2)
    # Past the last probe only the ones before it count.
    assert meter.factor(20.0, 20.0) == pytest.approx(0.5)


def test_speed_probe_allocates_nothing_the_collector_tracks():
    import gc

    speed.probe()
    before = gc.get_count()[0]
    speed.probe()
    assert gc.get_count()[0] <= before
