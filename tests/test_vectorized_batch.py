"""Vectorised local filtering and multi-query batch execution.

The contracts under test:

* the numpy batch filter makes the same accept/reject decisions — and
  produces the same per-lemma :class:`LocalFilterStats` — as the
  per-record filter, pinned by a hypothesis property over random
  trajectories, thresholds and measures (both paths decide Lemma 14
  with the same packed kernel; ``test_lemma14_kernel.py`` pins that
  kernel to the scalar ``DPFeatures.exceeds_box_bound``);
* the columnar decoder reads the same blob into bit-identical geometry;
* a batch of threshold queries answers bit-identically to sequential
  execution while scanning strictly fewer rows (the scan-sharing
  tentpole), in every mode: scalar, vectorised, parallel workers, and
  under masked fault injection;
* ``range_merge_gap`` coalesces near-adjacent ranges without changing
  answers.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig, Trajectory
from repro.core.codec import decode_row, encode_row
from repro.core.columnar import CandidateBatch, decode_row_columnar
from repro.core.local_filter import LocalFilter, LocalFilterStats
from repro.core.storage import TrajectoryRecord
from repro.exceptions import KVStoreError, QueryError
from repro.features.dp_features import extract_dp_features
from repro.measures import get_measure

from .conftest import BEIJING, make_walk

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
unit_points = st.lists(
    st.tuples(coords, coords), min_size=1, max_size=20
)
eps_values = st.floats(
    min_value=0.0, max_value=1.5, allow_nan=False, width=64
)


def _record_pair(tid, points, theta=0.05):
    """The same stored row decoded both ways."""
    blob = encode_row(tid, points, extract_dp_features(points, theta))
    dec_tid, dec_points, features = decode_row(blob)
    scalar = TrajectoryRecord(dec_tid, tuple(dec_points), features, -1)
    return scalar, decode_row_columnar(blob)


# ----------------------------------------------------------------------
# Columnar decode parity
# ----------------------------------------------------------------------
class TestColumnarDecode:
    def test_matches_scalar_decode(self):
        rng = random.Random(5)
        points = [(rng.random(), rng.random()) for _ in range(50)]
        scalar, columnar = _record_pair("abc", points)
        assert columnar.tid == "abc"
        assert columnar.points.shape == (50, 2)
        assert [tuple(p) for p in columnar.points] == list(scalar.points)
        feats = scalar.features
        assert tuple(columnar.rep_indexes) == feats.rep_indexes
        assert [tuple(p) for p in columnar.rep_points] == list(feats.rep_points)
        assert len(columnar.box_params) == len(feats.boxes)
        for row, box, env in zip(
            columnar.box_params, feats.boxes, columnar.box_envelopes
        ):
            assert (row[0], row[1]) == (box.anchor.x, box.anchor.y)
            assert (row[2], row[3]) == box.axis
            assert row[4] == box.length
            assert (row[5], row[6], row[7]) == (
                box.lo_along,
                box.lo_perp,
                box.hi_perp,
            )
            mbr = box.mbr()
            assert tuple(env) == (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)
        m = feats.mbr
        assert tuple(columnar.mbr_arr) == (m.min_x, m.min_y, m.max_x, m.max_y)

    def test_lazy_scalar_views_bit_identical(self):
        rng = random.Random(6)
        points = [(rng.random(), rng.random()) for _ in range(30)]
        scalar, columnar = _record_pair("t", points)
        feats = columnar.features
        ref = scalar.features
        assert feats.rep_indexes == ref.rep_indexes
        assert feats.rep_points == ref.rep_points
        assert feats.mbr == ref.mbr
        for a, b in zip(feats.boxes, ref.boxes):
            assert (a.anchor, a.axis, a.length) == (b.anchor, b.axis, b.length)
            assert (a.lo_along, a.lo_perp, a.hi_perp) == (
                b.lo_along,
                b.lo_perp,
                b.hi_perp,
            )
        assert feats.envelopes == ref.envelopes
        record = columnar.as_record()
        assert record.tid == "t"
        assert record.features is feats
        # the record's points stay the columnar array (no re-decode)
        assert record.points is columnar.points
        assert columnar.as_record() is record

    def test_corrupt_rows_raise(self):
        points = [(0.1, 0.2), (0.3, 0.4)]
        blob = encode_row("x", points, extract_dp_features(points, 0.05))
        with pytest.raises(KVStoreError):
            decode_row_columnar(blob + b"\x00")
        with pytest.raises(KVStoreError):
            decode_row_columnar(blob[:-1])
        with pytest.raises(KVStoreError):
            decode_row_columnar(b"\x00\x00")

    def test_empty_batch(self):
        batch = CandidateBatch([])
        assert batch.size == 0
        assert batch.mbrs.shape == (0, 4)
        assert batch.rep_points.shape == (0, 2)


# ----------------------------------------------------------------------
# Vectorised filter == scalar filter (property)
# ----------------------------------------------------------------------
@given(
    query_points=unit_points,
    candidate_sets=st.lists(unit_points, min_size=1, max_size=6),
    eps=eps_values,
    measure_name=st.sampled_from(["frechet", "hausdorff", "dtw"]),
)
@settings(max_examples=120, deadline=None)
def test_vectorized_filter_matches_scalar(
    query_points, candidate_sets, eps, measure_name
):
    """Decisions AND per-lemma stats agree on arbitrary inputs."""
    query = Trajectory("q", query_points)
    measure = get_measure(measure_name)
    pairs = [
        _record_pair(f"c{i}", pts) for i, pts in enumerate(candidate_sets)
    ]

    scalar_filter = LocalFilter(query, measure, eps, 0.05)
    scalar_decisions = [scalar_filter.passes(rec) for rec, _ in pairs]

    batch_filter = LocalFilter(query, measure, eps, 0.05)
    mask = batch_filter.passes_batch(CandidateBatch([c for _, c in pairs]))

    assert list(mask) == scalar_decisions
    assert batch_filter.stats == scalar_filter.stats


@given(
    query_points=unit_points,
    candidate_sets=st.lists(unit_points, min_size=1, max_size=4),
    eps=eps_values,
)
@settings(max_examples=60, deadline=None)
def test_vectorized_filter_infinite_threshold(query_points, candidate_sets, eps):
    """eps = inf passes everything in both modes (the top-k start state)."""
    query = Trajectory("q", query_points)
    measure = get_measure("frechet")
    pairs = [_record_pair(f"c{i}", p) for i, p in enumerate(candidate_sets)]
    batch_filter = LocalFilter(query, measure, math.inf, 0.05)
    mask = batch_filter.passes_batch(CandidateBatch([c for _, c in pairs]))
    assert mask.all()
    assert batch_filter.stats.passed == len(pairs)


def test_batch_filter_stats_accumulate_across_chunks():
    rng = random.Random(9)
    query = Trajectory("q", [(rng.random(), rng.random()) for _ in range(10)])
    measure = get_measure("frechet")
    filt = LocalFilter(query, measure, 0.2, 0.05)
    chunks = [
        [
            _record_pair(f"c{i}-{j}", [(rng.random(), rng.random()) for _ in range(8)])[1]
            for j in range(4)
        ]
        for i in range(3)
    ]
    for chunk in chunks:
        filt.passes_batch(CandidateBatch(chunk))
    assert filt.stats.evaluated == 12
    total = (
        filt.stats.passed
        + filt.stats.rejected_mbr
        + filt.stats.rejected_start_end
        + filt.stats.rejected_rep_points
        + filt.stats.rejected_boxes
    )
    assert total == 12


# ----------------------------------------------------------------------
# End-to-end equivalence on an engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch_engine():
    rng = random.Random(21)
    # Clustered walks so the 32-query workload genuinely overlaps.
    trajectories = [make_walk(f"t{i}", rng) for i in range(200)]
    config = TraSSConfig(
        bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
    )
    return TraSS.build(trajectories, config)


@pytest.fixture(scope="module")
def batch_queries():
    rng = random.Random(77)
    return [make_walk(f"q{i}", rng, n_range=(8, 20)) for i in range(32)]


@pytest.fixture(scope="module")
def sequential_results(batch_engine, batch_queries):
    return [batch_engine.threshold_search(q, 0.02) for q in batch_queries]


def _assert_same(seq_results, got_results, check_stats=True):
    assert len(got_results) == len(seq_results)
    for a, b in zip(seq_results, got_results):
        assert b.answers == a.answers
        assert b.candidates == a.candidates
        if check_stats:
            assert b.filter_stats == a.filter_stats


class TestVectorizedSearch:
    def test_threshold_equivalence(self, batch_engine, batch_queries,
                                   sequential_results):
        batch_engine.configure_execution(vectorized_filter=True)
        try:
            got = [batch_engine.threshold_search(q, 0.02) for q in batch_queries]
        finally:
            batch_engine.configure_execution(vectorized_filter=False)
        _assert_same(sequential_results, got)

    def test_topk_equivalence(self, batch_engine, batch_queries):
        expected = [batch_engine.topk_search(q, 5) for q in batch_queries[:6]]
        batch_engine.configure_execution(vectorized_filter=True)
        try:
            got = [batch_engine.topk_search(q, 5) for q in batch_queries[:6]]
        finally:
            batch_engine.configure_execution(vectorized_filter=False)
        for a, b in zip(expected, got):
            assert b.answers == a.answers
            assert b.candidates == a.candidates
            assert b.filter_stats == a.filter_stats

    def test_columnar_cache_reused_when_warm(self, batch_engine, batch_queries):
        batch_engine.configure_execution(vectorized_filter=True)
        try:
            batch_engine.threshold_search(batch_queries[0], 0.02)
            before = batch_engine.metrics.snapshot()
            batch_engine.threshold_search(batch_queries[0], 0.02)
            delta = batch_engine.metrics.diff(before)
            assert delta["columnar_cache_misses"] == 0
        finally:
            batch_engine.configure_execution(vectorized_filter=False)


class TestBatchExecution:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_bit_identical_and_fewer_rows(
        self, batch_engine, batch_queries, sequential_results, vectorized
    ):
        batch_engine.configure_execution(vectorized_filter=vectorized)
        try:
            metrics = batch_engine.metrics
            metrics.reset()
            for q in batch_queries:
                batch_engine.threshold_search(q, 0.02)
            sequential_rows = metrics.rows_scanned
            metrics.reset()
            results = batch_engine.threshold_search_many(batch_queries, 0.02)
            batch_rows = metrics.rows_scanned
        finally:
            batch_engine.configure_execution(vectorized_filter=False)
        _assert_same(sequential_results, results)
        assert metrics.batch_rows_shared > 0
        assert metrics.batch_ranges_merged > 0
        assert batch_rows < sequential_rows
        # per-query accounting still reflects the query's own plan
        for a, b in zip(sequential_results, results):
            assert b.retrieved_rows == a.retrieved_rows

    def test_parallel_workers(self, batch_engine, batch_queries,
                              sequential_results):
        batch_engine.configure_execution(scan_workers=3, vectorized_filter=True)
        try:
            results = batch_engine.threshold_search_many(batch_queries, 0.02)
        finally:
            batch_engine.configure_execution(
                scan_workers=1, vectorized_filter=False
            )
        _assert_same(sequential_results, results)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_under_masked_faults(self, batch_engine, batch_queries,
                                 sequential_results, vectorized):
        from repro.kvstore.faults import FaultInjector, FaultSchedule

        injector = FaultInjector(
            FaultSchedule(seed=11, region_unavailable_prob=0.3)
        )
        batch_engine.configure_execution(vectorized_filter=vectorized)
        batch_engine.install_fault_injector(injector)
        try:
            results = batch_engine.threshold_search_many(batch_queries, 0.02)
        finally:
            batch_engine.install_fault_injector(None)
            batch_engine.configure_execution(vectorized_filter=False)
        assert all(r.completeness == 1.0 for r in results)
        assert results[0].resilience.faults_encountered > 0
        _assert_same(sequential_results, results)

    def test_per_query_eps_list(self, batch_engine, batch_queries):
        eps_list = [0.01 + 0.001 * i for i in range(len(batch_queries))]
        expected = [
            batch_engine.threshold_search(q, e)
            for q, e in zip(batch_queries, eps_list)
        ]
        results = batch_engine.threshold_search_many(batch_queries, eps_list)
        _assert_same(expected, results)

    def test_other_measures(self, batch_engine, batch_queries):
        for name in ("hausdorff", "dtw"):
            expected = [
                batch_engine.threshold_search(q, 0.02, measure=name)
                for q in batch_queries[:8]
            ]
            results = batch_engine.threshold_search_many(
                batch_queries[:8], 0.02, measure=name
            )
            _assert_same(expected, results)

    def test_non_prunable_measure_falls_back(self, batch_engine, batch_queries):
        expected = [
            batch_engine.threshold_search(q, 3.0, measure="edr")
            for q in batch_queries[:3]
        ]
        results = batch_engine.threshold_search_many(
            batch_queries[:3], 3.0, measure="edr"
        )
        for a, b in zip(expected, results):
            assert b.answers == a.answers

    def test_topk_many_matches_single(self, batch_engine, batch_queries):
        expected = [batch_engine.topk_search(q, 4) for q in batch_queries[:4]]
        results = batch_engine.topk_search_many(batch_queries[:4], 4)
        for a, b in zip(expected, results):
            assert b.answers == a.answers

    def test_validation(self, batch_engine, batch_queries):
        assert batch_engine.threshold_search_many([], 0.02) == []
        with pytest.raises(QueryError):
            batch_engine.threshold_search_many(batch_queries[:2], [0.01])
        with pytest.raises(QueryError):
            batch_engine.threshold_search_many(batch_queries[:1], -1.0)


# ----------------------------------------------------------------------
# Range-gap coalescing (planner satellite)
# ----------------------------------------------------------------------
class TestRangeMergeGap:
    def test_answers_unchanged_and_seeks_drop(self, small_dataset):
        config = TraSSConfig(
            bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
        )
        rng = random.Random(13)
        queries = [make_walk(f"g{i}", rng) for i in range(12)]
        base = TraSS.build(small_dataset, config)
        expected = [base.threshold_search(q, 0.02) for q in queries]
        base_seeks = base.metrics.range_seeks

        gapped = TraSS.build(
            small_dataset, dataclasses.replace(config, range_merge_gap=4)
        )
        got = [gapped.threshold_search(q, 0.02) for q in queries]
        for a, b in zip(expected, got):
            assert b.answers == a.answers
        assert gapped.metrics.ranges_merged > 0
        assert gapped.metrics.range_seeks < base_seeks

    def test_negative_gap_rejected(self):
        with pytest.raises(QueryError):
            TraSSConfig(range_merge_gap=-1)


# ----------------------------------------------------------------------
# Persistence of the new knobs
# ----------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path, small_dataset):
    config = TraSSConfig(
        bounds=BEIJING,
        max_resolution=12,
        dp_tolerance=0.002,
        shards=4,
        vectorized_filter=True,
        range_merge_gap=3,
    )
    engine = TraSS.build(small_dataset[:60], config)
    query = small_dataset[0]
    expected = engine.threshold_search(query, 0.02)
    engine.save(str(tmp_path / "store"))
    loaded = TraSS.load(str(tmp_path / "store"))
    assert loaded.config.vectorized_filter is True
    assert loaded.config.range_merge_gap == 3
    assert loaded.pruner.range_merge_gap == 3
    got = loaded.threshold_search(query, 0.02)
    assert got.answers == expected.answers
