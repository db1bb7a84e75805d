"""Per-layer metrics of a traced run, derived from its spans.

Values are per traced read (or per traced write for the write path)
unless the name says ratio; ``kvstore.flushes`` / ``compactions`` and
their seconds are totals over the run's loop.  The read-path self times

    engine.self_ms + pruning.ms + topk.self_ms + batch.self_ms
    + executor.self_ms + storage.self_ms + kvstore.scan_ms
    + local_filter.ms + measures.refine_ms + obs.metrics_ms
    + unattributed_ms

sum to ``read_wall_ms``, the mean traced read wall time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tracing
from tracing import LAYER, NAME, OP, PARENT

#: read-path layer -> per-layer self-time metric
READ_SELF_METRICS = {
    "engine": "engine.self_ms",
    "pruning": "pruning.ms",
    "topk": "topk.self_ms",
    "batch": "batch.self_ms",
    "executor": "executor.self_ms",
    "storage": "storage.self_ms",
    "kvstore": "kvstore.scan_ms",
    "local_filter": "local_filter.ms",
    "measures": "measures.refine_ms",
    "obs": "obs.metrics_ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _results(result):
    return result if isinstance(result, list) else [result]


def per_layer_metrics(recorder, main, lsm, run_counts):
    """Returns the per-layer metrics and the traced reads' total count
    of calls into the executor (an exact count for repeatability)."""
    traced = main.traced_ops
    kinds = {op_id: entry[0] for op_id, entry in traced.items()}
    spans = recorder.spans
    selfs = tracing.self_times(spans)

    self_ms = defaultdict(float)  # (kind, layer) -> ms
    name_self_ms = defaultdict(float)  # (kind, layer, name) -> ms
    name_total_ms = defaultdict(float)
    name_calls = defaultdict(int)
    entries = defaultdict(int)  # (kind, layer) -> calls from another layer
    for span, own in zip(spans, selfs):
        kind = kinds[span[OP]]
        layer, name = span[LAYER], span[NAME]
        self_ms[kind, layer] += own * 1e3
        name_self_ms[kind, layer, name] += own * 1e3
        name_total_ms[kind, layer, name] += (span[tracing.END] - span[tracing.START]) * 1e3
        name_calls[kind, layer, name] += 1
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != layer:
            entries[kind, layer] += 1

    reads = [e for e in traced.values() if e[0] == "read"]
    write_ops = [e for e in traced.values() if e[0] == "write"]
    n_r = max(1, len(reads))
    n_w = max(1, len(write_ops))

    io = defaultdict(int)
    for _, delta, _, _, _ in reads:
        for key, value in delta.items():
            io[key] += value
    results = [r for e in reads for r in _results(e[3])]
    stats = [r.filter_stats for r in results if r.filter_stats is not None]
    evaluated = sum(s.evaluated for s in stats)
    passed = sum(s.passed for s in stats)
    plans = [r.pruning for r in results if getattr(r, "pruning", None)]
    answers = sum(len(r.answers) for r in results)
    candidates = sum(r.candidates for r in results)
    read_wall_ms = sum(e[4] for e in reads) * 1e3

    def per_read(value):
        return value / n_r

    def read_calls(layer, *names):
        return per_read(sum(name_calls["read", layer, n] for n in names))

    out = {
        READ_SELF_METRICS[layer]: per_read(self_ms["read", layer])
        for layer in READ_SELF_METRICS
    }
    attributed = sum(self_ms["read", layer] for layer in READ_SELF_METRICS)
    out.update({
        "read_wall_ms": per_read(read_wall_ms),
        "unattributed_ms": per_read(read_wall_ms - attributed),
        "pruning.calls": per_read(entries["read", "pruning"]),
        "pruning.plan_cache_hit_ratio": _ratio(
            io["plan_cache_hits"],
            io["plan_cache_hits"] + io["plan_cache_misses"],
        ),
        "pruning.ranges": per_read(sum(len(p.ranges) for p in plans)),
        "pruning.elements_visited": per_read(
            sum(p.elements_visited for p in plans)
        ),
        "topk.units": per_read(
            sum(getattr(r, "units_scanned", 0) for r in results)
        ),
        "topk.elements_expanded": per_read(
            sum(getattr(r, "elements_expanded", 0) for r in results)
        ),
        "executor.calls": per_read(entries["read", "executor"]),
        "executor.retries": per_read(io["retries"]),
        "obs.metrics_calls": per_read(entries["read", "obs"]),
        "local_filter.evaluated": per_read(evaluated),
        "local_filter.pass_ratio": _ratio(passed, evaluated),
        "local_filter.rejected_mbr": per_read(sum(s.rejected_mbr for s in stats)),
        "local_filter.rejected_start_end": per_read(
            sum(s.rejected_start_end for s in stats)
        ),
        "local_filter.rejected_rep_points": per_read(
            sum(s.rejected_rep_points for s in stats)
        ),
        "local_filter.rejected_boxes": per_read(
            sum(s.rejected_boxes for s in stats)
        ),
        "batch.ranges_merged": per_read(io["batch_ranges_merged"]),
        "batch.rows_shared": per_read(io["batch_rows_shared"]),
        "kvstore.scans": read_calls("kvstore", "scan"),
        "kvstore.rows_scanned": per_read(io["rows_scanned"]),
        "kvstore.range_seeks": per_read(io["range_seeks"]),
        "kvstore.bytes_read": per_read(io["bytes_read"]),
        "kvstore.useful_row_ratio": _ratio(candidates, io["rows_scanned"]),
        "kvstore.block_cache_hit_ratio": _ratio(
            io["block_cache_hits"],
            io["block_cache_hits"] + io["block_cache_misses"],
        ),
        "kvstore.record_cache_hit_ratio": _ratio(
            io["record_cache_hits"],
            io["record_cache_hits"] + io["record_cache_misses"],
        ),
        "kvstore.segment_blocks_materialized": per_read(
            io["segment_blocks_materialized"]
        ),
        "kvstore.sstables_opened": run_counts["sstables_opened"]
        / max(1, len(main.latency["read"]) + len(main.traced_latency["read"])),
        "storage.decode_ms": per_read(
            name_self_ms["read", "storage", "record_decoder"]
            + name_self_ms["read", "storage", "columnar_decoder"]
        ),
        "storage.decodes": read_calls(
            "storage", "record_decoder", "columnar_decoder"
        ),
        "measures.refines": read_calls("measures", "distance_within"),
        "measures.answer_ratio": _ratio(
            answers, name_calls["read", "measures", "distance_within"]
        ),
        "storage.put_self_ms": name_self_ms["write", "storage", "put"] / n_w,
        "kvstore.put_ms": name_total_ms["write", "kvstore", "put"] / n_w,
        "kvstore.flushes": lsm["flushes"],
        "kvstore.flush_s": lsm["flush_s"],
        "kvstore.compactions": lsm["compactions"],
        "kvstore.compaction_s": lsm["compaction_s"],
        "kvstore.write_amp": _ratio(
            lsm["flush_bytes"] + lsm["compaction_bytes"],
            run_counts["bytes_put"],
        ),
        "trace.overhead_frac": _ratio(
            statistics.median(main.traced_latency["read"]),
            statistics.median(main.latency["read"]),
        )
        - 1.0
        if main.traced_latency["read"] and main.latency["read"]
        else 0.0,
    })
    return out, entries["read", "executor"]
