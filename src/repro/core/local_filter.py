"""Local filtering (Section V-D, Algorithm 2).

Runs per retrieved trajectory, inside the scan ("pushed down into the
coprocessor", Figure 8), ordered cheap-to-expensive exactly as the
paper prescribes ("we execute Lemmas from simple to complex"):

1. MBR gap — if the two MBRs are more than ``eps`` apart no point of
   ``T`` can be within ``eps`` of any point of ``Q`` (Lemma 5);
2. start/end points (Lemma 12) — Fréchet and DTW must match first with
   first and last with last; *skipped for Hausdorff*;
3. representative points against the other side's box union, both
   directions (Lemma 13);
4. box edges against the other side's box union, both directions
   (Lemma 14).

The threshold is mutable so the top-k search can tighten it as results
accumulate (Algorithm 4 line 17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.codec import decode_row
from repro.core.columnar import CandidateBatch, ColumnarRecord, decode_row_columnar
from repro.core.storage import TrajectoryRecord
from repro.core.validate import check_threshold
from repro.exceptions import QueryError
from repro.features.dp_features import (
    DPFeatures,
    boxes_exceed,
    boxes_exceed_many,
    extract_dp_features,
    pack_rects,
    points_within_box_union,
)
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.kvstore.filters import RowFilter
from repro.measures.base import Measure
from repro.obs.tracing import NULL_TRACER


@dataclass
class LocalFilterStats:
    """Per-query tallies of which lemma removed how much."""

    evaluated: int = 0
    rejected_mbr: int = 0
    rejected_start_end: int = 0
    rejected_rep_points: int = 0
    rejected_boxes: int = 0
    passed: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_mbr
            + self.rejected_start_end
            + self.rejected_rep_points
            + self.rejected_boxes
        )

    def merge_from(self, other: "LocalFilterStats") -> None:
        """Fold a parallel worker's tallies into this bundle."""
        self.evaluated += other.evaluated
        self.rejected_mbr += other.rejected_mbr
        self.rejected_start_end += other.rejected_start_end
        self.rejected_rep_points += other.rejected_rep_points
        self.rejected_boxes += other.rejected_boxes
        self.passed += other.passed

    def as_dict(self) -> Dict[str, int]:
        return {
            "evaluated": self.evaluated,
            "rejected_mbr": self.rejected_mbr,
            "rejected_start_end": self.rejected_start_end,
            "rejected_rep_points": self.rejected_rep_points,
            "rejected_boxes": self.rejected_boxes,
            "rejected": self.rejected,
            "passed": self.passed,
        }


class LocalFilter:
    """The Algorithm 2 predicate for one query."""

    #: every filtering stage, in execution order
    ALL_STAGES = frozenset({"mbr", "start_end", "rep_points", "boxes"})
    #: Lemma 14 cost cap: beyond this many edge/box pairs the stage is
    #: skipped in favour of the exact (early-abandoning) measure
    MAX_BOX_PAIRS = 2500

    def __init__(
        self,
        query: Trajectory,
        measure: Measure,
        eps: float,
        dp_tolerance: float,
        stages: Optional[frozenset] = None,
        box_mode: str = "chord",
    ):
        check_threshold(eps)
        if stages is not None and not set(stages) <= self.ALL_STAGES:
            raise QueryError(
                f"unknown filter stages {set(stages) - self.ALL_STAGES}"
            )
        self.query = query
        self.measure = measure
        self.eps = eps
        self.features = extract_dp_features(
            query.points, dp_tolerance, box_mode=box_mode
        )
        self.stats = LocalFilterStats()
        #: ablation switch: which lemma stages run (default: all)
        self.stages = self.ALL_STAGES if stages is None else frozenset(stages)
        #: span-event sink; shared by :meth:`spawn` clones so worker
        #: events land on the worker's active scan span
        self.tracer = NULL_TRACER
        #: packed query-side arrays for :meth:`passes_batch`, built on
        #: first use and shared by :meth:`spawn` clones (immutable)
        self._query_arrays: Optional[tuple] = None

    # ------------------------------------------------------------------
    def set_threshold(self, eps: float) -> None:
        """Tighten (or set) the working threshold; used by top-k."""
        self.eps = eps

    def spawn(self) -> "LocalFilter":
        """A clone for one parallel scan worker: shares the (immutable)
        query features, counts into a private stats bundle."""
        import copy

        clone = copy.copy(self)
        clone.stats = LocalFilterStats()
        return clone

    def absorb(self, worker: "LocalFilter") -> None:
        self.stats.merge_from(worker.stats)

    # ------------------------------------------------------------------
    def passes(self, record: TrajectoryRecord) -> bool:
        """True when the record survives every lemma at the current
        threshold and must go on to exact refinement."""
        self.stats.evaluated += 1
        tracer = self.tracer if self.tracer.enabled else None
        eps = self.eps
        if eps == math.inf:
            self.stats.passed += 1
            if tracer is not None:
                tracer.add_event("filter.pass", tid=record.tid)
            return True
        query = self.query
        features = record.features

        # Step 0 — MBR gap (Lemma 5 applied to the bounding boxes).
        if "mbr" in self.stages and query.mbr.distance_to_rect(features.mbr) > eps:
            self.stats.rejected_mbr += 1
            if tracer is not None:
                tracer.add_event("filter.reject", lemma="mbr", tid=record.tid)
            return False

        # Step 1 — Lemma 12, start and end points (order-aware measures).
        if "start_end" in self.stages and self.measure.supports_start_end_filter:
            q_start, q_end = query.points[0], query.points[-1]
            t_start, t_end = record.points[0], record.points[-1]
            if (
                math.hypot(q_start[0] - t_start[0], q_start[1] - t_start[1]) > eps
                or math.hypot(q_end[0] - t_end[0], q_end[1] - t_end[1]) > eps
            ):
                self.stats.rejected_start_end += 1
                if tracer is not None:
                    tracer.add_event(
                        "filter.reject", lemma="start_end", tid=record.tid
                    )
                return False

        # Step 2 — Lemma 13 in both directions: a representative point
        # is a raw point, so its distance to the other side's box union
        # lower-bounds the similarity distance.
        q_features = self.features
        if "rep_points" in self.stages:
            for px, py in features.rep_points:
                if q_features.point_exceeds_boxes(px, py, eps):
                    self.stats.rejected_rep_points += 1
                    if tracer is not None:
                        tracer.add_event(
                            "filter.reject", lemma="rep_points", tid=record.tid
                        )
                    return False
            for px, py in q_features.rep_points:
                if features.point_exceeds_boxes(px, py, eps):
                    self.stats.rejected_rep_points += 1
                    if tracer is not None:
                        tracer.add_event(
                            "filter.reject", lemma="rep_points", tid=record.tid
                        )
                    return False

        # Step 3 — Lemma 14 in both directions: every box edge carries a
        # raw point of its side.  The stage is quadratic in box counts,
        # so it is skipped for feature pairs where its cost would rival
        # the exact measure it exists to avoid (sound: skipping a filter
        # only admits more candidates).
        if (
            "boxes" in self.stages
            and len(features.boxes) * len(q_features.boxes)
            <= self.MAX_BOX_PAIRS
        ):
            if boxes_exceed(features, q_features, eps):
                self.stats.rejected_boxes += 1
                if tracer is not None:
                    tracer.add_event(
                        "filter.reject", lemma="boxes", tid=record.tid
                    )
                return False

        self.stats.passed += 1
        if tracer is not None:
            tracer.add_event("filter.pass", tid=record.tid)
        return True

    # ------------------------------------------------------------------
    # Vectorised path
    # ------------------------------------------------------------------
    def _query_side(self) -> tuple:
        """Packed query geometry: (start, end, mbr row, rep points,
        box params, box envelopes)."""
        qa = self._query_arrays
        if qa is None:
            q = self.query
            f = self.features
            qa = (
                np.asarray(q.points[0], dtype=np.float64),
                np.asarray(q.points[-1], dtype=np.float64),
                q.mbr,
                np.array(f.rep_points, dtype=np.float64).reshape(-1, 2),
                f.packed.params,
                pack_rects(f.envelopes),
            )
            self._query_arrays = qa
        return qa

    def passes_batch(self, batch: CandidateBatch) -> np.ndarray:
        """Vectorised :meth:`passes` over a whole candidate batch.

        Returns a boolean survivor mask.  The lemma stages run in the
        same cheap-to-expensive order over the batch, each one only
        charged against candidates still alive, so the per-lemma
        :class:`LocalFilterStats` tallies — and the accept/reject
        decisions — are identical to running :meth:`passes` per record.
        Lemma 14 runs :func:`boxes_exceed_many` once over the
        candidates the earlier lemmas kept.
        """
        n = batch.size
        stats = self.stats
        stats.evaluated += n
        tracer = self.tracer if self.tracer.enabled else None
        eps = self.eps
        if n == 0:
            return np.zeros(0, dtype=bool)
        if eps == math.inf:
            stats.passed += n
            if tracer is not None:
                for rec in batch.records:
                    tracer.add_event("filter.pass", tid=rec.tid)
            return np.ones(n, dtype=bool)

        alive = np.ones(n, dtype=bool)
        rejections: List[Tuple[str, np.ndarray]] = []

        def reject(lemma: str, mask: np.ndarray) -> int:
            rej = alive & mask
            count = int(rej.sum())
            if count:
                alive[rej] = False
                if tracer is not None:
                    rejections.append((lemma, np.flatnonzero(rej)))
            return count

        # Step 0 — MBR gap (Lemma 5), the scalar
        # ``query.mbr.distance_to_rect(features.mbr)`` broadcast.
        if "mbr" in self.stages:
            qm = self.query.mbr
            mbrs = batch.mbrs
            dx = np.maximum(
                np.maximum(mbrs[:, 0] - qm.max_x, 0.0), qm.min_x - mbrs[:, 2]
            )
            dy = np.maximum(
                np.maximum(mbrs[:, 1] - qm.max_y, 0.0), qm.min_y - mbrs[:, 3]
            )
            stats.rejected_mbr += reject("mbr", np.hypot(dx, dy) > eps)

        # Step 1 — Lemma 12, start and end points.
        if (
            "start_end" in self.stages
            and self.measure.supports_start_end_filter
            and alive.any()
        ):
            q_start, q_end, _, _, _, _ = self._query_side()
            ds = np.hypot(
                q_start[0] - batch.starts[:, 0], q_start[1] - batch.starts[:, 1]
            )
            de = np.hypot(
                q_end[0] - batch.ends[:, 0], q_end[1] - batch.ends[:, 1]
            )
            stats.rejected_start_end += reject(
                "start_end", (ds > eps) | (de > eps)
            )

        # Step 2 — Lemma 13 in both directions.  A candidate is rejected
        # when any of its representative points exceeds the query's box
        # union, or any query representative point exceeds the
        # candidate's.
        if "rep_points" in self.stages and alive.any():
            _, _, _, q_rep, q_boxes, q_envs = self._query_side()
            sel = alive[batch.rep_cand_ids]
            rep_pts = batch.rep_points[sel]
            rep_ids = batch.rep_cand_ids[sel]
            rej13 = np.zeros(n, dtype=bool)
            if len(rep_pts):
                if len(q_boxes):
                    within = points_within_box_union(
                        rep_pts, q_boxes, q_envs, eps
                    )
                    exceeds_pt = ~within.any(axis=1)
                else:
                    exceeds_pt = np.ones(len(rep_pts), dtype=bool)
                rej13 |= (
                    np.bincount(rep_ids[exceeds_pt], minlength=n) > 0
                )
            if len(q_rep):
                if len(batch.box_params):
                    within2 = points_within_box_union(
                        q_rep, batch.box_params, batch.box_envelopes, eps
                    )
                    # Per query point, any-over-each-candidate's-boxes by
                    # ragged prefix sums (robust to zero-box records).
                    cs = np.concatenate(
                        [
                            np.zeros((len(q_rep), 1), dtype=np.int64),
                            np.cumsum(within2, axis=1, dtype=np.int64),
                        ],
                        axis=1,
                    )
                    ends = batch.box_offsets + batch.box_counts
                    per = cs[:, ends] - cs[:, batch.box_offsets]  # (r, n)
                    rej13 |= (per == 0).any(axis=0)
                else:
                    rej13 |= batch.box_counts == 0
            stats.rejected_rep_points += reject("rep_points", rej13)

        # Step 3 — Lemma 14, both directions, on the candidates the
        # cheap lemmas kept, under the same cost cap: one kernel call
        # for all of them.
        if "boxes" in self.stages and alive.any():
            q_features = self.features
            n_q_boxes = len(q_features.boxes)
            checked = alive & (
                batch.box_counts * n_q_boxes <= self.MAX_BOX_PAIRS
            )
            idx = np.flatnonzero(checked)
            rej14 = np.zeros(n, dtype=bool)
            if len(idx):
                records = batch.records
                rej14[idx] = boxes_exceed_many(
                    q_features,
                    batch.box_params[np.repeat(checked, batch.box_counts)],
                    batch.box_counts[idx],
                    lambda i: records[idx[i]].features,
                    eps,
                )
            stats.rejected_boxes += reject("boxes", rej14)

        stats.passed += int(alive.sum())
        if tracer is not None:
            lemma_of = {}
            for lemma, idxs in rejections:
                for i in idxs:
                    lemma_of[int(i)] = lemma
            for i, rec in enumerate(batch.records):
                lemma = lemma_of.get(i)
                if lemma is None:
                    tracer.add_event("filter.pass", tid=rec.tid)
                else:
                    tracer.add_event(
                        "filter.reject", lemma=lemma, tid=rec.tid
                    )
        return alive


class LocalFilterRowFilter(RowFilter):
    """Server-side adapter: decode the row, apply :class:`LocalFilter`.

    Accepted records are cached by row key so the client does not pay
    for a second decode of rows it is about to refine.  ``decoder``
    replaces the plain ``decode_row`` call — the store passes its
    record-cache-backed decoder here, so repeated scans of the same
    rows skip decoding entirely.
    """

    def __init__(
        self,
        local_filter: LocalFilter,
        decoder: Optional[Callable[[bytes, bytes], TrajectoryRecord]] = None,
    ):
        self.local_filter = local_filter
        self.decoder = decoder
        self.accepted: Dict[bytes, TrajectoryRecord] = {}

    def accept(self, key: bytes, value: bytes) -> bool:
        if self.decoder is not None:
            record = self.decoder(key, value)
        else:
            tid, points, features = decode_row(value)
            record = TrajectoryRecord(tid, tuple(points), features, -1)
        if self.local_filter.passes(record):
            self.accepted[bytes(key)] = record
            return True
        return False

    def spawn(self) -> "LocalFilterRowFilter":
        return LocalFilterRowFilter(self.local_filter.spawn(), self.decoder)

    def absorb(self, worker: "RowFilter") -> None:
        if worker is self:
            return
        self.accepted.update(worker.accepted)
        self.local_filter.absorb(worker.local_filter)


class BatchLocalFilterRowFilter(RowFilter):
    """Batch sibling of :class:`LocalFilterRowFilter`.

    Marked ``batch = True`` so the executor's chunk helper scans the
    range unfiltered, decodes the chunk columnar-once, and lets
    :meth:`accept_batch` evaluate the lemmas over the whole batch with
    numpy (the executor restores the per-row filter counters the
    pushdown path would have produced).  ``decoder`` is the store's
    columnar-cache-backed decoder; accepted records are cached by row
    key as :class:`TrajectoryRecord` views over the columnar arrays, so
    refinement reuses the same decode.
    """

    #: tells the executor to deliver whole chunks to :meth:`accept_batch`
    batch = True

    def __init__(
        self,
        local_filter: LocalFilter,
        decoder: Optional[Callable[[bytes, bytes], ColumnarRecord]] = None,
    ):
        self.local_filter = local_filter
        self.decoder = decoder
        self.accepted: Dict[bytes, TrajectoryRecord] = {}

    def _decode(self, key: bytes, value: bytes) -> ColumnarRecord:
        if self.decoder is not None:
            return self.decoder(key, value)
        return decode_row_columnar(value)

    def accept(self, key: bytes, value: bytes) -> bool:
        """Single-row fallback (a one-record batch); the scan path uses
        :meth:`accept_batch`."""
        return bool(self.accept_batch([(key, value)]))

    def accept_batch(self, rows):
        """Filter a chunk; returns the surviving ``(key, value)`` rows."""
        if not rows:
            return []
        records = [self._decode(key, value) for key, value in rows]
        mask = self.local_filter.passes_batch(CandidateBatch(records))
        kept = []
        for i in np.flatnonzero(mask):
            key, value = rows[i]
            self.accepted[bytes(key)] = records[i].as_record()
            kept.append(rows[i])
        return kept

    def spawn(self) -> "BatchLocalFilterRowFilter":
        return BatchLocalFilterRowFilter(self.local_filter.spawn(), self.decoder)

    def absorb(self, worker: "RowFilter") -> None:
        if worker is self:
            return
        self.accepted.update(worker.accepted)
        self.local_filter.absorb(worker.local_filter)
