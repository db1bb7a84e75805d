"""The scatter-gather coordinator of the serving tier.

``ServingCluster`` promotes the single-process engine to N shard
worker processes behind one front door:

* **partitioning** — trajectory ``tid`` hashes to a salt (the first
  byte of its row key); partition ``p`` owns the salts
  ``{s : s % partitions == p}``.  Each worker rebuilds exactly its
  partition's slice, so per-shard scans read exactly the rows the
  single-process scan would read from those salts and per-shard answer
  sets are disjoint — the coordinator merge is a plain union
  (threshold) or a k-smallest merge (top-k).
* **planning** — global pruning is a pure function of the query, the
  threshold and the index geometry (never of the stored rows), so the
  coordinator plans once on an *empty* engine and ships only the
  index-value ranges; workers map them onto their owned salts.
* **robustness** — per-partition replicas with automatic failover on
  worker crash, pipe EOF, transient worker errors, or timeout; hedged
  requests to straggler shards (opt-in ``hedge_delay_seconds``);
  circuit breakers per ``(partition, replica)`` slot reusing the PR 1
  breaker; bounded attempts; and when a partition is truly
  unreachable, degraded-mode accounting that reports the *exact*
  skipped key ranges in the same shape as the ``ResilientExecutor``
  contract — or, without ``degraded_mode``, a typed
  :class:`~repro.exceptions.DegradedResult` carrying the partial
  answer.
* **admission control** — an :class:`AdmissionController` front door
  (per-tenant token buckets + queue-depth shedding) raising typed
  :class:`~repro.exceptions.OverloadedError` rejections.
"""

from __future__ import annotations

import time
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import TraSS
from repro.core.executor import CircuitBreaker, ScanReport
from repro.core.local_filter import LocalFilterStats
from repro.core.pruning import PruningResult
from repro.core.threshold import ThresholdSearchResult
from repro.core.topk import TopKSearchResult
from repro.core.validate import check_query, check_threshold
from repro.exceptions import (
    ClusterError,
    DegradedResult,
    QueryError,
    ShardUnavailableError,
)
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.kvstore.rowkey import shard_of
from repro.kvstore.table import ScanRange
from repro.obs.tracing import NULL_TRACER, graft_span_dict
from repro.serve.admission import AdmissionController
from repro.serve.obs import ClusterObservability
from repro.serve.protocol import (
    KIND_CRASH,
    KIND_PING,
    KIND_STALL,
    KIND_STATS,
    KIND_THRESHOLD,
    KIND_TOPK,
    Request,
    TraceContext,
    decode_error,
    error_is_transient,
)
from repro.serve.supervisor import ReplicaHandle, ShardSupervisor
from repro.serve.worker import WorkerSpec


class _Flight:
    """One partition's in-flight request during a single-query scatter."""

    __slots__ = (
        "partition",
        "request",
        "tried",
        "active",
        "attempts",
        "attempt_started",
        "hedged",
        "hedge_handle",
        "done",
        "exhausted",
        "result",
        "error",
        "spans",
        "winner_slot",
        "service_seconds",
    )

    def __init__(self, partition: int, request: Request):
        self.partition = partition
        self.request = request
        self.tried: set = set()
        #: replica handle -> replica slot index, for every outstanding copy
        self.active: Dict[ReplicaHandle, int] = {}
        self.attempts = 0
        self.attempt_started = 0.0
        self.hedged = False
        self.hedge_handle: Optional[ReplicaHandle] = None
        self.done = False
        self.exhausted = False
        self.result = None
        self.error = None
        #: worker span subtree shipped on the winning reply (traced runs)
        self.spans = None
        #: replica slot that produced the winning reply
        self.winner_slot: Optional[int] = None
        #: launch-to-reply wall seconds of the winning attempt
        self.service_seconds: Optional[float] = None


class _PartitionBatch:
    """One partition's pipelined FIFO stream during a batch scatter."""

    __slots__ = (
        "partition",
        "requests",
        "queue",
        "inflight",
        "results",
        "handle",
        "slot",
        "tried",
        "attempts",
        "exhausted",
        "last_activity",
    )

    def __init__(self, partition: int, requests: List[Request]):
        self.partition = partition
        self.requests = requests
        self.queue = deque(requests)
        self.inflight: deque = deque()
        self.results: Dict[int, object] = {}
        self.handle: Optional[ReplicaHandle] = None
        self.slot: Optional[int] = None
        self.tried: set = set()
        self.attempts = 0
        self.exhausted = False
        self.last_activity = 0.0

    @property
    def finished(self) -> bool:
        return self.exhausted or len(self.results) == len(self.requests)


class ServingCluster:
    """Distributed TraSS serving: shard workers behind a coordinator.

    Usable as a context manager; :meth:`start` spawns the workers and
    blocks until every replica has built its slice and answered a ping.
    Answers are bit-identical to the single-process engine (threshold:
    disjoint-union of per-salt answer sets; top-k: k-smallest merge of
    per-shard top-k lists, identical in the absence of exact distance
    ties at the k-th boundary).
    """

    #: pipelined requests kept unanswered per worker pipe — bounds pipe
    #: buffer usage so sends never block behind a slow consumer
    BATCH_WINDOW = 16

    def __init__(
        self,
        config,
        key_encoding: str,
        trajectories: Sequence[Tuple[str, tuple]],
        partitions: int = 2,
        replication: int = 1,
        request_timeout: float = 30.0,
        startup_timeout: float = 120.0,
        hedge_delay_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        degraded_mode: bool = False,
        admission: Optional[AdmissionController] = None,
        fault_schedules: Optional[Dict[int, object]] = None,
        max_restarts: int = 3,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_seconds: float = 5.0,
        tracer=None,
        segment_dir: Optional[str] = None,
        observability: bool = False,
        slo_objective_seconds: float = 0.5,
        slo_target: float = 0.99,
    ):
        if partitions < 1:
            raise ClusterError(f"partitions must be >= 1, got {partitions}")
        if partitions > config.shards:
            raise ClusterError(
                f"partitions ({partitions}) cannot exceed config.shards "
                f"({config.shards}): a partition must own at least one salt"
            )
        if replication < 1:
            raise ClusterError(f"replication must be >= 1, got {replication}")
        if request_timeout <= 0:
            raise ClusterError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        if hedge_delay_seconds is not None and hedge_delay_seconds < 0:
            raise ClusterError(
                f"hedge_delay_seconds must be >= 0, got {hedge_delay_seconds}"
            )
        self.config = config
        self.key_encoding = key_encoding
        self.partitions = partitions
        self.replication = replication
        self.request_timeout = request_timeout
        self.startup_timeout = startup_timeout
        self.hedge_delay_seconds = hedge_delay_seconds
        self.max_attempts = (
            max_attempts if max_attempts is not None else replication + 1
        )
        self.degraded_mode = degraded_mode
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Cluster-wide aggregation (SLO histograms, per-worker IO
        # accumulation, heartbeats) only exists when asked for — the
        # zero-cost-when-off contract leaves every hot-path guard a
        # single `is not None` check.
        self.obs: Optional[ClusterObservability] = (
            ClusterObservability(
                slo_objective_seconds=slo_objective_seconds,
                slo_target=slo_target,
            )
            if observability
            else None
        )
        #: per-partition attribution of the most recent single-query
        #: scatter (partition/replica/attempts/hedged/reached), consumed
        #: by the engine's slow-query log for cluster entries
        self.last_fanout: Optional[List[Dict[str, object]]] = None
        self.supervisor = ShardSupervisor(max_restarts=max_restarts)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failure_threshold,
            cooldown_seconds=breaker_cooldown_seconds,
        )
        # Planning is independent of stored data, so an empty engine
        # supplies the pruner, the range -> row-key mapping (for exact
        # skipped-range accounting) and measure resolution.
        self._plan_engine = TraSS(config, key_encoding)
        self._next_request_id = 0
        self._started = False
        self.counters: Dict[str, int] = {
            "requests": 0,
            "threshold_queries": 0,
            "topk_queries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "failovers": 0,
            "degraded_queries": 0,
            "stale_replies": 0,
            "breaker_short_circuits": 0,
            "worker_errors": 0,
        }

        # Partition the dataset by the salt byte of each row key.
        slices: List[List[Tuple[str, tuple]]] = [
            [] for _ in range(partitions)
        ]
        for tid, points in trajectories:
            slices[self._partition_of(tid)].append((tid, points))
        # Shared-memory serving: materialise each partition's slice
        # once as a compact-segment store on disk; every replica of the
        # partition then opens the *same* files read-only via mmap, so
        # the page cache holds one copy of the data regardless of the
        # replication factor (instead of R private in-heap copies).
        store_dirs: List[Optional[str]] = [None] * partitions
        if segment_dir is not None:
            import os

            for p in range(partitions):
                slice_engine = TraSS(config, key_encoding)
                slice_engine.add_all(
                    Trajectory(tid, points) for tid, points in slices[p]
                )
                path = os.path.join(segment_dir, f"partition-{p:03d}")
                slice_engine.save(path, compact=True)
                store_dirs[p] = path
        fault_schedules = fault_schedules or {}
        self._specs: List[List[WorkerSpec]] = []
        for p in range(partitions):
            replica_specs = []
            for r in range(replication):
                replica_specs.append(
                    WorkerSpec(
                        partition=p,
                        replica=r,
                        config=config,
                        key_encoding=key_encoding,
                        trajectories=[] if store_dirs[p] else slices[p],
                        owned_salts=self.owned_salts(p),
                        fault_schedule=fault_schedules.get(p),
                        store_dir=store_dirs[p],
                    )
                )
            self._specs.append(replica_specs)
        self._replicas: List[List[ReplicaHandle]] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(cls, engine: TraSS, **kwargs) -> "ServingCluster":
        """Shard an existing single-process engine's dataset."""
        trajectories = [
            (record.tid, tuple(record.points))
            for record in engine.store.all_records()
        ]
        return cls(
            engine.config, engine.store.key_encoding, trajectories, **kwargs
        )

    def _partition_of(self, tid: str) -> int:
        return shard_of(tid, self.config.shards) % self.partitions

    def owned_salts(self, partition: int) -> Tuple[int, ...]:
        return tuple(
            s
            for s in range(self.config.shards)
            if s % self.partitions == partition
        )

    @property
    def pruner(self):
        return self._plan_engine.pruner

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingCluster":
        """Spawn every replica and wait for all of them to come up."""
        if self._started:
            return self
        self._replicas = [
            [self.supervisor.spawn(spec) for spec in replica_specs]
            for replica_specs in self._specs
        ]
        deadline = time.monotonic() + self.startup_timeout
        pings = []
        for handles in self._replicas:
            for handle in handles:
                request = Request(self._next_id(), KIND_PING)
                handle.conn.send(request)
                pings.append((handle, request.id))
        for handle, request_id in pings:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.conn.poll(remaining):
                self.stop()
                raise ClusterError(
                    f"worker p{handle.partition}r{handle.replica} did not "
                    f"come up within {self.startup_timeout}s"
                )
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError):
                self.stop()
                raise ClusterError(
                    f"worker p{handle.partition}r{handle.replica} died "
                    "during startup"
                )
            if reply.id != request_id or not reply.ok:
                self.stop()
                raise ClusterError(
                    f"worker p{handle.partition}r{handle.replica} failed "
                    f"its startup ping: {reply!r}"
                )
        self._started = True
        return self

    def stop(self) -> None:
        self.supervisor.stop_all()
        self._replicas = []
        self._started = False

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _next_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def _make_request(self, kind: str, payload: dict) -> Request:
        """A query request, trace-stamped when the coordinator traces.

        The trace context rides the request across the pipe; a worker
        that sees one records its handler under a real tracer and ships
        the span subtree back on the reply.  Untraced coordinators send
        ``trace=None`` and workers stay on their zero-cost noop path.
        """
        request = Request(self._next_id(), kind, payload)
        if self.tracer is not NULL_TRACER:
            request.trace = TraceContext(trace_id=f"q{request.id}")
        return request

    def _require_started(self) -> None:
        if not self._started:
            raise ClusterError("cluster is not started (call start())")

    # ------------------------------------------------------------------
    # Chaos / test hooks
    # ------------------------------------------------------------------
    def replica(self, partition: int, replica: int = 0) -> ReplicaHandle:
        return self._replicas[partition][replica]

    def kill_replica(self, partition: int, replica: int = 0) -> None:
        """SIGKILL a worker process (out-of-band chaos)."""
        self.replica(partition, replica).kill()

    def crash_replica_inband(
        self, partition: int, replica: int = 0
    ) -> None:
        """Queue a crash directive: the worker dies — exactly like a
        kill — when its FIFO reaches the directive, i.e. deterministic
        death *mid-workload* after everything queued before it."""
        handle = self.replica(partition, replica)
        handle.conn.send(Request(self._next_id(), KIND_CRASH))

    def stall_replica(
        self, partition: int, replica: int = 0, seconds: float = 1.0
    ) -> None:
        """Queue a straggler directive (the hedging drill)."""
        handle = self.replica(partition, replica)
        handle.conn.send(
            Request(self._next_id(), KIND_STALL, {"seconds": seconds})
        )

    # ------------------------------------------------------------------
    # Replica selection / failure accounting
    # ------------------------------------------------------------------
    def _eligible_replica(
        self, partition: int, tried: set
    ) -> Optional[Tuple[int, ReplicaHandle]]:
        """The first live, breaker-closed, untried replica of a
        partition; dead replicas are replaced through the supervisor
        (restart budget permitting) before being considered."""
        now = time.monotonic()
        handles = self._replicas[partition]
        for slot in range(len(handles)):
            handle = handles[slot]
            if handle in tried:
                continue
            if not handle.alive():
                replacement = self.supervisor.restart(handle)
                if replacement is None:
                    continue
                handles[slot] = replacement
                handle = replacement
            if self.breaker.is_open((partition, slot), now):
                self.counters["breaker_short_circuits"] += 1
                continue
            return slot, handle
        return None

    def _record_replica_failure(self, partition: int, slot: int) -> None:
        self.breaker.record_failure((partition, slot), time.monotonic())
        self.counters["failovers"] += 1

    # ------------------------------------------------------------------
    # Single-query scatter-gather (with hedging)
    # ------------------------------------------------------------------
    def _launch(self, flight: _Flight) -> None:
        while True:
            if flight.attempts >= self.max_attempts:
                flight.exhausted = True
                return
            pick = self._eligible_replica(flight.partition, flight.tried)
            if pick is None:
                flight.exhausted = True
                return
            slot, handle = pick
            flight.tried.add(handle)
            flight.attempts += 1
            try:
                handle.conn.send(flight.request)
            except (OSError, BrokenPipeError, ValueError):
                self._record_replica_failure(flight.partition, slot)
                continue
            flight.active[handle] = slot
            flight.attempt_started = time.monotonic()
            return

    def _hedge(self, flight: _Flight) -> None:
        flight.hedged = True
        if self.obs is not None:
            # How long the primary stalled before we gave up waiting —
            # the hedge-efficacy signal the doctor reads.
            self.obs.observe_slo(
                "hedge_wait", time.monotonic() - flight.attempt_started
            )
        if flight.attempts >= self.max_attempts:
            return
        pick = self._eligible_replica(flight.partition, flight.tried)
        if pick is None:
            return
        slot, handle = pick
        flight.tried.add(handle)
        flight.attempts += 1
        try:
            handle.conn.send(flight.request)
        except (OSError, BrokenPipeError, ValueError):
            self._record_replica_failure(flight.partition, slot)
            return
        flight.active[handle] = slot
        flight.hedge_handle = handle
        self.counters["hedges"] += 1

    def _drop_active(
        self, flight: _Flight, handle: ReplicaHandle, failed: bool
    ) -> None:
        slot = flight.active.pop(handle, None)
        if failed and slot is not None:
            self._record_replica_failure(flight.partition, slot)
        if not flight.active and not flight.done:
            self._launch(flight)

    def _scatter(self, kind: str, payload: dict) -> Dict[int, _Flight]:
        """Fan one request out to every partition and gather replies,
        handling hedges, failover, timeouts and dead workers."""
        self._require_started()
        flights = {
            p: _Flight(p, self._make_request(kind, payload))
            for p in range(self.partitions)
        }
        self.counters["requests"] += 1
        for flight in flights.values():
            self._launch(flight)

        while True:
            live = [
                f
                for f in flights.values()
                if not f.done and not f.exhausted
            ]
            if not live:
                break
            now = time.monotonic()
            next_deadline = min(
                f.attempt_started + self.request_timeout for f in live
            )
            if self.hedge_delay_seconds is not None:
                for f in live:
                    if not f.hedged:
                        next_deadline = min(
                            next_deadline,
                            f.attempt_started + self.hedge_delay_seconds,
                        )
            conn_map = {}
            for f in live:
                for handle in f.active:
                    conn_map[handle.conn] = (f, handle)
            ready = (
                _mp_wait(list(conn_map), max(0.0, next_deadline - now))
                if conn_map
                else []
            )
            for conn in ready:
                flight, handle = conn_map[conn]
                if flight.done or handle not in flight.active:
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._drop_active(flight, handle, failed=True)
                    continue
                if reply.id != flight.request.id:
                    self.counters["stale_replies"] += 1
                    continue
                if reply.ok:
                    slot = flight.active[handle]
                    self.breaker.record_success((flight.partition, slot))
                    flight.result = reply.payload
                    flight.done = True
                    flight.spans = reply.spans
                    flight.winner_slot = slot
                    flight.service_seconds = (
                        time.monotonic() - flight.attempt_started
                    )
                    if self.obs is not None:
                        self.obs.absorb_reply(
                            flight.partition, slot, reply.payload
                        )
                        self.obs.observe_partition_service(
                            flight.partition, flight.service_seconds
                        )
                    # A losing hedge copy will answer later; its reply
                    # drains as stale on the next use of that pipe.
                    flight.active.clear()
                    if flight.hedged and handle is flight.hedge_handle:
                        self.counters["hedge_wins"] += 1
                elif error_is_transient(reply.error):
                    self.counters["worker_errors"] += 1
                    self._drop_active(flight, handle, failed=True)
                else:
                    self.counters["worker_errors"] += 1
                    flight.error = reply.error
                    flight.done = True
                    flight.active.clear()
            now = time.monotonic()
            for flight in flights.values():
                if flight.done or flight.exhausted or not flight.active:
                    continue
                if now - flight.attempt_started >= self.request_timeout:
                    for handle in list(flight.active):
                        self._drop_active(flight, handle, failed=True)
                elif (
                    self.hedge_delay_seconds is not None
                    and not flight.hedged
                    and now - flight.attempt_started
                    >= self.hedge_delay_seconds
                ):
                    self._hedge(flight)
        self.last_fanout = [
            {
                "partition": p,
                "replica": flight.winner_slot,
                "attempts": flight.attempts,
                "hedged": flight.hedged,
                "reached": flight.done,
            }
            for p, flight in sorted(flights.items())
        ]
        return flights

    # ------------------------------------------------------------------
    # Pipelined batch scatter (throughput path)
    # ------------------------------------------------------------------
    def _batch_fail(self, state: _PartitionBatch) -> None:
        if state.slot is not None:
            self._record_replica_failure(state.partition, state.slot)
        # Unanswered requests go back to the head of the queue in their
        # original order; the next replica re-executes them against an
        # identical store, so answers are unchanged.
        while state.inflight:
            state.queue.appendleft(state.inflight.pop())
        state.handle = None
        state.slot = None

    def _batch_pick(self, state: _PartitionBatch) -> None:
        if state.attempts >= self.max_attempts:
            state.exhausted = True
            return
        pick = self._eligible_replica(state.partition, state.tried)
        if pick is None:
            state.exhausted = True
            return
        state.slot, state.handle = pick[0], pick[1]
        state.tried.add(state.handle)
        state.attempts += 1
        state.last_activity = time.monotonic()

    def _batch_scatter(
        self, requests_by_partition: Dict[int, List[Request]]
    ) -> Dict[int, _PartitionBatch]:
        """Pump every partition's FIFO pipeline concurrently.

        At most :data:`BATCH_WINDOW` requests ride each pipe unanswered,
        so sends never block behind a busy worker while every worker
        always has a full window of queued work — the scaling path the
        serving bench measures.
        """
        self._require_started()
        states = {
            p: _PartitionBatch(p, requests)
            for p, requests in requests_by_partition.items()
        }
        while True:
            live = [s for s in states.values() if not s.finished]
            if not live:
                break
            for state in live:
                if state.handle is None:
                    self._batch_pick(state)
                    if state.exhausted:
                        continue
                while (
                    state.handle is not None
                    and len(state.inflight) < self.BATCH_WINDOW
                    and state.queue
                ):
                    request = state.queue[0]
                    try:
                        state.handle.conn.send(request)
                    except (OSError, BrokenPipeError, ValueError):
                        self._batch_fail(state)
                        break
                    state.queue.popleft()
                    state.inflight.append(request)
                    state.last_activity = time.monotonic()
            conn_map = {
                s.handle.conn: s
                for s in live
                if s.handle is not None and s.inflight
            }
            if not conn_map:
                continue
            now = time.monotonic()
            next_deadline = min(
                s.last_activity + self.request_timeout
                for s in conn_map.values()
            )
            ready = _mp_wait(list(conn_map), max(0.0, next_deadline - now))
            for conn in ready:
                state = conn_map[conn]
                if state.handle is None or state.handle.conn is not conn:
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._batch_fail(state)
                    continue
                state.last_activity = time.monotonic()
                expected = {r.id for r in state.inflight}
                if reply.id not in expected:
                    self.counters["stale_replies"] += 1
                    continue
                skipped_over: List[Request] = []
                while state.inflight and state.inflight[0].id != reply.id:
                    # FIFO workers answer in order; a gap means replies
                    # were lost — requeue the skipped requests.
                    skipped_over.append(state.inflight.popleft())
                state.queue.extendleft(reversed(skipped_over))
                request = state.inflight.popleft()
                if reply.ok:
                    self.breaker.record_success(
                        (state.partition, state.slot)
                    )
                    state.results[request.id] = reply
                    if self.obs is not None:
                        self.obs.absorb_reply(
                            state.partition, state.slot, reply.payload
                        )
                elif error_is_transient(reply.error):
                    self.counters["worker_errors"] += 1
                    state.queue.appendleft(request)
                    self._batch_fail(state)
                else:
                    self.counters["worker_errors"] += 1
                    state.results[request.id] = reply
            now = time.monotonic()
            for state in live:
                if (
                    state.handle is not None
                    and state.inflight
                    and now - state.last_activity >= self.request_timeout
                ):
                    self._batch_fail(state)
        return states

    # ------------------------------------------------------------------
    # Planning / merging
    # ------------------------------------------------------------------
    def _empty_pruning(self) -> PruningResult:
        return PruningResult(
            values=[],
            ranges=[],
            min_resolution=0,
            max_resolution=self.config.max_resolution,
        )

    def _threshold_payload(self, query, eps: float, measure) -> Tuple[dict, PruningResult, Optional[List[Tuple[int, int]]], float]:
        started = time.perf_counter()
        if measure.supports_point_lower_bound:
            pruning = self.pruner.prune(query, eps)
            wire_ranges = [(r.start, r.stop) for r in pruning.ranges]
        else:
            pruning = self._empty_pruning()
            wire_ranges = None
        pruning_seconds = time.perf_counter() - started
        payload = {
            "tid": query.tid,
            "points": list(query.points),
            "eps": float(eps),
            "measure": measure.name,
            "ranges": wire_ranges,
        }
        return payload, pruning, wire_ranges, pruning_seconds

    def _skipped_spans(
        self,
        partition: int,
        wire_ranges: Optional[List[Tuple[int, int]]],
    ) -> List[ScanRange]:
        """Exactly the row-key ranges an unreachable partition would
        have scanned: the planned ranges mapped onto its owned salts,
        or — for plan-free paths (top-k, full-scan fallbacks) — the
        partition's whole salt spans."""
        if wire_ranges is not None:
            ranges = [IndexRange(s, t) for s, t in wire_ranges]
            return self._plan_engine.store.scan_ranges_for(
                ranges, shards=self.owned_salts(partition)
            )
        spans = []
        for salt in self.owned_salts(partition):
            stop = bytes([salt + 1]) if salt < 255 else None
            spans.append(ScanRange(bytes([salt]), stop))
        return spans

    def _merge_threshold(
        self,
        partials: Dict[int, object],
        unreachable: List[int],
        pruning: PruningResult,
        wire_ranges,
        pruning_seconds: float,
        wall_seconds: float,
    ) -> Tuple[ThresholdSearchResult, List[ScanRange]]:
        answers: Dict[str, float] = {}
        candidates = 0
        retrieved = 0
        report: Optional[ScanReport] = None
        filter_stats: Optional[LocalFilterStats] = None
        for partition in sorted(partials):
            part = partials[partition]
            answers.update(part.answers)
            candidates += part.candidates
            retrieved += part.retrieved_rows
            if part.resilience is not None:
                if report is None:
                    report = ScanReport()
                report.merge_from(part.resilience)
            if part.filter_stats is not None:
                if filter_stats is None:
                    filter_stats = LocalFilterStats()
                filter_stats.merge_from(part.filter_stats)
        skipped: List[ScanRange] = []
        for partition in unreachable:
            skipped.extend(self._skipped_spans(partition, wire_ranges))
        if skipped:
            if report is None:
                report = ScanReport()
            report.ranges_total += len(skipped)
            report.skipped_ranges.extend(skipped)
        result = ThresholdSearchResult(
            answers=answers,
            candidates=candidates,
            retrieved_rows=retrieved,
            pruning=pruning,
            pruning_seconds=pruning_seconds,
            scan_seconds=wall_seconds,
            refine_seconds=0.0,
            resilience=report,
            filter_stats=filter_stats,
        )
        return result, skipped

    def _merge_topk(
        self,
        partials: Dict[int, object],
        unreachable: List[int],
        k: int,
        wall_seconds: float,
    ) -> Tuple[TopKSearchResult, List[ScanRange]]:
        merged: List[Tuple[float, str]] = []
        candidates = 0
        retrieved = 0
        units = 0
        expanded = 0
        report: Optional[ScanReport] = None
        filter_stats: Optional[LocalFilterStats] = None
        for partition in sorted(partials):
            part = partials[partition]
            merged.extend(part.answers)
            candidates += part.candidates
            retrieved += part.retrieved_rows
            units += part.units_scanned
            expanded += part.elements_expanded
            if part.resilience is not None:
                if report is None:
                    report = ScanReport()
                report.merge_from(part.resilience)
            if part.filter_stats is not None:
                if filter_stats is None:
                    filter_stats = LocalFilterStats()
                filter_stats.merge_from(part.filter_stats)
        merged.sort()
        skipped: List[ScanRange] = []
        for partition in unreachable:
            skipped.extend(self._skipped_spans(partition, None))
        if skipped:
            if report is None:
                report = ScanReport()
            report.ranges_total += len(skipped)
            report.skipped_ranges.extend(skipped)
        result = TopKSearchResult(
            answers=merged[:k],
            candidates=candidates,
            retrieved_rows=retrieved,
            units_scanned=units,
            elements_expanded=expanded,
            total_seconds=wall_seconds,
            resilience=report,
            filter_stats=filter_stats,
        )
        return result, skipped

    def _finish(self, result, skipped: List[ScanRange], kind: str):
        if skipped:
            self.counters["degraded_queries"] += 1
            if not self.degraded_mode:
                raise DegradedResult(
                    f"{kind} query lost {len(skipped)} key range(s) to "
                    "unreachable partitions (enable degraded_mode to "
                    "accept partial answers)",
                    result=result,
                    skipped_ranges=skipped,
                )
        return result

    @staticmethod
    def _split_flights(
        flights: Dict[int, _Flight]
    ) -> Tuple[Dict[int, object], List[int]]:
        partials: Dict[int, object] = {}
        unreachable: List[int] = []
        for partition, flight in flights.items():
            if flight.error is not None:
                raise decode_error(flight.error)
            if flight.done and flight.result is not None:
                partials[partition] = flight.result
            else:
                unreachable.append(partition)
        return partials, unreachable

    # ------------------------------------------------------------------
    # Public query API
    # ------------------------------------------------------------------
    def threshold_search(
        self, query, eps: float, measure=None, tenant: str = "default"
    ) -> ThresholdSearchResult:
        check_query(query)
        check_threshold(eps)
        resolved = self._plan_engine._resolve_measure(measure)
        query_started = time.perf_counter()
        self.admission.admit(tenant)
        if self.obs is not None:
            self.obs.observe_slo(
                "admission_wait", time.perf_counter() - query_started
            )
        try:
            with self.tracer.span(
                "serve.query", kind="threshold", tid=query.tid, eps=eps
            ) as root:
                payload, pruning, wire_ranges, pruning_seconds = (
                    self._threshold_payload(query, eps, resolved)
                )
                started = time.perf_counter()
                flights = self._scatter(KIND_THRESHOLD, payload)
                wall = time.perf_counter() - started
                if self.obs is not None:
                    self.obs.observe_slo("fanout", wall)
                self._trace_flights(flights)
                partials, unreachable = self._split_flights(flights)
                merge_started = time.perf_counter()
                result, skipped = self._merge_threshold(
                    partials,
                    unreachable,
                    pruning,
                    wire_ranges,
                    pruning_seconds,
                    wall,
                )
                if self.obs is not None:
                    self.obs.observe_slo(
                        "merge", time.perf_counter() - merge_started
                    )
                root.set_attrs(
                    answers=len(result.answers),
                    partitions=self.partitions,
                    unreachable=len(unreachable),
                )
            self.counters["threshold_queries"] += 1
            if self.obs is not None:
                self.obs.observe_query(
                    time.perf_counter() - query_started, ok=not skipped
                )
            return self._finish(result, skipped, "threshold")
        finally:
            self.admission.release()

    def topk_search(
        self, query, k: int, measure=None, tenant: str = "default"
    ) -> TopKSearchResult:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        check_query(query)
        resolved = self._plan_engine._resolve_measure(measure)
        query_started = time.perf_counter()
        self.admission.admit(tenant)
        if self.obs is not None:
            self.obs.observe_slo(
                "admission_wait", time.perf_counter() - query_started
            )
        try:
            with self.tracer.span(
                "serve.query", kind="topk", tid=query.tid, k=k
            ) as root:
                payload = {
                    "tid": query.tid,
                    "points": list(query.points),
                    "k": int(k),
                    "measure": resolved.name,
                }
                started = time.perf_counter()
                flights = self._scatter(KIND_TOPK, payload)
                wall = time.perf_counter() - started
                if self.obs is not None:
                    self.obs.observe_slo("fanout", wall)
                self._trace_flights(flights)
                partials, unreachable = self._split_flights(flights)
                merge_started = time.perf_counter()
                result, skipped = self._merge_topk(
                    partials, unreachable, k, wall
                )
                if self.obs is not None:
                    self.obs.observe_slo(
                        "merge", time.perf_counter() - merge_started
                    )
                root.set_attrs(
                    answers=len(result.answers),
                    partitions=self.partitions,
                    unreachable=len(unreachable),
                )
            self.counters["topk_queries"] += 1
            if self.obs is not None:
                self.obs.observe_query(
                    time.perf_counter() - query_started, ok=not skipped
                )
            return self._finish(result, skipped, "topk")
        finally:
            self.admission.release()

    def _trace_flights(self, flights: Dict[int, _Flight]) -> None:
        """One ``serve.partition`` span per flight; a traced reply's
        worker subtree is grafted under it, stitching the coordinator
        and worker halves of the query into a single cross-process
        tree.  Grafted durations are the worker's own measurements —
        worker clocks never mix with the coordinator clock."""
        if self.tracer is NULL_TRACER:
            return
        for partition, flight in sorted(flights.items()):
            with self.tracer.span(
                "serve.partition", partition=partition
            ) as span:
                span.set_attrs(
                    attempts=flight.attempts,
                    hedged=flight.hedged,
                    reached=flight.done,
                    replica=flight.winner_slot,
                )
            if flight.spans is not None:
                graft_span_dict(self.tracer, flight.spans, span)

    def _trace_batch(self, states: Dict[int, _PartitionBatch]) -> None:
        """The batch analogue of :meth:`_trace_flights`: one
        ``serve.partition`` span per pipelined stream, with every
        traced reply's worker subtree grafted under it in request
        (FIFO) order."""
        if self.tracer is NULL_TRACER:
            return
        for partition, state in sorted(states.items()):
            with self.tracer.span(
                "serve.partition", partition=partition
            ) as span:
                span.set_attrs(
                    attempts=state.attempts,
                    reached=not state.exhausted,
                    replica=state.slot,
                    requests=len(state.requests),
                )
            for request in state.requests:
                reply = state.results.get(request.id)
                if reply is not None and reply.spans is not None:
                    graft_span_dict(self.tracer, reply.spans, span)

    def threshold_search_many(
        self, queries, eps, measure=None, tenant: str = "default"
    ) -> List[ThresholdSearchResult]:
        """Answer many threshold queries over pipelined worker FIFOs.

        Results align positionally with ``queries`` and match
        per-query :meth:`threshold_search` answers exactly; admission
        charges the batch as one request.
        """
        queries = list(queries)
        try:
            eps_list = [float(e) for e in eps]
        except TypeError:
            eps_list = [float(eps)] * len(queries)
        if len(eps_list) != len(queries):
            raise QueryError(
                f"got {len(queries)} queries but {len(eps_list)} thresholds"
            )
        for query, e in zip(queries, eps_list):
            check_query(query)
            check_threshold(e)
        if not queries:
            return []
        resolved = self._plan_engine._resolve_measure(measure)
        self.admission.admit(tenant)
        try:
            plans = []
            payloads = []
            for query, e in zip(queries, eps_list):
                payload, pruning, wire_ranges, pruning_seconds = (
                    self._threshold_payload(query, e, resolved)
                )
                plans.append((pruning, wire_ranges, pruning_seconds))
                payloads.append(payload)
            requests_by_partition = {
                p: [
                    self._make_request(KIND_THRESHOLD, payload)
                    for payload in payloads
                ]
                for p in range(self.partitions)
            }
            self.counters["requests"] += 1
            with self.tracer.span(
                "serve.query_batch", kind="threshold", queries=len(queries)
            ):
                started = time.perf_counter()
                states = self._batch_scatter(requests_by_partition)
                wall = time.perf_counter() - started
                self._trace_batch(states)
            if self.obs is not None:
                self.obs.observe_slo("fanout", wall)
            results = []
            for i in range(len(queries)):
                partials: Dict[int, object] = {}
                unreachable: List[int] = []
                for p, state in states.items():
                    reply = state.results.get(state.requests[i].id)
                    if reply is None:
                        unreachable.append(p)
                    elif reply.ok:
                        partials[p] = reply.payload
                    else:
                        raise decode_error(reply.error)
                pruning, wire_ranges, pruning_seconds = plans[i]
                result, skipped = self._merge_threshold(
                    partials,
                    unreachable,
                    pruning,
                    wire_ranges,
                    pruning_seconds,
                    wall / len(queries),
                )
                self.counters["threshold_queries"] += 1
                if self.obs is not None:
                    self.obs.observe_query(
                        wall / len(queries), ok=not skipped
                    )
                results.append(self._finish(result, skipped, "threshold"))
            return results
        finally:
            self.admission.release()

    def topk_search_many(
        self, queries, k: int, measure=None, tenant: str = "default"
    ) -> List[TopKSearchResult]:
        """Batch top-k over the same pipelined FIFO transport."""
        queries = list(queries)
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        for query in queries:
            check_query(query)
        if not queries:
            return []
        resolved = self._plan_engine._resolve_measure(measure)
        self.admission.admit(tenant)
        try:
            payloads = [
                {
                    "tid": query.tid,
                    "points": list(query.points),
                    "k": int(k),
                    "measure": resolved.name,
                }
                for query in queries
            ]
            requests_by_partition = {
                p: [
                    self._make_request(KIND_TOPK, payload)
                    for payload in payloads
                ]
                for p in range(self.partitions)
            }
            self.counters["requests"] += 1
            with self.tracer.span(
                "serve.query_batch", kind="topk", queries=len(queries)
            ):
                started = time.perf_counter()
                states = self._batch_scatter(requests_by_partition)
                wall = time.perf_counter() - started
                self._trace_batch(states)
            if self.obs is not None:
                self.obs.observe_slo("fanout", wall)
            results = []
            for i in range(len(queries)):
                partials: Dict[int, object] = {}
                unreachable: List[int] = []
                for p, state in states.items():
                    reply = state.results.get(state.requests[i].id)
                    if reply is None:
                        unreachable.append(p)
                    elif reply.ok:
                        partials[p] = reply.payload
                    else:
                        raise decode_error(reply.error)
                result, skipped = self._merge_topk(
                    partials, unreachable, k, wall / len(queries)
                )
                self.counters["topk_queries"] += 1
                if self.obs is not None:
                    self.obs.observe_query(
                        wall / len(queries), ok=not skipped
                    )
                results.append(self._finish(result, skipped, "topk"))
            return results
        finally:
            self.admission.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def heartbeat(self, timeout: float = 10.0) -> int:
        """Poll every live replica for its observability snapshot
        (cumulative ``IOMetrics``, metrics registry, heatmap grid,
        slow-query log) and fold the latest into the cluster aggregate.
        Returns how many workers answered; a no-op (0) when the cluster
        was built without ``observability``.

        Heartbeats ride the same FIFO pipes as queries, so polling an
        idle cluster is safe; dead or unreachable workers are skipped
        rather than restarted (the query path owns failover).
        """
        if self.obs is None:
            return 0
        self._require_started()
        polled = 0
        for partition, handles in enumerate(self._replicas):
            for slot, handle in enumerate(handles):
                if not handle.alive():
                    continue
                request = Request(self._next_id(), KIND_STATS)
                try:
                    handle.conn.send(request)
                except (OSError, BrokenPipeError, ValueError):
                    continue
                deadline = time.monotonic() + timeout
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not handle.conn.poll(remaining):
                        break
                    try:
                        reply = handle.conn.recv()
                    except (EOFError, OSError):
                        break
                    if reply.id != request.id:
                        # A losing hedge copy's late answer draining out.
                        self.counters["stale_replies"] += 1
                        continue
                    if reply.ok:
                        self.obs.absorb_heartbeat(
                            partition, slot, reply.payload
                        )
                        polled += 1
                    break
        return polled

    def io_totals(self) -> Dict[str, int]:
        """Cluster-wide ``IOMetrics`` rollup (sum of every successful
        reply's counter delta); empty without ``observability``."""
        return self.obs.io_totals() if self.obs is not None else {}

    def cluster_heatmap(self):
        """The heat-conserving merge of the latest per-worker heatmap
        grids; ``None`` without ``observability`` or before the first
        heartbeat delivers a grid."""
        if self.obs is None:
            return None
        return self.obs.cluster_heatmap()

    def doctor(self):
        """Cluster-scoped advisor: evidence-cited recommendations from
        the aggregated serving metrics."""
        from repro.obs.advisor import diagnose_cluster

        return diagnose_cluster(self)

    def stats(self) -> Dict[str, object]:
        base: Dict[str, object] = {
            "partitions": self.partitions,
            "replication": self.replication,
            "started": self._started,
            "counters": dict(self.counters),
            "worker_restarts": self.supervisor.total_restarts,
            "breaker": self.breaker.snapshot(),
            "admission": self.admission.snapshot(),
        }
        if self.obs is not None:
            if self._started:
                try:
                    self.heartbeat()
                except ClusterError:
                    pass
            base["observability"] = self.obs.snapshot()
        return base
